//! Differential proptest for parallel sharded replay: for random small
//! modules, every tool in the paper lineup, and every worker count, the
//! parallel replay of a recorded trace must be **bit-identical** to the
//! sequential replay *and* to the live run — same racy contexts, same
//! described report lists (content and order), same detector metrics,
//! same promotion counts. This is the determinism guarantee the CI
//! `replay-determinism` job re-checks end-to-end through the `trace`
//! CLI, and the property that lets a caller pick any worker count
//! without perturbing a single table number.

use proptest::prelude::*;
use spinrace::core::{Analyzer, DetectRequest, Session, Tool};
use spinrace::detector::{shard_of, NUM_SHARDS};
use spinrace::tir::{Module, ModuleBuilder};
use spinrace::workloads::{Family, WorkloadSpec};

/// A small random workload exercising every detector feature the sharded
/// engine must replicate: lock-protected counters (locksets + base
/// interns), an optional ad-hoc flag handoff (spin promotion + seeds), an
/// optional deliberately racy slot (HB reports), and an optional
/// atomic-counter rendezvous (RMW promotion / DRD atomic edges).
fn build_module(threads: u32, iters: u8, lock: bool, flag: bool, racy: bool, rmw: bool) -> Module {
    let mut mb = ModuleBuilder::new("par-prop");
    let mu = mb.global("mu", 1);
    let shared = mb.global("shared", 1);
    let flag_g = mb.global("flag", 1);
    let data = mb.global("data", 1);
    let victim = mb.global("victim", 1);
    let counter = mb.global("counter", 1);
    let w = mb.function("w", 1, |f| {
        for _ in 0..iters {
            if lock {
                f.lock(mu.at(0));
            }
            let v = f.load(shared.at(0));
            let v2 = f.add(v, 1);
            f.store(shared.at(0), v2);
            if lock {
                f.unlock(mu.at(0));
            }
            if racy {
                let r = f.load(victim.at(0));
                let r2 = f.add(r, 1);
                f.store(victim.at(0), r2);
            }
            if rmw {
                f.rmw(
                    spinrace::tir::RmwOp::Add,
                    counter.at(0),
                    1,
                    spinrace::tir::MemOrder::SeqCst,
                );
            }
        }
        f.ret(None);
    });
    let waiter = mb.function("waiter", 1, |f| {
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load(flag_g.at(0));
        f.branch(v, done, head);
        f.switch_to(done);
        let d = f.load(data.at(0));
        f.output(d);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let mut tids = Vec::new();
        if flag {
            tids.push(f.spawn(waiter, 0));
        }
        for i in 0..threads {
            tids.push(f.spawn(w, i as i64));
        }
        if flag {
            f.store(data.at(0), 7);
            f.store(flag_g.at(0), 1);
        }
        for t in tids {
            f.join(t);
        }
        f.ret(None);
    });
    mb.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn parallel_replay_equals_sequential_and_live(
        threads in 1u32..4,
        iters in 1u8..4,
        lock in proptest::bool::ANY,
        flag in proptest::bool::ANY,
        racy in proptest::bool::ANY,
        rmw in proptest::bool::ANY,
        seed in proptest::option::of(0u64..1000),
    ) {
        let m = build_module(threads, iters, lock, flag, racy, rmw);
        for tool in Tool::paper_lineup() {
            let mut analyzer = Analyzer::tool(tool);
            if let Some(s) = seed {
                analyzer = analyzer.seed(s);
            }
            let live = analyzer.analyze(&m).unwrap();

            let mut session = Session::for_module(&m);
            if let Some(s) = seed {
                session = session.seed(s);
            }
            let run = session.prepare(tool).unwrap().execute().unwrap();
            let sequential = run.run(&DetectRequest::own()).into_single();
            let label = tool.label();

            // Sequential replay ≡ live (the session API's guarantee).
            prop_assert_eq!(sequential.contexts, live.contexts, "live contexts under {}", &label);
            prop_assert_eq!(&sequential.metrics, &live.metrics, "live metrics under {}", &label);

            // Parallel replay ≡ sequential replay, for every worker count
            // (1 takes the sequential pass — the engine-forced
            // 1-worker machinery is pinned in `spinrace_core::parallel`'s
            // own tests; 3 leaves a worker owning a ragged shard subset;
            // 8 is one per shard).
            for workers in [1usize, 2, 3, 4, 8] {
                let par = run.run(&DetectRequest::own().parallel(workers)).into_single();
                prop_assert_eq!(
                    par.contexts, sequential.contexts,
                    "contexts under {} at {} workers", &label, workers
                );
                prop_assert_eq!(
                    par.reports.len(), sequential.reports.len(),
                    "report count under {} at {} workers", &label, workers
                );
                for (a, b) in par.reports.iter().zip(&sequential.reports) {
                    prop_assert_eq!(&a.location, &b.location,
                        "location under {} at {} workers", &label, workers);
                    prop_assert_eq!(&a.report, &b.report,
                        "report under {} at {} workers", &label, workers);
                }
                prop_assert_eq!(
                    &par.metrics, &sequential.metrics,
                    "metrics under {} at {} workers", &label, workers
                );
                prop_assert_eq!(
                    par.promoted_locations, sequential.promoted_locations,
                    "promotions under {} at {} workers", &label, workers
                );
                prop_assert_eq!(&par.summary, &sequential.summary);
                prop_assert_eq!(&par.tool_label, &label);
            }

            // The cross-tool request path too: lib and DRD share one
            // prepared module, so a lib recording can replay as DRD.
            if tool == Tool::HelgrindLib {
                let seq_drd = run.run(&DetectRequest::tool(Tool::Drd)).into_single();
                let par_drd = run.run(&DetectRequest::tool(Tool::Drd).parallel(4)).into_single();
                prop_assert_eq!(par_drd.contexts, seq_drd.contexts);
                prop_assert_eq!(&par_drd.metrics, &seq_drd.metrics);
            }
        }
    }
}

/// The whole drt suite through the worker pool: for every case and
/// every tool of the paper lineup, replay at 2 and 8 workers gives the
/// sequential pass's contexts, reports and metrics. (The suite harness
/// itself replays sequentially, so the tables no longer exercise the
/// pool.)
#[test]
fn drt_suite_replays_identically_at_two_and_eight_workers() {
    for case in spinrace::suites::all_cases() {
        let session = Session::for_module(&case.module).cap(spinrace::suites::harness::DRT_CAP);
        for tool in Tool::paper_lineup() {
            let run = session.prepare(tool).unwrap().execute().unwrap();
            let sequential = run.run(&DetectRequest::own().sequential()).into_single();
            for workers in [2usize, 8] {
                let par = run
                    .run(&DetectRequest::own().parallel(workers))
                    .into_single();
                let what = format!(
                    "case {} under {} at {workers} workers",
                    case.id,
                    tool.label()
                );
                assert_eq!(par.contexts, sequential.contexts, "{what}");
                assert_eq!(par.reports.len(), sequential.reports.len(), "{what}");
                for (a, b) in par.reports.iter().zip(&sequential.reports) {
                    assert_eq!(a.location, b.location, "{what}");
                    assert_eq!(a.report, b.report, "{what}");
                }
                assert_eq!(par.metrics, sequential.metrics, "{what}");
                assert_eq!(
                    par.promoted_locations, sequential.promoted_locations,
                    "{what}"
                );
            }
        }
    }
}

/// Replay a generated workload under one tool and check every worker
/// width against the sequential replay *and* the live run
/// (full outcome equality), returning the sequential outcome for further
/// assertions. One teed execution provides both the live detection and
/// the replayable trace.
fn workload_widths_equal_sequential(
    spec: WorkloadSpec,
    tool: Tool,
) -> (spinrace::core::AnalysisOutcome, Vec<spinrace::vm::Event>) {
    let wl = spec.build();
    let (run, live) = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(tool)
        .unwrap()
        .execute_detecting()
        .unwrap();
    let sequential = run.run(&DetectRequest::own()).into_single();
    assert_eq!(sequential.contexts, live.contexts, "sequential vs live");
    assert_eq!(sequential.metrics, live.metrics, "sequential vs live");
    for workers in [1usize, 2, 3, 4, 8] {
        let par = run
            .run(&DetectRequest::own().parallel(workers))
            .into_single();
        assert_eq!(par.contexts, sequential.contexts, "{workers} workers");
        assert_eq!(par.reports.len(), sequential.reports.len());
        for (a, b) in par.reports.iter().zip(&sequential.reports) {
            assert_eq!(a.location, b.location, "{workers} workers");
            assert_eq!(a.report, b.report, "{workers} workers");
        }
        assert_eq!(par.metrics, sequential.metrics, "{workers} workers");
        assert_eq!(
            par.promoted_locations, sequential.promoted_locations,
            "{workers} workers"
        );
    }
    let events = run.trace().events.clone();
    (sequential, events)
}

/// Plain-*read* counts per static shadow shard — the partition the
/// parallel engine splits work along. Reads only: the zipf family's
/// skewed traffic is its shared-table read stream (each worker's private
/// accumulator writes sit on one fixed page and would mask the
/// distribution under test).
fn shard_histogram(events: &[spinrace::vm::Event]) -> [u64; NUM_SHARDS] {
    let mut hist = [0u64; NUM_SHARDS];
    for ev in events {
        if matches!(ev, spinrace::vm::Event::Read { .. }) && ev.is_plain_access() {
            if let Some(addr) = ev.data_addr() {
                hist[shard_of(addr)] += 1;
            }
        }
    }
    hist
}

/// Zipf-skewed streams at the shard-ownership seam.
///
/// The histogram assertion below documents that the skewed stream really
/// is lopsided (the hottest shard carries more than twice an even share)
/// — the imbalance static modular ownership leaves on one worker. The
/// helper holds every width to bit-identical results, so the imbalance
/// can only show in wall-clock time, never in the output.
#[test]
fn zipf_skew_is_deterministic_across_widths_despite_shard_imbalance() {
    let spec = WorkloadSpec::new(Family::Zipf)
        .threads(4)
        .events_per_thread(4_000)
        .addr_space(4_096)
        .skew(3)
        .seed(11);
    let (out, events) = workload_widths_equal_sequential(spec, Tool::HelgrindLibSpin { window: 7 });
    assert_eq!(out.contexts, 0, "the zipf scaffolding is race-free");

    let hist = shard_histogram(&events);
    let total: u64 = hist.iter().sum();
    let max = *hist.iter().max().unwrap();
    assert!(total > 0);
    // With 8 shards an even split gives every shard 1/8 of the traffic;
    // skew 3 concentrates indices so hard that the hottest shard owns
    // more than 2/8 — the imbalance static ownership cannot spread.
    assert!(
        max as f64 > 2.0 * total as f64 / NUM_SHARDS as f64,
        "expected a skewed shard histogram, got {hist:?}"
    );

    // The same spec with skew 0 spreads far more evenly — the imbalance
    // above is the skew's doing, not an artifact of the address layout.
    let uniform = WorkloadSpec::new(Family::Zipf)
        .threads(4)
        .events_per_thread(4_000)
        .addr_space(4_096)
        .skew(0)
        .seed(11);
    let trace =
        spinrace::vm::record_run(&uniform.build().module, uniform.vm_config(), "u").unwrap();
    let uhist = shard_histogram(&trace.events);
    let umax = *uhist.iter().max().unwrap();
    let utotal: u64 = uhist.iter().sum();
    assert!(
        (umax as f64) < 1.5 * utotal as f64 / NUM_SHARDS as f64,
        "uniform stream should be near-even, got {uhist:?}"
    );
}

/// Zipf streams at every skew level that concentrates traffic (2, 3, 4 —
/// progressively hotter single shards), each under its own seeded VM
/// schedule, two tools, workers 1–8, each held to sequential ≡ live
/// with full metrics. Seeded variants inject
/// real races so the report merge path is exercised, not just clean
/// streams.
#[test]
fn zipf_skew_family_is_identical_across_schedules_tools_and_widths() {
    for skew in [2u32, 3, 4] {
        for races in [0u32, 2] {
            let spec = WorkloadSpec::new(Family::Zipf)
                .threads(4)
                .events_per_thread(1_500)
                .addr_space(4_096)
                .skew(skew)
                .races(races)
                .seed(40 + skew as u64);
            for tool in [Tool::HelgrindLibSpin { window: 7 }, Tool::Drd] {
                let (out, _) = workload_widths_equal_sequential(spec, tool);
                assert_eq!(
                    out.contexts,
                    races as usize,
                    "skew {skew} races {races} under {}",
                    tool.label()
                );
            }
        }
    }
}

/// Wide-thread fan-out (≥32 threads) across the parallel engine: worker
/// counts that divide, exceed, and sit ragged against the shard count all
/// reproduce the sequential outcome, with the seeded-oracle variant
/// proving reports merge identically when 33 threads' accesses interleave.
#[test]
fn wide_thread_workloads_replay_identically_at_every_width() {
    for (threads, races) in [(32u32, 0u32), (33, 3)] {
        let spec = WorkloadSpec::new(Family::Fanout)
            .threads(threads)
            .events_per_thread(150)
            .addr_space(2_048)
            .races(races)
            .seed(threads as u64);
        for tool in [Tool::HelgrindLibSpin { window: 7 }, Tool::Drd] {
            let (out, _) = workload_widths_equal_sequential(spec, tool);
            assert_eq!(
                out.contexts,
                races as usize,
                "{threads} threads under {}",
                tool.label()
            );
        }
    }
}
