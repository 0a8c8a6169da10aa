//! Fault-injection hardening of the parallel replay engine: every fault
//! in the matrix {panic, delay past the watchdog, silent drop} × worker
//! counts must come back as a structured [`EngineError`] within a
//! bounded watchdog — never a hang, never a process abort — while
//! fault-free runs (including runs with explicit engine options) stay
//! byte-identical to sequential replay.

use spinrace::core::parallel::{
    try_run_sharded_opts, Budget, BudgetResource, EngineError, EngineOptions, FaultKind, FaultPlan,
};
use spinrace::core::{DetectRequest, Session, Tool};
use spinrace::detector::{DetectorConfig, MsmMode, RaceDetector};
use spinrace::vm::{Event, EventSink};
use spinrace::workloads::{Family, WorkloadSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// No fault must take anywhere near this long to surface; hitting it
/// means the cancellation/watchdog protocol regressed.
const BOUND: Duration = Duration::from_secs(20);

/// A raw stream over several shadow shards: a lock-held phase that
/// hammers shard 0 (so shard cells carry lockset ids), then unlocked
/// traffic on shards 2 and 3.
fn shifted_stream() -> Vec<Event> {
    let pc = |n| spinrace::tir::Pc::new(spinrace::tir::FuncId(0), spinrace::tir::BlockId(0), n);
    let write = |tid: u32, addr: u64, at: u32| Event::Write {
        tid,
        addr,
        value: 1,
        pc: pc(at),
        stack: 0,
        atomic: None,
    };
    let mut events = vec![
        Event::Spawn {
            parent: 0,
            child: 1,
            pc: pc(0),
        },
        Event::MutexLock {
            tid: 1,
            mutex: 0x9000,
            pc: pc(1),
        },
    ];
    for i in 0..8u64 {
        events.push(write(1, (2 << 6) | i, 5));
    }
    for i in 0..256u64 {
        events.push(write(1, (i % 64) | ((i / 64) << 9), 10));
    }
    events.push(Event::MutexUnlock {
        tid: 1,
        mutex: 0x9000,
        pc: pc(2),
    });
    for i in 0..128u64 {
        let shard = 2 + (i % 2);
        events.push(write(1, (shard << 6) | (i % 64), 20));
    }
    events
}

fn cfg() -> DetectorConfig {
    DetectorConfig::helgrind_lib(MsmMode::Short)
}

#[test]
fn panic_while_peer_waits_cancels_the_wait_promptly() {
    // Worker 1 panics early in a long stream. Its peer must not finish
    // its pass: the panic's cancellation stops it at its next periodic
    // poll, and the first failure reported is the panic.
    let spec = WorkloadSpec::new(Family::Zipf)
        .threads(4)
        .events_per_thread(50_000)
        .seed(1);
    let wl = spec.build();
    let trace = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(Tool::HelgrindLib)
        .unwrap()
        .execute()
        .unwrap()
        .into_trace();
    let opts = EngineOptions {
        fault: Some(FaultPlan {
            worker: 1,
            at_event: 100,
            kind: FaultKind::Panic,
        }),
        ..EngineOptions::default()
    };
    let t0 = Instant::now();
    let err = try_run_sharded_opts(cfg(), &trace.events, 2, opts)
        .expect_err("injected panic must fail the replay");
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "peer did not cancel promptly: {elapsed:?}"
    );
    assert!(
        matches!(err, EngineError::WorkerPanic { worker: 1, .. }),
        "first failure must be the panic, got {err}"
    );
}

#[test]
fn delay_past_the_global_watchdog_errors_even_without_handoffs() {
    // A stalled worker would otherwise just finish late; the global
    // watchdog bounds the whole replay.
    let events = shifted_stream();
    let opts = EngineOptions {
        watchdog: Some(Duration::from_millis(300)),
        fault: Some(FaultPlan {
            worker: 1,
            at_event: 50,
            kind: FaultKind::Delay(60_000),
        }),
        ..EngineOptions::default()
    };
    let t0 = Instant::now();
    let err = try_run_sharded_opts(cfg(), &events, 2, opts)
        .expect_err("watchdog must trip on the stalled worker");
    assert!(t0.elapsed() < BOUND, "took {:?}", t0.elapsed());
    assert!(
        matches!(err, EngineError::Watchdog { limit_ms: 300 }),
        "expected Watchdog, got {err}"
    );
}

#[test]
fn dropped_worker_without_handoffs_is_reported_lost() {
    // Nobody waits on the dead worker, so the coordinator has to notice
    // the missing fragment by itself.
    let events = shifted_stream();
    let opts = EngineOptions {
        fault: Some(FaultPlan {
            worker: 1,
            at_event: 50,
            kind: FaultKind::Drop,
        }),
        ..EngineOptions::default()
    };
    let t0 = Instant::now();
    let err = try_run_sharded_opts(cfg(), &events, 2, opts)
        .expect_err("a silently dead worker must fail the replay");
    assert!(t0.elapsed() < BOUND, "took {:?}", t0.elapsed());
    assert!(
        matches!(err, EngineError::WorkerLost { worker: 1 }),
        "expected WorkerLost, got {err}"
    );
}

/// The CI acceptance matrix in miniature: 3 fault kinds × workers
/// {2, 4, 8}, every combination a structured `Err` within the bound —
/// zero hangs, zero aborts.
#[test]
fn full_fault_matrix_always_errors_within_the_bound() {
    let events = shifted_stream();
    for workers in [2usize, 4, 8] {
        for kind in [FaultKind::Panic, FaultKind::Delay(60_000), FaultKind::Drop] {
            let opts = EngineOptions {
                watchdog: Some(Duration::from_millis(800)),
                fault: Some(FaultPlan {
                    worker: 1,
                    at_event: 100,
                    kind,
                }),
                ..EngineOptions::default()
            };
            let t0 = Instant::now();
            let res = try_run_sharded_opts(cfg(), &events, workers, opts);
            let elapsed = t0.elapsed();
            assert!(
                res.is_err(),
                "{kind:?} × {workers} workers completed successfully"
            );
            assert!(
                elapsed < BOUND,
                "{kind:?} × {workers} workers took {elapsed:?}"
            );
        }
    }
}

#[test]
fn fault_aimed_at_nothing_changes_nothing() {
    // A fault targeting a worker index outside the pool, or an event the
    // stream never reaches, must be inert: same bytes as sequential.
    let events = shifted_stream();
    let mut seq = RaceDetector::new(cfg());
    for ev in &events {
        seq.on_event(ev);
    }
    for fault in [
        FaultPlan {
            worker: 7,
            at_event: 100,
            kind: FaultKind::Panic,
        },
        FaultPlan {
            worker: 1,
            at_event: 10_000_000,
            kind: FaultKind::Panic,
        },
    ] {
        let opts = EngineOptions {
            fault: Some(fault),
            ..EngineOptions::default()
        };
        let merged = try_run_sharded_opts(cfg(), &events, 2, opts)
            .expect("an unreachable fault must not fire");
        assert_eq!(merged.reports.reports(), seq.reports().reports());
        assert_eq!(merged.reports.contexts(), seq.racy_contexts());
    }
}

#[test]
fn fault_free_runs_with_explicit_options_stay_byte_identical() {
    let events = shifted_stream();
    let mut seq = RaceDetector::new(cfg());
    for ev in &events {
        seq.on_event(ev);
    }
    for workers in [1usize, 2, 4, 8] {
        // A generous watchdog and a huge budget are *set* (exercising
        // the polling paths) but never trip.
        let opts = EngineOptions {
            watchdog: Some(Duration::from_secs(120)),
            budget: Budget {
                max_events: Some(1 << 40),
                max_shadow_bytes: Some(1 << 40),
            },
            ..EngineOptions::default()
        };
        let merged = try_run_sharded_opts(cfg(), &events, workers, opts).unwrap();
        assert_eq!(
            merged.reports.reports(),
            seq.reports().reports(),
            "{workers} workers"
        );
        assert_eq!(merged.reports.contexts(), seq.racy_contexts());
        assert_eq!(merged.promoted_locations, seq.promoted_locations());
    }
}

#[test]
fn session_api_surfaces_engine_errors_and_budgets() {
    let spec = WorkloadSpec::new(Family::Zipf)
        .threads(4)
        .events_per_thread(2000)
        .seed(1);
    let wl = spec.build();
    let run = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(Tool::HelgrindLib)
        .unwrap()
        .execute()
        .unwrap();
    let baseline = run.run(&DetectRequest::own()).into_single();

    // Fault-free with options: identical outcome to a sequential run.
    let ok = run
        .try_run(
            &DetectRequest::tool(Tool::HelgrindLib)
                .parallel(4)
                .options(EngineOptions::default()),
        )
        .unwrap()
        .into_single();
    assert_eq!(ok.contexts, baseline.contexts);
    assert_eq!(ok.metrics, baseline.metrics);

    // Injected panic: structured error, not a panic across the API.
    let fault_opts = EngineOptions {
        fault: Some(FaultPlan {
            worker: 1,
            at_event: 100,
            kind: FaultKind::Panic,
        }),
        ..EngineOptions::default()
    };
    let err = run
        .try_run(
            &DetectRequest::tool(Tool::HelgrindLib)
                .parallel(4)
                .options(fault_opts),
        )
        .expect_err("injected panic must surface");
    assert!(matches!(err, EngineError::WorkerPanic { worker: 1, .. }));

    // Event budget: partial metrics carried in the error.
    let budget_opts = EngineOptions {
        budget: Budget {
            max_events: Some(500),
            max_shadow_bytes: None,
        },
        ..EngineOptions::default()
    };
    let err = run
        .try_run(
            &DetectRequest::tool(Tool::HelgrindLib)
                .parallel(4)
                .options(budget_opts),
        )
        .expect_err("event budget must trip");
    match err {
        EngineError::BudgetExhausted {
            resource: BudgetResource::Events,
            limit,
            used,
            partial,
        } => {
            assert_eq!(limit, 500);
            assert_eq!(used, run.trace().events.len() as u64);
            assert_eq!(partial.events_processed, 500);
        }
        other => panic!("expected an event-budget error, got {other}"),
    }

    // The infallible request form still works unchanged on the happy
    // path.
    let via_run = run.run(&DetectRequest::own().parallel(4)).into_single();
    assert_eq!(via_run.contexts, baseline.contexts);
}

// ---- streamed replay: every early consumer exit releases the decoder ----

use spinrace::core::{AnalyzeError, PreparedModule};
use spinrace::tracefmt::{encode_trace_chunked, ChunkedTraceReader};
use spinrace::vm::TraceError;
use std::io::{self, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Events per chunk of the streamed scenarios: just over the 4096-event
/// periodic check, so budget and watchdog trips land late in a chunk —
/// long after the decoder has filled the other buffer and parked
/// waiting for a free one.
const STREAM_CHUNK: usize = 4200;

/// Detectors fed per streamed scenario: a fan-out makes consuming a
/// chunk several times slower than decoding one, so the decoder is
/// reliably ahead when the consumer leaves.
const STREAM_TARGETS: [Tool; 4] = [Tool::HelgrindLib; 4];

/// An in-memory byte source that counts how far the decoder has read.
struct Counting {
    bytes: Arc<Vec<u8>>,
    pulled: Arc<AtomicUsize>,
}

impl Read for Counting {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let at = self.pulled.load(Ordering::Relaxed);
        let n = buf.len().min(self.bytes.len() - at);
        buf[..n].copy_from_slice(&self.bytes[at..at + n]);
        self.pulled.store(at + n, Ordering::Relaxed);
        Ok(n)
    }
}

fn counting(bytes: &Arc<Vec<u8>>) -> (Counting, Arc<AtomicUsize>) {
    let pulled = Arc::new(AtomicUsize::new(0));
    let src = Counting {
        bytes: Arc::clone(bytes),
        pulled: Arc::clone(&pulled),
    };
    (src, pulled)
}

/// How one streamed replay ended: its result (`None` when the observer
/// panicked out of it), the last chunk the observer saw, and how many
/// bytes the decode thread had pulled once the call returned.
struct StreamExit {
    result: Option<Result<(), AnalyzeError>>,
    observed: u32,
    pulled: usize,
}

/// Run a streamed replay on a helper thread whose observer sleeps a
/// little per chunk and target — so the decode thread fills both
/// buffers and waits for a free one — and panics at chunk `panic_at`. Fails the test if
/// the call has not returned within [`BOUND`]: a hang in the decode
/// pipeline's shutdown shows up here, not as a wedged test binary.
fn stream_bounded(
    prepared: &PreparedModule,
    bytes: &Arc<Vec<u8>>,
    req: DetectRequest,
    panic_at: Option<u32>,
) -> StreamExit {
    let prepared = prepared.clone();
    let (src, pulled) = counting(bytes);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut observed = 0u32;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let reader = ChunkedTraceReader::new(src).expect("clean header");
            prepared
                .try_run_streamed_observed(&req, reader, |p| {
                    observed = p.chunk;
                    if Some(p.chunk) == panic_at {
                        panic!("observer gave up at chunk {}", p.chunk);
                    }
                    std::thread::sleep(Duration::from_millis(3));
                })
                .map(drop)
        }))
        .ok();
        let _ = tx.send(StreamExit {
            result,
            observed,
            pulled: pulled.load(Ordering::Relaxed),
        });
    });
    match rx.recv_timeout(BOUND) {
        Ok(exit) => exit,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("streamed replay did not return within {BOUND:?}: decode pipeline hung")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("helper thread died"),
    }
}

/// Every early exit of a streamed replay — event budget, shadow-byte
/// budget, watchdog, decode error, panicking observer — returns the
/// same structured outcome as before within a bounded time, with the
/// decode thread joined. The decoder is held to strict double
/// buffering: when the consumer leaves chunk *k*, the decoder has read
/// exactly through chunk *k+1* (both buffers full) and no further.
#[test]
fn streamed_early_exits_never_hang_the_decoder() {
    // A wide address space keeps shadow memory growing chunk to chunk.
    let spec = WorkloadSpec::new(Family::Zipf)
        .threads(4)
        .events_per_thread(15_000)
        .addr_space(1 << 16)
        .seed(1);
    let wl = spec.build();
    let prepared = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(Tool::HelgrindLib)
        .unwrap();
    let trace = prepared.clone().execute().unwrap().into_trace();
    let total = trace.events.len() as u64;
    let bytes = Arc::new(encode_trace_chunked(&trace, STREAM_CHUNK));

    // ends[k]: stream offset just past chunk k (ends[0] = header end).
    let (src, pulled) = counting(&bytes);
    let mut reader = ChunkedTraceReader::new(src).unwrap();
    let mut ends = vec![pulled.load(Ordering::Relaxed)];
    while reader.next_chunk().unwrap().is_some() {
        ends.push(pulled.load(Ordering::Relaxed));
    }
    let chunks = ends.len() - 1;
    assert!(chunks >= 12, "the stream must be long: {chunks} chunks");
    let own = || DetectRequest::tools(&STREAM_TARGETS).streamed();

    // Event budget: trips late in chunk 2, at the second periodic
    // check, after the affordable prefix.
    let exit = stream_bounded(
        &prepared,
        &bytes,
        own().budget(Budget::default().with_max_events(8192)),
        None,
    );
    let shadow_at_check = match exit.result {
        Some(Err(AnalyzeError::Engine(EngineError::BudgetExhausted {
            resource: BudgetResource::Events,
            limit: 8192,
            used,
            partial,
        }))) => {
            assert_eq!(used, total);
            assert_eq!(partial.events_processed, 8192);
            partial.shadow_bytes
        }
        other => panic!("expected an event-budget error, got {other:?}"),
    };
    assert_eq!(exit.observed, 1);
    assert_eq!(
        exit.pulled, ends[3],
        "decoder filled exactly one chunk ahead"
    );

    // Shadow-byte budget: one byte under what the event-8192 check
    // sees, so it trips there — late in chunk 2 — and not before.
    let exit = stream_bounded(
        &prepared,
        &bytes,
        own().budget(Budget::default().with_max_shadow_bytes(shadow_at_check - 1)),
        None,
    );
    match exit.result {
        Some(Err(AnalyzeError::Engine(EngineError::BudgetExhausted {
            resource: BudgetResource::ShadowBytes,
            limit,
            used,
            partial,
        }))) => {
            assert_eq!(limit, shadow_at_check as u64 - 1);
            assert_eq!(used, shadow_at_check as u64);
            assert_eq!(partial.events_processed, 8192);
        }
        other => panic!("expected a shadow-budget error, got {other:?}"),
    }
    assert_eq!(exit.observed, 1);
    assert_eq!(exit.pulled, ends[3]);

    // Watchdog: the sleeping observer runs the clock out partway in.
    let exit = stream_bounded(
        &prepared,
        &bytes,
        own().watchdog(Duration::from_millis(20)),
        None,
    );
    match exit.result {
        Some(Err(AnalyzeError::Engine(EngineError::Watchdog { limit_ms: 20 }))) => {}
        other => panic!("expected a watchdog error, got {other:?}"),
    }
    let tripped = exit.observed as usize + 1;
    assert!(tripped < chunks, "watchdog tripped before the end");
    assert_eq!(exit.pulled, ends[tripped + 1]);

    // Decode error: a damaged checksum on chunk 8 surfaces once the
    // consumer reaches it; the decoder stops at the damage.
    let mut damaged = bytes.to_vec();
    damaged[ends[8] - 1] ^= 0x01;
    let damaged = Arc::new(damaged);
    let exit = stream_bounded(&prepared, &damaged, own(), None);
    match exit.result {
        Some(Err(AnalyzeError::Trace(TraceError::Checksum { chunk: 7 }))) => {}
        other => panic!("expected a chunk-7 checksum error, got {other:?}"),
    }
    assert_eq!(exit.observed, 7);
    assert_eq!(exit.pulled, ends[8]);

    // A panicking observer unwinds out of the call instead of leaving
    // the decoder parked on a buffer that never comes back.
    let exit = stream_bounded(&prepared, &bytes, own(), Some(3));
    assert!(exit.result.is_none(), "the observer panic propagates");
    assert_eq!(exit.observed, 3);
    assert_eq!(exit.pulled, ends[4]);
}

// ---- one guarded pass: in-memory and streamed replay agree ----

/// A two-target request on one shared prepared module (lib and DRD both
/// run the unmodified module), replayed from memory and streamed from a
/// multi-chunk binary encoding: within budget the outcomes are equal,
/// and every event budget, shadow-byte budget and zero watchdog trips
/// the same `EngineError` — partial metrics included — on both paths.
#[test]
fn sequential_and_streamed_passes_agree_on_outcomes_and_errors() {
    let spec = WorkloadSpec::new(Family::Zipf)
        .threads(4)
        .events_per_thread(5000)
        .addr_space(1 << 14)
        .seed(3);
    let wl = spec.build();
    let run = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(Tool::HelgrindLib)
        .unwrap()
        .execute()
        .unwrap();
    let total = run.trace().events.len() as u64;
    let bytes = encode_trace_chunked(run.trace(), 3000);
    assert!(ChunkedTraceReader::new(&bytes[..]).unwrap().chunk_count() >= 5);
    let tools = [Tool::HelgrindLib, Tool::Drd];
    let both = |req: DetectRequest| {
        let seq = run.try_run(&req.clone().sequential());
        let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
        let streamed = run.prepared().try_run_streamed(&req.streamed(), reader);
        (seq, streamed.map(|(out, _)| out))
    };

    // Within budget: equal outcomes, target by target.
    let (seq, streamed) = both(DetectRequest::tools(&tools));
    let (seq, streamed) = (seq.unwrap().into_vec(), streamed.unwrap().into_vec());
    assert_eq!(seq.len(), 2);
    for (a, b) in seq.iter().zip(&streamed) {
        assert_eq!(a.tool_label, b.tool_label);
        assert_eq!(a.contexts, b.contexts, "{}", a.tool_label);
        assert_eq!(a.reports.len(), b.reports.len(), "{}", a.tool_label);
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(x.location, y.location);
            assert_eq!(x.report, y.report);
        }
        assert_eq!(a.metrics, b.metrics, "{}", a.tool_label);
        assert_eq!(a.promoted_locations, b.promoted_locations);
        assert_eq!(a.summary, b.summary);
    }

    // Over budget: the same error from both paths, or (for a shadow
    // budget the whole stream fits under) success on both.
    let same_failure = |req: DetectRequest| -> Option<EngineError> {
        let (seq, streamed) = both(req);
        match (seq, streamed) {
            (Err(a), Err(AnalyzeError::Engine(b))) => {
                assert_eq!(a, b);
                Some(a)
            }
            (Ok(_), Ok(_)) => None,
            (a, b) => panic!("paths disagree: in-memory {a:?}, streamed {b:?}"),
        }
    };
    for k in [0, 1, 4095, 4096, 4097, 10_000, total - 1] {
        let req = DetectRequest::tools(&tools).budget(Budget::default().with_max_events(k));
        match same_failure(req) {
            Some(EngineError::BudgetExhausted {
                resource: BudgetResource::Events,
                limit,
                used,
                partial,
            }) => {
                assert_eq!((limit, used, partial.events_processed), (k, total, k));
            }
            other => panic!("max_events {k}: expected an event-budget error, got {other:?}"),
        }
    }
    let (mut mid_stream_trips, mut fits) = (0, 0);
    for b in (8..16).map(|s| 1usize << s).chain([usize::MAX - 1]) {
        let budget = Budget::default().with_max_shadow_bytes(b);
        match same_failure(DetectRequest::tools(&tools).budget(budget)) {
            Some(EngineError::BudgetExhausted {
                resource: BudgetResource::ShadowBytes,
                partial,
                ..
            }) => {
                if partial.events_processed > 0 && partial.events_processed < total {
                    mid_stream_trips += 1;
                }
            }
            None => fits += 1,
            other => panic!("max_shadow_bytes {b}: expected a shadow error, got {other:?}"),
        }
        // With an event budget too, whichever trips first trips on both.
        let budget = budget.with_max_events(total / 2);
        assert!(same_failure(DetectRequest::tools(&tools).budget(budget)).is_some());
    }
    assert!(mid_stream_trips >= 2, "the grid must trip mid-stream");
    assert!(
        fits >= 1,
        "the grid must hold a budget the stream fits under"
    );
    assert_eq!(
        same_failure(DetectRequest::tools(&tools).watchdog(Duration::ZERO)),
        Some(EngineError::Watchdog { limit_ms: 0 })
    );
}
