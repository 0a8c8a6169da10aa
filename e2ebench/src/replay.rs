//! `replay-zipf`: a binary trace file on disk becomes an outcome JSON on
//! disk — the `trace replay FILE --json OUT` path under `lib+spin`,
//! sequential and streamed.

use crate::harness::{serial_phase, timed_op, Phase};
use crate::probe::{render, Item};
use crate::spans::Tracer;
use crate::Workload;
use spinrace_core::{DetectRequest, Session, Tool};
use spinrace_detector::MsmMode;
use spinrace_suites::{judge_outcome, prepared_for_replay};
use spinrace_synclib::LibStyle;
use spinrace_tir::Module;
use spinrace_tracefmt::{encode_trace, ChunkedTraceReader};
use spinrace_vm::VmConfig;
use spinrace_workloads::{Family, Oracle, WorkloadSpec};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Total events of the generated stream: long enough that decode and the
/// detector's hot paths dominate the per-replay fixed costs, and that a
/// 30 s run makes 130–240 replays however busy the host is (its tail is
/// then p90, well clear of the step at 100 samples; see `stats`).
const EVENTS: u64 = 2_000_000;
const THREADS: u32 = 8;
/// Seeded races, so reports and rendering do real work.
const RACES: u32 = 3;
const TOOL: Tool = Tool::HelgrindLibSpin { window: 7 };
/// `trace replay`'s defaults.
const MSM: MsmMode = MsmMode::Short;
const CAP: usize = 1000;

pub struct ReplayZipf {
    module: Module,
    vm: VmConfig,
    oracle: Oracle,
    trace_path: PathBuf,
    out_path: PathBuf,
    /// The live run's outcome JSON; every replay must reproduce it.
    expected: String,
}

/// Generate the trace file from `seed`, then warm up with one replay.
pub fn setup(seed: u64, dir: &Path) -> Result<ReplayZipf, String> {
    let spec = WorkloadSpec::new(Family::Zipf)
        .threads(THREADS)
        .races(RACES)
        .seed(seed)
        .with_total_events(EVENTS);
    let wl = spec.build();
    let prepared = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(TOOL)
        .map_err(|e| format!("prepare: {e}"))?;
    let (run, live) = prepared
        .execute_detecting()
        .map_err(|e| format!("execute: {e}"))?;
    let verdict = judge_outcome(&wl.oracle, &live);
    if !verdict.pass() {
        return Err(format!("live run disagrees with the oracle: {verdict}"));
    }
    let trace_path = dir.join("replay-zipf.trace");
    std::fs::write(&trace_path, encode_trace(run.trace()))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let w = ReplayZipf {
        module: wl.module,
        vm: spec.vm_config(),
        oracle: wl.oracle,
        trace_path,
        out_path: dir.join("replay-zipf.out.json"),
        expected: render(&live)?,
    };
    // The first replay of a freshly written file pays for the page cache.
    let warm = timed_op(crate::spans::Ctx::off(), |c| w.replay(c));
    if !warm.ok {
        return Err("warm-up replay failed".into());
    }
    Ok(w)
}

impl ReplayZipf {
    fn replay(&self, c: crate::spans::Ctx) -> Result<(u64, Instant, bool), String> {
        let file = File::open(&self.trace_path).map_err(|e| e.to_string())?;
        let reader = c
            .time("op.open", |_| ChunkedTraceReader::new(BufReader::new(file)))
            .map_err(|e| format!("open: {e}"))?;
        let prepared = c
            .time("op.rebind", |_| {
                prepared_for_replay(reader.header(), TOOL, MSM, CAP)
            })
            .ok_or("rebind found no module for the trace")?;
        let req = DetectRequest::tool(TOOL).streamed();
        let mut first: Option<Instant> = None;
        let (out, stats) = c
            .time("op.streamed", |_| {
                prepared.try_run_streamed_observed(&req, reader, |_| {
                    first.get_or_insert_with(Instant::now);
                })
            })
            .map_err(|e| format!("replay: {e}"))?;
        let out = out.into_single();
        let text = c.time("op.render", |_| render(&out))?;
        c.time("op.write", |_| std::fs::write(&self.out_path, &text))
            .map_err(|e| format!("{}: {e}", self.out_path.display()))?;
        let ok = judge_outcome(&self.oracle, &out).pass() && text == self.expected;
        Ok((stats.events, first.unwrap_or_else(Instant::now), ok))
    }
}

impl Workload for ReplayZipf {
    fn phase(&self, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        serial_phase(seconds, tracer, |ctx| timed_op(ctx, |c| self.replay(c)))
    }

    fn items(&self) -> Vec<Item<'_>> {
        vec![Item {
            module: &self.module,
            tool: TOOL,
            session: Session::for_module(&self.module).vm_config(self.vm),
            style: LibStyle::Textbook,
            msm: MSM,
            cap: CAP,
            rebindable: true,
            file: Some(self.trace_path.clone()),
            prepare_lineup: true,
        }]
    }
}

impl Drop for ReplayZipf {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.trace_path);
        let _ = std::fs::remove_file(&self.out_path);
    }
}
