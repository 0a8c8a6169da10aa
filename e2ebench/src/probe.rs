//! The traced run's layer probe: each layer's public call, timed from
//! outside the program on one workload input.
//!
//! Composite calls are rebuilt from the layers' own public functions so
//! their children can be timed: `Session::prepare` as nolib lowering +
//! `SpinFinder::analyze` + the table attach, and the streamed replay as
//! a decode-ahead thread calling `ChunkedTraceReader::next_chunk` beside
//! a loop feeding `AnyDetector::on_event`. Each rebuilt call is checked
//! against the real one (same fingerprint, same contexts).

use crate::net::{inproc_session, tcp_session, SessionResult};
use crate::spans::Ctx;
use serde_json::Value;
use spinrace_core::parallel::try_run_sharded_opts;
use spinrace_core::{AnalysisOutcome, DetectRequest, EngineOptions, Session, Tool};
use spinrace_detector::{AnyDetector, DetectorConfig, MsmMode};
use spinrace_serve::outcome_json;
use spinrace_spinfind::SpinFinder;
use spinrace_synclib::{lower_to_spinlib_styled, LibStyle};
use spinrace_tir::Module;
use spinrace_tracefmt::{chunk_mem, encode_trace, ChunkedTraceReader};
use spinrace_vm::{Event, EventSink, TraceError};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;

/// Render an outcome exactly as `trace replay --json` writes it.
pub fn render(out: &AnalysisOutcome) -> Result<String, String> {
    serde_json::to_string_pretty(&outcome_json(out))
        .map(|t| t + "\n")
        .map_err(|e| format!("cannot render outcome: {e:?}"))
}

/// The serve request body for a streamed session under `tool`.
pub fn serve_params(tool: Tool, msm: MsmMode, cap: usize) -> Value {
    serde_json::json!({
        "tools": [tool.label()],
        "long_msm": msm == MsmMode::Long,
        "cap": cap as u64,
    })
}

/// One workload input the probe runs every layer on.
pub struct Item<'m> {
    pub module: &'m Module,
    pub tool: Tool,
    /// The session the workload prepares with (cap, MSM, VM schedule,
    /// nolib style).
    pub session: Session<'m>,
    /// The session's nolib style and MSM (`Session` keeps them private).
    pub style: LibStyle,
    pub msm: MsmMode,
    pub cap: usize,
    /// Can `prepared_for_replay` rebuild the module from a trace header
    /// (generated workloads and PARSEC programs can, drt cases cannot)?
    /// Only such traces go through rebind and serve sessions.
    pub rebindable: bool,
    /// Replay from this file instead of the freshly encoded bytes.
    pub file: Option<PathBuf>,
    /// Also prepare the module under every tool of the paper lineup, so
    /// the static phases are measured on inputs whose operations run
    /// only one tool.
    pub prepare_lineup: bool,
}

/// `Session::prepare` rebuilt from public calls. Returns the prepared
/// module's fingerprint.
fn prepare_mirror(ctx: Ctx, item: &Item, tool: Tool) -> Result<u64, String> {
    ctx.time("core.prepare", |c| {
        let mut m = match tool {
            Tool::HelgrindNolibSpin { .. } => c
                .time("synclib.lower", |_| {
                    lower_to_spinlib_styled(item.module, item.style)
                })
                .map_err(|e| format!("lowering failed: {e}"))?,
            _ => item.module.clone(),
        };
        if let Tool::HelgrindLibSpin { window } | Tool::HelgrindNolibSpin { window } = tool {
            let analysis = c.time("spinfind.analyze", |_| {
                SpinFinder::with_window(window).analyze(&m)
            });
            c.add("spinfind.loops_accepted", analysis.accepted() as f64);
            m.spin = Some(analysis.table);
        }
        Ok(m.fingerprint())
    })
}

/// The streamed replay rebuilt from public calls: a decode-ahead thread
/// (one chunk in flight, as in `try_run_streamed`) and the detect loop.
/// Returns the racy contexts found.
fn stream_mirror<R: Read + Send>(ctx: Ctx, src: R, cfg: DetectorConfig) -> Result<usize, String> {
    ctx.time("layers.stream", |c| {
        let mut reader = c
            .time("tracefmt.open", |_| ChunkedTraceReader::new(src))
            .map_err(|e| format!("open failed: {e}"))?;
        let mut det = AnyDetector::new(cfg);
        let (tx, rx) = sync_channel::<Result<Vec<Event>, TraceError>>(1);
        // Decoded-but-unconsumed event memory, accounted as
        // `try_run_streamed` does.
        let resident = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let (mut events, mut chunks) = (0u64, 0u64);
        std::thread::scope(|scope| -> Result<(), String> {
            let reader = &mut reader;
            let (resident, peak) = (&resident, &peak);
            scope.spawn(move || loop {
                let msg = match c.time("tracefmt.decode", |_| reader.next_chunk()) {
                    Ok(Some(chunk)) => {
                        let mem = chunk_mem(&chunk);
                        peak.fetch_max(
                            resident.fetch_add(mem, Ordering::Relaxed) + mem,
                            Ordering::Relaxed,
                        );
                        Ok(chunk)
                    }
                    Ok(None) => return,
                    Err(e) => Err(e),
                };
                let failed = msg.is_err();
                if tx.send(msg).is_err() || failed {
                    return;
                }
            });
            for msg in rx {
                let chunk = msg.map_err(|e| format!("decode failed: {e}"))?;
                c.time("detector.detect", |_| {
                    for ev in &chunk {
                        det.on_event(ev);
                    }
                });
                resident.fetch_sub(chunk_mem(&chunk), Ordering::Relaxed);
                events += chunk.len() as u64;
                chunks += 1;
            }
            Ok(())
        })?;
        let peak = peak.load(Ordering::Relaxed);
        c.add("layers.streams", 1.0);
        c.add("tracefmt.decoded_events", events as f64);
        c.add("tracefmt.chunks", chunks as f64);
        c.max("tracefmt.peak_resident_bytes", peak as f64);
        c.add("detector.contexts", det.racy_contexts() as f64);
        c.add(
            "detector.promoted_locations",
            det.promoted_locations() as f64,
        );
        c.max("detector.shadow_bytes", det.shadow_resident_bytes() as f64);
        Ok(det.racy_contexts())
    })
}

/// A source of the trace stream: the input's file, or the bytes the
/// probe encoded.
fn source<'a>(item: &Item, bytes: &'a [u8]) -> Result<Box<dyn Read + Send + 'a>, String> {
    Ok(match &item.file {
        Some(path) => Box::new(BufReader::new(
            File::open(path).map_err(|e| format!("{}: {e}", path.display()))?,
        )),
        None => Box::new(bytes),
    })
}

fn count_session(ctx: Ctx, r: &SessionResult) {
    ctx.add("serve.sessions", 1.0);
    ctx.add("serve.verdict_frames", r.verdicts as f64);
    ctx.add("serve.error_frames", r.error_frames() as f64);
}

/// Every layer's public call on one input. `addr` is a running server
/// for the TCP session.
pub fn probe(ctx: Ctx, item: &Item, addr: &str) -> Result<(), String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let mut tools = vec![item.tool];
    if item.prepare_lineup {
        tools.extend(Tool::paper_lineup().into_iter().filter(|&t| t != item.tool));
    }
    let mut prepared = None;
    for tool in tools {
        let real = item.session.prepare(tool).map_err(|e| err("prepare", &e))?;
        if prepare_mirror(ctx, item, tool)? != real.fingerprint() {
            return Err(format!(
                "rebuilt prepare disagrees with Session::prepare under {tool}"
            ));
        }
        prepared.get_or_insert(real);
    }
    let prepared = prepared.expect("the item's own tool is prepared first");
    let cfg = prepared.default_config();

    let run = ctx
        .time("vm.execute", |_| prepared.clone().execute())
        .map_err(|e| err("execute", &e))?;
    let events = run.trace().events.len() as u64;
    ctx.add("vm.events", events as f64);
    ctx.add("vm.steps", run.trace().summary.steps as f64);
    let bytes = ctx.time("tracefmt.encode", |_| encode_trace(run.trace()));
    ctx.add("tracefmt.encoded_events", events as f64);
    ctx.add("tracefmt.bytes", bytes.len() as f64);

    if item.rebindable {
        let rebound = ctx
            .time("core.rebind", |_| {
                spinrace_suites::prepared_for_replay(
                    &run.trace().header,
                    item.tool,
                    item.msm,
                    item.cap,
                )
            })
            .ok_or("rebind found no module for the trace header")?;
        if rebound.fingerprint() != prepared.fingerprint() {
            return Err("rebind chose another module".into());
        }
    }

    let contexts = stream_mirror(ctx, source(item, &bytes)?, cfg)?;
    let reader = ChunkedTraceReader::new(source(item, &bytes)?).map_err(|e| err("open", &e))?;
    let req = DetectRequest::own().streamed();
    let (out, _) = ctx
        .time("core.streamed", |_| prepared.try_run_streamed(&req, reader))
        .map_err(|e| err("streamed replay", &e))?;
    let out = out.into_single();
    if contexts != out.contexts {
        return Err("decomposed replay disagrees with try_run_streamed".into());
    }
    let text = ctx.time("serve.render", |_| render(&out))?;

    // The sharded engine refuses predictive tools.
    if !item.tool.is_predictive() {
        let evs = &run.trace().events;
        let opts = EngineOptions::default();
        let seq = ctx
            .time("core.parallel_seq", |_| {
                try_run_sharded_opts(cfg, evs, 1, opts)
            })
            .map_err(|e| err("sequential engine", &e))?;
        let w2 = ctx
            .time("core.parallel_w2", |_| {
                try_run_sharded_opts(cfg, evs, 2, opts)
            })
            .map_err(|e| err("parallel engine", &e))?;
        if seq.reports.contexts() != out.contexts || w2.reports.contexts() != out.contexts {
            return Err("sharded replay disagrees with sequential replay".into());
        }
        ctx.add("core.parallel_events", events as f64);
    }

    if item.rebindable {
        let params = serve_params(item.tool, item.msm, item.cap);
        let inproc = ctx
            .time("serve.session_inproc", |_| inproc_session(&params, &bytes))
            .map_err(|e| err("in-process session", &e))?;
        count_session(ctx, &inproc);
        let tcp = ctx
            .time("serve.session_tcp", |_| tcp_session(addr, &params, &bytes))
            .map_err(|e| err("tcp session", &e))?;
        count_session(ctx, &tcp);
        for r in [&inproc, &tcp] {
            if !r.done || r.outcomes != [text.clone()] {
                return Err(format!(
                    "served outcome differs from offline ({:?})",
                    r.error
                ));
            }
        }
    }
    Ok(())
}
