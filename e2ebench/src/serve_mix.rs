//! `serve-mix`: a closed loop of two clients uploading pre-encoded
//! traces to an in-process server over loopback. Each client sends its
//! next upload only after the previous session's terminal frame.

use crate::harness::{with_peak_memory, OpSample, Phase, SAMPLE_CAPACITY};
use crate::net::{server_options, tcp_session, SERVER_SESSIONS};
use crate::probe::{render, serve_params, Item};
use crate::spans::{Ctx, Tracer};
use crate::Workload;
use serde_json::Value;
use spinrace_core::{Session, Tool};
use spinrace_detector::MsmMode;
use spinrace_serve::{serve, ServerHandle};
use spinrace_suites::judge_outcome;
use spinrace_synclib::LibStyle;
use spinrace_tir::Module;
use spinrace_tracefmt::encode_trace_chunked;
use spinrace_vm::VmConfig;
use spinrace_workloads::{Family, Oracle, WorkloadSpec};
use std::time::Instant;

/// Clients in the closed loop: one per core of the box the baseline was
/// taken on, and never more than the server's session slots.
pub const CLIENTS: usize = SERVER_SESSIONS;
const EVENTS: u64 = 300_000;
const CHUNKS: u64 = 5;
const THREADS: u32 = 4;
const RACES: u32 = 2;
const LIB_SPIN: Tool = Tool::HelgrindLibSpin { window: 7 };
/// The server's defaults for a request that names only its tools.
const MSM: MsmMode = MsmMode::Short;
const CAP: usize = 1000;

/// One upload of the mix.
struct Upload {
    module: Module,
    vm: VmConfig,
    tool: Tool,
    oracle: Oracle,
    params: Value,
    bytes: Vec<u8>,
    events: u64,
    /// The offline rendering every `O` payload must byte-equal.
    expected: String,
}

pub struct ServeMix {
    uploads: Vec<Upload>,
    server: Option<ServerHandle>,
    addr: String,
}

fn upload(family: Family, tool: Tool, seed: u64) -> Result<Upload, String> {
    let spec = WorkloadSpec::new(family)
        .threads(THREADS)
        .races(RACES)
        .seed(seed)
        .with_total_events(EVENTS);
    let wl = spec.build();
    let prepared = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(tool)
        .map_err(|e| format!("prepare: {e}"))?;
    let (run, live) = prepared
        .execute_detecting()
        .map_err(|e| format!("execute: {e}"))?;
    let verdict = judge_outcome(&wl.oracle, &live);
    if !verdict.pass() {
        return Err(format!(
            "{family}: live run disagrees with the oracle: {verdict}"
        ));
    }
    let events = run.trace().events.len() as u64;
    let chunk = events.div_ceil(CHUNKS) as usize;
    Ok(Upload {
        module: wl.module,
        vm: spec.vm_config(),
        tool,
        oracle: wl.oracle,
        params: serve_params(tool, MSM, CAP),
        bytes: encode_trace_chunked(run.trace(), chunk),
        events,
        expected: render(&live)?,
    })
}

/// Closed-loop warm-up: long enough for the server's threads and the
/// allocator's per-thread arenas to reach their steady state, so the
/// measured phase does not start on a cold server.
const WARMUP_S: f64 = 0.5;

/// Encode the mix from `seed`, start the server, and warm it up with
/// the closed loop itself.
pub fn setup(seed: u64) -> Result<ServeMix, String> {
    let uploads = vec![
        upload(Family::Ring, LIB_SPIN, seed)?,
        upload(Family::SpinFlag, LIB_SPIN, seed.wrapping_add(1))?,
        upload(Family::Publish, Tool::SyncPreserving, seed.wrapping_add(2))?,
    ];
    let server = serve("127.0.0.1:0", server_options()).map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr().to_string();
    let w = ServeMix {
        uploads,
        server: Some(server),
        addr,
    };
    if w.phase(WARMUP_S, None).failed() > 0 {
        return Err("warm-up session failed".into());
    }
    Ok(w)
}

/// Judge an `O` payload's reports against the oracle.
fn judge_payload(oracle: &Oracle, payload: &str) -> bool {
    let Ok(doc) = serde_json::from_str::<Value>(payload) else {
        return false;
    };
    let predictive = doc["tool"]
        .as_str()
        .and_then(|t| t.parse::<Tool>().ok())
        .is_some_and(|t| t.is_predictive());
    let Some(reports) = doc["reports"].as_array() else {
        return false;
    };
    let tid = |r: &Value, side: &str| r["report"][side]["tid"].as_u64().unwrap_or(u64::MAX) as u32;
    let observed: Vec<(&str, u32, u32)> = reports
        .iter()
        .map(|r| {
            (
                r["location"].as_str().unwrap_or(""),
                tid(r, "prior"),
                tid(r, "current"),
            )
        })
        .collect();
    oracle.verdict_for(predictive, observed).pass()
}

/// Session `i` uploads the mix's entry `i mod 3`.
fn session(uploads: &[Upload], addr: &str, ctx: Ctx, i: usize) -> OpSample {
    let u = &uploads[i % uploads.len()];
    let t0 = Instant::now();
    let res = ctx.time("op", |c| {
        c.time("op.session_tcp", |_| tcp_session(addr, &u.params, &u.bytes))
    });
    match res {
        Ok(r) => {
            let ok = r.done
                && r.error.is_none()
                && r.outcomes.len() == 1
                && r.outcomes[0] == u.expected
                && judge_payload(&u.oracle, &r.outcomes[0]);
            if !ok {
                eprintln!("session failed: {:?}", r.error);
            }
            OpSample {
                ms: r.ms,
                // A session without a verdict frame misses any limit.
                verdict_ms: r.first_verdict_ms.unwrap_or(r.ms),
                events: u.events,
                ok: ok && r.first_verdict_ms.is_some(),
            }
        }
        Err(e) => {
            eprintln!("session failed: {e}");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            OpSample {
                ms,
                verdict_ms: ms,
                events: 0,
                ok: false,
            }
        }
    }
}

impl Workload for ServeMix {
    fn phase(&self, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        // The server handle stays on this thread.
        let (uploads, addr) = (&self.uploads[..], self.addr.as_str());
        let buffers: Vec<Vec<OpSample>> = (0..CLIENTS)
            .map(|_| Vec::with_capacity(SAMPLE_CAPACITY))
            .collect();
        let ((samples, wall_s), mem) = with_peak_memory(|| {
            let t0 = Instant::now();
            let per_client: Vec<Vec<OpSample>> = std::thread::scope(|scope| {
                let clients: Vec<_> = buffers
                    .into_iter()
                    .enumerate()
                    .map(|(client, mut samples)| {
                        scope.spawn(move || {
                            // Clients start on different uploads.
                            let mut i = client;
                            while samples.is_empty() || t0.elapsed().as_secs_f64() < seconds {
                                let id = (client as u64) << 32 | i as u64;
                                samples.push(session(uploads, addr, Ctx::root(tracer, id), i));
                                i += 1;
                            }
                            samples
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            (per_client.concat(), t0.elapsed().as_secs_f64())
        });
        Phase {
            samples,
            wall_s,
            mem,
            pass: None,
        }
    }

    fn items(&self) -> Vec<Item<'_>> {
        self.uploads
            .iter()
            .map(|u| Item {
                module: &u.module,
                tool: u.tool,
                session: Session::for_module(&u.module).vm_config(u.vm),
                style: LibStyle::Textbook,
                msm: MSM,
                cap: CAP,
                rebindable: true,
                file: None,
                prepare_lineup: true,
            })
            .collect()
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
