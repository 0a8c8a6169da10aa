//! End-to-end protocol coverage for the `spinrace-serve` analysis
//! server: concurrent sessions must reproduce offline detection
//! byte-for-byte, corrupt uploads must come back as structured error
//! frames (reusing the `mutate` byte-surgery helpers), budget trips
//! must carry partial metrics, a mid-upload disconnect must free its
//! session slot, and streamed sessions must emit verdicts before the
//! upload has finished.

use spinrace::core::{DetectRequest, ExecutedRun, Session, Tool};
use spinrace::serve::{
    handle_session, outcome_json, read_frame, run_client, serve, write_request, CoreBudget,
    FrameKind, ServeOptions,
};
use spinrace::tracefmt::encode_trace_chunked;
use spinrace::vm::Trace;
use spinrace::workloads::{Family, WorkloadSpec};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

mod mutate;
use mutate::{base_binary, header_counts_offsets, recorded};

/// Request body naming one tool, with optional extra fields.
fn params(tool: Tool, extra: &[(&str, serde_json::Value)]) -> serde_json::Value {
    let mut entries = vec![(
        serde_json::Value::Str("tools".into()),
        serde_json::Value::Seq(vec![serde_json::Value::Str(tool.label())]),
    )];
    for (k, v) in extra {
        entries.push((serde_json::Value::Str((*k).into()), v.clone()));
    }
    serde_json::Value::Map(entries)
}

/// The offline rendering of one tool's detection over a recorded trace —
/// the exact bytes `trace replay --json` writes and the server's `O`
/// frame must reproduce.
fn offline_payload(trace: &Trace, tool: Tool) -> String {
    let prepared = mutate::recorded().0;
    let run = ExecutedRun::from_trace(prepared, trace.clone()).unwrap();
    let out = run.run(&DetectRequest::tool(tool)).into_single();
    serde_json::to_string_pretty(&outcome_json(&out)).unwrap() + "\n"
}

#[test]
fn concurrent_sessions_match_offline_detection_byte_for_byte() {
    let (_, trace) = recorded();
    let bytes = encode_trace_chunked(&trace, 16);
    let expected_lib = offline_payload(&trace, Tool::HelgrindLib);
    let expected_drd = offline_payload(&trace, Tool::Drd);

    let handle = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.addr().to_string();

    // Six concurrent sessions across two tools and three modes
    // (streamed, 2-worker, 4-worker parallel) — more clients than the
    // default four slots, so the queue must multiplex.
    let cases: Vec<(Tool, u64, &str)> = vec![
        (Tool::HelgrindLib, 0, &expected_lib),
        (Tool::HelgrindLib, 2, &expected_lib),
        (Tool::HelgrindLib, 4, &expected_lib),
        (Tool::Drd, 0, &expected_drd),
        (Tool::Drd, 2, &expected_drd),
        (Tool::Drd, 4, &expected_drd),
    ];
    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for (tool, client_workers, expected) in &cases {
            let (addr, bytes) = (&addr, &bytes);
            workers.push(s.spawn(move || {
                let body = params(
                    *tool,
                    &[("workers", serde_json::Value::U64(*client_workers))],
                );
                let out = run_client(addr, &body, bytes).expect("client io");
                assert!(out.succeeded(), "session failed: {:?}", out.error);
                assert_eq!(out.outcomes.len(), 1);
                let (label, payload) = &out.outcomes[0];
                assert_eq!(label, &tool.label());
                assert_eq!(
                    payload,
                    *expected,
                    "server outcome diverged from offline replay for {} at {} workers",
                    tool.label(),
                    client_workers,
                );
                // Streamed sessions must have reported incremental
                // verdicts; parallel sessions report none.
                if *client_workers == 0 {
                    assert!(out.verdicts > 0, "streamed session sent no verdicts");
                }
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
    });
    handle.shutdown();
}

#[test]
fn corrupt_uploads_get_structured_error_frames() {
    let handle = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.addr().to_string();
    let body = params(Tool::HelgrindLib, &[]);
    let bytes = base_binary();

    // Wrong trace magic.
    let mut wrong_magic = bytes.to_vec();
    wrong_magic[0] ^= 0xff;
    let out = run_client(&addr, &body, &wrong_magic).unwrap();
    let err = out.error.expect("wrong magic must fail the session");
    assert_eq!(err.code, "magic");
    assert!(out.outcomes.is_empty() && out.done.is_none());

    // Truncated mid-stream: the reader sees fewer chunks than the
    // header promised (or a cut inside the header itself).
    let out = run_client(&addr, &body, &bytes[..bytes.len() / 2]).unwrap();
    let err = out.error.expect("truncated upload must fail the session");
    assert!(
        matches!(err.code.as_str(), "chunk-count" | "corrupt" | "io"),
        "unexpected code {:?}",
        err.code
    );

    // A flipped byte in the last chunk's column data: checksum failure.
    let (counts_pos, _) = header_counts_offsets(bytes);
    let total_chunks = u32::from_le_bytes(bytes[counts_pos..][..4].try_into().unwrap());
    assert!(total_chunks > 1);
    let mut flipped = bytes.to_vec();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let out = run_client(&addr, &body, &flipped).unwrap();
    let err = out.error.expect("corrupted chunk must fail the session");
    assert!(
        matches!(err.code.as_str(), "checksum" | "chunk-count"),
        "unexpected code {:?}",
        err.code
    );

    // A request frame that is not the protocol at all.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    // Best-effort half-close: the server may have already rejected the
    // bad magic and closed the connection.
    let _ = raw.shutdown(Shutdown::Write);
    let (kind, payload) = read_frame(&mut raw).unwrap().expect("an error frame");
    assert_eq!(kind, FrameKind::Error);
    let doc: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert_eq!(doc["code"].as_str(), Some("bad-request"));

    // An unknown tool label in an otherwise well-formed request.
    let bad_tool = serde_json::json!({"tools": ["definitely-not-a-detector"]});
    let out = run_client(&addr, &bad_tool, bytes).unwrap();
    assert_eq!(out.error.expect("unknown tool").code, "bad-request");

    handle.shutdown();
}

#[test]
fn budget_exhaustion_reports_partial_metrics() {
    let (_, trace) = recorded();
    let total = trace.events.len() as u64;
    let limit = total / 2;
    let bytes = encode_trace_chunked(&trace, 16);
    let handle = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.addr().to_string();

    // Both the streamed (workers 0) and parallel (workers 2) paths trip
    // the same event budget with the same exact partial count.
    for client_workers in [0u64, 2] {
        let body = params(
            Tool::HelgrindLib,
            &[
                ("workers", serde_json::Value::U64(client_workers)),
                ("max_events", serde_json::Value::U64(limit)),
            ],
        );
        let out = run_client(&addr, &body, &bytes).unwrap();
        let err = out.error.expect("budget must trip");
        assert_eq!(err.code, "budget-exhausted", "workers={client_workers}");
        let (events_processed, _contexts, _shadow) =
            err.partial.expect("budget errors carry partial metrics");
        assert_eq!(events_processed, limit, "workers={client_workers}");
        assert!(out.done.is_none());
    }

    // A server-side ceiling clamps a more generous client request.
    let capped = serve(
        "127.0.0.1:0",
        ServeOptions {
            max_events: Some(limit),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let body = params(
        Tool::HelgrindLib,
        &[("max_events", serde_json::Value::U64(total * 10))],
    );
    let out = run_client(&capped.addr().to_string(), &body, &bytes).unwrap();
    assert_eq!(out.error.expect("server ceiling").code, "budget-exhausted");
    capped.shutdown();
    handle.shutdown();
}

/// The predictive tool over the wire: a `tool=sync-preserving` upload
/// (streamed, the `workers=0` default) produces an outcome document
/// byte-identical to the offline sequential replay of the same trace,
/// and asking the server to run it on the parallel engine comes back as
/// the stable `unsupported` error code — never a silent downgrade.
#[test]
fn sync_preserving_sessions_are_byte_stable_and_refuse_parallel() {
    let (_, trace) = recorded();
    let bytes = encode_trace_chunked(&trace, 16);
    let expected = offline_payload(&trace, Tool::SyncPreserving);

    // The server must also parse the short label form off the wire.
    let body = serde_json::json!({"tools": ["sync-preserving"]});
    let handle = serve(
        "127.0.0.1:0",
        ServeOptions {
            cores: 4,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();
    let out = run_client(&addr, &body, &bytes).unwrap();
    assert!(out.succeeded(), "session failed: {:?}", out.error);
    assert_eq!(out.outcomes.len(), 1);
    let (label, payload) = &out.outcomes[0];
    assert_eq!(label, &Tool::SyncPreserving.label());
    assert_eq!(
        payload, &expected,
        "server outcome diverged from offline sequential replay"
    );
    assert!(out.verdicts > 0, "streamed session sent no verdicts");

    let parallel = params(
        Tool::SyncPreserving,
        &[("workers", serde_json::Value::U64(2))],
    );
    let out = run_client(&addr, &parallel, &bytes).unwrap();
    let err = out.error.expect("parallel predictive must be refused");
    assert_eq!(err.code, "unsupported");
    assert!(out.outcomes.is_empty() && out.done.is_none());
    handle.shutdown();
}

/// A parallel predictive session is refused with `unsupported` before
/// its event budget is considered — alone or fanned out with an HB tool
/// — so the wire code does not depend on the number of tools.
#[test]
fn parallel_predictive_refusal_precedes_the_event_budget() {
    let (_, trace) = recorded();
    let bytes = encode_trace_chunked(&trace, 16);
    let handle = serve(
        "127.0.0.1:0",
        ServeOptions {
            cores: 4,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();
    for tools in [vec!["sync-preserving"], vec!["sync-preserving", "lib"]] {
        let body = serde_json::json!({
            "tools": tools.clone(),
            "workers": 2u64,
            "max_events": 1u64,
        });
        let out = run_client(&addr, &body, &bytes).unwrap();
        let err = out.error.expect("parallel predictive must be refused");
        assert_eq!(err.code, "unsupported", "tools={tools:?}");
        assert!(
            err.partial.is_none(),
            "a refusal carries no partial metrics"
        );
    }
    handle.shutdown();
}

/// A session input that yields some prefix, then panics — the worst
/// failure shape a session body can produce.
struct PanicAfterPrefix {
    data: Vec<u8>,
    pos: usize,
}

impl Read for PanicAfterPrefix {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            panic!("injected read panic after {} bytes", self.pos);
        }
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The core-budget regression: every failing session — structured
/// failures and panics unwinding through the session body alike — must
/// return its claimed cores, so the free pool is back at its initial
/// value once the hammering stops. (The claim is RAII now; this pins
/// the leak that a manual claim/release pair reintroduces.)
#[test]
fn failing_sessions_release_their_core_claims() {
    let cores = CoreBudget::new(8);
    assert_eq!(cores.free(), 8);

    // A well-formed request (so the session claims 4 cores) followed by
    // bytes that are not a trace: the session fails after the claim.
    let mut garbage_session: Vec<u8> = Vec::new();
    write_request(
        &mut garbage_session,
        &params(Tool::HelgrindLib, &[("workers", serde_json::Value::U64(4))]),
    )
    .unwrap();
    garbage_session.extend_from_slice(b"this is definitely not a trace stream");

    for round in 0..50 {
        let mut out = Vec::new();
        let code = handle_session(
            &garbage_session[..],
            &mut out,
            ServeOptions::default(),
            &cores,
        )
        .expect_err("a garbage upload must fail the session");
        assert_eq!(code, "magic");
        assert_eq!(
            cores.free(),
            8,
            "session failure leaked its core claim (round {round})"
        );
    }

    // A panic mid-upload unwinds through the session body; the RAII
    // guard must still release on the unwind path. The prefix ends
    // exactly at the request frame, so the first trace-stream read is
    // the panicking one (a garbage prefix would fail the magic check
    // before ever reaching the panic).
    let mut request_only: Vec<u8> = Vec::new();
    write_request(
        &mut request_only,
        &params(Tool::HelgrindLib, &[("workers", serde_json::Value::U64(4))]),
    )
    .unwrap();
    for round in 0..10 {
        let input = PanicAfterPrefix {
            data: request_only.clone(),
            pos: 0,
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Vec::new();
            let _ = handle_session(input, &mut out, ServeOptions::default(), &cores);
        }));
        assert!(panicked.is_err(), "the injected panic must propagate");
        assert_eq!(
            cores.free(),
            8,
            "panicking session leaked its core claim (round {round})"
        );
    }
}

/// A client that stalls past the server's read timeout fails its
/// session with the stable `timeout` wire code — whether it stalls
/// before the request frame or mid-upload — instead of pinning the
/// session slot forever or surfacing a shape-dependent decode error.
#[test]
fn stalled_uploads_fail_with_the_timeout_code() {
    let handle = serve(
        "127.0.0.1:0",
        ServeOptions {
            read_timeout_ms: Some(150),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    let expect_error_code = |reader: &mut TcpStream, expected: &str| loop {
        let (kind, payload) = read_frame(reader)
            .unwrap()
            .expect("an error frame before end-of-stream");
        match kind {
            FrameKind::Error => {
                let doc: serde_json::Value =
                    serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
                assert_eq!(doc["code"].as_str(), Some(expected), "{:?}", doc);
                return;
            }
            FrameKind::Hello | FrameKind::Verdict => continue,
            other => panic!("unexpected frame {other:?} while waiting for the error"),
        }
    };

    // Stall after the request frame: the trace-magic read times out.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = stream.try_clone().unwrap();
    write_request(&mut stream, &params(Tool::HelgrindLib, &[])).unwrap();
    expect_error_code(&mut reader, "timeout");

    // Stall before even the request frame.
    let idle = TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = idle.try_clone().unwrap();
    expect_error_code(&mut reader, "timeout");

    handle.shutdown();
}

#[test]
fn mid_upload_disconnect_frees_the_session_slot() {
    let (_, trace) = recorded();
    let bytes = encode_trace_chunked(&trace, 16);
    // One slot total: if the abandoned session wedged its worker, the
    // follow-up client would hang past its read timeout.
    let handle = serve(
        "127.0.0.1:0",
        ServeOptions {
            sessions: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    {
        let mut dying = TcpStream::connect(&addr).unwrap();
        write_request(&mut dying, &params(Tool::HelgrindLib, &[])).unwrap();
        dying.write_all(&bytes[..bytes.len() / 2]).unwrap();
        // Dropped here without the write-side shutdown handshake: the
        // server's reader hits EOF mid-chunk and must error out, not
        // wait forever.
    }

    let out =
        run_client(&addr, &params(Tool::HelgrindLib, &[]), &bytes).expect("follow-up client io");
    assert!(
        out.succeeded(),
        "slot not freed after disconnect: {:?}",
        out.error
    );
    handle.shutdown();
}

#[test]
fn streamed_sessions_emit_verdicts_before_end_of_upload() {
    // A long seeded stream over many small chunks, so half the bytes is
    // still dozens of whole chunks.
    let spec = WorkloadSpec::new(Family::Ring)
        .threads(4)
        .addr_space(256)
        .seed(9)
        .with_total_events(40_000);
    let wl = spec.build();
    let trace = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(Tool::HelgrindLib)
        .unwrap()
        .execute()
        .unwrap()
        .into_trace();
    let bytes = encode_trace_chunked(&trace, 512);

    let handle = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = stream.try_clone().unwrap();

    write_request(&mut stream, &params(Tool::HelgrindLib, &[])).unwrap();
    stream.write_all(&bytes[..bytes.len() / 2]).unwrap();
    stream.flush().unwrap();

    // With only half the upload written (and our write side still
    // open), the hello and the first incremental verdict must already
    // flow back: detection is overlapped with the upload.
    let (kind, _) = read_frame(&mut reader).unwrap().expect("hello frame");
    assert_eq!(kind, FrameKind::Hello);
    let (kind, payload) = read_frame(&mut reader).unwrap().expect("verdict frame");
    assert_eq!(
        kind,
        FrameKind::Verdict,
        "first verdict must arrive before end-of-upload"
    );
    let doc: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(doc["events"].as_u64().unwrap() > 0);

    // Finish the upload; the session must complete normally.
    stream.write_all(&bytes[bytes.len() / 2..]).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut saw_done = false;
    while let Some((kind, _)) = read_frame(&mut reader).unwrap() {
        match kind {
            FrameKind::Done => {
                saw_done = true;
                break;
            }
            FrameKind::Error => panic!("session failed after staged upload"),
            _ => {}
        }
    }
    assert!(saw_done, "session must end with a done frame");
    handle.shutdown();
}
