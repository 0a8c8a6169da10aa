//! Serve sessions as a client sees them: over loopback TCP against an
//! in-process server, or in process over in-memory pipes.

use serde_json::Value;
use spinrace_serve::{
    collect_frames, handle_session, read_frame, write_request, CoreBudget, FrameKind, ServeOptions,
};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Instant;

/// Concurrent session slots and cores of every server the benchmark
/// starts: the closed loop never has more than two clients in flight.
pub const SERVER_SESSIONS: usize = 2;

pub fn server_options() -> ServeOptions {
    ServeOptions {
        sessions: SERVER_SESSIONS,
        cores: SERVER_SESSIONS,
        ..ServeOptions::default()
    }
}

/// What one session returned.
#[derive(Debug, Default)]
pub struct SessionResult {
    /// Connect → terminal frame.
    pub ms: f64,
    /// Connect → first `V` frame (`None` when none arrived).
    pub first_verdict_ms: Option<f64>,
    pub verdicts: usize,
    /// `O` payloads, byte for byte.
    pub outcomes: Vec<String>,
    /// The `E` payload, if the session failed.
    pub error: Option<String>,
    pub done: bool,
}

impl SessionResult {
    pub fn error_frames(&self) -> usize {
        usize::from(self.error.is_some())
    }
}

/// One upload over TCP. The upload is written from a helper thread so
/// that verdict frames are read, and timed, while it is still in flight.
pub fn tcp_session(addr: &str, params: &Value, trace: &[u8]) -> io::Result<SessionResult> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let mut reader = stream.try_clone()?;
    let mut res = SessionResult::default();
    let upload = std::thread::scope(|scope| -> io::Result<io::Result<()>> {
        let writer = scope.spawn(move || -> io::Result<()> {
            write_request(&mut stream, params)?;
            stream.write_all(trace)?;
            stream.flush()?;
            stream.shutdown(Shutdown::Write)
        });
        while let Some((kind, payload)) = read_frame(&mut reader)? {
            match kind {
                FrameKind::Hello => {}
                FrameKind::Verdict => {
                    res.verdicts += 1;
                    res.first_verdict_ms
                        .get_or_insert_with(|| t0.elapsed().as_secs_f64() * 1e3);
                }
                FrameKind::Outcome => res.outcomes.push(String::from_utf8_lossy(&payload).into()),
                FrameKind::Error => {
                    res.error = Some(String::from_utf8_lossy(&payload).into());
                    break;
                }
                FrameKind::Done => {
                    res.done = true;
                    break;
                }
            }
        }
        // A server that refused the session may close mid-upload; its
        // error frame is the result, not the broken pipe.
        Ok(writer.join().expect("upload thread panicked"))
    })?;
    res.ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = upload {
        if res.error.is_none() && !res.done {
            return Err(e);
        }
    }
    Ok(res)
}

/// One session through `handle_session` over in-memory pipes: the same
/// request frame and trace bytes, no transport.
pub fn inproc_session(params: &Value, trace: &[u8]) -> io::Result<SessionResult> {
    let t0 = Instant::now();
    let mut request = Vec::new();
    write_request(&mut request, params)?;
    let input = io::Cursor::new(request).chain(trace);
    let mut output = Vec::new();
    let cores = CoreBudget::new(1);
    let served = handle_session(input, &mut output, server_options(), &cores);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let frames = collect_frames(&output[..])?;
    Ok(SessionResult {
        ms,
        first_verdict_ms: None,
        verdicts: frames.verdicts,
        outcomes: frames.outcomes.into_iter().map(|(_, text)| text).collect(),
        error: served.err(),
        done: frames.done.is_some(),
    })
}
