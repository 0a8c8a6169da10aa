//! Shared trace-mutation helpers for the negative-path suites
//! (`trace_negative.rs`, `serve_protocol.rs`): one recorded run plus
//! cached serializations of it, and the byte-surgery utilities the
//! corruption cases are built from. Each test crate compiles this
//! module independently and uses a different subset.
#![allow(dead_code)]

use spinrace::core::{PreparedModule, Session, Tool};
use spinrace::tracefmt::{encode_trace_chunked, MAGIC};
use spinrace::vm::Trace;
use spinrace::workloads::{Family, WorkloadSpec};
use std::sync::OnceLock;

/// A small recorded run to mutate (ring family: has sync events of every
/// semaphore flavour in the stream, so the event array is non-trivial).
pub fn recorded() -> (PreparedModule, Trace) {
    let spec = WorkloadSpec::new(Family::Ring).events_per_thread(12);
    let wl = spec.build();
    let session = Session::for_module(&wl.module).vm_config(spec.vm_config());
    let prepared = session.prepare(Tool::HelgrindLib).unwrap();
    let run = prepared.clone().execute().unwrap();
    (prepared, run.into_trace())
}

/// One serialized trace, built once — the mutation cases only need its
/// bytes, and recording a fresh run per case would dominate the suite.
pub fn base_json() -> &'static [u8] {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| recorded().1.to_json()).as_bytes()
}

/// One binary-encoded trace, built once, chunked small enough that the
/// recorded ring stream spans several chunks — the mutation cases need
/// real chunk boundaries, not a single-chunk degenerate file.
pub fn base_binary() -> &'static [u8] {
    static BIN: OnceLock<Vec<u8>> = OnceLock::new();
    BIN.get_or_init(|| encode_trace_chunked(&recorded().1, 16))
}

/// Decode mutated bytes the way the `trace` CLI does: UTF-8 validation
/// first (`read_to_string` refuses invalid bytes), then the trace
/// parser. Returns `true` when either layer rejected the input.
pub fn decode_rejects(bytes: &[u8]) -> bool {
    match std::str::from_utf8(bytes) {
        Err(_) => true,
        Ok(s) => Trace::from_json(s).is_err(),
    }
}

/// Read one LEB128 varint out of a test buffer (trusted input — the
/// tests walk files they just encoded).
pub fn leb(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Byte offset of the header block's `chunk_count`/`chunk_target` pair,
/// and of the header checksum right after it.
pub fn header_counts_offsets(bytes: &[u8]) -> (usize, usize) {
    let mut pos = MAGIC.len() + 4; // magic + binary version
    let header_len = leb(bytes, &mut pos);
    pos += header_len as usize;
    let summary_len = leb(bytes, &mut pos);
    pos += summary_len as usize;
    (pos, pos + 8)
}

/// Where one framed chunk sits in an encoded file: its first byte, the
/// `(offset, len)` of each column block, and the offset of its trailing
/// checksum (the chunk's framed bytes are `start..checksum`).
pub struct ChunkFrame {
    pub start: usize,
    pub cols: Vec<(usize, usize)>,
    pub checksum: usize,
}

/// Walk every chunk of an encoded file (trusted input, as for [`leb`]).
pub fn chunk_frames(bytes: &[u8]) -> Vec<ChunkFrame> {
    let (_, header_checksum) = header_counts_offsets(bytes);
    let mut pos = header_checksum + 8;
    let mut frames = Vec::new();
    while pos < bytes.len() {
        let start = pos;
        pos += 4; // event count
        let ncols = leb(bytes, &mut pos);
        let cols = (0..ncols)
            .map(|_| {
                let len = leb(bytes, &mut pos) as usize;
                pos += len;
                (pos - len, len)
            })
            .collect();
        frames.push(ChunkFrame {
            start,
            cols,
            checksum: pos,
        });
        pos += 8;
    }
    frames
}
