//! `spinrace-tracefmt` — the binary columnar trace encoding.
//!
//! The JSON encoding in `spinrace-vm` is self-describing and diffable,
//! but at ~100+ bytes per event it dominates disk and parse time for
//! million-event streams. This crate adds a compact binary format with
//! the same information content, built for the record-once /
//! replay-everywhere pipeline:
//!
//! ```text
//! +-----------------------------------------------------------------+
//! | magic "SPINRTRC" | binary version (u32 LE)                      |
//! | header JSON  (varint len + bytes)   <- TraceHeader, verbatim    |
//! | summary JSON (varint len + bytes)   <- RunSummary, verbatim     |
//! | chunk count (u32 LE) | chunk target (u32 LE) | checksum (u64 LE)|
//! +-----------------------------------------------------------------+
//! | chunk 0: event count (u32 LE) | column count (varint)           |
//! |          column 0 .. 14: varint length + block bytes            |
//! |          checksum over the framed chunk (u64 LE)                |
//! +-----------------------------------------------------------------+
//! | chunk 1 ... chunk N-1   (same framing, fresh codec state each)  |
//! +-----------------------------------------------------------------+
//! ```
//!
//! The binary version picks the checksum; nothing else differs between
//! versions. Version 2 (the only one written) uses [`lane_checksum`],
//! four independent multiply lanes over little-endian 8-byte words.
//! Version 1 used [`fnv1a`], one multiply per byte in a single
//! dependency chain, and is still read so traces already on disk keep
//! working.
//!
//! Design choices, and why:
//!
//! * **Columnar (struct-of-arrays)**: like fields compress together.
//!   Thread ids, addresses and barrier generations are near-monotone
//!   streams → zigzag delta + LEB128 varint makes most entries one
//!   byte. Program counters and call-chain hashes repeat heavily → a
//!   per-chunk dictionary plus varint indices.
//! * **Fixed-target-size chunks** (default 64k events): every chunk
//!   carries its own column lengths and a checksum and resets
//!   all codec state, so chunks decode independently. That enables the
//!   streaming reader (decode one chunk ahead of the detector, O(chunk)
//!   peak memory) and localizes corruption detection to a single chunk.
//! * **Header/summary embedded as JSON**: tiny compared to the stream,
//!   and reuses the already-versioned serde encoding — `trace inspect`
//!   on a binary file shows exactly what the JSON form would.
//!
//! [`encode_trace`] / [`decode_trace`] convert to and from the in-memory
//! [`Trace`]; [`reader::ChunkedTraceReader`] streams chunks from any
//! [`std::io::Read`]; [`sniff_format`] tells the two on-disk encodings
//! apart by their first bytes so CLI commands accept either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod reader;
pub mod varint;

pub use reader::{chunk_mem, ChunkedTraceReader, StreamStats};

use spinrace_vm::{Trace, TraceError};
use std::io::Write as _;
use std::path::Path;

/// First eight bytes of every binary trace file.
pub const MAGIC: [u8; 8] = *b"SPINRTRC";

/// Version of the binary container (framing + column codecs + checksum)
/// this build writes. Bumped independently of the logical trace version
/// embedded in the header.
pub const BINARY_FORMAT_VERSION: u32 = 2;

/// The one older binary version the reader still accepts: the same
/// framing and codecs, checksummed with [`fnv1a`].
pub(crate) const BINARY_FORMAT_V1: u32 = 1;

/// Default target events per chunk. 64k events keeps a decoded chunk in
/// the few-megabyte range — small enough for O(chunk) streaming, large
/// enough that per-chunk dictionaries and framing amortize to noise.
pub const DEFAULT_CHUNK_EVENTS: usize = 65_536;

/// FNV-1a 64-bit, the per-block checksum of binary version 1. Not
/// cryptographic — it guards against truncation and bit rot, not
/// adversaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Odd multiplier of the lane step: multiplying by an odd constant is a
/// bijection on `u64`.
const LANE_K: u64 = 0x9e37_79b9_7f4a_7c15;
/// Starting state of the four lanes (distinct, so equal words in
/// different lanes do not cancel).
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// One lane step. For a fixed word it is a bijection of the lane state,
/// and for a fixed state a bijection of the word.
#[inline(always)]
fn lane_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(LANE_K).rotate_left(29)
}

/// The per-block checksum of binary version 2.
///
/// Word `i` of every 32-byte block feeds lane `i`, so four multiply
/// chains run side by side instead of FNV-1a's one chain per byte. The
/// leftover whole words feed the first lanes, then the lanes, the
/// zero-padded tail bytes and the total length are folded into one
/// value and finished with the `fmix64` avalanche. Every step is a
/// bijection in each of its inputs, so a change confined to one 8-byte
/// word (any single-bit or single-byte flip included) always changes
/// the sum. Like [`fnv1a`], it guards against truncation and bit rot,
/// not adversaries.
pub fn lane_checksum(bytes: &[u8]) -> u64 {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word"));
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = lane_step(*lane, word(&block[8 * i..8 * i + 8]));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, w) in lanes.iter_mut().zip(&mut words) {
        *lane = lane_step(*lane, word(w));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());

    let mut h = lanes[0];
    for lane in &lanes[1..] {
        h = lane_step(h, *lane);
    }
    h = lane_step(h, u64::from_le_bytes(tail));
    h = lane_step(h, bytes.len() as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The block checksum a stream of binary version `version` carries, or
/// `None` for a version this build cannot read.
pub(crate) fn checksum_for(version: u32) -> Option<fn(&[u8]) -> u64> {
    match version {
        BINARY_FORMAT_VERSION => Some(lane_checksum),
        BINARY_FORMAT_V1 => Some(fnv1a),
        _ => None,
    }
}

/// The two on-disk trace encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// This crate's chunked columnar encoding.
    Binary,
    /// The self-describing JSON encoding of `spinrace-vm`.
    Json,
}

impl TraceFormat {
    /// Canonical file extension for the format.
    pub fn extension(self) -> &'static str {
        match self {
            TraceFormat::Binary => "sptrace",
            TraceFormat::Json => "json",
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFormat::Binary => write!(f, "binary"),
            TraceFormat::Json => write!(f, "json"),
        }
    }
}

/// Identify a trace encoding from its first bytes: the binary magic, or
/// a JSON document (first non-whitespace byte `{`). Anything else is
/// [`TraceError::Magic`].
pub fn sniff_format(bytes: &[u8]) -> Result<TraceFormat, TraceError> {
    if bytes.starts_with(&MAGIC) {
        return Ok(TraceFormat::Binary);
    }
    match bytes.iter().find(|b| !b.is_ascii_whitespace()) {
        Some(b'{') => Ok(TraceFormat::Json),
        _ => Err(TraceError::Magic),
    }
}

/// Encode `trace` with the default chunk target.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    encode_trace_chunked(trace, DEFAULT_CHUNK_EVENTS)
}

/// Encode `trace` with an explicit target of `chunk_events` events per
/// chunk (clamped to at least one).
pub fn encode_trace_chunked(trace: &Trace, chunk_events: usize) -> Vec<u8> {
    let chunk_events = chunk_events.max(1);
    let header_json = serde_json::to_string(&trace.header).expect("header serialization");
    let summary_json = serde_json::to_string(&trace.summary).expect("summary serialization");
    let chunk_count = trace.events.len().div_ceil(chunk_events) as u32;

    let mut out = Vec::with_capacity(header_json.len() + summary_json.len() + 64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&BINARY_FORMAT_VERSION.to_le_bytes());
    varint::put_uvarint(&mut out, header_json.len() as u64);
    out.extend_from_slice(header_json.as_bytes());
    varint::put_uvarint(&mut out, summary_json.len() as u64);
    out.extend_from_slice(summary_json.as_bytes());
    out.extend_from_slice(&chunk_count.to_le_bytes());
    out.extend_from_slice(&(chunk_events.min(u32::MAX as usize) as u32).to_le_bytes());
    let sum = lane_checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());

    for chunk in trace.events.chunks(chunk_events) {
        chunk::encode_chunk(chunk, &mut out);
    }
    out
}

/// Decode a complete binary trace from memory.
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, TraceError> {
    ChunkedTraceReader::new(bytes)?.read_all()
}

/// Parse a trace from raw file bytes in either encoding, dispatching on
/// [`sniff_format`].
pub fn load_trace_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
    match sniff_format(bytes)? {
        TraceFormat::Binary => decode_trace(bytes),
        TraceFormat::Json => {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| TraceError::Json("trace file is not UTF-8".into()))?;
            Trace::from_json(text)
        }
    }
}

/// Read and parse a trace file in either encoding.
pub fn load_trace_file(path: &Path) -> Result<Trace, TraceError> {
    let bytes =
        std::fs::read(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
    load_trace_bytes(&bytes)
}

/// Write `trace` to `path` in the requested encoding.
pub fn write_trace_file(path: &Path, trace: &Trace, format: TraceFormat) -> Result<(), TraceError> {
    let bytes = match format {
        TraceFormat::Binary => encode_trace(trace),
        TraceFormat::Json => trace.to_json().into_bytes(),
    };
    let mut f = std::fs::File::create(path)
        .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
    f.write_all(&bytes)
        .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::{Module, ModuleBuilder};
    use spinrace_vm::{record_run, RecordingSink, VmConfig};

    fn handoff() -> Module {
        let mut mb = ModuleBuilder::new("tracefmt-test");
        let flag = mb.global("flag", 1);
        let data = mb.global("data", 1);
        let waiter = mb.function("waiter", 1, |f| {
            let head = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.load(flag.at(0));
            f.branch(v, done, head);
            f.switch_to(done);
            let d = f.load(data.at(0));
            f.output(d);
            f.ret(None);
        });
        mb.entry("main", |f| {
            let t = f.spawn(waiter, 0);
            f.store(data.at(0), 42);
            f.store(flag.at(0), 1);
            f.join(t);
            f.ret(None);
        });
        mb.finish().unwrap()
    }

    #[test]
    fn binary_round_trip_is_lossless() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::random(11), "rt").unwrap();
        let bytes = encode_trace(&trace);
        let decoded = decode_trace(&bytes).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn tiny_chunks_round_trip_and_reset_state() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::round_robin(), "chunks").unwrap();
        // Chunk size 3 forces many boundaries; delta/dictionary state
        // must reset at each or decoded values drift.
        let bytes = encode_trace_chunked(&trace, 3);
        let decoded = decode_trace(&bytes).unwrap();
        assert_eq!(decoded, trace);
        let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
        assert_eq!(
            reader.chunk_count() as usize,
            trace.events.len().div_ceil(3)
        );
    }

    #[test]
    fn streaming_replay_matches_in_memory_replay() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::random(3), "stream").unwrap();
        let bytes = encode_trace_chunked(&trace, 4);
        let mut sink = RecordingSink::default();
        let stats = ChunkedTraceReader::new(&bytes[..])
            .unwrap()
            .replay_into(&mut sink)
            .unwrap();
        assert_eq!(sink.events, trace.events);
        assert_eq!(stats.events, trace.events.len() as u64);
        assert!(stats.chunks >= 1);
        assert!(stats.peak_resident_bytes > 0);
        // Two recycled buffers: never more than two chunks resident.
        let largest = trace.events.chunks(4).map(chunk_mem).max().unwrap();
        assert!(
            stats.peak_resident_bytes <= 2 * largest,
            "peak {} exceeds two chunks of {largest}",
            stats.peak_resident_bytes
        );
    }

    #[test]
    fn sniffing_distinguishes_the_encodings() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::round_robin(), "").unwrap();
        assert_eq!(
            sniff_format(&encode_trace(&trace)).unwrap(),
            TraceFormat::Binary
        );
        assert_eq!(
            sniff_format(trace.to_json().as_bytes()).unwrap(),
            TraceFormat::Json
        );
        assert_eq!(
            sniff_format(b"  \n {\"header\":{}}").unwrap(),
            TraceFormat::Json
        );
        assert!(matches!(sniff_format(b"ELF....."), Err(TraceError::Magic)));
        assert!(matches!(sniff_format(b""), Err(TraceError::Magic)));
    }

    #[test]
    fn corruption_is_detected_and_localized() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::round_robin(), "corrupt").unwrap();
        let good = encode_trace_chunked(&trace, 4);

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(load_trace_bytes(&bad), Err(TraceError::Magic)));

        // Unsupported binary version.
        let mut bad = good.clone();
        bad[8] = 0xee;
        assert!(matches!(
            decode_trace(&bad),
            Err(TraceError::Version { found: 0xee, .. })
        ));

        // Flip a byte in the last chunk: the checksum catches it — or,
        // if the flip lands in a column-length varint, the reader runs
        // off the end of the stream first and reports truncation. Either
        // way, a structured error.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 12] ^= 0x55;
        assert!(matches!(
            decode_trace(&bad),
            Err(TraceError::Checksum { .. })
                | Err(TraceError::Corrupt(_))
                | Err(TraceError::ChunkCount { .. })
        ));

        // Truncate mid-stream: chunk count shortfall.
        let truncated = &good[..good.len() - 20];
        assert!(matches!(
            decode_trace(truncated),
            Err(TraceError::ChunkCount { .. })
        ));
    }

    #[test]
    fn lane_checksum_known_answers_are_pinned() {
        // The v2 checksum is part of the on-disk format: these values
        // must never change, or every v2 file already written breaks.
        let ramp: Vec<u8> = (0..=99u8).collect();
        assert_eq!(lane_checksum(b""), 0xc968_b3af_e148_b9d0);
        assert_eq!(lane_checksum(&ramp), 0xc8c1_2cf3_e2eb_3d0f);
    }

    #[test]
    fn every_single_bit_flip_is_a_structured_error() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::random(5), "flips").unwrap();
        let good = encode_trace_chunked(&trace, 4);
        assert!(ChunkedTraceReader::new(&good[..]).unwrap().chunk_count() > 1);
        let mut bad = good.clone();
        for pos in 0..good.len() {
            for bit in 0..8 {
                bad[pos] ^= 1 << bit;
                assert!(
                    decode_trace(&bad).is_err(),
                    "flip of bit {bit} at byte {pos} decoded"
                );
                bad[pos] ^= 1 << bit;
            }
        }
    }

    /// A source whose every read fails with a non-EOF error.
    struct Failing;

    impl std::io::Read for Failing {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("connection reset"))
        }
    }

    #[test]
    fn magic_read_failures_are_io_errors_and_short_input_is_magic() {
        assert!(matches!(
            ChunkedTraceReader::new(Failing),
            Err(TraceError::Io(m)) if m.contains("connection reset")
        ));
        assert!(matches!(
            ChunkedTraceReader::new(&b""[..]),
            Err(TraceError::Magic)
        ));
        assert!(matches!(
            ChunkedTraceReader::new(&b"SPINR"[..]),
            Err(TraceError::Magic)
        ));
    }

    #[test]
    fn the_reader_reports_the_declared_binary_version() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::round_robin(), "v").unwrap();
        let bytes = encode_trace(&trace);
        let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.binary_version(), BINARY_FORMAT_VERSION);
    }

    proptest::proptest! {
        /// Changing any one aligned 8-byte word (or the bytes of the
        /// partial tail word) of a buffer always changes the checksum:
        /// each lane step is a bijection for a fixed word.
        #[test]
        fn changing_one_word_changes_the_lane_checksum(
            buf in proptest::collection::vec(0u8..=0xff, 1..300),
            word in 0usize..64,
            mask in 1u64..=u64::MAX,
        ) {
            let word = word % buf.len().div_ceil(8);
            let mut changed = buf.clone();
            for (b, m) in changed[8 * word..].iter_mut().zip(mask.to_le_bytes()) {
                *b ^= m;
            }
            if changed == buf {
                // The mask's nonzero bytes all fell past a short tail.
                return Ok(());
            }
            proptest::prop_assert_ne!(lane_checksum(&changed), lane_checksum(&buf));
        }
    }
}
