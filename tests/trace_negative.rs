//! Negative-path coverage for the trace decode pipeline: every way a
//! trace file can be wrong must surface as the *right* typed error —
//! never a panic, and never a misleading downstream parse failure.

use spinrace::core::{AnalyzeError, ExecutedRun, Session, Tool};
use spinrace::vm::trace::{TraceError, TRACE_FORMAT_VERSION};
use spinrace::vm::Trace;
use spinrace::workloads::{Family, WorkloadSpec};

mod mutate;
use mutate::{
    base_binary, base_json, chunk_frames, decode_rejects, header_counts_offsets, recorded,
};

#[test]
fn garbage_and_truncated_documents_are_json_errors() {
    for text in [
        "",
        "{not json",
        "[]",
        "42",
        "\"a trace, honest\"",
        "{\"header\": 7}",
        "{}",
    ] {
        match Trace::from_json(text) {
            Err(TraceError::Json(_)) => {}
            other => panic!("{text:?}: expected a Json error, got {other:?}"),
        }
    }
    // A structurally valid document cut off mid-stream.
    let (_, trace) = recorded();
    let json = trace.to_json();
    let cut = &json[..json.len() / 2];
    assert!(matches!(Trace::from_json(cut), Err(TraceError::Json(_))));
}

#[test]
fn corrupt_header_fields_are_json_errors_not_panics() {
    let (_, trace) = recorded();
    let json = trace.to_json();
    // Header field holding the wrong type.
    let bad = json.replacen(
        &format!("\"module_name\":\"{}\"", trace.header.module_name),
        "\"module_name\":[1,2]",
        1,
    );
    assert_ne!(bad, json, "the replacement must have applied");
    assert!(matches!(Trace::from_json(&bad), Err(TraceError::Json(_))));
    // Header entirely replaced by a scalar.
    let gutted = r#"{"header":null,"summary":{},"events":[]}"#;
    assert!(matches!(Trace::from_json(gutted), Err(TraceError::Json(_))));
}

#[test]
fn version_mismatch_is_reported_before_event_decoding() {
    let (_, trace) = recorded();
    // A future version whose *events* would also fail to decode: the
    // version check must win, so the user sees "version 99" instead of a
    // confusing event parse error.
    let mut doc = trace.to_json();
    doc = doc.replacen(
        &format!("\"version\":{TRACE_FORMAT_VERSION}"),
        "\"version\":99",
        1,
    );
    doc = doc.replacen("\"events\":[", "\"events\":[{\"FutureEvent\":{}},", 1);
    match Trace::from_json(&doc) {
        Err(TraceError::Version {
            found: 99,
            supported,
        }) => {
            assert_eq!(supported, TRACE_FORMAT_VERSION);
        }
        other => panic!("expected a version error, got {other:?}"),
    }
}

#[test]
fn event_count_mismatch_is_detected_in_both_directions() {
    let (_, trace) = recorded();
    let n = trace.events.len() as u64;

    // Header claims more events than the stream holds (truncation).
    let mut over = trace.clone();
    over.header.events += 3;
    match Trace::from_json(&over.to_json()) {
        Err(TraceError::EventCount { header, actual }) => {
            assert_eq!((header, actual), (n + 3, n));
        }
        other => panic!("expected an event-count error, got {other:?}"),
    }

    // Header claims fewer (a stream that grew past its header).
    let mut under = trace.clone();
    under.header.events -= 1;
    assert!(matches!(
        Trace::from_json(&under.to_json()),
        Err(TraceError::EventCount { .. })
    ));
}

#[test]
fn fingerprint_mismatch_rejects_rebinding_with_both_prints() {
    let (prepared, trace) = recorded();
    let fp = prepared.fingerprint();
    assert_eq!(trace.header.module_fingerprint, fp);

    // The same family one seed over: same shape, different module.
    let other_spec = WorkloadSpec::new(Family::Ring)
        .events_per_thread(12)
        .seed(2);
    let other = Session::for_module(&other_spec.build().module)
        .vm_config(other_spec.vm_config())
        .prepare(Tool::HelgrindLib)
        .unwrap();
    assert_ne!(other.fingerprint(), fp);

    match ExecutedRun::from_trace(other, trace.clone()) {
        Err(AnalyzeError::TraceMismatch {
            trace_fingerprint,
            module_fingerprint,
        }) => {
            assert_eq!(trace_fingerprint, fp);
            assert_ne!(module_fingerprint, fp);
        }
        other => panic!("expected a TraceMismatch, got {other:?}"),
    }

    // The matching preparation still binds.
    assert!(ExecutedRun::from_trace(prepared, trace).is_ok());
}

#[test]
fn errors_render_actionable_messages() {
    let (_, trace) = recorded();
    let mut v = trace.clone();
    v.header.version = 2;
    let msg = Trace::from_json(&v.to_json()).unwrap_err().to_string();
    assert!(msg.contains("version 2"), "{msg}");
    let mut c = trace;
    c.header.events += 1;
    let msg = Trace::from_json(&c.to_json()).unwrap_err().to_string();
    assert!(msg.contains("truncated"), "{msg}");
}

// ---- randomized byte mutations of the serialized artifact ----

use proptest::prelude::*;
use std::panic::catch_unwind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The document is a single JSON object, so every strict prefix is
    /// malformed — and must come back as a typed error, never a panic.
    #[test]
    fn truncation_is_always_rejected_without_panicking(pos in 0usize..1 << 16) {
        let json = base_json();
        let cut = pos % json.len();
        let rejected = catch_unwind(move || decode_rejects(&json[..cut]))
            .expect("truncated trace decode panicked");
        prop_assert!(rejected, "truncation at byte {cut} decoded successfully");
    }

    /// Splicing a random run of bytes out of the document must never
    /// panic the load path. (It nearly always breaks parsing; the rare
    /// splice that leaves valid JSON — digits removed from inside a
    /// number, say — may legitimately decode, which is fine.)
    #[test]
    fn byte_splices_never_panic(pos in 0usize..1 << 16, len in 1usize..64) {
        let json = base_json();
        let pos = pos % json.len();
        let len = len.min(json.len() - pos);
        let mut bytes = json.to_vec();
        bytes.drain(pos..pos + len);
        let outcome = catch_unwind(move || {
            decode_rejects(&bytes);
        });
        prop_assert!(outcome.is_ok(), "spliced trace decode panicked");
    }

    /// Flipping any byte to any other value must never panic the load
    /// path — whether the flip lands in structure (parse error), a
    /// string (usually fine), or breaks UTF-8 (rejected before parsing).
    #[test]
    fn byte_flips_never_panic(pos in 0usize..1 << 16, flip in 1u8..=255) {
        let json = base_json();
        let pos = pos % json.len();
        let mut bytes = json.to_vec();
        bytes[pos] ^= flip;
        let outcome = catch_unwind(move || {
            decode_rejects(&bytes);
        });
        prop_assert!(outcome.is_ok(), "byte-flipped trace decode panicked");
    }
}

// ---- binary (columnar) format negative paths ----

use spinrace::tracefmt::{
    decode_trace, encode_trace_chunked, lane_checksum, load_trace_bytes, BINARY_FORMAT_VERSION,
    MAGIC,
};

#[test]
fn bad_magic_is_a_magic_error() {
    // A corrupted magic byte, and inputs that are neither encoding.
    let mut bytes = base_binary().to_vec();
    bytes[0] ^= 0xff;
    assert!(matches!(decode_trace(&bytes), Err(TraceError::Magic)));
    for garbage in [&b""[..], b"SPINRTRX", b"\x00\x01\x02\x03"] {
        assert!(matches!(load_trace_bytes(garbage), Err(TraceError::Magic)));
    }
}

#[test]
fn binary_version_bump_is_a_version_error_before_checksum() {
    // A future binary version must be reported as such even though the
    // patched bytes also break the header checksum: version is checked
    // first, so the user sees "version 99", not "checksum mismatch".
    let mut bytes = base_binary().to_vec();
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
    match decode_trace(&bytes) {
        Err(TraceError::Version { found, supported }) => {
            assert_eq!((found, supported), (99, BINARY_FORMAT_VERSION));
        }
        other => panic!("expected a version error, got {other:?}"),
    }
}

#[test]
fn truncated_chunk_is_reported_as_the_chunk_shortfall() {
    let bytes = base_binary();
    let (counts_pos, checksum_pos) = header_counts_offsets(bytes);
    let header_block_end = checksum_pos + 8;
    let total_chunks = u32::from_le_bytes(bytes[counts_pos..][..4].try_into().unwrap());
    assert!(total_chunks > 1, "the base stream must span several chunks");
    // Cutting into the final chunk's checksum loses exactly one chunk.
    match decode_trace(&bytes[..bytes.len() - 4]) {
        Err(TraceError::ChunkCount { header, actual }) => {
            assert_eq!((header, actual), (total_chunks, total_chunks - 1));
        }
        other => panic!("expected a chunk-count error, got {other:?}"),
    }
    // Cutting just past the header block loses every chunk.
    match decode_trace(&bytes[..header_block_end]) {
        Err(TraceError::ChunkCount { header, actual }) => {
            assert_eq!((header, actual), (total_chunks, 0));
        }
        other => panic!("expected a chunk-count error, got {other:?}"),
    }
}

#[test]
fn corrupted_column_data_fails_the_chunk_checksum() {
    // The final byte of the file is the last chunk's checksum; a byte a
    // little before it sits inside that chunk's column data. Both flips
    // must localize to a checksum failure on that chunk.
    let bytes = base_binary();
    let (counts_pos, _) = header_counts_offsets(bytes);
    let total_chunks = u32::from_le_bytes(bytes[counts_pos..][..4].try_into().unwrap());
    for tamper in [bytes.len() - 1, bytes.len() - 12] {
        let mut bad = bytes.to_vec();
        bad[tamper] ^= 0x01;
        match decode_trace(&bad) {
            Err(TraceError::Checksum { chunk }) => assert_eq!(chunk, total_chunks - 1),
            // A flip landing in a column-length varint can instead run
            // the reader off the end of the stream — also structured.
            Err(TraceError::ChunkCount { .. }) => {}
            other => panic!("expected a checksum error, got {other:?}"),
        }
    }
}

#[test]
fn header_chunk_count_mismatch_is_detected() {
    // Claim one more chunk than the stream holds, with the header
    // checksum re-fixed so only the count lies.
    let bytes = base_binary();
    let (counts_pos, checksum_pos) = header_counts_offsets(bytes);
    let total_chunks = u32::from_le_bytes(bytes[counts_pos..][..4].try_into().unwrap());
    let mut bad = bytes.to_vec();
    bad[counts_pos..counts_pos + 4].copy_from_slice(&(total_chunks + 1).to_le_bytes());
    let sum = lane_checksum(&bad[..checksum_pos]);
    bad[checksum_pos..checksum_pos + 8].copy_from_slice(&sum.to_le_bytes());
    match decode_trace(&bad) {
        Err(TraceError::ChunkCount { header, actual }) => {
            assert_eq!((header, actual), (total_chunks + 1, total_chunks));
        }
        other => panic!("expected a chunk-count error, got {other:?}"),
    }
    // The un-fixed version of the same patch is caught by the checksum.
    let mut unfixed = bytes.to_vec();
    unfixed[counts_pos..counts_pos + 4].copy_from_slice(&(total_chunks + 1).to_le_bytes());
    assert!(matches!(
        decode_trace(&unfixed),
        Err(TraceError::Corrupt(_))
    ));
}

#[test]
fn binary_event_count_mismatch_and_trailing_bytes_are_detected() {
    let (_, trace) = recorded();
    let n = trace.events.len() as u64;
    let mut lying = trace.clone();
    lying.header.events += 3;
    match decode_trace(&encode_trace_chunked(&lying, 64)) {
        Err(TraceError::EventCount { header, actual }) => {
            assert_eq!((header, actual), (n + 3, n));
        }
        other => panic!("expected an event-count error, got {other:?}"),
    }
    let mut padded = encode_trace_chunked(&trace, 64);
    padded.push(0);
    assert!(matches!(decode_trace(&padded), Err(TraceError::Corrupt(_))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every strict prefix of a binary trace is missing at least its
    /// final checksum byte, so every one must come back as a typed
    /// error — never a panic, never a silent partial decode.
    #[test]
    fn binary_truncation_is_always_rejected_without_panicking(pos in 0usize..1 << 16) {
        let bytes = base_binary();
        let cut = pos % bytes.len();
        let rejected = catch_unwind(move || load_trace_bytes(&bytes[..cut]).is_err())
            .expect("truncated binary decode panicked");
        prop_assert!(rejected, "binary truncation at byte {cut} decoded successfully");
    }

    /// Splicing a random run of bytes out of the file must never panic
    /// the load path. (The checksums make a successful decode of a
    /// spliced file astronomically unlikely, but the property under
    /// test is no-panic, matching the JSON splice case.)
    #[test]
    fn binary_byte_splices_never_panic(pos in 0usize..1 << 16, len in 1usize..64) {
        let bytes = base_binary();
        let pos = pos % bytes.len();
        let len = len.min(bytes.len() - pos);
        let mut mutated = bytes.to_vec();
        mutated.drain(pos..pos + len);
        let outcome = catch_unwind(move || {
            let _ = load_trace_bytes(&mutated);
        });
        prop_assert!(outcome.is_ok(), "spliced binary decode panicked");
    }

    /// Flipping any byte to any other value must never panic the load
    /// path — whether it lands in the magic, a length varint, column
    /// data, or a checksum.
    #[test]
    fn binary_byte_flips_never_panic(pos in 0usize..1 << 16, flip in 1u8..=255) {
        let bytes = base_binary();
        let pos = pos % bytes.len();
        let mut mutated = bytes.to_vec();
        mutated[pos] ^= flip;
        let outcome = catch_unwind(move || {
            let _ = load_trace_bytes(&mutated);
        });
        prop_assert!(outcome.is_ok(), "byte-flipped binary decode panicked");
    }
}

// ---- streamed vs in-memory decode: one reader, one verdict ----

use spinrace::core::{DetectRequest, PreparedModule};
use spinrace::tracefmt::{chunk_mem, ChunkedTraceReader};
use spinrace::vm::Event;
use std::sync::OnceLock;

/// A small spin-flag run recorded under lib+spin: the stream carries
/// `SpinExit` events with non-empty read lists, so recycled chunk
/// buffers must drop and rebuild nested allocations at every reuse.
fn spin_recorded() -> &'static (PreparedModule, Trace) {
    static RUN: OnceLock<(PreparedModule, Trace)> = OnceLock::new();
    RUN.get_or_init(|| {
        let spec = WorkloadSpec::new(Family::SpinFlag)
            .threads(2)
            .events_per_thread(6);
        let wl = spec.build();
        let prepared = Session::for_module(&wl.module)
            .vm_config(spec.vm_config())
            .prepare(Tool::HelgrindLibSpin { window: 7 })
            .unwrap();
        let trace = prepared.clone().execute().unwrap().into_trace();
        assert!(
            trace
                .events
                .iter()
                .any(|e| matches!(e, Event::SpinExit { reads, .. } if !reads.is_empty())),
            "the stream must exercise SpinExit read lists"
        );
        (prepared, trace)
    })
}

/// The decode verdict of a streamed detection over `bytes`: `Ok` on a
/// clean replay, the `TraceError` otherwise (open or mid-stream).
fn streamed_verdict(prepared: &PreparedModule, bytes: &[u8]) -> Result<(), TraceError> {
    let reader = ChunkedTraceReader::new(bytes)?;
    match prepared.try_run_streamed(&DetectRequest::own().streamed(), reader) {
        Ok(_) => Ok(()),
        Err(AnalyzeError::Trace(e)) => Err(e),
        Err(other) => panic!("streamed replay failed outside decode: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The two-buffer streamed pipeline and the whole-trace decode share
    /// one reader, so they must agree exactly: on clean input the same
    /// events (across many recycled-buffer boundaries, short last
    /// chunks included), and on every truncation offset and every byte
    /// flip the same `TraceError`.
    #[test]
    fn streamed_and_in_memory_decode_agree(chunk in 3usize..=7, flip in 1u8..=255) {
        let (prepared, trace) = spin_recorded();
        let bytes = encode_trace_chunked(trace, chunk);

        let decoded = decode_trace(&bytes).expect("clean stream decodes");
        prop_assert_eq!(&decoded, trace);
        let mut streamed: Vec<Event> = Vec::new();
        let stats = ChunkedTraceReader::new(&bytes[..])
            .unwrap()
            .for_each_chunk(|c| {
                streamed.extend_from_slice(c);
                Ok::<_, TraceError>(())
            })
            .unwrap();
        prop_assert_eq!(&streamed, &decoded.events);
        let largest = trace.events.chunks(chunk).map(chunk_mem).max().unwrap_or(0);
        prop_assert!(
            stats.peak_resident_bytes <= 2 * largest,
            "peak {} exceeds two chunks of {}",
            stats.peak_resident_bytes,
            largest
        );
        prop_assert_eq!(streamed_verdict(prepared, &bytes), Ok(()));

        for cut in 0..bytes.len() {
            let whole = decode_trace(&bytes[..cut]).map(drop);
            prop_assert!(whole.is_err(), "truncation at {} decoded", cut);
            prop_assert_eq!(streamed_verdict(prepared, &bytes[..cut]), whole, "truncated at {}", cut);
        }
        let mut bad = bytes.clone();
        for pos in 0..bytes.len() {
            bad[pos] ^= flip;
            let whole = decode_trace(&bad).map(drop);
            prop_assert!(whole.is_err(), "flip at {} decoded", pos);
            prop_assert_eq!(streamed_verdict(prepared, &bad), whole, "flip at {}", pos);
            bad[pos] ^= flip;
        }
    }
}

// ---- the column decoder's own checks, past the checksum ----

/// Decode `bytes` through the two-buffer streamed pipeline, collecting
/// every event — the streamed twin of `decode_trace(bytes).events`.
fn streamed_events(bytes: &[u8]) -> Result<Vec<Event>, TraceError> {
    let mut events = Vec::new();
    ChunkedTraceReader::new(bytes)?.for_each_chunk(|c| {
        events.extend_from_slice(c);
        Ok::<_, TraceError>(())
    })?;
    Ok(events)
}

/// Flip `flip` into the column byte `offset` (counted over all column
/// blocks of chunk `chunk`) and re-fix that chunk's checksum, so the
/// damage reaches the column decoder instead of stopping at the sum.
fn corrupt_columns(bytes: &[u8], chunk: usize, offset: usize, flip: u8) -> Vec<u8> {
    let frames = chunk_frames(bytes);
    let frame = &frames[chunk % frames.len()];
    let data: Vec<usize> = frame
        .cols
        .iter()
        .flat_map(|&(at, len)| at..at + len)
        .collect();
    let mut bad = bytes.to_vec();
    bad[data[offset % data.len()]] ^= flip;
    let sum = lane_checksum(&bad[frame.start..frame.checksum]);
    bad[frame.checksum..frame.checksum + 8].copy_from_slice(&sum.to_le_bytes());
    bad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Column bytes damaged behind a valid checksum decode cleanly or
    /// fail with a structured error — never a panic — and streamed and
    /// in-memory decode agree on which, event for event.
    #[test]
    fn checksum_fixed_column_corruption_is_structured(
        chunk in 0usize..64,
        offset in 0usize..1 << 16,
        flip in 1u8..=255,
    ) {
        let (_, trace) = spin_recorded();
        let bad = corrupt_columns(&encode_trace_chunked(trace, 5), chunk, offset, flip);
        let whole = decode_trace(&bad).map(|t| t.events);
        prop_assert_eq!(streamed_events(&bad), whole);
    }
}

#[test]
fn checksum_fixed_column_corruption_reaches_the_decoder_checks() {
    // Sweep every column byte of the first chunk: with the checksum
    // re-fixed, the column decoder itself must reject some flips.
    let bytes = base_binary();
    let total: usize = chunk_frames(bytes)[0].cols.iter().map(|c| c.1).sum();
    let rejected = (0..total)
        .filter(|&at| {
            matches!(
                decode_trace(&corrupt_columns(bytes, 0, at, 0xff)),
                Err(TraceError::Corrupt(_))
            )
        })
        .count();
    assert!(rejected > 0, "no column flip reached a decoder check");
}

/// A file whose header block is the base trace's and whose first chunk
/// holds one event built from `patch`ed columns, framed and checksummed
/// as the writer would.
fn hand_built(patch: &[(usize, &[u8])]) -> Vec<u8> {
    // kind, tid, aux-tid, obj, obj2, value, value2, pc dict (one entry),
    // pc idx, stack dict (one entry), stack idx, order, spin, gen, spin
    // reads (empty address sub-column): a clean `ThreadEnd` by default.
    let mut cols: [&[u8]; 15] = [
        &[2],
        &[0],
        &[],
        &[],
        &[],
        &[],
        &[],
        &[1, 0, 0, 0],
        &[],
        &[1, 0],
        &[],
        &[],
        &[],
        &[],
        &[0],
    ];
    for &(i, col) in patch {
        cols[i] = col;
    }
    let bytes = base_binary();
    let (_, header_checksum) = header_counts_offsets(bytes);
    let mut out = bytes[..header_checksum + 8].to_vec();
    let start = out.len();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.push(cols.len() as u8);
    for col in cols {
        out.push(col.len() as u8);
        out.extend_from_slice(col);
    }
    let sum = lane_checksum(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

#[test]
fn column_decoder_errors_keep_their_exact_messages() {
    const KIND: usize = 0;
    const TID: usize = 1;
    const AUX_TID: usize = 2;
    const OBJ: usize = 3;
    const VALUE: usize = 5;
    const PC_IDX: usize = 8;
    const STACK_IDX: usize = 10;
    let spawn: &[(usize, &[u8])] = &[(KIND, &[0]), (AUX_TID, &[2])];
    let read: &[(usize, &[u8])] = &[(KIND, &[3]), (OBJ, &[2]), (VALUE, &[0]), (PC_IDX, &[0])];
    type Patch<'a> = Vec<(usize, &'a [u8])>;
    let cases: Vec<(Patch, &str)> = vec![
        (
            vec![(KIND, &[0x1f])],
            "unknown event tag 31 at chunk offset 0",
        ),
        (
            vec![(KIND, &[0x20])],
            "flag bits on event tag 0 at chunk offset 0",
        ),
        (
            [spawn, &[(PC_IDX, &[5])]].concat(),
            "pc dictionary index 5 out of range",
        ),
        (
            [read, &[(STACK_IDX, &[3])]].concat(),
            "stack dictionary index 3 out of range",
        ),
        (vec![(TID, &[0x80, 0x00])], "non-canonical varint"),
        (vec![(TID, &[0, 0])], "trailing bytes in tid column"),
        (vec![(VALUE, &[0])], "trailing bytes in value column"),
    ];
    // The clean baseline decodes up to the chunk count the header
    // claims, so each case's error is its column's, not the framing's.
    assert!(matches!(
        decode_trace(&hand_built(&[])),
        Err(TraceError::ChunkCount { actual: 1, .. })
    ));
    for (patch, want) in cases {
        let bytes = hand_built(&patch);
        let expected = Err(TraceError::Corrupt(want.to_string()));
        assert_eq!(decode_trace(&bytes).map(drop), expected, "{want}");
        assert_eq!(streamed_events(&bytes).map(drop), expected, "{want}");
    }
}
