//! Chunked streaming reader: decode one chunk ahead of the consumer.
//!
//! [`ChunkedTraceReader`] wraps any [`io::Read`] source, parses and
//! validates the header block eagerly (magic, binary version, embedded
//! trace header, checksum), then hands out decoded chunks one at a time.
//! [`ChunkedTraceReader::for_each_chunk`] is the one decode-ahead
//! pipeline: while the consumer works on chunk *k*, chunk *k+1* is being
//! read and decoded into the other of exactly two recycled buffers, so
//! replay starts before the file has been fully read and peak memory
//! stays bounded by two chunks — O(chunk), not O(trace).

use crate::chunk::{decode_chunk_columns, NUM_COLUMNS};
use crate::varint::VarintError;
use crate::{checksum_for, BINARY_FORMAT_VERSION, MAGIC};
use spinrace_vm::{
    Event, EventSink, RunSummary, Trace, TraceError, TraceHeader, TRACE_FORMAT_VERSION,
};
use std::io::{self, Read as _};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;

/// Largest accepted embedded-JSON block (header or summary). Real
/// headers are a few hundred bytes; the cap keeps a corrupt length from
/// driving an unbounded read.
const MAX_JSON_BLOCK: u64 = 1 << 20;
/// Largest accepted per-chunk event count.
const MAX_CHUNK_EVENTS: u32 = 1 << 24;
/// Largest accepted single column block.
const MAX_COLUMN_BYTES: u64 = 1 << 31;

/// Statistics of one streamed replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events delivered to the sink.
    pub events: u64,
    /// Chunks decoded.
    pub chunks: u32,
    /// High-water mark of decoded-but-not-yet-consumed event memory
    /// (bytes), as [`chunk_mem`] counts it, across the decode-ahead
    /// pipeline. With two recycled chunk buffers this is at most twice
    /// the largest chunk; a whole-trace decode would make it O(trace).
    pub peak_resident_bytes: usize,
}

/// Approximate heap footprint of a decoded chunk — what the streaming
/// pipeline holds resident per in-flight chunk. Exposed so external
/// decode-ahead loops account resident memory the same way
/// [`ChunkedTraceReader::for_each_chunk`] does.
pub fn chunk_mem(events: &[Event]) -> usize {
    let mut bytes = std::mem::size_of_val(events);
    for ev in events {
        if let Event::SpinExit { reads, .. } = ev {
            bytes += reads.len() * std::mem::size_of::<(u64, spinrace_tir::Pc)>();
        }
    }
    bytes
}

/// Streaming decoder for the binary trace format over any byte source.
pub struct ChunkedTraceReader<R: io::Read> {
    src: R,
    /// Binary version the stream declares; it picks `checksum`.
    version: u32,
    checksum: fn(&[u8]) -> u64,
    header: TraceHeader,
    summary: RunSummary,
    chunk_count: u32,
    chunk_target: u32,
    chunks_read: u32,
    events_read: u64,
    /// Set once the stream has been fully drained and finalized.
    done: bool,
    /// Framed bytes of the chunk being read, reused across chunks: the
    /// checksum covers them and the column decoder borrows from them.
    raw: Vec<u8>,
}

/// Read one LEB128 varint from a byte stream, mirroring the slice-based
/// decoder's bounds checks. `raw` accumulates the consumed bytes for
/// checksumming.
fn stream_uvarint<R: io::Read>(src: &mut R, raw: &mut Vec<u8>) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        src.read_exact(&mut b).map_err(map_eof_truncated)?;
        raw.push(b[0]);
        if shift == 63 && b[0] > 1 {
            return Err(VarintError::Overlong.into());
        }
        v |= u64::from(b[0] & 0x7f) << shift;
        if b[0] & 0x80 == 0 {
            // Mirror the slice decoder's canonicality check: a zero
            // final byte after a continuation is a longer-than-needed
            // encoding the writer never emits.
            if b[0] == 0 && shift > 0 {
                return Err(VarintError::NonCanonical.into());
            }
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(VarintError::Overlong.into());
        }
    }
}

fn map_eof_truncated(e: io::Error) -> TraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        TraceError::Corrupt("unexpected end of stream".into())
    } else {
        TraceError::Io(e.to_string())
    }
}

/// Append exactly `len` bytes from `src` to `buf` without trusting
/// `len` for preallocation: `read_to_end` grows `buf` only as bytes
/// arrive, so a corrupt length never reserves more memory than the
/// stream actually delivers.
fn read_block<R: io::Read>(src: &mut R, len: u64, buf: &mut Vec<u8>) -> Result<(), TraceError> {
    let copied = src
        .take(len)
        .read_to_end(buf)
        .map_err(|e| TraceError::Io(e.to_string()))?;
    if copied as u64 != len {
        return Err(TraceError::Corrupt("unexpected end of stream".into()));
    }
    Ok(())
}

impl<R: io::Read> ChunkedTraceReader<R> {
    /// Open a binary trace stream: parse and validate the header block.
    ///
    /// Validation order is magic → binary version → embedded header
    /// (trace version) → checksum, so the caller always gets the most
    /// specific error the damaged prefix allows. Input too short to hold
    /// the magic is [`TraceError::Magic`]; any other read failure is
    /// [`TraceError::Io`], since it says nothing about the content.
    ///
    /// Both binary versions are accepted: the version the stream
    /// declares selects its checksum, [`crate::lane_checksum`] for
    /// version 2 and [`crate::fnv1a`] for version 1.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let mut raw: Vec<u8> = Vec::with_capacity(256);

        let mut magic = [0u8; 8];
        src.read_exact(&mut magic).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => TraceError::Magic,
            _ => TraceError::Io(e.to_string()),
        })?;
        if magic != MAGIC {
            return Err(TraceError::Magic);
        }
        raw.extend_from_slice(&magic);

        let mut ver = [0u8; 4];
        src.read_exact(&mut ver).map_err(map_eof_truncated)?;
        raw.extend_from_slice(&ver);
        let version = u32::from_le_bytes(ver);
        let checksum = checksum_for(version).ok_or(TraceError::Version {
            found: version,
            supported: BINARY_FORMAT_VERSION,
        })?;

        let header_len = stream_uvarint(&mut src, &mut raw)?;
        if header_len > MAX_JSON_BLOCK {
            return Err(TraceError::Corrupt(
                "implausible header block length".into(),
            ));
        }
        let header_start = raw.len();
        read_block(&mut src, header_len, &mut raw)?;
        let header_span = header_start..raw.len();

        let summary_len = stream_uvarint(&mut src, &mut raw)?;
        if summary_len > MAX_JSON_BLOCK {
            return Err(TraceError::Corrupt(
                "implausible summary block length".into(),
            ));
        }
        let summary_start = raw.len();
        read_block(&mut src, summary_len, &mut raw)?;
        let summary_span = summary_start..raw.len();

        let mut counts = [0u8; 8];
        src.read_exact(&mut counts).map_err(map_eof_truncated)?;
        raw.extend_from_slice(&counts);
        let chunk_count = u32::from_le_bytes(counts[..4].try_into().unwrap());
        let chunk_target = u32::from_le_bytes(counts[4..].try_into().unwrap());

        let mut sum = [0u8; 8];
        src.read_exact(&mut sum).map_err(map_eof_truncated)?;
        if u64::from_le_bytes(sum) != checksum(&raw) {
            return Err(TraceError::Corrupt("header block checksum mismatch".into()));
        }

        let header_text = std::str::from_utf8(&raw[header_span])
            .map_err(|_| TraceError::Corrupt("header block is not UTF-8".into()))?;
        let header: TraceHeader =
            serde_json::from_str(header_text).map_err(|e| TraceError::Json(e.0))?;
        if header.version != TRACE_FORMAT_VERSION {
            return Err(TraceError::Version {
                found: header.version,
                supported: TRACE_FORMAT_VERSION,
            });
        }
        let summary_text = std::str::from_utf8(&raw[summary_span])
            .map_err(|_| TraceError::Corrupt("summary block is not UTF-8".into()))?;
        let summary: RunSummary =
            serde_json::from_str(summary_text).map_err(|e| TraceError::Json(e.0))?;

        Ok(ChunkedTraceReader {
            src,
            version,
            checksum,
            header,
            summary,
            chunk_count,
            chunk_target,
            chunks_read: 0,
            events_read: 0,
            done: false,
            raw,
        })
    }

    /// Binary format version the stream declares (validated at open).
    pub fn binary_version(&self) -> u32 {
        self.version
    }

    /// The embedded trace header (validated at open).
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The embedded run summary.
    pub fn summary(&self) -> &RunSummary {
        &self.summary
    }

    /// Chunk count the header block claims.
    pub fn chunk_count(&self) -> u32 {
        self.chunk_count
    }

    /// Target events per chunk used at encode time.
    pub fn chunk_target(&self) -> u32 {
        self.chunk_target
    }

    fn truncated(&self) -> TraceError {
        TraceError::ChunkCount {
            header: self.chunk_count,
            actual: self.chunks_read,
        }
    }

    /// Decode the next chunk into a fresh vector, or `Ok(None)` once
    /// the stream is complete and validated (event total, no trailing
    /// bytes).
    pub fn next_chunk(&mut self) -> Result<Option<Vec<Event>>, TraceError> {
        let mut events = Vec::new();
        Ok(self.append_chunk(&mut events)?.then_some(events))
    }

    /// Clear `events` and decode the next chunk into it, reusing its
    /// allocation. Returns `Ok(false)` (leaving `events` empty) once the
    /// stream is complete and validated.
    pub fn next_chunk_into(&mut self, events: &mut Vec<Event>) -> Result<bool, TraceError> {
        events.clear();
        self.append_chunk(events)
    }

    /// Append the next chunk's events to `out`; `Ok(false)` once the
    /// stream is complete and validated.
    fn append_chunk(&mut self, out: &mut Vec<Event>) -> Result<bool, TraceError> {
        if self.done {
            return Ok(false);
        }
        if self.chunks_read == self.chunk_count {
            // Finalize: the event total must match the header, and the
            // stream must end exactly here.
            if self.events_read != self.header.events {
                return Err(TraceError::EventCount {
                    header: self.header.events,
                    actual: self.events_read,
                });
            }
            let mut b = [0u8; 1];
            match self.src.read(&mut b) {
                Ok(0) => {}
                Ok(_) => {
                    return Err(TraceError::Corrupt(
                        "trailing bytes after final chunk".into(),
                    ))
                }
                Err(e) => return Err(TraceError::Io(e.to_string())),
            }
            self.done = true;
            return Ok(false);
        }

        // A chunk interrupted by EOF — anywhere inside it — is stream
        // truncation, reported as the chunk-count shortfall.
        self.read_chunk(out).map(|()| true).map_err(|e| {
            if matches!(&e, TraceError::Corrupt(m) if m == "unexpected end of stream") {
                self.truncated()
            } else {
                e
            }
        })
    }

    fn read_chunk(&mut self, out: &mut Vec<Event>) -> Result<(), TraceError> {
        let raw = &mut self.raw;
        raw.clear();

        let mut nb = [0u8; 4];
        self.src.read_exact(&mut nb).map_err(map_eof_truncated)?;
        raw.extend_from_slice(&nb);
        let n = u32::from_le_bytes(nb);
        if n > MAX_CHUNK_EVENTS {
            return Err(TraceError::Corrupt(format!(
                "implausible chunk event count {n}"
            )));
        }

        let ncols = stream_uvarint(&mut self.src, raw)?;
        if ncols != NUM_COLUMNS as u64 {
            return Err(TraceError::Corrupt(format!(
                "chunk declares {ncols} columns, format has {}",
                NUM_COLUMNS
            )));
        }

        // Column blocks: (offset, len) into `raw`, resolved to slices
        // after the checksum passes.
        let mut spans: [(usize, usize); NUM_COLUMNS] = [(0, 0); NUM_COLUMNS];
        for span in &mut spans {
            let len = stream_uvarint(&mut self.src, raw)?;
            if len > MAX_COLUMN_BYTES {
                return Err(TraceError::Corrupt("implausible column length".into()));
            }
            let start = raw.len();
            read_block(&mut self.src, len, raw)?;
            *span = (start, raw.len() - start);
        }

        let mut sum = [0u8; 8];
        self.src.read_exact(&mut sum).map_err(map_eof_truncated)?;
        if u64::from_le_bytes(sum) != (self.checksum)(raw) {
            return Err(TraceError::Checksum {
                chunk: self.chunks_read,
            });
        }

        let cols: [&[u8]; NUM_COLUMNS] =
            std::array::from_fn(|i| &raw[spans[i].0..spans[i].0 + spans[i].1]);
        let before = out.len();
        decode_chunk_columns(n as usize, &cols, out)?;

        self.chunks_read += 1;
        self.events_read += (out.len() - before) as u64;
        Ok(())
    }

    /// Decode the entire stream into an in-memory [`Trace`], each chunk
    /// straight into the whole-trace event vector.
    ///
    /// This is the non-streaming path (used by format conversion and the
    /// parallel replay engine, which shards over a full event slice);
    /// for bounded-memory sequential replay use [`Self::for_each_chunk`].
    pub fn read_all(mut self) -> Result<Trace, TraceError> {
        let mut events: Vec<Event> = Vec::new();
        while self.append_chunk(&mut events)? {}
        Ok(Trace {
            header: self.header,
            summary: self.summary,
            events,
        })
    }

    /// Drive `consume` over every chunk of the stream with one chunk of
    /// decode-ahead — the decode pipeline every streamed replay shares.
    ///
    /// A scoped worker thread decodes chunk *k+1* while the caller's
    /// thread runs `consume` on chunk *k*. Exactly two `Vec<Event>`
    /// buffers ping-pong between them: the decoder fills a free buffer
    /// and sends it over, the consumer hands it back once `consume`
    /// returns, and the decoder waits for a returned buffer rather than
    /// allocating a third. Peak decoded memory is therefore at most two
    /// chunks regardless of trace length; the returned [`StreamStats`]
    /// report the observed high-water mark.
    ///
    /// The first error wins: a decode error is returned once the
    /// consumer reaches it, and an error from `consume` stops the
    /// pipeline at once (the decoder sees the buffer-return channel
    /// close and exits, so the scope's join never waits on it).
    pub fn for_each_chunk<E, F>(mut self, mut consume: F) -> Result<StreamStats, E>
    where
        R: Send,
        E: From<TraceError>,
        F: FnMut(&[Event]) -> Result<(), E>,
    {
        let resident = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let reader = &mut self;
        let mut stats = std::thread::scope(|scope| {
            // Both channels live inside the scope closure, so every exit
            // of the consumer loop below — `?`, early return or panic —
            // drops `free_tx` and `full_rx` before the scope joins the
            // decoder. A decoder blocked waiting for a free buffer then
            // wakes to a closed channel instead of hanging the join.
            let (full_tx, full_rx) = sync_channel::<Result<(Vec<Event>, usize), TraceError>>(2);
            let (free_tx, free_rx) = sync_channel::<Vec<Event>>(2);
            for _ in 0..2 {
                free_tx.send(Vec::new()).expect("receiver is alive");
            }
            let (resident, peak) = (&resident, &peak);
            scope.spawn(move || {
                for mut buf in free_rx {
                    match reader.next_chunk_into(&mut buf) {
                        Ok(true) => {
                            let mem = chunk_mem(&buf);
                            let now = resident.fetch_add(mem, Ordering::Relaxed) + mem;
                            peak.fetch_max(now, Ordering::Relaxed);
                            // A closed receiver means the consumer bailed
                            // on an earlier error; just stop decoding.
                            if full_tx.send(Ok((buf, mem))).is_err() {
                                return;
                            }
                        }
                        Ok(false) => return,
                        Err(e) => {
                            let _ = full_tx.send(Err(e));
                            return;
                        }
                    }
                }
            });

            let mut stats = StreamStats::default();
            for msg in full_rx {
                let (buf, mem) = msg?;
                consume(&buf)?;
                stats.events += buf.len() as u64;
                stats.chunks += 1;
                resident.fetch_sub(mem, Ordering::Relaxed);
                // The decoder may already have exited (end of stream).
                let _ = free_tx.send(buf);
            }
            Ok::<_, E>(stats)
        })?;
        stats.peak_resident_bytes = peak.into_inner();
        Ok(stats)
    }

    /// Replay the stream into `sink` through [`Self::for_each_chunk`]:
    /// the two-buffer decode-ahead pipeline, so at most two decoded
    /// chunks are resident at once — one being fed to the sink, one
    /// decoded ahead — and peak memory is O(chunk) regardless of trace
    /// length.
    pub fn replay_into(self, sink: &mut dyn EventSink) -> Result<StreamStats, TraceError>
    where
        R: Send,
    {
        self.for_each_chunk(|chunk| {
            for ev in chunk {
                sink.on_event(ev);
            }
            Ok(())
        })
    }
}
