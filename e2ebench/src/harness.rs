//! Measured phases: operations timed one by one, with the process's
//! peak memory sampled while they run.

use crate::spans::{Ctx, Tracer};
use crate::stats::median;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One timed operation.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    pub ms: f64,
    /// Operation start → its first verdict.
    pub verdict_ms: f64,
    /// Trace events the operation analysed.
    pub events: u64,
    /// Finished without error and passed every correctness check. A
    /// failed operation stays in the latency sample.
    pub ok: bool,
}

/// A measured phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub samples: Vec<OpSample>,
    pub wall_s: f64,
    pub mem: PeakMemory,
    /// Set when the phase repeats whole passes over this many distinct
    /// operations: sample `k` is operation `k % pass`.
    pub pass: Option<usize>,
}

impl Phase {
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// The samples the latency metrics are taken over: every sample, or
    /// for a phase of passes one per operation, its best repeat (see
    /// [`best_of_repeats`]).
    pub fn op_samples(&self) -> Vec<OpSample> {
        match self.pass {
            Some(n) => best_of_repeats(&self.samples, n),
            None => self.samples.clone(),
        }
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.op_samples().iter().map(|s| s.ms).collect()
    }
}

/// One sample per operation of a phase of passes over `n` operations
/// (sample `k` is operation `k % n`): its fastest latency and fastest
/// verdict over the repeats, the cost when the host takes nothing away.
/// An operation that failed in any repeat is represented by its slowest
/// repeat instead, marked failed, so a failure cannot hide behind a fast
/// success.
pub fn best_of_repeats(samples: &[OpSample], n: usize) -> Vec<OpSample> {
    let mut best: Vec<Option<OpSample>> = vec![None; n.min(samples.len())];
    for (k, s) in samples.iter().enumerate() {
        let slot = &mut best[k % n];
        *slot = Some(match *slot {
            None => *s,
            Some(b) if b.ok && s.ok => OpSample {
                ms: b.ms.min(s.ms),
                verdict_ms: b.verdict_ms.min(s.verdict_ms),
                ..b
            },
            Some(b) => OpSample {
                ms: b.ms.max(s.ms),
                verdict_ms: b.verdict_ms.max(s.verdict_ms),
                ok: false,
                ..b
            },
        });
    }
    best.into_iter().flatten().collect()
}

/// Resident set size of this process in KiB, from `/proc/self/status`.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The benchmark's global allocator: the system allocator, counting the
/// bytes live and their high-water mark. Counting at the allocator sees
/// every peak, however brief, where polling would catch only some.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static HIGH: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    HIGH.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds statistics on the side; the counters publish
// no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes live now, and the most live since the last call (which starts
/// the next interval at the current level).
fn heap_interval_peak() -> (usize, usize) {
    let live = LIVE.load(Ordering::Relaxed);
    (live, HIGH.swap(live, Ordering::Relaxed).max(live))
}

/// Peak memory of a phase, in MiB.
#[derive(Clone, Copy, Debug, Default)]
pub struct PeakMemory {
    /// Live heap above the phase's start: what the operations hold.
    pub heap_mb: f64,
    /// Resident set: the live heap plus what the allocator keeps of
    /// freed memory, which varies with how threads were spread over
    /// its per-thread arenas.
    pub rss_mb: f64,
}

/// Latency samples a phase can hold without reallocating. Sample
/// buffers are reserved before the phase starts (untouched pages cost no
/// memory), so the harness's own bookkeeping stays out of the peaks.
pub const SAMPLE_CAPACITY: usize = 1 << 21;

/// The window a memory peak is taken over.
const MEMORY_WINDOW: Duration = Duration::from_secs(1);

/// Run `body` while a sampler thread tracks the live heap (from the
/// counting allocator) and polls the resident set every 5 ms; returns
/// `body`'s result and the peaks. A peak is the median over the run's
/// one-second windows of each window's highest level: the peak a
/// typical second of the workload reaches, which a coincidence seen in
/// some windows only (two sessions at their largest buffer at once)
/// does not decide. The heap peak is counted above the heap `body` starts from,
/// so it covers only what the measured operations hold; the resident
/// set is absolute.
pub fn with_peak_memory<T>(body: impl FnOnce() -> T) -> (T, PeakMemory) {
    let stop = AtomicBool::new(false);
    // Reserved before the base is read: the sampler's own bookkeeping.
    let mut windows: Vec<(usize, u64)> = Vec::with_capacity(4096);
    let (base, _) = heap_interval_peak();
    std::thread::scope(|scope| {
        let stop = &stop;
        let sampler = scope.spawn(move || {
            let mut rss = 0;
            let mut start = Instant::now();
            loop {
                rss = rss.max(rss_kib().unwrap_or(0));
                let done = stop.load(Ordering::Relaxed);
                // A phase shorter than one window is its own window.
                if start.elapsed() >= MEMORY_WINDOW || (done && windows.is_empty()) {
                    windows.push((heap_interval_peak().1, rss));
                    rss = 0;
                    start = Instant::now();
                }
                if done {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let heap: Vec<f64> = windows.iter().map(|w| w.0 as f64).collect();
            let rss: Vec<f64> = windows.iter().map(|w| w.1 as f64).collect();
            PeakMemory {
                heap_mb: (median(&heap) - base as f64).max(0.0) / (1024.0 * 1024.0),
                rss_mb: median(&rss) / 1024.0,
            }
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("memory sampler panicked"))
    })
}

/// Run `op` back to back for `seconds` (at least once) on this thread.
pub fn serial_phase(
    seconds: f64,
    tracer: Option<&Tracer>,
    mut op: impl FnMut(Ctx) -> OpSample,
) -> Phase {
    Phase {
        pass: None,
        ..serial_passes(seconds, tracer, 1, |ctx, _| op(ctx))
    }
}

/// Run whole passes of `op` over operations `0..n` back to back on this
/// thread until `seconds` have elapsed (at least one pass).
pub fn serial_passes(
    seconds: f64,
    tracer: Option<&Tracer>,
    n: usize,
    mut op: impl FnMut(Ctx, usize) -> OpSample,
) -> Phase {
    let mut samples = Vec::with_capacity(SAMPLE_CAPACITY);
    let ((samples, wall_s), mem) = with_peak_memory(|| {
        let t0 = Instant::now();
        let mut id = 0;
        while samples.is_empty() || t0.elapsed().as_secs_f64() < seconds {
            for i in 0..n {
                samples.push(op(Ctx::root(tracer, id), i));
                id += 1;
            }
        }
        (samples, t0.elapsed().as_secs_f64())
    });
    Phase {
        samples,
        wall_s,
        mem,
        pass: Some(n),
    }
}

/// Time one operation: `body` returns `(events, verdict instant, ok)`
/// or an error, which counts as a failed operation.
pub fn timed_op(
    ctx: Ctx,
    body: impl FnOnce(Ctx) -> Result<(u64, Instant, bool), String>,
) -> OpSample {
    let t0 = Instant::now();
    let res = ctx.time("op", body);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match res {
        Ok((events, verdict, ok)) => OpSample {
            ms,
            verdict_ms: verdict.duration_since(t0).as_secs_f64() * 1e3,
            events,
            ok,
        },
        Err(e) => {
            eprintln!("operation failed: {e}");
            OpSample {
                ms,
                verdict_ms: ms,
                events: 0,
                ok: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ms: f64, ok: bool) -> OpSample {
        OpSample {
            ms,
            verdict_ms: ms / 2.0,
            events: 7,
            ok,
        }
    }

    #[test]
    fn best_of_repeats_takes_each_operations_fastest_repeat() {
        // Two passes over three operations.
        let xs = [3.0, 5.0, 9.0, 2.0, 6.0, 8.0].map(|ms| sample(ms, true));
        let best = best_of_repeats(&xs, 3);
        let ms: Vec<f64> = best.iter().map(|s| s.ms).collect();
        assert_eq!(ms, [2.0, 5.0, 8.0]);
        assert_eq!(best[2].verdict_ms, 4.0);
        assert!(best.iter().all(|s| s.ok && s.events == 7));
    }

    #[test]
    fn a_failed_repeat_marks_the_operation_at_its_slowest() {
        let xs = [
            sample(3.0, true),
            sample(1.0, false),
            sample(4.0, true),
            sample(9.0, true),
        ];
        let best = best_of_repeats(&xs, 2);
        assert_eq!((best[0].ms, best[0].ok), (3.0, true));
        assert_eq!((best[1].ms, best[1].ok), (9.0, false));
    }

    #[test]
    fn a_phase_without_passes_keeps_every_sample() {
        let phase = Phase {
            samples: vec![sample(1.0, true), sample(2.0, true)],
            ..Phase::default()
        };
        assert_eq!(phase.latencies(), [1.0, 2.0]);
    }
}
