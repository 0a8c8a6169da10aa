//! Parallel sharded trace replay — deterministic by construction.
//!
//! [`try_run_sharded_opts`] replays one recorded event stream under one
//! detector configuration on a scoped thread pool: plain data accesses
//! are partitioned along the detector's
//! [`ShadowTable`](spinrace_detector::shadow::ShadowTable) shard seam —
//! worker `i` of `W` owns shard `s` iff `s % W == i`, for the whole
//! stream — while every synchronization-relevant event is broadcast so
//! each worker's thread vector clocks evolve exactly as a sequential
//! detector's would. A multi-target [`DetectRequest`](crate::DetectRequest)
//! replays its targets one after another, each on its own pool, under
//! one watchdog.
//!
//! The merged result — reports, racy contexts, promotion counts, and the
//! full [`DetectorMetrics`](spinrace_detector::DetectorMetrics) — is
//! **bit-identical** to a sequential replay for any worker count (the CI
//! `replay-determinism` job holds `--workers 1/2/4/8` to byte-equal
//! output).
//!
//! At `workers <= 1` there is no pool: the replay is the crate's one
//! guarded sequential pass, the same one in-memory and streamed replays
//! run — no seed pre-pass, no threads, no per-access ownership gate.
//! It also replays the affordable prefix when an event budget is
//! exceeded.
//!
//! The determinism mechanics (promotion-seed pre-pass, tagged report
//! attempts, the lockset op log) live in [`spinrace_detector::sharded`];
//! this module owns the orchestration: seed computation, event routing,
//! the `std::thread::scope` pool, and the fragment merge.
//!
//! # Failure modes
//!
//! The engine is **panic-safe and hang-free**: every worker runs under
//! `catch_unwind`, the first failure flips a shared cancellation flag
//! that every worker polls in its event loop, and the coordinator joins
//! all workers and returns the first [`EngineError`] instead of
//! propagating the panic. [`EngineOptions`] additionally carries
//! per-detection resource budgets ([`Budget`] — graceful
//! [`EngineError::BudgetExhausted`] with partial metrics) and an
//! optional global watchdog, enforced in every mode, plus a
//! deterministic [`FaultPlan`] for the pool (panic / delay / silent
//! drop at the Nth event of worker W; off by default and a single
//! predictable compare per event when disabled) that CI uses to prove
//! every fault yields a structured error within a bounded wait.
//!
//! ```
//! use spinrace_core::{parallel, DetectRequest, Session, Tool};
//! use spinrace_tir::ModuleBuilder;
//!
//! let mut mb = ModuleBuilder::new("racy");
//! let g = mb.global("g", 1);
//! let w = mb.function("w", 1, |f| {
//!     let v = f.load(g.at(0));
//!     let v2 = f.add(v, 1);
//!     f.store(g.at(0), v2);
//!     f.ret(None);
//! });
//! mb.entry("main", |f| {
//!     let t1 = f.spawn(w, 0);
//!     let t2 = f.spawn(w, 1);
//!     f.join(t1);
//!     f.join(t2);
//!     f.ret(None);
//! });
//! let m = mb.finish().unwrap();
//!
//! let run = Session::for_module(&m)
//!     .prepare(Tool::HelgrindLib)
//!     .unwrap()
//!     .execute()
//!     .unwrap();
//! let sequential = run.run(&DetectRequest::own()).into_single();
//! for workers in [1, 2, 4, 8] {
//!     let par = run.run(&DetectRequest::own().parallel(workers)).into_single();
//!     assert_eq!(par.contexts, sequential.contexts);
//!     assert_eq!(par.metrics, sequential.metrics);
//! }
//! assert!(parallel::default_workers() >= 1);
//! ```

use crate::pass::{replay_slice, Guard, PERIODIC_MASK};
use spinrace_detector::{
    compute_promotion_seeds, event_route, shard_of, try_merge_fragments, DetectorConfig,
    EventRoute, MergedDetection, PromotionSeeds, RaceDetector, ShardSpec, WorkerFragment,
    NUM_SHARDS,
};
use spinrace_vm::trace::TraceError;
use spinrace_vm::Event;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Granularity of an injected delay: the stalled worker keeps polling
/// for cancellation, so a peer's watchdog can cut the delay short.
const DELAY_TICK: Duration = Duration::from_millis(10);

/// A structured parallel-replay failure. The engine returns the *first*
/// failure it observed; later failures on other workers (usually
/// cancellation fallout) are discarded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A worker panicked; the payload is its rendered panic message.
    WorkerPanic {
        /// Index of the worker that panicked.
        worker: usize,
        /// The panic payload, downcast to a string where possible.
        payload: String,
    },
    /// A worker produced neither a fragment nor an error — it went
    /// silent (the defensive path fault injection's
    /// [`FaultKind::Drop`] scenario exercises).
    WorkerLost {
        /// Index of the silent worker.
        worker: usize,
    },
    /// The whole detection ran past [`EngineOptions::watchdog`].
    Watchdog {
        /// The configured limit.
        limit_ms: u64,
    },
    /// A resource budget was exhausted; detection terminated gracefully
    /// with partial results.
    BudgetExhausted {
        /// Which budget tripped.
        resource: BudgetResource,
        /// The configured ceiling.
        limit: u64,
        /// The observed value that exceeded it.
        used: u64,
        /// What the detection had seen when it stopped.
        partial: PartialMetrics,
    },
    /// The trace could not be decoded at all (wraps
    /// [`spinrace_vm::trace::TraceError`] so callers that feed the
    /// engine from serialized traces have one error type end to end).
    Trace(TraceError),
    /// The requested detector cannot run under this engine mode —
    /// e.g. predictive (sync-preserving) detection under sharded
    /// parallel replay, which is inherently sequential. The request is
    /// refused outright instead of silently degrading.
    Unsupported {
        /// What was asked for and why it cannot be served.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanic { worker, payload } => {
                write!(f, "replay worker {worker} panicked: {payload}")
            }
            EngineError::WorkerLost { worker } => write!(
                f,
                "replay worker {worker} exited without producing a fragment or reporting an error"
            ),
            EngineError::Watchdog { limit_ms } => {
                write!(f, "replay exceeded the {limit_ms} ms watchdog")
            }
            EngineError::BudgetExhausted {
                resource,
                limit,
                used,
                partial,
            } => write!(
                f,
                "{resource} budget exhausted ({used} > {limit}); stopped after {} event(s), \
                 {} racy context(s) so far",
                partial.events_processed, partial.contexts
            ),
            EngineError::Trace(e) => write!(f, "trace decode failed: {e}"),
            EngineError::Unsupported { reason } => {
                write!(f, "unsupported detection request: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for EngineError {
    fn from(e: TraceError) -> EngineError {
        EngineError::Trace(e)
    }
}

/// The resource whose [`Budget`] ceiling a detection ran into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetResource {
    /// [`Budget::max_events`].
    Events,
    /// [`Budget::max_shadow_bytes`].
    ShadowBytes,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetResource::Events => "event",
            BudgetResource::ShadowBytes => "shadow-byte",
        })
    }
}

/// What a budget-terminated detection had seen when it stopped — enough
/// to report "analysis incomplete after N events, K contexts" the way a
/// production tool would.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartialMetrics {
    /// Events processed before termination.
    pub events_processed: u64,
    /// Racy contexts recorded so far (0 when the tripping pass cannot
    /// see the merged collector — e.g. a single worker of a pool).
    pub contexts: usize,
    /// Shadow memory resident at termination, from the observing pass.
    pub shadow_bytes: usize,
}

/// Per-detection resource ceilings. `None` (the default) means
/// unlimited; enforcement is free when unlimited.
///
/// * `max_events` bounds the number of events a detection may process.
///   It is exact and deterministic: the affordable prefix is replayed
///   (sequentially) for faithful partial metrics, then
///   [`EngineError::BudgetExhausted`] is returned.
/// * `max_shadow_bytes` bounds resident shadow memory. It is checked
///   periodically (every 4096 events) against a cheap
///   O(shards) resident-size estimate; in a parallel run each worker
///   checks its own shadow share, so the trip point may vary with the
///   worker count — the guarantee is graceful termination, not a
///   byte-stable threshold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum events one detection may process.
    pub max_events: Option<u64>,
    /// Maximum resident shadow bytes (per target in a sequential pass,
    /// or per worker in a parallel run).
    pub max_shadow_bytes: Option<usize>,
}

impl Budget {
    /// Is every ceiling disabled?
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none() && self.max_shadow_bytes.is_none()
    }

    /// Bound the number of events one detection may process.
    pub fn with_max_events(mut self, max_events: u64) -> Budget {
        self.max_events = Some(max_events);
        self
    }

    /// Bound the resident shadow bytes of one detection.
    pub fn with_max_shadow_bytes(mut self, max_shadow_bytes: usize) -> Budget {
        self.max_shadow_bytes = Some(max_shadow_bytes);
        self
    }
}

/// What to inject, for [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic (caught by the pool; surfaces as
    /// [`EngineError::WorkerPanic`]).
    Panic,
    /// Stall for the given number of milliseconds (cancellation-aware:
    /// the sleep is cut short once a peer's watchdog fails the run).
    Delay(u64),
    /// Go silent: stop processing without producing a fragment or
    /// recording an error — a model of a worker that died without
    /// unwinding. Surfaces as [`EngineError::WorkerLost`].
    Drop,
}

/// A deterministic injected fault: at the `at_event`-th event of worker
/// `worker`, do `kind`. Off by default; when armed, the only per-event
/// cost on the victim worker is one integer compare (other workers pay
/// nothing — their trigger resolves to `u64::MAX`).
///
/// Parses from `panic:W:N`, `delay:W:N:MS`, and `drop:W:N` (the
/// `trace replay --fault` spelling).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The worker the fault is injected into.
    pub worker: usize,
    /// The event index (in the full stream scan) at which it fires.
    pub at_event: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Panic => write!(f, "panic:{}:{}", self.worker, self.at_event),
            FaultKind::Delay(ms) => write!(f, "delay:{}:{}:{ms}", self.worker, self.at_event),
            FaultKind::Drop => write!(f, "drop:{}:{}", self.worker, self.at_event),
        }
    }
}

/// A fault spec [`FaultPlan::from_str`] could not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseFaultError(pub String);

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault spec {:?} (expected panic:W:N, delay:W:N:MS or drop:W:N)",
            self.0
        )
    }
}

impl std::error::Error for ParseFaultError {}

impl FromStr for FaultPlan {
    type Err = ParseFaultError;

    fn from_str(s: &str) -> Result<FaultPlan, ParseFaultError> {
        let bad = || ParseFaultError(s.to_string());
        let num = |t: &str| t.trim().parse::<u64>().map_err(|_| bad());
        let parts: Vec<&str> = s.split(':').collect();
        let (kind, worker, at_event) = match parts.as_slice() {
            ["panic", w, n] => (FaultKind::Panic, num(w)?, num(n)?),
            ["delay", w, n, ms] => (FaultKind::Delay(num(ms)?), num(w)?, num(n)?),
            ["drop", w, n] => (FaultKind::Drop, num(w)?, num(n)?),
            _ => return Err(bad()),
        };
        Ok(FaultPlan {
            worker: usize::try_from(worker).map_err(|_| bad())?,
            at_event,
            kind,
        })
    }
}

/// Everything configurable about one engine run beyond the worker
/// count. [`EngineOptions::default`] is the plain engine: no watchdog,
/// no budgets, no faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// Optional wall-clock ceiling for the whole detection
    /// ([`EngineError::Watchdog`] when exceeded). `None` = unlimited.
    pub watchdog: Option<Duration>,
    /// Resource budgets.
    pub budget: Budget,
    /// Deterministic fault injection (tests/CI only; `None` in
    /// production use).
    pub fault: Option<FaultPlan>,
}

impl EngineOptions {
    /// Bound the whole detection by a wall-clock watchdog.
    pub fn with_watchdog(mut self, limit: Duration) -> EngineOptions {
        self.watchdog = Some(limit);
        self
    }

    /// Set resource budgets.
    pub fn with_budget(mut self, budget: Budget) -> EngineOptions {
        self.budget = budget;
        self
    }

    /// Arm deterministic fault injection (tests/CI only).
    pub fn with_fault(mut self, fault: FaultPlan) -> EngineOptions {
        self.fault = Some(fault);
        self
    }
}

/// A sensible worker count for this machine: the available parallelism,
/// clamped to the shard count (extra workers would own no shards).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(NUM_SHARDS)
}

/// Replay `events` under `cfg` on `workers` scoped threads and merge the
/// fragments into the sequential detection result.
///
/// `workers` is clamped to `1..=`[`NUM_SHARDS`]. At 1 worker the replay
/// is one guarded sequential pass. At 2 or more, a predictive
/// configuration is refused with [`EngineError::Unsupported`] before
/// anything else is checked; then an exceeded event budget replays the
/// affordable prefix sequentially and returns its
/// [`EngineError::BudgetExhausted`].
pub fn try_run_sharded_opts(
    cfg: DetectorConfig,
    events: &[Event],
    workers: usize,
    opts: EngineOptions,
) -> Result<MergedDetection, EngineError> {
    run_sharded(cfg, events, workers, &opts, Guard::start(&opts))
}

/// [`try_run_sharded_opts`] under a watchdog the caller already
/// started, so a multi-target request replays its targets one after
/// another under one deadline.
pub(crate) fn run_sharded(
    cfg: DetectorConfig,
    events: &[Event],
    workers: usize,
    opts: &EngineOptions,
    guard: Guard,
) -> Result<MergedDetection, EngineError> {
    let workers = workers.clamp(1, NUM_SHARDS);
    if workers > 1 && cfg.is_predictive() {
        return Err(unsupported_predictive());
    }
    let over_budget = opts
        .budget
        .max_events
        .is_some_and(|max| events.len() as u64 > max);
    if workers == 1 || over_budget {
        let mut merged = replay_slice(&[cfg], events, opts, guard)?;
        return Ok(merged
            .pop()
            .expect("one configuration yields one detection"));
    }
    run_pool(cfg, events, workers, opts.fault, guard)
}

/// The worker pool proper, at any width — including 1, which
/// [`run_sharded`] routes to the sequential pass instead (the tests
/// force it here to pin that pass to the full machinery).
fn run_pool(
    cfg: DetectorConfig,
    events: &[Event],
    workers: usize,
    fault: Option<FaultPlan>,
    guard: Guard,
) -> Result<MergedDetection, EngineError> {
    let seeds = Arc::new(compute_promotion_seeds(cfg, events));
    let shared = EngineShared::new(guard);
    let fragments: Vec<Option<WorkerFragment>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|index| {
                let spec = ShardSpec::new(workers, index);
                let (seeds, shared) = (&seeds, &shared);
                s.spawn(move || worker_pass_guarded(events, cfg, seeds, spec, shared, fault))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(index, h)| {
                h.join().unwrap_or_else(|payload| {
                    // catch_unwind should have absorbed this; a panic
                    // escaping the guard (e.g. from a Drop) still must
                    // not abort the whole process.
                    shared.fail(EngineError::WorkerPanic {
                        worker: index,
                        payload: panic_message(payload.as_ref()),
                    });
                    None
                })
            })
            .collect()
    });
    if let Some(err) = shared.take() {
        return Err(err);
    }
    let fragments = fragments
        .into_iter()
        .enumerate()
        .map(|(worker, f)| f.ok_or(EngineError::WorkerLost { worker }))
        .collect::<Result<Vec<_>, _>>()?;
    try_merge_fragments(cfg.context_cap, fragments).ok_or(EngineError::WorkerLost { worker: 0 })
}

/// The refusal parallel replay returns for predictive configurations
/// (sync-preserving release clocks flow through per-lock conflict maps
/// in trace order — there is no sound shard split).
pub(crate) fn unsupported_predictive() -> EngineError {
    EngineError::Unsupported {
        reason: "predictive (sync-preserving) detection is a single sequential pass; \
                 use sequential or streamed mode instead of parallel replay"
            .to_string(),
    }
}

/// Lock a mutex, ignoring poison: the failure slot holds plain data, and
/// a panicking peer is reported through the engine's failure channel — a
/// poisoned flag carries no extra information and must not cascade into
/// more panics.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cross-worker failure channel: the first error wins, flips the
/// cancellation flag, and every worker drains out at its next periodic
/// check. Also holds the detection's [`Guard`], so any polling site can
/// trip the watchdog.
struct EngineShared {
    cancelled: AtomicBool,
    failure: Mutex<Option<EngineError>>,
    guard: Guard,
}

impl EngineShared {
    fn new(guard: Guard) -> EngineShared {
        EngineShared {
            cancelled: AtomicBool::new(false),
            failure: Mutex::new(None),
            guard,
        }
    }

    /// Record `err` if no failure is recorded yet, then cancel everyone.
    fn fail(&self, err: EngineError) {
        let mut guard = lock_unpoisoned(&self.failure);
        if guard.is_none() {
            *guard = Some(err);
        }
        drop(guard);
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Should the calling worker stop? True once any failure is recorded,
    /// or once the watchdog deadline passes (which records the watchdog
    /// failure as a side effect).
    fn should_stop(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.guard.watchdog() {
            Ok(()) => false,
            Err(e) => {
                self.fail(e);
                true
            }
        }
    }

    fn take(&self) -> Option<EngineError> {
        lock_unpoisoned(&self.failure).take()
    }
}

/// Render a panic payload for [`EngineError::WorkerPanic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`worker_pass`] under a panic guard: a panic becomes a recorded
/// [`EngineError::WorkerPanic`] plus cancellation.
fn worker_pass_guarded(
    events: &[Event],
    cfg: DetectorConfig,
    seeds: &Arc<PromotionSeeds>,
    spec: ShardSpec,
    shared: &EngineShared,
    fault: Option<FaultPlan>,
) -> Option<WorkerFragment> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        worker_pass(events, cfg, seeds, spec, shared, fault)
    }));
    result.unwrap_or_else(|payload| {
        shared.fail(EngineError::WorkerPanic {
            worker: spec.index(),
            payload: panic_message(payload.as_ref()),
        });
        None
    })
}

/// Sleep `ms` milliseconds in cancellation-aware ticks. Returns `false`
/// (caller should drain out) if the engine cancelled mid-sleep.
fn injected_delay(ms: u64, shared: &EngineShared) -> bool {
    let deadline = Instant::now() + Duration::from_millis(ms);
    loop {
        if shared.should_stop() {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::sleep(DELAY_TICK.min(deadline - now));
    }
}

/// One worker's scan of the whole event slice: route inline and process
/// owned + broadcast events.
///
/// Returns `None` when the worker drains out early — cancellation,
/// shadow budget, or an injected fault. All failure modes other than
/// [`FaultKind::Drop`] (deliberately a *silent* death) record their
/// reason in `shared` before returning.
fn worker_pass(
    events: &[Event],
    cfg: DetectorConfig,
    seeds: &Arc<PromotionSeeds>,
    spec: ShardSpec,
    shared: &EngineShared,
    fault: Option<FaultPlan>,
) -> Option<WorkerFragment> {
    let index = spec.index();
    let mut det = RaceDetector::new_worker(cfg, spec, Arc::clone(seeds));
    // A flat ownership table keeps the per-event gate a plain array
    // index.
    let owned: [bool; NUM_SHARDS] = std::array::from_fn(|s| spec.owns_shard(s));
    let (fault_at, fault_kind) = match fault {
        Some(f) if f.worker == index => (f.at_event, Some(f.kind)),
        _ => (u64::MAX, None),
    };
    // A worker sees only its own shadow share, not the merged report
    // collector: its partial metrics carry no context count.
    let over_shadow_budget = |det: &RaceDetector, events: usize| match shared.guard.shadow_budget(
        || det.shadow_resident_bytes(),
        events as u64,
        0,
    ) {
        Ok(()) => false,
        Err(e) => {
            shared.fail(e);
            true
        }
    };
    for (i, ev) in events.iter().enumerate() {
        if i & PERIODIC_MASK == 0 && (shared.should_stop() || over_shadow_budget(&det, i)) {
            return None;
        }
        if i as u64 == fault_at {
            match fault_kind {
                Some(FaultKind::Panic) => {
                    panic!("injected fault: worker {index} panics at event {i}")
                }
                Some(FaultKind::Delay(ms)) if !injected_delay(ms, shared) => return None,
                Some(FaultKind::Delay(_)) => {}
                // Silent worker death: no error recorded; the
                // coordinator reports WorkerLost for the missing
                // fragment.
                Some(FaultKind::Drop) => return None,
                None => {}
            }
        }
        let mine = match event_route(cfg, seeds, ev) {
            EventRoute::Broadcast => true,
            EventRoute::Owner(addr) => owned[shard_of(addr)],
        };
        if mine {
            det.on_event_at(i as u64, ev);
        }
    }
    // Final shadow check, as at the end of the sequential pass.
    if over_shadow_budget(&det, events.len()) {
        return None;
    }
    Some(det.into_fragment())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_detector::MsmMode;
    use spinrace_tir::{Module, ModuleBuilder};
    use spinrace_vm::{record_run, EventSink, VmConfig};

    /// Locked counters + an ad-hoc flag handoff + a deliberate race: all
    /// detector features (locksets, promotion, HB reports) in one module.
    fn mixed_module() -> Module {
        let mut mb = ModuleBuilder::new("mixed");
        let mu = mb.global("mu", 1);
        let shared = mb.global("shared", 1);
        let flag = mb.global("flag", 1);
        let data = mb.global("data", 1);
        let victim = mb.global("victim", 1);
        let w = mb.function("w", 1, |f| {
            f.lock(mu.at(0));
            let v = f.load(shared.at(0));
            let v2 = f.add(v, 1);
            f.store(shared.at(0), v2);
            f.unlock(mu.at(0));
            let r = f.load(victim.at(0));
            let r2 = f.add(r, 1);
            f.store(victim.at(0), r2);
            f.ret(None);
        });
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
            let tw = f.spawn(waiter, 0);
            let t1 = f.spawn(w, 0);
            let t2 = f.spawn(w, 1);
            f.store(data.at(0), 7);
            f.store(flag.at(0), 1);
            f.join(t1);
            f.join(t2);
            f.join(tw);
            f.ret(None);
        });
        mb.finish().unwrap()
    }

    /// The default-options engine entry point, unwrapped.
    fn replay_sharded(cfg: DetectorConfig, events: &[Event], workers: usize) -> MergedDetection {
        try_run_sharded_opts(cfg, events, workers, EngineOptions::default()).unwrap()
    }

    fn assert_matches_sequential(merged: &MergedDetection, seq: &RaceDetector, what: &str) {
        assert_eq!(
            merged.reports.reports(),
            seq.reports().reports(),
            "reports diverge: {what}"
        );
        assert_eq!(merged.reports.contexts(), seq.racy_contexts(), "{what}");
        assert_eq!(
            merged.promoted_locations,
            seq.promoted_locations(),
            "{what}"
        );
        assert_eq!(merged.metrics, seq.metrics(), "metrics diverge: {what}");
    }

    #[test]
    fn sharded_replay_equals_sequential_for_all_worker_counts() {
        let m = mixed_module();
        let trace = record_run(&m, VmConfig::round_robin(), "test").unwrap();
        for cfg in [
            DetectorConfig::helgrind_lib(MsmMode::Short),
            DetectorConfig::helgrind_lib_spin(MsmMode::Short),
            DetectorConfig::helgrind_lib_spin(MsmMode::Long),
            DetectorConfig::drd(),
        ] {
            let mut seq = RaceDetector::new(cfg);
            trace.replay(&mut seq);
            for workers in [1, 2, 3, 4, 8] {
                let merged = replay_sharded(cfg, &trace.events, workers);
                assert_matches_sequential(&merged, &seq, &format!("{workers} workers"));
            }
        }
    }

    #[test]
    fn one_worker_forced_through_the_engine_equals_the_fast_path() {
        // The entry point takes the sequential pass at 1 worker;
        // `run_pool` forces the full worker/merge machinery at that
        // width. Both must agree with a plain sequential detector.
        let m = mixed_module();
        let trace = record_run(&m, VmConfig::round_robin(), "test").unwrap();
        for cfg in [
            DetectorConfig::helgrind_lib_spin(MsmMode::Short),
            DetectorConfig::drd(),
        ] {
            let mut seq = RaceDetector::new(cfg);
            trace.replay(&mut seq);
            let fast = replay_sharded(cfg, &trace.events, 1);
            assert_matches_sequential(&fast, &seq, "sequential pass");
            let opts = EngineOptions::default();
            let forced = run_pool(cfg, &trace.events, 1, None, Guard::start(&opts)).unwrap();
            assert_matches_sequential(&forced, &seq, "forced 1-worker engine");
            assert_eq!(fast.reports.reports(), forced.reports.reports());
            assert_eq!(fast.metrics, forced.metrics);
        }
    }

    #[test]
    fn run_many_matches_individual_runs() {
        // One sequential pass feeding three detectors, and the engine
        // run once per configuration, both equal each configuration's
        // own sequential replay.
        let m = mixed_module();
        let trace = record_run(&m, VmConfig::round_robin(), "test").unwrap();
        let cfgs = [
            DetectorConfig::helgrind_lib(MsmMode::Short),
            DetectorConfig::helgrind_lib_spin(MsmMode::Long),
            DetectorConfig::drd(),
        ];
        let opts = EngineOptions::default();
        let one_pass = replay_slice(&cfgs, &trace.events, &opts, Guard::start(&opts)).unwrap();
        assert_eq!(one_pass.len(), cfgs.len());
        for (cfg, merged) in cfgs.iter().zip(&one_pass) {
            let mut seq = RaceDetector::new(*cfg);
            trace.replay(&mut seq);
            assert_matches_sequential(merged, &seq, "one pass over three detectors");
            for workers in [2, 4] {
                let pooled = replay_sharded(*cfg, &trace.events, workers);
                assert_matches_sequential(&pooled, &seq, &format!("pooled at {workers} workers"));
            }
        }
    }

    #[test]
    fn cap_saturation_is_reproduced_exactly() {
        let m = mixed_module();
        let trace = record_run(&m, VmConfig::round_robin(), "test").unwrap();
        let cfg = DetectorConfig::helgrind_lib(MsmMode::Short).with_cap(1);
        let mut seq = RaceDetector::new(cfg);
        trace.replay(&mut seq);
        for workers in [1, 2, 4] {
            let merged = replay_sharded(cfg, &trace.events, workers);
            assert_eq!(merged.reports.reports(), seq.reports().reports());
            assert_eq!(merged.reports.contexts(), 1);
            assert_eq!(merged.reports.dropped(), seq.reports().dropped());
        }
    }

    #[test]
    fn repeat_attempts_of_capped_contexts_match_sequential_dropped() {
        // A raw stream where the same capped-out context races repeatedly:
        // after ctx (pcA, pcB) fills the cap, every round re-attempts ctx
        // (pcB, pcA), and the sequential collector counts each attempt as
        // dropped. The merge must reproduce that count, not just the
        // recorded reports.
        use spinrace_vm::Event;
        let pc = |n| spinrace_tir::Pc::new(spinrace_tir::FuncId(0), spinrace_tir::BlockId(0), n);
        let mut events = vec![
            Event::Spawn {
                parent: 0,
                child: 1,
                pc: pc(0),
            },
            Event::Spawn {
                parent: 0,
                child: 2,
                pc: pc(0),
            },
        ];
        for _ in 0..3 {
            for (tid, at) in [(1u32, 10u32), (2, 20)] {
                events.push(Event::Write {
                    tid,
                    addr: 0x1000,
                    value: 1,
                    pc: pc(at),
                    stack: 0,
                    atomic: None,
                });
            }
        }
        let cfg = DetectorConfig::helgrind_lib(MsmMode::Short).with_cap(1);
        let mut seq = RaceDetector::new(cfg);
        for ev in &events {
            seq.on_event(ev);
        }
        assert!(seq.reports().dropped() > 0, "the scenario must saturate");
        for workers in [1, 2, 4] {
            let merged = replay_sharded(cfg, &events, workers);
            assert_eq!(merged.reports.reports(), seq.reports().reports());
            assert_eq!(
                merged.reports.dropped(),
                seq.reports().dropped(),
                "dropped diverges at {workers} workers"
            );
        }
    }

    #[test]
    fn worker_counts_beyond_the_shard_count_clamp() {
        let m = mixed_module();
        let trace = record_run(&m, VmConfig::round_robin(), "test").unwrap();
        let cfg = DetectorConfig::drd();
        let a = replay_sharded(cfg, &trace.events, NUM_SHARDS);
        let b = replay_sharded(cfg, &trace.events, 64);
        assert_eq!(a.reports.reports(), b.reports.reports());
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn fault_plan_parses_and_round_trips() {
        for (s, plan) in [
            (
                "panic:1:100",
                FaultPlan {
                    worker: 1,
                    at_event: 100,
                    kind: FaultKind::Panic,
                },
            ),
            (
                "delay:0:42:2500",
                FaultPlan {
                    worker: 0,
                    at_event: 42,
                    kind: FaultKind::Delay(2500),
                },
            ),
            (
                "drop:3:7",
                FaultPlan {
                    worker: 3,
                    at_event: 7,
                    kind: FaultKind::Drop,
                },
            ),
        ] {
            assert_eq!(s.parse::<FaultPlan>().unwrap(), plan, "parse {s:?}");
            assert_eq!(plan.to_string().parse::<FaultPlan>().unwrap(), plan);
        }
        for bad in [
            "",
            "panic",
            "panic:1",
            "panic:1:2:3",
            "delay:1:2",
            "drop:1:2:3",
            "boom:1:2",
            "panic:x:2",
            "panic:1:y",
            "delay:1:2:z",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn event_budget_reports_partial_metrics_from_the_prefix() {
        let m = mixed_module();
        let trace = record_run(&m, VmConfig::round_robin(), "test").unwrap();
        let cfg = DetectorConfig::helgrind_lib(MsmMode::Short);
        let budget = (trace.events.len() / 2) as u64;
        let opts = EngineOptions {
            budget: Budget {
                max_events: Some(budget),
                max_shadow_bytes: None,
            },
            ..EngineOptions::default()
        };
        // Ground truth: a sequential detector over the affordable prefix.
        let mut prefix = RaceDetector::new(cfg);
        for ev in &trace.events[..budget as usize] {
            prefix.on_event(ev);
        }
        for workers in [1, 2, 4] {
            let err = try_run_sharded_opts(cfg, &trace.events, workers, opts)
                .expect_err("budget must trip");
            match err {
                EngineError::BudgetExhausted {
                    resource: BudgetResource::Events,
                    limit,
                    used,
                    partial,
                } => {
                    assert_eq!(limit, budget);
                    assert_eq!(used, trace.events.len() as u64);
                    assert_eq!(partial.events_processed, budget);
                    assert_eq!(
                        partial.contexts,
                        prefix.racy_contexts(),
                        "partial metrics diverge at {workers} workers"
                    );
                }
                other => panic!("expected event-budget error, got {other}"),
            }
        }
    }

    #[test]
    fn shadow_budget_trips_with_partial_metrics() {
        let m = mixed_module();
        let trace = record_run(&m, VmConfig::round_robin(), "test").unwrap();
        let cfg = DetectorConfig::helgrind_lib(MsmMode::Short);
        let opts = EngineOptions {
            budget: Budget {
                max_events: None,
                max_shadow_bytes: Some(1),
            },
            ..EngineOptions::default()
        };
        for workers in [1, 2] {
            let err = try_run_sharded_opts(cfg, &trace.events, workers, opts)
                .expect_err("a 1-byte shadow budget must trip");
            match err {
                EngineError::BudgetExhausted {
                    resource: BudgetResource::ShadowBytes,
                    limit,
                    used,
                    ..
                } => {
                    assert_eq!(limit, 1);
                    assert!(used > 1);
                }
                other => panic!("expected shadow-budget error, got {other}"),
            }
        }
    }

    #[test]
    fn explicit_default_options_stay_byte_identical_to_sequential() {
        let m = mixed_module();
        let trace = record_run(&m, VmConfig::round_robin(), "test").unwrap();
        let cfg = DetectorConfig::helgrind_lib_spin(MsmMode::Short);
        let mut seq = RaceDetector::new(cfg);
        trace.replay(&mut seq);
        for workers in [2, 4, 8] {
            let merged =
                try_run_sharded_opts(cfg, &trace.events, workers, EngineOptions::default())
                    .unwrap();
            assert_matches_sequential(&merged, &seq, &format!("opts path, {workers} workers"));
        }
    }
}
