//! Sharded parallel replay: the detector-side mechanics.
//!
//! A recorded trace can be detected in parallel by partitioning its plain
//! data accesses along [`ShadowTable`](crate::shadow::ShadowTable)'s shard
//! seam: worker `i` of `W` owns shard `s` iff `s % W == i` (a
//! [`ShardSpec`]), processes the plain accesses whose addresses fall in
//! its shards, and replicates all synchronization events (spawn/join,
//! locks, condvars, barriers, semaphores, atomics, spin promotion/exit)
//! so its per-thread vector clocks evolve **exactly** as the sequential
//! detector's do. Three mechanisms make the merged result bit-identical
//! to a sequential replay (not merely equivalent):
//!
//! 1. **Promotion seeds** ([`compute_promotion_seeds`]) — promoting a spin
//!    condition location seeds its release clock from the location's last
//!    plain write, which only the owning worker's shadow memory has seen.
//!    A cheap sequential scalar pre-pass (per-thread own-clock counters
//!    plus last-write epochs for the promotion candidates; no vector
//!    clocks, no shadow memory) resolves every seed up front, and all
//!    workers promote from the shared table.
//! 2. **Tagged report attempts** — workers never touch a capped
//!    [`ReportCollector`]; they log each first-in-worker racy context as a
//!    [`TaggedReport`] carrying its global stream position. The merge
//!    sorts all attempts by position and replays them through one real
//!    collector, reproducing the sequential dedup order, representative
//!    reports, and cap saturation exactly.
//! 3. **Lockset op log** ([`LocksetOp`]) — the sequential
//!    [`LocksetTable`] interleaves base interns (lock events) with
//!    intersection interns (Eraser stage), so its memo sizes and id
//!    assignment are order-dependent. Worker 0 logs the base interns
//!    (identical in every worker), each owner logs its intersections, and
//!    the merge replays the ops in stream order against a fresh table —
//!    reproducing the sequential table byte-for-byte for the metrics.
//!
//! The orchestration (event routing, scoped thread pool) lives in
//! `spinrace_core::parallel`; this module owns everything that must stay
//! in lock-step with the detector's semantics.

use crate::config::DetectorConfig;
use crate::lockset::LocksetTable;
use crate::metrics::DetectorMetrics;
use crate::report::{RaceReport, ReportCollector};
use crate::shadow::{shard_of, NUM_SHARDS};
use crate::vc::Epoch;
use fxhash::{FxHashMap, FxHashSet};
use spinrace_tir::Pc;
use spinrace_vm::Event;
use std::sync::Arc;

/// Plain-access occupancy per shadow shard, configuration-free: the
/// skew diagnostic `trace stats` and the perf workload rows expose.
pub fn shard_occupancy(events: &[Event]) -> [u64; NUM_SHARDS] {
    let mut hist = [0u64; NUM_SHARDS];
    for ev in events {
        if ev.is_plain_access() {
            if let Some(addr) = ev.data_addr() {
                hist[shard_of(addr)] += 1;
            }
        }
    }
    hist
}

/// One worker's identity in a replay pool: worker `index` of `workers`
/// owns shard `s` iff `s % workers == index`, for the whole stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    workers: usize,
    index: usize,
}

impl ShardSpec {
    /// Worker `index` of a `workers`-wide pool (`workers` is clamped to
    /// `1..=NUM_SHARDS`).
    pub fn new(workers: usize, index: usize) -> ShardSpec {
        let workers = workers.clamp(1, NUM_SHARDS);
        assert!(
            index < workers,
            "invalid shard spec: worker {index}/{workers}"
        );
        ShardSpec { workers, index }
    }

    /// Total workers in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// This worker's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Does this worker own shadow shard `s`?
    #[inline]
    pub fn owns_shard(&self, s: usize) -> bool {
        s % self.workers == self.index
    }

    /// The designated logger (worker 0) records the globally-replicated
    /// lockset base interns and snapshots the replicated sync state.
    pub fn is_logger(&self) -> bool {
        self.index == 0
    }
}

/// Resolved promotion seeds: for every address the run will promote to a
/// synchronization location, the epoch of its last plain write at the
/// moment of (first) promotion — `None` when it was never written before.
#[derive(Clone, Debug, Default)]
pub struct PromotionSeeds {
    seeds: FxHashMap<u64, Option<Epoch>>,
}

impl PromotionSeeds {
    /// Will this address ever be promoted during the run?
    #[inline]
    pub fn will_promote(&self, addr: u64) -> bool {
        self.seeds.contains_key(&addr)
    }

    /// The seed epoch for `addr`'s promotion, if it had a prior write.
    #[inline]
    pub fn seed(&self, addr: u64) -> Option<Epoch> {
        self.seeds.get(&addr).copied().flatten()
    }

    /// Number of addresses the run promotes.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// True when the run promotes nothing (e.g. any non-spin tool).
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

/// Sequential scalar pre-pass resolving every promotion seed of a replay
/// of `events` under `cfg`.
///
/// Tracks only per-thread *own* clock components and the last plain write
/// epoch of the promotion candidates (spin-condition loads and RMW
/// targets). This mirrors the detector's event cascade exactly — which
/// events tick a thread's own component, and which writes are plain —
/// but performs no vector-clock joins: a join can never raise a thread's
/// own component, because only thread `t` ever ticks component `t` and
/// the VM never reuses thread ids.
pub fn compute_promotion_seeds(cfg: DetectorConfig, events: &[Event]) -> PromotionSeeds {
    let mut seeds: FxHashMap<u64, Option<Epoch>> = FxHashMap::default();
    if !cfg.spin {
        return PromotionSeeds { seeds };
    }

    // Pass A: candidate addresses. Under `spin`, every spin-tagged load
    // and every RMW target is promoted at its first occurrence.
    let mut candidates: FxHashSet<u64> = FxHashSet::default();
    for ev in events {
        match ev {
            Event::Read {
                addr,
                spin: Some(_),
                ..
            }
            | Event::Update { addr, .. } => {
                candidates.insert(*addr);
            }
            _ => {}
        }
    }
    if candidates.is_empty() {
        return PromotionSeeds { seeds };
    }

    // Pass B: scalar replay. `own[t]` mirrors `vcs[t].get(t)`; thread 0
    // starts at 1 (the detector's initial clock sets component 0 to 1).
    let mut own: Vec<u32> = vec![1];
    let mut last_write: FxHashMap<u64, Epoch> = FxHashMap::default();
    let mut promoted: FxHashSet<u64> = FxHashSet::default();

    fn ensure(own: &mut Vec<u32>, t: u32) {
        let t = t as usize;
        if own.len() <= t {
            own.resize(t + 1, 0);
        }
    }
    let mut promote =
        |addr: u64, promoted: &mut FxHashSet<u64>, last_write: &FxHashMap<u64, Epoch>| {
            if promoted.insert(addr) {
                seeds.insert(addr, last_write.get(&addr).copied());
            }
        };

    for ev in events {
        match *ev {
            Event::Spawn { parent, child, .. } => {
                ensure(&mut own, parent);
                ensure(&mut own, child);
                own[child as usize] += 1;
                own[parent as usize] += 1;
            }
            Event::Read {
                addr,
                spin: Some(_),
                ..
            } => promote(addr, &mut promoted, &last_write),
            Event::Read { .. } => {}
            Event::Write {
                tid, addr, atomic, ..
            } => {
                ensure(&mut own, tid);
                if promoted.contains(&addr) {
                    // Counterpart write to a promoted location: release.
                    own[tid as usize] += 1;
                } else if cfg.atomics_sync && atomic.is_some() {
                    if atomic.is_some_and(|o| o.releases()) {
                        own[tid as usize] += 1;
                    }
                } else if candidates.contains(&addr) {
                    last_write.insert(addr, Epoch::new(tid, own[tid as usize]));
                }
            }
            Event::Update { tid, addr, .. } => {
                ensure(&mut own, tid);
                // `spin` is on (checked above): promote, acquire, release.
                promote(addr, &mut promoted, &last_write);
                own[tid as usize] += 1;
            }
            Event::MutexUnlock { tid, .. }
            | Event::CondSignal { tid, .. }
            | Event::CondBroadcast { tid, .. }
            | Event::BarrierEnter { tid, .. }
            | Event::SemPost { tid, .. } => {
                if cfg.lib {
                    ensure(&mut own, tid);
                    own[tid as usize] += 1;
                }
            }
            // Pure joins or no-ops: never change an own component.
            Event::Join { .. }
            | Event::ThreadEnd { .. }
            | Event::Fence { .. }
            | Event::MutexLock { .. }
            | Event::CondWaitReturn { .. }
            | Event::BarrierLeave { .. }
            | Event::SemAcquired { .. }
            | Event::SpinEnter { .. }
            | Event::SpinExit { .. }
            | Event::Output { .. } => {}
        }
    }
    PromotionSeeds { seeds }
}

/// A racy context's dedup key (see [`RaceReport::context`]).
pub(crate) type Ctx = ((Pc, u64), (Pc, u64));

/// A report attempt tagged with its global stream position — `(event,
/// seq)` totally orders attempts across workers because one event's plain
/// accesses all hit a single address, i.e. a single worker.
#[derive(Clone, Debug)]
pub struct TaggedReport {
    /// Index of the originating event in the full stream.
    pub event: u64,
    /// Emission order within that event.
    pub seq: u32,
    /// The report as the sequential detector would have attempted it.
    pub report: RaceReport,
}

/// One replayable operation on the global lockset intern table, with set
/// contents (not worker-local ids, which differ per worker).
#[derive(Clone, Debug)]
pub enum LocksetOp {
    /// `intern_presorted` of a thread's held-lock set (lock events; logged
    /// by worker 0 — they are identical in every worker).
    Intern(Vec<u64>),
    /// Eraser-stage `intersect` of a cell's running write lockset with the
    /// writer's current one (logged by the cell's owner).
    Intersect(Vec<u64>, Vec<u64>),
}

/// A lockset op tagged with its originating event (at most one lockset op
/// per event, so the event index alone orders the log).
#[derive(Clone, Debug)]
pub struct TaggedLocksetOp {
    /// Index of the originating event in the full stream.
    pub event: u64,
    /// The operation.
    pub op: LocksetOp,
}

/// Per-worker replay bookkeeping, attached to a
/// [`RaceDetector`](crate::RaceDetector) by
/// [`RaceDetector::new_worker`](crate::RaceDetector::new_worker).
#[derive(Debug)]
pub struct WorkerState {
    /// Shard ownership.
    pub spec: ShardSpec,
    /// Shared promotion seeds (empty for non-spin configurations).
    pub seeds: Arc<PromotionSeeds>,
    /// `owned[s]`: does this worker own shard `s`? Kept flat so the
    /// per-access ownership gate is one array index, not a division.
    pub(crate) owned: [bool; NUM_SHARDS],
    /// Stream index of the event currently being processed.
    pub(crate) cur_event: u64,
    /// Reports emitted so far by the current event.
    pub(crate) cur_seq: u32,
    /// First-in-worker report attempts, in stream order.
    pub(crate) attempts: Vec<TaggedReport>,
    /// Total attempts per context (the first is in `attempts`; the rest
    /// only matter for the collector's `dropped` accounting).
    pub(crate) attempt_counts: FxHashMap<Ctx, u64>,
    /// Lockset op log (base interns only on the logger worker).
    pub(crate) lockset_ops: Vec<TaggedLocksetOp>,
}

impl WorkerState {
    /// Fresh worker bookkeeping.
    pub fn new(spec: ShardSpec, seeds: Arc<PromotionSeeds>) -> WorkerState {
        WorkerState {
            spec,
            seeds,
            owned: std::array::from_fn(|s| spec.owns_shard(s)),
            cur_event: 0,
            cur_seq: 0,
            attempts: Vec::new(),
            attempt_counts: FxHashMap::default(),
            lockset_ops: Vec::new(),
        }
    }

    /// Does this worker currently own `addr`'s shadow cell?
    #[inline]
    pub(crate) fn owns_addr(&self, addr: u64) -> bool {
        self.owned[shard_of(addr)]
    }

    /// Append a lockset op tagged with the current event.
    pub(crate) fn log_lockset_op(&mut self, op: LocksetOp) {
        self.lockset_ops.push(TaggedLocksetOp {
            event: self.cur_event,
            op,
        });
    }

    /// Begin processing the event at stream index `index`.
    pub(crate) fn begin_event(&mut self, index: u64) {
        self.cur_event = index;
        self.cur_seq = 0;
    }
}

/// Record a report attempt: sequentially straight into the collector; in
/// a worker, into the tagged attempt log. Only a context's first-in-worker
/// attempt carries the full report (the merge needs each context's
/// earliest attempt, and within one worker attempts arrive in stream
/// order); later attempts just bump the context's count, which the merge
/// folds into the collector's `dropped` accounting.
pub(crate) fn emit_report(
    reports: &mut ReportCollector,
    worker: Option<&mut WorkerState>,
    r: RaceReport,
) {
    match worker {
        None => {
            reports.record(r);
        }
        Some(w) => {
            let ctx = r.context();
            let count = w.attempt_counts.entry(ctx).or_insert(0);
            *count += 1;
            if *count == 1 {
                w.attempts.push(TaggedReport {
                    event: w.cur_event,
                    seq: w.cur_seq,
                    report: r,
                });
            }
            w.cur_seq += 1;
        }
    }
}

/// What one worker hands to the merge.
#[derive(Debug)]
pub struct WorkerFragment {
    /// The worker's shard assignment.
    pub spec: ShardSpec,
    /// Tagged report attempts from this worker's shards.
    pub attempts: Vec<TaggedReport>,
    /// Total attempts per context (see [`WorkerState::attempt_counts`]).
    pub(crate) attempt_counts: FxHashMap<Ctx, u64>,
    /// Tagged lockset ops (base interns only from worker 0).
    pub lockset_ops: Vec<TaggedLocksetOp>,
    /// Shadow bytes of this worker's owned shards. Summing over workers
    /// equals the sequential total: each owned shard is structurally
    /// identical to the sequential table's, and unowned shards allocate
    /// nothing.
    pub shadow_bytes: usize,
    /// Replicated global state, identical in every worker; the merge
    /// reads the logger's copy.
    pub thread_vc_bytes: usize,
    /// Library sync-object clock bytes (replicated).
    pub lib_sync_bytes: usize,
    /// Atomic-location clock bytes (replicated).
    pub atomic_bytes: usize,
    /// Promoted-location clock bytes (replicated).
    pub spin_sync_bytes: usize,
    /// Promoted locations (replicated).
    pub promoted_locations: usize,
}

/// The merged detection result — bit-identical to what one sequential
/// replay of the same stream under the same configuration produces.
#[derive(Debug)]
pub struct MergedDetection {
    /// Reports, contexts and cap state, in sequential discovery order.
    pub reports: ReportCollector,
    /// Metrics equal to the sequential detector's.
    pub metrics: DetectorMetrics,
    /// Promoted synchronization locations.
    pub promoted_locations: usize,
}

/// Merge worker fragments into the sequential detection result.
///
/// Report attempts are sorted by stream position and replayed through a
/// real collector (reproducing dedup order, representatives, and the
/// cap); lockset ops are replayed in stream order against a fresh table
/// (reproducing the sequential table's sets, capacities and memo for the
/// metrics); shadow bytes sum across workers; replicated state is read
/// from the logger worker.
pub fn merge_fragments(cap: usize, fragments: Vec<WorkerFragment>) -> MergedDetection {
    try_merge_fragments(cap, fragments).expect("fragment set must include worker 0")
}

/// [`merge_fragments`], returning `None` instead of panicking when the
/// fragment set has no logger (worker 0) fragment — the shape a merge
/// sees when a worker died without producing its fragment.
pub fn try_merge_fragments(cap: usize, fragments: Vec<WorkerFragment>) -> Option<MergedDetection> {
    let logger = fragments.iter().find(|f| f.spec.is_logger())?;
    let (thread_vc_bytes, lib_sync_bytes, atomic_bytes, spin_sync_bytes, promoted_locations) = (
        logger.thread_vc_bytes,
        logger.lib_sync_bytes,
        logger.atomic_bytes,
        logger.spin_sync_bytes,
        logger.promoted_locations,
    );
    let shadow_bytes = fragments.iter().map(|f| f.shadow_bytes).sum();

    let mut attempts: Vec<TaggedReport> = Vec::new();
    let mut ops: Vec<TaggedLocksetOp> = Vec::new();
    let mut counts: Vec<(Ctx, u64)> = Vec::new();
    for f in fragments {
        attempts.extend(f.attempts);
        ops.extend(f.lockset_ops);
        counts.extend(f.attempt_counts);
    }
    // (event, seq) is unique across workers: an event's reports all come
    // from one address, hence one owner.
    attempts.sort_unstable_by_key(|a| (a.event, a.seq));
    let mut reports = ReportCollector::new(cap);
    for a in attempts {
        reports.record(a.report);
    }
    // Repeat attempts of a context the cap kept out: the sequential
    // collector counts every one of them as dropped (an unrecorded
    // context never enters the dedup set). The replay above already
    // counted each worker's *first* attempt; fold in the rest. Contexts
    // that were recorded contribute nothing — only their globally-first
    // attempt did anything, and it was recorded.
    for (ctx, count) in counts {
        if count > 1 && !reports.has_context(&ctx) {
            reports.note_dropped((count - 1) as usize);
        }
    }

    // At most one lockset op per event, so the event index orders the log.
    ops.sort_unstable_by_key(|o| o.event);
    let mut table = LocksetTable::default();
    for op in ops {
        match op.op {
            LocksetOp::Intern(set) => {
                table.intern_presorted(&set);
            }
            LocksetOp::Intersect(prev, cur) => {
                // Both operand sets were already interned at this point of
                // the sequential op order, so these are pure lookups that
                // recover the sequential ids without mutating the table.
                let a = table.intern_presorted(&prev);
                let b = table.intern_presorted(&cur);
                table.intersect(a, b);
            }
        }
    }

    let metrics = DetectorMetrics {
        shadow_bytes,
        thread_vc_bytes,
        lib_sync_bytes,
        atomic_bytes,
        spin_sync_bytes,
        lockset_bytes: table.approx_bytes(),
        report_bytes: reports.approx_bytes(),
    };
    Some(MergedDetection {
        reports,
        metrics,
        promoted_locations,
    })
}

/// Where one event of a parallel replay must go: broadcast to every
/// worker, or only to the owner of one address's shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventRoute {
    /// Synchronization-relevant: every worker processes it so the
    /// replicated state (thread clocks, sync-object clocks, promotions,
    /// held locksets) stays in lock-step.
    Broadcast,
    /// Entire effect confined to this address's shadow cell: only the
    /// owning worker processes it.
    Owner(u64),
}

/// Route one event of a replay of the stream under `cfg`.
///
/// Routing is conservative: any event that *could* mutate globally
/// replicated state is broadcast; [`EventRoute::Owner`] events are
/// exactly those whose entire effect is confined to one address's shadow
/// cell. Writes to an eventually-promoted address ([`PromotionSeeds`]
/// knows the full set up front) are broadcast because they become
/// releases — which tick the writer's clock — once promotion happens;
/// before that, non-owners fall through to the plain-access path and
/// stop at the detector's ownership gate. Workers evaluate this predicate
/// inline while scanning the shared event slice, so the routing work
/// itself parallelizes instead of being a serial partitioning pass.
#[inline]
pub fn event_route(cfg: DetectorConfig, seeds: &PromotionSeeds, ev: &Event) -> EventRoute {
    match ev {
        Event::Read {
            addr, atomic, spin, ..
        } => {
            if (cfg.spin && spin.is_some()) || (cfg.atomics_sync && atomic.is_some()) {
                EventRoute::Broadcast // promotes, or joins an atomic clock
            } else {
                EventRoute::Owner(*addr)
            }
        }
        Event::Write { addr, atomic, .. } => {
            if (cfg.spin && seeds.will_promote(*addr)) || (cfg.atomics_sync && atomic.is_some()) {
                EventRoute::Broadcast // release (ticks the writer's clock)
            } else {
                EventRoute::Owner(*addr)
            }
        }
        Event::Update { addr, .. } => {
            if cfg.spin || cfg.atomics_sync {
                EventRoute::Broadcast // promotes / release-acquires
            } else {
                EventRoute::Owner(*addr) // library-only hybrid: plain r+w
            }
        }
        _ => EventRoute::Broadcast,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MsmMode;
    use crate::shadow::NUM_SHARDS;
    use spinrace_tir::{BlockId, FuncId, SpinLoopId};

    fn pc(n: u32) -> Pc {
        Pc::new(FuncId(0), BlockId(0), n)
    }

    fn spin_read(tid: u32, addr: u64) -> Event {
        Event::Read {
            tid,
            addr,
            value: 0,
            pc: pc(1),
            stack: 0,
            atomic: None,
            spin: Some(SpinLoopId(0)),
        }
    }

    fn write(tid: u32, addr: u64) -> Event {
        Event::Write {
            tid,
            addr,
            value: 1,
            pc: pc(2),
            stack: 0,
            atomic: None,
        }
    }

    #[test]
    fn seeds_capture_the_last_write_epoch() {
        let cfg = DetectorConfig::helgrind_lib_spin(MsmMode::Short);
        let flag = 0x1000u64;
        let events = vec![
            Event::Spawn {
                parent: 0,
                child: 1,
                pc: pc(0),
            },
            write(0, flag), // epoch 2@0: spawn ticked thread 0 from 1 to 2
            spin_read(1, flag),
        ];
        let seeds = compute_promotion_seeds(cfg, &events);
        assert_eq!(seeds.len(), 1);
        assert!(seeds.will_promote(flag));
        assert_eq!(seeds.seed(flag), Some(Epoch::new(0, 2)));
    }

    #[test]
    fn seeds_are_none_without_a_prior_write_and_freeze_at_promotion() {
        let cfg = DetectorConfig::helgrind_lib_spin(MsmMode::Short);
        let flag = 0x1000u64;
        let events = vec![
            Event::Spawn {
                parent: 0,
                child: 1,
                pc: pc(0),
            },
            spin_read(1, flag), // promoted before any write
            write(0, flag),     // now a release, not a plain write
            spin_read(1, flag),
        ];
        let seeds = compute_promotion_seeds(cfg, &events);
        assert_eq!(seeds.seed(flag), None);
    }

    #[test]
    fn non_spin_configs_promote_nothing() {
        let cfg = DetectorConfig::helgrind_lib(MsmMode::Short);
        let events = vec![spin_read(0, 0x1000)];
        assert!(compute_promotion_seeds(cfg, &events).is_empty());
    }

    #[test]
    fn lib_release_events_tick_the_scalar_clocks() {
        // A mutex unlock between two writes must move the writer's epoch,
        // and the seed must see the *second* write's epoch.
        let cfg = DetectorConfig::helgrind_lib_spin(MsmMode::Short);
        let flag = 0x1000u64;
        let events = vec![
            write(0, flag), // 1@0
            Event::MutexUnlock {
                tid: 0,
                mutex: 0x9000,
                pc: pc(3),
            }, // tick: thread 0 now at 2
            write(0, flag), // 2@0
            spin_read(0, flag),
        ];
        let seeds = compute_promotion_seeds(cfg, &events);
        assert_eq!(seeds.seed(flag), Some(Epoch::new(0, 2)));
    }

    #[test]
    fn static_plan_partitions_all_shards_modularly() {
        for workers in 1..=NUM_SHARDS {
            for s in 0..NUM_SHARDS {
                let owners: Vec<usize> = (0..workers)
                    .filter(|&i| ShardSpec::new(workers, i).owns_shard(s))
                    .collect();
                assert_eq!(owners, vec![s % workers], "shard {s} of {workers}");
            }
        }
        assert_eq!(ShardSpec::new(64, 0).workers(), NUM_SHARDS, "width clamps");
    }

    #[test]
    fn shard_occupancy_counts_plain_accesses_only() {
        let events = vec![
            write(0, 0),       // shard 0
            write(0, 64),      // shard 1
            write(0, 64),      // shard 1
            spin_read(0, 128), // spin-tagged read: not a plain access
            Event::MutexUnlock {
                tid: 0,
                mutex: 0x9000,
                pc: pc(3),
            },
        ];
        let hist = shard_occupancy(&events);
        assert_eq!(hist[0], 1);
        assert_eq!(hist[1], 2);
        assert_eq!(
            hist.iter().sum::<u64>(),
            3,
            "sync and spin events don't count"
        );
    }

    #[test]
    fn routing_broadcasts_sync_and_confines_plain_accesses() {
        let cfg = DetectorConfig::helgrind_lib_spin(MsmMode::Short);
        let flag = 0x1000u64; // eventually promoted → writes broadcast
        let data = 0x2000u64;
        let events = vec![
            Event::Spawn {
                parent: 0,
                child: 1,
                pc: pc(0),
            },
            write(0, data),
            write(0, flag),
            spin_read(1, flag),
        ];
        let seeds = compute_promotion_seeds(cfg, &events);
        assert_eq!(event_route(cfg, &seeds, &events[0]), EventRoute::Broadcast);
        assert_eq!(
            event_route(cfg, &seeds, &events[1]),
            EventRoute::Owner(data),
            "plain access confined to its owner"
        );
        assert_eq!(
            event_route(cfg, &seeds, &events[2]),
            EventRoute::Broadcast,
            "write to an eventually-promoted location broadcasts"
        );
        assert_eq!(event_route(cfg, &seeds, &events[3]), EventRoute::Broadcast);

        // Without spin the same flag write is just a plain access…
        let lib = DetectorConfig::helgrind_lib(MsmMode::Short);
        let no_seeds = compute_promotion_seeds(lib, &events);
        assert_eq!(
            event_route(lib, &no_seeds, &events[2]),
            EventRoute::Owner(flag)
        );
        // …and under DRD an atomic access is synchronization.
        let drd = DetectorConfig::drd();
        let atomic_write = Event::Write {
            tid: 0,
            addr: data,
            value: 1,
            pc: pc(9),
            stack: 0,
            atomic: Some(spinrace_tir::MemOrder::Release),
        };
        assert_eq!(
            event_route(drd, &no_seeds, &atomic_write),
            EventRoute::Broadcast
        );
        assert_eq!(
            event_route(lib, &no_seeds, &atomic_write),
            EventRoute::Owner(data),
            "the library-only hybrid treats atomics as plain data"
        );
    }

    #[test]
    fn merge_reproduces_collector_order_and_cap() {
        let mk = |event: u64, pc_n: u32| TaggedReport {
            event,
            seq: 0,
            report: RaceReport {
                addr: 0x1000 + event,
                prior: crate::report::AccessSummary {
                    tid: 0,
                    pc: pc(pc_n),
                    stack: 0,
                    is_write: true,
                },
                current: crate::report::AccessSummary {
                    tid: 1,
                    pc: pc(pc_n + 100),
                    stack: 0,
                    is_write: true,
                },
                kind: crate::report::RaceKind::WriteWrite,
            },
        };
        let frag = |index: usize, attempts: Vec<TaggedReport>| {
            // Every attempt in these fixtures is a distinct context seen
            // exactly once.
            let attempt_counts = attempts
                .iter()
                .map(|a| (a.report.context(), 1u64))
                .collect();
            WorkerFragment {
                spec: ShardSpec::new(2, index),
                attempts,
                attempt_counts,
                lockset_ops: Vec::new(),
                shadow_bytes: 10,
                thread_vc_bytes: 7,
                lib_sync_bytes: 3,
                atomic_bytes: 0,
                spin_sync_bytes: 0,
                promoted_locations: 0,
            }
        };
        // Worker 1 saw an earlier attempt (event 1) than worker 0 (event 2);
        // cap 2 must keep events 1 and 2, dropping event 9's new context.
        let merged = merge_fragments(
            2,
            vec![frag(0, vec![mk(2, 1), mk(9, 5)]), frag(1, vec![mk(1, 3)])],
        );
        assert_eq!(merged.reports.contexts(), 2);
        let got: Vec<u64> = merged.reports.reports().iter().map(|r| r.addr).collect();
        assert_eq!(got, vec![0x1000 + 1, 0x1000 + 2], "stream order wins");
        assert_eq!(merged.reports.dropped(), 1, "event 9's context capped out");
        assert_eq!(merged.metrics.shadow_bytes, 20, "shadow sums over workers");
        assert_eq!(merged.metrics.thread_vc_bytes, 7, "replicated state once");
    }

    #[test]
    fn repeat_attempts_of_capped_contexts_count_as_dropped() {
        let mk = |event: u64, pc_n: u32| TaggedReport {
            event,
            seq: 0,
            report: RaceReport {
                addr: 0x1000,
                prior: crate::report::AccessSummary {
                    tid: 0,
                    pc: pc(pc_n),
                    stack: 0,
                    is_write: true,
                },
                current: crate::report::AccessSummary {
                    tid: 1,
                    pc: pc(pc_n + 100),
                    stack: 0,
                    is_write: true,
                },
                kind: crate::report::RaceKind::WriteWrite,
            },
        };
        // Context A (pc 1) is recorded and re-attempted twice more;
        // context B (pc 5) arrives after the cap and is attempted three
        // times. The sequential collector drops every B attempt (3) and
        // no A attempt.
        let a = mk(0, 1);
        let b = mk(1, 5);
        let frag = WorkerFragment {
            spec: ShardSpec::new(1, 0),
            attempts: vec![a.clone(), b.clone()],
            attempt_counts: vec![(a.report.context(), 3), (b.report.context(), 3)]
                .into_iter()
                .collect(),
            lockset_ops: Vec::new(),
            shadow_bytes: 0,
            thread_vc_bytes: 0,
            lib_sync_bytes: 0,
            atomic_bytes: 0,
            spin_sync_bytes: 0,
            promoted_locations: 0,
        };
        let merged = merge_fragments(1, vec![frag]);
        assert_eq!(merged.reports.contexts(), 1);
        assert_eq!(merged.reports.dropped(), 3);
    }

    #[test]
    fn lockset_op_replay_matches_direct_table_use() {
        // Direct sequential use…
        let mut direct = LocksetTable::default();
        let a = direct.intern_presorted(&[1, 2]);
        let b = direct.intern_presorted(&[2, 3]);
        direct.intersect(a, b);
        // …equals the op-log replay in the same order.
        let ops = vec![
            TaggedLocksetOp {
                event: 0,
                op: LocksetOp::Intern(vec![1, 2]),
            },
            TaggedLocksetOp {
                event: 1,
                op: LocksetOp::Intern(vec![2, 3]),
            },
            TaggedLocksetOp {
                event: 2,
                op: LocksetOp::Intersect(vec![1, 2], vec![2, 3]),
            },
        ];
        let frag = WorkerFragment {
            spec: ShardSpec::new(1, 0),
            attempts: Vec::new(),
            attempt_counts: FxHashMap::default(),
            lockset_ops: ops,
            shadow_bytes: 0,
            thread_vc_bytes: 0,
            lib_sync_bytes: 0,
            atomic_bytes: 0,
            spin_sync_bytes: 0,
            promoted_locations: 0,
        };
        let merged = merge_fragments(1000, vec![frag]);
        assert_eq!(merged.metrics.lockset_bytes, direct.approx_bytes());
    }
}
