//! The race detector: an [`EventSink`] implementing pure happens-before
//! (DRD), the hybrid lockset + HB algorithm (Helgrind+), and the paper's
//! spin-loop happens-before augmentation.
//!
//! # Hot-path design (epoch fast paths)
//!
//! `on_plain_read`/`on_plain_write` are FastTrack-shaped: the race check
//! against the last write is a single epoch compare against the accessing
//! thread's *borrowed* vector clock, the read history is the adaptive
//! [`ReadState`] (inline epoch until genuinely concurrent readers appear),
//! and shadow state lives in the flat paged [`ShadowTable`]. The race-free
//! fast paths perform **no `VectorClock` clone and no heap allocation**;
//! the racy slow path reuses a persistent scratch buffer. Each plain
//! access looks its shadow cell up once, racy or not.
//!
//! A read of a promoted (`Shared`) cell — almost every read of a hot word
//! that several threads read — has an O(1) *restamp exit*: when the
//! reader's entry already holds the new record, the cell's set of records
//! has not changed since that reader last pruned it, and the reader's
//! clock has not grown since (a per-thread generation, `grown`, set at
//! every join into a thread clock), the reference's prune-then-append
//! would remove that one entry and append it again. The exit gives the
//! entry a new arrival stamp instead, touching nothing else; the racy-write
//! slow path sorts its read candidates by stamp, which is the only place
//! read order shows. Every other shared read prunes and inserts as the
//! reference does. Semantics are bit-for-bit those of the retained
//! [`crate::ReferenceDetector`] — the differential tests in
//! `tests/epoch_equivalence.rs`, one of them built to drive the restamp
//! exit and its guards, hold the two to identical reports.

use crate::config::{DetectorConfig, MsmMode};
use crate::lockset::{LocksetId, LocksetTable};
use crate::report::{AccessSummary, RaceKind, RaceReport, ReportCollector};
use crate::shadow::{find_reader, AccessRecord, ReadEntry, ReadState, ShadowCell, ShadowTable};
use crate::sharded::{
    emit_report, LocksetOp, PromotionSeeds, ShardSpec, WorkerFragment, WorkerState,
};
use crate::vc::{Epoch, VectorClock};
use fxhash::FxHashMap;
use spinrace_tir::{MemOrder, Pc};
use spinrace_vm::{Event, EventSink, ThreadId};
use std::sync::Arc;

/// Dynamic race detector. Feed it a VM event stream (it implements
/// [`EventSink`]) and read the results from [`RaceDetector::reports`].
pub struct RaceDetector {
    cfg: DetectorConfig,
    /// Per-thread vector clocks.
    vcs: Vec<VectorClock>,
    /// Per-thread held locks (sorted) and the interned id thereof.
    locks_held: Vec<Vec<u64>>,
    held_ids: Vec<LocksetId>,
    locksets: LocksetTable,
    /// Release clocks of library sync objects.
    mutex_vc: FxHashMap<u64, VectorClock>,
    cv_vc: FxHashMap<u64, VectorClock>,
    barrier_vc: FxHashMap<(u64, u64), VectorClock>,
    sem_vc: FxHashMap<u64, VectorClock>,
    /// Release clocks of atomic locations (DRD machine-atomics model).
    atomic_vc: FxHashMap<u64, VectorClock>,
    /// Release clocks of *promoted* spin-condition locations — the memory
    /// cost of the paper's feature, reported by the memory figure.
    sync_loc: FxHashMap<u64, VectorClock>,
    /// Shadow memory: flat paged/sharded direct map.
    shadow: ShadowTable,
    /// Arrival-stamp counter of the shared read vectors (see
    /// [`ReadState`]); renumbered before it can wrap.
    stamp: u32,
    /// Per thread: the stamp counter's value at the last join into its
    /// clock. A shared-read entry stamped after it was pushed by the
    /// thread's current clock.
    grown: Vec<u32>,
    /// Plain reads by read-state variant (diagnostics, never serialized).
    read_counts: ReadPathCounts,
    /// Racy-write slow-path scratch (kept to avoid per-event allocation).
    read_scratch: Vec<ReadEntry>,
    reports: ReportCollector,
    events_seen: u64,
    /// Sharded-replay worker bookkeeping (`None` when running the whole
    /// stream sequentially — the common case; see [`crate::sharded`]).
    worker: Option<Box<WorkerState>>,
}

impl RaceDetector {
    /// Fresh detector for one run.
    pub fn new(cfg: DetectorConfig) -> RaceDetector {
        RaceDetector {
            cfg,
            vcs: vec![initial_vc()],
            locks_held: vec![Vec::new()],
            held_ids: vec![LocksetId::EMPTY],
            locksets: LocksetTable::default(),
            mutex_vc: FxHashMap::default(),
            cv_vc: FxHashMap::default(),
            barrier_vc: FxHashMap::default(),
            sem_vc: FxHashMap::default(),
            atomic_vc: FxHashMap::default(),
            sync_loc: FxHashMap::default(),
            shadow: ShadowTable::new(),
            stamp: 0,
            grown: vec![0],
            read_counts: ReadPathCounts::default(),
            read_scratch: Vec::new(),
            reports: ReportCollector::new(cfg.context_cap),
            events_seen: 0,
            worker: None,
        }
    }

    /// A sharded-replay worker: processes plain accesses only for the
    /// shards `spec` owns, replicates all synchronization events, promotes
    /// from the shared `seeds`, and logs tagged report attempts and
    /// lockset ops instead of filling its own collector. Drive it with
    /// [`RaceDetector::on_event_at`] over its event partition, then
    /// extract the [`WorkerFragment`] with [`RaceDetector::into_fragment`]
    /// for [`crate::sharded::merge_fragments`].
    pub fn new_worker(
        cfg: DetectorConfig,
        spec: ShardSpec,
        seeds: Arc<PromotionSeeds>,
    ) -> RaceDetector {
        let mut d = RaceDetector::new(cfg);
        d.worker = Some(Box::new(WorkerState::new(spec, seeds)));
        d
    }

    /// Process one event that sits at `index` in the full recorded stream
    /// — the entry point for sharded workers, whose partitions skip the
    /// events other workers own. (Feeding a detector through the plain
    /// [`EventSink`] interface indexes events implicitly by arrival.)
    pub fn on_event_at(&mut self, index: u64, ev: &Event) {
        self.events_seen = index;
        self.on_event(ev);
    }

    /// Seal a worker and hand its fragment to the merge. Panics when the
    /// detector was not constructed with [`RaceDetector::new_worker`].
    pub fn into_fragment(mut self) -> WorkerFragment {
        let w = self
            .worker
            .take()
            .expect("into_fragment requires a worker-mode detector");
        WorkerFragment {
            spec: w.spec,
            attempts: w.attempts,
            attempt_counts: w.attempt_counts,
            lockset_ops: w.lockset_ops,
            shadow_bytes: self.shadow.approx_bytes(),
            thread_vc_bytes: self.thread_vc_bytes(),
            lib_sync_bytes: self.lib_sync_bytes(),
            atomic_bytes: self.atomic_vc_bytes(),
            spin_sync_bytes: self.spin_sync_bytes(),
            promoted_locations: self.sync_loc.len(),
        }
    }

    /// Does this detector process plain accesses to `addr`? Always true
    /// sequentially; in a worker, only for the shards it owns. Broadcast
    /// events that fall through to the plain-access path (e.g. a write to
    /// an eventually-promoted location before its promotion) stop here on
    /// non-owners.
    #[inline]
    fn owns(&self, addr: u64) -> bool {
        match &self.worker {
            None => true,
            Some(w) => w.owns_addr(addr),
        }
    }

    /// Seal a *sequential* detector into the merged-detection shape — the
    /// result of the sequential pass parallel replay takes at one worker,
    /// which skips the seed pre-pass, the pool, and the per-access
    /// ownership gate entirely and is therefore exactly as fast as a
    /// plain replay.
    pub fn into_detection(mut self) -> crate::sharded::MergedDetection {
        assert!(
            self.worker.is_none(),
            "into_detection seals a sequential detector; workers merge via fragments"
        );
        let metrics = self.metrics();
        let promoted_locations = self.sync_loc.len();
        let reports = std::mem::replace(&mut self.reports, ReportCollector::new(0));
        crate::sharded::MergedDetection {
            reports,
            metrics,
            promoted_locations,
        }
    }

    /// In worker mode, the designated logger records the base lockset
    /// intern of `tid`'s held set at lock events (the interns are
    /// identical in every worker, so exactly one worker logs them for the
    /// merge's op-order replay). Call **before** the intern itself: only
    /// table-mutating interns are logged — a local hit means an earlier
    /// logged op already created the set, so replaying it would be a
    /// no-op anyway, and skipping it keeps the log O(distinct sets).
    fn log_base_intern(&mut self, tid: ThreadId) {
        if let Some(w) = &mut self.worker {
            let held = &self.locks_held[tid as usize];
            if w.spec.is_logger() && !self.locksets.contains_presorted(held) {
                w.log_lockset_op(LocksetOp::Intern(held.clone()));
            }
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Collected reports.
    pub fn reports(&self) -> &ReportCollector {
        &self.reports
    }

    /// Number of distinct racy contexts (the paper's table metric).
    pub fn racy_contexts(&self) -> usize {
        self.reports.contexts()
    }

    /// Events processed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Promoted synchronization locations (spin feature state).
    pub fn promoted_locations(&self) -> usize {
        self.sync_loc.len()
    }

    /// Plain reads so far, by the read state their cell was in, and the
    /// shared reads that took the restamp exit. Diagnostics only: not part
    /// of any outcome or metrics serialization.
    pub fn read_counts(&self) -> ReadPathCounts {
        self.read_counts
    }

    // ---- state accessors for metrics ----

    /// Per-thread clocks (metrics).
    pub fn thread_vcs(&self) -> &[VectorClock] {
        &self.vcs
    }
    /// Mutex release clocks (metrics).
    pub fn mutex_vcs(&self) -> &FxHashMap<u64, VectorClock> {
        &self.mutex_vc
    }
    /// Condvar release clocks (metrics).
    pub fn cv_vcs(&self) -> &FxHashMap<u64, VectorClock> {
        &self.cv_vc
    }
    /// Barrier generation clocks (metrics).
    pub fn barrier_vcs(&self) -> &FxHashMap<(u64, u64), VectorClock> {
        &self.barrier_vc
    }
    /// Semaphore release clocks (metrics).
    pub fn sem_vcs(&self) -> &FxHashMap<u64, VectorClock> {
        &self.sem_vc
    }
    /// Atomic-location clocks (metrics).
    pub fn atomic_vcs(&self) -> &FxHashMap<u64, VectorClock> {
        &self.atomic_vc
    }
    /// Promoted spin locations (metrics).
    pub fn sync_locs(&self) -> &FxHashMap<u64, VectorClock> {
        &self.sync_loc
    }
    /// Total shadow bytes (metrics): probe tables, page slabs, and
    /// promoted read vectors — the honest cost of the paged layout.
    pub fn shadow_iter_bytes(&self) -> usize {
        self.shadow.approx_bytes()
    }
    /// Cheap O(shards) lower bound on shadow bytes — probe tables and
    /// page slabs without the per-page walk. For hot-path budget polls.
    pub fn shadow_resident_bytes(&self) -> usize {
        self.shadow.resident_bytes()
    }
    /// Allocated shadow pages (diagnostics).
    pub fn shadow_pages(&self) -> usize {
        self.shadow.page_count()
    }
    /// Lockset table bytes (metrics).
    pub fn lockset_table_bytes(&self) -> usize {
        self.locksets.approx_bytes()
    }

    fn ensure_thread(&mut self, t: ThreadId) {
        let t = t as usize;
        while self.vcs.len() <= t {
            self.vcs.push(initial_vc());
            self.locks_held.push(Vec::new());
            self.held_ids.push(LocksetId::EMPTY);
            self.grown.push(0);
        }
    }

    /// Note that `t`'s clock may have grown by a join: its shared-read
    /// entries pushed before now must prune again before they can take
    /// the restamp exit. Every join into a thread clock calls this, also
    /// where the thread then ticks (a spawned child, a DRD read-modify-
    /// write) and the tick alone would already change its next records.
    #[inline]
    fn clock_grew(&mut self, t: ThreadId) {
        self.grown[t as usize] = self.stamp;
    }

    /// Restart the stamp counter before it wraps (see
    /// [`ShadowTable::renumber_read_stamps`]). Every entry is blocked
    /// afterwards, so resetting the generations cannot create a hit.
    #[cold]
    fn renumber_stamps(&mut self) {
        self.stamp = self.shadow.renumber_read_stamps();
        self.grown.fill(0);
    }

    /// Promote `addr` to a synchronization location, seeding its release
    /// clock with the last writer's epoch (the partial edge for writes
    /// that happened before promotion). A sharded worker reads the seed
    /// from the precomputed table — its own shadow memory only covers the
    /// shards it owns.
    fn promote(&mut self, addr: u64) {
        if self.sync_loc.contains_key(&addr) {
            return;
        }
        let mut vc = VectorClock::new();
        match &self.worker {
            Some(w) => {
                if let Some(e) = w.seeds.seed(addr) {
                    vc.set(e.tid, e.clock);
                }
            }
            None => {
                if let Some(cell) = self.shadow.get(addr) {
                    if let Some(w) = &cell.last_write {
                        vc.set(w.tid, w.clock);
                    }
                }
            }
        }
        self.sync_loc.insert(addr, vc);
    }

    fn is_promoted(&self, addr: u64) -> bool {
        self.sync_loc.contains_key(&addr)
    }

    fn on_plain_read(&mut self, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        if !self.owns(addr) {
            return;
        }
        if self.stamp > u32::MAX - 2 {
            self.renumber_stamps();
        }
        let ti = tid as usize;
        let vc = &self.vcs[ti];
        let rec = AccessRecord {
            tid,
            clock: vc.get(tid),
            pc,
            stack,
        };
        let cell = self.shadow.cell(addr);
        // Race check: unordered prior write — one epoch compare against
        // the *borrowed* thread clock, never a clone.
        let racy_write = cell
            .last_write
            .filter(|w| !vc.covers(Epoch::new(w.tid, w.clock)));
        push_read(
            &mut cell.reads,
            rec,
            vc,
            self.grown[ti],
            &mut self.stamp,
            &mut self.read_counts,
        );
        // The report touches neither the read state nor the clocks, so
        // reporting after the fold (on the same cell) is the reference's
        // report-then-update.
        if let Some(w) = racy_write {
            let current = AccessSummary {
                tid,
                pc,
                stack,
                is_write: false,
            };
            report_hb(
                self.cfg,
                cell,
                &mut self.reports,
                self.worker.as_deref_mut(),
                addr,
                (w, true),
                current,
            );
        }
    }

    fn on_plain_write(&mut self, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        if !self.owns(addr) {
            return;
        }
        let ti = tid as usize;
        let rec = AccessRecord {
            tid,
            clock: self.vcs[ti].get(tid),
            pc,
            stack,
        };
        let vc = &self.vcs[ti];
        let has_lockset = self.cfg.has_lockset() && !self.locks_held[ti].is_empty();
        let cell = self.shadow.cell(addr);
        let racy_write = cell
            .last_write
            .filter(|w| !vc.covers(Epoch::new(w.tid, w.clock)));
        let is_racy_read = |t: u32, clock: u32| t != tid && !vc.covers(Epoch::new(t, clock));
        let any_racy_read = cell.reads.any(is_racy_read);

        if racy_write.is_none() && !any_racy_read {
            // Fast path (race-free write, including the same-epoch and
            // write-exclusive cases): no clones, no allocation, and at
            // most one page lookup.
            if has_lockset {
                let cur = self.held_ids[ti];
                eraser_update(
                    &mut self.locksets,
                    &mut self.reports,
                    self.worker.as_deref_mut(),
                    &mut cell.write_lockset,
                    addr,
                    cur,
                    tid,
                    pc,
                    stack,
                );
            }
            cell.last_write = Some(rec);
            cell.reads.clear();
            return;
        }

        // Slow path: copy the racy candidates into the persistent scratch
        // (no per-event allocation once warmed) and put them in arrival
        // order, report in the reference detector's order, then update —
        // all on the one cell looked up above.
        self.read_scratch.clear();
        self.read_scratch.extend(
            cell.reads
                .entries()
                .filter(|r| is_racy_read(r.tid, r.clock)),
        );
        self.read_scratch.sort_unstable_by_key(|r| r.stamp);
        let current = AccessSummary {
            tid,
            pc,
            stack,
            is_write: true,
        };
        let mut hb_reported = false;
        if let Some(w) = racy_write {
            hb_reported |= report_hb(
                self.cfg,
                cell,
                &mut self.reports,
                self.worker.as_deref_mut(),
                addr,
                (w, true),
                current,
            );
        }
        for r in &self.read_scratch {
            hb_reported |= report_hb(
                self.cfg,
                cell,
                &mut self.reports,
                self.worker.as_deref_mut(),
                addr,
                (r.record(), false),
                current,
            );
        }

        if has_lockset && !hb_reported {
            let cur = self.held_ids[ti];
            eraser_update(
                &mut self.locksets,
                &mut self.reports,
                self.worker.as_deref_mut(),
                &mut cell.write_lockset,
                addr,
                cur,
                tid,
                pc,
                stack,
            );
        }
        cell.last_write = Some(rec);
        cell.reads.clear();
    }

    /// Release into a promoted location: accumulate the writer's clock.
    fn release_sync_loc(&mut self, tid: ThreadId, addr: u64) {
        let vc = &self.vcs[tid as usize];
        self.sync_loc.get_mut(&addr).expect("promoted").join(vc);
        self.vcs[tid as usize].tick(tid);
    }

    fn acquire_sync_loc(&mut self, tid: ThreadId, addr: u64) {
        if let Some(lvc) = self.sync_loc.get(&addr) {
            self.vcs[tid as usize].join(lvc);
            self.clock_grew(tid);
        }
    }
}

/// Record an HB race of `prior` (a write when its flag is set) against
/// the `current` access to `cell`'s address, honouring the long-MSM
/// gating. Returns whether a race was **detected** (passed the MSM gate)
/// — deliberately *not* whether the collector kept it: the caller's
/// Eraser-stage gating must depend only on per-location state, never on
/// the global dedup/cap state, so that sharded parallel replay stays
/// order-independent.
fn report_hb(
    cfg: DetectorConfig,
    cell: &mut ShadowCell,
    reports: &mut ReportCollector,
    worker: Option<&mut WorkerState>,
    addr: u64,
    (prior, prior_is_write): (AccessRecord, bool),
    current: AccessSummary,
) -> bool {
    if let Some(MsmMode::Long) = cfg.msm() {
        cell.suspicions = cell.suspicions.saturating_add(1);
        if cell.suspicions < 2 {
            return false;
        }
    }
    let kind = match (prior_is_write, current.is_write) {
        (true, true) => RaceKind::WriteWrite,
        (true, false) => RaceKind::WriteRead,
        (false, true) => RaceKind::ReadWrite,
        (false, false) => unreachable!("read-read is never a race"),
    };
    emit_report(
        reports,
        worker,
        RaceReport {
            addr,
            prior: AccessSummary {
                tid: prior.tid,
                pc: prior.pc,
                stack: prior.stack,
                is_write: prior_is_write,
            },
            current,
            kind,
        },
    );
    true
}

/// Eraser stage of a plain write (hybrid only): intersect the cell's
/// running write lockset with the writer's current one; an empty
/// intersection across distinct threads is a lock-discipline violation
/// even if this interleaving happened to order the writes. Shared by the
/// fast and slow write paths so the two can never diverge. A sharded
/// worker additionally logs the intersection (by set contents) so the
/// merge can replay the sequential lockset table's evolution exactly.
#[allow(clippy::too_many_arguments)]
fn eraser_update(
    locksets: &mut LocksetTable,
    reports: &mut ReportCollector,
    mut worker: Option<&mut WorkerState>,
    write_lockset: &mut Option<(LocksetId, u32, Pc, u64)>,
    addr: u64,
    cur: LocksetId,
    tid: ThreadId,
    pc: Pc,
    stack: u64,
) {
    let new_state = match *write_lockset {
        None => (cur, tid, pc, stack),
        Some((prev_id, prev_tid, prev_pc, prev_stack)) => {
            if let Some(w) = worker.as_deref_mut() {
                // Log each distinct pair once: a memoized repeat would
                // replay as a pure no-op (`a == b` pairs never touch the
                // table at all).
                if prev_id != cur && !locksets.has_memo(prev_id, cur) {
                    w.log_lockset_op(LocksetOp::Intersect(
                        locksets.get(prev_id).to_vec(),
                        locksets.get(cur).to_vec(),
                    ));
                }
            }
            let inter = locksets.intersect(prev_id, cur);
            if prev_tid != tid && locksets.set_is_empty(inter) {
                emit_report(
                    reports,
                    worker,
                    RaceReport {
                        addr,
                        prior: AccessSummary {
                            tid: prev_tid,
                            pc: prev_pc,
                            stack: prev_stack,
                            is_write: true,
                        },
                        current: AccessSummary {
                            tid,
                            pc,
                            stack,
                            is_write: true,
                        },
                        kind: RaceKind::LocksetViolation,
                    },
                );
            }
            (inter, tid, pc, stack)
        }
    };
    *write_lockset = Some(new_state);
}

/// Plain reads counted by the read state their cell was in when they
/// arrived, plus the shared reads that took the restamp exit. Every
/// plain read, racy or not, lands in exactly one of the first three.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadPathCounts {
    /// Reads of a cell with no reads since its last write.
    pub empty: u64,
    /// Reads of a cell holding one inline record.
    pub exclusive: u64,
    /// Reads of a cell promoted to a read vector.
    pub shared: u64,
    /// Of `shared`: reads that only restamped the reader's entry.
    pub shared_exits: u64,
}

/// Fold a read into the adaptive read state, preserving the reference
/// detector's `retain`-then-`push` list semantics:
///
/// * `None` → the reader owns the cell (`Exclusive`);
/// * `Exclusive` whose record is ordered before the new read (same thread,
///   or covered by the reader's clock) → overwrite in place, O(1);
/// * `Exclusive` genuinely concurrent with the new read → promote to the
///   `Shared` vector (the only allocating transition);
/// * `Shared`, when the reader's entry already holds `rec`, was stamped
///   after the set last changed, and after the reader's clock last grew
///   (`grown`) → the prune would remove that entry alone, so the
///   retain-then-push only makes it the newest: restamp it, O(1) and with
///   no memory movement;
/// * any other `Shared` read → prune covered entries, insert the new
///   entry (newest stamp) at its thread's place, and mark the set changed
///   unless the prune removed only an identical entry of the reader's
///   own.
///
/// `stamp` is the detector's stamp counter; the caller keeps it at least
/// 2 below `u32::MAX`.
#[inline]
fn push_read(
    reads: &mut ReadState,
    rec: AccessRecord,
    vc: &VectorClock,
    grown: u32,
    stamp: &mut u32,
    counts: &mut ReadPathCounts,
) {
    match reads {
        ReadState::None => {
            counts.empty += 1;
            *reads = ReadState::Exclusive(rec);
        }
        ReadState::Exclusive(r) => {
            counts.exclusive += 1;
            if *r == rec {
                // Same epoch, same site: nothing changes.
            } else if r.tid == rec.tid || vc.covers(Epoch::new(r.tid, r.clock)) {
                *r = rec;
            } else {
                // `r`'s reader never pruned this set: its entry starts
                // at the marker, so it cannot take the exit.
                let first = ReadEntry::new(*r, *stamp + 1);
                let second = ReadEntry::new(rec, *stamp + 2);
                *stamp += 2;
                *reads = ReadState::Shared {
                    reads: if first.tid < second.tid {
                        vec![first, second]
                    } else {
                        vec![second, first]
                    },
                    changed: first.stamp,
                };
            }
        }
        ReadState::Shared { reads, changed } => {
            counts.shared += 1;
            // The reader's entry, if it already holds this record.
            let same = find_reader(reads, rec.tid).filter(|&i| reads[i].holds(&rec));
            if let Some(i) = same {
                let e = &mut reads[i];
                if e.stamp > *changed && e.stamp > grown {
                    counts.shared_exits += 1;
                    *stamp += 1;
                    e.stamp = *stamp;
                    return;
                }
            }
            let before = reads.len();
            reads.retain(|r| !vc.covers(Epoch::new(r.tid, r.clock)));
            // The reader's own entry is always covered, so an unchanged
            // set means exactly one removal, of an identical record.
            if !(same.is_some() && reads.len() + 1 == before) {
                *changed = *stamp;
            }
            *stamp += 1;
            let at = reads.partition_point(|e| e.tid < rec.tid);
            reads.insert(at, ReadEntry::new(rec, *stamp));
        }
    }
}

fn initial_vc() -> VectorClock {
    let mut vc = VectorClock::new();
    vc.set(0, 1);
    vc
}

impl EventSink for RaceDetector {
    fn on_event(&mut self, ev: &Event) {
        let index = self.events_seen;
        self.events_seen += 1;
        if let Some(w) = &mut self.worker {
            w.begin_event(index);
        }
        self.handle(ev);
    }
}

impl RaceDetector {
    /// The event cascade shared by the sequential path and sharded
    /// workers (which differ only in the ownership gate of the plain
    /// access handlers, the promotion seed source, and where reports and
    /// lockset ops land).
    fn handle(&mut self, ev: &Event) {
        match *ev {
            Event::Spawn { parent, child, .. } => {
                self.ensure_thread(parent);
                self.ensure_thread(child);
                let pvc = self.vcs[parent as usize].clone();
                let cvc = &mut self.vcs[child as usize];
                cvc.join(&pvc);
                cvc.tick(child);
                self.clock_grew(child);
                self.vcs[parent as usize].tick(parent);
            }
            Event::Join { parent, child, .. } => {
                self.ensure_thread(parent);
                self.ensure_thread(child);
                let cvc = self.vcs[child as usize].clone();
                self.vcs[parent as usize].join(&cvc);
                self.clock_grew(parent);
            }
            Event::ThreadEnd { .. } => {}

            Event::Read {
                tid,
                addr,
                pc,
                stack,
                atomic,
                spin,
                ..
            } => {
                self.ensure_thread(tid);
                // Spin feature: tagged condition reads promote & suppress.
                if self.cfg.spin && spin.is_some() {
                    self.promote(addr);
                    return;
                }
                // Promoted locations are synchronization state: exempt.
                if self.cfg.spin && self.is_promoted(addr) {
                    return;
                }
                // DRD: atomics are synchronization, not data.
                if self.cfg.atomics_sync {
                    if let Some(ord) = atomic {
                        if ord.acquires() {
                            if let Some(avc) = self.atomic_vc.get(&addr) {
                                self.vcs[tid as usize].join(avc);
                                self.clock_grew(tid);
                            }
                        }
                        return;
                    }
                }
                self.on_plain_read(tid, addr, pc, stack);
            }
            Event::Write {
                tid,
                addr,
                pc,
                stack,
                atomic,
                ..
            } => {
                self.ensure_thread(tid);
                if self.cfg.spin && self.is_promoted(addr) {
                    // Counterpart write to a sync location: release, no
                    // race check (synchronization-race suppression).
                    self.release_sync_loc(tid, addr);
                    return;
                }
                if self.cfg.atomics_sync {
                    if let Some(ord) = atomic {
                        if ord.releases() {
                            let vc = &self.vcs[tid as usize];
                            self.atomic_vc.entry(addr).or_default().join(vc);
                            self.vcs[tid as usize].tick(tid);
                        }
                        return;
                    }
                }
                self.on_plain_write(tid, addr, pc, stack);
            }
            Event::Update {
                tid,
                addr,
                pc,
                stack,
                ..
            } => {
                self.ensure_thread(tid);
                if self.cfg.spin {
                    // Atomic RMW = machine-visible sync candidate: promote,
                    // acquire + release (arrival-counter pattern).
                    self.promote(addr);
                    self.acquire_sync_loc(tid, addr);
                    self.release_sync_loc(tid, addr);
                    return;
                }
                if self.cfg.atomics_sync {
                    // Acquire + release through one map probe.
                    let avc = self.atomic_vc.entry(addr).or_default();
                    self.vcs[tid as usize].join(avc);
                    avc.join(&self.vcs[tid as usize]);
                    self.vcs[tid as usize].tick(tid);
                    self.clock_grew(tid);
                    return;
                }
                // Library-knowledge-only hybrid: an RMW is just a plain
                // read+write — the source of its ad-hoc-atomics floods.
                self.on_plain_read(tid, addr, pc, stack);
                self.on_plain_write(tid, addr, pc, stack);
            }
            Event::Fence { .. } => {}

            Event::MutexLock { tid, mutex, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(mvc) = self.mutex_vc.get(&mutex) {
                        self.vcs[tid as usize].join(mvc);
                        self.clock_grew(tid);
                    }
                    let held = &mut self.locks_held[tid as usize];
                    if let Err(i) = held.binary_search(&mutex) {
                        held.insert(i, mutex);
                    }
                    self.log_base_intern(tid);
                    self.held_ids[tid as usize] = self
                        .locksets
                        .intern_presorted(&self.locks_held[tid as usize]);
                }
            }
            Event::MutexUnlock { tid, mutex, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = &self.vcs[tid as usize];
                    self.mutex_vc.entry(mutex).or_default().join(vc);
                    self.vcs[tid as usize].tick(tid);
                    let held = &mut self.locks_held[tid as usize];
                    if let Ok(i) = held.binary_search(&mutex) {
                        held.remove(i);
                    }
                    self.log_base_intern(tid);
                    self.held_ids[tid as usize] = self
                        .locksets
                        .intern_presorted(&self.locks_held[tid as usize]);
                }
            }
            Event::CondSignal { tid, cv, .. } | Event::CondBroadcast { tid, cv, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = &self.vcs[tid as usize];
                    self.cv_vc.entry(cv).or_default().join(vc);
                    self.vcs[tid as usize].tick(tid);
                }
            }
            Event::CondWaitReturn { tid, cv, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(cvc) = self.cv_vc.get(&cv) {
                        self.vcs[tid as usize].join(cvc);
                        self.clock_grew(tid);
                    }
                }
            }
            Event::BarrierEnter {
                tid, barrier, gen, ..
            } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = &self.vcs[tid as usize];
                    self.barrier_vc.entry((barrier, gen)).or_default().join(vc);
                    self.vcs[tid as usize].tick(tid);
                }
            }
            Event::BarrierLeave {
                tid, barrier, gen, ..
            } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(bvc) = self.barrier_vc.get(&(barrier, gen)) {
                        self.vcs[tid as usize].join(bvc);
                        self.clock_grew(tid);
                    }
                }
            }
            Event::SemPost { tid, sem, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = &self.vcs[tid as usize];
                    self.sem_vc.entry(sem).or_default().join(vc);
                    self.vcs[tid as usize].tick(tid);
                }
            }
            Event::SemAcquired { tid, sem, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(svc) = self.sem_vc.get(&sem) {
                        self.vcs[tid as usize].join(svc);
                        self.clock_grew(tid);
                    }
                }
            }

            Event::SpinEnter { .. } => {}
            Event::SpinExit { tid, ref reads, .. } => {
                self.ensure_thread(tid);
                if self.cfg.spin {
                    // The happens-before edge from the counterpart write to
                    // the loop exit: acquire every final-iteration read.
                    for &(addr, _) in reads {
                        self.acquire_sync_loc(tid, addr);
                    }
                }
            }
            Event::Output { .. } => {}
        }
    }
}

/// Convenience used by tests & metrics: does `ord` release?
pub fn releases(ord: MemOrder) -> bool {
    ord.releases()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use spinrace_tir::{BlockId, FuncId};

    fn pc(n: u32) -> Pc {
        Pc::new(FuncId(0), BlockId(0), n)
    }

    fn spawn(det: &mut RaceDetector, parent: u32, child: u32) {
        det.on_event(&Event::Spawn {
            parent,
            child,
            pc: pc(0),
        });
    }

    fn write(det: &mut RaceDetector, tid: u32, addr: u64, at: u32) {
        det.on_event(&Event::Write {
            tid,
            addr,
            value: 1,
            pc: pc(at),
            stack: 0,
            atomic: None,
        });
    }

    fn read(det: &mut RaceDetector, tid: u32, addr: u64, at: u32) {
        det.on_event(&Event::Read {
            tid,
            addr,
            value: 0,
            pc: pc(at),
            stack: 0,
            atomic: None,
            spin: None,
        });
    }

    #[test]
    fn unordered_writes_race() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        write(&mut d, 1, 0x1000, 1);
        write(&mut d, 2, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn spawn_orders_parent_before_child() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        write(&mut d, 0, 0x1000, 1);
        spawn(&mut d, 0, 1);
        read(&mut d, 1, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 0);
    }

    #[test]
    fn join_orders_child_before_parent() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        write(&mut d, 1, 0x1000, 1);
        d.on_event(&Event::Join {
            parent: 0,
            child: 1,
            pc: pc(9),
        });
        read(&mut d, 0, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 0);
    }

    #[test]
    fn unjoined_child_write_races_with_parent_read() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        write(&mut d, 1, 0x1000, 1);
        read(&mut d, 0, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn mutex_edges_order_critical_sections() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let mu = 0x2000;
        d.on_event(&Event::MutexLock {
            tid: 1,
            mutex: mu,
            pc: pc(1),
        });
        write(&mut d, 1, 0x1000, 2);
        d.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: mu,
            pc: pc(3),
        });
        d.on_event(&Event::MutexLock {
            tid: 2,
            mutex: mu,
            pc: pc(4),
        });
        write(&mut d, 2, 0x1000, 5);
        d.on_event(&Event::MutexUnlock {
            tid: 2,
            mutex: mu,
            pc: pc(6),
        });
        assert_eq!(d.racy_contexts(), 0);
    }

    #[test]
    fn nolib_ignores_mutex_events() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_nolib_spin(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let mu = 0x2000;
        d.on_event(&Event::MutexLock {
            tid: 1,
            mutex: mu,
            pc: pc(1),
        });
        write(&mut d, 1, 0x1000, 2);
        d.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: mu,
            pc: pc(3),
        });
        d.on_event(&Event::MutexLock {
            tid: 2,
            mutex: mu,
            pc: pc(4),
        });
        write(&mut d, 2, 0x1000, 5);
        assert_eq!(d.racy_contexts(), 1, "library knowledge removed");
    }

    #[test]
    fn spin_promotion_suppresses_and_orders() {
        // T1: data=1; flag=1.   T2: spin-reads flag, exits, reads data.
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib_spin(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let (data, flag) = (0x1000, 0x1001);
        // T2 spins first (reads 0), promoting flag.
        d.on_event(&Event::Read {
            tid: 2,
            addr: flag,
            value: 0,
            pc: pc(10),
            stack: 0,
            atomic: None,
            spin: Some(spinrace_tir::SpinLoopId(0)),
        });
        write(&mut d, 1, data, 1);
        write(&mut d, 1, flag, 2); // counterpart write: release, no check
        d.on_event(&Event::Read {
            tid: 2,
            addr: flag,
            value: 1,
            pc: pc(10),
            stack: 0,
            atomic: None,
            spin: Some(spinrace_tir::SpinLoopId(0)),
        });
        d.on_event(&Event::SpinExit {
            tid: 2,
            spin: spinrace_tir::SpinLoopId(0),
            reads: vec![(flag, pc(10))],
        });
        read(&mut d, 2, data, 11);
        assert_eq!(d.racy_contexts(), 0, "both sync and apparent race gone");
        assert_eq!(d.promoted_locations(), 1);
    }

    #[test]
    fn without_spin_the_same_trace_floods() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let (data, flag) = (0x1000, 0x1001);
        read(&mut d, 2, flag, 10); // spin read seen as plain
        write(&mut d, 1, data, 1);
        write(&mut d, 1, flag, 2);
        read(&mut d, 2, flag, 10);
        read(&mut d, 2, data, 11);
        // flag: read-write + write-read context(s); data: write-read.
        assert!(d.racy_contexts() >= 2);
    }

    #[test]
    fn update_is_sync_with_spin_feature() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib_spin(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let (data, cnt) = (0x1000, 0x1001);
        write(&mut d, 1, data, 1);
        d.on_event(&Event::Update {
            tid: 1,
            addr: cnt,
            old: 0,
            new: 1,
            pc: pc(2),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        d.on_event(&Event::Update {
            tid: 2,
            addr: cnt,
            old: 1,
            new: 2,
            pc: pc(3),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        read(&mut d, 2, data, 4);
        assert_eq!(d.racy_contexts(), 0, "RMW chain carries the clock");
    }

    #[test]
    fn update_floods_without_spin_or_atomics() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let cnt = 0x1001;
        d.on_event(&Event::Update {
            tid: 1,
            addr: cnt,
            old: 0,
            new: 1,
            pc: pc(2),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        d.on_event(&Event::Update {
            tid: 2,
            addr: cnt,
            old: 1,
            new: 2,
            pc: pc(3),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        assert!(d.racy_contexts() >= 1, "lib-only hybrid flags RMW pairs");
    }

    #[test]
    fn drd_handles_atomics_but_not_plain_flags() {
        let mut d = RaceDetector::new(DetectorConfig::drd());
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let (data, cnt, flag) = (0x1000, 0x1001, 0x1002);
        // atomic chain: fine
        write(&mut d, 1, data, 1);
        d.on_event(&Event::Update {
            tid: 1,
            addr: cnt,
            old: 0,
            new: 1,
            pc: pc(2),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        d.on_event(&Event::Update {
            tid: 2,
            addr: cnt,
            old: 1,
            new: 2,
            pc: pc(3),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        read(&mut d, 2, data, 4);
        assert_eq!(d.racy_contexts(), 0);
        // plain flag handoff: DRD floods (no spin knowledge)
        write(&mut d, 1, flag, 5);
        read(&mut d, 2, flag, 6);
        assert_eq!(d.racy_contexts(), 1);
    }

    #[test]
    fn lockset_violation_catches_hb_hidden_race() {
        // T1 writes x under m1; unrelated sync orders T2 after T1; T2
        // writes x under m2. Pure HB is silent; the hybrid's Eraser stage
        // reports a lockset violation.
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        let x = 0x1000;
        let (m1, m2, m3) = (0x2000, 0x2001, 0x2002);
        d.on_event(&Event::MutexLock {
            tid: 0,
            mutex: m1,
            pc: pc(1),
        });
        write(&mut d, 0, x, 2);
        d.on_event(&Event::MutexUnlock {
            tid: 0,
            mutex: m1,
            pc: pc(3),
        });
        // ordering through unrelated mutex m3
        d.on_event(&Event::MutexLock {
            tid: 0,
            mutex: m3,
            pc: pc(4),
        });
        d.on_event(&Event::MutexUnlock {
            tid: 0,
            mutex: m3,
            pc: pc(5),
        });
        d.on_event(&Event::MutexLock {
            tid: 1,
            mutex: m3,
            pc: pc(6),
        });
        d.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: m3,
            pc: pc(7),
        });
        d.on_event(&Event::MutexLock {
            tid: 1,
            mutex: m2,
            pc: pc(8),
        });
        write(&mut d, 1, x, 9);
        d.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: m2,
            pc: pc(10),
        });
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::LocksetViolation);
        // DRD on the same trace: silent (this is a DRD "missed race").
        let mut drd = RaceDetector::new(DetectorConfig::drd());
        // replay
        spawn(&mut drd, 0, 1);
        drd.on_event(&Event::MutexLock {
            tid: 0,
            mutex: m1,
            pc: pc(1),
        });
        write(&mut drd, 0, x, 2);
        drd.on_event(&Event::MutexUnlock {
            tid: 0,
            mutex: m1,
            pc: pc(3),
        });
        drd.on_event(&Event::MutexLock {
            tid: 0,
            mutex: m3,
            pc: pc(4),
        });
        drd.on_event(&Event::MutexUnlock {
            tid: 0,
            mutex: m3,
            pc: pc(5),
        });
        drd.on_event(&Event::MutexLock {
            tid: 1,
            mutex: m3,
            pc: pc(6),
        });
        drd.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: m3,
            pc: pc(7),
        });
        drd.on_event(&Event::MutexLock {
            tid: 1,
            mutex: m2,
            pc: pc(8),
        });
        write(&mut drd, 1, x, 9);
        drd.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: m2,
            pc: pc(10),
        });
        assert_eq!(drd.racy_contexts(), 0);
    }

    #[test]
    fn cv_handoff_has_no_lockset_false_positive() {
        // Producer/consumer with CV ordering and lock-free data writes —
        // the hybrid must stay silent (writers hold no locks).
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        let (data, cv) = (0x1000, 0x3000);
        write(&mut d, 0, data, 1);
        d.on_event(&Event::CondSignal {
            tid: 0,
            cv,
            pc: pc(2),
        });
        d.on_event(&Event::CondWaitReturn {
            tid: 1,
            cv,
            mutex: 0x2000,
            pc: pc(3),
        });
        write(&mut d, 1, data, 4);
        assert_eq!(d.racy_contexts(), 0);
    }

    #[test]
    fn long_msm_requires_second_confirmation() {
        let short = {
            let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
            spawn(&mut d, 0, 1);
            spawn(&mut d, 0, 2);
            write(&mut d, 1, 0x1000, 1);
            write(&mut d, 2, 0x1000, 2);
            d.racy_contexts()
        };
        assert_eq!(short, 1);
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Long));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        write(&mut d, 1, 0x1000, 1);
        write(&mut d, 2, 0x1000, 2); // first suspicion: silent
        assert_eq!(d.racy_contexts(), 0);
        write(&mut d, 1, 0x1000, 1); // second unordered pair: reported
        assert_eq!(d.racy_contexts(), 1);
    }

    #[test]
    fn barrier_events_give_all_to_all_ordering() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let (a, b) = (0x1000, 0x1001);
        write(&mut d, 1, a, 1);
        write(&mut d, 2, b, 2);
        for t in [1, 2] {
            d.on_event(&Event::BarrierEnter {
                tid: t,
                barrier: 0x4000,
                gen: 0,
                pc: pc(3),
            });
        }
        for t in [1, 2] {
            d.on_event(&Event::BarrierLeave {
                tid: t,
                barrier: 0x4000,
                gen: 0,
                pc: pc(4),
            });
        }
        read(&mut d, 1, b, 5);
        read(&mut d, 2, a, 6);
        assert_eq!(d.racy_contexts(), 0);
    }

    fn lock(det: &mut RaceDetector, tid: u32, mutex: u64, unlock: bool) {
        det.on_event(&if unlock {
            Event::MutexUnlock {
                tid,
                mutex,
                pc: pc(50),
            }
        } else {
            Event::MutexLock {
                tid,
                mutex,
                pc: pc(51),
            }
        });
    }

    #[test]
    fn read_counts_follow_the_read_state() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let x = 0x1000;
        read(&mut d, 1, x, 1); // empty → exclusive
        read(&mut d, 1, x, 1); // same epoch
        read(&mut d, 2, x, 2); // promotes; 1's entry starts blocked
        read(&mut d, 1, x, 1); // prunes only itself: set unchanged
        read(&mut d, 1, x, 1); // exit
        read(&mut d, 2, x, 2); // exit
        lock(&mut d, 2, 0x2000, true);
        lock(&mut d, 1, 0x2000, false); // 1's clock grew: now covers 2's read
        read(&mut d, 1, x, 1); // prunes 2's entry too
        read(&mut d, 2, x, 2); // new entry: set changed
        read(&mut d, 2, x, 2); // exit
        read(&mut d, 1, x, 1); // its entry predates 2's: prunes again
        read(&mut d, 1, x, 1); // exit
        read(&mut d, 2, x, 2); // exit
        read(&mut d, 1, x, 1); // exit: 1 is newest, though stored first
        write(&mut d, 0, x, 3); // races with both readers, clears the set
        read(&mut d, 1, x, 1); // still a (now empty) vector
        assert_eq!(
            d.read_counts(),
            ReadPathCounts {
                empty: 1,
                exclusive: 2,
                shared: 11,
                shared_exits: 6,
            }
        );
        let kinds: Vec<(u32, RaceKind)> = d
            .reports()
            .reports()
            .iter()
            .map(|r| (r.prior.tid, r.kind))
            .collect();
        // Reads are reported in arrival order, not storage order; the
        // last read then races with the write.
        assert_eq!(
            kinds,
            [
                (2, RaceKind::ReadWrite),
                (1, RaceKind::ReadWrite),
                (0, RaceKind::WriteRead)
            ]
        );
    }

    #[test]
    fn stamp_counter_renumbers_before_it_wraps() {
        let cfg = DetectorConfig::helgrind_lib(MsmMode::Long);
        let mut d = RaceDetector::new(cfg);
        let mut reference = crate::ReferenceDetector::new(cfg);
        let mut both = |d: &mut RaceDetector, ev: Event| {
            d.on_event(&ev);
            reference.on_event(&ev);
        };
        for t in 1..4 {
            both(
                &mut d,
                Event::Spawn {
                    parent: 0,
                    child: t,
                    pc: pc(0),
                },
            );
        }
        d.stamp = u32::MAX - 40;
        let rd = |tid, addr| Event::Read {
            tid,
            addr,
            value: 0,
            pc: pc(tid),
            stack: 0,
            atomic: None,
            spin: None,
        };
        for round in 0..30u64 {
            for t in [3, 1, 2] {
                both(&mut d, rd(t, 0x1000 + round % 2));
            }
            if round % 7 == 6 {
                let w = Event::Write {
                    tid: (round % 3) as u32 + 1,
                    addr: 0x1000,
                    value: 1,
                    pc: pc(9),
                    stack: 0,
                    atomic: None,
                };
                both(&mut d, w);
            }
        }
        assert!(d.stamp < 1000, "the counter restarted low: {}", d.stamp);
        assert!(d.read_counts().shared_exits > 0);
        assert_eq!(d.reports().reports(), reference.reports().reports());
        assert!(d.racy_contexts() > 0);
    }

    #[test]
    fn context_cap_saturates_at_configured_value() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short).with_cap(5));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        for i in 0..20 {
            write(&mut d, 1, 0x1000 + i, i as u32);
            write(&mut d, 2, 0x1000 + i, 100 + i as u32);
        }
        assert_eq!(d.racy_contexts(), 5);
        assert!(d.reports().dropped() > 0);
    }
}
