//! Shadow memory: per-address access history.
//!
//! Two representation choices keep the per-access hot path allocation-free
//! and cache-friendly:
//!
//! * **Adaptive read state** ([`ReadState`]) — FastTrack's insight that
//!   most locations are only ever read by one thread at a time (or by
//!   threads that are ordered). Such locations keep a single inline
//!   [`AccessRecord`]; only a *genuinely concurrent* second reader promotes
//!   the cell to a heap-allocated read vector. Its entries carry arrival
//!   stamps in the record's padding, so a reader re-reading with nothing
//!   new to prune moves its entry to the end by restamping it.
//! * **Paged, sharded table** ([`ShadowTable`]) — instead of one SipHash
//!   `HashMap<addr, cell>` lookup per access, addresses map to 64-cell
//!   pages; pages live in per-shard arenas indexed by a flat open-addressed
//!   probe table keyed on the page number, fronted by a one-entry hot-page
//!   cache (spatial locality makes consecutive accesses hit the same page).
//!   Sharding by low page bits keeps probe tables small and is the seam a
//!   future parallel-replay PR will split work along.

use crate::lockset::LocksetId;
use spinrace_tir::Pc;

/// One recorded access: a FastTrack-style epoch plus its static site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRecord {
    /// Accessing thread.
    pub tid: u32,
    /// That thread's clock component at access time.
    pub clock: u32,
    /// Static location.
    pub pc: Pc,
    /// Call-chain hash (Helgrind-style context).
    pub stack: u64,
}

/// One entry of a promoted read vector: an [`AccessRecord`] plus its
/// arrival stamp, which fills the record's four padding bytes (the entry
/// is exactly as large as the record).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadEntry {
    /// Reading thread.
    pub tid: u32,
    /// That thread's clock component at read time.
    pub clock: u32,
    /// Static location.
    pub pc: Pc,
    /// Arrival stamp: entries of one vector are in arrival order when
    /// sorted by stamp. Drawn from the detector's stamp counter, so
    /// stamps of one vector are distinct.
    pub stamp: u32,
    /// Call-chain hash (Helgrind-style context).
    pub stack: u64,
}

const _: () = assert!(std::mem::size_of::<ReadEntry>() == std::mem::size_of::<AccessRecord>());

impl ReadEntry {
    /// `rec`, arrived at `stamp`.
    #[inline]
    pub fn new(rec: AccessRecord, stamp: u32) -> ReadEntry {
        ReadEntry {
            tid: rec.tid,
            clock: rec.clock,
            pc: rec.pc,
            stamp,
            stack: rec.stack,
        }
    }

    /// The record, without its stamp.
    #[inline]
    pub fn record(&self) -> AccessRecord {
        AccessRecord {
            tid: self.tid,
            clock: self.clock,
            pc: self.pc,
            stack: self.stack,
        }
    }

    /// Does this entry hold exactly `rec` (stamp aside)?
    #[inline]
    pub fn holds(&self, rec: &AccessRecord) -> bool {
        self.tid == rec.tid
            && self.clock == rec.clock
            && self.pc == rec.pc
            && self.stack == rec.stack
    }
}

/// Reads since the last write that are still concurrent-relevant.
///
/// `Exclusive` is the epoch fast path: one inline record, overwritten in
/// place while successive readers are ordered. The first pair of genuinely
/// concurrent reads promotes to `Shared`, which holds the same set of
/// records as the reference detector's read vector (covered entries pruned
/// lazily), at most one per thread.
///
/// In `Shared`, the reference's *order* is carried by the entries'
/// arrival stamps, not by their positions: moving an entry to the end of
/// the reference vector is a new stamp, with no memory movement. The
/// entries are stored sorted by thread, so a reader finds its own entry
/// in O(1) when the cell's readers are consecutive threads (the usual
/// case: a hot word read by every worker) and in O(log readers)
/// otherwise.
///
/// `changed` is the stamp counter's value at the last change of the
/// *set* of records. An entry whose stamp is above it was pushed (after
/// pruning) by a reader that has seen every record since; if that
/// reader's clock has not grown since either, its next identical read
/// prunes nothing but its own entry, so it only restamps the entry. A
/// re-push of an identical record leaves the set, and `changed`, as they
/// were.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ReadState {
    /// No reads since the last write.
    #[default]
    None,
    /// All reads so far were ordered: only the latest matters.
    Exclusive(AccessRecord),
    /// Concurrent readers: the full vector (arrival order = stamp order).
    Shared {
        /// The live entries, sorted by thread.
        reads: Vec<ReadEntry>,
        /// Stamp counter value at the last change of the set of records.
        changed: u32,
    },
}

/// Position of `tid`'s entry in a promoted read vector (sorted by
/// thread, one entry per thread). The first guess assumes the readers
/// are consecutive threads; otherwise a binary search.
#[inline]
pub(crate) fn find_reader(reads: &[ReadEntry], tid: u32) -> Option<usize> {
    let guess = tid.wrapping_sub(reads.first()?.tid) as usize;
    match reads.get(guess) {
        Some(e) if e.tid == tid => Some(guess),
        _ => reads.binary_search_by_key(&tid, |e| e.tid).ok(),
    }
}

impl ReadState {
    /// The live records with their arrival stamps, in storage order (an
    /// exclusive record has stamp 0). Sorting by stamp gives the order of
    /// the reference detector's `reads` vector.
    #[inline]
    pub fn entries(&self) -> impl Iterator<Item = ReadEntry> + '_ {
        let (one, many): (Option<&AccessRecord>, &[ReadEntry]) = match self {
            ReadState::None => (None, &[]),
            ReadState::Exclusive(r) => (Some(r), &[]),
            ReadState::Shared { reads, .. } => (None, reads),
        };
        one.map(|r| ReadEntry::new(*r, 0))
            .into_iter()
            .chain(many.iter().copied())
    }

    /// Does any live record, given as `(tid, clock)`, satisfy `f`?
    #[inline]
    pub fn any(&self, mut f: impl FnMut(u32, u32) -> bool) -> bool {
        match self {
            ReadState::None => false,
            ReadState::Exclusive(r) => f(r.tid, r.clock),
            ReadState::Shared { reads, .. } => reads.iter().any(|e| f(e.tid, e.clock)),
        }
    }

    /// Drop all records. A promoted cell keeps its vector's capacity (the
    /// location proved it attracts concurrent readers once already).
    #[inline]
    pub fn clear(&mut self) {
        match self {
            ReadState::None => {}
            ReadState::Exclusive(_) => *self = ReadState::None,
            ReadState::Shared { reads, .. } => reads.clear(),
        }
    }

    /// Is the state promoted to a read vector?
    pub fn is_shared(&self) -> bool {
        matches!(self, ReadState::Shared { .. })
    }

    /// Heap bytes retained beyond the inline enum (memory metrics).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        match self {
            ReadState::Shared { reads, .. } => reads.capacity() * std::mem::size_of::<ReadEntry>(),
            _ => 0,
        }
    }

    /// Renumber a read vector's stamps to `1..=len`, keeping their order,
    /// and mark its set changed so that no entry can take the restamp
    /// exit before its reader prunes again. Returns the largest stamp
    /// now in use (0 when not promoted).
    fn renumber(&mut self) -> u32 {
        match self {
            ReadState::Shared { reads, changed } => {
                reads.sort_unstable_by_key(|e| e.stamp);
                for (e, s) in reads.iter_mut().zip(1..) {
                    e.stamp = s;
                }
                reads.sort_unstable_by_key(|e| e.tid);
                *changed = reads.len() as u32;
                *changed
            }
            _ => 0,
        }
    }
}

/// The shadow cell of one memory word.
#[derive(Clone, Debug, Default)]
pub struct ShadowCell {
    /// Most recent write.
    pub last_write: Option<AccessRecord>,
    /// Reads since the last write (adaptive representation).
    pub reads: ReadState,
    /// Eraser stage: intersection of locksets over lock-holding writes,
    /// with the last such writer, site, and stack context.
    pub write_lockset: Option<(LocksetId, u32, Pc, u64)>,
    /// Long-MSM suspicion counter (see `MsmMode::Long`).
    pub suspicions: u8,
}

impl ShadowCell {
    /// Approximate retained bytes (memory metrics): inline size plus any
    /// promoted read vector.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<ShadowCell>() + self.reads.heap_bytes()
    }

    /// Has this cell recorded anything at all?
    pub fn is_untouched(&self) -> bool {
        self.last_write.is_none()
            && matches!(self.reads, ReadState::None)
            && self.write_lockset.is_none()
            && self.suspicions == 0
    }
}

/// Cells per page (one 64-word span of the VM's word-granular address
/// space — globals and heap allocations are dense, so pages fill up).
pub const PAGE_CELLS: usize = 64;
const PAGE_BITS: u32 = PAGE_CELLS.trailing_zeros();

/// Number of shards (low page-number bits pick the shard). This is the
/// partition seam parallel replay splits work along: a worker that owns a
/// subset of shards builds a table whose owned shards are structurally
/// identical to the sequential table's (same pages, same insertion order,
/// same probe capacities), while unowned shards stay unallocated.
pub const NUM_SHARDS: usize = 8;
const SHARD_MASK: u64 = (NUM_SHARDS as u64) - 1;

/// The shard an address's shadow cell lives in.
#[inline]
pub fn shard_of(addr: u64) -> usize {
    ((addr >> PAGE_BITS) & SHARD_MASK) as usize
}

/// Initial probe-table capacity per shard (slots; power of two).
const INITIAL_SLOTS: usize = 16;

/// One shadow page: the cells of 64 consecutive addresses.
#[derive(Clone, Debug)]
pub struct Page {
    /// The cells, indexed by `addr & (PAGE_CELLS - 1)`.
    pub cells: Box<[ShadowCell]>,
}

impl Page {
    fn new() -> Page {
        Page {
            cells: (0..PAGE_CELLS).map(|_| ShadowCell::default()).collect(),
        }
    }

    /// Retained bytes of this page (slab plus promoted read vectors).
    pub fn approx_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<ShadowCell>()
            + self
                .cells
                .iter()
                .map(|c| c.reads.heap_bytes())
                .sum::<usize>()
    }
}

/// One shard: a flat open-addressed index (page number → arena slot) plus
/// the page arena itself.
#[derive(Clone, Debug, Default)]
struct Shard {
    /// Probe keys: `page_number + 1`, 0 marks an empty slot. Power-of-two
    /// length, linear probing, grown at 75% load.
    keys: Vec<u64>,
    /// Parallel to `keys`: arena index of the page.
    slots: Vec<u32>,
    /// Page arena (never shrinks; insertion order).
    pages: Vec<Page>,
}

/// Fibonacci-style multiplicative mix spreading sequential page numbers
/// across the probe table.
#[inline]
fn mix(page: u64) -> usize {
    (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
}

impl Shard {
    /// Slot of `page` in the probe table: its current position, or the
    /// empty position where it would be inserted.
    #[inline]
    fn probe(&self, page: u64) -> usize {
        let mask = self.keys.len() - 1;
        let key = page + 1;
        let mut i = mix(page) & mask;
        loop {
            let k = self.keys[i];
            if k == 0 || k == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn find(&self, page: u64) -> Option<u32> {
        if self.keys.is_empty() {
            return None;
        }
        let i = self.probe(page);
        (self.keys[i] != 0).then(|| self.slots[i])
    }

    fn find_or_insert(&mut self, page: u64) -> u32 {
        if self.keys.is_empty() {
            self.keys = vec![0; INITIAL_SLOTS];
            self.slots = vec![0; INITIAL_SLOTS];
        } else if (self.pages.len() + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let i = self.probe(page);
        if self.keys[i] != 0 {
            return self.slots[i];
        }
        let slot = self.pages.len() as u32;
        self.pages.push(Page::new());
        self.keys[i] = page + 1;
        self.slots[i] = slot;
        slot
    }

    fn grow(&mut self) {
        let new_len = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_len]);
        let old_slots = std::mem::replace(&mut self.slots, vec![0; new_len]);
        for (k, s) in old_keys.into_iter().zip(old_slots) {
            if k != 0 {
                let i = self.probe(k - 1);
                self.keys[i] = k;
                self.slots[i] = s;
            }
        }
    }
}

/// The flat, sharded shadow table: address → page of cells.
#[derive(Clone, Debug)]
pub struct ShadowTable {
    shards: Vec<Shard>,
    /// Hot-page cache: page number of the most recently used page
    /// (`u64::MAX` = none) and its (shard, arena slot).
    cache_page: u64,
    cache_shard: u32,
    cache_slot: u32,
}

impl Default for ShadowTable {
    fn default() -> Self {
        ShadowTable::new()
    }
}

impl ShadowTable {
    /// Empty table; nothing is allocated until the first access.
    pub fn new() -> ShadowTable {
        ShadowTable {
            shards: (0..NUM_SHARDS).map(|_| Shard::default()).collect(),
            cache_page: u64::MAX,
            cache_shard: 0,
            cache_slot: 0,
        }
    }

    /// The cell of `addr`, creating its page on demand. The common case —
    /// another access to the most recently used page — is two compares and
    /// an index.
    #[inline]
    pub fn cell(&mut self, addr: u64) -> &mut ShadowCell {
        let page = addr >> PAGE_BITS;
        let off = (addr as usize) & (PAGE_CELLS - 1);
        if page == self.cache_page {
            return &mut self.shards[self.cache_shard as usize].pages[self.cache_slot as usize]
                .cells[off];
        }
        self.cell_cold(page, off)
    }

    #[cold]
    fn cell_cold(&mut self, page: u64, off: usize) -> &mut ShadowCell {
        let si = (page & SHARD_MASK) as usize;
        let slot = self.shards[si].find_or_insert(page);
        self.cache_page = page;
        self.cache_shard = si as u32;
        self.cache_slot = slot;
        &mut self.shards[si].pages[slot as usize].cells[off]
    }

    /// The cell of `addr` if its page exists (no creation).
    #[inline]
    pub fn get(&self, addr: u64) -> Option<&ShadowCell> {
        let page = addr >> PAGE_BITS;
        let off = (addr as usize) & (PAGE_CELLS - 1);
        if page == self.cache_page {
            return Some(
                &self.shards[self.cache_shard as usize].pages[self.cache_slot as usize].cells[off],
            );
        }
        let si = (page & SHARD_MASK) as usize;
        let slot = self.shards[si].find(page)?;
        Some(&self.shards[si].pages[slot as usize].cells[off])
    }

    /// Renumber the arrival stamps of every read vector to `1..=len`
    /// (order kept) and block every restamp exit until its reader prunes
    /// again; see [`ReadState`]. Returns the largest stamp still in use,
    /// from which the stamp counter restarts. O(allocated pages): called
    /// only when the counter would otherwise wrap.
    pub(crate) fn renumber_read_stamps(&mut self) -> u32 {
        self.shards
            .iter_mut()
            .flat_map(|s| s.pages.iter_mut())
            .flat_map(|p| p.cells.iter_mut())
            .map(|c| c.reads.renumber())
            .max()
            .unwrap_or(0)
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.pages.len()).sum()
    }

    /// Retained bytes: probe tables, arena headers, page slabs, and
    /// promoted read vectors — the honest cost of the paged layout
    /// (untouched cells inside an allocated page are real memory too).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.shards
            .iter()
            .map(|s| {
                s.keys.capacity() * size_of::<u64>()
                    + s.slots.capacity() * size_of::<u32>()
                    + s.pages.capacity() * size_of::<Page>()
                    + s.pages.iter().map(|p| p.approx_bytes()).sum::<usize>()
            })
            .sum()
    }

    /// Cheap lower bound on retained bytes: probe tables and page slabs
    /// only, skipping the per-page walk over promoted read vectors that
    /// [`approx_bytes`](ShadowTable::approx_bytes) pays for. O(shards),
    /// suitable for polling on the replay hot path (budget checks).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.shards
            .iter()
            .map(|s| {
                s.keys.capacity() * size_of::<u64>()
                    + s.slots.capacity() * size_of::<u32>()
                    + s.pages.capacity() * size_of::<Page>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::{BlockId, FuncId};

    fn rec(tid: u32, clock: u32) -> AccessRecord {
        AccessRecord {
            tid,
            clock,
            pc: Pc::new(FuncId(0), BlockId(0), 0),
            stack: 0,
        }
    }

    /// The live records, oldest first: the reference detector's `reads`
    /// vector.
    fn records(r: &ReadState) -> Vec<AccessRecord> {
        let mut v: Vec<ReadEntry> = r.entries().collect();
        v.sort_unstable_by_key(|e| e.stamp);
        v.iter().map(ReadEntry::record).collect()
    }

    fn shared(entries: &[(AccessRecord, u32)], changed: u32) -> ReadState {
        ReadState::Shared {
            reads: entries.iter().map(|&(r, s)| ReadEntry::new(r, s)).collect(),
            changed,
        }
    }

    #[test]
    fn set_change_marker_costs_no_cell_bytes() {
        // The marker sits beside the vector, inside the space the inline
        // `Exclusive` record needs anyway.
        assert_eq!(
            std::mem::size_of::<ReadState>(),
            std::mem::size_of::<Option<AccessRecord>>()
        );
    }

    #[test]
    fn find_reader_guesses_then_searches() {
        let entries = |tids: &[u32]| -> Vec<ReadEntry> {
            tids.iter().map(|&t| ReadEntry::new(rec(t, 1), t)).collect()
        };
        let dense = entries(&[1, 2, 3, 4]);
        assert_eq!(find_reader(&dense, 3), Some(2));
        assert_eq!(find_reader(&dense, 0), None);
        assert_eq!(find_reader(&dense, 9), None);
        let sparse = entries(&[0, 4, 5, 9]);
        assert_eq!(find_reader(&sparse, 4), Some(1));
        assert_eq!(find_reader(&sparse, 9), Some(3));
        assert_eq!(find_reader(&sparse, 3), None);
        assert_eq!(find_reader(&[], 0), None);
    }

    #[test]
    fn shared_order_is_stamp_order() {
        let r = shared(&[(rec(2, 1), 9), (rec(0, 1), 3), (rec(1, 1), 5)], 4);
        let tids: Vec<u32> = records(&r).iter().map(|r| r.tid).collect();
        assert_eq!(tids, [0, 1, 2]);
    }

    #[test]
    fn renumber_keeps_order_and_blocks_every_entry() {
        let mut t = ShadowTable::new();
        t.cell(0x1000).reads = shared(&[(rec(2, 1), 900), (rec(1, 1), 70)], 80);
        t.cell(0x2000).reads = shared(&[(rec(0, 4), 5), (rec(3, 1), 4), (rec(1, 2), 6)], 0);
        t.cell(0x3000).reads = ReadState::Exclusive(rec(1, 1));
        assert_eq!(t.renumber_read_stamps(), 3);
        for addr in [0x1000, 0x2000] {
            let ReadState::Shared { reads, changed } = &t.get(addr).unwrap().reads else {
                panic!("still shared");
            };
            let mut stamps: Vec<u32> = reads.iter().map(|e| e.stamp).collect();
            stamps.sort_unstable();
            assert_eq!(stamps, (1..=reads.len() as u32).collect::<Vec<_>>());
            assert_eq!(*changed as usize, reads.len(), "no entry above the marker");
        }
        let tids = |a| -> Vec<u32> {
            let r = records(&t.get(a).unwrap().reads);
            r.iter().map(|r| r.tid).collect()
        };
        assert_eq!(tids(0x1000), [1, 2]);
        assert_eq!(tids(0x2000), [3, 0, 1]);
        assert_eq!(
            t.get(0x3000).unwrap().reads,
            ReadState::Exclusive(rec(1, 1))
        );
    }

    #[test]
    fn default_cell_is_empty() {
        let c = ShadowCell::default();
        assert!(c.last_write.is_none());
        assert!(records(&c.reads).is_empty());
        assert_eq!(c.suspicions, 0);
        assert!(c.is_untouched());
    }

    #[test]
    fn bytes_grow_on_promotion_only() {
        let mut c = ShadowCell::default();
        let inline = c.approx_bytes();
        c.reads = ReadState::Exclusive(rec(0, 1));
        assert_eq!(c.approx_bytes(), inline, "exclusive read is inline");
        c.reads = shared(&[(rec(0, 1), 1), (rec(1, 1), 2)], 0);
        assert!(c.approx_bytes() > inline, "promotion costs heap");
    }

    #[test]
    fn read_state_clear_keeps_shared_capacity() {
        let mut r = shared(&[(rec(0, 1), 1), (rec(1, 1), 2)], 0);
        r.clear();
        assert!(records(&r).is_empty());
        assert!(r.is_shared(), "promoted cells stay promoted");
        let mut e = ReadState::Exclusive(rec(0, 1));
        e.clear();
        assert_eq!(e, ReadState::None);
    }

    #[test]
    fn table_round_trips_cells() {
        let mut t = ShadowTable::new();
        assert!(t.get(0x1000).is_none());
        t.cell(0x1000).suspicions = 7;
        assert_eq!(t.get(0x1000).unwrap().suspicions, 7);
        // same page, different cell
        t.cell(0x1001).suspicions = 9;
        assert_eq!(t.get(0x1000).unwrap().suspicions, 7);
        assert_eq!(t.get(0x1001).unwrap().suspicions, 9);
        assert_eq!(t.page_count(), 1);
        // different page
        t.cell(0x2000).suspicions = 3;
        assert_eq!(t.page_count(), 2);
        assert_eq!(t.get(0x2000).unwrap().suspicions, 3);
        assert!(t.get(0x3000).is_none(), "get never creates");
    }

    #[test]
    fn table_survives_many_pages_and_growth() {
        let mut t = ShadowTable::new();
        // 1000 pages spread over all shards force several grow() rounds.
        for i in 0..1000u64 {
            let addr = i * PAGE_CELLS as u64;
            t.cell(addr).suspicions = (i % 250) as u8;
        }
        assert_eq!(t.page_count(), 1000);
        for i in 0..1000u64 {
            let addr = i * PAGE_CELLS as u64;
            assert_eq!(
                t.get(addr).unwrap().suspicions,
                (i % 250) as u8,
                "page {i} lost"
            );
        }
        assert!(t.approx_bytes() > 1000 * PAGE_CELLS * std::mem::size_of::<ShadowCell>());
    }

    #[test]
    fn adversarial_page_numbers_collide_safely() {
        // Same low bits (same shard), same mixed prefix patterns.
        let mut t = ShadowTable::new();
        let pages = [0u64, 8, 16, 1 << 20, (1 << 20) + 8, 1 << 40, u64::MAX >> 7];
        for (i, p) in pages.iter().enumerate() {
            t.cell(p * PAGE_CELLS as u64).suspicions = i as u8 + 1;
        }
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(
                t.get(p * PAGE_CELLS as u64).unwrap().suspicions,
                i as u8 + 1
            );
        }
    }
}
