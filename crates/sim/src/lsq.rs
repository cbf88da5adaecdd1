//! The unified load/store queue.
//!
//! Per the paper (Sec. 2): *"The Load/Store Queue (LSQ) and the data cache
//! are unified and accessed by clusters through dedicated buses. At dispatch
//! time, loads and stores reserve a slot in LSQ and they are steered to the
//! corresponding cluster, where the effective address is computed. Memory
//! operations are stored in the LSQ, and remain there until they access the
//! data cache."*
//!
//! The model: entries are allocated in program order at dispatch (dispatch
//! stalls when the 256 entries are exhausted), addresses arrive when the
//! cluster computes them, store data readiness is tracked, and loads may
//! forward from the youngest older store with a matching address and ready
//! data. Loads free their entry at commit; stores free it when their
//! post-commit cache write drains.
//!
//! ## The address index
//!
//! [`Lsq::check_load`] used to walk every older entry (up to the full
//! 256-entry queue) per load, per retry cycle — the dominant cost of the
//! simulator's memory stage (ROADMAP "hot-path cost"). Stores with a known
//! address are now also kept in a small **address index**: a fixed array of
//! buckets keyed by the cache-line number of the address (line-granular so
//! aliasing traffic lands in one bucket), each bucket an age-ordered list
//! of `(seq, addr, data_ready)` triples. A load check touches only the
//! stores of its own line's bucket instead of the whole queue. Only stores
//! with a computed address are indexed — exactly the set the linear scan
//! could match (unknown-address stores are optimistically non-conflicting,
//! dead entries are unlinked at [`Lsq::free`]).
//!
//! The pre-index linear search survives as [`Lsq::check_load_scan`], the
//! reference implementation: debug builds run both on every check and
//! assert they agree, and the workspace differential property tests
//! (`tests/properties.rs`) drive random same-line/aliasing op sequences
//! through both in any build profile.

use std::collections::VecDeque;

/// Cache-line granularity of the address index (64-byte lines, matching
/// `MachineConfig::line_bytes`' fixed default). The index is correct for
/// any granularity — matches are still exact-address — this only decides
/// which stores share a bucket.
const LINE_SHIFT: u32 = 6;

/// Number of index buckets (power of two; line numbers are masked into
/// this range, so distinct lines may share a bucket — the per-entry `addr`
/// keeps matching exact).
const INDEX_BUCKETS: usize = 64;

#[inline]
fn bucket_of(addr: u64) -> usize {
    ((addr >> LINE_SHIFT) as usize) & (INDEX_BUCKETS - 1)
}

/// One LSQ entry.
#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    seq: u64,
    is_store: bool,
    addr: Option<u64>,
    data_ready: bool,
    alive: bool,
}

/// One indexed store: an alive store whose address is known.
#[derive(Debug, Clone, Copy)]
struct StoreRef {
    seq: u64,
    addr: u64,
    data_ready: bool,
}

/// Outcome of a load's LSQ search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadCheck {
    /// No older store matches: go to the cache.
    GoToCache,
    /// The youngest older matching store has its data: forward.
    Forward,
    /// The youngest older matching store's data is not ready yet: retry.
    WaitOnStore,
}

/// The unified load/store queue.
#[derive(Debug, Clone)]
pub struct Lsq {
    entries: VecDeque<LsqEntry>,
    live: usize,
    capacity: usize,
    /// Address index: `index[bucket_of(addr)]` holds every alive store with
    /// a known address on that line set, ascending by `seq` (age order).
    index: Vec<Vec<StoreRef>>,
    /// Entries compacted off the queue front since the last reset. An
    /// entry's **slot handle** (returned by [`Lsq::alloc`]) is its absolute
    /// allocation position; `handle - popped` is its current queue index,
    /// which makes every handle-based accessor O(1) where the seq-based
    /// ones binary-search.
    popped: u64,
}

impl Lsq {
    /// Create an LSQ with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        let mut lsq = Lsq {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            live: 0,
            capacity: 1,
            index: vec![Vec::new(); INDEX_BUCKETS],
            popped: 0,
        };
        lsq.reset(capacity);
        lsq
    }

    /// Clear in place and retarget to `capacity`, keeping the entry and
    /// bucket allocations (session reuse; equivalent to [`Lsq::new`] — in
    /// particular no bucket retains a stale store).
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity >= 1);
        self.entries.clear();
        self.live = 0;
        self.capacity = capacity;
        for bucket in self.index.iter_mut() {
            bucket.clear();
        }
        self.popped = 0;
    }

    /// Entries currently allocated.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no entries are allocated — the quiescence predicate the
    /// session's drain check asserts (a drained pipeline must have freed
    /// every LSQ entry at commit or store drain).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True if a new memory op can be allocated. Dispatch consults this
    /// before steering, which also makes it part of the idle-span
    /// predicate: an LSQ-full stall cycle is skippable precisely because
    /// this answer cannot change while commit and store drain are inert.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.live < self.capacity
    }

    /// Stores currently present in the address index (alive, address
    /// known). Diagnostics for the index-consistency tests.
    pub fn indexed_stores(&self) -> usize {
        self.index.iter().map(Vec::len).sum()
    }

    /// Allocate an entry for the memory op `seq` (must be called in
    /// ascending `seq` order — program order, as dispatch does). Returns the
    /// entry's **slot handle** for the O(1) `_at` accessors; the seq-based
    /// accessors remain valid for the same entry.
    ///
    /// # Panics
    /// Panics if full or out of order.
    pub fn alloc(&mut self, seq: u64, is_store: bool) -> u32 {
        assert!(self.has_space(), "LSQ overflow");
        if let Some(back) = self.entries.back() {
            assert!(back.seq < seq, "LSQ allocations must be in program order");
        }
        let handle = self.popped + self.entries.len() as u64;
        debug_assert!(u32::try_from(handle).is_ok(), "LSQ slot handle overflow");
        self.entries.push_back(LsqEntry {
            seq,
            is_store,
            addr: None,
            data_ready: !is_store,
            alive: true,
        });
        self.live += 1;
        handle as u32
    }

    fn position(&self, seq: u64) -> Option<usize> {
        self.entries.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// Current queue index of slot `handle` — O(1), no search. The handle
    /// must refer to an entry that has not been compacted away yet.
    #[inline]
    fn idx_of(&self, handle: u32) -> usize {
        debug_assert!(u64::from(handle) >= self.popped, "stale LSQ slot handle");
        (u64::from(handle) - self.popped) as usize
    }

    /// Record the computed effective address of `seq`. Stores enter the
    /// address index here; loads never do (only stores can be matched).
    pub fn set_addr(&mut self, seq: u64, addr: u64) {
        let i = self.position(seq).expect("set_addr on unknown LSQ entry");
        self.set_addr_idx(i, addr);
    }

    /// O(1) variant of [`Lsq::set_addr`] addressing the entry by its slot
    /// handle instead of searching for its sequence number.
    pub fn set_addr_at(&mut self, handle: u32, addr: u64) {
        let i = self.idx_of(handle);
        self.set_addr_idx(i, addr);
    }

    fn set_addr_idx(&mut self, i: usize, addr: u64) {
        let seq = self.entries[i].seq;
        debug_assert!(
            self.entries[i].addr.is_none(),
            "address of LSQ entry {seq} set twice"
        );
        self.entries[i].addr = Some(addr);
        if self.entries[i].is_store {
            let data_ready = self.entries[i].data_ready;
            let bucket = &mut self.index[bucket_of(addr)];
            let at = bucket.partition_point(|s| s.seq < seq);
            bucket.insert(
                at,
                StoreRef {
                    seq,
                    addr,
                    data_ready,
                },
            );
        }
    }

    /// Mark the store `seq`'s data as ready to forward.
    pub fn set_data_ready(&mut self, seq: u64) {
        let i = self
            .position(seq)
            .expect("set_data_ready on unknown LSQ entry");
        self.set_data_ready_idx(i);
    }

    /// O(1) variant of [`Lsq::set_data_ready`] addressing the entry by its
    /// slot handle.
    pub fn set_data_ready_at(&mut self, handle: u32) {
        let i = self.idx_of(handle);
        self.set_data_ready_idx(i);
    }

    fn set_data_ready_idx(&mut self, i: usize) {
        let seq = self.entries[i].seq;
        debug_assert!(self.entries[i].is_store);
        self.entries[i].data_ready = true;
        if let Some(addr) = self.entries[i].addr {
            let bucket = &mut self.index[bucket_of(addr)];
            let at = bucket.partition_point(|s| s.seq < seq);
            debug_assert!(bucket.get(at).is_some_and(|s| s.seq == seq));
            bucket[at].data_ready = true;
        }
    }

    /// Resolve the load `seq` at address `addr` against strictly older
    /// (`seq' < seq`) stores.
    ///
    /// Older stores with *unknown* addresses are optimistically assumed not
    /// to conflict (no replay machinery is modelled; see DESIGN.md).
    ///
    /// Cost: a scan of the address-line bucket only — no queue lookup at
    /// all. Debug builds assert the result against
    /// [`Lsq::check_load_scan`] on every call.
    pub fn check_load(&self, seq: u64, addr: u64) -> LoadCheck {
        let bucket = &self.index[bucket_of(addr)];
        // The bucket is age-sorted, so start at the youngest strictly-older
        // store instead of skipping younger ones entry by entry.
        let end = bucket.partition_point(|s| s.seq < seq);
        let mut result = LoadCheck::GoToCache;
        for s in bucket[..end].iter().rev() {
            if s.addr == addr {
                result = if s.data_ready {
                    LoadCheck::Forward
                } else {
                    LoadCheck::WaitOnStore
                };
                break;
            }
        }
        debug_assert_eq!(
            result,
            self.check_load_scan(seq, addr),
            "address index diverged from the linear scan (load {seq} @ {addr:#x})"
        );
        result
    }

    /// Reference implementation of [`Lsq::check_load`]: the pre-index
    /// linear walk over every older entry. Kept callable in every build
    /// profile so differential tests can cross-check the index; debug
    /// builds additionally run it inside every `check_load`.
    pub fn check_load_scan(&self, seq: u64, addr: u64) -> LoadCheck {
        let end = self.entries.partition_point(|e| e.seq < seq);
        for e in self.entries.iter().take(end).rev() {
            if !e.alive || !e.is_store {
                continue;
            }
            if e.addr == Some(addr) {
                return if e.data_ready {
                    LoadCheck::Forward
                } else {
                    LoadCheck::WaitOnStore
                };
            }
        }
        LoadCheck::GoToCache
    }

    /// Unlink `seq` from its address-index bucket, if indexed.
    fn unindex(&mut self, i: usize) {
        let e = self.entries[i];
        if !e.is_store {
            return;
        }
        if let Some(addr) = e.addr {
            let bucket = &mut self.index[bucket_of(addr)];
            let at = bucket.partition_point(|s| s.seq < e.seq);
            debug_assert!(bucket.get(at).is_some_and(|s| s.seq == e.seq));
            bucket.remove(at);
        }
    }

    /// Free the entry of `seq` (load commit or store drain completion).
    pub fn free(&mut self, seq: u64) {
        let i = self.position(seq).expect("free of unknown LSQ entry");
        self.free_idx(i);
    }

    /// O(1) variant of [`Lsq::free`] addressing the entry by its slot
    /// handle.
    pub fn free_at(&mut self, handle: u32) {
        let i = self.idx_of(handle);
        self.free_idx(i);
    }

    fn free_idx(&mut self, i: usize) {
        debug_assert!(self.entries[i].alive, "double free of LSQ entry");
        self.unindex(i);
        self.entries[i].alive = false;
        self.live -= 1;
        while matches!(self.entries.front(), Some(e) if !e.alive) {
            self.entries.pop_front();
            self.popped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_capacity() {
        let mut q = Lsq::new(2);
        assert!(q.has_space());
        q.alloc(1, false);
        q.alloc(2, true);
        assert!(!q.has_space());
        assert_eq!(q.len(), 2);
        q.free(1);
        assert!(q.has_space());
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "LSQ overflow")]
    fn overflow_panics() {
        let mut q = Lsq::new(1);
        q.alloc(1, false);
        q.alloc(2, false);
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_alloc_panics() {
        let mut q = Lsq::new(4);
        q.alloc(5, false);
        q.alloc(3, false);
    }

    #[test]
    fn forwarding_from_youngest_older_store() {
        let mut q = Lsq::new(8);
        q.alloc(1, true);
        q.alloc(2, true);
        q.alloc(3, false);
        q.set_addr(1, 0x100);
        q.set_data_ready(1);
        q.set_addr(2, 0x100);
        // store 2 is younger-older and matching, but data not ready
        assert_eq!(q.check_load(3, 0x100), LoadCheck::WaitOnStore);
        q.set_data_ready(2);
        assert_eq!(q.check_load(3, 0x100), LoadCheck::Forward);
        assert_eq!(q.check_load(3, 0x200), LoadCheck::GoToCache);
    }

    #[test]
    fn younger_stores_do_not_forward() {
        let mut q = Lsq::new(8);
        q.alloc(1, false);
        q.alloc(2, true);
        q.set_addr(2, 0x40);
        q.set_data_ready(2);
        assert_eq!(q.check_load(1, 0x40), LoadCheck::GoToCache);
    }

    #[test]
    fn dead_stores_are_ignored() {
        let mut q = Lsq::new(8);
        q.alloc(1, true);
        q.alloc(2, false);
        q.set_addr(1, 0x80);
        q.set_data_ready(1);
        assert_eq!(q.check_load(2, 0x80), LoadCheck::Forward);
        q.free(1);
        assert_eq!(q.check_load(2, 0x80), LoadCheck::GoToCache);
        assert_eq!(q.indexed_stores(), 0, "freed store must leave the index");
    }

    #[test]
    fn unknown_address_stores_are_optimistic() {
        let mut q = Lsq::new(8);
        q.alloc(1, true); // address never computed yet
        q.alloc(2, false);
        assert_eq!(q.check_load(2, 0x123), LoadCheck::GoToCache);
        assert_eq!(q.indexed_stores(), 0, "unknown-address store not indexed");
    }

    #[test]
    fn free_compacts_front() {
        let mut q = Lsq::new(3);
        q.alloc(1, false);
        q.alloc(2, false);
        q.alloc(3, false);
        q.free(2);
        q.free(1);
        // Front compaction must leave room for two new entries.
        assert_eq!(q.len(), 1);
        q.alloc(4, true);
        q.alloc(5, false);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn same_line_aliasing_stores_share_a_bucket_but_match_exactly() {
        // Three stores on one 64-byte line at different offsets: the load
        // must forward only from the exact-address match, not from the
        // line-mates that share its bucket.
        let mut q = Lsq::new(8);
        q.alloc(1, true);
        q.alloc(2, true);
        q.alloc(3, true);
        q.alloc(4, false);
        q.set_addr(1, 0x1000);
        q.set_addr(2, 0x1008);
        q.set_addr(3, 0x1030);
        for s in 1..=3 {
            q.set_data_ready(s);
        }
        assert_eq!(q.indexed_stores(), 3);
        assert_eq!(q.check_load(4, 0x1008), LoadCheck::Forward);
        assert_eq!(q.check_load(4, 0x1010), LoadCheck::GoToCache);
        assert_eq!(q.check_load(4, 0x1008), q.check_load_scan(4, 0x1008));
        assert_eq!(q.check_load(4, 0x1010), q.check_load_scan(4, 0x1010));
    }

    #[test]
    fn partial_overlap_on_one_line_is_not_a_forwarding_match() {
        // The model is exact-address (word) matching: a store at 0x1000 and
        // a load at 0x1004 overlap the same line but are distinct words, so
        // the load goes to the cache — and the scan agrees. (A byte-granular
        // model would conflict here; DESIGN.md documents the simplification.)
        let mut q = Lsq::new(8);
        q.alloc(1, true);
        q.alloc(2, false);
        q.set_addr(1, 0x1000);
        q.set_data_ready(1);
        assert_eq!(q.check_load(2, 0x1004), LoadCheck::GoToCache);
        assert_eq!(q.check_load_scan(2, 0x1004), LoadCheck::GoToCache);
        assert_eq!(q.check_load(2, 0x1000), LoadCheck::Forward);
    }

    #[test]
    fn reset_reuse_leaves_no_stale_buckets() {
        let mut q = Lsq::new(8);
        q.alloc(1, true);
        q.alloc(2, true);
        q.set_addr(1, 0x500);
        q.set_data_ready(1);
        q.set_addr(2, 0x540);
        assert_eq!(q.indexed_stores(), 2);

        q.reset(8);
        assert_eq!(q.indexed_stores(), 0);
        assert!(q.is_empty());

        // The same sequence numbers and addresses after reset must behave
        // like a fresh queue: no forwarding from the pre-reset store.
        q.alloc(1, false);
        assert_eq!(q.check_load(1, 0x500), LoadCheck::GoToCache);
        q.alloc(2, true);
        q.set_addr(2, 0x500);
        q.set_data_ready(2);
        q.alloc(3, false);
        assert_eq!(q.check_load(3, 0x500), LoadCheck::Forward);
    }

    #[test]
    fn distinct_lines_sharing_a_bucket_do_not_match() {
        // Two addresses whose line numbers collide modulo the bucket count
        // (lines 0 and 64 both mask to bucket 0): exact-address matching
        // must keep them apart even inside one bucket.
        let a = 0x0u64;
        let b = (INDEX_BUCKETS as u64) << LINE_SHIFT;
        assert_eq!(bucket_of(a), bucket_of(b), "test premise: same bucket");
        let mut q = Lsq::new(8);
        q.alloc(1, true);
        q.alloc(2, false);
        q.set_addr(1, a);
        q.set_data_ready(1);
        assert_eq!(q.check_load(2, b), LoadCheck::GoToCache);
        assert_eq!(q.check_load(2, a), LoadCheck::Forward);
    }

    #[test]
    fn late_address_keeps_bucket_age_ordered() {
        // Store 1 computes its address *after* store 3 (out-of-order AGU):
        // the bucket must still be age-ordered so the youngest-older match
        // wins.
        let mut q = Lsq::new(8);
        q.alloc(1, true);
        q.alloc(3, true);
        q.alloc(5, false);
        q.set_addr(3, 0x80);
        q.set_addr(1, 0x80); // late arrival, older store
        q.set_data_ready(1);
        // Youngest older matching store is 3, whose data is not ready.
        assert_eq!(q.check_load(5, 0x80), LoadCheck::WaitOnStore);
        q.set_data_ready(3);
        assert_eq!(q.check_load(5, 0x80), LoadCheck::Forward);
    }
}
