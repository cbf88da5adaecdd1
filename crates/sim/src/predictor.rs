//! Branch predictor and trace-cache model for the monolithic front-end.
//!
//! Trace-driven simulation cannot execute wrong paths, so (as is standard
//! for this methodology, and as the paper's trace-driven framework must also
//! do) a misprediction is charged as a front-end redirect bubble: fetch
//! stops at the mispredicted branch and resumes a pipeline-depth after the
//! branch resolves.

use virtclust_uarch::InstId;

/// A two-level local-history branch predictor (PAg style): a per-branch
/// history table feeding a shared pattern table of 2-bit counters.
///
/// This is the machine's predictor. Unlike a global-history (gshare)
/// design, it learns *per-site* repetitive patterns (loop rhythms, if/else
/// periodicities) even when the global interleaving of branches is
/// effectively random — which matches both real workloads and the
/// synthetic suite.
#[derive(Debug, Clone)]
pub struct LocalHistory {
    histories: Vec<u16>,
    pattern: Vec<u8>,
    hist_bits: u32,
    hist_table_mask: u64,
    pattern_mask: u64,
}

impl LocalHistory {
    /// Create a predictor with `2^log2_entries` pattern counters and a
    /// proportionally sized history table.
    pub fn new(log2_entries: u32) -> Self {
        let mut predictor = LocalHistory {
            histories: Vec::new(),
            pattern: Vec::new(),
            hist_bits: 0,
            hist_table_mask: 0,
            pattern_mask: 0,
        };
        predictor.reset(log2_entries);
        predictor
    }

    /// Forget all learned state and retarget to `log2_entries`, reusing the
    /// tables when the size is unchanged (session reuse; equivalent to
    /// [`LocalHistory::new`]).
    pub fn reset(&mut self, log2_entries: u32) {
        let pattern_entries = 1usize << log2_entries;
        let hist_log2 = log2_entries.min(12);
        self.histories.clear();
        self.histories.resize(1usize << hist_log2, 0);
        self.pattern.clear();
        self.pattern.resize(pattern_entries, 2); // weakly taken
        self.hist_bits = 10.min(log2_entries);
        self.hist_table_mask = ((1usize << hist_log2) - 1) as u64;
        self.pattern_mask = (pattern_entries - 1) as u64;
    }

    #[inline]
    fn fold_pc(pc: u64) -> u64 {
        pc ^ (pc >> 16) ^ (pc >> 32)
    }

    /// Predict the branch at `pc`, then update with the actual outcome.
    /// Returns true if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let pcf = Self::fold_pc(pc);
        let hi = (pcf & self.hist_table_mask) as usize;
        let hist = self.histories[hi];
        // Mix the local history with the site id so two sites sharing a
        // history pattern do not fight over one counter.
        let idx =
            ((u64::from(hist)) ^ pcf.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13) & self.pattern_mask;
        let counter = self.pattern[idx as usize];
        let predicted = counter >= 2;

        self.pattern[idx as usize] = match (taken, counter) {
            (true, c) if c < 3 => c + 1,
            (false, c) if c > 0 => c - 1,
            (_, c) => c,
        };
        self.histories[hi] = ((hist << 1) | u16::from(taken)) & ((1u16 << self.hist_bits) - 1);

        predicted == taken
    }
}

/// A trace cache modelled at region granularity: an LRU set of regions whose
/// total micro-op size fits the configured capacity. A miss inserts the
/// region and reports a front-end rebuild bubble.
#[derive(Debug, Clone)]
pub struct TraceCache {
    /// (region id, uop count, lru stamp)
    resident: Vec<(u32, usize, u64)>,
    capacity_uops: usize,
    used_uops: usize,
    stamp: u64,
    /// Bubble charged on a miss (cycles of fetch stall).
    pub miss_penalty: u32,
}

impl TraceCache {
    /// Create a trace cache holding `capacity_uops` micro-ops.
    pub fn new(capacity_uops: usize) -> Self {
        let mut cache = TraceCache {
            resident: Vec::new(),
            capacity_uops: 0,
            used_uops: 0,
            stamp: 0,
            miss_penalty: 0,
        };
        cache.reset(capacity_uops);
        cache
    }

    /// Empty the cache and retarget to `capacity_uops` (session reuse;
    /// equivalent to [`TraceCache::new`]).
    pub fn reset(&mut self, capacity_uops: usize) {
        self.resident.clear();
        self.capacity_uops = capacity_uops;
        self.used_uops = 0;
        self.stamp = 0;
        self.miss_penalty = 10;
    }

    /// Access the trace for `region` (with `region_uops` micro-ops).
    /// Returns true on hit; on miss the region is installed (with LRU
    /// eviction) and the caller should charge [`TraceCache::miss_penalty`].
    pub fn access(&mut self, region: u32, region_uops: usize) -> bool {
        self.stamp += 1;
        if let Some(entry) = self.resident.iter_mut().find(|e| e.0 == region) {
            entry.2 = self.stamp;
            return true;
        }
        // Install with eviction; regions bigger than the cache bypass it.
        if region_uops > self.capacity_uops {
            return false;
        }
        while self.used_uops + region_uops > self.capacity_uops {
            let (lru_idx, _) = self
                .resident
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.2)
                .expect("capacity exceeded implies residents exist");
            self.used_uops -= self.resident[lru_idx].1;
            self.resident.swap_remove(lru_idx);
        }
        self.used_uops += region_uops;
        self.resident.push((region, region_uops, self.stamp));
        false
    }
}

/// Stable PC surrogate for a static instruction (used for predictor
/// indexing); matches the encoding used by trace expansion.
#[inline]
pub fn pc_of(inst: InstId) -> u64 {
    (u64::from(inst.region) << 32) | u64::from(inst.index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_cache_hits_resident_regions() {
        let mut tc = TraceCache::new(100);
        assert!(!tc.access(1, 40), "cold miss");
        assert!(tc.access(1, 40));
        assert!(!tc.access(2, 40));
        assert!(tc.access(1, 40));
        assert!(tc.access(2, 40));
    }

    #[test]
    fn trace_cache_evicts_lru() {
        let mut tc = TraceCache::new(100);
        tc.access(1, 50);
        tc.access(2, 50);
        tc.access(1, 50); // 1 most recent
        assert!(!tc.access(3, 50), "miss evicts region 2");
        assert!(tc.access(1, 50), "region 1 survived");
        assert!(!tc.access(2, 50), "region 2 was evicted");
    }

    #[test]
    fn oversized_region_bypasses() {
        let mut tc = TraceCache::new(10);
        assert!(!tc.access(7, 100));
        assert!(!tc.access(7, 100), "never resident");
    }

    #[test]
    fn pc_is_stable_and_unique_per_inst() {
        let a = pc_of(InstId::new(1, 2));
        let b = pc_of(InstId::new(1, 3));
        let c = pc_of(InstId::new(2, 2));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, pc_of(InstId::new(1, 2)));
    }
}
