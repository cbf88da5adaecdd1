//! The memory hierarchy: L1 data cache, unified L2, main memory.
//!
//! Table 2: 32 KB 4-way L1 (3-cycle hit, 2 read / 1 write port), 2 MB 16-way
//! unified L2 (13-cycle hit), ≥500-cycle memory. The L1 and the load/store
//! queue are shared by all clusters and "accessed by clusters through
//! dedicated buses" — so cache behaviour is identical across steering
//! policies and cluster counts, which is exactly the paper's setup (steering
//! changes copies and balance, not the cache stream).
//!
//! Each level keeps its line state in two parallel word arrays, tags and
//! LRU stamps (16 bytes a line), and validates lines by run epoch instead
//! of clearing them: a reset of an unchanged geometry writes one word, and
//! a new cache is a zeroed allocation whose untouched pages are never
//! written. A lookup is one pass over its set that hits, or installs the
//! line in the same pass.

use virtclust_uarch::{CacheConfig, MachineConfig};

/// Which level satisfied a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPath {
    /// L1 hit.
    L1Hit,
    /// L1 miss, L2 hit.
    L2Hit,
    /// Missed both caches; served from memory.
    Mem,
    /// Satisfied by store-to-load forwarding in the LSQ (set by the caller;
    /// the cache itself never returns this).
    Forward,
}

/// A set-associative cache with true-LRU replacement.
///
/// Line `i` holds `tags[i]` only if `stamps[i]`, the value of `stamp` when
/// the line was last touched, is newer than `epoch`, the value of `stamp`
/// at the last reset. Every lookup bumps `stamp`, so valid lines' stamps
/// are unique and order them by recency; `stamp` never goes back, so a
/// reset only moves `epoch` up to it. Within a set the valid ways form a
/// prefix, since a miss fills the first invalid way and only a reset
/// invalidates.
#[derive(Debug, Clone)]
pub struct Cache {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    ways: usize,
    sets: usize,
    line_shift: u32,
    stamp: u64,
    epoch: u64,
}

impl Cache {
    /// Build from a [`CacheConfig`] and a line size.
    pub fn new(cfg: &CacheConfig, line_bytes: usize) -> Self {
        let mut cache = Cache {
            tags: Vec::new(),
            stamps: Vec::new(),
            ways: 1,
            sets: 1,
            line_shift: 0,
            stamp: 0,
            epoch: 0,
        };
        cache.reset(cfg, line_bytes);
        cache
    }

    /// Invalidate every line and retarget to a possibly different geometry.
    /// With the line count unchanged this writes no line, only `epoch`;
    /// any other count gets fresh zeroed arrays, whose pages the OS hands
    /// out zeroed and which are only written where a run touches them.
    pub fn reset(&mut self, cfg: &CacheConfig, line_bytes: usize) {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = cfg.sets(line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let lines = sets * cfg.ways;
        if self.tags.len() != lines {
            self.tags = vec![0; lines];
            self.stamps = vec![0; lines];
        }
        self.ways = cfg.ways;
        self.sets = sets;
        self.line_shift = line_bytes.trailing_zeros();
        self.epoch = self.stamp;
    }

    /// Look up the line holding `addr` and make it the most recently used.
    /// Returns whether it was resident; a miss installs it over the set's
    /// first invalid way, else over its least recently used one.
    pub fn touch(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let (now, epoch) = (self.stamp, self.epoch);
        let block = addr >> self.line_shift;
        let set = (block as usize) & (self.sets - 1);
        let tag = block >> self.sets.trailing_zeros();
        let base = set * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        let mut victim = 0;
        for way in 0..tags.len() {
            if stamps[way] <= epoch {
                // The valid prefix ends here: no later way can hit.
                victim = way;
                break;
            }
            if tags[way] == tag {
                stamps[way] = now;
                return true;
            }
            if stamps[way] < stamps[victim] {
                victim = way;
            }
        }
        tags[victim] = tag;
        stamps[victim] = now;
        false
    }
}

/// The full load path: L1 → L2 → memory, with per-cycle L1 port arbitration.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l1: Cache,
    l2: Cache,
    l1_hit: u32,
    l2_hit: u32,
    mem_latency: u32,
    read_ports: usize,
    write_ports: usize,
    reads_this_cycle: usize,
    writes_this_cycle: usize,
}

impl MemorySystem {
    /// Build from the machine configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        let mut mem = MemorySystem {
            l1: Cache::new(&cfg.l1, cfg.line_bytes),
            l2: Cache::new(&cfg.l2, cfg.line_bytes),
            l1_hit: 0,
            l2_hit: 0,
            mem_latency: 0,
            read_ports: 0,
            write_ports: 0,
            reads_this_cycle: 0,
            writes_this_cycle: 0,
        };
        mem.reset(cfg);
        mem
    }

    /// Return the hierarchy to a cold post-construction state for `cfg`,
    /// reusing the line arrays where the geometry allows (session reuse;
    /// equivalent to [`MemorySystem::new`]).
    pub fn reset(&mut self, cfg: &MachineConfig) {
        self.l1.reset(&cfg.l1, cfg.line_bytes);
        self.l2.reset(&cfg.l2, cfg.line_bytes);
        self.l1_hit = cfg.l1.hit_latency;
        self.l2_hit = cfg.l2.hit_latency;
        self.mem_latency = cfg.mem_latency;
        self.read_ports = cfg.l1.read_ports;
        self.write_ports = cfg.l1.write_ports;
        self.reads_this_cycle = 0;
        self.writes_this_cycle = 0;
    }

    /// Reset per-cycle port usage; call once per simulated cycle.
    pub fn begin_cycle(&mut self) {
        self.reads_this_cycle = 0;
        self.writes_this_cycle = 0;
    }

    /// Attempt a load access this cycle. Returns `None` if both L1 read
    /// ports are busy; otherwise the access latency and which level served
    /// it (caches updated/filled as a side effect).
    pub fn try_load(&mut self, addr: u64) -> Option<(u32, LoadPath)> {
        if self.reads_this_cycle >= self.read_ports {
            return None;
        }
        self.reads_this_cycle += 1;
        Some(self.load_untimed(addr))
    }

    /// The load path without port arbitration.
    fn load_untimed(&mut self, addr: u64) -> (u32, LoadPath) {
        if self.l1.touch(addr) {
            (self.l1_hit, LoadPath::L1Hit)
        } else if self.l2.touch(addr) {
            (self.l2_hit, LoadPath::L2Hit)
        } else {
            (self.mem_latency, LoadPath::Mem)
        }
    }

    /// Attempt a store write-back this cycle (post-commit drain). Returns
    /// false if the L1 write port is busy. Write-allocates into both levels.
    pub fn try_store_write(&mut self, addr: u64) -> bool {
        if self.writes_this_cycle >= self.write_ports {
            return false;
        }
        self.writes_this_cycle += 1;
        if !self.l1.touch(addr) {
            self.l2.touch(addr);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(size_bytes: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            size_bytes,
            ways,
            hit_latency: 3,
            read_ports: 2,
            write_ports: 1,
        }
    }

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B
        Cache::new(&config(512, 2), 64)
    }

    #[test]
    fn miss_installs_then_hits() {
        let mut c = small_cache();
        assert!(!c.touch(0x1000));
        assert!(c.touch(0x1000));
        assert!(c.touch(0x1038), "same 64B line");
        assert!(!c.touch(0x1040), "next line");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Three addresses mapping to the same set (stride = sets * line = 256B).
        let (a, b, d) = (0x0u64, 0x100u64, 0x200u64);
        assert!(!c.touch(a));
        assert!(!c.touch(b));
        assert!(c.touch(a)); // a most recent
        assert!(!c.touch(d)); // evicts b
        assert!(c.touch(a));
        assert!(c.touch(d));
        assert!(!c.touch(b));
    }

    #[test]
    fn a_line_touched_before_a_reset_misses_after_it() {
        let mut c = small_cache();
        let arrays = (c.tags.as_ptr(), c.stamps.as_ptr());
        for _ in 0..1_000 {
            assert!(!c.touch(0x40));
            assert!(c.touch(0x40));
            c.reset(&config(512, 2), 64);
        }
        assert_eq!((c.tags.as_ptr(), c.stamps.as_ptr()), arrays, "reused");
        // Another geometry, of the same or another size, starts empty:
        // set 0's four ways all fill before one is evicted.
        for (size, stride) in [(512, 0x80), (1024, 0x100)] {
            c.reset(&config(size, 4), 64);
            let set0 = [0, stride, 2 * stride, 3 * stride];
            assert!(set0.iter().all(|&a| !c.touch(a)), "{size} B");
            assert!(set0.iter().all(|&a| c.touch(a)), "{size} B");
        }
    }

    #[test]
    fn memory_system_latencies() {
        let cfg = MachineConfig::default();
        let mut m = MemorySystem::new(&cfg);
        m.begin_cycle();
        let (lat, path) = m.try_load(0x5000).unwrap();
        assert_eq!(path, LoadPath::Mem);
        assert_eq!(lat, cfg.mem_latency);
        // Second access hits L1.
        m.begin_cycle();
        let (lat, path) = m.try_load(0x5000).unwrap();
        assert_eq!(path, LoadPath::L1Hit);
        assert_eq!(lat, cfg.l1.hit_latency);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = MachineConfig::default();
        let mut m = MemorySystem::new(&cfg);
        m.load_untimed(0x0);
        // Evict line 0 from L1 by filling its set (4 ways + 1).
        // L1: 32KB/64B/4 = 128 sets -> stride 128*64 = 8192.
        for i in 1..=4u64 {
            m.load_untimed(i * 8192);
        }
        let (lat, path) = m.load_untimed(0x0);
        assert_eq!(path, LoadPath::L2Hit, "still in the much larger L2");
        assert_eq!(lat, cfg.l2.hit_latency);
    }

    #[test]
    fn loads_per_cycle_are_limited_by_read_ports() {
        let cfg = MachineConfig::default();
        let mut m = MemorySystem::new(&cfg);
        m.begin_cycle();
        assert!(m.try_load(0x0).is_some());
        assert!(m.try_load(0x40).is_some());
        assert!(m.try_load(0x80).is_none(), "2 read ports");
        m.begin_cycle();
        assert!(m.try_load(0x80).is_some());
    }

    #[test]
    fn write_port_limits_store_drain() {
        let cfg = MachineConfig::default();
        let mut m = MemorySystem::new(&cfg);
        m.begin_cycle();
        assert!(m.try_store_write(0x0));
        assert!(!m.try_store_write(0x40), "1 write port");
    }
}
