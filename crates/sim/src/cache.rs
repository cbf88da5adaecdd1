//! The memory hierarchy: L1 data cache, unified L2, main memory.
//!
//! Table 2: 32 KB 4-way L1 (3-cycle hit, 2 read / 1 write port), 2 MB 16-way
//! unified L2 (13-cycle hit), ≥500-cycle memory. The L1 and the load/store
//! queue are shared by all clusters and "accessed by clusters through
//! dedicated buses" — so cache behaviour is identical across steering
//! policies and cluster counts, which is exactly the paper's setup (steering
//! changes copies and balance, not the cache stream).

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

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    lines: Vec<Line>,
    ways: usize,
    sets: usize,
    line_shift: u32,
    stamp: u64,
}

impl Cache {
    /// Build from a [`CacheConfig`] and a line size.
    pub fn new(cfg: &CacheConfig, line_bytes: usize) -> Self {
        let mut cache = Cache {
            lines: Vec::new(),
            ways: 1,
            sets: 1,
            line_shift: 0,
            stamp: 0,
        };
        cache.reset(cfg, line_bytes);
        cache
    }

    /// Invalidate every line and retarget to a possibly different geometry.
    /// The line array is reused when the geometry is unchanged, so a reset
    /// is a memset rather than an allocation (session reuse).
    pub fn reset(&mut self, cfg: &CacheConfig, line_bytes: usize) {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = cfg.sets(line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        self.lines.clear();
        self.lines.resize(sets * cfg.ways, Line::default());
        self.ways = cfg.ways;
        self.sets = sets;
        self.line_shift = line_bytes.trailing_zeros();
        self.stamp = 0;
    }

    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.line_shift;
        let set = (block as usize) & (self.sets - 1);
        let tag = block >> self.sets.trailing_zeros();
        (set, tag)
    }

    /// Look up `addr`; on hit, update LRU and return true. Does **not**
    /// allocate on miss — call [`Cache::fill`] for that.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        for way in 0..self.ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.lru = self.stamp;
                return true;
            }
        }
        false
    }

    /// Probe without touching LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Install the line containing `addr`, evicting the LRU way.
    pub fn fill(&mut self, addr: u64) {
        self.stamp += 1;
        let (set, tag) = self.index(addr);
        let base = set * self.ways;
        // Already present (racing fills)? Just touch it.
        for way in 0..self.ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.lru = self.stamp;
                return;
            }
        }
        let victim = (0..self.ways)
            .min_by_key(|&w| {
                let l = &self.lines[base + w];
                (l.valid, l.lru)
            })
            .expect("ways >= 1");
        self.lines[base + victim] = Line {
            tag,
            valid: true,
            lru: self.stamp,
        };
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

    /// The load path without port arbitration (used at warm-up and by
    /// tests).
    pub fn load_untimed(&mut self, addr: u64) -> (u32, LoadPath) {
        if self.l1.access(addr) {
            (self.l1_hit, LoadPath::L1Hit)
        } else if self.l2.access(addr) {
            self.l1.fill(addr);
            (self.l2_hit, LoadPath::L2Hit)
        } else {
            self.l2.fill(addr);
            self.l1.fill(addr);
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
        if !self.l1.access(addr) {
            if !self.l2.access(addr) {
                self.l2.fill(addr);
            }
            self.l1.fill(addr);
        }
        true
    }

    /// L1 read ports per cycle.
    pub fn read_ports(&self) -> usize {
        self.read_ports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B
        let cfg = CacheConfig {
            size_bytes: 512,
            ways: 2,
            hit_latency: 3,
            read_ports: 2,
            write_ports: 1,
        };
        Cache::new(&cfg, 64)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        assert!(!c.access(0x1000));
        c.fill(0x1000);
        assert!(c.access(0x1000));
        assert!(c.access(0x1038), "same 64B line");
        assert!(!c.access(0x1040), "next line");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Three addresses mapping to the same set (stride = sets * line = 256B).
        let (a, b, d) = (0x0u64, 0x100u64, 0x200u64);
        c.fill(a);
        c.fill(b);
        assert!(c.access(a)); // a most recent
        c.fill(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn fill_of_resident_line_does_not_duplicate() {
        let mut c = small_cache();
        c.fill(0x40);
        c.fill(0x40);
        c.fill(0x140); // same set
                       // both lines should be resident (2 ways)
        assert!(c.probe(0x40));
        assert!(c.probe(0x140));
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
    fn read_ports_limit_loads_per_cycle() {
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
