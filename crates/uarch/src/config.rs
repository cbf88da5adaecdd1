//! Machine configuration — the paper's Table 2, as data.
//!
//! Every architectural parameter of the simulated clustered machine lives
//! here so that experiments (2-cluster vs 4-cluster, ablations) are pure
//! configuration changes. [`MachineConfig::default`] reproduces Table 2 for
//! the 2-cluster baseline.

use std::fmt;

use crate::op::OpClass;

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access (hit) latency in cycles.
    pub hit_latency: u32,
    /// Read ports available per cycle.
    pub read_ports: usize,
    /// Write ports available per cycle.
    pub write_ports: usize,
}

impl CacheConfig {
    /// Number of sets given a line size.
    ///
    /// # Panics
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self, line_bytes: usize) -> usize {
        let lines = self.size_bytes / line_bytes;
        assert!(
            lines.is_multiple_of(self.ways),
            "cache geometry must divide evenly"
        );
        lines / self.ways
    }
}

/// Per-`OpClass` execution latencies. Memory-op latencies cover address
/// generation only; the cache hierarchy adds access time dynamically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    latencies: [u32; 11],
}

impl LatencyModel {
    fn slot(op: OpClass) -> usize {
        match op {
            OpClass::IntAlu => 0,
            OpClass::IntMul => 1,
            OpClass::IntDiv => 2,
            OpClass::Load => 3,
            OpClass::Store => 4,
            OpClass::Branch => 5,
            OpClass::FpAdd => 6,
            OpClass::FpMul => 7,
            OpClass::FpDiv => 8,
            OpClass::Copy => 9,
            OpClass::Nop => 10,
        }
    }

    /// Latency of `op` in cycles.
    #[inline]
    pub fn of(&self, op: OpClass) -> u32 {
        self.latencies[Self::slot(op)]
    }

    /// Override the latency of one class (builder style).
    #[must_use]
    pub fn with(mut self, op: OpClass, latency: u32) -> Self {
        assert!(latency >= 1, "latencies must be at least 1 cycle");
        self.latencies[Self::slot(op)] = latency;
        self
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        let mut latencies = [1u32; 11];
        for op in OpClass::PROGRAM_CLASSES {
            latencies[Self::slot(op)] = op.default_latency();
        }
        latencies[Self::slot(OpClass::Copy)] = OpClass::Copy.default_latency();
        LatencyModel { latencies }
    }
}

/// Errors detected by [`MachineConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A parameter that must be non-zero was zero.
    Zero(&'static str),
    /// Cache geometry does not divide into whole sets.
    BadCacheGeometry(&'static str),
    /// Cluster count outside the supported range (1..=8).
    BadClusterCount(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero(what) => write!(f, "parameter `{what}` must be non-zero"),
            ConfigError::BadCacheGeometry(which) => {
                write!(
                    f,
                    "cache `{which}` geometry does not divide into whole sets"
                )
            }
            ConfigError::BadClusterCount(n) => {
                write!(f, "cluster count {n} unsupported (expected 1..=8)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full machine configuration (the paper's Table 2).
///
/// Field-by-field provenance is given in the per-field docs; the defaults are
/// the values the paper lists for its baseline machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of physical backend clusters (paper: 2 baseline, 4 scaling).
    pub num_clusters: usize,
    /// Fetch width in micro-ops/cycle (paper: "6 micro-ops/cycle").
    pub fetch_width: usize,
    /// Trace-cache capacity in micro-ops (paper: "24K micro-op trace cache").
    pub trace_cache_uops: usize,
    /// Front-end depth: fetch-to-dispatch latency in cycles (paper: 5).
    pub fetch_to_dispatch: u32,
    /// Decode/rename/steer width for the integer pipe (paper: "3+3").
    pub dispatch_width_int: usize,
    /// Decode/rename/steer width for the FP pipe (paper: "3+3").
    pub dispatch_width_fp: usize,
    /// Reorder-buffer capacity in micro-ops (paper: "256+256 entries",
    /// modelled as one unified 512-entry buffer in program order).
    pub rob_entries: usize,
    /// Commit width in micro-ops/cycle (paper: "commit 3+3").
    pub commit_width: usize,
    /// Per-cluster integer issue-queue entries (paper: 48).
    pub iq_int_entries: usize,
    /// Integer issues per cluster per cycle (paper: 2).
    pub iq_int_issue: usize,
    /// Per-cluster FP issue-queue entries (paper: 48).
    pub iq_fp_entries: usize,
    /// FP issues per cluster per cycle (paper: 2).
    pub iq_fp_issue: usize,
    /// Per-cluster copy-queue entries (paper: 24).
    pub copy_queue_entries: usize,
    /// Copy issues per cluster per cycle (paper: 1).
    pub copy_issue: usize,
    /// Per-cluster integer physical registers (paper: 256).
    pub int_regs_per_cluster: usize,
    /// Per-cluster FP physical registers (paper: 256).
    pub fp_regs_per_cluster: usize,
    /// Inter-cluster link latency in cycles (paper: 1, point-to-point).
    pub copy_latency: u32,
    /// Copies a link direction can start per cycle (paper: 1 copy/cycle).
    pub copies_per_link_per_cycle: usize,
    /// Unified load/store-queue entries (paper: 256).
    pub lsq_entries: usize,
    /// Cache line size in bytes (not in Table 2; 64 B is the era's norm).
    pub line_bytes: usize,
    /// L1 data cache (paper: 32 KB, 4-way, 3-cycle hit, 2R/1W ports).
    pub l1: CacheConfig,
    /// Unified L2 (paper: 2 MB, 16-way, 13-cycle hit, 1R/1W ports).
    pub l2: CacheConfig,
    /// Main-memory latency in cycles (paper: "≥ 500 cycle miss").
    pub mem_latency: u32,
    /// Functional-unit latencies.
    pub latencies: LatencyModel,
    /// log2 of the local-history predictor's pattern-table entries. A
    /// trace has no wrong path, so a mispredict stops fetch until a
    /// pipeline depth after the branch resolves.
    pub predictor_log2_entries: u32,
    /// Occupancy fraction above which a cluster counts as "busy" for the
    /// occupancy-aware (OP) policy's stall-over-steer decision (and the VC
    /// mapper's congestion-triggered remaps). Not in Table 2; 0.85 keeps
    /// stall-over-steer from head-of-line-blocking dispatch when the
    /// alternative cluster still has a usable margin of queue space.
    pub busy_occupancy_threshold: f64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            num_clusters: 2,
            fetch_width: 6,
            trace_cache_uops: 24 * 1024,
            fetch_to_dispatch: 5,
            dispatch_width_int: 3,
            dispatch_width_fp: 3,
            rob_entries: 512,
            commit_width: 6,
            iq_int_entries: 48,
            iq_int_issue: 2,
            iq_fp_entries: 48,
            iq_fp_issue: 2,
            copy_queue_entries: 24,
            copy_issue: 1,
            int_regs_per_cluster: 256,
            fp_regs_per_cluster: 256,
            copy_latency: 1,
            copies_per_link_per_cycle: 1,
            lsq_entries: 256,
            line_bytes: 64,
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 4,
                hit_latency: 3,
                read_ports: 2,
                write_ports: 1,
            },
            l2: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
                hit_latency: 13,
                read_ports: 1,
                write_ports: 1,
            },
            mem_latency: 500,
            latencies: LatencyModel::default(),
            predictor_log2_entries: 14,
            busy_occupancy_threshold: 0.85,
        }
    }
}

impl MachineConfig {
    /// The paper's baseline 2-cluster machine (Table 2).
    pub fn paper_2cluster() -> Self {
        Self::default()
    }

    /// The paper's 4-cluster scaling configuration (Sec. 5.4): identical
    /// per-cluster resources, four clusters.
    pub fn paper_4cluster() -> Self {
        Self::default().with_clusters(4)
    }

    /// An 8-cluster extrapolation of the paper's scaling study (ROADMAP
    /// "8-cluster runs"): identical per-cluster resources, eight clusters —
    /// the maximum the cluster bit-masks support. Exercises location and
    /// wakeup masks beyond 4 bits.
    pub fn paper_8cluster() -> Self {
        Self::default().with_clusters(8)
    }

    /// Return a copy with a different cluster count.
    #[must_use]
    pub fn with_clusters(mut self, n: usize) -> Self {
        self.num_clusters = n;
        self
    }

    /// Total dispatch width (INT pipe + FP pipe).
    #[inline]
    pub fn dispatch_width(&self) -> usize {
        self.dispatch_width_int + self.dispatch_width_fp
    }

    /// Validate internal consistency; call once before simulation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_clusters == 0 || self.num_clusters > 8 {
            return Err(ConfigError::BadClusterCount(self.num_clusters));
        }
        macro_rules! nz {
            ($($f:ident),*) => {$(
                if self.$f == 0 { return Err(ConfigError::Zero(stringify!($f))); }
            )*};
        }
        nz!(
            fetch_width,
            dispatch_width_int,
            dispatch_width_fp,
            rob_entries,
            commit_width,
            iq_int_entries,
            iq_int_issue,
            iq_fp_entries,
            iq_fp_issue,
            copy_queue_entries,
            copy_issue,
            int_regs_per_cluster,
            fp_regs_per_cluster,
            copies_per_link_per_cycle,
            lsq_entries,
            line_bytes
        );
        // Latencies that feed the simulator's event calendar. Completions
        // are scheduled at `now + latency` and the calendar requires
        // strictly-future events (`SimSession::schedule` asserts
        // `at > now`); a zero here would mean same-cycle delivery, which
        // the event-driven core — and the idle-cycle skipping built on
        // top of it — never supports.
        if self.l1.hit_latency == 0 {
            return Err(ConfigError::Zero("l1.hit_latency"));
        }
        if self.l2.hit_latency == 0 {
            return Err(ConfigError::Zero("l2.hit_latency"));
        }
        if self.mem_latency == 0 {
            return Err(ConfigError::Zero("mem_latency"));
        }
        if !self
            .l1
            .size_bytes
            .is_multiple_of(self.line_bytes * self.l1.ways)
        {
            return Err(ConfigError::BadCacheGeometry("L1"));
        }
        if !self
            .l2
            .size_bytes
            .is_multiple_of(self.line_bytes * self.l2.ways)
        {
            return Err(ConfigError::BadCacheGeometry("L2"));
        }
        if !(0.0..=1.0).contains(&self.busy_occupancy_threshold) {
            return Err(ConfigError::Zero("busy_occupancy_threshold"));
        }
        Ok(())
    }

    /// Render the configuration as the paper's Table 2 (markdown).
    pub fn table2_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str("| Section | Parameter | Value |\n|---|---|---|\n");
        let mut row = |sec: &str, p: &str, v: String| {
            s.push_str(&format!("| {sec} | {p} | {v} |\n"));
        };
        row(
            "Front-end",
            "Fetch",
            format!(
                "{}K micro-op trace cache, {} micro-ops/cycle, {} cycle fetch-to-dispatch",
                self.trace_cache_uops / 1024,
                self.fetch_width,
                self.fetch_to_dispatch
            ),
        );
        row(
            "Front-end",
            "Decode, rename and steer",
            format!(
                "{}+{} micro-ops/cycle, 1 cycle latency",
                self.dispatch_width_int, self.dispatch_width_fp
            ),
        );
        row(
            "Front-end",
            "Reorder Buffer",
            format!(
                "{} entries, commit {} micro-ops/cycle",
                self.rob_entries, self.commit_width
            ),
        );
        row(
            "Back-end (per cluster)",
            "Issue queues",
            format!(
                "{}-entry INT {}/cycle, {}-entry FP {}/cycle, {}-entry COPY {}/cycle",
                self.iq_int_entries,
                self.iq_int_issue,
                self.iq_fp_entries,
                self.iq_fp_issue,
                self.copy_queue_entries,
                self.copy_issue
            ),
        );
        row(
            "Back-end (per cluster)",
            "Register file",
            format!(
                "{}-entry INT, {}-entry FP",
                self.int_regs_per_cluster, self.fp_regs_per_cluster
            ),
        );
        row(
            "Back-end",
            "Inter-cluster communication",
            format!(
                "bi-directional point-to-point links, {} cycle latency, {} copy/cycle",
                self.copy_latency, self.copies_per_link_per_cycle
            ),
        );
        row(
            "Memory",
            "L1 data cache",
            format!(
                "{}KB, {}-way, {} cycle hit, {} read ports, {} write port(s), {}-entry LSQ",
                self.l1.size_bytes / 1024,
                self.l1.ways,
                self.l1.hit_latency,
                self.l1.read_ports,
                self.l1.write_ports,
                self.lsq_entries
            ),
        );
        row(
            "Memory",
            "L2 unified cache",
            format!(
                "{}MB, {}-way, {} cycle hit, >= {} cycle miss",
                self.l2.size_bytes / (1024 * 1024),
                self.l2.ways,
                self.l2.hit_latency,
                self.mem_latency
            ),
        );
        row("Clusters", "Count", format!("{}", self.num_clusters));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table2() {
        let c = MachineConfig::default();
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.trace_cache_uops, 24 * 1024);
        assert_eq!(c.fetch_to_dispatch, 5);
        assert_eq!((c.dispatch_width_int, c.dispatch_width_fp), (3, 3));
        assert_eq!(c.rob_entries, 512);
        assert_eq!(c.commit_width, 6);
        assert_eq!((c.iq_int_entries, c.iq_int_issue), (48, 2));
        assert_eq!((c.iq_fp_entries, c.iq_fp_issue), (48, 2));
        assert_eq!((c.copy_queue_entries, c.copy_issue), (24, 1));
        assert_eq!(c.int_regs_per_cluster, 256);
        assert_eq!(c.fp_regs_per_cluster, 256);
        assert_eq!(c.copy_latency, 1);
        assert_eq!(c.lsq_entries, 256);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l1.hit_latency, 3);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.ways, 16);
        assert_eq!(c.l2.hit_latency, 13);
        assert_eq!(c.mem_latency, 500);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn four_cluster_config_only_changes_cluster_count() {
        let base = MachineConfig::paper_2cluster();
        let four = MachineConfig::paper_4cluster();
        assert_eq!(four.num_clusters, 4);
        assert!(four.validate().is_ok());
        assert_eq!(four.with_clusters(2), base);
    }

    #[test]
    fn eight_cluster_config_only_changes_cluster_count() {
        let eight = MachineConfig::paper_8cluster();
        assert_eq!(eight.num_clusters, 8);
        assert!(eight.validate().is_ok());
        assert_eq!(eight.with_clusters(2), MachineConfig::paper_2cluster());
    }

    #[test]
    fn validate_rejects_zero_and_bad_geometry() {
        let c = MachineConfig {
            fetch_width: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::Zero("fetch_width")));

        let mut c = MachineConfig {
            num_clusters: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::BadClusterCount(0)));
        c.num_clusters = 9;
        assert_eq!(c.validate(), Err(ConfigError::BadClusterCount(9)));

        let mut c = MachineConfig::default();
        c.l1.size_bytes = 1000; // not divisible by 64B * 4 ways
        assert_eq!(c.validate(), Err(ConfigError::BadCacheGeometry("L1")));
    }

    #[test]
    fn validate_rejects_zero_event_latencies() {
        // The event calendar requires strictly-future completions; a zero
        // cache or memory latency would schedule a same-cycle event.
        let mut c = MachineConfig::default();
        c.l1.hit_latency = 0;
        assert_eq!(c.validate(), Err(ConfigError::Zero("l1.hit_latency")));

        let mut c = MachineConfig::default();
        c.l2.hit_latency = 0;
        assert_eq!(c.validate(), Err(ConfigError::Zero("l2.hit_latency")));

        let c = MachineConfig {
            mem_latency: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::Zero("mem_latency")));
    }

    #[test]
    fn cache_sets_computed_from_geometry() {
        let c = MachineConfig::default();
        assert_eq!(c.l1.sets(c.line_bytes), 32 * 1024 / 64 / 4);
        assert_eq!(c.l2.sets(c.line_bytes), 2 * 1024 * 1024 / 64 / 16);
    }

    #[test]
    fn latency_model_override() {
        let lat = LatencyModel::default().with(OpClass::IntMul, 4);
        assert_eq!(lat.of(OpClass::IntMul), 4);
        assert_eq!(lat.of(OpClass::IntAlu), 1);
    }

    #[test]
    fn table2_render_contains_key_values() {
        let md = MachineConfig::default().table2_markdown();
        assert!(md.contains("24K micro-op trace cache"));
        assert!(md.contains("48-entry INT"));
        assert!(md.contains("2MB"));
        assert!(md.contains(">= 500 cycle miss"));
    }

    #[test]
    fn dispatch_width_sums_pipes() {
        assert_eq!(MachineConfig::default().dispatch_width(), 6);
    }
}
