//! Simulation statistics.
//!
//! Everything the paper's evaluation measures is collected here: cycles and
//! committed micro-ops (→ IPC and slowdown), generated copy micro-ops
//! (Fig. 6 copy reduction), and issue-queue allocation stalls (Fig. 6
//! workload-balance metric: *"workload balance improvement is computed as
//! the total reduction of the allocation stalls in the issue queues"*).

use std::fmt;

/// Why dispatch stopped for a cycle (first blocking reason of the bundle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Reorder buffer full.
    RobFull,
    /// Load/store queue full.
    LsqFull,
    /// Target cluster's INT/FP issue queue full (the paper's
    /// "allocation stalls in the issue queues").
    IqFull,
    /// A needed copy could not be allocated (source cluster copy queue full).
    CopyQueueFull,
    /// Target cluster's register file exhausted.
    RfFull,
    /// The steering policy chose to stall (OP's stall-over-steer).
    PolicyStall,
}

impl StallReason {
    /// Dense index for stat arrays.
    pub fn index(self) -> usize {
        match self {
            StallReason::RobFull => 0,
            StallReason::LsqFull => 1,
            StallReason::IqFull => 2,
            StallReason::CopyQueueFull => 3,
            StallReason::RfFull => 4,
            StallReason::PolicyStall => 5,
        }
    }

    /// All reasons, for iteration.
    pub const ALL: [StallReason; 6] = [
        StallReason::RobFull,
        StallReason::LsqFull,
        StallReason::IqFull,
        StallReason::CopyQueueFull,
        StallReason::RfFull,
        StallReason::PolicyStall,
    ];
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallReason::RobFull => "rob-full",
            StallReason::LsqFull => "lsq-full",
            StallReason::IqFull => "iq-full",
            StallReason::CopyQueueFull => "copyq-full",
            StallReason::RfFull => "rf-full",
            StallReason::PolicyStall => "policy-stall",
        };
        f.write_str(s)
    }
}

/// The per-cycle accounting an idle cycle records: dispatch either found
/// nothing ready in the fetch buffer or stopped on a structural stall it
/// detects before consulting the steering policy. This is the only
/// classification the cycle-skipping fast path needs — every other
/// counter is untouched on a provably idle cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleCycleKind {
    /// Dispatch dispatched nothing and did not stall: the front-end had no
    /// micro-op ready (`frontend_starved_cycles`).
    FrontendStarved,
    /// Dispatch stopped on a structural or policy stall
    /// (`dispatch_stalls[reason]`). The pre-steering reasons (ROB/LSQ
    /// full) can classify an idle cycle under any policy; the
    /// post-steering reasons (IQ/RF/copy-queue full, policy stall)
    /// require a pure policy (`SteeringPolicy::steer_is_pure`), whose
    /// probe-time steer calls are unobservable by contract.
    DispatchStall(StallReason),
}

impl IdleCycleKind {
    /// Static label for telemetry (skip-span events in timelines).
    pub fn label(self) -> &'static str {
        match self {
            IdleCycleKind::FrontendStarved => "frontend-starved",
            IdleCycleKind::DispatchStall(StallReason::RobFull) => "rob-full",
            IdleCycleKind::DispatchStall(StallReason::LsqFull) => "lsq-full",
            IdleCycleKind::DispatchStall(StallReason::IqFull) => "iq-full",
            IdleCycleKind::DispatchStall(StallReason::CopyQueueFull) => "copyq-full",
            IdleCycleKind::DispatchStall(StallReason::RfFull) => "rf-full",
            IdleCycleKind::DispatchStall(StallReason::PolicyStall) => "policy-stall",
        }
    }
}

/// Per-cluster counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// Micro-ops dispatched to this cluster (excluding copies).
    pub dispatched: u64,
    /// Copy micro-ops inserted into this cluster's copy queue.
    pub copies_inserted: u64,
    /// Micro-ops issued from this cluster's INT+FP queues.
    pub issued: u64,
    /// Sum over cycles of in-flight micro-op count (for average occupancy).
    pub occupancy_integral: u64,
}

impl ClusterStats {
    /// Replicate `span` idle cycles: the cluster's in-flight count is
    /// frozen at `inflight`, so the occupancy integral grows linearly and
    /// every activity counter stays put. The exhaustive destructuring
    /// fails to compile when `ClusterStats` grows a field, forcing every
    /// new counter to take an explicit stance on idle-span replication
    /// (the same discipline as the golden-stats serializer).
    pub fn replicate_idle_cycles(&mut self, span: u64, inflight: u32) {
        let ClusterStats {
            dispatched: _,      // dispatch is provably inert on an idle cycle
            copies_inserted: _, // copies are only inserted at dispatch
            issued: _,          // nothing is issueable (`ready_entries == 0`)
            occupancy_integral,
        } = self;
        *occupancy_integral += u64::from(inflight) * span;
    }
}

/// Full statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Program micro-ops committed (copies excluded).
    pub committed_uops: u64,
    /// Copy micro-ops generated by the steering/copy-generation logic.
    pub copies_generated: u64,
    /// Copy micro-ops delivered across a link.
    pub copies_delivered: u64,
    /// Dispatch-stall events per [`StallReason`] (one per stalled cycle).
    pub dispatch_stalls: [u64; 6],
    /// Cycles in which dispatch dispatched zero micro-ops because the
    /// front-end had none ready (includes mispredict refill bubbles).
    pub frontend_starved_cycles: u64,
    /// Branches committed.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// L1 data-cache load hits.
    pub l1_hits: u64,
    /// L1 data-cache load misses.
    pub l1_misses: u64,
    /// L2 load hits (of L1 misses).
    pub l2_hits: u64,
    /// L2 load misses (main-memory accesses).
    pub l2_misses: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub store_forwards: u64,
    /// Trace-cache misses (front-end refill bubbles).
    pub trace_cache_misses: u64,
    /// Per-cluster counters.
    pub clusters: Vec<ClusterStats>,
}

impl SimStats {
    /// Create stats for a machine with `num_clusters` clusters.
    pub fn new(num_clusters: usize) -> Self {
        SimStats {
            clusters: vec![ClusterStats::default(); num_clusters],
            ..Default::default()
        }
    }

    /// Replicate `span` provably idle cycles arithmetically, exactly as
    /// `span` executions of the per-cycle stage bodies would have recorded
    /// them: `cycles` advances, the idle classification's counter grows by
    /// `span`, and each cluster's occupancy integral grows by its frozen
    /// in-flight count times `span`. Everything else is untouched — and
    /// must be, for the bit-identity contract between cycle skipping and
    /// single-stepping to hold. The exhaustive destructuring fails to
    /// compile when `SimStats` grows a field, so a new counter can never
    /// silently default to "unchanged while idle" without review.
    pub fn replicate_idle_cycles(&mut self, span: u64, kind: IdleCycleKind, inflight: &[u32]) {
        let SimStats {
            cycles,
            committed_uops: _,   // no commit-ready ROB head during the span
            copies_generated: _, // generated at dispatch, which is inert
            copies_delivered: _, // delivery is a calendar event; none due
            dispatch_stalls,
            frontend_starved_cycles,
            branches: _,    // counted at commit
            mispredicts: _, // counted at commit
            l1_hits: _,     // memory stage has no pending load
            l1_misses: _,
            l2_hits: _,
            l2_misses: _,
            store_forwards: _,
            trace_cache_misses: _, // fetch is provably inert
            clusters,
        } = self;
        *cycles += span;
        match kind {
            IdleCycleKind::FrontendStarved => *frontend_starved_cycles += span,
            IdleCycleKind::DispatchStall(reason) => dispatch_stalls[reason.index()] += span,
        }
        debug_assert_eq!(clusters.len(), inflight.len());
        for (c, &n) in clusters.iter_mut().zip(inflight) {
            c.replicate_idle_cycles(span, n);
        }
    }

    /// Field-wise difference `self - prev`, where `prev` is an earlier
    /// snapshot of the same run (so every counter of `self` is ≥ its
    /// counterpart in `prev`). This is what the interval observer emits
    /// every K cycles. The exhaustive destructuring fails to compile when
    /// `SimStats` grows a field, so a new counter can never silently
    /// vanish from interval telemetry — the same discipline as
    /// [`SimStats::replicate_idle_cycles`].
    pub fn delta_since(&self, prev: &SimStats) -> SimStats {
        let SimStats {
            cycles,
            committed_uops,
            copies_generated,
            copies_delivered,
            dispatch_stalls,
            frontend_starved_cycles,
            branches,
            mispredicts,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            store_forwards,
            trace_cache_misses,
            clusters,
        } = self;
        debug_assert_eq!(clusters.len(), prev.clusters.len());
        SimStats {
            cycles: cycles - prev.cycles,
            committed_uops: committed_uops - prev.committed_uops,
            copies_generated: copies_generated - prev.copies_generated,
            copies_delivered: copies_delivered - prev.copies_delivered,
            dispatch_stalls: std::array::from_fn(|i| dispatch_stalls[i] - prev.dispatch_stalls[i]),
            frontend_starved_cycles: frontend_starved_cycles - prev.frontend_starved_cycles,
            branches: branches - prev.branches,
            mispredicts: mispredicts - prev.mispredicts,
            l1_hits: l1_hits - prev.l1_hits,
            l1_misses: l1_misses - prev.l1_misses,
            l2_hits: l2_hits - prev.l2_hits,
            l2_misses: l2_misses - prev.l2_misses,
            store_forwards: store_forwards - prev.store_forwards,
            trace_cache_misses: trace_cache_misses - prev.trace_cache_misses,
            clusters: clusters
                .iter()
                .zip(&prev.clusters)
                .map(|(c, p)| {
                    let ClusterStats {
                        dispatched,
                        copies_inserted,
                        issued,
                        occupancy_integral,
                    } = c;
                    ClusterStats {
                        dispatched: dispatched - p.dispatched,
                        copies_inserted: copies_inserted - p.copies_inserted,
                        issued: issued - p.issued,
                        occupancy_integral: occupancy_integral - p.occupancy_integral,
                    }
                })
                .collect(),
        }
    }

    /// Field-wise sum: fold `other` (an interval delta) into `self`.
    /// Inverse of [`SimStats::delta_since`]: summing every interval delta
    /// of a run reconstructs its final stats exactly, which the interval
    /// proptests check field by field. The exhaustive destructuring keeps
    /// this in lockstep with the struct definition.
    pub fn accumulate(&mut self, other: &SimStats) {
        let SimStats {
            cycles,
            committed_uops,
            copies_generated,
            copies_delivered,
            dispatch_stalls,
            frontend_starved_cycles,
            branches,
            mispredicts,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            store_forwards,
            trace_cache_misses,
            clusters,
        } = self;
        *cycles += other.cycles;
        *committed_uops += other.committed_uops;
        *copies_generated += other.copies_generated;
        *copies_delivered += other.copies_delivered;
        for (a, b) in dispatch_stalls.iter_mut().zip(&other.dispatch_stalls) {
            *a += b;
        }
        *frontend_starved_cycles += other.frontend_starved_cycles;
        *branches += other.branches;
        *mispredicts += other.mispredicts;
        *l1_hits += other.l1_hits;
        *l1_misses += other.l1_misses;
        *l2_hits += other.l2_hits;
        *l2_misses += other.l2_misses;
        *store_forwards += other.store_forwards;
        *trace_cache_misses += other.trace_cache_misses;
        if clusters.is_empty() {
            *clusters = vec![ClusterStats::default(); other.clusters.len()];
        }
        debug_assert_eq!(clusters.len(), other.clusters.len());
        for (c, o) in clusters.iter_mut().zip(&other.clusters) {
            let ClusterStats {
                dispatched,
                copies_inserted,
                issued,
                occupancy_integral,
            } = c;
            *dispatched += o.dispatched;
            *copies_inserted += o.copies_inserted;
            *issued += o.issued;
            *occupancy_integral += o.occupancy_integral;
        }
    }

    /// Write every field as stable `key=value` lines: the canonical
    /// encoding the golden pins (`results/golden/`) hold and the service's
    /// stats digest hashes. The exhaustive destructuring fails to compile
    /// when `SimStats` grows a field, so neither can silently under-cover.
    pub fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let SimStats {
            cycles,
            committed_uops,
            copies_generated,
            copies_delivered,
            dispatch_stalls,
            frontend_starved_cycles,
            branches,
            mispredicts,
            l1_hits,
            l1_misses,
            l2_hits,
            l2_misses,
            store_forwards,
            trace_cache_misses,
            clusters,
        } = self;
        writeln!(out, "cycles={cycles}")?;
        writeln!(out, "committed_uops={committed_uops}")?;
        writeln!(out, "copies_generated={copies_generated}")?;
        writeln!(out, "copies_delivered={copies_delivered}")?;
        for reason in StallReason::ALL {
            writeln!(
                out,
                "dispatch_stalls.{reason}={}",
                dispatch_stalls[reason.index()]
            )?;
        }
        writeln!(out, "frontend_starved_cycles={frontend_starved_cycles}")?;
        writeln!(out, "branches={branches}")?;
        writeln!(out, "mispredicts={mispredicts}")?;
        writeln!(out, "l1_hits={l1_hits}")?;
        writeln!(out, "l1_misses={l1_misses}")?;
        writeln!(out, "l2_hits={l2_hits}")?;
        writeln!(out, "l2_misses={l2_misses}")?;
        writeln!(out, "store_forwards={store_forwards}")?;
        writeln!(out, "trace_cache_misses={trace_cache_misses}")?;
        for (i, c) in clusters.iter().enumerate() {
            let ClusterStats {
                dispatched,
                copies_inserted,
                issued,
                occupancy_integral,
            } = c;
            writeln!(
                out,
                "cluster{i}=dispatched:{dispatched},copies_inserted:{copies_inserted},\
                 issued:{issued},occupancy_integral:{occupancy_integral}"
            )?;
        }
        Ok(())
    }

    /// Committed micro-ops per cycle (copies excluded, as the paper's IPC).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_uops as f64 / self.cycles as f64
        }
    }

    /// Copies generated per 1000 committed micro-ops.
    pub fn copies_per_kuop(&self) -> f64 {
        if self.committed_uops == 0 {
            0.0
        } else {
            1000.0 * self.copies_generated as f64 / self.committed_uops as f64
        }
    }

    /// The paper's workload-balance metric input: total allocation stalls
    /// in the issue queues. Includes IQ-full and copy-queue-full stalls,
    /// and policy stalls (OP's stall-over-steer fires precisely when the
    /// preferred cluster's queue cannot accept the micro-op, so it is the
    /// same event observed from inside the policy).
    pub fn allocation_stalls(&self) -> u64 {
        self.dispatch_stalls[StallReason::IqFull.index()]
            + self.dispatch_stalls[StallReason::CopyQueueFull.index()]
            + self.dispatch_stalls[StallReason::PolicyStall.index()]
    }

    /// Total dispatch stalls of any kind.
    pub fn total_dispatch_stalls(&self) -> u64 {
        self.dispatch_stalls.iter().sum()
    }

    /// Branch misprediction rate in [0, 1].
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// L1 load hit rate in [0, 1].
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// L2 load hit rate in [0, 1] (of loads that missed L1).
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// Coefficient describing how evenly program micro-ops spread across
    /// clusters: `max_cluster_share / mean_share - 1` (0 = perfectly even).
    pub fn dispatch_imbalance(&self) -> f64 {
        let total: u64 = self.clusters.iter().map(|c| c.dispatched).sum();
        if total == 0 || self.clusters.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.clusters.len() as f64;
        let max = self
            .clusters
            .iter()
            .map(|c| c.dispatched)
            .max()
            .unwrap_or(0) as f64;
        max / mean - 1.0
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "cycles={} uops={} ipc={:.3} copies={} ({:.1}/kuop) alloc-stalls={} mispredict={:.2}% l1-hit={:.1}%",
            self.cycles,
            self.committed_uops,
            self.ipc(),
            self.copies_generated,
            self.copies_per_kuop(),
            self.allocation_stalls(),
            100.0 * self.mispredict_rate(),
            100.0 * self.l1_hit_rate(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates_handle_zero_denominators() {
        let s = SimStats::new(2);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.copies_per_kuop(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.dispatch_imbalance(), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let mut s = SimStats::new(2);
        s.cycles = 100;
        s.committed_uops = 250;
        s.copies_generated = 50;
        s.branches = 10;
        s.mispredicts = 1;
        s.l1_hits = 90;
        s.l1_misses = 10;
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.copies_per_kuop() - 200.0).abs() < 1e-12);
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((s.l1_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn allocation_stalls_sum_iq_and_copyq() {
        let mut s = SimStats::new(2);
        s.dispatch_stalls[StallReason::IqFull.index()] = 7;
        s.dispatch_stalls[StallReason::CopyQueueFull.index()] = 3;
        s.dispatch_stalls[StallReason::RobFull.index()] = 100;
        assert_eq!(s.allocation_stalls(), 10);
        assert_eq!(s.total_dispatch_stalls(), 110);
    }

    #[test]
    fn imbalance_detects_skew() {
        let mut s = SimStats::new(2);
        s.clusters[0].dispatched = 100;
        s.clusters[1].dispatched = 100;
        assert!(s.dispatch_imbalance().abs() < 1e-12);
        s.clusters[1].dispatched = 0;
        assert!((s.dispatch_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replicate_idle_cycles_is_span_many_single_cycles() {
        // The arithmetic replication must equal applying the per-cycle
        // accounting `span` times by hand.
        let mut base = SimStats::new(3);
        base.cycles = 17;
        base.committed_uops = 40;
        base.frontend_starved_cycles = 5;
        base.dispatch_stalls[StallReason::RobFull.index()] = 2;
        base.clusters[0].occupancy_integral = 100;
        base.clusters[2].occupancy_integral = 7;
        let inflight = [4u32, 0, 9];

        for kind in [
            IdleCycleKind::FrontendStarved,
            IdleCycleKind::DispatchStall(StallReason::RobFull),
            IdleCycleKind::DispatchStall(StallReason::LsqFull),
        ] {
            let span = 123;
            let mut bulk = base.clone();
            bulk.replicate_idle_cycles(span, kind, &inflight);
            let mut stepped = base.clone();
            for _ in 0..span {
                stepped.replicate_idle_cycles(1, kind, &inflight);
            }
            assert_eq!(bulk, stepped, "{kind:?}");
            assert_eq!(bulk.cycles, base.cycles + span);
            assert_eq!(
                bulk.clusters[2].occupancy_integral,
                base.clusters[2].occupancy_integral + 9 * span
            );
            // Commit/memory/fetch counters must be untouched.
            assert_eq!(bulk.committed_uops, base.committed_uops);
            assert_eq!(bulk.l1_hits, base.l1_hits);
            assert_eq!(bulk.trace_cache_misses, base.trace_cache_misses);
        }
    }

    #[test]
    fn replicate_idle_cycles_touches_exactly_one_idle_counter() {
        let inflight = [0u32, 0];
        let mut s = SimStats::new(2);
        s.replicate_idle_cycles(10, IdleCycleKind::FrontendStarved, &inflight);
        assert_eq!(s.frontend_starved_cycles, 10);
        assert_eq!(s.total_dispatch_stalls(), 0);

        let mut s = SimStats::new(2);
        s.replicate_idle_cycles(
            10,
            IdleCycleKind::DispatchStall(StallReason::LsqFull),
            &inflight,
        );
        assert_eq!(s.frontend_starved_cycles, 0);
        assert_eq!(s.dispatch_stalls[StallReason::LsqFull.index()], 10);
        assert_eq!(s.total_dispatch_stalls(), 10);
    }

    fn busy_stats(seed: u64) -> SimStats {
        // Deterministic pseudo-random fill of every field.
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1000
        };
        let mut s = SimStats::new(3);
        s.cycles = next();
        s.committed_uops = next();
        s.copies_generated = next();
        s.copies_delivered = next();
        for d in &mut s.dispatch_stalls {
            *d = next();
        }
        s.frontend_starved_cycles = next();
        s.branches = next();
        s.mispredicts = next();
        s.l1_hits = next();
        s.l1_misses = next();
        s.l2_hits = next();
        s.l2_misses = next();
        s.store_forwards = next();
        s.trace_cache_misses = next();
        for c in &mut s.clusters {
            c.dispatched = next();
            c.copies_inserted = next();
            c.issued = next();
            c.occupancy_integral = next();
        }
        s
    }

    #[test]
    fn delta_since_and_accumulate_are_inverses() {
        let early = busy_stats(1);
        let mut late = busy_stats(2);
        // Make `late` a strict superset snapshot: late = early + busy(2).
        late.accumulate(&early);
        let delta = late.delta_since(&early);

        let mut rebuilt = early.clone();
        rebuilt.accumulate(&delta);
        assert_eq!(rebuilt, late);

        // Delta against self is all-zero.
        let zero = late.delta_since(&late);
        assert_eq!(zero, SimStats::new(3));

        // Accumulating into a cluster-less default adopts the shape.
        let mut sum = SimStats::default();
        sum.accumulate(&delta);
        assert_eq!(sum, delta);
    }

    #[test]
    fn l2_hit_rate_handles_zero_and_counts() {
        let mut s = SimStats::new(1);
        assert_eq!(s.l2_hit_rate(), 0.0);
        s.l2_hits = 3;
        s.l2_misses = 1;
        assert!((s.l2_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stall_reason_indices_are_dense_and_unique() {
        let mut seen = [false; 6];
        for r in StallReason::ALL {
            assert!(!seen[r.index()]);
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }
}
