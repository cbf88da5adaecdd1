//! The steering interface between the machine and pluggable policies.
//!
//! The simulator calls the policy once per micro-op, *in program order,
//! applying each decision's effects (rename-table location updates, copy
//! insertion) before the next call*. A policy that reads
//! [`SteerView::location`] therefore implements the paper's **sequential**
//! steering; one that reads [`SteerView::location_stale`] sees only the
//! bundle-entry snapshot and reproduces the cheap **parallel**
//! (renaming-style) steering of Sec. 2.1. The hybrid VC policy reads
//! neither — just its mapping table and the workload counters
//! ([`SteerView::inflight`]), which is the whole point of the paper.
//!
//! ## The view is incremental, not rebuilt
//!
//! Everything a [`SteerView`] exposes is maintained at the events that
//! change it, never reconstructed per dispatched micro-op:
//!
//! * register location masks are the session's live `cur_loc` array
//!   (updated at renames and copy insertions — the rename-table walk is
//!   gone);
//! * queue occupancy, busy and full state live in a [`SteerSummary`]
//!   updated at every issue-queue insert and remove; the busy threshold is
//!   pre-resolved to an integer occupancy limit at reset, so
//!   [`SteerView::is_busy`]/[`SteerView::has_queue_space`] are single bit
//!   tests instead of per-call float comparisons.
//!
//! Debug builds re-derive the whole view from the queues and the rename
//! table every dispatch cycle and assert equality (the "view-vs-rebuild"
//! mirror; see `SimSession::dispatch`).

use virtclust_uarch::{ArchReg, DynUop, QueueKind, NUM_ARCH_REGS};

use crate::value::{all_clusters, cluster_bit, ClusterMask};

/// A steering decision for one micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteerDecision {
    /// Send the micro-op to this physical cluster.
    Cluster(u8),
    /// Stall the front-end this cycle (the occupancy-aware
    /// "stall-over-steer" behaviour of [González et al.]).
    Stall,
}

/// Incrementally maintained per-cluster queue summaries: occupancy counts
/// plus derived busy/full bit masks, updated at entry insert/remove. This
/// is the steering view's backing store — reading it never walks a queue.
#[derive(Debug, Clone, Default)]
pub struct SteerSummary {
    num_clusters: usize,
    /// `occ[cluster][QueueKind::index()]`.
    occ: Vec<[usize; 3]>,
    cap: [usize; 3],
    /// Smallest occupancy that counts as "busy" per queue kind — the
    /// integer resolution of `occ as f64 >= threshold * cap as f64`,
    /// computed once at reset so updates and reads stay in integers.
    busy_limit: [usize; 3],
    /// Bit `c` of `busy[kind]` set ⇔ cluster `c`'s `kind` queue is at or
    /// above the busy limit.
    busy: [ClusterMask; 3],
    /// Bit `c` of `full[kind]` set ⇔ cluster `c`'s `kind` queue is full.
    full: [ClusterMask; 3],
}

impl SteerSummary {
    /// An empty summary; call [`SteerSummary::reset`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-initialise for `num_clusters` clusters with per-kind queue
    /// capacities `cap` and the configured busy occupancy threshold,
    /// keeping allocations (session reuse).
    pub fn reset(&mut self, num_clusters: usize, cap: [usize; 3], busy_threshold: f64) {
        self.num_clusters = num_clusters;
        self.occ.clear();
        self.occ.resize(num_clusters, [0; 3]);
        self.cap = cap;
        for (k, &kind_cap) in cap.iter().enumerate() {
            // Exact integer resolution of the float predicate: the smallest
            // occupancy in 0..=cap satisfying it (cap+1 = never busy).
            let t = busy_threshold * kind_cap as f64;
            self.busy_limit[k] = (0..=kind_cap)
                .find(|&o| o as f64 >= t)
                .unwrap_or(kind_cap + 1);
            // Occupancies start at zero; limit 0 means "busy at zero".
            self.busy[k] = if self.busy_limit[k] == 0 {
                all_clusters(num_clusters)
            } else {
                0
            };
            self.full[k] = if kind_cap == 0 {
                all_clusters(num_clusters)
            } else {
                0
            };
        }
    }

    /// One entry entered `cluster`'s `kind` queue.
    #[inline]
    pub fn insert(&mut self, cluster: usize, kind: QueueKind) {
        let k = kind.index();
        let occ = &mut self.occ[cluster][k];
        *occ += 1;
        let bit = cluster_bit(cluster as u8);
        if *occ >= self.busy_limit[k] {
            self.busy[k] |= bit;
        }
        if *occ >= self.cap[k] {
            self.full[k] |= bit;
        }
    }

    /// `n` entries left `cluster`'s `kind` queue (issue).
    #[inline]
    pub fn remove(&mut self, cluster: usize, kind: QueueKind, n: usize) {
        if n == 0 {
            return;
        }
        let k = kind.index();
        let occ = &mut self.occ[cluster][k];
        debug_assert!(*occ >= n, "occupancy underflow");
        *occ -= n;
        let bit = cluster_bit(cluster as u8);
        if *occ < self.busy_limit[k] {
            self.busy[k] &= !bit;
        }
        if *occ < self.cap[k] {
            self.full[k] &= !bit;
        }
    }

    /// Current occupancy of `cluster`'s queue of `kind`.
    #[inline]
    pub fn occupancy(&self, cluster: u8, kind: QueueKind) -> usize {
        self.occ[cluster as usize][kind.index()]
    }

    /// Capacity of queues of `kind`.
    #[inline]
    pub fn capacity(&self, kind: QueueKind) -> usize {
        self.cap[kind.index()]
    }

    /// True if `cluster` still has a free entry in its `kind` queue.
    #[inline]
    pub fn has_space(&self, cluster: u8, kind: QueueKind) -> bool {
        self.full[kind.index()] & cluster_bit(cluster) == 0
    }

    /// True if `cluster`'s `kind` queue occupancy is at or above the busy
    /// threshold resolved at reset.
    #[inline]
    pub fn is_busy(&self, cluster: u8, kind: QueueKind) -> bool {
        self.busy[kind.index()] & cluster_bit(cluster) != 0
    }
}

/// The machine state a steering policy may inspect — deliberately exactly
/// what the paper's hardware proposals can see: register location bits
/// (from the rename table), issue-queue occupancies, and the per-cluster
/// workload counters. A thin window onto state the simulator maintains
/// incrementally (see the module docs); constructing one copies a handful
/// of references.
pub struct SteerView<'a> {
    pub(crate) num_clusters: usize,
    /// Live per-register location masks (the session's `cur_loc`).
    pub(crate) cur_loc: &'a [ClusterMask; NUM_ARCH_REGS],
    pub(crate) stale_loc: &'a [ClusterMask; NUM_ARCH_REGS],
    pub(crate) summary: &'a SteerSummary,
    pub(crate) inflight: &'a [u32],
}

impl SteerView<'_> {
    /// Number of physical clusters.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Up-to-date location mask of `reg`'s current value (reflects all
    /// previous steering decisions, including earlier ops of this bundle) —
    /// sequential steering information. A single array read: the mask is
    /// maintained at the events that change it (renames, copy insertions).
    #[inline]
    pub fn location(&self, reg: ArchReg) -> ClusterMask {
        self.cur_loc[reg.flat()]
    }

    /// Bundle-entry location snapshot — the stale information a fully
    /// parallel steering implementation would be limited to (Sec. 2.1).
    #[inline]
    pub fn location_stale(&self, reg: ArchReg) -> ClusterMask {
        self.stale_loc[reg.flat()]
    }

    /// Current occupancy of `cluster`'s queue of `kind`.
    #[inline]
    pub fn occupancy(&self, cluster: u8, kind: QueueKind) -> usize {
        self.summary.occupancy(cluster, kind)
    }

    /// Capacity of queues of `kind`.
    #[inline]
    pub fn capacity(&self, kind: QueueKind) -> usize {
        self.summary.capacity(kind)
    }

    /// True if `cluster` still has a free entry in its `kind` queue.
    #[inline]
    pub fn has_queue_space(&self, cluster: u8, kind: QueueKind) -> bool {
        self.summary.has_space(cluster, kind)
    }

    /// The paper's workload counters: in-flight micro-ops per cluster.
    #[inline]
    pub fn inflight(&self, cluster: u8) -> u32 {
        self.inflight[cluster as usize]
    }

    /// The least-loaded cluster by in-flight count (ties → lowest index).
    pub fn least_loaded(&self) -> u8 {
        (0..self.num_clusters as u8)
            .min_by_key(|&c| (self.inflight(c), c))
            .expect("at least one cluster")
    }

    /// True if `cluster` counts as "busy" for stall-over-steer decisions:
    /// its queue occupancy for `kind` exceeds the configured threshold
    /// (a bit test against the summary's precomputed busy mask).
    #[inline]
    pub fn is_busy(&self, cluster: u8, kind: QueueKind) -> bool {
        self.summary.is_busy(cluster, kind)
    }

    /// Count of set bits of `mask` restricted to real clusters.
    #[inline]
    pub fn mask_count(&self, mask: ClusterMask) -> u32 {
        (mask & all_clusters(self.num_clusters)).count_ones()
    }
}

/// A steering policy: decides the physical cluster of every micro-op.
pub trait SteeringPolicy {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> String;

    /// Decide where `uop` goes. Called in program order; effects of prior
    /// decisions are visible through `view`.
    fn steer(&mut self, uop: &DynUop, view: &SteerView<'_>) -> SteerDecision;

    /// Reset internal state (mapping tables, counters) before a new run.
    fn reset(&mut self) {}

    /// Whether repeat and extra calls to [`SteeringPolicy::steer`] are
    /// unobservable, which is what the session relies on:
    ///
    /// * a repeat call for the same micro-op with an unchanged view changes
    ///   nothing: it returns the same decision and leaves the policy's
    ///   state as the first call left it;
    /// * a policy whose decisions read its own state must not read
    ///   [`SteerView::location_stale`], because the idle-span probe steers
    ///   once per stale epoch, ahead of stepping, and the state those
    ///   calls leave would feed the decisions of epochs stepping had not
    ///   reached yet.
    ///
    /// Under this contract the simulator may elide repeat calls for a
    /// stalled front micro-op *and* make extra probe calls, with no
    /// observable effect — which is what opts the policy in to the
    /// idle-span optimisation for dispatch-stall cycles (a policy stall,
    /// or a steered target blocked on queue/register-file/copy resources):
    /// while a stalled micro-op waits on a frozen pipeline, the per-cycle
    /// re-steer calls stepping would make are provably identical, so the
    /// probe steers once per stale epoch and the simulator skips the span
    /// instead of stepping it. A function of `(uop, view)` qualifies, so
    /// does a statistical cursor (e.g. "count each hint-less micro-op
    /// once", keyed by `uop.seq`), and so does a mapping table that a
    /// repeat call rewrites with the value it already holds (the VC
    /// mapper). A policy that moves on every call — a round-robin counter
    /// — must keep the default `false`. Declaring purity falsely breaks the
    /// bit-identity contract between skipping and stepping.
    fn steer_is_pure(&self) -> bool {
        false
    }
}

/// Blanket impl so `&mut P` works wherever a policy is needed.
impl<P: SteeringPolicy + ?Sized> SteeringPolicy for &mut P {
    fn name(&self) -> String {
        (**self).name()
    }

    fn steer(&mut self, uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
        (**self).steer(uop, view)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn steer_is_pure(&self) -> bool {
        (**self).steer_is_pure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(num_clusters: usize, occ: &[[usize; 3]], cap: [usize; 3], thr: f64) -> SteerSummary {
        let mut s = SteerSummary::new();
        s.reset(num_clusters, cap, thr);
        for (c, per_kind) in occ.iter().enumerate() {
            for kind in QueueKind::ALL {
                for _ in 0..per_kind[kind.index()] {
                    s.insert(c, kind);
                }
            }
        }
        s
    }

    #[test]
    fn view_exposes_locations_and_occupancy() {
        let mut cur = [0b01u8; NUM_ARCH_REGS];
        let reg = ArchReg::int(5);
        cur[reg.flat()] = 0b10;
        let stale = [0b11u8; NUM_ARCH_REGS];
        let sum = summary(2, &[[3, 0, 0], [10, 2, 1]], [48, 48, 24], 0.75);
        let inflight = vec![4, 20];
        let view = SteerView {
            num_clusters: 2,
            cur_loc: &cur,
            stale_loc: &stale,
            summary: &sum,
            inflight: &inflight,
        };
        assert_eq!(view.location(reg), 0b10);
        assert_eq!(view.location_stale(reg), 0b11);
        assert_eq!(view.occupancy(1, QueueKind::Int), 10);
        assert!(view.has_queue_space(1, QueueKind::Int));
        assert_eq!(view.least_loaded(), 0);
        assert_eq!(view.inflight(1), 20);
        assert!(!view.is_busy(0, QueueKind::Int));
        assert_eq!(view.mask_count(0b11), 2);
    }

    #[test]
    fn busy_threshold_triggers() {
        let sum = summary(2, &[[36, 0, 0], [35, 0, 0]], [48, 48, 24], 0.75);
        assert!(sum.is_busy(0, QueueKind::Int), "36 >= 0.75*48");
        assert!(!sum.is_busy(1, QueueKind::Int), "35 < 36");
    }

    #[test]
    fn least_loaded_breaks_ties_low() {
        let cur = [0u8; NUM_ARCH_REGS];
        let stale = [0u8; NUM_ARCH_REGS];
        let sum = summary(4, &[[0, 0, 0]; 4], [48, 48, 24], 0.75);
        let inflight = vec![5, 3, 3, 9];
        let view = SteerView {
            num_clusters: 4,
            cur_loc: &cur,
            stale_loc: &stale,
            summary: &sum,
            inflight: &inflight,
        };
        assert_eq!(view.least_loaded(), 1);
    }

    #[test]
    fn busy_and_full_bits_track_the_float_predicate_exactly() {
        // Sweep a queue from empty to full and back: at every occupancy the
        // incremental bits must equal the reference float comparison and
        // the capacity check — for thresholds that do and do not land on an
        // integer boundary, including the degenerate 0.0 and 1.0.
        for thr in [0.0, 0.5, 0.75, 0.85, 0.849999, 1.0] {
            for cap in [1usize, 3, 24, 48] {
                let mut s = SteerSummary::new();
                s.reset(1, [cap, cap, cap], thr);
                let kind = QueueKind::Int;
                for occ in 0..=cap {
                    assert_eq!(
                        s.is_busy(0, kind),
                        occ as f64 >= thr * cap as f64,
                        "busy at occ={occ} cap={cap} thr={thr}"
                    );
                    assert_eq!(s.has_space(0, kind), occ < cap, "full at occ={occ}");
                    if occ < cap {
                        s.insert(0, kind);
                    }
                }
                for occ in (0..=cap).rev() {
                    assert_eq!(
                        s.is_busy(0, kind),
                        occ as f64 >= thr * cap as f64,
                        "busy at occ={occ} cap={cap} thr={thr} (down)"
                    );
                    assert_eq!(s.has_space(0, kind), occ < cap);
                    if occ > 0 {
                        s.remove(0, kind, 1);
                    }
                }
            }
        }
    }

    #[test]
    fn summary_reset_clears_state_for_new_shape() {
        let mut s = summary(2, &[[48, 0, 24], [1, 1, 1]], [48, 48, 24], 0.85);
        assert!(!s.has_space(0, QueueKind::Int));
        assert!(s.is_busy(0, QueueKind::Copy));
        s.reset(4, [8, 8, 4], 0.85);
        for c in 0..4u8 {
            for kind in QueueKind::ALL {
                assert_eq!(s.occupancy(c, kind), 0);
                assert!(s.has_space(c, kind));
                assert!(!s.is_busy(c, kind));
            }
        }
        assert_eq!(s.capacity(QueueKind::Copy), 4);
    }
}
