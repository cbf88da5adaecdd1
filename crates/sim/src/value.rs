//! Value tracking: where every register value lives among the clusters.
//!
//! In the paper's machine every renamed value physically lives in the
//! register file of the cluster that produced it, and becomes visible to
//! another cluster only after an explicit copy micro-op transfers it across
//! a point-to-point link. Steering heuristics consult "the location of a
//! register value", a facility the paper says "can be attached to the rename
//! table with a negligible complexity increase".
//!
//! [`ValueTracker`] is a reference-counted slab of in-flight and architected
//! values; each value carries two per-cluster bit masks: `ready` (the value
//! sits in that cluster's register file) and `pending` (the value *will*
//! appear there: its producer was steered there, or a copy is in flight).
//! The steering-visible *location mask* is their union — exactly what the
//! rename-table location bits would hold in hardware. [`RenameTable`] maps
//! architectural registers to the current value.
//!
//! The tracker is also the simulator's **wakeup network**: consumers that
//! find a source not yet ready in their cluster register a [`Waiter`] on
//! the (value, cluster) pair instead of polling, and the ready-bit
//! transitions ([`ValueTracker::mark_produced`], [`ValueTracker::
//! deliver_copy`] — the broadcast a real out-of-order machine performs on
//! its result buses) push the woken consumers onto an internal queue the
//! session drains. Readiness is monotone (ready bits are only ever set),
//! so every registered waiter is woken exactly once; the waiter's own
//! reference on the value keeps the slot alive until then.

use virtclust_uarch::{ArchReg, RegClass, NUM_ARCH_REGS};

/// Identifies a live value in the [`ValueTracker`] slab.
pub type ValueTag = u32;

/// Cluster bit-mask type (supports up to 8 clusters).
pub type ClusterMask = u8;

/// Bit for cluster `c`.
#[inline]
pub fn cluster_bit(c: u8) -> ClusterMask {
    1u8 << c
}

/// Mask with the lowest `n` cluster bits set.
#[inline]
pub fn all_clusters(n: usize) -> ClusterMask {
    debug_assert!(n <= 8);
    if n >= 8 {
        u8::MAX
    } else {
        (1u8 << n) - 1
    }
}

/// A consumer blocked on a value becoming ready in some cluster. Pushed to
/// the woken queue by the ready-bit transitions; the session interprets it
/// (decrementing a ROB entry's pending-source counter, or marking a copy
/// micro-op issueable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiter {
    /// A dispatched micro-op, identified by its dispatch sequence number.
    /// One registration per unready source read (duplicates included).
    Uop(u64),
    /// An inter-cluster copy micro-op waiting for its source register read,
    /// identified by its copy-slab id.
    Copy(u32),
}

/// Sentinel index terminating a waiter list.
const NIL: u32 = u32::MAX;

/// One node of a per-value waiter list (intrusive singly-linked list over a
/// shared slab, so registration never allocates in steady state).
#[derive(Debug, Clone, Copy)]
struct WaiterNode {
    cluster: u8,
    who: Waiter,
    next: u32,
}

#[derive(Debug, Clone)]
struct ValueState {
    ready: ClusterMask,
    pending: ClusterMask,
    refs: u32,
    class: RegClass,
    home: u8,
    live: bool,
    /// Head of this value's waiter list (`NIL` when empty).
    waiters: u32,
}

/// Reference-counted tracker of register values and their cluster locations.
///
/// Reference discipline (each `add_ref`/implicit ref must be matched by one
/// `release`):
/// * the producer holds a ref from [`ValueTracker::alloc`] until
///   [`ValueTracker::mark_produced`];
/// * the rename table holds a ref while the value is the current mapping of
///   an architectural register;
/// * every dispatched consumer holds a ref per source read until it issues;
/// * every in-flight copy holds a ref until it delivers.
///
/// When the count reaches zero the slot is recycled and its register-file
/// occupancy is returned to every cluster that held the value.
#[derive(Debug, Clone)]
pub struct ValueTracker {
    slots: Vec<ValueState>,
    free: Vec<ValueTag>,
    /// `rf_used[cluster][class.index]` — live register count.
    rf_used: Vec<[u32; 2]>,
    num_clusters: usize,
    /// Waiter-node slab shared by all per-value waiter lists.
    waiter_nodes: Vec<WaiterNode>,
    free_waiters: Vec<u32>,
    /// Consumers woken by ready-bit transitions since the last
    /// [`ValueTracker::drain_woken`], in wake order.
    woken: Vec<Waiter>,
}

fn class_index(class: RegClass) -> usize {
    match class {
        RegClass::Int => 0,
        RegClass::Flt => 1,
    }
}

impl ValueTracker {
    /// Create a tracker for a machine with `num_clusters` clusters.
    pub fn new(num_clusters: usize) -> Self {
        assert!((1..=8).contains(&num_clusters));
        ValueTracker {
            slots: Vec::with_capacity(1024),
            free: Vec::new(),
            rf_used: vec![[0; 2]; num_clusters],
            num_clusters,
            waiter_nodes: Vec::new(),
            free_waiters: Vec::new(),
            woken: Vec::new(),
        }
    }

    /// Forget every value and retarget to `num_clusters`, keeping the slab
    /// allocations (session reuse). Tag allocation after a reset proceeds
    /// exactly as on a fresh tracker — the free list is empty and slots are
    /// handed out in push order — so a reset tracker is indistinguishable
    /// from [`ValueTracker::new`].
    pub fn reset(&mut self, num_clusters: usize) {
        assert!((1..=8).contains(&num_clusters));
        self.slots.clear();
        self.free.clear();
        self.rf_used.clear();
        self.rf_used.resize(num_clusters, [0; 2]);
        self.num_clusters = num_clusters;
        self.waiter_nodes.clear();
        self.free_waiters.clear();
        self.woken.clear();
    }

    fn alloc_slot(&mut self, st: ValueState) -> ValueTag {
        let occupancy = st.ready | st.pending;
        let class = st.class;
        let tag = match self.free.pop() {
            Some(t) => {
                self.slots[t as usize] = st;
                t
            }
            None => {
                self.slots.push(st);
                (self.slots.len() - 1) as ValueTag
            }
        };
        self.charge_rf(occupancy, class, 1);
        tag
    }

    fn charge_rf(&mut self, mask: ClusterMask, class: RegClass, delta: i64) {
        for c in 0..self.num_clusters {
            if mask & cluster_bit(c as u8) != 0 {
                let slot = &mut self.rf_used[c][class_index(class)];
                *slot = (*slot as i64 + delta) as u32;
            }
        }
    }

    /// Allocate a new value that cluster `home` will produce.
    /// The producer implicitly holds one reference (dropped by
    /// [`ValueTracker::mark_produced`]).
    pub fn alloc(&mut self, class: RegClass, home: u8) -> ValueTag {
        debug_assert!((home as usize) < self.num_clusters);
        self.alloc_slot(ValueState {
            ready: 0,
            pending: cluster_bit(home),
            refs: 1,
            class,
            home,
            live: true,
            waiters: NIL,
        })
    }

    /// Allocate an architected value already present in every cluster
    /// (initial machine state). Starts with **zero** references — bind it to
    /// the rename table immediately.
    pub fn alloc_ready_everywhere(&mut self, class: RegClass) -> ValueTag {
        self.alloc_slot(ValueState {
            ready: all_clusters(self.num_clusters),
            pending: 0,
            refs: 0,
            class,
            home: 0,
            live: true,
            waiters: NIL,
        })
    }

    /// Allocate an architected value resident in exactly one cluster — used
    /// to set up scenarios like the paper's Sec. 2.1 example ("R1 was in
    /// cluster 0, R2 and R3 were in cluster 1"). Starts with zero
    /// references; bind it to the rename table immediately.
    pub fn alloc_ready_in(&mut self, class: RegClass, cluster: u8) -> ValueTag {
        debug_assert!((cluster as usize) < self.num_clusters);
        self.alloc_slot(ValueState {
            ready: cluster_bit(cluster),
            pending: 0,
            refs: 0,
            class,
            home: cluster,
            live: true,
            waiters: NIL,
        })
    }

    fn state(&self, tag: ValueTag) -> &ValueState {
        let st = &self.slots[tag as usize];
        debug_assert!(st.live, "use of freed value tag {tag}");
        st
    }

    fn state_mut(&mut self, tag: ValueTag) -> &mut ValueState {
        let st = &mut self.slots[tag as usize];
        debug_assert!(st.live, "use of freed value tag {tag}");
        st
    }

    /// Take a reference on `tag`.
    #[inline]
    pub fn add_ref(&mut self, tag: ValueTag) {
        self.state_mut(tag).refs += 1;
    }

    /// Drop a reference; frees the slot (returning register-file space) when
    /// the count reaches zero.
    #[inline]
    pub fn release(&mut self, tag: ValueTag) {
        let st = self.state_mut(tag);
        debug_assert!(st.refs > 0, "release of unreferenced value {tag}");
        st.refs -= 1;
        if st.refs == 0 {
            debug_assert_eq!(
                st.waiters, NIL,
                "value {tag} freed with waiters still registered \
                 (a waiter must hold a reference until its wake)"
            );
            let mask = st.ready | st.pending;
            let class = st.class;
            st.live = false;
            self.charge_rf(mask, class, -1);
            self.free.push(tag);
        }
    }

    /// Fused dispatch-side source acquisition: take a consumer reference on
    /// `tag` and, when the value is not yet readable in `cluster`, register
    /// `who` for the wakeup — one slot access on the (common) ready path
    /// where [`ValueTracker::add_ref`] + [`ValueTracker::ready_in`] +
    /// [`ValueTracker::add_waiter`] took two or three. Returns whether the
    /// value was ready (i.e. no waiter was registered).
    #[inline]
    pub fn acquire_src(&mut self, tag: ValueTag, cluster: u8, who: Waiter) -> bool {
        debug_assert!((cluster as usize) < self.num_clusters);
        let st = &mut self.slots[tag as usize];
        debug_assert!(st.live, "use of freed value tag {tag}");
        st.refs += 1;
        if st.ready & cluster_bit(cluster) != 0 {
            return true;
        }
        let node = WaiterNode {
            cluster,
            who,
            next: st.waiters,
        };
        let idx = match self.free_waiters.pop() {
            Some(i) => {
                self.waiter_nodes[i as usize] = node;
                i
            }
            None => {
                self.waiter_nodes.push(node);
                (self.waiter_nodes.len() - 1) as u32
            }
        };
        self.slots[tag as usize].waiters = idx;
        false
    }

    /// The producer finished executing: the value is now readable in its
    /// home cluster. Wakes the waiters registered for the home cluster and
    /// drops the producer's reference.
    pub fn mark_produced(&mut self, tag: ValueTag) {
        let home = self.state(tag).home;
        self.ready_transition(tag, home);
    }

    /// Shared body of [`ValueTracker::mark_produced`] and
    /// [`ValueTracker::deliver_copy`]: flip the (pending → ready) bit of
    /// `cluster`, wake that cluster's waiters, and drop the producing
    /// side's reference — one fused slot pass instead of three separate
    /// re-lookups (bit update / wake / release).
    fn ready_transition(&mut self, tag: ValueTag, cluster: u8) {
        let bit = cluster_bit(cluster);
        let st = &mut self.slots[tag as usize];
        debug_assert!(st.live, "use of freed value tag {tag}");
        st.pending &= !bit;
        st.ready |= bit;
        debug_assert!(st.refs > 0, "release of unreferenced value {tag}");
        st.refs -= 1;
        let freed = st.refs == 0;
        if st.waiters != NIL {
            self.wake(tag, cluster);
        }
        if freed {
            let st = &self.slots[tag as usize];
            debug_assert_eq!(
                st.waiters, NIL,
                "value {tag} freed with waiters still registered \
                 (a waiter must hold a reference until its wake)"
            );
            let mask = st.ready | st.pending;
            let class = st.class;
            self.slots[tag as usize].live = false;
            self.charge_rf(mask, class, -1);
            self.free.push(tag);
        }
    }

    /// Register an in-flight copy of `tag` towards `dest`: sets the pending
    /// location bit (so later consumers do not request duplicate copies),
    /// charges a destination register, and takes the copy's reference.
    pub fn begin_copy(&mut self, tag: ValueTag, dest: u8) {
        debug_assert!((dest as usize) < self.num_clusters);
        let bit = cluster_bit(dest);
        let st = self.state_mut(tag);
        debug_assert!(
            st.ready & bit == 0 && st.pending & bit == 0,
            "duplicate copy to {dest}"
        );
        st.pending |= bit;
        st.refs += 1;
        let class = st.class;
        self.charge_rf(bit, class, 1);
    }

    /// A copy of `tag` arrived at `dest`: the value is now readable there.
    /// Wakes the waiters registered for `dest` and drops the copy's
    /// reference.
    pub fn deliver_copy(&mut self, tag: ValueTag, dest: u8) {
        debug_assert!(
            self.state(tag).pending & cluster_bit(dest) != 0,
            "copy delivered without begin_copy"
        );
        self.ready_transition(tag, dest);
    }

    /// Register `who` to be woken when `tag` becomes ready in `cluster`.
    /// The caller must hold a reference on `tag` that outlives the wake
    /// (consumers release at issue, copies at delivery), and readiness in
    /// `cluster` must be guaranteed to arrive (the dispatch stage enforces
    /// this: an unready source either has its producer steered to `cluster`
    /// or a copy in flight towards it).
    pub fn add_waiter(&mut self, tag: ValueTag, cluster: u8, who: Waiter) {
        debug_assert!((cluster as usize) < self.num_clusters);
        debug_assert!(
            !self.ready_in(tag, cluster),
            "waiter registered on an already-ready (value, cluster)"
        );
        debug_assert!(self.state(tag).refs > 0, "waiter on unreferenced value");
        let node = WaiterNode {
            cluster,
            who,
            next: self.slots[tag as usize].waiters,
        };
        let idx = match self.free_waiters.pop() {
            Some(i) => {
                self.waiter_nodes[i as usize] = node;
                i
            }
            None => {
                self.waiter_nodes.push(node);
                (self.waiter_nodes.len() - 1) as u32
            }
        };
        self.slots[tag as usize].waiters = idx;
    }

    /// Move every waiter of `tag` registered for `cluster` to the woken
    /// queue (the result-bus broadcast). Waiters for other clusters stay
    /// linked.
    #[inline]
    fn wake(&mut self, tag: ValueTag, cluster: u8) {
        let mut cur = self.slots[tag as usize].waiters;
        if cur == NIL {
            return;
        }
        let mut kept = NIL;
        while cur != NIL {
            let node = self.waiter_nodes[cur as usize];
            if node.cluster == cluster {
                self.woken.push(node.who);
                self.free_waiters.push(cur);
            } else {
                self.waiter_nodes[cur as usize].next = kept;
                kept = cur;
            }
            cur = node.next;
        }
        self.slots[tag as usize].waiters = kept;
    }

    /// Append (and clear) the consumers woken since the last drain. The
    /// session calls this after each completion-event batch and interprets
    /// the waiters; relative order within a drain carries no meaning (the
    /// issue stage re-establishes age order).
    pub fn drain_woken(&mut self, out: &mut Vec<Waiter>) {
        out.append(&mut self.woken);
    }

    /// Number of waiters registered on `tag` (diagnostics / tests).
    pub fn waiter_count(&self, tag: ValueTag) -> usize {
        let mut n = 0;
        let mut cur = self.slots[tag as usize].waiters;
        while cur != NIL {
            n += 1;
            cur = self.waiter_nodes[cur as usize].next;
        }
        n
    }

    /// Total waiters registered across all values plus undrained wakes —
    /// zero on an idle machine (leak check; [`ValueTracker::reset`] must
    /// return this to zero).
    pub fn pending_wakeup_state(&self) -> usize {
        (self.waiter_nodes.len() - self.free_waiters.len()) + self.woken.len()
    }

    /// Is the value readable in `cluster` right now?
    #[inline]
    pub fn ready_in(&self, tag: ValueTag, cluster: u8) -> bool {
        self.state(tag).ready & cluster_bit(cluster) != 0
    }

    /// Steering-visible location mask: clusters where the value is or will
    /// be available (ready ∪ pending).
    #[inline]
    pub fn location_mask(&self, tag: ValueTag) -> ClusterMask {
        let st = self.state(tag);
        st.ready | st.pending
    }

    /// Clusters where the value is ready *now*.
    #[inline]
    pub fn ready_mask(&self, tag: ValueTag) -> ClusterMask {
        self.state(tag).ready
    }

    /// Home (producing) cluster of the value.
    #[inline]
    pub fn home(&self, tag: ValueTag) -> u8 {
        self.state(tag).home
    }

    /// Register class of the value.
    #[inline]
    pub fn class(&self, tag: ValueTag) -> RegClass {
        self.state(tag).class
    }

    /// Live register count of `cluster` for `class` (register-file pressure).
    #[inline]
    pub fn rf_used(&self, cluster: u8, class: RegClass) -> u32 {
        self.rf_used[cluster as usize][class_index(class)]
    }

    /// Number of live value slots (diagnostics / leak tests).
    pub fn live_values(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of clusters this tracker was built for.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }
}

/// The rename table: architectural register → current value tag, plus the
/// per-register location bits the steering heuristics read.
#[derive(Debug, Clone)]
pub struct RenameTable {
    map: [ValueTag; NUM_ARCH_REGS],
}

impl RenameTable {
    /// Create the initial mapping: every architectural register bound to a
    /// fresh value that is ready in all clusters.
    pub fn new(tracker: &mut ValueTracker) -> Self {
        let mut table = RenameTable {
            map: [0; NUM_ARCH_REGS],
        };
        table.reset(tracker);
        table
    }

    /// Rebind every architectural register to a fresh ready-everywhere
    /// value — the initial machine state. `tracker` must itself be freshly
    /// reset (session reuse; this is the body of [`RenameTable::new`]).
    pub fn reset(&mut self, tracker: &mut ValueTracker) {
        for (flat, slot) in self.map.iter_mut().enumerate() {
            let reg = ArchReg::from_flat(flat);
            let tag = tracker.alloc_ready_everywhere(reg.class);
            tracker.add_ref(tag); // the table's own reference
            *slot = tag;
        }
    }

    /// Current value tag of `reg`.
    #[inline]
    pub fn tag(&self, reg: ArchReg) -> ValueTag {
        self.map[reg.flat()]
    }

    /// Rebind `reg` to `new_tag` (the destination of a newly steered
    /// micro-op). Takes a table reference on the new value and releases the
    /// old one.
    pub fn redefine(&mut self, reg: ArchReg, new_tag: ValueTag, tracker: &mut ValueTracker) {
        tracker.add_ref(new_tag);
        let old = std::mem::replace(&mut self.map[reg.flat()], new_tag);
        tracker.release(old);
    }

    /// Location mask of the *current* value of `reg`.
    #[inline]
    pub fn location(&self, reg: ArchReg, tracker: &ValueTracker) -> ClusterMask {
        tracker.location_mask(self.tag(reg))
    }

    /// Snapshot of every register's location mask — the *stale* view a
    /// parallel (renaming-style) steering implementation would use for a
    /// whole decode bundle (Sec. 2.1 of the paper).
    pub fn location_snapshot(&self, tracker: &ValueTracker) -> [ClusterMask; NUM_ARCH_REGS] {
        let mut snap = [0; NUM_ARCH_REGS];
        for (flat, s) in snap.iter_mut().enumerate() {
            *s = tracker.location_mask(self.map[flat]);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_produce_lifecycle() {
        let mut vt = ValueTracker::new(2);
        let t = vt.alloc(RegClass::Int, 1);
        assert!(!vt.ready_in(t, 1));
        assert_eq!(vt.location_mask(t), 0b10);
        assert_eq!(vt.rf_used(1, RegClass::Int), 1);
        assert_eq!(vt.rf_used(0, RegClass::Int), 0);

        vt.add_ref(t); // a consumer
        vt.mark_produced(t); // producer done (drops producer ref)
        assert!(vt.ready_in(t, 1));
        assert!(!vt.ready_in(t, 0));
        assert_eq!(vt.live_values(), 1);

        vt.release(t); // consumer issues
        assert_eq!(vt.live_values(), 0);
        assert_eq!(vt.rf_used(1, RegClass::Int), 0);
    }

    #[test]
    fn copy_moves_value_between_clusters() {
        let mut vt = ValueTracker::new(2);
        let t = vt.alloc(RegClass::Flt, 0);
        vt.add_ref(t); // keep alive
        vt.mark_produced(t);
        assert_eq!(vt.location_mask(t), 0b01);

        vt.begin_copy(t, 1);
        assert_eq!(vt.location_mask(t), 0b11, "pending counts for steering");
        assert!(!vt.ready_in(t, 1));
        assert_eq!(vt.rf_used(1, RegClass::Flt), 1);

        vt.deliver_copy(t, 1);
        assert!(vt.ready_in(t, 1));
        assert_eq!(vt.location_mask(t), 0b11);

        vt.release(t);
        assert_eq!(vt.rf_used(0, RegClass::Flt), 0);
        assert_eq!(vt.rf_used(1, RegClass::Flt), 0);
    }

    #[test]
    fn slab_recycles_slots() {
        let mut vt = ValueTracker::new(2);
        let a = vt.alloc(RegClass::Int, 0);
        vt.mark_produced(a); // refs -> 0, freed
        assert_eq!(vt.live_values(), 0);
        let b = vt.alloc(RegClass::Int, 0);
        assert_eq!(a, b, "slot recycled");
        assert_eq!(vt.live_values(), 1);
    }

    #[test]
    fn rename_table_initial_state_ready_everywhere() {
        let mut vt = ValueTracker::new(4);
        let rt = RenameTable::new(&mut vt);
        for reg in ArchReg::all() {
            assert_eq!(rt.location(reg, &vt), all_clusters(4));
            for c in 0..4u8 {
                assert!(vt.ready_in(rt.tag(reg), c));
            }
        }
        // 16 INT + 16 FP architected values per cluster.
        for c in 0..4u8 {
            assert_eq!(vt.rf_used(c, RegClass::Int), 16);
            assert_eq!(vt.rf_used(c, RegClass::Flt), 16);
        }
    }

    #[test]
    fn redefine_releases_old_value() {
        let mut vt = ValueTracker::new(2);
        let mut rt = RenameTable::new(&mut vt);
        let reg = ArchReg::int(3);
        let before = vt.live_values();

        let t = vt.alloc(RegClass::Int, 1);
        rt.redefine(reg, t, &mut vt);
        vt.mark_produced(t);
        // Old architected value of r3 had only the table ref -> freed.
        assert_eq!(vt.live_values(), before);
        assert_eq!(rt.location(reg, &vt), 0b10);
    }

    #[test]
    fn snapshot_is_stale_after_redefine() {
        let mut vt = ValueTracker::new(2);
        let mut rt = RenameTable::new(&mut vt);
        let reg = ArchReg::int(0);
        let snap = rt.location_snapshot(&vt);
        assert_eq!(snap[reg.flat()], 0b11);

        let t = vt.alloc(RegClass::Int, 1);
        rt.redefine(reg, t, &mut vt);
        assert_eq!(rt.location(reg, &vt), 0b10, "live view updated");
        assert_eq!(snap[reg.flat()], 0b11, "snapshot unchanged");
        vt.mark_produced(t);
    }

    #[test]
    fn all_clusters_mask() {
        assert_eq!(all_clusters(1), 0b1);
        assert_eq!(all_clusters(2), 0b11);
        assert_eq!(all_clusters(4), 0b1111);
        assert_eq!(all_clusters(8), 0xff);
    }

    fn drained(vt: &mut ValueTracker) -> Vec<Waiter> {
        let mut out = Vec::new();
        vt.drain_woken(&mut out);
        out
    }

    #[test]
    fn producer_completion_wakes_home_cluster_waiters_only() {
        let mut vt = ValueTracker::new(2);
        let t = vt.alloc(RegClass::Int, 1); // home = cluster 1
        vt.add_ref(t); // consumer A (cluster 1)
        vt.add_ref(t); // consumer B (cluster 0, waits for a copy)
        vt.add_waiter(t, 1, Waiter::Uop(7));
        vt.add_waiter(t, 0, Waiter::Uop(9));
        assert_eq!(vt.waiter_count(t), 2);

        vt.mark_produced(t);
        assert_eq!(drained(&mut vt), vec![Waiter::Uop(7)], "home waiter only");
        assert_eq!(vt.waiter_count(t), 1, "cluster-0 waiter still linked");

        vt.begin_copy(t, 0);
        vt.deliver_copy(t, 0);
        assert_eq!(drained(&mut vt), vec![Waiter::Uop(9)]);
        assert_eq!(vt.waiter_count(t), 0);
        assert_eq!(vt.pending_wakeup_state(), 0);
        vt.release(t);
        vt.release(t);
    }

    #[test]
    fn duplicate_source_reads_register_and_wake_twice() {
        // A uop reading the same not-ready register twice holds two refs
        // and two waiters; one ready transition must deliver two wakes
        // (each decrementing the consumer's pending-source counter once).
        let mut vt = ValueTracker::new(2);
        let t = vt.alloc(RegClass::Int, 0);
        vt.add_ref(t);
        vt.add_ref(t);
        vt.add_waiter(t, 0, Waiter::Uop(3));
        vt.add_waiter(t, 0, Waiter::Uop(3));
        vt.mark_produced(t);
        assert_eq!(drained(&mut vt), vec![Waiter::Uop(3), Waiter::Uop(3)]);
        vt.release(t);
        vt.release(t);
    }

    #[test]
    fn reset_clears_wakeup_state_in_place() {
        let mut vt = ValueTracker::new(2);
        let t = vt.alloc(RegClass::Int, 0);
        vt.add_ref(t);
        vt.add_ref(t);
        vt.add_waiter(t, 0, Waiter::Uop(1));
        vt.add_waiter(t, 1, Waiter::Uop(2));
        vt.mark_produced(t); // one undrained wake + one linked waiter
        assert!(vt.pending_wakeup_state() > 0);
        vt.reset(2);
        assert_eq!(vt.pending_wakeup_state(), 0);
        assert_eq!(vt.live_values(), 0);
        // The slab is reusable: a fresh register/wake round works.
        let t = vt.alloc(RegClass::Int, 1);
        vt.add_ref(t);
        vt.add_waiter(t, 1, Waiter::Uop(8));
        vt.mark_produced(t);
        assert_eq!(drained(&mut vt), vec![Waiter::Uop(8)]);
        vt.release(t);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate copy")]
    fn duplicate_copy_panics_in_debug() {
        let mut vt = ValueTracker::new(2);
        let t = vt.alloc(RegClass::Int, 0);
        vt.begin_copy(t, 1);
        vt.begin_copy(t, 1);
    }
}
