//! The cycle-level clustered out-of-order machine (Fig. 1 of the paper),
//! as a reusable simulation session.
//!
//! ```text
//!        ┌──────────────────────────────────────────────┐
//!        │        monolithic front-end                  │
//!        │  trace cache → fetch → decode/rename/steer   │
//!        └───────┬───────────────┬──────────────────────┘
//!                ▼               ▼
//!        ┌──────────────┐ ┌──────────────┐
//!        │  cluster 0   │ │  cluster 1   │   … (per cluster: INT/FP/COPY
//!        │ IQs RF FUs   │◄┤ IQs RF FUs   │      issue queues, register
//!        └──────┬───────┘ └──────┬───────┘      files, functional units)
//!               │    point-to-point copy links
//!               ▼                ▼
//!        ┌──────────────────────────────┐
//!        │ unified LSQ + L1D + L2 + mem │
//!        └──────────────────────────────┘
//! ```
//!
//! One [`SimSession::step`] is one cycle — or, when the machine is provably
//! idle, one *span* of cycles skipped in O(1) with bit-identical
//! statistics. Stage order within a cycle (standard reverse-pipeline
//! update): completion events → commit → store drain → memory stage →
//! issue → dispatch/steer → fetch.
//!
//! A [`SimSession`] owns every piece of heap state a simulation needs — the
//! event calendar, ROB/LSQ/issue-queue buffers, rename and value tables,
//! cache line arrays, predictor tables, occupancy scratch — and survives
//! across runs: [`SimSession::reset`] returns all of it to the
//! post-construction state by clearing in place instead of reallocating.
//! A one-off run is `SimSession::new(cfg).run(..)`; a batch holds one
//! session and calls [`SimSession::simulate`] per run, serving an
//! arbitrary stream of heterogeneous jobs (different machine
//! configurations, steering policies and trace sources) without the
//! per-run setup cost. The largest state a 2-cluster machine allocates up
//! front, the L2's 512 KiB of tags and LRU stamps, is never re-zeroed: a
//! reset moves each cache's run epoch, which invalidates every line in one
//! write, and a new session's line arrays are zeroed allocations whose
//! pages are only written where a run touches them.
//!
//! The contract, enforced by tests here, in `crates/core` and in the
//! workspace `tests/properties.rs`, is **bit-identical statistics**: a
//! reused session produces exactly the [`SimStats`] of a freshly built one
//! for every configuration and policy.
//!
//! Besides reuse, the session is where the simulator's per-cycle hot paths
//! were removed (ROADMAP "Hot-path profiling"):
//!
//! * **idle cycles are skipped, not stepped**: when every stage is
//!   provably a no-op — no event due, no commit-ready head, nothing
//!   issueable, dispatch starved or structurally stalled before the
//!   policy, fetch inert — [`SimSession::step`] advances `now` straight
//!   to the next cycle anything can happen (earliest calendar event,
//!   front-uop ready cycle, fetch restall deadline) and replicates the
//!   skipped cycles' counters arithmetically ([`crate::IdleCycleKind`]).
//!   Debug builds single-step the same span and assert the replication is
//!   exact; `VIRTCLUST_NO_SKIP=1` forces strict stepping;
//! * **issue is event-driven, not polled**: a completing value wakes
//!   exactly the consumers registered on it ([`crate::value::Waiter`]
//!   lists in the value tracker), decrementing per-ROB-entry
//!   pending-source counters; each issue queue keeps an age-sorted *ready
//!   ring* ([`IssueQueue`]) the select stage pops at most `width` entries
//!   from. The old code re-tested every queue entry's every source, in
//!   every cluster, every cycle. Oldest-first select semantics are
//!   preserved exactly (debug builds assert the ring against the full
//!   readiness scan each cycle);
//! * **issue-queue occupancy is counters, not walks**: the steering view's
//!   occupancy buffer is maintained at entry insert/remove instead of
//!   being rebuilt from the queues once per dispatched micro-op;
//! * the event calendar recycles its slot vectors through a scratch buffer
//!   instead of dropping one per cycle;
//! * issue selection and the memory stage reuse session-owned scratch
//!   buffers instead of allocating per cycle;
//! * the dispatch stage's stale location snapshot (Sec. 2.1's "bundle
//!   entry" view) is maintained incrementally — location masks only change
//!   at dispatch (destination renames and copy insertions), so the
//!   per-cycle walk over the whole rename table is gone;
//! * per-uop copy planning uses a fixed inline array (micro-ops have at
//!   most [`virtclust_uarch::MAX_SRCS`] sources).

use std::collections::VecDeque;

use virtclust_obs::{IntervalSample, ObsSink, SkipSpan};
use virtclust_uarch::{
    ArchReg, DynUop, MachineConfig, OpClass, QueueKind, RegClass, TraceSource, MAX_SRCS,
    NUM_ARCH_REGS,
};

use crate::cache::{LoadPath, MemorySystem};
use crate::cancel::{CancelToken, InterruptState, StopCause};
use crate::lsq::{LoadCheck, Lsq};
use crate::predictor::{pc_of, LocalHistory, TraceCache};
use crate::queues::{CopyOp, CopySlab, IssueQueue, LinkArbiter};
use crate::stats::{IdleCycleKind, SimStats, StallReason};
use crate::steering::{SteerDecision, SteerSummary, SteerView, SteeringPolicy};
use crate::value::{
    all_clusters, cluster_bit, ClusterMask, RenameTable, ValueTag, ValueTracker, Waiter,
};

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A non-memory micro-op finishes execution.
    Exec(u64),
    /// A load's address generation finishes; it enters the memory stage.
    LoadAgu(u64),
    /// A load's data arrives.
    LoadDone(u64),
    /// A copy micro-op arrives at its destination cluster.
    CopyArrive(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobState {
    Waiting,
    Completed,
}

#[derive(Debug, Clone)]
struct RobEntry {
    /// Program-order sequence number of the micro-op (diagnostics and
    /// event payload matching).
    seq: u64,
    /// Operation class — everything the back end needs to route the entry
    /// (latency class was consumed at dispatch when the completion event
    /// was scheduled).
    op: OpClass,
    /// Effective address for loads/stores.
    mem_addr: Option<u64>,
    /// LSQ slot handle for loads/stores (see [`Lsq::alloc`]) — lets the
    /// completion and commit paths address the entry in O(1) instead of
    /// re-searching the queue by sequence number. Zero for non-memory ops.
    lsq_pos: u32,
    cluster: u8,
    state: RobState,
    dst_tag: Option<ValueTag>,
    src_tags: [Option<ValueTag>; MAX_SRCS],
    /// Source reads not yet readable in `cluster` — one count per waiter
    /// registered in the value tracker (duplicate reads included). The
    /// entry joins its issue queue's ready ring when this reaches zero.
    pending_srcs: u8,
    mispredicted: bool,
}

#[derive(Debug, Clone)]
struct FetchedUop {
    uop: DynUop,
    ready: u64,
    mispredicted: bool,
}

/// One run of the stale-view delay line: `count` consecutive cycles whose
/// pushed location snapshot was `snap`, identified by the `loc_gen`
/// generation at push time. Equal generations imply identical snapshots
/// (the generation is bumped at every `cur_loc` write), which is what lets
/// the ring merge runs and the stall-prefix probe dedup policy calls.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StaleRun {
    snap: [ClusterMask; NUM_ARCH_REGS],
    gen: u64,
    count: u64,
}

/// Run-length-encoded delay line of location-view snapshots (the parallel
/// steering unit's `fetch_to_dispatch`-cycle-old view, Sec. 2.1). Pushing
/// during an unchanged location epoch extends the back run; popping
/// advances `stale_loc`/`stale_gen` only when the front run's generation
/// differs from the one already installed. Bit-identical to the plain
/// per-cycle ring it replaces: the sequence of (snapshot, generation)
/// pairs popped is exactly the sequence pushed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct StaleRing {
    runs: VecDeque<StaleRun>,
    len: u64,
}

impl StaleRing {
    fn clear(&mut self) {
        self.runs.clear();
        self.len = 0;
    }

    fn len(&self) -> u64 {
        self.len
    }

    /// Push one cycle's snapshot. `gen` is the location generation at push
    /// time; an unchanged generation extends the back run without copying
    /// the snapshot.
    #[inline]
    fn push(&mut self, snap: &[ClusterMask; NUM_ARCH_REGS], gen: u64) {
        match self.runs.back_mut() {
            Some(run) if run.gen == gen => run.count += 1,
            _ => self.runs.push_back(StaleRun {
                snap: *snap,
                gen,
                count: 1,
            }),
        }
        self.len += 1;
    }

    /// Pop the oldest snapshot into `stale_loc`/`stale_gen`. The copy is
    /// elided when the popped generation is the one already installed.
    #[inline]
    fn pop(&mut self, stale_loc: &mut [ClusterMask; NUM_ARCH_REGS], stale_gen: &mut u64) {
        let front = self.runs.front_mut().expect("pop from empty stale ring");
        if front.gen != *stale_gen {
            *stale_loc = front.snap;
            *stale_gen = front.gen;
        }
        front.count -= 1;
        if front.count == 0 {
            self.runs.pop_front();
        }
        self.len -= 1;
    }

    /// Replicate `span` skipped cycles of push/pop pairs in O(runs):
    /// equivalent to `span` × (`push(cur, cur_gen)`; pop when over
    /// `depth`), which is exactly what single-stepping the span would do
    /// (the debug skip mirror asserts this structurally).
    fn replicate(
        &mut self,
        stale_loc: &mut [ClusterMask; NUM_ARCH_REGS],
        stale_gen: &mut u64,
        cur: &[ClusterMask; NUM_ARCH_REGS],
        cur_gen: u64,
        depth: u64,
        span: u64,
    ) {
        debug_assert!(self.len <= depth, "delay line deeper than its depth");
        let pops = span.saturating_sub(depth - self.len);
        match self.runs.back_mut() {
            Some(run) if run.gen == cur_gen => run.count += span,
            _ => self.runs.push_back(StaleRun {
                snap: *cur,
                gen: cur_gen,
                count: span,
            }),
        }
        self.len += span;
        let mut remaining = pops;
        while remaining > 0 {
            let front = self.runs.front_mut().expect("pops bounded by ring length");
            let take = front.count.min(remaining);
            front.count -= take;
            remaining -= take;
            self.len -= take;
            if remaining == 0 && front.gen != *stale_gen {
                *stale_loc = front.snap;
                *stale_gen = front.gen;
            }
            if front.count == 0 {
                self.runs.pop_front();
            }
        }
    }
}

/// Where dispatch sends the front micro-op: the steered `cluster` and the
/// copies it inserts first, as `(source register, cluster the copy reads
/// from)`. A micro-op has at most [`MAX_SRCS`] sources, so the plan fits a
/// fixed inline array (no per-uop allocation).
#[derive(Debug, Clone, Copy)]
struct DispatchPlan {
    cluster: u8,
    copies: [(ArchReg, u8); MAX_SRCS],
    n_copies: usize,
}

/// Cycles without a commit (while work is in flight) after which the
/// simulator declares a deadlock — this is a bug, never a workload property.
const DEADLOCK_HORIZON: u64 = 1_000_000;

/// Host-side diagnostics of the idle-cycle skipper — telemetry that cannot
/// live in [`SimStats`] because skipping must leave statistics
/// bit-identical to stepping. Cleared by [`SimSession::reset`], read via
/// [`SimSession::skip_diag`]. The per-span stream (start, length, idle
/// kind) goes to an attached observer instead; `trace_replay intervals`
/// summarises it.
#[derive(Debug, Clone, Default)]
pub struct SkipDiag {
    /// Total cycles replicated arithmetically instead of stepped.
    pub cycles: u64,
    /// Dispatch-stall spans by [`StallReason::index`]. The post-policy
    /// reasons (iq/rf/copyq/policy) can only appear when the steering
    /// policy is pure ([`crate::SteeringPolicy::steer_is_pure`]): an
    /// impure policy's stall spans end the skip probe at the steer call.
    pub stall_spans: [u64; 6],
}

impl SkipDiag {
    /// Spans whose classification consulted the steering policy — the
    /// spans only a pure policy can skip (IQ-full, RF-full, copy-queue-
    /// full and explicit policy stalls; ROB/LSQ-full precede the steer
    /// call and are skippable for any policy).
    pub fn policy_dependent_spans(&self) -> u64 {
        StallReason::ALL
            .iter()
            .filter(|r| !matches!(r, StallReason::RobFull | StallReason::LsqFull))
            .map(|r| self.stall_spans[r.index()])
            .sum()
    }
}

/// The attached interval observer and its sampling state. `prev` is the
/// stats snapshot at the last emitted boundary, so each interval's delta
/// is one `delta_since` call; boundaries land at exact multiples of
/// `every` regardless of how cycles are covered (stepped or skipped).
struct ObserverState {
    sink: Box<dyn ObsSink<SimStats> + Send>,
    every: u64,
    next_boundary: u64,
    prev: SimStats,
    index: u64,
}

impl ObserverState {
    /// Re-arm for a fresh run on an `n`-cluster machine.
    fn rearm(&mut self, n: usize) {
        self.prev = SimStats::new(n);
        self.next_boundary = self.every;
        self.index = 0;
    }

    /// Emit the interval ending at `stats` (the live counters) and
    /// snapshot it as the new base. Shared by boundary crossings, the
    /// skip chunker, and the end-of-run flush.
    fn emit_interval(&mut self, stats: &SimStats) {
        let sample = IntervalSample {
            index: self.index,
            start_cycle: self.prev.cycles,
            end_cycle: stats.cycles,
            delta: stats.delta_since(&self.prev),
        };
        self.sink.on_interval(&sample);
        self.index += 1;
        self.prev = stats.clone();
    }
}

/// Run-length limits for a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RunLimits {
    /// Stop fetching after this many trace micro-ops (then drain).
    pub max_uops: Option<u64>,
    /// Hard cycle limit (simulation aborts cleanly when reached).
    pub max_cycles: Option<u64>,
}

impl RunLimits {
    /// Limit by micro-op count only.
    pub fn uops(n: u64) -> Self {
        RunLimits {
            max_uops: Some(n),
            max_cycles: None,
        }
    }

    /// No limits: run the whole trace.
    pub fn unlimited() -> Self {
        RunLimits::default()
    }
}

/// A long-lived simulation context: all heap state of the simulated
/// machine, reusable across runs via [`SimSession::reset`].
///
/// ```
/// use virtclust_sim::{SimSession, RunLimits, SteerDecision, SteerView, SteeringPolicy};
/// use virtclust_uarch::{ArchReg, DynUop, MachineConfig, RegionBuilder, SliceTrace, TraceSource};
///
/// struct Zero;
/// impl SteeringPolicy for Zero {
///     fn name(&self) -> String { "zero".into() }
///     fn steer(&mut self, _u: &DynUop, _v: &SteerView<'_>) -> SteerDecision {
///         SteerDecision::Cluster(0)
///     }
/// }
///
/// let r = ArchReg::int;
/// let region = RegionBuilder::new(0, "demo").alu(r(1), &[r(1), r(2)]).build();
/// let mut uops = Vec::new();
/// virtclust_uarch::trace::expand_region(&region, 0, &mut uops, |_, _| 0, |_, _| true);
/// let mut trace = SliceTrace::new(&uops);
///
/// // One session, many runs: reset + rewind instead of rebuild + re-expand.
/// let mut session = SimSession::new(&MachineConfig::default());
/// let first = session.simulate(&MachineConfig::default(), &mut trace, &mut Zero,
///                              &RunLimits::unlimited());
/// trace.rewind().unwrap();
/// let again = session.simulate(&MachineConfig::default(), &mut trace, &mut Zero,
///                              &RunLimits::unlimited());
/// assert_eq!(first, again, "reuse is bit-identical");
/// ```
pub struct SimSession {
    cfg: MachineConfig,
    now: u64,
    // Backend state.
    values: ValueTracker,
    rename: RenameTable,
    rob: VecDeque<RobEntry>,
    rob_base: u64,
    next_dseq: u64,
    iqs: Vec<[IssueQueue; 3]>,
    copies: CopySlab,
    links: LinkArbiter,
    lsq: Lsq,
    mem: MemorySystem,
    inflight: Vec<u32>,
    // Event calendar. Slot vectors are recycled through `events_scratch`
    // so steady-state cycles never allocate.
    events: Vec<Vec<Event>>,
    events_scratch: Vec<Event>,
    horizon_mask: u64,
    // Events currently in the calendar across all slots: lets the
    // idle-span query bail out (or bound its slot scan) without touching
    // the slot vectors.
    events_live: usize,
    // Front-end state.
    fetchq: VecDeque<FetchedUop>,
    fetch_buf_cap: usize,
    fetch_stalled_until: u64,
    halted_for_branch: bool,
    predictor: LocalHistory,
    tcache: TraceCache,
    cur_region: Option<u32>,
    fetched_uops: u64,
    trace_done: bool,
    // Memory stage queues, `(dseq, addr)` so retries never re-derive the
    // address from the ROB (`mem_scratch` is the retry-queue double
    // buffer). `store_drain` carries `(lsq slot handle, addr)` — the
    // post-commit write frees the LSQ entry by handle, O(1).
    mem_pending: VecDeque<(u64, u64)>,
    mem_scratch: VecDeque<(u64, u64)>,
    store_drain: VecDeque<(u32, u64)>,
    // The steering view's backing store: issue-queue occupancy counters
    // plus busy/full bit masks, maintained incrementally at entry
    // insert/remove (dispatch and issue) with the busy threshold resolved
    // to an integer limit at reset — the steering view reads cached state
    // instead of re-walking queues or re-evaluating float thresholds once
    // per dispatched uop.
    steer_sum: SteerSummary,
    // Scratch.
    picked: Vec<u64>,
    woken_scratch: Vec<Waiter>,
    // Issueable entries across every ready ring (∑ ready_len) — maintained
    // at push_ready/wake/select so the issue stage is one comparison on
    // the (frequent) cycles where nothing can issue.
    ready_entries: usize,
    // The live per-register location view, maintained incrementally at the
    // points where it can change (dispatch renames / copy insertions), and
    // the delayed ring that models the parallel steering unit's stale view.
    // The ring is run-length encoded over location-view *epochs*: pushes
    // on cycles where `cur_loc` did not change (same `loc_gen`) extend the
    // back run instead of copying the snapshot again, so on stall-heavy
    // stretches the whole delay line is one run.
    cur_loc: [ClusterMask; NUM_ARCH_REGS],
    stale_loc: [ClusterMask; NUM_ARCH_REGS],
    stale_ring: StaleRing,
    // Location-epoch generations. `loc_gen` is bumped at every `cur_loc`
    // write (dispatch renames, copy insertions, `place_register`);
    // `stale_gen` is the generation of the snapshot currently in
    // `stale_loc`. Equal generations mean equal snapshots, which is what
    // lets the delay line merge runs and the idle-span probe steer once
    // per stale epoch.
    loc_gen: u64,
    stale_gen: u64,
    // Bookkeeping.
    stats: SimStats,
    last_commit_cycle: u64,
    // Event-driven idle-cycle skipping: `skip_enabled` is resolved at
    // reset from the per-session override (survives resets) or, absent
    // one, the `VIRTCLUST_NO_SKIP` process default.
    skip_enabled: bool,
    skip_override: Option<bool>,
    // Skip-path diagnostics (host-side; never part of the bit-identity
    // surface). Maintained unconditionally — two adds per *span*, not per
    // cycle, so the cost is noise.
    skip_diag: SkipDiag,
    // Interval observer, if attached. `None` keeps the per-cycle cost of
    // the telemetry hook to a single branch. Survives `reset` (re-armed)
    // like `skip_override`, so a driver can attach once and observe every
    // run the session executes.
    observer: Option<ObserverState>,
    // Cooperative interrupt sources (cancellation token / wall-clock
    // deadline), polled in the run loop every
    // [`crate::cancel::CHECK_INTERVAL_CYCLES`] cycles. `None` keeps the
    // per-step cost to a single branch. Survives `reset` (re-armed) like
    // the observer, so the batch engine can configure it before a
    // `simulate` call that resets internally.
    interrupt: Option<InterruptState>,
}

/// Process-wide default for idle-cycle skipping: enabled unless the
/// `VIRTCLUST_NO_SKIP` environment variable is set to a non-empty value
/// other than `0`. Read once per process; per-session control goes
/// through [`SimSession::set_cycle_skipping`].
fn cycle_skipping_default() -> bool {
    static DEFAULT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var_os("VIRTCLUST_NO_SKIP") {
        None => true,
        Some(v) => v.is_empty() || v == "0",
    })
}

impl SimSession {
    /// Build a session configured for `cfg`. Construction and
    /// [`SimSession::reset`] share one code path, so a freshly built and a
    /// reset session are indistinguishable.
    pub fn new(cfg: &MachineConfig) -> Self {
        let mut values = ValueTracker::new(1);
        let rename = RenameTable::new(&mut values);
        let mut session = SimSession {
            cfg: cfg.clone(),
            now: 0,
            values,
            rename,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            rob_base: 0,
            next_dseq: 0,
            iqs: Vec::new(),
            copies: CopySlab::new(),
            links: LinkArbiter::new(cfg.copies_per_link_per_cycle),
            lsq: Lsq::new(cfg.lsq_entries),
            mem: MemorySystem::new(cfg),
            inflight: Vec::new(),
            events: Vec::new(),
            events_scratch: Vec::new(),
            horizon_mask: 0,
            events_live: 0,
            fetchq: VecDeque::new(),
            fetch_buf_cap: 0,
            fetch_stalled_until: 0,
            halted_for_branch: false,
            predictor: LocalHistory::new(cfg.predictor_log2_entries),
            tcache: TraceCache::new(cfg.trace_cache_uops),
            cur_region: None,
            fetched_uops: 0,
            trace_done: false,
            mem_pending: VecDeque::new(),
            mem_scratch: VecDeque::new(),
            store_drain: VecDeque::new(),
            steer_sum: SteerSummary::new(),
            picked: Vec::new(),
            woken_scratch: Vec::new(),
            ready_entries: 0,
            cur_loc: [0; NUM_ARCH_REGS],
            stale_loc: [0; NUM_ARCH_REGS],
            stale_ring: StaleRing::default(),
            loc_gen: 0,
            stale_gen: 0,
            stats: SimStats::new(cfg.num_clusters),
            last_commit_cycle: 0,
            skip_enabled: true,
            skip_override: None,
            skip_diag: SkipDiag::default(),
            observer: None,
            interrupt: None,
        };
        session.reset(cfg);
        session
    }

    /// Return the session to the initial state of a machine configured by
    /// `cfg`, clearing buffers in place. After a reset the session behaves
    /// exactly like `SimSession::new(cfg)`. The caches invalidate their
    /// lines by run epoch without writing them, so the cost is the clears
    /// of the other buffers, a few microseconds for the paper's machines.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`MachineConfig::validate`].
    pub fn reset(&mut self, cfg: &MachineConfig) {
        cfg.validate().expect("invalid machine configuration");
        let n = cfg.num_clusters;

        self.now = 0;
        self.values.reset(n);
        self.rename.reset(&mut self.values);
        self.rob.clear();
        self.rob_base = 0;
        self.next_dseq = 0;

        // Issue queues: reuse per-cluster triples, grow/shrink as needed.
        self.iqs.truncate(n);
        for qs in self.iqs.iter_mut() {
            qs[QueueKind::Int.index()].reset(cfg.iq_int_entries);
            qs[QueueKind::Fp.index()].reset(cfg.iq_fp_entries);
            qs[QueueKind::Copy.index()].reset(cfg.copy_queue_entries);
        }
        while self.iqs.len() < n {
            self.iqs.push([
                IssueQueue::new(cfg.iq_int_entries),
                IssueQueue::new(cfg.iq_fp_entries),
                IssueQueue::new(cfg.copy_queue_entries),
            ]);
        }

        self.copies.reset();
        self.links.reset(cfg.copies_per_link_per_cycle);
        self.lsq.reset(cfg.lsq_entries);
        self.mem.reset(cfg);
        self.inflight.clear();
        self.inflight.resize(n, 0);

        let horizon = (cfg.mem_latency as usize + 256).next_power_of_two();
        for slot in self.events.iter_mut() {
            slot.clear();
        }
        self.events.resize_with(horizon, Vec::new);
        self.horizon_mask = (horizon - 1) as u64;
        self.events_scratch.clear();
        self.events_live = 0;

        self.fetchq.clear();
        self.fetch_buf_cap = cfg.fetch_width * (cfg.fetch_to_dispatch as usize + 4);
        self.fetch_stalled_until = 0;
        self.halted_for_branch = false;
        self.predictor.reset(cfg.predictor_log2_entries);
        self.tcache.reset(cfg.trace_cache_uops);
        self.cur_region = None;
        self.fetched_uops = 0;
        self.trace_done = false;

        self.mem_pending.clear();
        self.mem_scratch.clear();
        self.store_drain.clear();

        self.steer_sum.reset(
            n,
            [
                cfg.iq_int_entries,
                cfg.iq_fp_entries,
                cfg.copy_queue_entries,
            ],
            cfg.busy_occupancy_threshold,
        );
        self.picked.clear();
        self.woken_scratch.clear();
        self.ready_entries = 0;
        // Initial rename state: every register ready in every cluster.
        // Generation 0 names the all-zero stale view, generation 1 the
        // initial `cur_loc`; they must differ so the first ring pops
        // install the real snapshot.
        self.cur_loc = [all_clusters(n); NUM_ARCH_REGS];
        self.stale_loc = [0; NUM_ARCH_REGS];
        self.stale_ring.clear();
        self.loc_gen = 1;
        self.stale_gen = 0;

        self.stats = SimStats::new(n);
        self.last_commit_cycle = 0;
        self.skip_enabled = self.skip_override.unwrap_or_else(cycle_skipping_default);
        self.skip_diag = SkipDiag::default();
        if let Some(obs) = &mut self.observer {
            obs.rearm(n);
        }
        if let Some(int) = &mut self.interrupt {
            int.rearm();
        }
        self.cfg = cfg.clone();
    }

    /// The configuration the session is currently set up for.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Re-home the architected value of `reg` so it is resident in exactly
    /// one `cluster` (instead of the default "ready everywhere"). Used to
    /// set up steering scenarios such as the paper's Sec. 2.1 example.
    /// Call before the first [`SimSession::step`].
    pub fn place_register(&mut self, reg: ArchReg, cluster: u8) {
        assert_eq!(
            self.now, 0,
            "place_register only valid before simulation starts"
        );
        assert!((cluster as usize) < self.cfg.num_clusters);
        let tag = self.values.alloc_ready_in(reg.class, cluster);
        self.rename.redefine(reg, tag, &mut self.values);
        self.cur_loc[reg.flat()] = cluster_bit(cluster);
        self.loc_gen += 1;
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Whether event-driven idle-cycle skipping is currently active (see
    /// [`SimSession::set_cycle_skipping`]).
    pub fn cycle_skipping(&self) -> bool {
        self.skip_enabled
    }

    /// Force idle-cycle skipping on or off for this session, overriding
    /// the `VIRTCLUST_NO_SKIP` process default. The override survives
    /// [`SimSession::reset`], so differential tests can pin one session to
    /// each mode. Skipping is a pure host-speed optimization — statistics
    /// are bit-identical either way (the contract the golden-stats pins,
    /// the CI bit-identity gate and `tests/properties.rs` enforce) — so
    /// the only reasons to turn it off are A/B measurement and debugging.
    pub fn set_cycle_skipping(&mut self, enabled: bool) {
        self.skip_override = Some(enabled);
        self.skip_enabled = enabled;
    }

    /// Attach an interval observer: every `every` cycles the session emits
    /// the delta of the full [`SimStats`] since the previous boundary to
    /// `sink` (plus point-in-time queue-depth gauges), and every skipped
    /// idle span fires [`ObsSink::on_skip_span`]. Boundaries land at exact
    /// multiples of `every`; skipped spans crossing a boundary are split
    /// in closed form, so the emitted deltas are bit-identical whether
    /// cycle skipping is on or off, and their field-wise sum reconstructs
    /// the run's final stats exactly (enforced by `tests/obs_intervals.rs`).
    ///
    /// The observer survives [`SimSession::reset`] (it is re-armed, like
    /// the cycle-skipping override), so one attach covers every run the
    /// session executes. With no observer attached the per-cycle cost is a
    /// single branch and statistics are bit-identical to an unobserved
    /// session.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn attach_observer(&mut self, every: u64, sink: Box<dyn ObsSink<SimStats> + Send>) {
        assert!(every > 0, "observer interval must be at least one cycle");
        let n = self.cfg.num_clusters;
        let mut obs = ObserverState {
            sink,
            every,
            next_boundary: every,
            prev: SimStats::new(n),
            index: 0,
        };
        // Attaching mid-run starts interval 0 at the current snapshot.
        if self.now > 0 {
            obs.prev = self.stats.clone();
            obs.next_boundary = (self.now / every + 1) * every;
        }
        self.observer = Some(obs);
    }

    /// Detach the interval observer, if any. [`SimSession::run`] flushes
    /// the trailing partial interval before it returns; a manual
    /// [`SimSession::step`] loop's trailing interval is dropped.
    pub fn detach_observer(&mut self) {
        self.observer = None;
    }

    /// Whether an interval observer is attached.
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// Configure cooperative interruption for subsequent runs: an optional
    /// [`CancelToken`] (batch- or job-level cancellation) and an optional
    /// wall-clock `deadline`. The run loop polls the sources every
    /// [`crate::cancel::CHECK_INTERVAL_CYCLES`] simulated cycles — a
    /// skipped idle span advances past the boundary in one step, so an
    /// idle session still observes cancellation once per span — and exits
    /// with [`SimSession::stop_cause`] set when one fires. The
    /// configuration survives [`SimSession::reset`] (re-armed, like the
    /// observer), so it can be installed before a
    /// [`SimSession::simulate`] call that resets internally.
    ///
    /// Interruption never perturbs statistics: it only decides when the
    /// run loop stops, so an uninterrupted run with sources configured is
    /// bit-identical to one without (the fault-free contract the golden
    /// pins enforce). With `(None, None)` this is
    /// [`SimSession::clear_interrupt`].
    pub fn set_interrupt(
        &mut self,
        token: Option<CancelToken>,
        deadline: Option<std::time::Instant>,
    ) {
        self.interrupt = if token.is_none() && deadline.is_none() {
            None
        } else {
            Some(InterruptState::new(token, deadline))
        };
    }

    /// Remove any configured interrupt sources (and a recorded stop
    /// cause). Restores the zero-cost un-interruptible run loop.
    pub fn clear_interrupt(&mut self) {
        self.interrupt = None;
    }

    /// Why the last run stopped early, if it did: `None` after a run that
    /// drained its trace or hit a [`RunLimits`] bound, the cause after a
    /// cancellation or deadline interruption. Cleared by
    /// [`SimSession::reset`] and [`SimSession::set_interrupt`].
    pub fn stop_cause(&self) -> Option<StopCause> {
        self.interrupt.as_ref().and_then(|i| i.stopped)
    }

    /// Skip-path diagnostics accumulated since the last reset (cycles
    /// replicated, dispatch-stall spans). Host-side telemetry only — never
    /// part of the bit-identical [`SimStats`].
    pub fn skip_diag(&self) -> &SkipDiag {
        &self.skip_diag
    }

    /// Wakeup state still registered: waiters linked on values plus wakes
    /// not yet applied. Non-zero only while consumers are blocked mid-run;
    /// zero on a drained ([`SimSession::done`]) or freshly reset session
    /// (leak diagnostics for the wakeup network).
    pub fn pending_wakeups(&self) -> usize {
        self.values.pending_wakeup_state() + self.woken_scratch.len()
    }

    /// True when the trace is exhausted and the pipeline fully drained.
    pub fn done(&self) -> bool {
        let done = self.trace_done
            && self.fetchq.is_empty()
            && self.rob.is_empty()
            && self.store_drain.is_empty()
            && self.mem_pending.is_empty()
            && self.copies.live() == 0;
        if done {
            // A drained pipeline implies a quiescent backend: every LSQ
            // entry was freed at commit/drain and no event can be pending.
            debug_assert!(self.lsq.is_empty(), "drained session holds LSQ entries");
            debug_assert_eq!(self.events_live, 0, "drained session holds events");
        }
        done
    }

    fn schedule(&mut self, at: u64, ev: Event) {
        debug_assert!(at > self.now, "events must be in the future");
        debug_assert!(
            at - self.now <= self.horizon_mask,
            "event beyond calendar horizon"
        );
        self.events[(at & self.horizon_mask) as usize].push(ev);
        self.events_live += 1;
    }

    #[inline]
    fn rob_index(&self, dseq: u64) -> usize {
        debug_assert!(dseq >= self.rob_base);
        (dseq - self.rob_base) as usize
    }

    // ------------------------------------------------------------------
    // Stage 1: completion events.
    // ------------------------------------------------------------------
    fn process_events(&mut self) {
        let slot = (self.now & self.horizon_mask) as usize;
        if self.events[slot].is_empty() {
            return;
        }
        // Swap the slot with the session's scratch vector instead of
        // `mem::take`-ing it: taking would drop the slot's allocation every
        // cycle (the "event calendar churn" of ROADMAP). Handlers never
        // schedule into the current slot (events are strictly future and
        // within the horizon), so pushing into `self.events` is safe while
        // the batch is drained.
        let mut batch = std::mem::replace(
            &mut self.events[slot],
            std::mem::take(&mut self.events_scratch),
        );
        self.events_live -= batch.len();
        for ev in batch.drain(..) {
            match ev {
                Event::Exec(dseq) => self.complete_exec(dseq),
                Event::LoadAgu(dseq) => {
                    let idx = self.rob_index(dseq);
                    let addr = self.rob[idx].mem_addr.expect("load without address");
                    // The LSQ tracks addresses only for stores — loads are
                    // never matched against, so the load's address rides
                    // the memory-stage queue instead.
                    self.mem_pending.push_back((dseq, addr));
                }
                Event::LoadDone(dseq) => self.complete_load(dseq),
                Event::CopyArrive(id) => {
                    let CopyOp { tag, to, .. } = self.copies.get(id);
                    self.values.deliver_copy(tag, to);
                    self.copies.release(id);
                    self.stats.copies_delivered += 1;
                }
            }
        }
        self.events_scratch = batch;
        // Every ready-bit transition of this cycle has happened; route the
        // broadcast to the blocked consumers before the issue stage runs.
        self.apply_wakeups();
    }

    /// Drain the value tracker's woken-consumer queue: decrement ROB
    /// pending-source counters (moving fully woken micro-ops onto their
    /// issue queue's ready ring at their age position) and mark woken copy
    /// micro-ops issueable. Wake order within a cycle is irrelevant — the
    /// rings re-establish age order.
    fn apply_wakeups(&mut self) {
        let mut woken = std::mem::take(&mut self.woken_scratch);
        debug_assert!(woken.is_empty());
        self.values.drain_woken(&mut woken);
        for w in woken.drain(..) {
            match w {
                Waiter::Uop(dseq) => {
                    let idx = self.rob_index(dseq);
                    let entry = &mut self.rob[idx];
                    debug_assert!(entry.pending_srcs > 0, "spurious uop wakeup");
                    entry.pending_srcs -= 1;
                    if entry.pending_srcs == 0 {
                        let cluster = entry.cluster as usize;
                        let kind = entry.op.queue();
                        self.iqs[cluster][kind.index()].wake(dseq, dseq);
                        self.ready_entries += 1;
                    }
                }
                Waiter::Copy(id) => {
                    let op = self.copies.get(id);
                    let seq = self.copies.seq(id);
                    self.iqs[op.from as usize][QueueKind::Copy.index()].wake(seq, u64::from(id));
                    self.ready_entries += 1;
                }
            }
        }
        self.woken_scratch = woken;
    }

    fn complete_exec(&mut self, dseq: u64) {
        let idx = self.rob_index(dseq);
        let entry = &mut self.rob[idx];
        debug_assert_eq!(entry.state, RobState::Waiting);
        entry.state = RobState::Completed;
        let cluster = entry.cluster;
        let op = entry.op;
        let mispredicted = entry.mispredicted;
        let dst = entry.dst_tag;

        if op == OpClass::Store {
            let addr = entry.mem_addr.expect("store without address");
            let pos = entry.lsq_pos;
            self.lsq.set_addr_at(pos, addr);
            self.lsq.set_data_ready_at(pos);
        }
        if let Some(tag) = dst {
            self.values.mark_produced(tag);
        }
        self.inflight[cluster as usize] -= 1;
        if op == OpClass::Branch && mispredicted && self.halted_for_branch {
            // Redirect: the front-end restarts and refills the pipe.
            self.halted_for_branch = false;
            self.fetch_stalled_until = self
                .fetch_stalled_until
                .max(self.now + u64::from(self.cfg.fetch_to_dispatch));
        }
    }

    fn complete_load(&mut self, dseq: u64) {
        let idx = self.rob_index(dseq);
        let entry = &mut self.rob[idx];
        debug_assert_eq!(entry.state, RobState::Waiting);
        entry.state = RobState::Completed;
        let cluster = entry.cluster;
        if let Some(tag) = entry.dst_tag {
            self.values.mark_produced(tag);
        }
        self.inflight[cluster as usize] -= 1;
    }

    // ------------------------------------------------------------------
    // Stage 2: commit.
    // ------------------------------------------------------------------
    fn commit(&mut self) {
        let mut committed = 0;
        while committed < self.cfg.commit_width {
            if !matches!(self.rob.front(), Some(e) if e.state == RobState::Completed) {
                break;
            }
            let entry = self.rob.pop_front().expect("checked above");
            self.rob_base += 1;
            committed += 1;
            self.stats.committed_uops += 1;
            self.last_commit_cycle = self.now;
            match entry.op {
                OpClass::Branch => {
                    self.stats.branches += 1;
                    if entry.mispredicted {
                        self.stats.mispredicts += 1;
                    }
                }
                OpClass::Load => self.lsq.free_at(entry.lsq_pos),
                OpClass::Store => {
                    let addr = entry.mem_addr.expect("store without address");
                    self.store_drain.push_back((entry.lsq_pos, addr));
                }
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Stage 3: store drain (post-commit cache writes, write-port limited).
    // ------------------------------------------------------------------
    fn drain_stores(&mut self) {
        while let Some(&(pos, addr)) = self.store_drain.front() {
            if !self.mem.try_store_write(addr) {
                break;
            }
            self.lsq.free_at(pos);
            self.store_drain.pop_front();
        }
    }

    // ------------------------------------------------------------------
    // Stage 4: memory stage — loads with resolved addresses access the
    // LSQ / cache hierarchy.
    // ------------------------------------------------------------------
    fn memory_stage(&mut self) {
        // Most cycles have no load waiting; skip the double-buffer dance
        // entirely then.
        if self.mem_pending.is_empty() {
            return;
        }
        // `mem_scratch` double-buffers the retry queue so this stage never
        // allocates in steady state.
        let mut remaining = std::mem::take(&mut self.mem_scratch);
        debug_assert!(remaining.is_empty());
        let mut ports_exhausted = false;
        while let Some((dseq, addr)) = self.mem_pending.pop_front() {
            match self.lsq.check_load(dseq, addr) {
                LoadCheck::Forward => {
                    self.stats.store_forwards += 1;
                    let lat = u64::from(self.cfg.l1.hit_latency);
                    self.schedule(self.now + lat, Event::LoadDone(dseq));
                }
                LoadCheck::WaitOnStore => remaining.push_back((dseq, addr)),
                LoadCheck::GoToCache => {
                    if ports_exhausted {
                        remaining.push_back((dseq, addr));
                        continue;
                    }
                    match self.mem.try_load(addr) {
                        Some((lat, path)) => {
                            match path {
                                LoadPath::L1Hit => self.stats.l1_hits += 1,
                                LoadPath::L2Hit => {
                                    self.stats.l1_misses += 1;
                                    self.stats.l2_hits += 1;
                                }
                                LoadPath::Mem => {
                                    self.stats.l1_misses += 1;
                                    self.stats.l2_misses += 1;
                                }
                                LoadPath::Forward => unreachable!("cache never forwards"),
                            }
                            self.schedule(self.now + u64::from(lat), Event::LoadDone(dseq));
                        }
                        None => {
                            ports_exhausted = true;
                            remaining.push_back((dseq, addr));
                        }
                    }
                }
            }
        }
        std::mem::swap(&mut self.mem_pending, &mut remaining);
        self.mem_scratch = remaining; // the drained old queue, kept as scratch
    }

    // ------------------------------------------------------------------
    // Stage 5: issue.
    // ------------------------------------------------------------------
    fn issue(&mut self) {
        let n = self.cfg.num_clusters;
        // Nothing anywhere is issueable (the common case on stall cycles):
        // one comparison instead of walking every cluster's queues. Debug
        // builds still cross-check every ring against the readiness scan.
        if self.ready_entries == 0 {
            #[cfg(debug_assertions)]
            for c in 0..n {
                for kind in QueueKind::ALL {
                    self.debug_assert_ready_ring_matches_scan(c, kind);
                    debug_assert_eq!(self.iqs[c][kind.index()].ready_len(), 0);
                }
            }
            return;
        }
        for c in 0..n {
            self.issue_queue(c, QueueKind::Int, self.cfg.iq_int_issue);
            self.issue_queue(c, QueueKind::Fp, self.cfg.iq_fp_issue);
            self.issue_copies(c, self.cfg.copy_issue);
        }
    }

    fn issue_queue(&mut self, cluster: usize, kind: QueueKind, width: usize) {
        #[cfg(debug_assertions)]
        self.debug_assert_ready_ring_matches_scan(cluster, kind);
        // Pop up to `width` entries off the wakeup-maintained ready ring —
        // oldest first, never touching the waiting entries the old scan
        // re-tested every cycle. Each pop is a short `&mut` borrow of the
        // queue, so execution starts inline (no scratch buffer pass).
        let mut issued = 0usize;
        while issued < width {
            let Some(dseq) = self.iqs[cluster][kind.index()].pop_one_ready() else {
                break;
            };
            #[cfg(debug_assertions)]
            {
                let entry = &self.rob[self.rob_index(dseq)];
                debug_assert_eq!(entry.pending_srcs, 0);
                debug_assert!(entry
                    .src_tags
                    .iter()
                    .flatten()
                    .all(|&t| self.values.ready_in(t, cluster as u8)));
            }
            self.start_execution(dseq);
            self.stats.clusters[cluster].issued += 1;
            issued += 1;
        }
        if issued > 0 {
            self.steer_sum.remove(cluster, kind, issued);
            self.ready_entries -= issued;
        }
    }

    /// Debug-only contract check: the wakeup-derived ready ring must equal
    /// (same ids, same age order) what the pre-wakeup per-cycle readiness
    /// scan over all queue entries would have selected from.
    #[cfg(debug_assertions)]
    fn debug_assert_ready_ring_matches_scan(&self, cluster: usize, kind: QueueKind) {
        let q = &self.iqs[cluster][kind.index()];
        let scan: Vec<u64> = q
            .debug_all_ids()
            .filter(|&id| match kind {
                QueueKind::Copy => {
                    let op = self.copies.get(id as u32);
                    self.values.ready_in(op.tag, op.from)
                }
                _ => {
                    let entry = &self.rob[self.rob_index(id)];
                    entry
                        .src_tags
                        .iter()
                        .flatten()
                        .all(|&t| self.values.ready_in(t, cluster as u8))
                }
            })
            .collect();
        let ring: Vec<u64> = q.ready_ids().collect();
        debug_assert_eq!(
            ring, scan,
            "wakeup ready ring diverged from the readiness scan \
             (cluster {cluster}, {kind:?} queue, cycle {})",
            self.now
        );
    }

    fn start_execution(&mut self, dseq: u64) {
        let idx = self.rob_index(dseq);
        // Release source references: the operands are read at issue.
        let src_tags = self.rob[idx].src_tags;
        for tag in src_tags.iter().flatten() {
            self.values.release(*tag);
        }
        let op = self.rob[idx].op;
        let lat = u64::from(self.cfg.latencies.of(op));
        match op {
            OpClass::Load => self.schedule(self.now + lat, Event::LoadAgu(dseq)),
            _ => self.schedule(self.now + lat, Event::Exec(dseq)),
        }
    }

    fn issue_copies(&mut self, cluster: usize, width: usize) {
        #[cfg(debug_assertions)]
        self.debug_assert_ready_ring_matches_scan(cluster, QueueKind::Copy);
        if !self.iqs[cluster][QueueKind::Copy.index()].has_ready() {
            return;
        }
        // Ready-ring entries already have their source value readable at
        // `from`; the per-cycle link-bandwidth arbitration is the accept
        // predicate (a rejected copy keeps its age slot for later cycles).
        let mut picked = std::mem::take(&mut self.picked);
        debug_assert!(picked.is_empty());
        {
            let queue = &mut self.iqs[cluster][QueueKind::Copy.index()];
            let links = &mut self.links;
            let copies = &self.copies;
            #[cfg(debug_assertions)]
            let values = &self.values;
            queue.select_ready(
                width,
                |id64| {
                    let op = copies.get(id64 as u32);
                    #[cfg(debug_assertions)]
                    debug_assert!(values.ready_in(op.tag, op.from), "unready copy in ring");
                    links.try_send(op.from, op.to)
                },
                |id64| picked.push(id64),
            );
        }
        self.steer_sum
            .remove(cluster, QueueKind::Copy, picked.len());
        self.ready_entries -= picked.len();
        for &id64 in &picked {
            // A copy micro-op spends one cycle reading the source register
            // file after issue, then traverses the point-to-point link
            // (`copy_latency`, paper Table 2: 1 cycle).
            let lat = 1 + u64::from(self.cfg.copy_latency).max(1);
            self.schedule(self.now + lat, Event::CopyArrive(id64 as u32));
        }
        picked.clear();
        self.picked = picked;
    }

    // ------------------------------------------------------------------
    // Stage 6: dispatch (decode/rename/steer).
    // ------------------------------------------------------------------

    /// Pick the cluster a copy of `tag` should be read from: the lowest
    /// cluster where the value is already ready, else its home cluster
    /// (the copy will wait there for the producer).
    fn copy_source(&self, tag: ValueTag) -> u8 {
        let ready = self.values.ready_mask(tag);
        if ready != 0 {
            ready.trailing_zeros() as u8
        } else {
            self.values.home(tag)
        }
    }

    /// Debug-only contract check: everything the incremental steering view
    /// exposes must equal a from-scratch rebuild — the location masks must
    /// match a full rename-table walk, and the occupancy summary's counts,
    /// busy bits and full bits must match the queues' own books re-derived
    /// through the original float threshold predicate.
    #[cfg(debug_assertions)]
    fn debug_assert_steering_view_matches_rebuild(&self) {
        debug_assert_eq!(
            self.cur_loc,
            self.rename.location_snapshot(&self.values),
            "incremental location view diverged from the rename table"
        );
        debug_assert_eq!(
            self.ready_entries,
            self.iqs
                .iter()
                .flat_map(|qs| qs.iter().map(IssueQueue::ready_len))
                .sum::<usize>(),
            "ready-entry count diverged from the rings"
        );
        for c in 0..self.cfg.num_clusters {
            for kind in QueueKind::ALL {
                let occ = self.iqs[c][kind.index()].len();
                let cap = self.steer_sum.capacity(kind);
                debug_assert_eq!(
                    self.steer_sum.occupancy(c as u8, kind),
                    occ,
                    "occupancy counter diverged (cluster {c}, {kind:?} queue)"
                );
                debug_assert_eq!(
                    self.steer_sum.is_busy(c as u8, kind),
                    occ as f64 >= self.cfg.busy_occupancy_threshold * cap as f64,
                    "busy bit diverged (cluster {c}, {kind:?} queue, occ {occ})"
                );
                debug_assert_eq!(
                    self.steer_sum.has_space(c as u8, kind),
                    occ < cap,
                    "full bit diverged (cluster {c}, {kind:?} queue, occ {occ})"
                );
            }
        }
    }

    /// Advance the parallel-steering delay line by one cycle: push the
    /// live location epoch and, once the ring covers `fetch_to_dispatch`
    /// cycles, pop the oldest epoch into `stale_loc`. Runs every stepped
    /// cycle, just before [`SimSession::dispatch`].
    fn roll_stale_epoch(&mut self) {
        // The parallel-steering snapshot: a pipelined (non-serializing)
        // steering unit computes its decisions while the bundle traverses
        // the fetch-to-dispatch stages, so the location information it
        // reads is `fetch_to_dispatch` cycles old by the time the bundle
        // dispatches (Sec. 2.1's stale "bundle entry" information).
        // `cur_loc` is the incrementally maintained live view; location
        // masks only change at dispatch (renames and copy insertions), so
        // no per-cycle rename-table walk is needed.
        #[cfg(debug_assertions)]
        self.debug_assert_steering_view_matches_rebuild();
        self.stale_ring.push(&self.cur_loc, self.loc_gen);
        if self.stale_ring.len() > u64::from(self.cfg.fetch_to_dispatch) {
            self.stale_ring
                .pop(&mut self.stale_loc, &mut self.stale_gen);
        }
    }

    /// What dispatch does with the front micro-op `uop` once the ROB/LSQ
    /// checks pass: steer it against the stale snapshot `stale`, then
    /// check the chosen cluster's issue queue, register file and the copy
    /// queues, in that order. Returns the plan dispatch carries out, or
    /// the stall it records. [`SimSession::dispatch`] passes the live
    /// `stale_loc`; the idle-span
    /// probe passes each stale epoch of a frozen span, every other input
    /// being frozen there (queue occupancies and register-file use move
    /// only at dispatch, issue or commit, value locations and readiness
    /// only at renames and completions — all of which either end the span
    /// or cannot run inside it).
    ///
    /// A cluster the machine does not have comes back unchecked as a plan
    /// with no copies: the probe then sees dispatch acting this cycle, and
    /// `dispatch` raises the range assert.
    fn plan_dispatch(
        &self,
        policy: &mut dyn SteeringPolicy,
        uop: &DynUop,
        stale: &[ClusterMask; NUM_ARCH_REGS],
    ) -> Result<DispatchPlan, StallReason> {
        // The view is a window onto incrementally maintained state
        // (locations, occupancy summary), so building it per micro-op
        // copies a handful of references.
        let view = SteerView {
            num_clusters: self.cfg.num_clusters,
            cur_loc: &self.cur_loc,
            stale_loc: stale,
            summary: &self.steer_sum,
            inflight: &self.inflight,
        };
        let cluster = match policy.steer(uop, &view) {
            SteerDecision::Stall => return Err(StallReason::PolicyStall),
            SteerDecision::Cluster(c) => c,
        };
        let mut plan = DispatchPlan {
            cluster,
            copies: [(ArchReg::int(0), 0); MAX_SRCS],
            n_copies: 0,
        };
        if cluster as usize >= self.cfg.num_clusters {
            return Ok(plan);
        }
        if !self.iqs[cluster as usize][uop.op.queue().index()].has_space() {
            return Err(StallReason::IqFull);
        }
        if let Some(dst) = uop.dst {
            let cap = match dst.class {
                RegClass::Int => self.cfg.int_regs_per_cluster,
                RegClass::Flt => self.cfg.fp_regs_per_cluster,
            };
            if self.values.rf_used(cluster, dst.class) as usize >= cap {
                return Err(StallReason::RfFull);
            }
        }
        // Copies for sources not present in the target cluster, each read
        // from the cluster `copy_source` picks; every source cluster's copy
        // queue must hold the copies planned into it.
        let mut planned_per_cluster = [0usize; 8];
        for src in uop.srcs.iter() {
            if plan.copies[..plan.n_copies].iter().any(|&(r, _)| r == src) {
                continue; // same register read twice: one copy.
            }
            let loc = self.cur_loc[src.flat()];
            debug_assert_eq!(loc, self.rename.location(src, &self.values));
            if loc & cluster_bit(cluster) != 0 {
                continue;
            }
            let from = self.copy_source(self.rename.tag(src));
            let queue = &self.iqs[from as usize][QueueKind::Copy.index()];
            if queue.len() + planned_per_cluster[from as usize] >= queue.capacity() {
                return Err(StallReason::CopyQueueFull);
            }
            planned_per_cluster[from as usize] += 1;
            plan.copies[plan.n_copies] = (src, from);
            plan.n_copies += 1;
        }
        Ok(plan)
    }

    fn dispatch(&mut self, policy: &mut dyn SteeringPolicy) {
        let mut budget_int = self.cfg.dispatch_width_int;
        let mut budget_fp = self.cfg.dispatch_width_fp;
        let mut dispatched_any = false;
        let mut stalled = false;

        loop {
            // The front micro-op is probed through an immutable borrow and
            // only moved out of the fetch queue once dispatch is certain: a
            // stalled front would otherwise pay a DynUop copy per re-check
            // cycle.
            let verdict = {
                let Some(front) = self.fetchq.front() else {
                    break;
                };
                if front.ready > self.now {
                    break;
                }
                let uop = &front.uop;
                let is_fp = uop.op.is_fp();
                if (if is_fp { budget_fp } else { budget_int }) == 0 {
                    break;
                }
                // Structural checks that do not depend on the steering
                // decision come first: they stall before the policy runs.
                if self.rob.len() >= self.cfg.rob_entries {
                    Err(StallReason::RobFull)
                } else if uop.op.is_mem() && !self.lsq.has_space() {
                    Err(StallReason::LsqFull)
                } else {
                    self.plan_dispatch(policy, uop, &self.stale_loc)
                }
            };
            let DispatchPlan {
                cluster,
                copies,
                n_copies,
            } = match verdict {
                Ok(plan) => plan,
                Err(reason) => {
                    self.stats.dispatch_stalls[reason.index()] += 1;
                    stalled = true;
                    break;
                }
            };
            assert!(
                (cluster as usize) < self.cfg.num_clusters,
                "policy steered to nonexistent cluster {cluster}"
            );

            // All checks passed: dispatch for real. This is the only place
            // the micro-op leaves the fetch queue (a single move).
            let front = self.fetchq.pop_front().expect("probed front exists");
            let uop = front.uop;
            let mispredicted = front.mispredicted;
            let kind = uop.op.queue();
            let dseq = self.next_dseq;
            self.next_dseq += 1;
            debug_assert_eq!(dseq, self.rob_base + self.rob.len() as u64);

            // Source references (one per read, duplicates included). A
            // source not yet readable in the target cluster registers a
            // wakeup waiter instead of being re-polled every cycle: its
            // value is guaranteed to arrive there (the producer was steered
            // there, a copy is already in flight, or the copy generator
            // below inserts one this very dispatch).
            let mut src_tags = [None; MAX_SRCS];
            let mut pending_srcs = 0u8;
            for (i, src) in uop.srcs.iter().enumerate() {
                let tag = self.rename.tag(src);
                src_tags[i] = Some(tag);
                if !self.values.acquire_src(tag, cluster, Waiter::Uop(dseq)) {
                    pending_srcs += 1;
                }
            }

            // Copy generation (the paper's copy generator, now policy-free).
            for &(reg, from) in &copies[..n_copies] {
                let tag = self.rename.tag(reg);
                self.values.begin_copy(tag, cluster);
                self.cur_loc[reg.flat()] |= cluster_bit(cluster);
                self.loc_gen += 1;
                let id = self.copies.alloc(CopyOp {
                    tag,
                    from,
                    to: cluster,
                });
                let seq = self.copies.seq(id);
                let queue = &mut self.iqs[from as usize][QueueKind::Copy.index()];
                if self.values.ready_in(tag, from) {
                    queue.push_ready(seq, u64::from(id));
                    self.ready_entries += 1;
                } else {
                    // `from` is the producer's home cluster (copy_source
                    // falls back to it when no cluster is ready yet): the
                    // copy's register read waits for mark_produced there.
                    queue.push_waiting(u64::from(id));
                    self.values.add_waiter(tag, from, Waiter::Copy(id));
                }
                self.steer_sum.insert(from as usize, QueueKind::Copy);
                self.stats.copies_generated += 1;
                self.stats.clusters[from as usize].copies_inserted += 1;
            }

            // Destination rename.
            let dst_tag = uop.dst.map(|dst| {
                let tag = self.values.alloc(dst.class, cluster);
                self.rename.redefine(dst, tag, &mut self.values);
                self.cur_loc[dst.flat()] = cluster_bit(cluster);
                self.loc_gen += 1;
                tag
            });

            let lsq_pos = if uop.op.is_mem() {
                self.lsq.alloc(dseq, uop.op == OpClass::Store)
            } else {
                0
            };

            self.rob.push_back(RobEntry {
                seq: uop.seq,
                op: uop.op,
                mem_addr: uop.mem_addr,
                lsq_pos,
                cluster,
                state: RobState::Waiting,
                dst_tag,
                src_tags,
                pending_srcs,
                mispredicted,
            });
            let queue = &mut self.iqs[cluster as usize][kind.index()];
            if pending_srcs == 0 {
                queue.push_ready(dseq, dseq);
                self.ready_entries += 1;
            } else {
                queue.push_waiting(dseq);
            }
            self.steer_sum.insert(cluster as usize, kind);
            self.inflight[cluster as usize] += 1;
            self.stats.clusters[cluster as usize].dispatched += 1;
            if uop.op.is_fp() {
                budget_fp -= 1;
            } else {
                budget_int -= 1;
            }
            dispatched_any = true;
        }

        if !dispatched_any && !stalled {
            self.stats.frontend_starved_cycles += 1;
        }
    }

    // ------------------------------------------------------------------
    // Stage 7: fetch.
    // ------------------------------------------------------------------
    fn fetch(&mut self, trace: &mut dyn TraceSource, limits: &RunLimits) {
        if self.halted_for_branch || self.now < self.fetch_stalled_until {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetchq.len() >= self.fetch_buf_cap {
                break;
            }
            if let Some(max) = limits.max_uops {
                if self.fetched_uops >= max {
                    self.trace_done = true;
                    break;
                }
            }
            let Some(uop) = trace.next_uop() else {
                self.trace_done = true;
                break;
            };
            self.fetched_uops += 1;

            // Trace-cache model at region granularity.
            let region = uop.inst.region;
            let mut extra_delay = 0u64;
            if self.cur_region != Some(region) {
                self.cur_region = Some(region);
                if !self.tcache.access(region, trace.region_uops(region)) {
                    self.stats.trace_cache_misses += 1;
                    extra_delay = u64::from(self.tcache.miss_penalty);
                    self.fetch_stalled_until = self.now + extra_delay;
                }
            }

            let mut mispredicted = false;
            if let Some(binfo) = uop.branch {
                let correct = self
                    .predictor
                    .predict_and_update(pc_of(uop.inst), binfo.taken);
                // The predictor indexes by static instruction only; the
                // trace-provided PC surrogate (`binfo.pc`) is deliberately
                // unused, so distinct call sites of a shared region alias
                // to one predictor entry — an accepted approximation of
                // this trace-driven front-end.
                let _ = binfo.pc;
                mispredicted = !correct;
            }

            let ready = self.now + u64::from(self.cfg.fetch_to_dispatch) + extra_delay;
            self.fetchq.push_back(FetchedUop {
                uop,
                ready,
                mispredicted,
            });

            if mispredicted {
                // Wrong path cannot be simulated: halt fetch until resolve.
                self.halted_for_branch = true;
                break;
            }
            if extra_delay > 0 {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // One cycle.
    // ------------------------------------------------------------------

    /// Advance the machine by one cycle — or, when the machine is provably
    /// idle (see the module docs), directly to the next cycle where
    /// anything can happen, replicating the skipped cycles' counters
    /// arithmetically. Statistics after any number of steps are
    /// bit-identical to single-stepping; only [`SimSession::cycle`]'s
    /// stride differs. `VIRTCLUST_NO_SKIP=1` (or
    /// [`SimSession::set_cycle_skipping`]) restores strict one-cycle
    /// stepping.
    pub fn step(
        &mut self,
        trace: &mut dyn TraceSource,
        policy: &mut dyn SteeringPolicy,
        limits: &RunLimits,
    ) {
        if self.skip_enabled {
            if let Some((span, kind)) = self.idle_span(policy, limits) {
                // Interrupt sources are polled every CHECK_INTERVAL_CYCLES
                // by the run loop, but a span would advance `now` past
                // arbitrarily many boundaries in one step, firing an armed
                // deadline or cancel late. Clamp at the next check instead:
                // splitting a span is bit-identical (counter replication is
                // linear in the span length), only the stop latency and the
                // host-side skip diagnostics change.
                let span = match &self.interrupt {
                    Some(int) => span.min(int.max_skip(self.now)),
                    None => span,
                };
                #[cfg(not(debug_assertions))]
                self.skip_idle_span(span, kind);
                #[cfg(debug_assertions)]
                self.skip_idle_span_mirrored(span, kind, trace, policy, limits);
                return;
            }
        }
        self.cycle_body(trace, policy, limits);
    }

    /// Decide whether this cycle is provably idle and, if so, for how
    /// long. Returns the skippable span (≥ 1 cycle) together with the
    /// accounting every skipped cycle would have recorded.
    ///
    /// The predicate mirrors the stage bodies exactly — a cycle qualifies
    /// only when every stage is a no-op whose counters replicate
    /// arithmetically:
    ///
    /// * no calendar event due now ([`SimSession::process_events`]
    ///   early-returns, so no wakeups either);
    /// * no commit-ready ROB head, no drainable store, and every parked
    ///   load provably re-fails its (pure) [`Lsq::check_load`] for the
    ///   whole span;
    /// * nothing issueable in any queue (`ready_entries == 0`);
    /// * dispatch provably stops *before* consulting the steering policy:
    ///   the front-end has nothing ready (starved) or the front micro-op
    ///   hits a ROB/LSQ structural stall — the checks that precede
    ///   `SteeringPolicy::steer`, which may be impure and therefore
    ///   must observe exactly the per-uop call sequence of stepping;
    /// * fetch is provably inert: trace drained, halted for a mispredict
    ///   (the resolving completion is a calendar event), buffer full, or
    ///   stalled on a trace-cache refill (which bounds the span).
    ///
    /// The span ends at the earliest cycle any stage could act again —
    /// the next calendar event, the front micro-op's ready cycle, the
    /// fetch-restall deadline, or the run's `max_cycles` limit — and all
    /// of the per-cycle state above is frozen until then, because nothing
    /// that mutates it can run during the span.
    fn idle_span(
        &self,
        policy: &mut dyn SteeringPolicy,
        limits: &RunLimits,
    ) -> Option<(u64, IdleCycleKind)> {
        // Cheapest checks first: this runs at the top of every step.
        if !self.events[(self.now & self.horizon_mask) as usize].is_empty() {
            return None; // completion events due this cycle
        }
        if self.ready_entries != 0 {
            return None; // issue has work
        }
        if !self.store_drain.is_empty() {
            return None; // store drain has work
        }
        // Loads parked in the memory stage only block the skip if one of
        // them could act. `check_load` is pure, and the LSQ state it reads
        // changes only at dispatch, store writeback, or commit — none of
        // which can occur inside an event-free span — so an entry that
        // answers `WaitOnStore` now re-fails identically on every cycle of
        // the span (the memory stage's pop/requeue round trip preserves
        // queue order). A `Forward` or `GoToCache` answer means this very
        // cycle would forward data or take a cache port: not idle.
        if self
            .mem_pending
            .iter()
            .any(|&(dseq, addr)| self.lsq.check_load(dseq, addr) != LoadCheck::WaitOnStore)
        {
            return None; // a parked load would access memory this cycle
        }
        if matches!(self.rob.front(), Some(e) if e.state == RobState::Completed) {
            return None; // commit has work
        }

        // Fetch activity check *before* the dispatch classification (see
        // the doc comment for the inert cases): on busy points fetch pulls
        // from the trace most stepped cycles, and the classification below
        // is the probe's expensive half (it may consult the policy once
        // per distinct stale epoch) — bail before paying for it.
        let mut wake: Option<u64> = None;
        if !self.trace_done && !self.halted_for_branch && self.fetchq.len() < self.fetch_buf_cap {
            if self.now < self.fetch_stalled_until {
                wake = Some(self.fetch_stalled_until);
            } else {
                return None; // fetch would pull from the trace
            }
        }

        // Classify what dispatch does on every cycle of the span. The
        // per-class budgets are validated non-zero, so the first front
        // micro-op always reaches the structural checks below.
        let kind = match self.fetchq.front() {
            None => IdleCycleKind::FrontendStarved,
            Some(front) if front.ready > self.now => {
                let ready = front.ready;
                wake = Some(wake.map_or(ready, |w| w.min(ready)));
                IdleCycleKind::FrontendStarved
            }
            Some(front) => {
                if self.rob.len() >= self.cfg.rob_entries {
                    IdleCycleKind::DispatchStall(StallReason::RobFull)
                } else if front.uop.op.is_mem() && !self.lsq.has_space() {
                    IdleCycleKind::DispatchStall(StallReason::LsqFull)
                } else if policy.steer_is_pure() {
                    // The structural pre-checks pass: stepping would
                    // consult the policy this cycle and on every cycle of
                    // the span. A pure policy's answers — and the
                    // structural checks that follow them — are determined
                    // by frozen state plus the stale snapshot, so probing
                    // each distinct snapshot once classifies every cycle;
                    // the first cycle whose outcome differs bounds the
                    // span.
                    match self.dispatch_stall_prefix(policy, &front.uop) {
                        (_, None) => return None, // dispatch would act this cycle
                        (u64::MAX, Some(r)) => IdleCycleKind::DispatchStall(r),
                        (j, Some(r)) => {
                            let end = self.now + j;
                            wake = Some(wake.map_or(end, |w| w.min(end)));
                            IdleCycleKind::DispatchStall(r)
                        }
                    }
                } else {
                    // An impure policy must observe the per-cycle call
                    // sequence stepping would make: not skippable.
                    return None; // dispatch would reach the policy
                }
            }
        };

        if let Some(ev) = self.next_event_time(wake) {
            wake = Some(wake.map_or(ev, |w| w.min(ev)));
        }
        let mut target = wake?;
        if let Some(max) = limits.max_cycles {
            target = target.min(max);
        }
        (target > self.now).then(|| (target - self.now, kind))
    }

    /// How many consecutive cycles, starting now, a stalled front
    /// micro-op provably keeps hitting the *same* dispatch stall under a
    /// *pure* policy ([`SteeringPolicy::steer_is_pure`]), and which stall
    /// that is (`None`: dispatch would act this very cycle).
    ///
    /// During an event-free span every input of the dispatch decision is
    /// frozen except the stale snapshot, which evolves deterministically:
    /// span cycle `i` steers against the pre-span `stale_loc` while the
    /// ring is still filling (`len + i < depth`), then against the old
    /// ring runs front to back, then against `cur_loc` forever. The runs
    /// are location *epochs* — classifying each distinct generation once
    /// with [`SimSession::plan_dispatch`] covers every cycle, and a
    /// one-slot generation cache dedups adjacent repeats, so the typical
    /// all-one-epoch probe costs one policy call. The prefix is `u64::MAX`
    /// when the outcome holds for as long as the pipeline stays frozen.
    /// The probe's steer calls are unobservable by the purity contract, so
    /// skipping and stepping stay bit-identical.
    fn dispatch_stall_prefix(
        &self,
        policy: &mut dyn SteeringPolicy,
        uop: &DynUop,
    ) -> (u64, Option<StallReason>) {
        let depth = u64::from(self.cfg.fetch_to_dispatch);
        let len = self.stale_ring.len();
        let epochs = (len < depth)
            .then_some((&self.stale_loc, self.stale_gen, depth - len))
            .into_iter()
            .chain(
                self.stale_ring
                    .runs
                    .iter()
                    .map(|run| (&run.snap, run.gen, run.count)),
            )
            .chain(std::iter::once((&self.cur_loc, self.loc_gen, u64::MAX)));
        let mut cached: Option<(u64, Option<StallReason>)> = None;
        let mut prefix = 0u64;
        let mut kind0 = None;
        for (i, (stale, gen, cycles)) in epochs.enumerate() {
            let kind = match cached {
                Some((cached_gen, k)) if cached_gen == gen => {
                    debug_assert_eq!(
                        k,
                        self.plan_dispatch(policy, uop, stale).err(),
                        "stall-prefix generation cache diverged from recompute \
                         (gen {gen}, cycle {})",
                        self.now
                    );
                    k
                }
                _ => {
                    let k = self.plan_dispatch(policy, uop, stale).err();
                    cached = Some((gen, k));
                    k
                }
            };
            if i == 0 {
                if kind.is_none() {
                    return (0, None);
                }
                kind0 = kind;
            } else if kind != kind0 {
                return (prefix, kind0);
            }
            prefix = prefix.saturating_add(cycles);
        }
        (prefix, kind0)
    }

    /// Earliest calendar slot after `now` holding an event, scanning at
    /// most up to `bound` (an event at or beyond an already-known wake-up
    /// cycle cannot shorten the span). Returns `None` when the calendar is
    /// empty or the next event lies at or beyond `bound`. Every live event
    /// is within `(now, now + horizon]`, so one bounded ring scan is
    /// exhaustive.
    fn next_event_time(&self, bound: Option<u64>) -> Option<u64> {
        if self.events_live == 0 {
            return None;
        }
        let max_dt = bound.map_or(self.horizon_mask, |b| (b - self.now).min(self.horizon_mask));
        for dt in 1..=max_dt {
            let t = self.now + dt;
            if !self.events[(t & self.horizon_mask) as usize].is_empty() {
                return Some(t);
            }
        }
        debug_assert!(bound.is_some(), "live events must lie within the horizon");
        None
    }

    /// Record one skipped span in the host-side diagnostics and announce
    /// it to the observer, if any. Shared by the release fast path and the
    /// debug mirror so both builds emit identical telemetry.
    fn note_skip_span(&mut self, span: u64, kind: IdleCycleKind) {
        self.skip_diag.cycles += span;
        if let IdleCycleKind::DispatchStall(r) = kind {
            self.skip_diag.stall_spans[r.index()] += 1;
        }
        if let Some(obs) = &mut self.observer {
            obs.sink.on_skip_span(&SkipSpan {
                start_cycle: self.now,
                len: span,
                label: kind.label(),
            });
        }
    }

    /// Apply an idle span in O(1): advance `now` and replicate every
    /// per-cycle counter arithmetically (the release-build fast path; the
    /// debug build runs [`SimSession::skip_idle_span_mirrored`] instead).
    #[cfg(not(debug_assertions))]
    fn skip_idle_span(&mut self, span: u64, kind: IdleCycleKind) {
        self.note_skip_span(span, kind);
        if self.observer.is_some() {
            // Attribute the span across interval boundaries in closed
            // form: counter replication is linear in the span length, so
            // replicating boundary-aligned chunks and emitting at each
            // boundary produces exactly the deltas single-stepping would.
            let mut obs = self.observer.take().expect("observer vanished");
            let mut remaining = span;
            while remaining > 0 {
                let chunk = remaining.min(obs.next_boundary - self.now);
                self.stats
                    .replicate_idle_cycles(chunk, kind, &self.inflight);
                self.now += chunk;
                remaining -= chunk;
                if self.now == obs.next_boundary {
                    obs.emit_interval(&self.stats);
                    obs.sink.on_gauges(self.now, &self.gauges());
                    obs.next_boundary += obs.every;
                }
            }
            self.observer = Some(obs);
        } else {
            self.stats.replicate_idle_cycles(span, kind, &self.inflight);
            self.now += span;
        }
        self.stale_ring.replicate(
            &mut self.stale_loc,
            &mut self.stale_gen,
            &self.cur_loc,
            self.loc_gen,
            u64::from(self.cfg.fetch_to_dispatch),
            span,
        );
        // The per-cycle deadlock check is monotone in the cycle number, so
        // checking the span's last cycle (pre-increment, as stepping does)
        // is equivalent to checking every skipped cycle.
        if !self.rob.is_empty() && (self.now - 1) - self.last_commit_cycle > DEADLOCK_HORIZON {
            panic!(
                "simulator deadlock at cycle {}: rob={} lsq={} copies={} front={:?}",
                self.now - 1,
                self.rob.len(),
                self.lsq.len(),
                self.copies.live(),
                self.rob.front().map(|e| (e.seq, e.op, e.state))
            );
        }
    }

    /// Debug-build idle skip: compute the arithmetic replication on copies
    /// of the affected state, single-step the same span through the real
    /// stage bodies (safe — the predicate guarantees no skipped cycle
    /// reaches `SteeringPolicy::steer`, so even an impure policy cannot
    /// be perturbed), and assert the replicated state equals the stepped
    /// state exactly. The same mirror discipline as the ready-ring
    /// scan-vs-index and steering view-vs-rebuild checks.
    #[cfg(debug_assertions)]
    fn skip_idle_span_mirrored(
        &mut self,
        span: u64,
        kind: IdleCycleKind,
        trace: &mut dyn TraceSource,
        policy: &mut dyn SteeringPolicy,
        limits: &RunLimits,
    ) {
        // Same telemetry order as the release path: span event first, then
        // any interval boundaries inside the span (emitted naturally by
        // the stepped `cycle_body` calls below).
        self.note_skip_span(span, kind);
        let mut expected_stats = self.stats.clone();
        expected_stats.replicate_idle_cycles(span, kind, &self.inflight);
        let mut expected_stale_loc = self.stale_loc;
        let mut expected_stale_gen = self.stale_gen;
        let mut expected_ring = self.stale_ring.clone();
        expected_ring.replicate(
            &mut expected_stale_loc,
            &mut expected_stale_gen,
            &self.cur_loc,
            self.loc_gen,
            u64::from(self.cfg.fetch_to_dispatch),
            span,
        );
        let target = self.now + span;
        while self.now < target {
            self.cycle_body(trace, policy, limits);
        }
        assert_eq!(
            self.stats,
            expected_stats,
            "idle-span counter replication diverged from single-stepping \
             ({kind:?}, cycles {}..{target})",
            target - span
        );
        assert_eq!(
            self.stale_loc, expected_stale_loc,
            "idle-span stale-location replication diverged ({kind:?})"
        );
        assert_eq!(
            self.stale_gen, expected_stale_gen,
            "idle-span stale-generation replication diverged ({kind:?})"
        );
        assert_eq!(
            self.stale_ring, expected_ring,
            "idle-span stale-ring replication diverged ({kind:?})"
        );
    }

    /// The one cycle of the machine (shared by stepping and the debug skip
    /// mirror).
    fn cycle_body(
        &mut self,
        trace: &mut dyn TraceSource,
        policy: &mut dyn SteeringPolicy,
        limits: &RunLimits,
    ) {
        self.mem.begin_cycle();
        self.links.begin_cycle();

        self.process_events();
        self.commit();
        self.drain_stores();
        self.memory_stage();
        self.issue();
        self.roll_stale_epoch();
        self.dispatch(policy);
        self.fetch(trace, limits);

        for (c, s) in self.stats.clusters.iter_mut().enumerate() {
            s.occupancy_integral += u64::from(self.inflight[c]);
        }

        if !self.rob.is_empty() && self.now - self.last_commit_cycle > DEADLOCK_HORIZON {
            panic!(
                "simulator deadlock at cycle {}: rob={} lsq={} copies={} front={:?}",
                self.now,
                self.rob.len(),
                self.lsq.len(),
                self.copies.live(),
                self.rob.front().map(|e| (e.seq, e.op, e.state))
            );
        }

        self.now += 1;
        self.stats.cycles = self.now;

        // Telemetry hook — one branch when no observer is attached (the
        // hard contract: observability must not perturb the unobserved
        // hot path).
        if self.observer.is_some() {
            self.observer_boundaries();
        }
    }

    /// Instantaneous queue-depth gauges emitted alongside each interval.
    fn gauges(&self) -> [(&'static str, f64); 4] {
        [
            ("ready-entries", self.ready_entries as f64),
            ("rob", self.rob.len() as f64),
            ("lsq", self.lsq.len() as f64),
            ("fetchq", self.fetchq.len() as f64),
        ]
    }

    /// Emit every interval boundary at or behind the current cycle. Called
    /// once per stepped cycle (so the loop runs at most once per call, but
    /// stays a loop for robustness) and kept out of line to keep
    /// `cycle_body` tight.
    fn observer_boundaries(&mut self) {
        let Some(mut obs) = self.observer.take() else {
            return;
        };
        while self.now >= obs.next_boundary {
            obs.emit_interval(&self.stats);
            obs.sink.on_gauges(self.now, &self.gauges());
            obs.next_boundary += obs.every;
        }
        self.observer = Some(obs);
    }

    /// Flush the trailing partial interval (if the run did not end exactly
    /// on a boundary) and fire [`ObsSink::on_finish`] with the final
    /// stats. Called by [`SimSession::run`] before the stats are taken.
    fn flush_observer(&mut self) {
        let Some(mut obs) = self.observer.take() else {
            return;
        };
        if self.stats.cycles > obs.prev.cycles {
            obs.emit_interval(&self.stats);
            obs.sink.on_gauges(self.now, &self.gauges());
        }
        obs.sink.on_finish(&self.stats, self.now);
        self.observer = Some(obs);
    }

    /// Run from the current state to completion (or until a limit
    /// triggers), returning the statistics. Resets `policy` first. On a
    /// new session this is a one-off run: `SimSession::new(cfg).run(..)`.
    /// The session is left *dirty*: call [`SimSession::reset`] (or
    /// [`SimSession::simulate`], which does) before the next run.
    pub fn run(
        &mut self,
        trace: &mut dyn TraceSource,
        policy: &mut dyn SteeringPolicy,
        limits: &RunLimits,
    ) -> SimStats {
        policy.reset();
        loop {
            if let Some(max) = limits.max_cycles {
                if self.now >= max {
                    break;
                }
            }
            self.step(trace, policy, limits);
            if self.done() {
                break;
            }
            // Cooperative interruption: one branch per step when no source
            // is configured; with sources, one relaxed load (plus an
            // `Instant::now()` when a deadline is set) per check interval
            // or skipped span. Polled after `done()` so a run that drains
            // at the boundary still reports a clean completion.
            if let Some(int) = &mut self.interrupt {
                if int.poll(self.now).is_some() {
                    break;
                }
            }
        }
        if self.observer.is_some() {
            self.flush_observer();
        }
        std::mem::take(&mut self.stats)
    }

    /// Reset to `cfg` and run one complete simulation — the batch-engine
    /// entry point. Bit-identical to `SimSession::new(cfg).run(..)`,
    /// without the per-run allocation cost.
    pub fn simulate(
        &mut self,
        cfg: &MachineConfig,
        trace: &mut dyn TraceSource,
        policy: &mut dyn SteeringPolicy,
        limits: &RunLimits,
    ) -> SimStats {
        self.reset(cfg);
        self.run(trace, policy, limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_uarch::{ArchReg, Region, RegionBuilder, SliceTrace};

    /// Round-robin per uop (maximally copy-happy).
    struct RoundRobin(u8);
    impl SteeringPolicy for RoundRobin {
        fn name(&self) -> String {
            "round-robin".into()
        }
        fn steer(&mut self, _uop: &DynUop, view: &SteerView<'_>) -> SteerDecision {
            let c = self.0;
            self.0 = (self.0 + 1) % view.num_clusters() as u8;
            SteerDecision::Cluster(c)
        }
        fn reset(&mut self) {
            self.0 = 0;
        }
    }

    fn r(i: u8) -> ArchReg {
        ArchReg::int(i)
    }

    fn mixed_region() -> Region {
        RegionBuilder::new(0, "mix")
            .alu(r(1), &[r(1), r(2)])
            .load(r(3), r(1))
            .alu(r(2), &[r(3)])
            .store(r(1), r(3))
            .branch(r(2))
            .build()
    }

    fn expand(region: &Region, iters: usize) -> Vec<DynUop> {
        let mut uops = Vec::new();
        let mut seq = 0;
        for it in 0..iters {
            seq = virtclust_uarch::trace::expand_region(
                region,
                seq,
                &mut uops,
                |s, _| 0x2000 + (s % 96) * 8,
                |s, _| !(s + it as u64).is_multiple_of(4),
            );
        }
        uops
    }

    #[test]
    fn reused_session_matches_fresh_machines_across_mixed_configs() {
        let region = mixed_region();
        let uops = expand(&region, 120);
        let mut session = SimSession::new(&MachineConfig::default());
        // A mixed sequence: 2-cluster, 4-cluster, back to 2-cluster — with
        // different policies and budgets — all through one session.
        let runs = [
            (MachineConfig::paper_2cluster(), RunLimits::unlimited()),
            (MachineConfig::paper_4cluster(), RunLimits::uops(300)),
            (MachineConfig::paper_2cluster(), RunLimits::uops(450)),
            (
                MachineConfig::default().with_clusters(3),
                RunLimits::unlimited(),
            ),
        ];
        for (cfg, limits) in &runs {
            let fresh = {
                let mut trace = SliceTrace::new(&uops);
                SimSession::new(cfg).run(&mut trace, &mut RoundRobin(0), limits)
            };
            let reused = {
                let mut trace = SliceTrace::new(&uops);
                session.simulate(cfg, &mut trace, &mut RoundRobin(0), limits)
            };
            assert_eq!(fresh, reused, "{} clusters", cfg.num_clusters);
        }
    }

    #[test]
    fn reset_clears_a_dirty_session_completely() {
        let region = mixed_region();
        let uops = expand(&region, 60);
        let cfg = MachineConfig::default();
        let mut session = SimSession::new(&cfg);
        // Dirty the session with a *partial* run (mid-flight state).
        {
            let mut trace = SliceTrace::new(&uops);
            let mut policy = RoundRobin(0);
            for _ in 0..37 {
                session.step(&mut trace, &mut policy, &RunLimits::unlimited());
            }
            // Turning skipping off mid-run makes the very next step one
            // cycle; the override then holds for the reused run below.
            session.set_cycle_skipping(false);
            let at = session.cycle();
            session.step(&mut trace, &mut policy, &RunLimits::unlimited());
            assert_eq!(session.cycle(), at + 1, "strict stepping when forced off");
            assert!(!session.done(), "state must be mid-flight");
        }
        session.reset(&cfg);
        assert_eq!(session.cycle(), 0);
        let reused = {
            let mut trace = SliceTrace::new(&uops);
            session.simulate(
                &cfg,
                &mut trace,
                &mut RoundRobin(0),
                &RunLimits::unlimited(),
            )
        };
        let fresh = {
            let mut trace = SliceTrace::new(&uops);
            SimSession::new(&cfg).run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited())
        };
        assert_eq!(fresh, reused);
    }

    #[test]
    fn cancelled_token_stops_the_run_at_the_next_check() {
        let region = mixed_region();
        let uops = expand(&region, 2_000);
        let cfg = MachineConfig::default();
        let mut session = SimSession::new(&cfg);
        let token = CancelToken::new();
        token.cancel(); // cancelled before the run even starts
        session.set_interrupt(Some(token), None);
        let mut trace = SliceTrace::new(&uops);
        let stats = session.run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited());
        assert_eq!(session.stop_cause(), Some(StopCause::Cancelled));
        assert!(
            stats.committed_uops < uops.len() as u64,
            "a pre-cancelled run must stop at the first check, not drain \
             {} uops (committed {})",
            uops.len(),
            stats.committed_uops
        );
        // The interrupted session resets cleanly: the cause clears and a
        // subsequent run (sources removed) is bit-identical to fresh.
        session.clear_interrupt();
        let reused = {
            let mut trace = SliceTrace::new(&uops);
            session.simulate(
                &cfg,
                &mut trace,
                &mut RoundRobin(0),
                &RunLimits::unlimited(),
            )
        };
        assert_eq!(session.stop_cause(), None);
        let fresh = {
            let mut trace = SliceTrace::new(&uops);
            SimSession::new(&cfg).run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited())
        };
        assert_eq!(fresh, reused, "post-cancellation runs are unperturbed");
    }

    #[test]
    fn expired_deadline_stops_the_run() {
        let region = mixed_region();
        let uops = expand(&region, 2_000);
        let cfg = MachineConfig::default();
        let mut session = SimSession::new(&cfg);
        session.set_interrupt(None, Some(std::time::Instant::now()));
        let mut trace = SliceTrace::new(&uops);
        let stats = session.run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited());
        assert_eq!(session.stop_cause(), Some(StopCause::DeadlineExceeded));
        assert!(stats.committed_uops < uops.len() as u64);
    }

    #[test]
    fn interrupt_fires_within_one_check_interval_despite_skipping() {
        // Regression: a memory-bound chase produces idle spans hundreds of
        // cycles long, so before the span clamp a single skip could carry
        // `now` past many check boundaries and an armed deadline or cancel
        // fired arbitrarily late. With the clamp the very first poll lands
        // within one CHECK_INTERVAL_CYCLES of arming.
        use crate::cancel::CHECK_INTERVAL_CYCLES;
        let uops = idle_heavy_uops(400);
        let cfg = MachineConfig::default();
        for (token, deadline, cause) in [
            (
                None,
                Some(std::time::Instant::now()),
                StopCause::DeadlineExceeded,
            ),
            (
                Some({
                    let t = CancelToken::new();
                    t.cancel();
                    t
                }),
                None,
                StopCause::Cancelled,
            ),
        ] {
            let mut session = SimSession::new(&cfg);
            session.set_cycle_skipping(true);
            session.set_interrupt(token, deadline);
            let mut trace = SliceTrace::new(&uops);
            let stats = session.run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited());
            assert_eq!(session.stop_cause(), Some(cause));
            assert!(
                stats.cycles <= CHECK_INTERVAL_CYCLES,
                "{cause}: armed before the run, must fire at the first \
                 check (cycle {CHECK_INTERVAL_CYCLES}), not {} — a skip \
                 span outran the interrupt poll",
                stats.cycles
            );
        }
    }

    #[test]
    fn clamped_spans_stay_bit_identical_on_idle_heavy_runs() {
        // With interrupt sources armed, every idle span is split at check
        // boundaries; chunked counter replication must equal one-shot
        // replication (the debug build additionally single-steps each
        // chunk and asserts equality via the skip mirror).
        let uops = idle_heavy_uops(60);
        let cfg = MachineConfig::default();
        let bare = {
            let mut trace = SliceTrace::new(&uops);
            SimSession::new(&cfg).run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited())
        };
        let mut session = SimSession::new(&cfg);
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        session.set_interrupt(Some(CancelToken::new()), Some(far));
        let mut trace = SliceTrace::new(&uops);
        let watched = session.run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited());
        assert_eq!(session.stop_cause(), None);
        assert_eq!(
            bare, watched,
            "splitting idle spans at interrupt checks must not change stats"
        );
    }

    #[test]
    fn uncancelled_sources_do_not_perturb_the_run() {
        let region = mixed_region();
        let uops = expand(&region, 200);
        let cfg = MachineConfig::default();
        let bare = {
            let mut trace = SliceTrace::new(&uops);
            SimSession::new(&cfg).run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited())
        };
        let mut session = SimSession::new(&cfg);
        let token = CancelToken::new(); // never cancelled
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        session.set_interrupt(Some(token), Some(far));
        let mut trace = SliceTrace::new(&uops);
        let watched = session.run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited());
        assert_eq!(session.stop_cause(), None);
        assert_eq!(bare, watched, "interrupt sources must be read-only");
    }

    #[test]
    fn short_run_completes_before_the_first_interrupt_check() {
        // A run that drains inside the first check interval reports a
        // clean completion even with a cancelled token installed.
        let region = mixed_region();
        let uops = expand(&region, 2);
        let cfg = MachineConfig::default();
        let mut session = SimSession::new(&cfg);
        let token = CancelToken::new();
        token.cancel();
        session.set_interrupt(Some(token), None);
        let mut trace = SliceTrace::new(&uops);
        let stats = session.run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited());
        assert_eq!(stats.committed_uops, uops.len() as u64);
        assert_eq!(session.stop_cause(), None, "drained before any check");
    }

    #[test]
    fn wakeup_state_drains_at_completion_and_clears_on_reset() {
        let region = mixed_region();
        let uops = expand(&region, 60);
        let cfg = MachineConfig::default();
        let mut session = SimSession::new(&cfg);

        // Mid-flight under copy-happy steering there are blocked consumers.
        let mut trace = SliceTrace::new(&uops);
        let mut policy = RoundRobin(0);
        let mut saw_waiters = false;
        for _ in 0..40 {
            session.step(&mut trace, &mut policy, &RunLimits::unlimited());
            saw_waiters |= session.pending_wakeups() > 0;
        }
        assert!(saw_waiters, "round-robin must block some consumers");

        // Reset must clear the wakeup network in place…
        session.reset(&cfg);
        assert_eq!(session.pending_wakeups(), 0);

        // …and a full run must end with no waiter leaked.
        let mut trace = SliceTrace::new(&uops);
        let reused = session.simulate(
            &cfg,
            &mut trace,
            &mut RoundRobin(0),
            &RunLimits::unlimited(),
        );
        assert_eq!(session.pending_wakeups(), 0);
        let mut trace = SliceTrace::new(&uops);
        let fresh =
            SimSession::new(&cfg).run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited());
        assert_eq!(fresh, reused);
    }

    /// A serial pointer-chase over 4 KiB-strided lines: every load misses
    /// L1 and L2, and the next iteration depends on the loaded value, so
    /// the machine sits idle for the full memory latency between bursts —
    /// the shape that makes idle-span skipping fire.
    fn idle_heavy_uops(iters: usize) -> Vec<DynUop> {
        let region = RegionBuilder::new(0, "chase")
            .load(r(2), r(1))
            .alu(r(1), &[r(1), r(2)])
            .build();
        let mut uops = Vec::new();
        let mut seq = 0;
        for _ in 0..iters {
            seq = virtclust_uarch::trace::expand_region(
                &region,
                seq,
                &mut uops,
                |s, _| s * 4096,
                |_, _| true,
            );
        }
        uops
    }

    #[test]
    fn cycle_skipping_is_bit_identical_and_actually_skips() {
        let uops = idle_heavy_uops(40);
        let cfg = MachineConfig::default();
        let run = |skip: bool| {
            let mut session = SimSession::new(&cfg);
            session.set_cycle_skipping(skip);
            let mut trace = SliceTrace::new(&uops);
            let mut policy = RoundRobin(0);
            policy.reset();
            let mut steps = 0u64;
            loop {
                session.step(&mut trace, &mut policy, &RunLimits::unlimited());
                steps += 1;
                if session.done() {
                    break;
                }
            }
            (session.stats().clone(), steps)
        };
        let (skipped, skip_steps) = run(true);
        let (stepped, step_steps) = run(false);
        assert_eq!(skipped, stepped, "skipping must be bit-identical");
        assert_eq!(
            step_steps, stepped.cycles,
            "strict stepping is 1 cycle/step"
        );
        assert!(
            skip_steps * 4 < skipped.cycles,
            "memory-bound chase must skip most cycles ({skip_steps} steps for {} cycles)",
            skipped.cycles
        );
    }

    #[test]
    fn cycle_skipping_respects_max_cycles_exactly() {
        let uops = idle_heavy_uops(40);
        let cfg = MachineConfig::default();
        // A limit chosen to land mid-way through a ~500-cycle idle span.
        let limits = RunLimits {
            max_uops: None,
            max_cycles: Some(777),
        };
        let run = |skip: bool| {
            let mut session = SimSession::new(&cfg);
            session.set_cycle_skipping(skip);
            let mut trace = SliceTrace::new(&uops);
            session.run(&mut trace, &mut RoundRobin(0), &limits)
        };
        let skipped = run(true);
        assert_eq!(skipped.cycles, 777, "span must clamp to max_cycles");
        assert_eq!(skipped, run(false));
    }

    #[test]
    fn cycle_skipping_override_survives_reset() {
        let cfg = MachineConfig::default();
        let mut session = SimSession::new(&cfg);
        session.set_cycle_skipping(false);
        assert!(!session.cycle_skipping());
        session.reset(&cfg);
        assert!(!session.cycle_skipping(), "override must survive reset");
        session.set_cycle_skipping(true);
        session.reset(&cfg);
        assert!(session.cycle_skipping());
    }

    #[test]
    fn place_register_keeps_the_incremental_location_view_consistent() {
        // place_register re-homes a value; the incremental `cur_loc` view
        // must follow (the debug assertion in dispatch checks every cycle).
        let region = mixed_region();
        let uops = expand(&region, 30);
        let cfg = MachineConfig::default();
        let run = |session: &mut SimSession| {
            session.reset(&cfg);
            session.place_register(r(1), 1);
            session.place_register(r(2), 0);
            let mut trace = SliceTrace::new(&uops);
            let mut policy = RoundRobin(0);
            policy.reset();
            loop {
                session.step(&mut trace, &mut policy, &RunLimits::unlimited());
                if session.done() {
                    break;
                }
            }
            session.stats().clone()
        };
        let mut s1 = SimSession::new(&cfg);
        let mut s2 = SimSession::new(&cfg);
        let a = run(&mut s1);
        let b = run(&mut s2);
        assert_eq!(a, b);
        assert_eq!(a.committed_uops, uops.len() as u64);
    }

    use virtclust_obs::{MemSink, Shared};

    /// Run `uops` through a session with an interval observer attached and
    /// return the sink handle plus the final stats.
    fn observed_run(
        uops: &[DynUop],
        cfg: &MachineConfig,
        every: u64,
        skip: bool,
    ) -> (Shared<MemSink<SimStats>>, SimStats) {
        let handle = Shared::new(MemSink::<SimStats>::new());
        let mut session = SimSession::new(cfg);
        session.set_cycle_skipping(skip);
        session.attach_observer(every, Box::new(handle.clone()));
        let mut trace = SliceTrace::new(uops);
        let stats = session.run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited());
        (handle, stats)
    }

    fn sum_intervals(sink: &MemSink<SimStats>) -> SimStats {
        let mut sum = SimStats::default();
        for s in &sink.intervals {
            sum.accumulate(&s.delta);
        }
        sum
    }

    #[test]
    fn observer_interval_deltas_sum_to_final_stats_skip_on_and_off() {
        let uops = idle_heavy_uops(30);
        let cfg = MachineConfig::default();
        let every = 256;
        let (on, final_on) = observed_run(&uops, &cfg, every, true);
        let (off, final_off) = observed_run(&uops, &cfg, every, false);
        assert_eq!(final_on, final_off, "skipping must stay bit-identical");

        on.with(|sink| {
            assert_eq!(sum_intervals(sink), final_on, "skip-on deltas must sum");
            // Intervals tile [0, cycles) at exact multiples of `every`.
            let mut at = 0;
            for s in &sink.intervals {
                assert_eq!(s.start_cycle, at);
                assert!(s.end_cycle - s.start_cycle <= every);
                assert_eq!(s.delta.cycles, s.end_cycle - s.start_cycle);
                at = s.end_cycle;
            }
            assert_eq!(at, final_on.cycles);
            assert!(
                !sink.skip_spans.is_empty(),
                "memory-bound chase must skip spans"
            );
            assert_eq!(sink.skip_hist.count(), sink.skip_spans.len() as u64);
            assert_eq!(sink.finished, Some((final_on.clone(), final_on.cycles)));
            assert_eq!(sink.gauges.len(), sink.intervals.len());
        });
        off.with(|sink| {
            assert_eq!(sum_intervals(sink), final_off, "skip-off deltas must sum");
            assert!(sink.skip_spans.is_empty(), "no spans without skipping");
        });
        // The emitted samples themselves are bit-identical across modes:
        // skipped spans are attributed across boundaries in closed form.
        let on_samples = on.with(|s| s.intervals.clone());
        let off_samples = off.with(|s| s.intervals.clone());
        assert_eq!(on_samples, off_samples);
    }

    #[test]
    fn observer_does_not_perturb_stats() {
        let region = mixed_region();
        let uops = expand(&region, 80);
        let cfg = MachineConfig::default();
        let unobserved = {
            let mut trace = SliceTrace::new(&uops);
            SimSession::new(&cfg).run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited())
        };
        let (_, observed) = observed_run(&uops, &cfg, 100, true);
        assert_eq!(unobserved, observed);
    }

    #[test]
    fn observer_survives_reset_and_rearms() {
        let uops = idle_heavy_uops(15);
        let cfg = MachineConfig::default();
        let handle = Shared::new(MemSink::<SimStats>::new());
        let mut session = SimSession::new(&cfg);
        session.attach_observer(200, Box::new(handle.clone()));
        assert!(session.has_observer());

        let mut trace = SliceTrace::new(&uops);
        let first = session.simulate(
            &cfg,
            &mut trace,
            &mut RoundRobin(0),
            &RunLimits::unlimited(),
        );
        let first_sum = handle.with(|sink| sum_intervals(sink));
        assert_eq!(first_sum, first);

        handle.with(|s| *s = MemSink::new());
        let mut trace = SliceTrace::new(&uops);
        let second = session.simulate(
            &cfg,
            &mut trace,
            &mut RoundRobin(0),
            &RunLimits::unlimited(),
        );
        assert_eq!(second, first, "reused observed session stays bit-identical");
        handle.with(|sink| {
            assert_eq!(sum_intervals(sink), second, "re-armed intervals sum");
            assert_eq!(sink.intervals[0].start_cycle, 0, "index restarts at 0");
            assert_eq!(sink.intervals[0].index, 0);
        });

        session.detach_observer();
        assert!(!session.has_observer());
    }

    #[test]
    fn skip_diag_counts_replicated_cycles() {
        let uops = idle_heavy_uops(30);
        let cfg = MachineConfig::default();
        let run = |skip: bool| {
            let handle = Shared::new(MemSink::<SimStats>::new());
            let mut session = SimSession::new(&cfg);
            session.set_cycle_skipping(skip);
            session.attach_observer(1_000, Box::new(handle.clone()));
            let mut trace = SliceTrace::new(&uops);
            let stats = session.run(&mut trace, &mut RoundRobin(0), &RunLimits::unlimited());
            let spans: Vec<u64> =
                handle.with(|sink| sink.skip_spans.iter().map(|s| s.len).collect());
            (session, stats, spans)
        };
        let (session, stats, spans) = run(true);
        let diag = session.skip_diag();
        assert!(!spans.is_empty(), "chase must skip");
        assert_eq!(
            spans.iter().sum::<u64>(),
            diag.cycles,
            "observer spans sum to the diag"
        );
        assert!(diag.cycles as f64 / stats.cycles as f64 > 0.5);
        let (session, _, spans) = run(false);
        assert!(spans.is_empty());
        assert_eq!(session.skip_diag().cycles, 0);
    }
}
