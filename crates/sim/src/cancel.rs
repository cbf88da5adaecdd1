//! Cooperative cancellation and wall-clock deadlines for simulation runs.
//!
//! A [`CancelToken`] is a cloneable handle around one shared atomic flag:
//! any holder can [`cancel`](CancelToken::cancel) it, and a session that
//! was given the token via [`crate::SimSession::set_interrupt`] observes
//! the flag cooperatively inside its run loop and stops at the next check.
//! Checks are batched — one relaxed atomic load (plus one `Instant::now()`
//! when a deadline is set) every [`CHECK_INTERVAL_CYCLES`] simulated
//! cycles, and once per skipped idle span (a span crosses the check
//! boundary in a single step) — so the fault-free hot path pays a single
//! `Option` branch per step and statistics stay bit-identical whether an
//! interrupt source is configured or not: interruption only decides *when*
//! the run loop exits, never what any cycle computes.
//!
//! The batch engine (`virtclust-core`) builds per-job deadlines and
//! cancellation on top: a job whose token is cancelled before it starts
//! resolves without running, a running job stops at its next check, and
//! the interrupted session [`reset`](crate::SimSession::reset)s cleanly for
//! subsequent jobs — an interrupted run leaves the session dirty exactly
//! like a completed one does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many simulated cycles pass between interrupt checks in the run
/// loop. Skipped idle spans advance the cycle counter past the boundary in
/// one step, so an idle session still observes cancellation once per span.
pub const CHECK_INTERVAL_CYCLES: u64 = 1024;

/// A cloneable cancellation flag shared between a controller and any
/// number of simulation sessions. Cancelling is one-way and sticky: once
/// set, every holder observes it until the token is dropped.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Sessions holding this token stop at their
    /// next cooperative check (within [`CHECK_INTERVAL_CYCLES`] simulated
    /// cycles, or at the end of the current skipped span).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested. One relaxed atomic load.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a run stopped before its trace drained or its [`crate::RunLimits`]
/// triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The session's [`CancelToken`] was cancelled.
    Cancelled,
    /// The session's wall-clock deadline passed.
    DeadlineExceeded,
}

impl std::fmt::Display for StopCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopCause::Cancelled => write!(f, "cancelled"),
            StopCause::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// The session-side interrupt configuration: an optional token, an
/// optional wall-clock deadline, and the bookkeeping for batched checks.
/// Owned by `SimSession`; survives `reset` (re-armed like the observer)
/// so one configuration covers a `simulate` call that resets internally.
#[derive(Debug, Clone)]
pub(crate) struct InterruptState {
    pub token: Option<CancelToken>,
    pub deadline: Option<Instant>,
    /// Next cycle at which to poll the interrupt sources.
    pub next_check: u64,
    /// Set when a source fired; the run loop exits and the cause stays
    /// readable until the next reset or reconfiguration.
    pub stopped: Option<StopCause>,
}

impl InterruptState {
    pub fn new(token: Option<CancelToken>, deadline: Option<Instant>) -> Self {
        InterruptState {
            token,
            deadline,
            next_check: CHECK_INTERVAL_CYCLES,
            stopped: None,
        }
    }

    /// Re-arm for a new run (keeps the configured sources).
    pub fn rearm(&mut self) {
        self.next_check = CHECK_INTERVAL_CYCLES;
        self.stopped = None;
    }

    /// Upper bound on how many cycles a single idle-span skip may advance
    /// the session past `now` without overshooting the next interrupt
    /// check. Without this clamp a skipped span can jump `now` tens of
    /// thousands of cycles in one step, and because [`poll`] only fires at
    /// `next_check`, an armed deadline or cancel would be observed
    /// arbitrarily late in simulated-cycle terms. Splitting a span is
    /// bit-identical (counter replication is linear in span length), so
    /// clamping costs nothing but an extra skip iteration. Always at
    /// least 1 so a skip can make progress even when a check is due.
    #[inline]
    pub fn max_skip(&self, now: u64) -> u64 {
        self.next_check.saturating_sub(now).max(1)
    }

    /// Poll the sources; returns the cause if one fired. `now` is the
    /// session's current cycle, used to schedule the next check.
    #[inline]
    pub fn poll(&mut self, now: u64) -> Option<StopCause> {
        if now < self.next_check {
            return None;
        }
        self.next_check = now + CHECK_INTERVAL_CYCLES;
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                self.stopped = Some(StopCause::Cancelled);
                return self.stopped;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.stopped = Some(StopCause::DeadlineExceeded);
                return self.stopped;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_sticky_and_shared() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        assert!(!b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled(), "cancellation is visible to every clone");
        assert!(b.is_cancelled());
    }

    #[test]
    fn poll_batches_checks_by_cycle_interval() {
        let token = CancelToken::new();
        let mut st = InterruptState::new(Some(token.clone()), None);
        token.cancel();
        // Below the first boundary nothing is polled at all.
        assert_eq!(st.poll(CHECK_INTERVAL_CYCLES - 1), None);
        assert_eq!(st.poll(CHECK_INTERVAL_CYCLES), Some(StopCause::Cancelled));
        assert_eq!(st.stopped, Some(StopCause::Cancelled));
    }

    #[test]
    fn deadline_in_the_past_fires_at_first_check() {
        let mut st = InterruptState::new(None, Some(Instant::now()));
        assert_eq!(
            st.poll(CHECK_INTERVAL_CYCLES),
            Some(StopCause::DeadlineExceeded)
        );
    }

    #[test]
    fn max_skip_clamps_spans_at_the_next_check() {
        let st = InterruptState::new(Some(CancelToken::new()), None);
        // From cycle 0 a span may run right up to the first boundary…
        assert_eq!(st.max_skip(0), CHECK_INTERVAL_CYCLES);
        assert_eq!(st.max_skip(CHECK_INTERVAL_CYCLES - 1), 1);
        // …and once a check is due (or overdue) progress is still allowed
        // one cycle at a time so poll() can fire.
        assert_eq!(st.max_skip(CHECK_INTERVAL_CYCLES), 1);
        assert_eq!(st.max_skip(CHECK_INTERVAL_CYCLES * 10), 1);
    }

    #[test]
    fn rearm_clears_the_cause_but_keeps_the_sources() {
        let token = CancelToken::new();
        token.cancel();
        let mut st = InterruptState::new(Some(token), None);
        assert!(st.poll(CHECK_INTERVAL_CYCLES).is_some());
        st.rearm();
        assert_eq!(st.stopped, None);
        assert_eq!(
            st.poll(CHECK_INTERVAL_CYCLES),
            Some(StopCause::Cancelled),
            "sources survive the rearm"
        );
    }
}
