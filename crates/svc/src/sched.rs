//! Priority scheduler with per-client fairness, quotas and bounded-queue
//! backpressure — the service's job queue, pulled directly by the batch
//! engine's workers through [`JobSource`].
//!
//! Three strict priority levels; within a level, clients are served
//! round-robin (one job per turn), so a client that dumps a thousand jobs
//! cannot starve one that submits a single job at the same priority.
//! Admission is bounded twice: a service-wide queue cap and a per-client
//! quota. Either bound full means [`submit`](Scheduler::submit) returns
//! `Err(BusyReason)` and **nothing is buffered** — the backpressure
//! contract the wire's `Busy` frame exposes.
//!
//! Every queued job carries its submit timestamp; the dequeue records the
//! queue wait into a per-priority [`Log2Hist`]. Per-client cancellation
//! fans out through a [`CancelGroup`]: running jobs observe their
//! client's token at the engine's cooperative checks, queued jobs are
//! drained synchronously and handed back so the server can report them
//! cancelled.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use virtclust_core::{EvalJob, JobSource, SourcedJob};
use virtclust_obs::{Gauge, Log2Hist, SharedCounter};
use virtclust_sim::CancelGroup;

use crate::wire::{BusyReason, Priority, SvcStats};

/// Admission bounds.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Service-wide cap on queued (not yet running) jobs.
    pub queue_cap: usize,
    /// Per-client cap on queued jobs, across all priorities.
    pub client_quota: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            queue_cap: 4096,
            client_quota: 1024,
        }
    }
}

/// One queued job.
struct Entry {
    /// Scheduler-assigned identifier, echoed as the engine's ticket.
    global: u64,
    job: EvalJob,
    deadline: Option<Duration>,
    submitted: Instant,
    priority: Priority,
}

/// A drained (cancelled-before-start) job handed back to the server.
pub struct Drained {
    /// The scheduler-assigned ticket ([`Scheduler::submit`]'s return).
    pub global: u64,
}

#[derive(Default)]
struct Level {
    /// Per-client FIFO queues at this priority.
    queues: HashMap<u64, VecDeque<Entry>>,
    /// Clients with a non-empty queue, in service order; the front client
    /// yields one job, then rotates to the back.
    ring: VecDeque<u64>,
}

#[derive(Default)]
struct State {
    levels: [Level; 3],
    queued_total: usize,
    per_client: HashMap<u64, usize>,
    shutdown: bool,
}

/// Service counters, shared with the server and snapshot into
/// [`SvcStats`].
#[derive(Debug, Default)]
pub struct SvcCounters {
    /// Jobs admitted to the queue.
    pub accepted: SharedCounter,
    /// Submits bounced (queue cap, quota, or shutdown).
    pub rejected: SharedCounter,
    /// Jobs completed with any outcome.
    pub completed: SharedCounter,
    /// Jobs currently running on a worker.
    pub inflight: Gauge,
}

/// The scheduler. [`JobSource::pull`] blocks workers on a condvar until
/// a job arrives or shutdown drains the pool.
pub struct Scheduler {
    config: SchedConfig,
    state: Mutex<State>,
    available: Condvar,
    next_global: AtomicU64,
    /// Per-client cancellation fan-out; per-job tokens come from here.
    pub cancel: CancelGroup,
    /// Shared counters (the server also bumps `completed`/`inflight`).
    pub counters: SvcCounters,
    /// Queue-wait histograms (microseconds), indexed like
    /// [`Priority::ALL`].
    wait: Mutex<[Log2Hist; 3]>,
}

impl Scheduler {
    /// A scheduler with the given bounds.
    pub fn new(config: SchedConfig) -> Self {
        Scheduler {
            config,
            state: Mutex::new(State::default()),
            available: Condvar::new(),
            next_global: AtomicU64::new(1),
            cancel: CancelGroup::new(),
            counters: SvcCounters::default(),
            wait: Mutex::new([Log2Hist::new(), Log2Hist::new(), Log2Hist::new()]),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserve a global ticket ahead of [`submit`](Scheduler::submit), so
    /// the caller can register result routing *before* any worker can
    /// possibly complete the job.
    pub fn reserve(&self) -> u64 {
        self.next_global.fetch_add(1, Ordering::Relaxed)
    }

    /// Admit one job for `client` under a [`reserve`](Scheduler::reserve)d
    /// ticket, or bounce it. On `Err` nothing was buffered (and the
    /// caller should unregister whatever it keyed on `global`).
    pub fn submit(
        &self,
        client: u64,
        global: u64,
        job: EvalJob,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<(), BusyReason> {
        let mut st = self.lock();
        if st.shutdown {
            self.counters.rejected.inc();
            return Err(BusyReason::ShuttingDown);
        }
        if st.queued_total >= self.config.queue_cap {
            self.counters.rejected.inc();
            return Err(BusyReason::QueueFull);
        }
        let mine = st.per_client.get(&client).copied().unwrap_or(0);
        if mine >= self.config.client_quota {
            self.counters.rejected.inc();
            return Err(BusyReason::OverQuota);
        }
        let level = &mut st.levels[priority as usize];
        let queue = level.queues.entry(client).or_default();
        if queue.is_empty() && !level.ring.contains(&client) {
            level.ring.push_back(client);
        }
        queue.push_back(Entry {
            global,
            job,
            deadline,
            submitted: Instant::now(),
            priority,
        });
        st.queued_total += 1;
        *st.per_client.entry(client).or_insert(0) += 1;
        drop(st);
        self.counters.accepted.inc();
        self.available.notify_one();
        Ok(())
    }

    /// Pop the next job under strict priority + client round-robin, or
    /// `None` if every level is empty. Caller holds the lock.
    fn pop(st: &mut State) -> Option<(u64, Entry)> {
        for level in &mut st.levels {
            let Some(&client) = level.ring.front() else {
                continue;
            };
            level.ring.pop_front();
            let queue = level.queues.get_mut(&client)?;
            let entry = queue.pop_front()?;
            if queue.is_empty() {
                level.queues.remove(&client);
            } else {
                level.ring.push_back(client);
            }
            st.queued_total -= 1;
            if let Some(n) = st.per_client.get_mut(&client) {
                *n -= 1;
                if *n == 0 {
                    st.per_client.remove(&client);
                }
            }
            return Some((client, entry));
        }
        None
    }

    /// Close intake and wake every blocked worker. Queued jobs are
    /// drained and returned so the server can report them cancelled;
    /// running jobs keep their tokens and finish (or get cancelled by
    /// their client's token separately).
    pub fn shutdown(&self) -> Vec<Drained> {
        let mut st = self.lock();
        st.shutdown = true;
        let mut drained = Vec::with_capacity(st.queued_total);
        while let Some((_, entry)) = Self::pop(&mut st) {
            drained.push(Drained {
                global: entry.global,
            });
        }
        drop(st);
        self.available.notify_all();
        drained
    }

    /// Cancel everything `client` has in the service: the client's token
    /// fires (running jobs stop at the engine's next cooperative check)
    /// and its queued jobs are drained and returned. The token is then
    /// reset, so the client's *next* submit runs normally.
    pub fn cancel_client(&self, client: u64) -> Vec<Drained> {
        // Fire the token first so a job dequeued concurrently still sees
        // the cancellation.
        self.cancel.cancel(client);
        let mut st = self.lock();
        let mut drained = Vec::new();
        for level in &mut st.levels {
            if let Some(queue) = level.queues.remove(&client) {
                for entry in queue {
                    drained.push(Drained {
                        global: entry.global,
                    });
                }
            }
            level.ring.retain(|&c| c != client);
        }
        st.queued_total -= drained.len();
        st.per_client.remove(&client);
        drop(st);
        self.cancel.remove(client);
        drained
    }

    /// Statistics snapshot for the wire. `queued` is read from the queue
    /// itself, under its lock.
    pub fn stats(&self) -> SvcStats {
        let queued = self.lock().queued_total as u64;
        let wait = self.wait.lock().unwrap_or_else(PoisonError::into_inner);
        SvcStats {
            accepted: self.counters.accepted.get(),
            rejected: self.counters.rejected.get(),
            completed: self.counters.completed.get(),
            inflight: self.counters.inflight.get(),
            queued,
            queue_wait: [0, 1, 2].map(|i| {
                let h: &Log2Hist = &wait[i];
                (h.count(), h.percentile(0.5), h.percentile(0.99))
            }),
        }
    }
}

impl JobSource for Scheduler {
    /// Block until a job is available (returning it with the client's
    /// cancellation token and the per-job deadline attached) or the
    /// scheduler shuts down (`None` — the worker exits).
    fn pull(&self) -> Option<SourcedJob<'_>> {
        let mut st = self.lock();
        loop {
            if let Some((client, entry)) = Self::pop(&mut st) {
                drop(st);
                self.counters.inflight.inc();
                let waited = entry.submitted.elapsed();
                self.wait.lock().unwrap_or_else(PoisonError::into_inner)[entry.priority as usize]
                    .record(waited.as_micros() as u64);
                let mut sourced = SourcedJob::new(entry.global, Cow::Owned(entry.job));
                sourced.token = Some(self.cancel.token(client));
                sourced.deadline = entry.deadline;
                return Some(sourced);
            }
            if st.shutdown {
                return None;
            }
            st = self
                .available
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtclust_core::Configuration;
    use virtclust_workloads::spec2000_points;

    fn job() -> EvalJob {
        EvalJob::Point {
            point: spec2000_points().remove(0),
            config: Configuration::Op,
            uops: 100,
        }
    }

    fn sched(queue_cap: usize, client_quota: usize) -> Scheduler {
        Scheduler::new(SchedConfig {
            queue_cap,
            client_quota,
        })
    }

    /// Reserve + submit in one go, returning the ticket on admission.
    fn put(s: &Scheduler, client: u64, priority: Priority) -> Result<u64, BusyReason> {
        let global = s.reserve();
        s.submit(client, global, job(), priority, None)
            .map(|()| global)
    }

    #[test]
    fn strict_priority_then_client_round_robin() {
        let s = sched(100, 100);
        // Client 1 floods Normal; client 2 adds one Normal job; client 3
        // adds one High job last.
        let mut order = Vec::new();
        for _ in 0..3 {
            order.push((1, put(&s, 1, Priority::Normal).unwrap()));
        }
        let c2 = put(&s, 2, Priority::Normal).unwrap();
        let c3 = put(&s, 3, Priority::High).unwrap();
        // High first despite arriving last.
        assert_eq!(s.pull().unwrap().ticket, c3);
        // Then Normal alternates clients: 1, 2, 1, 1.
        assert_eq!(s.pull().unwrap().ticket, order[0].1);
        assert_eq!(s.pull().unwrap().ticket, c2);
        assert_eq!(s.pull().unwrap().ticket, order[1].1);
        assert_eq!(s.pull().unwrap().ticket, order[2].1);
    }

    #[test]
    fn bounds_bounce_without_buffering() {
        let s = sched(2, 100);
        put(&s, 1, Priority::Normal).unwrap();
        put(&s, 2, Priority::Normal).unwrap();
        assert_eq!(
            put(&s, 3, Priority::Normal).unwrap_err(),
            BusyReason::QueueFull
        );
        let s = sched(100, 1);
        put(&s, 1, Priority::Normal).unwrap();
        assert_eq!(
            put(&s, 1, Priority::Low).unwrap_err(),
            BusyReason::OverQuota
        );
        // The other client is unaffected by 1's quota.
        put(&s, 2, Priority::Normal).unwrap();
        assert_eq!(s.counters.rejected.get(), 1);
        assert_eq!(s.counters.accepted.get(), 2);
    }

    #[test]
    fn cancel_client_drains_only_that_client() {
        let s = sched(100, 100);
        let a = put(&s, 1, Priority::Normal).unwrap();
        put(&s, 2, Priority::Normal).unwrap();
        put(&s, 1, Priority::Low).unwrap();
        let tok = s.cancel.token(1);
        let drained = s.cancel_client(1);
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().any(|d| d.global == a));
        assert!(tok.is_cancelled());
        // Client 2's job is still there and client 1 can start fresh.
        assert!(s.pull().is_some());
        let b = put(&s, 1, Priority::Normal).unwrap();
        let pulled = s.pull().unwrap();
        assert_eq!(pulled.ticket, b);
        assert!(!pulled.token.as_ref().unwrap().is_cancelled());
    }

    #[test]
    fn shutdown_drains_and_unblocks() {
        let s = sched(100, 100);
        put(&s, 1, Priority::Normal).unwrap();
        put(&s, 1, Priority::High).unwrap();
        std::thread::scope(|scope| {
            let puller = scope.spawn(|| {
                // Drain both, then block until shutdown.
                let mut n = 0;
                while s.pull().is_some() {
                    n += 1;
                }
                n
            });
            while s.stats().queued > 0 {
                std::thread::yield_now();
            }
            // Give the puller a moment to block on the condvar, then close.
            std::thread::sleep(Duration::from_millis(10));
            let drained = s.shutdown();
            assert!(drained.is_empty());
            assert_eq!(puller.join().unwrap(), 2);
        });
        assert_eq!(
            put(&s, 1, Priority::Normal).unwrap_err(),
            BusyReason::ShuttingDown
        );
    }

    #[test]
    fn queue_wait_lands_in_the_right_priority_hist() {
        let s = sched(100, 100);
        put(&s, 1, Priority::High).unwrap();
        put(&s, 1, Priority::Low).unwrap();
        s.pull().unwrap();
        s.pull().unwrap();
        let stats = s.stats();
        assert_eq!(stats.queue_wait[0].0, 1);
        assert_eq!(stats.queue_wait[1].0, 0);
        assert_eq!(stats.queue_wait[2].0, 1);
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.queued, 0);
    }
}
