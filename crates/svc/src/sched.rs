//! Priority scheduler with per-client fairness, quotas and bounded-queue
//! backpressure — the service's job queue and its books, pulled directly
//! by the batch engine's workers through [`JobSource`].
//!
//! Three strict priority levels; within a level, clients are served
//! round-robin (one job per turn), so a client that dumps a thousand jobs
//! cannot starve one that submits a single job at the same priority.
//! Admission is bounded twice: a service-wide queue cap and a per-client
//! quota. Either bound full means [`submit`](Scheduler::submit) returns
//! `Err(BusyReason)` and **nothing is buffered** — the backpressure
//! contract the wire's `Busy` frame exposes.
//!
//! The scheduler keeps each job's books from admission to result under
//! one mutex. [`submit`](Scheduler::submit) assigns the job's ticket and
//! queues it with its result route `R` and the [`CancelToken`] it was
//! submitted with; [`pull`](JobSource::pull) records the queue wait into
//! a per-priority [`Log2Hist`], moves the route to the running set and
//! hands the token to the engine; [`finish`](Scheduler::finish),
//! [`cancel_client`](Scheduler::cancel_client) and
//! [`shutdown`](Scheduler::shutdown) hand routes back and count those jobs
//! completed in the same critical section. So every
//! [`stats`](Scheduler::stats) snapshot adds up: `accepted = completed +
//! inflight + queued`.
//!
//! Cancellation belongs to the submitter: cancelling the token a job was
//! submitted with stops it at the engine's next cooperative check if it
//! runs, or resolves it without running if a worker already dequeued it;
//! [`cancel_client`](Scheduler::cancel_client) drains what the client
//! still has queued.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use virtclust_core::{EvalJob, JobSource, SourcedJob};
use virtclust_obs::Log2Hist;
use virtclust_sim::CancelToken;

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
struct Entry<R> {
    /// Scheduler-assigned identifier, echoed as the engine's ticket.
    ticket: u64,
    job: EvalJob,
    token: CancelToken,
    deadline: Option<Duration>,
    submitted: Instant,
    route: R,
}

struct Level<R> {
    /// Per-client FIFO queues at this priority; none is empty.
    queues: HashMap<u64, VecDeque<Entry<R>>>,
    /// The clients with a queue, in service order; the front client
    /// yields one job, then rotates to the back.
    ring: VecDeque<u64>,
}

/// Everything the scheduler knows, under its one mutex.
struct State<R> {
    levels: [Level<R>; 3],
    /// Routes of the jobs workers have pulled and not finished, by ticket.
    running: HashMap<u64, R>,
    next_ticket: u64,
    /// Jobs admitted to the queue.
    accepted: u64,
    /// Submits bounced (queue cap, quota, or shutdown).
    rejected: u64,
    /// Jobs finished or drained, with any outcome.
    completed: u64,
    /// Entries across every level's queues.
    queued: usize,
    /// Queue-wait histograms (microseconds), indexed like
    /// [`Priority::ALL`].
    wait: [Log2Hist; 3],
    shutdown: bool,
}

impl<R> State<R> {
    /// Pop the next job under strict priority + client round-robin, with
    /// its level, or `None` if every level is empty.
    fn pop(&mut self) -> Option<(usize, Entry<R>)> {
        for (i, level) in self.levels.iter_mut().enumerate() {
            let Some(client) = level.ring.pop_front() else {
                continue;
            };
            let queue = level.queues.get_mut(&client)?;
            let entry = queue.pop_front()?;
            if queue.is_empty() {
                level.queues.remove(&client);
            } else {
                level.ring.push_back(client);
            }
            self.queued -= 1;
            return Some((i, entry));
        }
        None
    }
}

/// The scheduler, generic over a job's result route `R`.
/// [`JobSource::pull`] blocks workers on a condvar until a job arrives or
/// shutdown drains the pool.
pub struct Scheduler<R> {
    config: SchedConfig,
    state: Mutex<State<R>>,
    available: Condvar,
}

impl<R> Scheduler<R> {
    /// A scheduler with the given bounds.
    pub fn new(config: SchedConfig) -> Self {
        let level = || Level {
            queues: HashMap::new(),
            ring: VecDeque::new(),
        };
        Scheduler {
            config,
            state: Mutex::new(State {
                levels: [level(), level(), level()],
                running: HashMap::new(),
                next_ticket: 1,
                accepted: 0,
                rejected: 0,
                completed: 0,
                queued: 0,
                wait: [Log2Hist::new(), Log2Hist::new(), Log2Hist::new()],
                shutdown: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Every critical section leaves the books whole, so a poisoned lock
    /// is still sound.
    fn lock(&self) -> MutexGuard<'_, State<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit one job for `client`, with the token that cancels it and the
    /// route its result takes, and return its ticket; or bounce it, and
    /// nothing is buffered.
    pub fn submit(
        &self,
        client: u64,
        job: EvalJob,
        priority: Priority,
        deadline: Option<Duration>,
        token: CancelToken,
        route: R,
    ) -> Result<u64, BusyReason> {
        let mut st = self.lock();
        let mine: usize = st
            .levels
            .iter()
            .map(|level| level.queues.get(&client).map_or(0, VecDeque::len))
            .sum();
        let bounce = if st.shutdown {
            Some(BusyReason::ShuttingDown)
        } else if st.queued >= self.config.queue_cap {
            Some(BusyReason::QueueFull)
        } else if mine >= self.config.client_quota {
            Some(BusyReason::OverQuota)
        } else {
            None
        };
        if let Some(reason) = bounce {
            st.rejected += 1;
            return Err(reason);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.accepted += 1;
        st.queued += 1;
        let level = &mut st.levels[priority as usize];
        let queue = level.queues.entry(client).or_default();
        if queue.is_empty() {
            level.ring.push_back(client);
        }
        queue.push_back(Entry {
            ticket,
            job,
            token,
            deadline,
            submitted: Instant::now(),
            route,
        });
        drop(st);
        self.available.notify_one();
        Ok(ticket)
    }

    /// A pulled job is done: hand back its route and count it completed.
    /// `None` if `ticket` is not running.
    pub fn finish(&self, ticket: u64) -> Option<R> {
        let mut st = self.lock();
        let route = st.running.remove(&ticket)?;
        st.completed += 1;
        Some(route)
    }

    /// Close intake and wake every blocked worker. The queued jobs are
    /// drained, counted completed, and their routes returned so the
    /// caller can report them cancelled; running jobs finish.
    pub fn shutdown(&self) -> Vec<R> {
        let mut st = self.lock();
        st.shutdown = true;
        let mut drained = Vec::with_capacity(st.queued);
        while let Some((_, entry)) = st.pop() {
            drained.push(entry.route);
        }
        st.completed += drained.len() as u64;
        drop(st);
        self.available.notify_all();
        drained
    }

    /// Drain `client`'s queued jobs, count them completed, and return
    /// their routes so the caller can report them cancelled. Its running
    /// jobs are stopped by the token they were submitted with, which is
    /// the caller's to cancel.
    pub fn cancel_client(&self, client: u64) -> Vec<R> {
        let mut st = self.lock();
        let mut drained = Vec::new();
        for level in &mut st.levels {
            if let Some(queue) = level.queues.remove(&client) {
                level.ring.retain(|&c| c != client);
                drained.extend(queue.into_iter().map(|entry| entry.route));
            }
        }
        st.queued -= drained.len();
        st.completed += drained.len() as u64;
        drained
    }

    /// Statistics snapshot for the wire, taken under the one lock.
    pub fn stats(&self) -> SvcStats {
        let st = self.lock();
        SvcStats {
            accepted: st.accepted,
            rejected: st.rejected,
            completed: st.completed,
            inflight: st.running.len() as u64,
            queued: st.queued as u64,
            queue_wait: st
                .wait
                .each_ref()
                .map(|h| (h.count(), h.percentile(0.5), h.percentile(0.99))),
        }
    }
}

impl<R: Send> JobSource for Scheduler<R> {
    /// Block until a job is available (returning it with its token and
    /// deadline, its route moved to the running set) or the scheduler
    /// shuts down (`None` — the worker exits).
    fn pull(&self) -> Option<SourcedJob<'_>> {
        let mut st = self.lock();
        loop {
            if let Some((level, entry)) = st.pop() {
                st.wait[level].record(entry.submitted.elapsed().as_micros() as u64);
                st.running.insert(entry.ticket, entry.route);
                return Some(SourcedJob {
                    ticket: entry.ticket,
                    job: Cow::Owned(entry.job),
                    token: Some(entry.token),
                    deadline: entry.deadline,
                });
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

    /// A scheduler whose routes are plain labels.
    fn sched(queue_cap: usize, client_quota: usize) -> Scheduler<&'static str> {
        Scheduler::new(SchedConfig {
            queue_cap,
            client_quota,
        })
    }

    /// Submit one job for `client` under a fresh token, returning its
    /// ticket on admission.
    fn put(
        s: &Scheduler<&'static str>,
        client: u64,
        priority: Priority,
    ) -> Result<u64, BusyReason> {
        s.submit(client, job(), priority, None, CancelToken::new(), "")
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
        let first = put(&s, 1, Priority::Normal).unwrap();
        assert_eq!(
            put(&s, 1, Priority::Low).unwrap_err(),
            BusyReason::OverQuota
        );
        // The other client is unaffected by 1's quota, and a bounce takes
        // no ticket.
        assert_eq!(put(&s, 2, Priority::Normal).unwrap(), first + 1);
        let stats = s.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.queued, 2);
    }

    #[test]
    fn cancel_client_drains_only_that_client() {
        let s = sched(100, 100);
        let token = CancelToken::new();
        s.submit(1, job(), Priority::Normal, None, token.clone(), "a")
            .unwrap();
        let b = s
            .submit(2, job(), Priority::Normal, None, CancelToken::new(), "b")
            .unwrap();
        s.submit(1, job(), Priority::Low, None, token.clone(), "c")
            .unwrap();
        assert_eq!(s.cancel_client(1), ["a", "c"]);
        assert!(s.cancel_client(1).is_empty(), "drained once");
        // Client 2's job is still there, with the token it was submitted
        // with.
        let pulled = s.pull().unwrap();
        assert_eq!(pulled.ticket, b);
        assert!(!pulled.token.as_ref().unwrap().is_cancelled());
        // Client 1 can submit again; its job carries the submitted token.
        let fresh = CancelToken::new();
        let d = s
            .submit(1, job(), Priority::Normal, None, fresh.clone(), "d")
            .unwrap();
        let pulled = s.pull().unwrap();
        assert_eq!(pulled.ticket, d);
        fresh.cancel();
        assert!(pulled.token.as_ref().unwrap().is_cancelled());
    }

    #[test]
    fn routes_ride_with_their_jobs_and_come_back_once() {
        let s = sched(100, 100);
        let a = s
            .submit(1, job(), Priority::Normal, None, CancelToken::new(), "a")
            .unwrap();
        let b = s
            .submit(2, job(), Priority::Normal, None, CancelToken::new(), "b")
            .unwrap();
        assert_eq!(b, a + 1, "tickets are assigned at admission");
        assert_eq!(s.pull().unwrap().ticket, a);
        assert_eq!(s.stats().inflight, 1);
        assert_eq!(s.finish(b), None, "a queued job is not running");
        assert_eq!(s.finish(a), Some("a"));
        assert_eq!(s.finish(a), None, "a route comes back once");
        s.submit(1, job(), Priority::Low, None, CancelToken::new(), "c")
            .unwrap();
        assert_eq!(s.cancel_client(1), ["c"]);
        let stats = s.stats();
        assert_eq!(
            (
                stats.accepted,
                stats.completed,
                stats.inflight,
                stats.queued
            ),
            (3, 2, 0, 1),
            "drained jobs count completed"
        );
        s.submit(3, job(), Priority::High, None, CancelToken::new(), "d")
            .unwrap();
        assert_eq!(s.shutdown(), ["d", "b"]);
        assert_eq!(s.finish(b), None, "a drained job never ran");
        let stats = s.stats();
        assert_eq!(
            (
                stats.accepted,
                stats.completed,
                stats.inflight,
                stats.queued
            ),
            (4, 4, 0, 0)
        );
    }

    #[test]
    fn every_stats_snapshot_adds_up() {
        const SUBMITS: u64 = 200_000;
        let s = Scheduler::new(SchedConfig {
            queue_cap: 1_000,
            client_quota: 1_000,
        });
        let one = job();
        let give_up = Instant::now() + Duration::from_secs(120);
        let (snapshots, off) = std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..SUBMITS {
                    let priority = Priority::ALL[i as usize % 3];
                    let _ = s.submit(i % 4, one.clone(), priority, None, CancelToken::new(), i);
                }
            });
            scope.spawn(|| {
                while let Some(sourced) = s.pull() {
                    assert!(s.finish(sourced.ticket).is_some());
                }
            });
            // Snapshot until every submit is accounted and the pool has
            // drained, then shut down, so a failure cannot leave the
            // puller blocked.
            let (mut snapshots, mut off) = (0u64, None);
            loop {
                let st = s.stats();
                snapshots += 1;
                if st.accepted != st.completed + st.inflight + st.queued {
                    off.get_or_insert(st.clone());
                }
                let drained = st.accepted + st.rejected == SUBMITS && st.completed == st.accepted;
                if drained || Instant::now() > give_up {
                    break;
                }
            }
            assert!(s.shutdown().is_empty());
            (snapshots, off)
        });
        assert_eq!(off, None, "off books among {snapshots} snapshots");
        let st = s.stats();
        assert_eq!(st.accepted + st.rejected, SUBMITS);
        assert_eq!(st.completed, st.accepted);
        assert_eq!(
            st.queue_wait.iter().map(|w| w.0).sum::<u64>(),
            st.accepted,
            "every dequeue recorded its wait"
        );
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
