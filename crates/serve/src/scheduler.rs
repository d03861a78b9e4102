//! Job scheduling for the serve daemon: per-client priorities, admission
//! control, and queue-wait deadlines.
//!
//! The scheduler is a pure state machine — no threads, no sockets, no
//! clock of its own. Every mutating call takes `now_us` from the caller's
//! [`Clock`](wasabi_util::metrics::Clock), so the whole policy (admission,
//! priority order, timeouts) is unit-testable on a `ManualClock` with
//! zero real sleeps. The daemon wraps one of these in a `Mutex` and feeds
//! it wall-clock readings.
//!
//! Admission control and backpressure: a submission beyond
//! [`SchedulerConfig::max_queued`] is *rejected with a reason* — the
//! daemon turns that into an explicit `Rejected` response instead of
//! buffering without bound. At most [`SchedulerConfig::max_inflight`]
//! jobs run concurrently; the rest wait in priority order.
//!
//! Queue-wait deadlines are exact: a job submitted at `t` with timeout `d`
//! expires on the first [`Scheduler::tick`] at or after `t + d`, if it is
//! still queued then.

use std::collections::{BTreeMap, BTreeSet};

/// Scheduler policy knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum jobs waiting in the queue; submissions beyond it are
    /// rejected (backpressure, never unbounded buffering).
    pub max_queued: usize,
    /// Maximum jobs running concurrently.
    pub max_inflight: usize,
    /// Optional queue-wait deadline: a job still queued this many
    /// microseconds after submission expires (reported to the client as
    /// an error, not silently dropped). The CLI refuses 0, which would
    /// expire every job before a runner could start it.
    pub queue_timeout_us: Option<u64>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_queued: 64,
            max_inflight: 2,
            queue_timeout_us: None,
        }
    }
}

/// Lowest-numbered priority runs first; submissions at equal priority run
/// in arrival order. The protocol default.
pub const DEFAULT_PRIORITY: u8 = 5;
/// Highest accepted priority value (0..=MAX_PRIORITY).
pub const MAX_PRIORITY: u8 = 9;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the priority queue.
    Queued,
    /// Handed to a runner.
    Running,
    /// Finished; the daemon holds its result.
    Done,
    /// Finished with an error (compile failure).
    Failed,
    /// Cancelled by a client before completion.
    Cancelled,
    /// Timed out waiting in the queue.
    Expired,
}

impl JobState {
    /// Stable wire string for status responses.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "expired",
        }
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// The outcome of a submission.
#[derive(Debug)]
pub enum Admission {
    /// Admitted; `position` is the 0-based queue position at admission.
    Queued {
        /// The new job's id.
        id: u64,
        /// Queue position at admission time.
        position: usize,
    },
    /// Refused — the queue is full. The reason is sent verbatim to the
    /// client as a `Rejected` response.
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
    },
}

/// What a cancel request achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// Removed from the queue before running.
    CancelledQueued,
    /// Marked cancelled while running; the runner's result is discarded.
    CancelledRunning,
    /// The job already reached a terminal state.
    AlreadyFinished,
    /// The job was already cancelled (double-cancel).
    AlreadyCancelled,
    /// No such job id.
    Unknown,
}

#[derive(Debug)]
struct JobEntry<T> {
    priority: u8,
    seq: u64,
    state: JobState,
    payload: Option<T>,
}

/// The priority scheduler; generic over the job payload so tests can
/// drive it with plain values.
#[derive(Debug)]
pub struct Scheduler<T> {
    config: SchedulerConfig,
    next_id: u64,
    next_seq: u64,
    /// `(priority, seq) -> id`: BTreeMap order *is* dispatch order.
    queue: BTreeMap<(u8, u64), u64>,
    jobs: BTreeMap<u64, JobEntry<T>>,
    running: usize,
    /// `(deadline_us, id)`: ids grow in submission order, so equal
    /// deadlines expire FIFO.
    deadlines: BTreeSet<(u64, u64)>,
    /// Monotonic counters for the `stats` protocol op.
    pub counters: Counters,
}

/// Scheduler lifetime counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Jobs admitted.
    pub submitted: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Jobs expired by the queue-wait deadline.
    pub expired: u64,
    /// Jobs cancelled (queued or running).
    pub cancelled: u64,
    /// Jobs that reached `Done` or `Failed`.
    pub finished: u64,
}

impl<T> Scheduler<T> {
    /// A scheduler with the given policy.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler {
            config,
            next_id: 1,
            next_seq: 0,
            queue: BTreeMap::new(),
            jobs: BTreeMap::new(),
            running: 0,
            deadlines: BTreeSet::new(),
            counters: Counters::default(),
        }
    }

    /// Jobs currently waiting.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently running.
    pub fn running_len(&self) -> usize {
        self.running
    }

    /// Submits a job at `priority` (clamped to [`MAX_PRIORITY`]).
    /// Rejects with a reason when the queue is full.
    pub fn submit(&mut self, now_us: u64, priority: u8, payload: T) -> Admission {
        if self.queue.len() >= self.config.max_queued {
            self.counters.rejected += 1;
            return Admission::Rejected {
                reason: format!(
                    "queue full: {} queued (max {}), {} running (max {})",
                    self.queue.len(),
                    self.config.max_queued,
                    self.running,
                    self.config.max_inflight
                ),
            };
        }
        let id = self.next_id;
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let priority = priority.min(MAX_PRIORITY);
        let position = self.queue.range(..(priority, seq)).count();
        self.queue.insert((priority, seq), id);
        self.jobs.insert(
            id,
            JobEntry {
                priority,
                seq,
                state: JobState::Queued,
                payload: Some(payload),
            },
        );
        if let Some(timeout) = self.config.queue_timeout_us {
            self.deadlines.insert((now_us.saturating_add(timeout), id));
        }
        self.counters.submitted += 1;
        Admission::Queued { id, position }
    }

    /// Hands the highest-priority queued job to a runner, if the in-flight
    /// cap allows another.
    pub fn start_next(&mut self) -> Option<(u64, T)> {
        if self.running >= self.config.max_inflight {
            return None;
        }
        let (&slot, &id) = self.queue.iter().next()?;
        self.queue.remove(&slot);
        let entry = self.jobs.get_mut(&id).expect("queued job has an entry");
        entry.state = JobState::Running;
        self.running += 1;
        Some((id, entry.payload.take().expect("queued job has a payload")))
    }

    /// Marks a running job finished. `ok` distinguishes `Done` from
    /// `Failed`; a job cancelled while running stays `Cancelled`.
    pub fn finish(&mut self, id: u64, ok: bool) {
        let Some(entry) = self.jobs.get_mut(&id) else {
            return;
        };
        if entry.state == JobState::Running {
            entry.state = if ok { JobState::Done } else { JobState::Failed };
            self.counters.finished += 1;
        }
        self.running = self.running.saturating_sub(1);
    }

    /// Cancels a job; see [`CancelOutcome`] for the exact semantics.
    pub fn cancel(&mut self, id: u64) -> CancelOutcome {
        let Some(entry) = self.jobs.get_mut(&id) else {
            return CancelOutcome::Unknown;
        };
        match entry.state {
            JobState::Queued => {
                let key = (entry.priority, entry.seq);
                entry.state = JobState::Cancelled;
                entry.payload = None;
                self.queue.remove(&key);
                self.counters.cancelled += 1;
                CancelOutcome::CancelledQueued
            }
            JobState::Running => {
                entry.state = JobState::Cancelled;
                self.counters.cancelled += 1;
                CancelOutcome::CancelledRunning
            }
            JobState::Cancelled => CancelOutcome::AlreadyCancelled,
            JobState::Done | JobState::Failed | JobState::Expired => {
                CancelOutcome::AlreadyFinished
            }
        }
    }

    /// Pops every deadline at or before `now_us`, expiring the jobs
    /// still queued. Returns the expired ids.
    pub fn tick(&mut self, now_us: u64) -> Vec<u64> {
        let mut expired = Vec::new();
        while let Some(&(deadline, id)) = self.deadlines.first() {
            if deadline > now_us {
                break;
            }
            self.deadlines.pop_first();
            let Some(entry) = self.jobs.get_mut(&id) else {
                continue;
            };
            if entry.state == JobState::Queued {
                let key = (entry.priority, entry.seq);
                entry.state = JobState::Expired;
                entry.payload = None;
                self.queue.remove(&key);
                self.counters.expired += 1;
                expired.push(id);
            }
        }
        expired
    }

    /// The job's current state, if the id exists.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.jobs.get(&id).map(|e| e.state)
    }

    /// 0-based queue position of a queued job.
    pub fn queue_position(&self, id: u64) -> Option<usize> {
        let entry = self.jobs.get(&id)?;
        if entry.state != JobState::Queued {
            return None;
        }
        let key = (entry.priority, entry.seq);
        Some(self.queue.range(..key).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_util::metrics::{Clock, ManualClock};

    fn sched(max_queued: usize, max_inflight: usize, timeout: Option<u64>) -> Scheduler<&'static str> {
        Scheduler::new(SchedulerConfig {
            max_queued,
            max_inflight,
            queue_timeout_us: timeout,
        })
    }

    fn id_of(admission: Admission) -> u64 {
        match admission {
            Admission::Queued { id, .. } => id,
            Admission::Rejected { reason } => panic!("unexpected rejection: {reason}"),
        }
    }

    #[test]
    fn priority_then_fifo_dispatch_order() {
        let mut s = sched(16, 16, None);
        let low = id_of(s.submit(0, 7, "low"));
        let first_high = id_of(s.submit(0, 2, "h1"));
        let second_high = id_of(s.submit(0, 2, "h2"));
        let urgent = id_of(s.submit(0, 0, "urgent"));
        let order: Vec<u64> = std::iter::from_fn(|| s.start_next().map(|(id, _)| id)).collect();
        assert_eq!(order, vec![urgent, first_high, second_high, low]);
    }

    #[test]
    fn admission_rejects_beyond_max_queued_with_reason() {
        let mut s = sched(2, 1, None);
        id_of(s.submit(0, 5, "a"));
        id_of(s.submit(0, 5, "b"));
        match s.submit(0, 5, "c") {
            Admission::Rejected { reason } => {
                assert!(reason.contains("queue full"), "reason: {reason}");
                assert!(reason.contains("max 2"), "reason: {reason}");
            }
            Admission::Queued { .. } => panic!("third submission must be rejected"),
        }
        assert_eq!(s.counters.rejected, 1);
        // Draining one slot re-opens admission.
        assert!(s.start_next().is_some());
        assert!(matches!(s.submit(0, 5, "c"), Admission::Queued { .. }));
    }

    #[test]
    fn max_inflight_caps_concurrency() {
        let mut s = sched(16, 2, None);
        let a = id_of(s.submit(0, 5, "a"));
        id_of(s.submit(0, 5, "b"));
        id_of(s.submit(0, 5, "c"));
        assert!(s.start_next().is_some());
        assert!(s.start_next().is_some());
        assert!(s.start_next().is_none(), "cap of 2 holds the third back");
        s.finish(a, true);
        assert!(s.start_next().is_some(), "finishing frees a slot");
        assert_eq!(s.state(a), Some(JobState::Done));
    }

    #[test]
    fn queue_timeout_expires_only_still_queued_jobs() {
        let clock = ManualClock::with_step(0);
        let mut s = sched(16, 1, Some(50_000));
        let started = id_of(s.submit(clock.now_us(), 5, "started"));
        let waiting = id_of(s.submit(clock.now_us(), 5, "waiting"));
        let (id, _) = s.start_next().expect("one slot free");
        assert_eq!(id, started);
        // Same deadline, higher priority: expiry still follows submission.
        let urgent = id_of(s.submit(clock.now_us(), 0, "urgent"));
        clock.advance(49_999);
        assert!(
            s.tick(clock.now_us()).is_empty(),
            "1 us early expires nothing"
        );
        assert_eq!(s.state(waiting), Some(JobState::Queued));
        clock.advance(1);
        let expired = s.tick(clock.now_us());
        assert_eq!(expired, vec![waiting, urgent], "only queued jobs expire, FIFO");
        assert_eq!(s.state(waiting), Some(JobState::Expired));
        assert_eq!(s.state(started), Some(JobState::Running));
        assert_eq!(s.counters.expired, 2);
        assert!(s.start_next().is_none(), "expired job never dispatches");
    }

    #[test]
    fn cancel_semantics_including_double_cancel() {
        let mut s = sched(16, 1, None);
        let running = id_of(s.submit(0, 5, "running"));
        let queued = id_of(s.submit(0, 5, "queued"));
        s.start_next();
        assert_eq!(s.cancel(queued), CancelOutcome::CancelledQueued);
        assert_eq!(s.cancel(queued), CancelOutcome::AlreadyCancelled);
        assert_eq!(s.cancel(running), CancelOutcome::CancelledRunning);
        assert_eq!(s.cancel(running), CancelOutcome::AlreadyCancelled);
        // The runner eventually reports back; the job stays cancelled.
        s.finish(running, true);
        assert_eq!(s.state(running), Some(JobState::Cancelled));
        assert_eq!(s.cancel(999), CancelOutcome::Unknown);
        let done = id_of(s.submit(0, 5, "done"));
        s.start_next();
        s.finish(done, true);
        assert_eq!(s.cancel(done), CancelOutcome::AlreadyFinished);
        assert_eq!(s.counters.cancelled, 2);
        // The scheduler is not poisoned: submissions still flow.
        let next = id_of(s.submit(0, 5, "next"));
        assert_eq!(s.start_next().map(|(id, _)| id), Some(next));
    }

    #[test]
    fn queue_position_reflects_priority_order() {
        let mut s = sched(16, 1, None);
        let low = id_of(s.submit(0, 8, "low"));
        assert_eq!(s.queue_position(low), Some(0));
        let high = id_of(s.submit(0, 1, "high"));
        assert_eq!(s.queue_position(high), Some(0), "jumps the queue");
        assert_eq!(s.queue_position(low), Some(1));
    }
}
