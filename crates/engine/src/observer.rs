//! Structured campaign progress events.
//!
//! Workers never talk to an observer directly: they send events over an
//! `mpsc` channel and the campaign's coordinating thread replays them into
//! the observer in arrival order. Observers therefore need no internal
//! locking and may hold mutable state (`&mut self` methods).

use crate::campaign::{CampaignStats, RunOutcome};
use crate::metrics::{CampaignMetrics, RunTiming};
use wasabi_planner::plan::RunKey;

/// One progress event from a running campaign.
#[derive(Debug)]
pub enum EngineEvent<'a> {
    /// A named pipeline phase began (restore/profile/plan/run/report;
    /// emitters outside the campaign — compile, say — may add their own
    /// names). Emitted by `wasabi-core`'s dynamic pipeline, not by
    /// `run_campaign` itself.
    PhaseStarted {
        /// Phase name.
        name: &'a str,
    },
    /// The matching phase ended. Observers that track time (the metrics
    /// recorder) timestamp both edges through their own clock.
    PhaseFinished {
        /// Phase name.
        name: &'a str,
    },
    /// A step inside the open phase began. Its name is `<phase>.<step>`
    /// (the profile phase has `profile.prefilter` and
    /// `profile.baseline-exec`). Trace recorders nest steps under their
    /// phase; a flat per-phase breakdown ignores them, so no time is
    /// counted twice.
    StepStarted {
        /// Step name, `<phase>.<step>`.
        name: &'a str,
    },
    /// The matching step ended.
    StepFinished {
        /// Step name, `<phase>.<step>`.
        name: &'a str,
    },
    /// The campaign is about to execute `total_runs` runs on `jobs` workers.
    Started {
        /// Number of runs in the campaign.
        total_runs: usize,
        /// Worker count.
        jobs: usize,
        /// Runs prefilled from a resume journal (skipped, not executed).
        resumed: usize,
    },
    /// A worker picked up a run.
    RunStarted {
        /// Index of the run in campaign (key) order.
        index: usize,
        /// The run's identity.
        key: &'a RunKey,
        /// The worker executing it.
        worker: usize,
    },
    /// An attempt crashed or timed out and the retry policy scheduled
    /// another one.
    RunRetried {
        /// Index of the run in campaign (key) order.
        index: usize,
        /// The run's identity.
        key: &'a RunKey,
        /// The worker executing it.
        worker: usize,
        /// The attempt that just failed (1-based).
        attempt: u8,
        /// Backoff delay before the next attempt, in milliseconds.
        delay_ms: u64,
    },
    /// A worker finished a run.
    RunFinished {
        /// Index of the run in campaign (key) order.
        index: usize,
        /// The run's identity.
        key: &'a RunKey,
        /// The worker that executed it.
        worker: usize,
        /// How the run ended.
        outcome: &'a RunOutcome,
        /// Number of faults injected during the run.
        injections: u32,
        /// Number of oracle reports the run produced.
        reports: usize,
        /// Attempts consumed (1 = no retries).
        attempts: u8,
        /// Interpreter steps the run consumed.
        steps: u64,
        /// Host-time breakdown for the run (scheduling-dependent).
        timing: &'a RunTiming,
    },
    /// A run's final attempt panicked; the panic was contained and the run
    /// recorded as [`RunOutcome::Crashed`]. Always paired with a
    /// `RunFinished` for the same index.
    RunCrashed {
        /// Index of the run in campaign (key) order.
        index: usize,
        /// The run's identity.
        key: &'a RunKey,
        /// The worker that executed it.
        worker: usize,
        /// The contained panic payload.
        message: &'a str,
    },
    /// A run exhausted the retry policy on a transient failure and was
    /// quarantined (kept in the report, flagged). Paired with
    /// `RunFinished`.
    RunQuarantined {
        /// Index of the run in campaign (key) order.
        index: usize,
        /// The run's identity.
        key: &'a RunKey,
        /// Attempts consumed before giving up.
        attempts: u8,
        /// The final (still-failing) outcome.
        outcome: &'a RunOutcome,
    },
    /// A run's full [`RunRecord`](crate::campaign::RunRecord) was merged
    /// into the campaign, after retries/quarantine resolved and before any
    /// streaming spill. Unlike `RunFinished` (a progress signal), this
    /// event carries the complete record — oracle reports, filter flags,
    /// injection counts — so observers can feed results back into
    /// planning (the adaptive planner's fingerprint registry). Arrival
    /// order is scheduling-dependent; observers deriving campaign inputs
    /// from these events must re-merge by key.
    RunRecorded {
        /// Index of the run in campaign (key) order.
        index: usize,
        /// The completed record.
        record: &'a crate::campaign::RunRecord,
    },
    /// A worker thread died (its run panicked through containment, or the
    /// thread itself was killed); survivors drain its shard.
    WorkerLost {
        /// The dead worker.
        worker: usize,
        /// The run it was executing, if any — re-queued for the survivors.
        requeued: Option<&'a RunKey>,
    },
    /// The journal flushed an epoch marker to disk; `completed` records
    /// are now durable.
    CheckpointWritten {
        /// Records made durable so far this session.
        completed: usize,
    },
    /// All runs finished; `stats` is the final aggregate.
    Finished {
        /// Final campaign statistics.
        stats: &'a CampaignStats,
        /// Merged per-run distributions (see [`CampaignMetrics`] for the
        /// deterministic/timing split).
        metrics: &'a CampaignMetrics,
    },
}

/// Receiver for campaign progress events.
///
/// Events arrive on one thread, in a deterministic order only for
/// `Started`/`Finished`; everything in between interleaves according to
/// real scheduling, so observers must not feed anything derived from their
/// arrival order back into campaign results.
pub trait EngineObserver {
    /// Called for every event.
    fn on_event(&mut self, event: &EngineEvent<'_>);
}

/// Ignores all events: the default for library callers and `--quiet`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl EngineObserver for NullObserver {
    fn on_event(&mut self, _event: &EngineEvent<'_>) {}
}

/// Prints campaign progress to stderr, rate-limited by *completed-run
/// count* rather than per-event: a million-run campaign prints a bounded
/// number of progress lines, not a million. Exceptional events (a lost
/// worker) are printed immediately; per-run noise (timeouts, crashes,
/// retries) is only counted and folded into the periodic line and the
/// final summary.
#[derive(Debug)]
pub struct StderrProgress {
    every: usize,
    completed: usize,
    reports: usize,
    crashed: usize,
    retried: usize,
    quarantined: usize,
}

impl StderrProgress {
    /// Reports every `every`-th completed run. `every == 0` means
    /// auto-scale: pick `total_runs / 20` (≥ 1) when the campaign starts,
    /// so output is ~20 lines regardless of campaign size.
    pub fn new(every: usize) -> Self {
        StderrProgress {
            every,
            completed: 0,
            reports: 0,
            crashed: 0,
            retried: 0,
            quarantined: 0,
        }
    }
}

impl Default for StderrProgress {
    fn default() -> Self {
        StderrProgress::new(0)
    }
}

impl EngineObserver for StderrProgress {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        match event {
            // Phase transitions are the metrics layer's concern; progress
            // output stays per-run.
            EngineEvent::PhaseStarted { .. }
            | EngineEvent::PhaseFinished { .. }
            | EngineEvent::StepStarted { .. }
            | EngineEvent::StepFinished { .. } => {}
            EngineEvent::Started {
                total_runs,
                jobs,
                resumed,
            } => {
                if self.every == 0 {
                    self.every = (*total_runs / 20).max(1);
                }
                let resume_note = if *resumed > 0 {
                    format!(" ({resumed} resumed from journal)")
                } else {
                    String::new()
                };
                eprintln!("[engine] campaign: {total_runs} runs on {jobs} worker(s){resume_note}");
            }
            EngineEvent::RunStarted { .. } => {}
            EngineEvent::RunRecorded { .. } => {}
            EngineEvent::RunRetried { .. } => self.retried += 1,
            EngineEvent::RunCrashed { .. } => self.crashed += 1,
            EngineEvent::RunQuarantined { .. } => self.quarantined += 1,
            EngineEvent::CheckpointWritten { .. } => {}
            EngineEvent::WorkerLost { worker, requeued } => {
                let requeue_note = match requeued {
                    Some(key) => format!("; re-queued {} @ {} K={}", key.test, key.site, key.k),
                    None => String::new(),
                };
                eprintln!("[engine] worker {worker} lost{requeue_note}");
            }
            EngineEvent::RunFinished { key, reports, .. } => {
                self.completed += 1;
                self.reports += reports;
                if self.completed.is_multiple_of(self.every.max(1)) {
                    let mut notes = String::new();
                    if self.crashed > 0 {
                        notes.push_str(&format!(", {} crashed", self.crashed));
                    }
                    if self.retried > 0 {
                        notes.push_str(&format!(", {} retried", self.retried));
                    }
                    if self.quarantined > 0 {
                        notes.push_str(&format!(", {} quarantined", self.quarantined));
                    }
                    eprintln!(
                        "[engine] {} runs done ({} report(s){}) — last: {} @ {} K={}",
                        self.completed, self.reports, notes, key.test, key.site, key.k
                    );
                }
            }
            EngineEvent::Finished { stats, .. } => {
                eprintln!(
                    "[engine] done: {} runs ({} resumed), {} timed out, {} failed, {} crashed, {} retried, {} quarantined, {} worker(s) lost, {} report(s), {} injections, {} ms wall",
                    stats.runs_total,
                    stats.resumed,
                    stats.timed_out,
                    stats.failed,
                    stats.crashed,
                    stats.retried,
                    stats.quarantined,
                    stats.workers_lost,
                    stats.reports,
                    stats.injections,
                    stats.wall_ms
                );
            }
        }
    }
}

/// Collects the final campaign statistics as a JSON document
/// (`wasabi-util`'s writer; no external dependencies). The document
/// carries `schema_version` ([`crate::journal::SCHEMA_VERSION`]) so
/// downstream consumers can detect format changes, and a `quarantine`
/// section listing runs that exhausted the retry policy, sorted by
/// `RunKey` so the document is deterministic regardless of scheduling.
#[cfg(feature = "json-reports")]
#[derive(Debug, Default)]
pub struct JsonSummarySink {
    quarantined: Vec<(RunKey, u8, &'static str)>,
    summary: Option<String>,
}

/// A [`RunOutcome`]'s stable kind string — the vocabulary shared by the
/// journal, the JSON summary, trace run spans, and the adaptive planner's
/// probe signals (`wasabi-core` builds `ProbeSignal`s from `RunRecorded`
/// events with it).
pub fn outcome_kind(outcome: &RunOutcome) -> &'static str {
    use wasabi_vm::trace::TestOutcome;
    match outcome {
        RunOutcome::TimedOut => "timed_out",
        RunOutcome::Crashed { .. } => "crashed",
        RunOutcome::Completed(TestOutcome::Passed) => "passed",
        RunOutcome::Completed(TestOutcome::AssertionFailed { .. }) => "assertion_failed",
        RunOutcome::Completed(TestOutcome::ExceptionEscaped { .. }) => "exception_escaped",
        RunOutcome::Completed(TestOutcome::Timeout { .. }) => "timeout",
        RunOutcome::Completed(TestOutcome::FuelExhausted) => "fuel_exhausted",
        RunOutcome::Completed(TestOutcome::WallClockExceeded) => "wall_clock_exceeded",
        RunOutcome::Completed(TestOutcome::VmFault { .. }) => "vm_fault",
    }
}

#[cfg(feature = "json-reports")]
impl JsonSummarySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        JsonSummarySink::default()
    }

    /// The JSON summary, available once the campaign finished.
    pub fn summary(&self) -> Option<&str> {
        self.summary.as_deref()
    }
}

#[cfg(feature = "json-reports")]
impl EngineObserver for JsonSummarySink {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        use wasabi_util::Json;
        match event {
            EngineEvent::RunQuarantined {
                key,
                attempts,
                outcome,
                ..
            } => {
                self.quarantined
                    .push(((*key).clone(), *attempts, outcome_kind(outcome)));
            }
            EngineEvent::Finished { stats, metrics } => {
                self.quarantined.sort_by(|a, b| a.0.cmp(&b.0));
                let quarantine = Json::arr(self.quarantined.iter().map(|(key, attempts, kind)| {
                    Json::obj([
                        ("test", Json::from(key.test.to_string())),
                        ("site", Json::from(key.site.to_string())),
                        ("exception", Json::from(key.exception.as_str())),
                        ("k", Json::from(key.k)),
                        ("attempts", Json::from(u32::from(*attempts))),
                        ("outcome", Json::from(*kind)),
                    ])
                }));
                let value = Json::obj([
                    ("schema_version", Json::from(crate::journal::SCHEMA_VERSION)),
                    ("runs_total", Json::from(stats.runs_total)),
                    ("completed", Json::from(stats.completed)),
                    ("timed_out", Json::from(stats.timed_out)),
                    ("failed", Json::from(stats.failed)),
                    ("crashed", Json::from(stats.crashed)),
                    ("retried", Json::from(stats.retried)),
                    ("quarantined", Json::from(stats.quarantined)),
                    ("rethrow_filtered", Json::from(stats.rethrow_filtered)),
                    ("not_a_trigger", Json::from(stats.not_a_trigger)),
                    ("reports", Json::from(stats.reports)),
                    ("injections", Json::from(stats.injections as i64)),
                    ("virtual_ms", Json::from(stats.virtual_ms as i64)),
                    ("wall_ms", Json::from(stats.wall_ms as i64)),
                    ("jobs", Json::from(stats.jobs)),
                    (
                        "worker_runs",
                        Json::arr(stats.worker_runs.iter().map(|&n| Json::from(n))),
                    ),
                    ("supervisor_runs", Json::from(stats.supervisor_runs)),
                    ("workers_lost", Json::from(stats.workers_lost)),
                    ("resumed", Json::from(stats.resumed)),
                    ("quarantine", quarantine),
                    ("metrics", metrics.to_json()),
                ]);
                self.summary = Some(value.pretty());
            }
            _ => {}
        }
    }
}

/// Fans one event stream out to two observers, so a caller can have both
/// progress lines and a JSON summary without writing a combinator.
pub struct Tee<'a, 'b> {
    /// First observer.
    pub first: &'a mut dyn EngineObserver,
    /// Second observer.
    pub second: &'b mut dyn EngineObserver,
}

impl EngineObserver for Tee<'_, '_> {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        self.first.on_event(event);
        self.second.on_event(event);
    }
}

/// Fans one event stream out to any number of observers, in registration
/// order. The N-way generalization of [`Tee`] for callers whose observer
/// set is dynamic — the serve daemon attaches one bridge per live
/// subscriber on top of its own progress recorder.
#[derive(Default)]
pub struct FanOut<'a> {
    /// Observers, invoked in order for every event.
    pub observers: Vec<&'a mut dyn EngineObserver>,
}

impl<'a> FanOut<'a> {
    /// A fan-out over `observers`.
    pub fn new(observers: Vec<&'a mut dyn EngineObserver>) -> Self {
        FanOut { observers }
    }
}

impl EngineObserver for FanOut<'_> {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        for observer in self.observers.iter_mut() {
            observer.on_event(event);
        }
    }
}
