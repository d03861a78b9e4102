//! Structured campaign progress events.
//!
//! Workers never talk to an observer directly: they send events over an
//! `mpsc` channel and the campaign's coordinating thread replays them into
//! the observer in arrival order. Observers therefore need no internal
//! locking and may hold mutable state (`&mut self` methods).

use crate::campaign::{CampaignStats, RunOutcome, RunRecord};
use crate::metrics::RunTiming;
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
    /// A worker finished a run. The event carries the complete record —
    /// outcome (a contained panic is [`RunOutcome::Crashed`]), oracle
    /// reports, filter flags, injection and step counts — once per
    /// executed run, so observers can feed results back into planning (the
    /// adaptive planner's fingerprint registry) as well as count progress.
    /// Arrival order is scheduling-dependent; observers deriving campaign
    /// inputs from these events must re-merge by key.
    RunFinished {
        /// Index of the run in campaign (key) order.
        index: usize,
        /// The worker that executed it.
        worker: usize,
        /// The finished run's record.
        record: &'a RunRecord,
        /// Host-time breakdown for the run (scheduling-dependent).
        timing: &'a RunTiming,
    },
    /// All runs finished; `stats` is the final aggregate.
    Finished {
        /// Final campaign statistics.
        stats: &'a CampaignStats,
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
/// count* rather than per-event: auto-scaled ([`StderrProgress::new`]
/// with 0, the default), about twenty progress lines per campaign,
/// whatever its size. Crashed runs are only counted and folded into the
/// periodic line and the final summary.
#[derive(Debug)]
pub struct StderrProgress {
    every: usize,
    completed: usize,
    reports: usize,
    crashed: usize,
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
            EngineEvent::RunFinished { record, .. } => {
                let key = &record.key;
                self.completed += 1;
                self.reports += record.reports.len();
                if self.completed.is_multiple_of(self.every.max(1)) {
                    let mut notes = String::new();
                    if self.crashed > 0 {
                        notes.push_str(&format!(", {} crashed", self.crashed));
                    }
                    eprintln!(
                        "[engine] {} runs done ({} report(s){}) — last: {} @ {} K={}",
                        self.completed, self.reports, notes, key.test, key.site, key.k
                    );
                }
                // Counted after the line: its crash note covers the runs
                // before this one.
                if matches!(record.outcome, RunOutcome::Crashed { .. }) {
                    self.crashed += 1;
                }
            }
            EngineEvent::Finished { stats, .. } => {
                eprintln!(
                    "[engine] done: {} runs ({} resumed), {} failed, {} crashed, {} report(s), {} injections, {} ms wall",
                    stats.runs_total,
                    stats.resumed,
                    stats.failed,
                    stats.crashed,
                    stats.reports,
                    stats.injections,
                    stats.wall_ms
                );
            }
        }
    }
}

/// A [`RunOutcome`]'s stable kind string — the vocabulary shared by the
/// journal, trace run spans, and the adaptive planner's
/// probe signals (`wasabi-core` builds `ProbeSignal`s from `RunFinished`
/// events with it).
pub fn outcome_kind(outcome: &RunOutcome) -> &'static str {
    use wasabi_vm::trace::TestOutcome;
    match outcome {
        RunOutcome::Crashed { .. } => "crashed",
        RunOutcome::Completed(TestOutcome::Passed) => "passed",
        RunOutcome::Completed(TestOutcome::AssertionFailed { .. }) => "assertion_failed",
        RunOutcome::Completed(TestOutcome::ExceptionEscaped { .. }) => "exception_escaped",
        RunOutcome::Completed(TestOutcome::Timeout { .. }) => "timeout",
        RunOutcome::Completed(TestOutcome::FuelExhausted) => "fuel_exhausted",
        RunOutcome::Completed(TestOutcome::VmFault { .. }) => "vm_fault",
    }
}

/// Fans one event stream out to two observers, so a caller can have both
/// progress lines and a metrics recorder without writing a combinator.
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
