//! Campaign metrics: per-run timing, mergeable histograms, and an
//! [`EngineObserver`] that turns the event stream into spans.
//!
//! # Determinism split
//!
//! The metrics in a [`CampaignMetrics`] come in two halves with different
//! guarantees:
//!
//! - the **deterministic half** (`steps`, `injections`, `attempts`,
//!   `virtual_ms`, `backoff_ms`) is computed at campaign end as a pure
//!   function of the merged record vector (plus the retry policy, whose
//!   backoff is itself a pure function of `(key, attempt)`). It is
//!   byte-identical for any `jobs` value and covers resumed records too;
//! - the **timing half** (`queue_wait_us`, `run_wall_us`, `interp_us`,
//!   `judge_us`) measures host wall time. Each worker's samples accumulate
//!   in its own [`WorkerTimings`] (no locks — the coordinator owns them
//!   and fills them from the serialized message stream), merged in worker
//!   index order at campaign end. Values are scheduling-dependent; only
//!   the *sample count* is deterministic, and resumed records contribute
//!   nothing (no host time was spent on them this session).

use crate::campaign::{retry_delay, CampaignStats, RunRecord};
use crate::observer::{outcome_kind, EngineEvent, EngineObserver};
use crate::spans::{PhaseSpan, RunSpan};
use std::collections::HashMap;
use wasabi_util::backoff::Policy;
use wasabi_util::metrics::{Clock, WallClock};
use wasabi_util::{saturating_ms, Histogram};

/// Host-time measurements for one run (summed over all its attempts).
/// Carried alongside the record in `RunFinished` events; never part of
/// the record itself (it is scheduling-dependent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunTiming {
    /// Campaign-relative time at which a worker claimed this run, in
    /// microseconds — how long the run sat behind others in key order.
    pub queue_wait_us: u64,
    /// Wall time of the whole run: every attempt plus backoff sleeps.
    pub run_wall_us: u64,
    /// Interpreter wall time, summed over attempts.
    pub interp_us: u64,
    /// Oracle-judgement wall time, summed over attempts.
    pub judge_us: u64,
    /// Backoff sleep issued between attempts, in milliseconds. Unlike the
    /// other fields this one is *deterministic* (the policy's jitter is
    /// seeded on the run key).
    pub backoff_ms: u64,
}

/// One worker's timing histograms. Owned by the campaign coordinator —
/// one per worker — and merged into [`CampaignMetrics`] in worker index
/// order when the campaign finishes.
#[derive(Debug, Clone, Default)]
pub struct WorkerTimings {
    /// Queue-wait distribution (us).
    pub queue_wait_us: Histogram,
    /// Whole-run wall-time distribution (us).
    pub run_wall_us: Histogram,
    /// Interpreter wall-time distribution (us).
    pub interp_us: Histogram,
    /// Oracle wall-time distribution (us).
    pub judge_us: Histogram,
}

impl WorkerTimings {
    /// Records one run's timing.
    pub fn record(&mut self, timing: &RunTiming) {
        self.queue_wait_us.record(timing.queue_wait_us);
        self.run_wall_us.record(timing.run_wall_us);
        self.interp_us.record(timing.interp_us);
        self.judge_us.record(timing.judge_us);
    }
}

/// Merged per-run distributions for a finished campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignMetrics {
    /// Interpreter steps per run (deterministic).
    pub steps: Histogram,
    /// Faults injected per run (deterministic).
    pub injections: Histogram,
    /// Attempts consumed per run (deterministic).
    pub attempts: Histogram,
    /// Virtual milliseconds per run (deterministic).
    pub virtual_ms: Histogram,
    /// Backoff milliseconds per run, recomputed from the policy
    /// (deterministic — covers resumed records too).
    pub backoff_ms: Histogram,
    /// Queue wait per run in us (host timing).
    pub queue_wait_us: Histogram,
    /// Whole-run wall time in us (host timing).
    pub run_wall_us: Histogram,
    /// Interpreter wall time per run in us (host timing).
    pub interp_us: Histogram,
    /// Oracle wall time per run in us (host timing).
    pub judge_us: Histogram,
}

impl CampaignMetrics {
    /// Builds the deterministic half from the merged record vector. The
    /// backoff distribution is recomputed from the policy rather than
    /// measured, so resumed records (no sleep happened this session)
    /// still contribute their deterministic delays.
    pub fn from_records(records: &[RunRecord], retry: &Policy) -> Self {
        let mut metrics = CampaignMetrics::default();
        for record in records {
            metrics.steps.record(record.steps);
            metrics.injections.record(u64::from(record.injections));
            metrics.attempts.record(u64::from(record.attempts));
            metrics.virtual_ms.record(record.virtual_ms);
            let backoff: u64 = (1..record.attempts)
                .map(|failed| saturating_ms(retry_delay(retry, &record.key, failed)))
                .fold(0, u64::saturating_add);
            metrics.backoff_ms.record(backoff);
        }
        metrics
    }

    /// Merges another campaign's distributions into this one, histogram
    /// by histogram. [`Histogram::merge`] is commutative and
    /// order-independent, so merging two waves of an adaptive campaign
    /// yields the same metrics as one combined campaign would have — for
    /// the deterministic half exactly, and for the timing half with the
    /// same sample counts.
    pub fn merge_campaign(&mut self, other: &CampaignMetrics) {
        self.steps.merge(&other.steps);
        self.injections.merge(&other.injections);
        self.attempts.merge(&other.attempts);
        self.virtual_ms.merge(&other.virtual_ms);
        self.backoff_ms.merge(&other.backoff_ms);
        self.queue_wait_us.merge(&other.queue_wait_us);
        self.run_wall_us.merge(&other.run_wall_us);
        self.interp_us.merge(&other.interp_us);
        self.judge_us.merge(&other.judge_us);
    }

    /// Merges per-worker timing histograms, in the order given (the
    /// campaign passes worker index order).
    pub fn absorb_worker_timings(&mut self, workers: &[WorkerTimings]) {
        for w in workers {
            self.queue_wait_us.merge(&w.queue_wait_us);
            self.run_wall_us.merge(&w.run_wall_us);
            self.interp_us.merge(&w.interp_us);
            self.judge_us.merge(&w.judge_us);
        }
    }

    /// The deterministic histograms, named — byte-identical across `jobs`
    /// values and resume splits (what the determinism tests compare).
    pub fn deterministic(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("steps", &self.steps),
            ("injections", &self.injections),
            ("attempts", &self.attempts),
            ("virtual_ms", &self.virtual_ms),
            ("backoff_ms", &self.backoff_ms),
        ]
    }

    /// The host-timing histograms, named (scheduling-dependent values;
    /// deterministic sample counts).
    pub fn timing(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("queue_wait_us", &self.queue_wait_us),
            ("run_wall_us", &self.run_wall_us),
            ("interp_us", &self.interp_us),
            ("judge_us", &self.judge_us),
        ]
    }
}

/// An [`EngineObserver`] that turns the event stream into phase spans,
/// run spans, and the final metrics — the in-process recorder behind
/// `--trace-out`, `wasabi stats`, and the bench per-phase breakdown.
///
/// Timestamps are read through a [`Clock`], so tests substitute a
/// [`ManualClock`](wasabi_util::metrics::ManualClock) and get
/// deterministic span times. Composes with any other observer via
/// [`Tee`](crate::observer::Tee); it only records, never prints.
pub struct MetricsObserver {
    clock: Box<dyn Clock>,
    open_phases: Vec<(String, u64)>,
    phases: Vec<PhaseSpan>,
    open_runs: HashMap<usize, u64>,
    runs: Vec<RunSpan>,
    stats: Option<CampaignStats>,
    metrics: Option<CampaignMetrics>,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        MetricsObserver::new()
    }
}

impl std::fmt::Debug for MetricsObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsObserver")
            .field("phases", &self.phases.len())
            .field("runs", &self.runs.len())
            .field("finished", &self.metrics.is_some())
            .finish()
    }
}

impl MetricsObserver {
    /// A recorder on the production wall clock.
    pub fn new() -> Self {
        MetricsObserver::with_clock(Box::new(WallClock::new()))
    }

    /// A recorder on an explicit clock (tests pass a `ManualClock`).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        MetricsObserver {
            clock,
            open_phases: Vec::new(),
            phases: Vec::new(),
            open_runs: HashMap::new(),
            runs: Vec::new(),
            stats: None,
            metrics: None,
        }
    }

    /// Completed phase spans, in completion order.
    pub fn phases(&self) -> &[PhaseSpan] {
        &self.phases
    }

    /// Completed run spans, in completion (arrival) order.
    pub fn runs(&self) -> &[RunSpan] {
        &self.runs
    }

    /// Final campaign statistics, once `Finished` has been observed.
    pub fn stats(&self) -> Option<&CampaignStats> {
        self.stats.as_ref()
    }

    /// Final campaign metrics, once `Finished` has been observed.
    pub fn metrics(&self) -> Option<&CampaignMetrics> {
        self.metrics.as_ref()
    }

    /// Records an externally-timed phase (e.g. `compile`, which runs
    /// before any observer exists) as a closed span ending now.
    pub fn record_phase(&mut self, name: &str, wall_us: u64) {
        let end_us = self.clock.now_us();
        self.phases.push(PhaseSpan {
            name: name.to_string(),
            start_us: end_us.saturating_sub(wall_us),
            end_us,
        });
    }

    /// Sum of recorded phase wall times, in microseconds.
    pub fn phase_total_us(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.end_us.saturating_sub(p.start_us))
            .fold(0, u64::saturating_add)
    }
}

impl EngineObserver for MetricsObserver {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        match event {
            // A step is recorded like a phase; its dotted name nests it
            // under its phase in the trace (see `spans::render_stats`).
            EngineEvent::PhaseStarted { name } | EngineEvent::StepStarted { name } => {
                let now = self.clock.now_us();
                self.open_phases.push((name.to_string(), now));
            }
            EngineEvent::PhaseFinished { name } | EngineEvent::StepFinished { name } => {
                let end_us = self.clock.now_us();
                // Close the innermost open phase with this name; an
                // unmatched finish degrades to a zero-length span rather
                // than corrupting the stack.
                let start_us = self
                    .open_phases
                    .iter()
                    .rposition(|(open, _)| open == name)
                    .map(|at| self.open_phases.remove(at).1)
                    .unwrap_or(end_us);
                self.phases.push(PhaseSpan {
                    name: name.to_string(),
                    start_us,
                    end_us,
                });
            }
            EngineEvent::RunStarted { index, .. } => {
                let now = self.clock.now_us();
                self.open_runs.insert(*index, now);
            }
            EngineEvent::RunFinished {
                index,
                key,
                worker,
                outcome,
                injections,
                reports,
                attempts,
                steps,
                timing,
            } => {
                let end_us = self.clock.now_us();
                let start_us = self.open_runs.remove(index).unwrap_or(end_us);
                self.runs.push(RunSpan {
                    test: key.test.to_string(),
                    site: key.site.to_string(),
                    exception: key.exception.clone(),
                    k: key.k,
                    worker: *worker,
                    outcome: outcome_kind(outcome).to_string(),
                    attempts: *attempts,
                    injections: *injections,
                    steps: *steps,
                    reports: *reports,
                    start_us,
                    end_us,
                    timing: (*timing).clone(),
                });
            }
            EngineEvent::Finished { stats, metrics } => {
                self.stats = Some((*stats).clone());
                self.metrics = Some((*metrics).clone());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_util::metrics::ManualClock;

    #[test]
    fn from_records_recomputes_deterministic_backoff() {
        use crate::campaign::RunOutcome;
        use wasabi_lang::ast::CallId;
        use wasabi_lang::project::{CallSite, FileId, MethodId};
        use wasabi_planner::plan::RunKey;
        use wasabi_vm::trace::TestOutcome;

        let key = RunKey {
            test: MethodId::new("C", "t"),
            site: CallSite {
                file: FileId(0),
                call: CallId(1),
            },
            exception: "E".to_string(),
            k: 1,
        };
        let record = RunRecord {
            key: key.clone(),
            outcome: RunOutcome::Completed(TestOutcome::Passed),
            reports: Vec::new(),
            rethrow_filtered: false,
            not_a_trigger: false,
            virtual_ms: 10,
            steps: 100,
            injections: 1,
            attempts: 3,
            quarantined: false,
        };
        let retry = Policy::ENGINE;
        let metrics = CampaignMetrics::from_records(std::slice::from_ref(&record), &retry);
        let expected: u64 = (1..3u8)
            .map(|a| saturating_ms(retry_delay(&retry, &key, a)))
            .sum();
        assert_eq!(metrics.backoff_ms.sum(), expected);
        assert!(expected > 0, "default policy sleeps between attempts");
        assert_eq!(metrics.steps.count(), 1);
        assert_eq!(metrics.attempts.max(), 3);
        // Rebuilding from the same records is bit-identical.
        let again = CampaignMetrics::from_records(std::slice::from_ref(&record), &retry);
        for ((_, a), (_, b)) in metrics.deterministic().iter().zip(again.deterministic()) {
            assert_eq!(**a, *b);
        }
    }

    #[test]
    fn manual_clock_produces_deterministic_phase_spans() {
        let mut observer = MetricsObserver::with_clock(Box::new(ManualClock::with_step(100)));
        observer.on_event(&EngineEvent::PhaseStarted { name: "plan" });
        observer.on_event(&EngineEvent::PhaseFinished { name: "plan" });
        observer.on_event(&EngineEvent::PhaseStarted { name: "run" });
        observer.on_event(&EngineEvent::PhaseFinished { name: "run" });
        let spans: Vec<(&str, u64, u64)> = observer
            .phases()
            .iter()
            .map(|p| (p.name.as_str(), p.start_us, p.end_us))
            .collect();
        assert_eq!(spans, vec![("plan", 100, 200), ("run", 300, 400)]);
        assert_eq!(observer.phase_total_us(), 200);
    }

    #[test]
    fn steps_are_recorded_inside_their_phase() {
        let mut observer = MetricsObserver::with_clock(Box::new(ManualClock::with_step(10)));
        observer.on_event(&EngineEvent::PhaseStarted { name: "profile" });
        for name in ["profile.prefilter", "profile.baseline-exec"] {
            observer.on_event(&EngineEvent::StepStarted { name });
            observer.on_event(&EngineEvent::StepFinished { name });
        }
        observer.on_event(&EngineEvent::PhaseFinished { name: "profile" });
        let spans: Vec<(&str, u64, u64)> = observer
            .phases()
            .iter()
            .map(|p| (p.name.as_str(), p.start_us, p.end_us))
            .collect();
        assert_eq!(
            spans,
            vec![
                ("profile.prefilter", 20, 30),
                ("profile.baseline-exec", 40, 50),
                ("profile", 10, 60),
            ]
        );
    }

    #[test]
    fn unmatched_phase_finish_degrades_to_zero_length_span() {
        let mut observer = MetricsObserver::with_clock(Box::new(ManualClock::with_step(7)));
        observer.on_event(&EngineEvent::PhaseFinished { name: "ghost" });
        assert_eq!(observer.phases().len(), 1);
        assert_eq!(observer.phases()[0].start_us, observer.phases()[0].end_us);
    }
}
