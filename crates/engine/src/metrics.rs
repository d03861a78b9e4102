//! Campaign metrics: per-run host timing, and an [`EngineObserver`] that
//! turns the event stream into spans.
//!
//! A run span's key, outcome and counters are a pure function of the run,
//! so they agree for any `jobs` value. Its worker, start/end times and
//! [`RunTiming`] fields measure the host and depend on scheduling; the
//! trace records them and `wasabi stats` renders them.

use crate::observer::{outcome_kind, EngineEvent, EngineObserver};
use crate::spans::{PhaseSpan, RunSpan};
use std::collections::HashMap;
use wasabi_util::metrics::{Clock, WallClock};

/// Host-time measurements for one run. Carried alongside the record in
/// `RunFinished` events; never part of the record itself (it is
/// scheduling-dependent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunTiming {
    /// Campaign-relative time at which a worker claimed this run, in
    /// microseconds — how long the run sat behind others in key order.
    pub queue_wait_us: u64,
    /// Wall time of the whole run.
    pub run_wall_us: u64,
    /// Interpreter wall time.
    pub interp_us: u64,
    /// Oracle-judgement wall time.
    pub judge_us: u64,
}

/// An [`EngineObserver`] that turns the event stream into phase spans and
/// run spans — the in-process recorder behind `--trace-out` and
/// `wasabi stats`.
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
                    injections: *injections,
                    steps: *steps,
                    reports: *reports,
                    start_us,
                    end_us,
                    timing: (*timing).clone(),
                });
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
