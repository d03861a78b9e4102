//! The three retry-specific test oracles (§3.1.3).
//!
//! Each injected test run is judged post-mortem from its trace:
//!
//! - **missing cap** — an injection site fired the full 100-exception budget
//!   or the test exceeded the 15-minute (virtual) limit;
//! - **missing delay** — two consecutive injections at the same retry
//!   location with no sleep from the coordinator method in between;
//! - **different exception** — the test died with an exception other than
//!   the injected one (applied to K = 1 runs, where a single transient error
//!   plus recovery should leave the test healthy).
//!
//! The different-exception oracle intentionally does **not** unwrap cause
//! chains: an application that wraps the injected exception and crashes with
//! the wrapper is flagged, reproducing the paper's HOW false-positive mode
//! (§4.3). The wrapper's cause chain is recorded so that the ablation can
//! measure how many reports that pruning would remove.

use wasabi_analysis::loops::RetryLocation;
use wasabi_inject::InjectionSpec;
use wasabi_lang::project::MethodId;
use wasabi_vm::trace::{Event, TestOutcome, TestRun};

/// Bug categories the oracles report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BugKind {
    /// WHEN bug: unbounded (or way-over-budget) retry attempts.
    MissingCap,
    /// WHEN bug: consecutive retry attempts with no delay between them.
    MissingDelay,
    /// HOW bug: the test failed with a different exception than injected
    /// (state corruption, broken cleanup, ...).
    DifferentException,
}

impl std::fmt::Display for BugKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BugKind::MissingCap => write!(f, "missing-cap"),
            BugKind::MissingDelay => write!(f, "missing-delay"),
            BugKind::DifferentException => write!(f, "different-exception"),
        }
    }
}

/// One oracle finding from one test run.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Which oracle fired.
    pub kind: BugKind,
    /// The test that was running.
    pub test: MethodId,
    /// The retry location under injection.
    pub location: RetryLocation,
    /// Human-readable evidence.
    pub detail: String,
    /// Key used to group reports into distinct bugs: retry structure for
    /// WHEN bugs, crash stack for HOW bugs.
    pub dedup_key: String,
    /// For different-exception reports: the escaping exception's cause
    /// chain (first element is the escaping type).
    pub exc_chain: Vec<String>,
}

/// The verdict for one injected run.
#[derive(Debug, Clone, Default)]
pub struct RunVerdict {
    /// Oracle findings.
    pub reports: Vec<OracleReport>,
    /// The run crashed by re-throwing the injected exception — correct
    /// give-up behaviour, filtered by the different-exception oracle.
    pub rethrow_filtered: bool,
    /// The run crashed with the injected exception without any retry —
    /// evidence the static analysis misidentified the retry trigger.
    pub not_a_trigger: bool,
}

/// Injection count at one site considered "unbounded". The paper uses 100
/// (real caps are ≤ 20 attempts).
const CAP_THRESHOLD: u32 = 100;

/// Virtual-time limit treated as a hang. The paper uses 15 minutes.
const TIME_LIMIT_MS: u64 = 15 * 60 * 1000;

/// Judges one injected test run against all applicable oracles.
pub fn judge_run(run: &TestRun, spec: &InjectionSpec) -> RunVerdict {
    let mut verdict = RunVerdict::default();
    let location = &spec.location;

    let injections_at_site: Vec<(usize, u32)> = run
        .trace
        .events
        .iter()
        .enumerate()
        .filter_map(|(idx, e)| match e {
            Event::Injected { site, count, .. } if *site == location.site => Some((idx, *count)),
            _ => None,
        })
        .collect();
    let max_count = injections_at_site.iter().map(|(_, c)| *c).max().unwrap_or(0);

    // ---- Missing-cap oracle ------------------------------------------------
    let timed_out = matches!(run.outcome, TestOutcome::Timeout { .. })
        || run.virtual_ms > TIME_LIMIT_MS;
    if max_count >= CAP_THRESHOLD || (timed_out && max_count > 0) {
        verdict.reports.push(OracleReport {
            kind: BugKind::MissingCap,
            test: run.test.clone(),
            location: location.clone(),
            detail: if timed_out {
                format!(
                    "test exceeded the {} ms virtual-time limit after {} injections",
                    TIME_LIMIT_MS, max_count
                )
            } else {
                format!(
                    "injection handler threw {} {} times at {}",
                    location.exception, max_count, location.site
                )
            },
            dedup_key: location.structure_key(),
            exc_chain: Vec::new(),
        });
    }

    // ---- Missing-delay oracle ----------------------------------------------
    if injections_at_site.len() >= 2 {
        let mut missing_between = 0usize;
        for pair in injections_at_site.windows(2) {
            let (start, end) = (pair[0].0, pair[1].0);
            let coordinator_slept = run.trace.events[start + 1..end].iter().any(|e| {
                matches!(
                    e,
                    Event::Slept { stack, .. } if stack.contains(&location.coordinator)
                )
            });
            if !coordinator_slept {
                missing_between += 1;
            }
        }
        if missing_between > 0 {
            verdict.reports.push(OracleReport {
                kind: BugKind::MissingDelay,
                test: run.test.clone(),
                location: location.clone(),
                detail: format!(
                    "{missing_between} of {} consecutive retry attempts had no delay issued by {}",
                    injections_at_site.len() - 1,
                    location.coordinator
                ),
                dedup_key: location.structure_key(),
                exc_chain: Vec::new(),
            });
        }
    }

    // ---- Different-exception oracle -------------------------------------
    // Crash classification (rethrow vs non-trigger) applies to every run;
    // HOW-bug *reports* are only drawn from K = 1 runs, where a single
    // transient error plus recovery should leave the test healthy.
    match &run.outcome {
        TestOutcome::ExceptionEscaped { exc } => {
            if exc.ty == location.exception {
                if max_count == 0 {
                    // The exception escaped without our site firing; the
                    // spec was stale. Treat conservatively as non-trigger.
                    verdict.not_a_trigger = true;
                } else if max_count == 1
                    && run
                        .trace
                        .events
                        .iter()
                        .filter(|e| matches!(e, Event::Raised { .. }))
                        .count()
                        == 0
                    && injection_escaped_directly(run)
                {
                    verdict.not_a_trigger = true;
                } else {
                    verdict.rethrow_filtered = true;
                }
            } else if spec.k == 1 {
                verdict.reports.push(OracleReport {
                    kind: BugKind::DifferentException,
                    test: run.test.clone(),
                    location: location.clone(),
                    detail: format!(
                        "injected {} once but the test died with {}",
                        location.exception, exc.ty
                    ),
                    dedup_key: exc.crash_key(),
                    exc_chain: exc.chain.clone(),
                });
            }
        }
        TestOutcome::AssertionFailed { message } if spec.k == 1 && max_count > 0 => {
            verdict.reports.push(OracleReport {
                kind: BugKind::DifferentException,
                test: run.test.clone(),
                location: location.clone(),
                detail: format!(
                    "injected {} once and a test assertion failed: {message}",
                    location.exception
                ),
                dedup_key: format!("assert:{}:{message}", run.test),
                exc_chain: vec!["AssertionError".to_string()],
            });
        }
        _ => {}
    }

    verdict
}

/// [`judge_run`] plus the wall time the judgement took — the campaign's
/// metrics layer attributes oracle time separately from interpreter time,
/// and measuring here keeps the two attribution points symmetrical.
pub fn judge_run_timed(run: &TestRun, spec: &InjectionSpec) -> (RunVerdict, std::time::Duration) {
    let started = std::time::Instant::now();
    let verdict = judge_run(run, spec);
    (verdict, started.elapsed())
}

/// Whether the escaping exception is the injected one with no intervening
/// retry activity — i.e. the coordinator never caught it (the location was
/// not actually a retry trigger).
fn injection_escaped_directly(run: &TestRun) -> bool {
    if let TestOutcome::ExceptionEscaped { exc } = &run.outcome {
        exc.injected
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_analysis::loops::Mechanism;
    use wasabi_lang::ast::{CallId, LoopId};
    use wasabi_lang::project::{CallSite, FileId};
    use wasabi_vm::trace::{ExcSummary, Trace};

    fn location() -> RetryLocation {
        RetryLocation {
            site: CallSite {
                file: FileId(0),
                call: CallId(1),
            },
            coordinator: MethodId::new("C", "run"),
            retried: MethodId::new("C", "op"),
            exception: "ConnectException".to_string(),
            mechanism: Mechanism::Loop(LoopId(0)),
        }
    }

    fn injected_event(count: u32, at_ms: u64) -> Event {
        let loc = location();
        Event::Injected {
            site: loc.site,
            caller: loc.coordinator,
            callee: loc.retried,
            exc_type: loc.exception,
            count,
            at_ms,
        }
    }

    fn slept_event(stack_method: &str, at_ms: u64) -> Event {
        Event::Slept {
            ms: 100,
            at_ms,
            stack: vec![MethodId::new("T", "t"), MethodId::new("C", stack_method)],
        }
    }

    fn run_with(events: Vec<Event>, outcome: TestOutcome, virtual_ms: u64) -> TestRun {
        TestRun {
            test: MethodId::new("T", "t"),
            outcome,
            trace: Trace { events },
            virtual_ms,
            steps: 0,
            wall_us: 0,
        }
    }

    fn spec(k: u32) -> InjectionSpec {
        InjectionSpec::new(location(), k)
    }

    #[test]
    fn missing_cap_fires_at_threshold() {
        let events = (1..=100).map(|i| injected_event(i, i as u64)).collect();
        let run = run_with(events, TestOutcome::Passed, 100);
        let verdict = judge_run(&run, &spec(100));
        // 100 injections with no sleeps: both cap and delay oracles fire.
        let kinds: Vec<BugKind> = verdict.reports.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&BugKind::MissingCap));
        assert!(kinds.contains(&BugKind::MissingDelay));
    }

    #[test]
    fn capped_retry_is_not_reported() {
        let mut events = Vec::new();
        for i in 1..=5u32 {
            events.push(injected_event(i, i as u64 * 1000));
            events.push(slept_event("run", i as u64 * 1000 + 1));
        }
        let run = run_with(events, TestOutcome::Passed, 5000);
        let verdict = judge_run(&run, &spec(100));
        assert!(verdict.reports.is_empty(), "reports: {:?}", verdict.reports);
    }

    #[test]
    fn timeout_with_injections_is_missing_cap() {
        let events = vec![injected_event(1, 0), injected_event(2, 500_000)];
        let run = run_with(
            events,
            TestOutcome::Timeout {
                virtual_ms: 1_000_000,
            },
            1_000_000,
        );
        let verdict = judge_run(&run, &spec(100));
        assert!(verdict
            .reports
            .iter()
            .any(|r| r.kind == BugKind::MissingCap));
    }

    #[test]
    fn missing_delay_requires_sleep_from_coordinator() {
        // Sleeps exist but come from an unrelated method, not the
        // coordinator: the oracle still fires.
        let events = vec![
            injected_event(1, 0),
            slept_event("other", 1),
            injected_event(2, 2),
            slept_event("other", 3),
            injected_event(3, 4),
        ];
        let run = run_with(events, TestOutcome::Passed, 10);
        let verdict = judge_run(&run, &spec(100));
        assert!(verdict
            .reports
            .iter()
            .any(|r| r.kind == BugKind::MissingDelay));
    }

    #[test]
    fn delay_between_attempts_suppresses_delay_report() {
        let events = vec![
            injected_event(1, 0),
            slept_event("run", 1),
            injected_event(2, 101),
            slept_event("run", 102),
            injected_event(3, 202),
        ];
        let run = run_with(events, TestOutcome::Passed, 300);
        let verdict = judge_run(&run, &spec(100));
        assert!(!verdict
            .reports
            .iter()
            .any(|r| r.kind == BugKind::MissingDelay));
    }

    #[test]
    fn different_exception_on_k1_run() {
        let exc = ExcSummary {
            ty: "NullPointerException".into(),
            message: "log state".into(),
            chain: vec!["NullPointerException".into()],
            raised_at: vec![MethodId::new("C", "handleError")],
            injected: false,
        };
        let run = run_with(
            vec![injected_event(1, 0)],
            TestOutcome::ExceptionEscaped { exc },
            5,
        );
        let verdict = judge_run(&run, &spec(1));
        assert_eq!(verdict.reports.len(), 1);
        assert_eq!(verdict.reports[0].kind, BugKind::DifferentException);
        assert!(verdict.reports[0].dedup_key.contains("NullPointerException"));
    }

    #[test]
    fn rethrow_of_injected_exception_is_filtered() {
        let exc = ExcSummary {
            ty: "ConnectException".into(),
            message: "gave up".into(),
            chain: vec!["ConnectException".into()],
            raised_at: vec![MethodId::new("C", "run")],
            injected: false,
        };
        let run = run_with(
            vec![injected_event(1, 0)],
            TestOutcome::ExceptionEscaped { exc },
            5,
        );
        let verdict = judge_run(&run, &spec(1));
        assert!(verdict.reports.is_empty());
        assert!(verdict.rethrow_filtered);
    }

    #[test]
    fn non_trigger_injection_is_flagged_as_analysis_inaccuracy() {
        let exc = ExcSummary {
            ty: "ConnectException".into(),
            message: "injected".into(),
            chain: vec!["ConnectException".into()],
            raised_at: vec![MethodId::new("C", "op")],
            injected: true,
        };
        let run = run_with(
            vec![injected_event(1, 0)],
            TestOutcome::ExceptionEscaped { exc },
            1,
        );
        let verdict = judge_run(&run, &spec(1));
        assert!(verdict.reports.is_empty());
        assert!(verdict.not_a_trigger);
    }

    #[test]
    fn assertion_failure_under_single_injection_is_how_bug() {
        let run = run_with(
            vec![injected_event(1, 0)],
            TestOutcome::AssertionFailed {
                message: "stage map corrupted".into(),
            },
            5,
        );
        let verdict = judge_run(&run, &spec(1));
        assert_eq!(verdict.reports.len(), 1);
        assert_eq!(verdict.reports[0].kind, BugKind::DifferentException);
    }

    #[test]
    fn wrapped_exception_is_reported_with_chain() {
        // The paper's HOW false-positive mode: the injected exception is
        // wrapped and the wrapper crashes the test. The oracle reports it
        // (type differs) but records the chain.
        let exc = ExcSummary {
            ty: "HadoopException".into(),
            message: "wrapped".into(),
            chain: vec!["HadoopException".into(), "ConnectException".into()],
            raised_at: vec![MethodId::new("C", "run")],
            injected: false,
        };
        let run = run_with(
            vec![injected_event(1, 0)],
            TestOutcome::ExceptionEscaped { exc },
            5,
        );
        let verdict = judge_run(&run, &spec(1));
        assert_eq!(verdict.reports.len(), 1);
        assert!(verdict.reports[0]
            .exc_chain
            .contains(&"ConnectException".to_string()));
    }

    #[test]
    fn k100_runs_skip_different_exception_oracle() {
        let exc = ExcSummary {
            ty: "NullPointerException".into(),
            message: String::new(),
            chain: vec!["NullPointerException".into()],
            raised_at: vec![],
            injected: false,
        };
        let run = run_with(
            vec![injected_event(1, 0)],
            TestOutcome::ExceptionEscaped { exc },
            5,
        );
        let verdict = judge_run(&run, &spec(100));
        assert!(verdict.reports.is_empty());
    }
}
