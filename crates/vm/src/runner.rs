//! Unit-test runner: discovers `test` methods and executes each in a fresh
//! interpreter, producing a [`TestRun`] per test.

use crate::interceptor::{Interceptor, NoopInterceptor};
use crate::interp::{Interp, InvokeResult, RunLimits, VmError};
use crate::trace::{ExcSummary, TestOutcome, TestRun};
use wasabi_lang::project::{MethodId, Project};

/// Options for a test-suite run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Per-test resource limits.
    pub limits: RunLimits,
    /// Configuration keys pinned to their declared defaults for every test
    /// (the planner's retry-config restoration pass fills this in).
    pub pinned_configs: Vec<String>,
}

/// Runs a single test method with the given interceptor.
pub fn run_test(
    project: &Project,
    test: &MethodId,
    interceptor: &mut dyn Interceptor,
    options: &RunOptions,
) -> TestRun {
    let started = std::time::Instant::now();
    let mut interp = Interp::new(project, interceptor, options.limits);
    for key in &options.pinned_configs {
        interp.pin_config(key);
    }
    let result = interp.invoke(&test.class, &test.name, Vec::new());
    let outcome = match result {
        InvokeResult::Ok(_) => TestOutcome::Passed,
        InvokeResult::Exception(exc) => {
            if exc.ty == "AssertionError" {
                TestOutcome::AssertionFailed {
                    message: exc.message.clone(),
                }
            } else {
                TestOutcome::ExceptionEscaped {
                    exc: ExcSummary::from_value(&exc),
                }
            }
        }
        InvokeResult::Vm(VmError::Timeout { virtual_ms }) => TestOutcome::Timeout { virtual_ms },
        InvokeResult::Vm(VmError::FuelExhausted) => TestOutcome::FuelExhausted,
        InvokeResult::Vm(VmError::Fault(message)) => TestOutcome::VmFault { message },
    };
    TestRun {
        test: test.clone(),
        outcome,
        trace: interp.take_trace(),
        virtual_ms: interp.clock_ms(),
        steps: interp.steps(),
        wall_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
    }
}

/// Runs every test in the project with a no-op interceptor (plain testing,
/// as developers would run the suite).
pub fn run_all_tests(project: &Project, options: &RunOptions) -> Vec<TestRun> {
    let mut noop = NoopInterceptor;
    project
        .tests()
        .iter()
        .map(|(_, test)| run_test(project, test, &mut noop, options))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::project::Project;

    fn project(src: &str) -> Project {
        Project::compile("t", vec![("t.jav", src)]).expect("compile")
    }

    #[test]
    fn passing_and_failing_assertions() {
        let p = project(
            "class T {\n\
               test tPass() { assert(1 + 1 == 2); }\n\
               test tFail() { assert(1 == 2, \"math is broken\"); }\n\
             }",
        );
        let runs = run_all_tests(&p, &RunOptions::default());
        assert_eq!(runs.len(), 2);
        assert!(runs[0].outcome.is_pass());
        assert_eq!(
            runs[1].outcome,
            TestOutcome::AssertionFailed {
                message: "math is broken".into()
            }
        );
    }

    #[test]
    fn escaping_exception_is_summarized() {
        let p = project(
            "exception IOException;\n\
             class T {\n\
               method boom() throws IOException { throw new IOException(\"disk\"); }\n\
               test tBoom() { this.boom(); }\n\
             }",
        );
        let runs = run_all_tests(&p, &RunOptions::default());
        match &runs[0].outcome {
            TestOutcome::ExceptionEscaped { exc } => {
                assert_eq!(exc.ty, "IOException");
                assert_eq!(exc.message, "disk");
                assert!(!exc.injected);
                assert_eq!(
                    exc.raised_at.last().map(|m| m.to_string()).as_deref(),
                    Some("T.boom")
                );
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn virtual_timeout_aborts_test() {
        let p = project(
            "class T {\n\
               test tSleepy() { while (true) { sleep(60000); } }\n\
             }",
        );
        let runs = run_all_tests(&p, &RunOptions::default());
        match runs[0].outcome {
            TestOutcome::Timeout { virtual_ms } => assert!(virtual_ms > 15 * 60 * 1000),
            ref other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn fuel_exhaustion_aborts_runaway_loop() {
        let p = project("class T { test tSpin() { while (true) { var x = 1; } } }");
        let mut options = RunOptions::default();
        options.limits.fuel = 10_000;
        let runs = run_all_tests(&p, &options);
        assert_eq!(runs[0].outcome, TestOutcome::FuelExhausted);
    }

    #[test]
    fn vm_fault_on_unknown_method() {
        let p = project("class T { test tBad() { this.missing(); } }");
        let runs = run_all_tests(&p, &RunOptions::default());
        match &runs[0].outcome {
            TestOutcome::VmFault { message } => assert!(message.contains("unknown method")),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn pinned_configs_resist_test_overrides() {
        let p = project(
            "config \"retry.max\" default 5;\n\
             class T {\n\
               test tOverride() {\n\
                 setConfig(\"retry.max\", 0);\n\
                 assert(getConfig(\"retry.max\") == 5, \"pin should hold\");\n\
               }\n\
             }",
        );
        let mut options = RunOptions::default();
        options.pinned_configs.push("retry.max".into());
        let runs = run_all_tests(&p, &options);
        assert!(runs[0].outcome.is_pass(), "outcome: {:?}", runs[0].outcome);
    }
}
