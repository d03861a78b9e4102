//! Per-run isolation regression tests.
//!
//! The campaign engine runs many interpreters concurrently, one per worker
//! thread, over the same `Project`. That is only sound because an `Interp`
//! owns all of its mutable state — virtual clock, config store, trace
//! buffer, injection counters. These tests pin that property down: two
//! concurrent runs with different injected exceptions and different config
//! mutations must never observe each other's clock advances, trace events,
//! or config values.

use std::thread;
use wasabi_lang::project::Project;
use wasabi_vm::interceptor::{CallCtx, InterceptAction, Interceptor};
use wasabi_vm::runner::{run_test, RunOptions};
use wasabi_vm::trace::{Event, TestOutcome};
use wasabi_lang::project::MethodId;

/// Injects `exc_type` at every call to `callee_name`, without limit.
struct InjectOn {
    callee_name: String,
    exc_type: String,
    fired: u32,
}

impl Interceptor for InjectOn {
    fn before_call(&mut self, ctx: &CallCtx<'_>) -> InterceptAction {
        if ctx.names.resolve(ctx.callee.name) == self.callee_name && self.fired < 3 {
            self.fired += 1;
            return InterceptAction::Throw {
                exc_type: self.exc_type.clone(),
                message: format!("injected {}", self.exc_type),
            };
        }
        InterceptAction::Proceed
    }
}

const SOURCE: &str = "\
exception IOException;\n\
exception TimeoutException;\n\
config \"retry.max\" default 5;\n\
class Client {\n\
  method fetch() throws IOException { return 1; }\n\
  test tRetryA() {\n\
    setConfig(\"retry.max\", 11);\n\
    var attempts = 0;\n\
    var done = false;\n\
    while (!done && attempts < 10) {\n\
      try {\n\
        this.fetch();\n\
        done = true;\n\
      } catch (IOException e) {\n\
        attempts = attempts + 1;\n\
        sleep(100);\n\
      }\n\
    }\n\
    assert(done);\n\
  }\n\
  test tRetryB() {\n\
    setConfig(\"retry.max\", 77);\n\
    var attempts = 0;\n\
    var done = false;\n\
    while (!done && attempts < 10) {\n\
      try {\n\
        this.fetch();\n\
        done = true;\n\
      } catch (TimeoutException e) {\n\
        attempts = attempts + 1;\n\
        sleep(7000);\n\
      }\n\
    }\n\
    assert(done);\n\
  }\n\
}\n";

fn compile() -> Project {
    Project::compile("iso", vec![("iso.jav", SOURCE)]).expect("compile")
}

#[test]
fn concurrent_runs_do_not_share_clock_trace_or_config() {
    let project = compile();
    let options = RunOptions::default();

    // Run the two tests many times concurrently on two threads; each thread
    // uses a different injected exception and a different sleep pattern, so
    // any state bleed (shared clock, shared trace buffer, shared config
    // store) would show up as cross-contaminated observations.
    thread::scope(|scope| {
        let run_a = scope.spawn(|| {
            let mut runs = Vec::new();
            for _ in 0..50 {
                let mut interceptor = InjectOn {
                    callee_name: "fetch".to_string(),
                    exc_type: "IOException".to_string(),
                    fired: 0,
                };
                runs.push(run_test(
                    &project,
                    &MethodId::new("Client", "tRetryA"),
                    &mut interceptor,
                    &options,
                ));
            }
            runs
        });
        let run_b = scope.spawn(|| {
            let mut runs = Vec::new();
            for _ in 0..50 {
                let mut interceptor = InjectOn {
                    callee_name: "fetch".to_string(),
                    exc_type: "TimeoutException".to_string(),
                    fired: 0,
                };
                runs.push(run_test(
                    &project,
                    &MethodId::new("Client", "tRetryB"),
                    &mut interceptor,
                    &options,
                ));
            }
            runs
        });

        let runs_a = run_a.join().expect("thread A");
        let runs_b = run_b.join().expect("thread B");

        for run in &runs_a {
            // A retries IOException: 3 injections × 100 ms sleeps → exactly
            // 300 virtual ms. Any bleed from B's 7000 ms sleeps would move
            // this.
            assert_eq!(run.outcome, TestOutcome::Passed, "A outcome");
            assert_eq!(run.virtual_ms, 300, "A virtual clock isolated");
            assert_eq!(run.trace.injection_count(), 3, "A injections isolated");
            for event in run.trace.injections() {
                let Event::Injected { exc_type, .. } = event else {
                    unreachable!()
                };
                assert_eq!(exc_type, "IOException", "A only sees its own faults");
            }
        }
        for run in &runs_b {
            // B's TimeoutException is not retried as IOException; it retries
            // via its own catch arm: 3 injections × 7000 ms → 21000 ms.
            assert_eq!(run.outcome, TestOutcome::Passed, "B outcome");
            assert_eq!(run.virtual_ms, 21_000, "B virtual clock isolated");
            assert_eq!(run.trace.injection_count(), 3, "B injections isolated");
            for event in run.trace.injections() {
                let Event::Injected { exc_type, .. } = event else {
                    unreachable!()
                };
                assert_eq!(exc_type, "TimeoutException", "B only sees its own faults");
            }
        }
    });
}

#[test]
fn config_mutations_stay_within_a_run() {
    // Each test writes a different value to the same config key; re-running
    // either test afterwards must start from the declared default again.
    const CHECK: &str = "\
exception IOException;\n\
config \"retry.max\" default 5;\n\
class Probe {\n\
  test tReadDefault() { assert(getConfig(\"retry.max\") == 5); }\n\
  test tWrite() { setConfig(\"retry.max\", 99); assert(getConfig(\"retry.max\") == 99); }\n\
}\n";
    let probe = Project::compile("probe", vec![("probe.jav", CHECK)]).expect("compile");
    let options = RunOptions::default();
    let mut noop = wasabi_vm::NoopInterceptor;

    let write = run_test(&probe, &MethodId::new("Probe", "tWrite"), &mut noop, &options);
    assert_eq!(write.outcome, TestOutcome::Passed);
    let read = run_test(
        &probe,
        &MethodId::new("Probe", "tReadDefault"),
        &mut noop,
        &options,
    );
    assert_eq!(
        read.outcome,
        TestOutcome::Passed,
        "config write leaked across runs"
    );
}

#[test]
fn a_contained_panic_leaves_the_project_reusable() {
    // The campaign engine wraps every run in `catch_unwind` and keeps
    // using the same `Project` afterwards. That is only sound because a
    // run's mutable state lives entirely in the per-run interpreter: a
    // panic mid-run (here: from an interceptor, mirroring the engine's
    // chaos hook) must not poison later runs over the same `Project`.
    struct PanicOnce {
        armed: bool,
    }
    impl Interceptor for PanicOnce {
        fn before_call(&mut self, ctx: &CallCtx<'_>) -> InterceptAction {
            if self.armed && ctx.names.resolve(ctx.callee.name) == "fetch" {
                panic!("isolation test: injected panic");
            }
            InterceptAction::Proceed
        }
    }

    let project = compile();
    let options = RunOptions::default();
    let baseline = {
        let mut noop = wasabi_vm::NoopInterceptor;
        run_test(&project, &MethodId::new("Client", "tRetryA"), &mut noop, &options)
    };
    assert_eq!(baseline.outcome, TestOutcome::Passed);

    // Quiet the panic hook for the deliberate panic, then restore it.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut interceptor = PanicOnce { armed: true };
        run_test(
            &project,
            &MethodId::new("Client", "tRetryA"),
            &mut interceptor,
            &options,
        )
    }));
    std::panic::set_hook(hook);
    assert!(panicked.is_err(), "the interceptor panic must propagate");

    // The shared Project is untouched: a fresh run observes exactly the
    // baseline outcome, clock, and trace.
    let mut noop = wasabi_vm::NoopInterceptor;
    let after = run_test(&project, &MethodId::new("Client", "tRetryA"), &mut noop, &options);
    assert_eq!(after.outcome, baseline.outcome);
    assert_eq!(after.virtual_ms, baseline.virtual_ms);
    assert_eq!(after.trace.injection_count(), baseline.trace.injection_count());
}
