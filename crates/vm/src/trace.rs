//! Execution traces: the log a WASABI test run leaves behind.
//!
//! The retry oracles (crate `wasabi-oracles`) work purely on these traces,
//! mirroring the paper's post-mortem log processing: injection entries
//! written by the fault-injection handler (Listing 5), sleep entries written
//! by the sleep-API pointcut, and the test outcome.

use crate::value::ExceptionValue;
use std::rc::Rc;
use wasabi_lang::project::MethodId;
#[cfg(test)]
use wasabi_lang::project::FileId;

pub use wasabi_lang::project::CallSite;

/// One event in a test-run trace.
#[derive(Debug, Clone)]
pub enum Event {
    /// A fault-injection handler threw an exception at a call site.
    Injected {
        /// The call site the exception was injected at.
        site: CallSite,
        /// The caller (candidate coordinator method).
        caller: MethodId,
        /// The callee (candidate retried method).
        callee: MethodId,
        /// Injected exception type.
        exc_type: String,
        /// How many times this (site, exception) pair has injected so far,
        /// starting at 1.
        count: u32,
        /// Virtual time of the injection.
        at_ms: u64,
    },
    /// The virtual clock advanced via `sleep` or a delayed queue take.
    Slept {
        /// Milliseconds slept.
        ms: u64,
        /// Virtual time when the sleep began.
        at_ms: u64,
        /// Call stack at the sleep, outermost first.
        stack: Vec<MethodId>,
    },
    /// A `log(...)` statement executed.
    Logged {
        /// Rendered message.
        message: String,
        /// Virtual time.
        at_ms: u64,
    },
    /// An exception was raised by program code (not by injection).
    Raised {
        /// Exception type.
        exc_type: String,
        /// Virtual time.
        at_ms: u64,
    },
}

/// The trace of one test run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in execution order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of injection events.
    pub fn injection_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Injected { .. }))
            .count()
    }

    /// Iterates over injection events only.
    pub fn injections(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Injected { .. }))
    }

    /// The highest per-site injection count observed, if any injection ran.
    pub fn max_injection_count(&self) -> Option<u32> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Injected { count, .. } => Some(*count),
                _ => None,
            })
            .max()
    }
}

/// Summary of an exception for reports (detached from the value graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExcSummary {
    /// Exception type.
    pub ty: String,
    /// Message.
    pub message: String,
    /// Type chain including causes: `[ty, cause, cause-of-cause, ...]`.
    pub chain: Vec<String>,
    /// Stack (outermost first) where the exception was raised.
    pub raised_at: Vec<MethodId>,
    /// Whether the exception originated from a fault-injection handler.
    pub injected: bool,
}

impl ExcSummary {
    /// Builds a summary from a runtime exception value.
    pub fn from_value(exc: &Rc<ExceptionValue>) -> Self {
        ExcSummary {
            ty: exc.ty.clone(),
            message: exc.message.clone(),
            chain: exc.cause_chain(),
            raised_at: exc.raised_at.clone(),
            injected: exc.injected,
        }
    }

    /// A stable key identifying the crash stack, used by the
    /// different-exception oracle to group failures into one bug.
    pub fn crash_key(&self) -> String {
        let frames: Vec<String> = self.raised_at.iter().map(|m| m.to_string()).collect();
        format!("{}@{}", self.ty, frames.join(">"))
    }
}

/// How a test run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestOutcome {
    /// The test ran to completion with all assertions passing.
    Passed,
    /// An `assert` failed (an `AssertionError` escaped the test).
    AssertionFailed {
        /// Assertion message.
        message: String,
    },
    /// A non-assertion exception escaped the test method.
    ExceptionEscaped {
        /// The escaping exception.
        exc: ExcSummary,
    },
    /// The virtual clock exceeded the per-test time limit.
    Timeout {
        /// Virtual time at abort, in ms.
        virtual_ms: u64,
    },
    /// The interpreter step budget was exhausted (runaway loop).
    FuelExhausted,
    /// The interpreter itself faulted (malformed program).
    VmFault {
        /// Description of the fault.
        message: String,
    },
}

impl TestOutcome {
    /// Whether the run ended without any failure.
    pub fn is_pass(&self) -> bool {
        matches!(self, TestOutcome::Passed)
    }
}

/// A completed test run: identity, outcome, trace, and timing.
#[derive(Debug, Clone)]
pub struct TestRun {
    /// The test method that ran.
    pub test: MethodId,
    /// How it ended.
    pub outcome: TestOutcome,
    /// The trace it produced.
    pub trace: Trace,
    /// Virtual duration of the run in milliseconds.
    pub virtual_ms: u64,
    /// Interpreter steps consumed.
    pub steps: u64,
    /// Host wall time the interpreter spent on this run, in microseconds
    /// (saturating; scheduling-dependent, excluded from determinism
    /// comparisons).
    pub wall_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_lang::ast::CallId;

    fn site() -> CallSite {
        CallSite {
            file: FileId(0),
            call: CallId(3),
        }
    }

    #[test]
    fn trace_counts_injections() {
        let mut trace = Trace::new();
        assert_eq!(trace.injection_count(), 0);
        assert_eq!(trace.max_injection_count(), None);
        trace.events.push(Event::Injected {
            site: site(),
            caller: MethodId::new("C", "run"),
            callee: MethodId::new("C", "connect"),
            exc_type: "ConnectException".into(),
            count: 1,
            at_ms: 0,
        });
        trace.events.push(Event::Injected {
            site: site(),
            caller: MethodId::new("C", "run"),
            callee: MethodId::new("C", "connect"),
            exc_type: "ConnectException".into(),
            count: 2,
            at_ms: 5,
        });
        trace.events.push(Event::Logged {
            message: "x".into(),
            at_ms: 5,
        });
        assert_eq!(trace.injection_count(), 2);
        assert_eq!(trace.max_injection_count(), Some(2));
    }

    #[test]
    fn crash_key_includes_type_and_stack() {
        let summary = ExcSummary {
            ty: "NullPointerException".into(),
            message: String::new(),
            chain: vec!["NullPointerException".into()],
            raised_at: vec![MethodId::new("A", "m"), MethodId::new("B", "n")],
            injected: false,
        };
        assert_eq!(summary.crash_key(), "NullPointerException@A.m>B.n");
    }

    #[test]
    fn call_site_display() {
        assert_eq!(site().to_string(), "f0:c3");
    }
}
