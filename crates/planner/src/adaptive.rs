//! Coverage-guided adaptive campaign planning (ROADMAP item 2).
//!
//! The fixed grid expands every planned `(test, site, exception)` group
//! into one run per K value and executes them all. The adaptive mode
//! keeps the *same* pairing (so recall against the fixed grid cannot be
//! lost to a different test/site assignment) but executes it in two
//! waves:
//!
//! 1. **Probe** — the max-K run of every group. The cap and delay
//!    oracles are fully decided by this run (both need the injector to
//!    keep failing the retried call: `MissingRetryCap` requires the
//!    observed attempt count to reach the cap threshold, and
//!    `MissingBackoffDelay` at least two injections), so no information
//!    those oracles could ever produce is lost by starting here.
//! 2. **Widen** — the remaining K values (the K=1 probe feeding the
//!    different-exception/HOW oracle), scheduled **only where the probe
//!    was inconclusive** (see [`ProbeSignal::conclusive`]) and not
//!    already explained by an equivalence class seen earlier in key
//!    order (see [`select_widen_runs`]).
//!
//! Everything here is pure data-flow over sorted structures: signals
//! arrive merged by [`RunKey`] (the engine observer feeds them back in
//! scheduling order; the caller re-merges), widen candidates are
//! processed in key order, and equivalence classes live in a `BTreeSet` —
//! so the selected run set is byte-identical across `--jobs` values and
//! resume splits.

use crate::plan::{InjectionRun, RunKey};
use std::collections::{BTreeMap, BTreeSet};
use wasabi_analysis::loops::RetryLocation;
use wasabi_lang::project::CallSite;
use wasabi_util::rng::fnv1a64;

/// The K the probe wave executes: the largest planned K (the cap-oracle
/// workhorse).
pub fn probe_k(ks: &[u32]) -> u32 {
    ks.iter().copied().max().unwrap_or(0)
}

/// A plan split into the two adaptive waves, both in key order.
#[derive(Debug, Clone, Default)]
pub struct AdaptivePlan {
    /// Wave 1: every group's max-K run.
    pub probe: Vec<InjectionRun>,
    /// Wave 2 candidates: every other K, subject to
    /// [`select_widen_runs`].
    pub widen: Vec<InjectionRun>,
}

/// Splits a key-sorted expansion into probe and widen waves.
pub fn split_waves(runs: Vec<InjectionRun>, probe_k: u32) -> AdaptivePlan {
    let mut plan = AdaptivePlan::default();
    for run in runs {
        if run.spec.k == probe_k {
            plan.probe.push(run);
        } else {
            plan.widen.push(run);
        }
    }
    plan
}

/// The structure key of each site, for equivalence-class bucketing. When
/// several locations share a site they share a structure, so the first
/// wins.
pub fn site_structures(locations: &[RetryLocation]) -> BTreeMap<CallSite, String> {
    let mut structures = BTreeMap::new();
    for location in locations {
        structures
            .entry(location.site)
            .or_insert_with(|| location.structure_key());
    }
    structures
}

/// What a probe run observed, reduced to plain data (the planner has no
/// engine dependency; `wasabi-core` converts each `RunRecord` into one of
/// these as the observer feeds records back).
#[derive(Debug, Clone, Default)]
pub struct ProbeSignal {
    /// Stable outcome kind string (`"passed"`, `"exception_escaped"`,
    /// `"crashed"`, ... — the journal/trace vocabulary).
    pub outcome_kind: String,
    /// The escaped exception's crash key (`type@frame>frame`), or the
    /// assertion/fault message; empty when neither applies.
    pub crash_detail: String,
    /// The run was filtered as a correct give-up rethrow.
    pub rethrow_filtered: bool,
    /// The run evidenced a misidentified trigger.
    pub not_a_trigger: bool,
    /// Faults injected.
    pub injections: u32,
    /// `(kind, dedup_key)` of every oracle report the run produced, in
    /// report order.
    pub reports: Vec<(String, String)>,
}

impl ProbeSignal {
    /// Whether the probe decided everything the remaining (smaller) K
    /// values could ever contribute:
    ///
    /// - `passed` — the test survived max-K injections, so it survives
    ///   one; the different-exception oracle (which only reports from
    ///   K=1 runs) has nothing to find.
    /// - `rethrow_filtered` — the structure gave up correctly by
    ///   rethrowing the injected type; correct give-up at max K is
    ///   correct give-up at K=1.
    /// - `not_a_trigger` — the site is not actually a retry trigger;
    ///   no K changes that.
    /// - zero injections — the fault never fired, so smaller K values
    ///   are byte-identical baseline runs.
    ///
    /// Everything else (a different exception type escaped, an assertion
    /// failed, virtual timeout, engine crash) is inconclusive: the HOW
    /// oracle may still speak at K=1, so the widen wave runs. A crash is
    /// inconclusive even though it records zero injections: the run never
    /// got far enough to show what injection does.
    pub fn conclusive(&self) -> bool {
        self.outcome_kind != "crashed"
            && (self.outcome_kind == "passed"
                || self.rethrow_filtered
                || self.not_a_trigger
                || self.injections == 0)
    }

    /// FNV-1a fingerprint of the probe's observable behaviour. Includes
    /// every report's `(kind, dedup_key)` and the crash detail, so two
    /// probes witnessing *different* bugs can never share a fingerprint —
    /// which is what makes class-based dedup sole-witness-safe by
    /// construction.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = Vec::new();
        buf.extend_from_slice(self.outcome_kind.as_bytes());
        buf.push(0);
        buf.extend_from_slice(self.crash_detail.as_bytes());
        buf.push(0);
        buf.push(u8::from(self.rethrow_filtered));
        buf.push(u8::from(self.not_a_trigger));
        buf.extend_from_slice(&self.injections.to_le_bytes());
        let mut reports: Vec<&(String, String)> = self.reports.iter().collect();
        reports.sort();
        for (kind, dedup) in reports {
            buf.extend_from_slice(kind.as_bytes());
            buf.push(0);
            buf.extend_from_slice(dedup.as_bytes());
            buf.push(0);
        }
        fnv1a64([buf.as_slice()])
    }
}

/// The widen wave after probe-driven selection, plus why candidates were
/// dropped.
#[derive(Debug, Clone, Default)]
pub struct WidenSelection {
    /// Runs to execute, in key order.
    pub runs: Vec<InjectionRun>,
    /// Candidates skipped because their probe was conclusive.
    pub skipped_conclusive: usize,
    /// Candidates skipped because an earlier group (in key order) already
    /// exhibited the same `(structure, fingerprint)` equivalence class.
    pub skipped_dedup: usize,
    /// Distinct inconclusive equivalence classes observed.
    pub classes: usize,
}

/// Selects which widen candidates actually execute.
///
/// Candidates are processed in key order. Each group's probe signal is
/// looked up under the probe key (`same (test, site, exception)`,
/// `k = probe_k`); a conclusive probe drops the group, an inconclusive
/// one executes **iff** its `(structure_key, fingerprint)` equivalence
/// class has not been claimed by an earlier group. A group with no probe
/// signal at all executes unconditionally — missing feedback must degrade
/// to the fixed grid, never to silence.
pub fn select_widen_runs(
    widen: Vec<InjectionRun>,
    probe_k: u32,
    signals: &BTreeMap<RunKey, ProbeSignal>,
    structures: &BTreeMap<CallSite, String>,
) -> WidenSelection {
    #[derive(Clone, Copy, PartialEq)]
    enum Decision {
        Keep,
        Conclusive,
        Dedup,
    }
    let mut seen: BTreeSet<(String, u64)> = BTreeSet::new();
    let mut decided: BTreeMap<RunKey, Decision> = BTreeMap::new();
    let mut selection = WidenSelection::default();
    for run in widen {
        let key = run.key();
        let probe_key = RunKey {
            k: probe_k,
            ..key.clone()
        };
        let decision = match decided.get(&probe_key) {
            Some(&d) => d,
            None => {
                let d = match signals.get(&probe_key) {
                    None => Decision::Keep,
                    Some(signal) if signal.conclusive() => Decision::Conclusive,
                    Some(signal) => {
                        let structure = structures
                            .get(&key.site)
                            .cloned()
                            .unwrap_or_else(|| key.site.to_string());
                        if seen.insert((structure, signal.fingerprint())) {
                            Decision::Keep
                        } else {
                            Decision::Dedup
                        }
                    }
                };
                decided.insert(probe_key, d);
                d
            }
        };
        match decision {
            Decision::Keep => selection.runs.push(run),
            Decision::Conclusive => selection.skipped_conclusive += 1,
            Decision::Dedup => selection.skipped_dedup += 1,
        }
    }
    selection.classes = seen.len();
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasabi_analysis::loops::Mechanism;
    use wasabi_inject::InjectionSpec;
    use wasabi_lang::ast::{CallId, LoopId};
    use wasabi_lang::project::{FileId, MethodId};

    fn site(call: u32) -> CallSite {
        CallSite {
            file: FileId(0),
            call: CallId(call),
        }
    }

    fn location(call: u32, exception: &str) -> RetryLocation {
        RetryLocation {
            site: site(call),
            coordinator: MethodId::new("C", "run"),
            retried: MethodId::new("C", "op"),
            exception: exception.to_string(),
            mechanism: Mechanism::Loop(LoopId(call)),
        }
    }

    fn run(test: &str, call: u32, exception: &str, k: u32) -> InjectionRun {
        InjectionRun {
            test: MethodId::new("T", test),
            spec: InjectionSpec::new(location(call, exception), k),
        }
    }

    fn signal(kind: &str, detail: &str) -> ProbeSignal {
        ProbeSignal {
            outcome_kind: kind.to_string(),
            crash_detail: detail.to_string(),
            injections: 3,
            ..ProbeSignal::default()
        }
    }

    #[test]
    fn probe_k_is_max() {
        assert_eq!(probe_k(&[1, 100]), 100);
        assert_eq!(probe_k(&[7]), 7);
        assert_eq!(probe_k(&[]), 0);
    }

    #[test]
    fn split_waves_partitions_by_k() {
        let runs = vec![run("t", 1, "E", 1), run("t", 1, "E", 100), run("t", 2, "E", 1)];
        let plan = split_waves(runs, 100);
        assert_eq!(plan.probe.len(), 1);
        assert_eq!(plan.widen.len(), 2);
    }

    #[test]
    fn conclusive_signals() {
        assert!(signal("passed", "").conclusive());
        let mut s = signal("crashed", "interpreter bug");
        s.injections = 0;
        assert!(!s.conclusive(), "a crash always re-probes");
        let mut s = signal("exception_escaped", "E@C.run");
        assert!(!s.conclusive());
        s.rethrow_filtered = true;
        assert!(s.conclusive());
        let mut s = signal("timeout", "");
        assert!(!s.conclusive());
        s.injections = 0;
        assert!(s.conclusive(), "no injections fired: baseline behaviour");
        assert!(!signal("assertion_failed", "boom").conclusive());
    }

    #[test]
    fn fingerprint_separates_distinct_bugs() {
        let a = signal("exception_escaped", "Wrapped@C.run>C.op");
        let b = signal("exception_escaped", "Other@C.run>C.op");
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut with_report = a.clone();
        with_report
            .reports
            .push(("missing_cap".into(), "f0:0".into()));
        assert_ne!(a.fingerprint(), with_report.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_report_order() {
        let mut a = signal("passed", "");
        a.reports.push(("missing_cap".into(), "k1".into()));
        a.reports.push(("missing_delay".into(), "k2".into()));
        let mut b = signal("passed", "");
        b.reports.push(("missing_delay".into(), "k2".into()));
        b.reports.push(("missing_cap".into(), "k1".into()));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn selection_drops_conclusive_keeps_inconclusive() {
        let widen = vec![run("t1", 1, "E", 1), run("t2", 2, "E", 1)];
        let mut signals = BTreeMap::new();
        signals.insert(run("t1", 1, "E", 100).key(), signal("passed", ""));
        signals.insert(
            run("t2", 2, "E", 100).key(),
            signal("exception_escaped", "Wrapped@C.run"),
        );
        let structures = site_structures(&[location(1, "E"), location(2, "E")]);
        let sel = select_widen_runs(widen, 100, &signals, &structures);
        assert_eq!(sel.runs.len(), 1);
        assert_eq!(sel.runs[0].key().site, site(2));
        assert_eq!(sel.skipped_conclusive, 1);
        assert_eq!(sel.skipped_dedup, 0);
        assert_eq!(sel.classes, 1);
    }

    #[test]
    fn selection_dedups_same_class_but_never_distinct_details() {
        // Three inconclusive groups in three structures... two share the
        // exact same fingerprint *and* structure? No — structures differ
        // per site here, so nothing dedups.
        let widen = vec![
            run("t1", 1, "E", 1),
            run("t2", 2, "E", 1),
            run("t3", 3, "E", 1),
        ];
        let mut signals = BTreeMap::new();
        for (t, c) in [("t1", 1), ("t2", 2), ("t3", 3)] {
            signals.insert(run(t, c, "E", 100).key(), signal("exception_escaped", "W@C"));
        }
        let structures = site_structures(&[location(1, "E"), location(2, "E"), location(3, "E")]);
        let sel = select_widen_runs(widen.clone(), 100, &signals, &structures);
        assert_eq!(sel.runs.len(), 3, "distinct structures never collapse");

        // Same structure for all three sites: later groups dedup.
        let mut shared = BTreeMap::new();
        for c in [1, 2, 3] {
            shared.insert(site(c), "s:shared".to_string());
        }
        let sel = select_widen_runs(widen, 100, &signals, &shared);
        assert_eq!(sel.runs.len(), 1, "one witness per equivalence class");
        assert_eq!(sel.skipped_dedup, 2);
        assert_eq!(sel.classes, 1);
    }

    #[test]
    fn missing_signal_degrades_to_fixed_grid() {
        let widen = vec![run("t1", 1, "E", 1)];
        let sel = select_widen_runs(widen, 100, &BTreeMap::new(), &BTreeMap::new());
        assert_eq!(sel.runs.len(), 1);
    }
}
