//! The dynamic testing workflow (§3.1, Figure 1): config restoration →
//! coverage profiling → planning → fault injection → oracles → dedup.
//!
//! Campaign execution (step 4) is delegated to `wasabi-engine`: serial
//! execution is simply `jobs = 1` through the engine's worker pool, and
//! any other `jobs` value produces byte-identical reports thanks to the
//! engine's key-ordered merge.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use wasabi_analysis::loops::RetryLocation;
use wasabi_engine::campaign::{
    run_campaign, CampaignOptions, CampaignResult, CampaignStats, RunOutcome, RunRecord,
};
use wasabi_engine::observer::{outcome_kind, EngineEvent, EngineObserver, NullObserver};
use wasabi_lang::project::Project;
use wasabi_oracles::dedup::{dedup_reports, DistinctBug};
use wasabi_oracles::judge::OracleReport;
use wasabi_planner::adaptive::{self, ProbeSignal};
use wasabi_planner::configfix::{restore_retry_configs, ConfigRestoration};
use wasabi_planner::coverage::{prefilter_suite, profile_tests, site_set, CoverageProfile};
use wasabi_planner::plan::{expand_plan, naive_run_count, plan, InjectionRun, RunKey, TestPlan};
use wasabi_vm::runner::RunOptions;
use wasabi_vm::trace::TestOutcome;

/// The injection budgets every campaign expands its plan with: the
/// paper's K = 1 and K = 100.
const KS: [u32; 2] = [1, 100];

/// Options for the dynamic workflow.
#[derive(Debug, Clone)]
pub struct DynamicOptions {
    /// Per-test run options (limits; pinned configs are filled in by the
    /// restoration pass).
    pub run_options: RunOptions,
    /// Campaign worker count; 1 (the default) runs serially.
    pub jobs: usize,
    /// Journal completed runs to this path for checkpoint/resume.
    pub journal: Option<PathBuf>,
    /// Records recovered from a previous journal (`--resume`); their keys
    /// are skipped and the old records merged back in key order.
    pub resume_records: Vec<RunRecord>,
    /// Exit the process after this many journal appends (see
    /// [`CampaignOptions::chaos_exit_after`]): the crash point the shard
    /// supervisor's tests and CI stage kill a child at. `None` in normal
    /// operation.
    pub chaos_exit_after: Option<u64>,
    /// Capture per-run host timings (see
    /// [`CampaignOptions::capture_timing`]). On by default; callers that
    /// do not record traces turn it off to keep the hot loop clock-free.
    pub capture_timing: bool,
    /// Execute only the runs whose *sorted-key index* falls in
    /// `[start, end)` of the full plan — a shard child's slice. The plan
    /// itself is derived identically in every process (same sources, same
    /// expansion, same sort), so `--shard-range` alone pins the slice.
    pub shard_range: Option<(usize, usize)>,
    /// Coverage-guided adaptive execution (`--adaptive`): keep the fixed
    /// grid's `{test, site, exception}` pairing but run it in two waves —
    /// a max-K probe per group, then the remaining K values only where
    /// the probe was inconclusive and not already explained by an
    /// equivalence class seen earlier in key order (see
    /// [`wasabi_planner::adaptive`]). Mutually exclusive with
    /// `shard_range` (shard slices index the *fixed* grid; the CLI
    /// refuses the combination and this module ignores `adaptive` when a
    /// shard range is set).
    pub adaptive: bool,
}

impl Default for DynamicOptions {
    fn default() -> Self {
        DynamicOptions {
            run_options: RunOptions::default(),
            jobs: 1,
            journal: None,
            resume_records: Vec::new(),
            chaos_exit_after: None,
            capture_timing: true,
            shard_range: None,
            adaptive: false,
        }
    }
}

/// How the adaptive planner spent (and saved) its run budget; `None` in
/// [`DynamicResult::adaptive`] when the campaign ran the fixed grid.
/// Never report-bearing: the JSON report's `runs_planned` is the executed
/// count, and everything else here goes to stderr/bench output only.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveSummary {
    /// Wave-1 runs (one max-K probe per `{test, site, exception}` group).
    pub probe_runs: usize,
    /// Wave-2 candidates before selection (the fixed grid minus probes).
    pub widen_candidates: usize,
    /// Wave-2 runs actually executed.
    pub widen_executed: usize,
    /// Candidates skipped because their probe was conclusive.
    pub skipped_conclusive: usize,
    /// Candidates skipped as duplicates of an already-probed
    /// `(structure, fingerprint)` equivalence class.
    pub skipped_dedup: usize,
    /// Distinct inconclusive equivalence classes observed.
    pub classes: usize,
}

impl AdaptiveSummary {
    /// Total runs the adaptive campaign executed (the report's
    /// `runs_planned` when adaptive is on).
    pub fn executed(&self) -> usize {
        self.probe_runs + self.widen_executed
    }
}

/// Aggregate statistics over all injected runs (feeds §4.4).
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicStats {
    /// Total injected test runs executed.
    pub runs_executed: usize,
    /// Runs that crashed by re-throwing the injected exception (filtered by
    /// the different-exception oracle as correct give-up behaviour).
    pub rethrow_filtered: usize,
    /// Runs where the injected exception escaped untouched (the location
    /// was not actually a retry trigger — analysis inaccuracy, §3.1.1).
    pub not_a_trigger: usize,
    /// Runs whose test finished with a non-pass outcome (assertion
    /// failure, escaped exception, exhausted limits). Engine-level panics
    /// are counted separately in [`CampaignStats::crashed`].
    pub crashed: usize,
    /// Total virtual milliseconds across injected runs.
    pub virtual_ms: u64,
}

impl From<&CampaignStats> for DynamicStats {
    fn from(campaign: &CampaignStats) -> Self {
        DynamicStats {
            runs_executed: campaign.runs_total,
            rethrow_filtered: campaign.rethrow_filtered,
            not_a_trigger: campaign.not_a_trigger,
            crashed: campaign.failed,
            virtual_ms: campaign.virtual_ms,
        }
    }
}

/// The result of the dynamic workflow on one project.
#[derive(Debug)]
pub struct DynamicResult {
    /// Config keys pinned back to defaults.
    pub restoration: ConfigRestoration,
    /// The coverage profile from the profiling pass.
    pub profile: CoverageProfile,
    /// The injection plan.
    pub plan: TestPlan,
    /// Number of injected runs with planning.
    pub runs_planned: usize,
    /// Number of runs a naive (unplanned) campaign would need.
    pub runs_naive: usize,
    /// Raw oracle reports from all runs.
    pub reports: Vec<OracleReport>,
    /// Distinct bugs after deduplication.
    pub bugs: Vec<DistinctBug>,
    /// Run statistics.
    pub stats: DynamicStats,
    /// Structure keys (see [`RetryLocation::structure_key`]) covered by the
    /// plan — the Table 5 "tested" measure.
    pub tested_structures: BTreeSet<String>,
    /// The engine's campaign statistics (includes per-worker utilization).
    pub campaign: CampaignStats,
    /// Adaptive-planner accounting, when [`DynamicOptions::adaptive`] was
    /// in effect.
    pub adaptive: Option<AdaptiveSummary>,
}

/// Runs the full dynamic workflow without progress reporting.
pub fn run_dynamic(
    project: &Project,
    locations: &[RetryLocation],
    options: &DynamicOptions,
) -> DynamicResult {
    run_dynamic_with_observer(project, locations, options, &mut NullObserver)
}

/// The front half of the pipeline — restore, profile, plan — shared by a
/// normal campaign, a shard parent (which partitions the sorted runs and
/// never executes them itself), and `wasabi merge` (which re-derives the
/// expected key sequence from the same sources).
pub struct PreparedCampaign {
    /// Config keys pinned back to defaults.
    pub restoration: ConfigRestoration,
    /// Run options with the pinned configs applied.
    pub run_options: RunOptions,
    /// The coverage profile.
    pub profile: CoverageProfile,
    /// The `{test, location}` plan.
    pub test_plan: TestPlan,
    /// The expanded runs, **sorted by key** — index `i` here is the run
    /// index shard ranges speak about.
    pub runs: Vec<wasabi_planner::plan::InjectionRun>,
    /// What a naive (unplanned) campaign would cost.
    pub runs_naive: usize,
}

/// Restores configs, profiles coverage, and expands the key-sorted plan,
/// bracketing each step with phase events. The project's index is built
/// here, on the caller, if nothing has built it yet: the profile and the
/// campaign read it from their workers.
pub fn prepare_campaign(
    project: &Project,
    locations: &[RetryLocation],
    options: &DynamicOptions,
    observer: &mut dyn EngineObserver,
) -> PreparedCampaign {
    project.index();
    let phase = |name: &'static str, observer: &mut dyn EngineObserver| {
        observer.on_event(&EngineEvent::PhaseStarted { name });
        name
    };
    let close = |name: &'static str, observer: &mut dyn EngineObserver| {
        observer.on_event(&EngineEvent::PhaseFinished { name });
    };

    // 1. Restore default retry configurations (§3.1.4).
    let name = phase("restore", observer);
    let restoration = restore_retry_configs(project);
    let mut run_options = options.run_options.clone();
    run_options.pinned_configs = restoration.pinned.clone();
    close(name, observer);

    // 2. Profile which test covers which retry location (see
    //    `profile_suite`).
    let name = phase("profile", observer);
    let profile = profile_suite(project, locations, &run_options, options.jobs, observer);
    close(name, observer);

    // 3. Plan one {test, location} pair per coverable location, and pin
    //    the key order here — shard ranges and the merge walk this exact
    //    sequence (the engine re-sorts identically anyway).
    let name = phase("plan", observer);
    let all_sites: BTreeSet<_> = locations.iter().map(|l| l.site).collect();
    let test_plan = plan(&profile, &all_sites);
    let mut runs = expand_plan(&test_plan, locations, &KS);
    runs.sort_by_key(|run| run.key());
    let runs_naive = naive_run_count(&profile, locations, &KS);
    close(name, observer);

    PreparedCampaign {
        restoration,
        run_options,
        profile,
        test_plan,
        runs,
        runs_naive,
    }
}

/// The profiling pass as two traced steps: listing the suite and
/// the static reachability prefilter (`profile.prefilter`), then one
/// instrumented baseline execution of every surviving test
/// (`profile.baseline-exec`). Baseline runs are independent, so they
/// parallelize across the same worker count as the campaign
/// (byte-identical merge; see [`profile_tests`]).
fn profile_suite(
    project: &Project,
    locations: &[RetryLocation],
    run_options: &RunOptions,
    jobs: usize,
    observer: &mut dyn EngineObserver,
) -> CoverageProfile {
    observer.on_event(&EngineEvent::StepStarted {
        name: "profile.prefilter",
    });
    let sites = site_set(locations);
    let suite = project.tests();
    let tests_total = suite.len();
    let tests = prefilter_suite(project, &sites, suite);
    observer.on_event(&EngineEvent::StepFinished {
        name: "profile.prefilter",
    });
    observer.on_event(&EngineEvent::StepStarted {
        name: "profile.baseline-exec",
    });
    let profile = profile_tests(project, &sites, &tests, tests_total, run_options, jobs);
    observer.on_event(&EngineEvent::StepFinished {
        name: "profile.baseline-exec",
    });
    profile
}

/// Runs the full dynamic workflow, sending campaign progress events to
/// `observer` (e.g. [`wasabi_engine::StderrProgress`]).
pub fn run_dynamic_with_observer(
    project: &Project,
    locations: &[RetryLocation],
    options: &DynamicOptions,
    observer: &mut dyn EngineObserver,
) -> DynamicResult {
    // Each pipeline step is bracketed by phase events so a metrics
    // observer (`--trace-out`, the `examples/perf` benchmark) can
    // attribute wall time to phases; the phase sum tiles the whole
    // pipeline.
    let phase = |name: &'static str, observer: &mut dyn EngineObserver| {
        observer.on_event(&EngineEvent::PhaseStarted { name });
        name
    };
    let close = |name: &'static str, observer: &mut dyn EngineObserver| {
        observer.on_event(&EngineEvent::PhaseFinished { name });
    };

    let prepared = prepare_campaign(project, locations, options, observer);
    let PreparedCampaign {
        restoration,
        run_options,
        profile,
        test_plan,
        mut runs,
        runs_naive,
    } = prepared;

    // A shard child executes only its slice of the sorted plan; everyone
    // derives the identical full plan first, so `[start, end)` means the
    // same runs in every process.
    if let Some((start, end)) = options.shard_range {
        let end = end.min(runs.len());
        let start = start.min(end);
        runs = runs[start..end].to_vec();
    }

    // 4. Hand the campaign to the engine: workers, isolation, and the
    //    deterministic key-ordered merge all live there.
    let campaign_options = CampaignOptions {
        jobs: options.jobs,
        run_options,
        chaos_exit_after: options.chaos_exit_after,
        journal: options.journal.clone(),
        resume: options.resume_records.clone(),
        capture_timing: options.capture_timing,
    };
    let name = phase("run", observer);
    let (campaign, adaptive_summary) = if options.adaptive && options.shard_range.is_none() {
        let (campaign, summary) = run_adaptive_campaign(
            project,
            &runs,
            locations,
            &campaign_options,
            &options.resume_records,
            observer,
        );
        (campaign, Some(summary))
    } else {
        (
            run_campaign(project, &runs, &campaign_options, observer),
            None,
        )
    };
    close(name, observer);

    let name = phase("report", observer);
    let tested_structures: BTreeSet<String> = runs
        .iter()
        .map(|run| run.spec.location.structure_key())
        .collect();
    let stats = DynamicStats::from(&campaign.stats);
    // Collect oracle reports in key order, the order of the records.
    let mut reports = Vec::new();
    for record in &campaign.records {
        if matches!(record.outcome, RunOutcome::Crashed { .. }) {
            continue;
        }
        reports.extend(record.reports.iter().cloned());
    }

    let bugs = dedup_reports(reports.clone());
    close(name, observer);
    DynamicResult {
        restoration,
        profile,
        // Adaptive mode reports the runs it *executed* (probe + selected
        // widen), which is what the fixed-vs-adaptive budget comparison
        // measures; the fixed grid reports its (possibly sharded) length.
        runs_planned: adaptive_summary.map_or(runs.len(), |s| s.executed()),
        runs_naive,
        plan: test_plan,
        reports,
        bugs,
        stats,
        tested_structures,
        campaign: campaign.stats,
        adaptive: adaptive_summary,
    }
}

/// Converts a completed engine record into the planner's probe signal —
/// the feedback that drives widen-wave selection.
fn probe_signal(record: &RunRecord) -> ProbeSignal {
    let crash_detail = match &record.outcome {
        RunOutcome::Completed(TestOutcome::ExceptionEscaped { exc }) => exc.crash_key(),
        RunOutcome::Completed(TestOutcome::AssertionFailed { message })
        | RunOutcome::Completed(TestOutcome::VmFault { message }) => message.clone(),
        RunOutcome::Crashed { message } => message.clone(),
        _ => String::new(),
    };
    ProbeSignal {
        outcome_kind: outcome_kind(&record.outcome).to_string(),
        crash_detail,
        rethrow_filtered: record.rethrow_filtered,
        not_a_trigger: record.not_a_trigger,
        injections: record.injections,
        reports: record
            .reports
            .iter()
            .map(|r| (r.kind.to_string(), r.dedup_key.clone()))
            .collect(),
    }
}

/// Per-wave observer shim: collects `RunFinished` feedback into the
/// signal registry (re-merged by key — arrival order is
/// scheduling-dependent) and swallows each wave's `Finished` event so the
/// caller can emit a single merged one.
struct AdaptiveWaveObserver<'a> {
    inner: &'a mut dyn EngineObserver,
    signals: &'a mut BTreeMap<RunKey, ProbeSignal>,
}

impl EngineObserver for AdaptiveWaveObserver<'_> {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        match event {
            EngineEvent::RunFinished { record, .. } => {
                self.signals
                    .insert(record.key.clone(), probe_signal(record));
                self.inner.on_event(event);
            }
            EngineEvent::Finished { .. } => {}
            _ => self.inner.on_event(event),
        }
    }
}

/// Elementwise merge of two waves' campaign statistics into one
/// campaign's worth: counters add, worker utilization adds slot-wise,
/// the worker count takes the max.
fn merge_stats(first: CampaignStats, second: &CampaignStats) -> CampaignStats {
    let mut stats = first;
    stats.runs_total += second.runs_total;
    stats.completed += second.completed;
    stats.failed += second.failed;
    stats.crashed += second.crashed;
    stats.rethrow_filtered += second.rethrow_filtered;
    stats.not_a_trigger += second.not_a_trigger;
    stats.reports += second.reports;
    stats.injections += second.injections;
    stats.virtual_ms += second.virtual_ms;
    stats.steps += second.steps;
    stats.jobs = stats.jobs.max(second.jobs);
    if stats.worker_runs.len() < second.worker_runs.len() {
        stats.worker_runs.resize(second.worker_runs.len(), 0);
    }
    for (slot, runs) in second.worker_runs.iter().enumerate() {
        stats.worker_runs[slot] += runs;
    }
    stats.resumed += second.resumed;
    stats.wall_ms += second.wall_ms;
    stats
}

/// Executes the adaptive two-wave campaign (see
/// [`wasabi_planner::adaptive`] for the selection semantics) and merges
/// the waves into one campaign result: records re-sorted by key, stats
/// added elementwise, and exactly one `Finished` event emitted with the
/// merged stats.
///
/// Resume records are split by K: probe-wave records (`k == probe_k`)
/// prefill wave 1 *and* feed the signal registry directly — prefilled
/// records never re-execute, so no `RunFinished` event ever fires for
/// them — while the rest prefill wave 2 (keys outside the selected widen
/// set are ignored by the engine, exactly like any other stale resume
/// key). Since resumed records are byte-identical to the executed runs
/// they replace, the widen selection — and therefore the report — is
/// byte-identical across a resume split.
fn run_adaptive_campaign(
    project: &Project,
    runs: &[InjectionRun],
    locations: &[RetryLocation],
    base: &CampaignOptions,
    resume: &[RunRecord],
    observer: &mut dyn EngineObserver,
) -> (CampaignResult, AdaptiveSummary) {
    let kmax = adaptive::probe_k(&KS);
    let plan = adaptive::split_waves(runs.to_vec(), kmax);
    let structures = adaptive::site_structures(locations);

    let mut signals: BTreeMap<RunKey, ProbeSignal> = BTreeMap::new();
    let mut probe_resume = Vec::new();
    let mut widen_resume = Vec::new();
    for record in resume {
        if record.key.k == kmax {
            signals.insert(record.key.clone(), probe_signal(record));
            probe_resume.push(record.clone());
        } else {
            widen_resume.push(record.clone());
        }
    }

    // Wave 1: probe every group at max K. Both waves share the journal
    // path (`Journal::open` appends), so checkpoint/resume sees one
    // campaign.
    let mut probe_options = base.clone();
    probe_options.resume = probe_resume;
    let probe_runs = plan.probe.len();
    let wave1 = {
        let mut wave = AdaptiveWaveObserver {
            inner: observer,
            signals: &mut signals,
        };
        run_campaign(project, &plan.probe, &probe_options, &mut wave)
    };

    // Wave 2: the surviving widen candidates.
    let widen_candidates = plan.widen.len();
    let selection = adaptive::select_widen_runs(plan.widen, kmax, &signals, &structures);
    let mut widen_options = base.clone();
    widen_options.resume = widen_resume;
    let wave2 = {
        let mut wave = AdaptiveWaveObserver {
            inner: observer,
            signals: &mut signals,
        };
        run_campaign(project, &selection.runs, &widen_options, &mut wave)
    };

    let mut records = wave1.records;
    records.extend(wave2.records);
    records.sort_by(|a, b| a.key.cmp(&b.key));
    let stats = merge_stats(wave1.stats, &wave2.stats);
    observer.on_event(&EngineEvent::Finished { stats: &stats });

    let summary = AdaptiveSummary {
        probe_runs,
        widen_candidates,
        widen_executed: selection.runs.len(),
        skipped_conclusive: selection.skipped_conclusive,
        skipped_dedup: selection.skipped_dedup,
        classes: selection.classes,
    };
    (CampaignResult { records, stats }, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify::identify;
    use wasabi_llm::simulated::SimulatedLlm;
    use wasabi_oracles::judge::BugKind;

    fn project() -> Project {
        let src = "exception ConnectException;\nexception SocketException;\n\
             class Flaky {\n\
               method op() throws ConnectException { return \"ok\"; }\n\
               // Uncapped, undelayed retry: both WHEN bugs.\n\
               method run() {\n\
                 while (true) {\n\
                   try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
                 }\n\
               }\n\
               test tFlaky() { assert(this.run() == \"ok\"); }\n\
             }\n\
             class Solid {\n\
               field maxAttempts = 4;\n\
               method fetch() throws SocketException { return \"ok\"; }\n\
               method run() {\n\
                 for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
                   try { return this.fetch(); } catch (SocketException e) { sleep(25); }\n\
                 }\n\
                 throw new SocketException(\"giving up\");\n\
               }\n\
               test tSolid() { assert(this.run() == \"ok\"); }\n\
             }";
        Project::compile("t", vec![("t.jav", src)]).unwrap()
    }

    #[test]
    fn end_to_end_dynamic_workflow_finds_when_bugs() {
        let p = project();
        let mut llm = SimulatedLlm::with_seed(5);
        let identified = identify(&p, &mut llm);
        assert!(identified.locations.len() >= 2);
        let result = run_dynamic(&p, &identified.locations, &DynamicOptions::default());
        assert!(result.runs_planned >= 4, "2 locations × 2 K values");
        let kinds: Vec<BugKind> = result.bugs.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&BugKind::MissingCap), "kinds: {kinds:?}");
        assert!(kinds.contains(&BugKind::MissingDelay));
        // The Solid structure is clean: its give-up rethrow is filtered.
        assert!(result.stats.rethrow_filtered >= 1);
        assert_eq!(result.tested_structures.len(), 2);
        // No bug attributed to the clean structure.
        for bug in &result.bugs {
            assert_eq!(
                bug.representative().location.coordinator.class,
                "Flaky",
                "only the flaky structure is buggy"
            );
        }
    }

    #[test]
    fn adaptive_matches_fixed_grid_recall_with_fewer_runs() {
        let p = project();
        let mut llm = SimulatedLlm::with_seed(5);
        let identified = identify(&p, &mut llm);
        let fixed = run_dynamic(&p, &identified.locations, &DynamicOptions::default());
        let adaptive = run_dynamic(
            &p,
            &identified.locations,
            &DynamicOptions {
                adaptive: true,
                ..DynamicOptions::default()
            },
        );
        let bug_keys = |r: &DynamicResult| -> BTreeSet<(BugKind, String)> {
            r.bugs.iter().map(|b| (b.kind, b.key.clone())).collect()
        };
        assert_eq!(
            bug_keys(&fixed),
            bug_keys(&adaptive),
            "adaptive must keep fixed-grid recall"
        );
        assert!(
            adaptive.runs_planned < fixed.runs_planned,
            "adaptive {} vs fixed {}",
            adaptive.runs_planned,
            fixed.runs_planned
        );
        let summary = adaptive.adaptive.expect("adaptive accounting");
        assert_eq!(summary.executed(), adaptive.runs_planned);
        assert_eq!(summary.probe_runs + summary.widen_candidates, fixed.runs_planned);
        // Both seeded structures resolve at the probe: the buggy one
        // passes (capped by K) with WHEN reports, the clean one gives up
        // correctly (rethrow-filtered).
        assert_eq!(summary.skipped_conclusive, summary.widen_candidates);
    }

    #[test]
    fn planning_beats_naive_when_tests_overlap() {
        // Many tests covering the same structure.
        let mut src = String::from(
            "exception E;\n\
             class R {\n\
               method op() throws E { return \"ok\"; }\n\
               method run() {\n\
                 for (var retry = 0; retry < 3; retry = retry + 1) {\n\
                   try { return this.op(); } catch (E e) { sleep(5); }\n\
                 }\n\
                 throw new E(\"giving up\");\n\
               }\n",
        );
        for i in 0..20 {
            src.push_str(&format!(
                "  test t{i:02}() {{ assert(this.run() == \"ok\"); }}\n"
            ));
        }
        src.push_str("}\n");
        let p = Project::compile("t", vec![("r.jav", src)]).unwrap();
        let mut llm = SimulatedLlm::with_seed(5);
        let identified = identify(&p, &mut llm);
        let result = run_dynamic(&p, &identified.locations, &DynamicOptions::default());
        assert!(result.runs_naive >= 10 * result.runs_planned);
        assert!(result.bugs.is_empty(), "clean structure");
    }
}
