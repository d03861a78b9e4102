//! Observability integration tests: the span recorder's determinism
//! contract across worker counts, run spans against the records they
//! stand for, observer fan-out (the recorder must compose with the
//! reporting observers without changing what either sees), and a
//! parallel campaign's journal against its records.

use std::collections::BTreeSet;
use wasabi_analysis::loops::{all_retry_locations, LoopQueryOptions};
use wasabi_analysis::resolve::ProjectIndex;
use wasabi_engine::campaign::{
    run_campaign, CampaignOptions, CampaignResult, RunOutcome, RunRecord,
};
use wasabi_engine::journal::{self, record_to_json};
use wasabi_engine::observer::outcome_kind;
use wasabi_engine::{MetricsObserver, NullObserver, StderrProgress, Tee};
use wasabi_lang::project::Project;
use wasabi_planner::coverage::profile_coverage;
use wasabi_planner::plan::{expand_plan, plan, InjectionRun};
use wasabi_vm::runner::RunOptions;

const SOURCE: &str = "\
exception ConnectException;\nexception SocketException;\n\
class Flaky {\n\
  method op() throws ConnectException { return \"ok\"; }\n\
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
}\n";

fn campaign_fixture(ks: &[u32]) -> (Project, Vec<InjectionRun>) {
    let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
    let index = ProjectIndex::build(&project);
    let locations: Vec<_> = all_retry_locations(&index, &LoopQueryOptions::default())
        .into_iter()
        .flat_map(|(_, locations)| locations)
        .collect();
    let run_options = RunOptions::default();
    let profile = profile_coverage(&project, &locations, &run_options);
    let all_sites: BTreeSet<_> = locations.iter().map(|l| l.site).collect();
    let test_plan = plan(&profile, &all_sites);
    let runs = expand_plan(&test_plan, &locations, ks);
    (project, runs)
}

/// Every third run resumes from a crashed record built here, so the
/// merged records hold crashes next to the executed runs' completions.
fn options(jobs: usize, runs: &[InjectionRun]) -> CampaignOptions {
    let crashed = |run: &InjectionRun| RunRecord {
        key: run.key(),
        outcome: RunOutcome::Crashed {
            message: "interpreter bug".to_string(),
        },
        reports: Vec::new(),
        rethrow_filtered: false,
        not_a_trigger: false,
        virtual_ms: 0,
        steps: 0,
        injections: 0,
    };
    CampaignOptions {
        jobs,
        resume: runs.iter().step_by(3).map(crashed).collect(),
        ..CampaignOptions::default()
    }
}

/// A run span with its scheduling-dependent fields (host timing, worker,
/// clock-relative edges) stripped — the part of the span set that must
/// be identical across worker counts.
fn stripped_spans(recorder: &MetricsObserver) -> Vec<(String, String, u32, u64, usize)> {
    let mut spans: Vec<_> = recorder
        .runs()
        .iter()
        .map(|span| {
            (
                span.key_string(),
                span.outcome.clone(),
                span.injections,
                span.steps,
                span.reports,
            )
        })
        .collect();
    spans.sort();
    spans
}

/// Records as their journal lines.
fn record_lines(records: &[RunRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| record_to_json(r).to_string())
        .collect()
}

/// Checks every run span against the record of the run it stands for:
/// same key, outcome kind, injections, steps and report count.
fn assert_spans_match_records(recorder: &MetricsObserver, result: &CampaignResult) {
    for span in recorder.runs() {
        let record = result
            .records
            .iter()
            .find(|record| {
                let key = &record.key;
                format!("{} @ {} {} K={}", key.test, key.site, key.exception, key.k)
                    == span.key_string()
            })
            .unwrap_or_else(|| panic!("run span has no record: {}", span.key_string()));
        assert_eq!(
            (
                span.outcome.as_str(),
                span.injections,
                span.steps,
                span.reports
            ),
            (
                outcome_kind(&record.outcome),
                record.injections,
                record.steps,
                record.reports.len()
            ),
            "{}",
            span.key_string()
        );
    }
}

#[test]
fn metrics_and_spans_identical_across_worker_counts() {
    let (project, runs) = campaign_fixture(&[1, 100]);
    assert!(runs.len() >= 4, "fixture plans 2 locations x 2 K values");
    let mut serial_recorder = MetricsObserver::new();
    let serial = run_campaign(&project, &runs, &options(1, &runs), &mut serial_recorder);
    let mut parallel_recorder = MetricsObserver::new();
    let parallel = run_campaign(&project, &runs, &options(4, &runs), &mut parallel_recorder);

    // The merged records are identical, field for field.
    assert!(serial.stats.crashed > 0 && serial.stats.completed > 0);
    assert_eq!(
        record_lines(&serial.records),
        record_lines(&parallel.records)
    );
    // The span sets agree modulo timing fields and worker assignment.
    assert_eq!(stripped_spans(&serial_recorder), stripped_spans(&parallel_recorder));
    assert_eq!(
        serial_recorder.runs().len(),
        runs.len() - serial.stats.resumed,
        "one closed span per executed run"
    );
    // Each span says what its run's record says.
    assert_spans_match_records(&serial_recorder, &serial);
    assert_spans_match_records(&parallel_recorder, &parallel);
}

#[test]
fn metrics_observer_composes_with_stderr_progress() {
    let (project, runs) = campaign_fixture(&[1, 100]);
    let mut recorder = MetricsObserver::new();
    let mut progress = StderrProgress::new(usize::MAX);
    let mut tee = Tee {
        first: &mut progress,
        second: &mut recorder,
    };
    let result = run_campaign(&project, &runs, &options(2, &[]), &mut tee);
    // The recorder saw the full event stream: every record's span closed.
    assert_eq!(recorder.runs().len(), result.records.len());
}

/// A journaled `jobs: 2` campaign's journal holds every record, byte-equal
/// to the records the campaign returns (the journal is in completion
/// order, so it is sorted by key first).
#[test]
fn a_parallel_campaign_journals_every_record_it_returns() {
    let (project, runs) = campaign_fixture(&[1, 2, 3, 100]);
    assert!(runs.len() >= 8, "fixture plans 2 locations x 4 K values");
    let path = std::env::temp_dir().join(format!(
        "wasabi-observability-test-{}-journal.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let options = CampaignOptions {
        jobs: 2,
        journal: Some(path.clone()),
        ..CampaignOptions::default()
    };
    let result = run_campaign(&project, &runs, &options, &mut NullObserver);
    assert_eq!(result.records.len(), runs.len());

    let load = journal::load(&path).expect("load journal");
    assert!(!load.dropped_tail);
    let mut journaled = load.records;
    journaled.sort_by(|a, b| a.key.cmp(&b.key));
    assert_eq!(record_lines(&journaled), record_lines(&result.records));
    let _ = std::fs::remove_file(&path);
}
