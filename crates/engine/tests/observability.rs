//! Observability integration tests: the metrics layer's determinism
//! contract across worker counts, and observer fan-out (the metrics
//! recorder must compose with the reporting observers without changing
//! what either sees).

use std::collections::BTreeSet;
use std::time::Duration;
use wasabi_analysis::loops::{all_retry_locations, LoopQueryOptions};
use wasabi_analysis::resolve::ProjectIndex;
use wasabi_engine::campaign::{run_campaign, CampaignOptions, ChaosConfig};
use wasabi_engine::{MetricsObserver, StderrProgress, Tee};
use wasabi_lang::project::Project;
use wasabi_planner::coverage::profile_coverage;
use wasabi_planner::plan::{expand_plan, plan, InjectionRun};
use wasabi_util::backoff::Policy;
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

fn campaign_fixture() -> (Project, Vec<InjectionRun>) {
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
    let runs = expand_plan(&test_plan, &locations, &[1, 100]);
    (project, runs)
}

/// Chaos at 30% (seeded, so identical draws at any worker count) makes
/// the fixture cover crashes, retries, and quarantine — the records the
/// deterministic histograms must agree on.
fn options(jobs: usize) -> CampaignOptions {
    CampaignOptions {
        jobs,
        retry: Policy {
            attempts: 3,
            base: Duration::from_millis(1),
            ..Policy::ENGINE
        },
        chaos: Some(ChaosConfig::panics(0.3, 99)),
        ..CampaignOptions::default()
    }
}

/// A run span with its scheduling-dependent fields (timing, worker,
/// clock-relative edges) stripped — the part of the span set that must
/// be identical across worker counts.
fn stripped_spans(recorder: &MetricsObserver) -> Vec<(String, String, u8, u32, u64, usize)> {
    let mut spans: Vec<_> = recorder
        .runs()
        .iter()
        .map(|span| {
            (
                span.key_string(),
                span.outcome.clone(),
                span.attempts,
                span.injections,
                span.steps,
                span.reports,
            )
        })
        .collect();
    spans.sort();
    spans
}

#[test]
fn metrics_and_spans_identical_across_worker_counts() {
    let (project, runs) = campaign_fixture();
    assert!(runs.len() >= 4, "fixture plans 2 locations x 2 K values");
    let mut serial_recorder = MetricsObserver::new();
    let serial = run_campaign(&project, &runs, &options(1), &mut serial_recorder);
    let mut parallel_recorder = MetricsObserver::new();
    let parallel = run_campaign(&project, &runs, &options(4), &mut parallel_recorder);

    // The deterministic histograms merge to bit-identical values.
    for ((name, a), (_, b)) in serial
        .metrics
        .deterministic()
        .iter()
        .zip(parallel.metrics.deterministic())
    {
        assert_eq!(**a, *b, "histogram `{name}` differs between jobs=1 and jobs=4");
    }
    // Host-timing histograms are scheduling-dependent, but every record
    // contributes exactly one sample, so the counts still agree.
    for ((name, a), (_, b)) in serial.metrics.timing().iter().zip(parallel.metrics.timing()) {
        assert_eq!(
            a.count(),
            b.count(),
            "timing histogram `{name}` sample count differs"
        );
    }
    // The span sets agree modulo timing fields and worker assignment.
    assert_eq!(stripped_spans(&serial_recorder), stripped_spans(&parallel_recorder));
    assert_eq!(
        serial_recorder.runs().len(),
        runs.len(),
        "one closed span per planned run"
    );
}

#[test]
fn metrics_observer_composes_with_stderr_progress() {
    let (project, runs) = campaign_fixture();
    let mut recorder = MetricsObserver::new();
    let mut progress = StderrProgress::new(usize::MAX);
    let mut tee = Tee {
        first: &mut progress,
        second: &mut recorder,
    };
    let result = run_campaign(&project, &runs, &options(2), &mut tee);
    // The recorder saw the full event stream: every record's span closed,
    // and the Finished stats/metrics match what the campaign returned.
    assert_eq!(recorder.runs().len(), result.records.len());
    let stats = recorder.stats().expect("Finished event delivers stats");
    assert_eq!(stats.runs_total, result.stats.runs_total);
    let metrics = recorder.metrics().expect("Finished event delivers metrics");
    assert_eq!(metrics.steps.count(), result.metrics.steps.count());
    assert_eq!(metrics.attempts.sum(), result.metrics.attempts.sum());
}

#[cfg(feature = "json-reports")]
#[test]
fn metrics_observer_composes_with_json_summary_sink() {
    use wasabi_engine::JsonSummarySink;
    let (project, runs) = campaign_fixture();
    let mut recorder = MetricsObserver::new();
    let mut sink = JsonSummarySink::new();
    let mut tee = Tee {
        first: &mut sink,
        second: &mut recorder,
    };
    let result = run_campaign(&project, &runs, &options(2), &mut tee);
    let summary = sink.summary().expect("summary after Finished").to_string();
    assert!(summary.contains("\"metrics\""), "summary carries the metrics block");
    assert!(summary.contains("\"steps\""));
    assert_eq!(recorder.runs().len(), result.records.len());
}
