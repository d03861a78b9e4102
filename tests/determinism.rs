//! Campaign determinism: the dynamic workflow must produce byte-identical
//! results for every `--jobs` value. This is the engine's central contract
//! — parallelism is an implementation detail that must never leak into
//! reports, bug lists, or statistics.

use wasabi::analysis::loops::RetryLocation;
use wasabi::core::dynamic::{run_dynamic, DynamicOptions, DynamicResult};
use wasabi::core::identify::identify;
use wasabi::corpus::spec::{paper_apps, Scale};
use wasabi::corpus::synth::{compile_app, generate_app};
use wasabi::engine::campaign::ChaosConfig;
use wasabi::util::backoff::Policy;
use wasabi::engine::journal;
use wasabi::lang::project::Project;
use wasabi::llm::simulated::SimulatedLlm;

fn hdfs_small() -> (Project, Vec<RetryLocation>) {
    let spec = paper_apps().into_iter().find(|s| s.short == "HD").expect("HD");
    let app = generate_app(&spec, Scale::Small);
    let project = compile_app(&app);
    let mut llm = SimulatedLlm::with_seed(app.spec.seed);
    let identified = identify(&project, &mut llm);
    assert!(!identified.locations.is_empty(), "HDFS has retry locations");
    (project, identified.locations)
}

/// Everything in the result that callers consume, rendered to one string.
/// Scheduling-dependent engine fields (per-worker utilization, wall time,
/// lost workers, resume bookkeeping) are deliberately excluded — they are
/// the only values allowed to vary.
fn render(result: &DynamicResult) -> String {
    format!(
        "reports: {:#?}\nbugs: {:#?}\nstats: {:?}\nplanned: {} naive: {}\ntested: {:?}\n\
         campaign: runs={} completed={} timed_out={} failed={} crashed={} retried={} \
         quarantined={} rethrow={} not_trigger={} reports={} injections={} virtual_ms={}",
        result.reports,
        result.bugs,
        result.stats,
        result.runs_planned,
        result.runs_naive,
        result.tested_structures,
        result.campaign.runs_total,
        result.campaign.completed,
        result.campaign.timed_out,
        result.campaign.failed,
        result.campaign.crashed,
        result.campaign.retried,
        result.campaign.quarantined,
        result.campaign.rethrow_filtered,
        result.campaign.not_a_trigger,
        result.campaign.reports,
        result.campaign.injections,
        result.campaign.virtual_ms,
    )
}

#[test]
fn reports_are_byte_identical_for_any_job_count() {
    let (project, locations) = hdfs_small();
    let run = |jobs: usize| {
        let options = DynamicOptions {
            jobs,
            ..DynamicOptions::default()
        };
        render(&run_dynamic(&project, &locations, &options))
    };
    let serial = run(1);
    assert!(serial.contains("reports:"), "sanity: non-empty render");
    for jobs in [2, 8] {
        let parallel = run(jobs);
        assert_eq!(
            serial, parallel,
            "dynamic workflow diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn timed_out_runs_are_reported_identically_on_every_worker_count() {
    // Corpus tests finish well under WALL_CHECK_INTERVAL steps, so they
    // never reach a deadline check; this project spins >4096 steps before
    // retrying, guaranteeing a zero budget cancels its runs. The quick
    // class stays under the interval and must keep completing.
    let src = "exception ConnectException;\nexception SocketException;\n\
         class Slow {\n\
           method spin() { var i = 0; while (i < 6000) { i = i + 1; } return i; }\n\
           method op() throws ConnectException { return \"ok\"; }\n\
           method run() {\n\
             while (true) {\n\
               try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
             }\n\
           }\n\
           test tSlow() { this.spin(); assert(this.run() == \"ok\"); }\n\
         }\n\
         class Quick {\n\
           field maxAttempts = 4;\n\
           method fetch() throws SocketException { return \"ok\"; }\n\
           method run() {\n\
             for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
               try { return this.fetch(); } catch (SocketException e) { sleep(25); }\n\
             }\n\
             throw new SocketException(\"giving up\");\n\
           }\n\
           test tQuick() { assert(this.run() == \"ok\"); }\n\
         }";
    let project = Project::compile("t", vec![("t.jav", src)]).expect("compile");
    let mut llm = SimulatedLlm::with_seed(5);
    let identified = identify(&project, &mut llm);
    assert!(identified.locations.len() >= 2);
    let run = |jobs: usize| {
        let options = DynamicOptions {
            jobs,
            // A zero budget cancels every run that reaches a deadline
            // check; the resulting timed-out/completed mix must not
            // depend on which worker executed which run.
            run_budget_ms: Some(0),
            ..DynamicOptions::default()
        };
        run_dynamic(&project, &identified.locations, &options)
    };
    let serial = run(1);
    assert!(
        serial.stats.timed_out > 0,
        "zero budget must cancel at least one run (got {:?})",
        serial.stats
    );
    assert!(
        serial.stats.timed_out < serial.stats.runs_executed,
        "short runs still complete (got {:?})",
        serial.stats
    );
    let parallel = run(8);
    assert_eq!(
        render(&serial),
        render(&parallel),
        "timed-out campaign diverged between jobs=1 and jobs=8"
    );
}

#[test]
fn quarantined_chaos_campaign_is_byte_identical_for_any_job_count() {
    // Chaos panics are drawn per (key, attempt), so with a panic rate
    // this high and only two attempts some runs must exhaust the policy
    // and be quarantined. Containment, retry accounting, and quarantine
    // must all merge deterministically regardless of worker count.
    let (project, locations) = hdfs_small();
    let run = |jobs: usize| {
        let options = DynamicOptions {
            jobs,
            retry: Policy {
                attempts: 2,
                base: std::time::Duration::ZERO,
                ..Policy::ENGINE
            },
            chaos: Some(ChaosConfig::panics(0.6, 7)),
            ..DynamicOptions::default()
        };
        run_dynamic(&project, &locations, &options)
    };
    let serial = run(1);
    assert!(
        serial.campaign.crashed > 0 && serial.campaign.quarantined > 0,
        "chaos at 60% with 2 attempts must quarantine something (got {:?})",
        serial.campaign
    );
    assert!(
        serial.campaign.retried > 0,
        "first-attempt panics must be retried"
    );
    for jobs in [2, 8] {
        assert_eq!(
            render(&serial),
            render(&run(jobs)),
            "chaos campaign diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn resumed_campaign_matches_uninterrupted_run_byte_for_byte() {
    let (project, locations) = hdfs_small();
    let mut path = std::env::temp_dir();
    path.push(format!("wasabi-determinism-resume-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let uninterrupted = run_dynamic(
        &project,
        &locations,
        &DynamicOptions {
            journal: Some(path.clone()),
            ..DynamicOptions::default()
        },
    );

    // Simulate a mid-campaign kill: keep the header and the first half of
    // the journal lines, with the last survivor torn mid-write.
    let text = std::fs::read_to_string(&path).expect("journal written");
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert!(lines.len() > 4, "campaign is big enough to cut in half");
    let mut cut: String = lines[..lines.len() / 2].concat();
    cut.truncate(cut.len() - 5);
    std::fs::write(&path, &cut).expect("cut journal");

    let recovered = journal::load_for_resume(&path).expect("recover cut journal");
    assert!(
        !recovered.is_empty() && recovered.len() < uninterrupted.campaign.runs_total,
        "partial recovery: {} of {}",
        recovered.len(),
        uninterrupted.campaign.runs_total
    );
    let resumed_from = recovered.len();
    let resumed = run_dynamic(
        &project,
        &locations,
        &DynamicOptions {
            jobs: 4,
            resume_records: recovered,
            ..DynamicOptions::default()
        },
    );
    let executed: usize =
        resumed.campaign.worker_runs.iter().sum::<usize>() + resumed.campaign.supervisor_runs;
    assert_eq!(
        executed,
        uninterrupted.campaign.runs_total - resumed_from,
        "resume must re-execute strictly fewer runs than the full plan"
    );
    assert_eq!(
        render(&uninterrupted),
        render(&resumed),
        "resumed campaign diverged from the uninterrupted one"
    );
    let _ = std::fs::remove_file(&path);
}
