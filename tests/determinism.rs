//! Campaign determinism: the dynamic workflow must produce byte-identical
//! results for every `--jobs` value. This is the engine's central contract
//! — parallelism is an implementation detail that must never leak into
//! reports, bug lists, or statistics. The front half (parse and LLM sweep)
//! fans out to the machine's cores, and must equally read the same at
//! every width.

mod common;

use common::{ir_debug, widths};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wasabi::analysis::checkers::{lint_project, LintOptions};
use wasabi::analysis::diag::render_json;
use wasabi::core::dynamic::{
    run_dynamic, run_dynamic_with_observer, DynamicOptions, DynamicResult,
};
use wasabi::core::identify::{identify, Identified};
use wasabi::core::lint::{cross_check, lint_with_overlap};
use wasabi::core::report_json;
use wasabi::corpus::spec::{paper_apps, Scale};
use wasabi::corpus::synth::{
    append_policy_seeds, compile_app, generate_app, generate_app_with_amp, GeneratedApp,
};
use wasabi::engine::campaign::{RunOutcome, RunRecord};
use wasabi::engine::journal;
use wasabi::engine::{EngineEvent, EngineObserver};
use wasabi::lang::project::{Project, SourceFile, NODES_PER_WORKER};
use wasabi::llm::simulated::SimulatedLlm;
use wasabi::planner::plan::RunKey;
use wasabi::vm::trace::TestOutcome;

fn hdfs_small() -> (Project, Identified) {
    let spec = paper_apps().into_iter().find(|s| s.short == "HD").expect("HD");
    let app = generate_app(&spec, Scale::Small);
    let project = compile_app(&app);
    let mut llm = SimulatedLlm::with_seed(app.spec.seed);
    let identified = identify(&project, &mut llm);
    assert!(!identified.locations.is_empty(), "HDFS has retry locations");
    (project, identified)
}

/// Every executed run's record, by key, from the campaign's
/// `RunRecorded` events.
#[derive(Default)]
struct Records(BTreeMap<RunKey, RunRecord>);

impl EngineObserver for Records {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        if let EngineEvent::RunRecorded { record, .. } = event {
            self.0.insert(record.key.clone(), (*record).clone());
        }
    }
}

/// Everything in the result that callers consume, rendered to one string.
/// Scheduling-dependent engine fields (per-worker utilization, wall time,
/// resume bookkeeping) are deliberately excluded — they are the only
/// values allowed to vary.
fn render(result: &DynamicResult) -> String {
    format!(
        "reports: {:#?}\nbugs: {:#?}\nstats: {:?}\nplanned: {} naive: {}\ntested: {:?}\n\
         campaign: runs={} completed={} failed={} crashed={} retried={} \
         rethrow={} not_trigger={} reports={} injections={} virtual_ms={}",
        result.reports,
        result.bugs,
        result.stats,
        result.runs_planned,
        result.runs_naive,
        result.tested_structures,
        result.campaign.runs_total,
        result.campaign.completed,
        result.campaign.failed,
        result.campaign.crashed,
        result.campaign.retried,
        result.campaign.rethrow_filtered,
        result.campaign.not_a_trigger,
        result.campaign.reports,
        result.campaign.injections,
        result.campaign.virtual_ms,
    )
}

#[test]
fn reports_are_byte_identical_for_any_job_count() {
    let (project, identified) = hdfs_small();
    let run = |jobs: usize| {
        let options = DynamicOptions {
            jobs,
            ..DynamicOptions::default()
        };
        render(&run_dynamic(&project, &identified.locations, &options))
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
    // A virtual-time limit of one second ends the sleepy structure's K=100
    // runs (fifty failed attempts, 100 virtual ms of backoff each) in the
    // VM's deterministic `Timeout`; its K=1 runs, and every run of the
    // spinning structure, which never sleeps, complete.
    let src = "exception ConnectException;\nexception SocketException;\n\
         class Spinning {\n\
           method op() throws ConnectException { return \"ok\"; }\n\
           method run() {\n\
             while (true) {\n\
               try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
             }\n\
           }\n\
           test tSpinning() { assert(this.run() == \"ok\"); }\n\
         }\n\
         class Sleepy {\n\
           field maxAttempts = 50;\n\
           method fetch() throws SocketException { return \"ok\"; }\n\
           method run() {\n\
             for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
               try { return this.fetch(); } catch (SocketException e) { sleep(100); }\n\
             }\n\
             throw new SocketException(\"giving up\");\n\
           }\n\
           test tSleepy() { assert(this.run() == \"ok\"); }\n\
         }";
    let project = Project::compile("t", vec![("t.jav", src)]).expect("compile");
    let mut llm = SimulatedLlm::with_seed(5);
    let identified = identify(&project, &mut llm);
    assert!(identified.locations.len() >= 2);
    let run = |jobs: usize| {
        let mut options = DynamicOptions {
            jobs,
            ..DynamicOptions::default()
        };
        options.run_options.limits.virtual_time_limit_ms = 1_000;
        let mut records = Records::default();
        let result =
            run_dynamic_with_observer(&project, &identified.locations, &options, &mut records);
        let timeouts = records
            .0
            .values()
            .filter(|r| {
                matches!(
                    r.outcome,
                    RunOutcome::Completed(TestOutcome::Timeout { .. })
                )
            })
            .count();
        (render(&result), timeouts, result.stats.runs_executed)
    };
    let (serial, timeouts, runs) = run(1);
    assert!(
        timeouts > 0 && timeouts < runs,
        "{timeouts} of {runs} runs timed out; some must, not all"
    );
    assert_eq!(
        (serial, timeouts),
        {
            let (parallel, timeouts, _) = run(8);
            (parallel, timeouts)
        },
        "timed-out campaign diverged between jobs=1 and jobs=8"
    );
}

#[test]
fn quarantined_chaos_campaign_is_byte_identical_for_any_job_count() {
    // A crashed record — the engine's record of a run that panicked — is
    // final: resumed from a journal, it counts once as crashed and once
    // as quarantined, adds no oracle report, and merges the same at every
    // worker count. A run panics only through an interpreter bug, so the
    // records are built here.
    let (project, identified) = hdfs_small();
    let mut full = Records::default();
    run_dynamic_with_observer(
        &project,
        &identified.locations,
        &DynamicOptions::default(),
        &mut full,
    );
    let crashed: Vec<RunRecord> = full
        .0
        .keys()
        .step_by(5)
        .map(|key| RunRecord {
            key: key.clone(),
            outcome: RunOutcome::Crashed {
                message: "interpreter bug".to_string(),
            },
            reports: Vec::new(),
            rethrow_filtered: false,
            not_a_trigger: false,
            virtual_ms: 0,
            steps: 0,
            injections: 0,
        })
        .collect();
    let crashed_keys: BTreeSet<&RunKey> = crashed.iter().map(|record| &record.key).collect();
    let surviving_reports: Vec<String> = full
        .0
        .values()
        .filter(|record| !crashed_keys.contains(&record.key))
        .flat_map(|record| record.reports.iter().map(|report| format!("{report:?}")))
        .collect();
    assert!(
        full.0
            .values()
            .any(|record| crashed_keys.contains(&record.key) && !record.reports.is_empty()),
        "some crashed key had oracle reports to lose"
    );

    let run = |jobs: usize| {
        let options = DynamicOptions {
            jobs,
            resume_records: crashed.clone(),
            ..DynamicOptions::default()
        };
        run_dynamic(&project, &identified.locations, &options)
    };
    let serial = run(1);
    let report = report_json(&identified, &serial);
    for field in ["crashed", "quarantined"] {
        let line = format!("\"{field}\": {},", crashed.len());
        assert!(report.contains(&line), "report lacks `{line}`:\n{report}");
    }
    let reports: Vec<String> = serial.reports.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(
        reports, surviving_reports,
        "crashed runs add no oracle reports"
    );
    for jobs in [2, 8] {
        let parallel = run(jobs);
        assert_eq!(
            (render(&serial), report.clone()),
            (render(&parallel), report_json(&identified, &parallel)),
            "campaign with crashed records diverged between jobs=1 and jobs={jobs}"
        );
    }
}

#[test]
fn resumed_campaign_matches_uninterrupted_run_byte_for_byte() {
    let (project, identified) = hdfs_small();
    let locations = &identified.locations;
    let mut path = std::env::temp_dir();
    path.push(format!("wasabi-determinism-resume-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let uninterrupted = run_dynamic(
        &project,
        locations,
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
        locations,
        &DynamicOptions {
            jobs: 4,
            resume_records: recovered,
            ..DynamicOptions::default()
        },
    );
    let executed: usize = resumed.campaign.worker_runs.iter().sum();
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

/// A paper-scale app with the amplification and policy seeds, one of
/// whose middle files is padded with comments to at least 100 times the
/// median file size, so that the largest-first claim order differs from
/// file order.
fn lopsided_app() -> GeneratedApp {
    let spec = paper_apps().into_iter().find(|s| s.short == "CA").expect("CA");
    let mut app = generate_app_with_amp(&spec, Scale::Paper);
    append_policy_seeds(&mut app);
    let mut sizes: Vec<usize> = app.files.iter().map(|(_, source)| source.len()).collect();
    sizes.sort_unstable();
    let target = 100 * sizes[sizes.len() / 2];
    let middle = app.files.len() / 2;
    let source = &mut app.files[middle].1;
    while source.len() < target {
        source.push_str("// padding that the parser skips and the model reads\n");
    }
    app
}

/// At widths 1, 2 and 3, the parse and the sweep fanned out equal
/// `Project::compile` and `lint_with_overlap`, which use the machine's
/// width: the linked index, the lint with its cross-check matrix, and the
/// LLM sweep.
#[test]
fn front_half_is_byte_identical_at_every_width() {
    let app = lopsided_app();
    let reference = compile_app(&app);
    let index = ir_debug::dump(&reference.index);
    let llm = SimulatedLlm::with_seed(0);
    // `lint_with_overlap` sweeps with `sweep_project`.
    let report = lint_with_overlap(
        &reference,
        &mut SimulatedLlm::with_seed(0),
        &LintOptions::default(),
    );
    assert!(!report.sweep.retry_files.is_empty(), "the sweep finds retry");
    let lint = render_json(&report.lint.diagnostics)
        + &cross_check(&report.lint, &report.sweep).render_text();
    for width in 1..=3 {
        let project = widths::compile(app.spec.name, &app.files, width).expect("compiles");
        // Not `assert_eq!`: a failure would print both dumps in full.
        assert!(index == ir_debug::dump(&project.index), "index at width {width}");
        let swept = widths::sweep(&project, &llm, width);
        assert_eq!(swept, report.sweep, "sweep at width {width}");
        let linted = lint_project(&project, &LintOptions::default());
        assert_eq!(
            render_json(&linted.diagnostics) + &cross_check(&linted, &swept).render_text(),
            lint,
            "lint at width {width}"
        );
    }
}

/// Two files that fail to parse report both errors in file order, at
/// every width, though the second file is the larger and is claimed
/// first.
#[test]
fn parse_errors_keep_file_order_at_every_width() {
    let d = format!("{}class D {{ method m( }}", "// pad\n".repeat(100));
    let sources: Vec<(String, String)> = [
        ("a.jav", "class A { method m() { return 1; } }"),
        ("b.jav", "class {"),
        ("c.jav", "class C { }"),
        ("d.jav", d.as_str()),
    ]
    .map(|(path, source)| (path.to_string(), source.to_string()))
    .into();
    let render = |errors: Vec<wasabi::lang::error::Diagnostic>| -> Vec<String> {
        errors.iter().map(ToString::to_string).collect()
    };
    let expected = render(Project::compile("t", sources.clone()).expect_err("two bad files"));
    assert_eq!(expected.len(), 2, "{expected:?}");
    assert!(
        expected[0].contains("b.jav") && expected[1].contains("d.jav"),
        "{expected:?}"
    );
    for width in 1..=3 {
        let errors = widths::compile("t", &sources, width).expect_err("two bad files");
        assert_eq!(render(errors), expected, "width {width}");
    }
}

/// Link errors in two files come back in file order, though the later
/// file is the larger and so validated first, and after the symbol
/// table's errors. The later file has enough nodes that its validation
/// runs on a worker beside the index build wherever the machine has two
/// cores.
#[test]
fn link_errors_keep_file_order_at_every_width() {
    let b = format!(
        "class B extends Missing {{ method m() {{ try {{ this.x(); }} catch (Nope e) {{ }} }} \
         method big() {{ {} }} }}",
        "x = 1;\n".repeat(3 * NODES_PER_WORKER / 2)
    );
    let b = Arc::new(SourceFile::parse("b.jav", b).expect("parses"));
    assert!(
        b.stmt_count() + b.expr_count() >= 2 * NODES_PER_WORKER,
        "b.jav validates on the caller"
    );
    let in_files = [
        ("a.jav", "duplicate method `m`"),
        ("b.jav", "unknown superclass `Missing`"),
        ("b.jav", "unknown exception `Nope` in catch"),
    ];
    let in_table = ("a.jav", "duplicate exception declaration `E`");
    for (a, expected) in [
        ("class A { method m() { } method m() { } }", in_files.to_vec()),
        (
            "exception E;\nexception E;\nclass A { method m() { } method m() { } }",
            [[in_table].as_slice(), &in_files].concat(),
        ),
    ] {
        let a = SourceFile::parse("a.jav", a).expect("parses");
        let errors: Vec<String> = (Project::link("t", vec![Arc::new(a), Arc::clone(&b)]))
            .expect_err("link errors")
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(errors.len(), expected.len(), "{errors:?}");
        for (error, (file, what)) in errors.iter().zip(expected) {
            assert!(error.contains(file) && error.contains(what), "{errors:?}");
        }
    }
}
