//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--scale tiny|small|paper] [--jobs N] [--journal DIR]
//!       [--resume DIR] [--trace-out DIR] [--quiet] <artifact>...
//! repro --scale paper --jobs 8 --journal runs/ all
//! ```
//!
//! `--journal DIR` checkpoints each app's campaign to `DIR/<short>.jsonl`;
//! `--resume DIR` reloads those files (apps without one run from scratch),
//! so an interrupted `all` at paper scale restarts where it died.
//! `--trace-out DIR` records each app's campaign as a span trace
//! (`DIR/<short>.trace.jsonl`), readable with `wasabi stats`.
//!
//! Artifacts: `table1 table2 study-stats table3 table4 table5 table6 fig3
//! fig4 if-bugs cost fp-taxonomy ablation-keyword ablation-oracles all`.
//!
//! Every artifact prints measured numbers side by side with the paper's
//! published values. Absolute test counts scale with `--scale`; detection
//! counts, identification splits, and ratios do not (retry structures are
//! generated at full fidelity at every scale).

use std::collections::BTreeMap;
use std::path::PathBuf;
use wasabi_analysis::loops::{find_retry_loops, LoopQueryOptions};
use wasabi_engine::journal;
use wasabi_analysis::resolve::ProjectIndex;
use wasabi_bench::paper;
use wasabi_bench::tables::{render, subscript};
use wasabi_corpus::spec::{paper_apps, Scale};
use wasabi_corpus::study::{study_issues, table1_counts, table2_counts, MechanismShape, Severity, StudyApp, Trigger};
use wasabi_corpus::synth::{compile_app, generate_app};
use wasabi_core::dynamic::DynamicOptions;
use wasabi_core::score::{evaluate_app, evaluate_app_with_observer, Aggregate};
use wasabi_engine::{write_trace, MetricsObserver};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut jobs = 1usize;
    let mut journal_dir: Option<PathBuf> = None;
    let mut resume_dir: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut quiet = false;
    let mut artifacts: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().unwrap_or_default();
                scale = match value.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => {
                        eprintln!("unknown scale `{other}` (tiny|small|paper)");
                        std::process::exit(2);
                    }
                };
            }
            "--jobs" => {
                let value = iter.next().unwrap_or_default();
                jobs = match value.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--jobs expects a positive integer, got `{value}`");
                        std::process::exit(2);
                    }
                };
            }
            "--journal" => {
                journal_dir = Some(PathBuf::from(iter.next().unwrap_or_default()));
            }
            "--resume" => {
                resume_dir = Some(PathBuf::from(iter.next().unwrap_or_default()));
            }
            "--trace-out" => {
                trace_dir = Some(PathBuf::from(iter.next().unwrap_or_default()));
            }
            "--quiet" => quiet = true,
            other => artifacts.push(other.to_string()),
        }
    }
    if artifacts.is_empty() {
        artifacts.push("all".to_string());
    }
    let all = artifacts.iter().any(|a| a == "all");
    let wants = |name: &str| all || artifacts.iter().any(|a| a == name);

    // Study-only artifacts need no pipeline run.
    if wants("table1") {
        table1();
    }
    if wants("table2") {
        table2();
    }
    if wants("study-stats") {
        study_stats();
    }

    let needs_pipeline = [
        "table3", "table4", "table5", "table6", "fig3", "fig4", "if-bugs", "cost",
        "fp-taxonomy", "ablation-oracles",
    ]
    .iter()
    .any(|a| wants(a));

    let aggregate = if needs_pipeline {
        if !quiet {
            eprintln!(
                "# running the full WASABI pipeline on all 8 apps (scale {scale:?}, {jobs} job(s))..."
            );
        }
        for (what, dir) in [("journal", &journal_dir), ("trace", &trace_dir)] {
            if let Some(dir) = dir {
                if let Err(err) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {what} dir {}: {err}", dir.display());
                    std::process::exit(2);
                }
            }
        }
        let base_options = DynamicOptions {
            jobs,
            ..DynamicOptions::default()
        };
        let mut aggregate = Aggregate::default();
        for spec in paper_apps() {
            if !quiet {
                eprintln!("#   {} ({})", spec.short, spec.name);
            }
            let mut options = base_options.clone();
            options.journal = journal_dir.as_ref().map(|dir| dir.join(format!("{}.jsonl", spec.short)));
            if let Some(dir) = &resume_dir {
                // Apps whose journal is absent simply run from scratch.
                let path = dir.join(format!("{}.jsonl", spec.short));
                if path.exists() {
                    match journal::load_for_resume(&path) {
                        Ok(records) => options.resume_records = records,
                        Err(err) => {
                            eprintln!("{err}");
                            std::process::exit(2);
                        }
                    }
                }
            }
            let app = generate_app(&spec, scale);
            let evaluation = match &trace_dir {
                Some(dir) => {
                    let mut recorder = MetricsObserver::new();
                    let evaluation = evaluate_app_with_observer(&app, &options, &mut recorder);
                    let path = dir.join(format!("{}.trace.jsonl", spec.short));
                    if let Err(err) =
                        write_trace(&path, spec.short, recorder.phases(), recorder.runs())
                    {
                        eprintln!("{err}");
                        std::process::exit(2);
                    }
                    evaluation
                }
                None => evaluate_app(&app, &options),
            };
            aggregate.apps.push(evaluation);
        }
        Some(aggregate)
    } else {
        None
    };

    if let Some(aggregate) = &aggregate {
        if wants("table3") {
            table3(aggregate);
        }
        if wants("table4") {
            table4(aggregate);
        }
        if wants("table5") {
            table5(aggregate);
        }
        if wants("table6") {
            table6(aggregate);
        }
        if wants("fig3") {
            fig3(aggregate);
        }
        if wants("fig4") {
            fig4(aggregate);
        }
        if wants("if-bugs") {
            if_bugs(aggregate);
        }
        if wants("cost") {
            cost(aggregate);
        }
        if wants("fp-taxonomy") {
            fp_taxonomy(aggregate);
        }
        if wants("ablation-oracles") {
            ablation_oracles(aggregate);
        }
    }
    if wants("ablation-keyword") {
        ablation_keyword(scale);
    }
}

fn table1() {
    println!("## Table 1 — applications included in the study\n");
    let issues = study_issues();
    let rows: Vec<Vec<String>> = StudyApp::all()
        .iter()
        .zip(table1_counts(&issues))
        .map(|((app, category, stars), (_, count))| {
            vec![
                app.name().to_string(),
                category.to_string(),
                format!("{stars}K"),
                count.to_string(),
            ]
        })
        .collect();
    println!("{}", render(&["Application", "Category", "Stars", "Bugs"], &rows));
}

fn table2() {
    println!("## Table 2 — root causes of retry bugs\n");
    let issues = study_issues();
    let rows: Vec<Vec<String>> = table2_counts(&issues)
        .iter()
        .map(|(cause, count)| {
            vec![
                cause.category().to_string(),
                cause.label().to_string(),
                count.to_string(),
            ]
        })
        .chain(std::iter::once(vec![
            String::new(),
            "Total".to_string(),
            issues.len().to_string(),
        ]))
        .collect();
    println!("{}", render(&["Cat", "Root cause", "Issues"], &rows));
}

fn study_stats() {
    println!("## §2.5 — study statistics\n");
    let issues = study_issues();
    let n = issues.len() as f64;
    let pct = |count: usize| format!("{:.0}%", count as f64 / n * 100.0);
    let sev = |s| issues.iter().filter(|i| i.severity == s).count();
    println!(
        "severity: blocker {} | critical {} | major {} | minor {} | unlabeled {}",
        pct(sev(Severity::Blocker)),
        pct(sev(Severity::Critical)),
        pct(sev(Severity::Major)),
        pct(sev(Severity::Minor)),
        pct(sev(Severity::Unlabeled)),
    );
    let mech = |m| issues.iter().filter(|i| i.mechanism == m).count();
    println!(
        "mechanism: loop {} | queue re-enqueue {} | state machine {}   (paper: 55%/25%/20%)",
        pct(mech(MechanismShape::Loop)),
        pct(mech(MechanismShape::Queue)),
        pct(mech(MechanismShape::StateMachine)),
    );
    let exc = issues.iter().filter(|i| i.trigger == Trigger::Exception).count();
    println!(
        "trigger: exceptions {} | error codes {}   (paper: 70%/30%)",
        pct(exc),
        pct(issues.len() - exc),
    );
    let regression = issues.iter().filter(|i| i.regression_test).count();
    println!("regression tests added after fix: {regression}/70 (paper: 42/70)\n");
}

fn table3(aggregate: &Aggregate) {
    println!("## Table 3 — retry bugs reported by WASABI unit testing");
    println!("   (cells are reported_FPs; paper value in parentheses)\n");
    let mut rows = Vec::new();
    for (kind, paper_row) in [
        ("missing cap", &paper::TABLE3_CAP),
        ("missing delay", &paper::TABLE3_DELAY),
        ("HOW bugs", &paper::TABLE3_HOW),
    ] {
        let mut row = vec![kind.to_string()];
        for (i, app) in aggregate.apps.iter().enumerate() {
            let cell = match kind {
                "missing cap" => app.dyn_cap,
                "missing delay" => app.dyn_delay,
                _ => app.dyn_how,
            };
            let (paper_reported, paper_fp) = paper_row[i];
            row.push(format!(
                "{} ({})",
                subscript(cell.reported(), cell.fp),
                subscript(paper_reported, paper_fp)
            ));
        }
        rows.push(row);
    }
    let mut header = vec!["Bug type"];
    header.extend(paper::APPS);
    println!("{}", render(&header, &rows));
    let cap = aggregate.cell_sum(|a| a.dyn_cap);
    let delay = aggregate.cell_sum(|a| a.dyn_delay);
    let how = aggregate.cell_sum(|a| a.dyn_how);
    println!(
        "totals: cap {}_{} (paper 28_8) | delay {}_{} (paper 25_8) | how {}_{} (paper 10_5)\n",
        cap.reported(), cap.fp, delay.reported(), delay.fp, how.reported(), how.fp
    );
}

fn table4(aggregate: &Aggregate) {
    println!("## Table 4 — retry bugs reported by the LLM detector");
    println!("   (cells are reported_FPs; paper value in parentheses)\n");
    let mut rows = Vec::new();
    for (kind, paper_row) in [
        ("missing cap", &paper::TABLE4_CAP),
        ("missing delay", &paper::TABLE4_DELAY),
    ] {
        let mut row = vec![kind.to_string()];
        for (i, app) in aggregate.apps.iter().enumerate() {
            let cell = if kind == "missing cap" { app.llm_cap } else { app.llm_delay };
            let (paper_reported, paper_fp) = paper_row[i];
            row.push(format!(
                "{} ({})",
                subscript(cell.reported(), cell.fp),
                subscript(paper_reported, paper_fp)
            ));
        }
        rows.push(row);
    }
    let mut header = vec!["Bug type"];
    header.extend(paper::APPS);
    println!("{}", render(&header, &rows));
    let cap = aggregate.cell_sum(|a| a.llm_cap);
    let delay = aggregate.cell_sum(|a| a.llm_delay);
    println!(
        "totals: cap {}_{} (paper 60_33) | delay {}_{} (paper 79_27)\n",
        cap.reported(), cap.fp, delay.reported(), delay.fp
    );
}

fn table5(aggregate: &Aggregate) {
    println!("## Table 5 — retry structures identified and covered in testing\n");
    let mut identified_row = vec!["Identified".to_string()];
    let mut tested_row = vec!["Tested".to_string()];
    for (i, app) in aggregate.apps.iter().enumerate() {
        identified_row.push(format!(
            "{} ({})",
            app.identified_any,
            paper::TABLE5_IDENTIFIED[i]
        ));
        tested_row.push(format!("{} ({})", app.tested, paper::TABLE5_TESTED[i]));
    }
    let mut header = vec!["(paper in parens)"];
    header.extend(paper::APPS);
    println!("{}", render(&header, &[identified_row, tested_row]));
    let identified: usize = aggregate.apps.iter().map(|a| a.identified_any).sum();
    let tested: usize = aggregate.apps.iter().map(|a| a.tested).sum();
    println!("totals: identified {identified} (paper 323) | tested {tested} (paper 135)\n");
}

fn table6(aggregate: &Aggregate) {
    println!("## Table 6 — WASABI unit-testing details");
    println!("   (test counts scale with --scale; ratios are the shape to check)\n");
    let rows: Vec<Vec<String>> = aggregate
        .apps
        .iter()
        .enumerate()
        .map(|(i, app)| {
            let reduction = app.runs_naive.checked_div(app.runs_planned).unwrap_or(0);
            let paper_reduction = paper::TABLE6_NAIVE[i] / paper::TABLE6_PLANNED[i];
            vec![
                app.app.clone(),
                format!("{} ({})", app.tests_total, paper::TABLE6_TESTS[i]),
                format!("{} ({})", app.tests_cover_retry, paper::TABLE6_COVER[i]),
                format!("{} ({})", app.runs_naive, paper::TABLE6_NAIVE[i]),
                format!("{} ({})", app.runs_planned, paper::TABLE6_PLANNED[i]),
                format!("{reduction}x ({paper_reduction}x)"),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["App", "Tests", "CoverRetry", "w/o planning", "w/ planning", "cut"],
            &rows
        )
    );
}

fn fig3(aggregate: &Aggregate) {
    println!("## Figure 3 — distinct true bugs by workflow\n");
    println!(
        "unit testing: {} (paper {})",
        aggregate.dynamic_bugs(),
        paper::FIG3_DYNAMIC
    );
    println!(
        "static checking: {} (paper {})",
        aggregate.static_bugs(),
        paper::FIG3_STATIC
    );
    println!(
        "found by both: {} (paper {})",
        aggregate.overlap(),
        paper::FIG3_OVERLAP
    );
    println!(
        "total distinct: {} (paper {})\n",
        aggregate.total_bugs(),
        paper::FIG3_TOTAL
    );
}

fn fig4(aggregate: &Aggregate) {
    println!("## Figure 4 — retry structures identified per technique\n");
    let structures: usize = aggregate.apps.iter().map(|a| a.identified_any).sum();
    let loops_total: usize = aggregate.apps.iter().map(|a| a.loops_total).sum();
    let loops_codeql: usize = aggregate.apps.iter().map(|a| a.loops_codeql).sum();
    let loops_llm: usize = aggregate.apps.iter().map(|a| a.loops_llm).sum();
    let ident_fp_codeql: usize = aggregate.apps.iter().map(|a| a.ident_fp_codeql).sum();
    let ident_fp_llm: usize = aggregate.apps.iter().map(|a| a.ident_fp_llm).sum();
    println!(
        "structures identified: {structures} (paper {})",
        paper::FIG4_STRUCTURES
    );
    println!(
        "retry loops in corpus: {loops_total} (paper {}); control-flow query found {loops_codeql} (paper {}), LLM found {loops_llm} (missed {} — paper missed {})",
        paper::FIG4_LOOPS,
        paper::FIG4_LOOPS_CODEQL,
        loops_total - loops_llm,
        paper::FIG4_LOOPS_LLM_MISSED
    );
    println!(
        "identification false positives: control-flow {ident_fp_codeql} (paper sampled 3/40), LLM {ident_fp_llm} (paper sampled 16/100)\n"
    );
}

fn if_bugs(aggregate: &Aggregate) {
    println!("## §4.1 — IF bugs via application-wide retry ratios\n");
    let mut rows = Vec::new();
    for app in &aggregate.apps {
        for (exception, r, n) in &app.if_ratios {
            let paper_ratio = paper::IF_RATIOS
                .iter()
                .find(|(e, _, _)| e == exception)
                .map(|(_, pr, pn)| format!("{pr}/{pn}"))
                .unwrap_or_else(|| "-".to_string());
            rows.push(vec![
                app.app.clone(),
                exception.clone(),
                format!("{r}/{n}"),
                paper_ratio,
            ]);
        }
    }
    println!("{}", render(&["App", "Exception", "measured r/n", "paper r/n"], &rows));
    let tp: usize = aggregate.apps.iter().map(|a| a.if_tp).sum();
    let fp: usize = aggregate.apps.iter().map(|a| a.if_fp).sum();
    let instances: usize = aggregate.apps.iter().map(|a| a.if_outlier_instances).sum();
    println!(
        "exception groups: {} true + {} false; true outlier instances: {} + {} false = {} cases (paper: {} true of {} cases)\n",
        tp,
        fp,
        instances,
        fp,
        instances + fp,
        paper::IF_TRUE,
        paper::IF_REPORTED
    );
}

fn cost(aggregate: &Aggregate) {
    println!("## §4.3 — LLM cost per application\n");
    let rows: Vec<Vec<String>> = aggregate
        .apps
        .iter()
        .map(|app| {
            vec![
                app.app.clone(),
                app.llm_usage.calls.to_string(),
                format!("{:.1} MB", app.llm_usage.bytes_sent as f64 / 1e6),
                format!("{:.2} M", app.llm_usage.tokens as f64 / 1e6),
                format!("${:.2}", app.llm_usage.cost_usd()),
                format!("{:.1} s", app.injected_virtual_ms as f64 / 1e3),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["App", "API calls", "Data", "Tokens", "Cost", "Injected virt-time"],
            &rows
        )
    );
    let mut calls: Vec<u64> = aggregate.apps.iter().map(|a| a.llm_usage.calls).collect();
    calls.sort_unstable();
    println!(
        "median calls/app: {} (paper ~{}; scales with --scale)\n",
        calls[calls.len() / 2],
        paper::COST_CALLS_MEDIAN
    );
}

fn fp_taxonomy(aggregate: &Aggregate) {
    println!("## §4.3 — false-positive taxonomy\n");
    let mut merged: BTreeMap<String, usize> = BTreeMap::new();
    for app in &aggregate.apps {
        for (key, count) in &app.fp_taxonomy {
            *merged.entry(key.clone()).or_insert(0) += count;
        }
    }
    let rows: Vec<Vec<String>> = merged
        .iter()
        .map(|(key, count)| vec![key.clone(), count.to_string()])
        .collect();
    println!("{}", render(&["FP mode", "count"], &rows));
    println!(
        "paper: dynamic FPs = 8 harness-swallow + 8 delay-not-needed + 5 wrapped-exception;\n\
         LLM FPs = 29 non-retry files + 16 single-file + 15 miscomprehension; IF FP = 1 boolean-flag\n"
    );
}

fn ablation_oracles(aggregate: &Aggregate) {
    println!("## §4.4 — oracle ablation\n");
    let crashed: usize = aggregate.apps.iter().map(|a| a.crashed_runs).sum();
    let rethrows: usize = aggregate.apps.iter().map(|a| a.rethrow_filtered).sum();
    let pct = if crashed > 0 {
        rethrows as f64 / crashed as f64 * 100.0
    } else {
        0.0
    };
    println!(
        "injected runs that crashed: {crashed}; of those, same-exception rethrows filtered by\n\
         the different-exception oracle: {rethrows} ({pct:.0}%) — paper reports ~90%.\n\
         Without the cap/delay oracles every missing-cap and missing-delay bug would be\n\
         missed: those runs end in passes or filtered rethrows, never assertion failures.\n"
    );
}

fn ablation_keyword(scale: Scale) {
    println!("## §4.4 — keyword-filter ablation\n");
    let mut with_filter = 0usize;
    let mut without_filter = 0usize;
    for spec in paper_apps() {
        let app = generate_app(&spec, scale);
        let project = compile_app(&app);
        let index = ProjectIndex::build(&project);
        with_filter += find_retry_loops(&index, &LoopQueryOptions::default()).len();
        let no_filter = LoopQueryOptions {
            keyword_filter: false,
            ..LoopQueryOptions::default()
        };
        without_filter += find_retry_loops(&index, &no_filter).len();
    }
    println!(
        "retry loops reported with keyword filter: {with_filter} (paper {})",
        paper::ABLATION_LOOPS_FILTER
    );
    println!(
        "without keyword filter: {without_filter} (paper {}), a {:.1}x increase (paper 3.5x)\n",
        paper::ABLATION_LOOPS_NO_FILTER,
        without_filter as f64 / with_filter.max(1) as f64
    );
}
