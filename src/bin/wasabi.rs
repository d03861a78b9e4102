//! The `wasabi` command-line tool: run the retry-bug detectors on Javelin
//! source files.
//!
//! ```text
//! wasabi analyze [--json] <file.jav>...            # retry loops, locations, IF outliers
//! wasabi sweep   [--json] <file.jav>...            # LLM static sweep (WHEN findings)
//! wasabi lint    [--json] [--baseline PATH] [--write-baseline PATH]
//!                [--cross-check] [--no-ifratio]    # interprocedural retry diagnostics
//!                <file.jav>...                     # (+ static↔LLM agreement matrix)

//! wasabi test    [--json] [--jobs N] [--journal PATH] [--resume PATH]
//!                [--quiet] [--trace-out PATH] <file.jav>...
//! wasabi test    --shards N [--shard-dir DIR] [--chaos-kill-shard I] ...
//!                                                  # multi-process sharded campaign
//! wasabi merge   [--json] <shard-dir>              # merge shard journals into a report
//! wasabi stats   <trace.jsonl>... [--journal PATH] # per-phase/per-run trace tables
//! wasabi corpus  <APP> <out-dir> [--amp]           # write a synthetic app to disk
//! wasabi repair  [--json] [--jobs N] [--max-fix-attempts N] [--report PATH]
//!                [--out DIR] (--corpus APP [--amp] [--scale S] | <file.jav>...)
//! wasabi serve   [--addr HOST:PORT] [--unix PATH] [--max-queued N] [--max-inflight N]
//!                [--queue-timeout-ms N] [--cache N] [--jobs N]
//!                                                  # campaign-as-a-service daemon
//! wasabi submit  --addr ADDR [--jobs N] [--subscribe] <file.jav>...
//! wasabi submit  --addr ADDR (--stats | --shutdown | --cancel ID | --status ID)
//! ```
//!
//! Exit codes, uniform across subcommands: 0 = success, 1 = findings
//! (retry bugs, lint diagnostics, trace mismatches), 2 = usage, input,
//! or I/O errors. A `--flag` no parser recognizes is a usage error, never
//! an input path.

use std::path::PathBuf;
use std::process::ExitCode;
use wasabi::analysis::checkers::LintOptions;
use wasabi::analysis::ifratio::{if_ratio_reports, IfOptions};
use wasabi::analysis::loops::{all_retry_locations, LoopQueryOptions};
use wasabi::analysis::resolve::ProjectIndex;
use wasabi::core::dynamic::{run_dynamic_with_observer, DynamicOptions};
use wasabi::core::identify::identify;
use wasabi::core::lint::{cross_check, lint_with_overlap};
use wasabi::core::report_json;
use wasabi::engine::{
    journal, load_trace, render_stats, validate_trace, write_trace, EngineEvent, EngineObserver,
    MetricsObserver, NullObserver, StderrProgress, Tee,
};
use wasabi::lang::project::Project;
use wasabi::llm::simulated::SimulatedLlm;
use wasabi::serve::daemon::{Bind, ServeOptions};
use wasabi::serve::protocol::Request;
use wasabi::serve::retry::Attempt as SubmitAttempt;
use wasabi::serve::scheduler::SchedulerConfig;
use wasabi::serve::Connection;
use wasabi::util::backoff::Policy;
use wasabi::util::Json;

const USAGE: &str = "usage:
  wasabi analyze [--json] <file.jav>...
  wasabi sweep   [--json] <file.jav>...
  wasabi lint    [--json] [--baseline PATH] [--write-baseline PATH]
                 [--cross-check] [--no-ifratio] <file.jav>...
  wasabi test    [--json] [--jobs N] [--journal PATH] [--resume PATH]
                 [--quiet] [--trace-out PATH] [--adaptive] <file.jav>...
  wasabi test    --shards N [--shard-dir DIR] [--chaos-kill-shard I]
                 [--chaos-exit-after N] <file.jav>...
  wasabi merge   [--json] <shard-dir>
  wasabi stats   <trace.jsonl>... [--journal PATH]
  wasabi corpus  <APP> <out-dir> [--amp] [--policy]   (APP = HA HD MA YA HB HI CA EL)
  wasabi repair  [--json] [--jobs N] [--max-fix-attempts N] [--report PATH]
                 [--out DIR] (--corpus APP [--amp] [--scale tiny|small|paper] | <file.jav>...)
  wasabi serve   [--addr HOST:PORT] [--unix PATH] [--max-queued N] [--max-inflight N]
                 [--queue-timeout-ms N] [--cache N] [--jobs N]
  wasabi submit  --addr ADDR [--jobs N] [--shards N] [--subscribe]
                 [--retry-attempts N] [--retry-base-ms MS] <file.jav>...
  wasabi submit  --addr ADDR (--stats | --shutdown [--drain [--drain-deadline-ms MS]]
                 | --cancel ID | --status ID)";

/// Campaign-related flags shared by `wasabi test` (and tolerated, unused,
/// by the other commands so flag order never matters).
#[derive(Debug, Default)]
struct CampaignFlags {
    jobs: usize,
    /// Whether `--jobs` was given explicitly (vs. the serial default);
    /// `wasabi submit` forwards the override only when explicit, so the
    /// daemon's own worker-count default wins otherwise.
    jobs_explicit: bool,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    quiet: bool,
    trace_out: Option<PathBuf>,
    /// Parent side of a sharded campaign: child-process count.
    shards: Option<usize>,
    /// Shard directory (journals, manifest, DLQ); default `wasabi-shards`.
    shard_dir: Option<PathBuf>,
    /// Child side: execute only plan slots `[a, b)` of the key-sorted run
    /// list (implies `--stream`; prints no report — the parent merges).
    shard_range: Option<(usize, usize)>,
    /// Bounded-memory streaming: spill records to the journal, keep only
    /// in-flight runs resident.
    stream: bool,
    /// Chaos: exit(86) after N journal appends (crash injection for the
    /// supervisor's restart path).
    chaos_exit_after: Option<u64>,
    /// Chaos, parent side: kill this shard's first child mid-flight.
    chaos_kill_shard: Option<usize>,
    /// Coverage-guided adaptive planning (`wasabi test --adaptive`):
    /// probe wave first, widen only where inconclusive. Off by default;
    /// report digests are pinned only for the fixed grid.
    adaptive: bool,
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let flags = match take_campaign_flags(&mut args) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // These take no flags of their own; `lint`, `repair` and `submit`
    // make the same check once they have taken theirs.
    if matches!(command.as_str(), "analyze" | "sweep" | "test") {
        if let Err(code) = refuse_unknown_flags(&args) {
            return code;
        }
    }

    match command.as_str() {
        "analyze" => with_project(&args, |project| analyze(project, json)),
        "sweep" => with_project(&args, |project| sweep(project, json)),
        "lint" => lint(&mut args, json),
        "test" if flags.shards.is_some() => test_sharded(&args, json, &flags),
        "test" => with_project(&args, |project| test(project, json, &flags)),
        "merge" => merge(&args, json),
        "stats" => stats(&args, &flags),
        "corpus" => corpus(&args),
        "repair" => repair(args, json, &flags),
        "serve" => serve(args, &flags),
        "submit" => submit(args, &flags),
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Refuses a `--flag` that no parser took: once a subcommand has taken
/// its own flags, everything left must be an input path.
fn refuse_unknown_flags(args: &[String]) -> Result<(), ExitCode> {
    let Some(arg) = args.iter().find(|arg| arg.starts_with("--")) else {
        return Ok(());
    };
    let flag = arg.split_once('=').map_or(arg.as_str(), |(flag, _)| flag);
    eprintln!("unknown flag `{flag}`\n{USAGE}");
    Err(ExitCode::from(2))
}

/// Extracts a boolean `--flag` from the argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let found = args.iter().any(|a| a == flag);
    args.retain(|a| a != flag);
    found
}

/// Extracts `--flag VALUE` (or `--flag=VALUE`) from the argument list.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let mut found = None;
    let prefix = format!("{flag}=");
    let mut index = 0;
    while index < args.len() {
        let arg = args[index].clone();
        if arg == flag {
            let Some(value) = args.get(index + 1) else {
                return Err(format!("{flag} requires a value"));
            };
            found = Some(value.clone());
            args.drain(index..index + 2);
        } else if let Some(value) = arg.strip_prefix(&prefix) {
            found = Some(value.to_string());
            args.remove(index);
        } else {
            index += 1;
        }
    }
    Ok(found)
}

/// Extracts every campaign flag from the argument list; what remains is
/// input files. Defaults: serial (`--jobs 1`), no journal, progress on
/// stderr.
fn take_campaign_flags(args: &mut Vec<String>) -> Result<CampaignFlags, String> {
    let mut flags = CampaignFlags {
        jobs: 1,
        ..CampaignFlags::default()
    };
    if let Some(value) = take_value_flag(args, "--jobs")? {
        flags.jobs = value
            .parse::<usize>()
            .map_err(|_| format!("invalid --jobs value `{value}`"))?;
        if flags.jobs == 0 {
            return Err("--jobs must be at least 1".to_string());
        }
        flags.jobs_explicit = true;
    }
    flags.journal = take_value_flag(args, "--journal")?.map(PathBuf::from);
    flags.resume = take_value_flag(args, "--resume")?.map(PathBuf::from);
    flags.trace_out = take_value_flag(args, "--trace-out")?.map(PathBuf::from);
    if let Some(value) = take_value_flag(args, "--shards")? {
        let shards = value
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("invalid --shards value `{value}`"))?;
        flags.shards = Some(shards);
    }
    flags.shard_dir = take_value_flag(args, "--shard-dir")?.map(PathBuf::from);
    if let Some(value) = take_value_flag(args, "--shard-range")? {
        let range = value
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
            .filter(|(a, b)| a <= b)
            .ok_or_else(|| format!("invalid --shard-range value `{value}` (want A:B)"))?;
        flags.shard_range = Some(range);
    }
    flags.stream = take_flag(args, "--stream");
    if let Some(value) = take_value_flag(args, "--chaos-exit-after")? {
        let appends = value
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("invalid --chaos-exit-after value `{value}`"))?;
        flags.chaos_exit_after = Some(appends);
    }
    if let Some(value) = take_value_flag(args, "--chaos-kill-shard")? {
        let shard = value
            .parse::<usize>()
            .map_err(|_| format!("invalid --chaos-kill-shard value `{value}`"))?;
        flags.chaos_kill_shard = Some(shard);
    }
    flags.adaptive = take_flag(args, "--adaptive");
    // Shard slices index the *fixed* key-sorted grid; an adaptive child
    // would execute a different (probe-dependent) run set, so the
    // combination is refused rather than silently ignored.
    if flags.adaptive && (flags.shards.is_some() || flags.shard_range.is_some()) {
        return Err("--adaptive cannot be combined with --shards/--shard-range".to_string());
    }
    flags.quiet = args.iter().any(|a| a == "--quiet");
    args.retain(|a| a != "--quiet");
    Ok(flags)
}

fn with_project(paths: &[String], run: impl FnOnce(&Project) -> ExitCode) -> ExitCode {
    if paths.is_empty() {
        eprintln!("no input files\n{USAGE}");
        return ExitCode::from(2);
    }
    let mut sources = Vec::new();
    for path in paths {
        match std::fs::read_to_string(path) {
            Ok(source) => sources.push((path.clone(), source)),
            Err(err) => {
                eprintln!("cannot read {path}: {err}");
                return ExitCode::from(2);
            }
        }
    }
    match Project::compile("cli", sources) {
        Ok(project) => run(&project),
        Err(errors) => {
            for error in errors.iter().take(20) {
                eprintln!("{error}");
            }
            // Input errors are 2, like any other unusable invocation;
            // exit 1 is reserved for findings in valid inputs.
            ExitCode::from(2)
        }
    }
}

fn analyze(project: &Project, json: bool) -> ExitCode {
    let index = ProjectIndex::build(project);
    let loops = all_retry_locations(&index, &LoopQueryOptions::default());
    let if_reports = if_ratio_reports(&index, &IfOptions::default());
    if json {
        let value = Json::obj([
            (
                "retry_loops",
                Json::arr(loops.iter().map(|(l, locations)| {
                    Json::obj([
                        ("coordinator", Json::from(l.coordinator.to_string())),
                        ("at", Json::from(project.locate(l.file, l.span))),
                        (
                            "catches",
                            Json::arr(l.reaching_catches.iter().map(|c| Json::from(c.as_str()))),
                        ),
                        (
                            "locations",
                            Json::arr(locations.iter().map(|loc| {
                                Json::obj([
                                    ("retried", Json::from(loc.retried.to_string())),
                                    ("exception", Json::from(loc.exception.as_str())),
                                    ("site", Json::from(loc.site.to_string())),
                                ])
                            })),
                        ),
                    ])
                })),
            ),
            (
                "if_outliers",
                Json::arr(if_reports.iter().map(|r| {
                    Json::obj([
                        ("exception", Json::from(r.exception.as_str())),
                        ("retried", Json::from(r.r)),
                        ("throwable", Json::from(r.n)),
                        (
                            "outliers",
                            Json::arr(
                                r.outliers
                                    .iter()
                                    .map(|o| Json::from(o.coordinator.to_string())),
                            ),
                        ),
                    ])
                })),
            ),
        ]);
        print!("{}", value.pretty());
        return ExitCode::SUCCESS;
    }
    println!("retry loops: {}", loops.len());
    for (retry_loop, locations) in &loops {
        println!(
            "  {} at {} (catches {:?})",
            retry_loop.coordinator,
            project.locate(retry_loop.file, retry_loop.span),
            retry_loop.reaching_catches
        );
        for location in locations {
            println!("    retries {} on {}", location.retried, location.exception);
        }
    }
    if !if_reports.is_empty() {
        println!("IF-policy outliers:");
        for report in &if_reports {
            println!(
                "  {} retried in {}/{} loops; check: {}",
                report.exception,
                report.r,
                report.n,
                report
                    .outliers
                    .iter()
                    .map(|o| o.coordinator.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }
    ExitCode::SUCCESS
}

fn sweep(project: &Project, json: bool) -> ExitCode {
    let mut llm = SimulatedLlm::with_seed(0);
    let sweep = wasabi::llm::detector::sweep_project(project, &mut llm);
    if json {
        let value = Json::obj([
            (
                "retry_files",
                Json::arr(sweep.retry_files.iter().map(|r| {
                    Json::obj([
                        ("path", Json::from(r.path.as_str())),
                        ("poll_excluded", Json::from(r.poll_excluded)),
                        ("methods", Json::arr(r.retry_methods.iter().map(|m| Json::from(m.as_str())))),
                        ("sleeps_before_retry", Json::from(r.sleeps_before_retry)),
                        ("has_cap", Json::from(r.has_cap)),
                    ])
                })),
            ),
            (
                "findings",
                Json::arr(sweep.findings.iter().map(|f| {
                    Json::obj([
                        ("kind", Json::from(f.kind.to_string())),
                        ("path", Json::from(f.path.as_str())),
                        ("method", Json::from(f.method.as_str())),
                    ])
                })),
            ),
            (
                "usage",
                Json::obj([
                    ("calls", Json::from(sweep.usage.calls)),
                    ("bytes_sent", Json::from(sweep.usage.bytes_sent)),
                    ("tokens", Json::from(sweep.usage.tokens)),
                    ("cost_usd", Json::from(sweep.usage.cost_usd())),
                ]),
            ),
        ]);
        print!("{}", value.pretty());
        return ExitCode::SUCCESS;
    }
    for finding in &sweep.findings {
        println!("[{}] {} in {}", finding.kind, finding.method, finding.path);
    }
    println!(
        "({} files flagged as retry; {} LLM calls, ${:.2})",
        sweep.retry_files.len(),
        sweep.usage.calls,
        sweep.usage.cost_usd()
    );
    ExitCode::SUCCESS
}

/// `wasabi lint`: run the interprocedural checkers and the LLM overlap
/// accounting. Exit code 0 with no (non-suppressed) diagnostics, 1 when
/// any remain, 2 on usage errors. Output is byte-identical whatever the
/// number of cores.
fn lint(args: &mut Vec<String>, json: bool) -> ExitCode {
    let (baseline_path, write_baseline) = match (
        take_value_flag(args, "--baseline"),
        take_value_flag(args, "--write-baseline"),
    ) {
        (Ok(read), Ok(write)) => (read, write),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let want_cross = take_flag(args, "--cross-check");
    let no_ifratio = take_flag(args, "--no-ifratio");
    if let Err(code) = refuse_unknown_flags(args) {
        return code;
    }
    let baseline = match &baseline_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(contents) => Some(wasabi::analysis::diag::parse_baseline(&contents)),
            Err(err) => {
                eprintln!("cannot read baseline {path}: {err}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    with_project(args, move |project| {
        let mut llm = SimulatedLlm::with_seed(0);
        let options = LintOptions {
            ifratio: !no_ifratio,
            ..LintOptions::default()
        };
        let report = lint_with_overlap(project, &mut llm, &options);
        // Arbitrate before baseline suppression: the matrix is about what
        // each detector *finds*, and a suppressed diagnostic was still
        // found.
        let cross = want_cross.then(|| cross_check(&report.lint, &report.sweep));
        if let Some(path) = &write_baseline {
            let rendered = wasabi::analysis::diag::render_baseline(&report.lint.diagnostics);
            // Diagnostics that share a fingerprint collapse to one line.
            let written = wasabi::analysis::diag::parse_baseline(&rendered).len();
            if let Err(err) = wasabi::util::write_atomic(path.as_ref(), rendered.as_bytes()) {
                eprintln!("cannot write baseline {path}: {err}");
                return ExitCode::from(2);
            }
            println!("wrote {written} fingerprints to {path}");
            return ExitCode::SUCCESS;
        }
        let (diags, suppressed) = match &baseline {
            Some(fingerprints) => {
                wasabi::analysis::diag::apply_baseline(report.lint.diagnostics, fingerprints)
            }
            None => (report.lint.diagnostics, 0),
        };
        if json {
            let mut fields = vec![
                (
                    "diagnostics",
                    Json::arr(diags.iter().map(|d| {
                        Json::obj([
                            ("code", Json::from(d.code)),
                            ("severity", Json::from(d.severity.label())),
                            ("file", Json::from(d.file.as_str())),
                            ("line", Json::from(d.line as i64)),
                            ("col", Json::from(d.col as i64)),
                            ("coordinator", Json::from(d.coordinator.as_str())),
                            ("message", Json::from(d.message.as_str())),
                            (
                                "chain",
                                Json::arr(d.chain.iter().map(|h| Json::from(h.as_str()))),
                            ),
                        ])
                    })),
                ),
                ("suppressed", Json::from(suppressed as i64)),
                (
                    "overlap",
                    Json::obj([
                        ("static_only", Json::from(report.overlap.static_only as i64)),
                        ("llm_only", Json::from(report.overlap.llm_only as i64)),
                        ("both", Json::from(report.overlap.both as i64)),
                        ("total", Json::from(report.overlap.total() as i64)),
                    ]),
                ),
            ];
            if let Some(cross) = &cross {
                fields.push((
                    "cross_check",
                    Json::obj([
                        (
                            "cells",
                            Json::arr(cross.cells.iter().map(|cell| {
                                Json::obj([
                                    ("tier", Json::from(cell.tier.label())),
                                    ("code", Json::from(cell.code.as_str())),
                                    ("file", Json::from(cell.file.as_str())),
                                    ("method", Json::from(cell.method.as_str())),
                                ])
                            })),
                        ),
                        ("both", Json::from(cross.both as i64)),
                        ("static_only", Json::from(cross.static_only as i64)),
                        ("llm_only", Json::from(cross.llm_only as i64)),
                    ]),
                ));
            }
            print!("{}", Json::obj(fields).pretty());
        } else {
            print!("{}", wasabi::analysis::diag::render_text(&diags));
            println!(
                "{} diagnostics ({} suppressed by baseline); WHEN overlap: {} static-only, {} llm-only, {} both",
                diags.len(),
                suppressed,
                report.overlap.static_only,
                report.overlap.llm_only,
                report.overlap.both
            );
            if let Some(cross) = &cross {
                print!("{}", cross.render_text());
            }
        }
        if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    })
}

fn test(project: &Project, json: bool, flags: &CampaignFlags) -> ExitCode {
    // With `--trace-out`, a metrics recorder rides along via `Tee`; the
    // identify step runs before the dynamic pipeline, so bracket it here
    // and the trace's phases tile the whole command.
    let mut recorder = flags.trace_out.as_ref().map(|_| MetricsObserver::new());
    let mut llm = SimulatedLlm::with_seed(0);
    if let Some(recorder) = recorder.as_mut() {
        recorder.on_event(&EngineEvent::PhaseStarted { name: "identify" });
    }
    let identified = identify(project, &mut llm);
    if let Some(recorder) = recorder.as_mut() {
        recorder.on_event(&EngineEvent::PhaseFinished { name: "identify" });
    }
    let resume_records = match &flags.resume {
        Some(path) => match journal::load_for_resume(path) {
            Ok(records) => records,
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::from(2);
            }
        },
        None => Vec::new(),
    };
    // The campaign runs on with journaling disabled when its journal dies
    // to an I/O error; a journal that cannot be opened, or that `--resume`
    // would refuse, is refused here, before any run, and left as it is.
    if let Some(path) = &flags.journal {
        if let Err(err) = journal::Journal::open(path) {
            eprintln!("{err}");
            return ExitCode::from(2);
        }
    }
    let options = DynamicOptions {
        jobs: flags.jobs,
        journal: flags.journal.clone(),
        resume_records,
        chaos_exit_after: flags.chaos_exit_after,
        // Shard children stream by construction: their journal is the
        // hand-off to the parent, so records need not stay resident.
        stream: flags.stream || flags.shard_range.is_some(),
        shard_range: flags.shard_range,
        // Per-run host timing feeds only the trace recorder; without
        // `--trace-out`, skip the clock reads (the report JSON never
        // carries timing, so output bytes cannot change).
        capture_timing: flags.trace_out.is_some(),
        adaptive: flags.adaptive,
        ..DynamicOptions::default()
    };
    // Progress goes to stderr, so `--json` output on stdout stays clean.
    let mut progress: Box<dyn EngineObserver> = if flags.quiet {
        Box::new(NullObserver)
    } else {
        Box::new(StderrProgress::default())
    };
    let result = match recorder.as_mut() {
        Some(recorder) => {
            let mut tee = Tee {
                first: progress.as_mut(),
                second: recorder,
            };
            run_dynamic_with_observer(project, &identified.locations, &options, &mut tee)
        }
        None => {
            run_dynamic_with_observer(project, &identified.locations, &options, progress.as_mut())
        }
    };
    if let Some(summary) = &result.adaptive {
        if !flags.quiet {
            eprintln!(
                "[adaptive] {} probe + {}/{} widen runs executed ({} conclusive, {} dedup across {} classes)",
                summary.probe_runs,
                summary.widen_executed,
                summary.widen_candidates,
                summary.skipped_conclusive,
                summary.skipped_dedup,
                summary.classes
            );
        }
    }
    if let (Some(path), Some(recorder)) = (flags.trace_out.as_ref(), recorder.as_ref()) {
        if let Err(err) = write_trace(path, "cli", recorder.phases(), recorder.runs()) {
            eprintln!("{err}");
            return ExitCode::from(2);
        }
        if !flags.quiet {
            eprintln!(
                "[trace] {} phase span(s), {} run span(s) written to {}",
                recorder.phases().len(),
                recorder.runs().len(),
                path.display()
            );
        }
    }
    if flags.shard_range.is_some() {
        // A shard child's product is its journal, not a report: the
        // parent merges journals into the single report. Only the exit
        // code (0/1 = clean) speaks here.
    } else if json {
        // The report document lives in wasabi-core (`report_json`) so the
        // serve daemon emits byte-identical output for the same sources.
        print!("{}", report_json(&identified, &result));
    } else {
        println!(
            "{} retry locations; {} injected runs ({} without planning)",
            identified.locations.len(),
            result.runs_planned,
            result.runs_naive
        );
        for bug in &result.bugs {
            let report = bug.representative();
            println!("[{}] {} — {}", bug.kind, report.location.coordinator, report.detail);
        }
        println!("{} distinct retry bug(s)", result.bugs.len());
    }
    if result.bugs.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `wasabi test --shards N`: the crash-tolerant multi-process campaign.
/// The parent plans, partitions the key-sorted run list, supervises one
/// child process per shard (restart with backoff, bisect poison runs into
/// the DLQ), and merges the shard journals into a report byte-identical
/// to a single-process run.
fn test_sharded(files: &[String], json: bool, flags: &CampaignFlags) -> ExitCode {
    if files.is_empty() {
        eprintln!("no input files\n{USAGE}");
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("cannot locate the wasabi binary for re-exec: {err}");
            return ExitCode::from(2);
        }
    };
    let options = wasabi::core::sharded::ShardedOptions {
        shards: flags.shards.unwrap_or(2),
        dir: flags
            .shard_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("wasabi-shards")),
        exe,
        cwd: None,
        jobs: flags.jobs,
        policy: Policy::SUPERVISOR,
        chaos_kill_shard: flags.chaos_kill_shard,
        chaos_exit_after: flags.chaos_exit_after.unwrap_or(3),
        quiet: flags.quiet,
    };
    match wasabi::core::sharded::run_sharded(files, &options) {
        Ok(outcome) => print_sharded_outcome(&outcome, json, flags.quiet),
        Err(err) => {
            eprintln!("{err}");
            ExitCode::from(2)
        }
    }
}

/// `wasabi merge <shard-dir>`: standalone key-order merge of a sharded
/// campaign's journals into the same report the campaign printed.
fn merge(args: &[String], json: bool) -> ExitCode {
    let [dir] = args else {
        eprintln!("merge takes exactly one shard directory\n{USAGE}");
        return ExitCode::from(2);
    };
    match wasabi::core::sharded::merge_dir(std::path::Path::new(dir), None) {
        Ok(outcome) => print_sharded_outcome(&outcome, json, false),
        Err(err) => {
            eprintln!("{err}");
            ExitCode::from(2)
        }
    }
}

fn print_sharded_outcome(
    outcome: &wasabi::core::sharded::ShardedOutcome,
    json: bool,
    quiet: bool,
) -> ExitCode {
    if json {
        print!("{}", outcome.report);
    } else {
        println!(
            "{} run(s) merged; {} dead-lettered; {} distinct retry bug(s)",
            outcome.merged_runs, outcome.dead_lettered, outcome.bugs
        );
    }
    if !quiet && outcome.restarts > 0 {
        eprintln!("[shard] {} child restart(s) across the campaign", outcome.restarts);
    }
    if outcome.bugs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `wasabi stats`: renders the per-phase/per-run tables from recorded
/// trace files and validates them — internal consistency always, and,
/// with `--journal PATH`, a cross-check of every run span against the
/// campaign journal (same keys, same injections). Validation
/// problems go to stderr and fail the command, so CI can gate on it.
fn stats(paths: &[String], flags: &CampaignFlags) -> ExitCode {
    if paths.is_empty() {
        eprintln!("no trace files\n{USAGE}");
        return ExitCode::from(2);
    }
    let journal_records = match &flags.journal {
        Some(path) => match journal::load(path) {
            Ok(loaded) => Some(loaded.records),
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let mut traces = Vec::new();
    for path in paths {
        match load_trace(std::path::Path::new(path)) {
            Ok(trace) => traces.push(trace),
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::from(2);
            }
        }
    }
    print!("{}", render_stats(&traces));
    let mut problems = Vec::new();
    for trace in &traces {
        problems.extend(validate_trace(trace, journal_records.as_deref()));
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        for problem in &problems {
            eprintln!("trace validation: {problem}");
        }
        ExitCode::FAILURE
    }
}

/// `wasabi serve`: run the campaign-as-a-service daemon until a client
/// sends the `shutdown` op. Prints one startup banner line to stdout —
/// `{"kind":"wasabi-serve","version":2,"addr":"..."}` — so scripts can
/// discover the bound port when `--addr` ends in `:0`.
fn serve(mut args: Vec<String>, flags: &CampaignFlags) -> ExitCode {
    let parsed = (|| -> Result<ServeOptions, String> {
        let addr = take_value_flag(&mut args, "--addr")?;
        let unix = take_value_flag(&mut args, "--unix")?;
        let mut scheduler = SchedulerConfig::default();
        if let Some(value) = take_value_flag(&mut args, "--max-queued")? {
            scheduler.max_queued = value
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("invalid --max-queued value `{value}`"))?;
        }
        if let Some(value) = take_value_flag(&mut args, "--max-inflight")? {
            scheduler.max_inflight = value
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("invalid --max-inflight value `{value}`"))?;
        }
        if let Some(value) = take_value_flag(&mut args, "--queue-timeout-ms")? {
            let ms = value
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("invalid --queue-timeout-ms value `{value}`"))?;
            scheduler.queue_timeout_us = Some(ms.saturating_mul(1000));
        }
        let mut options = ServeOptions {
            scheduler,
            campaign_jobs: flags.jobs,
            ..ServeOptions::default()
        };
        if let Some(value) = take_value_flag(&mut args, "--cache")? {
            options.cache_capacity = value
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("invalid --cache value `{value}`"))?;
        }
        options.bind = match (unix, addr) {
            (Some(_), Some(_)) => return Err("--addr and --unix are mutually exclusive".into()),
            #[cfg(unix)]
            (Some(path), None) => Bind::Unix(PathBuf::from(path)),
            #[cfg(not(unix))]
            (Some(_), None) => return Err("--unix is not supported on this platform".into()),
            (None, addr) => Bind::Tcp(addr.unwrap_or_else(|| "127.0.0.1:0".to_string())),
        };
        if let Some(extra) = args.first() {
            return Err(format!("unexpected argument `{extra}`"));
        }
        Ok(options)
    })();
    let options = match parsed {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let quiet = flags.quiet;
    match wasabi::serve::daemon::spawn(options) {
        Ok(handle) => {
            use std::io::Write as _;
            println!("{}", handle.banner());
            // The banner is the machine-readable hand-off; scripts read
            // it from a pipe before the daemon exits, so flush past the
            // pipe's block buffering.
            let _ = std::io::stdout().flush();
            if !quiet {
                eprintln!("[serve] listening on {} (send the shutdown op to stop)", handle.addr);
            }
            handle.join();
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("cannot bind: {err}");
            ExitCode::from(2)
        }
    }
}

/// `wasabi submit`: client for a running `wasabi serve` daemon. The
/// default form submits sources, waits, and prints the report JSON —
/// byte-identical to `wasabi test --quiet --json` on the same files —
/// with `wasabi test` exit semantics (1 when bugs were found). Control
/// forms (`--stats`, `--shutdown`, `--cancel`, `--status`) print the
/// daemon's one-line response.
fn submit(mut args: Vec<String>, flags: &CampaignFlags) -> ExitCode {
    let subscribe = take_flag(&mut args, "--subscribe");
    let stats_op = take_flag(&mut args, "--stats");
    let shutdown_op = take_flag(&mut args, "--shutdown");
    let drain = take_flag(&mut args, "--drain");
    // (addr, cancel, status, retry, drain_deadline).
    type SubmitArgs = (String, Option<u64>, Option<u64>, Policy, Option<u64>);
    let parsed = (|| -> Result<SubmitArgs, String> {
        let addr = take_value_flag(&mut args, "--addr")?
            .ok_or("submit requires --addr (from the serve banner)")?;
        let cancel = match take_value_flag(&mut args, "--cancel")? {
            None => None,
            Some(value) => Some(
                value
                    .parse::<u64>()
                    .map_err(|_| format!("invalid --cancel job id `{value}`"))?,
            ),
        };
        let status = match take_value_flag(&mut args, "--status")? {
            None => None,
            Some(value) => Some(
                value
                    .parse::<u64>()
                    .map_err(|_| format!("invalid --status job id `{value}`"))?,
            ),
        };
        let mut retry = Policy::SUBMIT;
        if let Some(value) = take_value_flag(&mut args, "--retry-attempts")? {
            retry.attempts = value
                .parse::<u32>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("invalid --retry-attempts value `{value}`"))?;
        }
        if let Some(value) = take_value_flag(&mut args, "--retry-base-ms")? {
            let ms = value
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("invalid --retry-base-ms value `{value}`"))?;
            retry.base = std::time::Duration::from_millis(ms);
        }
        let drain_deadline = match take_value_flag(&mut args, "--drain-deadline-ms")? {
            None => None,
            Some(value) => Some(
                value
                    .parse::<u64>()
                    .map_err(|_| format!("invalid --drain-deadline-ms value `{value}`"))?,
            ),
        };
        Ok((addr, cancel, status, retry, drain_deadline))
    })();
    let (addr, cancel, status, retry, drain_deadline) = match parsed {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(code) = refuse_unknown_flags(&args) {
        return code;
    }

    // Control ops: one connection, one request, print the response line.
    let control = if stats_op {
        Some(Request::Stats)
    } else if shutdown_op {
        Some(Request::Shutdown {
            drain,
            deadline_ms: drain_deadline,
        })
    } else if let Some(id) = cancel {
        Some(Request::Cancel { id })
    } else {
        status.map(|id| Request::Status { id })
    };
    if let Some(request) = control {
        let mut conn = match Connection::connect(&addr) {
            Ok(conn) => conn,
            Err(err) => {
                eprintln!("cannot connect to {addr}: {err}");
                return ExitCode::from(2);
            }
        };
        return match conn.request(&request) {
            Ok(response) => {
                println!("{response}");
                if response.get("ok").and_then(Json::as_bool) == Some(true) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(2)
                }
            }
            Err(err) => {
                eprintln!("daemon request failed: {err}");
                ExitCode::from(2)
            }
        };
    }

    if args.is_empty() {
        eprintln!("no input files\n{USAGE}");
        return ExitCode::from(2);
    }
    let mut files = Vec::with_capacity(args.len());
    for path in &args {
        match std::fs::read_to_string(path) {
            Ok(source) => files.push((path.clone(), source)),
            Err(err) => {
                eprintln!("cannot read {path}: {err}");
                return ExitCode::from(2);
            }
        }
    }
    let request = Request::Submit {
        name: "cli".to_string(),
        priority: wasabi::serve::scheduler::DEFAULT_PRIORITY,
        files,
        jobs: flags.jobs_explicit.then_some(flags.jobs),
        shards: flags.shards,
    };
    // Each attempt reconnects: connect failures and admission rejections
    // (full queue, draining daemon) are the transient refusals worth a
    // backoff; protocol errors are fatal and fail immediately.
    let quiet = flags.quiet;
    let attempted = wasabi::serve::retry_submit(
        &retry,
        |attempt| {
            if attempt > 0 && !quiet {
                eprintln!("[submit] retrying (attempt {})", attempt + 1);
            }
            let mut conn = match Connection::connect(&addr) {
                Ok(conn) => conn,
                Err(err) => {
                    return SubmitAttempt::Retryable(format!("cannot connect to {addr}: {err}"))
                }
            };
            let submitted = match conn.request(&request) {
                Ok(response) => response,
                Err(err) => {
                    return SubmitAttempt::Retryable(format!("daemon request failed: {err}"))
                }
            };
            if submitted.get("ok").and_then(Json::as_bool) != Some(true) {
                return if let Some(reason) = submitted.get("rejected").and_then(Json::as_str) {
                    SubmitAttempt::Retryable(format!("submission rejected: {reason}"))
                } else {
                    let message = submitted.get("error").and_then(Json::as_str).unwrap_or("?");
                    SubmitAttempt::Fatal(format!("submission failed: {message}"))
                };
            }
            // A daemon that predates submit-by-digest reports no uploads.
            let uploaded = submitted.get("uploaded").and_then(Json::as_u64);
            match submitted.get("id").and_then(Json::as_u64) {
                Some(id) => SubmitAttempt::Ok((conn, id, uploaded)),
                None => SubmitAttempt::Fatal("daemon response carried no job id".to_string()),
            }
        },
        std::thread::sleep,
    );
    let (mut conn, id, uploaded) = match attempted {
        Ok(accepted) => accepted,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if !flags.quiet {
        let uploads = uploaded.map(|n| format!(" ({n} file(s) uploaded)")).unwrap_or_default();
        eprintln!("[submit] job {id} queued on {addr}{uploads}");
    }

    if subscribe {
        // Stream span/progress events to stderr until the terminal
        // event, then fall through to collect the report.
        match conn.request(&Request::Subscribe { id }) {
            Ok(ack) if ack.get("ok").and_then(Json::as_bool) == Some(true) => {
                while let Ok(Some(line)) = conn.read_line() {
                    eprintln!("[event] {line}");
                    let finished = Json::parse(&line)
                        .ok()
                        .and_then(|e| e.get("event").and_then(Json::as_str).map(str::to_string))
                        .is_some_and(|kind| kind == "finished");
                    if finished {
                        break;
                    }
                }
            }
            Ok(ack) => {
                eprintln!("subscribe failed: {ack:?}");
                return ExitCode::from(2);
            }
            Err(err) => {
                eprintln!("subscribe failed: {err}");
                return ExitCode::from(2);
            }
        }
    }

    match conn.request(&Request::Wait { id }) {
        Ok(response) if response.get("ok").and_then(Json::as_bool) == Some(true) => {
            if let Some(report) = response.get("report").and_then(Json::as_str) {
                // The report string already ends with a newline
                // (`Json::pretty` output), matching `wasabi test --json`.
                print!("{report}");
            }
            if !flags.quiet {
                let cached = response.get("cached").and_then(Json::as_bool) == Some(true);
                eprintln!("[submit] job {id} done{}", if cached { " (cache hit)" } else { "" });
            }
            let bugs = response.get("bugs").and_then(Json::as_u64).unwrap_or(0);
            if bugs == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(response) => {
            let message = response.get("error").and_then(Json::as_str).unwrap_or("?");
            eprintln!("job {id} failed: {message}");
            ExitCode::from(2)
        }
        Err(err) => {
            eprintln!("daemon request failed: {err}");
            ExitCode::from(2)
        }
    }
}

fn corpus(args: &[String]) -> ExitCode {
    let mut args: Vec<String> = args.to_vec();
    let amp = take_flag(&mut args, "--amp");
    let policy = take_flag(&mut args, "--policy");
    let (Some(app), Some(out_dir)) = (args.first(), args.get(1)) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(spec) = wasabi::corpus::spec::paper_apps()
        .into_iter()
        .find(|s| s.short == *app)
    else {
        eprintln!("unknown app `{app}` (HA HD MA YA HB HI CA EL)");
        return ExitCode::from(2);
    };
    let scale = wasabi::corpus::spec::Scale::Small;
    let mut generated = if amp {
        wasabi::corpus::synth::generate_app_with_amp(&spec, scale)
    } else {
        wasabi::corpus::synth::generate_app(&spec, scale)
    };
    if policy {
        wasabi::corpus::synth::append_policy_seeds(&mut generated);
    }
    for (path, source) in &generated.files {
        let full = std::path::Path::new(out_dir).join(path);
        if let Some(parent) = full.parent() {
            if let Err(err) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {err}", parent.display());
                return ExitCode::from(2);
            }
        }
        if let Err(err) = std::fs::write(&full, source) {
            eprintln!("cannot write {}: {err}", full.display());
            return ExitCode::from(2);
        }
    }
    // The policy truth labels ride along as a sidecar so external
    // harnesses (and the lint gate) can score W004–W006 findings without
    // linking the corpus crate.
    if policy {
        let sidecar = Json::arr(generated.truth.policy_seeds.iter().map(|seed| {
            Json::obj([
                ("id", Json::from(seed.id.as_str())),
                ("code", Json::from(seed.code)),
                (
                    "coordinator",
                    Json::from(format!(
                        "{}.{}",
                        seed.coordinator.class, seed.coordinator.name
                    )),
                ),
                ("file", Json::from(seed.file_path.as_str())),
                ("genuine", Json::from(seed.genuine)),
            ])
        }));
        let full = std::path::Path::new(out_dir).join("policy_truth.json");
        if let Err(err) = std::fs::write(&full, sidecar.pretty()) {
            eprintln!("cannot write {}: {err}", full.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "wrote {} files ({} retry structures, {} unit tests) to {out_dir}",
        generated.files.len(),
        generated.truth.structures.len(),
        generated.tests_generated
    );
    ExitCode::SUCCESS
}

/// `wasabi repair`: synthesize patches for confirmed retry diagnostics
/// and validate each candidate with a targeted fault-injection campaign.
/// Exit 0 when every target is fixed (or there was nothing to fix),
/// 1 when unfixed targets remain, 2 on usage or I/O errors.
fn repair(mut args: Vec<String>, json: bool, flags: &CampaignFlags) -> ExitCode {
    let max_fix_attempts = match take_value_flag(&mut args, "--max-fix-attempts") {
        Ok(Some(value)) => match value.parse::<u32>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("invalid --max-fix-attempts value `{value}`");
                return ExitCode::from(2);
            }
        },
        Ok(None) => 3,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (report_path, out_dir, corpus_app) = match (
        take_value_flag(&mut args, "--report"),
        take_value_flag(&mut args, "--out"),
        take_value_flag(&mut args, "--corpus"),
    ) {
        (Ok(report), Ok(out), Ok(corpus)) => (report.map(PathBuf::from), out, corpus),
        (Err(message), _, _) | (_, Err(message), _) | (_, _, Err(message)) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let amp = take_flag(&mut args, "--amp");
    let scale = match take_value_flag(&mut args, "--scale") {
        Ok(found) => match found.as_deref() {
            None | Some("small") => wasabi::corpus::spec::Scale::Small,
            Some("tiny") => wasabi::corpus::spec::Scale::Tiny,
            Some("paper") => wasabi::corpus::spec::Scale::Paper,
            Some(other) => {
                eprintln!("invalid --scale `{other}` (tiny|small|paper)");
                return ExitCode::from(2);
            }
        },
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(code) = refuse_unknown_flags(&args) {
        return code;
    }

    // Corpus mode generates the app in-memory (with ground truth for
    // scoring); file mode reads the argument paths.
    let (name, sources, truth, llm_seed) = if let Some(app) = corpus_app {
        if !args.is_empty() {
            eprintln!("--corpus and explicit input files are mutually exclusive\n{USAGE}");
            return ExitCode::from(2);
        }
        let Some(spec) = wasabi::corpus::spec::paper_apps()
            .into_iter()
            .find(|s| s.short == app)
        else {
            eprintln!("unknown app `{app}` (HA HD MA YA HB HI CA EL)");
            return ExitCode::from(2);
        };
        let generated = if amp {
            wasabi::corpus::synth::generate_app_with_amp(&spec, scale)
        } else {
            wasabi::corpus::synth::generate_app(&spec, scale)
        };
        let seed = generated.spec.seed;
        (app, generated.files, Some(generated.truth), seed)
    } else {
        if amp {
            eprintln!("--amp requires --corpus\n{USAGE}");
            return ExitCode::from(2);
        }
        if args.is_empty() {
            eprintln!("no input files\n{USAGE}");
            return ExitCode::from(2);
        }
        // A `..` input would map outside the output directory, up to the
        // input itself.
        if out_dir.is_some() {
            let escaping = args.iter().find(|path| {
                std::path::Path::new(path)
                    .components()
                    .any(|c| c == std::path::Component::ParentDir)
            });
            if let Some(path) = escaping {
                eprintln!("--out input paths must not contain `..`: {path:?}");
                return ExitCode::from(2);
            }
        }
        let mut sources = Vec::new();
        for path in &args {
            match std::fs::read_to_string(path) {
                Ok(source) => sources.push((path.clone(), source)),
                Err(err) => {
                    eprintln!("cannot read {path}: {err}");
                    return ExitCode::from(2);
                }
            }
        }
        ("project".to_string(), sources, None, 0)
    };

    let options = wasabi::repair::RepairOptions {
        jobs: flags.jobs,
        max_fix_attempts,
        llm_seed,
    };
    let outcome = match wasabi::repair::repair(&name, sources, &options) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("repair failed: {err}");
            return ExitCode::from(2);
        }
    };

    let report = wasabi::repair::render_report(&outcome, truth.as_ref());
    if let Some(path) = &report_path {
        if let Err(err) = wasabi::util::write_atomic(path, report.pretty().as_bytes()) {
            eprintln!("cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(dir) = &out_dir {
        for (path, source) in &outcome.sources {
            // Keep absolute input paths inside the output directory
            // instead of letting `join` escape back to the originals.
            let full = std::path::Path::new(dir).join(path.trim_start_matches('/'));
            if let Some(parent) = full.parent() {
                if let Err(err) = std::fs::create_dir_all(parent) {
                    eprintln!("cannot create {}: {err}", parent.display());
                    return ExitCode::from(2);
                }
            }
            if let Err(err) = wasabi::util::write_atomic(&full, source.as_bytes()) {
                eprintln!("cannot write {}: {err}", full.display());
                return ExitCode::from(2);
            }
        }
    }

    let fixed = outcome.targets.iter().filter(|t| t.fixed).count();
    if json {
        print!("{}", report.pretty());
    } else {
        for target in &outcome.targets {
            let status = if target.fixed { "fixed" } else { "UNFIXED" };
            let detail = if target.fixed {
                match target.tried.iter().find(|a| a.accepted) {
                    Some(attempt) => {
                        format!("{} after {} attempt(s)", attempt.template, target.attempts)
                    }
                    None => "side effect of an earlier patch".to_string(),
                }
            } else {
                target.reason.clone()
            };
            println!(
                "{status} {} {} ({detail})",
                target.code, target.coordinator
            );
        }
        println!(
            "repair: {fixed}/{} targets fixed ({} baseline + {} validation runs)",
            outcome.targets.len(),
            outcome.baseline_runs,
            outcome.validation_runs
        );
    }
    if fixed == outcome.targets.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
