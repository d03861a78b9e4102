//! `wasabi-perf`: the outside-in WASABI benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path examples/perf/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run of one workload sets up several times (`setup_s` is the
//! median), runs one untimed warm-up pass that checks every verdict
//! against an independent reference, then runs whole timed passes until
//! `--seconds` have elapsed, checking that every pass reports the same
//! bytes as the warm-up. It prints every metric with its unit, quartiles
//! and sample count, and as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics, or with `--trace 1` the per-layer ones. With `--trace 1` the
//! first half of the time runs untraced and the second half traced, and
//! the spans go to `examples/perf/trace/<workload>.spans.jsonl`.
//!
//! Without `--workload`, or with several, the program runs each workload
//! in a child process of its own, so `peak_rss_mb` belongs to one
//! workload. The exit code is 0 only when every check passed.

mod lint_paper;
mod repair_small;
mod serve_resubmit;
mod stats;
mod test_paper;
mod trace;
mod workload;

/// The paper's published numbers, shared with the `repro` harness.
#[allow(dead_code)]
#[path = "../../../crates/bench/src/paper.rs"]
mod paper;

use stats::{gmean, median, min, p90, summarize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use wasabi::util::Json;
use workload::{Counts, Workload};

const WORKLOADS: [&str; 4] = ["test-paper", "lint-paper", "repair-small", "serve-resubmit"];
const USAGE: &str =
    "usage: wasabi-perf [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]";
/// A run sets up at least `SETUPS` times and for at least `SETUP_SECONDS`,
/// so that `setup_s`, their median, is steady even when one set-up takes
/// milliseconds.
const SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;
/// A traced job's direct child spans must cover this share of it.
const TILING_FLOOR: f64 = 0.9;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 15,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid {flag} value `{value}`"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => parsed.workloads.push(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload `{value}` ({})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => {
                parsed.seconds = number()?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid --trace value `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unexpected argument `{flag}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workloads.as_slice() {
        [] => return run_each(&WORKLOADS, &args),
        [name] => match name.as_str() {
            "test-paper" => measure::<test_paper::TestPaper>(name, &args),
            "lint-paper" => measure::<lint_paper::LintPaper>(name, &args),
            "repair-small" => measure::<repair_small::RepairSmall>(name, &args),
            _ => measure::<serve_resubmit::ServeResubmit>(name, &args),
        },
        names => {
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            return run_each(&names, &args);
        }
    };
    report.print(args.trace);
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each workload in a child process of its own, one after another.
fn run_each(names: &[&str], args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("cannot locate this program to run the workloads: {err}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    let trace = if args.trace { "1" } else { "0" };
    let mut ok = true;
    for name in names {
        let status = Command::new(&exe)
            .args([
                "--workload",
                name,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                trace,
            ])
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name}: {status}");
                ok = false;
            }
            Err(err) => {
                eprintln!("{name}: cannot start: {err}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One metric: its value and the samples it was computed from.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

/// Everything one workload run prints.
struct Report {
    header: String,
    notes: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Report {
    /// Counts one pass's jobs, failing those that errored or whose report
    /// differs from `reference` (the warm-up pass's reports).
    fn tally(
        &mut self,
        apps: &[&str],
        results: Vec<Result<String, String>>,
        reference: Option<&[Option<String>]>,
    ) {
        for (slot, result) in results.into_iter().enumerate() {
            self.attempted += 1;
            let problem = match (result, reference) {
                (Err(problem), _) => problem,
                (Ok(bytes), Some(reference)) if reference[slot].as_ref() != Some(&bytes) => {
                    "report bytes differ from the warm-up pass".to_string()
                }
                _ => continue,
            };
            self.failed += 1;
            self.problems.push(format!("{}: {problem}", apps[slot]));
        }
    }

    fn print(&self, trace: bool) {
        println!("{}", self.header);
        for note in &self.notes {
            println!("  {note}");
        }
        for (title, metrics) in [
            ("end to end", &self.end_to_end),
            ("per layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            println!(
                "  {title:<26} {:>7} {:>14} {:>14} {:>14} {:>5}",
                "unit", "value", "q1", "q3", "n"
            );
            for m in metrics {
                let s = summarize(&m.samples);
                println!(
                    "  {:<26} {:>7} {:>14.4} {:>14.4} {:>14.4} {:>5}",
                    m.name, m.unit, m.value, s.q1, s.q3, s.n
                );
            }
        }
        println!(
            "  {} jobs attempted, {} failed",
            self.attempted, self.failed
        );
        for problem in &self.problems {
            println!("  FAILED {problem}");
        }
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics = Json::obj(metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
            )
        }));
        let line = Json::obj([
            ("correct", Json::from(self.problems.is_empty())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics),
        ]);
        println!("{line}");
    }
}

/// One pass's timings and work counts.
struct Pass {
    seconds: f64,
    job_ms: Vec<f64>,
    counts: Counts,
}

/// Runs every job once. Job `slot` gets id `first_job + slot` in the
/// trace.
fn run_pass<W: Workload>(
    workload: &mut W,
    t: &mut Tracer,
    first_job: u64,
    check: bool,
) -> (Pass, Vec<Result<String, String>>) {
    let jobs = workload.apps().len();
    let mut pass = Pass {
        seconds: 0.0,
        job_ms: Vec::with_capacity(jobs),
        counts: Counts::new(),
    };
    let mut results = Vec::with_capacity(jobs);
    let started = Instant::now();
    t.span("pass", |t| {
        for slot in 0..jobs {
            let job_started = Instant::now();
            let depth = t.depth();
            let result = catch_unwind(AssertUnwindSafe(|| {
                t.job(first_job + slot as u64, |t| {
                    workload.job(slot, t, &mut pass.counts, check)
                })
            }));
            pass.job_ms.push(job_started.elapsed().as_secs_f64() * 1e3);
            results.push(result.unwrap_or_else(|panic| {
                t.unwind_to(depth);
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("(no message)");
                Err(format!("panicked: {message}"))
            }));
        }
    });
    pass.seconds = started.elapsed().as_secs_f64();
    (pass, results)
}

/// Runs whole passes, at least one, for about `seconds`: another pass
/// starts only if, taking as long as the last one, it would be half over
/// by then. The pass count stays the same when pass times wobble.
fn timed_passes<W: Workload>(
    workload: &mut W,
    t: &mut Tracer,
    seconds: f64,
    reference: &[Option<String>],
    report: &mut Report,
) -> Vec<Pass> {
    let apps = workload.apps();
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes
        .last()
        .is_none_or(|last: &Pass| started.elapsed().as_secs_f64() + last.seconds / 2.0 < seconds)
    {
        let first_job = (passes.len() * apps.len()) as u64;
        let (pass, results) = run_pass(workload, t, first_job, false);
        report.tally(&apps, results, Some(reference));
        passes.push(pass);
    }
    passes
}

fn measure<W: Workload>(name: &str, args: &Args) -> Report {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut report = Report {
        header: format!(
            "== wasabi-perf {name}: seed {}, {} s, nproc {nproc}, {} ==",
            args.seed,
            args.seconds,
            if args.trace { "traced" } else { "untraced" }
        ),
        notes: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut tracer = Tracer::new();
    tracer.set_recording(args.trace);
    let mut setup_s = Vec::new();
    let mut workload = match set_up::<W>(args.seed, &mut tracer, &mut setup_s) {
        Ok(workload) => {
            report.notes.push(format!("{} set-ups", setup_s.len()));
            workload
        }
        Err(problem) => {
            report.attempted = 1;
            report.failed = 1;
            report.problems.push(format!("set-up: {problem}"));
            return report;
        }
    };
    tracer.set_recording(false);
    let apps = workload.apps();

    let (warm_up, results) = run_pass(&mut workload, &mut tracer, 0, true);
    let reference: Vec<Option<String>> = results.iter().map(|r| r.clone().ok()).collect();
    report.tally(&apps, results, None);
    report.notes.push(format!(
        "warm-up pass {:.3} s; jobs in order {}",
        warm_up.seconds,
        apps.join(" ")
    ));

    let seconds = args.seconds as f64;
    let untraced_s = if args.trace { seconds / 2.0 } else { seconds };
    let untraced = timed_passes(
        &mut workload,
        &mut tracer,
        untraced_s,
        &reference,
        &mut report,
    );
    let pass_s: Vec<f64> = untraced.iter().map(|p| p.seconds).collect();
    if args.trace {
        tracer.set_recording(true);
        let traced = timed_passes(
            &mut workload,
            &mut tracer,
            seconds - untraced_s,
            &reference,
            &mut report,
        );
        if let Err(problem) = tracer.span("breakdown", |t| workload.breakdown(t)) {
            report.problems.push(format!("breakdown: {problem}"));
        }
        let tiling = tracer.job_tiling();
        let low = tiling.iter().filter(|&&cover| cover < TILING_FLOOR).count();
        report.notes.push(format!(
            "tiling: direct children cover at least {:.1}% of each of {} traced jobs",
            100.0 * tiling.iter().copied().fold(1.0, f64::min),
            tiling.len()
        ));
        if low > 0 {
            report.failed += low;
            report.problems.push(format!(
                "{low} traced job(s) have direct child spans covering under {:.0}% of the job",
                TILING_FLOOR * 100.0
            ));
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("trace")
            .join(format!("{name}.spans.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(err) => report
                .problems
                .push(format!("cannot write {}: {err}", path.display())),
        }
        report.per_layer = per_layer(&tracer, &traced, &pass_s);
    }
    // Neighbours on the host only ever add time, so a pass or job is
    // reported by its fastest run (see README.md, "Noise").
    let app_ms: Vec<f64> = (0..apps.len())
        .map(|slot| min(&untraced.iter().map(|p| p.job_ms[slot]).collect::<Vec<_>>()))
        .collect();
    let rss = peak_rss_mb().unwrap_or_else(|problem| {
        report.problems.push(problem);
        0.0
    });
    report.end_to_end = vec![
        metric("setup_s", "s", median(&setup_s), setup_s),
        metric("pass_s", "s", min(&pass_s), pass_s),
        metric("job_gmean_ms", "ms", gmean(&app_ms), app_ms),
        metric("peak_rss_mb", "MB", rss, vec![rss]),
    ];
    report
}

/// Sets up repeatedly, each set-up torn down before the next so only one
/// is ever live, timing each into `setup_s`. Returns the last.
fn set_up<W: Workload>(seed: u64, t: &mut Tracer, setup_s: &mut Vec<f64>) -> Result<W, String> {
    let mut kept = None;
    while setup_s.len() < SETUPS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        drop(kept.take());
        let started = Instant::now();
        let made = t.span("setup", |t| W::setup(seed, t));
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some(made?);
    }
    Ok(kept.expect("at least one set-up ran"))
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: Vec<f64>) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// Where a per-layer metric comes from.
enum Source {
    /// Per-pass self time of the spans of this name.
    Span(&'static str),
    /// The per-pass work counter of the metric's own name.
    Count,
    /// `numerator / denominator × scale`, each a span or counter name.
    Ratio(&'static str, &'static str, f64),
    /// A quantile of the durations of the spans of this name.
    Quantile(&'static str, fn(&[f64]) -> f64),
    /// Traced over untraced `pass_s`, minus 1, in percent.
    Overhead,
}

/// Every per-layer metric, in pipeline order. Layers a workload never
/// enters read 0 with no samples.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("corpus.generate_ms", "ms", Source::Span("corpus.generate")),
    ("lang.compile_ms", "ms", Source::Span("lang.compile")),
    ("lang.source_mb", "MB", Source::Count),
    (
        "lang.mb_per_s",
        "MB/s",
        Source::Ratio("lang.source_mb", "lang.compile", 1e3),
    ),
    ("core.identify_ms", "ms", Source::Span("core.identify")),
    (
        "analysis.retry_query_ms",
        "ms",
        Source::Span("analysis.retry_query"),
    ),
    ("llm.sweep_ms", "ms", Source::Span("llm.sweep")),
    ("llm.calls", "count", Source::Count),
    (
        "core.lint_overlap_ms",
        "ms",
        Source::Span("core.lint_overlap"),
    ),
    ("analysis.lint_ms", "ms", Source::Span("analysis.lint")),
    ("analysis.diagnostics", "count", Source::Count),
    (
        "core.cross_check_ms",
        "ms",
        Source::Span("core.cross_check"),
    ),
    ("core.cross_check_cells", "count", Source::Count),
    ("planner.restore_ms", "ms", Source::Span("planner.restore")),
    ("planner.profile_ms", "ms", Source::Span("planner.profile")),
    ("planner.plan_ms", "ms", Source::Span("planner.plan")),
    ("planner.tests_total", "count", Source::Count),
    ("planner.tests_covering", "count", Source::Count),
    (
        "planner.covering_ratio",
        "ratio",
        Source::Ratio("planner.tests_covering", "planner.tests_total", 1.0),
    ),
    ("engine.run_ms", "ms", Source::Span("engine.run")),
    ("engine.runs", "count", Source::Count),
    ("engine.retried", "count", Source::Count),
    ("vm.steps", "count", Source::Count),
    (
        "vm.steps_per_s",
        "1/s",
        Source::Ratio("vm.steps", "engine.run", 1e3),
    ),
    ("core.report_ms", "ms", Source::Span("core.report")),
    ("oracles.bugs", "count", Source::Count),
    (
        "oracles.bugs_per_run",
        "ratio",
        Source::Ratio("oracles.bugs", "engine.runs", 1.0),
    ),
    ("core.render_ms", "ms", Source::Span("core.render")),
    ("serve.submit_ms", "ms", Source::Span("serve.submit")),
    ("serve.wait_ms", "ms", Source::Span("serve.wait")),
    ("serve.frame_mb", "MB", Source::Count),
    (
        "serve.cache_hit_ratio",
        "ratio",
        Source::Ratio("serve.cache_hits", "serve.cache_lookups", 1.0),
    ),
    (
        "serve.job_p50_ms",
        "ms",
        Source::Quantile("serve.round_trip", median),
    ),
    (
        "serve.job_p90_ms",
        "ms",
        Source::Quantile("serve.round_trip", p90),
    ),
    ("repair.session_ms", "ms", Source::Span("repair.session")),
    ("repair.targets", "count", Source::Count),
    ("repair.fixed", "count", Source::Count),
    ("repair.candidates", "count", Source::Count),
    (
        "repair.accept_ratio",
        "ratio",
        Source::Ratio("repair.accepted", "repair.candidates", 1.0),
    ),
    ("repair.validation_runs", "count", Source::Count),
    ("trace_overhead_pct", "%", Source::Overhead),
];

fn per_layer(tracer: &Tracer, traced: &[Pass], untraced_pass_s: &[f64]) -> Vec<Metric> {
    let spans = tracer.layer_ms();
    let samples = |key: &str| -> Vec<f64> {
        spans.get(key).cloned().unwrap_or_else(|| {
            traced
                .iter()
                .filter_map(|pass| pass.counts.get(key).copied())
                .collect()
        })
    };
    let of = |statistic: fn(&[f64]) -> f64, samples: Vec<f64>| {
        let value = if samples.is_empty() {
            0.0
        } else {
            statistic(&samples)
        };
        (value, samples)
    };
    PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let (value, samples) = match source {
                Source::Span(span) => of(median, spans.get(*span).cloned().unwrap_or_default()),
                Source::Count => of(median, samples(name)),
                Source::Ratio(numerator, denominator, scale) => {
                    let ratio = median(&samples(numerator)) / median(&samples(denominator)) * scale;
                    let ratio = if ratio.is_finite() { ratio } else { 0.0 };
                    (ratio, vec![ratio])
                }
                Source::Quantile(span, quantile) => of(*quantile, tracer.durations_ms(span)),
                Source::Overhead => {
                    let traced_s: Vec<f64> = traced.iter().map(|p| p.seconds).collect();
                    let overhead = (min(&traced_s) / min(untraced_pass_s) - 1.0) * 100.0;
                    (overhead, vec![overhead])
                }
            };
            metric(name, unit, value, samples)
        })
        .collect()
}

/// High-water resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The last output line must carry exactly the per-layer metrics
    /// `BENCHMARK.json` lists, with the same units.
    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let json = Json::parse(include_str!("../../../BENCHMARK.json")).expect("valid JSON");
        let listed: Vec<(&str, &str)> = json
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("a per_layer list")
            .iter()
            .map(|m| {
                let field = |key| m.get(key).and_then(Json::as_str).expect("name and unit");
                (field("name"), field("unit"))
            })
            .collect();
        let emitted: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
        assert_eq!(listed, emitted);
    }
}
