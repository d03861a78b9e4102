//! Adaptive-mode invariants (`wasabi test --adaptive`): the adaptive
//! planner must keep fixed-grid recall on seeded ground truth while
//! executing fewer runs, and its report must be byte-identical across
//! worker counts and resume splits.

mod common;

use std::path::{Path, PathBuf};
use std::process::Command;

/// Seeded ground truth: one uncapped+undelayed structure (both WHEN
/// bugs), one clean capped+delayed structure (rethrow-filtered give-up),
/// and one single-attempt structure whose two catch-paths wrap the
/// injected exception into *distinct* types (two HOW bugs, each
/// witnessed only by its own K=1 run).
const FLAKY: &str = "\
exception ConnectException;\n\
class Flaky {\n\
  method op() throws ConnectException { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tFlaky() { assert(this.run() == \"ok\"); }\n\
}\n";

const SOLID: &str = "\
exception SocketException;\n\
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

const CORRUPT: &str = "\
exception E;\n\
exception F;\n\
exception WrapE;\n\
exception WrapF;\n\
class Corrupt {\n\
  field last = \"\";\n\
  method op() throws E, F { return \"ok\"; }\n\
  method run() {\n\
    for (var retry = 0; retry < 1; retry = retry + 1) {\n\
      try { return this.op(); }\n\
      catch (E e) { this.last = \"E\"; sleep(5); }\n\
      catch (F e) { this.last = \"F\"; sleep(5); }\n\
    }\n\
    if (this.last == \"E\") { throw new WrapE(\"corrupt\"); }\n\
    throw new WrapF(\"corrupt\");\n\
  }\n\
  test tRun() { assert(this.run() == \"ok\"); }\n\
}\n";

/// The same structure but wrapping both catch-paths into ONE type: the
/// two probes share an equivalence class, so adaptive dedups one widen
/// run — and must still report the identical (single) deduped bug.
const CORRUPT_SHARED: &str = "\
exception E;\n\
exception F;\n\
exception Wrap;\n\
class Shared {\n\
  method op() throws E, F { return \"ok\"; }\n\
  method run() {\n\
    for (var retry = 0; retry < 1; retry = retry + 1) {\n\
      try { return this.op(); }\n\
      catch (E e) { sleep(5); }\n\
      catch (F e) { sleep(5); }\n\
    }\n\
    throw new Wrap(\"gave up\");\n\
  }\n\
  test tRun() { assert(this.run() == \"ok\"); }\n\
}\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wasabi-adaptive-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_apps(dir: &Path, apps: &[(&str, &str)]) -> Vec<String> {
    apps.iter()
        .map(|(name, source)| {
            let path = dir.join(name);
            std::fs::write(&path, source).expect("write app");
            path.to_string_lossy().into_owned()
        })
        .collect()
}

/// Runs `wasabi test --json --quiet` with extra flags; exit 0/1 are both
/// fine (1 = bugs found), anything else is a harness failure.
fn test_json(files: &[String], extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_wasabi"))
        .arg("test")
        .arg("--json")
        .arg("--quiet")
        .args(extra)
        .args(files)
        .output()
        .expect("wasabi runs");
    let code = output.status.code().expect("wasabi exits");
    assert!(
        code <= 1,
        "wasabi test exited {code}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 report")
}

fn field(report: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    let at = report.find(&needle).unwrap_or_else(|| panic!("no {name} in report"));
    report[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

/// The report without its `runs_planned` line: adaptive executes fewer
/// runs by design, so recall comparisons strip the one field that
/// legitimately differs.
fn without_runs_planned(report: &str) -> String {
    report
        .lines()
        .filter(|line| !line.contains("\"runs_planned\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn adaptive_keeps_fixed_grid_recall_with_fewer_runs() {
    let dir = temp_dir("recall");
    let files = write_apps(
        &dir,
        &[("flaky.jav", FLAKY), ("solid.jav", SOLID), ("corrupt.jav", CORRUPT)],
    );
    let fixed = test_json(&files, &[]);
    let adaptive = test_json(&files, &["--adaptive"]);
    assert_eq!(
        without_runs_planned(&fixed),
        without_runs_planned(&adaptive),
        "adaptive must find the identical bug set (and identical everything else)"
    );
    assert!(
        field(&adaptive, "runs_planned") < field(&fixed, "runs_planned"),
        "adaptive must execute fewer runs: {} vs {}",
        field(&adaptive, "runs_planned"),
        field(&fixed, "runs_planned")
    );
    // Ground truth: both WHEN bugs and both distinct HOW bugs survive.
    for needle in ["missing-cap", "missing-delay", "WrapE", "WrapF"] {
        assert!(adaptive.contains(needle), "report lost {needle}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dedup_never_drops_a_sole_witness() {
    let dir = temp_dir("witness");
    // Distinct wrap types: the two probes have different fingerprints, so
    // neither widen run may be deduped away — each is the sole witness of
    // its own HOW bug.
    let files = write_apps(&dir, &[("corrupt.jav", CORRUPT)]);
    let fixed = test_json(&files, &[]);
    let adaptive = test_json(&files, &["--adaptive"]);
    assert_eq!(without_runs_planned(&fixed), without_runs_planned(&adaptive));
    assert_eq!(
        field(&adaptive, "runs_planned"),
        field(&fixed, "runs_planned"),
        "both probes are inconclusive with distinct fingerprints: nothing may be skipped"
    );

    // Shared wrap type: the probes collapse into one equivalence class,
    // one widen run dedups, and the (single) deduped bug is unchanged —
    // only its grouped-report count shrinks (the skipped run would have
    // contributed a second witness of the *same* bug, which is exactly
    // what makes it safe to skip).
    let files = write_apps(&dir, &[("shared.jav", CORRUPT_SHARED)]);
    let fixed = test_json(&files, &[]);
    let adaptive = test_json(&files, &["--adaptive"]);
    let bugs_only = |report: &str| -> String {
        without_runs_planned(report)
            .lines()
            .filter(|line| !line.contains("\"reports\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(bugs_only(&fixed), bugs_only(&adaptive));
    assert!(
        field(&adaptive, "runs_planned") < field(&fixed, "runs_planned"),
        "same-class probes must dedup the redundant widen run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_report_is_byte_identical_across_jobs() {
    let dir = temp_dir("jobs");
    let files = write_apps(
        &dir,
        &[("flaky.jav", FLAKY), ("solid.jav", SOLID), ("corrupt.jav", CORRUPT)],
    );
    let serial = test_json(&files, &["--adaptive"]);
    let parallel = test_json(&files, &["--adaptive", "--jobs", "4"]);
    assert_eq!(serial, parallel, "adaptive selection must not depend on scheduling");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_report_is_byte_identical_across_resume() {
    let dir = temp_dir("resume");
    let files = write_apps(
        &dir,
        &[("flaky.jav", FLAKY), ("solid.jav", SOLID), ("corrupt.jav", CORRUPT)],
    );
    let journal = dir.join("journal.jsonl");
    let journal_arg = journal.to_string_lossy().into_owned();
    let baseline = test_json(&files, &["--adaptive", "--journal", &journal_arg]);

    // Truncate the journal to its first half (simulating an interrupted
    // campaign: some probe records durable, nothing else) and resume.
    // The resumed report must be byte-identical — resumed probe records
    // feed the widen selection exactly like executed ones.
    let full = std::fs::read_to_string(&journal).expect("journal exists");
    let lines: Vec<&str> = full.lines().collect();
    assert!(lines.len() >= 4, "journal too small to split: {}", lines.len());
    let half: String = lines[..lines.len() / 2]
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();
    let partial = dir.join("partial.jsonl");
    std::fs::write(&partial, half).expect("write partial journal");
    let partial_arg = partial.to_string_lossy().into_owned();
    let resumed = test_json(&files, &["--adaptive", "--resume", &partial_arg]);
    assert_eq!(baseline, resumed, "resume must not change the adaptive report");

    // Resuming from the *complete* journal re-executes nothing and still
    // reproduces the identical report.
    let complete = test_json(&files, &["--adaptive", "--resume", &journal_arg]);
    assert_eq!(baseline, complete);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nothing untraced may run between the phases of an adaptive campaign:
/// the union of phase spans must cover at least 90% of the trace's
/// extent (first span start to last span end), so `--trace-out` answers
/// where the time went. The profile phase carries its prefilter and
/// baseline-execution steps.
#[test]
fn adaptive_trace_phases_tile_the_trace() {
    let dir = temp_dir("tiling");
    let app = dir.join("HD");
    let output = Command::new(env!("CARGO_BIN_EXE_wasabi"))
        .arg("corpus")
        .arg("HD")
        .arg(&app)
        .output()
        .expect("wasabi corpus runs");
    assert!(output.status.success(), "wasabi corpus HD failed");
    let files = common::jav_files(&app);
    assert!(!files.is_empty(), "corpus produced no sources");
    let trace_path = dir.join("trace.jsonl");
    let trace_arg = trace_path.to_string_lossy().into_owned();
    test_json(&files, &["--adaptive", "--trace-out", &trace_arg]);

    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let trace = wasabi::engine::spans::parse_trace(&text).expect("trace parses");
    assert!(!trace.runs.is_empty(), "the campaign executed runs");
    // The profile phase is split into its two steps, both inside it.
    let span = |name: &str| {
        let found = trace.phases.iter().find(|p| p.name == name);
        found.unwrap_or_else(|| panic!("no `{name}` span"))
    };
    let profile = span("profile");
    for step in ["profile.prefilter", "profile.baseline-exec"] {
        let step = span(step);
        assert!(profile.start_us <= step.start_us && step.end_us <= profile.end_us);
    }
    let mut phases: Vec<(u64, u64)> = trace
        .phases
        .iter()
        .map(|p| (p.start_us, p.end_us))
        .collect();
    let runs = trace.runs.iter().map(|r| (r.start_us, r.end_us));
    let spans = || phases.iter().copied().chain(runs.clone());
    let first = spans().map(|(start, _)| start).min().expect("spans");
    let last = spans().map(|(_, end)| end).max().expect("spans");

    phases.sort_unstable();
    let mut covered = 0u64;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in phases {
        open = match open {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = open {
        covered += e - s;
    }
    let extent = (last - first).max(1);
    assert!(
        covered * 10 >= extent * 9,
        "phases cover {covered} of {extent} us ({}%)",
        covered * 100 / extent
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_refuses_sharding() {
    for combo in [
        vec!["test", "--adaptive", "--shards", "2", "x.jav"],
        vec!["test", "--adaptive", "--shard-range", "0:4", "x.jav"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_wasabi"))
            .args(&combo)
            .output()
            .expect("wasabi runs");
        assert_eq!(output.status.code(), Some(2), "{combo:?} must be a usage error");
    }
}
