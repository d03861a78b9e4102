//! Pins the CLI exit-code contract: 0 = success, 1 = findings in valid
//! inputs (retry bugs, lint diagnostics), 2 = usage, input, or I/O
//! errors. Scripts (xtask, CI) branch on these values — `run_wasabi_test`
//! tolerates 1 and aborts on ≥ 2 — so a drift here silently corrupts
//! every downstream gate.

mod common;

use common::jav_files;
use std::path::Path;
use std::process::{Command, Output};

const CLEAN_APP: &str = "\
exception E;\n\
class Clean {\n\
  method op() { return \"ok\"; }\n\
  test tOp() { assert(this.op() == \"ok\"); }\n\
}\n";

const BUGGY_APP: &str = "\
exception E;\n\
class Buggy {\n\
  method op() throws E { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (E e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tRun() { assert(this.run() == \"ok\"); }\n\
}\n";

/// Two identical uncapped, undelayed retry loops in one method: four
/// diagnostics (W001 + W002 per loop) that share two fingerprints.
const TWIN_LOOPS_APP: &str = "\
exception E;\n\
class Twin {\n\
  method op() throws E { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (E e) { log(\"retrying\"); }\n\
    }\n\
    while (true) {\n\
      try { return this.op(); } catch (E e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tRun() { assert(this.run() == \"ok\"); }\n\
}\n";

/// A valid app whose comment holds `€`, then 46 ASCII bytes, then `<`: the
/// simulated LLM once cut its 48-byte cap window through the `€` and
/// panicked (exit 101) in both `lint` and `test`.
fn euro_app() -> String {
    format!(
        "exception E;\n\
         class Euro {{\n\
           // €{}<\n\
           method op() {{ return \"ok\"; }}\n\
           test tOp() {{ assert(this.op() == \"ok\"); }}\n\
         }}\n",
        "x".repeat(46)
    )
}

fn wasabi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wasabi"))
}

fn run(args: &[&str]) -> Output {
    wasabi().args(args).output().expect("wasabi runs")
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("wasabi exits, not signalled")
}

fn write_app(dir: &Path, name: &str, source: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, source).expect("write app");
    path.to_string_lossy().into_owned()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wasabi-exit-codes-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn no_arguments_and_unknown_command_are_usage_errors() {
    assert_eq!(code(&run(&[])), 2);
    assert_eq!(code(&run(&["frobnicate"])), 2);
    // Timing lives in the outside-in benchmark (examples/perf), not the CLI.
    let bench = run(&["bench"]);
    assert_eq!(code(&bench), 2, "bench is not a command");
    assert!(String::from_utf8_lossy(&bench.stderr).contains("usage:"), "bench prints the usage text");
    assert_eq!(code(&run(&["test"])), 2, "no input files");
    assert_eq!(code(&run(&["test", "--jobs", "0", "x.jav"])), 2, "bad flag value");
    // A zero queue timeout would expire every job before it could start.
    // The unbindable socket path keeps a regression from serving forever.
    let zero_timeout = run(&[
        "serve",
        "--queue-timeout-ms",
        "0",
        "--unix",
        "/nonexistent/wasabi.sock",
    ]);
    assert_eq!(code(&zero_timeout), 2, "zero queue timeout");
    assert!(
        String::from_utf8_lossy(&zero_timeout.stderr).contains("--queue-timeout-ms"),
        "the refusal names the flag"
    );
    // An unrecognized `--flag` is a usage error, never an input path.
    for (args, flag) in [
        (
            &["test", "--profile-cache", "d", "x.jav"][..],
            "--profile-cache",
        ),
        (&["lint", "--bogus", "x.jav"][..], "--bogus"),
        (
            &["repair", "--corpus", "HD", "--profile-cache", "d"][..],
            "--profile-cache",
        ),
    ] {
        let output = run(args);
        assert_eq!(code(&output), 2, "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn missing_and_invalid_inputs_are_exit_2() {
    let dir = temp_dir("invalid");
    assert_eq!(
        code(&run(&["test", "--quiet", "/nonexistent/missing.jav"])),
        2,
        "unreadable input"
    );
    let bad = write_app(&dir, "bad.jav", "class {");
    for command in ["analyze", "sweep", "lint", "test"] {
        assert_eq!(
            code(&run(&[command, "--quiet", &bad])),
            2,
            "compile errors are input errors, not findings ({command})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_app_is_0_and_findings_are_1() {
    let dir = temp_dir("findings");
    let clean = write_app(&dir, "clean.jav", CLEAN_APP);
    let buggy = write_app(&dir, "buggy.jav", BUGGY_APP);
    assert_eq!(code(&run(&["test", "--quiet", &clean])), 0, "no retry bugs");
    assert_eq!(code(&run(&["test", "--quiet", &buggy])), 1, "retry bugs found");
    assert_eq!(code(&run(&["analyze", &clean])), 0);
    assert_eq!(code(&run(&["lint", "--quiet", &clean])), 0, "no diagnostics");
    assert_eq!(code(&run(&["lint", "--quiet", &buggy])), 1, "lint diagnostics");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--write-baseline` reports the fingerprints it wrote, not the
/// diagnostics behind them, and the baseline then suppresses every one of
/// those diagnostics.
#[test]
fn lint_baseline_counts_written_fingerprints_and_suppresses_all_diagnostics() {
    let dir = temp_dir("baseline");
    let app = write_app(&dir, "twin.jav", TWIN_LOOPS_APP);
    let baseline = dir.join("b.txt").to_string_lossy().into_owned();
    let linted = run(&["lint", &app]);
    assert_eq!(code(&linted), 1);
    assert!(
        String::from_utf8_lossy(&linted.stdout).contains("4 diagnostics"),
        "fixture drifted: {}",
        String::from_utf8_lossy(&linted.stdout)
    );
    let written = run(&["lint", "--write-baseline", &baseline, &app]);
    assert_eq!(code(&written), 0);
    let lines = std::fs::read_to_string(&baseline).expect("baseline written");
    let fingerprints = lines.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(fingerprints, 2, "baseline:\n{lines}");
    assert_eq!(
        String::from_utf8_lossy(&written.stdout).trim(),
        format!("wrote {fingerprints} fingerprints to {baseline}")
    );
    let suppressed = run(&["lint", "--baseline", &baseline, &app]);
    assert_eq!(code(&suppressed), 0, "every diagnostic is in the baseline");
    assert!(String::from_utf8_lossy(&suppressed.stdout).contains("(4 suppressed by baseline)"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `test --journal` refuses a journal that `--resume` refuses (line 2
/// garbled, records after it) before any run: exit 2 with the same
/// message, the file left byte for byte. A torn tail is still cut, and
/// the campaign appends after it.
#[test]
fn a_journal_that_resume_refuses_is_refused_before_any_run() {
    let dir = temp_dir("journal");
    let buggy = write_app(&dir, "buggy.jav", BUGGY_APP);
    let journal = dir.join("j.jsonl");
    let path = journal.to_string_lossy().into_owned();
    let test = |flag: &str| run(&["test", "--quiet", flag, &path, &buggy]);
    assert_eq!(code(&test("--journal")), 1, "retry bugs found");
    let written = std::fs::read_to_string(&journal).expect("journal written");
    let mut lines: Vec<&str> = written.lines().collect();
    assert!(lines.len() >= 4, "a header, records and a marker: {written}");
    lines[1] = "{\"garbled\"";
    let corrupt = lines.join("\n") + "\n";
    std::fs::write(&journal, &corrupt).expect("garble line 2");

    let resumed = test("--resume");
    let journaled = test("--journal");
    assert_eq!(code(&resumed), 2);
    assert_eq!(code(&journaled), 2, "a journal --resume refuses is refused");
    let stderr = |output: &Output| String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(stderr(&journaled).contains("corrupt line 2"), "{}", stderr(&journaled));
    assert_eq!(stderr(&journaled), stderr(&resumed));
    assert_eq!(std::fs::read_to_string(&journal).expect("journal"), corrupt, "left as it is");

    std::fs::write(&journal, written.clone() + "{\"key\":{").expect("tear the tail");
    assert_eq!(code(&test("--journal")), 1, "a torn tail is cut");
    let appended = std::fs::read_to_string(&journal).expect("journal");
    assert!(appended.starts_with(&written) && appended.len() > written.len());
    let loaded = wasabi::engine::journal::load(&journal).expect("the journal loads");
    assert!(!loaded.dropped_tail, "no torn line is left");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal that already holds another app's records changes nothing in
/// the report of the campaign appending to it: MA's `--json --journal J`
/// report, with HD's campaign journaled to `J` first, equals MA's plain
/// report byte for byte: a campaign never reads back the journal it
/// appends to. `--stream` is an unknown flag (exit 2).
#[test]
fn a_shared_journal_leaves_the_report_unchanged_and_stream_is_gone() {
    let dir = temp_dir("shared-journal");
    for app in ["HD", "MA"] {
        let out = dir.join(app).to_string_lossy().into_owned();
        assert_eq!(code(&run(&["corpus", app, &out])), 0, "corpus {app}");
    }
    let (hd, ma) = (jav_files(&dir.join("HD")), jav_files(&dir.join("MA")));
    let journal = dir.join("j.jsonl").to_string_lossy().into_owned();
    let test = |flags: &[&str], files: &[String]| {
        let mut args = vec!["test", "--quiet"];
        args.extend_from_slice(flags);
        args.extend(files.iter().map(String::as_str));
        run(&args)
    };
    assert_eq!(
        code(&test(&["--journal", &journal], &hd)),
        1,
        "HD has retry bugs"
    );
    let hd_records = wasabi::engine::journal::load(Path::new(&journal))
        .expect("HD's journal loads")
        .records
        .len();
    assert!(hd_records > 0);

    let plain = test(&["--json"], &ma);
    let journaled = test(&["--json", "--journal", &journal], &ma);
    assert_eq!(code(&plain), 1, "MA has retry bugs");
    assert_eq!(code(&journaled), 1);
    assert_eq!(
        String::from_utf8_lossy(&journaled.stdout),
        String::from_utf8_lossy(&plain.stdout),
        "a journal holding HD's records changed MA's report"
    );
    let both = wasabi::engine::journal::load(Path::new(&journal)).expect("journal loads");
    assert!(
        both.records.len() > hd_records,
        "MA's records were appended"
    );

    let streamed = test(&["--json", "--stream", "--journal", &journal], &ma);
    assert_eq!(code(&streamed), 2, "--stream is refused");
    let stderr = String::from_utf8_lossy(&streamed.stderr);
    assert!(stderr.contains("unknown flag `--stream`"), "{stderr}");
    assert!(streamed.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sharded parent journals each shard into `--shard-dir` and writes no
/// trace, so `--journal`, `--resume` and `--trace-out` are refused with
/// it, before anything runs or is written. A `--shard-range` child still
/// takes `--journal` and `--resume`.
#[test]
fn sharded_parent_refuses_journal_resume_and_trace_out() {
    let dir = temp_dir("shards-refuse");
    let buggy = write_app(&dir, "buggy.jav", BUGGY_APP);
    let shard_dir = dir.join("shards").to_string_lossy().into_owned();
    let journal = dir.join("j.jsonl").to_string_lossy().into_owned();
    let trace = dir.join("t.jsonl").to_string_lossy().into_owned();
    let sharded = |extra: &[&str]| {
        let mut args = vec![
            "test",
            "--quiet",
            "--shards",
            "2",
            "--shard-dir",
            &shard_dir,
        ];
        args.extend_from_slice(extra);
        args.push(&buggy);
        run(&args)
    };
    for (extra, named) in [
        (&["--journal", &journal][..], "--journal"),
        (&["--resume", &journal][..], "--resume"),
        (&["--trace-out", &trace][..], "--trace-out"),
        (
            &["--trace-out", &trace, "--journal", &journal][..],
            "--journal",
        ),
    ] {
        let output = sharded(extra);
        assert_eq!(code(&output), 2, "{extra:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("{named} cannot be combined with --shards")),
            "{extra:?}: {stderr}"
        );
        for path in [&journal, &trace, &shard_dir] {
            assert!(!Path::new(path).exists(), "{extra:?} wrote {path}");
        }
    }
    assert_eq!(code(&sharded(&[])), 1, "the sharded campaign itself runs");

    let child = |extra: &[&str]| {
        let mut args = vec![
            "test",
            "--quiet",
            "--shard-range",
            "0:2",
            "--journal",
            &journal,
        ];
        args.extend_from_slice(extra);
        args.push(&buggy);
        run(&args)
    };
    assert!(
        matches!(code(&child(&[])), 0 | 1),
        "a child takes --journal"
    );
    assert!(Path::new(&journal).exists(), "the child journaled");
    assert!(
        matches!(code(&child(&["--resume", &journal])), 0 | 1),
        "a child takes --resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_ascii_text_is_a_normal_exit() {
    let dir = temp_dir("utf8");
    let euro = write_app(&dir, "euro.jav", &euro_app());
    for command in ["lint", "test"] {
        let status = code(&run(&[command, "--quiet", &euro]));
        assert!(status == 0 || status == 1, "{command} exited {status}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_io_failure_is_exit_2() {
    assert_eq!(code(&run(&["corpus", "NOPE", "/tmp"])), 2, "unknown app");
    assert_eq!(
        code(&run(&["corpus", "HD", "/proc/wasabi-cannot-write-here"])),
        2,
        "unwritable output directory"
    );
}

#[test]
fn stats_usage_errors_are_exit_2() {
    assert_eq!(code(&run(&["stats"])), 2, "no trace files");
    assert_eq!(code(&run(&["stats", "/nonexistent/trace.jsonl"])), 2);
}

#[test]
fn submit_without_daemon_is_exit_2() {
    assert_eq!(code(&run(&["submit", "x.jav"])), 2, "missing --addr");
    // Port 9 (discard) on loopback is never a wasabi daemon.
    assert_eq!(
        code(&run(&["submit", "--addr", "127.0.0.1:9", "x.jav"])),
        2,
        "connection refused is an I/O error"
    );
}
