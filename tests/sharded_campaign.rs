//! End-to-end crash tolerance: `wasabi test --shards N` must produce a
//! report byte-identical to the single-process run — uninterrupted, after
//! a chaos-killed shard recovers, and again when the shard directory is
//! re-merged offline with `wasabi merge`. The crash-point sweeps kill a
//! campaign after *every* journal append it can make (single-process,
//! adaptive, and one shard of a sharded run) and require the recovered
//! report to be byte-identical each time. The simulated LLM keys on
//! relative source paths, so every invocation here runs from the same
//! working directory with the same relative arguments.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const APP: &str = "\
exception ConnectException;\n\
exception SocketException;\n\
exception TimeoutException;\n\
class Fetcher {\n\
  method op() throws ConnectException { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tFetch() { assert(this.run() == \"ok\"); }\n\
}\n\
class Uploader {\n\
  field maxAttempts = 3;\n\
  method push() throws SocketException { return \"sent\"; }\n\
  method run() {\n\
    for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
      try { return this.push(); } catch (SocketException e) { sleep(40); }\n\
    }\n\
    throw new SocketException(\"giving up\");\n\
  }\n\
  test tPush() { assert(this.run() == \"sent\"); }\n\
}\n\
class Prober {\n\
  field maxAttempts = 4;\n\
  method ping() throws TimeoutException { return \"pong\"; }\n\
  method run() {\n\
    for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
      try { return this.ping(); } catch (TimeoutException e) { sleep(10); }\n\
    }\n\
    throw new TimeoutException(\"unreachable\");\n\
  }\n\
  test tPing() { assert(this.run() == \"pong\"); }\n\
}\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wasabi-sharded-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn wasabi_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wasabi"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("wasabi runs")
}

/// Runs planned for [`APP`]: three sites, K = 1 and K = 100.
const PLANNED_RUNS: usize = 6;

/// Asserts that a `--chaos-exit-after N` process really died at its crash
/// point, after `appends` journal appends — so a sweep can never pass
/// without killing anything.
fn assert_killed(output: &Output, appends: usize, what: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("chaos: exiting after {appends} journal append(s)")),
        "{what}: the kill did not fire, stderr:\n{stderr}"
    );
}

fn report(output: &Output, what: &str) -> String {
    let code = output.status.code().expect("wasabi exits, not signalled");
    assert!(
        code <= 1,
        "{what}: exit {code}, stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).expect("utf-8 report")
}

#[test]
fn sharded_campaign_report_is_byte_identical_to_single_process() {
    let dir = temp_dir("parity");
    std::fs::write(dir.join("app.jav"), APP).expect("write app");

    let single = report(
        &wasabi_in(&dir, &["test", "--quiet", "--json", "app.jav"]),
        "single-process",
    );
    assert!(single.contains("\"dead_lettered\": 0"), "report carries the DLQ count");

    let sharded = report(
        &wasabi_in(
            &dir,
            &["test", "--quiet", "--json", "--shards", "3", "--shard-dir", "shards", "app.jav"],
        ),
        "sharded",
    );
    assert_eq!(single, sharded, "sharded report must match single-process byte-for-byte");

    // The shard directory is a durable artifact: an offline merge re-derives
    // the identical report from the journals alone.
    let merged = report(&wasabi_in(&dir, &["merge", "--json", "shards"]), "merge");
    assert_eq!(single, merged, "offline merge must reproduce the report");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_killed_shard_recovers_to_the_identical_report_reproducibly() {
    let dir = temp_dir("chaos");
    std::fs::write(dir.join("app.jav"), APP).expect("write app");

    let single = report(
        &wasabi_in(&dir, &["test", "--quiet", "--json", "app.jav"]),
        "single-process",
    );

    let chaos_args = [
        "test", "--quiet", "--json", "--shards", "3", "--chaos-kill-shard", "1",
        "--chaos-exit-after", "1",
    ];
    let mut reports = Vec::new();
    for round in 0..2 {
        let shard_dir = format!("shards-{round}");
        let mut args: Vec<&str> = chaos_args.to_vec();
        args.extend_from_slice(&["--shard-dir", &shard_dir, "app.jav"]);
        reports.push(report(&wasabi_in(&dir, &args), "chaos-killed sharded run"));
    }
    assert_eq!(
        reports[0], single,
        "a chaos-killed shard must recover to the uninterrupted report"
    );
    assert_eq!(reports[0], reports[1], "recovery must be reproducible for the same chaos seed");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_refuses_changed_sources_and_missing_directories() {
    let dir = temp_dir("refuse");
    std::fs::write(dir.join("app.jav"), APP).expect("write app");
    report(
        &wasabi_in(
            &dir,
            &["test", "--quiet", "--json", "--shards", "2", "--shard-dir", "shards", "app.jav"],
        ),
        "sharded",
    );

    // Mutating the sources invalidates the manifest digest: the journals
    // describe runs of a different campaign and must not merge.
    std::fs::write(dir.join("app.jav"), APP.replace("\"pong\"", "\"gnop\"")).expect("rewrite");
    let changed = wasabi_in(&dir, &["merge", "--json", "shards"]);
    assert_eq!(changed.status.code(), Some(2), "changed sources are an input error");
    let stderr = String::from_utf8_lossy(&changed.stderr);
    assert!(stderr.contains("sources changed"), "unexpected stderr: {stderr}");

    // `merge` opens one journal per claimed shard, so a manifest whose
    // shard count disagrees with its ranges must be refused before any
    // allocation is sized by that count.
    let manifest = dir.join("shards").join("manifest.json");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    assert!(text.contains("\"shards\": 2"), "fixture drifted: {text}");
    for shards in ["1000000000000000", "3"] {
        let bad = text.replace("\"shards\": 2", &format!("\"shards\": {shards}"));
        std::fs::write(&manifest, bad).expect("rewrite manifest");
        let refused = wasabi_in(&dir, &["merge", "--json", "shards"]);
        assert_eq!(refused.status.code(), Some(2), "shards {shards} is an input error");
        let stderr = String::from_utf8_lossy(&refused.stderr);
        assert!(stderr.contains("ranges are listed"), "unexpected stderr: {stderr}");
    }

    let missing = wasabi_in(&dir, &["merge", "no-such-dir"]);
    assert_eq!(missing.status.code(), Some(2), "missing shard dir is an input error");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills a single-process campaign after each of its journal appends, for
/// the fixed grid and for `--adaptive` (whose probe wave holds one max-K
/// run per site), then resumes from the torn journal: every resumed report
/// must equal the uninterrupted one.
#[test]
fn every_single_process_kill_point_resumes_to_the_identical_report() {
    let dir = temp_dir("crash-points");
    std::fs::write(dir.join("app.jav"), APP).expect("write app");
    for (mode, kill_points) in [("fixed", PLANNED_RUNS), ("adaptive", 3)] {
        let run = |args: &[&str]| {
            let mut all = vec!["test", "--quiet", "--json"];
            if mode == "adaptive" {
                all.push("--adaptive");
            }
            all.extend_from_slice(args);
            all.push("app.jav");
            wasabi_in(&dir, &all)
        };
        let uninterrupted = report(&run(&[]), "uninterrupted");
        if mode == "fixed" {
            let planned = format!("\"runs_planned\": {PLANNED_RUNS}");
            assert!(uninterrupted.contains(&planned), "fixture drifted: {uninterrupted}");
        }
        for appends in 1..=kill_points {
            let journal = format!("{mode}-{appends}.jsonl");
            let what = format!("{mode} campaign killed after {appends}");
            let killed = run(&["--journal", &journal, "--chaos-exit-after", &appends.to_string()]);
            assert_eq!(killed.status.code(), Some(86), "{what}: wrong exit");
            assert_killed(&killed, appends, &what);
            let loaded = wasabi::engine::journal::load(&dir.join(&journal)).expect("load journal");
            assert_eq!(loaded.records.len(), appends, "{what}: journal length");
            let resumed = report(&run(&["--journal", &journal, "--resume", &journal]), &what);
            assert_eq!(resumed, uninterrupted, "{what}: resumed report differs");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills shard 0 of a two-shard campaign after each append of its
/// three-run slice: the supervisor's recovery and an offline `wasabi
/// merge` of the shard directory must both give the single-process
/// report.
#[test]
fn every_shard_kill_point_recovers_and_merges_to_the_identical_report() {
    let dir = temp_dir("shard-crash-points");
    std::fs::write(dir.join("app.jav"), APP).expect("write app");
    let single = report(
        &wasabi_in(&dir, &["test", "--quiet", "--json", "app.jav"]),
        "single-process",
    );
    for appends in 1..=PLANNED_RUNS / 2 {
        let shard_dir = format!("shards-{appends}");
        let what = format!("shard 0 killed after {appends}");
        // Not `--quiet`: the killed child's stderr is the proof it died.
        let recovered = wasabi_in(
            &dir,
            &[
                "test", "--json", "--shards", "2", "--chaos-kill-shard", "0",
                "--chaos-exit-after", &appends.to_string(), "--shard-dir", &shard_dir, "app.jav",
            ],
        );
        assert_killed(&recovered, appends, &what);
        assert_eq!(report(&recovered, &what), single, "{what}: recovered report differs");
        let merged = report(&wasabi_in(&dir, &["merge", "--json", &shard_dir]), &what);
        assert_eq!(merged, single, "{what}: merged report differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
