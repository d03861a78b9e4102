//! End-to-end crash tolerance: `wasabi test --shards N` must produce a
//! report byte-identical to the single-process run — uninterrupted, after
//! a chaos-killed shard recovers, and again when the shard directory is
//! re-merged offline with `wasabi merge`. The simulated LLM keys on
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
