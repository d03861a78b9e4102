//! `repro`'s command line: an unknown flag or artifact name is a usage
//! error (exit 2, a usage line naming every artifact), not a silent
//! no-op.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn assert_usage_error(args: &[&str], names: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
    assert!(stderr.contains(names), "{args:?} should name `{names}`: {stderr}");
    assert!(
        stderr.contains("usage: repro") && stderr.contains("table1 table2 study-stats"),
        "{args:?} should print the usage line with the artifacts: {stderr}"
    );
}

#[test]
fn unknown_flags_and_artifacts_are_usage_errors() {
    assert_usage_error(&["--quiet", "tabel1"], "`tabel1`");
    assert_usage_error(&["--max-attempts", "3", "table1"], "`--max-attempts`");
    assert_usage_error(&["table1", "--scale"], "--scale expects a value");
    assert_usage_error(&["--jobs", "0", "table1"], "--jobs expects a positive integer");
}

#[test]
fn a_known_artifact_prints_its_table() {
    let out = repro(&["--quiet", "table1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("## Table 1"), "{stdout}");
}
