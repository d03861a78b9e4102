//! End-to-end `wasabi repair` invariants: the CLI fixes seeded retry
//! bugs in file mode, the corpus-mode report is byte-identical across
//! worker counts, and amplification repair touches only the files that
//! actually host a genuine A001 seed (decoys stay byte-identical).

use std::path::{Path, PathBuf};
use std::process::Command;

/// Uncapped + undelayed retry loop with a covering test: lint reports
/// W001 and W002, and the K=100 campaign confirms both dynamically.
const FLAKY: &str = "\
exception ConnectException;\n\
class Flaky {\n\
  method op() throws ConnectException { return 7; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tFlaky() { assert(this.run() == 7); }\n\
}\n";

/// Clean capped + delayed retry: no diagnostics, must stay byte-identical.
const SOLID: &str = "\
class Solid {\n\
  field maxAttempts = 4;\n\
  method fetch() throws ConnectException { return \"ok\"; }\n\
  method run() {\n\
    for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
      try { return this.fetch(); } catch (ConnectException e) { sleep(25); }\n\
    }\n\
    throw new ConnectException(\"giving up\");\n\
  }\n\
  test tSolid() { assert(this.run() == \"ok\"); }\n\
}\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wasabi-repair-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run_repair(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_wasabi"))
        .arg("repair")
        .args(args)
        .output()
        .expect("wasabi runs");
    let code = output.status.code().expect("wasabi exits");
    assert!(
        code <= 1,
        "wasabi repair exited {code}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (code, String::from_utf8(output.stdout).expect("utf-8 output"))
}

#[test]
fn repair_cli_fixes_file_mode_project_and_leaves_clean_files_alone() {
    let dir = temp_dir("files");
    let flaky = dir.join("flaky.jav");
    let solid = dir.join("solid.jav");
    std::fs::write(&flaky, FLAKY).expect("write flaky");
    std::fs::write(&solid, SOLID).expect("write solid");
    let out = dir.join("patched");

    let (code, report) = run_repair(&[
        "--json",
        "--out",
        out.to_str().expect("utf-8 path"),
        flaky.to_str().expect("utf-8 path"),
        solid.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, 0, "all targets fixed:\n{report}");
    assert!(report.contains("\"code\": \"W001\""), "{report}");
    assert!(report.contains("\"code\": \"W002\""), "{report}");
    assert!(!report.contains("\"fixed\": false"), "{report}");

    // The patched flaky file gained a cap guard and a delay; the clean
    // file came through byte-identical.
    let patched_flaky =
        std::fs::read_to_string(out.join(flaky.to_str().unwrap().trim_start_matches('/')))
            .expect("patched flaky");
    assert!(patched_flaky.contains("retryGuard"), "{patched_flaky}");
    assert!(patched_flaky.contains("sleep("), "{patched_flaky}");
    let patched_solid =
        std::fs::read_to_string(out.join(solid.to_str().unwrap().trim_start_matches('/')))
            .expect("patched solid");
    assert_eq!(patched_solid, SOLID);

    // The patched project re-lints clean: running repair on it finds
    // nothing left to fix.
    let flaky2 = dir.join("flaky2.jav");
    std::fs::write(&flaky2, &patched_flaky).expect("write flaky2");
    let (code, second) = run_repair(&[
        "--json",
        flaky2.to_str().expect("utf-8 path"),
        solid.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, 0, "{second}");
    assert!(second.contains("\"targets\": 0"), "{second}");
}

#[test]
fn repair_out_refuses_inputs_that_climb_out_of_the_output_directory() {
    let dir = temp_dir("escape");
    let sub = dir.join("sub");
    std::fs::create_dir_all(&sub).expect("sub dir");
    std::fs::write(dir.join("x.jav"), FLAKY).expect("write input");

    // From `sub/`, `../x.jav` under `--out .` is the input itself.
    let output = Command::new(env!("CARGO_BIN_EXE_wasabi"))
        .current_dir(&sub)
        .args(["repair", "../x.jav", "--out", "."])
        .output()
        .expect("wasabi runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("../x.jav"), "names the path: {stderr}");
    assert_eq!(
        std::fs::read_to_string(dir.join("x.jav")).expect("input"),
        FLAKY,
        "input left byte-identical"
    );
    assert_eq!(std::fs::read_dir(&sub).expect("sub").count(), 0, "nothing written");
}

#[test]
fn repair_report_is_byte_identical_across_jobs() {
    let dir = temp_dir("jobs");
    for jobs in ["1", "4"] {
        let report = dir.join(format!("report-{jobs}.json"));
        let (_, _) = run_repair(&[
            "--corpus",
            "HA",
            "--scale",
            "tiny",
            "--amp",
            "--jobs",
            jobs,
            "--report",
            report.to_str().expect("utf-8 path"),
        ]);
    }
    let one = std::fs::read(dir.join("report-1.json")).expect("jobs 1 report");
    let four = std::fs::read(dir.join("report-4.json")).expect("jobs 4 report");
    assert_eq!(one, four, "repair report must not depend on --jobs");
}

#[test]
fn repair_fixes_amp_seeds_and_leaves_decoys_byte_identical() {
    let spec = wasabi::corpus::spec::paper_apps()
        .into_iter()
        .find(|s| s.short == "HA")
        .expect("HA spec");
    let generated =
        wasabi::corpus::synth::generate_app_with_amp(&spec, wasabi::corpus::spec::Scale::Tiny);
    let original: std::collections::BTreeMap<&str, &str> = generated
        .files
        .iter()
        .map(|(path, source)| (path.as_str(), source.as_str()))
        .collect();

    let dir = temp_dir("amp");
    let out = dir.join("patched");
    let report_path = dir.join("report.json");
    let (code, _) = run_repair(&[
        "--corpus",
        "HA",
        "--scale",
        "tiny",
        "--amp",
        "--report",
        report_path.to_str().expect("utf-8 path"),
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, 0, "all HA targets fixed");
    let report = std::fs::read_to_string(&report_path).expect("report");
    assert!(report.contains("\"fix_rate_percent\": 100"), "{report}");

    let genuine_files: std::collections::BTreeSet<&str> = generated
        .truth
        .amp_seeds
        .iter()
        .filter(|seed| seed.genuine)
        .map(|seed| seed.file_path.as_str())
        .collect();
    assert!(!genuine_files.is_empty(), "HA --amp seeds genuine sites");
    let decoy_files: Vec<&str> = generated
        .truth
        .amp_seeds
        .iter()
        .filter(|seed| !seed.genuine)
        .map(|seed| seed.file_path.as_str())
        .filter(|path| !genuine_files.contains(path))
        .collect();
    assert!(!decoy_files.is_empty(), "HA --amp seeds decoy sites");

    for (path, source) in original {
        let patched = std::fs::read_to_string(Path::new(&out).join(path))
            .unwrap_or_else(|_| panic!("patched output for {path}"));
        if genuine_files.contains(path) {
            assert_ne!(patched, source, "genuine amp file {path} must be patched");
        }
        if decoy_files.contains(&path) {
            assert_eq!(patched, source, "decoy file {path} must stay untouched");
        }
    }
}
