//! Workspace automation: `cargo tier1` and `cargo xtask <task>`.
//!
//! Cargo aliases cannot chain commands, so the `tier1` alias in
//! `.cargo/config.toml` runs this binary, which shells out to cargo for
//! each stage. Tasks:
//!
//! - `tier1` — the tier-1 verification gate: `cargo build --release`
//!   followed by `cargo test -q --workspace`, then the resilience smoke
//!   and the seed-corpus report digest. Fails fast on the first failing
//!   stage.
//! - `ci`    — the release build and test suite, then the resilience
//!   smoke, the report digest, the front-end gate, the lint gate and the
//!   paper gate.
//! - `smoke` — the resilience smoke on its own: a `--jobs 4` campaign
//!   whose `--json` report must be byte-identical to the serial run's, a
//!   kill-and-resume round-trip (journal a campaign, cut the journal
//!   mid-line as a killed process would leave it, resume) whose report
//!   must be byte-identical to the uninterrupted baseline, and a traced
//!   campaign that `wasabi stats` must validate against its journal.
//! - `digest` — recompute the seed-corpus `wasabi test --json` report
//!   digest and compare against the recorded one (`--record` rewrites
//!   the file). Guards against execution-layer changes altering any
//!   observable report byte.
//! - `serve-smoke` — the campaign-as-a-service gate: start a `wasabi
//!   serve` daemon on a loopback port, submit the seed app twice, and
//!   require (a) both submissions return byte-identical reports, (b) the
//!   second is a ProgramIndex cache hit that uploaded no file, and (c)
//!   the report digest equals the batch digest pinned in
//!   `scripts/seed_report_digest.txt`, as does the report for the same
//!   app sent as one raw protocol-v1 `submit` frame.
//! - `chaos-shard-smoke` — the crash-tolerance gate: run the seed app as
//!   a 4-shard multi-process campaign with one shard chaos-killed
//!   mid-flight; the supervisor must recover it and the merged report
//!   must equal the uninterrupted single-process report byte-for-byte
//!   (digest-pinned), `wasabi merge` over the shard directory must
//!   reproduce it offline (also with an empty `dlq.jsonl` written into
//!   it), and a same-seed rerun must be byte-identical.
//! - `adaptive-gate` — the adaptive-planner gate: over all eight corpus
//!   apps, `wasabi test --adaptive` must report the exact fixed-grid bug
//!   set (100% recall, identical order and identity) while executing at
//!   least 40% fewer runs in aggregate. Writes `BENCH_PR8.json` with the
//!   per-app fixed-vs-adaptive run counts.
//! - `repair-gate` — the auto-repair gate: over all eight corpus apps
//!   (small scale, amplification seeds included), `wasabi repair` must
//!   fix at least 80% of the fixable seeded W001/W002/A001 bugs within
//!   the default 3 attempts, fix at least one bug in every class that
//!   seeds any, and emit byte-identical reports for `--jobs 1` and
//!   `--jobs 4`. Each app's `--jobs 1` report must also hash (fnv1a64, as
//!   in `digest`) to its line in `scripts/repair_report_digest.txt`
//!   (`--record` rewrites the file). Writes `BENCH_PR9.json` with the
//!   per-app and per-class fix rates and the attempts-vs-fix-rate curve.
//! - `lint-gate` — the static-analysis gate: over all eight corpus apps
//!   (small scale, amplification AND policy seeds included), `wasabi
//!   lint --json --cross-check` must be byte-identical on one core
//!   (`taskset -c 0`, which must be installed) and on all of the
//!   machine's cores, so the front half's fan-out cannot change a byte,
//!   and the W004/W005/W006 findings must score at least
//!   0.9 precision and recall per code against the `policy_truth.json`
//!   sidecars; HD and MA with the amplification seeds alone must report
//!   nothing outside the checked-in baseline (`scripts/lint_baseline.txt`,
//!   rewritten with `lint-gate --record`). Writes `BENCH_PR10.json` with
//!   per-app diagnostic counts and the per-code score table. Wired into
//!   `ci`.
//! - `frontend-gate` — the front-end gate: in release, the printer's
//!   output over all 20,747 files of the eight paper-scale apps (with the
//!   amplification and policy seeds) and a canonical dump of each app's
//!   `ProgramIndex` (interner strings in symbol order, then the lowered
//!   classes, methods, exceptions and configs), and per app the call
//!   graph, every method summary and the `lint --cross-check` output,
//!   must hash to the values pinned in `tests/frontend_pins.rs`, so a
//!   front-end or IR change can move neither a parsed tree, a symbol
//!   number, a call target nor a lint byte. It runs twice, on all of the
//!   machine's cores and on one (`taskset -c 0`, which must be
//!   installed), so the fan-out of the parse, the link's validation and
//!   the sweep cannot change a byte. The default test suite runs the same check at
//!   small scale. Wired into `ci`.
//! - `paper-gate` — the paper-numbers gate: the stdout of `repro --scale
//!   paper all` must equal `repro_paper_output.txt` byte for byte, which
//!   pins the §4.3 cost table (calls, data, tokens, cost) and Tables 3–6
//!   that EXPERIMENTS.md quotes. A deliberate change re-records the file
//!   with `paper-gate --record` and updates EXPERIMENTS.md with it. Wired
//!   into `ci`.
//!
//! None of these tasks reads a clock: timing lives in the outside-in
//! benchmark under `examples/perf` (see `BENCHMARK.json`).

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use wasabi_util::rng::fnv1a64;
use wasabi_util::Json;

fn main() {
    let task = env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: cargo xtask <tier1|ci|smoke|digest|serve-smoke|chaos-shard-smoke|adaptive-gate|repair-gate|lint-gate|frontend-gate|paper-gate>");
        exit(2);
    });
    let flags: Vec<String> = env::args().skip(2).collect();
    match task.as_str() {
        "tier1" => {
            run_stage("build --release", &["build", "--release"]);
            run_stage("test -q --workspace", &["test", "-q", "--workspace"]);
            smoke();
            digest(false);
            eprintln!("tier1: OK");
        }
        "ci" => {
            run_stage("build --release", &["build", "--release"]);
            run_stage("test -q --workspace", &["test", "-q", "--workspace"]);
            smoke();
            digest(false);
            frontend_gate();
            lint_gate(false);
            run_stage(
                "build --release -p wasabi-bench",
                &["build", "--release", "-p", "wasabi-bench"],
            );
            paper_gate(false);
            eprintln!("ci: OK");
        }
        "smoke" => {
            run_stage("build --release --bin wasabi", &["build", "--release", "--bin", "wasabi"]);
            smoke();
        }
        "digest" => {
            run_stage("build --release --bin wasabi", &["build", "--release", "--bin", "wasabi"]);
            digest(flags.iter().any(|f| f == "--record"));
        }
        "serve-smoke" => {
            run_stage("build --release --bin wasabi", &["build", "--release", "--bin", "wasabi"]);
            serve_smoke();
        }
        "chaos-shard-smoke" => {
            run_stage("build --release --bin wasabi", &["build", "--release", "--bin", "wasabi"]);
            chaos_shard_smoke();
        }
        "adaptive-gate" => {
            run_stage("build --release --bin wasabi", &["build", "--release", "--bin", "wasabi"]);
            adaptive_gate();
        }
        "repair-gate" => {
            run_stage("build --release --bin wasabi", &["build", "--release", "--bin", "wasabi"]);
            repair_gate(flags.iter().any(|f| f == "--record"));
        }
        "lint-gate" => {
            run_stage("build --release --bin wasabi", &["build", "--release", "--bin", "wasabi"]);
            lint_gate(flags.iter().any(|f| f == "--record"));
        }
        "frontend-gate" => frontend_gate(),
        "paper-gate" => {
            run_stage(
                "build --release -p wasabi-bench",
                &["build", "--release", "-p", "wasabi-bench"],
            );
            paper_gate(flags.iter().any(|f| f == "--record"));
        }
        other => {
            eprintln!(
                "unknown task `{other}`; expected tier1, ci, smoke, digest, serve-smoke, chaos-shard-smoke, adaptive-gate, repair-gate, lint-gate, frontend-gate, or paper-gate"
            );
            exit(2);
        }
    }
}

fn run_stage(label: &str, args: &[&str]) {
    run_stage_under(&[], label, args);
}

/// [`run_stage`] with cargo started by `wrapper` (`taskset -c 0`, say),
/// which must be installed.
fn run_stage_under(wrapper: &[&str], label: &str, args: &[&str]) {
    let cargo = env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let stage: Vec<&str> = wrapper.iter().copied().chain(["cargo", label]).collect();
    let stage = stage.join(" ");
    eprintln!("==> {stage}");
    let mut command = match wrapper.split_first() {
        Some((program, wrapper_args)) => {
            let mut command = Command::new(program);
            command.args(wrapper_args).arg(&cargo);
            command
        }
        None => Command::new(&cargo),
    };
    let status = command.args(args).status().unwrap_or_else(|e| {
        let program = wrapper.first().copied().unwrap_or("cargo");
        eprintln!("failed to spawn `{program}` for `{stage}`: {e}");
        exit(1);
    });
    if !status.success() {
        eprintln!("stage `{stage}` failed");
        exit(status.code().unwrap_or(1));
    }
}

/// The resilience smoke. Assumes `target/release/wasabi` is built (the
/// callers run `cargo build --release` first).
fn smoke() {
    eprintln!("==> smoke: jobs 1 vs 4, kill-and-resume round-trip, trace validation");
    let wasabi = Path::new("target/release/wasabi");
    if !wasabi.exists() {
        eprintln!("smoke: {} not built", wasabi.display());
        exit(1);
    }
    let work = env::temp_dir().join(format!("wasabi-smoke-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).unwrap_or_else(|e| fail(&format!("create {}: {e}", work.display())));

    // A real corpus app as the smoke workload.
    let app_dir = work.join("app");
    let status = Command::new(wasabi)
        .args(["corpus", "HD"])
        .arg(&app_dir)
        .status()
        .unwrap_or_else(|e| fail(&format!("spawn wasabi corpus: {e}")));
    if !status.success() {
        fail("wasabi corpus failed");
    }
    let mut files = Vec::new();
    collect_jav(&app_dir, &mut files);
    files.sort();
    if files.is_empty() {
        fail("corpus produced no .jav files");
    }

    // The engine's determinism contract: the JSON report is
    // byte-identical across worker counts.
    let report =
        |jobs: &str| run_wasabi_test(wasabi, &["--quiet", "--json", "--jobs", jobs], &files);
    let serial = report("1");
    let parallel = report("4");
    if serial.is_empty() || serial != parallel {
        fail("jobs smoke: report differs between --jobs 1 and --jobs 4");
    }
    eprintln!(
        "    report identical across jobs=1/4 ({} bytes)",
        serial.len()
    );

    // Kill-and-resume: journal a full campaign, then cut the journal the
    // way a killed process leaves it (half the lines, last one torn
    // mid-write) and resume from the cut. The resumed report must be
    // byte-identical to the uninterrupted baseline.
    let full_journal = work.join("full.jsonl");
    let baseline = run_wasabi_test(
        wasabi,
        &["--quiet", "--json", "--jobs", "2", "--journal", full_journal.to_str().unwrap()],
        &files,
    );
    if baseline.is_empty() {
        fail("kill-and-resume: baseline report is empty");
    }
    let text = fs::read_to_string(&full_journal)
        .unwrap_or_else(|e| fail(&format!("read {}: {e}", full_journal.display())));
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    if lines.len() < 4 {
        fail("kill-and-resume: journal too small to cut");
    }
    let mut cut: String = lines[..lines.len() / 2].concat();
    cut.truncate(cut.len().saturating_sub(5)); // tear the last line
    let cut_journal = work.join("cut.jsonl");
    fs::write(&cut_journal, &cut)
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", cut_journal.display())));
    let resumed = run_wasabi_test(
        wasabi,
        &["--quiet", "--json", "--jobs", "4", "--resume", cut_journal.to_str().unwrap()],
        &files,
    );
    if resumed != baseline {
        fail("kill-and-resume: resumed report differs from the uninterrupted baseline");
    }
    eprintln!("    resumed report identical to baseline ({} bytes)", baseline.len());

    // Trace smoke: record a journaled campaign with `--trace-out`, then
    // let `wasabi stats` validate the trace — schema parse, every run
    // span closed, and injection counts matching the journal.
    let trace = work.join("trace.jsonl");
    let trace_journal = work.join("trace-journal.jsonl");
    let _ = run_wasabi_test(
        wasabi,
        &[
            "--quiet",
            "--json",
            "--jobs",
            "2",
            "--journal",
            trace_journal.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ],
        &files,
    );
    let stats = Command::new(wasabi)
        .arg("stats")
        .arg(&trace)
        .args(["--journal", trace_journal.to_str().unwrap()])
        .output()
        .unwrap_or_else(|e| fail(&format!("spawn wasabi stats: {e}")));
    if !stats.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&stats.stderr));
        fail("trace smoke: `wasabi stats` validation failed");
    }
    let table = String::from_utf8_lossy(&stats.stdout);
    for needed in ["phase", "run", "total", "runs:"] {
        if !table.contains(needed) {
            fail(&format!("trace smoke: stats table is missing `{needed}`"));
        }
    }
    eprintln!("    trace validated against journal ({} trace bytes)", fs::metadata(&trace).map(|m| m.len()).unwrap_or(0));

    let _ = fs::remove_dir_all(&work);
    eprintln!("smoke: OK");
}

const DIGEST_PATH: &str = "scripts/seed_report_digest.txt";
const REPAIR_DIGEST_PATH: &str = "scripts/repair_report_digest.txt";
const LINT_BASELINE_PATH: &str = "scripts/lint_baseline.txt";
const ADAPTIVE_BENCH_OUT: &str = "BENCH_PR8.json";
const REPAIR_BENCH_OUT: &str = "BENCH_PR9.json";
const POLICY_BENCH_OUT: &str = "BENCH_PR10.json";
const PAPER_OUTPUT_PATH: &str = "repro_paper_output.txt";
/// Aggregate and per-class fix-rate floor (percent) for the repair gate.
const REPAIR_RATE_FLOOR: u64 = 80;
/// Apps whose `wasabi test --json` reports are digest-pinned.
const DIGEST_APPS: &[&str] = &["HD", "MA"];
/// Apps the adaptive gate sweeps (the full evaluated corpus).
const ADAPTIVE_APPS: &[&str] = &["HA", "HD", "MA", "YA", "HB", "HI", "CA", "EL"];
/// Apps whose `--amp` lint output is pinned in `scripts/lint_baseline.txt`.
const LINT_BASELINE_APPS: &[&str] = &["HD", "MA"];

/// The baseline half of the lint gate: `wasabi lint` over the
/// [`LINT_BASELINE_APPS`] (amplification seeds only, no policy seeds —
/// the inputs the baseline was recorded on), run from `work` so the
/// fingerprints carry `<APP>/...` paths, must report nothing outside
/// `scripts/lint_baseline.txt`. With `record`, rewrite the baseline
/// instead.
fn check_lint_baseline(wasabi: &Path, work: &Path, record: bool) {
    let baseline_abs = Path::new(LINT_BASELINE_PATH)
        .parent()
        .and_then(|dir| dir.canonicalize().ok())
        .map(|dir| dir.join("lint_baseline.txt"))
        .unwrap_or_else(|| fail("scripts/ directory missing"));
    let mut baseline_out = String::new();
    for app in LINT_BASELINE_APPS {
        let app_dir = work.join(app);
        let status = Command::new(wasabi)
            .args(["corpus", app, "--amp"])
            .arg(&app_dir)
            .status()
            .unwrap_or_else(|e| fail(&format!("spawn wasabi corpus: {e}")));
        if !status.success() {
            fail(&format!("wasabi corpus {app} --amp failed"));
        }
        let mut files = Vec::new();
        collect_jav(&app_dir, &mut files);
        files.sort();
        let rel: Vec<PathBuf> = files
            .iter()
            .map(|f| f.strip_prefix(work).expect("file under work dir").to_path_buf())
            .collect();
        if record {
            let app_baseline = work.join(format!("{app}-baseline.txt"));
            let _ = run_wasabi_lint_in(
                wasabi,
                work,
                &["--write-baseline", app_baseline.to_str().unwrap()],
                &rel,
            );
            baseline_out.push_str(
                &fs::read_to_string(&app_baseline)
                    .unwrap_or_else(|e| fail(&format!("read {}: {e}", app_baseline.display()))),
            );
            continue;
        }
        let (code, stdout) =
            run_wasabi_lint_in(wasabi, work, &["--baseline", baseline_abs.to_str().unwrap()], &rel);
        if code != 0 {
            eprintln!("{stdout}");
            fail(&format!(
                "lint gate: {app} has diagnostics not in {LINT_BASELINE_PATH} \
                 (rewrite it with `cargo xtask lint-gate --record` if they are intended)"
            ));
        }
        eprintln!("    {app} (--amp): no diagnostics outside the baseline");
    }
    if record {
        wasabi_util::write_atomic(Path::new(LINT_BASELINE_PATH), baseline_out.as_bytes())
            .unwrap_or_else(|e| fail(&format!("write {LINT_BASELINE_PATH}: {e}")));
        // Each app's file opens with a `#` header; count fingerprints only.
        let fingerprints = baseline_out
            .lines()
            .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
            .count();
        eprintln!("    recorded {fingerprints} fingerprints to {LINT_BASELINE_PATH}");
    }
}

/// Runs `wasabi lint <flags> <files>` in `cwd` and returns (exit code,
/// stdout). Exit code 1 (diagnostics found) is an expected outcome — only
/// codes ≥ 2, or no output at all, abort.
fn run_wasabi_lint_in(wasabi: &Path, cwd: &Path, flags: &[&str], files: &[PathBuf]) -> (i32, String) {
    let mut command = Command::new(wasabi);
    command.current_dir(cwd).arg("lint").args(flags).args(files);
    lint_output(command, "wasabi lint")
}

/// [`run_wasabi_lint_in`] under `taskset -c 0`: the process may use one
/// core, so its front half parses and sweeps on one worker.
fn run_wasabi_lint_on_one_core(
    wasabi: &Path,
    cwd: &Path,
    flags: &[&str],
    files: &[PathBuf],
) -> (i32, String) {
    let mut command = Command::new("taskset");
    command.current_dir(cwd).args(["-c", "0"]).arg(wasabi).arg("lint").args(flags).args(files);
    lint_output(command, "taskset -c 0 wasabi lint")
}

/// Runs a lint `command` and returns (exit code, stdout); `what` names the
/// command in failures. `wasabi lint` always prints something, and a
/// `taskset` that cannot pin the process exits 1 with nothing on stdout.
fn lint_output(mut command: Command, what: &str) -> (i32, String) {
    let output = command
        .output()
        .unwrap_or_else(|e| fail(&format!("spawn {what}: {e}")));
    let code = output.status.code().unwrap_or(-1);
    if code != 0 && code != 1 || output.stdout.is_empty() {
        eprintln!("{}", String::from_utf8_lossy(&output.stderr));
        fail(&format!("{what} exited with code {code}"));
    }
    (code, String::from_utf8_lossy(&output.stdout).into_owned())
}

/// Recomputes the `wasabi test --quiet --json --jobs 2` report digest for
/// each pinned corpus app and compares it to (or, with `record`, rewrites)
/// `scripts/seed_report_digest.txt`.
fn digest(record: bool) {
    let wasabi = release_wasabi()
        .canonicalize()
        .unwrap_or_else(|e| fail(&format!("canonicalize wasabi path: {e}")));
    let work = env::temp_dir().join(format!("wasabi-digest-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    let mut lines = String::new();
    for app in DIGEST_APPS {
        let app_dir = work.join(app);
        let status = Command::new(&wasabi)
            .args(["corpus", app])
            .arg(&app_dir)
            .status()
            .unwrap_or_else(|e| fail(&format!("spawn wasabi corpus: {e}")));
        if !status.success() {
            fail(&format!("wasabi corpus {app} failed"));
        }
        let mut files = Vec::new();
        collect_jav(&app_dir, &mut files);
        files.sort();
        // The simulated LLM draws its error modes from (seed, file path,
        // question), so the paths the runner sees are part of the digest
        // input: pass them relative to the work dir to keep the report
        // independent of the temp-dir location and of this process's pid.
        let rel: Vec<PathBuf> = files
            .iter()
            .map(|f| f.strip_prefix(&work).expect("file under work dir").to_path_buf())
            .collect();
        let report = run_wasabi_test_in(&wasabi, &work, &["--quiet", "--json", "--jobs", "2"], &rel);
        if report.is_empty() {
            fail(&format!("digest: empty report for {app}"));
        }
        lines.push_str(&format!("{app} {:016x}\n", fnv1a64([report.as_bytes()])));
    }
    let _ = fs::remove_dir_all(&work);
    if record {
        fs::write(DIGEST_PATH, &lines)
            .unwrap_or_else(|e| fail(&format!("write {DIGEST_PATH}: {e}")));
        eprintln!("digest: recorded to {DIGEST_PATH}:\n{lines}");
        return;
    }
    let recorded = fs::read_to_string(DIGEST_PATH).unwrap_or_else(|_| {
        fail(&format!(
            "{DIGEST_PATH} missing — record one with `cargo xtask digest --record`"
        ))
    });
    if recorded != lines {
        eprintln!("recorded:\n{recorded}\ncomputed:\n{lines}");
        fail("digest: seed-corpus report digest changed — execution output is no longer byte-identical");
    }
    eprintln!("    seed-corpus report digest unchanged ({} apps)", DIGEST_APPS.len());
}

/// The crash-tolerance gate: the seed app as a 4-shard multi-process
/// campaign with shard 1 chaos-killed mid-flight must merge to the exact
/// bytes of the uninterrupted single-process report (whose digest is
/// pinned in `scripts/seed_report_digest.txt`), `wasabi merge` must
/// reproduce those bytes offline from the shard directory, and again
/// after an empty `dlq.jsonl` (what a supervisor killed while creating it
/// leaves) is written into it, and a rerun with the same chaos seed must
/// be byte-identical.
fn chaos_shard_smoke() {
    eprintln!("==> chaos shard smoke: 4-shard campaign, one shard killed, vs pinned digest");
    let wasabi = release_wasabi()
        .canonicalize()
        .unwrap_or_else(|e| fail(&format!("canonicalize wasabi path: {e}")));
    let work = env::temp_dir().join(format!("wasabi-chaos-shard-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).unwrap_or_else(|e| fail(&format!("create {}: {e}", work.display())));

    let app_dir = work.join("HD");
    let status = Command::new(&wasabi)
        .args(["corpus", "HD"])
        .arg(&app_dir)
        .status()
        .unwrap_or_else(|e| fail(&format!("spawn wasabi corpus: {e}")));
    if !status.success() {
        fail("wasabi corpus HD failed");
    }
    let mut files = Vec::new();
    collect_jav(&app_dir, &mut files);
    files.sort();
    // Relative paths, same working directory for every invocation: the
    // simulated LLM keys on the paths, and the digest is pinned on them.
    let rel: Vec<PathBuf> = files
        .iter()
        .map(|f| f.strip_prefix(&work).expect("file under work dir").to_path_buf())
        .collect();

    let single = run_wasabi_test_in(&wasabi, &work, &["--quiet", "--json", "--jobs", "2"], &rel);
    if single.is_empty() {
        fail("chaos shard smoke: empty single-process report");
    }
    let recorded = fs::read_to_string(DIGEST_PATH)
        .unwrap_or_else(|_| fail(&format!("{DIGEST_PATH} missing")));
    let pinned = recorded
        .lines()
        .find_map(|line| line.strip_prefix("HD "))
        .unwrap_or_else(|| fail(&format!("no HD line in {DIGEST_PATH}")));
    let computed = format!("{:016x}", fnv1a64([single.as_bytes()]));
    if computed != pinned {
        fail(&format!(
            "chaos shard smoke: single-process digest {computed} != pinned {pinned}"
        ));
    }

    let shard_flags = |dir: &str| {
        vec![
            "--quiet".to_string(),
            "--json".to_string(),
            "--jobs".to_string(),
            "2".to_string(),
            "--shards".to_string(),
            "4".to_string(),
            "--shard-dir".to_string(),
            dir.to_string(),
            "--chaos-kill-shard".to_string(),
            "1".to_string(),
        ]
    };
    let first_flags = shard_flags("shards-0");
    let first_refs: Vec<&str> = first_flags.iter().map(String::as_str).collect();
    let sharded = run_wasabi_test_in(&wasabi, &work, &first_refs, &rel);
    if sharded != single {
        fail("chaos shard smoke: recovered sharded report differs from single-process bytes");
    }
    eprintln!("    shard 1 killed and recovered; merged report matches pinned digest");

    // The shard directory is durable: an offline merge reproduces the
    // bytes, also after an empty `dlq.jsonl` (what a supervisor killed
    // while creating it leaves) is written into it. The recovered report
    // equals the single-process one, so no run was dead-lettered.
    for empty_dlq in [false, true] {
        if empty_dlq {
            let dlq = work.join("shards-0").join("dlq.jsonl");
            fs::write(&dlq, "").unwrap_or_else(|e| fail(&format!("write {}: {e}", dlq.display())));
        }
        let merge = Command::new(&wasabi)
            .current_dir(&work)
            .args(["merge", "--json", "shards-0"])
            .output()
            .unwrap_or_else(|e| fail(&format!("spawn wasabi merge: {e}")));
        let code = merge.status.code().unwrap_or(-1);
        if code != 0 && code != 1 {
            eprintln!("{}", String::from_utf8_lossy(&merge.stderr));
            fail(&format!("wasabi merge exited with code {code}"));
        }
        if String::from_utf8_lossy(&merge.stdout) != single {
            fail(&format!(
                "chaos shard smoke: offline `wasabi merge` report differs (empty dlq.jsonl: {empty_dlq})"
            ));
        }
    }
    eprintln!("    offline merge of the shard directory reproduces the report, with an empty DLQ too");

    let rerun_flags = shard_flags("shards-1");
    let rerun_refs: Vec<&str> = rerun_flags.iter().map(String::as_str).collect();
    let rerun = run_wasabi_test_in(&wasabi, &work, &rerun_refs, &rel);
    if rerun != sharded {
        fail("chaos shard smoke: same-seed rerun is not byte-identical");
    }
    eprintln!("    same-chaos-seed rerun byte-identical");

    let _ = fs::remove_dir_all(&work);
    eprintln!("chaos shard smoke: OK");
}

/// The campaign-as-a-service gate: a real daemon on a loopback port must
/// serve the seed app byte-identically to batch mode (digest-pinned),
/// and a repeat submission must hit the compiled-app cache.
fn serve_smoke() {
    use std::io::BufRead;

    eprintln!("==> serve smoke: daemon round-trip vs {DIGEST_PATH}");
    let wasabi = release_wasabi()
        .canonicalize()
        .unwrap_or_else(|e| fail(&format!("canonicalize wasabi path: {e}")));
    let work = env::temp_dir().join(format!("wasabi-serve-smoke-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);

    let app = "HD";
    let app_dir = work.join(app);
    let status = Command::new(&wasabi)
        .args(["corpus", app])
        .arg(&app_dir)
        .status()
        .unwrap_or_else(|e| fail(&format!("spawn wasabi corpus: {e}")));
    if !status.success() {
        fail(&format!("wasabi corpus {app} failed"));
    }
    let mut files = Vec::new();
    collect_jav(&app_dir, &mut files);
    files.sort();
    // Relative paths from the work dir, exactly as `digest` runs batch
    // mode: the simulated LLM keys on the paths the runner sees, so this
    // is what makes the daemon and batch digests comparable.
    let rel: Vec<PathBuf> = files
        .iter()
        .map(|f| f.strip_prefix(&work).expect("file under work dir").to_path_buf())
        .collect();

    let mut daemon = Command::new(&wasabi)
        .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2", "--quiet"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("spawn wasabi serve: {e}")));
    let mut banner = String::new();
    std::io::BufReader::new(daemon.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .unwrap_or_else(|e| fail(&format!("read serve banner: {e}")));
    let addr = str_at(&parse_json(&banner, "serve banner"), &["addr"], "serve banner").to_string();
    eprintln!("    daemon on {addr}");

    let submit = |extra: &[&str], files: &[PathBuf]| -> (i32, String) {
        let output = Command::new(&wasabi)
            .current_dir(&work)
            .args(["submit", "--addr", &addr, "--quiet"])
            .args(extra)
            .args(files)
            .output()
            .unwrap_or_else(|e| fail(&format!("spawn wasabi submit: {e}")));
        let code = output.status.code().unwrap_or(-1);
        (code, String::from_utf8_lossy(&output.stdout).into_owned())
    };

    // Exit 1 (bugs found) is the expected outcome for the seed app.
    let (first_code, first) = submit(&[], &rel);
    if first_code != 0 && first_code != 1 {
        fail(&format!("first submit exited with code {first_code}"));
    }
    let uploaded_files = |when: &str| -> u64 {
        let (code, stats) = submit(&["--stats"], &[]);
        if code != 0 {
            fail(&format!("submit --stats exited with code {code}"));
        }
        u64_at(&parse_json(&stats, when), &["uploaded_files"], when)
    };
    let uploaded_first = uploaded_files("stats after the first submit");
    let (second_code, second) = submit(&[], &rel);
    if uploaded_files("stats after the repeat submit") != uploaded_first {
        fail("serve smoke: the repeat submission uploaded files");
    }
    if second_code != first_code {
        fail(&format!("repeat submit exit code drifted: {first_code} -> {second_code}"));
    }
    if first != second {
        fail("serve smoke: repeat submission report differs from the first");
    }

    // The daemon's report must equal batch mode's, byte for byte: its
    // digest is pinned in the same file `cargo xtask digest` verifies.
    let recorded = fs::read_to_string(DIGEST_PATH)
        .unwrap_or_else(|_| fail(&format!("{DIGEST_PATH} missing — run `cargo xtask digest --record`")));
    let pinned = recorded
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{app} ")))
        .unwrap_or_else(|| fail(&format!("{DIGEST_PATH} has no {app} line")));
    let computed = format!("{:016x}", fnv1a64([first.as_bytes()]));
    if computed != pinned {
        fail(&format!(
            "serve smoke: daemon report digest {computed} != batch digest {pinned}"
        ));
    }
    eprintln!("    daemon report matches batch digest ({computed})");

    let (stats_code, stats) = submit(&["--stats"], &[]);
    if stats_code != 0 {
        fail(&format!("submit --stats exited with code {stats_code}"));
    }
    let cache_hits = u64_at(&parse_json(&stats, "submit --stats"), &["cache_hits"], "submit --stats");
    if cache_hits < 1 {
        fail(&format!("serve smoke: expected a cache hit, stats were {stats}"));
    }
    eprintln!("    repeat submission was a cache hit ({cache_hits} hit(s)) that uploaded no file");

    let v1 = v1_submit_report(&addr, &work, &rel);
    if format!("{:016x}", fnv1a64([v1.as_bytes()])) != pinned {
        fail("serve smoke: the report for a raw v1 submit frame differs from the batch digest");
    }
    eprintln!("    a raw v1 submit frame yields the same report");

    let (shutdown_code, _) = submit(&["--shutdown"], &[]);
    if shutdown_code != 0 {
        fail(&format!("submit --shutdown exited with code {shutdown_code}"));
    }
    let status = daemon
        .wait()
        .unwrap_or_else(|e| fail(&format!("wait for daemon exit: {e}")));
    if !status.success() {
        fail(&format!("daemon exited with {status}"));
    }
    let _ = fs::remove_dir_all(&work);
    eprintln!("serve smoke: OK");
}

/// Sends the app as one protocol-v1 `submit` frame carrying every file,
/// as clients that predate submit-by-digest do, waits for the job and
/// returns its report.
fn v1_submit_report(addr: &str, work: &Path, rel: &[PathBuf]) -> String {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(&format!("connect to the daemon: {e}")));
    let mut writer = stream.try_clone().unwrap_or_else(|e| fail(&format!("clone stream: {e}")));
    let mut reader = BufReader::new(stream);
    let mut round_trip = |frame: Json, what: &str| -> Json {
        writer
            .write_all(format!("{frame}\n").as_bytes())
            .unwrap_or_else(|e| fail(&format!("send {what}: {e}")));
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .unwrap_or_else(|e| fail(&format!("read the {what} reply: {e}")));
        parse_json(&line, what)
    };
    let files = rel.iter().map(|path| {
        let contents = fs::read_to_string(work.join(path))
            .unwrap_or_else(|e| fail(&format!("read {}: {e}", path.display())));
        Json::arr([Json::from(path.to_string_lossy().as_ref()), Json::from(contents)])
    });
    let header = |op: &str| {
        vec![
            ("kind", Json::from("wasabi-serve")),
            ("v", Json::from(1u64)),
            ("op", Json::from(op)),
        ]
    };
    let mut submit = header("submit");
    submit.push(("name", Json::from("cli")));
    submit.push(("files", Json::arr(files)));
    let id = u64_at(&round_trip(Json::obj(submit), "v1 submit"), &["id"], "v1 submit");
    let mut wait = header("wait");
    wait.push(("id", Json::from(id)));
    str_at(&round_trip(Json::obj(wait), "wait"), &["report"], "wait").to_string()
}

/// The adaptive-planner gate: for every corpus app, the `--adaptive`
/// report's bug list must be *identical* to the fixed grid's (same bugs,
/// same order, same details; only the grouped per-bug `reports` counts
/// may shrink, since a deduped widen run would merely have re-witnessed
/// a bug the probe already proved), and the aggregate executed-run count
/// must drop by ≥ 40%.
///
/// Writes `BENCH_PR8.json` with the per-app run counts.
fn adaptive_gate() {
    eprintln!("==> adaptive gate: fixed-grid recall at a reduced run budget");
    let wasabi = release_wasabi()
        .canonicalize()
        .unwrap_or_else(|e| fail(&format!("canonicalize wasabi path: {e}")));
    let work = env::temp_dir().join(format!("wasabi-adaptive-gate-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);

    // The bug list, minus each bug's grouped-report count (the only field
    // fingerprint dedup may legitimately shrink).
    let bug_list = |report: &Json, what: &str| -> Vec<Json> {
        arr_at(report, &["bugs"], what)
            .iter()
            .map(|bug| {
                let fields = bug
                    .as_obj()
                    .unwrap_or_else(|| fail(&format!("{what}: a bug is not an object")));
                Json::Obj(fields.iter().filter(|(key, _)| key != "reports").cloned().collect())
            })
            .collect()
    };

    let mut app_docs = Vec::new();
    let (mut fixed_total, mut adaptive_total) = (0u64, 0u64);
    for app in ADAPTIVE_APPS {
        let app_dir = work.join(app);
        let status = Command::new(&wasabi)
            .args(["corpus", app])
            .arg(&app_dir)
            .status()
            .unwrap_or_else(|e| fail(&format!("spawn wasabi corpus: {e}")));
        if !status.success() {
            fail(&format!("wasabi corpus {app} failed"));
        }
        let mut files = Vec::new();
        collect_jav(&app_dir, &mut files);
        files.sort();
        // Relative paths, as in `digest`: the simulated LLM keys on the
        // paths the CLI sees, so both runs must see the same ones.
        let rel: Vec<PathBuf> = files
            .iter()
            .map(|f| f.strip_prefix(&work).expect("file under work dir").to_path_buf())
            .collect();
        let fixed_what = format!("adaptive gate: {app} fixed-grid report");
        let adaptive_what = format!("adaptive gate: {app} adaptive report");
        let fixed = parse_json(
            &run_wasabi_test_in(&wasabi, &work, &["--quiet", "--json", "--jobs", "2"], &rel),
            &fixed_what,
        );
        let adaptive = parse_json(
            &run_wasabi_test_in(
                &wasabi,
                &work,
                &["--quiet", "--json", "--jobs", "2", "--adaptive"],
                &rel,
            ),
            &adaptive_what,
        );
        let fixed_bugs = bug_list(&fixed, &fixed_what);
        let adaptive_bugs = bug_list(&adaptive, &adaptive_what);
        if fixed_bugs != adaptive_bugs {
            eprintln!(
                "fixed bugs:\n{}adaptive bugs:\n{}",
                Json::Arr(fixed_bugs).pretty(),
                Json::Arr(adaptive_bugs).pretty()
            );
            fail(&format!("adaptive gate: {app} adaptive bug set differs from the fixed grid"));
        }
        let fixed_runs = u64_at(&fixed, &["runs_planned"], &fixed_what);
        let adaptive_runs = u64_at(&adaptive, &["runs_planned"], &adaptive_what);
        if adaptive_runs > fixed_runs {
            fail(&format!(
                "adaptive gate: {app} executed more runs than the fixed grid \
                 ({adaptive_runs} vs {fixed_runs})"
            ));
        }
        let bugs = fixed_bugs.len();
        let cut = 100.0 * (1.0 - adaptive_runs as f64 / fixed_runs.max(1) as f64);
        eprintln!(
            "    {app}: {bugs} bugs at {adaptive_runs}/{fixed_runs} runs ({cut:.1}% fewer)"
        );
        fixed_total += fixed_runs;
        adaptive_total += adaptive_runs;
        app_docs.push(format!(
            "{{\"app\": \"{app}\", \"bugs\": {bugs}, \"fixed_runs\": {fixed_runs}, \
             \"adaptive_runs\": {adaptive_runs}, \"reduction_pct\": {cut:.1}}}"
        ));
    }
    let reduction = 1.0 - adaptive_total as f64 / fixed_total.max(1) as f64;
    if reduction < 0.40 {
        fail(&format!(
            "adaptive gate: aggregate run reduction {:.1}% is below the 40% floor \
             ({adaptive_total}/{fixed_total} runs)",
            100.0 * reduction
        ));
    }
    eprintln!(
        "    aggregate: {adaptive_total}/{fixed_total} runs ({:.1}% fewer) at 100% recall",
        100.0 * reduction
    );

    let doc = format!(
        "{{\n  \"harness\": \"cargo xtask adaptive-gate (wasabi test --jobs 2 fixed vs \
         --adaptive over all 8 corpus apps)\",\n  \"apps\": [\n    {}\n  ],\n  \"totals\": {{\n    \
         \"fixed_runs\": {fixed_total},\n    \"adaptive_runs\": {adaptive_total},\n    \
         \"reduction_pct\": {:.1},\n    \"recall\": 1.0\n  }}\n}}\n",
        app_docs.join(",\n    "),
        100.0 * reduction
    );
    fs::write(ADAPTIVE_BENCH_OUT, doc)
        .unwrap_or_else(|e| fail(&format!("write {ADAPTIVE_BENCH_OUT}: {e}")));
    let _ = fs::remove_dir_all(&work);
    eprintln!("adaptive gate: OK (wrote {ADAPTIVE_BENCH_OUT})");
}

/// The auto-repair gate: `wasabi repair` over all eight corpus apps
/// (small scale, amplification seeds included) must fix at least
/// [`REPAIR_RATE_FLOOR`]% of the fixable seeded bugs — in aggregate and
/// per class — within the default 3 attempts, and the report must be
/// byte-identical between `--jobs 1` and `--jobs 4`. The `--jobs 1`
/// reports' digests must equal `scripts/repair_report_digest.txt` (or,
/// with `record`, rewrite it): the jobs comparison alone cannot see a
/// change that alters a verdict the same way on every worker count.
fn repair_gate(record: bool) {
    eprintln!("==> repair gate: auto-repair fix rate over the seeded corpus");
    let wasabi = release_wasabi();
    let work = env::temp_dir().join(format!("wasabi-repair-gate-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).unwrap_or_else(|e| fail(&format!("create work dir: {e}")));

    // Runs `wasabi repair <args>` tolerating exit 1 (unfixed targets
    // remain — the gate scores the fix rate itself, not the exit code).
    let run_repair = |args: &[&str]| {
        let output = Command::new(&wasabi)
            .arg("repair")
            .args(args)
            .output()
            .unwrap_or_else(|e| fail(&format!("spawn wasabi repair: {e}")));
        let code = output.status.code().unwrap_or(-1);
        if !(0..=1).contains(&code) {
            eprintln!("{}", String::from_utf8_lossy(&output.stderr));
            fail(&format!("wasabi repair {} exited {code}", args.join(" ")));
        }
    };

    let mut class_agg: Vec<(&str, u64, u64)> =
        vec![("W001", 0, 0), ("W002", 0, 0), ("A001", 0, 0)];
    let mut histogram: Vec<(u64, u64)> = Vec::new();
    let mut app_docs = Vec::new();
    let (mut total_fixable, mut total_fixed) = (0u64, 0u64);
    let (mut total_targets, mut total_targets_fixed) = (0u64, 0u64);
    let mut digests = String::new();
    for app in ADAPTIVE_APPS {
        let jobs1 = work.join(format!("{app}-jobs1.json"));
        let jobs4 = work.join(format!("{app}-jobs4.json"));
        for (jobs, path) in [("1", &jobs1), ("4", &jobs4)] {
            run_repair(&[
                "--corpus",
                app,
                "--amp",
                "--scale",
                "small",
                "--jobs",
                jobs,
                "--report",
                &path.to_string_lossy(),
            ]);
        }
        let one = fs::read(&jobs1).unwrap_or_else(|e| fail(&format!("read {app} report: {e}")));
        let four = fs::read(&jobs4).unwrap_or_else(|e| fail(&format!("read {app} report: {e}")));
        if one != four {
            fail(&format!("repair gate: {app} report differs between --jobs 1 and --jobs 4"));
        }
        digests.push_str(&format!("{app} {:016x}\n", fnv1a64([one.as_slice()])));
        let what = format!("repair gate: {app} report");
        let report = String::from_utf8(one)
            .unwrap_or_else(|e| fail(&format!("{app} report not utf-8: {e}")));
        let report = parse_json(&report, &what);

        // Per-class `fixable`/`fixed` from the ground-truth section.
        let classes = arr_at(&report, &["truth", "classes"], &what);
        let (mut app_fixable, mut app_fixed) = (0u64, 0u64);
        for (code, fixable, fixed) in &mut class_agg {
            let class = classes
                .iter()
                .find(|class| class.get("code").and_then(Json::as_str) == Some(*code))
                .unwrap_or_else(|| fail(&format!("repair gate: {app} truth has no {code} class")));
            let class_fixable = u64_at(class, &["fixable"], &what);
            let class_fixed = u64_at(class, &["fixed"], &what);
            *fixable += class_fixable;
            *fixed += class_fixed;
            app_fixable += class_fixable;
            app_fixed += class_fixed;
        }
        // Lint reports more targets than the seeded ground truth (clean
        // structures can still lack a delay, say); the histogram counts
        // *targets*, so the curve is scored over that population.
        total_targets += u64_at(&report, &["summary", "targets"], &what);
        total_targets_fixed += u64_at(&report, &["summary", "fixed"], &what);
        for bucket in arr_at(&report, &["summary", "attempts_histogram"], &what) {
            let attempts = u64_at(bucket, &["attempts"], &what);
            let fixed = u64_at(bucket, &["fixed"], &what);
            match histogram.iter_mut().find(|(n, _)| *n == attempts) {
                Some((_, total)) => *total += fixed,
                None => histogram.push((attempts, fixed)),
            }
        }
        let rate = u64_at(&report, &["truth", "fix_rate_percent"], &what);
        eprintln!("    {app}: {app_fixed}/{app_fixable} fixable bugs fixed ({rate}%)");
        total_fixable += app_fixable;
        total_fixed += app_fixed;
        app_docs.push(format!(
            "{{\"app\": \"{app}\", \"fixable\": {app_fixable}, \"fixed\": {app_fixed}, \
             \"fix_rate_percent\": {rate}}}"
        ));
    }

    if record {
        wasabi_util::write_atomic(Path::new(REPAIR_DIGEST_PATH), digests.as_bytes())
            .unwrap_or_else(|e| fail(&format!("write {REPAIR_DIGEST_PATH}: {e}")));
        eprintln!("    recorded {REPAIR_DIGEST_PATH}:\n{digests}");
    } else {
        let recorded = fs::read_to_string(REPAIR_DIGEST_PATH).unwrap_or_else(|_| {
            fail(&format!(
                "{REPAIR_DIGEST_PATH} missing — record one with `cargo xtask repair-gate --record`"
            ))
        });
        if recorded != digests {
            eprintln!("recorded:\n{recorded}\ncomputed:\n{digests}");
            fail("repair gate: repair report digests changed — a repair verdict is no longer byte-identical");
        }
        eprintln!("    repair report digests unchanged ({} apps)", ADAPTIVE_APPS.len());
    }

    let aggregate_rate = (total_fixed * 100)
        .checked_div(total_fixable)
        .unwrap_or_else(|| fail("repair gate: corpus seeded no fixable bugs"));
    if aggregate_rate < REPAIR_RATE_FLOOR {
        fail(&format!(
            "repair gate: aggregate fix rate {aggregate_rate}% \
             ({total_fixed}/{total_fixable}) is below the {REPAIR_RATE_FLOOR}% floor"
        ));
    }
    for (code, fixable, fixed) in &class_agg {
        if *fixable == 0 {
            fail(&format!("repair gate: corpus seeded no fixable {code} bugs"));
        }
        let rate = fixed * 100 / fixable;
        if rate < REPAIR_RATE_FLOOR {
            fail(&format!(
                "repair gate: {code} fix rate {rate}% ({fixed}/{fixable}) \
                 is below the {REPAIR_RATE_FLOOR}% floor"
            ));
        }
    }
    eprintln!(
        "    aggregate: {total_fixed}/{total_fixable} fixed ({aggregate_rate}%) \
         across {} apps, reports byte-identical across --jobs",
        ADAPTIVE_APPS.len()
    );

    // Attempts-vs-fix-rate curve: cumulative share of all lint targets
    // fixed within <= n validated candidate patches (bucket 0 counts
    // targets fixed as a side effect of an earlier patch).
    histogram.sort_unstable();
    let mut cumulative = 0u64;
    let curve: Vec<String> = histogram
        .iter()
        .map(|(attempts, fixed)| {
            cumulative += fixed;
            format!(
                "{{\"max_attempts\": {attempts}, \"fixed\": {cumulative}, \
                 \"rate_percent\": {}}}",
                cumulative * 100 / total_targets.max(1)
            )
        })
        .collect();
    let classes: Vec<String> = class_agg
        .iter()
        .map(|(code, fixable, fixed)| {
            format!(
                "{{\"code\": \"{code}\", \"fixable\": {fixable}, \"fixed\": {fixed}, \
                 \"fix_rate_percent\": {}}}",
                fixed * 100 / fixable
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"harness\": \"cargo xtask repair-gate (wasabi repair --corpus APP --amp \
         --scale small over all 8 corpus apps, --jobs 1 vs --jobs 4 byte-compared, \
         default 3 fix attempts)\",\n  \"apps\": [\n    {}\n  ],\n  \"classes\": [\n    {}\n  ],\n  \
         \"attempts_curve\": [\n    {}\n  ],\n  \"totals\": {{\n    \"fixable\": {total_fixable},\n    \
         \"fixed\": {total_fixed},\n    \"fix_rate_percent\": {aggregate_rate},\n    \
         \"targets\": {total_targets},\n    \"targets_fixed\": {total_targets_fixed},\n    \
         \"floor_percent\": {REPAIR_RATE_FLOOR}\n  }}\n}}\n",
        app_docs.join(",\n    "),
        classes.join(",\n    "),
        curve.join(",\n    ")
    );
    fs::write(REPAIR_BENCH_OUT, doc)
        .unwrap_or_else(|e| fail(&format!("write {REPAIR_BENCH_OUT}: {e}")));
    let _ = fs::remove_dir_all(&work);
    eprintln!("repair gate: OK (wrote {REPAIR_BENCH_OUT})");
}

/// The lint gate (CI stage 10): regenerate all eight corpus apps with
/// the amplification *and* policy seeds, require the `wasabi lint --json
/// --cross-check` report to be byte-identical on one core (`taskset -c
/// 0`, so the parse and the sweep run on one worker) and on every core
/// the machine gives the process, and score the W004/W005/W006
/// diagnostics against the `policy_truth.json` sidecars — at least 0.9
/// precision and recall per code, the same bar the A001 test gate sets.
/// Then check the `--amp` baseline apps against
/// `scripts/lint_baseline.txt` (see [`check_lint_baseline`]; `record`
/// rewrites it). Writes `BENCH_PR10.json` with per-app diagnostic counts
/// and the per-code score table.
fn lint_gate(record: bool) {
    eprintln!("==> lint gate: W004-W006 precision/recall over the policy-seeded corpus");
    let wasabi = release_wasabi()
        .canonicalize()
        .unwrap_or_else(|e| fail(&format!("canonicalize wasabi path: {e}")));
    let work = env::temp_dir().join(format!("wasabi-lint-gate-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    let cores = match std::thread::available_parallelism() {
        Ok(n) => format!("{n} cores"),
        Err(_) => "all cores".to_string(),
    };

    // `(code, true_positives, genuine, reported)` per new checker.
    let mut scores: Vec<(&str, u64, u64, u64)> =
        vec![("W004", 0, 0, 0), ("W005", 0, 0, 0), ("W006", 0, 0, 0)];
    let mut app_rows = Vec::new();
    for app in ADAPTIVE_APPS {
        let app_dir = work.join(app);
        let status = Command::new(&wasabi)
            .args(["corpus", app, "--amp", "--policy"])
            .arg(&app_dir)
            .status()
            .unwrap_or_else(|e| fail(&format!("spawn wasabi corpus: {e}")));
        if !status.success() {
            fail(&format!("wasabi corpus {app} --amp --policy failed"));
        }
        let mut files = Vec::new();
        collect_jav(&app_dir, &mut files);
        files.sort();
        let rel: Vec<PathBuf> = files
            .iter()
            .map(|f| f.strip_prefix(&work).expect("file under work dir").to_path_buf())
            .collect();

        let flags = ["--json", "--cross-check"];
        let serial = run_wasabi_lint_on_one_core(&wasabi, &work, &flags, &rel);
        let parallel = run_wasabi_lint_in(&wasabi, &work, &flags, &rel);
        if serial.1 != parallel.1 {
            fail(&format!(
                "lint gate: {app} cross-check report differs between one core \
                 (taskset -c 0) and {cores}"
            ));
        }
        let what = format!("lint gate: {app} report");
        let report = parse_json(&serial.1, &what);
        let matrix = arr_at(&report, &["cross_check", "cells"], &what);
        if !matrix
            .iter()
            .any(|cell| str_at(cell, &["tier"], &what) == "static-only")
        {
            fail(&format!("lint gate: {app} report is missing the agreement matrix"));
        }

        let diags: Vec<(&str, &str, &str)> = arr_at(&report, &["diagnostics"], &what)
            .iter()
            .map(|diag| {
                (
                    str_at(diag, &["code"], &what),
                    str_at(diag, &["file"], &what),
                    str_at(diag, &["coordinator"], &what),
                )
            })
            .collect();

        let truth_what = format!("lint gate: {app} policy_truth.json");
        let truth = fs::read_to_string(app_dir.join("policy_truth.json"))
            .unwrap_or_else(|e| fail(&format!("read {app} policy_truth.json: {e}")));
        let truth = parse_json(&truth, &truth_what);
        let mut seeded = 0usize;
        let mut policy_files = Vec::new();
        let mut seeds = Vec::new();
        for seed in truth
            .as_arr()
            .unwrap_or_else(|| fail(&format!("{truth_what}: not an array of seeds")))
        {
            let code = str_at(seed, &["code"], &truth_what);
            // Diagnostics anchor on the CLI-relative path `<APP>/<file>`.
            let file = format!("{app}/{}", str_at(seed, &["file"], &truth_what));
            let coordinator = str_at(seed, &["coordinator"], &truth_what);
            let genuine = field(seed, &["genuine"], &truth_what)
                .as_bool()
                .unwrap_or_else(|| mistyped(&["genuine"], "a boolean", &truth_what));
            seeded += 1;
            policy_files.push(file.clone());
            seeds.push((code, file, coordinator, genuine));
        }
        if seeded == 0 {
            fail(&format!("lint gate: {app} policy_truth.json seeded nothing"));
        }

        let mut app_diags = 0u64;
        for (code, tp, genuine_total, reported) in &mut scores {
            let found: Vec<_> = diags
                .iter()
                .filter(|(c, f, _)| c == code && policy_files.iter().any(|p| p == f))
                .collect();
            *reported += found.len() as u64;
            app_diags += found.len() as u64;
            for (_, file, coordinator, genuine) in seeds.iter().filter(|(c, ..)| c == code) {
                let matched = found.iter().any(|(_, f, m)| f == file && m == coordinator);
                if *genuine {
                    *genuine_total += 1;
                    *tp += matched as u64;
                } else if matched {
                    fail(&format!("lint gate: {app} decoy {coordinator} was reported as {code}"));
                }
            }
        }
        eprintln!(
            "    {app}: {} files, {app_diags} policy diagnostics, identical on 1 core and {cores}",
            rel.len()
        );
        app_rows.push(format!(
            "{{\"app\": \"{app}\", \"files\": {}, \"policy_diagnostics\": {app_diags}}}",
            rel.len()
        ));
    }
    check_lint_baseline(&wasabi, &work.join("baseline"), record);
    let _ = fs::remove_dir_all(&work);

    let mut code_rows = Vec::new();
    for (code, tp, genuine, reported) in &scores {
        if *genuine == 0 || *reported == 0 {
            fail(&format!("lint gate: {code} has an empty measurement"));
        }
        let precision = *tp as f64 / *reported as f64;
        let recall = *tp as f64 / *genuine as f64;
        if precision < 0.9 {
            fail(&format!(
                "lint gate: {code} precision {precision:.2} ({tp}/{reported}) is below 0.9"
            ));
        }
        if recall < 0.9 {
            fail(&format!(
                "lint gate: {code} recall {recall:.2} ({tp}/{genuine}) is below 0.9"
            ));
        }
        eprintln!(
            "    {code}: precision {precision:.2} ({tp}/{reported}), recall {recall:.2} ({tp}/{genuine})"
        );
        code_rows.push(format!(
            "{{\"code\": \"{code}\", \"true_positives\": {tp}, \"genuine\": {genuine}, \
             \"reported\": {reported}, \"precision\": {precision:.2}, \"recall\": {recall:.2}}}"
        ));
    }
    let doc = format!(
        "{{\n  \"harness\": \"cargo xtask lint-gate (wasabi lint --json --cross-check over all \
         8 corpus apps with --amp --policy seeds, one core (taskset -c 0) vs all cores \
         byte-compared, scored against policy_truth.json)\",\n  \"apps\": [\n    {}\n  ],\n  \
         \"codes\": [\n    {}\n  ],\n  \"floor\": {{\"precision\": 0.9, \"recall\": 0.9}}\n}}\n",
        app_rows.join(",\n    "),
        code_rows.join(",\n    ")
    );
    fs::write(POLICY_BENCH_OUT, doc)
        .unwrap_or_else(|e| fail(&format!("write {POLICY_BENCH_OUT}: {e}")));
    eprintln!("lint gate: OK (wrote {POLICY_BENCH_OUT})");
}

/// The paper-scale front-end pins: the `#[ignore]`d test in
/// `tests/frontend_pins.rs`, built and run in release, on every core the
/// machine gives the process and then on one (`taskset -c 0`, so the
/// parse, the link's validation and the sweep run on one worker).
fn frontend_gate() {
    eprintln!("==> frontend gate: paper-scale printer, ProgramIndex and analysis digests");
    let label = "test --release --test frontend_pins -- --ignored";
    let args = ["test", "--release", "-q", "--test", "frontend_pins", "--", "--ignored"];
    run_stage(label, &args);
    run_stage_under(&["taskset", "-c", "0"], label, &args);
    eprintln!("frontend gate: OK");
}

/// Compares the stdout of `repro --scale paper all` with (or, with
/// `record`, writes it to) `repro_paper_output.txt`. Assumes
/// `target/release/repro` is built.
fn paper_gate(record: bool) {
    eprintln!("==> paper gate: repro --scale paper all vs {PAPER_OUTPUT_PATH}");
    let repro = PathBuf::from("target/release/repro");
    if !repro.exists() {
        fail(&format!("{} not built", repro.display()));
    }
    let output = Command::new(&repro)
        .args(["--scale", "paper", "all"])
        .output()
        .unwrap_or_else(|e| fail(&format!("spawn repro: {e}")));
    if !output.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&output.stderr));
        fail(&format!("repro exited with {}", output.status));
    }
    if record {
        fs::write(PAPER_OUTPUT_PATH, &output.stdout)
            .unwrap_or_else(|e| fail(&format!("write {PAPER_OUTPUT_PATH}: {e}")));
        eprintln!("paper gate: recorded {PAPER_OUTPUT_PATH}");
        return;
    }
    let recorded = fs::read(PAPER_OUTPUT_PATH)
        .unwrap_or_else(|e| fail(&format!("read {PAPER_OUTPUT_PATH}: {e}")));
    if recorded != output.stdout {
        let recorded = String::from_utf8_lossy(&recorded);
        let computed = String::from_utf8_lossy(&output.stdout);
        let line = recorded
            .lines()
            .zip(computed.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| recorded.lines().count().min(computed.lines().count()));
        eprintln!(
            "recorded: {:?}\ncomputed: {:?}",
            recorded.lines().nth(line).unwrap_or("<end>"),
            computed.lines().nth(line).unwrap_or("<end>")
        );
        fail(&format!(
            "paper gate: repro output differs from {PAPER_OUTPUT_PATH} at line {}",
            line + 1
        ));
    }
    eprintln!("paper gate: OK ({} bytes identical)", recorded.len());
}

fn release_wasabi() -> PathBuf {
    let wasabi = PathBuf::from("target/release/wasabi");
    if !wasabi.exists() {
        fail(&format!("{} not built", wasabi.display()));
    }
    wasabi
}

/// Parses a document a gate reads, failing the gate loudly if it is not
/// JSON.
fn parse_json(text: &str, what: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| fail(&format!("{what}: not valid JSON ({e})")))
}

/// The value at `path` (object keys, outermost first) in `doc`, failing the
/// gate loudly if a key is missing.
fn field<'a>(doc: &'a Json, path: &[&str], what: &str) -> &'a Json {
    path.iter().fold(doc, |value, key| {
        value
            .get(key)
            .unwrap_or_else(|| fail(&format!("{what}: no `{}` field", path.join("."))))
    })
}

fn mistyped(path: &[&str], expected: &str, what: &str) -> ! {
    fail(&format!("{what}: `{}` is not {expected}", path.join(".")))
}

fn u64_at(doc: &Json, path: &[&str], what: &str) -> u64 {
    field(doc, path, what)
        .as_u64()
        .unwrap_or_else(|| mistyped(path, "an unsigned integer", what))
}

fn str_at<'a>(doc: &'a Json, path: &[&str], what: &str) -> &'a str {
    field(doc, path, what)
        .as_str()
        .unwrap_or_else(|| mistyped(path, "a string", what))
}

fn arr_at<'a>(doc: &'a Json, path: &[&str], what: &str) -> &'a [Json] {
    field(doc, path, what)
        .as_arr()
        .unwrap_or_else(|| mistyped(path, "an array", what))
}

/// Runs `wasabi test <flags> <files>` and returns stdout. Exit code 1
/// (bugs found) is success for the smoke — only codes ≥ 2 are errors.
fn run_wasabi_test(wasabi: &Path, flags: &[&str], files: &[PathBuf]) -> String {
    run_wasabi_test_in(wasabi, Path::new("."), flags, files)
}

/// [`run_wasabi_test`] with an explicit working directory (`wasabi` must
/// then be an absolute path).
fn run_wasabi_test_in(wasabi: &Path, cwd: &Path, flags: &[&str], files: &[PathBuf]) -> String {
    let output = Command::new(wasabi)
        .current_dir(cwd)
        .arg("test")
        .args(flags)
        .args(files)
        .output()
        .unwrap_or_else(|e| fail(&format!("spawn wasabi test: {e}")));
    let code = output.status.code().unwrap_or(-1);
    if code != 0 && code != 1 {
        eprintln!("{}", String::from_utf8_lossy(&output.stderr));
        fail(&format!("wasabi test exited with code {code}"));
    }
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn collect_jav(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_jav(&path, files);
        } else if path.extension().is_some_and(|ext| ext == "jav") {
            files.push(path);
        }
    }
}

fn fail(message: &str) -> ! {
    eprintln!("smoke: {message}");
    exit(1);
}
