//! Totality sweeps for the engine's on-disk readers: journal v2
//! ([`journal::load`]), the dead-letter queue v1
//! ([`journal::load_dead_letters`]) and the shard manifest
//! ([`shard::load_manifest`]). Each reader gets arbitrary garbage (deep
//! nesting included), a valid file cut at every byte, and a valid file
//! with one bit flipped. Every outcome must be `Ok`, the tolerated
//! torn-tail drop, or an `Err` — never a panic, an abort, or an
//! allocation sized by a corrupt field.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use wasabi_analysis::loops::{all_retry_locations, LoopQueryOptions};
use wasabi_analysis::resolve::ProjectIndex;
use wasabi_engine::campaign::{run_campaign, CampaignOptions, RunOutcome, RunRecord};
use wasabi_engine::journal::{self, append_dead_letters, load_dead_letters, DeadLetter, Journal};
use wasabi_engine::shard::{load_manifest, manifest_path, write_manifest, ShardManifest};
use wasabi_engine::NullObserver;
use wasabi_lang::ast::CallId;
use wasabi_lang::project::{CallSite, FileId, MethodId, Project};
use wasabi_planner::coverage::profile_coverage;
use wasabi_planner::plan::{expand_plan, plan, RunKey};
use wasabi_util::Rng;
use wasabi_vm::runner::RunOptions;

const SOURCE: &str = "\
exception ConnectException;\nexception SocketException;\n\
class Flaky {\n\
  method op() throws ConnectException { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tFlaky() { assert(this.run() == \"ok\"); }\n\
}\n\
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

/// Random cases per reader for the garbage and bit-flip halves.
const CASES: u64 = 256;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wasabi-reader-totality-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Garbage assembled from JSON punctuation, the readers' own keys and
/// values, numbers at and beyond the integer range, multi-byte text, and
/// runs of open brackets deep enough to overflow a recursive parser.
fn gen_garbage(rng: &mut Rng, max_len: usize) -> String {
    #[rustfmt::skip]
    const POOL: &[&str] = &[
        "{", "}", "[", "]", ":", ",", "\"", "\\", " ", "\n", "0", "7", "-", ".", "e",
        "18446744073709551616", "1000000000000000", "true", "null", "\"kind\"",
        "\"schema_version\"", "\"wasabi-journal\"", "\"wasabi-dlq\"",
        "\"wasabi-shard-manifest\"", "\"key\"", "\"epoch\"", "\"shards\"", "\"ranges\"",
        "\"total_runs\"", "\"outcome\"", "\"attempts\"", "\"\\ud800\"", "\u{e9}", "\u{1f980}",
    ];
    // A deep run leads, so the parser descends into it before any error.
    let mut text = String::new();
    if rng.chance(0.1) {
        let depth = 1 + rng.below(20_000) as usize;
        text.push_str(&rng.pick(&["[", "{\"key\":"]).repeat(depth));
    }
    let len = rng.below(max_len as u64 + 1) as usize;
    text.extend((0..len).map(|_| *rng.pick(POOL)));
    text
}

/// Drives `read` over garbage, every truncation of `valid`, and bit flips
/// of `valid`. `check` sees each input's bytes, whether it was a cut of
/// the valid file, and the reader's result.
fn sweep<T>(
    path: &Path,
    valid: &[u8],
    seed: u64,
    read: impl Fn(&Path) -> Result<T, String>,
    check: impl Fn(&[u8], bool, &Result<T, String>),
) {
    let exercise = |bytes: &[u8], is_cut: bool| {
        std::fs::write(path, bytes).expect("write sweep input");
        check(bytes, is_cut, &read(path));
    };
    // Deep nesting alone, and as a line after the valid file.
    for deep in ["[".repeat(20_000), "{\"key\":".repeat(20_000)] {
        exercise(deep.as_bytes(), false);
        exercise(&[valid, deep.as_bytes()].concat(), false);
    }
    let mut rng = Rng::new(seed);
    for _ in 0..CASES {
        exercise(gen_garbage(&mut rng, 200).as_bytes(), false);
        let mut tail = valid.to_vec();
        tail.extend_from_slice(gen_garbage(&mut rng, 120).as_bytes());
        exercise(&tail, false);
        let mut flipped = valid.to_vec();
        let at = rng.below(flipped.len() as u64) as usize;
        flipped[at] ^= 1 << rng.below(8);
        exercise(&flipped, false);
    }
    for cut in 0..=valid.len() {
        exercise(&valid[..cut], true);
    }
}

fn rendered(records: &[RunRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| journal::record_to_json(r).to_string())
        .collect()
}

#[test]
fn journal_load_is_total_on_garbage_truncation_and_bit_flips() {
    // A real campaign's records, every third one turned into the crashed
    // record a contained panic leaves, so completions with oracle reports
    // and crashes are both on disk.
    let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
    let index = ProjectIndex::build(&project);
    let locations: Vec<_> = all_retry_locations(&index, &LoopQueryOptions::default())
        .into_iter()
        .flat_map(|(_, locations)| locations)
        .collect();
    let profile = profile_coverage(&project, &locations, &RunOptions::default());
    let sites: BTreeSet<_> = locations.iter().map(|l| l.site).collect();
    let runs = expand_plan(&plan(&profile, &sites), &locations, &[1, 100]);
    let dir = scratch_dir("journal");
    let path = dir.join("journal.jsonl");
    let mut records = run_campaign(
        &project,
        &runs,
        &CampaignOptions::default(),
        &mut NullObserver,
    )
    .records;
    for record in records.iter_mut().step_by(3) {
        *record = RunRecord {
            key: record.key.clone(),
            outcome: RunOutcome::Crashed {
                message: "interpreter bug".to_string(),
            },
            reports: Vec::new(),
            rethrow_filtered: false,
            not_a_trigger: false,
            virtual_ms: 0,
            steps: 0,
            injections: 0,
        };
    }
    let mut journal = Journal::open(&path).expect("open journal");
    for record in &records {
        journal.append(record);
    }
    journal.finish();
    drop(journal);
    let valid = std::fs::read(&path).expect("read journal");
    let written = rendered(&records);
    assert!(
        written.iter().any(|line| line.contains("\"crashed\"")),
        "fixture has a crash"
    );
    assert!(
        records.iter().any(|record| !record.reports.is_empty()),
        "fixture has oracle reports"
    );
    assert_eq!(
        rendered(&journal::load(&path).expect("valid journal loads").records),
        written
    );

    sweep(
        &path,
        &valid,
        0x10a0_0002,
        journal::load,
        |bytes, is_cut, loaded| {
            if let (true, Ok(loaded)) = (is_cut, loaded) {
                // A cut file never invents or reorders records.
                let got = rendered(&loaded.records);
                assert_eq!(got, written[..got.len()], "cut at {} bytes", bytes.len());
            }
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn letter(k: u32, reason: &str) -> DeadLetter {
    DeadLetter {
        key: RunKey {
            test: MethodId::new("C", "t"),
            site: CallSite {
                file: FileId(0),
                call: CallId(4),
            },
            exception: "E".to_string(),
            k,
        },
        shard: 2,
        exit: "exit code 86".to_string(),
        restarts: 5,
        reason: reason.to_string(),
    }
}

#[test]
fn dead_letter_load_is_total_on_garbage_truncation_and_bit_flips() {
    let dir = scratch_dir("dlq");
    let path = dir.join("dlq.jsonl");
    let letters = vec![
        letter(1, "bisected"),
        letter(100, "restart cap exhausted"),
        letter(7, "bisected"),
    ];
    append_dead_letters(&path, &letters).expect("write dlq");
    let valid = std::fs::read(&path).expect("read dlq");
    assert_eq!(load_dead_letters(&path).expect("valid dlq loads"), letters);

    // A supervisor killed mid-write leaves some cut of a valid file, from
    // the empty file it created to a torn header or letter: every cut
    // loads, as a prefix of the letters.
    sweep(
        &path,
        &valid,
        0xd1a0_0001,
        load_dead_letters,
        |bytes, is_cut, loaded| {
            if is_cut {
                let loaded = loaded
                    .as_ref()
                    .unwrap_or_else(|err| panic!("cut at {} bytes: {err}", bytes.len()));
                assert_eq!(
                    loaded[..],
                    letters[..loaded.len()],
                    "cut at {} bytes",
                    bytes.len()
                );
            }
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_load_is_total_on_garbage_truncation_and_bit_flips() {
    let dir = scratch_dir("manifest");
    let manifest = ShardManifest {
        shards: 3,
        total_runs: 10,
        ranges: vec![(0, 4), (4, 7), (7, 10)],
        source_digest: 0x0123_4567_89ab_cdef,
        files: vec!["HD/a.jav".to_string(), "HD/b.jav".to_string()],
    };
    write_manifest(&dir, &manifest).expect("write manifest");
    let path = manifest_path(&dir);
    let valid = std::fs::read(&path).expect("read manifest");
    assert_eq!(load_manifest(&dir).expect("valid manifest loads"), manifest);

    sweep(
        &path,
        &valid,
        0x3a41_0003,
        |_| load_manifest(&dir),
        |bytes, _, loaded| {
            if let Ok(loaded) = loaded {
                // Whatever loads is self-consistent: callers may size work by it.
                assert_eq!(
                    loaded.shards,
                    loaded.ranges.len(),
                    "{}",
                    String::from_utf8_lossy(bytes)
                );
                assert!(
                    loaded
                        .ranges
                        .iter()
                        .all(|&(start, end)| start <= end && end <= loaded.total_runs),
                    "{}",
                    String::from_utf8_lossy(bytes)
                );
            }
        },
    );

    // A shard count that would size a 24 PB allocation, a count short of
    // the ranges, and ranges that overrun or invert.
    let text = String::from_utf8(valid).expect("manifest is utf-8");
    for (from, to) in [
        ("\"shards\": 3", "\"shards\": 1000000000000000"),
        ("\"shards\": 3", "\"shards\": 2"),
        (
            "[\n      7,\n      10\n    ]",
            "[\n      7,\n      11\n    ]",
        ),
        ("[\n      4,\n      7\n    ]", "[\n      7,\n      4\n    ]"),
    ] {
        assert!(text.contains(from), "fixture drifted: {text}");
        std::fs::write(&path, text.replace(from, to)).expect("write bad manifest");
        let err = load_manifest(&dir).expect_err(to);
        assert!(
            err.contains("shards is") || err.contains("does not fit"),
            "{to}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
