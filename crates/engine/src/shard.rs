//! Process-level sharding and supervision for campaigns.
//!
//! A campaign's sorted [`RunKey`] space is partitioned into `N` contiguous
//! ranges; one child *process* per range re-executes `wasabi test` with
//! `--shard-range A:B`, journaling its records to `<dir>/shard-i.jsonl`.
//! This module owns everything above the child processes:
//!
//! - [`partition`] — the deterministic range split;
//! - [`restart_delay`] — the restart backoff: the supervisor retries under
//!   the same [`Policy`] type as the engine's own per-run retries, so it
//!   passes the paper's WHEN/HOW rules (bounded attempts, exponential
//!   backoff with a cap, SplitMix64 jitter): a crashed shard is restarted,
//!   resuming from its own journal, so already-journaled runs are never
//!   re-executed;
//! - [`supervise_shard`] — the restart loop with **poison-run bisection**:
//!   a shard that crashes *without making progress* has its remaining
//!   range split in two and each half retried, so a run that
//!   deterministically kills its process is isolated in O(log n) restarts
//!   and quarantined to the dead-letter journal
//!   ([`DeadLetter`]) instead of wedging the campaign;
//! - [`ShardManifest`] — the schema-versioned range manifest written next
//!   to the shard journals, which lets `wasabi merge <dir>` rebuild the
//!   plan and verify it is merging the campaign it thinks it is;
//! - [`ShardMerge`] — a key-ordered merge over shard journals that
//!   materializes at most one record at a time (journals append in
//!   *completion* order, so each is first indexed by key → byte offset,
//!   then records are random-accessed in plan order), detecting gaps,
//!   overlaps, and divergent duplicates.
//!
//! The supervision loop is process-free by construction: it drives a
//! [`ShardRunner`], and the tests script one (crashing on cue, sleeping
//! into a recorded schedule) while production plugs in a
//! `std::process::Command` re-exec (see `wasabi-core`'s `sharded` module).

use crate::journal::{self, DeadLetter, JournalReader};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Duration;
use wasabi_planner::plan::RunKey;
use wasabi_util::backoff::Policy;
use wasabi_util::rng::fnv1a64;
use wasabi_util::Json;

/// Splits `total` runs into `shards` contiguous index ranges `[start, end)`
/// covering `0..total`. Ranges differ in size by at most one; an empty
/// campaign yields empty ranges. Pure and total: the same `(total, shards)`
/// always yields the same split, which is what lets a child re-derive its
/// slice from `--shard-range` alone.
pub fn partition(total: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    (0..shards)
        .map(|i| (i * total / shards, (i + 1) * total / shards))
        .collect()
}

/// Backoff before restart number `restart` (1-based) of `shard` under
/// `policy` ([`Policy::SUPERVISOR`] by default). Only the jitter stream is
/// ours: it is keyed on `(jitter_seed, shard, restart)` — deterministic
/// for a given policy, never synchronized across shards.
pub fn restart_delay(policy: &Policy, shard: usize, restart: u32) -> Duration {
    let seed = fnv1a64([
        &(shard as u64).to_le_bytes()[..],
        &policy.jitter_seed.to_le_bytes()[..],
        &u64::from(restart).to_le_bytes()[..],
    ]);
    policy.delay(restart, seed)
}

/// How a shard child exited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardExit {
    /// Exit code 0 or 1 — the campaign-engine contract for "finished"
    /// (1 means findings, which is still a finished campaign).
    Clean,
    /// Anything else: nonzero exit ≥ 2, or killed by a signal. Carries a
    /// rendering of the status for dead-letter context.
    Crashed {
        /// e.g. `"exit code 86"` or `"signal 9"`.
        status: String,
    },
}

/// What [`supervise_shard`] drives. Production spawns `wasabi test
/// --shard-range` child processes; tests script crashes and record the
/// sleep schedule.
pub trait ShardRunner {
    /// Executes (or re-executes) `segment` of `shard`. `restart` is 0 for
    /// the first spawn of the shard and counts all restarts since — the
    /// production runner uses it to pass chaos flags only to the first
    /// spawn, and to resume from the shard journal on every spawn after
    /// something was journaled.
    fn run(&mut self, shard: usize, segment: (usize, usize), restart: u32) -> ShardExit;

    /// Global run indexes of `shard` completed so far (journaled records,
    /// any order). The supervisor treats these as durable: a completed
    /// index is never re-run and never dead-lettered.
    fn completed(&mut self, shard: usize) -> Result<Vec<usize>, String>;

    /// Backoff sleep between restarts.
    fn sleep(&mut self, delay: Duration);
}

/// One run the supervisor gave up on, with context for the dead-letter
/// journal (the caller maps the index back to its [`RunKey`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadRun {
    /// Global run index.
    pub index: usize,
    /// Last crashed exit of the child that was executing it.
    pub exit: String,
    /// Restarts spent on the shard when this run was quarantined.
    pub restarts: u32,
    /// `"bisected"` or `"restart cap exhausted"`.
    pub reason: String,
}

/// Outcome of supervising one shard to completion.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Restarts performed (0 for an uneventful shard).
    pub restarts: u32,
    /// Runs bisected out or dead-lettered wholesale.
    pub dead: Vec<DeadRun>,
}

/// Runs `shard`'s range to completion through `runner`, restarting crashed
/// children with the policy's backoff and bisecting out poison runs. The
/// first spawn is attempt one, so the shard gets `policy.attempts - 1`
/// restarts (across plain restarts and bisection probes); exhausting them
/// dead-letters everything the shard has not yet completed.
///
/// The loop maintains a queue of segments (initially the whole range).
/// After every child exit it re-reads the shard's completed set:
///
/// - clean exit, nothing remaining → segment done;
/// - crash (or a clean exit that left work — a defect, treated as a
///   crash) **with progress** since the last spawn → plain restart of the
///   same segment after backoff: the journal guarantees completed runs are
///   never re-executed, so restarts converge;
/// - crash **without progress** → the remaining runs contain a poison run
///   that kills the child before anything lands. A single remaining run
///   *is* the poison run: dead-letter it and move on. Otherwise split the
///   remaining index span at its median into two segments and retry each —
///   O(log n) restarts to isolate one poison run;
/// - restart budget exhausted → dead-letter everything still remaining in
///   the shard, wholesale, and return (the campaign completes with the
///   loss accounted, rather than restarting forever).
pub fn supervise_shard(
    policy: &Policy,
    shard: usize,
    range: (usize, usize),
    runner: &mut dyn ShardRunner,
) -> Result<ShardReport, String> {
    let max_restarts = policy.attempts.saturating_sub(1);
    let mut report = ShardReport { shard, ..ShardReport::default() };
    let mut segments: VecDeque<(usize, usize)> = VecDeque::new();
    segments.push_back(range);
    while let Some(segment) = segments.pop_front() {
        let mut remaining = remaining_in(runner, shard, segment)?;
        if remaining.is_empty() {
            continue;
        }
        loop {
            let exit = runner.run(shard, segment, report.restarts);
            let now_remaining = remaining_in(runner, shard, segment)?;
            let status = match exit {
                ShardExit::Clean if now_remaining.is_empty() => break,
                ShardExit::Clean => "clean exit with work remaining".to_string(),
                ShardExit::Crashed { status } => status,
            };
            let progressed = now_remaining.len() < remaining.len();
            remaining = now_remaining;
            if report.restarts >= max_restarts {
                // Budget exhausted: quarantine everything left, in this
                // segment and every queued one.
                let reason = "restart cap exhausted";
                dead_letter_all(&mut report, &remaining, &status, reason);
                while let Some(queued) = segments.pop_front() {
                    let left = remaining_in(runner, shard, queued)?;
                    dead_letter_all(&mut report, &left, &status, reason);
                }
                return Ok(report);
            }
            report.restarts += 1;
            runner.sleep(restart_delay(policy, shard, report.restarts));
            if progressed {
                continue;
            }
            if remaining.len() == 1 {
                report.dead.push(DeadRun {
                    index: remaining[0],
                    exit: status,
                    restarts: report.restarts,
                    reason: "bisected".to_string(),
                });
                break;
            }
            // Split the remaining span at its median index. Both halves are
            // contiguous sub-ranges of `segment`, so a child can still take
            // them as `--shard-range A:B`; completed runs inside them are
            // skipped via resume.
            let mid = remaining[remaining.len() / 2];
            segments.push_front((mid, segment.1));
            segments.push_front((segment.0, mid));
            break;
        }
    }
    Ok(report)
}

fn dead_letter_all(report: &mut ShardReport, indexes: &[usize], exit: &str, reason: &str) {
    for &index in indexes {
        report.dead.push(DeadRun {
            index,
            exit: exit.to_string(),
            restarts: report.restarts,
            reason: reason.to_string(),
        });
    }
}

fn remaining_in(
    runner: &mut dyn ShardRunner,
    shard: usize,
    segment: (usize, usize),
) -> Result<Vec<usize>, String> {
    let completed = runner.completed(shard)?;
    let mut done = vec![false; segment.1 - segment.0];
    for index in completed {
        if index >= segment.0 && index < segment.1 {
            done[index - segment.0] = true;
        }
    }
    Ok((segment.0..segment.1).filter(|i| !done[i - segment.0]).collect())
}

// ---- Shard directory layout ------------------------------------------------

/// Journal path for shard `i` inside a shard directory.
pub fn shard_journal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.jsonl"))
}

/// Dead-letter journal path inside a shard directory.
pub fn dlq_path(dir: &Path) -> PathBuf {
    dir.join("dlq.jsonl")
}

/// Manifest path inside a shard directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Schema version of the shard-range manifest.
pub const MANIFEST_SCHEMA_VERSION: i64 = 1;

/// The range manifest a sharded campaign writes into its shard directory
/// before spawning children. `wasabi merge <dir>` uses it to re-derive the
/// plan (recompiling the same sources from the same relative paths) and to
/// refuse to merge journals from a different campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Number of shards (and shard journals).
    pub shards: usize,
    /// Total planned runs across all shards.
    pub total_runs: usize,
    /// `[start, end)` run-index range per shard, in shard order.
    pub ranges: Vec<(usize, usize)>,
    /// FNV-1a digest of the campaign sources (`core::api::source_digest`).
    pub source_digest: u64,
    /// Source file paths exactly as given on the command line (relative
    /// paths stay relative — the simulated LLM keys on them).
    pub files: Vec<String>,
}

/// Writes the manifest into `dir` (pretty JSON, atomic enough for a file
/// written once before any child starts).
pub fn write_manifest(dir: &Path, manifest: &ShardManifest) -> Result<(), String> {
    let path = manifest_path(dir);
    let value = Json::obj([
        ("kind", Json::from("wasabi-shard-manifest")),
        ("schema_version", Json::from(MANIFEST_SCHEMA_VERSION)),
        ("shards", Json::from(manifest.shards as u64)),
        ("total_runs", Json::from(manifest.total_runs as u64)),
        (
            "ranges",
            Json::arr(
                manifest
                    .ranges
                    .iter()
                    .map(|&(a, b)| Json::arr([Json::from(a as u64), Json::from(b as u64)])),
            ),
        ),
        ("source_digest", Json::from(format!("{:016x}", manifest.source_digest))),
        ("files", Json::arr(manifest.files.iter().map(|f| Json::from(f.as_str())))),
    ]);
    wasabi_util::write_atomic(&path, value.pretty().as_bytes())
        .map_err(|err| format!("write manifest {}: {err}", path.display()))
}

/// Reads a manifest back; exact inverse of [`write_manifest`].
pub fn load_manifest(dir: &Path) -> Result<ShardManifest, String> {
    let path = manifest_path(dir);
    let text = std::fs::read_to_string(&path)
        .map_err(|err| format!("read manifest {}: {err}", path.display()))?;
    let value = Json::parse(&text).map_err(|err| format!("manifest {}: {err}", path.display()))?;
    let context = |err: &str| format!("manifest {}: {err}", path.display());
    if value.get("kind").and_then(Json::as_str) != Some("wasabi-shard-manifest") {
        return Err(context("missing manifest header"));
    }
    let version = value.get("schema_version").and_then(Json::as_i64);
    if version != Some(MANIFEST_SCHEMA_VERSION) {
        return Err(context(&format!(
            "schema_version {version:?} (this build reads {MANIFEST_SCHEMA_VERSION})"
        )));
    }
    let usize_field = |name: &str| -> Result<usize, String> {
        value
            .get(name)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| context(&format!("missing {name}")))
    };
    let ranges = value
        .get("ranges")
        .and_then(Json::as_arr)
        .ok_or_else(|| context("missing ranges"))?
        .iter()
        .map(|pair| match pair.as_arr() {
            Some([a, b]) => match (a.as_u64(), b.as_u64()) {
                (Some(a), Some(b)) => Ok((a as usize, b as usize)),
                _ => Err(context("range bounds must be unsigned ints")),
            },
            _ => Err(context("range must be [start, end]")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let digest_text = value
        .get("source_digest")
        .and_then(Json::as_str)
        .ok_or_else(|| context("missing source_digest"))?;
    let source_digest = u64::from_str_radix(digest_text, 16)
        .map_err(|_| context("source_digest must be 16 hex digits"))?;
    let files = value
        .get("files")
        .and_then(Json::as_arr)
        .ok_or_else(|| context("missing files"))?
        .iter()
        .map(|f| {
            f.as_str()
                .map(str::to_string)
                .ok_or_else(|| context("file entries must be strings"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shards = usize_field("shards")?;
    let total_runs = usize_field("total_runs")?;
    // Readers size work by these fields (`wasabi merge` opens one journal
    // per shard), so a manifest that disagrees with itself is refused here.
    if shards != ranges.len() {
        return Err(context(&format!(
            "shards is {shards} but {} ranges are listed",
            ranges.len()
        )));
    }
    if let Some(&(start, end)) = ranges
        .iter()
        .find(|&&(start, end)| start > end || end > total_runs)
    {
        return Err(context(&format!(
            "range [{start}, {end}) does not fit in {total_runs} runs"
        )));
    }
    Ok(ShardManifest {
        shards,
        total_runs,
        ranges,
        source_digest,
        files,
    })
}

// ---- Key-ordered merge -----------------------------------------------------

/// One shard journal opened for merging: a key → byte-offset index (built
/// in a single streaming pass — records are parsed and *dropped*, only
/// their keys and offsets kept) plus the file handle for random access.
struct ShardIndex {
    file: std::fs::File,
    path: PathBuf,
    /// Plan key → byte offset of its record line.
    offsets: std::collections::BTreeMap<RunKey, u64>,
}

/// A key-ordered merge over shard journals, driven by the *plan*: the
/// caller walks the expected keys in sorted order and asks for each one.
///
/// Shard journals append records in *completion* order (a multi-worker
/// child finishes runs out of key order), so a sequential k-way merge
/// cannot bound memory. Instead each journal is indexed by key → byte
/// offset up front, and [`ShardMerge::take`] random-accesses exactly one
/// record line per call — at most one [`RunRecord`](crate::campaign::RunRecord)
/// is ever resident, the bound [`ShardMerge::peak_resident`] verifies.
///
/// Detected defects, all hard errors: a duplicate key within one journal,
/// a cross-shard duplicate whose bytes diverge (overlapping ranges that
/// disagree), records for keys the plan never asks about (overlap into
/// another campaign — surfaced by [`ShardMerge::finish`]), and — surfaced
/// by the caller when `take` finds nothing — a gap. Exact cross-shard
/// duplicates (the same record journaled by two overlapping ranges) are
/// merged silently: records are keyed and deterministic, so identical
/// bytes are one run.
pub struct ShardMerge {
    shards: Vec<Option<ShardIndex>>,
    /// Any shard journal had a torn tail repaired during indexing.
    pub dropped_tails: usize,
    /// Peak number of records resident at once — the merge's memory bound
    /// (1: records are parsed one at a time and handed straight out).
    pub peak_resident: usize,
}

impl ShardMerge {
    /// Opens and indexes the shard journals. A missing journal is treated
    /// as empty — a shard whose entire range was dead-lettered may never
    /// have started; genuine losses surface as gaps when the caller asks
    /// for the missing keys.
    pub fn open(paths: &[PathBuf]) -> Result<ShardMerge, String> {
        let mut shards = Vec::with_capacity(paths.len());
        let mut dropped_tails = 0;
        for (i, path) in paths.iter().enumerate() {
            if !path.exists() {
                shards.push(None);
                continue;
            }
            let mut reader = JournalReader::open(path)?;
            let mut offsets = std::collections::BTreeMap::new();
            while let Some(record) = reader.next_record()? {
                if offsets.insert(record.key.clone(), reader.record_offset()).is_some() {
                    return Err(format!(
                        "shard {i}: duplicate record for key {:?} within one journal",
                        record.key
                    ));
                }
            }
            dropped_tails += usize::from(reader.dropped_tail);
            let file = std::fs::File::open(path)
                .map_err(|err| format!("read journal {}: {err}", path.display()))?;
            shards.push(Some(ShardIndex {
                file,
                path: path.clone(),
                offsets,
            }));
        }
        Ok(ShardMerge {
            shards,
            dropped_tails,
            peak_resident: 0,
        })
    }

    /// Reads and parses the single record line at `offset` of shard `i`.
    fn read_at(&mut self, i: usize, offset: u64) -> Result<String, String> {
        use std::io::{BufRead, Seek, SeekFrom};
        let shard = self.shards[i].as_mut().expect("indexed shard");
        shard
            .file
            .seek(SeekFrom::Start(offset))
            .map_err(|err| format!("seek journal {}: {err}", shard.path.display()))?;
        let mut line = String::new();
        std::io::BufReader::new(&shard.file)
            .read_line(&mut line)
            .map_err(|err| format!("read journal {}: {err}", shard.path.display()))?;
        Ok(line.trim_end_matches('\n').to_string())
    }

    /// Takes the record for the next expected plan key. Returns `None` for
    /// a gap (no shard journaled `key`) — the caller decides whether that
    /// is a dead-lettered run or an error. Errors on divergent cross-shard
    /// duplicates; exact duplicates merge silently.
    pub fn take(&mut self, key: &RunKey) -> Result<Option<crate::campaign::RunRecord>, String> {
        let holders: Vec<(usize, u64)> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, shard)| {
                shard
                    .as_ref()
                    .and_then(|s| s.offsets.get(key).copied())
                    .map(|offset| (i, offset))
            })
            .collect();
        let Some(&(first, offset)) = holders.first() else {
            return Ok(None);
        };
        let line = self.read_at(first, offset)?;
        // Cross-shard duplicates are compared as raw line bytes — no
        // second record is ever parsed, keeping residency at one.
        for &(i, other_offset) in &holders[1..] {
            if self.read_at(i, other_offset)? != line {
                return Err(format!(
                    "shards {first} and {i}: divergent duplicate record for key {key:?}"
                ));
            }
        }
        for &(i, _) in &holders {
            let shard = self.shards[i].as_mut().expect("indexed shard");
            shard.offsets.remove(key);
        }
        let value = Json::parse(&line)
            .map_err(|err| format!("shard {first}: re-read of key {key:?} failed: {err}"))?;
        let record = journal::record_from_json(&value)
            .map_err(|err| format!("shard {first}: re-read of key {key:?} failed: {err}"))?;
        if record.key != *key {
            return Err(format!(
                "shard {first}: index pointed key {key:?} at a record for {:?}",
                record.key
            ));
        }
        self.peak_resident = self.peak_resident.max(1);
        Ok(Some(record))
    }

    /// Finishes the merge: every indexed key must have been taken. A
    /// leftover means the journals cover keys outside the plan (an overlap
    /// into some other campaign's key space).
    pub fn finish(self) -> Result<usize, String> {
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some(shard) = shard {
                if let Some(key) = shard.offsets.keys().next() {
                    return Err(format!(
                        "shard {i}: unexpected record for key {key:?} beyond the plan"
                    ));
                }
            }
        }
        Ok(self.dropped_tails)
    }
}

/// Dead letters ready for the DLQ, built from supervisor [`DeadRun`]s and
/// the plan's key order.
pub fn dead_letters_for(
    shard: usize,
    dead: &[DeadRun],
    keys: &[RunKey],
) -> Result<Vec<DeadLetter>, String> {
    dead.iter()
        .map(|run| {
            let key = keys.get(run.index).cloned().ok_or_else(|| {
                format!("shard {shard}: dead-lettered index {} outside the plan", run.index)
            })?;
            Ok(DeadLetter {
                key,
                shard,
                exit: run.exit.clone(),
                restarts: run.restarts,
                reason: run.reason.clone(),
            })
        })
        .collect()
}
