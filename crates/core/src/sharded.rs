//! Crash-tolerant multi-process sharded campaigns.
//!
//! The parent process compiles and plans exactly like a single-process
//! campaign, partitions the key-sorted run list into `N` contiguous
//! ranges, writes a [`ShardManifest`] into the shard directory, and
//! re-execs itself once per range as
//! `wasabi test --shard-range A:B --stream --journal DIR/shard-i.jsonl`.
//! Each child re-derives the same plan from the same sources and executes
//! only its slice, streaming records to its journal with bounded memory.
//!
//! Crashed children are restarted by [`supervise_shard`] with the
//! bounded, jittered backoff of [`Policy::SUPERVISOR`], resuming from the
//! shard journal (journaled runs never re-execute); runs that repeatedly
//! kill their child are bisected out into `dlq.jsonl`. When every shard
//! is done, `merge_records` key-order-merges the journals into a report
//! byte-identical to a single-process run — and `wasabi merge <dir>`
//! ([`merge_dir`]) can do the same later, standalone.

use crate::api::{compile_app, report_json_with, source_digest, AppJob};
use crate::dynamic::{prepare_campaign, DynamicOptions, DynamicResult, DynamicStats, PreparedCampaign};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;
use wasabi_engine::campaign::{CampaignStats, RunOutcome};
use wasabi_engine::journal::{self, DeadLetter};
use wasabi_engine::observer::NullObserver;
use wasabi_engine::shard::{
    dead_letters_for, dlq_path, partition, shard_journal_path, supervise_shard, write_manifest,
    ShardExit, ShardManifest, ShardMerge, ShardRunner,
};
use wasabi_oracles::dedup::dedup_reports;
use wasabi_planner::plan::RunKey;
use wasabi_util::backoff::Policy;

/// Options for a sharded campaign.
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Shard (child process) count.
    pub shards: usize,
    /// Directory for shard journals, the manifest, and the DLQ.
    pub dir: PathBuf,
    /// The `wasabi` binary to re-exec (the CLI passes
    /// `std::env::current_exe()`; tests pass a built binary path).
    pub exe: PathBuf,
    /// Working directory for children; source paths are resolved against
    /// it (relative paths must stay relative — the simulated LLM keys on
    /// them). `None` inherits the parent's.
    pub cwd: Option<PathBuf>,
    /// Engine workers *per child*.
    pub jobs: usize,
    /// Restart/backoff/bisection policy.
    pub policy: Policy,
    /// Chaos: pass `--chaos-exit-after` to the *first* spawn of this
    /// shard, so it dies mid-flight exactly once and recovery is
    /// deterministic (restarts never carry the flag).
    pub chaos_kill_shard: Option<usize>,
    /// Journal appends before the chaos kill fires.
    pub chaos_exit_after: u64,
    /// Suppress per-shard stderr progress.
    pub quiet: bool,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            shards: 2,
            dir: PathBuf::from("shards"),
            exe: PathBuf::new(),
            cwd: None,
            jobs: 1,
            policy: Policy::SUPERVISOR,
            chaos_kill_shard: None,
            chaos_exit_after: 3,
            quiet: false,
        }
    }
}

/// What a sharded campaign (or a standalone merge) produced.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// The merged report document (same shape as `wasabi test --json`).
    pub report: String,
    /// Distinct bugs found.
    pub bugs: usize,
    /// Runs quarantined at the process level (no record; counted in the
    /// report's `dead_lettered` field).
    pub dead_lettered: usize,
    /// Child restarts across all shards (stderr summary only — never in
    /// the report, which must stay byte-identical to single-process).
    pub restarts: u32,
    /// Records merged from shard journals.
    pub merged_runs: usize,
}

/// Reads campaign sources relative to `cwd` (or the process cwd), keeping
/// the paths exactly as given.
fn read_sources(files: &[String], cwd: Option<&Path>) -> Result<Vec<(String, String)>, String> {
    files
        .iter()
        .map(|file| {
            let path = match cwd {
                Some(dir) => dir.join(file),
                None => PathBuf::from(file),
            };
            std::fs::read_to_string(&path)
                .map(|contents| (file.clone(), contents))
                .map_err(|err| format!("read {}: {err}", path.display()))
        })
        .collect()
}

/// The project name every CLI compile uses; the manifest's source digest
/// covers it.
const APP_NAME: &str = "cli";

fn compile_sources(sources: Vec<(String, String)>) -> Result<AppJob, String> {
    compile_app(APP_NAME, sources, 0).map_err(|diagnostics| {
        let mut message = String::from("compile failed:");
        for diagnostic in diagnostics {
            message.push_str(&format!("\n  {diagnostic}"));
        }
        message
    })
}

/// The production [`ShardRunner`]: spawns `wasabi test --shard-range`
/// children and reads completion back from the shard journal.
struct ProcessShardRunner<'a> {
    options: &'a ShardedOptions,
    files: &'a [String],
    /// Plan key → global run index, for mapping journaled records back to
    /// the indexes the supervisor reasons about.
    index_of: &'a BTreeMap<RunKey, usize>,
}

impl ProcessShardRunner<'_> {
    fn journal(&self, shard: usize) -> PathBuf {
        shard_journal_path(&self.options.dir, shard)
    }
}

impl ShardRunner for ProcessShardRunner<'_> {
    fn run(&mut self, shard: usize, segment: (usize, usize), restart: u32) -> ShardExit {
        let journal = self.journal(shard);
        let mut command = Command::new(&self.options.exe);
        command
            .arg("test")
            .arg("--quiet")
            .arg("--stream")
            .arg("--journal")
            .arg(&journal)
            .arg("--shard-range")
            .arg(format!("{}:{}", segment.0, segment.1))
            .arg("--jobs")
            .arg(self.options.jobs.to_string());
        if journal.exists() {
            command.arg("--resume").arg(&journal);
        }
        if restart == 0 && self.options.chaos_kill_shard == Some(shard) {
            command
                .arg("--chaos-exit-after")
                .arg(self.options.chaos_exit_after.to_string());
        }
        for file in self.files {
            command.arg(file);
        }
        if let Some(cwd) = &self.options.cwd {
            command.current_dir(cwd);
        }
        command.stdout(Stdio::null()).stdin(Stdio::null());
        if self.options.quiet {
            command.stderr(Stdio::null());
        }
        match command.status() {
            Ok(status) if status.code() == Some(0) || status.code() == Some(1) => ShardExit::Clean,
            Ok(status) => ShardExit::Crashed {
                status: match status.code() {
                    Some(code) => format!("exit code {code}"),
                    None => "killed by signal".to_string(),
                },
            },
            Err(err) => ShardExit::Crashed {
                status: format!("spawn failed: {err}"),
            },
        }
    }

    fn completed(&mut self, shard: usize) -> Result<Vec<usize>, String> {
        let journal = self.journal(shard);
        if !journal.exists() {
            return Ok(Vec::new());
        }
        let mut reader = journal::JournalReader::open(&journal)?;
        let mut indexes = Vec::new();
        while let Some(record) = reader.next_record()? {
            match self.index_of.get(&record.key) {
                Some(&index) => indexes.push(index),
                None => {
                    return Err(format!(
                        "shard {shard} journal holds a record outside the plan: {:?}",
                        record.key
                    ))
                }
            }
        }
        Ok(indexes)
    }

    fn sleep(&mut self, delay: Duration) {
        std::thread::sleep(delay);
    }
}

/// Runs a sharded campaign end to end: plan, partition, supervise child
/// processes, dead-letter poison runs, merge, report.
pub fn run_sharded(files: &[String], options: &ShardedOptions) -> Result<ShardedOutcome, String> {
    if options.shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let sources = read_sources(files, options.cwd.as_deref())?;
    let digest = source_digest(APP_NAME, &sources);
    let job = compile_sources(sources)?;
    let dynamic_options = DynamicOptions {
        jobs: options.jobs,
        capture_timing: false,
        ..DynamicOptions::default()
    };
    let prepared = prepare_campaign(
        &job.project,
        &job.identified.locations,
        &dynamic_options,
        &mut NullObserver,
    );

    std::fs::create_dir_all(&options.dir)
        .map_err(|err| format!("create shard dir {}: {err}", options.dir.display()))?;
    let ranges = partition(prepared.runs.len(), options.shards);
    write_manifest(
        &options.dir,
        &ShardManifest {
            shards: options.shards,
            total_runs: prepared.runs.len(),
            ranges: ranges.clone(),
            source_digest: digest,
            files: files.to_vec(),
        },
    )?;

    let keys: Vec<RunKey> = prepared.runs.iter().map(|run| run.key()).collect();
    let index_of: BTreeMap<RunKey, usize> =
        keys.iter().cloned().enumerate().map(|(i, k)| (k, i)).collect();

    // One supervisor thread per shard; children are separate processes, so
    // threads here only block on waitpid and backoff sleeps.
    let letters: Mutex<Vec<DeadLetter>> = Mutex::new(Vec::new());
    let restarts: Mutex<u32> = Mutex::new(0);
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .enumerate()
            .map(|(shard, &range)| {
                let (letters, restarts, keys, index_of) = (&letters, &restarts, &keys, &index_of);
                scope.spawn(move || -> Result<(), String> {
                    let mut runner = ProcessShardRunner {
                        options,
                        files,
                        index_of,
                    };
                    let report = supervise_shard(&options.policy, shard, range, &mut runner)?;
                    if !options.quiet && (report.restarts > 0 || !report.dead.is_empty()) {
                        eprintln!(
                            "[shard] shard {shard}: {} restart(s), {} run(s) dead-lettered",
                            report.restarts,
                            report.dead.len()
                        );
                    }
                    let shard_letters = dead_letters_for(shard, &report.dead, keys)?;
                    letters.lock().expect("letters lock").extend(shard_letters);
                    *restarts.lock().expect("restarts lock") += report.restarts;
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("supervisor thread panicked"))
            .collect()
    });
    for result in results {
        result?;
    }

    // Dead letters are written sorted by key so the DLQ file is
    // deterministic for a deterministic chaos seed.
    let mut letters = letters.into_inner().expect("letters lock");
    letters.sort_by(|a, b| a.key.cmp(&b.key));
    journal::append_dead_letters(&dlq_path(&options.dir), &letters)?;
    let restarts = restarts.into_inner().expect("restarts lock");

    let mut outcome = merge_records(&job, prepared, &options.dir, options.shards)?;
    outcome.restarts = restarts;
    Ok(outcome)
}

/// Standalone merge: `wasabi merge <dir>`. Re-reads the manifest's
/// sources (relative to `cwd`, exactly as the campaign did), recompiles,
/// verifies the source digest, re-derives the plan, and merges the shard
/// journals into the same report the sharded campaign printed.
pub fn merge_dir(dir: &Path, cwd: Option<&Path>) -> Result<ShardedOutcome, String> {
    let manifest = wasabi_engine::shard::load_manifest(dir)?;
    let sources = read_sources(&manifest.files, cwd)?;
    let digest = source_digest(APP_NAME, &sources);
    let job = compile_sources(sources)?;
    if digest != manifest.source_digest {
        return Err(format!(
            "sources changed since the campaign: digest {:016x} != manifest {:016x}",
            digest, manifest.source_digest
        ));
    }
    let prepared = prepare_campaign(
        &job.project,
        &job.identified.locations,
        &DynamicOptions {
            capture_timing: false,
            ..DynamicOptions::default()
        },
        &mut NullObserver,
    );
    if prepared.runs.len() != manifest.total_runs {
        return Err(format!(
            "plan disagrees with manifest: {} runs planned, manifest says {}",
            prepared.runs.len(),
            manifest.total_runs
        ));
    }
    merge_records(&job, prepared, dir, manifest.shards)
}

/// Key-order-merges the shard journals under `dir` into a report document
/// byte-identical to a single-process campaign (modulo `dead_lettered`,
/// which single-process pins to 0). Streaming: at most one record per
/// shard is resident during the walk.
fn merge_records(
    job: &AppJob,
    prepared: PreparedCampaign,
    dir: &Path,
    shards: usize,
) -> Result<ShardedOutcome, String> {
    let dead = journal::load_dead_letters(&dlq_path(dir))?;
    let dead_keys: BTreeSet<&RunKey> = dead.iter().map(|letter| &letter.key).collect();
    let paths: Vec<PathBuf> = (0..shards).map(|i| shard_journal_path(dir, i)).collect();
    let mut merge = ShardMerge::open(&paths)?;

    let mut campaign = CampaignStats::default();
    let mut reports = Vec::new();
    let mut merged_runs = 0usize;
    for run in &prepared.runs {
        let key = run.key();
        if dead_keys.contains(&key) {
            continue;
        }
        let Some(record) = merge.take(&key)? else {
            return Err(format!(
                "gap: no shard journaled a record for {key:?} and it is not dead-lettered"
            ));
        };
        merged_runs += 1;
        campaign.absorb(&record);
        if !matches!(record.outcome, RunOutcome::Crashed { .. }) {
            reports.extend(record.reports);
        }
    }
    merge.finish()?;

    campaign.runs_total = merged_runs;
    let bugs = dedup_reports(reports.clone());
    let tested_structures: BTreeSet<String> = prepared
        .runs
        .iter()
        .map(|run| run.spec.location.structure_key())
        .collect();
    let bugs_count = bugs.len();
    let result = DynamicResult {
        restoration: prepared.restoration,
        profile: prepared.profile,
        plan: prepared.test_plan,
        runs_planned: prepared.runs.len(),
        runs_naive: prepared.runs_naive,
        reports,
        bugs,
        stats: DynamicStats::from(&campaign),
        tested_structures,
        campaign,
        adaptive: None,
    };
    let report = report_json_with(&job.identified, &result, dead.len());
    Ok(ShardedOutcome {
        report,
        bugs: bugs_count,
        dead_lettered: dead.len(),
        restarts: 0,
        merged_runs,
    })
}
