//! Campaign execution: a fixed-size worker pool that claims runs in key
//! order from one shared cursor, with panic containment, bounded retries,
//! checkpoint/resume, and a deterministic merge of results.
//!
//! # Determinism contract
//!
//! The engine guarantees that [`CampaignResult::records`] is a pure
//! function of `(project, runs, options)` — independent of `jobs`, of how
//! the OS schedules the workers, and of whether the campaign ran in one
//! piece or was resumed from a journal:
//!
//! - runs execute in **isolated interpreters**: each worker constructs its
//!   own `Interp` (own virtual clock, config store, trace buffer) and its
//!   own `InjectionHandler` per attempt, so no state crosses runs or
//!   attempts;
//! - results land in **key-addressed slots**: the engine orders runs by
//!   [`RunKey`] up front, workers claim the pending slots in that order
//!   from one shared cursor, and each worker writes its record into the
//!   slot for that key, so the merged vector has the same order no matter
//!   which worker finished first;
//! - **timed-out runs are normalized**: a run aborted by the wall-clock
//!   budget records a bare [`RunOutcome::TimedOut`] with zeroed
//!   nondeterministic fields (virtual time, steps, injections) and is never
//!   judged by the oracles, because *where* the abort landed depends on
//!   host speed;
//! - **panicking runs are contained**: each attempt executes under
//!   [`std::panic::catch_unwind`], and a panic becomes a
//!   [`RunOutcome::Crashed`] record with zeroed measurements instead of
//!   poisoning the worker pool — nothing from the broken attempt reaches
//!   the report because every attempt rebuilds its interpreter from
//!   scratch (per-run isolation is what makes the unwind safe);
//! - **retries are seeded**: the retry [`Policy`] re-executes
//!   `Crashed`/`TimedOut` runs with exponential backoff whose jitter is
//!   drawn from a SplitMix64 stream keyed on `(jitter_seed, RunKey,
//!   attempt)`, so the attempt count and final outcome of every run are
//!   reproducible; runs that exhaust the policy are *quarantined*
//!   ([`RunRecord::quarantined`]), never dropped.
//!
//! A panic *outside* per-run containment is an engine bug, not a run
//! outcome: it propagates out of the worker pool and ends the process.
//! Recovering from a dead process is the shard supervisor's job
//! ([`crate::shard`]), which restarts the child from its journal.
//!
//! Scheduling-dependent observations (per-worker run counts, wall time,
//! resumed-run count) are confined to [`CampaignStats::worker_runs`] /
//! [`CampaignStats::wall_ms`] / [`CampaignStats::resumed`] and the
//! observer event stream; nothing in `records` derives from them.

use crate::journal::Journal;
use crate::metrics::RunTiming;
use crate::observer::{EngineEvent, EngineObserver};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Once};
use std::thread;
use std::time::{Duration, Instant};
use wasabi_inject::InjectionHandler;
use wasabi_lang::project::Project;
use wasabi_oracles::judge::{judge_run, judge_run_timed, OracleConfig, OracleReport};
use wasabi_planner::plan::{InjectionRun, RunKey};
use wasabi_util::backoff::Policy;
use wasabi_util::rng::{fnv1a64, Rng};
use wasabi_util::{saturating_ms, saturating_us};
use wasabi_vm::runner::{run_test, RunOptions};
use wasabi_vm::trace::TestOutcome;

/// A stable 64-bit digest of a run key, used to seed per-run deterministic
/// decisions (backoff jitter, chaos draws) independently of scheduling.
pub(crate) fn key_hash(key: &RunKey, salt: u64) -> u64 {
    fnv1a64([
        key.test.class.as_bytes(),
        b"\0",
        key.test.name.as_bytes(),
        b"\0",
        key.site.file.0.to_le_bytes().as_slice(),
        key.site.call.0.to_le_bytes().as_slice(),
        key.exception.as_bytes(),
        b"\0",
        key.k.to_le_bytes().as_slice(),
        salt.to_le_bytes().as_slice(),
    ])
}

/// The backoff delay after `failed_attempt` (1-based) of `key` failed
/// under `policy` — the paper's §2 *HOW* best practice (exponential
/// backoff with a cap) applied to the engine's own transient failures
/// (`Crashed` and `TimedOut` outcomes).
///
/// Only the jitter stream is ours: it is keyed on `(jitter_seed, RunKey,
/// attempt)`, so the delay sequence of a run — and therefore a rerun of
/// the whole campaign — is deterministic regardless of which worker
/// executes it.
pub fn retry_delay(policy: &Policy, key: &RunKey, failed_attempt: u8) -> Duration {
    policy.delay(
        u32::from(failed_attempt),
        key_hash(key, policy.jitter_seed ^ u64::from(failed_attempt)),
    )
}

/// Deterministic fault injection into the engine itself — the chaos
/// self-test hook behind the resilience test suite and the `cargo xtask
/// smoke` CI stage.
///
/// Every decision is a pure function of `(seed, RunKey, attempt)`, so a
/// chaos campaign produces byte-identical records for any worker count —
/// which is exactly what the self-tests assert. Production campaigns
/// leave this `None`.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Probability that an attempt panics mid-run.
    pub panic_rate: f64,
    /// Maximum extra pre-run delay, in milliseconds (uniformly drawn;
    /// shakes worker scheduling without touching results). Zero disables.
    pub max_delay_ms: u64,
    /// Seed for the decision stream.
    pub seed: u64,
    /// If set, the whole *process* exits (code 86) once this many records
    /// have been appended to the journal — the crash point the shard
    /// supervisor's chaos CI stage uses to kill a child mid-flight at a
    /// deterministic, journal-aligned spot. Count-based, not time-based,
    /// so recovery is byte-reproducible.
    pub exit_after_appends: Option<u64>,
}

impl ChaosConfig {
    /// Chaos that only injects panics at `panic_rate`, seeded.
    pub fn panics(panic_rate: f64, seed: u64) -> Self {
        ChaosConfig {
            panic_rate,
            max_delay_ms: 0,
            seed,
            exit_after_appends: None,
        }
    }

    fn draw(&self, key: &RunKey, attempt: u8) -> ChaosDraw {
        let mut rng = Rng::new(key_hash(key, self.seed ^ (u64::from(attempt) << 32)));
        ChaosDraw {
            panic: rng.chance(self.panic_rate),
            delay_ms: if self.max_delay_ms == 0 {
                0
            } else {
                rng.below(self.max_delay_ms + 1)
            },
        }
    }
}

struct ChaosDraw {
    panic: bool,
    delay_ms: u64,
}

/// Options for one campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker count. `1` executes serially through the same code path as
    /// any other value (one worker thread).
    pub jobs: usize,
    /// Per-run interpreter options (limits, pinned configs).
    pub run_options: RunOptions,
    /// Oracle thresholds for judging completed runs.
    pub oracle: OracleConfig,
    /// Optional wall-clock budget per run. A run that exceeds it is
    /// cancelled cooperatively (the interpreter checks the deadline every
    /// few thousand steps) and recorded as [`RunOutcome::TimedOut`];
    /// the campaign itself never hangs on one stuck run.
    pub run_budget: Option<Duration>,
    /// Retry policy for transient failures (`Crashed`/`TimedOut`); see
    /// [`retry_delay`]. Attempts beyond 255 clamp to 255.
    pub retry: Policy,
    /// Chaos self-test hook; `None` in production campaigns.
    pub chaos: Option<ChaosConfig>,
    /// Durable journal path: every finished record is appended as one
    /// JSON line, with fsync'd epoch markers, so an interrupted campaign
    /// can resume without re-running completed work.
    pub journal: Option<PathBuf>,
    /// Records recovered from a previous journal (see
    /// [`crate::journal::load`]). Runs whose key appears here are not
    /// re-executed; their records merge into the result in key order, so
    /// a resumed campaign's report is byte-identical to an uninterrupted
    /// one.
    pub resume: Vec<RunRecord>,
    /// Whether to capture per-run host timings ([`RunTiming`]): the
    /// `Instant` reads bracketing each run, the timed oracle judgement,
    /// and the queue-wait stamp. On by default; campaigns that do not
    /// record traces (`wasabi test` without `--trace-out`) turn it off so
    /// the hot loop carries no clock reads beyond the interpreter's own.
    /// Never affects [`CampaignResult::records`] — timings live only in
    /// the observer layer.
    pub capture_timing: bool,
    /// Bounded-memory streaming: finished records are appended to the
    /// journal and **dropped from RAM** instead of accumulating in
    /// [`CampaignResult::records`] (which comes back empty); the caller's
    /// report phase re-reads the journal. Requires `journal`; if the
    /// journal cannot be opened (or dies to an I/O error mid-campaign),
    /// records are kept in memory after all — losing the memory bound, not
    /// the data. Stats are accumulated incrementally either way, and
    /// [`CampaignStats::peak_resident_records`] reports the high-water
    /// mark this option exists to bound.
    pub stream: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            jobs: 1,
            run_options: RunOptions::default(),
            oracle: OracleConfig::default(),
            run_budget: None,
            retry: Policy::ENGINE,
            chaos: None,
            journal: None,
            resume: Vec::new(),
            capture_timing: true,
            stream: false,
        }
    }
}

/// How one campaign run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The interpreter ran the test to an outcome within budget.
    Completed(TestOutcome),
    /// The wall-clock budget expired; the partial run was discarded.
    TimedOut,
    /// The attempt panicked; the panic was contained and the partial run
    /// discarded (all measurements zeroed).
    Crashed {
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl RunOutcome {
    /// Whether this outcome is a transient engine-level failure that the
    /// retry policy may re-execute.
    pub fn is_transient_failure(&self) -> bool {
        matches!(self, RunOutcome::TimedOut | RunOutcome::Crashed { .. })
    }
}

/// The merged result of one injection run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run's identity; records are sorted by this key.
    pub key: RunKey,
    /// How the run ended (final attempt).
    pub outcome: RunOutcome,
    /// Oracle findings (empty for timed-out and crashed runs, which are
    /// not judged).
    pub reports: Vec<OracleReport>,
    /// The run crashed by re-throwing the injected exception (correct
    /// give-up behaviour, filtered by the different-exception oracle).
    pub rethrow_filtered: bool,
    /// The injected exception escaped without any retry (the location was
    /// not actually a retry trigger).
    pub not_a_trigger: bool,
    /// Virtual milliseconds the run consumed (0 if timed out or crashed).
    pub virtual_ms: u64,
    /// Interpreter steps the run consumed (0 if timed out or crashed).
    pub steps: u64,
    /// Faults injected during the run (0 if timed out or crashed).
    pub injections: u32,
    /// Attempts executed (1 = no retries were needed).
    pub attempts: u8,
    /// The run still ended in a transient failure after exhausting the
    /// retry policy; it is reported here and in the report's quarantine
    /// section instead of aborting the campaign.
    pub quarantined: bool,
}

/// Aggregate campaign statistics.
///
/// All fields except `worker_runs`, `resumed`, and `wall_ms` are
/// deterministic given the same runs and options.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Total runs reported (executed + resumed).
    pub runs_total: usize,
    /// Runs that completed within budget.
    pub completed: usize,
    /// Runs cancelled by the wall-clock budget.
    pub timed_out: usize,
    /// Completed runs that did not pass.
    pub failed: usize,
    /// Runs whose final attempt panicked (contained as
    /// [`RunOutcome::Crashed`]).
    pub crashed: usize,
    /// Extra attempts spent re-executing transient failures.
    pub retried: usize,
    /// Runs quarantined after exhausting the retry policy.
    pub quarantined: usize,
    /// Runs filtered as correct give-up rethrows.
    pub rethrow_filtered: usize,
    /// Runs evidencing a misidentified trigger.
    pub not_a_trigger: usize,
    /// Total oracle reports across runs.
    pub reports: usize,
    /// Total faults injected.
    pub injections: u64,
    /// Total virtual milliseconds across completed runs.
    pub virtual_ms: u64,
    /// Total interpreter steps across completed runs (final attempts
    /// only; timed-out and crashed runs record zero).
    pub steps: u64,
    /// Worker count used.
    pub jobs: usize,
    /// Runs executed per worker (scheduling-dependent; utilization only).
    pub worker_runs: Vec<usize>,
    /// Runs recovered from the resume journal instead of executed.
    pub resumed: usize,
    /// Campaign wall time in milliseconds (scheduling-dependent).
    pub wall_ms: u64,
    /// High-water mark of run records resident in the coordinator's
    /// memory. With [`CampaignOptions::stream`] this stays O(1) — each
    /// record is spilled to the journal and dropped as it lands — while a
    /// non-streaming campaign ends holding every record. Observational,
    /// like `wall_ms`: nothing in `records` derives from it.
    pub peak_resident_records: usize,
}

/// A finished campaign: records in [`RunKey`] order plus statistics.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One record per input run, sorted by key.
    pub records: Vec<RunRecord>,
    /// Aggregate statistics.
    pub stats: CampaignStats,
}

impl CampaignResult {
    /// The quarantined subset of [`CampaignResult::records`], in key
    /// order — runs that still ended in a transient failure after
    /// exhausting the retry policy.
    pub fn quarantine(&self) -> impl Iterator<Item = &RunRecord> {
        self.records.iter().filter(|r| r.quarantined)
    }
}

/// What a worker sends back to the coordinator.
enum Message {
    Started {
        slot: usize,
        worker: usize,
        key: RunKey,
    },
    Retried {
        slot: usize,
        worker: usize,
        key: RunKey,
        /// The attempt (1-based) that just failed.
        attempt: u8,
        delay_ms: u64,
    },
    Finished {
        slot: usize,
        worker: usize,
        record: RunRecord,
        timing: RunTiming,
    },
}

thread_local! {
    /// Set while a run attempt executes under `catch_unwind`, so the
    /// process-wide panic hook knows the panic is contained and skips the
    /// default stderr backtrace (a 10%-panic-rate chaos campaign would
    /// otherwise spend its wall clock printing traces).
    static PANIC_CONTAINED: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that suppresses output for
/// panics the engine is about to contain and chains to the previous hook
/// for everything else.
fn install_contained_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if PANIC_CONTAINED.with(Cell::get) {
                return;
            }
            previous(info);
        }));
    });
}

/// RAII flag for [`PANIC_CONTAINED`]; unsets on drop (including unwind).
struct ContainGuard;

impl ContainGuard {
    fn new() -> Self {
        PANIC_CONTAINED.with(|c| c.set(true));
        ContainGuard
    }
}

impl Drop for ContainGuard {
    fn drop(&mut self) {
        PANIC_CONTAINED.with(|c| c.set(false));
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes `runs` on `options.jobs` workers and merges the results
/// deterministically. See the module docs for the determinism contract.
pub fn run_campaign(
    project: &Project,
    runs: &[InjectionRun],
    options: &CampaignOptions,
    observer: &mut dyn EngineObserver,
) -> CampaignResult {
    let started_at = Instant::now();
    install_contained_panic_hook();

    // The engine re-derives key order itself rather than trusting the
    // caller to have sorted: slot i of the output always holds the i-th
    // run in key order.
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by_key(|&i| runs[i].key());

    let mut slots: Vec<Option<RunRecord>> = Vec::new();
    slots.resize_with(runs.len(), || None);
    let mut det_stats = CampaignStats::default();
    let mut resident = 0usize;
    let mut peak_resident = 0usize;

    // Resume: pre-fill slots from recovered records (first record wins on
    // duplicate journal keys; records are deterministic, so duplicates
    // are identical anyway). Keys outside the plan are ignored. In
    // streaming mode the record's stats are absorbed and the record
    // dropped — the journal it was recovered from still holds it for the
    // caller's report phase. Every other slot is pending, in key order.
    let mut resumed = 0usize;
    let mut pending: Vec<usize> = Vec::with_capacity(runs.len());
    if options.resume.is_empty() {
        pending.extend(0..runs.len());
    } else {
        let mut by_key: BTreeMap<&RunKey, &RunRecord> = BTreeMap::new();
        for record in &options.resume {
            by_key.entry(&record.key).or_insert(record);
        }
        for (slot, &run_index) in order.iter().enumerate() {
            let Some(record) = by_key.get(&runs[run_index].key()) else {
                pending.push(slot);
                continue;
            };
            absorb_record_stats(&mut det_stats, record);
            resumed += 1;
            if !options.stream {
                slots[slot] = Some((*record).clone());
                resident += 1;
                peak_resident = peak_resident.max(resident);
            }
        }
    }

    let jobs = options.jobs.max(1).min(pending.len().max(1));
    observer.on_event(&EngineEvent::Started {
        total_runs: runs.len(),
        jobs,
        resumed,
    });

    let mut journal = options.journal.as_deref().and_then(|path| {
        Journal::open(path)
            .map_err(|err| {
                eprintln!(
                    "[engine] cannot open journal {}: {err}; journaling disabled",
                    path.display()
                );
            })
            .ok()
    });

    let chaos_exit_after = options.chaos.as_ref().and_then(|c| c.exit_after_appends);
    let mut worker_runs = vec![0usize; jobs];

    if !pending.is_empty() {
        // Workers claim pending slots from one shared cursor, so runs
        // start in key order for any worker count.
        let cursor = AtomicUsize::new(0);
        let (sender, receiver) = mpsc::channel::<Message>();
        // A panic outside per-run containment kills its worker; the scope
        // re-raises it once the survivors drain, ending the campaign.
        thread::scope(|scope| {
            let (cursor, pending, order) = (&cursor, &pending, &order);
            for worker in 0..jobs {
                let sender = sender.clone();
                scope.spawn(move || {
                    worker_loop(worker, cursor, pending, order, project, runs, options, &sender, started_at)
                });
            }
            drop(sender);
            // Replay worker messages into the observer on this thread, so
            // observers need no locking; the receive loop ends when every
            // worker has dropped its sender.
            for message in receiver {
                match message {
                    Message::Started { slot, worker, key } => {
                        observer.on_event(&EngineEvent::RunStarted {
                            index: slot,
                            key: &key,
                            worker,
                        });
                    }
                    Message::Retried {
                        slot,
                        worker,
                        key,
                        attempt,
                        delay_ms,
                    } => {
                        observer.on_event(&EngineEvent::RunRetried {
                            index: slot,
                            key: &key,
                            worker,
                            attempt,
                            delay_ms,
                        });
                    }
                    Message::Finished {
                        slot,
                        worker,
                        record,
                        timing,
                    } => {
                        worker_runs[worker] += 1;
                        // The record in hand is resident until spilled or the
                        // campaign ends — this counter is the memory bound the
                        // streaming test pins.
                        resident += 1;
                        peak_resident = peak_resident.max(resident);
                        observer.on_event(&EngineEvent::RunFinished {
                            index: slot,
                            key: &record.key,
                            worker,
                            outcome: &record.outcome,
                            injections: record.injections,
                            reports: record.reports.len(),
                            attempts: record.attempts,
                            steps: record.steps,
                            timing: &timing,
                        });
                        if let RunOutcome::Crashed { message } = &record.outcome {
                            observer.on_event(&EngineEvent::RunCrashed {
                                index: slot,
                                key: &record.key,
                                worker,
                                message,
                            });
                        }
                        if record.quarantined {
                            observer.on_event(&EngineEvent::RunQuarantined {
                                index: slot,
                                key: &record.key,
                                attempts: record.attempts,
                                outcome: &record.outcome,
                            });
                        }
                        // Full-record feedback for planners, emitted before any
                        // streaming spill so it fires even when the record never
                        // reaches RAM.
                        observer.on_event(&EngineEvent::RunRecorded {
                            index: slot,
                            record: &record,
                        });
                        let mut spilled = false;
                        if let Some(journal) = journal.as_mut() {
                            if let Some(completed) = journal.append(&record) {
                                observer.on_event(&EngineEvent::CheckpointWritten { completed });
                            }
                            // Chaos crash point: die *after* the append, so the
                            // journal holds exactly `limit` records — the shard
                            // supervisor must observe progress and plain-restart,
                            // never bisect.
                            if let Some(limit) = chaos_exit_after {
                                if journal.appended() as u64 >= limit {
                                    eprintln!(
                                        "[engine] chaos: exiting after {limit} journal append(s)"
                                    );
                                    std::process::exit(86);
                                }
                            }
                            // Streaming spill: the journal write went through (the
                            // journal is still active), so the record is durable
                            // and RAM can drop it. A dead journal falls back to the
                            // slot — bounded memory degrades, data does not.
                            spilled = options.stream && journal.active();
                        }
                        absorb_record_stats(&mut det_stats, &record);
                        if spilled {
                            resident -= 1;
                        } else {
                            slots[slot] = Some(record);
                        }
                    }
                }
            }
        });
    }

    if let Some(journal) = journal.as_mut() {
        if let Some(completed) = journal.finish() {
            observer.on_event(&EngineEvent::CheckpointWritten { completed });
        }
    }

    // Non-streaming campaigns hold every record; streaming ones only keep
    // what could not be spilled (journal missing or dead), normally none.
    let records: Vec<RunRecord> = if options.stream {
        slots.into_iter().flatten().collect()
    } else {
        slots
            .into_iter()
            .map(|slot| slot.expect("every planned run produces a record"))
            .collect()
    };

    let mut stats = det_stats;
    stats.runs_total = runs.len();
    stats.jobs = jobs;
    stats.worker_runs = worker_runs;
    stats.resumed = resumed;
    stats.wall_ms = saturating_ms(started_at.elapsed());
    stats.peak_resident_records = peak_resident;
    observer.on_event(&EngineEvent::Finished { stats: &stats });
    CampaignResult { records, stats }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    worker: usize,
    cursor: &AtomicUsize,
    pending: &[usize],
    order: &[usize],
    project: &Project,
    runs: &[InjectionRun],
    options: &CampaignOptions,
    sender: &mpsc::Sender<Message>,
    campaign_started: Instant,
) {
    while let Some(&slot) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
        let queue_wait_us = if options.capture_timing {
            saturating_us(campaign_started.elapsed())
        } else {
            0
        };
        let run = &runs[order[slot]];
        let key = run.key();
        if sender
            .send(Message::Started {
                slot,
                worker,
                key: key.clone(),
            })
            .is_err()
        {
            return;
        }
        let mut notify = |attempt: u8, delay: Duration| {
            let _ = sender.send(Message::Retried {
                slot,
                worker,
                key: key.clone(),
                attempt,
                delay_ms: saturating_ms(delay),
            });
        };
        let (record, mut timing) = execute_run(project, run, options, &mut notify);
        timing.queue_wait_us = queue_wait_us;
        if sender
            .send(Message::Finished {
                slot,
                worker,
                record,
                timing,
            })
            .is_err()
        {
            return;
        }
    }
}

/// Folds one record into the deterministic half of the campaign stats.
/// Called as records land (execution order) — every field is a commutative
/// sum or count, so the result is identical to a key-order fold.
fn absorb_record_stats(stats: &mut CampaignStats, record: &RunRecord) {
    match &record.outcome {
        RunOutcome::TimedOut => stats.timed_out += 1,
        RunOutcome::Crashed { .. } => stats.crashed += 1,
        RunOutcome::Completed(outcome) => {
            stats.completed += 1;
            if !outcome.is_pass() {
                stats.failed += 1;
            }
        }
    }
    stats.retried += usize::from(record.attempts.saturating_sub(1));
    stats.quarantined += usize::from(record.quarantined);
    stats.rethrow_filtered += usize::from(record.rethrow_filtered);
    stats.not_a_trigger += usize::from(record.not_a_trigger);
    stats.reports += record.reports.len();
    stats.injections += u64::from(record.injections);
    stats.virtual_ms += record.virtual_ms;
    stats.steps += record.steps;
}

/// Executes one run under the retry policy. Each attempt runs in a fresh,
/// fully isolated interpreter under `catch_unwind`; transient failures
/// (`Crashed`, `TimedOut`) are retried with deterministic backoff until
/// the policy is exhausted, at which point the record is quarantined.
fn execute_run(
    project: &Project,
    run: &InjectionRun,
    options: &CampaignOptions,
    notify_retry: &mut dyn FnMut(u8, Duration),
) -> (RunRecord, RunTiming) {
    let run_started = options.capture_timing.then(Instant::now);
    // Clamped into the `u8` attempt counter a record carries.
    let max_attempts = u8::try_from(options.retry.attempts.max(1)).unwrap_or(u8::MAX);
    // Clone the run options (pinned-config list included) once per run, not
    // once per attempt; only the wall-clock deadline varies between attempts.
    let mut run_options = options.run_options.clone();
    let mut timing = RunTiming::default();
    let mut attempt = 1u8;
    loop {
        let caught = {
            let _guard = ContainGuard::new();
            let timing = &mut timing;
            panic::catch_unwind(AssertUnwindSafe(|| {
                execute_attempt(project, run, options, &mut run_options, attempt, timing)
            }))
        };
        let mut record = match caught {
            Ok(record) => record,
            // Per-run isolation makes the unwind safe: the broken
            // interpreter, handler, and trace died with the attempt, and
            // the next attempt (or the report) only sees this fresh
            // record. (A panicking attempt's interpreter time is lost to
            // the timing breakdown — run_wall_us still covers it.)
            Err(payload) => crashed_record(run.key(), panic_message(payload)),
        };
        record.attempts = attempt;
        let transient = record.outcome.is_transient_failure();
        if transient && attempt < max_attempts {
            let delay = retry_delay(&options.retry, &record.key, attempt);
            timing.backoff_ms = timing.backoff_ms.saturating_add(saturating_ms(delay));
            notify_retry(attempt, delay);
            if !delay.is_zero() {
                thread::sleep(delay);
            }
            attempt += 1;
            continue;
        }
        record.quarantined = transient;
        if let Some(started) = run_started {
            timing.run_wall_us = saturating_us(started.elapsed());
        }
        return (record, timing);
    }
}

/// A contained panic, normalized: nothing from the partial attempt may
/// reach the report (measurements are scheduling- and progress-dependent).
fn crashed_record(key: RunKey, message: String) -> RunRecord {
    RunRecord {
        key,
        outcome: RunOutcome::Crashed { message },
        reports: Vec::new(),
        rethrow_filtered: false,
        not_a_trigger: false,
        virtual_ms: 0,
        steps: 0,
        injections: 0,
        attempts: 1,
        quarantined: false,
    }
}

/// Executes one attempt in a fresh, fully isolated interpreter and judges
/// it. Chaos (if configured) may delay or panic the attempt first — both
/// decisions are pure functions of `(seed, key, attempt)`.
fn execute_attempt(
    project: &Project,
    run: &InjectionRun,
    options: &CampaignOptions,
    run_options: &mut RunOptions,
    attempt: u8,
    timing: &mut RunTiming,
) -> RunRecord {
    let key = run.key();
    if let Some(chaos) = &options.chaos {
        let draw = chaos.draw(&key, attempt);
        if draw.delay_ms > 0 {
            thread::sleep(Duration::from_millis(draw.delay_ms));
        }
        if draw.panic {
            panic!(
                "chaos: injected panic ({}.{} @ {} {} K={}, attempt {attempt})",
                key.test.class, key.test.name, key.site, key.exception, key.k
            );
        }
    }
    if let Some(budget) = options.run_budget {
        run_options.limits.wall_deadline = Some(Instant::now() + budget);
    }
    let mut handler = InjectionHandler::single(run.spec.location.clone(), run.spec.k);
    let test_run = run_test(project, &run.test, &mut handler, run_options);
    timing.interp_us = timing.interp_us.saturating_add(test_run.wall_us);
    if matches!(test_run.outcome, TestOutcome::WallClockExceeded) {
        // Normalize: where the abort landed is host-dependent, so nothing
        // from the partial run may reach the report.
        return RunRecord {
            key,
            outcome: RunOutcome::TimedOut,
            reports: Vec::new(),
            rethrow_filtered: false,
            not_a_trigger: false,
            virtual_ms: 0,
            steps: 0,
            injections: 0,
            attempts: 1,
            quarantined: false,
        };
    }
    let verdict = if options.capture_timing {
        let (verdict, judge_elapsed) = judge_run_timed(&test_run, &run.spec, &options.oracle);
        timing.judge_us = timing.judge_us.saturating_add(saturating_us(judge_elapsed));
        verdict
    } else {
        judge_run(&test_run, &run.spec, &options.oracle)
    };
    RunRecord {
        key,
        outcome: RunOutcome::Completed(test_run.outcome.clone()),
        reports: verdict.reports,
        rethrow_filtered: verdict.rethrow_filtered,
        not_a_trigger: verdict.not_a_trigger,
        virtual_ms: test_run.virtual_ms,
        steps: test_run.steps,
        injections: handler.total_injected(),
        attempts: 1,
        quarantined: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use std::collections::BTreeSet;
    use wasabi_analysis::loops::{all_retry_locations, LoopQueryOptions};
    use wasabi_analysis::resolve::ProjectIndex;
    use wasabi_planner::coverage::profile_coverage;
    use wasabi_planner::plan::{expand_plan, plan};

    // Both tests burn >4096 interpreter steps up front (`spin`), so a
    // zero wall-clock budget is guaranteed to hit a deadline check —
    // the interpreter only polls the deadline every WALL_CHECK_INTERVAL
    // steps.
    const SOURCE: &str = "\
exception ConnectException;\nexception SocketException;\n\
class Flaky {\n\
  method spin() { var i = 0; while (i < 6000) { i = i + 1; } return i; }\n\
  method op() throws ConnectException { return \"ok\"; }\n\
  method run() {\n\
    while (true) {\n\
      try { return this.op(); } catch (ConnectException e) { log(\"retrying\"); }\n\
    }\n\
  }\n\
  test tFlaky() { this.spin(); assert(this.run() == \"ok\"); }\n\
}\n\
class Solid {\n\
  field maxAttempts = 4;\n\
  method spin() { var i = 0; while (i < 6000) { i = i + 1; } return i; }\n\
  method fetch() throws SocketException { return \"ok\"; }\n\
  method run() {\n\
    for (var retry = 0; retry < this.maxAttempts; retry = retry + 1) {\n\
      try { return this.fetch(); } catch (SocketException e) { sleep(25); }\n\
    }\n\
    throw new SocketException(\"giving up\");\n\
  }\n\
  test tSolid() { this.spin(); assert(this.run() == \"ok\"); }\n\
}\n";

    fn campaign_runs(project: &Project) -> Vec<InjectionRun> {
        campaign_runs_at(project, &[1, 100])
    }

    fn campaign_runs_at(project: &Project, ks: &[u32]) -> Vec<InjectionRun> {
        let index = ProjectIndex::build(project);
        let locations: Vec<_> = all_retry_locations(&index, &LoopQueryOptions::default())
            .into_iter()
            .flat_map(|(_, locations)| locations)
            .collect();
        let run_options = RunOptions::default();
        let profile = profile_coverage(project, &locations, &run_options);
        let all_sites: BTreeSet<_> = locations.iter().map(|l| l.site).collect();
        let test_plan = plan(&profile, &all_sites);
        expand_plan(&test_plan, &locations, ks)
    }

    fn render(records: &[RunRecord]) -> Vec<String> {
        records.iter().map(|r| format!("{r:?}")).collect()
    }

    /// Fast-backoff options so retry-heavy tests don't sleep.
    fn fast_retry(attempts: u32) -> Policy {
        Policy {
            attempts,
            base: Duration::ZERO,
            ..Policy::ENGINE
        }
    }

    #[test]
    fn records_are_identical_across_job_counts() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        assert!(runs.len() >= 4, "expected >= 4 runs, got {}", runs.len());

        let baseline = run_campaign(
            &project,
            &runs,
            &CampaignOptions::default(),
            &mut NullObserver,
        );
        for jobs in [2, 4, 8] {
            let parallel = run_campaign(
                &project,
                &runs,
                &CampaignOptions {
                    jobs,
                    ..CampaignOptions::default()
                },
                &mut NullObserver,
            );
            assert_eq!(
                render(&baseline.records),
                render(&parallel.records),
                "records diverge at jobs={jobs}"
            );
            assert_eq!(parallel.stats.completed, baseline.stats.completed);
            assert_eq!(parallel.stats.failed, baseline.stats.failed);
            assert_eq!(parallel.stats.reports, baseline.stats.reports);
            assert_eq!(parallel.stats.virtual_ms, baseline.stats.virtual_ms);
        }
    }

    #[test]
    fn records_come_back_in_key_order_even_from_shuffled_input() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let mut runs = campaign_runs(&project);
        runs.reverse();
        let result = run_campaign(
            &project,
            &runs,
            &CampaignOptions {
                jobs: 4,
                ..CampaignOptions::default()
            },
            &mut NullObserver,
        );
        let keys: Vec<RunKey> = result.records.iter().map(|r| r.key.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "records must be in key order");
    }

    #[test]
    fn zero_budget_times_every_run_out_identically() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        let options = CampaignOptions {
            run_budget: Some(Duration::ZERO),
            retry: fast_retry(3),
            ..CampaignOptions::default()
        };
        let serial = run_campaign(&project, &runs, &options, &mut NullObserver);
        assert_eq!(serial.stats.timed_out, runs.len());
        assert_eq!(serial.stats.reports, 0, "timed-out runs are not judged");
        assert_eq!(
            serial.stats.quarantined,
            runs.len(),
            "exhausted timed-out runs are quarantined"
        );
        assert_eq!(serial.stats.retried, runs.len() * 2, "3 attempts per run");
        let parallel = run_campaign(
            &project,
            &runs,
            &CampaignOptions { jobs: 8, ..options },
            &mut NullObserver,
        );
        assert_eq!(
            render(&serial.records),
            render(&parallel.records),
            "timed-out runs must be reported identically regardless of worker"
        );
        for record in &serial.records {
            assert_eq!(record.outcome, RunOutcome::TimedOut);
            assert_eq!((record.virtual_ms, record.steps, record.injections), (0, 0, 0));
            assert_eq!(record.attempts, 3);
            assert!(record.quarantined);
        }
    }

    #[test]
    fn empty_campaign_finishes_cleanly() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let result = run_campaign(
            &project,
            &[],
            &CampaignOptions {
                jobs: 4,
                ..CampaignOptions::default()
            },
            &mut NullObserver,
        );
        assert!(result.records.is_empty());
        assert_eq!(result.stats.runs_total, 0);
    }

    #[test]
    fn observer_sees_every_run_start_and_finish() {
        #[derive(Default)]
        struct Recorder {
            started: Vec<usize>,
            finished: Vec<usize>,
            campaign_started: usize,
            campaign_finished: usize,
        }
        impl EngineObserver for Recorder {
            fn on_event(&mut self, event: &EngineEvent<'_>) {
                match event {
                    EngineEvent::Started { .. } => self.campaign_started += 1,
                    EngineEvent::RunStarted { index, .. } => self.started.push(*index),
                    EngineEvent::RunFinished { index, .. } => self.finished.push(*index),
                    EngineEvent::Finished { .. } => self.campaign_finished += 1,
                    _ => {}
                }
            }
        }
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        // Enough runs that eight workers contend for the cursor.
        let ks: Vec<u32> = (1..=24).collect();
        let runs = campaign_runs_at(&project, &ks);
        assert!(runs.len() >= 32, "expected >= 32 runs, got {}", runs.len());
        let every_index: Vec<usize> = (0..runs.len()).collect();
        for jobs in [1, 3, 8] {
            let mut recorder = Recorder::default();
            let result = run_campaign(
                &project,
                &runs,
                &CampaignOptions {
                    jobs,
                    ..CampaignOptions::default()
                },
                &mut recorder,
            );
            assert_eq!(recorder.campaign_started, 1);
            assert_eq!(recorder.campaign_finished, 1);
            if jobs == 1 {
                assert_eq!(recorder.started, every_index, "one worker starts runs in key order");
            }
            let (mut started, mut finished) = (recorder.started, recorder.finished);
            started.sort_unstable();
            finished.sort_unstable();
            assert_eq!(started, every_index, "every run starts exactly once at jobs={jobs}");
            assert_eq!(finished, every_index, "every run finishes exactly once at jobs={jobs}");
            assert_eq!(
                result.stats.worker_runs.iter().sum::<usize>(),
                runs.len(),
                "worker utilization accounts for every run at jobs={jobs}"
            );
        }
    }

    // ---- Resilience: chaos self-tests --------------------------------------

    /// The chaos matrix of the resilience acceptance criteria: campaigns
    /// with injected panics must complete, report every key exactly once,
    /// and produce byte-identical records across panic rates and worker
    /// counts.
    #[test]
    fn chaos_panics_are_contained_and_deterministic_across_jobs() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        let expected_keys: Vec<RunKey> = {
            let mut keys: Vec<RunKey> = runs.iter().map(InjectionRun::key).collect();
            keys.sort();
            keys
        };
        for panic_rate in [0.1, 0.5, 1.0] {
            let options = |jobs: usize| CampaignOptions {
                jobs,
                retry: fast_retry(2),
                chaos: Some(ChaosConfig::panics(panic_rate, 0xC0FFEE)),
                ..CampaignOptions::default()
            };
            let baseline = run_campaign(&project, &runs, &options(1), &mut NullObserver);
            let keys: Vec<RunKey> = baseline.records.iter().map(|r| r.key.clone()).collect();
            assert_eq!(keys, expected_keys, "every planned key exactly once");
            if panic_rate >= 1.0 {
                assert_eq!(
                    baseline.stats.crashed,
                    runs.len(),
                    "rate 1.0 crashes every run"
                );
                assert_eq!(baseline.stats.quarantined, runs.len());
            }
            for record in &baseline.records {
                if let RunOutcome::Crashed { message } = &record.outcome {
                    assert!(message.starts_with("chaos: injected panic"));
                    assert!(record.quarantined, "exhausted crashes are quarantined");
                    assert_eq!(
                        (record.virtual_ms, record.steps, record.injections),
                        (0, 0, 0),
                        "crashed runs have zeroed measurements"
                    );
                }
            }
            for jobs in [2, 8] {
                let parallel = run_campaign(&project, &runs, &options(jobs), &mut NullObserver);
                assert_eq!(
                    render(&baseline.records),
                    render(&parallel.records),
                    "chaos campaign diverged at panic_rate={panic_rate} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn retry_policy_recovers_single_attempt_panics() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        // Rate 1.0 on attempt 1 only: chaos draws are per-attempt, so with
        // enough attempts every run eventually gets a panic-free draw.
        // A rate this high needs a couple of retries; 1.0 would never
        // recover, and the matrix test covers that case.
        let options = CampaignOptions {
            jobs: 4,
            retry: fast_retry(8),
            chaos: Some(ChaosConfig::panics(0.5, 7)),
            ..CampaignOptions::default()
        };
        let result = run_campaign(&project, &runs, &options, &mut NullObserver);
        assert!(
            result.stats.retried > 0,
            "a 50% panic rate must trigger retries"
        );
        assert_eq!(
            result.stats.crashed, 0,
            "8 attempts recover every 50%-rate run: {:?}",
            result
                .records
                .iter()
                .map(|r| (&r.outcome, r.attempts))
                .collect::<Vec<_>>()
        );
        assert_eq!(result.stats.quarantined, 0);
        // Recovered runs judge identically to a chaos-free campaign.
        let clean = run_campaign(
            &project,
            &runs,
            &CampaignOptions::default(),
            &mut NullObserver,
        );
        assert_eq!(result.stats.reports, clean.stats.reports);
        assert_eq!(result.stats.failed, clean.stats.failed);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = Policy::ENGINE;
        let runs_key = RunKey {
            test: wasabi_lang::project::MethodId::new("C", "t"),
            site: wasabi_lang::project::CallSite {
                file: wasabi_lang::project::FileId(0),
                call: wasabi_lang::ast::CallId(1),
            },
            exception: "E".to_string(),
            k: 1,
        };
        let d1 = retry_delay(&policy, &runs_key, 1);
        let d2 = retry_delay(&policy, &runs_key, 2);
        assert_eq!(d1, retry_delay(&policy, &runs_key, 1), "jitter is seeded");
        // Equal jitter keeps each delay in [d/2, d).
        assert!(d1 >= policy.base / 2 && d1 < policy.base);
        assert!(d2 >= policy.base, "attempt 2 backs off further");
        // A huge attempt number stays under the cap.
        let capped = retry_delay(&policy, &runs_key, 40);
        assert!(capped < policy.cap);
        // Zero base delay disables sleeping regardless of attempt.
        let zero = Policy {
            base: Duration::ZERO,
            ..Policy::ENGINE
        };
        assert_eq!(retry_delay(&zero, &runs_key, 3), Duration::ZERO);
    }

    #[test]
    fn resume_skips_completed_runs_and_merges_identically() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        let full = run_campaign(
            &project,
            &runs,
            &CampaignOptions::default(),
            &mut NullObserver,
        );
        // Resume from the first half of the records.
        let half = full.records.len() / 2;
        let resumed = run_campaign(
            &project,
            &runs,
            &CampaignOptions {
                jobs: 4,
                resume: full.records[..half].to_vec(),
                ..CampaignOptions::default()
            },
            &mut NullObserver,
        );
        assert_eq!(resumed.stats.resumed, half);
        assert_eq!(
            resumed.stats.worker_runs.iter().sum::<usize>(),
            runs.len() - half,
            "resume executes strictly fewer runs than the full plan"
        );
        assert_eq!(
            render(&full.records),
            render(&resumed.records),
            "resumed campaign must merge to identical records"
        );
    }
}
