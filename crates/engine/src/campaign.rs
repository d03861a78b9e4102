//! Campaign execution: a fixed-size worker pool that claims runs in key
//! order from one shared cursor, with per-run panic containment,
//! checkpoint/resume, and a deterministic merge of results.
//!
//! # Determinism contract
//!
//! The engine guarantees that [`CampaignResult::records`] is a pure
//! function of `(project, runs, options)` — independent of `jobs`, of how
//! the OS schedules the workers, and of whether the campaign ran in one
//! piece or was resumed from a journal:
//!
//! - runs execute in **isolated interpreters**: each run constructs its
//!   own `Interp` (own virtual clock, config store, trace buffer) and its
//!   own `InjectionHandler`, so no state crosses runs;
//! - results land in **key-addressed slots**: the engine orders runs by
//!   [`RunKey`] up front, workers claim the pending slots in that order
//!   from one shared cursor, and each worker writes its record into the
//!   slot for that key, so the merged vector has the same order no matter
//!   which worker finished first;
//! - **every run ends**: the interpreter's fuel and virtual-time limits
//!   ([`wasabi_vm::RunLimits`]) bound a stuck run deterministically;
//! - **panicking runs are contained**: each run executes under
//!   [`std::panic::catch_unwind`] (`contain_run`), and a panic becomes
//!   exactly one [`RunOutcome::Crashed`] record with zeroed measurements
//!   instead of poisoning the worker pool. The panic still prints: the
//!   interpreter is deterministic, so a panic is a bug in it, and running
//!   the run again would only repeat it.
//!
//! A panic *outside* per-run containment is an engine bug, not a run
//! outcome: it propagates out of the worker pool and ends the process.
//! Recovering from a dead process is the shard supervisor's job
//! ([`crate::shard`]), which restarts the child from its journal — the
//! engine's one retry layer.
//!
//! Scheduling-dependent observations (per-worker run counts, wall time,
//! resumed-run count) are confined to [`CampaignStats::worker_runs`] /
//! [`CampaignStats::wall_ms`] / [`CampaignStats::resumed`] and the
//! observer event stream; nothing in `records` derives from them.

use crate::journal::Journal;
use crate::metrics::RunTiming;
use crate::observer::{EngineEvent, EngineObserver};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;
use wasabi_inject::InjectionHandler;
use wasabi_lang::project::Project;
use wasabi_oracles::judge::{judge_run, judge_run_timed, OracleReport};
use wasabi_planner::plan::{InjectionRun, RunKey};
use wasabi_util::{saturating_ms, saturating_us};
use wasabi_vm::runner::{run_test, RunOptions};
use wasabi_vm::trace::TestOutcome;

/// Options for one campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker count. `1` executes serially through the same code path as
    /// any other value (one worker thread).
    pub jobs: usize,
    /// Per-run interpreter options (limits, pinned configs).
    pub run_options: RunOptions,
    /// Chaos crash point for the shard supervisor's tests and CI stage:
    /// the whole *process* exits (code 86) once this many records have
    /// been appended to the journal, so a child dies mid-flight at a
    /// deterministic, journal-aligned spot. Count-based, not time-based,
    /// so recovery is byte-reproducible. `None` in production campaigns.
    pub chaos_exit_after: Option<u64>,
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
            chaos_exit_after: None,
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
    /// The interpreter ran the test to an outcome (the interpreter's own
    /// fuel and virtual-time limits included).
    Completed(TestOutcome),
    /// The run panicked; the panic was contained and the partial run
    /// discarded (all measurements zeroed).
    Crashed {
        /// The panic payload, if it was a string.
        message: String,
    },
}

/// The merged result of one injection run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run's identity; records are sorted by this key.
    pub key: RunKey,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Oracle findings (empty for crashed runs, which are not judged).
    pub reports: Vec<OracleReport>,
    /// The run crashed by re-throwing the injected exception (correct
    /// give-up behaviour, filtered by the different-exception oracle).
    pub rethrow_filtered: bool,
    /// The injected exception escaped without any retry (the location was
    /// not actually a retry trigger).
    pub not_a_trigger: bool,
    /// Virtual milliseconds the run consumed (0 if crashed).
    pub virtual_ms: u64,
    /// Interpreter steps the run consumed (0 if crashed).
    pub steps: u64,
    /// Faults injected during the run (0 if crashed).
    pub injections: u32,
}

/// Aggregate campaign statistics.
///
/// All fields except `worker_runs`, `resumed`, and `wall_ms` are
/// deterministic given the same runs and options.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Total runs reported (executed + resumed).
    pub runs_total: usize,
    /// Runs that completed (the test reached an outcome).
    pub completed: usize,
    /// Completed runs that did not pass.
    pub failed: usize,
    /// Runs that panicked (contained as [`RunOutcome::Crashed`]). The
    /// report counts them as quarantined too.
    pub crashed: usize,
    /// Always 0: the engine runs each run once. It stays until the
    /// benchmark stops reading it as `engine.retried` (ROADMAP item 3).
    pub retried: usize,
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
    /// Total interpreter steps across completed runs (crashed runs
    /// record zero).
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

impl CampaignStats {
    /// Folds one record into the deterministic half of the stats. Every
    /// field it touches is a commutative sum or count, so folding records
    /// as they land (execution order) equals a key-order fold.
    pub fn absorb(&mut self, record: &RunRecord) {
        match &record.outcome {
            RunOutcome::Crashed { .. } => self.crashed += 1,
            RunOutcome::Completed(outcome) => {
                self.completed += 1;
                if !outcome.is_pass() {
                    self.failed += 1;
                }
            }
        }
        self.rethrow_filtered += usize::from(record.rethrow_filtered);
        self.not_a_trigger += usize::from(record.not_a_trigger);
        self.reports += record.reports.len();
        self.injections += u64::from(record.injections);
        self.virtual_ms += record.virtual_ms;
        self.steps += record.steps;
    }
}

/// A finished campaign: records in [`RunKey`] order plus statistics.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One record per input run, sorted by key.
    pub records: Vec<RunRecord>,
    /// Aggregate statistics.
    pub stats: CampaignStats,
}

/// What a worker sends back to the coordinator.
enum Message {
    Started {
        slot: usize,
        worker: usize,
        key: RunKey,
    },
    Finished {
        slot: usize,
        worker: usize,
        record: RunRecord,
        timing: RunTiming,
    },
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
            det_stats.absorb(record);
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
                            if let Some(limit) = options.chaos_exit_after {
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
                        det_stats.absorb(&record);
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
        if sender
            .send(Message::Started {
                slot,
                worker,
                key: run.key(),
            })
            .is_err()
        {
            return;
        }
        let (record, mut timing) = execute_run(project, run, options);
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

/// Executes one run in a fresh, fully isolated interpreter under
/// [`contain_run`] and judges it.
fn execute_run(
    project: &Project,
    run: &InjectionRun,
    options: &CampaignOptions,
) -> (RunRecord, RunTiming) {
    let run_started = options.capture_timing.then(Instant::now);
    let mut timing = RunTiming::default();
    let record = contain_run(run, || judged_run(project, run, options, &mut timing));
    if let Some(started) = run_started {
        timing.run_wall_us = saturating_us(started.elapsed());
    }
    (record, timing)
}

/// Runs `execute` under `catch_unwind`. A panic becomes one
/// [`RunOutcome::Crashed`] record for `run` whose message is the panic
/// payload and whose measurements are zero: where the panic landed says
/// nothing about the run, so nothing from the partial run may reach the
/// report. Per-run isolation makes the unwind safe — the broken
/// interpreter, handler and trace die with it. (A panicking run's
/// interpreter time is lost to the timing breakdown; `run_wall_us` still
/// covers it.)
fn contain_run(run: &InjectionRun, execute: impl FnOnce() -> RunRecord) -> RunRecord {
    panic::catch_unwind(AssertUnwindSafe(execute)).unwrap_or_else(|payload| RunRecord {
        key: run.key(),
        outcome: RunOutcome::Crashed {
            message: panic_message(payload),
        },
        reports: Vec::new(),
        rethrow_filtered: false,
        not_a_trigger: false,
        virtual_ms: 0,
        steps: 0,
        injections: 0,
    })
}

/// Executes one run in a fresh, fully isolated interpreter and judges it.
fn judged_run(
    project: &Project,
    run: &InjectionRun,
    options: &CampaignOptions,
    timing: &mut RunTiming,
) -> RunRecord {
    let mut handler = InjectionHandler::single(run.spec.location.clone(), run.spec.k);
    let test_run = run_test(project, &run.test, &mut handler, &options.run_options);
    timing.interp_us = test_run.wall_us;
    let verdict = if options.capture_timing {
        let (verdict, judge_elapsed) = judge_run_timed(&test_run, &run.spec);
        timing.judge_us = saturating_us(judge_elapsed);
        verdict
    } else {
        judge_run(&test_run, &run.spec)
    };
    RunRecord {
        key: run.key(),
        outcome: RunOutcome::Completed(test_run.outcome.clone()),
        reports: verdict.reports,
        rethrow_filtered: verdict.rethrow_filtered,
        not_a_trigger: verdict.not_a_trigger,
        virtual_ms: test_run.virtual_ms,
        steps: test_run.steps,
        injections: handler.total_injected(),
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

    /// A run that panics becomes exactly one `Crashed` record carrying
    /// the panic payload, with nothing judged and every measurement zero;
    /// a run that does not panic passes through untouched.
    #[test]
    fn a_panicking_run_is_one_crashed_record_with_zeroed_measurements() {
        let project = Project::compile("t", vec![("t.jav", SOURCE)]).expect("compile");
        let runs = campaign_runs(&project);
        let run = &runs[0];
        let crashed = |message: &str| RunOutcome::Crashed {
            message: message.to_string(),
        };
        for (record, message) in [
            (
                contain_run(run, || panic!("interpreter bug at step {}", 7)),
                "interpreter bug at step 7",
            ),
            (
                contain_run(run, || panic!("static payload")),
                "static payload",
            ),
            (
                contain_run(run, || panic::panic_any(7u32)),
                "non-string panic payload",
            ),
        ] {
            assert_eq!(record.key, run.key());
            assert_eq!(record.outcome, crashed(message));
            assert!(record.reports.is_empty(), "a crashed run is not judged");
            assert!(!record.rethrow_filtered && !record.not_a_trigger);
            assert_eq!(
                (record.virtual_ms, record.steps, record.injections),
                (0, 0, 0)
            );
        }

        let options = CampaignOptions::default();
        let direct = judged_run(&project, run, &options, &mut RunTiming::default());
        let contained = contain_run(run, || {
            judged_run(&project, run, &options, &mut RunTiming::default())
        });
        assert!(matches!(direct.outcome, RunOutcome::Completed(_)));
        assert_eq!(format!("{direct:?}"), format!("{contained:?}"));
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
