//! Shard supervisor and merge edge cases, driven through scripted
//! [`ShardRunner`]s (no child processes) and hand-written journals:
//! backoff determinism, restart-cap exhaustion, bisection convergence on
//! one and two poison runs, and merge semantics over completion-ordered
//! journals (gaps, duplicates, off-plan keys).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

use wasabi_engine::campaign::{RunOutcome, RunRecord};
use wasabi_engine::journal::Journal;
use wasabi_engine::shard::{
    partition, restart_delay, supervise_shard, ShardExit, ShardMerge, ShardRunner,
};
use wasabi_lang::ast::CallId;
use wasabi_lang::project::{CallSite, FileId, MethodId};
use wasabi_planner::plan::RunKey;
use wasabi_util::backoff::Policy;
use wasabi_vm::trace::TestOutcome;

fn key(k: u32) -> RunKey {
    RunKey {
        test: MethodId { class: "ShardTests".to_string(), name: "t000".to_string() },
        site: CallSite { file: FileId(0), call: CallId(0) },
        exception: "IOException".to_string(),
        k,
    }
}

fn record(k: u32, virtual_ms: u64) -> RunRecord {
    RunRecord {
        key: key(k),
        outcome: RunOutcome::Completed(TestOutcome::Passed),
        reports: Vec::new(),
        rethrow_filtered: false,
        not_a_trigger: false,
        virtual_ms,
        steps: 10,
        injections: 1,
    }
}

fn temp_journal(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("wasabi-shard-merge-test-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn write_journal(name: &str, records: &[RunRecord]) -> PathBuf {
    let path = temp_journal(name);
    let mut journal = Journal::open(&path).expect("open journal");
    for record in records {
        journal.append(record);
    }
    journal.finish();
    path
}

// ---- partition ---------------------------------------------------------

#[test]
fn partition_covers_the_range_with_balanced_contiguous_slices() {
    for (total, shards) in [(0, 4), (1, 4), (7, 3), (88, 4), (5, 8)] {
        let ranges = partition(total, shards);
        assert_eq!(ranges.len(), shards);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges[shards - 1].1, total);
        for window in ranges.windows(2) {
            assert_eq!(window[0].1, window[1].0, "ranges must be contiguous");
        }
        let sizes: Vec<usize> = ranges.iter().map(|(a, b)| b - a).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "sizes differ by more than one: {sizes:?}");
    }
}

// ---- backoff -----------------------------------------------------------

#[test]
fn backoff_schedule_is_deterministic_jittered_and_capped() {
    let policy = Policy::SUPERVISOR;
    for restart in 1..=20u32 {
        let a = restart_delay(&policy, 3, restart);
        let b = restart_delay(&policy, 3, restart);
        assert_eq!(a, b, "same (shard, restart) must give the same delay");
        let raw = policy.base.as_secs_f64() * policy.multiplier.powi(restart as i32 - 1);
        let capped = raw.min(policy.cap.as_secs_f64());
        let secs = a.as_secs_f64();
        assert!(
            secs >= capped * 0.5 && secs < capped,
            "restart {restart}: delay {secs} outside equal-jitter window [{}, {})",
            capped * 0.5,
            capped
        );
    }
    // Different shards draw from different jitter streams.
    assert_ne!(restart_delay(&policy, 0, 5), restart_delay(&policy, 1, 5));
    // A zero base disables backoff entirely.
    let instant = Policy { base: Duration::ZERO, ..Policy::SUPERVISOR };
    assert_eq!(restart_delay(&instant, 0, 3), Duration::ZERO);
}

// ---- scripted supervisor runs -----------------------------------------

/// A scripted child: executes the remaining runs of its segment in index
/// order, completing each until it hits a poison index (then "crashes"),
/// and optionally crashes spuriously the first `flaky_crashes` times it is
/// spawned after making progress.
struct ScriptedRunner {
    poison: BTreeSet<usize>,
    flaky_crashes: u32,
    spawns: u32,
    completed: BTreeSet<usize>,
    executed: Vec<usize>,
    sleeps: Vec<Duration>,
    /// Crash after completing this many runs per spawn (for flaky mode).
    crash_after: usize,
}

impl ScriptedRunner {
    fn new(poison: impl IntoIterator<Item = usize>) -> ScriptedRunner {
        ScriptedRunner {
            poison: poison.into_iter().collect(),
            flaky_crashes: 0,
            spawns: 0,
            completed: BTreeSet::new(),
            executed: Vec::new(),
            sleeps: Vec::new(),
            crash_after: 2,
        }
    }
}

impl ShardRunner for ScriptedRunner {
    fn run(&mut self, _shard: usize, segment: (usize, usize), _restart: u32) -> ShardExit {
        self.spawns += 1;
        let flaky = self.flaky_crashes > 0;
        if flaky {
            self.flaky_crashes -= 1;
        }
        let mut done_this_spawn = 0;
        for index in segment.0..segment.1 {
            if self.completed.contains(&index) {
                continue;
            }
            if self.poison.contains(&index) {
                return ShardExit::Crashed { status: "exit code 86".to_string() };
            }
            if flaky && done_this_spawn >= self.crash_after {
                return ShardExit::Crashed { status: "signal 9".to_string() };
            }
            self.executed.push(index);
            self.completed.insert(index);
            done_this_spawn += 1;
        }
        ShardExit::Clean
    }

    fn completed(&mut self, _shard: usize) -> Result<Vec<usize>, String> {
        Ok(self.completed.iter().copied().collect())
    }

    fn sleep(&mut self, delay: Duration) {
        self.sleeps.push(delay);
    }
}

#[test]
fn uneventful_shard_completes_without_restarts_or_sleeps() {
    let policy = Policy::SUPERVISOR;
    let mut runner = ScriptedRunner::new([]);
    let report = supervise_shard(&policy, 0, (0, 10), &mut runner).expect("supervise");
    assert_eq!(report.restarts, 0);
    assert!(report.dead.is_empty());
    assert!(runner.sleeps.is_empty());
    assert_eq!(runner.executed, (0..10).collect::<Vec<_>>());
}

#[test]
fn crash_with_progress_restarts_with_policy_backoff_and_never_reruns_completed_runs() {
    let policy = Policy::SUPERVISOR;
    let mut runner = ScriptedRunner::new([]);
    runner.flaky_crashes = 3;
    let report = supervise_shard(&policy, 2, (0, 12), &mut runner).expect("supervise");
    assert_eq!(report.restarts, 3);
    assert!(report.dead.is_empty());
    // Every run executed exactly once — the journal contract.
    assert_eq!(runner.executed, (0..12).collect::<Vec<_>>());
    // The sleep schedule is exactly the policy's backoff sequence.
    let expected: Vec<Duration> = (1..=3).map(|r| restart_delay(&policy, 2, r)).collect();
    assert_eq!(runner.sleeps, expected);
}

#[test]
fn single_poison_run_is_bisected_out_and_the_rest_completes() {
    let policy = Policy { base: Duration::ZERO, ..Policy::SUPERVISOR };
    let mut runner = ScriptedRunner::new([5]);
    let report = supervise_shard(&policy, 0, (0, 16), &mut runner).expect("supervise");
    assert_eq!(report.dead.len(), 1, "exactly the poison run is lost: {:?}", report.dead);
    assert_eq!(report.dead[0].index, 5);
    assert_eq!(report.dead[0].reason, "bisected");
    assert_eq!(report.dead[0].exit, "exit code 86");
    let mut done = runner.executed.clone();
    done.sort_unstable();
    let expected: Vec<usize> = (0..16).filter(|i| *i != 5).collect();
    assert_eq!(done, expected, "every healthy run still completes exactly once");
    // Bisection is logarithmic in the remaining span, not linear.
    assert!(
        report.restarts <= 6,
        "isolating one poison run in 16 took {} restarts",
        report.restarts
    );
}

#[test]
fn two_poison_runs_are_both_bisected_out() {
    let policy = Policy { base: Duration::ZERO, ..Policy::SUPERVISOR };
    let mut runner = ScriptedRunner::new([2, 6]);
    let report = supervise_shard(&policy, 1, (0, 8), &mut runner).expect("supervise");
    let mut dead: Vec<usize> = report.dead.iter().map(|d| d.index).collect();
    dead.sort_unstable();
    assert_eq!(dead, vec![2, 6]);
    assert!(report.dead.iter().all(|d| d.reason == "bisected"));
    let mut done = runner.executed.clone();
    done.sort_unstable();
    let expected: Vec<usize> = (0..8).filter(|i| *i != 2 && *i != 6).collect();
    assert_eq!(done, expected);
}

#[test]
fn restart_cap_exhaustion_dead_letters_everything_remaining() {
    // Three attempts: the first spawn plus two restarts.
    let policy = Policy {
        attempts: 3,
        base: Duration::ZERO,
        ..Policy::SUPERVISOR
    };
    // Poison at the very first index: no spawn ever makes progress.
    let mut runner = ScriptedRunner::new([0]);
    let report = supervise_shard(&policy, 0, (0, 8), &mut runner).expect("supervise");
    assert_eq!(report.restarts, 2);
    let mut dead: Vec<usize> = report.dead.iter().map(|d| d.index).collect();
    dead.sort_unstable();
    // Everything the shard never completed is quarantined, wholesale.
    let completed: BTreeSet<usize> = runner.completed.iter().copied().collect();
    let expected: Vec<usize> = (0..8).filter(|i| !completed.contains(i)).collect();
    assert_eq!(dead, expected);
    assert!(!expected.is_empty());
    assert!(report
        .dead
        .iter()
        .any(|d| d.reason == "restart cap exhausted"));
}

// ---- merge over completion-ordered journals ----------------------------

#[test]
fn merge_serves_plan_order_from_completion_ordered_journals() {
    // Journals append in completion order — deliberately scrambled here.
    let a = write_journal("scramble-a", &[record(7, 1), record(1, 1), record(5, 1)]);
    let b = write_journal("scramble-b", &[record(6, 1), record(2, 1), record(4, 1), record(3, 1)]);
    let mut merge = ShardMerge::open(&[a, b]).expect("open");
    for k in 1..=7u32 {
        let got = merge.take(&key(k)).expect("take").expect("record present");
        assert_eq!(got.key, key(k));
    }
    assert_eq!(merge.finish().expect("finish"), 0);
}

#[test]
fn missing_journal_is_empty_and_unjournaled_keys_are_gaps() {
    let a = write_journal("gap-a", &[record(1, 1)]);
    let missing = temp_journal("gap-missing");
    let mut merge = ShardMerge::open(&[a, missing]).expect("open");
    assert!(merge.take(&key(1)).expect("take").is_some());
    assert!(merge.take(&key(2)).expect("take").is_none(), "gap must surface as None");
    merge.finish().expect("finish");
}

#[test]
fn cross_shard_exact_duplicates_merge_silently() {
    // Overlapping shard ranges journaled the same deterministic record.
    let a = write_journal("dup-a", &[record(1, 1), record(2, 1)]);
    let b = write_journal("dup-b", &[record(2, 1), record(3, 1)]);
    let mut merge = ShardMerge::open(&[a, b]).expect("open");
    for k in 1..=3u32 {
        assert!(merge.take(&key(k)).expect("take").is_some());
    }
    assert_eq!(merge.finish().expect("finish"), 0);
}

#[test]
fn cross_shard_divergent_duplicates_are_an_error() {
    let a = write_journal("div-a", &[record(1, 1)]);
    let b = write_journal("div-b", &[record(1, 999)]);
    let mut merge = ShardMerge::open(&[a, b]).expect("open");
    let err = merge.take(&key(1)).expect_err("divergent duplicate must fail");
    assert!(err.contains("divergent duplicate"), "unexpected error: {err}");
}

#[test]
fn duplicate_key_within_one_journal_fails_at_open() {
    let a = write_journal("selfdup-a", &[record(1, 1), record(1, 1)]);
    let err = match ShardMerge::open(&[a]) {
        Err(err) => err,
        Ok(_) => panic!("in-journal duplicate must fail"),
    };
    assert!(err.contains("duplicate record"), "unexpected error: {err}");
}

#[test]
fn keys_beyond_the_plan_fail_at_finish() {
    let a = write_journal("extra-a", &[record(1, 1), record(9, 1)]);
    let mut merge = ShardMerge::open(&[a]).expect("open");
    assert!(merge.take(&key(1)).expect("take").is_some());
    let err = merge.finish().expect_err("leftover key must fail");
    assert!(err.contains("beyond the plan"), "unexpected error: {err}");
}
