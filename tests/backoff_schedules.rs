//! The three retry loops of the workspace — campaign engine, shard
//! supervisor, submit client — share one `wasabi_util::backoff::Policy`
//! but each keys its own jitter stream. Their default schedules are
//! pinned here to the nanosecond: engine backoff feeds every run span's
//! `backoff_ms`, and any drift in a stream derivation or in the shared
//! delay math shows up as a changed table entry.

use std::time::Duration;
use wasabi::engine::campaign::retry_delay;
use wasabi::engine::shard::restart_delay;
use wasabi::lang::ast::CallId;
use wasabi::lang::project::{CallSite, FileId, MethodId};
use wasabi::planner::plan::RunKey;
use wasabi::serve::retry::backoff_delay;
use wasabi::util::backoff::Policy;

/// First six delays (retry 1..=6), in nanoseconds, per default policy.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 6]); 4] = [
    ("engine", [2_836_443, 8_842_301, 19_234_131, 21_556_242, 70_824_520, 73_152_756]),
    ("shard 0", [17_111_941, 48_316_499, 95_125_157, 106_376_213, 264_991_971, 789_171_714]),
    ("shard 1", [13_550_063, 40_175_249, 52_031_328, 188_690_052, 333_194_118, 764_980_962]),
    ("submit", [31_679_615, 85_691_446, 185_760_262, 201_682_642, 520_855_735, 809_203_996]),
];

fn nanos(delay: Duration) -> u64 {
    u64::try_from(delay.as_nanos()).expect("delay fits in u64 nanoseconds")
}

#[test]
fn default_backoff_schedules_are_pinned() {
    let key = RunKey {
        test: MethodId::new("RetryTest", "testFlaky"),
        site: CallSite {
            file: FileId(3),
            call: CallId(7),
        },
        exception: "ConnectException".to_string(),
        k: 100,
    };
    for (name, pinned) in PINNED {
        let computed: Vec<u64> = (1..=6u8)
            .map(|retry| {
                nanos(match name {
                    "engine" => retry_delay(&Policy::ENGINE, &key, retry),
                    "shard 0" => restart_delay(&Policy::SUPERVISOR, 0, u32::from(retry)),
                    "shard 1" => restart_delay(&Policy::SUPERVISOR, 1, u32::from(retry)),
                    _ => backoff_delay(&Policy::SUBMIT, u32::from(retry)),
                })
            })
            .collect();
        assert_eq!(computed, pinned, "{name} schedule drifted");
    }
}
