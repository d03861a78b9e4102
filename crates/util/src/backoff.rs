//! Capped exponential backoff with equal jitter — the one retry policy
//! the whole workspace speaks.
//!
//! Two callers retry with it: the shard supervisor (crashed shard child
//! processes) and the submit client (daemon backpressure). The campaign
//! engine does not retry a run: its interpreter is deterministic, so a
//! run that panicked would panic again. Each caller keeps only its own
//! *jitter-stream* derivation (each keys the stream differently, and
//! those streams are pinned by `tests/backoff_schedules.rs`) and passes
//! the result to [`Policy::delay`], so the math — with its guards against
//! extreme `retry`/`multiplier` values, which could otherwise feed a
//! negative or NaN duration into `Duration::from_secs_f64` and panic —
//! exists once.
//!
//! The schedule: `base * multiplier^(retry-1)`, capped, then drawn
//! uniformly from `[d/2, d)` — *equal jitter* — using a [`Rng`] stream
//! seeded by the caller. Deterministic in `(stream_seed, retry)` by
//! construction.

use crate::Rng;
use std::time::Duration;

/// A bounded, capped, jittered retry policy: the paper's *HOW* rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Total attempts, including the first (1 disables retries; callers
    /// treat 0 as 1).
    pub attempts: u32,
    /// Backoff before the first retry. Zero disables sleeping entirely.
    pub base: Duration,
    /// Exponential growth factor per further retry.
    pub multiplier: f64,
    /// Upper bound on the un-jittered delay.
    pub cap: Duration,
    /// Seed the caller mixes into its jitter stream.
    pub jitter_seed: u64,
}

impl Policy {
    /// Shard supervisor: a crashed shard child gets 16 restarts (17
    /// attempts), 25 ms doubling to a 1 s cap.
    pub const SUPERVISOR: Policy = Policy {
        attempts: 17,
        base: Duration::from_millis(25),
        multiplier: 2.0,
        cap: Duration::from_secs(1),
        jitter_seed: 0x0053_4841_5244, // "SHARD"
    };

    /// Submit client: one attempt unless `--retry-attempts` raises it,
    /// 50 ms doubling to a 2 s cap.
    pub const SUBMIT: Policy = Policy {
        attempts: 1,
        base: Duration::from_millis(50),
        multiplier: 2.0,
        cap: Duration::from_secs(2),
        jitter_seed: 0x5355_424D_4954, // "SUBMIT"
    };

    /// The delay before retry number `retry` (1-based): capped
    /// exponential with equal jitter drawn from a [`Rng`] seeded with
    /// `stream_seed` (the caller derives it from [`Policy::jitter_seed`]).
    ///
    /// Total guards, in evaluation order, so no input can panic
    /// [`Duration::from_secs_f64`]:
    ///
    /// - zero `base` returns [`Duration::ZERO`] immediately (backoff
    ///   disabled);
    /// - the exponent is clamped to `i32::MAX` before the `u32 → i32` cast
    ///   (an unclamped cast wraps huge retry counts to *negative*
    ///   exponents);
    /// - `f64::min` against the cap absorbs `+inf` overflow and NaN
    ///   (Rust's `min` returns the other operand when one side is NaN);
    /// - `.max(0.0)` absorbs negative products (e.g. a negative multiplier
    ///   at an odd exponent).
    ///
    /// The jittered result is strictly below `cap` whenever `cap > 0`.
    pub fn delay(&self, retry: u32, stream_seed: u64) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let exponent = retry.saturating_sub(1).min(i32::MAX as u32) as i32;
        let raw = self.base.as_secs_f64() * self.multiplier.powi(exponent);
        let capped = raw.min(self.cap.as_secs_f64()).max(0.0);
        let mut rng = Rng::new(stream_seed);
        Duration::from_secs_f64(capped * 0.5 * (1.0 + rng.unit()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0x00BA_C0FF;

    #[test]
    fn schedule_is_deterministic_capped_and_equal_jittered() {
        let policy = Policy::SUBMIT;
        for retry in 1..=8u32 {
            let a = policy.delay(retry, SEED ^ u64::from(retry));
            let b = policy.delay(retry, SEED ^ u64::from(retry));
            assert_eq!(a, b, "same seed, same delay");
            let capped = (0.05 * 2.0f64.powi(retry as i32 - 1)).min(2.0);
            let secs = a.as_secs_f64();
            assert!(
                secs >= capped * 0.5 && secs < capped,
                "retry {retry}: {secs}s outside equal-jitter window of {capped}s"
            );
        }
        // Deep retries pin to the cap's jitter window, not the raw curve.
        assert!(policy.delay(30, SEED) < policy.cap);
    }

    #[test]
    fn zero_base_disables_backoff() {
        let policy = Policy {
            base: Duration::ZERO,
            ..Policy::SUBMIT
        };
        for retry in [0, 7, u32::MAX] {
            assert_eq!(policy.delay(retry, SEED), Duration::ZERO);
        }
    }

    #[test]
    fn extreme_inputs_never_panic_and_stay_below_cap() {
        // Regression: an old copy cast the exponent `u32 as i32` without a
        // clamp and skipped the non-negative guard, so retry counts past
        // i32::MAX wrapped negative and hostile multipliers drove
        // `Duration::from_secs_f64` into its panic cases.
        let multipliers = [
            0.0,
            0.1,
            0.5,
            1.0,
            2.0,
            1e308,
            -2.0,
            -3.0,
            f64::NAN,
            f64::INFINITY,
        ];
        for retry in [0, 1, u32::MAX - 1, u32::MAX] {
            for multiplier in multipliers {
                let policy = Policy {
                    multiplier,
                    ..Policy::SUPERVISOR
                };
                let d = policy.delay(retry, SEED);
                assert!(
                    d <= policy.cap,
                    "retry {retry} x{multiplier}: {d:?} above cap"
                );
            }
        }
    }
}
