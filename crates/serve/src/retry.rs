//! Client-side submit retry: bounded attempts, exponential backoff,
//! deterministic jitter.
//!
//! The daemon refuses work for two very different reasons, and the paper's
//! central WHEN question — *should* this error be retried? — applies to
//! our own client too:
//!
//! - **Rejections** (`"ok":false` with a `"rejected"` field) are
//!   backpressure: a full queue, or a draining daemon. The condition is
//!   transient by construction, so retrying with backoff is correct.
//! - **Errors** (`"ok":false` with an `"error"` field) are protocol or
//!   input failures: malformed frames, oversized frames, bad fields.
//!   Retrying cannot help and only re-sends the same doomed bytes.
//!
//! Connect failures sit with rejections (the daemon may be restarting).
//! The schedule is the workspace's one backoff [`Policy`]
//! ([`Policy::SUBMIT`] by default): exponential with a cap and *equal
//! jitter*, from a seeded stream, so tests can pin the exact schedule.

use std::time::Duration;
use wasabi_util::backoff::Policy;
use wasabi_util::rng::fnv1a64;

/// One attempt's verdict, as classified by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attempt<T> {
    /// The operation succeeded.
    Ok(T),
    /// A transient refusal (connect failure, `"rejected"` response):
    /// worth retrying after a backoff.
    Retryable(String),
    /// A permanent failure (`"error"` response): retrying re-sends the
    /// same doomed request, so stop immediately.
    Fatal(String),
}

/// The delay before retry number `retry` (1-based) under `policy`. Only
/// the jitter stream is ours: it is keyed on `(jitter_seed, retry)`.
pub fn backoff_delay(policy: &Policy, retry: u32) -> Duration {
    let seed = fnv1a64([
        &policy.jitter_seed.to_le_bytes()[..],
        &retry.to_le_bytes()[..],
    ]);
    policy.delay(retry, seed)
}

/// Drives `operation` up to `policy.attempts` times, sleeping the
/// jittered backoff between retryable failures via `sleep` (injectable so
/// tests never wall-block). Returns the success value, or the last
/// failure message once attempts are exhausted or a fatal verdict lands.
pub fn retry_submit<T>(
    policy: &Policy,
    mut operation: impl FnMut(u32) -> Attempt<T>,
    mut sleep: impl FnMut(Duration),
) -> Result<T, String> {
    let attempts = policy.attempts.max(1);
    let mut last = String::new();
    for attempt in 0..attempts {
        match operation(attempt) {
            Attempt::Ok(value) => return Ok(value),
            Attempt::Fatal(message) => return Err(message),
            Attempt::Retryable(message) => {
                last = message;
                if attempt + 1 < attempts {
                    sleep(backoff_delay(policy, attempt + 1));
                }
            }
        }
    }
    Err(format!("giving up after {attempts} attempt(s): {last}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(attempts: u32) -> Policy {
        Policy {
            attempts,
            ..Policy::SUBMIT
        }
    }

    #[test]
    fn retryable_failures_are_retried_with_bounded_attempts() {
        let mut slept = Vec::new();
        let mut calls = 0;
        let result: Result<u32, String> = retry_submit(
            &config(3),
            |_| {
                calls += 1;
                Attempt::Retryable("queue full".to_string())
            },
            |delay| slept.push(delay),
        );
        assert_eq!(calls, 3, "attempts bound the loop");
        assert_eq!(slept.len(), 2, "no sleep after the final failure");
        let message = result.expect_err("exhausted");
        assert!(message.contains("3 attempt(s)") && message.contains("queue full"));
    }

    #[test]
    fn success_and_fatal_verdicts_stop_immediately() {
        let mut calls = 0;
        let ok = retry_submit(
            &config(5),
            |attempt| {
                calls += 1;
                if attempt < 2 {
                    Attempt::Retryable("draining".to_string())
                } else {
                    Attempt::Ok(attempt)
                }
            },
            |_| {},
        );
        assert_eq!(ok, Ok(2));
        assert_eq!(calls, 3, "stops on the first success");

        calls = 0;
        let fatal: Result<u32, String> = retry_submit(
            &config(5),
            |_| {
                calls += 1;
                Attempt::Fatal("unknown op".to_string())
            },
            |_| panic!("fatal verdicts never sleep"),
        );
        assert_eq!(fatal, Err("unknown op".to_string()));
        assert_eq!(calls, 1, "fatal verdicts never retry");
    }
}
