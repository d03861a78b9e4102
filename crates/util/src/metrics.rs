//! Dep-free metrics core for the campaign observability layer.
//!
//! Two pieces:
//!
//! - saturating time conversions ([`saturating_ms`], [`saturating_us`]) —
//!   the single checked `Duration`/`u128` → `u64` path every exported
//!   timing goes through, so durations saturate at `u64::MAX` instead of
//!   silently wrapping (the old `as u64` casts wrapped).
//! - [`Clock`] — a monotonic microsecond source the span recorder reads
//!   through, with a [`ManualClock`] so tests produce byte-stable spans.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Converts a duration to whole milliseconds, saturating at `u64::MAX`.
///
/// `Duration::as_millis` returns `u128`; a bare `as u64` cast silently
/// wraps for durations over ~584 million years — absurd for a real clock
/// but entirely possible for a *corrupt or hostile* duration read back
/// from a file. Every exported timing in the workspace funnels through
/// here (or [`saturating_us`]) so the failure mode is a pinned maximum,
/// never a small wrapped number that looks plausible.
pub fn saturating_ms(duration: Duration) -> u64 {
    u64::try_from(duration.as_millis()).unwrap_or(u64::MAX)
}

/// Converts a duration to whole microseconds, saturating at `u64::MAX`.
pub fn saturating_us(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// A monotonic microsecond clock. The span recorder and metrics observer
/// read time only through this trait, so tests can substitute a
/// [`ManualClock`] and assert byte-stable trace output.
pub trait Clock {
    /// Microseconds elapsed since the clock's origin.
    fn now_us(&self) -> u64;
}

/// The production clock: microseconds since construction, via
/// [`Instant`].
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        saturating_us(self.origin.elapsed())
    }
}

/// A deterministic test clock: every reading advances it by a fixed step,
/// so successive timestamps are `step, 2*step, 3*step, …` regardless of
/// host speed.
#[derive(Debug)]
pub struct ManualClock {
    now: Cell<u64>,
    step: u64,
}

impl ManualClock {
    /// A clock starting at 0 advancing `step` microseconds per reading.
    pub fn with_step(step: u64) -> Self {
        ManualClock {
            now: Cell::new(0),
            step,
        }
    }

    /// Manually advances the clock.
    pub fn advance(&self, us: u64) {
        self.now.set(self.now.get().saturating_add(us));
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        let next = self.now.get().saturating_add(self.step);
        self.now.set(next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_conversions_pin_instead_of_wrapping() {
        assert_eq!(saturating_ms(Duration::from_millis(1234)), 1234);
        assert_eq!(saturating_us(Duration::from_micros(99)), 99);
        // u64::MAX ms would need a Duration of ~584My; Duration::MAX
        // overflows u64 in both units and must pin, not wrap.
        assert_eq!(saturating_ms(Duration::MAX), u64::MAX);
        assert_eq!(saturating_us(Duration::MAX), u64::MAX);
    }

    #[test]
    fn manual_clock_is_deterministic() {
        let clock = ManualClock::with_step(10);
        assert_eq!(clock.now_us(), 10);
        assert_eq!(clock.now_us(), 20);
        clock.advance(5);
        assert_eq!(clock.now_us(), 35);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.now_us();
        let b = clock.now_us();
        assert!(b >= a);
    }
}
