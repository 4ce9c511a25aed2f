//! Simulation time: integer-nanosecond [`Instant`] and [`Duration`].
//!
//! All timing in the workspace — OFDM symbol boundaries, bus transfer times,
//! layer processing delays — is expressed in these two types. Using integer
//! nanoseconds (rather than `f64` seconds) keeps event ordering exact: two
//! slot boundaries computed through different arithmetic paths compare equal
//! when they are equal.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A span of simulated time, in whole nanoseconds.
///
/// Nanosecond resolution is fine enough for every quantity in the paper:
/// the shortest OFDM symbol in FR2 (numerology 6) lasts ≈ 1.1 µs and USB
/// transfer quanta are ≥ 125 µs frames / 125 ns microframe granularity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    nanos: u64,
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration { nanos: 0 };

    /// Largest representable duration (used as an "infinite" sentinel for
    /// deadlines that never expire).
    pub const MAX: Duration = Duration { nanos: u64::MAX };

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Duration {
        Duration { nanos }
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Duration {
        Duration { nanos: micros * 1_000 }
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Duration {
        Duration { nanos: millis * 1_000_000 }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Duration {
        Duration { nanos: secs * 1_000_000_000 }
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest nanosecond. Intended for distribution samples and calibration
    /// constants that originate as floating-point measurements (Table 2 of
    /// the paper is given in µs with two decimals).
    ///
    /// Negative or non-finite inputs saturate to zero: a sampled service
    /// time can never be negative.
    pub fn from_micros_f64(micros: f64) -> Duration {
        if !micros.is_finite() || micros <= 0.0 {
            return Duration::ZERO;
        }
        Duration { nanos: (micros * 1_000.0).round() as u64 }
    }

    /// Whole nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// This duration in microseconds, as a float (for statistics/plots).
    pub fn as_micros_f64(self) -> f64 {
        self.nanos as f64 / 1_000.0
    }

    /// `true` when the duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.nanos == 0
    }

    /// Checked subtraction; `None` on underflow.
    pub const fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        match self.nanos.checked_sub(rhs.nanos) {
            Some(n) => Some(Duration { nanos: n }),
            None => None,
        }
    }

    /// Saturating subtraction: clamps at [`Duration::ZERO`].
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration { nanos: self.nanos.saturating_sub(rhs.nanos) }
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: Duration) -> Option<Duration> {
        match self.nanos.checked_add(rhs.nanos) {
            Some(n) => Some(Duration { nanos: n }),
            None => None,
        }
    }

    /// Saturating addition: clamps at [`Duration::MAX`]. Use in scheduler
    /// and backoff paths where an "infinite" deadline sentinel plus a
    /// backoff step must stay infinite instead of aborting the sweep.
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration { nanos: self.nanos.saturating_add(rhs.nanos) }
    }

    /// Checked scalar multiplication; `None` on overflow.
    pub const fn checked_mul(self, rhs: u64) -> Option<Duration> {
        match self.nanos.checked_mul(rhs) {
            Some(n) => Some(Duration { nanos: n }),
            None => None,
        }
    }

    /// Saturating scalar multiplication: clamps at [`Duration::MAX`].
    /// Exponential backoff doublings under long grant-withholding faults
    /// land here rather than on the panicking `Mul` impl.
    pub const fn saturating_mul(self, rhs: u64) -> Duration {
        Duration { nanos: self.nanos.saturating_mul(rhs) }
    }

    /// Returns the larger of `self` and `other`.
    pub(crate) fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of `self` and `other`.
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration { nanos: self.nanos.checked_add(rhs.nanos).expect("Duration overflow") }
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration { nanos: self.nanos.checked_sub(rhs.nanos).expect("Duration underflow") }
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration { nanos: self.nanos.checked_mul(rhs).expect("Duration overflow") }
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration { nanos: self.nanos / rhs }
    }
}

impl Div<Duration> for Duration {
    /// How many whole `rhs` fit in `self` (integer division, e.g. "slots per
    /// pattern").
    type Output = u64;
    fn div(self, rhs: Duration) -> u64 {
        self.nanos / rhs.nanos
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    fn rem(self, rhs: Duration) -> Duration {
        Duration { nanos: self.nanos % rhs.nanos }
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Duration {
    /// Human-readable rendering with an automatically chosen unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.nanos;
        if n == 0 {
            write!(f, "0ns")
        } else if n.is_multiple_of(1_000_000) {
            write!(f, "{}ms", n / 1_000_000)
        } else if n >= 1_000_000 {
            write!(f, "{:.3}ms", n as f64 / 1_000_000.0)
        } else if n.is_multiple_of(1_000) {
            write!(f, "{}us", n / 1_000)
        } else if n >= 1_000 {
            write!(f, "{:.3}us", n as f64 / 1_000.0)
        } else {
            write!(f, "{n}ns")
        }
    }
}

/// A point in simulated time, measured in nanoseconds since the start of
/// the simulation (time zero).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant {
    nanos: u64,
}

impl Instant {
    /// The simulation epoch, time zero.
    pub const ZERO: Instant = Instant { nanos: 0 };

    /// Creates an instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Instant {
        Instant { nanos }
    }

    /// Creates an instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Instant {
        Instant { nanos: micros * 1_000 }
    }

    /// Creates an instant `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Instant {
        Instant { nanos: millis * 1_000_000 }
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Microseconds since the epoch, as a float (for plots).
    pub fn as_micros_f64(self) -> f64 {
        self.nanos as f64 / 1_000.0
    }

    /// Elapsed time since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; elapsed time in a causal
    /// event trace is never negative, so this indicates a logic error.
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration::from_nanos(
            self.nanos
                .checked_sub(earlier.nanos)
                .expect("duration_since: earlier instant is later than self"),
        )
    }

    /// Elapsed time since `earlier`, or `None` if `earlier > self`.
    pub fn checked_duration_since(self, earlier: Instant) -> Option<Duration> {
        self.nanos.checked_sub(earlier.nanos).map(Duration::from_nanos)
    }

    /// The next multiple of `period` at or after this instant.
    ///
    /// This is the fundamental "wait for the next slot boundary" operation
    /// used throughout the protocol model: a packet arriving mid-slot is
    /// served at `arrival.ceil_to(slot_duration)`.
    pub fn ceil_to(self, period: Duration) -> Instant {
        assert!(!period.is_zero(), "ceil_to: zero period");
        let p = period.as_nanos();
        let rem = self.nanos % p;
        if rem == 0 {
            self
        } else {
            Instant { nanos: self.nanos - rem + p }
        }
    }

    /// The largest multiple of `period` at or before this instant.
    pub fn floor_to(self, period: Duration) -> Instant {
        assert!(!period.is_zero(), "floor_to: zero period");
        Instant { nanos: self.nanos - self.nanos % period.as_nanos() }
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: Duration) -> Option<Instant> {
        match self.nanos.checked_add(rhs.as_nanos()) {
            Some(n) => Some(Instant { nanos: n }),
            None => None,
        }
    }

    /// Saturating addition: clamps at the far future instead of panicking.
    /// Scheduler horizons and retry deadlines computed from near-`MAX`
    /// sentinels stay ordered (`MAX` compares after everything real).
    pub const fn saturating_add(self, rhs: Duration) -> Instant {
        Instant { nanos: self.nanos.saturating_add(rhs.as_nanos()) }
    }

    /// Saturating subtraction: clamps at the epoch ([`Instant::ZERO`]).
    pub const fn saturating_sub(self, rhs: Duration) -> Instant {
        Instant { nanos: self.nanos.saturating_sub(rhs.as_nanos()) }
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant { nanos: self.nanos.checked_add(rhs.as_nanos()).expect("Instant overflow") }
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant { nanos: self.nanos.checked_sub(rhs.as_nanos()).expect("Instant underflow") }
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration::from_nanos(self.nanos))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
    }

    #[test]
    fn duration_from_micros_f64_rounds() {
        assert_eq!(Duration::from_micros_f64(4.65).as_nanos(), 4_650);
        assert_eq!(Duration::from_micros_f64(0.0004), Duration::ZERO.max(Duration::from_nanos(0)));
        assert_eq!(Duration::from_micros_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_micros_f64(f64::NAN), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_micros(250);
        let b = Duration::from_micros(100);
        assert_eq!(a + b, Duration::from_micros(350));
        assert_eq!(a - b, Duration::from_micros(150));
        assert_eq!(a * 4, Duration::from_millis(1));
        assert_eq!(a / 2, Duration::from_micros(125));
        assert_eq!(Duration::from_millis(2) / Duration::from_micros(500), 4);
        assert_eq!(
            Duration::from_micros(700) % Duration::from_micros(500),
            Duration::from_micros(200)
        );
    }

    #[test]
    fn duration_saturating_sub_clamps() {
        let a = Duration::from_micros(1);
        let b = Duration::from_micros(2);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(b.saturating_sub(a), Duration::from_micros(1));
        assert_eq!(a.checked_sub(b), None);
    }

    #[test]
    #[should_panic(expected = "Duration underflow")]
    fn duration_sub_underflow_panics() {
        let _ = Duration::from_nanos(1) - Duration::from_nanos(2);
    }

    #[test]
    fn checked_and_saturating_ops_clamp() {
        assert_eq!(Duration::MAX.checked_add(Duration::from_nanos(1)), None);
        assert_eq!(Duration::MAX.saturating_add(Duration::from_nanos(1)), Duration::MAX);
        assert_eq!(Duration::MAX.checked_mul(2), None);
        assert_eq!(Duration::MAX.saturating_mul(2), Duration::MAX);
        assert_eq!(Duration::from_micros(3).saturating_mul(4), Duration::from_micros(12));
        assert_eq!(
            Duration::from_micros(1).checked_add(Duration::from_micros(2)),
            Some(Duration::from_micros(3))
        );
        let far = Instant::from_nanos(u64::MAX);
        assert_eq!(far.checked_add(Duration::from_nanos(1)), None);
        assert_eq!(far.saturating_add(Duration::from_nanos(1)), far);
        assert_eq!(Instant::ZERO.saturating_sub(Duration::from_nanos(1)), Instant::ZERO);
        assert_eq!(
            Instant::from_micros(1).saturating_add(Duration::from_micros(2)),
            Instant::from_micros(3)
        );
    }

    #[test]
    fn instant_ceil_floor() {
        let slot = Duration::from_micros(500);
        assert_eq!(Instant::from_micros(0).ceil_to(slot), Instant::from_micros(0));
        assert_eq!(Instant::from_micros(1).ceil_to(slot), Instant::from_micros(500));
        assert_eq!(Instant::from_micros(500).ceil_to(slot), Instant::from_micros(500));
        assert_eq!(Instant::from_micros(501).ceil_to(slot), Instant::from_micros(1_000));
        assert_eq!(Instant::from_micros(999).floor_to(slot), Instant::from_micros(500));
        assert_eq!(Instant::from_micros(1_000).floor_to(slot), Instant::from_micros(1_000));
    }

    #[test]
    fn instant_duration_roundtrip() {
        let t0 = Instant::from_micros(100);
        let d = Duration::from_micros(400);
        let t1 = t0 + d;
        assert_eq!(t1.duration_since(t0), d);
        assert_eq!(t1 - t0, d);
        assert_eq!(t0.checked_duration_since(t1), None);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Duration::from_millis(2).to_string(), "2ms");
        assert_eq!(Duration::from_micros(250).to_string(), "250us");
        assert_eq!(Duration::from_nanos(17).to_string(), "17ns");
        assert_eq!(Duration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(Duration::ZERO.to_string(), "0ns");
    }

    #[test]
    fn min_max() {
        let a = Duration::from_micros(1);
        let b = Duration::from_micros(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
