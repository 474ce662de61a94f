//! Simulated time.
//!
//! The simulator counts CPU cycles of the 4 GHz host cores (Table 2 of the
//! paper). All other clock domains (the 2 GHz CXL directory, DDR5 timing,
//! link serialization) are converted into CPU cycles at configuration time.
//!
//! Every contended resource (a DRAM bank and its activate window, a DRAM
//! channel's data bus, a CXL link direction and its migration window)
//! waits and reserves through one [`Timeline`].

/// A point in simulated time, measured in CPU cycles since simulation start.
pub type Cycle = u64;

/// Host core clock frequency in GHz (Table 2: 4 GHz out-of-order cores).
pub const CPU_GHZ: f64 = 4.0;

/// Converts nanoseconds of wall time into CPU cycles (rounding up).
///
/// # Example
///
/// ```
/// use pipm_types::cycles_from_ns;
/// assert_eq!(cycles_from_ns(50.0), 200); // 50 ns CXL link @ 4 GHz
/// ```
pub fn cycles_from_ns(ns: f64) -> Cycle {
    (ns * CPU_GHZ).ceil() as Cycle
}

/// Converts CPU cycles back into nanoseconds.
///
/// # Example
///
/// ```
/// use pipm_types::ns_from_cycles;
/// assert!((ns_from_cycles(200) - 50.0).abs() < 1e-9);
/// ```
pub fn ns_from_cycles(cycles: Cycle) -> f64 {
    cycles as f64 / CPU_GHZ
}

/// Whether [`Timeline`] asserts that its horizon never moves backwards
/// (`debug_assertions` builds, or the `check-invariants` feature in
/// release).
const CHECK_MONOTONIC: bool = cfg!(any(debug_assertions, feature = "check-invariants"));

/// When a contended resource is next free: the one reservation primitive
/// of the timing model.
///
/// Today a timeline is a single busy-until horizon. A reservation waits
/// until the horizon has passed, then holds the resource until some later
/// cycle. The horizon is exact only when reservations are made in
/// timestamp order: one made later but stamped earlier waits behind every
/// earlier-made reservation, even where the resource is idle at its own
/// arrival (`tests::later_made_earlier_stamped_waits`).
///
/// The horizon only moves forward; under `debug_assertions` or the
/// `check-invariants` feature a backward [`hold_until`](Self::hold_until)
/// panics.
///
/// # Example
///
/// ```
/// use pipm_types::Timeline;
///
/// let mut bus = Timeline::default();
/// assert_eq!(bus.reserve(10, 8), 10); // idle: starts on arrival
/// assert_eq!(bus.reserve(12, 8), 18); // queues behind the first burst
/// assert_eq!(bus.free_at(0), 26);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    horizon: Cycle,
}

impl Timeline {
    /// A timeline whose resource is held until `t` (an idle one is
    /// `Timeline::default()`, held until cycle 0).
    pub const fn held_until(t: Cycle) -> Timeline {
        Timeline { horizon: t }
    }

    /// The first cycle at or after `now` at which the resource is free.
    #[inline]
    pub fn free_at(self, now: Cycle) -> Cycle {
        now.max(self.horizon)
    }

    /// Holds the resource until `t`.
    ///
    /// # Panics
    ///
    /// With invariant checks on, panics if `t` precedes the current
    /// horizon.
    #[inline]
    pub fn hold_until(&mut self, t: Cycle) {
        if CHECK_MONOTONIC {
            assert!(
                t >= self.horizon,
                "timeline moved backwards: {} -> {t}",
                self.horizon
            );
        }
        self.horizon = t;
    }

    /// Waits for the resource from `now`, then holds it for `cycles`.
    /// Returns the start cycle; the wait is `start - now`.
    #[inline]
    pub fn reserve(&mut self, now: Cycle, cycles: Cycle) -> Cycle {
        let start = self.free_at(now);
        self.hold_until(start + cycles);
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip() {
        for ns in [0.25, 1.0, 12.5, 50.0, 100.0] {
            let c = cycles_from_ns(ns);
            assert!((ns_from_cycles(c) - ns).abs() < 0.25, "ns={ns} c={c}");
        }
    }

    #[test]
    fn rounds_up() {
        // 0.1 ns is less than one 4 GHz cycle but must not vanish.
        assert_eq!(cycles_from_ns(0.1), 1);
        assert_eq!(cycles_from_ns(0.0), 0);
    }

    /// Characterizes the single-horizon order dependence: a reservation
    /// made later with an earlier stamp waits behind one made earlier
    /// with a later stamp, although the resource is idle at its arrival.
    /// ROADMAP item 1 flips this (the later-made reservation should start
    /// on arrival, in the idle gap before the earlier-made one).
    #[test]
    fn later_made_earlier_stamped_waits() {
        let mut t = Timeline::default();
        assert_eq!(t.reserve(1_000, 10), 1_000);
        assert_eq!(t.reserve(0, 10), 1_010);
    }

    /// Test profiles keep debug_assertions on, so the monotonic check
    /// must be live here even without the `check-invariants` feature.
    #[test]
    #[should_panic(expected = "timeline moved backwards")]
    fn invariant_checks_active_in_test_builds() {
        let mut t = Timeline::held_until(100);
        t.hold_until(99);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The timeline reproduces the hand-written busy-until arithmetic
        /// (`start = now.max(horizon)`, then `horizon = start + hold`) over
        /// random reservation sequences, whether made in one `reserve` or
        /// as `free_at` then `hold_until`, and its horizon never moves
        /// backwards.
        #[test]
        fn prop_matches_busy_until_arithmetic(
            seq in proptest::collection::vec((0u64..10_000, 0u64..1_000, proptest::bool::ANY), 1..300)
        ) {
            let mut t = Timeline::default();
            let mut horizon: Cycle = 0;
            for (now, hold, split) in seq {
                let before = t.free_at(0);
                let start = now.max(horizon);
                horizon = start + hold;
                if split {
                    prop_assert_eq!(t.free_at(now), start);
                    t.hold_until(start + hold);
                } else {
                    prop_assert_eq!(t.reserve(now, hold), start);
                }
                prop_assert_eq!(t.free_at(0), horizon);
                prop_assert!(t.free_at(0) >= before, "horizon moved backwards");
            }
        }
    }
}
