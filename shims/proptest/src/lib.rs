//! Offline stand-in for the `proptest` crate.
//!
//! The build environment for this repository cannot reach crates.io, so
//! this crate vendors the small property-testing surface the workspace
//! uses: the [`proptest!`] macro, `prop_assert*` macros, integer-range /
//! tuple / `collection::vec` / `bool::ANY` strategies, and
//! [`test_runner::ProptestConfig::with_cases`].
//!
//! Differences from upstream, by design:
//!
//! * **Case 0 is always the minimal case** — every strategy's simplest
//!   value (the low end of ranges, `false` for booleans, the shortest
//!   vector of simplest elements). This subsumes the shrunken
//!   counterexamples recorded in `proptest-regressions/` (e.g.
//!   `writes = 1, evict_between = false` for
//!   `prop_revocation_restores_coherent_access`): the recorded minimal
//!   case is re-run unconditionally on every execution.
//! * Random cases are generated from a seed derived from the test's
//!   module path and name, so runs are fully deterministic and failures
//!   always reproduce.
//! * **Greedy shrinking**: when a case fails (via `prop_assert*` or a
//!   panic inside the property body), the runner repeatedly re-runs the
//!   property on [`strategy::Strategy::shrink`] candidates, keeping any candidate
//!   that still fails, until no candidate fails (or a step budget is
//!   exhausted). The panic message reports both the original failing case
//!   and the shrunken minimal input, which can be pinned as a regression
//!   test (see `proptest-regressions/`).

#![forbid(unsafe_code)]

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A source of test inputs: a simplest value plus random samples.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// The minimal ("shrunken") value — run as case 0 of every test.
        fn simplest(&self) -> Self::Value;

        /// A random value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Candidate simplifications of `v`, most aggressive first. An
        /// empty vector means `v` is already minimal. Used by the test
        /// runner's greedy shrink loop after a failing case.
        fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }
    }

    impl<S: Strategy> Strategy for &S {
        type Value = S::Value;
        fn simplest(&self) -> Self::Value {
            (**self).simplest()
        }
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
        fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
            (**self).shrink(v)
        }
    }

    /// Shrink candidates for an integer toward `lo`: the minimum itself,
    /// the midpoint, and the predecessor (aggressive first).
    fn shrink_uint(lo: u64, v: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if v > lo {
            out.push(lo);
            let mid = lo + (v - lo) / 2;
            if mid != lo && mid != v {
                out.push(mid);
            }
            if v - 1 != lo {
                out.push(v - 1);
            }
        }
        out
    }

    macro_rules! impl_strategy_uint_range {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn simplest(&self) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start
                }
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
                fn shrink(&self, v: &$t) -> Vec<$t> {
                    shrink_uint(self.start as u64, *v as u64)
                        .into_iter()
                        .map(|x| x as $t)
                        .collect()
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn simplest(&self) -> $t {
                    *self.start()
                }
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = (*self.end() - *self.start()) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    *self.start() + rng.below(span + 1) as $t
                }
                fn shrink(&self, v: &$t) -> Vec<$t> {
                    shrink_uint(*self.start() as u64, *v as u64)
                        .into_iter()
                        .map(|x| x as $t)
                        .collect()
                }
            }
        )*};
    }

    impl_strategy_uint_range!(u64, u32, u16, u8, usize);

    /// Tuple strategies: components are sampled left to right; shrinking
    /// simplifies one component at a time, leftmost first.
    macro_rules! impl_strategy_tuple {
        ($(($($S:ident . $idx:tt),+))*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+)
            where
                $($S::Value: Clone),+
            {
                type Value = ($($S::Value,)+);
                fn simplest(&self) -> Self::Value {
                    ($(self.$idx.simplest(),)+)
                }
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
                fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    $(
                        for cand in self.$idx.shrink(&v.$idx) {
                            let mut next = v.clone();
                            next.$idx = cand;
                            out.push(next);
                        }
                    )+
                    out
                }
            }
        )*};
    }

    impl_strategy_tuple! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    /// Strategy for `Vec`s of another strategy's values.
    pub struct VecStrategy<S> {
        pub(crate) elem: S,
        pub(crate) size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn simplest(&self) -> Self::Value {
            (0..self.size.start).map(|_| self.elem.simplest()).collect()
        }
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.clone().sample(rng);
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
        fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
            let min = self.size.start;
            let mut out = Vec::new();
            // Length reductions first (aggressive): halve, then remove each
            // single element in turn so a failing element can migrate to any
            // position before element-wise shrinking takes over.
            if v.len() > min {
                let half = min.max(v.len() / 2);
                if half < v.len() {
                    out.push(v[..half].to_vec());
                }
                for i in 0..v.len() {
                    let mut next = v.clone();
                    next.remove(i);
                    out.push(next);
                }
            }
            // Then element-wise simplification.
            for i in 0..v.len() {
                for cand in self.elem.shrink(&v[i]) {
                    let mut next = v.clone();
                    next[i] = cand;
                    out.push(next);
                }
            }
            out
        }
    }

    /// Marker strategy for uniformly random booleans (`bool::ANY`).
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn simplest(&self) -> bool {
            false
        }
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
        fn shrink(&self, v: &bool) -> Vec<bool> {
            if *v {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::{Strategy, VecStrategy};
    use std::ops::Range;

    /// A strategy producing `Vec`s of `elem` values with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { elem, size }
    }
}

pub mod bool {
    //! Boolean strategies.

    /// Uniformly random booleans. Case 0 generates `false`.
    pub const ANY: crate::strategy::BoolAny = crate::strategy::BoolAny;
}

pub mod test_runner {
    //! Test execution configuration and the deterministic RNG.

    /// Configuration for a `proptest!` block.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases to run per property (case 0 is the minimal
        /// case; the rest are random).
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A property-assertion failure (from `prop_assert!` and friends).
    #[derive(Clone, Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Creates a failure with the given message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Greedy shrink loop: starting from a failing input, repeatedly try
    /// the strategy's shrink candidates and keep any candidate that still
    /// fails, until a fixpoint (or the step budget runs out). Returns the
    /// minimal failing input, its failure, and the number of successful
    /// shrink steps taken. Used by the [`proptest!`](crate::proptest)
    /// macro; exposed for testing the shim itself.
    pub fn shrink_failure<S, F>(
        strategy: &S,
        mut value: S::Value,
        mut error: TestCaseError,
        run: F,
    ) -> (S::Value, TestCaseError, usize)
    where
        S: crate::strategy::Strategy,
        F: Fn(&S::Value) -> Result<(), TestCaseError>,
    {
        let mut steps = 0usize;
        let mut budget = 1_000usize;
        loop {
            let mut improved = false;
            for cand in strategy.shrink(&value) {
                if budget == 0 {
                    return (value, error, steps);
                }
                budget -= 1;
                if let Err(e) = run(&cand) {
                    value = cand;
                    error = e;
                    steps += 1;
                    improved = true;
                    break;
                }
            }
            if !improved {
                return (value, error, steps);
            }
        }
    }

    /// Identity helper that ties a property-runner closure's argument type
    /// to a strategy's value type (used by the `proptest!` macro so the
    /// closure can be defined before its first call).
    pub fn property_runner<S, F>(_strategy: &S, run: F) -> F
    where
        S: crate::strategy::Strategy,
        S::Value: Clone,
        F: Fn(&S::Value) -> Result<(), TestCaseError>,
    {
        run
    }

    /// Renders a caught panic payload as a failure message.
    pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "property body panicked".to_string()
        }
    }

    /// Deterministic per-test RNG (SplitMix64 seeded from the test name).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Builds the RNG for the named test; the same name always yields
        /// the same sequence.
        pub fn deterministic(test_name: &str) -> Self {
            // FNV-1a over the fully qualified test name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, span)` (widening multiply).
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            ((self.next_u64() as u128 * span as u128) >> 64) as u64
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests. See the crate docs for semantics (minimal
/// case first, deterministic random cases, greedy shrinking on failure).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $($(#[$meta:meta])* fn $name:ident(
        $($arg:pat in $strat:expr),+ $(,)?
    ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                // All argument strategies combine into one tuple strategy
                // so the shrink loop can simplify any component.
                let __strats = ( $( &($strat), )+ );
                let __run = $crate::test_runner::property_runner(&__strats, |__vals| {
                    let ( $($arg,)+ ) = ::std::clone::Clone::clone(__vals);
                    let __result = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| -> ::std::result::Result<
                            (),
                            $crate::test_runner::TestCaseError,
                        > {
                            $body
                            ::std::result::Result::Ok(())
                        }),
                    );
                    match __result {
                        ::std::result::Result::Ok(r) => r,
                        ::std::result::Result::Err(p) => ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::fail(
                                $crate::test_runner::panic_message(p),
                            ),
                        ),
                    }
                });
                for __case in 0..__config.cases {
                    let __vals = if __case == 0 {
                        $crate::strategy::Strategy::simplest(&__strats)
                    } else {
                        $crate::strategy::Strategy::sample(&__strats, &mut __rng)
                    };
                    if let ::std::result::Result::Err(__e) = __run(&__vals) {
                        let (__min, __min_e, __steps) = $crate::test_runner::shrink_failure(
                            &__strats,
                            __vals,
                            __e,
                            &__run,
                        );
                        ::std::panic!(
                            "property {} failed at case {}/{}: {}\n\
                             minimal failing input after {} shrink steps: {:?}",
                            stringify!($name),
                            __case,
                            __config.cases,
                            __min_e,
                            __steps,
                            __min
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{} ({:?} vs {:?})", format!($($fmt)+), l, r);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{} (both {:?})", format!($($fmt)+), l);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn simplest_values_are_minimal() {
        assert_eq!((3u64..10).simplest(), 3);
        assert_eq!((1usize..8).simplest(), 1);
        assert!(!crate::bool::ANY.simplest());
        let v = crate::collection::vec(0u32..5, 2..9).simplest();
        assert_eq!(v, vec![0, 0]);
        assert_eq!(((1u64..4), crate::strategy::BoolAny).simplest(), (1, false));
    }

    #[test]
    fn samples_respect_bounds() {
        let mut rng = TestRng::deterministic("samples_respect_bounds");
        for _ in 0..10_000 {
            let x = (5u64..9).sample(&mut rng);
            assert!((5..9).contains(&x));
            let v = crate::collection::vec(0u32..4, 1..6).sample(&mut rng);
            assert!((1..6).contains(&v.len()));
            assert!(v.iter().all(|&e| e < 4));
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        let sa: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The macro itself works end to end, including tuples and vecs.
        #[test]
        fn macro_end_to_end(
            (a, b) in (0u32..10, 1u64..5),
            flips in crate::collection::vec(crate::bool::ANY, 1..20)
        ) {
            prop_assert!(a < 10);
            prop_assert!((1..5).contains(&b));
            prop_assert!(!flips.is_empty());
            prop_assert_eq!(a as u64 + b, b + a as u64);
            prop_assert_ne!(b, 0);
        }
    }

    #[test]
    fn shrink_reaches_boundary() {
        // A predicate failing for x >= 17 must shrink to exactly 17.
        let strat = 0u64..1000;
        let run = |v: &u64| {
            if *v >= 17 {
                Err(crate::test_runner::TestCaseError::fail("too big"))
            } else {
                Ok(())
            }
        };
        let first_failure = 903u64; // arbitrary failing start point
        let (min, _, steps) = crate::test_runner::shrink_failure(
            &strat,
            first_failure,
            crate::test_runner::TestCaseError::fail("too big"),
            run,
        );
        assert_eq!(min, 17);
        assert!(steps > 0);
    }

    #[test]
    fn shrink_vec_reaches_minimal_length() {
        // A predicate failing when the vec contains any element >= 3 must
        // shrink to a single-element vector [3].
        let strat = crate::collection::vec(0u32..100, 1..50);
        let run = |v: &Vec<u32>| {
            if v.iter().any(|&e| e >= 3) {
                Err(crate::test_runner::TestCaseError::fail("has big elem"))
            } else {
                Ok(())
            }
        };
        let (min, _, _) = crate::test_runner::shrink_failure(
            &strat,
            vec![1, 40, 2, 99, 7],
            crate::test_runner::TestCaseError::fail("has big elem"),
            run,
        );
        assert_eq!(min, vec![3]);
    }

    #[test]
    fn tuple_shrink_simplifies_each_component() {
        use crate::strategy::Strategy;
        let strat = (1u64..100, crate::bool::ANY);
        let cands = strat.shrink(&(50, true));
        assert!(cands.contains(&(1, true)), "{cands:?}");
        assert!(cands.contains(&(50, false)), "{cands:?}");
    }

    #[test]
    #[should_panic(expected = "minimal failing input after")]
    fn panics_inside_properties_are_shrunk() {
        // A plain assert! (panic, not prop_assert) must still be caught
        // and shrunk; the final report names the minimal input.
        crate::proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn inner(x in 0u64..100) {
                assert!(x < 3, "boom at {x}");
            }
        }
        inner();
    }

    #[test]
    #[should_panic(expected = "failed at case 0")]
    fn minimal_case_runs_first() {
        // A property that only fails on the minimal input must be caught
        // at case 0.
        crate::proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn inner(x in 0u64..100) {
                prop_assert!(x != 0, "minimal value reached");
            }
        }
        inner();
    }
}
