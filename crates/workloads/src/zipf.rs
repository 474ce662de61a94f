//! Zipfian rank sampler (YCSB-style), used by the database workloads.

use rand::Rng;

/// Bound on the global `(n, theta) → zeta(n)` memo. Each entry is a few
/// words; the bound only has to stop unbounded growth in long-running
/// daemons while keeping every realistic sweep fully cached.
const ZETA_CACHE_CAPACITY: usize = 64;

#[derive(Clone, Copy, Debug)]
struct ZetaEntry {
    key: (u64, u64),
    value: f64,
    last_used: u64,
}

#[derive(Default, Debug)]
struct ZetaCache {
    tick: u64,
    entries: Vec<ZetaEntry>,
}

/// Samples ranks `0..n` with Zipfian skew `theta` using the standard
/// Gray et al. method (the same algorithm as YCSB's `ZipfianGenerator`),
/// with the harmonic number computed exactly at construction.
///
/// Ranks are *not* scrambled here; callers hash the rank to scatter hot
/// items across the address space.
#[derive(Clone, Debug)]
pub(crate) struct Zipfian {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^theta`, hoisted out of [`Self::sample`] (one `powf` plus
    /// an add per draw otherwise — a measurable cost in the trace
    /// generators, where this is the rank-1 early-out threshold).
    one_plus_half_pow_theta: f64,
}

impl Zipfian {
    /// Creates a sampler over `0..n` with skew `theta` (0 < theta < 1;
    /// YCSB's default is 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf domain must be nonempty");
        assert!((0.0..1.0).contains(&theta) && theta > 0.0, "theta in (0,1)");
        let zetan = Self::zetan_cached(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            alpha,
            zetan,
            eta,
            one_plus_half_pow_theta: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Memoized [`Self::zeta`]. The harmonic sum costs up to 2^20 `powf`
    /// calls, and every per-core stream of a database workload constructs a
    /// sampler with the same `(n, theta)` — recomputing it dominated short
    /// simulations. The cache returns bit-identical values, so sampling is
    /// unaffected. A racing double-compute stores the same value twice.
    ///
    /// The memo is bounded at [`ZETA_CACHE_CAPACITY`] entries with LRU
    /// eviction: long-running daemons (`pipm-serve`) see an open-ended
    /// stream of distinct `(n, theta)` keys from cfg overrides and sweeps,
    /// and an unbounded map would grow without limit.
    fn zetan_cached(n: u64, theta: f64) -> f64 {
        let key = (n, theta.to_bits());
        {
            let mut c = Self::zeta_cache().lock().unwrap();
            c.tick += 1;
            let tick = c.tick;
            if let Some(e) = c.entries.iter_mut().find(|e| e.key == key) {
                e.last_used = tick;
                return e.value;
            }
        }
        // Compute outside the lock; a racing thread may duplicate the work
        // but stores the identical value.
        let z = Self::zeta(n, theta);
        let mut c = Self::zeta_cache().lock().unwrap();
        c.tick += 1;
        let tick = c.tick;
        if let Some(e) = c.entries.iter_mut().find(|e| e.key == key) {
            e.last_used = tick;
        } else {
            if c.entries.len() >= ZETA_CACHE_CAPACITY {
                if let Some(idx) = c
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                {
                    c.entries.swap_remove(idx);
                }
            }
            c.entries.push(ZetaEntry {
                key,
                value: z,
                last_used: tick,
            });
        }
        z
    }

    fn zeta_cache() -> &'static std::sync::Mutex<ZetaCache> {
        static CACHE: std::sync::OnceLock<std::sync::Mutex<ZetaCache>> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| std::sync::Mutex::new(ZetaCache::default()))
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n, closed-form tail beyond a cutoff to keep
        // construction O(1M) at worst.
        const EXACT: u64 = 1 << 20;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            // Euler–Maclaurin for Σ_{i=EXACT+1}^{n} i^-θ. The plain
            // integral ∫_EXACT^n x^-θ dx over-approximates the decreasing
            // sum (each term i^-θ < ∫_{i-1}^{i} x^-θ dx), biasing zetan
            // high and making sampling probabilities jump as a domain
            // crosses the cutoff. Integrating over [EXACT+1, n] and adding
            // the trapezoidal and first-derivative boundary corrections
            // leaves an error of O(x^-θ-3) — far below f64 resolution here.
            let a = 1.0 - theta;
            let lo = (EXACT + 1) as f64;
            let hi = n as f64;
            let f_lo = lo.powf(-theta);
            let f_hi = hi.powf(-theta);
            sum += (hi.powf(a) - lo.powf(a)) / a;
            sum += 0.5 * (f_lo + f_hi);
            sum += (theta / 12.0) * (f_lo / lo - f_hi / hi);
        }
        sum
    }

    /// Draws a rank in `0..n`; rank 0 is the hottest.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.one_plus_half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipfian::new(100_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut head = 0u64;
        let total = 50_000;
        for _ in 0..total {
            if z.sample(&mut rng) < 1000 {
                head += 1;
            }
        }
        // Under theta=0.99, the top 1% of keys absorb well over a third of
        // accesses.
        assert!(head as f64 / total as f64 > 0.35, "head share {head}");
    }

    #[test]
    fn samples_cover_domain_bounds() {
        let z = Zipfian::new(1000, 0.8);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut max = 0;
        for _ in 0..100_000 {
            let s = z.sample(&mut rng);
            assert!(s < 1000);
            max = max.max(s);
        }
        assert!(max > 500, "tail must be reachable, saw max {max}");
    }

    #[test]
    fn lower_theta_is_less_skewed() {
        let hot_share = |theta: f64| {
            let z = Zipfian::new(100_000, theta);
            let mut rng = SmallRng::seed_from_u64(3);
            let mut head = 0;
            for _ in 0..20_000 {
                if z.sample(&mut rng) < 100 {
                    head += 1;
                }
            }
            head
        };
        assert!(hot_share(0.99) > hot_share(0.5));
    }

    #[test]
    fn large_domain_constructs_quickly() {
        // Exercises the integral approximation path.
        let z = Zipfian::new(1 << 26, 0.9);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < (1 << 26));
        }
    }

    #[test]
    #[should_panic]
    fn zero_domain_panics() {
        let _ = Zipfian::new(0, 0.9);
    }

    #[test]
    fn zeta_cache_is_bounded() {
        // Insert well past capacity with distinct (n, theta) keys; the
        // memo must evict rather than grow without bound (pipm-serve runs
        // indefinitely and sees an open-ended key stream).
        for i in 0..(2 * ZETA_CACHE_CAPACITY as u64) {
            let _ = Zipfian::new(1000 + i, 0.9);
        }
        let len = Zipfian::zeta_cache().lock().unwrap().entries.len();
        assert!(
            len <= ZETA_CACHE_CAPACITY,
            "zeta memo exceeded its bound: {len} > {ZETA_CACHE_CAPACITY}"
        );
        // Eviction must not corrupt cached values: a re-lookup after heavy
        // churn still matches a fresh computation bit for bit.
        let fresh = Zipfian::zeta(1234, 0.9);
        assert_eq!(Zipfian::zetan_cached(1234, 0.9), fresh);
        assert_eq!(Zipfian::zetan_cached(1234, 0.9), fresh);
    }

    #[test]
    fn zeta_tail_is_continuous_across_cutoff() {
        // The closed-form tail past 2^20 must agree with exact summation:
        // the uncorrected integral over-approximated the sum, so sampling
        // probabilities jumped when a footprint crossed the cutoff.
        const EXACT: u64 = 1 << 20;
        for theta in [0.5, 0.9, 0.99] {
            let checkpoints = [1u64, 2, 7, 64, 1000];
            let top = EXACT + checkpoints[checkpoints.len() - 1];
            let mut sum = 0.0;
            let mut at = Vec::new();
            for i in 1..=top {
                sum += 1.0 / (i as f64).powf(theta);
                if i >= EXACT && (i == EXACT || checkpoints.contains(&(i - EXACT))) {
                    at.push((i, sum));
                }
            }
            for (n, exact) in at {
                let approx = Zipfian::zeta(n, theta);
                let rel = ((approx - exact) / exact).abs();
                assert!(
                    rel < 1e-12,
                    "zeta({n}, {theta}) = {approx} vs exact {exact} (rel {rel:e})"
                );
            }
        }
    }
}
