//! Hand-rolled significance testing for A/B performance claims.
//!
//! The benchmark runs on a shared 2-vCPU host whose run-to-run swings
//! reach ±15–50 %, so "the median moved" is not evidence by itself.
//! `report ab` gives every metric of an A/B comparison a p-value via a
//! **paired permutation (sign-flip) test** over run pairs:
//!
//! * Pair parent run i with change run i (the pair loop alternates
//!   which side runs first) and take the log-ratio `d_i = ln(b_i / a_i)`
//!   — pairing cancels host drift that hits both runs of a pair, and
//!   logs make the statistic the geomean ratio.
//! * Under the null hypothesis (no real difference) each pair's sign
//!   is exchangeable: `(a_i, b_i)` vs `(b_i, a_i)` is a coin flip. So
//!   the null distribution of the mean log-ratio is obtained by
//!   flipping signs — exactly (all `2^n` assignments) when `n` is
//!   small, otherwise by a seeded Monte Carlo sample so the p-value is
//!   deterministic and report output stays byte-identical.
//! * The two-sided p-value is the fraction of sign assignments whose
//!   |mean| reaches the observed |mean|.
//!
//! No distributional assumption (the noise is nothing like normal),
//! no lookup tables, std only.

use pipm_serve::bench::SplitMix64;

/// Significance threshold of [`PairedPermutation::significant`].
pub const SIGNIFICANCE_LEVEL: f64 = 0.05;

/// Pairs at or below this count are tested exactly (`2^n` ≤ ~1M sign
/// assignments); larger sets fall back to seeded Monte Carlo.
const EXACT_LIMIT: usize = 20;

/// Monte Carlo resamples for large pair sets. With add-one smoothing
/// the smallest reportable p is ~1e-4 — far below any threshold the
/// repo gates on.
const RESAMPLES: usize = 10_000;

/// Fixed Monte Carlo seed: the test must be a pure function of its
/// input pairs so regenerated reports are byte-identical.
const MC_SEED: u64 = 0x5ca1_ab1e_0000_0009;

/// Outcome of a paired permutation test.
#[derive(Clone, Copy, Debug)]
pub struct PairedPermutation {
    /// Geometric mean of `b_i / a_i` — the effect size.
    pub geomean_ratio: f64,
    /// Two-sided p-value of the mean log-ratio under sign flipping.
    pub p_value: f64,
    /// `"exact"` (all `2^n` assignments) or `"monte-carlo"`.
    pub method: &'static str,
}

impl PairedPermutation {
    /// Whether the difference is significant at [`SIGNIFICANCE_LEVEL`].
    pub fn significant(&self) -> bool {
        self.p_value < SIGNIFICANCE_LEVEL
    }
}

/// Runs the paired permutation test over `(a_i, b_i)` throughput pairs
/// (`a` = baseline, `b` = candidate). Returns `None` for an empty
/// input; non-positive values are clamped to `1e-12` before the log.
pub fn paired_permutation_test(pairs: &[(f64, f64)]) -> Option<PairedPermutation> {
    if pairs.is_empty() {
        return None;
    }
    let n = pairs.len();
    let diffs: Vec<f64> = pairs
        .iter()
        .map(|&(a, b)| (b.max(1e-12) / a.max(1e-12)).ln())
        .collect();
    let observed = diffs.iter().sum::<f64>() / n as f64;
    let geomean_ratio = observed.exp();
    // Tolerance for float asymmetry: a flipped sum that equals the
    // observed one up to rounding must count as "at least as extreme".
    let threshold = observed.abs() - 1e-12;
    let (p_value, method) = if n <= EXACT_LIMIT {
        let total = 1u64 << n;
        let mut extreme = 0u64;
        for mask in 0..total {
            let mut sum = 0.0;
            for (i, d) in diffs.iter().enumerate() {
                sum += if mask >> i & 1 == 1 { -d } else { *d };
            }
            if (sum / n as f64).abs() >= threshold {
                extreme += 1;
            }
        }
        (extreme as f64 / total as f64, "exact")
    } else {
        let mut rng = SplitMix64::new(MC_SEED);
        let mut extreme = 0u64;
        for _ in 0..RESAMPLES {
            let mut sum = 0.0;
            let mut bits = 0u64;
            for (i, d) in diffs.iter().enumerate() {
                if i % 64 == 0 {
                    bits = rng.next_u64();
                }
                sum += if bits >> (i % 64) & 1 == 1 { -d } else { *d };
            }
            if (sum / n as f64).abs() >= threshold {
                extreme += 1;
            }
        }
        // Add-one smoothing: the observed assignment itself is always
        // a member of the null set, so p can never be reported as 0.
        ((extreme + 1) as f64 / (RESAMPLES + 1) as f64, "monte-carlo")
    };
    Some(PairedPermutation {
        geomean_ratio,
        p_value,
        method,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_test() {
        assert!(paired_permutation_test(&[]).is_none());
    }

    #[test]
    fn uniform_large_jump_is_significant() {
        // Every workload roughly 1.8x faster (the PR 4 shape): the
        // only sign assignments as extreme as observed are all-plus
        // and all-minus, so the exact p is 2 / 2^13.
        let pairs: Vec<(f64, f64)> = (0..13)
            .map(|i| {
                let base = 4.0e6 + 2.0e5 * i as f64;
                (base, base * (1.75 + 0.01 * i as f64))
            })
            .collect();
        let t = paired_permutation_test(&pairs).unwrap();
        assert_eq!(t.method, "exact");
        assert!(t.geomean_ratio > 1.7 && t.geomean_ratio < 1.9);
        assert!((t.p_value - 2.0 / 8192.0).abs() < 1e-12, "p={}", t.p_value);
        assert!(t.significant());
    }

    #[test]
    fn mixed_sign_noise_is_not_significant() {
        // Same binary measured twice: ±3% wobble with mixed signs.
        let pairs: Vec<(f64, f64)> = (0..13)
            .map(|i| {
                let base = 5.0e6 + 1.0e5 * i as f64;
                let wobble = if i % 2 == 0 { 1.03 } else { 0.97 };
                (base, base * wobble)
            })
            .collect();
        let t = paired_permutation_test(&pairs).unwrap();
        assert!(
            !t.significant(),
            "noise must not be significant: p={}",
            t.p_value
        );
        assert!(t.geomean_ratio > 0.95 && t.geomean_ratio < 1.05);
    }

    #[test]
    fn monte_carlo_path_is_deterministic_and_sane() {
        let jump: Vec<(f64, f64)> = (0..104)
            .map(|i| {
                let base = 5.0e6 + 1.0e4 * i as f64;
                (base, base * 1.8)
            })
            .collect();
        let a = paired_permutation_test(&jump).unwrap();
        let b = paired_permutation_test(&jump).unwrap();
        assert_eq!(a.method, "monte-carlo");
        assert_eq!(a.p_value, b.p_value, "seeded MC must be deterministic");
        assert!(a.significant());

        let noise: Vec<(f64, f64)> = (0..104)
            .map(|i| {
                let base = 5.0e6 + 1.0e4 * i as f64;
                let wobble = if i % 2 == 0 { 1.02 } else { 0.98 };
                (base, base * wobble)
            })
            .collect();
        let t = paired_permutation_test(&noise).unwrap();
        assert!(!t.significant(), "p={}", t.p_value);
    }

    #[test]
    fn identical_pairs_report_p_of_one() {
        let pairs: Vec<(f64, f64)> = (0..8).map(|i| (1e6 + i as f64, 1e6 + i as f64)).collect();
        let t = paired_permutation_test(&pairs).unwrap();
        assert_eq!(t.geomean_ratio, 1.0);
        // Every sign assignment ties the observed |mean| of 0.
        assert_eq!(t.p_value, 1.0);
    }
}
