//! Exact percentiles over raw simulated-cycle samples.
//!
//! The load engine's `Histogram` reports the upper edge of a
//! power-of-two bucket, which cannot tell a 1.01x change from a 1.9x
//! one. These percentiles sort the merged per-op samples
//! (`LoadRun::user_samples`) and return an observed value.

/// The `pct`-th percentile by nearest rank: the smallest sample with at
/// least `pct`% of the samples at or below it. `sorted` must be in
/// ascending order. `None` when there are no samples.
pub fn nearest_rank(sorted: &[u64], pct: u32) -> Option<u64> {
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len() as u64;
    let rank = (u64::from(pct) * n).div_ceil(100).max(1);
    Some(sorted[(rank - 1) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_an_observed_sample_not_a_bucket_edge() {
        // 1,000 samples: 1..=990 cycles plus ten slow ops of 100,003..
        // 100,012 cycles. Rank 990 is the last fast op; rank 991 would
        // be the first slow one.
        let mut samples: Vec<u64> = (1..=990).collect();
        samples.extend(100_003..=100_012);
        samples.sort_unstable();
        assert_eq!(nearest_rank(&samples, 50), Some(500));
        assert_eq!(nearest_rank(&samples, 99), Some(990));
        assert_eq!(nearest_rank(&samples, 100), Some(100_012));
        // The bucketed histogram would have said 1,023 for p99: the
        // upper edge of the 10-bit bucket that 990 falls in.
        assert_ne!(nearest_rank(&samples, 99), Some(1_023));
    }

    #[test]
    fn small_and_empty_sets() {
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(nearest_rank(&[7], 1), Some(7));
        assert_eq!(nearest_rank(&[7], 99), Some(7));
        // Two samples: p50 is the lower one, p51 the upper one.
        assert_eq!(nearest_rank(&[3, 9], 50), Some(3));
        assert_eq!(nearest_rank(&[3, 9], 51), Some(9));
    }

    #[test]
    fn a_1_01x_shift_in_the_tail_moves_p99() {
        let base: Vec<u64> = (0..10_000).map(|i| 40_000 + i * 3).collect();
        let slower: Vec<u64> = base.iter().map(|v| v * 101 / 100).collect();
        let (a, b) = (
            nearest_rank(&base, 99).unwrap(),
            nearest_rank(&slower, 99).unwrap(),
        );
        assert_eq!(b, a * 101 / 100);
        assert!(b > a);
    }
}
