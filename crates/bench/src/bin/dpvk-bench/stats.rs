//! Order statistics, the tail-percentile rule and the seeded shuffle.
//! Pure functions so the unit tests pin their behaviour.

use dpvk_workloads::Prng;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank of a percentile given in tenths of a percent (integer
/// arithmetic: `99.9 / 100.0 * 10_000.0` is not 9990 in floating point).
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile, `per_mille` in tenths of a percent (500 =
/// median), of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], per_mille: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(per_mille, sorted.len()) - 1]
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it, as `(percent, value)`. With fewer than 100 samples
/// no tail is resolvable and the median is returned as p50.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    for per_mille in [999, 990, 950, 900] {
        if sorted.len() >= rank(per_mille, sorted.len()) + 10 {
            return (per_mille as f64 / 10.0, percentile(sorted, per_mille));
        }
    }
    (50.0, percentile(sorted, 500))
}

/// Fisher–Yates shuffle driven by the bench's seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut Prng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range_u32(i as u32 + 1) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&[], 500), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 10_000 samples: p99.9 leaves exactly 10 beyond it.
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&v), (99.9, 9_990));
        // 9_999 samples: p99.9 leaves only 9, so fall back to p99.
        let v: Vec<u64> = (1..=9_999).collect();
        assert_eq!(tail(&v).0, 99.0);
        // 1000 samples → p99 (10 beyond); 999 → p95.
        assert_eq!(tail(&(1..=1000).collect::<Vec<u64>>()), (99.0, 990));
        assert_eq!(tail(&(1..=999).collect::<Vec<u64>>()).0, 95.0);
        // 100 samples → p90 (10 beyond); 99 → nothing resolvable.
        assert_eq!(tail(&(1..=100).collect::<Vec<u64>>()), (90.0, 90));
        assert_eq!(tail(&(1..=99).collect::<Vec<u64>>()), (50.0, 50));
    }

    #[test]
    fn shuffle_is_seeded() {
        let order = |seed: u64| {
            let mut v: Vec<u32> = (0..22).collect();
            shuffle(&mut v, &mut Prng::new(seed));
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..22).collect::<Vec<u32>>());
    }
}
