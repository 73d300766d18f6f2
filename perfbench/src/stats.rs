//! Order statistics for the benchmark's timings.
//!
//! Every timing the benchmark reports is a median or a tail percentile of
//! the samples one run collected. A tail percentile is only reported when
//! the sample supports it: at least ten samples must lie beyond it, so a
//! p99 needs 1000 samples and a p90 needs 100.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `p`-th percentile (0 < p < 100) of `xs` by the nearest-rank rule,
/// or an error when fewer than [`TAIL_SUPPORT`] samples lie beyond it.
pub fn tail(xs: &[f64], p: f64) -> Result<f64, String> {
    let n = xs.len();
    // Nearest rank: the smallest value with at least p% of the sample at
    // or below it; everything after that rank lies beyond it.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < TAIL_SUPPORT {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {TAIL_SUPPORT} are required"
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank.max(1) - 1])
}

/// The quantile `q` of a log2-bucketed histogram given as `(le, n)` pairs,
/// interpolated linearly inside the bucket exactly as the daemon's own
/// `phylo-obs` histograms are (bucket `b` spans `[2^(b-1), 2^b - 1]`).
pub fn bucket_quantile(buckets: &[(u64, u64)], q: f64) -> f64 {
    let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if count == 0 {
        return 0.0;
    }
    let mut sorted = buckets.to_vec();
    sorted.sort_unstable();
    let rank = q.clamp(0.0, 1.0) * (count - 1) as f64;
    let mut seen = 0u64;
    for &(le, n) in &sorted {
        if n == 0 {
            continue;
        }
        let upto = seen + n;
        if rank < upto as f64 || upto == count {
            let hi = le as f64;
            let lo = if le == 0 { 0.0 } else { ((le >> 1) + 1) as f64 };
            if n == 1 {
                return (lo + hi) / 2.0;
            }
            let frac = (rank - seen as f64).clamp(0.0, (n - 1) as f64) / (n - 1) as f64;
            return lo + frac * (hi - lo);
        }
        seen = upto;
    }
    sorted.last().map_or(0.0, |&(le, _)| le as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_refuses_without_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten beyond — supported.
        assert_eq!(tail(&xs, 90.0), Ok(90.0));
        // p99 of 100 samples: one beyond — refused.
        assert!(tail(&xs, 99.0).is_err());
        // p90 of 99 samples: nine beyond — refused.
        assert!(tail(&xs[..99], 90.0).is_err());
        assert!(tail(&[], 50.0).is_err());
    }

    #[test]
    fn tail_p99_needs_a_thousand_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Ok(990.0));
        assert!(tail(&xs[..999], 99.0).is_err());
    }

    #[test]
    fn bucket_quantile_matches_obs_interpolation() {
        // Ten samples in [4096, 8191]: the median interpolates halfway.
        let q = bucket_quantile(&[(8191, 10)], 0.5);
        assert!((q - (4096.0 + 0.5 * 4095.0)).abs() < 1e-9, "{q}");
        // Two buckets; the 0.9 quantile lands in the upper one.
        let q = bucket_quantile(&[(1023, 5), (2047, 5)], 0.9);
        assert!((1024.0..=2047.0).contains(&q), "{q}");
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
    }
}
