//! Order statistics for the end-to-end metrics.

/// Percentiles the tail metric may report, highest last. A step is
/// reached at a sample count (20, 40, 100) far from where the workloads'
/// runs land, so run-to-run changes in the count do not move the
/// reported percentile. The ladder stops at p90: on a shared host the
/// percentiles above it are set by the hypervisor's CPU steal rather
/// than by the code (an analysis's p99.9 read 2.2 ms in one run and
/// 7.1 ms in another of the same code), and p95/p99 would switch on at
/// 200 and 1 000 samples, which the serve mix straddles.
const TAIL_LADDER: [f64; 3] = [50.0, 75.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    // The tolerance keeps binary rounding (0.999 * 10_000 is a hair
    // above 9_990) from pushing an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Median (mean of the two middle samples for even counts); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest ladder percentile with at
/// least [`MIN_BEYOND`] samples strictly beyond its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// Select the tail percentile of `xs`. With fewer than
/// `2 * MIN_BEYOND + 1` samples no ladder step qualifies and the maximum
/// is reported as percentile 100 with nothing beyond.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best = Tail {
        percentile: 100.0,
        value: v.last().copied().unwrap_or(0.0),
        beyond: 0,
    };
    for p in TAIL_LADDER {
        if n == 0 {
            break;
        }
        let i = rank(p, n);
        let beyond = n - 1 - i;
        if beyond >= MIN_BEYOND {
            best = Tail {
                percentile: p,
                value: v[i],
                beyond,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 has index 89 → 10 beyond.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 99 samples: p90 has index 89 → 9 beyond, so p75 (index 74).
        let t = tail(&ramp(99));
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 75.0, 24));
        // 1000 samples: p90 (index 899 → 100 beyond), the top step.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.beyond), (90.0, 100));
        let t = tail(&ramp(100_000));
        assert_eq!((t.percentile, t.beyond), (90.0, 10_000));
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs = ramp(40);
        xs.reverse();
        let t = tail(&xs);
        // 40 samples: p75 → index 29 → 10 beyond.
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));
    }

    #[test]
    fn tiny_samples_fall_back_to_the_maximum() {
        let t = tail(&ramp(15));
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 15.0, 0));
        // 21 samples: the median has index 10 → exactly 10 beyond.
        let t = tail(&ramp(21));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 11.0, 10));
    }
}
