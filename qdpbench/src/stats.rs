//! Order statistics over timing samples.

/// Nearest-rank quantile `q ∈ [0, 1]` of `samples` (sorted in place).
/// Returns `0.0` for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Ops per second over a run of op times (ms, in run order): the median
/// of the rates of consecutive windows of at least `window_ms` each, so a
/// few seconds of a busy host move it less than they move the mean. Falls
/// back to the whole run's rate when it is shorter than one window.
pub fn windowed_rate(op_ms: &[f64], window_ms: f64) -> f64 {
    let mut rates = Vec::new();
    let (mut ops, mut ms) = (0usize, 0.0);
    for &t in op_ms {
        ops += 1;
        ms += t;
        if ms >= window_ms {
            rates.push(ops as f64 * 1e3 / ms);
            (ops, ms) = (0, 0.0);
        }
    }
    if rates.is_empty() {
        return op_ms.len() as f64 * 1e3 / op_ms.iter().sum::<f64>();
    }
    median(&mut rates)
}

/// The tail of a latency sample: the highest of p90, p99, p99.9 and
/// p99.99 that still has at least ten samples beyond it, or the maximum
/// when fewer than 100 samples leave p90 without ten. (p50 is left out so
/// the tail never falls back to the median.)
pub struct Tail {
    /// `"p99.9"`, `"p90"`, `"max"`, …
    pub label: &'static str,
    /// The value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// See [`Tail`].
pub fn tail(samples: &mut [f64]) -> Tail {
    const LADDER: [(&str, f64); 4] = [
        ("p99.99", 0.9999),
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p90", 0.90),
    ];
    let n = samples.len();
    for (label, q) in LADDER {
        let rank = (q * n as f64).ceil() as usize;
        if n >= rank && n - rank >= 10 {
            return Tail {
                label,
                value: quantile(samples, q),
                beyond: n - rank,
                n,
            };
        }
    }
    Tail {
        label: "max",
        value: quantile(samples, 1.0),
        beyond: 0,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&mut s);
        assert_eq!((t.label, t.value, t.beyond), ("p99", 990.0, 10));
        let mut big: Vec<f64> = (1..=20000).map(f64::from).collect();
        assert_eq!(tail(&mut big).label, "p99.9");
        let mut mid: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut mid).label, "p90");
        let mut few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!((tail(&mut few).label, tail(&mut few).value), ("max", 99.0));
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        // Windows of 1 s: 10 ops in 1 s, 5 in 1 s, 1 in 2 s.
        let mut ops = vec![100.0; 10];
        ops.extend([200.0; 5]);
        ops.push(2000.0);
        assert_eq!(windowed_rate(&ops, 1000.0), 5.0);
        assert_eq!(windowed_rate(&[250.0, 250.0], 1000.0), 4.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(median(&mut s), 2.0);
        assert_eq!(quantile(&mut s, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
