//! Order statistics for small sample sets: the median with its range, the
//! quartile spread the repeatability rule is stated in, and the rule that
//! decides which tail percentile a sample count can support.

/// Median, range and count of a sample set — what every timing row prints,
/// since five-odd samples support no percentile claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `None` for an empty set.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let v = sorted(samples);
    let (min, max) = (*v.first()?, *v.last()?);
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    };
    Some(Summary {
        n: v.len(),
        median,
        min,
        max,
    })
}

/// Median of a non-empty set; 0 for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), which is what the acceptance rule for
/// run-to-run spread is computed with. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median;
/// 0 when there are fewer than two samples or the median is 0.
pub fn spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile of an ascending slice.
fn nearest_rank(ascending: &[f64], pct: u32) -> f64 {
    let rank = (pct as usize * ascending.len()).div_ceil(100).max(1);
    ascending[rank - 1]
}

/// The highest of p99 / p90 that leaves at least ten samples beyond it, so
/// the reported tail is never one or two outliers: p99 needs n >= 1000, p90
/// needs n >= 100, and below that no tail percentile is claimed.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 90]
        .into_iter()
        .find(|&pct| n >= (pct as usize * n).div_ceil(100) + 10)
}

/// Per-case latency summary: the median, and the tail the count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`; `None` when `n` supports no tail claim.
    pub tail: Option<(u32, f64)>,
}

pub fn latency(samples: &[f64]) -> Option<Latency> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    Some(Latency {
        n: v.len(),
        p50: nearest_rank(&v, 50),
        tail: tail_percentile(v.len()).map(|pct| (pct, nearest_rank(&v, pct))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_sets() {
        let s = summarize(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.n, s.median, s.min, s.max), (3, 3.0, 1.0, 5.0));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.n, s.median, s.min, s.max), (4, 2.5, 1.0, 4.0));
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 4.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]).unwrap(), [0.5, 2.0, 3.5]);
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1_000_020), Some(99));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(90), "p99 of 999 leaves nine");
        assert_eq!(tail_percentile(120), Some(90));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), None);
    }

    #[test]
    fn latency_picks_p50_and_supported_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = latency(&v).unwrap();
        assert_eq!((l.n, l.p50, l.tail), (1000, 500.0, Some((99, 990.0))));
        let l = latency(&v[..120]).unwrap();
        assert_eq!((l.p50, l.tail), (60.0, Some((90, 108.0))));
        let l = latency(&v[..12]).unwrap();
        assert_eq!((l.p50, l.tail), (6.0, None));
        assert!(latency(&[]).is_none());
    }
}
