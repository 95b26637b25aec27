//! Order statistics for reporting repeated measurements.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method), so spreads computed here match the
/// ones a Python reader of the results computes. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Nearest-rank percentile `p` (in `[0, 100]`) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    Some(s[rank(p, s.len()).clamp(1, s.len()) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples (the epsilon
/// keeps `99.9% of 10,000` at 9,990 despite rounding).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// A timing's tail: the highest of the standard percentiles that still
/// has at least ten samples above it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub p: f64,
    pub value: f64,
    pub samples: usize,
}

/// Percentiles considered for [`tail`], highest last.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile in [`TAIL_PERCENTILES`] with at least ten
/// samples strictly beyond its nearest rank; `None` when even the median
/// has fewer than ten (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| {
            let r = rank(p, n);
            r >= 1 && n - r >= 10
        })
        .map(|&p| Tail {
            p,
            value: percentile(xs, p).expect("non-empty"),
            samples: n,
        })
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_reports_highest_percentile_with_ten_beyond() {
        // 20 samples: p50's rank is 10, leaving 10 beyond it.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.p, t.value, t.samples), (50.0, 10.0, 20));
        // 100 samples: p90's rank is 90, ten beyond; p99 has only one.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.p, t.value, t.samples), (90.0, 90.0, 100));
        // 10,000 samples: p99.9 leaves ten beyond.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().p, 99.9);
        // Fewer than twenty: no percentile has ten samples beyond it.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
    }

    #[test]
    fn geomean_of_powers() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
