//! Sample statistics for benchmark reporting.
//!
//! The paper reports collective latencies the way IMB and the OSU benchmarks
//! do: the maximum across processes, and (for the tuning-quality experiment
//! of Fig. 9) best / median / average across configurations.

use crate::time::Time;

/// A retained-sample summary of `Time` values: best / median / average / worst.
///
/// Used where the paper compares the distribution of all configurations
/// against the tuned pick (Fig. 9).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<Time>,
}

impl FromIterator<Time> for Summary {
    fn from_iter<I: IntoIterator<Item = Time>>(iter: I) -> Self {
        Summary {
            samples: iter.into_iter().collect(),
        }
    }
}

impl Summary {
    pub fn new() -> Self {
        Summary::default()
    }

    pub fn push(&mut self, t: Time) {
        self.samples.push(t);
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn best(&self) -> Time {
        self.samples.iter().copied().min().unwrap_or(Time::ZERO)
    }

    pub fn worst(&self) -> Time {
        self.samples.iter().copied().max().unwrap_or(Time::ZERO)
    }

    pub fn average(&self) -> Time {
        if self.samples.is_empty() {
            return Time::ZERO;
        }
        let total: u128 = self.samples.iter().map(|t| t.as_ps() as u128).sum();
        Time::from_ps((total / self.samples.len() as u128) as u64)
    }

    /// Median (lower median for even-length sets, like IMB's reporting).
    pub fn median(&self) -> Time {
        if self.samples.is_empty() {
            return Time::ZERO;
        }
        let mut s = self.samples.clone();
        s.sort_unstable();
        s[(s.len() - 1) / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_order_statistics() {
        let s = Summary::from_iter([40, 10, 30, 20].map(Time::from_ns));
        assert_eq!(s.best(), Time::from_ns(10));
        assert_eq!(s.worst(), Time::from_ns(40));
        assert_eq!(s.average(), Time::from_ns(25));
        assert_eq!(s.median(), Time::from_ns(20)); // lower median of 20/30
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.best(), Time::ZERO);
        assert_eq!(s.median(), Time::ZERO);
        assert_eq!(s.average(), Time::ZERO);
    }
}
