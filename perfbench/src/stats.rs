//! The benchmark's own arithmetic: exact percentiles over raw samples and
//! the per-layer waterfall. Kept free of I/O so it can be unit-tested.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample with
/// at least `q · n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest quantile that leaves at least [`TAIL_BEYOND`] samples
/// beyond it, never below the median. With `n ≤ 2·TAIL_BEYOND` that is
/// the median itself.
pub fn tail_q(n: usize) -> f64 {
    if n <= 2 * TAIL_BEYOND {
        return 0.5;
    }
    1.0 - TAIL_BEYOND as f64 / n as f64
}

/// A timing summary computed from raw samples (never from histogram
/// buckets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// The 99th percentile, or the highest the sample supports when it
    /// is too small for p99 (see [`Summary::p99_q`]).
    pub p99: f64,
    /// The quantile `p99` was read at.
    pub p99_q: f64,
    /// The highest percentile with at least [`TAIL_BEYOND`] samples beyond.
    pub tail: f64,
    /// The quantile `tail` was read at.
    pub tail_q: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// The summary of an empty sample (all zeros).
    pub const EMPTY: Summary = Summary {
        n: 0,
        mean: 0.0,
        p50: 0.0,
        p99: 0.0,
        p99_q: 0.5,
        tail: 0.0,
        tail_q: 0.5,
        max: 0.0,
    };

    /// Summarises `samples` (any order). Returns `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let tq = tail_q(s.len());
        let pq = tq.min(0.99);
        Some(Self {
            n: s.len(),
            mean: s.iter().sum::<f64>() / s.len() as f64,
            p50: quantile(&s, 0.5),
            p99: quantile(&s, pq),
            p99_q: pq,
            tail: quantile(&s, tq),
            tail_q: tq,
            max: s[s.len() - 1],
        })
    }
}

/// Median of a small set of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// One end-to-end value decomposed into layer rows plus whatever no
/// layer accounts for.
#[derive(Debug, Clone, PartialEq)]
pub struct Waterfall {
    /// What the rows add up to, e.g. `client mean latency`.
    pub total_label: &'static str,
    /// Unit of every row.
    pub unit: &'static str,
    /// The end-to-end value.
    pub total: f64,
    /// `(layer, value)` rows, each a disjoint part of `total`.
    pub rows: Vec<(&'static str, f64)>,
}

impl Waterfall {
    /// `total − Σ rows`: the part no layer row covers.
    pub fn unattributed(&self) -> f64 {
        self.total - self.rows.iter().map(|r| r.1).sum::<f64>()
    }

    /// [`Waterfall::unattributed`] as a share of the total.
    pub fn unattributed_share(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.unattributed() / self.total
        }
    }

    /// Every row plus the `unattributed` row, in print order.
    pub fn all_rows(&self) -> Vec<(&'static str, f64)> {
        let mut rows = self.rows.clone();
        rows.push(("unattributed", self.unattributed()));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        for n in [21usize, 50, 100, 999, 1000, 1001, 20_000] {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let sum = Summary::of(&s).unwrap();
            let beyond = s.iter().filter(|&&x| x > sum.tail).count();
            assert_eq!(beyond, TAIL_BEYOND, "n={n}");
            assert_eq!(sum.n, n);
            // one quantile step higher would leave fewer than ten beyond
            let higher = quantile(&s, sum.tail_q + 1.0 / n as f64);
            assert!(s.iter().filter(|&&x| x > higher).count() < TAIL_BEYOND);
        }
    }

    #[test]
    fn p99_is_capped_by_what_the_sample_supports() {
        let big: Vec<f64> = (0..20_000).map(f64::from).collect();
        let s = Summary::of(&big).unwrap();
        assert_eq!(s.p99_q, 0.99);
        assert_eq!(s.p99, quantile(&big, 0.99));
        assert!(s.tail_q > 0.99);

        let small: Vec<f64> = (0..200).map(f64::from).collect();
        let s = Summary::of(&small).unwrap();
        assert_eq!(s.p99_q, s.tail_q);
        assert_eq!(small.iter().filter(|&&x| x > s.p99).count(), TAIL_BEYOND);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.p50, s.p99, s.tail_q), (3, 2.0, 2.0, 0.5));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn layer_rows_plus_unattributed_sum_to_the_total() {
        let w = Waterfall {
            total_label: "client mean latency",
            unit: "us",
            total: 120.5,
            rows: vec![("parse", 2.25), ("push", 40.0), ("respond", 0.75)],
        };
        assert_eq!(w.unattributed(), 77.5);
        let sum: f64 = w.all_rows().iter().map(|r| r.1).sum();
        assert!((sum - w.total).abs() < 1e-9);
        assert!((w.unattributed_share() - 77.5 / 120.5).abs() < 1e-12);

        // rows that overshoot the total give a negative remainder, which
        // still sums back exactly
        let over = Waterfall {
            rows: vec![("a", 100.0), ("b", 30.0)],
            ..w
        };
        assert_eq!(over.unattributed(), -9.5);
        let sum: f64 = over.all_rows().iter().map(|r| r.1).sum();
        assert!((sum - over.total).abs() < 1e-9);
    }
}
