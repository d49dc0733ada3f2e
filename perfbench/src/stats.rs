//! The benchmark's own arithmetic: nearest-rank percentiles, medians of
//! repeated runs, and the choice of the highest passing rate on the
//! `serve` ladder.

/// A percentile read from a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample value at the nearest rank.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly above the rank the value was read at. The guide
    /// this benchmark follows trusts a percentile only with at least ten.
    pub beyond: usize,
}

/// Nearest-rank percentile: the value at rank `ceil(q * n)` (1-based,
/// clamped to `1..=n`) of the ascending sample. `q` is a fraction in
/// `[0, 1]`. An empty sample reads as 0 with no evidence.
pub fn percentile(sample: &[f64], q: f64) -> Pct {
    let n = sample.len();
    if n == 0 {
        return Pct {
            value: 0.0,
            n: 0,
            beyond: 0,
        };
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// Median of repeated measurements: the middle value, or the mean of the
/// two middle values for an even count. 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One rung of the open-loop rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered arrival rate.
    pub rate_qps: f64,
    /// Answers per second actually delivered over the rung.
    pub achieved_qps: f64,
    /// Nearest-rank p99 of latency from due time, in ms.
    pub p99_ms: f64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Last answer minus last due time, in ms: how much backlog the rung
    /// left behind.
    pub drain_ms: f64,
}

impl Rung {
    /// A rung passes when nothing failed, its p99 meets the limit, and
    /// it drained within the limit (a growing backlog shows as a long
    /// drain even when the p99 still reads low).
    pub fn passes(&self, p99_limit_ms: f64) -> bool {
        self.failed == 0 && self.p99_ms <= p99_limit_ms && self.drain_ms <= p99_limit_ms
    }
}

/// The highest rung of an ascending ladder that passes, reading upwards
/// and stopping at the first rung that fails. `None` when even the
/// lowest rung fails.
pub fn max_passing_rung(rungs: &[Rung], p99_limit_ms: f64) -> Option<Rung> {
    rungs
        .iter()
        .take_while(|r| r.passes(p99_limit_ms))
        .last()
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reads_the_ceiling_rank() {
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.5).value, 5.0);
        assert_eq!(percentile(&sample, 0.9).value, 9.0);
        assert_eq!(percentile(&sample, 0.91).value, 10.0);
        assert_eq!(percentile(&sample, 1.0).value, 10.0);
        assert_eq!(percentile(&sample, 0.0).value, 1.0);
        // Order of the input does not matter.
        let shuffled = [7.0, 2.0, 9.0, 1.0, 10.0, 4.0, 3.0, 8.0, 6.0, 5.0];
        assert_eq!(percentile(&shuffled, 0.5), percentile(&sample, 0.5));
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&sample, 0.99);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.n, 1000);
        assert_eq!(p99.beyond, 10);
        // Below 1000 samples a p99 has fewer than ten beyond it.
        let small: Vec<f64> = (1..=57).map(f64::from).collect();
        let p = percentile(&small, 0.99);
        assert_eq!(p.value, 57.0);
        assert_eq!(p.beyond, 0);
        let p50 = percentile(&small, 0.5);
        assert_eq!((p50.value, p50.beyond), (29.0, 28));
        assert_eq!(percentile(&[], 0.5).n, 0);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    fn rung(rate: f64, p99: f64, failed: u64, drain: f64) -> Rung {
        Rung {
            rate_qps: rate,
            achieved_qps: rate,
            p99_ms: p99,
            failed,
            drain_ms: drain,
        }
    }

    #[test]
    fn ladder_takes_the_last_rung_before_the_first_failure() {
        let limit = 10.0;
        let ladder = [
            rung(100.0, 2.0, 0, 1.0),
            rung(200.0, 4.0, 0, 1.0),
            rung(400.0, 12.0, 0, 1.0),
            // Passes again by luck, but the ladder stopped below.
            rung(800.0, 9.0, 0, 1.0),
        ];
        assert_eq!(max_passing_rung(&ladder, limit).unwrap().rate_qps, 200.0);
        // A limit exactly met passes.
        assert_eq!(
            max_passing_rung(&ladder[..3], 12.0).unwrap().rate_qps,
            400.0
        );
    }

    #[test]
    fn ladder_fails_rungs_with_errors_or_backlog() {
        let limit = 10.0;
        let failed = [rung(100.0, 2.0, 0, 1.0), rung(200.0, 3.0, 1, 1.0)];
        assert_eq!(max_passing_rung(&failed, limit).unwrap().rate_qps, 100.0);
        let backlog = [rung(100.0, 2.0, 0, 1.0), rung(200.0, 3.0, 0, 25.0)];
        assert_eq!(max_passing_rung(&backlog, limit).unwrap().rate_qps, 100.0);
        let none = [rung(100.0, 11.0, 0, 1.0)];
        assert!(max_passing_rung(&none, limit).is_none());
        assert!(max_passing_rung(&[], limit).is_none());
    }
}
