//! Pieces shared by the two open-loop workloads, `serve` and `live_rw`:
//! summarising reads timed from their due time, and reading the
//! per-layer numbers the service already records in its telemetry
//! registry.

use crate::load::{Failure, Outcome};
use crate::stats::{median, percentile, Pct};
use crate::{Metrics, RunOutput};
use daakg::ShardedService;
use daakg_graph::{DaakgError, KnowledgeGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A built open-loop service and the KG pair behind it.
pub struct Built {
    pub kg1: Arc<KnowledgeGraph>,
    pub kg2: Arc<KnowledgeGraph>,
    pub svc: ShardedService,
}

/// Run `set_up` `reps` times (at least once), dropping each build before
/// the next so only one is resident. Returns the last build and every
/// set-up time, in s.
pub fn repeat_set_up(
    reps: usize,
    mut set_up: impl FnMut() -> Result<(Built, f64), DaakgError>,
) -> Result<(Built, Vec<f64>), DaakgError> {
    let mut last = None;
    let mut times = Vec::new();
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (built, secs) = set_up()?;
        times.push(secs);
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Latency and failure summary of a set of open-loop outcomes.
pub struct LoadSummary {
    pub attempted: u64,
    pub failed: u64,
    pub overloaded: u64,
    pub deadline: u64,
    pub other: u64,
    /// Latency from due time, over successful operations.
    pub p50: Pct,
    pub p99: Pct,
    /// Medians over consecutive `WINDOW`s of due time of each window's
    /// p50, p90 and p99, so a host stall moves the windows it hits, not
    /// the run's figure.
    pub p50_windowed_ms: f64,
    pub p90_windowed_ms: f64,
    pub p99_windowed_ms: f64,
    /// How late the schedule thread issued operations, in ms.
    pub late_p99: Pct,
    pub late_max_ms: f64,
    /// First due time → last completion, in s.
    pub job_s: f64,
    /// Last completion minus last due time, in ms.
    pub drain_ms: f64,
    /// Successful operations per second over `job_s`.
    pub achieved_qps: f64,
}

/// Window length of the windowed percentiles: at the workloads' read
/// rates a window holds at least 500 reads, so its p90 has 50 beyond it.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Median over `window`-long slices of due time (from the earliest due
/// time) of each slice's nearest-rank `q` percentile over `(due,
/// latency)` samples. A trailing slice shorter than half a window joins
/// the one before it.
pub fn windowed_percentile(samples: &[(Instant, f64)], window: Duration, q: f64) -> f64 {
    let Some(first) = samples.iter().map(|s| s.0).min() else {
        return 0.0;
    };
    let last = samples.iter().map(|s| s.0).max().unwrap_or(first);
    let span = last.saturating_duration_since(first).as_secs_f64();
    let w = window.as_secs_f64();
    let slices = ((span / w + 0.5).floor() as usize).max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(due, lat) in samples {
        let i = (due.saturating_duration_since(first).as_secs_f64() / w) as usize;
        buckets[i.min(slices - 1)].push(lat);
    }
    let per_window: Vec<f64> = buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| percentile(b, q).value)
        .collect();
    median(&per_window)
}

pub fn summarize<A>(outcomes: &[&Outcome<A>], latency: impl Fn(&Outcome<A>) -> f64) -> LoadSummary {
    let timed: Vec<(Instant, f64)> = outcomes
        .iter()
        .filter(|o| o.result.is_ok())
        .map(|o| (o.due, latency(o)))
        .collect();
    let ok: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.result.is_ok())
        .map(|o| latency(o))
        .collect();
    let count = |f: Failure| {
        outcomes
            .iter()
            .filter(|o| o.result.as_ref().err() == Some(&f))
            .count() as u64
    };
    let late: Vec<f64> = outcomes.iter().map(|o| o.late_ms()).collect();
    let first_due = outcomes.iter().map(|o| o.due).min();
    let last_due = outcomes.iter().map(|o| o.due).max();
    let last_done = outcomes.iter().map(|o| o.done).max();
    let (job_s, drain_ms) = match (first_due, last_due, last_done) {
        (Some(f), Some(l), Some(d)) => (
            d.saturating_duration_since(f).as_secs_f64(),
            d.saturating_duration_since(l).as_secs_f64() * 1e3,
        ),
        _ => (0.0, 0.0),
    };
    LoadSummary {
        attempted: outcomes.len() as u64,
        failed: (outcomes.len() - ok.len()) as u64,
        overloaded: count(Failure::Overloaded),
        deadline: count(Failure::DeadlineExceeded),
        other: count(Failure::Other),
        p50: percentile(&ok, 0.5),
        p99: percentile(&ok, 0.99),
        p50_windowed_ms: windowed_percentile(&timed, WINDOW, 0.5),
        p90_windowed_ms: windowed_percentile(&timed, WINDOW, 0.9),
        p99_windowed_ms: windowed_percentile(&timed, WINDOW, 0.99),
        late_p99: percentile(&late, 0.99),
        late_max_ms: late.iter().copied().fold(0.0, f64::max),
        job_s,
        drain_ms,
        achieved_qps: if job_s > 0.0 {
            ok.len() as f64 / job_s
        } else {
            0.0
        },
    }
}

impl LoadSummary {
    /// Detail-line JSON for this summary.
    pub fn json(&self) -> String {
        format!(
            "{{\"attempted\":{},\"failed\":{},\"overloaded\":{},\"deadline_exceeded\":{},\"other_err\":{},\"p50_ms\":{:.4},\"p99_ms\":{:.4},\"p50_windowed_ms\":{:.4},\"p90_windowed_ms\":{:.4},\"p99_windowed_ms\":{:.4},\"n\":{},\"p99_beyond\":{},\"late_p99_ms\":{:.4},\"late_max_ms\":{:.4},\"job_s\":{:.4},\"drain_ms\":{:.4},\"achieved_qps\":{:.2}}}",
            self.attempted,
            self.failed,
            self.overloaded,
            self.deadline,
            self.other,
            self.p50.value,
            self.p99.value,
            self.p50_windowed_ms,
            self.p90_windowed_ms,
            self.p99_windowed_ms,
            self.p50.n,
            self.p99.beyond,
            self.late_p99.value,
            self.late_max_ms,
            self.job_s,
            self.drain_ms,
            self.achieved_qps
        )
    }

    /// Count this phase's operations into the run's totals.
    pub fn count_into(&self, out: &mut RunOutput) {
        out.attempted += self.attempted;
        out.failed += self.failed;
    }
}

/// Stage histogram `name` of the service registry as (p50, p99, sum,
/// count), in ns. Zeros when the stage never ran.
pub fn stage(svc: &ShardedService, name: &str) -> (f64, f64, f64, u64) {
    svc.telemetry()
        .registry()
        .histograms()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or((0.0, 0.0, 0.0, 0), |(_, h)| {
            (
                h.quantile(0.5) as f64,
                h.quantile(0.99) as f64,
                h.sum() as f64,
                h.count(),
            )
        })
}

/// The registry's ingress, shard and index stage numbers.
pub fn registry_metrics(svc: &ShardedService, m: &mut Metrics) {
    let (qw50, qw99, _, _) = stage(svc, "stage_ingress_queue_wait_ns");
    m.insert("ingress.queue_wait_p50_ms", qw50 / 1e6);
    m.insert("ingress.queue_wait_p99_ms", qw99 / 1e6);
    m.insert(
        "ingress.execute_p50_ms",
        stage(svc, "stage_ingress_execute_ns").0 / 1e6,
    );
    if let Some(st) = svc.ingress_stats() {
        m.insert(
            "ingress.batch_mean",
            st.queries as f64 / st.batches.max(1) as f64,
        );
        m.insert("ingress.shed", st.shed as f64);
        m.insert("ingress.expired", st.expired as f64);
    }
    m.insert(
        "shard.scan_p50_us",
        stage(svc, "stage_shard_scan_ns").0 / 1e3,
    );
    m.insert(
        "shard.merge_p50_us",
        stage(svc, "stage_shard_merge_ns").0 / 1e3,
    );
    m.insert(
        "index.probe_p50_us",
        stage(svc, "stage_ivf_probe_ns").0 / 1e3,
    );
    m.insert(
        "index.list_scan_p50_us",
        stage(svc, "stage_ivf_scan_ns").0 / 1e3,
    );
    m.insert("delta.merge_us", stage(svc, "stage_delta_merge_ns").0 / 1e3);
}

/// Share of the summed read latency the ingress stages account for:
/// per-read queue wait, plus each batch's execute time once per query
/// in it (from the mean batch size), plus how late each read was sent.
/// The rest is wake-up and hand-off time no stage records.
pub fn read_attribution(svc: &ShardedService, late_ms_sum: f64, latency_ms_sum: f64) -> f64 {
    let (_, _, wait_ns, _) = stage(svc, "stage_ingress_queue_wait_ns");
    let (_, _, exec_ns, _) = stage(svc, "stage_ingress_execute_ns");
    let batch_mean = svc
        .ingress_stats()
        .map_or(0.0, |st| st.queries as f64 / st.batches.max(1) as f64);
    let attributed_ms = (wait_ns + exec_ns * batch_mean) / 1e6 + late_ms_sum;
    attributed_ms / latency_ms_sum.max(1e-9)
}

/// Whether two rankings are bitwise equal (ids and score bits).
pub fn bitwise_eq(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Evenly spaced indices of at most `n` of `len` items.
pub fn sample_indices(len: usize, n: usize) -> Vec<usize> {
    if len == 0 || n == 0 {
        return Vec::new();
    }
    let n = n.min(len);
    (0..n).map(|i| i * len / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_percentile_is_the_median_of_per_window_percentiles() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Three 1 s windows of 100 samples each; the middle one stalls.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..100u64 {
                let lat = if w == 1 {
                    500.0
                } else {
                    1.0 + i as f64 / 100.0
                };
                samples.push((at(w * 1000 + i * 10), lat));
            }
        }
        let p = windowed_percentile(&samples, Duration::from_secs(1), 0.99);
        assert_eq!(p, 1.98);
        // Pooled, the stall owns the p99.
        let pooled: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile(&pooled, 0.99).value, 500.0);
        assert_eq!(
            windowed_percentile(&samples, Duration::from_secs(1), 0.5),
            1.49
        );
        assert_eq!(windowed_percentile(&[], Duration::from_secs(1), 0.5), 0.0);
    }

    #[test]
    fn sample_indices_are_spread_and_bounded() {
        assert_eq!(sample_indices(10, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(sample_indices(3, 5), vec![0, 1, 2]);
        assert!(sample_indices(0, 5).is_empty());
    }

    #[test]
    fn bitwise_equality_compares_score_bits() {
        assert!(bitwise_eq(&[(1, 0.5)], &[(1, 0.5)]));
        assert!(!bitwise_eq(&[(1, 0.0)], &[(1, -0.0)]));
        assert!(!bitwise_eq(&[(1, 0.5)], &[(2, 0.5)]));
        assert!(!bitwise_eq(&[(1, 0.5)], &[]));
    }
}
