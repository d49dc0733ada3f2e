//! `serve`: read-only, open-loop Poisson arrivals of a fixed `Exact` /
//! `Approx` mix through `ShardedService::submit`, on a 100k-entity,
//! 2-shard service with the micro-batching ingress and IVF, at two
//! threads. Nothing is trained: ingress, shard scatter/merge, the scan
//! kernel, IVF and the `daakg-parallel` fan-out do all the work.
//!
//! After a phase at the reference rate, a fixed rate ladder finds the
//! highest rate whose p99 meets the limit with no growing backlog.

use crate::host::json_array;
use crate::load::{poisson, run_open_loop, Failure, Issued, Outcome};
use crate::served::{self, Built};
use crate::stats::{max_passing_rung, median, Rung};
use crate::trace::Tracer;
use crate::{probes, RunOutput};
use daakg::{IngressConfig, Pipeline, QueryMode, QueryOptions, Served, ShardedService};
use daakg_align::JointConfig;
use daakg_bench::synth::{synthetic_pair, SynthSpec};
use daakg_graph::DaakgError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two threads: where the per-call spawn cost of the shard fan-out shows.
pub const THREADS: usize = 2;
/// Used when the command line gives no `--p99-limit-ms`.
pub const DEFAULT_P99_LIMIT_MS: f64 = 20.0;
const ENTITIES: usize = 100_000;
const SHARDS: usize = 2;
const NLIST: usize = 128;
const NPROBE: usize = 8;
const K: usize = 10;
/// Every `EXACT_EVERY`-th read is `Exact`; the rest are `Approx`.
const EXACT_EVERY: usize = 4;
/// The reference arrival rate, per second.
const REF_RATE: f64 = 1000.0;
/// Rate ladder: the reference rate times 2^(i/2), up to 11.3 times it.
const LADDER_RUNGS: usize = 8;
const RUNG_SECS: f64 = 1.0;
/// Full set-ups timed per run, for the `setup_s` median.
const SETUP_REPS: usize = 3;
/// Answers checked against the snapshot scan.
const CHECKED: usize = 400;

fn joint_config() -> JointConfig {
    let mut cfg = JointConfig::default();
    cfg.embed.threads = THREADS;
    cfg
}

/// Set-up: KG generation, build, and the shard / IVF warm-up that
/// `build_sharded` performs.
fn set_up(seed: u64) -> Result<(Built, f64), DaakgError> {
    let t = Instant::now();
    let (kg1, kg2, _gold) = synthetic_pair(SynthSpec::with_entities(ENTITIES, seed), 0.15);
    let (kg1, kg2) = (Arc::new(kg1), Arc::new(kg2));
    let svc = Pipeline::builder()
        .kg1(Arc::clone(&kg1))
        .kg2(Arc::clone(&kg2))
        .joint(joint_config())
        .index(NLIST)
        .shards(SHARDS)
        .ingress(IngressConfig::default())
        .build_sharded()?;
    Ok((Built { kg1, kg2, svc }, t.elapsed().as_secs_f64()))
}

/// One read: its left entity and the mode it asked for.
#[derive(Debug, Clone, Copy)]
struct Read {
    e1: u32,
    mode: QueryMode,
}

type ReadOutcome = Outcome<Served<Vec<(u32, f32)>>>;

/// The reads of one phase: uniform left entities, every
/// `EXACT_EVERY`-th one `Exact`.
fn reads(n1: usize, count: usize, rng: &mut StdRng) -> Vec<Read> {
    (0..count)
        .map(|i| Read {
            e1: rng.gen_range(0..n1 as u32),
            mode: if i % EXACT_EVERY == 0 {
                QueryMode::Exact
            } else {
                QueryMode::Approx { nprobe: NPROBE }
            },
        })
        .collect()
}

/// One open-loop phase of `reads` at the `due` offsets.
fn phase(svc: &ShardedService, due: &[Duration], reads: &[Read]) -> Vec<ReadOutcome> {
    run_open_loop(
        Instant::now(),
        due,
        |op| {
            let r = reads[op];
            svc.submit(r.e1, QueryOptions::top_k(K).with_mode(r.mode))
                .map(Issued::Pending)
                .map_err(|e| Failure::of(&e))
        },
        |pending: daakg::PendingAnswer| pending.wait_served().map_err(|e| Failure::of(&e)),
    )
}

fn schedule(rate: f64, secs: f64, n1: usize, rng: &mut StdRng) -> (Vec<Duration>, Vec<Read>) {
    let due = poisson(rate, Duration::from_secs_f64(secs), rng);
    let r = reads(n1, due.len(), rng);
    (due, r)
}

/// Check a sample of answers against the snapshot scan: `Exact` answers
/// must be bitwise equal; `Approx` answers score their recall@k.
/// Returns (mean quality over the sample, mean approx recall).
fn check(
    svc: &ShardedService,
    reads: &[Read],
    outcomes: &[ReadOutcome],
    out: &mut RunOutput,
) -> (f64, f64) {
    let snap = svc.service().current();
    let ok: Vec<&ReadOutcome> = outcomes.iter().filter(|o| o.result.is_ok()).collect();
    let mut quality = Vec::new();
    let mut recall = Vec::new();
    for i in served::sample_indices(ok.len(), CHECKED) {
        let o = ok[i];
        let answer = o.result.as_ref().expect("filtered to successes");
        let read = reads[o.op];
        if answer.version != snap.version || answer.served != read.mode {
            out.fail(format!(
                "read {} answered on {:?} as {:?}, expected {:?} as {:?}",
                o.op, answer.version, answer.served, snap.version, read.mode
            ));
            continue;
        }
        let exact = snap.snapshot.top_k_entities(read.e1, K);
        match read.mode {
            QueryMode::Exact => {
                let equal = served::bitwise_eq(&answer.value, &exact);
                if !equal {
                    out.fail(format!(
                        "exact read {} differs from the snapshot scan",
                        o.op
                    ));
                }
                quality.push(if equal { 1.0 } else { 0.0 });
            }
            QueryMode::Approx { .. } => {
                let hits = answer
                    .value
                    .iter()
                    .filter(|(id, _)| exact.iter().any(|(e, _)| e == id))
                    .count();
                let r = hits as f64 / exact.len().max(1) as f64;
                quality.push(r);
                recall.push(r);
            }
        }
    }
    (crate::stats::mean(&quality), crate::stats::mean(&recall))
}

pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    p99_limit_ms: f64,
) -> Result<RunOutput, DaakgError> {
    let mut out = RunOutput::default();
    let (built, setups) =
        served::repeat_set_up(if trace { 1 } else { SETUP_REPS }, || set_up(seed))?;
    let Built { kg1, kg2, svc } = built;
    let n1 = kg1.num_entities();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E27E);

    // The reference phase: two thirds of the run's seconds at the
    // reference rate; the rate ladder takes at most the rest.
    let ref_secs = seconds as f64 * 2.0 / 3.0;
    let (due, ref_reads) = schedule(REF_RATE, ref_secs, n1, &mut rng);
    let start = Instant::now();
    let ref_out = out.timed(|| phase(&svc, &due, &ref_reads));
    let ref_sum = served::summarize(&ref_out.iter().collect::<Vec<_>>(), |o| o.latency_ms());
    ref_sum.count_into(&mut out);
    out.detail("reference", ref_sum.json());
    let (quality, recall) = check(&svc, &ref_reads, &ref_out, &mut out);

    if !trace {
        // The rate ladder, ascending until a rung fails.
        let mut rungs = Vec::new();
        for i in 0..LADDER_RUNGS {
            let rate = REF_RATE * 2f64.powf(i as f64 / 2.0);
            let (due, rung_reads) = schedule(rate, RUNG_SECS, n1, &mut rng);
            let outcomes = out.timed(|| phase(&svc, &due, &rung_reads));
            let sum = served::summarize(&outcomes.iter().collect::<Vec<_>>(), |o| o.latency_ms());
            sum.count_into(&mut out);
            let rung = Rung {
                rate_qps: rate,
                achieved_qps: sum.achieved_qps,
                p99_ms: sum.p99.value,
                failed: sum.failed,
                drain_ms: sum.drain_ms,
            };
            rungs.push(rung);
            if !rung.passes(p99_limit_ms) {
                break;
            }
            // Let a loaded rung's queue settle before the next one.
            std::thread::sleep(Duration::from_millis(100));
        }
        let best = max_passing_rung(&rungs, p99_limit_ms);
        out.detail("p99_limit_ms", format!("{p99_limit_ms}"));
        out.detail(
            "max_rate_qps",
            format!("{:.2}", best.map_or(0.0, |r| r.achieved_qps)),
        );
        out.detail(
            "ladder",
            json_array(rungs.iter().map(|r| {
                format!(
                    "{{\"rate\":{:.1},\"achieved\":{:.1},\"p99_ms\":{:.3},\"failed\":{},\"drain_ms\":{:.3}}}",
                    r.rate_qps, r.achieved_qps, r.p99_ms, r.failed, r.drain_ms
                )
            })),
        );
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setups));
        m.insert("job_s", ref_sum.job_s);
        m.insert("latency_p50_ms", ref_sum.p50_windowed_ms);
        m.insert("latency_p90_ms", ref_sum.p90_windowed_ms);
        m.insert("quality", quality);
        return Ok(out);
    }

    // Traced run: a second reference phase with a span per read (due →
    // answer, with the schedule thread's lateness as its child), compared
    // with the untraced phase above.
    let (due, traced_reads) = schedule(REF_RATE, ref_secs, n1, &mut rng);
    let traced = out.timed(|| phase(&svc, &due, &traced_reads));
    let mut tracer = Tracer::new(start);
    for o in &traced {
        let req = o.op as u64;
        let root = tracer.record("read", req, o.due, o.done, None);
        tracer.record("load.late", req, o.due, o.sent, Some(root));
    }
    let traced_sum = served::summarize(&traced.iter().collect::<Vec<_>>(), |o| o.latency_ms());
    traced_sum.count_into(&mut out);
    check(&svc, &traced_reads, &traced, &mut out);
    let late_sum: f64 = ref_out.iter().chain(&traced).map(|o| o.late_ms()).sum();
    let lat_sum: f64 = ref_out
        .iter()
        .chain(&traced)
        .filter(|o| o.result.is_ok())
        .map(|o| o.latency_ms())
        .sum();
    let m = &mut out.metrics;
    served::registry_metrics(&svc, m);
    m.insert(
        "attributed_fraction",
        served::read_attribution(&svc, late_sum, lat_sum),
    );
    m.insert(
        "trace.overhead_ratio",
        traced_sum.p50.value / ref_sum.p50.value.max(1e-9) - 1.0,
    );
    m.insert("index.recall_at_k", recall);
    m.insert(
        "load.late_p99_ms",
        traced_sum.late_p99.value.max(ref_sum.late_p99.value),
    );
    m.insert(
        "load.late_max_ms",
        traced_sum.late_max_ms.max(ref_sum.late_max_ms),
    );
    // Nothing is trained here, and an epoch over a 100k-entity KG would
    // outlast the run, so the embedding-epoch probe is left to the other
    // workloads.
    let snap = svc.service().current().snapshot;
    probes::run(&joint_config(), &kg1, &kg2, &snap, false, &mut out.metrics)?;
    out.tracer = Some(tracer);
    Ok(out)
}
