//! `live_rw`: writes beside reads, at one thread. A durable, live,
//! 2-shard service with the ingress takes paced `upsert_entity` calls
//! and open-loop exact reads from one schedule thread; a collector
//! thread waits for the answers. Compaction is count-driven
//! (`compact_after` with a tick far longer than the run), so every phase
//! folds exactly `FOLDS` times.
//!
//! Reads pay the delta merge and the version churn (the first read on
//! each folded version rebuilds the shard slabs on the query path);
//! writes pay the warm start plus the segment write and fsync.

use crate::host::json_array;
use crate::load::{poisson, run_open_loop, Failure, Issued, Outcome};
use crate::served::{self, Built};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{probes, work_dir, Metrics, RunOutput};
use daakg::{
    DeltaTriple, IngressConfig, LiveConfig, Pipeline, QueryOptions, Served, ShardedService,
};
use daakg_align::JointConfig;
use daakg_bench::synth::{synthetic_pair, SynthSpec};
use daakg_graph::DaakgError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One thread: the read and write paths here are sequential, and one
/// thread keeps the fold and warm-start costs free of spawn noise.
pub const THREADS: usize = 1;
const ENTITIES: usize = 20_000;
const SHARDS: usize = 2;
const K: usize = 10;
/// Folds per load phase, and the pending depth that triggers each.
const FOLDS: usize = 4;
const COMPACT_AFTER: usize = 25;
/// Far longer than a run: only `compact_after` triggers folds.
const TICK: Duration = Duration::from_secs(3600);
/// Read arrivals per second.
const READ_RATE: f64 = 500.0;
/// Anchoring triples per upserted entity.
const TRIPLES: usize = 3;
/// Full set-ups timed per run, for the `setup_s` median.
const SETUP_REPS: usize = 3;
/// Reads checked against a scan of the union corpus.
const CHECKED: usize = 200;
/// How long to wait for the last fold to land.
const FOLD_WAIT: Duration = Duration::from_secs(30);

fn joint_config() -> JointConfig {
    let mut cfg = JointConfig::default();
    cfg.embed.threads = THREADS;
    cfg
}

/// Remove a directory tree if present.
fn remove_dir(path: &Path) {
    if path.exists() {
        let _ = std::fs::remove_dir_all(path);
    }
}

fn store_dir(seed: u64) -> PathBuf {
    work_dir().join(format!("live_rw-{seed}-{}", std::process::id()))
}

/// Set-up: KG generation, a durable build in a fresh directory, and
/// `enable_live`.
fn set_up(seed: u64, dir: &Path) -> Result<(Built, f64), DaakgError> {
    remove_dir(dir);
    let t = Instant::now();
    let (kg1, kg2, _gold) = synthetic_pair(SynthSpec::with_entities(ENTITIES, seed), 0.15);
    let (kg1, kg2) = (Arc::new(kg1), Arc::new(kg2));
    let svc = Pipeline::builder()
        .kg1(Arc::clone(&kg1))
        .kg2(Arc::clone(&kg2))
        .joint(joint_config())
        .store(dir)
        .live(LiveConfig {
            compact_after: COMPACT_AFTER,
            tick: TICK,
            ..LiveConfig::default()
        })
        .shards(SHARDS)
        .ingress(IngressConfig::default())
        .build_sharded()?;
    Ok((Built { kg1, kg2, svc }, t.elapsed().as_secs_f64()))
}

/// One scheduled operation.
#[derive(Debug, Clone)]
enum Op {
    Read(u32),
    Upsert(Vec<DeltaTriple>),
}

/// A read's answer.
type Answer = Served<Vec<(u32, f32)>>;

/// What an operation produced.
enum Done {
    Read(Answer),
    Upsert(u32),
}

/// A phase's schedule: Poisson reads plus `FOLDS * COMPACT_AFTER`
/// upserts evenly spaced over `secs`, merged in due order.
fn schedule(
    secs: f64,
    n1: usize,
    n2: usize,
    rels: usize,
    rng: &mut StdRng,
) -> (Vec<Duration>, Vec<Op>) {
    let mut ops: Vec<(Duration, Op)> = poisson(READ_RATE, Duration::from_secs_f64(secs), rng)
        .into_iter()
        .map(|d| (d, Op::Read(rng.gen_range(0..n1 as u32))))
        .collect();
    let upserts = FOLDS * COMPACT_AFTER;
    for i in 0..upserts {
        let due = Duration::from_secs_f64(secs * (i as f64 + 0.5) / upserts as f64);
        let triples = (0..TRIPLES)
            .map(|_| DeltaTriple {
                rel: rng.gen_range(0..rels as u32),
                neighbor: rng.gen_range(0..n2 as u32),
                outgoing: rng.gen_range(0..2u32) == 0,
            })
            .collect();
        ops.push((due, Op::Upsert(triples)));
    }
    ops.sort_by_key(|(d, _)| *d);
    ops.into_iter().unzip()
}

struct Phase {
    ops: Vec<Op>,
    outcomes: Vec<Outcome<Done>>,
    /// Version and right-entity count before the phase.
    v0: u64,
    n0: usize,
    folds: u64,
}

fn run_phase(
    svc: &ShardedService,
    secs: f64,
    n1: usize,
    rng: &mut StdRng,
) -> Result<Phase, DaakgError> {
    let inner = svc.service();
    let cur = inner.current();
    let (v0, n0) = (cur.version.get(), cur.snapshot.entity_counts().1);
    let folds0 = inner.live_health().map_or(0, |h| h.compactions);
    let (due, ops) = schedule(secs, n1, n0, inner.kg2().num_relations(), rng);
    let outcomes = run_open_loop(
        Instant::now(),
        &due,
        |op| match &ops[op] {
            Op::Read(e1) => svc
                .submit(*e1, QueryOptions::top_k(K))
                .map(Issued::Pending)
                .map_err(|e| Failure::of(&e)),
            Op::Upsert(triples) => inner
                .upsert_entity(triples)
                .map(|id| Issued::Ready(Done::Upsert(id)))
                .map_err(|e| Failure::of(&e)),
        },
        |pending: daakg::PendingAnswer| {
            pending
                .wait_served()
                .map(Done::Read)
                .map_err(|e| Failure::of(&e))
        },
    );
    // Wait for the last count-driven fold to land.
    let deadline = Instant::now() + FOLD_WAIT;
    let target = folds0 + FOLDS as u64;
    while inner.live_health().map_or(0, |h| h.compactions) < target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let folds = inner.live_health().map_or(0, |h| h.compactions) - folds0;
    Ok(Phase {
        ops,
        outcomes,
        v0,
        n0,
        folds,
    })
}

impl Phase {
    fn reads(&self) -> Vec<&Outcome<Done>> {
        self.outcomes
            .iter()
            .filter(|o| matches!(self.ops[o.op], Op::Read(_)))
            .collect()
    }

    fn upserts(&self) -> Vec<&Outcome<Done>> {
        self.outcomes
            .iter()
            .filter(|o| matches!(self.ops[o.op], Op::Upsert(_)))
            .collect()
    }

    /// The corpus a read answered over: the folded base of its version
    /// plus the delta rows merged into it.
    fn corpus(&self, a: &Answer) -> usize {
        let folds = (a.version.get() - self.v0) as usize;
        self.n0 + folds * COMPACT_AFTER + a.deltas_merged as usize
    }

    /// Every check of the phase; returns the share of sampled reads equal
    /// to a scan of the union corpus.
    fn check(&self, svc: &ShardedService, out: &mut RunOutput) -> f64 {
        let inner = svc.service();
        if self.folds != FOLDS as u64 {
            out.fail(format!(
                "phase folded {} times, expected {FOLDS}",
                self.folds
            ));
        }
        let depth = inner.live_health().map_or(usize::MAX, |h| h.delta_depth);
        if depth != 0 {
            out.fail(format!("{depth} upserts still pending after the last fold"));
        }
        let fin = inner.current();
        let upserted = FOLDS * COMPACT_AFTER;
        if fin.snapshot.entity_counts().1 != self.n0 + upserted {
            out.fail(format!(
                "final corpus holds {} entities, expected {}",
                fin.snapshot.entity_counts().1,
                self.n0 + upserted
            ));
        }
        // Every acknowledged upsert is in the corpus of every read sent
        // after the acknowledgement.
        let mut acked: Vec<(Instant, u32)> = Vec::new();
        for o in &self.outcomes {
            if let Ok(Done::Upsert(id)) = &o.result {
                acked.push((o.done, *id));
            }
        }
        for o in self.reads() {
            if let Ok(Done::Read(a)) = &o.result {
                let n = self.corpus(a);
                if let Some(&(_, id)) = acked.iter().rfind(|(t, _)| *t <= o.sent) {
                    if n <= id as usize {
                        out.fail(format!(
                            "read {} sent after upsert {id} was acknowledged answered over {n} entities",
                            o.op
                        ));
                    }
                }
            }
        }
        // Sampled merged answers equal a scan of the union corpus, read
        // off the final snapshot (folds append rows and leave the rest).
        let reads: Vec<(&Outcome<Done>, &Answer)> = self
            .reads()
            .into_iter()
            .filter_map(|o| match &o.result {
                Ok(Done::Read(a)) => Some((o, a)),
                _ => None,
            })
            .collect();
        let sample = served::sample_indices(reads.len(), CHECKED);
        let mut equal = 0usize;
        for &i in &sample {
            let (o, a) = reads[i];
            let Op::Read(e1) = self.ops[o.op] else {
                continue;
            };
            let n = self.corpus(a);
            let expect: Vec<(u32, f32)> = fin
                .snapshot
                .rank_entities(e1)
                .into_iter()
                .filter(|&(id, _)| (id as usize) < n)
                .take(K)
                .collect();
            if served::bitwise_eq(&a.value, &expect) {
                equal += 1;
            } else {
                out.fail(format!(
                    "read {} (version {}, {} deltas merged) differs from a scan of the union corpus",
                    o.op,
                    a.version.get(),
                    a.deltas_merged
                ));
            }
        }
        equal as f64 / sample.len().max(1) as f64
    }

    /// Latency from due time of the first read answered on each version
    /// a fold published: the shard-slab rebuild it waited for.
    fn rebuild_stalls_ms(&self) -> Vec<f64> {
        let mut firsts: Vec<(u64, Instant, f64)> = Vec::new();
        for o in self.reads() {
            if let Ok(Done::Read(a)) = &o.result {
                let v = a.version.get();
                if v == self.v0 {
                    continue;
                }
                match firsts.iter_mut().find(|f| f.0 == v) {
                    Some(f) if o.done < f.1 => *f = (v, o.done, o.latency_ms()),
                    Some(_) => {}
                    None => firsts.push((v, o.done, o.latency_ms())),
                }
            }
        }
        firsts.into_iter().map(|f| f.2).collect()
    }
}

/// Bytes of the delta segment one upsert writes: one more upsert, below
/// the fold trigger, and the size of the segment file it leaves.
fn segment_bytes(svc: &ShardedService, dir: &Path) -> Result<f64, DaakgError> {
    svc.service().upsert_entity(&[DeltaTriple {
        rel: 0,
        neighbor: 0,
        outgoing: true,
    }])?;
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| DaakgError::io_at(dir, e))? {
        let path = entry.map_err(|e| DaakgError::io_at(dir, e))?.path();
        if path.extension().is_some_and(|x| x == "dseg") {
            bytes = bytes.max(std::fs::metadata(&path).map_or(0, |m| m.len()));
        }
    }
    Ok(bytes as f64)
}

fn registry_metrics(svc: &ShardedService, m: &mut Metrics) {
    served::registry_metrics(svc, m);
    let p50_ms = |name: &str| served::stage(svc, name).0 / 1e6;
    m.insert("delta.fold_ms", p50_ms("stage_fold_ns"));
    m.insert("delta.republish_ms", p50_ms("stage_republish_ns"));
    m.insert("delta.persist_ms", p50_ms("stage_persist_ns"));
    m.insert("embed.warm_start_ms", p50_ms("stage_warm_start_ns"));
    m.insert("store.write_ms", p50_ms("stage_store_write_ns"));
    m.insert("store.fsync_ms", p50_ms("stage_store_fsync_ns"));
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<RunOutput, DaakgError> {
    let dir = store_dir(seed);
    let result = run_in(seed, seconds, trace, &dir);
    remove_dir(&dir);
    result
}

fn run_in(seed: u64, seconds: u64, trace: bool, dir: &Path) -> Result<RunOutput, DaakgError> {
    let mut out = RunOutput::default();
    let (built, setups) =
        served::repeat_set_up(if trace { 1 } else { SETUP_REPS }, || set_up(seed, dir))?;
    let Built { kg1, kg2, svc } = built;
    let n1 = kg1.num_entities();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE);
    let secs = seconds as f64 * 0.8;

    let phase = out.timed(|| run_phase(&svc, secs, n1, &mut rng))?;
    let reads = phase.reads();
    let upserts = phase.upserts();
    let read_sum = served::summarize(&reads, |o| o.latency_ms());
    let upsert_sum = served::summarize(&upserts, |o| o.call_ms());
    read_sum.count_into(&mut out);
    upsert_sum.count_into(&mut out);
    let quality = phase.check(&svc, &mut out);
    let stalls = phase.rebuild_stalls_ms();
    out.detail("reads", read_sum.json());
    out.detail("upserts", upsert_sum.json());
    out.detail("upsert_p50_ms", format!("{:.4}", upsert_sum.p50.value));
    out.detail("upsert_p99_ms", format!("{:.4}", upsert_sum.p99.value));
    out.detail("folds", phase.folds.to_string());
    out.detail(
        "rebuild_stalls_ms",
        json_array(stalls.iter().map(|s| format!("{s:.3}"))),
    );

    if !trace {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setups));
        m.insert("job_s", read_sum.job_s);
        m.insert("latency_p50_ms", read_sum.p50_windowed_ms);
        m.insert("latency_p90_ms", read_sum.p90_windowed_ms);
        m.insert("quality", quality);
        return Ok(out);
    }

    // Traced run: a second phase with a span per operation, compared
    // with the untraced phase above.
    let traced = out.timed(|| run_phase(&svc, secs, n1, &mut rng))?;
    traced.check(&svc, &mut out);
    let mut tracer = Tracer::new(phase.outcomes[0].due);
    for o in &traced.outcomes {
        let req = o.op as u64;
        match traced.ops[o.op] {
            Op::Read(_) => {
                let root = tracer.record("read", req, o.due, o.done, None);
                tracer.record("load.late", req, o.due, o.sent, Some(root));
            }
            Op::Upsert(_) => {
                tracer.record("upsert", req, o.sent, o.done, None);
            }
        }
    }
    let t_reads = traced.reads();
    let t_upserts = traced.upserts();
    let t_read_sum = served::summarize(&t_reads, |o| o.latency_ms());
    served::summarize(&t_upserts, |o| o.call_ms()).count_into(&mut out);
    t_read_sum.count_into(&mut out);
    let all_reads: Vec<&Outcome<Done>> = reads.iter().chain(&t_reads).copied().collect();
    let all_upserts: Vec<&Outcome<Done>> = upserts.iter().chain(&t_upserts).copied().collect();
    let late_sum: f64 = all_reads.iter().map(|o| o.late_ms()).sum();
    let read_ms: f64 = all_reads
        .iter()
        .filter(|o| o.result.is_ok())
        .map(|o| o.latency_ms())
        .sum();
    let upsert_ms: f64 = all_upserts.iter().map(|o| o.call_ms()).sum();
    let depths: Vec<f64> = all_reads
        .iter()
        .filter_map(|o| match &o.result {
            Ok(Done::Read(a)) => Some(a.deltas_merged as f64),
            _ => None,
        })
        .collect();
    let mut all_stalls = stalls;
    all_stalls.extend(traced.rebuild_stalls_ms());

    let read_attr = served::read_attribution(&svc, late_sum, read_ms) * read_ms;
    // Upsert time the registry accounts for: the warm start, plus store
    // time outside snapshot persists (the segment write and fsync).
    let sum_ns = |name: &str| served::stage(&svc, name).2;
    let segment_ns = (sum_ns("stage_store_write_ns") + sum_ns("stage_store_fsync_ns")
        - sum_ns("stage_persist_ns"))
    .max(0.0);
    let upsert_attr = (sum_ns("stage_warm_start_ns") + segment_ns) / 1e6;
    let bytes = segment_bytes(&svc, dir)?;

    let m = &mut out.metrics;
    registry_metrics(&svc, m);
    m.insert(
        "attributed_fraction",
        (read_attr + upsert_attr) / (read_ms + upsert_ms).max(1e-9),
    );
    m.insert(
        "trace.overhead_ratio",
        t_read_sum.p50.value / read_sum.p50.value.max(1e-9) - 1.0,
    );
    m.insert("live.folds", traced.folds as f64);
    m.insert("delta.depth_mean", crate::stats::mean(&depths));
    m.insert("shard.rebuild_stall_ms", percentile(&all_stalls, 0.5).value);
    m.insert("store.bytes_per_upsert", bytes);
    m.insert(
        "load.late_p99_ms",
        t_read_sum.late_p99.value.max(read_sum.late_p99.value),
    );
    m.insert(
        "load.late_max_ms",
        t_read_sum.late_max_ms.max(read_sum.late_max_ms),
    );
    let snap = svc.service().current().snapshot;
    probes::run(&joint_config(), &kg1, &kg2, &snap, true, &mut out.metrics)?;
    out.tracer = Some(tracer);
    drop(svc);
    Ok(out)
}
