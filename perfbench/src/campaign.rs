//! `campaign`: the paper's loop — select a batch, ask the oracle, infer,
//! retrain — through `ActiveLoop::run_service` with
//! `Strategy::InferencePower`, at one thread.
//!
//! The traced run drives the same loop step by step through the public
//! pieces (`train`, `generate_candidates`, `select_batch`,
//! `InferenceEngine::closure`, `fine_tune_with_inferred`,
//! `evaluate_alignment`) with a span around each call, and checks that
//! its cost curve equals `run_service`'s exactly, so its per-layer
//! numbers describe the same program.

use crate::host::json_array;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{probes, RunOutput};
use daakg::{ActiveConfig, ActiveLoop, AlignmentService, LabeledMatches, Pipeline, Strategy};
use daakg_active::driver::evaluate_alignment;
use daakg_active::{generate_candidates, select_batch, GoldOracle, Oracle, PowerContext};
use daakg_align::JointConfig;
use daakg_bench::synth::{synthetic_pair, SynthSpec};
use daakg_eval::{CostCurve, CostPoint};
use daakg_graph::Label;
use daakg_graph::{DaakgError, ElementPair, EntityId, FxHashSet, GoldAlignment, KnowledgeGraph};
use daakg_infer::{InferenceEngine, KnownMatches, RelationMatches};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// One thread: at two the campaign ran slower, with heavy host steal, and
/// the training trajectory changed with the thread count.
pub const THREADS: usize = 1;
/// Left-KG entities; chosen so every configured round runs.
const ENTITIES: usize = 3000;
/// Rounds of the loop.
const ROUNDS: usize = 6;
/// Questions per round.
const BATCH: usize = 25;
/// Every `LABEL_EVERY`-th gold match seeds the labeled set (about 3%).
const LABEL_EVERY: usize = 32;
/// Seconds of budget per untraced campaign (one campaign takes about
/// five on the 2-vCPU host the benchmark was tuned on).
const SECONDS_PER_CAMPAIGN: u64 = 6;
/// Distinct campaign inputs per seed: campaign `i` of a run with seed `s`
/// runs on the inputs of seed `s * INPUTS_PER_SEED + i`.
const INPUTS_PER_SEED: u64 = 16;
/// Extra set-ups timed after each campaign, for the `setup_s` median.
const EXTRA_SETUPS: usize = 6;
/// Share of left entities with no counterpart.
const DANGLING: f64 = 0.15;

/// A campaign's inputs, generated from the seed.
struct Inputs {
    kg1: Arc<KnowledgeGraph>,
    kg2: Arc<KnowledgeGraph>,
    gold: GoldAlignment,
    rels: RelationMatches,
    initial: LabeledMatches,
}

fn inputs(seed: u64) -> Inputs {
    let (kg1, kg2, gold) = synthetic_pair(SynthSpec::with_entities(ENTITIES, seed), DANGLING);
    // The generator mirrors relation `r{i}` as `s{i}`.
    let mut rels = RelationMatches::new();
    for r1 in kg1.relations() {
        if let Some(r2) = kg2.relation_by_name(&format!("s{}", r1.raw())) {
            rels.insert(r1.raw(), r2.raw());
        }
    }
    let mut initial = LabeledMatches::new();
    initial.entities = gold
        .entity_matches()
        .iter()
        .step_by(LABEL_EVERY)
        .map(|&(l, r)| (l.raw(), r.raw()))
        .collect();
    Inputs {
        kg1: Arc::new(kg1),
        kg2: Arc::new(kg2),
        gold,
        rels,
        initial,
    }
}

fn joint_config() -> JointConfig {
    let mut cfg = JointConfig::default();
    cfg.embed.threads = THREADS;
    cfg
}

/// Set-up: KG generation plus `build_active`.
fn set_up(seed: u64) -> Result<(Inputs, AlignmentService, ActiveLoop, f64), DaakgError> {
    let t = Instant::now();
    let inp = inputs(seed);
    let (service, active) = Pipeline::builder()
        .kg1(Arc::clone(&inp.kg1))
        .kg2(Arc::clone(&inp.kg2))
        .joint(joint_config())
        .active(ActiveConfig {
            rounds: ROUNDS,
            batch_size: BATCH,
            ..ActiveConfig::default()
        })
        .strategy(Strategy::InferencePower)
        .build_active()?;
    Ok((inp, service, active, t.elapsed().as_secs_f64()))
}

/// The gold oracle, with the instant and answer of every question.
struct TimedOracle<'a> {
    inner: GoldOracle<'a>,
    asks: Vec<(Instant, (u32, u32), bool)>,
}

impl Oracle for TimedOracle<'_> {
    fn ask(&mut self, pair: ElementPair) -> Label {
        let at = Instant::now();
        let label = self.inner.ask(pair);
        if let ElementPair::Entity(l, r) = pair {
            self.asks.push((at, (l.raw(), r.raw()), label.is_match()));
        }
        label
    }

    fn questions(&self) -> usize {
        self.inner.questions()
    }
}

/// Every question put to the oracle, in order, with its answer.
type Asks = Vec<((u32, u32), bool)>;

/// What one campaign produced.
struct Campaign {
    setup_s: f64,
    job_s: f64,
    first_batch_s: f64,
    /// Last answer of a round → first question of the next, in ms.
    round_waits_ms: Vec<f64>,
    curve: CostCurve,
    asks: Asks,
}

impl Campaign {
    fn rounds_run(&self) -> usize {
        self.curve.len().saturating_sub(1)
    }
}

/// The human's waits between rounds: the gap before the first question
/// of each round after the first, from the curve's cumulative counts.
fn round_waits_ms(curve: &CostCurve, asks: &[Instant]) -> Vec<f64> {
    let points = curve.points();
    points
        .iter()
        .skip(1)
        .map(|p| p.questions)
        .filter(|&q| q > 0 && q < asks.len())
        .map(|q| asks[q].saturating_duration_since(asks[q - 1]).as_secs_f64() * 1e3)
        .collect()
}

fn run_untraced(seed: u64) -> Result<Campaign, DaakgError> {
    let (inp, service, active, setup_s) = set_up(seed)?;
    let mut oracle = TimedOracle {
        inner: GoldOracle::new(&inp.gold),
        asks: Vec::new(),
    };
    let start = Instant::now();
    let curve = active.run_service(&service, &inp.rels, &mut oracle, &inp.gold, &inp.initial)?;
    let job_s = start.elapsed().as_secs_f64();
    let instants: Vec<Instant> = oracle.asks.iter().map(|a| a.0).collect();
    let first_batch_s = instants
        .first()
        .map_or(job_s, |t| t.saturating_duration_since(start).as_secs_f64());
    Ok(Campaign {
        setup_s,
        job_s,
        first_batch_s,
        round_waits_ms: round_waits_ms(&curve, &instants),
        asks: oracle.asks.iter().map(|a| (a.1, a.2)).collect(),
        curve,
    })
}

/// Counts gathered by the traced replica.
#[derive(Default)]
struct Counts {
    candidates: Vec<f64>,
    derived: usize,
    accepted: usize,
}

/// The loop of `ActiveLoop::run_service`, step by step, with a span
/// around every call into a layer. Must stay step-for-step identical to
/// it: the caller checks the cost curves match exactly.
fn run_traced(
    inp: &Inputs,
    service: &AlignmentService,
    cfg: &ActiveConfig,
    tracer: &mut Tracer,
) -> Result<(CostCurve, Asks, Counts), DaakgError> {
    let mut counts = Counts::default();
    let mut oracle = GoldOracle::new(&inp.gold);
    let mut asks = Vec::new();
    let mut labels = inp.initial.clone();
    let mut snap = tracer
        .time("align.train", 0, || service.train(&labels))?
        .snapshot;
    let engine = InferenceEngine::new(&inp.kg1, &inp.kg2, cfg.infer)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut known = KnownMatches::from_pairs(labels.entities.iter().copied());
    let mut asked: FxHashSet<(u32, u32)> = labels.entities.iter().copied().collect();
    let mut accepted_all: Vec<(u32, u32, f32)> = Vec::new();
    let mut curve = CostCurve::new();
    let (h1, mrr) = tracer.time("eval.round", 0, || {
        evaluate_alignment(&snap, &known, &inp.gold, cfg.eval_depth)
    });
    curve.push(CostPoint {
        questions: oracle.questions(),
        labeled: labels.entities.len(),
        inferred: 0,
        h1,
        mrr,
    });
    for round in 1..=cfg.rounds as u64 {
        let span = tracer.enter("round", round);
        let candidates = tracer.time("active.candidates", round, || {
            generate_candidates(&snap, &known, &asked, cfg.per_query)
        });
        counts.candidates.push(candidates.len() as f64);
        if candidates.is_empty() {
            tracer.exit(span);
            break;
        }
        let ctx = PowerContext {
            engine: &engine,
            known: &known,
            rels: &inp.rels,
            sim: snap.as_ref(),
        };
        let batch = tracer.time("active.select", round, || {
            select_batch(
                Strategy::InferencePower,
                &candidates,
                cfg.batch_size,
                &ctx,
                &mut rng,
            )
        });
        if batch.is_empty() {
            tracer.exit(span);
            break;
        }
        let ask = tracer.enter("oracle.ask", round);
        for c in &batch {
            asked.insert((c.left, c.right));
            let answer = oracle.ask(ElementPair::Entity(
                EntityId::new(c.left),
                EntityId::new(c.right),
            ));
            asks.push(((c.left, c.right), answer.is_match()));
            if answer.is_match() && known.insert(c.left, c.right) {
                labels.entities.push((c.left, c.right));
            }
        }
        tracer.exit(ask);
        let mut seeds: Vec<(u32, u32)> = labels.entities.clone();
        seeds.extend(accepted_all.iter().map(|&(l, r, _)| (l, r)));
        let inferred = tracer.time("infer.closure", round, || {
            engine.closure(&seeds, &known, &inp.rels, snap.as_ref())
        });
        counts.derived += inferred.len();
        let mut newly_accepted = 0usize;
        let mut soft: Vec<(u32, u32, f32)> = Vec::new();
        for m in &inferred {
            if asked.contains(&(m.left, m.right)) {
                continue;
            }
            if m.confidence >= cfg.accept_confidence {
                if known.insert(m.left, m.right) {
                    accepted_all.push((m.left, m.right, m.confidence));
                    newly_accepted += 1;
                }
            } else {
                soft.push((m.left, m.right, m.confidence));
            }
        }
        counts.accepted += newly_accepted;
        let mut injected = accepted_all.clone();
        injected.extend(soft);
        snap = tracer
            .time("align.fine_tune", round, || {
                service.fine_tune_with_inferred(&labels, &injected, cfg.accept_confidence)
            })?
            .snapshot;
        let (h1, mrr) = tracer.time("eval.round", round, || {
            evaluate_alignment(&snap, &known, &inp.gold, cfg.eval_depth)
        });
        curve.push(CostPoint {
            questions: oracle.questions(),
            labeled: labels.entities.len(),
            inferred: newly_accepted,
            h1,
            mrr,
        });
        tracer.exit(span);
    }
    Ok((curve, asks, counts))
}

/// The stages whose self time counts as attributed.
const STAGES: [&str; 7] = [
    "align.train",
    "align.fine_tune",
    "active.candidates",
    "active.select",
    "oracle.ask",
    "infer.closure",
    "eval.round",
];

/// The input seed of campaign `i` of a run with seed `seed`.
fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(INPUTS_PER_SEED).wrapping_add(i as u64)
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<RunOutput, DaakgError> {
    let mut out = RunOutput::default();
    // One campaign per `SECONDS_PER_CAMPAIGN` of the budget, each on its
    // own inputs, so a run's medians average over inputs as well as over
    // time. Set-up is short, so a few more are timed after each campaign:
    // their median then spans the run. The traced run needs only one
    // untraced campaign to compare against.
    let count = if trace {
        1
    } else {
        (seconds / SECONDS_PER_CAMPAIGN).clamp(1, INPUTS_PER_SEED) as usize
    };
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    for i in 0..count {
        let c = out.timed(|| run_untraced(input_seed(seed, i)))?;
        setups.push(c.setup_s);
        for _ in 0..EXTRA_SETUPS {
            setups.push(set_up(input_seed(seed, i))?.3);
        }
        runs.push(c);
    }
    for (i, r) in runs.iter().enumerate() {
        out.attempted += 1;
        if r.rounds_run() != ROUNDS {
            out.fail(format!(
                "campaign {i} ran {} of {ROUNDS} rounds",
                r.rounds_run()
            ));
        }
    }
    let col = |f: fn(&Campaign) -> f64| runs.iter().map(f).collect::<Vec<_>>();
    // Each campaign's p50 and p90 of its round waits (with a few waits,
    // its p90 is its longest), then the median over campaigns, so a host
    // stall during one campaign does not set the run's figure.
    let per_campaign = |q: f64| {
        let v: Vec<f64> = runs
            .iter()
            .map(|r| percentile(&r.round_waits_ms, q).value)
            .collect();
        median(&v)
    };
    let (p50, p90) = (per_campaign(0.5), per_campaign(0.9));
    out.detail("campaigns", runs.len().to_string());
    out.detail(
        "job_s_each",
        json_array(runs.iter().map(|r| format!("{:.4}", r.job_s))),
    );
    out.detail(
        "first_batch_s",
        format!("{:.6}", median(&col(|r| r.first_batch_s))),
    );
    out.detail("round_p50_ms", format!("{p50:.6}"));
    out.detail(
        "final_mrr",
        format!("{:.6}", median(&col(|r| r.curve.final_mrr()))),
    );
    out.detail(
        "questions_per_round",
        json_array(runs.iter().map(|r| {
            json_array(
                r.curve
                    .points()
                    .windows(2)
                    .map(|w| w[1].questions - w[0].questions),
            )
        })),
    );

    if !trace {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setups));
        m.insert("job_s", median(&col(|r| r.job_s)));
        m.insert("latency_p50_ms", p50);
        m.insert("latency_p90_ms", p90);
        m.insert("quality", median(&col(|r| r.curve.final_h1())));
        return Ok(out);
    }

    // The traced replica on a fresh service built the same way, on the
    // same inputs as the untraced campaign.
    let reference = &runs[0];

    let (inp, service, active, _) = set_up(input_seed(seed, 0))?;
    let start = Instant::now();
    let mut tracer = Tracer::new(start);
    let root = tracer.enter("campaign", 0);
    let (curve, asks, counts) =
        out.timed(|| run_traced(&inp, &service, active.config(), &mut tracer))?;
    tracer.exit(root);
    let traced_s = start.elapsed().as_secs_f64();
    // A second untraced campaign brackets the traced one, so drift over
    // the run does not read as tracing overhead.
    let after = out.timed(|| run_untraced(input_seed(seed, 0)))?;
    let untraced_s = (reference.job_s + after.job_s) / 2.0;
    out.attempted += 2;
    if curve != reference.curve || asks != reference.asks {
        out.fail("the traced replica's cost curve differs from run_service's".into());
    }
    if after.curve != reference.curve || after.asks != reference.asks {
        out.fail("a second run_service campaign on the same inputs differs from the first".into());
    }
    let stages = tracer.stages();
    let p50_ms = |name: &str| {
        stages.get(name).map_or(0.0, |s| {
            let v: Vec<f64> = s.self_ns.iter().map(|&n| n as f64 / 1e6).collect();
            percentile(&v, 0.5).value
        })
    };
    let attributed: u64 = STAGES
        .iter()
        .filter_map(|n| stages.get(n))
        .map(|s| s.total_ns())
        .sum();
    let questions = asks.len().max(1) as f64;
    let positives = asks.iter().filter(|a| a.1).count() as f64;
    out.detail("candidates_per_round", json_array(&counts.candidates));
    let m = &mut out.metrics;
    m.insert("rounds_run", (curve.len() - 1) as f64);
    m.insert("attributed_fraction", attributed as f64 / 1e9 / traced_s);
    m.insert("trace.overhead_ratio", traced_s / untraced_s - 1.0);
    m.insert("align.train_ms", p50_ms("align.train"));
    m.insert("align.fine_tune_ms", p50_ms("align.fine_tune"));
    m.insert("active.candidates_ms", p50_ms("active.candidates"));
    m.insert("active.candidates", median(&counts.candidates));
    m.insert("active.select_ms", p50_ms("active.select"));
    m.insert("oracle.positive_ratio", positives / questions);
    m.insert("infer.closure_ms", p50_ms("infer.closure"));
    m.insert("infer.derived", counts.derived as f64);
    m.insert(
        "infer.accept_ratio",
        counts.accepted as f64 / counts.derived.max(1) as f64,
    );
    m.insert("eval.round_ms", p50_ms("eval.round"));
    let snap = service.current().snapshot;
    probes::run(
        &joint_config(),
        &inp.kg1,
        &inp.kg2,
        &snap,
        true,
        &mut out.metrics,
    )?;
    out.tracer = Some(tracer);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn round_waits_span_round_boundaries() {
        let t0 = Instant::now();
        let asks: Vec<Instant> = [0u64, 1, 2, 50, 51, 52, 120]
            .iter()
            .map(|&ms| t0 + Duration::from_millis(ms))
            .collect();
        let mut curve = CostCurve::new();
        for q in [0, 3, 6, 7] {
            curve.push(CostPoint {
                questions: q,
                labeled: 0,
                inferred: 0,
                h1: 0.0,
                mrr: 0.0,
            });
        }
        assert_eq!(round_waits_ms(&curve, &asks), vec![48.0, 68.0]);
    }
}
