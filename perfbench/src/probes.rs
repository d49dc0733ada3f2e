//! Probe calls that time one layer in isolation on a workload's own KG
//! pair: an embedding epoch, a snapshot build, the batched scan kernel
//! and the `daakg-parallel` fan-out.

use crate::stats::median;
use crate::Metrics;
use daakg_align::{AlignmentSnapshot, JointConfig, JointModel};
use daakg_autograd::{Adam, ParamStore};
use daakg_embed::{EmbedTrainer, KgEmbedding, TransE};
use daakg_graph::{DaakgError, KnowledgeGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Queries per probe of the batched scan kernel.
const SCAN_QUERIES: usize = 64;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run the probes and record `embed.epoch_ms` (only with `epoch`),
/// `align.snapshot_build_ms`, `align.scan_us_per_query` and
/// `parallel.fanout_us`. `snap` is the snapshot the workload served or
/// trained last.
pub fn run(
    cfg: &JointConfig,
    kg1: &KnowledgeGraph,
    kg2: &KnowledgeGraph,
    snap: &AlignmentSnapshot,
    epoch: bool,
    metrics: &mut Metrics,
) -> Result<(), DaakgError> {
    if epoch {
        embed_epoch(cfg, kg1, metrics)?;
    }
    snapshot_and_scan(cfg, kg1, kg2, snap, metrics)
}

/// One embedding epoch on the left KG from a seeded init.
fn embed_epoch(
    cfg: &JointConfig,
    kg1: &KnowledgeGraph,
    metrics: &mut Metrics,
) -> Result<(), DaakgError> {
    let epoch_cfg = daakg_embed::EmbedConfig {
        epochs: 1,
        ..cfg.embed
    };
    let model = TransE::new(kg1, epoch_cfg.dim);
    let mut store = ParamStore::new();
    model.init_params(&mut StdRng::seed_from_u64(41), &mut store, "g.");
    let trainer = EmbedTrainer::new(epoch_cfg)?;
    let mut opt = Adam::with_lr(epoch_cfg.lr);
    let t = Instant::now();
    black_box(trainer.train(&model, None, kg1, &mut store, "g.", &mut opt));
    metrics.insert("embed.epoch_ms", ms_since(t));
    Ok(())
}

fn snapshot_and_scan(
    cfg: &JointConfig,
    kg1: &KnowledgeGraph,
    kg2: &KnowledgeGraph,
    snap: &AlignmentSnapshot,
    metrics: &mut Metrics,
) -> Result<(), DaakgError> {
    // Snapshot build of a freshly initialised joint model.
    let joint = JointModel::new(*cfg, kg1, kg2)?;
    let t = Instant::now();
    black_box(joint.snapshot(kg1, kg2));
    metrics.insert("align.snapshot_build_ms", ms_since(t));

    // The batched scan kernel: one block of queries, median of 5.
    let (n1, _) = snap.entity_counts();
    let queries: Vec<u32> = (0..SCAN_QUERIES)
        .map(|i| ((i * 7919) % n1.max(1)) as u32)
        .collect();
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(snap.top_k_entities_block(black_box(&queries), 10));
            ms_since(t) * 1e3 / SCAN_QUERIES as f64
        })
        .collect();
    metrics.insert("align.scan_us_per_query", median(&reps));

    // An empty two-way fan-out at the pinned thread count.
    let reps: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            black_box(daakg_parallel::par_map_ranges(2, 2, |r| r.len()));
            ms_since(t) * 1e3
        })
        .collect();
    metrics.insert("parallel.fanout_us", median(&reps));
    Ok(())
}
