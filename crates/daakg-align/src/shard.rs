//! The query engine and its sharded front-end, [`ShardedService`].
//!
//! Every query of an [`AlignmentService`] runs through one engine,
//! `answer`: pin a version, scatter over that version's shards, merge
//! the per-shard top-k lists through the bounded-heap [`TopKSelector`],
//! then merge the live delta slab once. A shard is a contiguous column
//! range `[base, base + len)` of the one transposed candidate matrix the
//! snapshot's [`BatchedSimilarity`] already holds — shards scan it in
//! place, so the corpus is never copied per shard. In `Approx` mode each
//! shard probes its own IVF index, built once per version and kept on the
//! snapshot. An unsharded service is the 1-shard case: the one shard
//! splits a batch across `daakg-parallel` workers instead, and probes the
//! snapshot's own (possibly persisted) index.
//!
//! # Bitwise-identical exact answers
//!
//! Sharded `Exact` results reproduce the unsharded scan **bitwise, ties
//! included**, by construction:
//!
//! * row normalization is per-row, so a column range of the normalized
//!   candidate matrix holds exactly the rows the unsharded engine scans;
//! * the scan kernel computes each (query, candidate) dot product by the
//!   same sequential accumulation over the depth dimension regardless of
//!   the candidate's column position, so per-shard scores equal unsharded
//!   scores bitwise;
//! * each shard pushes the candidates' **global** ids, and
//!   [`TopKSelector`] selection is push-order-independent under *(score
//!   desc, id asc)* — so merging the per-shard top-k lists through one
//!   more selector yields exactly the unsharded top-k (every globally
//!   retained candidate is necessarily in its own shard's top-k).
//!
//! # One coherent version per request
//!
//! Every request pins **one** [`VersionedSnapshot`] up front and reads
//! the shard ranges, per-shard indexes and delta slab of exactly that
//! version; concurrent publishes never mix versions into one answer.
//!
//! With a [`crate::IngressConfig`], a micro-batching ingress sits in
//! front of the single-query path: see [`crate::ingress`].

use crate::batched::BatchedSimilarity;
use crate::delta::DeltaSlab;
use crate::ingress::{Ingress, IngressConfig, IngressStats, PendingAnswer};
use crate::service::{
    AlignmentService, Ranking, Served, ServiceHealth, Versioned, VersionedSnapshot,
};
use crate::telem::ServiceTelemetry;
use daakg_graph::DaakgError;
use daakg_index::{QueryMode, QueryOptions, TopKSelector};
use daakg_telemetry::Telemetry;
use std::ops::Range;
use std::sync::Arc;

/// Queries per gathered panel block of the exact scan: 64 rows keep the
/// panel L1-resident while the candidate columns stream past.
const QUERY_BLOCK: usize = 64;

/// The query engine: answer `queries` on the pinned version `cur`,
/// scattered over `shards` column ranges, exactly (`nprobe = None`) or by
/// IVF probe, keeping the best `k` (`None` = full ranking) per query, then
/// merging `slab`'s live delta rows. Returns the rankings and how many
/// delta rows were merged into each.
///
/// Parallelism: one scatter unit per shard; a lone shard splits the
/// batch into one unit per `daakg-parallel` worker instead.
pub(crate) fn answer(
    cur: &VersionedSnapshot,
    shards: usize,
    queries: &[u32],
    k: Option<usize>,
    nprobe: Option<usize>,
    telem: &ServiceTelemetry,
    slab: Option<Arc<DeltaSlab>>,
) -> (Vec<Ranking>, u32) {
    let snap = &cur.snapshot;
    let engine = snap.entity_engine();
    let n = engine.num_candidates();
    let d = engine.normalized_queries().cols();
    let ranges = snap.shard_ranges(shards);
    let indexes = match nprobe {
        Some(_) => snap
            .shard_indexes(shards)
            .expect("validated: index configured"),
        None => Vec::new(),
    };
    let panel = engine.normalized_queries().gather_rows(queries);
    let panel = panel.as_slice();
    let workers = if ranges.len() == 1 {
        daakg_parallel::num_threads()
    } else {
        1
    };
    let parts = daakg_parallel::split_ranges(queries.len(), workers);
    let units: Vec<(usize, Range<usize>)> = (0..ranges.len())
        .flat_map(|s| parts.iter().map(move |p| (s, p.clone())))
        .collect();
    let scanned = daakg_parallel::par_map_ranges(units.len(), units.len(), |ur| {
        ur.map(|u| {
            let (s, qs) = &units[u];
            let cols = ranges[*s].clone();
            let rows = &panel[qs.start * d..qs.end * d];
            let _span = telem.shard_scan.span();
            match nprobe {
                Some(nprobe) => rows
                    .chunks_exact(d)
                    .map(|q| {
                        let k = k.unwrap_or(cols.len());
                        let local = indexes[*s].search_observed(q, k, nprobe, &telem.search);
                        // Shard-local index ids back into the global space.
                        local
                            .into_iter()
                            .map(|(id, score)| (cols.start as u32 + id, score))
                            .collect()
                    })
                    .collect(),
                None => scan_columns(engine, cols, rows, qs.len(), k),
            }
        })
        .collect::<Vec<Vec<Ranking>>>()
    });
    let mut per_shard: Vec<Vec<Ranking>> = vec![Vec::new(); ranges.len()];
    for ((s, _), rankings) in units.iter().zip(scanned.into_iter().flatten()) {
        per_shard[*s].extend(rankings);
    }
    let mut value = if per_shard.len() == 1 {
        per_shard.pop().expect("one shard")
    } else {
        // Selection is push-order-independent under (score desc, id
        // asc), so this reproduces the one-shard list bitwise.
        let _span = telem.shard_merge.span();
        let bound = k.map_or(n, |k| k.min(n));
        (0..queries.len())
            .map(|qi| {
                let mut sel = TopKSelector::new(bound);
                for &(id, score) in per_shard.iter().flat_map(|shard| &shard[qi]) {
                    sel.push(id, score);
                }
                sel.into_sorted()
            })
            .collect()
    };
    // Live deltas merge through the same bounded selectors, so the answer
    // stays bitwise-equal to an exact scan over base ∪ delta.
    let mut deltas_merged = 0u32;
    if let Some(slab) = slab {
        let _span = telem.delta_merge.span();
        value = slab.merge_into(panel, queries.len(), k, n, value);
        deltas_merged = slab.len() as u32;
    }
    (value, deltas_merged)
}

/// Exact scan of the candidate columns `cols` for `nq` panel rows, one
/// query block at a time: each query's best `k` of the range, global ids.
fn scan_columns(
    engine: &BatchedSimilarity,
    cols: Range<usize>,
    panel: &[f32],
    nq: usize,
    k: Option<usize>,
) -> Vec<Ranking> {
    let d = engine.normalized_queries().cols();
    let bound = k.map_or(cols.len(), |k| k.min(cols.len()));
    let mut out = Vec::with_capacity(nq);
    for start in (0..nq).step_by(QUERY_BLOCK) {
        let block = QUERY_BLOCK.min(nq - start);
        let mut selectors: Vec<TopKSelector> =
            (0..block).map(|_| TopKSelector::new(bound)).collect();
        engine.scan_columns(
            &panel[start * d..(start + block) * d],
            block,
            cols.clone(),
            &mut selectors,
        );
        out.extend(selectors.into_iter().map(TopKSelector::into_sorted));
    }
    out
}

/// A sharded scatter-gather serving front-end over an
/// [`AlignmentService`].
///
/// The front-end sets the service's shard count — every query of the
/// wrapped service then scatters over that many column ranges of the
/// snapshot's one candidate matrix (see the [module docs](self)) — and
/// optionally puts a micro-batching ingress in front of single queries.
/// Exact scans need no per-version preparation; per-shard IVF indexes are
/// built once per version. Construction **pre-warms** the initial
/// version's indexes, and publishing through the front-end's own
/// [`ShardedService::train`] / [`ShardedService::align_rounds`] wrappers
/// pre-warms the new version — so no query pays an index build in its own
/// tail latency. Training through the wrapped service directly
/// ([`ShardedService::service`]) still works; the first `Approx` query
/// after such a publish builds the indexes lazily.
///
/// `Exact` answers are bitwise-identical to the unsharded service's
/// (ties included). With an [`IngressConfig`], single queries
/// additionally coalesce through the micro-batching ingress
/// ([`crate::ingress`]) into batched kernel dispatches — which also
/// brings admission control, deadlines, and the opt-in
/// [`crate::DegradePolicy`] (see the ingress docs).
pub struct ShardedService {
    /// Declared first so it drops first: the ingress drains its queue and
    /// joins its worker before the service is released.
    ingress: Option<Ingress>,
    service: Arc<AlignmentService>,
}

impl std::fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.service.shards)
            .field("ingress", &self.ingress.as_ref().map(Ingress::config))
            .field("service", &self.service)
            .finish()
    }
}

impl ShardedService {
    /// Shard `service`'s corpus across `shards` partitions
    /// (`1..=4096`; counts above the corpus size degrade gracefully to
    /// one candidate per shard).
    pub fn new(mut service: AlignmentService, shards: usize) -> Result<Self, DaakgError> {
        if shards == 0 {
            return Err(DaakgError::invalid(
                "ShardedService",
                "shard count must be at least 1",
            ));
        }
        if shards > 4096 {
            return Err(DaakgError::invalid(
                "ShardedService",
                format!("shard count {shards} exceeds the 4096 maximum"),
            ));
        }
        service.shards = shards;
        let svc = Self {
            ingress: None,
            service: Arc::new(service),
        };
        svc.prewarm();
        Ok(svc)
    }

    /// [`ShardedService::new`] with a micro-batching ingress in front of
    /// the single-query path: concurrent [`ShardedService::query`] calls
    /// coalesce under `ingress`'s time/size window into one batched
    /// kernel dispatch (see [`IngressConfig`]).
    pub fn with_ingress(
        service: AlignmentService,
        shards: usize,
        ingress: IngressConfig,
    ) -> Result<Self, DaakgError> {
        ingress.validate()?;
        let mut svc = Self::new(service, shards)?;
        svc.ingress = Some(Ingress::start(
            ingress,
            Arc::clone(&svc.service),
            svc.service.telemetry(),
        ));
        Ok(svc)
    }

    /// The telemetry surface of the whole front-end: the wrapped
    /// service's registry and journal, which the ingress also records
    /// into — one registry covers the full stack (see
    /// [`AlignmentService::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        self.service.telemetry()
    }

    /// The wrapped service — train and publish through this handle;
    /// queries on the sharded front-end observe each publish on their
    /// next version grab.
    pub fn service(&self) -> &AlignmentService {
        &self.service
    }

    /// Number of corpus partitions.
    pub fn shards(&self) -> usize {
        self.service.shards
    }

    /// The ingress window configuration, when one is running.
    pub fn ingress_config(&self) -> Option<IngressConfig> {
        self.ingress.as_ref().map(Ingress::config)
    }

    /// Dispatch and resilience counters of the running ingress (queries
    /// admitted, batched dispatches, shed/expired/degraded/panicked
    /// queries, queue high-water mark) — `None` without an ingress.
    pub fn ingress_stats(&self) -> Option<IngressStats> {
        self.ingress.as_ref().map(Ingress::stats)
    }

    /// Liveness and durability health of the serving stack: the wrapped
    /// service's persist health and live-update health, the ingress
    /// counters, and whether the ingress [`crate::DegradePolicy`] is
    /// currently engaged — one coherent view of the whole front-end.
    pub fn health(&self) -> ServiceHealth {
        let mut health = self.service.health();
        health.ingress = self.ingress_stats();
        if let Some(ingress) = &self.ingress {
            health.degrade_engaged = ingress.degrade_engaged();
        }
        health
    }

    /// Build the current version's per-shard IVF indexes ahead of
    /// traffic (a no-op without an index, or once built). Construction
    /// and the [`ShardedService::train`] / [`ShardedService::align_rounds`]
    /// wrappers already do this; call it manually after publishing
    /// through [`ShardedService::service`] directly to keep the build
    /// cost out of the next query's latency.
    pub fn prewarm(&self) {
        self.service
            .current()
            .snapshot
            .shard_indexes(self.service.shards);
    }

    /// Train on `labels` and publish through the wrapped service, then
    /// pre-warm the new version's shard indexes so the publish — not the
    /// next query — pays the build.
    pub fn train(
        &self,
        labels: &crate::joint::LabeledMatches,
    ) -> Result<VersionedSnapshot, DaakgError> {
        let published = self.service.train(labels)?;
        self.prewarm();
        Ok(published)
    }

    /// [`AlignmentService::align_rounds`] through the front-end, with the
    /// new version's shard indexes pre-warmed (see
    /// [`ShardedService::train`]).
    pub fn align_rounds(
        &self,
        labels: &crate::joint::LabeledMatches,
        epochs: usize,
    ) -> Result<Versioned<Vec<f32>>, DaakgError> {
        let losses = self.service.align_rounds(labels, epochs)?;
        self.prewarm();
        Ok(losses)
    }

    /// Answer one left entity under `opts`. With an ingress configured,
    /// the call enqueues and blocks until its coalesced batch is
    /// answered — subject to admission control
    /// ([`DaakgError::Overloaded`]), the query's deadline, and the
    /// opt-in [`crate::DegradePolicy`]; without one, it scatters
    /// immediately (no queue, so deadlines are inert and nothing sheds).
    pub fn query(&self, e1: u32, opts: QueryOptions) -> Result<Versioned<Ranking>, DaakgError> {
        self.submit(e1, opts)?.wait()
    }

    /// [`ShardedService::query`], with the answer stamped by the
    /// [`QueryMode`] it was actually served under — the mode can differ
    /// from the requested one only while an explicitly configured
    /// [`crate::DegradePolicy`] is engaged.
    pub fn query_served(&self, e1: u32, opts: QueryOptions) -> Result<Served<Ranking>, DaakgError> {
        self.submit(e1, opts)?.wait_served()
    }

    /// Admit one query without blocking for its answer: the open-loop
    /// submission path. Admission outcomes ([`DaakgError::Overloaded`],
    /// an already-elapsed deadline, shutdown) surface here synchronously;
    /// the returned [`PendingAnswer`] then blocks only for the answer
    /// itself. Without an ingress the query executes inline and the
    /// returned handle is already resolved.
    pub fn submit(&self, e1: u32, opts: QueryOptions) -> Result<PendingAnswer, DaakgError> {
        match &self.ingress {
            Some(ingress) => {
                // Fail fast (and keep the worker infallible): bounds and
                // mode are validated before the queue ever sees the query.
                self.service.check_query(e1)?;
                self.service.resolve_mode(opts.mode)?;
                ingress.submit_ticket(e1, opts)
            }
            None => Ok(PendingAnswer::filled(
                self.service
                    .query(e1, opts)
                    .map(|answer| (answer, opts.mode)),
            )),
        }
    }

    /// Answer every query under `opts` on **one** coherent snapshot
    /// version, scattered across shards. Already batched, so the ingress
    /// is bypassed.
    pub fn query_batch(
        &self,
        queries: &[u32],
        opts: QueryOptions,
    ) -> Result<Versioned<Vec<Ranking>>, DaakgError> {
        self.service.query_batch(queries, opts)
    }

    /// Rank all right entities for `e1` in the wrapped service's default
    /// [`QueryMode`].
    pub fn rank(&self, e1: u32) -> Result<Versioned<Ranking>, DaakgError> {
        self.query(e1, QueryOptions::rank().with_mode(self.default_mode()))
    }

    /// Best `k` right entities for `e1` in the default [`QueryMode`].
    pub fn top_k(&self, e1: u32, k: usize) -> Result<Versioned<Ranking>, DaakgError> {
        self.query(e1, QueryOptions::top_k(k).with_mode(self.default_mode()))
    }

    /// Best `k` right entities for each query, one coherent version, in
    /// the default [`QueryMode`].
    pub fn batch_top_k(
        &self,
        queries: &[u32],
        k: usize,
    ) -> Result<Versioned<Vec<Ranking>>, DaakgError> {
        self.query_batch(
            queries,
            QueryOptions::top_k(k).with_mode(self.default_mode()),
        )
    }

    fn default_mode(&self) -> QueryMode {
        self.service.serving().mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JointConfig;
    use crate::service::ServingConfig;
    use daakg_embed::EmbedConfig;
    use daakg_graph::kg::{example_dbpedia, example_wikidata};

    fn tiny_cfg() -> JointConfig {
        JointConfig {
            embed: EmbedConfig {
                dim: 8,
                class_dim: 4,
                epochs: 2,
                batch_size: 16,
                ..EmbedConfig::default()
            },
            align_epochs: 3,
            ..JointConfig::default()
        }
    }

    fn example_service(serving: ServingConfig) -> AlignmentService {
        AlignmentService::with_serving(
            tiny_cfg(),
            serving,
            Arc::new(example_dbpedia()),
            Arc::new(example_wikidata()),
        )
        .expect("example service")
    }

    #[test]
    fn shard_count_is_validated() {
        let svc = example_service(ServingConfig::default());
        assert!(matches!(
            ShardedService::new(svc, 0),
            Err(DaakgError::InvalidConfig { .. })
        ));
        let svc = example_service(ServingConfig::default());
        assert!(matches!(
            ShardedService::new(svc, 5000),
            Err(DaakgError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn sharded_rank_matches_unsharded() {
        let svc = example_service(ServingConfig::default());
        let sharded =
            ShardedService::new(example_service(ServingConfig::default()), 3).expect("sharded");
        for q in 0..svc.kg1().num_entities() as u32 {
            assert_eq!(
                sharded.rank(q).expect("sharded").value,
                svc.rank(q).expect("unsharded").value,
                "q={q}"
            );
        }
    }

    #[test]
    fn sharded_answers_carry_one_version_across_publishes() {
        let svc = example_service(ServingConfig::default());
        let sharded = ShardedService::new(svc, 2).expect("sharded");
        let before = sharded.top_k(0, 2).expect("v1 answer");
        assert_eq!(before.version.get(), 1);
        let labels = crate::joint::LabeledMatches::new();
        sharded.service().train(&labels).expect("train");
        let after = sharded.top_k(0, 2).expect("v2 answer");
        assert_eq!(after.version.get(), 2);
        // The new version's answer matches the unsharded scan of the new
        // snapshot — the shards scan the new version, not a stale one.
        assert_eq!(
            after.value,
            sharded.service().current().snapshot.top_k_entities(0, 2)
        );
    }

    #[test]
    fn sharded_service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedService>();
    }

    /// A live config whose compactor never runs on its own.
    fn manual_live() -> crate::LiveConfig {
        crate::LiveConfig {
            compact_after: 10_000,
            tick: std::time::Duration::from_secs(3600),
            ..crate::LiveConfig::default()
        }
    }

    fn live_service() -> AlignmentService {
        let mut svc = example_service(ServingConfig::default());
        svc.enable_live(manual_live()).expect("enable live");
        svc
    }

    fn triple(rel: u32, neighbor: u32) -> crate::DeltaTriple {
        crate::DeltaTriple {
            rel,
            neighbor,
            outgoing: true,
        }
    }

    fn assert_bitwise(got: &[(u32, f32)], want: &[(u32, f32)], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.0, w.0, "{what}: id at {i}");
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "{what}: score bits at {i}");
        }
    }

    /// The scatter-gather contract as one sweep: at every shard count,
    /// result bound, mode and delta state, single and batched answers are
    /// bitwise the snapshot engine's exact scan of the (union) corpus,
    /// ties included — so every shard count equals the unsharded answer.
    /// Rows: shards {1, 2, 3, 7, n+3} × k {0, 1, > n, None} × {Exact,
    /// full-probe Approx} × live delta {off, on}. With deltas pending the
    /// oracle is the folded snapshot (the union corpus).
    #[test]
    fn sharded_exact_matches_unsharded_bitwise() {
        let n = example_service(ServingConfig::default())
            .kg2()
            .num_entities();
        let full_probe = QueryMode::Approx { nprobe: 3 };
        for shards in [1, 2, 3, 7, n + 3] {
            for delta in [false, true] {
                let mut svc = example_service(ServingConfig::with_index(3));
                if delta {
                    svc.enable_live(manual_live()).expect("enable live");
                }
                let sharded = ShardedService::new(svc, shards).expect("sharded");
                let svc = sharded.service();
                let merged = if delta {
                    let a = svc.upsert_entity(&[triple(0, 0)]).expect("upsert");
                    svc.upsert_entity(&[triple(1, a)]).expect("upsert");
                    2
                } else {
                    0
                };
                let queries: Vec<u32> = (0..svc.kg1().num_entities() as u32).collect();
                let rows: Vec<(Option<usize>, QueryMode)> = [Some(0), Some(1), Some(n + 5), None]
                    .into_iter()
                    .flat_map(|k| [(k, QueryMode::Exact), (k, full_probe)])
                    .collect();
                let answers: Vec<_> = rows
                    .iter()
                    .map(|&(k, mode)| {
                        let opts = k
                            .map_or(QueryOptions::rank(), QueryOptions::top_k)
                            .with_mode(mode);
                        let singles: Vec<_> = queries
                            .iter()
                            .map(|&q| sharded.query(q, opts).expect("single"))
                            .collect();
                        (singles, sharded.query_batch(&queries, opts).expect("batch"))
                    })
                    .collect();
                if delta {
                    svc.compact_now().expect("fold").expect("deltas pending");
                }
                let snap = svc.current().snapshot;
                for (&(k, mode), (singles, batch)) in rows.iter().zip(&answers) {
                    let row = format!("shards={shards} delta={delta} k={k:?} {mode:?}");
                    assert_eq!(batch.deltas_merged, merged, "{row}");
                    for (qi, &q) in queries.iter().enumerate() {
                        let want = match k {
                            Some(k) => snap.top_k_entities(q, k),
                            None => snap.rank_entities(q),
                        };
                        assert_eq!(singles[qi].deltas_merged, merged, "{row}");
                        assert_bitwise(&singles[qi].value, &want, &format!("{row} q={q}"));
                        assert_bitwise(&batch.value[qi], &want, &format!("{row} batch q={q}"));
                    }
                }
            }
        }
    }

    /// Sharded scatter-gather over base ∪ delta stays bitwise-identical
    /// to the unsharded merged answer, at every shard count and k shape
    /// (the delta slab is one more scatter target, merged through the
    /// same bounded selector).
    #[test]
    fn sharded_live_answers_match_unsharded_bitwise() {
        for shards in [1usize, 2, 7] {
            let sharded = ShardedService::new(live_service(), shards).expect("sharded");
            // The unsharded reference: an identical service, same upserts.
            let svc = &live_service();
            for s in [sharded.service(), svc] {
                let a = s.upsert_entity(&[triple(0, 0)]).expect("upsert");
                s.upsert_entity(&[triple(1, a)]).expect("upsert");
            }
            let n2 = svc.kg2().num_entities();
            let union_n = n2 + 2;
            let queries: Vec<u32> = (0..svc.kg1().num_entities() as u32).collect();
            for k in [Some(0), Some(5), Some(union_n), Some(union_n + 3), None] {
                let opts = match k {
                    Some(k) => QueryOptions::top_k(k),
                    None => QueryOptions::rank(),
                };
                let got = sharded.query(0, opts).expect("sharded single");
                let want = svc.query(0, opts).expect("unsharded single");
                assert_eq!(got.deltas_merged, 2, "shards={shards} k={k:?}");
                assert_eq!(got.value.len(), want.value.len());
                for (g, w) in got.value.iter().zip(&want.value) {
                    assert_eq!(g.0, w.0, "shards={shards} k={k:?}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "shards={shards} k={k:?}");
                }
                let got = sharded.query_batch(&queries, opts).expect("sharded batch");
                let want = svc.query_batch(&queries, opts).expect("unsharded batch");
                assert_eq!(got.deltas_merged, 2);
                for (q, (gr, wr)) in got.value.iter().zip(&want.value).enumerate() {
                    assert_eq!(gr.len(), wr.len());
                    for (g, w) in gr.iter().zip(wr) {
                        assert_eq!(g.0, w.0, "shards={shards} k={k:?} q={q}");
                        assert_eq!(
                            g.1.to_bits(),
                            w.1.to_bits(),
                            "shards={shards} k={k:?} q={q}"
                        );
                    }
                }
            }
        }
    }

    /// Queries through the micro-batching ingress carry the delta merge
    /// too, and `health()` assembles persist + live + ingress counters
    /// into one coherent view.
    #[test]
    fn sharded_health_unifies_ingress_and_live_counters() {
        let sharded = ShardedService::with_ingress(live_service(), 2, IngressConfig::default())
            .expect("sharded with ingress");
        sharded
            .service()
            .upsert_entity(&[triple(0, 0)])
            .expect("upsert");
        let answer = sharded
            .query_served(0, QueryOptions::top_k(3))
            .expect("ingress query");
        assert_eq!(answer.deltas_merged, 1, "ingress path merges deltas");
        let health = sharded.health();
        let ingress = health.ingress.expect("ingress stats surfaced");
        assert!(ingress.queries >= 1, "{ingress:?}");
        assert!(ingress.batches >= 1, "{ingress:?}");
        let live = health.live.expect("live health surfaced");
        assert_eq!(live.delta_depth, 1);
        assert_eq!(live.upserts, 1);
        // Without an ingress, the same view reports its absence.
        let plain = ShardedService::new(live_service(), 2).expect("sharded");
        let health = plain.health();
        assert!(health.ingress.is_none());
        assert!(health.live.is_some());
    }

    /// A freshly built sharded service reports the same all-clear health
    /// as a fresh unsharded one: the default view exactly. Attaching an
    /// ingress only adds a zeroed counter block, and a no-op compaction
    /// on a live-enabled build leaves the default-live view untouched.
    #[test]
    fn fresh_sharded_health_is_default() {
        let sharded =
            ShardedService::new(example_service(ServingConfig::default()), 3).expect("sharded");
        assert_eq!(sharded.health(), crate::service::ServiceHealth::default());

        let with_ingress = ShardedService::with_ingress(
            example_service(ServingConfig::default()),
            2,
            IngressConfig::default(),
        )
        .expect("sharded with ingress");
        let expected_ingress = IngressStats {
            queries: 0,
            batches: 0,
            shed: 0,
            expired: 0,
            degraded: 0,
            panics: 0,
            max_depth: 0,
        };
        assert_eq!(
            with_ingress.health(),
            crate::service::ServiceHealth {
                ingress: Some(expected_ingress),
                ..Default::default()
            }
        );

        let live = ShardedService::new(live_service(), 2).expect("sharded live");
        live.service().compact_now().expect("no-op compact");
        assert_eq!(
            live.health(),
            crate::service::ServiceHealth {
                live: Some(crate::delta::LiveHealth::default()),
                ..Default::default()
            }
        );
    }

    /// Sharded scatter/merge stages record into the service's shared
    /// registry, and `ShardedService::telemetry()` exposes the same
    /// handle the underlying [`AlignmentService`] owns.
    #[test]
    fn sharded_query_records_scan_and_merge_stages() {
        let sharded =
            ShardedService::new(example_service(ServingConfig::default()), 3).expect("sharded");
        assert!(sharded.telemetry().is_enabled());
        sharded.query(0, QueryOptions::top_k(3)).expect("query");
        let hists = sharded.telemetry().registry().histograms();
        let count_of = |name: &str| {
            hists
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.count())
                .unwrap_or(0)
        };
        assert_eq!(count_of("stage_shard_scan_ns"), 3, "one scan per shard");
        assert_eq!(count_of("stage_shard_merge_ns"), 1, "one merge per query");
    }
}
