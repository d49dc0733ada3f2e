//! End-to-end quickstart on the service API: build two small KGs, compose
//! a [`Pipeline`], train the joint alignment model behind an
//! [`AlignmentService`], run versioned rankings, print H@k / MRR / F1 —
//! then run the deep *active* alignment loop against a simulated oracle
//! and print its annotation-cost curve.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p daakg --example quickstart
//! ```

use daakg::active::{ActiveConfig, GoldOracle, Strategy};
use daakg::eval::matching::greedy_matching;
use daakg::eval::ranking::RankingScores;
use daakg::eval::report::{fmt3, TextTable};
use daakg::graph::kg::{example_dbpedia, example_wikidata};
use daakg::graph::{ElementPair, GoldAlignment};
use daakg::infer::RelationMatches;
use daakg::{
    DaakgError, EmbedConfig, JointConfig, LabeledMatches, Pipeline, QueryMode, QueryOptions,
};

fn main() -> Result<(), DaakgError> {
    // 1. Two knowledge graphs describing the same slice of the world
    //    (Fig. 1 of the paper: DBpedia vs Wikidata around Michael Jackson).
    let kg1 = example_dbpedia();
    let kg2 = example_wikidata();
    println!(
        "KG 1: {} ({} entities, {} triples)",
        kg1.name(),
        kg1.num_entities(),
        kg1.num_triples()
    );
    println!(
        "KG 2: {} ({} entities, {} triples)\n",
        kg2.name(),
        kg2.num_entities(),
        kg2.num_triples()
    );

    // 2. Gold matches. Half of them (the "training labels") supervise the
    //    joint model; all of them are used for evaluation.
    let gold: Vec<(&str, &str)> = vec![
        ("Michael Jackson", "Q2831"),
        ("Gary_Indiana", "Gary"),
        ("LosAngeles", "LosAngeles"),
        ("UnitedStates", "USA"),
    ];
    let gold_ids: Vec<(u32, u32)> = gold
        .iter()
        .map(|(a, b)| {
            (
                kg1.entity_by_name(a).expect("left entity").raw(),
                kg2.entity_by_name(b).expect("right entity").raw(),
            )
        })
        .collect();

    let mut labels = LabeledMatches::new();
    for &(l, r) in gold_ids.iter().take(gold_ids.len() / 2) {
        labels.push(ElementPair::Entity(l.into(), r.into()));
    }

    // 3. Compose the pipeline (scaled-down hyper-parameters so the
    //    quickstart finishes in seconds) and build the service. The
    //    builder validates everything up front with typed errors.
    let joint_cfg = JointConfig {
        embed: EmbedConfig {
            dim: 16,
            class_dim: 8,
            epochs: 15,
            batch_size: 64,
            ..EmbedConfig::default()
        },
        align_epochs: 20,
        ..JointConfig::default()
    };
    let service = Pipeline::builder()
        .kg1(kg1.clone())
        .kg2(kg2.clone())
        .joint(joint_cfg)
        .index(2) // IVF index on every published snapshot (for step 5b)
        .build()?;
    println!("training joint model ({} labeled pairs)...", labels.len());
    let trained = service.train(&labels)?;
    println!("published snapshot {}", trained.version);

    // 4. Rank right-KG candidates for every gold left entity — one
    //    versioned, lock-free query per entity (the batched top-k engine
    //    under the hood) — and collect ranking metrics.
    let items: Vec<(u32, Vec<u32>)> = gold_ids
        .iter()
        .map(|&(l, r)| {
            let ranked: Vec<u32> = service
                .rank(l)
                .expect("gold ids are in bounds")
                .value
                .into_iter()
                .map(|(e2, _)| e2)
                .collect();
            (r, ranked)
        })
        .collect();
    let scores = RankingScores::from_rankings_parallel(&items);

    // 5. Greedy 1:1 matching over all candidate pairs for set metrics:
    //    one sharded batch query answers every left entity on a single
    //    snapshot version.
    let all_left: Vec<u32> = (0..kg1.num_entities() as u32).collect();
    let batch = service.batch_top_k(&all_left, 5)?;
    let mut pool: Vec<(u32, u32, f32)> = Vec::new();
    for (&l, ranked) in all_left.iter().zip(&batch.value) {
        for &(r, s) in ranked {
            pool.push((l, r, s));
        }
    }
    let matching = greedy_matching(pool, &gold_ids, 0.0);

    let mut table = TextTable::new(&["metric", "value"]);
    table.row_strs(&["H@1", &fmt3(scores.hits_at(1))]);
    table.row_strs(&["H@3", &fmt3(scores.hits_at(3))]);
    table.row_strs(&["MRR", &fmt3(scores.mrr())]);
    table.row_strs(&["precision", &fmt3(matching.precision)]);
    table.row_strs(&["recall", &fmt3(matching.recall)]);
    table.row_strs(&["F1", &fmt3(matching.f1)]);
    println!("\n{}", table.render());

    println!(
        "top-3 candidates for {:?} (snapshot {}):",
        kg1.entity_name(gold_ids[0].0.into()),
        batch.version
    );
    for (e2, s) in service.top_k(gold_ids[0].0, 3)?.value {
        println!("  {:<28} {}", kg2.entity_name(e2.into()), fmt3(s as f64));
    }

    // 5b. Approximate serving: the same queries through the snapshot's
    //     IVF index (QueryMode::Approx scans only the most-similar
    //     inverted lists). H@1 over the gold queries must not change,
    //     while each query touches only a fraction of the candidates —
    //     on this 8-entity toy pair the per-query cost is the same
    //     handful of nanoseconds either way, but the scan-fraction win
    //     grows with the corpus (the `ann_top_k_20k` bench scenario
    //     measures ~5× higher QPS at recall@10 ≥ 0.95 on 20k entities).
    let approx = QueryMode::Approx { nprobe: 1 };
    let approx_items: Vec<(u32, Vec<u32>)> = gold_ids
        .iter()
        .map(|&(l, r)| {
            let ranked: Vec<u32> = service
                .query(l, QueryOptions::rank().with_mode(approx))
                .expect("gold ids are in bounds")
                .value
                .into_iter()
                .map(|(e2, _)| e2)
                .collect();
            (r, ranked)
        })
        .collect();
    let approx_scores = RankingScores::from_rankings_parallel(&approx_items);
    let time_queries = |mode: QueryMode| {
        let start = std::time::Instant::now();
        for _ in 0..2000 {
            for &(l, _) in &gold_ids {
                std::hint::black_box(
                    service
                        .query(l, QueryOptions::top_k(3).with_mode(mode))
                        .expect("in bounds"),
                );
            }
        }
        start.elapsed().as_secs_f64() * 1e9 / (2000.0 * gold_ids.len() as f64)
    };
    let exact_ns = time_queries(QueryMode::Exact);
    let approx_ns = time_queries(approx);
    println!(
        "\napprox serving (IVF, nprobe 1 of 2 lists): H@1 {} (exact {}), \
         ~{approx_ns:.0} ns/query vs {exact_ns:.0} ns exact at toy scale \
         (see ann_top_k_20k in BENCH_core.json for the at-scale speedup)",
        fmt3(approx_scores.hits_at(1)),
        fmt3(scores.hits_at(1)),
    );
    // What IVF *guarantees* (and what we therefore assert): a full probe
    // reproduces the exact answers — the partial-probe H@1 printed above
    // matches exact on this example, but that is data-dependent, not a
    // contract.
    for &(l, _) in &gold_ids {
        let exact = service.query(l, QueryOptions::top_k(3))?;
        let full = service.query(l, QueryOptions::top_k(3).approx(2))?;
        assert_eq!(
            exact.value, full.value,
            "full-probe approximate serving diverged from exact"
        );
    }

    // 5c. Durability: persist every published snapshot crash-safely and
    //     warm-restart from disk. The restored service answers
    //     bitwise-identically — same H@1, same scores — without
    //     retraining, and resumes version numbering where it left off.
    let store_dir = std::env::temp_dir().join(format!("daakg-quickstart-{}", std::process::id()));
    let h1_of = |svc: &daakg::AlignmentService| -> f64 {
        let items: Vec<(u32, Vec<u32>)> = gold_ids
            .iter()
            .map(|&(l, r)| {
                let ranked = svc.rank(l).expect("in bounds").value;
                (r, ranked.into_iter().map(|(e2, _)| e2).collect())
            })
            .collect();
        RankingScores::from_rankings_parallel(&items).hits_at(1)
    };
    let durable = Pipeline::builder()
        .kg1(example_dbpedia())
        .kg2(example_wikidata())
        .joint(joint_cfg)
        .store(&store_dir) // persist every publish; warm-restart on reopen
        .build()?;
    durable.train(&labels)?;
    let (h1_before, version_before) = (h1_of(&durable), durable.version().get());
    drop(durable); // simulated process exit
    let restored = Pipeline::builder()
        .kg1(example_dbpedia())
        .kg2(example_wikidata())
        .joint(joint_cfg)
        .store(&store_dir)
        .build()?;
    let report = restored.recovery().expect("durable service");
    assert_eq!(restored.version().get(), version_before);
    assert_eq!(h1_of(&restored), h1_before);
    println!(
        "\ndurability: restored {} snapshot version(s) from {} \
         (0 corrupt), H@1 {} before and after restart",
        report.loaded.len(),
        store_dir.display(),
        fmt3(h1_before),
    );
    drop(restored);
    let _ = std::fs::remove_dir_all(&store_dir);

    // 5d. Sharded serving: the same pipeline behind a scatter-gather
    //     ShardedService. Results are bitwise-identical to the unsharded
    //     service — merging per-shard top-k is exact, ties included — so
    //     H@1 over the gold pairs matches exactly.
    let sharded = Pipeline::builder()
        .kg1(example_dbpedia())
        .kg2(example_wikidata())
        .joint(joint_cfg)
        .shards(2)
        .build_sharded()?;
    sharded.service().train(&labels)?;
    let sharded_h1 = {
        let items: Vec<(u32, Vec<u32>)> = gold_ids
            .iter()
            .map(|&(l, r)| {
                let ranked = sharded.rank(l).expect("in bounds").value;
                (r, ranked.into_iter().map(|(e2, _)| e2).collect())
            })
            .collect();
        RankingScores::from_rankings_parallel(&items).hits_at(1)
    };
    // The snapshot's own exact ranking is the unsharded answer.
    let snap = sharded.service().current().snapshot;
    for &(l, _) in &gold_ids {
        assert_eq!(sharded.rank(l)?.value, snap.rank_entities(l));
    }
    println!(
        "sharded serving: 2-shard scatter-gather H@1 {} — rankings identical \
         to the unsharded scan",
        fmt3(sharded_h1),
    );
    drop(sharded);

    // 5e. Live updates: a brand-new right-KG entity arrives mid-campaign.
    //     No retrain — `upsert_entity` warm-starts an embedding for it
    //     against the frozen published tables, and every query merges it
    //     exactly (bitwise what a scan over the union corpus would
    //     return) until the background compactor folds it into the next
    //     published snapshot.
    let live = Pipeline::builder()
        .kg1(example_dbpedia())
        .kg2(example_wikidata())
        .joint(joint_cfg)
        // Long tick so the quickstart (not the background compactor)
        // decides when the fold happens — keeps the output deterministic.
        .live(daakg::LiveConfig {
            tick: std::time::Duration::from_secs(3600),
            ..daakg::LiveConfig::default()
        })
        .build()?;
    live.train(&labels)?;
    let new_id = live.upsert_entity(&[daakg::DeltaTriple {
        rel: kg2
            .relation_by_name("spouse")
            .expect("right relation")
            .raw(),
        neighbor: gold_ids[0].1, // anchored to Q2831 (Michael Jackson)
        outgoing: true,
    }])?;
    // Queryable before the next retrain or compaction: the top-k over
    // the union corpus already carries the new entity.
    let union_n = kg2.num_entities() + 1;
    let top = live.top_k(gold_ids[0].0, union_n)?;
    assert!(
        top.deltas_merged >= 1 && top.value.iter().any(|&(e2, _)| e2 == new_id),
        "upserted entity must be served before the next retrain"
    );
    let folded = live.compact_now()?.expect("one pending entry to fold");
    let after = live.top_k(gold_ids[0].0, union_n)?;
    assert_eq!(after.version, folded.version);
    assert_eq!(
        top.value, after.value,
        "folding the delta must not change any answer"
    );
    println!(
        "live updates: upserted entity {new_id} served immediately \
         (deltas_merged {}), compaction published snapshot {} with \
         identical answers",
        top.deltas_merged, folded.version,
    );

    // 5f. Observability: every step above left a telemetry trail — stage
    //     latency histograms (exact scan, warm-start, fold/republish),
    //     lifecycle counters, and the structured event journal. Dump what
    //     a Prometheus scrape would collect plus the journal tail.
    //     Telemetry is on by default; `.telemetry(TelemetryConfig::
    //     disabled())` on the builder reduces every record to one branch.
    let telemetry = live.telemetry();
    let text = telemetry.render_prometheus();
    assert!(text.contains("daakg_snapshot_publish_total"));
    assert!(text.contains("daakg_stage_warm_start_seconds_count 1"));
    println!("\ntelemetry after the serve loop (counters and stage counts):");
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("quantile") && !l.contains("_sum"))
    {
        println!("  {line}");
    }
    println!("event journal (structured, monotonic timestamps):");
    for e in telemetry.journal().events() {
        println!("  #{} +{:>6}us {}", e.seq, e.at_ns / 1_000, e.kind.name());
    }
    drop(live);

    // 6. Deep active alignment: start over with just one labeled pair and
    //    let the loop decide which questions to put to a (simulated) human
    //    oracle. A fresh pipeline builds the campaign's own service and a
    //    matching ActiveLoop; each round's retrain publishes a new
    //    snapshot version on it. Relation matches let the inference engine
    //    propagate each "yes" through shared structure.
    println!("\nactive loop (inference-power selection, simulated oracle):");
    let mut gold_alignment = GoldAlignment::new();
    for &(l, r) in &gold_ids {
        gold_alignment.add_entity(l.into(), r.into());
    }
    let mut rels = RelationMatches::new();
    for (a, b) in [
        ("spouse", "spouse"),
        ("country", "country"),
        ("birthPlace", "place of birth"),
        ("deathPlace", "place of death"),
    ] {
        rels.insert(
            kg1.relation_by_name(a).expect("left relation").raw(),
            kg2.relation_by_name(b).expect("right relation").raw(),
        );
    }
    let mut seed_labels = LabeledMatches::new();
    seed_labels.push(ElementPair::Entity(
        gold_ids[0].0.into(),
        gold_ids[0].1.into(),
    ));

    let (active_service, active_loop) = Pipeline::builder()
        .kg1(kg1)
        .kg2(kg2)
        .joint(joint_cfg)
        .active(ActiveConfig {
            rounds: 3,
            batch_size: 2,
            ..ActiveConfig::default()
        })
        .strategy(Strategy::InferencePower)
        .build_active()?;
    let mut oracle = GoldOracle::new(&gold_alignment);
    let curve = active_loop.run_service(
        &active_service,
        &rels,
        &mut oracle,
        &gold_alignment,
        &seed_labels,
    )?;
    println!("{}", curve.render());
    println!(
        "final H@1 {} after {} question(s), AUC {}, {} snapshot versions published",
        fmt3(curve.final_h1()),
        curve.total_questions(),
        fmt3(curve.auc_h1()),
        active_service.version().get()
    );
    Ok(())
}
