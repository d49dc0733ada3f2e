//! Batched cosine-similarity engine with bounded top-k selection.
//!
//! The naive ranking path computes, per query, `n` cosines — each
//! re-deriving both row norms — followed by a full `O(n log n)` sort. Over a
//! semi-supervised round that is `O(n²·d)` work with two avoidable factors:
//! repeated normalization and full sorts when only the head of the ranking
//! is consumed.
//!
//! [`BatchedSimilarity`] removes both:
//!
//! 1. both matrices are **L2-normalized once** at construction (zero rows
//!    stay zero, preserving the `cos(0, ·) = 0` convention of
//!    [`daakg_autograd::tensor::cosine`]), after which cosine similarity is
//!    a plain dot product;
//! 2. whole query *blocks* are scored as one cache-blocked
//!    [`Tensor::matmul_transpose`] (`Q · Rᵀ`) instead of `n` scalar loops;
//! 3. when only the best `k` candidates are needed, selection uses a
//!    **bounded binary min-heap** (`O(n log k)`) instead of sorting the full
//!    candidate vector.
//!
//! Ordering is deterministic: descending score, ties broken by ascending
//! candidate index — exactly the order the naive stable sort produces for
//! index-ordered candidates, so the fast path is drop-in compatible with the
//! oracle.
//!
//! The selection and scan machinery itself — the bounded
//! [`daakg_index::TopKSelector`], the register-tiled
//! [`daakg_index::scan_block`] kernel with its runtime AVX2+FMA dispatch,
//! and the cosine-convention row normalization — lives in `daakg-index`,
//! shared with the IVF approximate index: both engines score candidates
//! with the *same* kernel over the *same* normalized rows, which is what
//! makes a full-probe IVF search bitwise comparable to this exhaustive
//! engine.

use daakg_autograd::tensor::dot_unrolled as dot;
use daakg_autograd::Tensor;
use daakg_index::scan::{normalize_rows_cosine, scan_block, top_k_of_scores, TopKSelector};
use std::ops::Range;

/// Number of query rows scored per blocked matmul. 64 query rows × 10k
/// candidates × 4 B = 2.5 MB of scores per block — large enough to amortize
/// the kernel, small enough to stay cache- and memory-friendly.
const QUERY_BLOCK: usize = 64;

/// Pre-normalized similarity engine between a query matrix (mapped left
/// embeddings) and a candidate matrix (right embeddings).
#[derive(Debug, Clone)]
pub struct BatchedSimilarity {
    /// Row-normalized query matrix (`n₁ × d`).
    queries: Tensor,
    /// Row-normalized candidate matrix (`n₂ × d`).
    candidates: Tensor,
    /// The same candidates transposed (`d × n₂`). Column-major access lets
    /// the block kernels accumulate whole vectors of scores *vertically*
    /// (one lane per candidate), eliminating the per-score horizontal
    /// reduction that dominates row-major dot products at small `d`.
    candidates_t: Tensor,
    /// Identity column→id map for the shared scan kernel (the exhaustive
    /// engine scans candidates in index order; the IVF index passes its
    /// permuted inverted-list ids through the same parameter).
    identity_ids: Vec<u32>,
}

impl BatchedSimilarity {
    /// Build the engine: both inputs are copied and row-normalized once.
    /// Rows that `cosine` would treat as zero vectors (squared norm ≤
    /// `f32::EPSILON`) are zeroed, so their similarity to everything is
    /// exactly `0.0` — the naive convention.
    pub fn new(queries: &Tensor, candidates: &Tensor) -> Self {
        assert_eq!(
            queries.cols(),
            candidates.cols(),
            "query/candidate dimension mismatch"
        );
        let mut q = queries.clone();
        let mut c = candidates.clone();
        normalize_rows_cosine(&mut q);
        normalize_rows_cosine(&mut c);
        let ct = c.transpose();
        let identity_ids = (0..c.rows() as u32).collect();
        Self {
            queries: q,
            candidates: c,
            candidates_t: ct,
            identity_ids,
        }
    }

    /// The row-normalized query matrix (`n₁ × d`). Row `q` is the unit (or
    /// zero) vector every scoring path uses for query `q` — hand these rows
    /// to [`daakg_index::IvfIndex::search`] so approximate scores agree
    /// bitwise with this engine over the probed candidates.
    pub fn normalized_queries(&self) -> &Tensor {
        &self.queries
    }

    /// The row-normalized candidate matrix (`n₂ × d`) — the exact rows an
    /// [`daakg_index::IvfIndex`] must be built over for full-probe searches
    /// to reproduce this engine's results.
    pub fn normalized_candidates(&self) -> &Tensor {
        &self.candidates
    }

    /// One row-normalized query row.
    pub fn normalized_query(&self, query: u32) -> &[f32] {
        self.queries.row(query as usize)
    }

    /// Number of query rows.
    pub fn num_queries(&self) -> usize {
        self.queries.rows()
    }

    /// Number of candidate rows.
    pub fn num_candidates(&self) -> usize {
        self.candidates.rows()
    }

    /// Cosine similarity of one (query, candidate) pair.
    pub fn score(&self, query: u32, candidate: u32) -> f32 {
        dot(
            self.queries.row(query as usize),
            self.candidates.row(candidate as usize),
        )
    }

    /// All candidate scores for one query, in candidate-index order.
    ///
    /// Computed as `d` axpy passes over the transposed candidate matrix —
    /// a pure vertical accumulation with no per-score reduction.
    pub fn scores(&self, query: u32) -> Vec<f32> {
        let q = self.queries.row(query as usize);
        let n = self.num_candidates();
        let ct = self.candidates_t.as_slice();
        let mut out = vec![0.0f32; n];
        for (l, &b) in q.iter().enumerate() {
            let c_row = &ct[l * n..(l + 1) * n];
            for (o, &cv) in out.iter_mut().zip(c_row) {
                *o += b * cv;
            }
        }
        out
    }

    /// The full similarity block for the query rows `queries` — one blocked
    /// `Q · Rᵀ` product (`|queries| × n₂`).
    pub fn score_block(&self, queries: &[u32]) -> Tensor {
        let q = self.queries.gather_rows(queries);
        q.matmul_transpose(&self.candidates)
    }

    /// Best `k` candidates of one query, descending score, index-ascending
    /// on ties. `O(n log k)` via a bounded heap.
    pub fn top_k(&self, query: u32, k: usize) -> Vec<(u32, f32)> {
        top_k_of_scores(&self.scores(query), k)
    }

    /// Best `k` candidates for every query in `queries`. Returns one
    /// ranking per query, in input order.
    ///
    /// The loop nest is *candidate-outer*: the query block is gathered into
    /// a dense L1-resident panel, then the candidate matrix streams through
    /// exactly once per block while per-query bounded heaps absorb scores
    /// on the fly. No `|queries| × n₂` score block is ever materialized, so
    /// memory traffic is one candidate-matrix pass per `QUERY_BLOCK`
    /// queries instead of one per query.
    pub fn top_k_block(&self, queries: &[u32], k: usize) -> Vec<Vec<(u32, f32)>> {
        let mut out = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(QUERY_BLOCK) {
            let panel = self.queries.gather_rows(chunk);
            let mut selectors: Vec<TopKSelector> =
                chunk.iter().map(|_| TopKSelector::new(k)).collect();
            self.scan_columns(
                panel.as_slice(),
                chunk.len(),
                0..self.num_candidates(),
                &mut selectors,
            );
            out.extend(selectors.into_iter().map(TopKSelector::into_sorted));
        }
        out
    }

    /// Scan the candidate columns `cols` against a gathered query panel
    /// (`nq` normalized rows), pushing `(candidate id, score)` into one
    /// selector per query. The range is scanned in place inside the one
    /// transposed matrix, so disjoint ranges partition the corpus without
    /// copying it, and every score is bitwise the whole-corpus score.
    pub fn scan_columns(
        &self,
        panel: &[f32],
        nq: usize,
        cols: Range<usize>,
        selectors: &mut [TopKSelector],
    ) {
        let n = self.num_candidates();
        scan_block(
            panel,
            self.queries.cols(),
            nq,
            &self.candidates_t.as_slice()[cols.start..],
            n,
            cols.len(),
            &self.identity_ids[cols],
            selectors,
        );
    }

    /// The complete descending ranking of one query (all `n₂` candidates).
    /// Still benefits from one-time normalization and the vectorized score
    /// loop, but pays the full sort; prefer [`BatchedSimilarity::top_k`]
    /// when only the head of the ranking is consumed.
    pub fn rank_all(&self, query: u32) -> Vec<(u32, f32)> {
        let scores = self.scores(query);
        let mut v: Vec<(u32, f32)> = scores
            .into_iter()
            .enumerate()
            .map(|(j, s)| (j as u32, s))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Descending ranking of a restricted candidate set for one query.
    pub fn rank_candidates(&self, query: u32, candidates: &[u32]) -> Vec<(u32, f32)> {
        let q = self.queries.row(query as usize);
        let mut v: Vec<(u32, f32)> = candidates
            .iter()
            .map(|&j| (j, dot(q, self.candidates.row(j as usize))))
            .collect();
        // Stable sort keeps the caller's candidate order on ties, exactly
        // like the naive path it replaces.
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daakg_autograd::tensor::cosine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// The naive oracle: per-query cosine scan + full stable sort, exactly
    /// the pre-engine `rank_entities` algorithm.
    fn naive_rank(queries: &Tensor, candidates: &Tensor, q: usize) -> Vec<(u32, f32)> {
        let mut v: Vec<(u32, f32)> = (0..candidates.rows() as u32)
            .map(|j| (j, cosine(queries.row(q), candidates.row(j as usize))))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    #[test]
    fn scores_match_naive_cosine() {
        let q = random_matrix(12, 16, 1);
        let c = random_matrix(30, 16, 2);
        let engine = BatchedSimilarity::new(&q, &c);
        for i in 0..q.rows() as u32 {
            for j in 0..c.rows() as u32 {
                let fast = engine.score(i, j);
                let slow = cosine(q.row(i as usize), c.row(j as usize));
                assert!((fast - slow).abs() < 1e-5, "({i},{j}): {fast} vs {slow}");
            }
        }
    }

    #[test]
    fn zero_rows_keep_the_zero_convention() {
        let mut q = random_matrix(3, 8, 3);
        q.row_mut(1).fill(0.0);
        let mut c = random_matrix(4, 8, 4);
        c.row_mut(2).fill(0.0);
        let engine = BatchedSimilarity::new(&q, &c);
        for j in 0..4 {
            assert_eq!(engine.score(1, j), 0.0);
        }
        for i in 0..3 {
            assert_eq!(engine.score(i, 2), 0.0);
        }
    }

    #[test]
    fn tiny_norm_rows_match_the_naive_cosine_guard() {
        // Rows with norm ~1e-4 have squared norm below f32::EPSILON, so
        // `cosine` treats them as zero vectors; the engine must agree
        // instead of renormalizing them into full-strength unit vectors.
        let mut q = random_matrix(2, 8, 5);
        for v in q.row_mut(0).iter_mut() {
            *v *= 1e-4;
        }
        let c = random_matrix(3, 8, 6);
        let engine = BatchedSimilarity::new(&q, &c);
        for j in 0..3u32 {
            let naive = cosine(q.row(0), c.row(j as usize));
            assert_eq!(naive, 0.0, "test premise: cosine must see a zero row");
            assert_eq!(engine.score(0, j), 0.0, "engine diverged from cosine");
        }
        // The untouched row still scores normally.
        let naive = cosine(q.row(1), c.row(0));
        assert!((engine.score(1, 0) - naive).abs() < 1e-5);
    }

    #[test]
    fn top_k_matches_naive_prefix_on_random_inputs() {
        for seed in 0..5u64 {
            let q = random_matrix(10, 24, seed * 2 + 10);
            let c = random_matrix(200, 24, seed * 2 + 11);
            let engine = BatchedSimilarity::new(&q, &c);
            for qi in 0..10 {
                for k in [1usize, 5, 17, 200, 500] {
                    let fast = engine.top_k(qi as u32, k);
                    let slow = naive_rank(&q, &c, qi);
                    assert_eq!(fast.len(), k.min(200));
                    for (rank, (f, s)) in fast.iter().zip(&slow).enumerate() {
                        assert_eq!(f.0, s.0, "seed {seed} q{qi} k{k} rank {rank}");
                        assert!((f.1 - s.1).abs() < 1e-5);
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_block_agrees_with_per_query_top_k() {
        let q = random_matrix(100, 8, 42); // exceeds one QUERY_BLOCK
        let c = random_matrix(50, 8, 43);
        let engine = BatchedSimilarity::new(&q, &c);
        let queries: Vec<u32> = (0..100).collect();
        let block = engine.top_k_block(&queries, 7);
        assert_eq!(block.len(), 100);
        for (qi, ranking) in block.iter().enumerate() {
            let single = engine.top_k(qi as u32, 7);
            assert_eq!(ranking.len(), single.len());
            for (a, b) in ranking.iter().zip(&single) {
                assert_eq!(a.0, b.0, "query {qi}");
                assert!((a.1 - b.1).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn ties_resolve_to_ascending_index() {
        // Duplicate candidate rows ⇒ exactly equal scores; the lower index
        // must win, mirroring the stable naive sort over 0..n candidates.
        let q = Tensor::from_rows(&[&[1.0, 0.0]]);
        let c = Tensor::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[1.0, 0.0], &[1.0, 0.0]]);
        let engine = BatchedSimilarity::new(&q, &c);
        let top = engine.top_k(0, 3);
        assert_eq!(
            top.iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "tie-break must prefer lower candidate indices"
        );
        let all = engine.rank_all(0);
        assert_eq!(all[3].0, 0);
    }

    #[test]
    fn rank_all_is_descending_and_complete() {
        let q = random_matrix(4, 8, 77);
        let c = random_matrix(61, 8, 78);
        let engine = BatchedSimilarity::new(&q, &c);
        let all = engine.rank_all(2);
        assert_eq!(all.len(), 61);
        for w in all.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn rank_candidates_restricts_and_sorts() {
        let q = random_matrix(2, 8, 5);
        let c = random_matrix(20, 8, 6);
        let engine = BatchedSimilarity::new(&q, &c);
        let sub = engine.rank_candidates(0, &[3, 9, 15]);
        assert_eq!(sub.len(), 3);
        for w in sub.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        for (j, _) in &sub {
            assert!([3, 9, 15].contains(j));
        }
    }

    #[test]
    fn empty_k_and_oversized_k() {
        let q = random_matrix(1, 4, 8);
        let c = random_matrix(5, 4, 9);
        let engine = BatchedSimilarity::new(&q, &c);
        assert!(engine.top_k(0, 0).is_empty());
        assert_eq!(engine.top_k(0, 10).len(), 5);
    }

    #[test]
    fn block_top_k_handles_k_zero_and_k_beyond_n() {
        let q = random_matrix(70, 8, 91); // spans two query blocks
        let c = random_matrix(9, 8, 92);
        let engine = BatchedSimilarity::new(&q, &c);
        let queries: Vec<u32> = (0..70).collect();

        let empty = engine.top_k_block(&queries, 0);
        assert_eq!(empty.len(), 70);
        assert!(empty.iter().all(|r| r.is_empty()), "k = 0 returns nothing");

        // k far beyond n must degrade to the complete ranking and agree
        // with the naive oracle at every position.
        let over = engine.top_k_block(&queries, 50);
        for (qi, ranking) in over.iter().enumerate() {
            assert_eq!(ranking.len(), 9, "k ≥ n yields all candidates");
            let slow = naive_rank(&q, &c, qi);
            for (rank, (f, s)) in ranking.iter().zip(&slow).enumerate() {
                assert_eq!(f.0, s.0, "q{qi} rank {rank}");
                assert!((f.1 - s.1).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn duplicate_scores_agree_with_naive_oracle_everywhere() {
        // Build a candidate matrix of only 3 distinct rows repeated, so
        // nearly every score is duplicated; ordering must still match the
        // stable naive sort exactly (ascending candidate index on ties).
        let base = random_matrix(3, 6, 7);
        let rows: Vec<&[f32]> = (0..24).map(|j| base.row(j % 3)).collect();
        let c = Tensor::from_rows(&rows);
        let q = random_matrix(5, 6, 8);
        let engine = BatchedSimilarity::new(&q, &c);
        let queries: Vec<u32> = (0..5).collect();
        for k in [1usize, 4, 24, 30] {
            let block = engine.top_k_block(&queries, k);
            for (qi, fast) in block.iter().enumerate() {
                let slow = naive_rank(&q, &c, qi);
                assert_eq!(fast.len(), k.min(24));
                for (rank, (f, s)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(f.0, s.0, "k {k} q{qi} rank {rank}: tie order diverged");
                    assert!((f.1 - s.1).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn non_finite_rows_agree_with_naive_oracle() {
        // NaN and ±inf rows follow the degenerate-row convention: they
        // score exactly 0.0 against everything (and everything scores 0.0
        // against them), in both the batched engine and `cosine`.
        let mut q = random_matrix(4, 8, 55);
        q.row_mut(1).fill(f32::NAN);
        q.row_mut(2)[3] = f32::INFINITY;
        let mut c = random_matrix(12, 8, 56);
        c.row_mut(0).fill(f32::NEG_INFINITY);
        c.row_mut(5)[0] = f32::NAN;
        let engine = BatchedSimilarity::new(&q, &c);

        for i in 0..4u32 {
            for j in 0..12u32 {
                let fast = engine.score(i, j);
                let slow = cosine(q.row(i as usize), c.row(j as usize));
                assert!(fast.is_finite(), "engine produced non-finite score");
                assert!(slow.is_finite(), "cosine produced non-finite score");
                assert!((fast - slow).abs() < 1e-5, "({i},{j}): {fast} vs {slow}");
            }
        }
        // Degenerate queries score 0.0 flat.
        for j in 0..12u32 {
            assert_eq!(engine.score(1, j), 0.0);
            assert_eq!(engine.score(2, j), 0.0);
        }

        // Full agreement of the ranking paths, including k ≥ n.
        let queries: Vec<u32> = (0..4).collect();
        for k in [1usize, 3, 12, 20] {
            let block = engine.top_k_block(&queries, k);
            for (qi, fast) in block.iter().enumerate() {
                let slow = naive_rank(&q, &c, qi);
                for (rank, (f, s)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(f.0, s.0, "k {k} q{qi} rank {rank}");
                    assert!((f.1 - s.1).abs() < 1e-5);
                }
            }
        }
    }
}
