//! Live KG updates: the append-only delta layer beside a published
//! snapshot.
//!
//! Published snapshots (PR 4) are immutable — right for readers, wrong as
//! the *only* write path when the KGs keep growing mid-campaign. This
//! module adds the missing write path without giving up any read-side
//! guarantee:
//!
//! * `DeltaBuffer` — an append-only side corpus of new right-KG
//!   entities. Each entry's embedding is trained by the warm-start path
//!   ([`daakg_embed::warm_start_row`]) against the frozen published
//!   tables, then **normalized exactly as snapshot construction
//!   normalizes its slabs** (per-row, independent), so a delta row scores
//!   bit-for-bit as if it had been part of the base candidate matrix.
//! * `DeltaSlab` — the query-facing view: normalized pending rows,
//!   transposed for the shared [`daakg_index::scan::scan_block`] kernel,
//!   with global candidate ids threaded through the kernel's remap slice.
//!   `DeltaSlab::merge_into` folds a base ranking and the delta scan
//!   through one bounded [`TopKSelector`] per query — selector pushes are
//!   order-independent under *(score desc, id asc)*, so the merged top-k
//!   over base ∪ delta is **bitwise-equal to an exact scan over the union
//!   corpus**.
//! * **Durable segments** — every entry persists as one atomic
//!   section-format file (`d0000000042.dseg`) in the snapshot store
//!   directory, all-or-nothing under the store's CRC discipline; warm
//!   restarts replay the contiguous run of segment ids starting at the
//!   recovered snapshot's right-entity count (the *last intact prefix*)
//!   and surface anything torn or flipped as a typed
//!   [`DaakgError::Corrupt`].
//! * `Compactor` — the background thread harness that periodically folds
//!   the delta into the next published snapshot. Same lifecycle
//!   discipline as the ingress worker: a named thread, condvar ticks, a
//!   panic-isolated task boundary with a counter, and a
//!   drain-then-join `Drop`.
//!
//! The anchor invariant that makes mixed-version serving safe: a slab is
//! only merged into queries whose pinned snapshot is exactly the
//! **version** the slab was built against. Anchoring by version (not by
//! right-entity count) matters because a retrain typically publishes a
//! snapshot with the *same* entity count but entirely re-derived tables —
//! a count-keyed slab would transiently merge superseded delta rows into
//! the fresh publication. Across a compaction publish the buffer keeps
//! **two** slabs — the pre-fold slab (matching still-pinned older
//! versions) and the post-fold remainder (matching the new version) — so
//! no reader ever transiently loses a delta entity.

use crate::ingress::lock_recover;
use crate::service::VersionedSnapshot;
use daakg_autograd::Tensor;
use daakg_embed::WarmStartConfig;
use daakg_graph::DaakgError;
use daakg_index::scan::{normalize_rows_cosine, scan_block, TopKSelector};
use daakg_store::format::{SectionReader, SectionWriter};
use daakg_store::store::write_atomic;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Payload-kind discriminator of delta segment files ("ADL1").
pub(crate) const FILE_KIND_DELTA: u32 = u32::from_le_bytes(*b"ADL1");
/// Segment file extension.
const SEGMENT_EXT: &str = "dseg";

/// One asserted triple anchoring a new right-KG entity to an existing
/// entity (or an earlier delta entity). `neighbor` is a *global* right
/// entity id — a base row when `< base_n`, an earlier delta entry
/// otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaTriple {
    /// Relation id in the right KG.
    pub rel: u32,
    /// Global right-entity id of the other endpoint.
    pub neighbor: u32,
    /// Direction: `true` when the new entity is the head.
    pub outgoing: bool,
}

/// One pending delta entity: its global id, raw (un-normalized) trained
/// embedding, and the triples that anchored the warm start.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEntry {
    /// Global right-entity id (`base_n + position` at append time; stable
    /// across compactions).
    pub global_id: u32,
    /// Raw trained embedding row (normalized only inside the query slab).
    pub raw: Vec<f32>,
    /// The triples given at upsert time.
    pub triples: Vec<DeltaTriple>,
}

// ---------------------------------------------------------------------------
// Query-facing slab
// ---------------------------------------------------------------------------

/// An immutable scan view over the pending delta rows, anchored to one
/// published snapshot version.
#[derive(Debug)]
pub(crate) struct DeltaSlab {
    /// The snapshot version this slab extends — the merge key (see the
    /// module docs for why the anchor is the version, not the count).
    anchor: u64,
    /// Embedding width.
    dim: usize,
    /// Number of delta rows.
    len: usize,
    /// Row-normalized delta rows, transposed (`dim` rows × `len` cols) for
    /// the vertical-accumulation scan kernel.
    ct: Vec<f32>,
    /// Global candidate id per column (`base_n..base_n + len`).
    ids: Vec<u32>,
}

impl DeltaSlab {
    /// Build a slab from pending entries. Normalization is per-row and
    /// independent, exactly [`normalize_rows_cosine`] over the stacked raw
    /// rows — the same bits the rows would get inside a snapshot engine.
    fn build(anchor: u64, base_n: usize, dim: usize, entries: &[DeltaEntry]) -> Self {
        let len = entries.len();
        let mut rows = Tensor::zeros(len, dim);
        for (i, e) in entries.iter().enumerate() {
            rows.row_mut(i).copy_from_slice(&e.raw);
        }
        normalize_rows_cosine(&mut rows);
        let mut ct = vec![0.0f32; dim * len];
        for i in 0..len {
            let row = rows.row(i);
            for l in 0..dim {
                ct[l * len + i] = row[l];
            }
        }
        let ids = (0..len).map(|i| (base_n + i) as u32).collect();
        Self {
            anchor,
            dim,
            len,
            ct,
            ids,
        }
    }

    /// Number of delta rows in the slab.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Merge a base ranking with an exact scan over the delta rows, one
    /// bounded selector per query.
    ///
    /// * `panel` — `nq` contiguous normalized query rows of width `dim`
    ///   (the engine's `normalized_query`/gathered panel — the same rows
    ///   the base ranking was scored with);
    /// * `k` — `None` for a full ranking, `Some(k)` for top-k;
    /// * `base_total` — number of candidates in the base corpus;
    /// * `base` — per-query base rankings (full for `k = None`, best
    ///   `min(k, base_total)` otherwise).
    ///
    /// Selector pushes are order-independent under *(score desc, id asc)*
    /// and delta scores come from the same kernel over identically
    /// normalized rows, so the output is bitwise what one exact scan over
    /// the `base_total + len` union corpus would produce.
    pub(crate) fn merge_into(
        &self,
        panel: &[f32],
        nq: usize,
        k: Option<usize>,
        base_total: usize,
        base: Vec<Vec<(u32, f32)>>,
    ) -> Vec<Vec<(u32, f32)>> {
        debug_assert_eq!(panel.len(), nq * self.dim);
        debug_assert_eq!(base.len(), nq);
        if self.len == 0 {
            return base;
        }
        let total = base_total + self.len;
        let bound = k.map_or(total, |k| k.min(total));
        let mut selectors: Vec<TopKSelector> = (0..nq).map(|_| TopKSelector::new(bound)).collect();
        for (sel, ranking) in selectors.iter_mut().zip(&base) {
            for &(id, score) in ranking {
                sel.push(id, score);
            }
        }
        scan_block(
            panel,
            self.dim,
            nq,
            &self.ct,
            self.len,
            self.len,
            &self.ids,
            &mut selectors,
        );
        selectors
            .into_iter()
            .map(TopKSelector::into_sorted)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

struct BufferInner {
    /// Anchor: the published snapshot version pending entries extend.
    anchor: u64,
    /// Right-entity count of the anchor snapshot.
    base_n: usize,
    /// Pending (uncompacted) entries; entry `j` has global id `base_n + j`.
    entries: Vec<DeltaEntry>,
    /// Scan view over `entries`, anchored at `anchor`.
    current: Arc<DeltaSlab>,
    /// The pre-fold slab kept across one compaction publish, so queries
    /// pinned to the previous version keep seeing the folded entities.
    prev: Option<Arc<DeltaSlab>>,
}

/// The append-only delta corpus attached to a live service. All mutation
/// happens under one short-held mutex; queries only clone an `Arc` out.
pub(crate) struct DeltaBuffer {
    dim: usize,
    inner: Mutex<BufferInner>,
    /// Total accepted upserts (monotonic, includes folded entries).
    upserts: AtomicU64,
}

impl DeltaBuffer {
    /// An empty buffer anchored at snapshot version `anchor` with `base_n`
    /// right entities of width `dim`.
    pub(crate) fn new(anchor: u64, base_n: usize, dim: usize) -> Self {
        Self {
            dim,
            inner: Mutex::new(BufferInner {
                anchor,
                base_n,
                entries: Vec::new(),
                current: Arc::new(DeltaSlab::build(anchor, base_n, dim, &[])),
                prev: None,
            }),
            upserts: AtomicU64::new(0),
        }
    }

    /// Number of pending (uncompacted) entries.
    pub(crate) fn depth(&self) -> usize {
        lock_recover(&self.inner).entries.len()
    }

    /// Total accepted upserts, monotonic across compactions.
    pub(crate) fn upserts(&self) -> u64 {
        self.upserts.load(Ordering::Relaxed)
    }

    /// Current anchor (the snapshot version the pending entries extend).
    pub(crate) fn anchor(&self) -> u64 {
        lock_recover(&self.inner).anchor
    }

    /// Right-entity count of the anchor snapshot.
    #[cfg(test)]
    pub(crate) fn base_n(&self) -> usize {
        lock_recover(&self.inner).base_n
    }

    /// The global id the *next* appended entry will receive.
    #[cfg(test)]
    pub(crate) fn next_id(&self) -> u32 {
        let inner = lock_recover(&self.inner);
        (inner.base_n + inner.entries.len()) as u32
    }

    /// Snapshot of the pending entries (cheap clones, for neighbor
    /// resolution and fold preparation).
    pub(crate) fn pending(&self) -> (usize, Vec<DeltaEntry>) {
        let inner = lock_recover(&self.inner);
        (inner.base_n, inner.entries.clone())
    }

    /// Append a trained entry; its `global_id` must be the buffer's
    /// `next_id` (the caller serializes upserts). Rebuilds the current
    /// slab under the lock (`O(len·dim)` — pending depth is bounded by
    /// the compaction threshold in steady state).
    pub(crate) fn append(&self, entry: DeltaEntry) -> Result<(), DaakgError> {
        if entry.raw.len() != self.dim {
            return Err(DaakgError::DimensionMismatch {
                context: "DeltaBuffer row width",
                expected: self.dim,
                got: entry.raw.len(),
            });
        }
        let mut inner = lock_recover(&self.inner);
        let expect = (inner.base_n + inner.entries.len()) as u32;
        if entry.global_id != expect {
            return Err(DaakgError::InvalidConfig {
                context: "DeltaBuffer",
                reason: format!(
                    "entry id {} where the next id is {expect} (upserts must be serialized)",
                    entry.global_id
                ),
            });
        }
        inner.entries.push(entry);
        inner.current = Arc::new(DeltaSlab::build(
            inner.anchor,
            inner.base_n,
            self.dim,
            &inner.entries,
        ));
        self.upserts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Replace a pending entry in place (the `upsert_triples` re-finetune
    /// path). The id must still be pending; folded ids are the base
    /// corpus's business now.
    pub(crate) fn replace(&self, entry: DeltaEntry) -> Result<(), DaakgError> {
        if entry.raw.len() != self.dim {
            return Err(DaakgError::DimensionMismatch {
                context: "DeltaBuffer row width",
                expected: self.dim,
                got: entry.raw.len(),
            });
        }
        let mut inner = lock_recover(&self.inner);
        let base = inner.base_n;
        let pos = (entry.global_id as usize)
            .checked_sub(base)
            .filter(|&p| p < inner.entries.len())
            .ok_or_else(|| DaakgError::UnknownEntity {
                kg: "delta".into(),
                id: entry.global_id,
                bound: base + inner.entries.len(),
            })?;
        inner.entries[pos] = entry;
        inner.current = Arc::new(DeltaSlab::build(
            inner.anchor,
            base,
            self.dim,
            &inner.entries,
        ));
        Ok(())
    }

    /// The slab to merge into a query pinned to snapshot `version` — the
    /// current slab, the kept pre-fold slab, or nothing when neither
    /// anchor matches (e.g. a retrain superseded the delta, or the query
    /// pinned a fresh publication the buffer has not re-anchored to yet).
    /// Empty slabs return `None` (nothing to merge).
    pub(crate) fn slab_for(&self, version: u64) -> Option<Arc<DeltaSlab>> {
        let inner = lock_recover(&self.inner);
        if inner.current.anchor == version && inner.current.len > 0 {
            return Some(Arc::clone(&inner.current));
        }
        inner
            .prev
            .as_ref()
            .filter(|s| s.anchor == version && s.len > 0)
            .map(Arc::clone)
    }

    /// Entries eligible for folding into snapshot `version`: the pending
    /// prefix, only when the anchor matches. `None` when there is nothing
    /// to fold or the anchor moved (a retrain republished a model-shaped
    /// snapshot).
    pub(crate) fn fold_candidates(&self, version: u64) -> Option<Vec<DeltaEntry>> {
        let inner = lock_recover(&self.inner);
        (inner.anchor == version && !inner.entries.is_empty()).then(|| inner.entries.clone())
    }

    /// Publish a fold of the first `count` pending entries and commit it
    /// in one step: `publish` runs under the buffer lock, and the
    /// version it publishes is committed before the lock is released. An
    /// upsert therefore lands either before the publish (and stays
    /// pending against the folded version) or after the commit, and a
    /// query pinned to the folded version waits in
    /// [`DeltaBuffer::slab_for`] until that version's slab exists.
    /// `None` (nothing committed) when `publish` refuses.
    pub(crate) fn publish_fold(
        &self,
        count: usize,
        publish: impl FnOnce() -> Option<VersionedSnapshot>,
    ) -> Option<VersionedSnapshot> {
        let mut inner = lock_recover(&self.inner);
        let published = publish()?;
        self.commit(&mut inner, count, published.version.get());
        Some(published)
    }

    /// [`DeltaBuffer::publish_fold`]'s commit for an already published
    /// version.
    #[cfg(test)]
    pub(crate) fn fold_committed(&self, count: usize, folded: u64) {
        self.commit(&mut lock_recover(&self.inner), count, folded);
    }

    /// Commit a fold of the first `count` pending entries into the newly
    /// published snapshot `folded`: keep the pre-fold slab for
    /// still-pinned readers, advance the anchor to the folded version,
    /// and rebuild the current slab from whatever was appended meanwhile.
    fn commit(&self, inner: &mut BufferInner, count: usize, folded: u64) {
        debug_assert!(count <= inner.entries.len());
        inner.prev = Some(Arc::clone(&inner.current));
        inner.entries.drain(..count);
        inner.anchor = folded;
        inner.base_n += count;
        inner.current = Arc::new(DeltaSlab::build(
            folded,
            inner.base_n,
            self.dim,
            &inner.entries,
        ));
    }

    /// Re-anchor after a supersession (a retrain published a snapshot the
    /// pending entries no longer extend): drop everything and start fresh
    /// at the superseding version and right-entity count. Returns the
    /// dropped entries so the caller can retire their segment files —
    /// which it must do only once the superseding snapshot is durably
    /// persisted, because until then those files are the only durable
    /// copies of the acknowledged upserts.
    pub(crate) fn reanchor(&self, anchor: u64, base_n: usize) -> Vec<DeltaEntry> {
        let mut inner = lock_recover(&self.inner);
        let dropped = std::mem::take(&mut inner.entries);
        inner.anchor = anchor;
        inner.base_n = base_n;
        inner.prev = None;
        inner.current = Arc::new(DeltaSlab::build(anchor, base_n, self.dim, &[]));
        dropped
    }

    /// Seed recovered entries (warm restart). The entries must be the
    /// contiguous id run starting at the buffer's anchor.
    pub(crate) fn restore(&self, entries: Vec<DeltaEntry>) -> Result<(), DaakgError> {
        let count = entries.len() as u64;
        for e in entries {
            self.append(e)?;
        }
        // Restored rows don't count as fresh upserts.
        self.upserts.fetch_sub(count, Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Durable segments
// ---------------------------------------------------------------------------

/// File name of one delta segment (`d0000000042.dseg`).
pub(crate) fn segment_name(global_id: u32) -> String {
    format!("d{global_id:010}.{SEGMENT_EXT}")
}

/// Parse a segment file name back to its global id; `None` for anything
/// that is not exactly `d` + 10 digits + `.dseg` (snapshot files, tmp
/// files and manifests never collide with this shape).
pub(crate) fn parse_segment_name(name: &str) -> Option<u32> {
    let digits = name
        .strip_prefix('d')?
        .strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Serialize one entry into a section-format image.
pub(crate) fn encode_segment(entry: &DeltaEntry) -> Vec<u8> {
    let mut w = SectionWriter::new(FILE_KIND_DELTA);
    w.u64s(
        "meta",
        &[
            entry.global_id as u64,
            entry.raw.len() as u64,
            entry.triples.len() as u64,
        ],
    );
    w.f32s("row", 1, entry.raw.len(), &entry.raw);
    let mut tris = Vec::with_capacity(entry.triples.len() * 3);
    for t in &entry.triples {
        tris.push(t.rel);
        tris.push(t.neighbor);
        tris.push(t.outgoing as u32);
    }
    w.u32s("tris", &tris);
    w.finish()
}

/// Parse and validate one segment file back into an entry.
pub(crate) fn decode_segment(path: &Path, bytes: Vec<u8>) -> Result<DeltaEntry, DaakgError> {
    let r = SectionReader::parse(path, bytes, FILE_KIND_DELTA)?;
    let meta = r.u64s("meta")?;
    if meta.len() != 3 {
        return Err(r.corrupt("meta", format!("expected 3 words, found {}", meta.len())));
    }
    let (global_id, dim, tri_count) = (meta[0], meta[1] as usize, meta[2] as usize);
    if global_id > u32::MAX as u64 {
        return Err(r.corrupt("meta", format!("global id {global_id} exceeds u32")));
    }
    let row = r.f32s("row")?;
    if row.rows != 1 || row.cols != dim {
        return Err(r.corrupt(
            "row",
            format!("shape {}×{} where 1×{dim} was recorded", row.rows, row.cols),
        ));
    }
    let tris = r.u32s("tris")?;
    if tris.len() != tri_count * 3 {
        return Err(r.corrupt(
            "tris",
            format!("{} words for {tri_count} recorded triples", tris.len()),
        ));
    }
    let triples = tris
        .chunks_exact(3)
        .map(|c| DeltaTriple {
            rel: c[0],
            neighbor: c[1],
            outgoing: c[2] != 0,
        })
        .collect();
    Ok(DeltaEntry {
        global_id: global_id as u32,
        raw: row.data,
        triples,
    })
}

/// Durably persist one entry as an atomic segment file in `dir`.
pub(crate) fn write_segment(dir: &Path, entry: &DeltaEntry) -> Result<(), DaakgError> {
    write_atomic(
        &dir.join(segment_name(entry.global_id)),
        &encode_segment(entry),
    )
}

/// Remove the segment file of one global id; missing files are fine (a
/// crash may sit between publish and cleanup).
pub(crate) fn remove_segment(dir: &Path, global_id: u32) -> Result<(), DaakgError> {
    let path = dir.join(segment_name(global_id));
    match std::fs::remove_file(&path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(DaakgError::io_at(&path, e)),
    }
}

/// What segment replay found on a warm restart.
#[derive(Debug, Default)]
pub struct DeltaRecovery {
    /// Entries replayed into the buffer (the contiguous intact prefix).
    pub replayed: usize,
    /// Segments skipped with their typed errors: corrupt files, ids that
    /// break the contiguous run, or ids already folded into the base.
    pub skipped: Vec<(u32, DaakgError)>,
    /// Segment files removed (folded leftovers and everything at or past
    /// the first break — their ids will be re-issued by future upserts).
    pub removed: usize,
}

/// Replay delta segments from `dir` against a recovered snapshot with
/// `base_n` right entities.
///
/// The rule is *last intact prefix*: segments must form the contiguous id
/// run `base_n, base_n + 1, …`. Ids below `base_n` were already folded
/// into the recovered snapshot and are deleted; the first gap or corrupt
/// file ends the replay, and it plus everything after it is deleted with
/// the typed error recorded — those ids will be re-issued, so stale rows
/// must not resurface later.
///
/// Segments are only ever retired at runtime *after* a superseding
/// snapshot (fold or retrain) persisted successfully, so when a persist
/// failed before the crash, the files are still here and the recovered
/// snapshot is the pre-fold/pre-retrain one they extend — the replay
/// restores the acknowledged upserts instead of silently losing them.
pub(crate) fn recover_segments(
    dir: &Path,
    base_n: usize,
) -> Result<(Vec<DeltaEntry>, DeltaRecovery), DaakgError> {
    let mut found: Vec<(u32, PathBuf)> = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| DaakgError::io_at(dir, e))?;
    for dent in rd {
        let dent = dent.map_err(|e| DaakgError::io_at(dir, e))?;
        if let Some(id) = dent.file_name().to_str().and_then(parse_segment_name) {
            found.push((id, dent.path()));
        }
    }
    found.sort_by_key(|&(id, _)| id);

    let mut report = DeltaRecovery::default();
    let mut entries = Vec::new();
    let mut next = base_n as u32;
    let mut broken = false;
    for (id, path) in found {
        if (id as usize) < base_n {
            // Folded before the crash; the base corpus owns this row now.
            std::fs::remove_file(&path).map_err(|e| DaakgError::io_at(&path, e))?;
            report.removed += 1;
            continue;
        }
        if broken || id != next {
            if !broken {
                broken = true;
                report.skipped.push((
                    id,
                    DaakgError::Corrupt {
                        path: path.clone(),
                        section: "sequence".into(),
                        reason: format!("segment id {id} breaks the contiguous run at {next}"),
                    },
                ));
            }
            std::fs::remove_file(&path).map_err(|e| DaakgError::io_at(&path, e))?;
            report.removed += 1;
            continue;
        }
        let decoded = std::fs::read(&path)
            .map_err(|e| DaakgError::io_at(&path, e))
            .and_then(|bytes| decode_segment(&path, bytes))
            .and_then(|e| {
                if e.global_id == id {
                    Ok(e)
                } else {
                    Err(DaakgError::Corrupt {
                        path: path.clone(),
                        section: "meta".into(),
                        reason: format!("file named {id} records global id {}", e.global_id),
                    })
                }
            });
        match decoded {
            Ok(entry) => {
                entries.push(entry);
                report.replayed += 1;
                next += 1;
            }
            Err(err) => {
                broken = true;
                report.skipped.push((id, err));
                std::fs::remove_file(&path).map_err(|e| DaakgError::io_at(&path, e))?;
                report.removed += 1;
            }
        }
    }
    Ok((entries, report))
}

// ---------------------------------------------------------------------------
// Live configuration & health
// ---------------------------------------------------------------------------

/// Typed configuration of the live-update subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Fold the delta into a new snapshot once this many entries are
    /// pending (the compactor also folds whatever is pending on its
    /// periodic tick).
    pub compact_after: usize,
    /// Compactor wake interval.
    pub tick: Duration,
    /// Warm-start fine-tune settings for new rows.
    pub warm: WarmStartConfig,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            compact_after: 64,
            tick: Duration::from_millis(50),
            warm: WarmStartConfig::default(),
        }
    }
}

impl LiveConfig {
    /// Reject unusable configurations with a typed error.
    pub fn validate(&self) -> Result<(), DaakgError> {
        if self.compact_after == 0 {
            return Err(DaakgError::InvalidConfig {
                context: "LiveConfig",
                reason: "compact_after must be at least 1".into(),
            });
        }
        if self.tick.is_zero() {
            return Err(DaakgError::InvalidConfig {
                context: "LiveConfig",
                reason: "tick must be positive".into(),
            });
        }
        self.warm.validate()
    }
}

/// Health counters of the live-update subsystem, surfaced through
/// `ServiceHealth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveHealth {
    /// Pending (uncompacted) delta entries.
    pub delta_depth: usize,
    /// Upserts accepted since the service started.
    pub upserts: u64,
    /// Compactions published.
    pub compactions: u64,
    /// Panics caught and isolated at the compactor task boundary.
    pub compactor_panics: u64,
    /// How many full folds the compactor is behind:
    /// `delta_depth / compact_after`. Zero in steady state; growing values
    /// mean compaction cannot keep up with the upsert rate.
    pub compaction_lag: u64,
    /// The snapshot version the latest compaction published, if any.
    pub last_compacted_version: Option<u64>,
}

/// Shared compaction counters (written by the compactor thread and the
/// synchronous `compact_now` path, read by health).
#[derive(Debug, Default)]
pub(crate) struct LiveStats {
    /// Compactions published.
    pub(crate) compactions: AtomicU64,
    /// Panics caught at the compactor task boundary.
    pub(crate) panics: AtomicU64,
    /// `last published compaction version + 1` (0 = none yet) — offset so
    /// an `AtomicU64` can carry the `Option`.
    pub(crate) last_version: AtomicU64,
}

impl LiveStats {
    /// Record a published compaction.
    pub(crate) fn record(&self, version: u64) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.last_version.store(version + 1, Ordering::Relaxed);
    }

    /// The last published compaction version, if any.
    pub(crate) fn last_compacted(&self) -> Option<u64> {
        match self.last_version.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v - 1),
        }
    }
}

// ---------------------------------------------------------------------------
// Compactor thread
// ---------------------------------------------------------------------------

struct CompactorShared {
    /// `true` once shutdown begins; guarded by the tick mutex.
    stop: Mutex<bool>,
    /// Periodic tick + shutdown + nudge wakeups.
    tick: Condvar,
}

/// The background compaction thread: runs a caller-supplied task every
/// tick (or on [`Compactor::nudge`]), isolating panics at the task
/// boundary exactly like the ingress dispatch loop. Dropping the handle
/// stops and joins the thread — no detached threads outlive the service.
pub(crate) struct Compactor {
    shared: Arc<CompactorShared>,
    handle: Option<JoinHandle<()>>,
}

impl Compactor {
    /// Spawn the `daakg-compact` thread running `task` every `interval`.
    /// A caught task panic counts into `stats.panics` and journals a
    /// [`daakg_telemetry::EventKind::CompactorPanic`] event (`journal`
    /// may be a no-op handle).
    pub(crate) fn spawn(
        interval: Duration,
        stats: Arc<LiveStats>,
        journal: daakg_telemetry::EventJournal,
        mut task: Box<dyn FnMut() + Send>,
    ) -> Self {
        let shared = Arc::new(CompactorShared {
            stop: Mutex::new(false),
            tick: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_stats = stats;
        let handle = std::thread::Builder::new()
            .name("daakg-compact".into())
            .spawn(move || loop {
                // Wait first: the task runs on ticks and nudges, never
                // eagerly at spawn — a service that just replayed deltas
                // keeps them pending until the configured cadence says
                // otherwise. (A nudge landing while the task runs is
                // absorbed by the next tick — the tick is the backstop.)
                {
                    let stop = lock_recover(&thread_shared.stop);
                    if *stop {
                        return;
                    }
                    let (stop, _) = thread_shared
                        .tick
                        .wait_timeout(stop, interval)
                        .unwrap_or_else(|p| p.into_inner());
                    if *stop {
                        return;
                    }
                }
                // Panic isolation: a poisoned fold must not kill the
                // compactor — the next tick retries with fresh state.
                if catch_unwind(AssertUnwindSafe(&mut task)).is_err() {
                    thread_stats.panics.fetch_add(1, Ordering::Relaxed);
                    journal.record(daakg_telemetry::EventKind::CompactorPanic);
                }
            })
            .expect("spawn daakg-compact thread");
        Self {
            shared,
            handle: Some(handle),
        }
    }

    /// Wake the thread for an immediate compaction check (e.g. when an
    /// upsert pushes the depth past the threshold).
    pub(crate) fn nudge(&self) {
        self.shared.tick.notify_all();
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        *lock_recover(&self.shared.stop) = true;
        self.shared.tick.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicUsize;

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    fn entry(id: u32, raw: Vec<f32>) -> DeltaEntry {
        DeltaEntry {
            global_id: id,
            raw,
            triples: vec![DeltaTriple {
                rel: 0,
                neighbor: 0,
                outgoing: true,
            }],
        }
    }

    /// Exact union oracle: normalize base ∪ delta rows together, score one
    /// query against everything, sort by (score desc, id asc).
    fn union_oracle(
        base: &[Vec<f32>],
        delta: &[Vec<f32>],
        query: &[f32],
        k: Option<usize>,
    ) -> Vec<(u32, f32)> {
        let d = query.len();
        let all: Vec<&[f32]> = base.iter().chain(delta.iter()).map(Vec::as_slice).collect();
        let mut m = Tensor::from_rows(&all);
        normalize_rows_cosine(&mut m);
        let mut scored: Vec<(u32, f32)> = (0..m.rows())
            .map(|j| {
                let dot: f32 = query.iter().zip(m.row(j)).map(|(a, b)| a * b).sum();
                (j as u32, dot)
            })
            .collect();
        let _ = d;
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        if let Some(k) = k {
            scored.truncate(k);
        }
        scored
    }

    #[test]
    fn merge_is_bitwise_equal_to_union_scan() {
        let d = 16;
        let base_rows = random_rows(50, d, 1);
        let delta_rows = random_rows(9, d, 2);
        let base_n = base_rows.len();

        let mut base_t =
            Tensor::from_rows(&base_rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        normalize_rows_cosine(&mut base_t);
        let entries: Vec<DeltaEntry> = delta_rows
            .iter()
            .enumerate()
            .map(|(i, r)| entry((base_n + i) as u32, r.clone()))
            .collect();
        let slab = DeltaSlab::build(1, base_n, d, &entries);

        let queries = random_rows(7, d, 3);
        for q in &queries {
            let mut qt = Tensor::from_rows(&[q.as_slice()]);
            normalize_rows_cosine(&mut qt);
            let qn = qt.row(0).to_vec();
            for k in [Some(0), Some(5), Some(base_n + 9), Some(base_n + 12), None] {
                // Base ranking over base corpus only.
                let mut base_ranked: Vec<(u32, f32)> = (0..base_n)
                    .map(|j| {
                        let dot: f32 = qn.iter().zip(base_t.row(j)).map(|(a, b)| a * b).sum();
                        (j as u32, dot)
                    })
                    .collect();
                base_ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                if let Some(k) = k {
                    base_ranked.truncate(k);
                }
                let merged = slab
                    .merge_into(&qn, 1, k, base_n, vec![base_ranked])
                    .remove(0);
                let oracle = union_oracle(&base_rows, &delta_rows, &qn, k);
                assert_eq!(merged.len(), oracle.len(), "k={k:?}");
                for (rank, ((mi, ms), (oi, os))) in merged.iter().zip(&oracle).enumerate() {
                    assert_eq!(mi, oi, "k={k:?} rank {rank}");
                    assert_eq!(ms.to_bits(), os.to_bits(), "k={k:?} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn merge_breaks_cross_boundary_ties_by_global_id() {
        // A delta row that is an exact copy of a base row scores exactly
        // equal; the base (lower) id must win the tie.
        let d = 8;
        let base_rows = random_rows(4, d, 7);
        let delta_rows = [base_rows[2].clone()];
        let base_n = base_rows.len();
        let entries = vec![entry(base_n as u32, delta_rows[0].clone())];
        let slab = DeltaSlab::build(1, base_n, d, &entries);

        let mut qt = Tensor::from_rows(&[base_rows[2].as_slice()]);
        normalize_rows_cosine(&mut qt);
        let qn = qt.row(0).to_vec();
        let mut base_t =
            Tensor::from_rows(&base_rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        normalize_rows_cosine(&mut base_t);
        let mut base_ranked: Vec<(u32, f32)> = (0..base_n)
            .map(|j| {
                let dot: f32 = qn.iter().zip(base_t.row(j)).map(|(a, b)| a * b).sum();
                (j as u32, dot)
            })
            .collect();
        base_ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        base_ranked.truncate(2);
        let merged = slab
            .merge_into(&qn, 1, Some(2), base_n, vec![base_ranked])
            .remove(0);
        assert_eq!(merged[0].0, 2, "base id wins the exact tie");
        assert_eq!(merged[1].0, base_n as u32, "delta copy ranks second");
        assert_eq!(merged[0].1.to_bits(), merged[1].1.to_bits());
    }

    #[test]
    fn buffer_appends_folds_and_reanchors() {
        let d = 4;
        let buf = DeltaBuffer::new(1, 10, d);
        assert_eq!(buf.depth(), 0);
        assert_eq!(buf.next_id(), 10);
        assert_eq!(buf.anchor(), 1);
        assert!(buf.slab_for(1).is_none(), "empty slab is not merged");

        for i in 0..3u32 {
            buf.append(entry(10 + i, vec![i as f32 + 1.0; d])).unwrap();
        }
        assert_eq!(buf.depth(), 3);
        assert_eq!(buf.upserts(), 3);
        let slab = buf.slab_for(1).expect("anchored slab");
        assert_eq!(slab.len(), 3);
        assert!(buf.slab_for(2).is_none(), "anchor mismatch yields none");

        // Wrong id or width is typed.
        assert!(buf.append(entry(99, vec![0.0; d])).is_err());
        assert!(buf.append(entry(13, vec![0.0; d + 1])).is_err());

        // Fold two of three into published version 2: the anchor advances,
        // the pre-fold slab stays reachable for readers pinned to the old
        // version.
        let folding = buf.fold_candidates(1).unwrap();
        assert_eq!(folding.len(), 3);
        buf.fold_committed(2, 2);
        assert_eq!(buf.depth(), 1);
        assert_eq!(buf.anchor(), 2);
        assert_eq!(buf.base_n(), 12);
        assert_eq!(buf.next_id(), 13);
        let old = buf.slab_for(1).expect("pre-fold slab kept");
        assert_eq!(old.len(), 3);
        let new = buf.slab_for(2).expect("post-fold slab");
        assert_eq!(new.len(), 1);
        assert!(buf.fold_candidates(1).is_none(), "anchor moved on");

        // Replace a pending entry; folded ids are rejected.
        buf.replace(entry(12, vec![9.0; d])).unwrap();
        assert!(buf.replace(entry(11, vec![9.0; d])).is_err());

        // Re-anchor (retrain supersession, version 3) drops the pending
        // tail — even though the retrain may keep the same entity count,
        // version anchoring keeps the stale slab out of fresh queries.
        let dropped = buf.reanchor(3, 40);
        assert_eq!(dropped.len(), 1);
        assert_eq!(buf.depth(), 0);
        assert_eq!(buf.anchor(), 3);
        assert_eq!(buf.next_id(), 40);
        assert!(buf.slab_for(2).is_none());
        assert!(buf.slab_for(3).is_none(), "fresh anchor starts empty");
    }

    /// The anchor is the *version*, not the entity count: a supersession
    /// that keeps `base_n` unchanged must still unhook both slabs.
    #[test]
    fn same_count_reanchor_unhooks_stale_slabs() {
        let d = 4;
        let buf = DeltaBuffer::new(5, 10, d);
        buf.append(entry(10, vec![1.0; d])).unwrap();
        buf.fold_committed(1, 6);
        buf.append(entry(11, vec![2.0; d])).unwrap();
        assert!(buf.slab_for(5).is_some(), "pre-fold slab serves v5");
        assert!(buf.slab_for(6).is_some(), "current slab serves v6");
        // Retrain publishes v7 with the SAME right-entity count (11).
        let dropped = buf.reanchor(7, 11);
        assert_eq!(dropped.len(), 1);
        for v in [5, 6, 7] {
            assert!(buf.slab_for(v).is_none(), "v{v} must not merge stale rows");
        }
    }

    #[test]
    fn segment_roundtrip_is_bitwise() {
        let e = DeltaEntry {
            global_id: 42,
            raw: vec![1.5, -0.25, f32::MIN_POSITIVE, -0.0],
            triples: vec![
                DeltaTriple {
                    rel: 3,
                    neighbor: 17,
                    outgoing: true,
                },
                DeltaTriple {
                    rel: 0,
                    neighbor: 41,
                    outgoing: false,
                },
            ],
        };
        let bytes = encode_segment(&e);
        let back = decode_segment(Path::new("mem"), bytes).unwrap();
        assert_eq!(back.global_id, 42);
        assert_eq!(
            back.raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            e.raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(back.triples, e.triples);
    }

    #[test]
    fn segment_names_roundtrip_and_reject_foreign_files() {
        assert_eq!(segment_name(42), "d0000000042.dseg");
        assert_eq!(parse_segment_name("d0000000042.dseg"), Some(42));
        for bad in [
            "v0000000042.snap",
            "d42.dseg",
            "d0000000042.dseg.tmp",
            "manifest",
            "d00000000420.dseg",
            "dXXXXXXXXXX.dseg",
        ] {
            assert_eq!(parse_segment_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn recovery_replays_contiguous_prefix_and_drops_the_rest() {
        let dir = daakg_store::TestDir::new("delta-recovery");
        let d = 4;
        // Segments 10, 11, 12, 14 (gap at 13) plus a folded leftover 8.
        for id in [8u32, 10, 11, 12, 14] {
            write_segment(dir.path(), &entry(id, vec![id as f32; d])).unwrap();
        }
        let (entries, report) = recover_segments(dir.path(), 10).unwrap();
        assert_eq!(entries.len(), 3, "contiguous 10..=12 replays");
        assert_eq!(
            entries.iter().map(|e| e.global_id).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );
        assert_eq!(report.replayed, 3);
        // Folded 8 plus out-of-run 14 are removed; 14 is the typed break.
        assert_eq!(report.removed, 2);
        assert_eq!(report.skipped.len(), 1);
        assert!(matches!(report.skipped[0].1, DaakgError::Corrupt { .. }));
        // Second recovery is clean: only the intact prefix remains.
        let (entries, report) = recover_segments(dir.path(), 10).unwrap();
        assert_eq!(entries.len(), 3);
        assert!(report.skipped.is_empty());
        assert_eq!(report.removed, 0);
    }

    #[test]
    fn corrupt_segment_ends_the_prefix_with_a_typed_error() {
        let dir = daakg_store::TestDir::new("delta-corrupt");
        let d = 4;
        for id in [5u32, 6, 7] {
            write_segment(dir.path(), &entry(id, vec![id as f32; d])).unwrap();
        }
        // Flip one payload bit in segment 6: 5 survives, 6 and 7 go.
        let victim = dir.path().join(segment_name(6));
        daakg_store::fault::flip_bit(&victim, 70, 3).unwrap();
        let (entries, report) = recover_segments(dir.path(), 5).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].global_id, 5);
        assert_eq!(report.replayed, 1);
        assert_eq!(report.removed, 2);
        assert_eq!(report.skipped.len(), 1);
        let (id, err) = &report.skipped[0];
        assert_eq!(*id, 6);
        assert!(matches!(err, DaakgError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn truncated_segment_is_typed_corrupt_at_every_cut() {
        let e = entry(3, vec![0.5; 6]);
        let bytes = encode_segment(&e);
        for cut in [0, 1, 31, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_segment(Path::new("mem"), bytes[..cut].to_vec())
                .expect_err("truncated segment must not parse");
            assert!(
                matches!(err, DaakgError::Corrupt { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn compactor_runs_isolates_panics_and_joins_on_drop() {
        let stats = Arc::new(LiveStats::default());
        let runs = Arc::new(AtomicUsize::new(0));
        let task_runs = Arc::clone(&runs);
        let journal = daakg_telemetry::EventJournal::new(16);
        let compactor = Compactor::spawn(
            Duration::from_millis(5),
            Arc::clone(&stats),
            journal.clone(),
            Box::new(move || {
                let n = task_runs.fetch_add(1, Ordering::SeqCst);
                if n == 1 {
                    panic!("injected compaction panic");
                }
            }),
        );
        // Nudges and ticks keep the task running past the panic.
        for _ in 0..50 {
            compactor.nudge();
            std::thread::sleep(Duration::from_millis(2));
            if runs.load(Ordering::SeqCst) >= 4 {
                break;
            }
        }
        assert!(runs.load(Ordering::SeqCst) >= 4, "task kept running");
        assert_eq!(
            stats.panics.load(Ordering::Relaxed),
            1,
            "panic isolated and counted"
        );
        drop(compactor);
        let after = runs.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(runs.load(Ordering::SeqCst), after, "thread joined on drop");
        assert_eq!(stats.panics.load(Ordering::Relaxed), 1);
        let panics: Vec<_> = journal
            .events()
            .into_iter()
            .filter(|e| e.kind == daakg_telemetry::EventKind::CompactorPanic)
            .collect();
        assert_eq!(panics.len(), 1, "panic journaled exactly once");
    }

    #[test]
    fn live_config_validation_is_typed() {
        assert!(LiveConfig::default().validate().is_ok());
        let bad = LiveConfig {
            compact_after: 0,
            ..LiveConfig::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(DaakgError::InvalidConfig { .. })
        ));
        let bad = LiveConfig {
            tick: Duration::ZERO,
            ..LiveConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = LiveConfig {
            warm: WarmStartConfig {
                epochs: 0,
                ..WarmStartConfig::default()
            },
            ..LiveConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn live_stats_track_last_version() {
        let stats = LiveStats::default();
        assert_eq!(stats.last_compacted(), None);
        stats.record(0);
        assert_eq!(stats.last_compacted(), Some(0));
        stats.record(7);
        assert_eq!(stats.last_compacted(), Some(7));
        assert_eq!(stats.compactions.load(Ordering::Relaxed), 2);
    }
}
