//! The optional `cluster_cache.json` artifact: checkpointing an
//! [`IncrementalClusterIndex`] next to a store directory.
//!
//! Clustering state is *derived* data — every entry can be recomputed from
//! the stored runs — so the artifact is strictly a cache: it is written
//! atomically beside `manifest.json`, **validated field by field on load**
//! (format version, cost-model key, spec version fingerprints, member sets
//! **and per-run content fingerprints** against the live store,
//! assignment/medoid/distance well-formedness) and any entry that fails a
//! check is silently skipped and rebuilt on the next cluster query.  A
//! corrupt or foreign artifact therefore can never poison an answer — not
//! even when a run was replaced under an unchanged name — and deleting the
//! file only costs the re-differencing time.
//!
//! The artifact lives at [`CLUSTER_CACHE_FILE`] inside the store directory
//! written by [`WorkflowStore::save_to_dir`](crate::store::WorkflowStore);
//! [`DiffService::save_cluster_state`] checkpoints into the directory's
//! write-ahead log and [`DiffService::load_cluster_state`] restores the
//! file plus the log (the `wfdiff_serve` boot sequence calls the latter
//! right after
//! [`DiffService::warm_start`](crate::service::DiffService::warm_start)).
//!
//! # Checkpoint records are journaled entries, merged onto the previous entry
//!
//! A spec's memo holds O(n²) distances, so a checkpoint record does not
//! repeat it.  Each record carries the O(n) header (members, run
//! fingerprints, assignments, medoids, silhouette, cost) and only the memo
//! entries journaled since the spec's previous successful checkpoint.  A
//! freshly built state, and one whose last append failed, journals its
//! whole memo, so its record is a whole-memo record.
//!
//! Replay merges each record onto the spec's previous entry (the file
//! entry, then each earlier record): the result is the record's header
//! and entries plus every earlier entry whose two runs are still members
//! with the same run-content fingerprint, under the same spec fingerprint
//! and cost key.  The memo caches a pure function of (spec version, two
//! run contents, cost model), so a carried entry is exactly the distance a
//! fresh diff returns, and an entry the filter drops is refetched
//! bit-identically on demand.  Load and fold share one `merge`, and the
//! merged entry is then validated like any other.  A whole-memo
//! record, as older builds wrote, is simply a record carrying every entry.
//!
//! [`DiffService::save_cluster_state`]: crate::service::DiffService::save_cluster_state
//! [`DiffService::load_cluster_state`]: crate::service::DiffService::load_cluster_state

use super::incremental::{IncrementalClusterIndex, SpecClusterState};
use crate::persist::{read_json, write_json_atomic, PersistError};
use crate::store::WorkflowStore;
use crate::storeio::StoreIo;
use crate::wal::{self, ClusterDeltaRecord, WalRecord};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use wfdiff_sptree::Fingerprint;

/// Version tag of the cluster-cache artifact; unknown versions are treated
/// as stale (rebuilt), never as errors.
pub const CLUSTER_CACHE_FORMAT: u32 = 1;

/// File name of the artifact inside a store directory.
pub const CLUSTER_CACHE_FILE: &str = "cluster_cache.json";

/// What a [`DiffService::load_cluster_state`] pass accepted and rejected.
///
/// [`DiffService::load_cluster_state`]: crate::service::DiffService::load_cluster_state
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterCacheReport {
    /// Specification states restored into the index.
    pub loaded: usize,
    /// Entries (or the whole artifact) rejected as stale/corrupt; each will
    /// be rebuilt on the next cluster query.
    pub stale: usize,
}

/// The artifact document.
#[derive(Debug, Serialize, Deserialize)]
struct ClusterCacheDoc {
    /// Artifact format version; see [`CLUSTER_CACHE_FORMAT`].
    format: u32,
    /// [`CostModel::cache_key`](wfdiff_core::CostModel::cache_key) of the
    /// service that computed the distances — a different cost model makes
    /// every cached distance meaningless.
    cost_key: u64,
    /// One entry per clustered specification.
    specs: Vec<SpecClusterDoc>,
}

/// One specification's checkpointed clustering.  Also the payload of a
/// [`ClusterDeltaRecord`] in the write-ahead log, which is why the type is
/// crate-visible: a record carries the full header but only the journaled
/// memo entries, and replay [`merge`]s it onto the spec's previous entry
/// before it validates like a file entry (see the [module docs](self)).
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct SpecClusterDoc {
    spec: String,
    /// Version fingerprint (hex) of the specification the clustering was
    /// computed against; must match the loaded store's version exactly.
    spec_fingerprint: String,
    k: usize,
    seed: u64,
    /// Clustered runs, strictly ascending.
    members: Vec<String>,
    /// Canonical tree fingerprint (hex) of each member's run **content**,
    /// aligned with `members`.  Without this, replacing a run under an
    /// unchanged name would let a checkpoint full of distances computed
    /// against the old content validate as fresh.
    run_fingerprints: Vec<String>,
    /// Cluster id per member, aligned with `members`.
    assignments: Vec<usize>,
    /// Medoid run names, one per cluster.
    medoids: Vec<String>,
    /// Memoised distances, `i < j` indexing `members`: every entry in the
    /// file, the journaled entries in a WAL record.
    distances: Vec<DistanceEntry>,
    silhouette: f64,
    cost: f64,
}

/// One memoised distance of a [`SpecClusterDoc`].
#[derive(Debug, Serialize, Deserialize)]
struct DistanceEntry {
    /// Lower member index.
    i: usize,
    /// Higher member index.
    j: usize,
    /// The edit distance.
    d: f64,
}

/// Builds the checkpoint record for one spec's live state — the full header
/// and the journaled memo entries — or `None` when a member cannot be
/// resolved in `store` any more (a concurrent removal); such a state is left
/// out rather than written inconsistently, and keeps its journal.
fn build_doc(
    spec: &str,
    state: &SpecClusterState,
    store: &WorkflowStore,
) -> Option<SpecClusterDoc> {
    let run_fingerprints: Vec<String> = state
        .members
        .iter()
        .map(|m| store.run(spec, m).map(|run| run.fingerprints().root().to_string()))
        .collect::<Option<_>>()?;
    let distances = state
        .journal_by_position()
        .into_iter()
        .map(|(i, j, d)| DistanceEntry { i, j, d })
        .collect();
    Some(SpecClusterDoc {
        spec: spec.to_string(),
        spec_fingerprint: state.version.to_string(),
        k: state.k,
        seed: state.seed,
        members: state.members.clone(),
        run_fingerprints,
        assignments: state.assignments.clone(),
        medoids: state
            .medoids
            .iter()
            .map(|&m| state.members.get(m).cloned())
            .collect::<Option<_>>()?,
        distances,
        silhouette: state.silhouette,
        cost: state.cost,
    })
}

/// Checkpoints the index by *appending* one [`ClusterDeltaRecord`] per dirty
/// spec to the store directory's write-ahead log — O(changed specs), not
/// O(all specs) — instead of rewriting `cluster_cache.json` whole.  Each
/// record carries only the memo entries journaled since the spec's last
/// checkpoint (see the [module docs](self)).  The next full save
/// ([`WorkflowStore::save_to_dir`](crate::store::WorkflowStore)) folds the
/// records into the file via [`fold_wal_deltas`].  Returns the number of
/// specs currently tracked by the index.
///
/// The append is skipped entirely — the index tracks per-spec dirty sets —
/// when nothing changed since the last successful checkpoint, so calling
/// this after every read-only query costs nothing.
pub(crate) fn save_wal(
    index: &IncrementalClusterIndex,
    store: &WorkflowStore,
    cost_key: u64,
    dir: &Path,
) -> Result<usize, PersistError> {
    // Held across take → build → append, so records land in the order their
    // states were taken: a record merges onto the one before it.
    let _checkpoint = index.checkpoint_lock.lock();
    let count = index.with_states(|states| states.len());
    let Some(dirty) = index.take_dirty_specs() else {
        return Ok(count);
    };
    let records: Vec<WalRecord> = index.with_states(|states| {
        dirty
            .iter()
            .filter_map(|spec| {
                let state = states.get_mut(spec)?;
                let doc = build_doc(spec, state, store)?;
                state.clear_journal();
                Some(WalRecord::ClusterDelta(ClusterDeltaRecord { cost_key, doc }))
            })
            .collect()
    });
    if let Err(e) = store.append_wal_records(dir, &records) {
        // The journaled entries may not be on disk: journal each whole memo
        // again, and make sure the next save retries.
        index.with_states(|states| {
            for spec in &dirty {
                if let Some(state) = states.get_mut(spec) {
                    state.journal_whole_memo();
                }
            }
        });
        for spec in &dirty {
            index.mark_spec_dirty(spec);
        }
        return Err(e);
    }
    Ok(count)
}

/// Merges a spec's checkpoint record `next` onto its previous entry `prev`
/// (both keyed by the same cost model): `next`'s header and entries, plus
/// every `prev` entry whose two runs are still members of `next` with the
/// same run-content fingerprint, under the same spec fingerprint.  The
/// entries come out sorted by `(i, j)`; `next`'s win over carried ones.
fn merge(prev: SpecClusterDoc, mut next: SpecClusterDoc) -> SpecClusterDoc {
    if prev.spec_fingerprint != next.spec_fingerprint {
        return next;
    }
    // `prev` position → `next` position of the same run with the same
    // content.
    let renumber: Vec<Option<usize>> = {
        let position: HashMap<(&str, &str), usize> = next
            .members
            .iter()
            .zip(&next.run_fingerprints)
            .enumerate()
            .map(|(p, (member, fp))| ((member.as_str(), fp.as_str()), p))
            .collect();
        prev.members
            .iter()
            .zip(&prev.run_fingerprints)
            .map(|(member, fp)| position.get(&(member.as_str(), fp.as_str())).copied())
            .collect()
    };
    let own: HashSet<(usize, usize)> = next.distances.iter().map(|e| (e.i, e.j)).collect();
    let renumbered = |p: usize| renumber.get(p).copied().flatten();
    let carried = prev.distances.into_iter().filter_map(|DistanceEntry { i, j, d }| {
        let (a, b) = (renumbered(i)?, renumbered(j)?);
        let (i, j) = (a.min(b), a.max(b));
        (i != j && !own.contains(&(i, j))).then_some(DistanceEntry { i, j, d })
    });
    next.distances.extend(carried);
    next.distances.sort_by_key(|e| (e.i, e.j));
    next
}

/// Merges `next` onto `entries`' current entry for its spec.
fn merge_into(entries: &mut BTreeMap<String, SpecClusterDoc>, next: SpecClusterDoc) {
    let merged = match entries.remove(&next.spec) {
        Some(prev) => merge(prev, next),
        None => next,
    };
    entries.insert(merged.spec.clone(), merged);
}

/// Folds WAL cluster records into `dir/cluster_cache.json` during a full
/// save: existing file entries are kept as the base (when the file is
/// readable and keyed by the same cost model) and each record is
/// [`merge`]d onto its spec's entry, in append order.  Records keyed by a
/// different cost model are dropped — their distances are meaningless
/// under the folding service's cost model.  An unreadable base file is
/// treated as empty rather than an error: the cache is derived data and
/// must never block a save.
pub(crate) fn fold_wal_deltas(
    io: &dyn StoreIo,
    dir: &Path,
    deltas: Vec<ClusterDeltaRecord>,
) -> Result<(), PersistError> {
    let Some(final_key) = deltas.last().map(|d| d.cost_key) else {
        return Ok(());
    };
    let path = dir.join(CLUSTER_CACHE_FILE);
    let mut merged: BTreeMap<String, SpecClusterDoc> = BTreeMap::new();
    if path.exists() {
        if let Ok(doc) = read_json::<ClusterCacheDoc>(&path) {
            if doc.format == CLUSTER_CACHE_FORMAT && doc.cost_key == final_key {
                for entry in doc.specs {
                    merged.insert(entry.spec.clone(), entry);
                }
            }
        }
    }
    for delta in deltas {
        if delta.cost_key == final_key {
            merge_into(&mut merged, delta.doc);
        }
    }
    let doc = ClusterCacheDoc {
        format: CLUSTER_CACHE_FORMAT,
        cost_key: final_key,
        specs: merged.into_values().collect(),
    };
    write_json_atomic(io, &path, &doc)
}

/// Restores checkpointed states into the index, validating every entry
/// against the live `store` (see the [module docs](self)).  A missing file
/// is an empty report; a corrupt/foreign/mis-keyed artifact counts as one
/// stale entry and is otherwise ignored.
pub(crate) fn load(
    index: &IncrementalClusterIndex,
    store: &WorkflowStore,
    cost_key: u64,
    dir: &Path,
) -> ClusterCacheReport {
    let path = dir.join(CLUSTER_CACHE_FILE);
    let mut report = ClusterCacheReport::default();
    // The checkpoint file is the base; each WAL record appended after the
    // last fold merges onto its spec's entry, and only the merged entry is
    // validated.
    let mut entries: BTreeMap<String, SpecClusterDoc> = BTreeMap::new();
    if path.exists() {
        match read_json::<ClusterCacheDoc>(&path) {
            Ok(doc) if doc.format == CLUSTER_CACHE_FORMAT && doc.cost_key == cost_key => {
                for entry in doc.specs {
                    entries.insert(entry.spec.clone(), entry);
                }
            }
            _ => report.stale += 1,
        }
    }
    if let Ok(scan) = wal::scan(dir) {
        for record in scan.records {
            if let WalRecord::ClusterDelta(delta) = record {
                if delta.cost_key == cost_key {
                    merge_into(&mut entries, delta.doc);
                } else {
                    report.stale += 1;
                }
            }
        }
    }
    for (spec, entry) in entries {
        match validate(&entry, store) {
            Some(state) => {
                index.with_states(|states| states.insert(spec, state));
                report.loaded += 1;
            }
            None => report.stale += 1,
        }
    }
    if report.stale > 0 {
        // The on-disk artifact holds entries the index rejected; the next
        // checkpoint should rewrite it even if no further mutation happens.
        index.mark_dirty();
    }
    report
}

/// Full structural validation of one checkpointed spec entry; `None` means
/// stale (rebuild on demand).
fn validate(doc: &SpecClusterDoc, store: &WorkflowStore) -> Option<SpecClusterState> {
    let (spec, runs) = store.snapshot(&doc.spec)?;
    if spec.fingerprint().to_string() != doc.spec_fingerprint {
        return None;
    }
    let version = Fingerprint(u128::from_str_radix(&doc.spec_fingerprint, 16).ok()?);
    // The member set must be exactly the store's current run set (sorted
    // strictly ascending — which also rules out duplicates) ...
    let store_runs: Vec<&str> = runs.iter().map(|(n, _)| n.as_str()).collect();
    if doc.members.len() != store_runs.len()
        || doc.members.iter().map(String::as_str).ne(store_runs.iter().copied())
        || !doc.members.windows(2).all(|w| w[0] < w[1])
    {
        return None;
    }
    // ... and each member's run *content* must be the content the
    // distances were computed against (a replaced run keeps its name but
    // changes its tree).
    if doc.run_fingerprints.len() != doc.members.len() {
        return None;
    }
    for ((_, run), recorded) in runs.iter().zip(&doc.run_fingerprints) {
        if run.fingerprints().root().to_string() != *recorded {
            return None;
        }
    }
    let n = doc.members.len();
    if n == 0 || doc.k == 0 || u32::try_from(n).is_err() {
        return None;
    }
    let clusters = doc.medoids.len();
    if clusters != doc.k.clamp(1, n) {
        return None;
    }
    // Medoids: distinct members, ascending (the index's normal form), and
    // every assignment must point at an existing cluster with the medoid
    // assigned to itself.
    if !doc.medoids.windows(2).all(|w| w[0] < w[1]) {
        return None;
    }
    if doc.assignments.len() != n {
        return None;
    }
    let member_index: HashMap<&str, usize> =
        doc.members.iter().enumerate().map(|(i, m)| (m.as_str(), i)).collect();
    let mut medoids = Vec::with_capacity(clusters);
    for (c, medoid) in doc.medoids.iter().enumerate() {
        let &m = member_index.get(medoid.as_str())?;
        if doc.assignments[m] != c {
            return None;
        }
        medoids.push(m);
    }
    if doc.assignments.iter().any(|&a| a >= clusters) {
        return None;
    }
    if !doc.silhouette.is_finite()
        || !(-1.0..=1.0).contains(&doc.silhouette)
        || !doc.cost.is_finite()
        || doc.cost < 0.0
    {
        return None;
    }
    // Member `p` gets memo id `p`, so the `(i, j, d)` entries are already
    // id pairs.
    let mut state = SpecClusterState::new(doc.k, doc.seed, version, doc.members.clone());
    for &DistanceEntry { i, j, d } in &doc.distances {
        if i >= j || j >= n || !d.is_finite() || d < 0.0 || !state.restore_distance(i, j, d) {
            return None;
        }
    }
    state.assignments = doc.assignments.clone();
    state.medoids = medoids;
    state.silhouette = doc.silhouette;
    state.cost = doc.cost;
    Some(state)
}
