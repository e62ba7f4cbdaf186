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
//! [`DiffService::save_cluster_state`] writes it and
//! [`DiffService::load_cluster_state`] restores it (the `wfdiff_serve` boot
//! sequence calls the latter right after
//! [`DiffService::warm_start`](crate::service::DiffService::warm_start)).
//!
//! [`DiffService::save_cluster_state`]: crate::service::DiffService::save_cluster_state
//! [`DiffService::load_cluster_state`]: crate::service::DiffService::load_cluster_state

use super::incremental::{IncrementalClusterIndex, SpecClusterState};
use crate::persist::{read_json, write_json_atomic, PersistError};
use crate::store::WorkflowStore;
use crate::storeio::StoreIo;
use crate::wal::{self, ClusterDeltaRecord, WalRecord};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
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
/// crate-visible: the WAL holds whole per-spec snapshots (last-wins on
/// replay), never partial diffs, so a delta validates exactly like a file
/// entry.
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
    /// Memoised distances, `i < j` indexing `members`.
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

/// Builds the checkpoint document for one spec's live state, or `None` when
/// a member cannot be resolved in `store` any more (a concurrent removal) —
/// such a state is left out rather than written inconsistently.
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
    let index_of: HashMap<&str, usize> =
        state.members.iter().enumerate().map(|(i, m)| (m.as_str(), i)).collect();
    let mut distances: Vec<DistanceEntry> = state
        .distances
        .iter()
        .filter_map(|((a, b), &d)| {
            // Entries for runs that have since been removed are already
            // pruned by the index; be defensive anyway.
            let (i, j) = (*index_of.get(a.as_str())?, *index_of.get(b.as_str())?);
            Some(DistanceEntry { i: i.min(j), j: i.max(j), d })
        })
        .collect();
    distances.sort_by_key(|x| (x.i, x.j));
    Some(SpecClusterDoc {
        spec: spec.to_string(),
        spec_fingerprint: state.version.to_string(),
        k: state.k,
        seed: state.seed,
        members: state.members.clone(),
        run_fingerprints,
        assignments: state.members.iter().map(|m| state.assignments[m]).collect(),
        medoids: state.medoids.clone(),
        distances,
        silhouette: state.silhouette,
        cost: state.cost,
    })
}

/// Checkpoints the index by *appending* one [`ClusterDeltaRecord`] per dirty
/// spec to the store directory's write-ahead log — O(changed specs), not
/// O(all specs) — instead of rewriting `cluster_cache.json` whole.  The next
/// full save ([`WorkflowStore::save_to_dir`](crate::store::WorkflowStore))
/// folds the deltas into the file via [`fold_wal_deltas`].  Returns the
/// number of specs currently tracked by the index.
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
    let count = index.with_states(|states| states.len());
    let Some(dirty) = index.take_dirty_specs() else {
        return Ok(count);
    };
    let records: Vec<WalRecord> = index.with_states(|states| {
        dirty
            .iter()
            .filter_map(|spec| {
                let doc = build_doc(spec, states.get(spec)?, store)?;
                Some(WalRecord::ClusterDelta(ClusterDeltaRecord { cost_key, doc }))
            })
            .collect()
    });
    if let Err(e) = store.append_wal_records(dir, &records) {
        // The states are still unpersisted; make sure the next save retries.
        for spec in &dirty {
            index.mark_spec_dirty(spec);
        }
        return Err(e);
    }
    Ok(count)
}

/// Folds WAL cluster deltas into `dir/cluster_cache.json` during a full
/// save: existing file entries are kept as the base (when the file is
/// readable and keyed by the same cost model) and each delta overwrites its
/// spec's entry, last-wins.  Deltas keyed by a different cost model are
/// dropped — their distances are meaningless under the folding service's
/// cost model.  An unreadable base file is treated as empty rather than an
/// error: the cache is derived data and must never block a save.
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
            merged.insert(delta.doc.spec.clone(), delta.doc);
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
    // The checkpoint file is the base; WAL deltas appended after the last
    // fold supersede its entry for the same spec (last-wins), and a
    // superseded entry is never validated — it is simply outdated, not
    // stale.
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
                    entries.insert(delta.doc.spec.clone(), delta.doc);
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
    if n == 0 || doc.k == 0 {
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
    for (c, medoid) in doc.medoids.iter().enumerate() {
        let &m = member_index.get(medoid.as_str())?;
        if doc.assignments[m] != c {
            return None;
        }
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
    let mut distances = HashMap::with_capacity(doc.distances.len());
    for &DistanceEntry { i, j, d } in &doc.distances {
        if i >= j || j >= n || !d.is_finite() || d < 0.0 {
            return None;
        }
        if distances.insert((doc.members[i].clone(), doc.members[j].clone()), d).is_some() {
            return None;
        }
    }
    Some(SpecClusterState {
        k: doc.k,
        seed: doc.seed,
        version,
        members: doc.members.clone(),
        assignments: doc
            .members
            .iter()
            .zip(&doc.assignments)
            .map(|(m, &a)| (m.clone(), a))
            .collect(),
        medoids: doc.medoids.clone(),
        distances,
        silhouette: doc.silhouette,
        cost: doc.cost,
    })
}
