//! The optional `metric_index.json` artifact: checkpointing an
//! [`IncrementalMetricIndex`] next to a store directory, validated exactly
//! like `cluster_cache.json`.
//!
//! The vantage-point tree is *derived* data, so the artifact is strictly a
//! cache: checkpoints append one `MetricDeltaRecord` per dirty
//! specification to the write-ahead log (kind 4), a full save folds the
//! deltas into the file, and a load **validates every entry field by
//! field** — format version, cost-model key, spec version fingerprint,
//! member set and per-run content fingerprints against the live store, and
//! the tree's structural invariants (every member exactly once across
//! pivots and leaves, every node reachable exactly once, finite
//! non-negative radii, strictly ascending leaves).  Any entry that fails a
//! check is silently skipped and rebuilt on the next pruned query; a
//! corrupt or foreign artifact can never poison an answer.

use super::incremental::{IncrementalMetricIndex, SpecMetricState};
use super::vptree::{VpNode, VpTree};
use crate::persist::{read_json, write_json_atomic, PersistError};
use crate::store::WorkflowStore;
use crate::storeio::StoreIo;
use crate::wal::{self, MetricDeltaRecord, WalRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use wfdiff_sptree::Fingerprint;

/// Version tag of the metric-index artifact; unknown versions are treated
/// as stale (rebuilt), never as errors.
pub const METRIC_INDEX_FORMAT: u32 = 1;

/// File name of the artifact inside a store directory.
pub const METRIC_INDEX_FILE: &str = "metric_index.json";

/// What a [`DiffService::load_metric_state`] pass accepted and rejected.
///
/// [`DiffService::load_metric_state`]: crate::service::DiffService::load_metric_state
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricIndexReport {
    /// Specification trees restored into the index.
    pub loaded: usize,
    /// Entries (or the whole artifact) rejected as stale/corrupt; each will
    /// be rebuilt on the next pruned query.
    pub stale: usize,
}

/// The artifact document.
#[derive(Debug, Serialize, Deserialize)]
struct MetricIndexDoc {
    /// Artifact format version; see [`METRIC_INDEX_FORMAT`].
    format: u32,
    /// Cost-model cache key the tree's radii were computed under.
    cost_key: u64,
    /// One entry per indexed specification.
    specs: Vec<SpecMetricDoc>,
}

/// One specification's checkpointed vantage-point tree.  Also the payload
/// of a [`MetricDeltaRecord`] in the write-ahead log (last write wins), so
/// a delta validates exactly like a file entry.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct SpecMetricDoc {
    spec: String,
    /// Version fingerprint (hex) of the specification the tree was built
    /// against; must match the loaded store's version exactly.
    spec_fingerprint: String,
    /// Seed of the pivot draw.
    seed: u64,
    /// Indexed runs, strictly ascending.
    members: Vec<String>,
    /// Canonical tree fingerprint (hex) of each member's run **content**,
    /// aligned with `members` — a run replaced under an unchanged name must
    /// not let a tree shaped by its old distances validate as fresh.
    run_fingerprints: Vec<String>,
    /// Arena index of the root node, `-1` for an empty tree.
    root: i64,
    /// The node arena, flat (the vendored serde has no tagged enums).
    nodes: Vec<NodeDoc>,
}

/// One flattened [`VpNode`]: `leaf` discriminates, unused fields are empty.
#[derive(Debug, Serialize, Deserialize)]
struct NodeDoc {
    /// `true` for a leaf bucket, `false` for a routing node.
    leaf: bool,
    /// Pivot run name (routing nodes only; empty for leaves).
    pivot: String,
    /// Zero-distance duplicates of the pivot, strictly ascending (routing
    /// nodes only; empty for leaves).
    twins: Vec<String>,
    /// Partition radius (routing nodes only; `0` for leaves).
    mu: f64,
    /// Arena index of the inside subtree, `-1` for none.
    inside: i64,
    /// Arena index of the outside subtree, `-1` for none.
    outside: i64,
    /// Leaf members, strictly ascending (leaves only; empty for inner).
    items: Vec<String>,
}

fn child_doc(child: Option<usize>) -> i64 {
    child.map(|c| c as i64).unwrap_or(-1)
}

/// Builds the checkpoint document for one spec's live state, or `None` when
/// a member cannot be resolved in `store` any more (a concurrent removal).
fn build_doc(spec: &str, state: &SpecMetricState, store: &WorkflowStore) -> Option<SpecMetricDoc> {
    let run_fingerprints: Vec<String> = state
        .members
        .iter()
        .map(|m| store.run(spec, m).map(|run| run.fingerprints().root().to_string()))
        .collect::<Option<_>>()?;
    let nodes = state
        .tree
        .nodes
        .iter()
        .map(|node| match node {
            VpNode::Inner { pivot, twins, mu, inside, outside } => NodeDoc {
                leaf: false,
                pivot: pivot.clone(),
                twins: twins.clone(),
                mu: *mu,
                inside: child_doc(*inside),
                outside: child_doc(*outside),
                items: Vec::new(),
            },
            VpNode::Leaf { items } => NodeDoc {
                leaf: true,
                pivot: String::new(),
                twins: Vec::new(),
                mu: 0.0,
                inside: -1,
                outside: -1,
                items: items.clone(),
            },
        })
        .collect();
    Some(SpecMetricDoc {
        spec: spec.to_string(),
        spec_fingerprint: state.version.to_string(),
        seed: state.seed,
        members: state.members.clone(),
        run_fingerprints,
        root: child_doc(state.tree.root),
        nodes,
    })
}

/// Checkpoints the index by appending one [`MetricDeltaRecord`] per dirty
/// spec to the store directory's write-ahead log — O(changed specs), with
/// the dirty-set and checkpoint-lock discipline of
/// [`crate::cluster::persist::save_wal`].  Unlike a cluster record, a
/// metric record is the spec's whole tree (last write wins): a tree is O(n)
/// in the member count, so there is no O(n²) memo to send as a delta.
/// Returns the number of specs currently tracked by the index.
pub(crate) fn save_wal(
    index: &IncrementalMetricIndex,
    store: &WorkflowStore,
    cost_key: u64,
    dir: &Path,
) -> Result<usize, PersistError> {
    // Held across take → build → append: records land in state order.
    let _checkpoint = index.checkpoint_lock.lock();
    let count = index.with_states(|states| states.len());
    let Some(dirty) = index.take_dirty_specs() else {
        return Ok(count);
    };
    let records: Vec<WalRecord> = index.with_states(|states| {
        dirty
            .iter()
            .filter_map(|spec| {
                let doc = build_doc(spec, states.get(spec)?, store)?;
                Some(WalRecord::MetricDelta(MetricDeltaRecord { cost_key, doc }))
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

/// Folds WAL metric deltas into `dir/metric_index.json` during a full save,
/// last-wins per spec; deltas keyed by a different cost model are dropped
/// and an unreadable base file is treated as empty (the cache must never
/// block a save) — the whole-record counterpart of
/// [`crate::cluster::persist::fold_wal_deltas`], which merges.
pub(crate) fn fold_wal_deltas(
    io: &dyn StoreIo,
    dir: &Path,
    deltas: Vec<MetricDeltaRecord>,
) -> Result<(), PersistError> {
    let Some(final_key) = deltas.last().map(|d| d.cost_key) else {
        return Ok(());
    };
    let path = dir.join(METRIC_INDEX_FILE);
    let mut merged: BTreeMap<String, SpecMetricDoc> = BTreeMap::new();
    if path.exists() {
        if let Ok(doc) = read_json::<MetricIndexDoc>(&path) {
            if doc.format == METRIC_INDEX_FORMAT && doc.cost_key == final_key {
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
    let doc = MetricIndexDoc {
        format: METRIC_INDEX_FORMAT,
        cost_key: final_key,
        specs: merged.into_values().collect(),
    };
    write_json_atomic(io, &path, &doc)
}

/// Restores checkpointed trees into the index, validating every entry
/// against the live `store` (see the [module docs](self)).  A missing file
/// is an empty report; a corrupt/foreign/mis-keyed artifact counts as one
/// stale entry and is otherwise ignored.
pub(crate) fn load(
    index: &IncrementalMetricIndex,
    store: &WorkflowStore,
    cost_key: u64,
    dir: &Path,
) -> MetricIndexReport {
    let path = dir.join(METRIC_INDEX_FILE);
    let mut report = MetricIndexReport::default();
    let mut entries: BTreeMap<String, SpecMetricDoc> = BTreeMap::new();
    if path.exists() {
        match read_json::<MetricIndexDoc>(&path) {
            Ok(doc) if doc.format == METRIC_INDEX_FORMAT && doc.cost_key == cost_key => {
                for entry in doc.specs {
                    entries.insert(entry.spec.clone(), entry);
                }
            }
            _ => report.stale += 1,
        }
    }
    if let Ok(scan) = wal::scan(dir) {
        for record in scan.records {
            if let WalRecord::MetricDelta(delta) = record {
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
        index.mark_dirty();
    }
    report
}

/// Full structural validation of one checkpointed spec entry; `None` means
/// stale (rebuild on demand).
fn validate(doc: &SpecMetricDoc, store: &WorkflowStore) -> Option<SpecMetricState> {
    let (spec, runs) = store.snapshot(&doc.spec)?;
    if spec.fingerprint().to_string() != doc.spec_fingerprint {
        return None;
    }
    let version = Fingerprint(u128::from_str_radix(&doc.spec_fingerprint, 16).ok()?);
    // The member set must be exactly the store's current run set, strictly
    // ascending, with matching per-run content fingerprints.
    let store_runs: Vec<&str> = runs.iter().map(|(n, _)| n.as_str()).collect();
    if doc.members.len() != store_runs.len()
        || doc.members.iter().map(String::as_str).ne(store_runs.iter().copied())
        || !doc.members.windows(2).all(|w| w[0] < w[1])
    {
        return None;
    }
    if doc.run_fingerprints.len() != doc.members.len() {
        return None;
    }
    for ((_, run), recorded) in runs.iter().zip(&doc.run_fingerprints) {
        if run.fingerprints().root().to_string() != *recorded {
            return None;
        }
    }
    let n = doc.members.len();
    if n == 0 {
        return None;
    }
    // Walk the arena from the root: every node reachable exactly once, every
    // member appearing exactly once across pivots and leaf items.
    let root = usize::try_from(doc.root).ok()?;
    let mut visited = vec![false; doc.nodes.len()];
    let mut held: Vec<&str> = Vec::with_capacity(n);
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        let node = doc.nodes.get(id)?;
        if std::mem::replace(&mut visited[id], true) {
            return None;
        }
        if node.leaf {
            if !node.pivot.is_empty()
                || !node.twins.is_empty()
                || node.inside != -1
                || node.outside != -1
            {
                return None;
            }
            if !node.items.windows(2).all(|w| w[0] < w[1]) {
                return None;
            }
            held.extend(node.items.iter().map(String::as_str));
        } else {
            if !node.items.is_empty() || node.pivot.is_empty() {
                return None;
            }
            if !node.mu.is_finite() || node.mu < 0.0 {
                return None;
            }
            if !node.twins.windows(2).all(|w| w[0] < w[1]) {
                return None;
            }
            held.push(node.pivot.as_str());
            held.extend(node.twins.iter().map(String::as_str));
            for child in [node.inside, node.outside] {
                if child != -1 {
                    stack.push(usize::try_from(child).ok()?);
                }
            }
        }
    }
    if visited.iter().any(|v| !v) {
        return None;
    }
    held.sort_unstable();
    if held.len() != n || held.iter().copied().ne(doc.members.iter().map(String::as_str)) {
        return None;
    }
    let nodes: Vec<VpNode> = doc
        .nodes
        .iter()
        .map(|node| {
            if node.leaf {
                VpNode::Leaf { items: node.items.clone() }
            } else {
                VpNode::Inner {
                    pivot: node.pivot.clone(),
                    twins: node.twins.clone(),
                    mu: node.mu,
                    inside: usize::try_from(node.inside).ok(),
                    outside: usize::try_from(node.outside).ok(),
                }
            }
        })
        .collect();
    Some(SpecMetricState {
        seed: doc.seed,
        version,
        members: doc.members.clone(),
        tree: VpTree { nodes, root: Some(root) },
    })
}
