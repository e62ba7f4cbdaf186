//! [`IncrementalClusterIndex`] — run clustering that follows the store.
//!
//! PDiffView's headline application is grouping the runs of a workflow
//! specification by provenance similarity.  A one-shot clustering over a
//! static store answers that once; a *server* (`POST /runs` streaming new
//! runs in) needs the clusters to follow the store without re-differencing
//! the world.  This index maintains, per specification:
//!
//! * the clustered member runs (sorted by name),
//! * the current medoids and per-run cluster assignments,
//! * a **memo of every edit distance ever fetched** for the clustering.
//!
//! # Cost of a streamed insert
//!
//! [`IncrementalClusterIndex::insert_run`] fetches only the distances the
//! update can actually need fresh: the new run against the `k` medoids, and
//! the new run against the members of the cluster it joins — **O(k +
//! |cluster|) prepared diffs, not O(n²)** (and each diff itself rides the
//! service's shared [`ShardedDiffCache`], so the new run is prepared once
//! and its subtree tables are shared).  The subsequent re-stabilisation
//! (the alternating iteration of [`kmedoids`](mod@crate::cluster::kmedoids),
//! warm-started from the current medoids) runs almost entirely against the
//! distance memo; it fetches more only in the rare case where the insert
//! actually moves a medoid and the change ripples into neighbouring
//! clusters.
//!
//! That iteration still *reads* the memo Σ|cluster|² times per round, so
//! each read must be cheap.  Run names therefore stay at the edges: every
//! member holds a stable `u32` id from when it first appears until it
//! leaves, assignments and medoids are positions in the sorted member list,
//! and the memo is one map from the packed unordered id pair to the
//! distance, hashed by a single multiply-fold.  A memo read allocates
//! nothing and hashes no string; names are used only to ask the
//! [`DistanceOracle`] on a miss.  A removed or replaced run has its
//! entries purged by id, and its id is reused only after that purge.
//!
//! Because every mutation re-stabilises to a fixed point of the same
//! deterministic iteration, an index that tracked a store through inserts
//! and removals converges to the same clusters a from-scratch recluster of
//! the final store finds (the integration tests assert exactly this on
//! well-separated run families).
//!
//! # Staleness
//!
//! Index state is tagged with the specification's version fingerprint; a
//! replaced specification silently invalidates the state (it is rebuilt on
//! the next [`IncrementalClusterIndex::ensure`]).  The state is a *cache*:
//! dropping it never loses data, and
//! [`persist`](crate::cluster::persist) can checkpoint it next to the store
//! directory so a restarted server resumes without re-differencing.
//!
//! Each state journals the memo keys it inserts, so a checkpoint record
//! carries only the entries added since the previous one — a streamed
//! insert's record costs its O(k + |cluster|) new distances, not the O(n²)
//! memo.  A state that [`IncrementalClusterIndex::ensure`] builds journals
//! its whole memo.  The journal is compacted against the memo whenever it
//! grows past twice the memo's size, so it stays bounded without
//! checkpoints.
//!
//! [`ShardedDiffCache`]: wfdiff_core::ShardedDiffCache

use super::kmedoids::{seed_medoids, solve};
use crate::lockrank::CheckpointLock;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use wfdiff_sptree::Fingerprint;

/// Iteration ceiling of the stabilisation runs.
const MAX_ITERATIONS: usize = 64;

/// Journal entries tolerated beyond twice the memo size before the journal
/// is compacted against the memo.
const JOURNAL_SLACK: usize = 64;

/// Supplies edit distances between stored runs of one specification, batched
/// one-source-to-many-targets so implementations can prepare the source run
/// once (the [`DiffService`](crate::service::DiffService) implementation
/// rides its worker pool and shared cache).
pub trait DistanceOracle {
    /// The oracle's failure type (e.g. a run disappeared from the store).
    type Error;

    /// Distances from `source` to each of `targets`, index-aligned.
    fn distances(&self, source: &str, targets: &[&str]) -> Result<Vec<f64>, Self::Error>;
}

/// One cluster of a [`ClusterSnapshot`]: a representative stored run (the
/// medoid) and the member runs, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCluster {
    /// The cluster's medoid — an actual stored run, not an abstract centre.
    pub medoid: String,
    /// All member runs (including the medoid), sorted by name.
    pub runs: Vec<String>,
}

/// A consistent, read-only view of one specification's run clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// The specification whose runs are clustered.
    pub spec: String,
    /// The requested cluster count (the effective count is
    /// `min(k, clustered runs)`).
    pub k: usize,
    /// Seed of the initial medoid draw.
    pub seed: u64,
    /// Clusters ordered by medoid name.
    pub clusters: Vec<RunCluster>,
    /// Medoid-based silhouette score in `[-1, 1]`
    /// (see [`KMedoids::silhouette`](crate::cluster::kmedoids::KMedoids::silhouette)).
    pub silhouette: f64,
    /// Sum of every run's distance to its medoid.
    pub cost: f64,
}

impl ClusterSnapshot {
    /// The cluster index of a run, if it is clustered.
    pub fn cluster_of(&self, run: &str) -> Option<usize> {
        self.clusters.iter().position(|c| c.runs.iter().any(|r| r == run))
    }

    /// The partition as a set of member-run lists (cluster order already
    /// normalised by medoid name) — handy for equality checks that should
    /// not depend on silhouette/cost float formatting.
    pub fn partition(&self) -> Vec<Vec<String>> {
        self.clusters.iter().map(|c| c.runs.clone()).collect()
    }
}

/// The distance memo: packed unordered member-id pair → edit distance.
type DistanceMemo = HashMap<u64, f64, BuildHasherDefault<PairKeyHasher>>;

/// A one-round multiply-fold hasher for the memo's packed id-pair keys.
/// The keys are small internal ids, never request input, so SipHash's
/// flooding resistance buys nothing here; one 64×64→128-bit multiply with
/// the halves folded together spreads them across the table.
#[derive(Debug, Default, Clone, Copy)]
struct PairKeyHasher(u64);

impl Hasher for PairKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

/// The memo key of the unordered member-id pair `{a, b}`.
fn pair_key(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (u64::from(lo) << 32) | u64::from(hi)
}

/// The two ids of a memo key, lower first.
fn key_ids(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Per-specification clustering state; see the [module docs](self).
///
/// Run names appear only at the edges — the member list, the oracle calls
/// on a memo miss and the snapshot.  Everything the iteration touches is
/// positional: `assignments` and `medoids` index the sorted member list,
/// and the memo is keyed by a stable `u32` id per member.
#[derive(Debug, Clone)]
pub(crate) struct SpecClusterState {
    /// Requested cluster count (effective count clamps to the member count).
    pub(crate) k: usize,
    /// Seed of the initial medoid draw.
    pub(crate) seed: u64,
    /// The specification version this state was computed against.
    pub(crate) version: Fingerprint,
    /// Clustered runs, sorted by name.
    pub(crate) members: Vec<String>,
    /// Memo id of each member, aligned with `members`.  An id is fixed when
    /// the member first appears and released when it leaves.
    ids: Vec<u32>,
    /// Released ids, reused before `next_id` grows, so ids stay below the
    /// peak member count (far below 2³² for any store that fits in memory;
    /// a checkpoint load rejects larger member lists).
    free_ids: Vec<u32>,
    /// One past the largest id ever handed out.
    next_id: u32,
    /// Cluster index per member, aligned with `members`.
    pub(crate) assignments: Vec<usize>,
    /// Medoids as positions in `members`, one per cluster, ascending.
    pub(crate) medoids: Vec<usize>,
    /// Memoised distances between members.  Invariant: both ids of every
    /// key belong to current members.
    distances: DistanceMemo,
    /// Memo keys inserted since the last successful checkpoint, in insertion
    /// order; the next checkpoint record carries exactly these entries.  A
    /// key may repeat or have been purged since; both are filtered when the
    /// record is built.  Compacted against the memo once it outgrows it, so
    /// it stays bounded even when no checkpoint ever runs.
    journal: Vec<u64>,
    /// Cached medoid-based silhouette of the current clustering.
    pub(crate) silhouette: f64,
    /// Cached sum of member-to-medoid distances.
    pub(crate) cost: f64,
}

impl SpecClusterState {
    /// An unclustered state with an empty memo over `members` (sorted,
    /// distinct), member `p` holding id `p`.
    pub(crate) fn new(k: usize, seed: u64, version: Fingerprint, members: Vec<String>) -> Self {
        let n = members.len() as u32;
        SpecClusterState {
            k,
            seed,
            version,
            members,
            ids: (0..n).collect(),
            free_ids: Vec::new(),
            next_id: n,
            assignments: Vec::new(),
            medoids: Vec::new(),
            distances: DistanceMemo::default(),
            journal: Vec::new(),
            silhouette: 0.0,
            cost: 0.0,
        }
    }

    /// Records a checkpointed distance between the members at positions
    /// `i` and `j` of a state built by [`Self::new`] (whose ids *are* the
    /// positions).  Returns `false` when the pair was already recorded.
    pub(crate) fn restore_distance(&mut self, i: usize, j: usize, d: f64) -> bool {
        self.distances.insert(pair_key(i as u32, j as u32), d).is_none()
    }

    /// The journaled memo entries as `(i, j, d)` over member positions,
    /// `i < j`, sorted and distinct — a checkpoint record's `distances`.
    pub(crate) fn journal_by_position(&self) -> Vec<(usize, usize, f64)> {
        let mut position_of = vec![None; self.next_id as usize];
        for (p, &id) in self.ids.iter().enumerate() {
            if let Some(slot) = position_of.get_mut(id as usize) {
                *slot = Some(p);
            }
        }
        let position = |id: u32| position_of.get(id as usize).copied().flatten();
        let mut entries: Vec<(usize, usize, f64)> = self
            .journal
            .iter()
            .filter_map(|key| {
                let d = *self.distances.get(key)?;
                let (a, b) = key_ids(*key);
                let (i, j) = (position(a)?, position(b)?);
                Some((i.min(j), i.max(j), d))
            })
            .collect();
        entries.sort_by_key(|&(i, j, _)| (i, j));
        entries.dedup_by_key(|&mut (i, j, _)| (i, j));
        entries
    }

    /// Marks every journaled entry as checkpointed.
    pub(crate) fn clear_journal(&mut self) {
        self.journal.clear();
    }

    /// Journals the whole memo, so the next checkpoint record carries every
    /// entry — for a freshly built state, and after a failed append.
    pub(crate) fn journal_whole_memo(&mut self) {
        self.journal.clear();
        self.journal.extend(self.distances.keys());
    }

    /// Memoises one fetched distance and journals its key.
    fn memoize(&mut self, key: u64, d: f64) {
        self.distances.insert(key, d);
        self.journal.push(key);
        if self.journal.len() > 2 * self.distances.len() + JOURNAL_SLACK {
            let memo = &self.distances;
            self.journal.retain(|key| memo.contains_key(key));
            self.journal.sort_unstable();
            self.journal.dedup();
        }
    }

    /// Consumes the state, re-keying its memo for a state over `members`
    /// built by [`Self::new`]; entries involving runs outside `members` are
    /// dropped.
    fn into_memo_for(self, members: &[String]) -> DistanceMemo {
        let mut renumbered = vec![None; self.next_id as usize];
        for (name, &id) in self.members.iter().zip(&self.ids) {
            if let (Ok(p), Some(slot)) =
                (members.binary_search(name), renumbered.get_mut(id as usize))
            {
                *slot = Some(p as u32);
            }
        }
        let renumber = |id: u32| renumbered.get(id as usize).copied().flatten();
        self.distances
            .into_iter()
            .filter_map(|(key, d)| {
                let (a, b) = key_ids(key);
                Some((pair_key(renumber(a)?, renumber(b)?), d))
            })
            .collect()
    }

    fn snapshot(&self, spec: &str) -> ClusterSnapshot {
        let mut clusters: Vec<RunCluster> = self
            .medoids
            .iter()
            .map(|&m| RunCluster { medoid: self.members[m].clone(), runs: Vec::new() })
            .collect();
        for (member, &c) in self.members.iter().zip(&self.assignments) {
            if let Some(cluster) = clusters.get_mut(c) {
                cluster.runs.push(member.clone());
            }
        }
        ClusterSnapshot {
            spec: spec.to_string(),
            k: self.k,
            seed: self.seed,
            clusters,
            silhouette: self.silhouette,
            cost: self.cost,
        }
    }

    /// A fresh memo id.
    fn allocate_id(&mut self) -> u32 {
        self.free_ids.pop().unwrap_or_else(|| {
            self.next_id += 1;
            self.next_id - 1
        })
    }

    /// Drops every memoised distance involving `id`.
    fn purge_id(&mut self, id: u32) {
        self.distances.retain(|&key, _| {
            let (a, b) = key_ids(key);
            a != id && b != id
        });
    }

    /// Purges `id` and makes it available for reuse.
    fn release_id(&mut self, id: u32) {
        self.purge_id(id);
        self.free_ids.push(id);
    }

    /// Memoised distance between the members at positions `i` and `j`;
    /// fetches through the oracle, by name, only on a miss.
    fn distance<O: DistanceOracle>(
        &mut self,
        oracle: &O,
        i: usize,
        j: usize,
    ) -> Result<f64, O::Error> {
        if i == j {
            return Ok(0.0);
        }
        let key = pair_key(self.ids[i], self.ids[j]);
        if let Some(&d) = self.distances.get(&key) {
            return Ok(d);
        }
        let d = oracle.distances(&self.members[i], &[&self.members[j]])?[0];
        self.memoize(key, d);
        Ok(d)
    }

    /// Distances from `source` (a run name and its memo id; it need not be
    /// a member yet) to the members at `targets`, index-aligned.  Every
    /// distance not already memoised is fetched in **one** oracle batch.
    fn row<O: DistanceOracle>(
        &mut self,
        oracle: &O,
        source: &str,
        source_id: u32,
        targets: &[usize],
    ) -> Result<Vec<f64>, O::Error> {
        let mut row = Vec::with_capacity(targets.len());
        let mut missing = Vec::new();
        for (slot, &t) in targets.iter().enumerate() {
            let id = self.ids[t];
            if id == source_id {
                row.push(0.0);
                continue;
            }
            match self.distances.get(&pair_key(source_id, id)) {
                Some(&d) => row.push(d),
                None => {
                    missing.push(slot);
                    row.push(0.0);
                }
            }
        }
        if !missing.is_empty() {
            let names: Vec<&str> =
                missing.iter().map(|&slot| self.members[targets[slot]].as_str()).collect();
            let fetched = oracle.distances(source, &names)?;
            for (&slot, d) in missing.iter().zip(fetched) {
                row[slot] = d;
                self.memoize(pair_key(source_id, self.ids[targets[slot]]), d);
            }
        }
        Ok(row)
    }

    /// The nearest medoid's cluster for a run that is not a member yet,
    /// prefetching its distances to every member of that cluster: O(k +
    /// |cluster|) fresh diffs, so the medoid update has every sum it needs.
    fn join_cluster<O: DistanceOracle>(
        &mut self,
        oracle: &O,
        run_name: &str,
        id: u32,
    ) -> Result<usize, O::Error> {
        let medoids = self.medoids.clone();
        let mut nearest = (f64::INFINITY, 0usize);
        for (c, d) in self.row(oracle, run_name, id, &medoids)?.into_iter().enumerate() {
            if d < nearest.0 {
                nearest = (d, c);
            }
        }
        let cluster: Vec<usize> =
            (0..self.members.len()).filter(|&p| self.assignments[p] == nearest.1).collect();
        self.row(oracle, run_name, id, &cluster)?;
        Ok(nearest.1)
    }

    /// Runs the alternating iteration to a fixed point from the given
    /// initial medoids (member positions) and installs the result.
    fn stabilize<O: DistanceOracle>(
        &mut self,
        oracle: &O,
        initial: Vec<usize>,
    ) -> Result<(), O::Error> {
        let n = self.members.len();
        debug_assert!(n > 0);
        let mut dist = |i: usize, j: usize| self.distance(oracle, i, j);
        let result = solve(n, initial, MAX_ITERATIONS, &mut dist)?;
        let silhouette = result.silhouette(&mut dist)?;
        self.silhouette = silhouette;
        self.cost = result.cost;
        self.medoids = result.medoids;
        self.assignments = result.assignments;
        Ok(())
    }

    /// Deterministic farthest-point reseed followed by stabilisation —
    /// the from-scratch build path.
    fn reseed_and_stabilize<O: DistanceOracle>(
        &mut self,
        oracle: &O,
        effective_k: usize,
    ) -> Result<(), O::Error> {
        let n = self.members.len();
        let seed = self.seed;
        let initial = seed_medoids(n, effective_k, seed, &mut |i, j| self.distance(oracle, i, j))?;
        self.stabilize(oracle, initial)
    }
}

/// A thread-safe registry of per-specification run clusterings; see the
/// [module docs](self).
///
/// Mutations are serialised per index (one lock), and the lock is held
/// across the distance fetches a mutation performs — clustering updates are
/// rare next to diff traffic, and serialising them keeps every snapshot a
/// true fixed point of the iteration.
#[derive(Debug, Default)]
pub struct IncrementalClusterIndex {
    states: Mutex<HashMap<String, SpecClusterState>>,
    /// Set by every state mutation, consumed by the persistence layer so a
    /// checkpoint after a read-only query costs nothing.
    dirty: std::sync::atomic::AtomicBool,
    /// Names of the specifications mutated since the last checkpoint — the
    /// WAL checkpoint appends one delta record per entry instead of
    /// rewriting the whole cache file.
    dirty_specs: Mutex<std::collections::BTreeSet<String>>,
    /// Set by [`Self::mark_dirty`]: every tracked spec must be re-appended
    /// (e.g. after a load pass rejected on-disk entries).
    all_dirty: std::sync::atomic::AtomicBool,
    /// Held by a checkpoint across take-dirty → build → append, so two
    /// checkpoints append their records in the order they took the states.
    pub(crate) checkpoint_lock: CheckpointLock,
}

impl IncrementalClusterIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        IncrementalClusterIndex::default()
    }

    /// Marks the whole index as changed since the last checkpoint: the next
    /// checkpoint re-appends every tracked specification.
    pub(crate) fn mark_dirty(&self) {
        self.all_dirty.store(true, std::sync::atomic::Ordering::Release);
        self.dirty.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Marks one specification's state as changed since the last
    /// checkpoint.  Callers may hold the `states` lock; this only touches
    /// the (leaf) dirty-set lock.
    pub(crate) fn mark_spec_dirty(&self, spec: &str) {
        self.dirty_specs.lock().insert(spec.to_string());
        self.dirty.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Consumes the dirty state: `None` when nothing changed since the last
    /// successful checkpoint, otherwise the sorted spec names to append
    /// delta records for (all tracked specs after a [`Self::mark_dirty`]).
    /// The set may name specs whose state has since been dropped; the
    /// checkpoint simply skips those.
    pub(crate) fn take_dirty_specs(&self) -> Option<Vec<String>> {
        if !self.dirty.swap(false, std::sync::atomic::Ordering::AcqRel) {
            return None;
        }
        let all = self.all_dirty.swap(false, std::sync::atomic::Ordering::AcqRel);
        // Statement-scoped lock: never held while taking the states lock.
        let mut dirty: Vec<String> =
            std::mem::take(&mut *self.dirty_specs.lock()).into_iter().collect();
        if all {
            dirty.extend(self.with_states(|states| states.keys().cloned().collect::<Vec<_>>()));
            dirty.sort();
            dirty.dedup();
        }
        Some(dirty)
    }

    /// Returns the clustering of `spec`'s runs, building (or rebuilding) it
    /// when the index holds no state for the requested `(k, seed)` over the
    /// given member set and specification version.
    ///
    /// `run_names` is the store's current run set for the specification;
    /// a state whose members diverge from it is stale and rebuilt.  An
    /// empty collection yields an empty snapshot and stores no state.
    ///
    /// The freshness check is by *name* — a run replaced under an
    /// unchanged name must be routed through
    /// [`IncrementalClusterIndex::insert_run`] (which purges its stale
    /// distances), exactly as
    /// [`DiffService::notify_run_inserted`](crate::service::DiffService::notify_run_inserted)
    /// does.
    pub fn ensure<O: DistanceOracle>(
        &self,
        spec: &str,
        version: Fingerprint,
        run_names: &[String],
        k: usize,
        seed: u64,
        oracle: &O,
    ) -> Result<ClusterSnapshot, O::Error> {
        let mut members: Vec<String> = run_names.to_vec();
        members.sort();
        members.dedup();
        let mut states = self.states.lock();
        if let Some(state) = states.get(spec) {
            if state.k == k
                && state.seed == seed
                && state.version == version
                && state.members == members
            {
                return Ok(state.snapshot(spec));
            }
        }
        if members.is_empty() {
            if states.remove(spec).is_some() {
                self.mark_spec_dirty(spec);
            }
            return Ok(ClusterSnapshot {
                spec: spec.to_string(),
                k,
                seed,
                clusters: Vec::new(),
                silhouette: 0.0,
                cost: 0.0,
            });
        }
        // Rebuild, keeping the distance memo of a same-version predecessor
        // (a changed k or member set does not invalidate distances) for the
        // runs that are still members.
        let predecessor = states.remove(spec).filter(|old| old.version == version);
        let mut state = SpecClusterState::new(k, seed, version, members);
        if let Some(old) = predecessor {
            state.distances = old.into_memo_for(&state.members);
        }
        let n = state.members.len();
        state.reseed_and_stabilize(oracle, k.clamp(1, n))?;
        // A built state checkpoints whole: its first record carries every
        // memo entry, like a record with nothing before it.
        state.journal_whole_memo();
        let snapshot = state.snapshot(spec);
        states.insert(spec.to_string(), state);
        self.mark_spec_dirty(spec);
        Ok(snapshot)
    }

    /// Folds a newly stored run into the clustering, if the index holds
    /// state for the specification (otherwise this is a no-op — the state
    /// will include the run when it is next built).
    ///
    /// Returns `true` when an index state absorbed the run.  A state built
    /// against a different specification version is dropped instead.
    pub fn insert_run<O: DistanceOracle>(
        &self,
        spec: &str,
        version: Fingerprint,
        run_name: &str,
        oracle: &O,
    ) -> Result<bool, O::Error> {
        let mut states = self.states.lock();
        let Some(state) = states.get_mut(spec) else {
            return Ok(false);
        };
        if state.version != version {
            states.remove(spec);
            self.mark_spec_dirty(spec);
            return Ok(false);
        }
        match state.members.binary_search_by(|m| m.as_str().cmp(run_name)) {
            Ok(position) => {
                // A replaced run of the same name: its old distances are
                // stale.  It keeps its position and id.
                let id = state.ids[position];
                state.purge_id(id);
            }
            Err(position) => {
                let id = state.allocate_id();
                let cluster = match state.join_cluster(oracle, run_name, id) {
                    Ok(cluster) => cluster,
                    Err(e) => {
                        // Never leave memo entries behind for an id that
                        // no member holds: the id is reused later.
                        state.release_id(id);
                        return Err(e);
                    }
                };
                state.members.insert(position, run_name.to_string());
                state.ids.insert(position, id);
                state.assignments.insert(position, cluster);
                for m in &mut state.medoids {
                    if *m >= position {
                        *m += 1;
                    }
                }
            }
        }
        // An index built while fewer than k runs were stored clamped its
        // cluster count; growing past the clamp must add clusters back
        // (the mirror of remove_run's shrink path), or the maintained
        // clustering would permanently diverge from a from-scratch one.
        let effective_k = state.k.clamp(1, state.members.len());
        if state.medoids.len() < effective_k {
            state.reseed_and_stabilize(oracle, effective_k)?;
        } else {
            let initial = state.medoids.clone();
            state.stabilize(oracle, initial)?;
        }
        self.mark_spec_dirty(spec);
        Ok(true)
    }

    /// Removes a run from the clustering, if the index holds state for the
    /// specification.  Returns `true` when an index state was updated.
    pub fn remove_run<O: DistanceOracle>(
        &self,
        spec: &str,
        run_name: &str,
        oracle: &O,
    ) -> Result<bool, O::Error> {
        let mut states = self.states.lock();
        let Some(state) = states.get_mut(spec) else {
            return Ok(false);
        };
        let Ok(position) = state.members.binary_search_by(|m| m.as_str().cmp(run_name)) else {
            return Ok(false);
        };
        let was_medoid = state.medoids.iter().position(|&m| m == position);
        state.members.remove(position);
        state.assignments.remove(position);
        let id = state.ids.remove(position);
        state.release_id(id);
        // Later members move down one position.  A removed medoid's own
        // slot is overwritten below (replacement or reseed).
        for m in &mut state.medoids {
            if *m > position {
                *m -= 1;
            }
        }
        self.mark_spec_dirty(spec);
        if state.members.is_empty() {
            states.remove(spec);
            return Ok(true);
        }
        let n = state.members.len();
        let effective_k = state.k.clamp(1, n);
        if was_medoid.is_some() || state.medoids.len() > effective_k {
            if let (Some(c), true) = (was_medoid, state.medoids.len() <= effective_k) {
                // Replace the lost medoid with the best remaining member of
                // its former cluster (falling back to a deterministic
                // reseed when the cluster emptied out).
                let former: Vec<usize> = (0..n).filter(|&p| state.assignments[p] == c).collect();
                let Some(&first) = former.first() else {
                    state.reseed_and_stabilize(oracle, effective_k)?;
                    return Ok(true);
                };
                let mut best = (f64::INFINITY, first);
                for &candidate in &former {
                    // One batched fetch per candidate, summed in member
                    // order.
                    let name = state.members[candidate].clone();
                    let id = state.ids[candidate];
                    let mut sum = 0.0;
                    for d in state.row(oracle, &name, id, &former)? {
                        sum += d;
                    }
                    if sum < best.0 {
                        best = (sum, candidate);
                    }
                }
                state.medoids[c] = best.1;
            } else {
                // The member count dropped below k: reseed deterministically
                // with the clamped cluster count.
                state.reseed_and_stabilize(oracle, effective_k)?;
                return Ok(true);
            }
        }
        let initial = state.medoids.clone();
        state.stabilize(oracle, initial)?;
        Ok(true)
    }

    /// Drops the state of one specification (e.g. after a spec replacement).
    pub fn invalidate(&self, spec: &str) {
        if self.states.lock().remove(spec).is_some() {
            self.mark_spec_dirty(spec);
        }
    }

    /// A read-only snapshot of the current clustering of `spec`, if the
    /// index holds one.
    pub fn snapshot(&self, spec: &str) -> Option<ClusterSnapshot> {
        self.states.lock().get(spec).map(|s| s.snapshot(spec))
    }

    /// Names of the specifications the index currently holds state for.
    pub fn specs(&self) -> Vec<String> {
        let mut names: Vec<String> = self.states.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of memoised distances held for `spec` (testing/diagnostics).
    pub fn memoized_distances(&self, spec: &str) -> usize {
        self.states.lock().get(spec).map(|s| s.distances.len()).unwrap_or(0)
    }

    /// The memoised medoid-to-member distance rows of `spec`, for the
    /// metric index's candidate screening: `rows[member][i]` is the cached
    /// `d(member, medoid_i)` when the clustering happened to fetch it
    /// (`None` otherwise — rows are reused, never computed here).  The
    /// stabilisation iteration touches every member-to-medoid pair, so a
    /// settled clustering yields complete rows for free.
    pub(crate) fn medoid_distance_rows(
        &self,
        spec: &str,
    ) -> Option<HashMap<String, Vec<Option<f64>>>> {
        let states = self.states.lock();
        let state = states.get(spec)?;
        if state.medoids.is_empty() {
            return None;
        }
        Some(
            state
                .members
                .iter()
                .zip(&state.ids)
                .map(|(member, &id)| {
                    let row = state
                        .medoids
                        .iter()
                        .map(|&m| {
                            let medoid = state.ids[m];
                            if id == medoid {
                                Some(0.0)
                            } else {
                                state.distances.get(&pair_key(id, medoid)).copied()
                            }
                        })
                        .collect();
                    (member.clone(), row)
                })
                .collect(),
        )
    }

    /// Internal access for the persistence layer.
    pub(crate) fn with_states<T>(
        &self,
        f: impl FnOnce(&mut HashMap<String, SpecClusterState>) -> T,
    ) -> T {
        f(&mut self.states.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A matrix-backed oracle over named points `p0..pN` that counts how
    /// many distances were actually fetched.
    struct MatrixOracle {
        matrix: Vec<Vec<f64>>,
        fetches: RefCell<usize>,
    }

    impl MatrixOracle {
        fn new(matrix: Vec<Vec<f64>>) -> Self {
            MatrixOracle { matrix, fetches: RefCell::new(0) }
        }

        fn index(name: &str) -> usize {
            name.trim_start_matches('p').parse().unwrap()
        }
    }

    impl DistanceOracle for MatrixOracle {
        type Error = String;

        fn distances(&self, source: &str, targets: &[&str]) -> Result<Vec<f64>, String> {
            *self.fetches.borrow_mut() += targets.len();
            let i = Self::index(source);
            Ok(targets.iter().map(|t| self.matrix[i][Self::index(t)]).collect())
        }
    }

    /// Three well-separated blobs on a line; names sort as p0..p8.
    fn blobs() -> Vec<Vec<f64>> {
        let coords: [f64; 9] = [0.0, 1.0, 2.0, 100.0, 101.0, 102.0, 200.0, 201.0, 202.0];
        coords.iter().map(|a| coords.iter().map(|b| (a - b).abs()).collect()).collect()
    }

    fn names(indices: std::ops::Range<usize>) -> Vec<String> {
        indices.map(|i| format!("p{i}")).collect()
    }

    const VERSION: Fingerprint = Fingerprint(42);

    #[test]
    fn ensure_builds_and_then_serves_from_state() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        let snap = index.ensure("s", VERSION, &names(0..9), 3, 1, &oracle).unwrap();
        assert_eq!(snap.partition(), vec![names(0..3), names(3..6), names(6..9)]);
        assert_eq!(snap.clusters[0].medoid, "p1");
        assert!(snap.silhouette > 0.9);
        let fetched = *oracle.fetches.borrow();
        assert!(fetched > 0);
        // A second ensure with identical parameters is pure state read.
        let again = index.ensure("s", VERSION, &names(0..9), 3, 1, &oracle).unwrap();
        assert_eq!(again, snap);
        assert_eq!(*oracle.fetches.borrow(), fetched, "no new distance fetches");
    }

    #[test]
    fn streamed_insert_matches_scratch_and_fetches_o_cluster() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        // Cluster everything except p0, then stream p0 in (an edge point of
        // its blob, so the blob's medoid p1 stays put and the whole update
        // runs off the memo).
        let mut initial = names(0..9);
        initial.retain(|n| n != "p0");
        index.ensure("s", VERSION, &initial, 3, 1, &oracle).unwrap();
        let before = *oracle.fetches.borrow();
        assert!(index.insert_run("s", VERSION, "p0", &oracle).unwrap());
        let after = *oracle.fetches.borrow();
        // At most k medoids + 2 same-cluster members.
        assert!(after - before <= 3 + 2, "fetched {} fresh distances", after - before);

        let scratch = IncrementalClusterIndex::new();
        let expected = scratch.ensure("s", VERSION, &names(0..9), 3, 1, &oracle).unwrap();
        assert_eq!(index.snapshot("s").unwrap(), expected);
    }

    #[test]
    fn removal_converges_and_medoid_loss_is_repaired() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        let snap = index.ensure("s", VERSION, &names(0..9), 3, 1, &oracle).unwrap();
        let medoid = snap.clusters[0].medoid.clone();
        assert!(index.remove_run("s", &medoid, &oracle).unwrap());
        let scratch = IncrementalClusterIndex::new();
        let mut remaining = names(0..9);
        remaining.retain(|n| *n != medoid);
        let expected = scratch.ensure("s", VERSION, &remaining, 3, 1, &oracle).unwrap();
        assert_eq!(index.snapshot("s").unwrap(), expected);
        // Removing an unknown run is a no-op.
        assert!(!index.remove_run("s", "p99", &oracle).unwrap());
        assert!(!index.remove_run("other", "p0", &oracle).unwrap());
    }

    #[test]
    fn version_mismatch_invalidates_on_insert() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        index.ensure("s", VERSION, &names(0..6), 2, 1, &oracle).unwrap();
        assert!(!index.insert_run("s", Fingerprint(7), "p6", &oracle).unwrap());
        assert!(index.snapshot("s").is_none(), "stale state was dropped");
    }

    #[test]
    fn growing_past_a_clamped_k_adds_clusters_back() {
        // Built while only 2 runs exist, k=3 clamps to 2 medoids; streaming
        // a third, well-separated run must grow the clustering back to 3
        // clusters — exactly what a from-scratch recluster yields.
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        index.ensure("s", VERSION, &names(0..2), 3, 1, &oracle).unwrap();
        assert_eq!(index.snapshot("s").unwrap().clusters.len(), 2);
        assert!(index.insert_run("s", VERSION, "p6", &oracle).unwrap());
        let grown = index.snapshot("s").unwrap();
        assert_eq!(grown.clusters.len(), 3);
        let scratch = IncrementalClusterIndex::new();
        let expected = scratch
            .ensure("s", VERSION, &["p0".into(), "p1".into(), "p6".into()], 3, 1, &oracle)
            .unwrap();
        assert_eq!(grown, expected);
    }

    #[test]
    fn shrinking_below_k_reseeds_deterministically() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        index.ensure("s", VERSION, &names(0..3), 3, 1, &oracle).unwrap();
        assert!(index.remove_run("s", "p0", &oracle).unwrap());
        let snap = index.snapshot("s").unwrap();
        assert_eq!(snap.clusters.len(), 2, "effective k clamps to the member count");
        assert!(index.remove_run("s", "p1", &oracle).unwrap());
        assert!(index.remove_run("s", "p2", &oracle).unwrap());
        assert!(index.snapshot("s").is_none(), "empty state is dropped");
    }

    #[test]
    fn the_journal_stays_bounded_without_checkpoints() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        index.ensure("s", VERSION, &names(0..9), 3, 1, &oracle).unwrap();
        // Each cycle purges p0's entries and fetches them again, so without
        // compaction the journal would grow by a few keys per cycle.
        for _ in 0..200 {
            assert!(index.remove_run("s", "p0", &oracle).unwrap());
            assert!(index.insert_run("s", VERSION, "p0", &oracle).unwrap());
        }
        index.with_states(|states| {
            let state = &states["s"];
            assert!(state.journal.len() <= 2 * state.distances.len() + JOURNAL_SLACK);
            // Compaction keeps every entry the next record must carry.
            assert_eq!(state.journal_by_position().len(), state.distances.len());
        });
    }

    #[test]
    fn empty_collections_yield_empty_snapshots() {
        let oracle = MatrixOracle::new(blobs());
        let index = IncrementalClusterIndex::new();
        let snap = index.ensure("s", VERSION, &[], 3, 1, &oracle).unwrap();
        assert!(snap.clusters.is_empty());
        assert!(index.snapshot("s").is_none());
        assert!(!index.insert_run("s", VERSION, "p0", &oracle).unwrap());
    }
}
