//! The id-keyed distance memo behind `IncrementalClusterIndex`.
//!
//! * **Differential:** a Fig. 14 collection (forks and loops) streamed
//!   through inserts, a same-name replacement, removals (one of them a
//!   medoid) and the re-insert of a removed name ends in exactly the
//!   clustering a from-scratch `ensure` and a matrix-backed `kmedoids`
//!   compute, down to the bits of `cost` and `silhouette`, under three cost
//!   models.  A stale memo entry surviving any of those steps would put a
//!   run in the wrong cluster.
//! * **Checkpoint:** a saved state reloads into a fresh service with the
//!   same snapshot and the same memo size, and a hand-written format-1
//!   document in the `(i, j, d)` shape still loads.
//! * **Allocation:** one streamed insert into a settled 400-member state
//!   allocates O(n) times, not once per memo lookup, counted by this
//!   binary's global allocator.
//! * **Journaled records:** a checkpoint after one insert into a settled
//!   200-member state appends under a tenth of the first, whole-memo
//!   record.  A chain of such records (a same-name replacement, a removal
//!   and a threshold fold among them), a failed append, and two
//!   checkpoints racing an insert each reload into the live snapshot and
//!   memo.

use pdiffview::pdiffview::cluster::incremental::DistanceOracle;
use pdiffview::pdiffview::cluster::{kmedoids, CLUSTER_CACHE_FORMAT};
use pdiffview::pdiffview::{wal, RealIo, StoreIo};
use pdiffview::pdiffview::{ClusterSnapshot, IncrementalClusterIndex, KMedoidsConfig};
use pdiffview::prelude::*;
use pdiffview::workloads::runs::generate_run_families;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use wfdiff_sptree::Fingerprint;

/// Counts allocations per thread, so tests running in parallel do not see
/// each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const SPEC: &str = "fig14";
const FAMILIES: usize = 3;
const PER_FAMILY: usize = 5;
const SEED: u64 = 11;

/// A Fig. 14-style collection: a specification with forks and loops and
/// three families of runs.  Every family repeats one generated execution,
/// so the natural clustering is unambiguous and an incrementally maintained
/// clustering must agree with a from-scratch one.
fn fig14_families() -> (Specification, Vec<Vec<Run>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x14_F1);
    let spec = random_specification(
        SPEC,
        &SpecGenConfig { target_edges: 40, series_parallel_ratio: 1.0, forks: 3, loops: 2 },
        &mut rng,
    );
    let config = RunGenConfig { prob_p: 0.9, max_f: 3, prob_f: 0.6, max_l: 3, prob_l: 0.6 };
    let families = generate_run_families(&spec, &config, FAMILIES, PER_FAMILY, &mut rng);
    (spec, families)
}

fn run_name(index: usize, family: usize) -> String {
    format!("r{index:02}-f{family}")
}

fn costs() -> [Arc<dyn CostModel>; 3] {
    [Arc::new(UnitCost), Arc::new(LengthCost), Arc::new(PowerCost::new(0.5))]
}

fn service(store: &Arc<WorkflowStore>, cost: &Arc<dyn CostModel>) -> DiffService {
    DiffService::builder(Arc::clone(store)).cost(Arc::clone(cost)).build()
}

/// Asserts that `snapshot` is bit-for-bit the clustering a from-scratch
/// index and a matrix-backed `kmedoids` compute over `store`.
fn assert_matches_scratch(
    snapshot: &ClusterSnapshot,
    store: &Arc<WorkflowStore>,
    cost: &Arc<dyn CostModel>,
) {
    let name = cost.name();
    let scratch = service(store, cost).cluster_medoids(SPEC, FAMILIES, SEED).unwrap();
    assert_eq!(snapshot, &scratch, "{name}: maintained vs scratch ensure");
    assert_eq!(snapshot.cost.to_bits(), scratch.cost.to_bits(), "{name}: cost bits");
    assert_eq!(snapshot.silhouette.to_bits(), scratch.silhouette.to_bits(), "{name}");

    let all = service(store, cost).diff_all_pairs(SPEC).unwrap();
    let matrix = kmedoids(&all.matrix, &KMedoidsConfig::new(FAMILIES).seed(SEED));
    let medoids: Vec<&str> = matrix.medoids.iter().map(|&m| all.runs[m].as_str()).collect();
    let got: Vec<&str> = snapshot.clusters.iter().map(|c| c.medoid.as_str()).collect();
    assert_eq!(got, medoids, "{name}: medoids vs kmedoids");
    let partition: Vec<Vec<String>> = (0..medoids.len())
        .map(|c| matrix.members(c).into_iter().map(|p| all.runs[p].clone()).collect())
        .collect();
    assert_eq!(snapshot.partition(), partition, "{name}: partition vs kmedoids");
    assert_eq!(snapshot.cost.to_bits(), matrix.cost.to_bits(), "{name}: cost vs kmedoids");
    let mut get = |i: usize, j: usize| Ok::<f64, Infallible>(all.matrix[i][j]);
    let silhouette = matrix.silhouette(&mut get).unwrap();
    assert_eq!(snapshot.silhouette.to_bits(), silhouette.to_bits(), "{name}: silhouette");
}

#[test]
fn maintained_clustering_matches_scratch_through_every_mutation() {
    let (spec, families) = fig14_families();
    for cost in costs() {
        let store = Arc::new(WorkflowStore::new());
        store.insert_spec(spec.clone()).unwrap();
        let svc = service(&store, &cost);
        // Names interleave the families (`r00-f0`, `r01-f1`, ...), so each
        // cluster spans the member list.
        let family_of = |index: usize| index % FAMILIES;
        let run_of = |index: usize| families[family_of(index)][index / FAMILIES].clone();

        // Boot with two members per family, then stream the rest in.
        for index in 0..2 * FAMILIES {
            store.insert_run(&run_name(index, family_of(index)), run_of(index)).unwrap();
        }
        let boot = svc.cluster_medoids(SPEC, FAMILIES, SEED).unwrap();
        let medoids: Vec<&str> = boot.clusters.iter().map(|c| c.medoid.as_str()).collect();
        assert_eq!(medoids, ["r00-f0", "r01-f1", "r02-f2"], "one cluster per family");
        for index in 2 * FAMILIES..FAMILIES * PER_FAMILY {
            let name = run_name(index, family_of(index));
            store.insert_run(&name, run_of(index)).unwrap();
            svc.notify_run_inserted(SPEC, &name);
        }

        // Same-name replacement: r04-f1 now carries a family-2 execution.
        let replaced = run_name(4, 1);
        store.insert_run(&replaced, families[2][0].clone()).unwrap();
        svc.notify_run_inserted(SPEC, &replaced);
        let snap = svc.cluster_index().snapshot(SPEC).unwrap();
        let family2 = snap.cluster_of(&run_name(2, 2));
        assert_eq!(snap.cluster_of(&replaced), family2, "{}: replacement", cost.name());

        // Removals: family 0's medoid (the lowest name of a zero-distance
        // family) and a plain member of family 1.
        let medoid = run_name(0, 0);
        let plain = run_name(7, 1);
        assert!(snap.clusters.iter().any(|c| c.medoid == medoid));
        assert!(snap.clusters.iter().all(|c| c.medoid != plain));
        for gone in [&medoid, &plain] {
            assert!(store.remove_run(SPEC, gone));
            svc.notify_run_removed(SPEC, gone);
        }
        // Removed ids are reused by later inserts, so each of these would
        // inherit the wrong family's distances from a stale memo entry: a
        // new family-2 run, then the medoid's name with family-1 content.
        let newcomer = run_name(90, 2);
        store.insert_run(&newcomer, families[2][1].clone()).unwrap();
        svc.notify_run_inserted(SPEC, &newcomer);
        store.insert_run(&medoid, families[1][1].clone()).unwrap();
        svc.notify_run_inserted(SPEC, &medoid);

        let maintained = svc.cluster_index().snapshot(SPEC).unwrap();
        assert_eq!(maintained.cluster_of(&newcomer), maintained.cluster_of(&run_name(2, 2)));
        assert_eq!(maintained.cluster_of(&medoid), maintained.cluster_of(&run_name(1, 1)));
        assert_matches_scratch(&maintained, &store, &cost);
    }
}

/// A scratch directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("wfdiff-cluster-memo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn checkpoints_round_trip_and_the_format_is_unchanged() {
    let (spec, families) = fig14_families();
    let dir = TempDir::new("roundtrip");
    let store = Arc::new(WorkflowStore::new());
    store.insert_spec(spec).unwrap();
    for (index, run) in families.iter().flatten().enumerate() {
        store.insert_run(&run_name(index, index / PER_FAMILY), run.clone()).unwrap();
    }
    store.save_to_dir(dir.path()).unwrap();

    // Build, stream one removal and one insert through the index, save.
    let loaded = Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap());
    let svc = DiffService::new(Arc::clone(&loaded));
    svc.cluster_medoids(SPEC, FAMILIES, SEED).unwrap();
    let gone = run_name(3, 0);
    assert!(loaded.remove_run(SPEC, &gone));
    svc.notify_run_removed(SPEC, &gone);
    let back = loaded.run(SPEC, &run_name(7, 1)).unwrap();
    loaded.insert_run("zz-back", Run::clone(&back)).unwrap();
    svc.notify_run_inserted(SPEC, "zz-back");
    loaded.save_to_dir(dir.path()).unwrap();
    assert_eq!(svc.save_cluster_state(dir.path()).unwrap(), 1);
    let saved = svc.cluster_index().snapshot(SPEC).unwrap();
    let memo = svc.cluster_index().memoized_distances(SPEC);
    assert!(memo > 0);

    let restarted = DiffService::new(Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap()));
    let report = restarted.load_cluster_state(dir.path());
    assert_eq!((report.loaded, report.stale), (1, 0));
    assert_eq!(restarted.cluster_index().snapshot(SPEC).unwrap(), saved);
    assert_eq!(restarted.cluster_index().memoized_distances(SPEC), memo);

    // A hand-written format-1 document: the full distance matrix as
    // `(i, j, d)` entries over the sorted member list.
    let hand = TempDir::new("handwritten");
    let fresh = DiffService::new(Arc::new(WorkflowStore::load_from_dir(dir.path()).unwrap()));
    let store = fresh.store();
    let all = fresh.diff_all_pairs(SPEC).unwrap();
    let expected = DiffService::new(Arc::clone(store)).cluster_medoids(SPEC, 2, 5).unwrap();
    let n = all.runs.len();
    let distances: Vec<String> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .map(|(i, j)| format!(r#"{{"i":{i},"j":{j},"d":{}}}"#, all.matrix[i][j]))
        .collect();
    let assignments: Vec<usize> =
        all.runs.iter().map(|r| expected.cluster_of(r).unwrap()).collect();
    let run_fingerprints: Vec<String> = all
        .runs
        .iter()
        .map(|r| store.run(SPEC, r).unwrap().fingerprints().root().to_string())
        .collect();
    let medoids: Vec<&str> = expected.clusters.iter().map(|c| c.medoid.as_str()).collect();
    let doc = format!(
        concat!(
            r#"{{"format":1,"cost_key":{},"specs":[{{"spec":"{}","spec_fingerprint":"{}","#,
            r#""k":2,"seed":5,"members":{},"run_fingerprints":{},"assignments":{},"#,
            r#""medoids":{},"distances":[{}],"silhouette":{},"cost":{}}}]}}"#,
        ),
        fresh.cost_model().cache_key(),
        SPEC,
        store.spec(SPEC).unwrap().fingerprint(),
        serde_json::to_string(&all.runs).unwrap(),
        serde_json::to_string(&run_fingerprints).unwrap(),
        serde_json::to_string(&assignments).unwrap(),
        serde_json::to_string(&medoids).unwrap(),
        distances.join(","),
        expected.silhouette,
        expected.cost,
    );
    assert_eq!(CLUSTER_CACHE_FORMAT, 1);
    std::fs::write(hand.path().join("cluster_cache.json"), doc).unwrap();
    let report = fresh.load_cluster_state(hand.path());
    assert_eq!((report.loaded, report.stale), (1, 0));
    assert_eq!(fresh.cluster_index().snapshot(SPEC).unwrap(), expected);
    assert_eq!(fresh.cluster_index().memoized_distances(SPEC), n * (n - 1) / 2);
    // The loaded state serves the query.
    assert_eq!(fresh.cluster_medoids(SPEC, 2, 5).unwrap(), expected);
}

/// Four well-separated blobs on a line, served from a coordinate table;
/// run `p{i}` sits at `coords[i]`.  Parsing a name never allocates, so an
/// oracle call costs exactly its result vector.
struct LineOracle {
    coords: Vec<f64>,
}

impl LineOracle {
    fn position(&self, name: &str) -> f64 {
        self.coords[name[1..].parse::<usize>().unwrap()]
    }
}

impl DistanceOracle for LineOracle {
    type Error = Infallible;

    fn distances(&self, source: &str, targets: &[&str]) -> Result<Vec<f64>, Infallible> {
        let s = self.position(source);
        Ok(targets.iter().map(|t| (self.position(t) - s).abs()).collect())
    }
}

#[test]
fn a_streamed_insert_allocates_o_n_not_per_memo_lookup() {
    const N: usize = 400;
    const K: usize = 4;
    let coords: Vec<f64> =
        (0..N).map(|i| (i % K) as f64 * 1000.0 + ((i * 7) % 13) as f64).collect();
    let oracle = LineOracle { coords };
    let names: Vec<String> = (0..N).map(|i| format!("p{i:03}")).collect();
    let version = Fingerprint(7);
    let index = IncrementalClusterIndex::new();
    index.ensure("s", version, &names[..N - 1], K, 1, &oracle).unwrap();
    let settled = index.snapshot("s").unwrap();
    assert_eq!(settled.clusters.len(), K);

    let before = allocations();
    assert!(index.insert_run("s", version, &names[N - 1], &oracle).unwrap());
    let made = allocations() - before;
    assert!(made < 8 * N as u64, "one insert made {made} allocations for {N} members");

    // The insert is still exact: it equals a from-scratch build.
    let scratch = IncrementalClusterIndex::new();
    let expected = scratch.ensure("s", version, &names, K, 1, &oracle).unwrap();
    assert_eq!(index.snapshot("s").unwrap(), expected);
}

/// A store over `io` holding `runs` of the Fig. 14 spec, saved to `dir` with
/// threshold folds off, and a default-cost service over it.
fn durable_store(
    dir: &Path,
    io: Arc<dyn StoreIo>,
    spec: &Specification,
    runs: &[(String, Run)],
) -> (Arc<WorkflowStore>, DiffService) {
    let store = Arc::new(WorkflowStore::with_io(io));
    store.set_wal_fold_threshold(0);
    store.insert_spec(spec.clone()).unwrap();
    for (name, run) in runs {
        store.insert_run(name, run.clone()).unwrap();
    }
    store.save_to_dir(dir).unwrap();
    let svc = DiffService::new(Arc::clone(&store));
    (store, svc)
}

/// Inserts `run` as `name` in memory and in the WAL, and tells the index.
fn durable_insert(store: &WorkflowStore, svc: &DiffService, dir: &Path, name: &str, run: &Run) {
    let stored = store.insert_run(name, run.clone()).unwrap();
    store.append_run_to_dir(dir, name, &stored).unwrap();
    svc.notify_run_inserted(SPEC, name);
}

/// Bytes of valid records in `dir`'s WAL.
fn wal_bytes(dir: &Path) -> u64 {
    wal::inspect(dir).unwrap().bytes
}

/// Asserts that a fresh service over `dir` restores `live`'s clustering of
/// the Fig. 14 spec and its whole memo.
fn assert_restart_restores(dir: &Path, live: &DiffService) {
    let restarted = DiffService::new(Arc::new(WorkflowStore::load_from_dir(dir).unwrap()));
    let report = restarted.load_cluster_state(dir);
    assert_eq!((report.loaded, report.stale), (1, 0));
    let want = live.cluster_index().snapshot(SPEC).unwrap();
    let got = restarted.cluster_index().snapshot(SPEC).unwrap();
    assert_eq!(got, want);
    assert_eq!(got.cost.to_bits(), want.cost.to_bits());
    assert_eq!(got.silhouette.to_bits(), want.silhouette.to_bits());
    assert_eq!(
        restarted.cluster_index().memoized_distances(SPEC),
        live.cluster_index().memoized_distances(SPEC),
        "the restored memo is the live one"
    );
}

#[test]
fn a_checkpoint_after_one_insert_carries_only_the_new_distances() {
    const PER_FAMILY: usize = 50;
    const K: usize = 4;
    let mut rng = ChaCha8Rng::seed_from_u64(0x5123);
    let spec = random_specification(
        SPEC,
        &SpecGenConfig { target_edges: 30, series_parallel_ratio: 1.0, forks: 2, loops: 2 },
        &mut rng,
    );
    let config = RunGenConfig { prob_p: 0.8, max_f: 3, prob_f: 0.6, max_l: 3, prob_l: 0.6 };
    let families = generate_run_families(&spec, &config, K, PER_FAMILY + 1, &mut rng);
    let runs: Vec<(String, Run)> = (0..K * PER_FAMILY)
        .map(|index| (run_name(index, index % K), families[index % K][index / K].clone()))
        .collect();
    let dir = TempDir::new("record-size");
    let (store, svc) = durable_store(dir.path(), Arc::new(RealIo), &spec, &runs);
    assert_eq!(svc.cluster_medoids(SPEC, K, SEED).unwrap().clusters.len(), K);

    let base = wal_bytes(dir.path());
    svc.save_cluster_state(dir.path()).unwrap();
    let whole = wal_bytes(dir.path()) - base;

    let name = run_name(K * PER_FAMILY, 0);
    let stored = store.insert_run(&name, families[0][PER_FAMILY].clone()).unwrap();
    store.append_run_to_dir(dir.path(), &name, &stored).unwrap();
    svc.notify_run_inserted(SPEC, &name);
    let before = wal_bytes(dir.path());
    svc.save_cluster_state(dir.path()).unwrap();
    let delta = wal_bytes(dir.path()) - before;
    assert!(10 * delta < whole, "one insert's record is {delta} B; the whole memo's {whole} B");
    assert_restart_restores(dir.path(), &svc);
}

#[test]
fn a_chain_of_journaled_records_restores_the_live_memo() {
    let (spec, families) = fig14_families();
    let run_of = |index: usize| families[index % FAMILIES][index / FAMILIES].clone();
    let name_of = |index: usize| run_name(index, index % FAMILIES);
    let runs: Vec<(String, Run)> =
        (0..2 * FAMILIES).map(|index| (name_of(index), run_of(index))).collect();
    let dir = TempDir::new("chain");
    let (store, svc) = durable_store(dir.path(), Arc::new(RealIo), &spec, &runs);
    svc.cluster_medoids(SPEC, FAMILIES, SEED).unwrap();
    svc.save_cluster_state(dir.path()).unwrap();

    for index in 2 * FAMILIES..FAMILIES * PER_FAMILY {
        durable_insert(&store, &svc, dir.path(), &name_of(index), &run_of(index));
        if index == 9 {
            // One threshold fold midway: the checkpoint's append folds the
            // chain so far into `cluster_cache.json`.
            store.set_wal_fold_threshold(1);
            let folds = store.wal_stats().folds_total;
            svc.save_cluster_state(dir.path()).unwrap();
            assert_eq!(store.wal_stats().folds_total, folds + 1);
            store.set_wal_fold_threshold(0);
        } else {
            svc.save_cluster_state(dir.path()).unwrap();
        }
    }
    // A same-name replacement: a family-1 member takes family-2 content, so
    // its memoised distances to its old family (zero) are stale, and the
    // clustering never fetches them again.
    let replaced = name_of(4);
    let snapshot = svc.cluster_index().snapshot(SPEC).unwrap();
    assert!(snapshot.clusters.iter().all(|c| c.medoid != replaced));
    durable_insert(&store, &svc, dir.path(), &replaced, &families[2][0]);
    svc.save_cluster_state(dir.path()).unwrap();
    // A removal, then one more insert.
    let gone = name_of(7);
    assert!(store.remove_run(SPEC, &gone));
    store.append_run_removal_to_dir(dir.path(), SPEC, &gone).unwrap();
    svc.notify_run_removed(SPEC, &gone);
    svc.save_cluster_state(dir.path()).unwrap();
    durable_insert(&store, &svc, dir.path(), &run_name(90, 0), &families[0][1]);
    svc.save_cluster_state(dir.path()).unwrap();

    assert!(wal::inspect(dir.path()).unwrap().cluster_deltas >= 4, "a chain of records");
    assert_restart_restores(dir.path(), &svc);
}

/// Real I/O whose WAL appends fail while `fail` is set.
#[derive(Debug, Default)]
struct FailingIo {
    fail: AtomicBool,
}

impl StoreIo for FailingIo {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealIo.create_dir_all(path)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        RealIo.write_file(path, bytes)
    }
    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if self.fail.load(Ordering::Acquire) {
            return Err(std::io::Error::other("injected append failure"));
        }
        RealIo.append_file(path, bytes)
    }
    fn fsync_file(&self, path: &Path) -> std::io::Result<()> {
        RealIo.fsync_file(path)
    }
    fn fsync_dir(&self, path: &Path) -> std::io::Result<()> {
        RealIo.fsync_dir(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealIo.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_dir_all(path)
    }
    fn truncate_file(&self, path: &Path, len: u64) -> std::io::Result<()> {
        RealIo.truncate_file(path, len)
    }
}

#[test]
fn a_failed_checkpoint_append_loses_no_memo_entry() {
    let (spec, families) = fig14_families();
    let run_of = |index: usize| families[index % FAMILIES][index / FAMILIES].clone();
    let runs: Vec<(String, Run)> =
        (0..2 * FAMILIES).map(|index| (run_name(index, index % FAMILIES), run_of(index))).collect();
    let dir = TempDir::new("failed-append");
    let io = Arc::new(FailingIo::default());
    let (store, svc) = durable_store(dir.path(), Arc::clone(&io) as Arc<dyn StoreIo>, &spec, &runs);
    svc.cluster_medoids(SPEC, FAMILIES, SEED).unwrap();
    svc.save_cluster_state(dir.path()).unwrap();

    let index = 2 * FAMILIES;
    durable_insert(&store, &svc, dir.path(), &run_name(index, index % FAMILIES), &run_of(index));
    io.fail.store(true, Ordering::Release);
    assert!(svc.save_cluster_state(dir.path()).is_err(), "the injected failure surfaces");
    io.fail.store(false, Ordering::Release);
    let index = index + 1;
    durable_insert(&store, &svc, dir.path(), &run_name(index, index % FAMILIES), &run_of(index));
    svc.save_cluster_state(dir.path()).unwrap();
    assert_restart_restores(dir.path(), &svc);
}

/// Real I/O that, once armed, holds the next WAL append at a gate: it
/// meets `arrived` and then waits for `release`.
#[derive(Debug)]
struct GateIo {
    armed: AtomicBool,
    arrived: Barrier,
    release: Barrier,
}

impl StoreIo for GateIo {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealIo.create_dir_all(path)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        RealIo.write_file(path, bytes)
    }
    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if self.armed.swap(false, Ordering::AcqRel) {
            self.arrived.wait();
            self.release.wait();
        }
        RealIo.append_file(path, bytes)
    }
    fn fsync_file(&self, path: &Path) -> std::io::Result<()> {
        RealIo.fsync_file(path)
    }
    fn fsync_dir(&self, path: &Path) -> std::io::Result<()> {
        RealIo.fsync_dir(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealIo.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_dir_all(path)
    }
    fn truncate_file(&self, path: &Path, len: u64) -> std::io::Result<()> {
        RealIo.truncate_file(path, len)
    }
}

#[test]
fn a_checkpoint_waits_for_the_one_before_it_to_append() {
    let (spec, families) = fig14_families();
    let run_of = |index: usize| families[index % FAMILIES][index / FAMILIES].clone();
    let name_of = |index: usize| run_name(index, index % FAMILIES);
    let runs: Vec<(String, Run)> =
        (0..2 * FAMILIES).map(|index| (name_of(index), run_of(index))).collect();
    let dir = TempDir::new("ordered");
    let io = Arc::new(GateIo {
        armed: AtomicBool::new(false),
        arrived: Barrier::new(2),
        release: Barrier::new(2),
    });
    let (store, svc) = durable_store(dir.path(), Arc::clone(&io) as Arc<dyn StoreIo>, &spec, &runs);
    svc.cluster_medoids(SPEC, FAMILIES, SEED).unwrap();
    svc.save_cluster_state(dir.path()).unwrap();
    let first = 2 * FAMILIES;
    durable_insert(&store, &svc, dir.path(), &name_of(first), &run_of(first));

    // The first checkpoint stops inside its append.  Meanwhile two more
    // runs arrive in memory (their WAL records follow once the log is
    // free) and a second checkpoint starts between them.
    io.armed.store(true, Ordering::Release);
    let late = [first + 1, first + 2];
    std::thread::scope(|scope| {
        let a = scope.spawn(|| svc.save_cluster_state(dir.path()));
        io.arrived.wait();
        store.insert_run(&name_of(late[0]), run_of(late[0])).unwrap();
        svc.notify_run_inserted(SPEC, &name_of(late[0]));
        let b = scope.spawn(|| svc.save_cluster_state(dir.path()));
        // Let the second checkpoint reach whatever it blocks on.
        std::thread::sleep(std::time::Duration::from_millis(100));
        store.insert_run(&name_of(late[1]), run_of(late[1])).unwrap();
        svc.notify_run_inserted(SPEC, &name_of(late[1]));
        io.release.wait();
        a.join().unwrap().unwrap();
        b.join().unwrap().unwrap();
    });
    for index in late {
        let run = store.run(SPEC, &name_of(index)).unwrap();
        store.append_run_to_dir(dir.path(), &name_of(index), &run).unwrap();
    }
    // The second checkpoint took the state after the first one appended,
    // so its record holds both late runs: the last record is the live
    // state.
    assert_restart_restores(dir.path(), &svc);
}
