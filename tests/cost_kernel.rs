//! The cost-only DP kernel behind `WorkflowDiff::distance_prepared`.
//!
//! * **Differential:** it returns bit-for-bit the distance of the mapping
//!   kernel (`diff_prepared(..).distance`) and of the unmemoised
//!   `WorkflowDiff::distance`, with no cache, a cold cache and a warm cache,
//!   on the Fig. 2 runs under three cost models and on generated Fig. 12
//!   (branch choice) and Fig. 14 (forks and loops) collections.
//! * **Allocation-free:** on trees of `Q`/`S`/`P` nodes a call makes no heap
//!   allocation at all, counted by this binary's global allocator.

use pdiffview::prelude::*;
use pdiffview::workloads::figures::{fig2_run1, fig2_run2, fig2_run3, fig2_specification};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wfdiff_sptree::NodeType;

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

/// A generated collection in the style of the paper's Fig. 12 (`forks` and
/// `loops` zero: runs differ in the parallel branches they take) or Fig. 14
/// (forks and loops replicate subtrees).
fn collection(seed: u64, runs: usize, forks: usize, loops: usize) -> (Specification, Vec<Run>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let spec = random_specification(
        &format!("cost-kernel-{seed}"),
        &SpecGenConfig { target_edges: 40, series_parallel_ratio: 1.0, forks, loops },
        &mut rng,
    );
    let cfg = if forks + loops == 0 {
        RunGenConfig { prob_p: 0.85, ..RunGenConfig::default() }
    } else {
        RunGenConfig { prob_p: 0.9, max_f: 3, prob_f: 0.6, max_l: 3, prob_l: 0.6 }
    };
    let runs = (0..runs).map(|_| generate_run(&spec, &cfg, &mut rng)).collect();
    (spec, runs)
}

fn has_fork_or_loop(run: &Run) -> bool {
    let tree = run.tree();
    tree.postorder(tree.root())
        .iter()
        .any(|&v| matches!(tree.node(v).ty, NodeType::F | NodeType::L))
}

/// Asserts that every ordered pair of `runs` (self-pairs included) gets the
/// same distance bits from the cost-only kernel, uncached and through a
/// cold then warm cache, from the mapping kernel, and from the unmemoised
/// engine.
fn assert_kernels_agree(spec: &Specification, runs: &[Run], cost: &dyn CostModel) {
    let engine = WorkflowDiff::new(spec, cost);
    let cache = ShardedDiffCache::default();
    let plain: Vec<_> = runs.iter().map(|r| engine.prepare(r, None).expect("valid run")).collect();
    let cached: Vec<_> =
        runs.iter().map(|r| engine.prepare(r, Some(&cache)).expect("valid run")).collect();
    for (i, a) in runs.iter().enumerate() {
        for (j, b) in runs.iter().enumerate() {
            let oracle = engine.distance(a, b).expect("valid runs").to_bits();
            let mapping =
                engine.diff_prepared(&plain[i], &plain[j], None).expect("valid runs").distance;
            let uncached = engine.distance_prepared(&plain[i], &plain[j], None).expect("valid");
            let cold = engine.distance_prepared(&cached[i], &cached[j], Some(&cache)).expect("ok");
            let warm = engine.distance_prepared(&cached[i], &cached[j], Some(&cache)).expect("ok");
            let name = cost.name();
            assert_eq!(mapping.to_bits(), oracle, "mapping kernel, {name}, pair ({i}, {j})");
            assert_eq!(uncached.to_bits(), oracle, "uncached cost-only, {name}, pair ({i}, {j})");
            assert_eq!(cold.to_bits(), oracle, "cold-cache cost-only, {name}, pair ({i}, {j})");
            assert_eq!(warm.to_bits(), oracle, "warm-cache cost-only, {name}, pair ({i}, {j})");
        }
    }
    assert!(cache.stats().hits > 0, "the warm pass must be answered from the cache");
}

#[test]
fn cost_only_kernel_matches_the_mapping_kernel_on_figure2() {
    let spec = fig2_specification();
    let runs = [fig2_run1(&spec), fig2_run2(&spec), fig2_run3(&spec)];
    for cost in [&UnitCost as &dyn CostModel, &LengthCost, &PowerCost::new(0.5)] {
        assert_kernels_agree(&spec, &runs, cost);
    }
}

#[test]
fn cost_only_kernel_matches_the_mapping_kernel_on_generated_collections() {
    for seed in [3, 11, 29] {
        for (forks, loops) in [(0, 0), (3, 2)] {
            let (spec, runs) = collection(seed, 6, forks, loops);
            let controls = runs.iter().any(has_fork_or_loop);
            assert_eq!(controls, forks + loops > 0, "Fig. 14 runs fork and loop, Fig. 12 runs not");
            for cost in [&UnitCost as &dyn CostModel, &LengthCost, &PowerCost::new(0.5)] {
                assert_kernels_agree(&spec, &runs, cost);
            }
        }
    }
}

#[test]
fn cost_only_kernel_does_not_allocate_on_series_parallel_trees() {
    let (spec, runs) = collection(5, 8, 0, 0);
    assert!(!runs.iter().any(has_fork_or_loop), "a Fig. 12-style run has only Q, S and P nodes");
    let engine = WorkflowDiff::new(&spec, &UnitCost);
    let prepared: Vec<_> = runs.iter().map(|r| engine.prepare(r, None).expect("valid")).collect();
    let mut differing = 0;
    for a in &prepared {
        for b in &prepared {
            let warm_up = engine.distance_prepared(a, b, None).expect("valid runs");
            let before = allocations();
            let d = engine.distance_prepared(a, b, None).expect("valid runs");
            let made = allocations() - before;
            assert_eq!(made, 0, "distance_prepared allocated {made} times");
            assert_eq!(d.to_bits(), warm_up.to_bits());
            differing += usize::from(d > 0.0);
        }
    }
    assert!(differing > 0, "the collection must exercise real DP work, not only identical runs");
}
