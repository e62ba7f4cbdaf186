//! Fingerprint-keyed caches shared across [`crate::WorkflowDiff`] calls.
//!
//! The paper's workload is differencing *many* runs of the *same*
//! specification (PDiffView clusters whole run collections), and those runs
//! share most of their structure: fork copies and loop iterations repeat the
//! same subtrees over and over.  Two memoisable quantities dominate the cost
//! of a diff:
//!
//! * the **subtree deletion/insertion tables** of Algorithm 3 (`X`/`Y`), which
//!   depend only on the subtree's canonical structure and the cost model, and
//! * the **per-pair DP value** of Algorithms 4/6 — the minimum mapping cost of
//!   two homologous subtrees — which depends only on the two subtree
//!   structures (with their specification origins), the specification and the
//!   cost model.
//!
//! Both are therefore keyed here by [`Fingerprint`]s
//! (see [`wfdiff_sptree::fingerprint`]) and shared across `diff` calls through
//! the [`DiffCache`] trait.  The default implementation is
//! [`ShardedDiffCache`]: a fixed number of `parking_lot::RwLock`-protected
//! shards with a per-shard capacity bound, FIFO eviction and atomic hit/miss/
//! eviction counters.  Fingerprints are already well-mixed hashes, so the
//! shard and the in-shard hash of a key are both folded from its fingerprint
//! bits rather than rehashed; a per-cache random seed enters the fold, so
//! keys cannot be crafted offline to pile into one bucket chain.
//!
//! # `DiffCache` contract
//!
//! Implementations must uphold the following, which `WorkflowDiff` relies on
//! for correctness:
//!
//! 1. **Keys are authoritative.**  A value returned for a key must have been
//!    stored for *exactly* that key (never a "close" one).  The engine treats
//!    equal fingerprints as proof of structural equivalence, so a cache must
//!    never transform keys.
//! 2. **Eviction is always allowed.**  `get` may return `None` for a key that
//!    was stored earlier; the engine recomputes and re-inserts.  A cache may
//!    drop anything at any time (including everything — clearing is safe).
//! 3. **Thread safety.**  All methods take `&self` and may be called
//!    concurrently from many differencing threads; `put` races for the same
//!    key are benign because both threads compute identical values.
//! 4. **No blocking on the caller's progress.**  Implementations should not
//!    hold internal locks while calling back into the engine (the provided
//!    implementations never do).

use crate::deletion::DeletionEntry;
use parking_lot::RwLock;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wfdiff_sptree::Fingerprint;

/// Key of a cached Algorithm 3 subtree entry: the cost model plus the
/// canonical fingerprint of the subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeletionKey {
    /// Identity hash of the cost model (see [`crate::CostModel::cache_key`]).
    pub cost_model: u64,
    /// Canonical fingerprint of the subtree.
    pub subtree: Fingerprint,
}

/// Key of a cached per-pair DP value: the specification, the cost model and
/// the fingerprints of the two homologous subtrees (origins included in the
/// fingerprints, so the pair's position in the specification is part of the
/// key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairKey {
    /// Root fingerprint of the specification tree (the surcharge context of
    /// Algorithm 4 depends on the whole specification).
    pub spec: Fingerprint,
    /// Identity hash of the cost model.
    pub cost_model: u64,
    /// Fingerprint of the left (source-run) subtree.
    pub left: Fingerprint,
    /// Fingerprint of the right (target-run) subtree.
    pub right: Fingerprint,
}

/// A point-in-time snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a value.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values stored (racing duplicate stores count once per call).
    pub insertions: u64,
    /// Values dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cache shared across [`crate::WorkflowDiff`] calls.  See the
/// [module docs](self) for the implementation contract.
pub trait DiffCache: Send + Sync {
    /// Looks up the Algorithm 3 entry of a subtree.
    fn get_deletion(&self, key: &DeletionKey) -> Option<Arc<DeletionEntry>>;
    /// Stores the Algorithm 3 entry of a subtree.
    fn put_deletion(&self, key: DeletionKey, entry: Arc<DeletionEntry>);
    /// Looks up the minimum mapping cost of a homologous subtree pair.
    fn get_pair(&self, key: &PairKey) -> Option<f64>;
    /// Stores the minimum mapping cost of a homologous subtree pair.
    fn put_pair(&self, key: PairKey, cost: f64);
    /// A snapshot of the effectiveness counters.
    fn stats(&self) -> CacheStats;
}

/// A fingerprint as two `u64` words: the same bits at 8-byte alignment,
/// which keeps the map entries below dense.
type Words = [u64; 2];

fn words(fp: Fingerprint) -> Words {
    [fp.0 as u64, (fp.0 >> 64) as u64]
}

/// The stored form of a [`PairKey`] (56 bytes; 64 with its cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PairSlot {
    left: Words,
    right: Words,
    spec: Words,
    cost_model: u64,
}

impl From<&PairKey> for PairSlot {
    fn from(k: &PairKey) -> Self {
        PairSlot {
            left: words(k.left),
            right: words(k.right),
            spec: words(k.spec),
            cost_model: k.cost_model,
        }
    }
}

/// The stored form of a [`DeletionKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeletionSlot {
    subtree: Words,
    cost_model: u64,
}

impl From<&DeletionKey> for DeletionSlot {
    fn from(k: &DeletionKey) -> Self {
        DeletionSlot { subtree: words(k.subtree), cost_model: k.cost_model }
    }
}

/// One multiply-xorshift round over a slot's folded words and the cache's
/// seed, so every output bit depends on every input word.
fn mix(folded: u64, seed: u64) -> u64 {
    let x = folded ^ seed;
    let mixed = (x ^ (x >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    mixed ^ (mixed >> 32)
}

impl PairSlot {
    /// The key's fingerprint words folded into one (see [`mix`]).
    fn fold(&self) -> u64 {
        let word = |w: Words| w[0] ^ w[1];
        // Rotating the sides apart keeps `(a, b)` and `(b, a)` distinct.
        word(self.left)
            ^ word(self.right).rotate_left(32)
            ^ word(self.spec).rotate_left(16)
            ^ self.cost_model
            ^ 0x9e37_79b9_7f4a_7c15
    }
}

impl DeletionSlot {
    /// The key's fingerprint words folded into one (see [`mix`]).
    fn fold(&self) -> u64 {
        self.subtree[0] ^ self.subtree[1] ^ self.cost_model
    }
}

impl Hash for PairSlot {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fold());
    }
}

impl Hash for DeletionSlot {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fold());
    }
}

/// The in-shard hasher: [`mix`]es a slot's `fold` with the cache's seed.
struct FoldHasher {
    seed: u64,
    hash: u64,
}

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is reached from the slots' `Hash`; fold anything
        // else in FNV-1a style so the hasher stays total.
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, folded: u64) {
        self.hash = mix(folded, self.seed);
    }
}

/// Builds [`FoldHasher`]s under one cache's seed.
#[derive(Clone, Copy)]
struct FoldState {
    seed: u64,
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { seed: self.seed, hash: 0 }
    }
}

type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// An entry in a shard's FIFO eviction order.
#[derive(Clone, Copy)]
enum Slot {
    Pair(PairSlot),
    Deletion(DeletionSlot),
}

struct ShardState {
    pairs: FoldMap<PairSlot, f64>,
    deletions: FoldMap<DeletionSlot, Arc<DeletionEntry>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Slot>,
}

impl ShardState {
    fn new(hasher: FoldState) -> Self {
        ShardState {
            pairs: HashMap::with_hasher(hasher),
            deletions: HashMap::with_hasher(hasher),
            order: VecDeque::new(),
        }
    }

    fn len(&self) -> usize {
        self.pairs.len() + self.deletions.len()
    }
}

/// One shard: its lock, its map headers and its counters share one aligned
/// block, so a lookup only writes cache lines its own lock acquisition
/// already owns (a cache-wide counter would bounce between every
/// differencing thread on every lookup).
#[repr(align(128))]
struct Shard {
    state: RwLock<ShardState>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn new(hasher: FoldState) -> Self {
        Shard {
            state: RwLock::new(ShardState::new(hasher)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn count<T>(&self, found: Option<T>) -> Option<T> {
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }
}

/// The default [`DiffCache`]: a sharded, capacity-bounded, FIFO-evicting map.
///
/// The capacity bound is per cache (split evenly across shards); at the
/// default of one million entries the cache tops out at a few hundred MiB on
/// pathological workloads and far less on realistic ones.
pub struct ShardedDiffCache {
    shards: Vec<Shard>,
    capacity_per_shard: usize,
    hasher: FoldState,
}

const SHARD_COUNT: usize = 16;

impl ShardedDiffCache {
    /// Creates a cache bounded to roughly `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity_per_shard = capacity.div_ceil(SHARD_COUNT).max(1);
        let hasher = FoldState { seed: RandomState::new().hash_one(SHARD_COUNT) };
        ShardedDiffCache {
            shards: (0..SHARD_COUNT).map(|_| Shard::new(hasher)).collect(),
            capacity_per_shard,
            hasher,
        }
    }

    fn shard(&self, fold: u64) -> &Shard {
        // The maps use the low bits for buckets and the top seven for their
        // control bytes; the shard takes bits from neither.
        &self.shards[(mix(fold, self.hasher.seed) >> 32) as usize % SHARD_COUNT]
    }

    /// Stores a value under `slot`; `insert` puts it into the right map and
    /// reports whether the key is new.  New keys join the FIFO order, and
    /// the oldest entries are evicted past the shard's capacity.
    fn put(&self, fold: u64, slot: Slot, insert: impl FnOnce(&mut ShardState) -> bool) {
        let shard = self.shard(fold);
        let mut state = shard.state.write();
        if !insert(&mut state) {
            return;
        }
        state.order.push_back(slot);
        shard.insertions.fetch_add(1, Ordering::Relaxed);
        while state.len() > self.capacity_per_shard {
            match state.order.pop_front() {
                Some(Slot::Pair(oldest)) => {
                    state.pairs.remove(&oldest);
                }
                Some(Slot::Deletion(oldest)) => {
                    state.deletions.remove(&oldest);
                }
                None => break,
            }
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sums one counter over the shards.
    fn total(&self, counter: impl Fn(&Shard) -> &AtomicU64) -> u64 {
        self.shards.iter().map(|s| counter(s).load(Ordering::Relaxed)).sum()
    }
}

impl Default for ShardedDiffCache {
    fn default() -> Self {
        ShardedDiffCache::with_capacity(1 << 20)
    }
}

impl DiffCache for ShardedDiffCache {
    fn get_deletion(&self, key: &DeletionKey) -> Option<Arc<DeletionEntry>> {
        let slot = DeletionSlot::from(key);
        let shard = self.shard(slot.fold());
        let found = shard.state.read().deletions.get(&slot).cloned();
        shard.count(found)
    }

    fn put_deletion(&self, key: DeletionKey, entry: Arc<DeletionEntry>) {
        let slot = DeletionSlot::from(&key);
        self.put(slot.fold(), Slot::Deletion(slot), |state| {
            state.deletions.insert(slot, entry).is_none()
        });
    }

    fn get_pair(&self, key: &PairKey) -> Option<f64> {
        let slot = PairSlot::from(key);
        let shard = self.shard(slot.fold());
        let found = shard.state.read().pairs.get(&slot).copied();
        shard.count(found)
    }

    fn put_pair(&self, key: PairKey, cost: f64) {
        let slot = PairSlot::from(&key);
        self.put(slot.fold(), Slot::Pair(slot), |state| state.pairs.insert(slot, cost).is_none());
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.total(|s| &s.hits),
            misses: self.total(|s| &s.misses),
            insertions: self.total(|s| &s.insertions),
            evictions: self.total(|s| &s.evictions),
            entries: self.shards.iter().map(|s| s.state.read().len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: u128) -> Fingerprint {
        Fingerprint(v)
    }

    fn pair_key(left: u128, right: u128) -> PairKey {
        PairKey { spec: fp(1), cost_model: 7, left: fp(left), right: fp(right) }
    }

    #[test]
    fn pair_roundtrip_and_stats() {
        let cache = ShardedDiffCache::with_capacity(64);
        assert_eq!(cache.get_pair(&pair_key(1, 2)), None);
        cache.put_pair(pair_key(1, 2), 4.5);
        assert_eq!(cache.get_pair(&pair_key(1, 2)), Some(4.5));
        assert_eq!(cache.get_pair(&pair_key(2, 1)), None, "keys are directional");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.hit_rate() > 0.3 && stats.hit_rate() < 0.4);
    }

    #[test]
    fn deletion_roundtrip() {
        let cache = ShardedDiffCache::default();
        let key = DeletionKey { cost_model: 3, subtree: fp(9) };
        assert!(cache.get_deletion(&key).is_none());
        let entry = Arc::new(DeletionEntry { x: 2.0, y: vec![f64::INFINITY, 0.0] });
        cache.put_deletion(key, Arc::clone(&entry));
        let got = cache.get_deletion(&key).expect("stored");
        assert_eq!(got.x, 2.0);
        // Pair lookups never alias deletion entries.
        assert_eq!(
            cache.get_pair(&PairKey { spec: fp(0), cost_model: 3, left: fp(9), right: fp(9) }),
            None
        );
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        // One entry per shard: inserting many keys forces evictions and the
        // resident count never exceeds the bound.
        let cache = ShardedDiffCache::with_capacity(SHARD_COUNT);
        for i in 0..200u128 {
            cache.put_pair(pair_key(i, i), i as f64);
        }
        let stats = cache.stats();
        assert!(stats.entries <= SHARD_COUNT);
        assert!(stats.evictions >= 200 - SHARD_COUNT as u64);
        assert_eq!(stats.insertions, 200);
    }

    #[test]
    fn duplicate_puts_do_not_grow_the_cache() {
        let cache = ShardedDiffCache::with_capacity(8);
        for _ in 0..100 {
            cache.put_pair(pair_key(5, 6), 1.0);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn concurrent_use_is_safe() {
        let cache = Arc::new(ShardedDiffCache::with_capacity(1024));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..500u128 {
                        cache.put_pair(pair_key(i % 64, t as u128), i as f64);
                        let _ = cache.get_pair(&pair_key(i % 64, t as u128));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert!(cache.stats().hits > 0);
    }
}
