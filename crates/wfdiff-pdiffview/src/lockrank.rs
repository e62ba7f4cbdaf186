//! Runtime lock-rank guard for the store's locks — the dynamic counterpart
//! of the static `WFL002` lock-order rule in `wfdiff-lint`.
//!
//! Every [`WorkflowStore`](crate::store::WorkflowStore) lock, and the
//! checkpoint lock of each derived index, carries a [`LockRank`]; a thread
//! may only acquire a lock whose rank is strictly greater than every rank
//! it already holds:
//!
//! ```text
//! checkpoint_lock (0)  →  save_lock (1)  →  specs (2)  →  runs (3)  →  persist_fp_cache (4)  →  streams (5)
//! ```
//!
//! Under `debug_assertions` (every `cargo test` run, including the store's
//! concurrency tests) each thread keeps a thread-local stack of held ranks
//! and **panics** on an out-of-order acquisition — turning a potential
//! ABBA deadlock, which a test would only hit under an unlucky interleaving,
//! into a deterministic failure on *any* interleaving that reaches the
//! second acquisition.  In release builds the bookkeeping compiles to
//! nothing and the wrappers are zero-cost passthroughs to the underlying
//! `parking_lot` primitives.
//!
//! The wrappers expose the same call syntax as the raw locks (`.read()`,
//! `.write()`, `.lock()`) and return RAII guards that deref to the data, so
//! call sites are unchanged; guards pop their rank when dropped.

use std::ops::{Deref, DerefMut};

/// The acquisition order of the store's locks, lowest first.  The variant
/// order must match the discipline documented on
/// [`WorkflowStore`](crate::store::WorkflowStore)'s fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum LockRank {
    /// `checkpoint_lock` — the cluster index's, the only checkpointed
    /// derived index; held across a checkpoint's take-dirty → build →
    /// append, so checkpoint records land in the WAL in the order their
    /// states were taken.
    /// Outermost: the append under it takes `save_lock`.
    Checkpoint = 0,
    /// `save_lock` — serialises whole saves; taken first among the store's
    /// locks, never under any other store lock.
    Save = 1,
    /// `specs` — the specification map.
    Specs = 2,
    /// `runs` — the run map; always after `specs` when both are held.
    Runs = 3,
    /// `persist_fp_cache` — the fingerprint memo; innermost of the store's
    /// own locks.
    FpCache = 4,
    /// `streams` — the in-flight stream registry owned by
    /// [`DiffService`](crate::service::DiffService); innermost overall.
    /// Being last enforces the stream discipline: state is cloned *out*
    /// under this lock, mutated and persisted with no lock held, and
    /// committed back in — holding it across a store or WAL call panics.
    Streams = 5,
}

impl LockRank {
    #[cfg(debug_assertions)]
    fn name(self) -> &'static str {
        match self {
            LockRank::Checkpoint => "checkpoint_lock",
            LockRank::Save => "save_lock",
            LockRank::Specs => "specs",
            LockRank::Runs => "runs",
            LockRank::FpCache => "persist_fp_cache",
            LockRank::Streams => "streams",
        }
    }
}

#[cfg(debug_assertions)]
mod held {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static STACK: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquire(rank: LockRank) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(&worst) = stack.iter().max() {
                assert!(
                    worst < rank,
                    "lock-rank violation: acquiring `{}` (rank {}) while `{}` (rank {}) is \
                     held; the order is checkpoint_lock → save_lock → specs → runs → \
                     persist_fp_cache → streams (see lockrank.rs and WFL002)",
                    rank.name(),
                    rank as u8,
                    worst.name(),
                    worst as u8,
                );
            }
            stack.push(rank);
        });
    }

    pub(super) fn release(rank: LockRank) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&r| r == rank) {
                stack.remove(pos);
            }
        });
    }
}

#[cfg(debug_assertions)]
fn acquire(rank: LockRank) {
    held::acquire(rank);
}

#[cfg(not(debug_assertions))]
fn acquire(_rank: LockRank) {}

#[cfg(debug_assertions)]
fn release(rank: LockRank) {
    held::release(rank);
}

#[cfg(not(debug_assertions))]
fn release(_rank: LockRank) {}

/// RAII record of one acquisition; popping happens on drop.
struct Token {
    rank: LockRank,
}

impl Token {
    /// Checks the rank against the thread's held stack (panicking on a
    /// violation under `debug_assertions`) and records the acquisition.
    fn new(rank: LockRank) -> Token {
        acquire(rank);
        Token { rank }
    }
}

impl Drop for Token {
    fn drop(&mut self) {
        release(self.rank);
    }
}

/// A guard pairing the underlying lock guard with its rank token.  Derefs
/// to the protected data.  Field order matters: the real guard unlocks
/// first, then the token pops the rank.
pub(crate) struct RankedGuard<G> {
    inner: G,
    _token: Token,
}

impl<G: Deref> Deref for RankedGuard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for RankedGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// A reader-writer lock with a fixed [`LockRank`].
#[derive(Debug)]
pub(crate) struct RankedRwLock<T> {
    rank: LockRank,
    inner: parking_lot::RwLock<T>,
}

impl<T> RankedRwLock<T> {
    /// Creates the lock at `rank` around `value`.
    pub(crate) fn new(rank: LockRank, value: T) -> Self {
        RankedRwLock { rank, inner: parking_lot::RwLock::new(value) }
    }

    /// Acquires a shared read lock, rank-checked.
    pub(crate) fn read(&self) -> RankedGuard<impl Deref<Target = T> + '_> {
        let token = Token::new(self.rank);
        RankedGuard { inner: self.inner.read(), _token: token }
    }

    /// Acquires an exclusive write lock, rank-checked.
    pub(crate) fn write(&self) -> RankedGuard<impl DerefMut<Target = T> + '_> {
        let token = Token::new(self.rank);
        RankedGuard { inner: self.inner.write(), _token: token }
    }
}

/// A mutex with a fixed [`LockRank`].
#[derive(Debug)]
pub(crate) struct RankedMutex<T> {
    rank: LockRank,
    inner: parking_lot::Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Creates the mutex at `rank` around `value`.
    pub(crate) fn new(rank: LockRank, value: T) -> Self {
        RankedMutex { rank, inner: parking_lot::Mutex::new(value) }
    }

    /// Acquires the mutex, rank-checked.
    pub(crate) fn lock(&self) -> RankedGuard<impl DerefMut<Target = T> + '_> {
        let token = Token::new(self.rank);
        RankedGuard { inner: self.inner.lock(), _token: token }
    }
}

/// The checkpoint mutex of a derived index, at [`LockRank::Checkpoint`].
/// A type of its own so the indexes can keep deriving `Default`.
#[derive(Debug)]
pub(crate) struct CheckpointLock(RankedMutex<()>);

impl Default for CheckpointLock {
    fn default() -> Self {
        CheckpointLock(RankedMutex::new(LockRank::Checkpoint, ()))
    }
}

impl CheckpointLock {
    /// Acquires the mutex, rank-checked.
    pub(crate) fn lock(&self) -> RankedGuard<impl DerefMut<Target = ()> + '_> {
        self.0.lock()
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_message(result: std::thread::Result<()>) -> String {
        match result {
            Ok(()) => String::new(),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default(),
        }
    }

    /// Runs `f` with the default panic hook silenced, so an *expected*
    /// panic does not spray a backtrace into the test output.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn in_order_acquisition_passes() {
        let save = RankedMutex::new(LockRank::Save, ());
        let specs = RankedRwLock::new(LockRank::Specs, 1u32);
        let runs = RankedRwLock::new(LockRank::Runs, 2u32);
        let cache = RankedMutex::new(LockRank::FpCache, 3u32);
        let _g0 = save.lock();
        let g1 = specs.read();
        let mut g2 = runs.write();
        let g3 = cache.lock();
        assert_eq!((*g1, *g2, *g3), (1, 2, 3));
        *g2 += 1;
    }

    #[test]
    fn reacquisition_after_drop_passes() {
        let runs = RankedRwLock::new(LockRank::Runs, ());
        let specs = RankedRwLock::new(LockRank::Specs, ());
        drop(runs.read());
        // `runs` was released, so taking `specs` now is in order.
        let _s = specs.read();
        drop(_s);
        let _r = runs.read();
    }

    #[test]
    fn out_of_order_acquisition_panics_with_a_named_violation() {
        let specs = RankedRwLock::new(LockRank::Specs, ());
        let runs = RankedRwLock::new(LockRank::Runs, ());
        let result = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let _r = runs.read();
                let _s = specs.read(); // rank 1 under rank 2: must panic
            }))
        });
        let msg = panic_message(result);
        assert!(msg.contains("lock-rank violation"), "unexpected panic message: {msg:?}");
        assert!(msg.contains("`specs`") && msg.contains("`runs`"), "names the locks: {msg:?}");
    }

    #[test]
    fn save_lock_under_a_data_guard_panics() {
        let save = RankedMutex::new(LockRank::Save, ());
        let specs = RankedRwLock::new(LockRank::Specs, ());
        let result = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let _s = specs.read();
                let _g = save.lock(); // save_lock is taken first or not at all
            }))
        });
        assert!(panic_message(result).contains("lock-rank violation"));
    }

    #[test]
    fn checkpoint_lock_is_outermost() {
        let checkpoint = CheckpointLock::default();
        let save = RankedMutex::new(LockRank::Save, ());
        {
            let _c = checkpoint.lock();
            let _s = save.lock();
        }
        let result = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let _s = save.lock();
                let _c = checkpoint.lock(); // a checkpoint never starts under a save
            }))
        });
        let msg = panic_message(result);
        assert!(msg.contains("`checkpoint_lock`") && msg.contains("`save_lock`"), "{msg:?}");
    }

    #[test]
    fn ranks_are_tracked_per_thread() {
        // One thread holding `runs` must not poison another thread's
        // ordering: the stack is thread-local.
        let runs = std::sync::Arc::new(RankedRwLock::new(LockRank::Runs, ()));
        let specs = std::sync::Arc::new(RankedRwLock::new(LockRank::Specs, ()));
        let _r = runs.read();
        let (specs2, runs2) = (std::sync::Arc::clone(&specs), std::sync::Arc::clone(&runs));
        std::thread::spawn(move || {
            let _s = specs2.read();
            let _r = runs2.read();
        })
        .join()
        .expect("the other thread acquires in order and must not panic");
    }
}
