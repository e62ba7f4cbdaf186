//! Deliberately broken seams for the benchmark's self-tests: each must make
//! the correctness gate fail.

use crate::trace::wal_frame_kinds;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use wfdiff_core::{CacheStats, DeletionEntry, DeletionKey, DiffCache, PairKey, ShardedDiffCache};
use wfdiff_pdiffview::{RealIo, StoreIo};

/// A cache that returns one pair cost plus one: the first pair key looked
/// up with a hit is perturbed on every later hit as well.
pub struct PerturbingCache {
    inner: ShardedDiffCache,
    victim: Mutex<Option<PairKey>>,
}

impl Default for PerturbingCache {
    fn default() -> Self {
        PerturbingCache { inner: ShardedDiffCache::default(), victim: Mutex::new(None) }
    }
}

impl DiffCache for PerturbingCache {
    fn get_deletion(&self, key: &DeletionKey) -> Option<Arc<DeletionEntry>> {
        self.inner.get_deletion(key)
    }

    fn put_deletion(&self, key: DeletionKey, entry: Arc<DeletionEntry>) {
        self.inner.put_deletion(key, entry)
    }

    fn get_pair(&self, key: &PairKey) -> Option<f64> {
        let found = self.inner.get_pair(key)?;
        let mut victim = self.victim.lock().expect("victim lock is never poisoned");
        let chosen = *victim.get_or_insert(*key);
        Some(if chosen == *key { found + 1.0 } else { found })
    }

    fn put_pair(&self, key: PairKey, cost: f64) {
        self.inner.put_pair(key, cost)
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// A filesystem handle that silently skips the first write-ahead-log
/// append holding a run insert (kind 1) after a checkpoint fold (a rename),
/// and reports success: a lost append in the log's tail, which no later
/// fold repairs when the run ends there.
#[derive(Debug, Default)]
pub struct DroppingIo {
    folded: AtomicBool,
    dropped: AtomicBool,
}

impl StoreIo for DroppingIo {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealIo.create_dir_all(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        RealIo.write_file(path, bytes)
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let run_insert = path.file_name().is_some_and(|n| n == wfdiff_pdiffview::WAL_FILE)
            && wal_frame_kinds(bytes).first() == Some(&1);
        if run_insert
            && self.folded.load(Ordering::SeqCst)
            && !self.dropped.swap(true, Ordering::SeqCst)
        {
            return Ok(());
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
        RealIo.rename(from, to)?;
        self.folded.store(true, Ordering::SeqCst);
        Ok(())
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
