//! The traced run: in-memory spans recorded around calls into the
//! program's layers, plus counting wrappers for the two seams the program
//! exposes (the diff cache and the store's filesystem handle).
//!
//! Spans are recorded only from the benchmark's own files; the program is
//! not instrumented.  They are kept in memory and written out once the run
//! ends.

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wfdiff_core::{CacheStats, DeletionEntry, DeletionKey, DiffCache, PairKey};
use wfdiff_pdiffview::StoreIo;

/// One recorded span.  `parent` and `req` are 0 when absent.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

/// Per span name: how many spans, their total time and their self time
/// (each span minus the time its children cover), in microseconds.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SelfTime {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

impl Tracer {
    /// Runs `f` inside a span; `f` receives the span id to parent children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let value = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = Span { id, parent, req, name, start_ns: start, end_ns: end };
        self.spans.lock().expect("span buffer lock is never poisoned").push(span);
        value
    }

    /// A fresh request id.
    pub fn request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock is never poisoned").clone()
    }

    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in &spans {
            let total = (s.end_ns - s.start_ns) as f64 / 1e3;
            let children = child_ns.get(&s.id).copied().unwrap_or(0) as f64 / 1e3;
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_us += total;
            entry.self_us += (total - children).max(0.0);
        }
        out
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let body = serde_json::to_string(&self.spans())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(path, body)
    }
}

/// Runs `f` in a span when tracing, plainly otherwise.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, req, f),
        None => f(0),
    }
}

/// A [`DiffCache`] that counts pair and deletion lookups, their hits and
/// the time spent in `get`, delegating everything to an inner cache.
pub struct CountingCache {
    inner: Arc<dyn DiffCache>,
    pair_gets: AtomicU64,
    pair_hits: AtomicU64,
    deletion_gets: AtomicU64,
    deletion_hits: AtomicU64,
    get_ns: AtomicU64,
}

/// A snapshot of [`CountingCache`] counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    pub pair_gets: u64,
    pub pair_hits: u64,
    pub deletion_gets: u64,
    pub deletion_hits: u64,
    pub get_ns: u64,
    pub inner: CacheStats,
}

impl CacheCounts {
    /// Counter growth from `before` to `self`; `inner` keeps the later
    /// snapshot's absolute entry count.
    pub fn since(&self, before: &CacheCounts) -> CacheCounts {
        CacheCounts {
            pair_gets: self.pair_gets - before.pair_gets,
            pair_hits: self.pair_hits - before.pair_hits,
            deletion_gets: self.deletion_gets - before.deletion_gets,
            deletion_hits: self.deletion_hits - before.deletion_hits,
            get_ns: self.get_ns - before.get_ns,
            inner: CacheStats {
                hits: self.inner.hits - before.inner.hits,
                misses: self.inner.misses - before.inner.misses,
                insertions: self.inner.insertions - before.inner.insertions,
                evictions: self.inner.evictions - before.inner.evictions,
                entries: self.inner.entries,
            },
        }
    }
}

impl CountingCache {
    pub fn new(inner: Arc<dyn DiffCache>) -> CountingCache {
        CountingCache {
            inner,
            pair_gets: AtomicU64::new(0),
            pair_hits: AtomicU64::new(0),
            deletion_gets: AtomicU64::new(0),
            deletion_hits: AtomicU64::new(0),
            get_ns: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> CacheCounts {
        CacheCounts {
            pair_gets: self.pair_gets.load(Ordering::Relaxed),
            pair_hits: self.pair_hits.load(Ordering::Relaxed),
            deletion_gets: self.deletion_gets.load(Ordering::Relaxed),
            deletion_hits: self.deletion_hits.load(Ordering::Relaxed),
            get_ns: self.get_ns.load(Ordering::Relaxed),
            inner: self.inner.stats(),
        }
    }
}

impl DiffCache for CountingCache {
    fn get_deletion(&self, key: &DeletionKey) -> Option<Arc<DeletionEntry>> {
        let started = Instant::now();
        let found = self.inner.get_deletion(key);
        self.get_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.deletion_gets.fetch_add(1, Ordering::Relaxed);
        if found.is_some() {
            self.deletion_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn put_deletion(&self, key: DeletionKey, entry: Arc<DeletionEntry>) {
        self.inner.put_deletion(key, entry);
    }

    fn get_pair(&self, key: &PairKey) -> Option<f64> {
        let started = Instant::now();
        let found = self.inner.get_pair(key);
        self.get_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.pair_gets.fetch_add(1, Ordering::Relaxed);
        if found.is_some() {
            self.pair_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn put_pair(&self, key: PairKey, cost: f64) {
        self.inner.put_pair(key, cost);
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// A [`StoreIo`] that counts fsyncs, their time, bytes written and the
/// write-ahead-log records appended by kind, delegating to an inner handle.
#[derive(Debug)]
pub struct CountingIo {
    inner: Arc<dyn StoreIo>,
    fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
    bytes_written: AtomicU64,
    wal_kinds: [AtomicU64; 6],
}

/// A snapshot of [`CountingIo`] counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounts {
    pub fsyncs: u64,
    pub fsync_ns: u64,
    pub bytes_written: u64,
    /// WAL records appended, indexed by kind (1..=5; 0 = undecodable).
    pub wal_kinds: [u64; 6],
}

impl IoCounts {
    pub fn since(&self, before: &IoCounts) -> IoCounts {
        let mut wal_kinds = [0; 6];
        for (i, k) in wal_kinds.iter_mut().enumerate() {
            *k = self.wal_kinds[i] - before.wal_kinds[i];
        }
        IoCounts {
            fsyncs: self.fsyncs - before.fsyncs,
            fsync_ns: self.fsync_ns - before.fsync_ns,
            bytes_written: self.bytes_written - before.bytes_written,
            wal_kinds,
        }
    }
}

impl CountingIo {
    pub fn new(inner: Arc<dyn StoreIo>) -> CountingIo {
        CountingIo {
            inner,
            fsyncs: AtomicU64::new(0),
            fsync_ns: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            wal_kinds: Default::default(),
        }
    }

    pub fn counts(&self) -> IoCounts {
        let mut wal_kinds = [0; 6];
        for (i, k) in wal_kinds.iter_mut().enumerate() {
            *k = self.wal_kinds[i].load(Ordering::Relaxed);
        }
        IoCounts {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            fsync_ns: self.fsync_ns.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            wal_kinds,
        }
    }

    fn timed_sync(&self, f: impl FnOnce() -> std::io::Result<()>) -> std::io::Result<()> {
        let started = Instant::now();
        let result = f();
        self.fsync_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Counts the records of one WAL append by kind.
    fn count_frames(&self, bytes: &[u8]) {
        for kind in wal_frame_kinds(bytes) {
            let kind = usize::from(kind);
            self.wal_kinds[if kind <= 5 { kind } else { 0 }].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The record kinds of the frames in one WAL append, in order.  A frame is
/// `[u32 len][u32 crc][u8 kind][payload]`, `len` covering kind and payload.
pub fn wal_frame_kinds(mut bytes: &[u8]) -> Vec<u8> {
    let mut kinds = Vec::new();
    while bytes.len() >= 9 {
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        kinds.push(bytes[8]);
        if len == 0 || 8 + len > bytes.len() {
            break;
        }
        bytes = &bytes[8 + len..];
    }
    kinds
}

impl StoreIo for CountingIo {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes_written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.write_file(path, bytes)
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes_written.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        if path.file_name().is_some_and(|n| n == wfdiff_pdiffview::WAL_FILE) {
            self.count_frames(bytes);
        }
        self.inner.append_file(path, bytes)
    }

    fn fsync_file(&self, path: &Path) -> std::io::Result<()> {
        self.timed_sync(|| self.inner.fsync_file(path))
    }

    fn fsync_dir(&self, path: &Path) -> std::io::Result<()> {
        self.timed_sync(|| self.inner.fsync_dir(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_dir_all(path)
    }

    fn truncate_file(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate_file(path, len)
    }
}
