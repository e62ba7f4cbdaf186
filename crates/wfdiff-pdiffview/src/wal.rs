//! The per-shard write-ahead log: `wal.log` beside `manifest.json`.
//!
//! A full [`WorkflowStore::save_to_dir`] rewrites every changed document and
//! commits with a manifest rename — O(store).  The WAL makes the hot
//! mutation paths O(append) instead: a run insert, a run removal or a
//! cluster-state delta is one length-prefixed, checksummed record appended
//! to `wal.log` and fsynced, and nothing else is touched.
//!
//! # Record framing
//!
//! ```text
//! [u32 LE len][u32 LE crc32][u8 kind][len-1 bytes of JSON payload]
//! ```
//!
//! `len` counts the kind byte plus the payload; `crc32` (IEEE) covers the
//! kind byte plus the payload.  Kinds: 1 = run insert, 2 = run remove,
//! 3 = cluster delta, 5 = stream event (one node-lifecycle event of an
//! in-flight streamed run).  Kind 4 is **retired**: older versions wrote
//! metric-index deltas under it, and a checksum-valid kind-4 frame is
//! stepped over without decoding, so the records after it still replay.
//! A record is valid only if its header fits, its length is sane, its
//! checksum matches and its payload deserialises; the **first** invalid
//! record ends the log — everything from its offset on is a torn tail (a
//! crashed append) and is truncated by the next
//! [`WorkflowStore::load_from_dir`].
//!
//! # Replay semantics
//!
//! `load_from_dir` replays the WAL **after** loading the manifest-committed
//! documents, in append order.  Replay is idempotent: re-inserting a run the
//! manifest already holds replaces it with identical content, removing an
//! absent run is a no-op, and an insert recorded against a specification
//! version the manifest no longer lists is skipped (the record predates a
//! spec replacement whose full save crashed before the WAL truncation).
//! Cluster-delta records are consumed by
//! [`DiffService::load_cluster_state`](crate::service::DiffService::load_cluster_state).
//! Each carries one spec's clustering header and the memo entries journaled
//! since that spec's previous checkpoint; load merges it onto the spec's
//! previous entry (from `cluster_cache.json` or an earlier record) and
//! validates the merged entry like any checkpoint entry (see
//! [`crate::cluster::persist`]).
//!
//! A full save **folds** the log: cluster deltas are merged into
//! `cluster_cache.json`, the snapshot is committed via the manifest rename,
//! and the WAL is truncated to zero (dropping any retired kind-4 frames).
//! The fold runs automatically once the log grows past
//! [`WorkflowStore::set_wal_fold_threshold`].
//!
//! [`WorkflowStore::save_to_dir`]: crate::store::WorkflowStore::save_to_dir
//! [`WorkflowStore::load_from_dir`]: crate::store::WorkflowStore::load_from_dir
//! [`WorkflowStore::set_wal_fold_threshold`]: crate::store::WorkflowStore::set_wal_fold_threshold

use crate::cluster::persist::SpecClusterDoc;
use crate::io::RunDescriptor;
use crate::persist::PersistError;
use crate::storeio::StoreIo;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// Upper bound on one record's `len` field; anything larger is treated as a
/// torn tail rather than trusted as an allocation size, and an append that
/// would write one fails with [`PersistError::Format`].
const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes of framing before each record's body.
const HEADER_BYTES: usize = 8;

const KIND_RUN_INSERT: u8 = 1;
const KIND_RUN_REMOVE: u8 = 2;
const KIND_CLUSTER_DELTA: u8 = 3;
/// Retired: metric-index deltas, written by older versions; stepped over.
const KIND_RETIRED_METRIC_DELTA: u8 = 4;
const KIND_STREAM_EVENT: u8 = 5;

/// A run insert: enough to rebuild and re-validate the run at replay time.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct RunInsertRecord {
    /// Specification name.
    pub(crate) spec: String,
    /// Canonical persistent fingerprint (hex) of the specification version
    /// the run belongs to; replay skips the record if the manifest has moved
    /// to a different version.
    pub(crate) spec_fingerprint: String,
    /// Run name.
    pub(crate) name: String,
    /// The run itself.
    pub(crate) run: RunDescriptor,
}

/// A run removal.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct RunRemoveRecord {
    /// Specification name.
    pub(crate) spec: String,
    /// Run name.
    pub(crate) name: String,
}

/// One specification's cluster checkpoint: the full clustering header and
/// the memo entries journaled since the spec's previous checkpoint, merged
/// onto the previous entry on replay.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct ClusterDeltaRecord {
    /// Cost-model cache key the distances were computed under.
    pub(crate) cost_key: u64,
    /// The entry in `cluster_cache.json`'s shape, its `distances` limited
    /// to the journaled ones.
    pub(crate) doc: SpecClusterDoc,
}

/// One node-lifecycle event of an in-flight streamed run.  Streams are
/// WAL-only state: they have no manifest document, so a fold re-appends the
/// live records of every still-open stream after truncating the log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct StreamEventRecord {
    /// Specification name.
    pub(crate) spec: String,
    /// Canonical persistent fingerprint (hex) of the specification version
    /// the stream was opened against; replay drops the whole stream if the
    /// manifest has moved to a different version.
    pub(crate) spec_fingerprint: String,
    /// Stream name (becomes the run name at finalisation).
    pub(crate) stream: String,
    /// Zero-based position of this event in the stream's event sequence.
    pub(crate) seq: u64,
    /// The event itself, or `None` for the closure marker appended once the
    /// finalised run is durable — replay treats a closed stream's records as
    /// already folded into the run and drops them.
    pub(crate) event: Option<crate::stream::StreamEvent>,
}

/// A decoded WAL record.
#[derive(Debug)]
pub(crate) enum WalRecord {
    /// Kind 1.
    RunInsert(RunInsertRecord),
    /// Kind 2.
    RunRemove(RunRemoveRecord),
    /// Kind 3.
    ClusterDelta(ClusterDeltaRecord),
    /// Kind 5.
    StreamEvent(StreamEventRecord),
}

/// CRC32 (IEEE 802.3, reflected) — dependency-free, table-driven.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[usize::from((crc as u8) ^ b)] ^ (crc >> 8);
    }
    !crc
}

fn io_err(path: &Path, context: &'static str, source: std::io::Error) -> PersistError {
    PersistError::Io { path: path.to_path_buf(), context, source }
}

/// The WAL path inside a store directory.
pub(crate) fn wal_path(dir: &Path) -> std::path::PathBuf {
    dir.join(WAL_FILE)
}

fn encode_one(
    path: &Path,
    record: &WalRecord,
    max_record_bytes: u32,
    out: &mut Vec<u8>,
) -> Result<(), PersistError> {
    let (kind, payload) = match record {
        WalRecord::RunInsert(r) => (KIND_RUN_INSERT, serde_json::to_string(r)),
        WalRecord::RunRemove(r) => (KIND_RUN_REMOVE, serde_json::to_string(r)),
        WalRecord::ClusterDelta(r) => (KIND_CLUSTER_DELTA, serde_json::to_string(r)),
        WalRecord::StreamEvent(r) => (KIND_STREAM_EVENT, serde_json::to_string(r)),
    };
    let payload = payload
        .map_err(|source| PersistError::Json { path: path.to_path_buf(), source })?
        .into_bytes();
    let len = 1 + payload.len();
    if len > max_record_bytes as usize {
        return Err(PersistError::Format {
            path: path.to_path_buf(),
            what: format!("a {len}-byte record exceeds the {max_record_bytes}-byte WAL bound"),
        });
    }
    frame_into(kind, &payload, out);
    Ok(())
}

/// Frames one record, `[len][crc32][kind][payload]`, onto `out`.
pub(crate) fn frame_into(kind: u8, payload: &[u8], out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(1 + payload.len());
    body.push(kind);
    body.extend_from_slice(payload);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Appends `records` to `dir/wal.log` as one write + one fsync (the whole
/// durability cost of a hot-path mutation).  Returns the bytes appended.
/// A record over [`MAX_RECORD_BYTES`] fails the whole batch before anything
/// is written.
pub(crate) fn append(
    io: &dyn StoreIo,
    dir: &Path,
    records: &[WalRecord],
) -> Result<u64, PersistError> {
    append_within(io, dir, records, MAX_RECORD_BYTES)
}

/// [`append`] with an explicit per-record bound.
fn append_within(
    io: &dyn StoreIo,
    dir: &Path,
    records: &[WalRecord],
    max_record_bytes: u32,
) -> Result<u64, PersistError> {
    let path = wal_path(dir);
    let mut buf = Vec::new();
    for record in records {
        encode_one(&path, record, max_record_bytes, &mut buf)?;
    }
    if buf.is_empty() {
        return Ok(0);
    }
    io.append_file(&path, &buf).map_err(|e| io_err(&path, "appending to", e))?;
    io.fsync_file(&path).map_err(|e| io_err(&path, "syncing", e))?;
    Ok(buf.len() as u64)
}

/// What [`scan`] found in a WAL file.
#[derive(Debug, Default)]
pub(crate) struct WalScan {
    /// Every valid record, in append order.
    pub(crate) records: Vec<WalRecord>,
    /// Byte offset past the last valid record — where a torn tail (if any)
    /// starts.
    pub(crate) valid_len: u64,
    /// Total file length on disk.
    pub(crate) total_len: u64,
}

/// Reads a little-endian `u32` at `offset`, or `None` past the end — the
/// panic-free form of `bytes[offset..offset + 4].try_into().unwrap()`.
fn read_u32_le(bytes: &[u8], offset: usize) -> Option<u32> {
    let s = bytes.get(offset..offset.checked_add(4)?)?;
    Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Reads and decodes `dir/wal.log`.  A missing file is an empty log; a
/// decode failure ends the log at that offset (`valid_len < total_len`
/// flags the torn tail) and is never an error — only unreadable storage is.
pub(crate) fn scan(dir: &Path) -> Result<WalScan, PersistError> {
    let path = wal_path(dir);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(io_err(&path, "reading", e)),
    };
    let mut out = WalScan { total_len: bytes.len() as u64, ..WalScan::default() };
    let mut offset = 0usize;
    while bytes.len() - offset >= HEADER_BYTES {
        let (Some(len), Some(crc)) = (read_u32_le(&bytes, offset), read_u32_le(&bytes, offset + 4))
        else {
            break;
        };
        if len == 0 || len > MAX_RECORD_BYTES {
            break;
        }
        let body_start = offset + HEADER_BYTES;
        let Some(body_end) = body_start.checked_add(len as usize) else { break };
        if body_end > bytes.len() {
            break;
        }
        let body = &bytes[body_start..body_end];
        if crc32(body) != crc {
            break;
        }
        if body[0] == KIND_RETIRED_METRIC_DELTA {
            // A complete frame of a retired kind: skip it, never a torn tail.
            offset = body_end;
            continue;
        }
        let Ok(payload) = std::str::from_utf8(&body[1..]) else { break };
        let record = match body[0] {
            KIND_RUN_INSERT => serde_json::from_str(payload).map(WalRecord::RunInsert),
            KIND_RUN_REMOVE => serde_json::from_str(payload).map(WalRecord::RunRemove),
            KIND_CLUSTER_DELTA => serde_json::from_str(payload).map(WalRecord::ClusterDelta),
            KIND_STREAM_EVENT => serde_json::from_str(payload).map(WalRecord::StreamEvent),
            _ => break,
        };
        let Ok(record) = record else { break };
        out.records.push(record);
        offset = body_end;
    }
    out.valid_len = offset as u64;
    Ok(out)
}

/// Truncates `dir/wal.log` to `len` bytes and syncs it — the torn-tail
/// repair (`len` = last valid offset) and the post-fold reset (`len` = 0).
/// A missing file is only tolerated when truncating to zero.
pub(crate) fn truncate_to(io: &dyn StoreIo, dir: &Path, len: u64) -> Result<(), PersistError> {
    let path = wal_path(dir);
    match io.truncate_file(&path, len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && len == 0 => return Ok(()),
        Err(e) => return Err(io_err(&path, "truncating", e)),
    }
    io.fsync_file(&path).map_err(|e| io_err(&path, "syncing", e))
}

// ---------------------------------------------------------------------------
// Live counters and public snapshots
// ---------------------------------------------------------------------------

/// Live WAL counters of one [`WorkflowStore`](crate::store::WorkflowStore);
/// the store updates them on append, replay and fold.
#[derive(Debug, Default)]
pub(crate) struct WalStats {
    /// Records appended since the store was created.
    pub(crate) appends_total: AtomicU64,
    /// Current `wal.log` length in bytes (0 right after a fold).
    pub(crate) bytes: AtomicU64,
    /// Records replayed past the manifest by the load that built the store.
    pub(crate) replayed_records: AtomicU64,
    /// Checkpoint folds (full saves that truncated the WAL).
    pub(crate) folds_total: AtomicU64,
}

impl WalStats {
    pub(crate) fn snapshot(&self) -> WalStatsSnapshot {
        WalStatsSnapshot {
            appends_total: self.appends_total.load(Ordering::Acquire),
            bytes: self.bytes.load(Ordering::Acquire),
            replayed_records: self.replayed_records.load(Ordering::Acquire),
            folds_total: self.folds_total.load(Ordering::Acquire),
        }
    }
}

/// A point-in-time snapshot of a store's WAL counters — what the `/metrics`
/// endpoint exports per shard as `wfdiff_wal_appends_total`,
/// `wfdiff_wal_bytes`, `wfdiff_wal_replayed_records` and
/// `wfdiff_checkpoint_folds_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStatsSnapshot {
    /// Records appended since the store was created.
    pub appends_total: u64,
    /// Current `wal.log` length in bytes (0 right after a fold).
    pub bytes: u64,
    /// Records replayed past the manifest by the load that built the store.
    pub replayed_records: u64,
    /// Checkpoint folds (full saves that truncated the WAL).
    pub folds_total: u64,
}

/// What `store_tool wal` reports about one store directory's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalSummary {
    /// Valid records in the log.
    pub records: usize,
    /// Run-insert records (kind 1).
    pub run_inserts: usize,
    /// Run-remove records (kind 2).
    pub run_removes: usize,
    /// Cluster-delta records (kind 3).
    pub cluster_deltas: usize,
    /// Stream-event records (kind 5), closure markers included.
    pub stream_events: usize,
    /// Bytes of valid records.
    pub bytes: u64,
    /// Trailing bytes that do not decode (a torn append; repaired by the
    /// next load).
    pub torn_bytes: u64,
}

/// Inspects `dir/wal.log` without loading the store: record counts by kind,
/// valid bytes and torn-tail bytes.  A missing log is an all-zero summary.
pub fn inspect(dir: impl AsRef<Path>) -> Result<WalSummary, PersistError> {
    let scan = scan(dir.as_ref())?;
    let mut summary = WalSummary {
        records: scan.records.len(),
        bytes: scan.valid_len,
        torn_bytes: scan.total_len - scan.valid_len,
        ..WalSummary::default()
    };
    for record in &scan.records {
        match record {
            WalRecord::RunInsert(_) => summary.run_inserts += 1,
            WalRecord::RunRemove(_) => summary.run_removes += 1,
            WalRecord::ClusterDelta(_) => summary.cluster_deltas += 1,
            WalRecord::StreamEvent(_) => summary.stream_events += 1,
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storeio::RealIo;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("wfdiff-wal-{tag}-{}", std::process::id()));
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

    fn insert_record(name: &str) -> WalRecord {
        let spec = wfdiff_workloads::figures::fig2_specification();
        let run = wfdiff_workloads::figures::fig2_run1(&spec);
        WalRecord::RunInsert(RunInsertRecord {
            spec: "fig2".to_string(),
            spec_fingerprint: spec.fingerprint().to_string(),
            name: name.to_string(),
            run: RunDescriptor::from_run(&run),
        })
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32/ISO-HDLC check value; pinning it pins the
        // polynomial, reflection and final xor — i.e. the on-disk format.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_scan_roundtrip_preserves_order_and_kinds() {
        let dir = TempDir::new("roundtrip");
        let records = vec![
            insert_record("r1"),
            WalRecord::RunRemove(RunRemoveRecord {
                spec: "fig2".to_string(),
                name: "r1".to_string(),
            }),
            insert_record("r2"),
        ];
        let bytes = append(&RealIo, dir.path(), &records).unwrap();
        assert!(bytes > 0);
        let scan = scan(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len, bytes);
        assert_eq!(scan.total_len, bytes);
        assert!(matches!(&scan.records[0], WalRecord::RunInsert(r) if r.name == "r1"));
        assert!(matches!(&scan.records[1], WalRecord::RunRemove(r) if r.name == "r1"));
        assert!(matches!(&scan.records[2], WalRecord::RunInsert(r) if r.name == "r2"));
        let summary = inspect(dir.path()).unwrap();
        assert_eq!(summary.records, 3);
        assert_eq!(summary.run_inserts, 2);
        assert_eq!(summary.run_removes, 1);
        assert_eq!(summary.cluster_deltas, 0);
        assert_eq!(summary.torn_bytes, 0);
    }

    #[test]
    fn a_retired_metric_delta_frame_is_stepped_over() {
        let dir = TempDir::new("retired");
        append(&RealIo, dir.path(), &[insert_record("r1")]).unwrap();
        // Kind 4, as older versions wrote it between two run inserts.
        let mut retired = Vec::new();
        frame_into(4, br#"{"cost_key":1,"doc":{"spec":"fig2","members":[]}}"#, &mut retired);
        RealIo.append_file(&wal_path(dir.path()), &retired).unwrap();
        append(&RealIo, dir.path(), &[insert_record("r2")]).unwrap();
        let scan = scan(dir.path()).unwrap();
        assert_eq!(scan.valid_len, scan.total_len, "the retired frame is no torn tail");
        let names: Vec<&str> = scan
            .records
            .iter()
            .filter_map(|r| match r {
                WalRecord::RunInsert(r) => Some(r.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["r1", "r2"]);
        assert_eq!(scan.records.len(), 2);
        let summary = inspect(dir.path()).unwrap();
        assert_eq!((summary.records, summary.run_inserts, summary.torn_bytes), (2, 2, 0));
    }

    #[test]
    fn missing_log_scans_empty() {
        let dir = TempDir::new("missing");
        let scan = scan(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.total_len, 0);
        assert_eq!(inspect(dir.path()).unwrap(), WalSummary::default());
        // Truncating an absent log to zero is the fold's no-op case.
        truncate_to(&RealIo, dir.path(), 0).unwrap();
    }

    #[test]
    fn torn_tails_end_the_log_at_the_last_valid_record() {
        let dir = TempDir::new("torn");
        append(&RealIo, dir.path(), &[insert_record("r1"), insert_record("r2")]).unwrap();
        let full = std::fs::read(wal_path(dir.path())).unwrap();
        let keep = full.len() - 7; // chop into the last record's payload
        for torn in [
            full[..keep].to_vec(),                           // truncated payload
            [&full[..], &full[..5]].concat(),                // partial next header
            [&full[..], &[9, 0, 0, 0, 1, 2, 3, 4]].concat(), // bogus header, no body
        ] {
            std::fs::write(wal_path(dir.path()), &torn).unwrap();
            let scan = scan(dir.path()).unwrap();
            assert!(scan.valid_len < scan.total_len, "tail detected");
            let summary = inspect(dir.path()).unwrap();
            assert!(summary.torn_bytes > 0);
            // Repair: truncate to the valid prefix and re-scan clean.
            truncate_to(&RealIo, dir.path(), scan.valid_len).unwrap();
            let repaired = super::scan(dir.path()).unwrap();
            assert_eq!(repaired.valid_len, repaired.total_len);
            assert!(!repaired.records.is_empty());
        }
    }

    #[test]
    fn a_corrupted_byte_invalidates_the_record_checksum() {
        let dir = TempDir::new("crc");
        append(&RealIo, dir.path(), &[insert_record("r1")]).unwrap();
        let mut bytes = std::fs::read(wal_path(dir.path())).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(wal_path(dir.path()), &bytes).unwrap();
        let scan = scan(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 0, "checksum rejects the flipped byte");
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn an_over_bound_record_is_an_error_and_appends_nothing() {
        let dir = TempDir::new("over-bound");
        let first = append(&RealIo, dir.path(), &[insert_record("r1")]).unwrap();
        let bound = u32::try_from(first).unwrap();
        // A batch whose second record is longer than the bound: the first
        // fits, but nothing of the batch may reach the log.
        let batch = [insert_record("r2"), insert_record(&"x".repeat(first as usize))];
        let err = append_within(&RealIo, dir.path(), &batch, bound).unwrap_err();
        assert!(matches!(err, PersistError::Format { .. }), "{err}");
        assert_eq!(std::fs::metadata(wal_path(dir.path())).unwrap().len(), first);
        assert_eq!(scan(dir.path()).unwrap().records.len(), 1);
    }

    #[test]
    fn appends_after_a_fold_start_a_fresh_log() {
        let dir = TempDir::new("fold");
        append(&RealIo, dir.path(), &[insert_record("r1")]).unwrap();
        truncate_to(&RealIo, dir.path(), 0).unwrap();
        assert_eq!(inspect(dir.path()).unwrap().records, 0);
        append(&RealIo, dir.path(), &[insert_record("r2")]).unwrap();
        let scan = scan(dir.path()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(matches!(&scan.records[0], WalRecord::RunInsert(r) if r.name == "r2"));
    }
}
