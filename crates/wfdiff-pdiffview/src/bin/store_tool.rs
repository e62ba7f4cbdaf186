//! `store_tool` — export, import, verify and query PDiffView store
//! directories.
//!
//! ```text
//! store_tool export <dir> [specs] [runs-per-spec] [seed]
//!     Generate a synthetic workload (wfdiff-workloads generator) and
//!     persist it to <dir>.
//!
//! store_tool import <src> <dst>
//!     Load the store at <src> (full validation), re-save it to <dst> and
//!     report what round-tripped.
//!
//! store_tool verify <dir>
//!     Load the store at <dir>, warm-start a DiffService over it and
//!     difference every run pair of every specification.  A directory
//!     holding shard-NNN subdirectories is verified shard by shard, plus
//!     cross-shard checks: no specification may appear in two shards, and
//!     every specification must live in the shard the pinned routing hash
//!     assigns it.
//!
//! store_tool wal <dir>
//!     Print write-ahead-log record counts (inserts/removals/cluster
//!     deltas/stream events), byte sizes and any torn-tail bytes, per shard
//!     when the directory is sharded.
//!
//! store_tool checkpoint <dir>
//!     Force a checkpoint fold: load each store (replaying its WAL), save
//!     it back (folding the WAL into the manifest) and truncate the log.
//!
//! store_tool diff <dir> <spec> <run-a> <run-b>
//!     Load the store at <dir> and print the edit distance of one pair to
//!     stdout — rendered exactly like the diff server's JSON `distance`
//!     field, so shell pipelines can compare the two byte-for-byte.
//!
//! store_tool shard <src> <dst> <n>
//!     Partition the single-store directory at <src> into <n> hash-routed
//!     shard directories <dst>/shard-000 ... <dst>/shard-NNN — the operator
//!     migration path to a sharded `wfdiff_serve` deployment (see
//!     docs/OPERATIONS.md).  Cluster caches are not migrated; each shard
//!     rebuilds its own on the first cluster query.
//!
//! store_tool bench-compare <baseline.json> <current.json> [max-ratio]
//!     Compare two bench JSON documents (BENCH_serve.json and friends):
//!     every numeric leaf whose key contains "p50" is matched by path and
//!     the current value must not exceed `max-ratio` (default 2.0) times
//!     the baseline.  Exits 1 listing every regressed latency, 0 when the
//!     baseline file does not exist (first run: nothing to compare) — the
//!     CI bench-regression gate.
//! ```
//!
//! # Exit codes
//!
//! Scripted callers (CI smoke steps) can tell misuse from data problems:
//!
//! * `0` — success,
//! * `1` — **data error**: the store failed to load/save/verify (corrupt or
//!   version-mismatched documents, I/O failures, non-metric distances),
//! * `2` — **usage error**: unknown subcommand, missing argument or an
//!   unparsable numeric argument; the usage string is printed to stderr.
//!
//! Every load goes through [`WorkflowStore::load_from_dir`], so corrupt or
//! hand-edited documents are reported with their file path instead of
//! crashing the tool.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use wfdiff_pdiffview::{DiffService, WorkflowStore};
use wfdiff_workloads::generator::{random_specification, SpecGenConfig};
use wfdiff_workloads::runs::{generate_run, RunGenConfig};

const USAGE: &str = "usage: store_tool export <dir> [specs] [runs-per-spec] [seed]\n\
                     \u{20}      store_tool import <src> <dst>\n\
                     \u{20}      store_tool verify <dir>\n\
                     \u{20}      store_tool wal <dir>\n\
                     \u{20}      store_tool checkpoint <dir>\n\
                     \u{20}      store_tool diff <dir> <spec> <run-a> <run-b>\n\
                     \u{20}      store_tool shard <src> <dst> <n>\n\
                     \u{20}      store_tool bench-compare <baseline.json> <current.json> [max-ratio]";

/// A failure, split by who caused it: the invocation or the data.
enum ToolError {
    /// Bad invocation: exits 2 with the usage string.
    Usage(String),
    /// The store (or the filesystem) is at fault: exits 1.
    Data(String),
}

impl From<String> for ToolError {
    fn from(message: String) -> Self {
        ToolError::Data(message)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("export") => export(&args[1..]),
        Some("import") => import(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("wal") => wal(&args[1..]),
        Some("checkpoint") => checkpoint(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("shard") => shard(&args[1..]),
        Some("bench-compare") => bench_compare(&args[1..]),
        Some(other) => Err(ToolError::Usage(format!("unknown subcommand {other:?}"))),
        None => Err(ToolError::Usage("no subcommand given".to_string())),
    };
    match result {
        Ok(()) => {}
        Err(ToolError::Usage(message)) => {
            eprintln!("store_tool: {message}\n{USAGE}");
            std::process::exit(2);
        }
        Err(ToolError::Data(message)) => {
            eprintln!("store_tool: {message}");
            std::process::exit(1);
        }
    }
}

fn arg<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, ToolError> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| ToolError::Usage(format!("missing argument: {what}")))
}

/// Parses an optional numeric argument; an argument that is present but
/// unparsable is a usage error, not a silent fallback to the default.
fn parse_or<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    what: &str,
    default: T,
) -> Result<T, ToolError> {
    match args.get(i) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| ToolError::Usage(format!("argument {what} is not a number: {raw:?}"))),
    }
}

/// Builds a seeded synthetic store and saves it.
fn export(args: &[String]) -> Result<(), ToolError> {
    let dir = arg(args, 0, "target directory")?;
    let specs: usize = parse_or(args, 1, "specs", 2)?;
    let runs: usize = parse_or(args, 2, "runs-per-spec", 5)?;
    let seed: u64 = parse_or(args, 3, "seed", 0x5704E)?;

    let store = WorkflowStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for s in 0..specs {
        let spec = random_specification(
            &format!("spec{s:02}"),
            &SpecGenConfig { target_edges: 40, series_parallel_ratio: 1.0, forks: 2, loops: 1 },
            &mut rng,
        );
        let spec = store.insert_spec(spec).map_err(|e| e.to_string())?;
        let config = RunGenConfig { prob_p: 0.85, max_f: 3, prob_f: 0.6, max_l: 3, prob_l: 0.6 };
        for r in 0..runs {
            store
                .insert_run(&format!("run{r:03}"), generate_run(&spec, &config, &mut rng))
                .map_err(|e| e.to_string())?;
        }
    }
    let summary = store.save_to_dir(dir).map_err(|e| e.to_string())?;
    println!("exported {} spec(s), {} run(s) to {dir}", summary.specs, summary.runs);
    Ok(())
}

/// Loads a store (validated) and re-saves it elsewhere.
fn import(args: &[String]) -> Result<(), ToolError> {
    let src = arg(args, 0, "source directory")?;
    let dst = arg(args, 1, "target directory")?;
    let store = WorkflowStore::load_from_dir(src).map_err(|e| e.to_string())?;
    let summary = store.save_to_dir(dst).map_err(|e| e.to_string())?;
    println!(
        "imported {} spec(s), {} run(s) from {src} and re-saved to {dst}",
        summary.specs, summary.runs
    );
    Ok(())
}

/// Loads a store (or every shard of a sharded layout), warms a service
/// over it and differences every pair.  Sharded layouts additionally get
/// cross-shard checks: spec-slug disjointness and routing-hash placement.
fn verify(args: &[String]) -> Result<(), ToolError> {
    let dir = arg(args, 0, "store directory")?;
    let shards = wfdiff_pdiffview::serve::shard::detect_shard_dirs(dir);
    if shards.is_empty() {
        verify_one(std::path::Path::new(dir), "")?;
        println!("store at {dir} verifies clean");
        return Ok(());
    }
    let n = shards.len();
    let mut owner: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for (i, shard_dir) in shards.iter().enumerate() {
        let label = wfdiff_pdiffview::serve::shard::shard_dir_name(i);
        let specs = verify_one(shard_dir, &format!("{label}: "))?;
        for spec in specs {
            let routed = wfdiff_pdiffview::serve::shard::shard_of(&spec, n);
            if routed != i {
                return Err(ToolError::Data(format!(
                    "specification {spec:?} lives in {label} but the routing hash places it \
                     in shard {routed} of {n}"
                )));
            }
            if let Some(previous) = owner.insert(spec.clone(), i) {
                return Err(ToolError::Data(format!(
                    "specification {spec:?} appears in both shard {previous} and shard {i}"
                )));
            }
        }
    }
    println!("sharded store at {dir} verifies clean ({n} shard(s), {} spec(s))", owner.len());
    Ok(())
}

/// Verifies one store directory; returns its specification names.
fn verify_one(dir: &std::path::Path, prefix: &str) -> Result<Vec<String>, ToolError> {
    let store = Arc::new(WorkflowStore::load_from_dir(dir).map_err(|e| e.to_string())?);
    let names = store.spec_names();
    let service = DiffService::new(Arc::clone(&store));
    let report = service.warm_start().map_err(|e| e.to_string())?;
    println!("{prefix}loaded {} spec(s), {} run(s); cache warmed", report.specs, report.runs);
    for name in &names {
        let result = service.diff_all_pairs(name).map_err(|e| e.to_string())?;
        let n = result.runs.len();
        let mut max = 0.0f64;
        for (_, _, d) in result.pairs() {
            if !d.is_finite() || d < 0.0 {
                return Err(ToolError::Data(format!(
                    "specification {name:?}: non-metric distance {d}"
                )));
            }
            max = max.max(d);
        }
        println!(
            "{prefix}  {name}: {n} run(s), {} pair(s), max distance {max}",
            n * n.saturating_sub(1) / 2
        );
    }
    Ok(names)
}

/// The store directories a WAL/checkpoint subcommand operates on: the
/// shard subdirectories of a sharded layout, or the directory itself.
fn store_dirs(dir: &str) -> Vec<(String, std::path::PathBuf)> {
    let shards = wfdiff_pdiffview::serve::shard::detect_shard_dirs(dir);
    if shards.is_empty() {
        vec![(dir.to_string(), std::path::PathBuf::from(dir))]
    } else {
        shards
            .into_iter()
            .enumerate()
            .map(|(i, p)| (wfdiff_pdiffview::serve::shard::shard_dir_name(i), p))
            .collect()
    }
}

/// Prints WAL record counts, kinds and byte sizes, per shard.
fn wal(args: &[String]) -> Result<(), ToolError> {
    let dir = arg(args, 0, "store directory")?;
    for (label, path) in store_dirs(dir) {
        if !path.join("manifest.json").exists() {
            return Err(ToolError::Data(format!("{label}: not a store directory")));
        }
        let summary = wfdiff_pdiffview::wal::inspect(&path).map_err(|e| e.to_string())?;
        println!(
            "{label}: {} record(s) ({} insert(s), {} removal(s), {} cluster delta(s), \
             {} stream event(s)), {} byte(s), {} torn byte(s)",
            summary.records,
            summary.run_inserts,
            summary.run_removes,
            summary.cluster_deltas,
            summary.stream_events,
            summary.bytes,
            summary.torn_bytes
        );
    }
    Ok(())
}

/// Forces a checkpoint fold: load (replaying the WAL), save (folding it
/// into the manifest), truncate the log.
fn checkpoint(args: &[String]) -> Result<(), ToolError> {
    let dir = arg(args, 0, "store directory")?;
    for (label, path) in store_dirs(dir) {
        let before = wfdiff_pdiffview::wal::inspect(&path).map_err(|e| e.to_string())?;
        let store = WorkflowStore::load_from_dir(&path).map_err(|e| e.to_string())?;
        let summary = store.save_to_dir(&path).map_err(|e| e.to_string())?;
        println!(
            "{label}: folded {} WAL record(s) into {} spec(s), {} run(s)",
            before.records, summary.specs, summary.runs
        );
    }
    Ok(())
}

/// Loads a store and prints one pair's distance, JSON-formatted.
fn diff(args: &[String]) -> Result<(), ToolError> {
    let dir = arg(args, 0, "store directory")?;
    let spec = arg(args, 1, "specification name")?;
    let a = arg(args, 2, "first run name")?;
    let b = arg(args, 3, "second run name")?;
    let store = Arc::new(WorkflowStore::load_from_dir(dir).map_err(|e| e.to_string())?);
    let service = DiffService::new(store);
    let pair = service.diff(spec, a, b).map_err(|e| e.to_string())?;
    // Render through the JSON serializer so the output is byte-identical to
    // the `distance` field a diff server returns for the same pair.
    println!(
        "{}",
        serde_json::to_string(&pair.distance).map_err(|e| ToolError::Data(e.to_string()))?
    );
    Ok(())
}

/// Collects every numeric leaf of a bench JSON document whose key mentions
/// `p50`, as `(dotted.path, value)` pairs — the latencies the regression
/// gate guards.
fn p50_leaves(value: &serde::Value, path: &str, out: &mut Vec<(String, f64)>) {
    match value {
        serde::Value::Map(entries) => {
            for (key, child) in entries {
                let child_path =
                    if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                p50_leaves(child, &child_path, out);
            }
        }
        serde::Value::Seq(items) => {
            for (i, child) in items.iter().enumerate() {
                p50_leaves(child, &format!("{path}[{i}]"), out);
            }
        }
        serde::Value::Int(v) => leaf(path, *v as f64, out),
        serde::Value::UInt(v) => leaf(path, *v as f64, out),
        serde::Value::Float(v) => leaf(path, *v, out),
        serde::Value::Null | serde::Value::Bool(_) | serde::Value::Str(_) => {}
    }
}

fn leaf(path: &str, value: f64, out: &mut Vec<(String, f64)>) {
    let key = path.rsplit('.').next().unwrap_or(path);
    if key.contains("p50") {
        out.push((path.to_string(), value));
    }
}

/// Compares the `p50` latencies of two bench JSON documents; any current
/// value above `max-ratio` times its baseline is a regression (exit 1).  A
/// missing baseline file is a clean pass — the first CI run has no previous
/// artifact to compare against.
fn bench_compare(args: &[String]) -> Result<(), ToolError> {
    let baseline_path = arg(args, 0, "baseline JSON file")?;
    let current_path = arg(args, 1, "current JSON file")?;
    let max_ratio: f64 = parse_or(args, 2, "max-ratio", 2.0)?;
    if !(max_ratio.is_finite() && max_ratio > 0.0) {
        return Err(ToolError::Usage(format!(
            "max-ratio must be a positive number, got {max_ratio}"
        )));
    }
    if !std::path::Path::new(baseline_path).exists() {
        println!("bench-compare: no baseline at {baseline_path}, nothing to compare");
        return Ok(());
    }
    let read = |path: &str| -> Result<serde::Value, ToolError> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| ToolError::Data(format!("{path}: {e}")))
    };
    let mut baseline = Vec::new();
    p50_leaves(&read(baseline_path)?, "", &mut baseline);
    let mut current = Vec::new();
    p50_leaves(&read(current_path)?, "", &mut current);
    let current: std::collections::BTreeMap<String, f64> = current.into_iter().collect();

    let mut compared = 0usize;
    let mut regressions = Vec::new();
    for (path, base) in &baseline {
        let Some(now) = current.get(path) else {
            continue; // the metric disappeared: schema evolution, not a regression
        };
        compared += 1;
        // Sub-microsecond baselines are noise-dominated; never gate on them.
        if *base <= 1e-6 {
            continue;
        }
        let ratio = now / base;
        if ratio > max_ratio {
            regressions.push(format!("  {path}: {base} -> {now} ({ratio:.2}x > {max_ratio}x)"));
        } else {
            println!("  {path}: {base} -> {now} ({ratio:.2}x, limit {max_ratio}x)");
        }
    }
    if !regressions.is_empty() {
        return Err(ToolError::Data(format!(
            "{} of {compared} p50 latenc(ies) regressed beyond {max_ratio}x:\n{}",
            regressions.len(),
            regressions.join("\n")
        )));
    }
    println!("bench-compare: {compared} p50 latenc(ies) within {max_ratio}x of {baseline_path}");
    Ok(())
}

/// Partitions a single-store directory into hash-routed shard directories.
fn shard(args: &[String]) -> Result<(), ToolError> {
    let src = arg(args, 0, "source directory")?;
    let dst = arg(args, 1, "target directory")?;
    let n: usize = match arg(args, 2, "shard count")?.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            return Err(ToolError::Usage(format!(
                "shard count must be a positive integer, got {:?}",
                args[2]
            )))
        }
    };
    let summaries = wfdiff_pdiffview::serve::shard::split_store_into_shards(src, dst, n)
        .map_err(|e| ToolError::Data(e.to_string()))?;
    for (i, summary) in summaries.iter().enumerate() {
        println!(
            "  {}: {} spec(s), {} run(s)",
            wfdiff_pdiffview::serve::shard::shard_dir_name(i),
            summary.specs,
            summary.runs
        );
    }
    println!(
        "sharded {src} into {n} shard(s) under {dst} ({} spec(s), {} run(s) total)",
        summaries.iter().map(|s| s.specs).sum::<usize>(),
        summaries.iter().map(|s| s.runs).sum::<usize>()
    );
    Ok(())
}
