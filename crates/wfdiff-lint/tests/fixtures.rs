//! Fixture-driven rule tests: every rule fires on a known-bad source with
//! the right rule ID and position, and stays quiet on known-good look-alikes
//! (test modules, raw strings, comments, exempt paths).

#![allow(clippy::unwrap_used)]

use wfdiff_lint::rules::SourceFile;
use wfdiff_lint::{check_sources, CheckConfig, Violation};

/// Parses `(rel_path, source)` pairs and checks them with no allowlist.
fn check(files: &[(&str, &str)]) -> Vec<Violation> {
    let parsed: Vec<SourceFile> =
        files.iter().map(|(path, src)| SourceFile::parse(*path, src)).collect();
    check_sources(&parsed, &[], &CheckConfig::default())
}

fn rules_of(vs: &[Violation]) -> Vec<&str> {
    vs.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------------------
// WFL001 — io-discipline
// ---------------------------------------------------------------------------

#[test]
fn wfl001_flags_direct_fs_calls_in_durability_modules() {
    let src = "use std::fs;\n\
               pub fn save(p: &std::path::Path) -> std::io::Result<()> {\n\
               \x20   fs::write(p, b\"x\")\n\
               }\n";
    let vs = check(&[("crates/x/src/wal.rs", src)]);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!((vs[0].rule, vs[0].line, vs[0].col), ("WFL001", 3, 5), "{vs:?}");
    assert!(vs[0].message.contains("fs::write"), "{}", vs[0].message);
}

#[test]
fn wfl001_flags_file_create_and_openoptions() {
    let src = "pub fn f() {\n\
               \x20   let _a = std::fs::File::create(\"a\");\n\
               \x20   let _b = std::fs::OpenOptions::new();\n\
               }\n";
    let vs = check(&[("crates/x/src/persist.rs", src)]);
    // `fs::File` is not itself a call, but `File::create` and
    // `OpenOptions::new` both are.
    assert_eq!(rules_of(&vs), vec!["WFL001", "WFL001"], "{vs:?}");
    assert!(vs[0].message.contains("File::create"), "{}", vs[0].message);
    assert!(vs[1].message.contains("OpenOptions::new"), "{}", vs[1].message);
}

#[test]
fn wfl001_exempts_storeio_and_non_durability_modules() {
    let src = "pub fn f() { let _ = std::fs::File::create(\"a\"); }\n";
    assert!(check(&[("crates/x/src/storeio.rs", src)]).is_empty());
    assert!(check(&[("crates/x/src/render.rs", src)]).is_empty());
}

#[test]
fn wfl001_ignores_test_regions() {
    let src = "#[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { std::fs::write(\"a\", b\"x\").unwrap(); }\n\
               }\n";
    assert!(check(&[("crates/x/src/wal.rs", src)]).is_empty());
}

// ---------------------------------------------------------------------------
// WFL002 — lock-order
// ---------------------------------------------------------------------------

#[test]
fn wfl002_flags_specs_acquired_under_runs() {
    let src = "impl S {\n\
               \x20   fn bad(&self) {\n\
               \x20       let r = self.runs.read();\n\
               \x20       let s = self.specs.read();\n\
               \x20       drop((r, s));\n\
               \x20   }\n\
               }\n";
    let vs = check(&[("crates/wfdiff-pdiffview/src/store.rs", src)]);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!((vs[0].rule, vs[0].line), ("WFL002", 4), "{vs:?}");
    assert!(vs[0].message.contains("`specs`") && vs[0].message.contains("`runs`"));
}

#[test]
fn wfl002_flags_a_checkpoint_started_under_the_save_lock() {
    let src = "impl S {\n\
               \x20   fn bad(&self) {\n\
               \x20       let _g = self.save_lock.lock();\n\
               \x20       let _c = self.checkpoint_lock.lock();\n\
               \x20   }\n\
               }\n";
    let vs = check(&[("crates/wfdiff-pdiffview/src/cluster/persist.rs", src)]);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!((vs[0].rule, vs[0].line), ("WFL002", 4), "{vs:?}");
    assert!(vs[0].message.contains("`checkpoint_lock`"), "{vs:?}");
}

#[test]
fn wfl002_accepts_ordered_and_sequentially_relocked_acquisition() {
    let src = "impl S {\n\
               \x20   fn good(&self) {\n\
               \x20       let _k = self.checkpoint_lock.lock();\n\
               \x20       let _g = self.save_lock.lock();\n\
               \x20       { let _s = self.specs.write(); }\n\
               \x20       { let _r = self.runs.read(); }\n\
               \x20       { let _r = self.runs.read(); }\n\
               \x20       let _c = self.persist_fp_cache.lock();\n\
               \x20   }\n\
               }\n";
    assert!(check(&[("crates/wfdiff-pdiffview/src/store.rs", src)]).is_empty());
}

#[test]
fn wfl002_resets_at_function_boundaries_and_skips_other_crates() {
    let per_fn = "impl S {\n\
                  \x20   fn a(&self) { let _r = self.runs.read(); }\n\
                  \x20   fn b(&self) { let _s = self.specs.read(); }\n\
                  }\n";
    assert!(check(&[("crates/wfdiff-pdiffview/src/service.rs", per_fn)]).is_empty());
    let inverted = "fn f(s: &S) { let _r = s.runs.read(); let _x = s.specs.read(); }\n";
    assert!(check(&[("crates/wfdiff-core/src/lib.rs", inverted)]).is_empty());
}

// ---------------------------------------------------------------------------
// WFL003 — panic-freedom
// ---------------------------------------------------------------------------

#[test]
fn wfl003_flags_unwrap_expect_and_panic_macros() {
    let src = "pub fn f(o: Option<u8>) -> u8 {\n\
               \x20   let v = o.unwrap();\n\
               \x20   let w = o.expect(\"present\");\n\
               \x20   if v != w { panic!(\"mismatch\"); }\n\
               \x20   todo!()\n\
               }\n";
    let vs = check(&[("crates/x/src/lib.rs", src)]);
    assert_eq!(rules_of(&vs), vec!["WFL003"; 4], "{vs:?}");
    assert_eq!((vs[0].line, vs[0].col), (2, 15), "unwrap position: {vs:?}");
}

#[test]
fn wfl003_ignores_test_regions_raw_strings_and_comments() {
    let src = "//! Docs mentioning .unwrap() are fine.\n\
               pub fn f() -> &'static str {\n\
               \x20   // a comment saying panic!(\"no\") is fine\n\
               \x20   r\"call .unwrap() and .expect(there) here\"\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { Some(1).unwrap(); panic!(\"in a test\"); }\n\
               }\n";
    assert!(check(&[("crates/x/src/lib.rs", src)]).is_empty());
}

#[test]
fn wfl003_exempts_binaries_and_the_bench_crate() {
    let src = "fn main() { std::env::args().next().unwrap(); }\n";
    assert!(check(&[("crates/x/src/bin/tool.rs", src)]).is_empty());
    assert!(check(&[("crates/wfdiff-bench/src/lib.rs", src)]).is_empty());
}

// ---------------------------------------------------------------------------
// WFL004 — metrics-naming
// ---------------------------------------------------------------------------

#[test]
fn wfl004_flags_bad_prefix_missing_suffix_and_duplicates() {
    let src = "pub fn render(out: &mut String) {\n\
               \x20   head(out, \"shard_requests_total\", \"counter\", \"h\");\n\
               \x20   counter_head_sample(out, \"wfdiff_requests\", \"h\", 1);\n\
               \x20   gauge_head_sample(out, \"wfdiff_up\", \"h\", 1);\n\
               \x20   gauge_head_sample(out, \"wfdiff_up\", \"h\", 1);\n\
               }\n";
    let vs = check(&[("crates/x/src/serve/metrics.rs", src)]);
    let msgs: Vec<&str> = vs.iter().map(|v| v.message.as_str()).collect();
    assert_eq!(rules_of(&vs), vec!["WFL004"; 3], "{vs:?}");
    assert!(msgs.iter().any(|m| m.contains("does not match wfdiff_")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("must end with `_total`")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("registered more than once")), "{msgs:?}");
}

#[test]
fn wfl004_accepts_a_compliant_registry_and_skips_non_serve_files() {
    let good = "pub fn render(out: &mut String) {\n\
                \x20   counter_head_sample(out, \"wfdiff_requests_total\", \"h\", 1);\n\
                \x20   gauge_head_sample(out, \"wfdiff_shard_count\", \"h\", 1);\n\
                \x20   head(out, \"wfdiff_latency_seconds\", \"histogram\", \"h\");\n\
                }\n";
    assert!(check(&[("crates/x/src/serve/metrics.rs", good)]).is_empty());
    let bad_elsewhere = "pub fn f(out: &mut String) { head(out, \"oops\", \"counter\", \"h\"); }\n";
    assert!(check(&[("crates/x/src/render.rs", bad_elsewhere)]).is_empty());
}

#[test]
fn wfl004_covers_the_similar_query_counters() {
    // The metric-index counters ship under these exact names; keep the rule
    // accepting them and still firing on the obvious near-misses (a dropped
    // `_total`, a second registration).
    let good = "pub fn render(out: &mut String) {\n\
                \x20   counter_head_sample(out, \"wfdiff_similar_pruned_total\", \"h\", 1);\n\
                \x20   counter_head_sample(out, \"wfdiff_similar_distance_evals_total\", \"h\", 1);\n\
                }\n";
    assert!(check(&[("crates/x/src/serve/metrics.rs", good)]).is_empty());

    let bad = "pub fn render(out: &mut String) {\n\
               \x20   counter_head_sample(out, \"wfdiff_similar_distance_evals\", \"h\", 1);\n\
               \x20   counter_head_sample(out, \"wfdiff_similar_pruned_total\", \"h\", 1);\n\
               \x20   counter_head_sample(out, \"wfdiff_similar_pruned_total\", \"h\", 1);\n\
               }\n";
    let vs = check(&[("crates/x/src/serve/metrics.rs", bad)]);
    assert_eq!(rules_of(&vs), vec!["WFL004"; 2], "{vs:?}");
    assert!(vs[0].message.contains("must end with `_total`"), "{}", vs[0].message);
    assert!(vs[1].message.contains("registered more than once"), "{}", vs[1].message);
}

#[test]
fn wfl004_covers_the_streaming_counters() {
    // The streaming-ingestion counters ship under these exact names; keep
    // the rule accepting them and still firing on the obvious near-misses
    // (a dropped `_total`, a second registration).
    let good = "pub fn render(out: &mut String) {\n\
                \x20   counter_head_sample(out, \"wfdiff_stream_events_total\", \"h\", 1);\n\
                \x20   counter_head_sample(out, \"wfdiff_drift_flags_total\", \"h\", 1);\n\
                }\n";
    assert!(check(&[("crates/x/src/serve/metrics.rs", good)]).is_empty());

    let bad = "pub fn render(out: &mut String) {\n\
               \x20   counter_head_sample(out, \"wfdiff_drift_flags\", \"h\", 1);\n\
               \x20   counter_head_sample(out, \"wfdiff_stream_events_total\", \"h\", 1);\n\
               \x20   counter_head_sample(out, \"wfdiff_stream_events_total\", \"h\", 1);\n\
               }\n";
    let vs = check(&[("crates/x/src/serve/metrics.rs", bad)]);
    assert_eq!(rules_of(&vs), vec!["WFL004"; 2], "{vs:?}");
    assert!(vs[0].message.contains("must end with `_total`"), "{}", vs[0].message);
    assert!(vs[1].message.contains("registered more than once"), "{}", vs[1].message);
}

// ---------------------------------------------------------------------------
// WFL005 — error-status exhaustiveness
// ---------------------------------------------------------------------------

#[test]
fn wfl005_flags_a_variant_missing_from_the_status_map() {
    let decl = "pub enum ServiceError { UnknownSpec, Diff(String) }\n";
    let api = "fn status(e: ServiceError) -> u16 {\n\
               \x20   match e { ServiceError::UnknownSpec => 404, _ => 500 }\n\
               }\n";
    let vs = check(&[("crates/x/src/service.rs", decl), ("crates/x/src/serve/api.rs", api)]);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].rule, "WFL005");
    assert_eq!(vs[0].file, "crates/x/src/serve/api.rs");
    assert!(vs[0].message.contains("ServiceError::Diff"), "{}", vs[0].message);
}

#[test]
fn wfl005_accepts_an_exhaustive_map_and_skips_fixture_sets_without_api() {
    let decl = "pub enum StoreError { MissingSpec, DuplicateRun }\n";
    let api = "fn status(e: StoreError) -> u16 {\n\
               \x20   match e {\n\
               \x20       StoreError::MissingSpec => 404,\n\
               \x20       StoreError::DuplicateRun => 409,\n\
               \x20   }\n\
               }\n";
    let with_api = check(&[("crates/x/src/store.rs", decl), ("crates/x/src/serve/api.rs", api)]);
    assert!(with_api.is_empty(), "{with_api:?}");
    assert!(check(&[("crates/x/src/store.rs", decl)]).is_empty(), "no api.rs, nothing to check");
}

#[test]
fn wfl005_covers_the_streaming_error_variants() {
    // The streaming additions to ServiceError (batch rejection, unknown
    // stream, optimistic-concurrency race) must stay in the status map: a
    // map written before they existed misses them and the rule fires once
    // per dropped variant.
    let decl = "pub enum ServiceError {\n\
                \x20   UnknownSpec(String),\n\
                \x20   Stream(StreamError),\n\
                \x20   UnknownStream { spec: String, stream: String },\n\
                \x20   StreamRace { spec: String, stream: String },\n\
                }\n";
    let stale = "fn status(e: ServiceError) -> u16 {\n\
                 \x20   match e {\n\
                 \x20       ServiceError::UnknownSpec(_) => 404,\n\
                 \x20       ServiceError::Stream(_) => 400,\n\
                 \x20       _ => 500,\n\
                 \x20   }\n\
                 }\n";
    let vs = check(&[("crates/x/src/service.rs", decl), ("crates/x/src/serve/api.rs", stale)]);
    assert_eq!(rules_of(&vs), vec!["WFL005"; 2], "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("ServiceError::UnknownStream")), "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("ServiceError::StreamRace")), "{vs:?}");

    let exhaustive = "fn status(e: ServiceError) -> u16 {\n\
                      \x20   match e {\n\
                      \x20       ServiceError::UnknownSpec(_) => 404,\n\
                      \x20       ServiceError::Stream(e) => if e.is_conflict() { 409 } else { 400 },\n\
                      \x20       ServiceError::UnknownStream { .. } => 404,\n\
                      \x20       ServiceError::StreamRace { .. } => 409,\n\
                      \x20   }\n\
                      }\n";
    let clean =
        check(&[("crates/x/src/service.rs", decl), ("crates/x/src/serve/api.rs", exhaustive)]);
    assert!(clean.is_empty(), "{clean:?}");
}
