//! Self-tests of the benchmark's correctness gate: clean runs pass, and
//! each injected fault makes the gate fail.

use perfbench::common::{Ctx, Hooks};
use perfbench::faults::{DroppingIo, PerturbingCache};
use perfbench::{ingest, interactive, matrix, Outcome};
use std::path::PathBuf;
use std::sync::Arc;

fn ctx(tag: &str, hooks: Hooks) -> Ctx {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("gate-{tag}"));
    let _ = std::fs::remove_dir_all(&work);
    Ctx { seed: 7, seconds: 2.0, threads: 2, work, tracer: None, hooks }
}

fn perturbed() -> Hooks {
    Hooks { cache: Some(Arc::new(PerturbingCache::default())), io: None }
}

fn dropping() -> Hooks {
    Hooks { cache: None, io: Some(Arc::new(DroppingIo::default())) }
}

fn assert_clean(name: &str, out: &Outcome) {
    assert_eq!(out.mismatches, 0, "{name}: {:?}", out.mismatch_notes);
    assert_eq!(out.failed, 0, "{name}: failed operations");
    assert!(out.attempted > 0, "{name}: nothing attempted");
}

#[test]
fn clean_runs_pass_the_gate() {
    let c = ctx("clean-interactive", Hooks::default());
    assert_clean("interactive", &interactive::run(&c, &interactive::Sizes::small()));
    let c = ctx("clean-matrix", Hooks::default());
    assert_clean("matrix", &matrix::run(&c, &matrix::Sizes::small()));
    let c = ctx("clean-ingest", Hooks::default());
    assert_clean("ingest", &ingest::run(&c, &ingest::Sizes::small()));
}

#[test]
fn a_perturbed_pair_cost_fails_matrix() {
    let out = matrix::run(&ctx("perturbed-matrix", perturbed()), &matrix::Sizes::small());
    assert!(out.mismatches > 0, "the gate missed a perturbed cached pair cost");
}

#[test]
fn a_perturbed_pair_cost_fails_interactive() {
    let out =
        interactive::run(&ctx("perturbed-interactive", perturbed()), &interactive::Sizes::small());
    assert!(out.mismatches > 0, "the gate missed a perturbed cached pair cost");
}

#[test]
fn a_dropped_wal_append_fails_ingest_recovery() {
    let out = ingest::run(&ctx("dropped-ingest", dropping()), &ingest::Sizes::small());
    assert!(
        out.mismatch_notes.iter().any(|n| n.contains("lost in recovery")),
        "the gate missed an acknowledged run the log never got: {:?}",
        out.mismatch_notes
    );
}
