//! `wfdiff-lint`: the workspace invariant checker.
//!
//! The wfdiff workspace carries load-bearing invariants that ordinary tests
//! cannot see: crash-torture coverage is only honest if every durability
//! write routes through `StoreIo`; the store's lock discipline only holds if
//! no future refactor reorders an acquisition; the serving tier's panic
//! budget is zero.  This crate turns those prose invariants into machine
//! checks with stable rule IDs:
//!
//! | rule | name | enforces |
//! |------|------|----------|
//! | `WFL000` | allowlist-hygiene | `lint_allow.toml` entries must still match a site |
//! | `WFL001` | io-discipline | no direct `std::fs` in durability-critical modules |
//! | `WFL002` | lock-order | `checkpoint_lock` → `save_lock` → `specs` → `runs` → `persist_fp_cache` |
//! | `WFL003` | panic-freedom | no `unwrap`/`expect`/`panic!` in non-test library code |
//! | `WFL004` | metrics-naming | `wfdiff_`-prefixed, kind-suffixed, registered once |
//! | `WFL005` | error-status-exhaustiveness | every error variant in the status map |
//!
//! The crate is deliberately dependency-free (no `syn`, no registry access):
//! a hand-rolled lexer ([`lexer`]) tokenizes Rust precisely enough that
//! strings, comments and `#[cfg(test)]` regions cannot fool a rule, and the
//! engine ([`engine`]) walks `crates/*/src/**/*.rs`, applies the rules
//! ([`rules`]) and subtracts the justified allowlist ([`allowlist`]).
//!
//! Run it as `cargo run -p wfdiff-lint --release -- check`; see the README
//! for the CLI and the `lint_allow.toml` format.
//!
//! # Example
//!
//! ```
//! use wfdiff_lint::engine::{check_sources, CheckConfig};
//! use wfdiff_lint::rules::SourceFile;
//!
//! let file = SourceFile::parse(
//!     "crates/x/src/lib.rs",
//!     "pub fn f(o: Option<u8>) -> u8 { o.unwrap() }",
//! );
//! let violations = check_sources(&[file], &[], &CheckConfig::default());
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rule, "WFL003");
//! assert_eq!((violations[0].line, violations[0].col), (1, 35));
//! ```

#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod allowlist;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use allowlist::{parse_allowlist, AllowEntry};
pub use engine::{check_sources, check_workspace, CheckConfig};
pub use report::{render_human, render_json, Violation};
pub use rules::{rule_info, SourceFile, RULES};
