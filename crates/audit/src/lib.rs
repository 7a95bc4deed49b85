//! # bios-audit
//!
//! A zero-dependency, std-only static-analysis pass that proves the
//! workspace's determinism invariants at the source level (DESIGN.md
//! §11).
//!
//! The runtime's figures of merit are only reproducible because fleet
//! digests are byte-identical at any worker count, across
//! crash-resume, and under armed fault plans. Those invariants are
//! pinned by tests — but one stray `HashMap` iteration or wall-clock
//! read in a digest path silently breaks them long before a test
//! notices. This crate rejects such code at the source level:
//!
//! * **D — determinism** in digest/fingerprint/cache/journal modules,
//! * **F — float hygiene** in solver and analytics code,
//! * **U — API hygiene**: unit-naming docs in the physics crates,
//! * **G — graph rules** (DESIGN.md §16): transitive determinism
//!   taint over the approximate workspace call graph, and crate-layer
//!   proofs (physics never depends on serving; `prng`/`faults` stay
//!   leaf-reachable; no cycles),
//! * **L — lock & channel discipline**: no blocking call under a live
//!   `MutexGuard`, no send on an endpoint whose pair was dropped.
//!
//! The audit holds only rules the toolchain cannot express. Panic-
//! freedom, durability-module indexing and `unsafe` are clippy and
//! rustc lints declared once in the root `Cargo.toml`, and their
//! exceptions are `#[expect(<lint>, reason = "…")]` attributes.
//!
//! Findings print as `file:line:col rule message`; a JSON summary is
//! written to `AUDIT_report.json`; any finding makes the process exit
//! non-zero, which `scripts/check.sh` treats as a hard gate.
//!
//! Intentional exceptions carry an inline waiver with a mandatory
//! reason:
//!
//! ```text
//! // bios-audit: allow(D-hash) — membership test only, never iterated
//! ```
//!
//! The tool is itself subject to every rule it enforces.

#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;
pub mod workspace;

pub use cache::CacheStats;
pub use config::{Config, Rule};
pub use graph::{FileFacts, TaintChain};
pub use items::{parse_items, Item, ItemKind};
pub use rules::{analyze_file, audit_source, AuditOutcome, Finding, WaiverRecord};
pub use workspace::{audit_workspace, WorkspaceOutcome};
