//! Golden tests for the semantic pass (DESIGN.md §16): one firing and
//! one near-miss fixture per new family (G-taint, G-layer, L-lock),
//! pinning the exact `file:line:col rule` output, plus the anchored
//! path-scoping regression and the D scope over the real tree.

use bios_audit::graph::{dep_edges, layer_findings, CallGraph};
use bios_audit::{analyze_file, audit_source, Config, Rule};

/// A path no scoped rule family applies to, so only the semantic
/// rules can fire on the fixtures.
const TAINT_PATH: &str = "crates/faults/src/plan.rs";

fn taint_findings(path: &str, source: &str) -> Vec<String> {
    let config = Config::default();
    let facts = vec![analyze_file(path, source, &config)];
    let graph = CallGraph::build(&facts);
    let (findings, _) = graph.taint(&facts, &config);
    findings.iter().map(|f| f.render()).collect()
}

fn layer_findings_for(path: &str, source: &str) -> Vec<String> {
    let config = Config::default();
    let facts = vec![analyze_file(path, source, &config)];
    let edges = dep_edges(&[], &facts);
    layer_findings(&config, &edges)
        .iter()
        .map(|f| f.render())
        .collect()
}

#[test]
fn g_taint_fixture_fires_with_the_full_call_chain() {
    let rendered = taint_findings(TAINT_PATH, include_str!("fixtures/g_taint_firing.rs"));
    assert_eq!(rendered.len(), 1, "{rendered:?}");
    assert_eq!(
        rendered[0],
        "crates/faults/src/plan.rs:14:24 G-taint `Instant::now` is reachable from \
         determinism entry `faults::digest` via faults::digest → faults::fold → \
         faults::stamp — banned APIs must not feed digested bytes wherever they live"
    );
}

#[test]
fn g_taint_near_miss_is_clean() {
    let rendered = taint_findings(TAINT_PATH, include_str!("fixtures/g_taint_near_miss.rs"));
    assert!(rendered.is_empty(), "{rendered:?}");
}

#[test]
fn g_layer_fixture_fires_at_the_use_site() {
    let rendered = layer_findings_for(
        "crates/enzyme/src/lib.rs",
        include_str!("fixtures/g_layer_firing.rs"),
    );
    assert_eq!(rendered.len(), 1, "{rendered:?}");
    assert_eq!(
        rendered[0],
        "crates/enzyme/src/lib.rs:5:5 G-layer physics crate `enzyme` must not depend \
         on serving crate `runtime` — the physics layer stays deployable without the \
         serving stack"
    );
}

#[test]
fn g_layer_near_miss_is_clean() {
    let rendered = layer_findings_for(
        "crates/runtime/src/lib.rs",
        include_str!("fixtures/g_layer_near_miss.rs"),
    );
    assert!(rendered.is_empty(), "{rendered:?}");
}

#[test]
fn l_lock_fixture_fires_all_three_sites() {
    let outcome = audit_source(
        TAINT_PATH,
        include_str!("fixtures/l_lock_firing.rs"),
        &Config::default(),
    );
    let rendered: Vec<String> = outcome.findings.iter().map(|f| f.render()).collect();
    assert_eq!(rendered.len(), 3, "{rendered:?}");
    assert_eq!(
        rendered[0],
        "crates/faults/src/plan.rs:9:20 L-lock `.lock()` while MutexGuard `first` is \
         live in this block — release the guard (drop(first)) before blocking"
    );
    assert_eq!(
        rendered[1],
        "crates/faults/src/plan.rs:17:23 L-lock `.join()` while MutexGuard `held` is \
         live in this block — release the guard (drop(held)) before blocking"
    );
    assert_eq!(
        rendered[2],
        "crates/faults/src/plan.rs:26:16 L-send `tx.send(..)` after its paired \
         endpoint `rx` was dropped — the send can only fail"
    );
}

#[test]
fn l_lock_near_miss_is_clean() {
    let outcome = audit_source(
        TAINT_PATH,
        include_str!("fixtures/l_lock_near_miss.rs"),
        &Config::default(),
    );
    assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
}

#[test]
fn l_lock_waiver_flows_through_the_existing_machinery() {
    let src = "pub fn handoff(m: &std::sync::Mutex<std::sync::mpsc::Receiver<u32>>) -> u32 {\n\
               let guard = m.lock().unwrap_or_else(|e| e.into_inner());\n\
               // bios-audit: allow(L-lock) — handoff: the guard must span the recv\n\
               guard.recv().unwrap_or_default()\n\
               }\n";
    let outcome = audit_source(TAINT_PATH, src, &Config::default());
    assert!(outcome.findings.is_empty(), "{:?}", outcome.findings);
    assert_eq!(outcome.waivers.len(), 1);
    assert!(outcome.waivers[0].used);
}

#[test]
fn scope_matching_is_anchored_to_crates_relative_prefixes() {
    let config = Config::default();
    // The real digest-scope module matches…
    assert!(config.in_scope(Rule::DHash, "crates/shard/src/merge.rs"));
    assert!(config.in_scope(Rule::DHash, "crates/runtime/src/cache.rs"));
    // …but a path that merely *contains* the scope substring does not:
    // before anchoring, this fixture path matched `shard/src/merge`.
    assert!(!config.in_scope(Rule::DHash, "tests/shard/src/merge_fixture.rs"));
    assert!(!config.in_scope(Rule::FEq, "crates/bench/src/analytics/src/gen.rs"));
    // Entries without a `/` (digest, fingerprint) match file names only.
    assert!(config.in_scope(Rule::DTime, "crates/recover/src/digest.rs"));
    assert!(!config.in_scope(Rule::DTime, "crates/digestive/src/lib.rs"));
}

#[test]
fn digest_scope_covers_exactly_these_files() {
    // The D rules' reach over the real tree, file by file: a scope
    // entry that starts matching a new file, or stops matching one,
    // fails here instead of silently widening or narrowing the gate.
    let root = bios_audit::walk::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the audit crate lives inside the workspace");
    let config = Config::default();
    let in_scope: Vec<String> = bios_audit::walk::collect_sources(&root)
        .expect("the workspace sources are readable")
        .iter()
        .map(|file| bios_audit::walk::display_path(&root, file))
        .filter(|path| config.in_scope(Rule::DHash, path))
        .collect();
    assert_eq!(
        in_scope,
        [
            "crates/gateway/src/breaker.rs",
            "crates/gateway/src/bucket.rs",
            "crates/quorum/src/suspect.rs",
            "crates/quorum/src/vote.rs",
            "crates/recover/src/codec.rs",
            "crates/recover/src/journal.rs",
            "crates/recover/src/sim.rs",
            "crates/runtime/src/cache.rs",
            "crates/runtime/src/journal.rs",
            "crates/shard/src/merge.rs",
            "crates/shard/src/route.rs",
            "crates/shard/src/supervisor.rs",
            "crates/stream/src/cohort.rs",
            "crates/stream/src/engine.rs",
            "crates/stream/src/epoch.rs",
        ]
    );
}
