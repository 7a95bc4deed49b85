//! Golden-file tests: one firing and one near-miss fixture per rule
//! family, plus the waiver semantics (suppresses exactly one finding;
//! unused or reasonless waivers are themselves findings). The
//! `p_*` fixtures belong to the toolchain lints and are checked by
//! the clippy fixture gate in `scripts/check.sh`, not here.

use bios_audit::{audit_source, Config, Rule};

/// A path inside the digest scope, so the D rules apply.
const DIGEST_PATH: &str = "crates/runtime/src/cache.rs";
/// A path inside the float scope.
const FLOAT_PATH: &str = "crates/analytics/src/fixture.rs";
/// A path inside the doc scope (also float-scoped, like the real crate).
const DOC_PATH: &str = "crates/electrochem/src/fixture.rs";
/// A path no scoped rule family applies to.
const UNSCOPED_PATH: &str = "crates/faults/src/plan.rs";

fn rule_ids(path: &str, source: &str) -> Vec<&'static str> {
    let outcome = audit_source(path, source, &Config::default());
    outcome.findings.iter().map(|f| f.rule.id()).collect()
}

fn count(ids: &[&str], id: &str) -> usize {
    ids.iter().filter(|r| **r == id).count()
}

#[test]
fn d_fixture_fires_all_three_determinism_rules() {
    let ids = rule_ids(DIGEST_PATH, include_str!("fixtures/d_firing.rs"));
    // Two type ascriptions + two constructor calls per collection.
    assert!(count(&ids, "D-hash") >= 2, "{ids:?}");
    assert_eq!(count(&ids, "D-time"), 2, "{ids:?}");
    assert_eq!(count(&ids, "D-thread"), 1, "{ids:?}");
}

#[test]
fn d_rules_are_path_scoped() {
    // The identical source outside the digest scope: D rules are
    // silent.
    let ids = rule_ids(UNSCOPED_PATH, include_str!("fixtures/d_firing.rs"));
    assert_eq!(count(&ids, "D-hash"), 0, "{ids:?}");
    assert_eq!(count(&ids, "D-time"), 0, "{ids:?}");
    assert_eq!(count(&ids, "D-thread"), 0, "{ids:?}");
}

#[test]
fn d_near_miss_is_clean() {
    let ids = rule_ids(DIGEST_PATH, include_str!("fixtures/d_near_miss.rs"));
    assert!(ids.is_empty(), "{ids:?}");
}

#[test]
fn f_fixture_fires_equality_and_narrowing() {
    let ids = rule_ids(FLOAT_PATH, include_str!("fixtures/f_firing.rs"));
    assert_eq!(count(&ids, "F-eq"), 2, "{ids:?}");
    assert_eq!(count(&ids, "F-narrow"), 3, "{ids:?}");
}

#[test]
fn f_rules_are_path_scoped() {
    let ids = rule_ids(UNSCOPED_PATH, include_str!("fixtures/f_firing.rs"));
    assert!(ids.is_empty(), "{ids:?}");
}

#[test]
fn f_near_miss_is_clean() {
    let ids = rule_ids(FLOAT_PATH, include_str!("fixtures/f_near_miss.rs"));
    assert!(ids.is_empty(), "{ids:?}");
}

#[test]
fn u_fixture_fires_the_doc_rule() {
    let ids = rule_ids(DOC_PATH, include_str!("fixtures/u_firing.rs"));
    assert_eq!(count(&ids, "U-doc"), 2, "{ids:?}");
}

#[test]
fn u_doc_is_path_scoped() {
    let ids = rule_ids(UNSCOPED_PATH, include_str!("fixtures/u_firing.rs"));
    assert_eq!(count(&ids, "U-doc"), 0, "{ids:?}");
}

#[test]
fn u_near_miss_is_clean() {
    let ids = rule_ids(DOC_PATH, include_str!("fixtures/u_near_miss.rs"));
    assert!(ids.is_empty(), "{ids:?}");
}

#[test]
fn waiver_suppresses_exactly_one_finding() {
    let outcome = audit_source(
        DIGEST_PATH,
        include_str!("fixtures/waivers.rs"),
        &Config::default(),
    );
    // The waived `HashSet` is silent; the second one still fires.
    let hashes: Vec<_> = outcome
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DHash)
        .collect();
    assert_eq!(hashes.len(), 1, "{:?}", outcome.findings);
    assert_eq!(hashes[0].line, 9, "{:?}", hashes[0]);
    // The used waiver is recorded as used; the decoy F-eq one is not,
    // and surfaces as a W-waiver finding.
    let used: Vec<_> = outcome.waivers.iter().filter(|w| w.used).collect();
    assert_eq!(used.len(), 1, "{:?}", outcome.waivers);
    assert_eq!(used[0].rule, "D-hash");
    assert_eq!(
        outcome
            .findings
            .iter()
            .filter(|f| f.rule == Rule::WWaiver)
            .count(),
        1,
        "{:?}",
        outcome.findings
    );
}

#[test]
fn waiver_without_reason_is_reported() {
    let source = "// bios-audit: allow(D-hash)\nfn f() -> usize { HashSet::<u8>::new().len() }\n";
    let outcome = audit_source(DIGEST_PATH, source, &Config::default());
    assert!(
        outcome.findings.iter().any(|f| f.rule == Rule::WWaiver),
        "{:?}",
        outcome.findings
    );
}

#[test]
fn family_letter_waives_any_rule_in_the_family() {
    let source =
        "// bios-audit: allow(D) — family-wide waiver\nfn f() -> usize { HashSet::<u8>::new().len() }\n";
    let outcome = audit_source(DIGEST_PATH, source, &Config::default());
    assert!(
        outcome.findings.iter().all(|f| f.rule != Rule::DHash),
        "{:?}",
        outcome.findings
    );
}
