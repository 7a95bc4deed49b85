//! The machine-readable summary: `AUDIT_report.json`.
//!
//! Hand-rolled JSON in the same discipline as `BENCH_runtime.json`
//! (no serde in the offline workspace): line-stable output and a
//! `schema_version` field so future PRs can track finding/waiver
//! counts over time. Schema 2 adds the semantic-pass fields:
//! per-family counts, the G-taint call chains, the facts-cache
//! counters, and `elapsed_ms`. Schema 3 drops the `P` family and
//! `U-unsafe`, which clippy and rustc now enforce, from
//! `findings_by_family` and `findings_by_rule`. The elapsed time is
//! the report's *only* impure field — everything else is a pure
//! function of the tree, so `scripts/check.sh` can grep the schema and
//! counts stably while the timing stays observable.

use crate::cache::CacheStats;
use crate::config::Rule;
use crate::graph::TaintChain;
use crate::rules::{Finding, WaiverRecord};
use std::collections::BTreeMap;

/// Bump when the report shape changes. `scripts/check.sh` refuses
/// reports with a schema it does not know.
pub const SCHEMA_VERSION: u32 = 3;

/// Everything the report renders, gathered by the caller.
#[derive(Debug, Default)]
pub struct ReportInput<'a> {
    /// Number of `.rs` files audited.
    pub files_scanned: usize,
    /// Findings surviving waiver application.
    pub findings: &'a [Finding],
    /// Every waiver encountered.
    pub waivers: &'a [WaiverRecord],
    /// Call chains backing the G-taint findings.
    pub chains: &'a [TaintChain],
    /// Facts-cache counters for this run.
    pub cache: CacheStats,
    /// Wall-clock duration of the run in milliseconds.
    pub elapsed_ms: u128,
}

/// Render the full report as a JSON string.
pub fn render_json(input: &ReportInput<'_>) -> String {
    let ReportInput {
        files_scanned,
        findings,
        waivers,
        chains,
        cache,
        elapsed_ms,
    } = input;
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for rule in Rule::ALL {
        by_rule.insert(rule.id(), 0);
    }
    let mut by_family: BTreeMap<&str, usize> = BTreeMap::new();
    for family in ["D", "F", "U", "G", "L", "W"] {
        by_family.insert(family, 0);
    }
    for f in findings.iter() {
        *by_rule.entry(f.rule.id()).or_insert(0) += 1;
        *by_family.entry(f.rule.family()).or_insert(0) += 1;
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str("  \"tool\": \"bios-audit\",\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"elapsed_ms\": {elapsed_ms},\n"));
    out.push_str(&format!("  \"finding_count\": {},\n", findings.len()));
    out.push_str(&format!("  \"waiver_count\": {},\n", waivers.len()));
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3}}},\n",
        cache.hits,
        cache.misses,
        cache.hit_rate()
    ));

    out.push_str("  \"findings_by_family\": {");
    let mut first = true;
    for (family, count) in &by_family {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{family}\": {count}"));
    }
    out.push_str("},\n");

    out.push_str("  \"findings_by_rule\": {");
    let mut first = true;
    for (rule, count) in &by_rule {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{rule}\": {count}"));
    }
    out.push_str("},\n");

    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 < findings.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
             \"message\": \"{}\"}}{}\n",
            escape(&f.path),
            f.line,
            f.col,
            f.rule.id(),
            escape(&f.message),
            comma
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"taint_chains\": [\n");
    for (i, c) in chains.iter().enumerate() {
        let comma = if i + 1 < chains.len() { "," } else { "" };
        let chain = c
            .chain
            .iter()
            .map(|q| format!("\"{}\"", escape(q)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"api\": \"{}\", \
             \"chain\": [{}]}}{}\n",
            escape(&c.file),
            c.line,
            c.col,
            escape(&c.api),
            chain,
            comma
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"waivers\": [\n");
    for (i, w) in waivers.iter().enumerate() {
        let comma = if i + 1 < waivers.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"used\": {}, \
             \"reason\": \"{}\"}}{}\n",
            escape(&w.path),
            w.line,
            escape(&w.rule),
            w.used,
            escape(&w.reason),
            comma
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Minimal JSON string escaping: backslash, quote, and control chars.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_valid_shape_and_stable() {
        let findings = vec![Finding {
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            rule: Rule::FEq,
            message: "`==` with \"quotes\"".into(),
        }];
        let waivers = vec![WaiverRecord {
            path: "crates/x/src/lib.rs".into(),
            line: 9,
            rule: "D-hash".into(),
            reason: "membership only".into(),
            used: true,
        }];
        let chains = vec![TaintChain {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            api: "Instant::now".into(),
            chain: vec!["x::digest".into(), "x::helper".into()],
        }];
        let input = ReportInput {
            files_scanned: 5,
            findings: &findings,
            waivers: &waivers,
            chains: &chains,
            cache: CacheStats { hits: 4, misses: 1 },
            elapsed_ms: 12,
        };
        let a = render_json(&input);
        let b = render_json(&input);
        assert_eq!(a, b, "report must be a pure function of its inputs");
        assert!(a.contains("\"schema_version\": 3"));
        assert!(a.contains("\"elapsed_ms\": 12"));
        assert!(a.contains("\\\"quotes\\\""));
        assert!(a.contains("\"F-eq\": 1"));
        assert!(a.contains(
            "\"findings_by_family\": {\"D\": 0, \"F\": 1, \"G\": 0, \"L\": 0, \"U\": 0, \"W\": 0}"
        ));
        assert!(a.contains("\"hit_rate\": 0.800"));
        assert!(a.contains("\"chain\": [\"x::digest\", \"x::helper\"]"));
        assert!(a.ends_with("}\n"));
    }
}
