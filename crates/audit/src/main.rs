//! The `bios-audit` command-line gate.
//!
//! ```text
//! cargo run -q -p bios-audit                  # audit the workspace
//! cargo run -q -p bios-audit -- --json out.json --root /path/to/repo
//! cargo run -q -p bios-audit -- file.rs …     # audit specific files
//! cargo run -q -p bios-audit -- --explain G-taint
//! cargo run -q -p bios-audit -- --no-cache    # cold semantic pass
//! ```
//!
//! Whole-workspace runs include the semantic pass (G-taint layering,
//! call-graph taint, L-family discipline) with the per-file facts
//! cache under `target/`; explicit-file runs stay single-file (the
//! cross-file rules need the whole tree).
//!
//! Exit status: 0 when the tree is clean (waivers are fine), 1 when
//! any finding survives, 2 on usage or I/O errors.

#![allow(
    clippy::print_stdout,
    reason = "CLI output is the product of this binary"
)]

use bios_audit::{audit_source, config::Config, report, walk, Rule};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bios-audit: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<usize, String> {
    let mut json_path: Option<PathBuf> = None;
    let mut root_arg: Option<PathBuf> = None;
    let mut explicit_files: Vec<PathBuf> = Vec::new();
    let mut use_cache = true;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let v = args.next().ok_or("--json needs a path")?;
                json_path = Some(PathBuf::from(v));
            }
            "--root" => {
                let v = args.next().ok_or("--root needs a path")?;
                root_arg = Some(PathBuf::from(v));
            }
            "--explain" => {
                let id = args.next().ok_or("--explain needs a rule id")?;
                let rule = Rule::from_id(&id).ok_or_else(|| {
                    let known = Rule::ALL
                        .iter()
                        .map(|r| r.id())
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!("unknown rule id `{id}` (known: {known}, W-waiver)")
                })?;
                println!("{}", rule.explain());
                return Ok(0);
            }
            "--no-cache" => use_cache = false,
            "--cache" => use_cache = true,
            "--help" | "-h" => {
                println!(
                    "bios-audit — workspace static-analysis gate\n\
                     usage: bios-audit [--root DIR] [--json FILE] [--no-cache] [FILES…]\n\
                     \x20      bios-audit --explain <rule-id>"
                );
                return Ok(0);
            }
            _ if arg.starts_with('-') => return Err(format!("unknown flag {arg}")),
            _ => explicit_files.push(PathBuf::from(arg)),
        }
    }

    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = match root_arg {
        Some(r) => r,
        None => walk::find_root(&cwd).ok_or("cannot locate workspace root (no Cargo.toml)")?,
    };

    let started = std::time::Instant::now();
    let config = Config::default();

    // Explicit files: single-file rules only (the semantic pass needs
    // the whole tree). Workspace runs go through the full pipeline.
    let (findings, waivers, chains, cache_stats, files_scanned);
    if explicit_files.is_empty() {
        let outcome = bios_audit::audit_workspace(&root, &config, use_cache)?;
        findings = outcome.findings;
        waivers = outcome.waivers;
        chains = outcome.chains;
        cache_stats = outcome.cache;
        files_scanned = outcome.files_scanned;
    } else {
        let mut fs_acc = Vec::new();
        let mut ws_acc = Vec::new();
        for file in &explicit_files {
            let source =
                fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
            let label = walk::display_path(&root, file);
            let outcome = audit_source(&label, &source, &config);
            fs_acc.extend(outcome.findings);
            ws_acc.extend(outcome.waivers);
        }
        findings = fs_acc;
        waivers = ws_acc;
        chains = Vec::new();
        cache_stats = bios_audit::CacheStats::default();
        files_scanned = explicit_files.len();
    }

    for f in &findings {
        println!("{}", f.render());
    }
    let used = waivers.iter().filter(|w| w.used).count();
    let elapsed_ms = started.elapsed().as_millis();
    println!(
        "bios-audit: {} file(s), {} finding(s), {} waiver(s) ({} used), \
         cache {}/{} hit, {} ms",
        files_scanned,
        findings.len(),
        waivers.len(),
        used,
        cache_stats.hits,
        cache_stats.hits + cache_stats.misses,
        elapsed_ms
    );

    let json = report::render_json(&report::ReportInput {
        files_scanned,
        findings: &findings,
        waivers: &waivers,
        chains: &chains,
        cache: cache_stats,
        elapsed_ms,
    });
    let json_out = json_path.unwrap_or_else(|| root.join("AUDIT_report.json"));
    fs::write(&json_out, json).map_err(|e| format!("write {}: {e}", json_out.display()))?;

    Ok(findings.len())
}
