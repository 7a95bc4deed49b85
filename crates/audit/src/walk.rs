//! Workspace traversal: find every Rust source file the audit covers.
//!
//! The audit walks `crates/*/src` (every crate, including the bench
//! bin layer) plus the facade's own `src/`. Integration tests under
//! `crates/*/tests` are deliberately out of scope — tests may use wall
//! clocks and hash maps — and so are fixtures and `target/`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collect every `.rs` file under the audit's scope, sorted so the
/// scan order (and therefore the report) is deterministic.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        collect_rs(&facade_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

/// Recursively gather `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Collect every crate manifest (`crates/*/Cargo.toml`), sorted, for
/// the G-layer dependency checks. The workspace root manifest is not
/// included — it declares the member list, not dependency edges.
pub fn collect_manifests(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut manifests = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let manifest = entry?.path().join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    manifests.sort();
    Ok(manifests)
}

/// Normalize a path for scoping and reporting: repo-relative with
/// forward slashes.
pub fn display_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Locate the workspace root by walking up from `start` until a
/// directory containing both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
