#!/usr/bin/env bash
# The full pre-merge gate: build, tests, formatting, lints.
# Usage: scripts/check.sh  (from anywhere inside the repo)
set -euo pipefail

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace
# The benchmark is a package of its own that builds `JobResult` and
# `CacheKey` literals and calls `bios_recover::fnv1a`: a public-API
# change that breaks it must fail here, not only when it is run.
run cargo build --release --offline --manifest-path perfbench/Cargo.toml
run cargo test -q --workspace
# Every gate scenario (crash-resume, overload, stream, shard, quorum,
# survey fleet, storage torture) at every layout, each digest pinned
# to its siblings and to the absolute ledger in
# crates/bench/src/bin/gate.rs. `cargo test` above ran it in a debug
# build; this run also catches a digest that differs in release.
run cargo run --release -q -p bios-bench --bin gate

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings

# Static-analysis gate: the source-level determinism / panic-freedom /
# float-hygiene / API-hygiene audit (DESIGN.md §11) plus the semantic
# pass (DESIGN.md §16): call-graph determinism taint, crate-layer
# proofs, and lock discipline. Any finding fails the gate; the waiver
# count is part of the printed summary. The audit runs twice — the
# second run must ride the per-file facts cache.
run cargo run --release -q -p bios-audit
if ! grep -q '"schema_version": 2,' AUDIT_report.json; then
    echo "audit gate: AUDIT_report.json has an unknown schema_version (expected 2)" >&2
    exit 1
fi
audit_warm="$(cargo run --release -q -p bios-audit 2>&1 | tail -1)"
echo "    $audit_warm"
case "$audit_warm" in
*"cache 0/"*)
    echo "audit gate: second run had zero facts-cache hits" >&2
    exit 1
    ;;
esac

# Semantic fixture gate: each new rule family must still *fire*. Every
# firing fixture is staged into a synthetic workspace and the audit
# must exit non-zero on it, pinning the detectors end-to-end (the
# golden tests pin the exact findings; this pins the exit code).
echo "==> semantic fixture gate"
gate_dir="$(mktemp -d)"
trap 'rm -rf "$gate_dir"' EXIT
audit_fixture() { # <family> <fixture> <staged-path>
    local fam="$1" fixture="$2" staged="$3"
    local fixroot="$gate_dir/audit-$fam"
    mkdir -p "$fixroot/$(dirname "$staged")"
    printf '[workspace]\nmembers = ["crates/*"]\n' >"$fixroot/Cargo.toml"
    cp "crates/audit/tests/fixtures/$fixture" "$fixroot/$staged"
    if cargo run --release -q -p bios-audit -- \
        --root "$fixroot" --no-cache --json "$fixroot/report.json" >/dev/null; then
        echo "audit gate: $fam fixture $fixture did not fail the audit" >&2
        exit 1
    fi
    echo "    $fam fires on $fixture"
}
audit_fixture G-taint g_taint_firing.rs crates/faults/src/plan.rs
audit_fixture G-layer g_layer_firing.rs crates/enzyme/src/lib.rs
audit_fixture L-lock l_lock_firing.rs crates/faults/src/plan.rs

# Doc gate: rustdoc must build clean — broken intra-doc links and
# missing docs are errors, not warnings.
echo "==> cargo doc --no-deps (warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> all checks passed"
