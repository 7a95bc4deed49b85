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

# Static-analysis gate: the source-level determinism / float-hygiene /
# API-hygiene audit (DESIGN.md §11) plus the semantic pass (DESIGN.md
# §16): call-graph determinism taint, crate-layer proofs, and lock
# discipline. Any finding fails the gate; the waiver
# count is part of the printed summary. The audit runs twice — the
# second run must ride the per-file facts cache.
run cargo run --release -q -p bios-audit
if ! grep -q '"schema_version": 3,' AUDIT_report.json; then
    echo "audit gate: AUDIT_report.json has an unknown schema_version (expected 3)" >&2
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

# Clippy fixture gate: the toolchain lints that own panic-freedom,
# durability-module indexing, `unsafe`, stale waivers and waiver
# reasons must still fire. A fixture is staged as the src/lib.rs of a throwaway package
# that carries the root [workspace.lints.*] tables verbatim and the
# repo's clippy.toml. The gate matches lint codes in clippy's JSON
# messages, not the exit status: the fixtures' unused functions warn
# too.
echo "==> clippy fixture gate"
toolchain_lints=(clippy::unwrap_used clippy::expect_used clippy::panic clippy::todo
    clippy::indexing_slicing unsafe_code unfulfilled_lint_expectations
    clippy::allow_attributes_without_reason)
clippy_fixture() { # <fixture>; leaves clippy's JSON in $gate_dir/<fixture>.json
    local fixture="$1" pkg="$gate_dir/clippy-${1%.rs}"
    mkdir -p "$pkg/src"
    {
        printf '[package]\nname = "fixture"\nversion = "0.0.0"\nedition = "2021"\n\n'
        printf '[lints]\nworkspace = true\n\n[workspace]\n\n'
        awk '/^\[/ { keep = /^\[workspace\.lints\./ } keep' Cargo.toml
    } >"$pkg/Cargo.toml"
    cp clippy.toml "$pkg/"
    cp "crates/audit/tests/fixtures/$fixture" "$pkg/src/lib.rs"
    (cd "$pkg" && cargo clippy --offline -q --all-targets --message-format=json) \
        >"$gate_dir/$fixture.json" 2>"$pkg/stderr" || true
}
raised() { # <fixture> <lint code>
    grep -q "\"code\":{\"code\":\"$2\"" "$gate_dir/$1.json"
}
clippy_fixture p_firing.rs
for lint in "${toolchain_lints[@]}"; do
    if ! raised p_firing.rs "$lint"; then
        echo "clippy gate: p_firing.rs did not raise $lint" >&2
        cat "$gate_dir/clippy-p_firing/stderr" >&2
        exit 1
    fi
done
echo "    p_firing.rs raises ${toolchain_lints[*]}"
clippy_fixture p_near_miss.rs
if ! grep -q '"reason":"build-finished","success":true' "$gate_dir/p_near_miss.rs.json"; then
    echo "clippy gate: clippy failed on p_near_miss.rs" >&2
    cat "$gate_dir/clippy-p_near_miss/stderr" >&2
    exit 1
fi
for lint in "${toolchain_lints[@]}"; do
    if raised p_near_miss.rs "$lint"; then
        echo "clippy gate: p_near_miss.rs raised $lint" >&2
        exit 1
    fi
done
echo "    p_near_miss.rs raises none of them"

# Doc gate: rustdoc must build clean — broken intra-doc links and
# missing docs are errors, not warnings.
echo "==> cargo doc --no-deps (warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> all checks passed"
