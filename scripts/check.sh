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
# Chaos gate: the hardened runtime must stay deterministic under an
# armed fault plan (retries, panics, budgets, bounded cache).
run cargo test -q -p bios-runtime --test runtime_chaos
# Recovery gate: journal corruption, crash resume, and watchdog tests.
run cargo test -q -p bios-runtime --test runtime_recover
run cargo test -q -p bios-recover

# Crash-resume gate: run the fixed gate fleet journaled, kill it
# mid-fleet (the binary aborts itself after the 5th durable record,
# exactly as `kill -9` would), resume the journal, and require the
# resumed digest to be byte-identical to an uninterrupted reference.
echo "==> crash-resume gate"
gate_dir="$(mktemp -d)"
trap 'rm -rf "$gate_dir"' EXIT
crash_gate() { cargo run --release -q -p bios-bench --bin crash_gate -- "$@"; }
ref_fnv="$(crash_gate --journal "$gate_dir/ref.journal" | grep digest_fnv)"
if crash_gate --journal "$gate_dir/crash.journal" --crash-after 5 >/dev/null 2>&1; then
    echo "crash-resume gate: the crashing run was supposed to die" >&2
    exit 1
fi
resumed_fnv="$(crash_gate --journal "$gate_dir/crash.journal" --resume --workers 8 | grep digest_fnv)"
if [ "$ref_fnv" != "$resumed_fnv" ]; then
    echo "crash-resume gate: digest mismatch ($ref_fnv vs $resumed_fnv)" >&2
    exit 1
fi
echo "    resumed digest matches reference ($ref_fnv)"

# Overload gate: a fixed bursty trace through the gateway must shed,
# brown out, and circuit-break — but in a bounded way, draining every
# request to a terminal outcome — and the whole decision trace must be
# byte-identical at 1 and 8 workers. The binary itself asserts the
# nonzero-but-bounded counters and the clean drain (non-zero exit on
# violation); the shell compares the two digests.
echo "==> overload gate"
overload_gate() { cargo run --release -q -p bios-bench --bin overload_gate -- "$@"; }
overload_1="$(overload_gate --workers 1 | grep digest_fnv)"
overload_8="$(overload_gate --workers 8 | grep digest_fnv)"
if [ "$overload_1" != "$overload_8" ]; then
    echo "overload gate: digest differs across worker counts ($overload_1 vs $overload_8)" >&2
    exit 1
fi
echo "    overload decisions identical at 1 and 8 workers ($overload_1)"

# Stream gate: a 1000-patient × 288-tick (one simulated day) cohort
# with aging films through the longitudinal stream engine. The binary
# asserts the closed loop engages (drift injected, detected, epochs
# swapped; zero false trips, zero browned-out recalibrations); the
# shell pins the stream digest byte-identical at 1 and 8 workers.
echo "==> stream gate"
stream_gate() { cargo run --release -q -p bios-bench --bin stream_gate -- "$@"; }
stream_1="$(stream_gate --workers 1 --patients 1000 --ticks 288 | grep digest_fnv)"
stream_8="$(stream_gate --workers 8 --patients 1000 --ticks 288 | grep digest_fnv)"
if [ "$stream_1" != "$stream_8" ]; then
    echo "stream gate: digest differs across worker counts ($stream_1 vs $stream_8)" >&2
    exit 1
fi
echo "    stream decisions identical at 1 and 8 workers ($stream_1)"

# Shard gate: the tenant-sharded fleet-of-fleets must be placement-
# invisible — the merged digest byte-identical at (1 shard × 1 worker),
# (4 × 2), and (8 × 8), and unchanged when a shard is lost mid-trace,
# quarantined, and its tenants redistributed. The binary asserts the
# quarantine actually happened (non-zero exit on violation); the shell
# compares the four digests.
echo "==> shard gate"
shard_gate() { cargo run --release -q -p bios-bench --bin shard_gate -- "$@"; }
shard_1x1="$(shard_gate --shards 1 --workers 1 | grep digest_fnv)"
shard_4x2="$(shard_gate --shards 4 --workers 2 | grep digest_fnv)"
shard_8x8="$(shard_gate --shards 8 --workers 8 | grep digest_fnv)"
shard_q="$(shard_gate --shards 4 --workers 2 --quarantine | grep digest_fnv)"
if [ "$shard_1x1" != "$shard_4x2" ] || [ "$shard_4x2" != "$shard_8x8" ]; then
    echo "shard gate: digest differs across shard layouts ($shard_1x1 / $shard_4x2 / $shard_8x8)" >&2
    exit 1
fi
if [ "$shard_1x1" != "$shard_q" ]; then
    echo "shard gate: quarantine changed the digest ($shard_1x1 vs $shard_q)" >&2
    exit 1
fi
echo "    sharded decisions identical at 1x1, 4x2, 8x8, and quarantined 4x2 ($shard_1x1)"

# Quorum gate: silent corruption armed on every tenant with the
# redundancy screen voting on every completion. The binary asserts
# detection (catch rate ≥ 99%, zero escapes, disagreements fired,
# repeat offenders quarantined — non-zero exit on violation); the
# shell pins the armed digest byte-identical across layouts AND
# byte-identical to the unarmed healthy run, which in turn must equal
# the shard gate's golden digest — arming the screen may never move a
# single byte of the report.
echo "==> quorum gate"
quorum_gate() { cargo run --release -q -p bios-bench --bin quorum_gate -- "$@"; }
quorum_1x1="$(quorum_gate --shards 1 --workers 1 --armed | grep digest_fnv)"
quorum_4x2="$(quorum_gate --shards 4 --workers 2 --armed | grep digest_fnv)"
quorum_8x8="$(quorum_gate --shards 8 --workers 8 --armed | grep digest_fnv)"
quorum_off="$(quorum_gate --shards 4 --workers 2 | grep digest_fnv)"
if [ "$quorum_1x1" != "$quorum_4x2" ] || [ "$quorum_4x2" != "$quorum_8x8" ]; then
    echo "quorum gate: armed digest differs across layouts ($quorum_1x1 / $quorum_4x2 / $quorum_8x8)" >&2
    exit 1
fi
if [ "$quorum_1x1" != "$quorum_off" ]; then
    echo "quorum gate: arming the screen moved the digest ($quorum_1x1 vs $quorum_off)" >&2
    exit 1
fi
if [ "$quorum_off" != "$shard_4x2" ]; then
    echo "quorum gate: unarmed digest diverged from the shard gate ($quorum_off vs $shard_4x2)" >&2
    exit 1
fi
echo "    quorum voting identical at 1x1, 4x2, 8x8 and byte-equal to the unarmed run ($quorum_1x1)"

# Torture gate: hundreds of seeded storage-fault schedules (DESIGN.md
# §17) — a crash at *every* op index of the monolithic and sharded
# reference runs plus randomized mixes of short writes, ENOSPC, failed
# syncs, and crashes. The binary asserts every schedule lands in the
# trichotomy (recover / typed error / metered degradation) and that
# both crash sweeps recover 100%; the shell re-asserts the zero
# panic/divergence counters off the summary line.
echo "==> torture gate"
torture_out="$(cargo run --release -q -p bios-bench --bin torture_gate)"
torture_total="$(printf '%s\n' "$torture_out" | grep '^total:')"
echo "    $torture_total"
case "$torture_total" in
*"panics=0 divergences=0"*) ;;
*)
    echo "torture gate: panics or divergences detected ($torture_total)" >&2
    exit 1
    ;;
esac

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
