//! Toolchain lint-wall firing fixture: panic-freedom, durability-module
//! indexing, `unsafe`, and a stale waiver. `scripts/check.sh` stages it
//! as the `src/lib.rs` of a throwaway package that carries the root
//! `[workspace.lints.*]` tables and `clippy.toml`; clippy must raise
//! every lint named in the comments.

// As in the five durability modules.
#![deny(clippy::indexing_slicing)]

fn panicky(xs: &[u64], flag: Option<u64>) -> u64 {
    // clippy::unwrap_used
    let a = flag.unwrap();
    // clippy::expect_used
    let b = flag.expect("flag must be set");
    if xs.is_empty() {
        // clippy::panic
        panic!("no data");
    }
    if a > b {
        // clippy::todo
        todo!();
    }
    // clippy::indexing_slicing
    xs[0]
}

fn later(x: u64) -> u64 {
    // unsafe_code
    let y = unsafe { std::mem::transmute::<u64, i64>(x) };
    y.unsigned_abs()
}

// unfulfilled_lint_expectations: nothing below panics.
#[expect(clippy::panic, reason = "fixture: a waiver that suppresses nothing")]
fn calm() -> u64 {
    1
}

// clippy::allow_attributes_without_reason
#[allow(clippy::panic)]
fn reasonless() -> u64 {
    2
}
