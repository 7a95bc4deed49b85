//! Runs the `gate` binary, so `cargo test` alone pins every scenario's
//! absolute digest in its ledger, at every layout.

use std::process::Command;

#[test]
fn every_gate_row_matches_the_ledger() {
    let out = Command::new(env!("CARGO_BIN_EXE_gate"))
        .output()
        .expect("the gate binary runs");
    assert!(
        out.status.success(),
        "gate failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
