//! Waiver fixture: two identical violations, one waived. The waiver
//! must suppress exactly the finding on the next line, leave the
//! second finding standing, and an unused or reasonless waiver must
//! itself be reported.

fn waived() -> usize {
    // bios-audit: allow(D-hash) — fixture: this one is justified
    let a: std::collections::HashSet<u64> = Default::default();
    let b: std::collections::HashSet<u64> = Default::default();
    a.len() + b.len()
}

// bios-audit: allow(F-eq) — names a rule that never fires here
fn unused_waiver_target() -> u64 {
    7
}
