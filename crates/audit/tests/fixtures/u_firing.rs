//! U-family firing fixture: audited under a doc-scoped path
//! (`crates/electrochem/src/fixture.rs`).

pub fn undocumented_bare_float(current: f64) -> f64 {
    current * 2.0
}

/// Doubles the signal. (The doc never says what the bare floats
/// measure, so the doc rule still fires.)
pub fn documented_but_vague(signal: f64) -> f64 {
    signal * 2.0
}
