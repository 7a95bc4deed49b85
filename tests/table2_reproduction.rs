//! The headline integration test: every row of the paper's Table 2 is
//! regenerated by end-to-end simulation and scored against the published
//! figures of merit.

use biosim::core::catalog::{self, CatalogEntry};

struct Scored {
    entry: CatalogEntry,
    sensitivity_rel_err: f64,
    range_overlap: f64,
    lod_ratio: Option<f64>,
}

#[allow(
    clippy::expect_used,
    reason = "test setup helper: aborting on a failed calibration is the right failure mode, but clippy only auto-exempts `#[test]` functions"
)]
fn score(entries: Vec<CatalogEntry>, seed: u64) -> Vec<Scored> {
    entries
        .into_iter()
        .map(|entry| {
            let outcome = entry.run_calibration(seed).expect("calibration runs");
            let paper = entry.paper();
            let sensitivity_rel_err = outcome
                .summary
                .sensitivity
                .relative_error(paper.sensitivity);
            let range_overlap = outcome
                .summary
                .linear_range
                .overlap_score(&paper.linear_range);
            let lod_ratio = paper
                .detection_limit
                .map(|p| outcome.summary.detection_limit.as_molar() / p.as_molar());
            Scored {
                entry,
                sensitivity_rel_err,
                range_overlap,
                lod_ratio,
            }
        })
        .collect()
}

fn assert_block(entries: Vec<CatalogEntry>, seed: u64) {
    let scored = score(entries, seed);
    for s in &scored {
        assert!(
            s.sensitivity_rel_err < 0.15,
            "{}: sensitivity off by {:.1}%",
            s.entry.id(),
            s.sensitivity_rel_err * 100.0
        );
        assert!(
            s.range_overlap > 0.5,
            "{}: linear-range overlap only {:.2}",
            s.entry.id(),
            s.range_overlap
        );
        if let Some(ratio) = s.lod_ratio {
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: LOD ratio {:.2}",
                s.entry.id(),
                ratio
            );
        }
    }
}

#[test]
fn glucose_block_reproduces() {
    assert_block(catalog::glucose_sensors(), 42);
}

#[test]
fn lactate_block_reproduces() {
    assert_block(catalog::lactate_sensors(), 42);
}

#[test]
fn glutamate_block_reproduces() {
    assert_block(catalog::glutamate_sensors(), 42);
}

#[test]
fn cyp_block_reproduces() {
    assert_block(catalog::cyp_sensors(), 42);
}

#[test]
fn our_glucose_sensor_beats_every_literature_glucose_sensor() {
    // §3.2.1: "our biosensor shows the best performance for both
    // sensitivity and limit of detection".
    let scored = score(catalog::glucose_sensors(), 11);
    let ours = scored.iter().find(|s| s.entry.is_ours()).unwrap();
    let ours_outcome = ours.entry.run_calibration(11).unwrap();
    for other in scored.iter().filter(|s| !s.entry.is_ours()) {
        let other_outcome = other.entry.run_calibration(11).unwrap();
        assert!(
            ours_outcome.summary.sensitivity > other_outcome.summary.sensitivity,
            "ours should out-sense {}",
            other.entry.id()
        );
        assert!(
            ours_outcome.summary.detection_limit < other_outcome.summary.detection_limit,
            "ours should out-detect {}",
            other.entry.id()
        );
    }
}

#[test]
fn our_glutamate_sensor_trades_sensitivity_for_range() {
    // §3.2.3: the paper's glutamate sensor is *less* sensitive than all
    // literature devices but exploits a wider linear range.
    let scored = score(catalog::glutamate_sensors(), 13);
    let ours = scored.iter().find(|s| s.entry.is_ours()).unwrap();
    let ours_outcome = ours.entry.run_calibration(13).unwrap();
    for other in scored.iter().filter(|s| !s.entry.is_ours()) {
        let other_outcome = other.entry.run_calibration(13).unwrap();
        assert!(
            ours_outcome.summary.sensitivity < other_outcome.summary.sensitivity,
            "ours should be less sensitive than {}",
            other.entry.id()
        );
        assert!(
            ours_outcome.summary.linear_range.high() > other_outcome.summary.linear_range.high(),
            "ours should out-range {}",
            other.entry.id()
        );
    }
}

#[test]
fn goran_beats_us_on_lactate_sensitivity_but_not_range() {
    // §3.2.2: Goran et al. [16] get higher sensitivity than the paper's
    // lactate sensor, but over a range too narrow for physiology.
    let goran = catalog::lactate_sensors()
        .into_iter()
        .find(|e| e.id() == "lactate/goran2011")
        .unwrap();
    let ours = catalog::our_lactate_sensor();
    let goran_out = goran.run_calibration(5).unwrap();
    let ours_out = ours.run_calibration(5).unwrap();
    assert!(goran_out.summary.sensitivity > ours_out.summary.sensitivity);
    assert!(ours_out.summary.linear_range.high() > goran_out.summary.linear_range.high());
    // Physiological lactate (~1 mM resting) sits inside OUR range only.
    let resting = biosim::units::Molar::from_milli_molar(0.9);
    assert!(ours_out.summary.linear_range.contains(resting));
    assert!(!goran_out.summary.linear_range.contains(resting));
}

#[test]
fn cyp_sensitivity_ordering_matches_paper() {
    // AA > Ftorafur > IFO > CP in reported sensitivity.
    let scored = score(catalog::cyp_sensors(), 3);
    let by_id = |id: &str| {
        scored
            .iter()
            .find(|s| s.entry.id().contains(id))
            .unwrap()
            .entry
            .run_calibration(3)
            .unwrap()
            .summary
            .sensitivity
    };
    let aa = by_id("arachidonic");
    let ft = by_id("ftorafur");
    let ifo = by_id("ifosfamide");
    let cp = by_id("cyclophosphamide");
    assert!(aa > ft && ft > ifo && ifo > cp);
}

#[test]
fn reproduction_is_stable_across_seeds() {
    let entry = catalog::our_glucose_sensor();
    for seed in [1, 7, 99, 12345] {
        let outcome = entry.run_calibration(seed).unwrap();
        assert!(
            outcome
                .summary
                .sensitivity
                .relative_error(entry.paper().sensitivity)
                < 0.2,
            "seed {seed} drifted"
        );
    }
}
