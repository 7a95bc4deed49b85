//! # bios-stream — the longitudinal patient-stream engine
//!
//! Everything below the gateway calibrates a sensor *once*. This crate
//! closes the loop the paper's personalized-medicine pitch actually
//! needs: a sensor lives on a patient for weeks, its enzyme film ages,
//! its calibration silently goes stale, and somebody has to notice and
//! re-calibrate — without ever taking the fleet down.
//!
//! Three pieces, all `std`-only and deterministic:
//!
//! * [`cohort`] — seeded synthetic patients: circadian glucose or
//!   one-compartment drug pharmacokinetics, one catalog sensor each,
//!   derived noise/calibration seed streams.
//! * [`epoch`] — the per-patient calibration state: which calibration
//!   *epoch* converts current to concentration, plus the online
//!   [`bios_analytics::DriftMonitor`] watching standardized residuals.
//! * [`engine`] — the tick loop: simulate every patient's reading,
//!   feed residuals to the monitors, and when one trips, enqueue a
//!   recalibration-class request through the normal
//!   `bios-gateway` admission path. On completion the patient's epoch
//!   is swapped and the monitor re-baselined.
//!
//! ## Determinism
//!
//! The whole stream is a pure function of `(config, cohort seed,
//! tick)`. Patient truth, sensor noise, aging onset, and every
//! admission decision derive from seeded streams and logical ticks —
//! never wall time — so [`engine::StreamReport::digest`] is
//! byte-identical at any worker count. The integration suite pins this
//! at 1, 2, and 8 workers.
//!
//! ```
//! use bios_gateway::{Gateway, GatewayConfig};
//! use bios_runtime::{Runtime, RuntimeConfig};
//! use bios_stream::{StreamConfig, StreamEngine};
//!
//! let runtime = Runtime::new(RuntimeConfig { workers: 2, ..RuntimeConfig::default() });
//! let gateway = Gateway::new(GatewayConfig::default(), runtime);
//! let engine = StreamEngine::new(StreamConfig::new(8, 48, 7), gateway);
//! let report = engine.run();
//! assert_eq!(report.patients, 8);
//! assert_eq!(report.recal_degraded, 0, "recalibrations never brown out");
//! ```

pub mod cohort;
pub mod engine;
pub mod epoch;

pub use cohort::{Patient, PatientCohort, Physiology};
pub use engine::{StreamConfig, StreamEngine, StreamReport};
pub use epoch::{CalibrationEpoch, PatientState};
