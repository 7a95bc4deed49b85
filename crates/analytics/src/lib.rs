//! # bios-analytics
//!
//! Calibration analytics: everything needed to turn a simulated (or
//! real) concentration/current sweep into the three figures of merit the
//! paper's Table 2 reports — **sensitivity**, **linear range**, and
//! **limit of detection**.
//!
//! * [`regression`] — ordinary and weighted least squares with full
//!   diagnostics (standard errors, R², residual SD).
//! * [`calibration`] — calibration curves built from replicate
//!   measurements at each standard concentration.
//! * [`linear_range`] — data-driven detection of where a calibration
//!   stops being linear.
//! * [`limits`] — 3σ detection and 10σ quantification limits.
//! * [`drift`] — rolling-residual drift/fault detection between a
//!   reference calibration and a fresh one.
//! * [`report`] — plain-text table rendering for the bench harness.
//!
//! # Examples
//!
//! ```
//! use bios_analytics::regression::LinearFit;
//!
//! let xs = [0.0, 1.0, 2.0, 3.0];
//! let ys = [1.0, 3.0, 5.0, 7.0];
//! let fit = LinearFit::fit(&xs, &ys)?;
//! assert!((fit.slope() - 2.0).abs() < 1e-12);
//! assert!((fit.intercept() - 1.0).abs() < 1e-12);
//! assert!(fit.r_squared() > 0.9999);
//! # Ok::<(), bios_analytics::AnalyticsError>(())
//! ```

#![warn(missing_debug_implementations)]

pub mod calibration;
pub mod drift;
pub mod error;
pub mod limits;
pub mod linear_range;
pub mod regression;
pub mod report;
pub mod standard_addition;

pub use calibration::{CalibrationCurve, CalibrationPoint, CalibrationSummary};
pub use drift::{DriftAssessment, DriftDetector, DriftMonitor, ResidualRing};
pub use error::{AnalyticsError, Result};
pub use limits::{detection_limit, quantification_limit};
pub use linear_range::{detect_linear_range, LinearRangeOptions};
pub use regression::LinearFit;
