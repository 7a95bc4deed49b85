//! # bios-labelfree
//!
//! The two label-free, non-electrochemical transduction families the
//! paper surveys in §2.3, as working models:
//!
//! * [`spr`] — surface plasmon resonance: binding changes the refractive
//!   index at a metal/dielectric interface and shifts the resonance.
//! * [`qcm`] — quartz crystal microbalance: bound mass shifts the
//!   resonance frequency of a shear-mode quartz oscillator (Sauerbrey).
//!
//! Together with `bios-electrochem`'s amperometric, potentiometric,
//! impedimetric, and field-effect models, every transduction row of the
//! paper's classification is executable.
//!
//! # Examples
//!
//! ```
//! use bios_labelfree::spr::SprSensor;
//! use bios_units::Molar;
//!
//! let spr = SprSensor::biacore_like();
//! let blank = spr.response_units(Molar::ZERO);
//! let bound = spr.response_units(Molar::from_nano_molar(50.0));
//! assert!(bound > blank);
//! ```

#![warn(missing_debug_implementations)]

pub mod qcm;
pub mod spr;

pub use qcm::QuartzCrystalMicrobalance;
pub use spr::SprSensor;
