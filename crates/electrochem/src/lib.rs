//! # bios-electrochem
//!
//! Electrochemical physics engine underlying the biosensor simulation
//! platform.
//!
//! The paper's devices are amperometric and voltammetric sensors; every
//! figure of merit they report is ultimately governed by a handful of
//! textbook relations plus diffusive mass transport:
//!
//! * [`nernst`] — equilibrium electrode potentials and the Nernst boundary
//!   condition used by reversible voltammetry.
//! * [`butler_volmer`] — finite-rate electron-transfer kinetics; the CNT
//!   films in the paper matter precisely because they raise the standard
//!   rate constant `k⁰`.
//! * [`cottrell`] — the diffusion-limited current transient after a
//!   potential step (chronoamperometry, the oxidase-sensor technique).
//! * [`randles_sevcik`] — peak currents in linear-sweep/cyclic voltammetry
//!   (the cytochrome-P450 sensor technique).
//! * [`diffusion`] — a 1-D finite-difference mass-transport solver
//!   (explicit and Crank–Nicolson schemes) for when the closed forms do
//!   not apply.
//! * [`waveform`] — potential programs: step, linear sweep, cyclic,
//!   differential pulse.
//! * [`species`] — redox couple descriptors (`E⁰`, `n`, `α`, `k⁰`, `D`).
//! * [`double_layer`] — capacitive charging currents that contaminate the
//!   faradaic signal.
//! * [`voltammetry`] — a full digital simulation of cyclic voltammetry
//!   (Nernstian and quasireversible) built on the diffusion solver.
//! * [`checkpoint`] — cooperative cancellation ([`CheckPoint`]) polled
//!   inside the diffusion/voltammetry inner loops so a fleet watchdog
//!   can reclaim a worker without preemption.
//!
//! # Examples
//!
//! ```
//! use bios_electrochem::{cottrell, species};
//! use bios_units::{Molar, SquareCm, Seconds};
//!
//! // Diffusion-limited current 1 s after stepping the potential on a
//! // 0.25 mm² microelectrode in 1 mM H2O2.
//! let i = cottrell::cottrell_current(
//!     2,
//!     SquareCm::from_square_mm(0.25),
//!     species::diffusion::HYDROGEN_PEROXIDE,
//!     Molar::from_milli_molar(1.0),
//!     Seconds::from_seconds(1.0),
//! );
//! assert!(i.as_micro_amps() > 0.0);
//! ```

#![warn(missing_debug_implementations)]

pub mod butler_volmer;
pub mod checkpoint;
pub mod cottrell;
pub mod degradation;
pub mod diffusion;
pub mod double_layer;
pub mod error;
pub mod field_effect;
pub mod impedance;
pub mod microelectrode;
pub mod nernst;
pub mod potentiometry;
pub mod randles_sevcik;
pub mod species;
pub mod voltammetry;
pub mod waveform;

pub use bios_units::{FARADAY, GAS_CONSTANT};
pub use checkpoint::{CheckPoint, NeverCancel};
pub use degradation::ElectrodeHealth;
pub use error::ElectrochemError;
pub use species::RedoxCouple;
pub use waveform::{CyclicSweep, DifferentialPulse, LinearSweep, PotentialStep, Waveform};
