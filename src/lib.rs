//! # biosim
//!
//! An integrated biosensor simulation platform — a from-scratch Rust
//! reproduction of the system described in *"Integrated Biosensors for
//! Personalized Medicine"* (G. De Micheli, C. Boero, C. Baj-Rossi,
//! I. Taurino, S. Carrara — DAC 2012).
//!
//! The paper's physical platform — carbon-nanotube-modified enzyme
//! electrodes with integrated electrochemical readout for metabolite and
//! anticancer-drug monitoring — is virtualized end to end: electrode
//! physics, enzyme kinetics, nanomaterial surface models, a potentiostat
//! readout chain with realistic noise, calibration protocols, and the
//! analytics that extract sensitivity, linear range, and detection limit.
//!
//! This facade crate re-exports all subsystem crates:
//!
//! | module | crate | what it models |
//! |---|---|---|
//! | [`units`] | `bios-units` | typed physical quantities |
//! | [`electrochem`] | `bios-electrochem` | Nernst/Butler–Volmer/Cottrell physics, diffusion, voltammetry |
//! | [`enzyme`] | `bios-enzyme` | Michaelis–Menten, oxidases, P450 isoforms, films |
//! | [`nanomaterial`] | `bios-nanomaterial` | electrodes and CNT surface modifications |
//! | [`instrument`] | `bios-instrument` | amplifier, ADC, noise, filters |
//! | [`analytics`] | `bios-analytics` | regression, linear range, LOD |
//! | [`labelfree`] | `bios-labelfree` | SPR and QCM label-free transduction |
//! | [`prng`] | `bios-prng` | deterministic random streams (splitmix64 + xoshiro256\*\*) |
//! | [`core`] | `bios-core` | the composed platform, protocols, Table 1/2 catalog |
//! | [`faults`] | `bios-faults` | deterministic fault plans injected across the physical layers |
//! | [`recover`] | `bios-recover` | checksummed journal + snapshot primitives for crash resume |
//! | [`runtime`] | `bios-runtime` | hardened concurrent fleet simulation, bounded result cache, metrics |
//! | [`gateway`] | `bios-gateway` | overload-robust admission control, circuit breaking, brownout degradation |
//! | [`quorum`] | `bios-quorum` | N-modular redundancy: replica voting, silent-corruption detection, suspect quarantine |
//! | [`stream`] | `bios-stream` | longitudinal patient streams, online drift monitors, deterministic re-calibration |
//! | [`shard`] | `bios-shard` | tenant-sharded fleet-of-fleets: bulkheads, shard supervision, deterministic work-stealing |
//!
//! # Quick start
//!
//! ```
//! use biosim::core::catalog;
//!
//! // Run the paper's glucose sensor through a full simulated
//! // calibration and read off its figures of merit.
//! let entry = catalog::our_glucose_sensor();
//! let outcome = entry.run_calibration(42)?;
//! println!("sensitivity: {}", outcome.summary.sensitivity);
//! println!("linear range: {}", outcome.summary.linear_range);
//! println!("LOD: {}", outcome.summary.detection_limit);
//! # Ok::<(), biosim::core::CoreError>(())
//! ```

pub use bios_analytics as analytics;
pub use bios_core as core;
pub use bios_electrochem as electrochem;
pub use bios_enzyme as enzyme;
pub use bios_faults as faults;
pub use bios_gateway as gateway;
pub use bios_instrument as instrument;
pub use bios_labelfree as labelfree;
pub use bios_nanomaterial as nanomaterial;
pub use bios_prng as prng;
pub use bios_quorum as quorum;
pub use bios_recover as recover;
pub use bios_runtime as runtime;
pub use bios_shard as shard;
pub use bios_stream as stream;
pub use bios_units as units;

/// Commonly used items for scripting against the platform.
pub mod prelude {
    pub use bios_analytics::{
        CalibrationCurve, CalibrationSummary, DriftDetector, DriftMonitor, LinearFit,
    };
    pub use bios_core::catalog;
    pub use bios_core::platform::SensingPlatform;
    pub use bios_core::protocol::{CalibrationProtocol, Chronoamperometry, CyclicVoltammetry};
    pub use bios_core::{Analyte, Biosensor, CoreError, Sample};
    pub use bios_faults::{FaultKind, FaultPlan};
    pub use bios_gateway::{Gateway, GatewayConfig, GatewayReport, Request};
    pub use bios_instrument::ReadoutChain;
    pub use bios_nanomaterial::{ElectrodeStock, SurfaceModification};
    pub use bios_quorum::{QuorumConfig, QuorumScreen, QuorumSummary};
    pub use bios_runtime::{
        Fleet, FleetOutcome, FleetReport, JournalOptions, ResumeReport, Runtime, RuntimeConfig,
    };
    pub use bios_shard::{ShardConfig, ShardedGateway, ShardedReport, ShardedRuntime};
    pub use bios_stream::{PatientCohort, StreamConfig, StreamEngine, StreamReport};
    pub use bios_units::{
        Amperes, ConcentrationRange, Molar, Seconds, Sensitivity, SquareCm, Volts,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let c = Molar::from_milli_molar(5.0);
        assert!(c.as_micro_molar() > 0.0);
        let entry = catalog::our_glucose_sensor();
        assert!(entry.is_ours());
    }
}
