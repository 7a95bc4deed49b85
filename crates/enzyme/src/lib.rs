//! # bios-enzyme
//!
//! Enzyme kinetics for the biosensor platform: the sensing elements of
//! every device in the paper are enzymes (§2.2) — oxidases for the
//! metabolites (glucose, lactate, glutamate) and cytochrome-P450 isoforms
//! for the fatty acid and anticancer drugs.
//!
//! * [`michaelis`] — Michaelis–Menten and Hill kinetics, apparent
//!   parameters, linearization helpers.
//! * [`inhibition`] — competitive / uncompetitive / non-competitive and
//!   substrate inhibition.
//! * [`ping_pong`] — two-substrate ping-pong bi-bi kinetics (oxidases use
//!   O₂ as co-substrate).
//! * [`oxidase`] — glucose/lactate/glutamate oxidase descriptors with
//!   literature constants; their H₂O₂ product is what the electrode sees.
//! * [`cyp`] — cytochrome-P450 isoform descriptors (custom CYP, CYP1A2,
//!   CYP2B6, CYP3A4) with their catalytic-cycle electron demand.
//! * [`film`] — immobilized enzyme films: surface loading, retained
//!   activity, mass-transfer (Thiele) effectiveness, apparent K_M shifts.
//!
//! # Examples
//!
//! ```
//! use bios_enzyme::michaelis::MichaelisMenten;
//! use bios_units::{Molar, RateConstant};
//!
//! let god = MichaelisMenten::new(
//!     RateConstant::from_per_second(700.0),
//!     Molar::from_milli_molar(33.0),
//! );
//! // Half of k_cat exactly at K_M:
//! let v = god.turnover_rate(Molar::from_milli_molar(33.0));
//! assert!((v.as_per_second() - 350.0).abs() < 1e-9);
//! ```

#![warn(missing_debug_implementations)]

pub mod cyp;
pub mod film;
pub mod inhibition;
pub mod michaelis;
pub mod oxidase;
pub mod ping_pong;

pub use cyp::{CypIsoform, CypSensorChemistry};
pub use film::EnzymeFilm;
pub use michaelis::MichaelisMenten;
pub use oxidase::{Oxidase, OxidaseKind};
