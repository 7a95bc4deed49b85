//! # bios-nanomaterial
//!
//! Electrode substrates and nanomaterial surface modifications — the
//! "chemical component" of the paper's modular platform (§3).
//!
//! * [`material`] — bulk electrode materials (graphite, Au, Pt, glassy
//!   carbon, carbon paste) and their electrocatalytic baselines.
//! * [`geometry`] — electrode geometries, including the paper's two stock
//!   devices: the DropSens screen-printed electrode (13 mm² working
//!   electrode) and the EPFL microfabricated chip (five 0.25 mm² Au
//!   working electrodes).
//! * [`dispersion`] — how MWCNT are suspended before casting (Nafion,
//!   chloroform, mineral oil, sol-gel), which controls film quality.
//! * [`modification`] — the surface-modification catalog: every
//!   nanomaterial recipe appearing in the paper's Table 2, each described
//!   by area enhancement, electron-transfer enhancement, enzyme hosting
//!   capacity, and product-collection efficiency.
//!
//! # Examples
//!
//! ```
//! use bios_nanomaterial::modification::SurfaceModification;
//!
//! let cnt = SurfaceModification::mwcnt_nafion();
//! let bare = SurfaceModification::bare();
//! // The whole point of the paper: CNT modification accelerates
//! // electron transfer and hosts far more enzyme.
//! assert!(cnt.electron_transfer_gain() > bare.electron_transfer_gain());
//! assert!(cnt.enzyme_capacity_gain() > bare.enzyme_capacity_gain());
//! ```

#![warn(missing_debug_implementations)]

pub mod dispersion;
pub mod geometry;
pub mod material;
pub mod modification;

pub use dispersion::Dispersant;
pub use geometry::{Electrode, ElectrodeRole, ElectrodeStock};
pub use material::ElectrodeMaterial;
pub use modification::SurfaceModification;
