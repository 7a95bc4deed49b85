//! One-dimensional finite-difference diffusion solver.
//!
//! Semi-infinite planar diffusion toward the electrode is the transport
//! regime of every sensor in the paper (planar SPE and microfabricated
//! electrodes, quiescent drop of sample). The grid discretizes
//!
//! `∂C/∂t = D·∂²C/∂x²  (+ source)`
//!
//! with the electrode at `x = 0` and bulk solution at the far edge.
//!
//! Two integrators are provided: an explicit FTCS step (simple, stability
//! limited to `D·Δt/Δx² ≤ 0.5`) and an unconditionally stable
//! Crank–Nicolson step solved by the Thomas tridiagonal algorithm.

use bios_units::{DiffusionCoefficient, Molar, Seconds};

use crate::checkpoint::{CheckPoint, NeverCancel, POLL_INTERVAL};
use crate::error::ElectrochemError;

/// Boundary condition applied at the electrode surface (`x = 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SurfaceBoundary {
    /// Fixed surface concentration (mol/cm³) — e.g. 0 for a
    /// diffusion-limited oxidation (Cottrell conditions).
    Concentration(f64),
    /// Fixed outward flux (mol · cm⁻² · s⁻¹); positive flux consumes
    /// material at the surface. `Flux(0.0)` is a blocking (no-flux) wall.
    Flux(f64),
}

/// A 1-D diffusion field on a uniform grid.
///
/// Concentrations are stored in mol/cm³ internally (consistent with CGS
/// transport constants); construction and readout use [`Molar`].
///
/// # Examples
///
/// ```
/// use bios_electrochem::diffusion::{DiffusionGrid, SurfaceBoundary};
/// use bios_units::{DiffusionCoefficient, Molar, Seconds};
///
/// let mut grid = DiffusionGrid::new(
///     DiffusionCoefficient::from_square_cm_per_second(1e-5),
///     Molar::from_milli_molar(1.0),
///     50e-4,  // 50 µm domain
///     100,    // nodes
/// )
/// .expect("valid grid");
/// grid.set_surface(SurfaceBoundary::Concentration(0.0));
/// grid.advance(Seconds::from_millis(100.0), Seconds::from_millis(1.0));
/// // Material has been consumed at the electrode:
/// assert!(grid.concentration_at(0).as_milli_molar() < 1e-6);
/// assert!(grid.flux_mol_per_cm2_s() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DiffusionGrid {
    /// Node concentrations, mol/cm³; index 0 is the electrode surface.
    c: Vec<f64>,
    /// Diffusion coefficient, cm²/s.
    d: f64,
    /// Node spacing, cm.
    dx: f64,
    /// Bulk concentration pinned at the far boundary, mol/cm³.
    bulk: f64,
    surface: SurfaceBoundary,
    /// Scratch buffers for the tridiagonal solver.
    scratch_c: Vec<f64>,
    scratch_d: Vec<f64>,
}

impl DiffusionGrid {
    /// Creates a grid of `nodes` points spanning `length_cm`, initially at
    /// uniform `bulk` concentration with a blocking electrode.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::GridTooSmall`] if `nodes < 3` and
    /// [`ElectrochemError::InvalidLength`] if `length_cm` is not a
    /// positive finite number.
    pub fn new(
        d: DiffusionCoefficient,
        bulk: Molar,
        length_cm: f64,
        nodes: usize,
    ) -> Result<DiffusionGrid, ElectrochemError> {
        if nodes < 3 {
            return Err(ElectrochemError::GridTooSmall {
                requested: nodes,
                minimum: 3,
            });
        }
        if !(length_cm > 0.0 && length_cm.is_finite()) {
            return Err(ElectrochemError::InvalidLength { length_cm });
        }
        let bulk_cgs = bulk.as_molar() * 1e-3;
        Ok(DiffusionGrid {
            c: vec![bulk_cgs; nodes],
            d: d.as_square_cm_per_second(),
            dx: length_cm / (nodes - 1) as f64,
            bulk: bulk_cgs,
            surface: SurfaceBoundary::Flux(0.0),
            scratch_c: vec![0.0; nodes],
            scratch_d: vec![0.0; nodes],
        })
    }

    /// Number of grid nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.c.len()
    }

    /// Node spacing in cm.
    #[must_use]
    pub fn dx_cm(&self) -> f64 {
        self.dx
    }

    /// Sets the electrode-surface boundary condition.
    pub fn set_surface(&mut self, surface: SurfaceBoundary) {
        self.surface = surface;
    }

    /// Replaces the pinned bulk concentration (a standard-addition step).
    pub fn set_bulk(&mut self, bulk: Molar) {
        self.bulk = bulk.as_molar() * 1e-3;
        let last = self.c.len() - 1;
        self.c[last] = self.bulk;
    }

    /// Resets every node to the bulk concentration.
    pub fn reset(&mut self) {
        let bulk = self.bulk;
        self.c.fill(bulk);
    }

    /// Concentration at node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn concentration_at(&self, i: usize) -> Molar {
        Molar::from_molar(self.c[i] * 1e3)
    }

    /// The full profile as molar concentrations.
    #[must_use]
    pub fn profile(&self) -> Vec<Molar> {
        self.c.iter().map(|&v| Molar::from_molar(v * 1e3)).collect()
    }

    /// Total moles per unit area in the domain (the conserved quantity
    /// under no-flux boundaries), mol/cm².
    #[must_use]
    pub fn inventory_mol_per_cm2(&self) -> f64 {
        // Trapezoidal rule.
        let n = self.c.len();
        let interior: f64 = self.c[1..n - 1].iter().sum();
        (interior + 0.5 * (self.c[0] + self.c[n - 1])) * self.dx
    }

    /// Diffusive flux into the electrode, mol · cm⁻² · s⁻¹ (positive when
    /// material flows toward the surface). Uses a second-order one-sided
    /// difference.
    #[must_use]
    pub fn flux_mol_per_cm2_s(&self) -> f64 {
        match self.surface {
            SurfaceBoundary::Flux(f) => f,
            SurfaceBoundary::Concentration(_) => {
                // dC/dx at x=0 via 3-point forward difference.
                let grad = (-3.0 * self.c[0] + 4.0 * self.c[1] - self.c[2]) / (2.0 * self.dx);
                self.d * grad
            }
        }
    }

    /// The largest explicit time step that is stable, `Δx²/(2D)`.
    #[must_use]
    pub fn max_stable_dt(&self) -> Seconds {
        Seconds::from_seconds(0.5 * self.dx * self.dx / self.d)
    }

    /// Advances one explicit (FTCS) step of length `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::UnstableStep`] if `dt` exceeds the
    /// stability limit [`Self::max_stable_dt`].
    pub fn step_explicit(&mut self, dt: Seconds) -> Result<(), ElectrochemError> {
        let r = self.d * dt.as_seconds() / (self.dx * self.dx);
        if r > 0.5 + 1e-12 {
            return Err(ElectrochemError::UnstableStep { ratio: r });
        }
        self.step_explicit_unchecked(dt);
        Ok(())
    }

    /// FTCS update body; callers must have verified stability.
    fn step_explicit_unchecked(&mut self, dt: Seconds) {
        let r = self.d * dt.as_seconds() / (self.dx * self.dx);
        debug_assert!(r <= 0.5 + 1e-12, "unchecked explicit step with r = {r}");
        let n = self.c.len();
        let old = self.c.clone();
        for i in 1..n - 1 {
            self.c[i] = old[i] + r * (old[i + 1] - 2.0 * old[i] + old[i - 1]);
        }
        self.apply_boundaries(r, &old);
    }

    fn apply_boundaries(&mut self, r: f64, old: &[f64]) {
        let n = self.c.len();
        // Far edge: pinned to bulk (semi-infinite approximation).
        self.c[n - 1] = self.bulk;
        match self.surface {
            SurfaceBoundary::Concentration(cs) => {
                self.c[0] = cs;
            }
            SurfaceBoundary::Flux(f) => {
                // Ghost-node treatment: C[-1] = C[1] - 2·Δx·f/D (outward
                // flux f consumes material).
                let ghost = old[1] - 2.0 * self.dx * f / self.d;
                self.c[0] = old[0] + r * (old[1] - 2.0 * old[0] + ghost);
            }
        }
    }

    /// Advances one Crank–Nicolson step of length `dt` (unconditionally
    /// stable).
    pub fn step_crank_nicolson(&mut self, dt: Seconds) {
        let dt = dt.as_seconds();
        let r = self.d * dt / (self.dx * self.dx);
        let n = self.c.len();
        // Build RHS = (I + r/2·L)·c  and solve (I − r/2·L)·c_new = RHS
        // on interior nodes, with boundaries folded in.
        let half = 0.5 * r;

        // Determine boundary values for the new time level.
        let (c0_new_known, ghost_flux) = match self.surface {
            SurfaceBoundary::Concentration(cs) => (Some(cs), 0.0),
            SurfaceBoundary::Flux(f) => (None, f),
        };
        let c_last = self.bulk;

        // We solve for nodes 0..n-1 where node n-1 is Dirichlet bulk and
        // node 0 is either Dirichlet or a flux (ghost) node.
        // Tridiagonal system a_i·x_{i-1} + b_i·x_i + c_i·x_{i+1} = d_i.
        let m = n - 1; // unknowns are indices 0..m (exclusive of last node)
        let a = -half;
        let b_diag = 1.0 + r;
        let cc = -half;

        let rhs = &mut self.scratch_d;
        rhs.resize(m, 0.0);
        let cprime = &mut self.scratch_c;
        cprime.resize(m, 0.0);

        // Assemble RHS from the old field (explicit half).
        #[allow(
            clippy::needless_range_loop,
            reason = "i indexes three arrays with offsets"
        )]
        for i in 0..m {
            let left = if i == 0 {
                match self.surface {
                    SurfaceBoundary::Concentration(cs) => cs,
                    SurfaceBoundary::Flux(f) => self.c[1] - 2.0 * self.dx * f / self.d,
                }
            } else {
                self.c[i - 1]
            };
            let right = if i == m - 1 { self.c[m] } else { self.c[i + 1] };
            rhs[i] = self.c[i] + half * (left - 2.0 * self.c[i] + right);
        }

        // Fold in new-time boundary contributions.
        // Far boundary (node m == n-1) is Dirichlet at bulk:
        rhs[m - 1] += half * c_last;

        match c0_new_known {
            Some(cs) => {
                // Node 0 is known: replace row 0 with identity.
                rhs[0] = cs;
            }
            None => {
                // Flux BC: ghost node x_{-1} = x_1 − 2Δx·f/D couples row 0
                // to x_1 twice.
                rhs[0] += half * (-2.0 * self.dx * ghost_flux / self.d);
            }
        }

        // Thomas sweep. Row 0 is special under each BC.
        let (b0, c0) = match c0_new_known {
            Some(_) => (1.0, 0.0),
            None => (b_diag, 2.0 * cc), // ghost folds the sub-diagonal in
        };
        cprime[0] = c0 / b0;
        rhs[0] /= b0;
        for i in 1..m {
            let ci = if i == m - 1 { 0.0 } else { cc };
            let denom = b_diag - a * cprime[i - 1];
            cprime[i] = ci / denom;
            rhs[i] = (rhs[i] - a * rhs[i - 1]) / denom;
        }
        // Back substitution.
        self.c[m] = c_last;
        self.c[m - 1] = rhs[m - 1];
        for i in (0..m - 1).rev() {
            self.c[i] = rhs[i] - cprime[i] * self.c[i + 1];
        }
    }

    /// Runs the simulation for `duration` using steps of `dt`, choosing
    /// the explicit integrator when stable and Crank–Nicolson otherwise.
    pub fn advance(&mut self, duration: Seconds, dt: Seconds) {
        // NeverCancel never trips, and an already-finite field that goes
        // non-finite would have produced the same garbage before the
        // guard existed — stopping early changes nothing observable.
        let _ = self.advance_checked(duration, dt, &NeverCancel);
    }

    /// [`Self::advance`] with cooperative cancellation and a numerical
    /// guardrail: every [`POLL_INTERVAL`] steps the solver polls `cp`
    /// and scans the field for NaN/±Inf.
    ///
    /// # Errors
    ///
    /// * [`ElectrochemError::Cancelled`] — `cp` tripped; the field holds
    ///   the state at the last completed step.
    /// * [`ElectrochemError::NonFinite`] — the solution diverged; the
    ///   field must not be trusted (or cached) by the caller.
    pub fn advance_checked(
        &mut self,
        duration: Seconds,
        dt: Seconds,
        cp: &dyn CheckPoint,
    ) -> Result<(), ElectrochemError> {
        let steps = (duration.as_seconds() / dt.as_seconds()).round() as usize;
        let explicit_ok = dt <= self.max_stable_dt();
        for step in 0..steps {
            if step % POLL_INTERVAL == 0 {
                if cp.cancelled() {
                    return Err(ElectrochemError::Cancelled);
                }
                if !self.is_finite() {
                    return Err(ElectrochemError::NonFinite { step });
                }
            }
            if explicit_ok {
                self.step_explicit_unchecked(dt);
            } else {
                self.step_crank_nicolson(dt);
            }
        }
        if !self.is_finite() {
            return Err(ElectrochemError::NonFinite { step: steps });
        }
        Ok(())
    }

    /// True when every node of the field is a finite number.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.c.iter().all(|v| v.is_finite())
    }

    /// The brownout resolution-downgrade hook: a fresh grid spanning
    /// the same domain (same length in cm, same bulk [`Molar`]
    /// concentration, same boundary condition) with roughly
    /// `1/factor` of the nodes, floored at the 3-node minimum. Under
    /// sustained overload the gateway trades spatial resolution for
    /// service time instead of dropping work — a coarser grid takes
    /// proportionally fewer explicit steps to cover the same physical
    /// duration (the stable step grows as Δx²).
    ///
    /// The returned grid starts from a uniform bulk field: coarsening
    /// is a *job-level* downgrade applied before simulating, not a
    /// mid-run resampling, so a degraded run is still a pure function
    /// of its inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::InvalidParameter`] when `factor`
    /// is zero.
    pub fn coarsened(&self, factor: usize) -> Result<DiffusionGrid, ElectrochemError> {
        if factor == 0 {
            return Err(ElectrochemError::InvalidParameter {
                name: "coarsening factor",
                value: 0.0,
            });
        }
        let nodes = (self.c.len().div_ceil(factor)).max(3);
        let length_cm = self.dx * (self.c.len() - 1) as f64;
        let mut grid = DiffusionGrid::new(
            DiffusionCoefficient::from_square_cm_per_second(self.d),
            Molar::from_molar(self.bulk * 1e3),
            length_cm,
            nodes,
        )?;
        grid.set_surface(self.surface);
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> DiffusionGrid {
        DiffusionGrid::new(
            DiffusionCoefficient::from_square_cm_per_second(1e-5),
            Molar::from_milli_molar(1.0),
            100e-4,
            101,
        )
        .expect("valid grid")
    }

    #[test]
    fn blocking_wall_conserves_mass_explicit() {
        let mut g = grid();
        let before = g.inventory_mol_per_cm2();
        let dt = g.max_stable_dt() * 0.9;
        for _ in 0..200 {
            g.step_explicit(dt).expect("stable step");
        }
        let after = g.inventory_mol_per_cm2();
        assert!((after - before).abs() / before < 1e-9);
    }

    #[test]
    fn uniform_field_is_steady_state() {
        let mut g = grid();
        g.advance(Seconds::from_millis(50.0), Seconds::from_millis(0.1));
        for i in 0..g.nodes() {
            assert!((g.concentration_at(i).as_milli_molar() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn consuming_surface_depletes_near_field() {
        let mut g = grid();
        g.set_surface(SurfaceBoundary::Concentration(0.0));
        g.advance(Seconds::from_millis(100.0), Seconds::from_millis(0.2));
        // Monotone profile from 0 at the electrode to bulk far away.
        let profile = g.profile();
        assert!(profile[0].as_milli_molar() < 1e-9);
        for w in profile.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((profile.last().unwrap().as_milli_molar() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flux_matches_cottrell_prediction() {
        // Fine grid, long domain so the depletion layer stays inside.
        let d = DiffusionCoefficient::from_square_cm_per_second(1e-5);
        let bulk = Molar::from_milli_molar(1.0);
        let mut g = DiffusionGrid::new(d, bulk, 400e-4, 801).expect("valid grid");
        g.set_surface(SurfaceBoundary::Concentration(0.0));
        let dt = Seconds::from_millis(1.0);
        let t_total = 1.0; // s
        let steps = (t_total / dt.as_seconds()) as usize;
        for _ in 0..steps {
            g.step_crank_nicolson(dt);
        }
        let flux = g.flux_mol_per_cm2_s();
        // Analytic Cottrell flux at t = 1 s: C·√(D/(π·t)).
        let c_cgs = 1e-6; // 1 mM in mol/cm³
        let analytic = c_cgs * (1e-5 / (std::f64::consts::PI * t_total)).sqrt();
        assert!(
            (flux - analytic).abs() / analytic < 0.03,
            "flux {flux} vs analytic {analytic}"
        );
    }

    #[test]
    fn crank_nicolson_matches_explicit() {
        let mut ge = grid();
        let mut gc = grid();
        ge.set_surface(SurfaceBoundary::Concentration(0.0));
        gc.set_surface(SurfaceBoundary::Concentration(0.0));
        let dt = ge.max_stable_dt() * 0.5;
        for _ in 0..500 {
            ge.step_explicit(dt).expect("stable step");
            gc.step_crank_nicolson(dt);
        }
        for i in 0..ge.nodes() {
            let a = ge.concentration_at(i).as_milli_molar();
            let b = gc.concentration_at(i).as_milli_molar();
            assert!((a - b).abs() < 5e-3, "node {i}: {a} vs {b}");
        }
    }

    #[test]
    fn constant_outward_flux_drains_inventory() {
        let mut g = grid();
        let f = 1e-10; // mol/cm²/s outward
        g.set_surface(SurfaceBoundary::Flux(f));
        let before = g.inventory_mol_per_cm2();
        let dt = g.max_stable_dt() * 0.9;
        let mut elapsed = 0.0;
        for _ in 0..400 {
            g.step_explicit(dt).expect("stable step");
            elapsed += dt.as_seconds();
        }
        let after = g.inventory_mol_per_cm2();
        // Bulk boundary replenishes, so drained mass is bounded by f·t but
        // the near-surface deficit must exist.
        assert!(after < before);
        assert!(before - after <= f * elapsed * 1.5);
        assert!(g.concentration_at(0) < g.concentration_at(g.nodes() - 1));
    }

    #[test]
    fn explicit_step_guards_stability() {
        let mut g = grid();
        let dt = g.max_stable_dt() * 4.0;
        let before = g.profile();
        match g.step_explicit(dt) {
            Err(ElectrochemError::UnstableStep { ratio }) => assert!(ratio > 0.5),
            other => panic!("expected UnstableStep, got {other:?}"),
        }
        // The rejected step must not have touched the field.
        assert_eq!(g.profile(), before);
    }

    #[test]
    fn set_bulk_moves_far_boundary() {
        let mut g = grid();
        g.set_bulk(Molar::from_milli_molar(2.0));
        assert!((g.concentration_at(g.nodes() - 1).as_milli_molar() - 2.0).abs() < 1e-12);
        // After long equilibration with blocking wall, whole field → 2 mM.
        g.advance(Seconds::from_seconds(25.0), Seconds::from_millis(2.0));
        assert!((g.concentration_at(0).as_milli_molar() - 2.0).abs() < 0.05);
    }

    #[test]
    fn tiny_grid_rejected() {
        let result = DiffusionGrid::new(
            DiffusionCoefficient::from_square_cm_per_second(1e-5),
            Molar::from_milli_molar(1.0),
            1e-3,
            2,
        );
        assert!(matches!(
            result,
            Err(ElectrochemError::GridTooSmall {
                requested: 2,
                minimum: 3
            })
        ));
    }

    #[test]
    fn advance_checked_matches_unchecked_advance() {
        let mut a = grid();
        let mut b = grid();
        a.set_surface(SurfaceBoundary::Concentration(0.0));
        b.set_surface(SurfaceBoundary::Concentration(0.0));
        a.advance(Seconds::from_millis(50.0), Seconds::from_millis(0.2));
        b.advance_checked(
            Seconds::from_millis(50.0),
            Seconds::from_millis(0.2),
            &crate::checkpoint::NeverCancel,
        )
        .expect("healthy field stays finite");
        assert_eq!(
            a.profile(),
            b.profile(),
            "checked path must be bit-identical"
        );
    }

    #[test]
    fn pre_tripped_token_cancels_immediately() {
        use std::sync::atomic::AtomicBool;
        let mut g = grid();
        let token = AtomicBool::new(true);
        let before = g.profile();
        let result = g.advance_checked(
            Seconds::from_seconds(10.0),
            Seconds::from_millis(1.0),
            &token,
        );
        assert!(matches!(result, Err(ElectrochemError::Cancelled)));
        // Cancellation at step 0 must not have advanced the field.
        assert_eq!(g.profile(), before);
    }

    #[test]
    fn nonfinite_field_is_caught_not_propagated() {
        // Regression for the NaN/Inf guardrail: an infinite outward flux
        // poisons the surface node on the first step; the checked
        // advance must detect it instead of marching NaNs for the full
        // duration.
        let mut g = grid();
        g.set_surface(SurfaceBoundary::Flux(f64::INFINITY));
        let result = g.advance_checked(
            Seconds::from_seconds(1.0),
            g.max_stable_dt() * 0.9,
            &crate::checkpoint::NeverCancel,
        );
        match result {
            Err(ElectrochemError::NonFinite { step }) => {
                // Caught within one poll interval of the poisoning.
                assert!(step <= crate::checkpoint::POLL_INTERVAL + 1, "step {step}");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert!(!g.is_finite());
    }

    #[test]
    fn coarsened_grid_preserves_domain_and_speeds_up() {
        let g = grid(); // 101 nodes over 100 µm
        let coarse = g.coarsened(4).expect("valid factor");
        assert_eq!(coarse.nodes(), 26);
        // Same physical domain: (nodes-1)·dx is unchanged.
        let span = |g: &DiffusionGrid| g.dx_cm() * (g.nodes() - 1) as f64;
        assert!((span(&coarse) - span(&g)).abs() < 1e-12);
        // Coarser grid ⇒ larger stable explicit step ⇒ fewer steps for
        // the same physical duration.
        assert!(coarse.max_stable_dt() > g.max_stable_dt() * 4.0);
        // Degraded physics stays physics: the Cottrell-like depletion
        // still develops on the coarse grid.
        let mut coarse = coarse;
        coarse.set_surface(SurfaceBoundary::Concentration(0.0));
        coarse.advance(Seconds::from_millis(100.0), Seconds::from_millis(0.2));
        assert!(coarse.concentration_at(0).as_milli_molar() < 1e-9);
        assert!(coarse.flux_mol_per_cm2_s() > 0.0);
    }

    #[test]
    fn coarsened_rejects_zero_and_floors_at_minimum() {
        let g = grid();
        assert!(matches!(
            g.coarsened(0),
            Err(ElectrochemError::InvalidParameter {
                name: "coarsening factor",
                ..
            })
        ));
        let floor = g.coarsened(usize::MAX).expect("huge factor still valid");
        assert_eq!(floor.nodes(), 3);
    }

    #[test]
    fn coarsened_flux_approximates_fine_grid_flux() {
        // The brownout accuracy argument in miniature: a 4× coarser
        // grid reproduces the fine-grid Cottrell flux to a few percent.
        let d = DiffusionCoefficient::from_square_cm_per_second(1e-5);
        let bulk = Molar::from_milli_molar(1.0);
        let mut fine = DiffusionGrid::new(d, bulk, 400e-4, 801).expect("valid grid");
        fine.set_surface(SurfaceBoundary::Concentration(0.0));
        let mut coarse = fine.coarsened(4).expect("valid factor");
        let dt = Seconds::from_millis(1.0);
        for _ in 0..1000 {
            fine.step_crank_nicolson(dt);
            coarse.step_crank_nicolson(dt);
        }
        let f = fine.flux_mol_per_cm2_s();
        let c = coarse.flux_mol_per_cm2_s();
        assert!((f - c).abs() / f < 0.05, "fine {f} vs coarse {c}");
    }

    #[test]
    fn bad_domain_length_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let result = DiffusionGrid::new(
                DiffusionCoefficient::from_square_cm_per_second(1e-5),
                Molar::from_milli_molar(1.0),
                bad,
                11,
            );
            assert!(
                matches!(result, Err(ElectrochemError::InvalidLength { .. })),
                "length {bad} accepted"
            );
        }
    }
}
