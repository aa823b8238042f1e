//! Nonlinear-stencil solvers — the paper's primary contribution.
//!
//! A *nonlinear stencil* in the sense of the paper updates each cell with
//! `max(linear combination of the previous row, closed-form obstacle)`.
//! The space-time grid then splits into a **red** region (linear update wins)
//! and a **green** region (obstacle wins) separated by a monotone boundary
//! whose drift per step is bounded by the kernel span (Cor. 2.7 / Thm 4.3 /
//! Cor. A.6): at most one column for lattice calls, `σ − 1` for lattice
//! puts, and two for the BSM put in shifted columns.
//!
//! Two engines cover the geometries used by the pricing models, both with
//! anchor-0 kernels (the cone opens rightward):
//!
//! * [`right_cone`]: green region on the *right*, boundary drifts left —
//!   BOPM (§2.3) and TOPM (§3, App. A.3) American **calls**;
//! * [`left_cone`]: green region on the *left*, boundary drifting left —
//!   BOPM/TOPM American **puts** (the mirror geometry under the discrete
//!   put–call symmetry) and the BSM explicit finite-difference put (§4.3),
//!   whose centred 3-point kernel becomes an anchor-0, span-2 kernel in the
//!   shifted columns `c = k + (T − t)`.
//!
//! Below a measured depth `T*` per (model, option type) the public fast
//! pricers skip the engines altogether: [`dense`] holds the crossovers and
//! the row kernel of the table-driven `Θ(T²)` sweep they run instead.
//!
//! Both advance a compressed row representation ([`RedRow`] /
//! [`left_cone::GreenPrefixRow`]) by `h` steps in `O(h log² h)` work and
//! `O(h)` span, calling the linear FFT advance of `amopt-stencil` on regions
//! whose redness is certified by the drift bound, and recursing on a
//! boundary window of half height.  The call engine works in premium space
//! (`δ = G − green`, the affine-correction trick below); the put engine
//! works in raw value space, where the grid values are bounded by the
//! strike.

pub mod dense;
pub mod left_cone;
pub mod right_cone;

use amopt_stencil::{Backend, Segment, StencilKernel};

/// Times the enclosing scope as one kernel phase when the crate is built
/// with the `obs` feature; expands to nothing otherwise, so the default
/// build pays no cost — not even the `Instant::now` call.
macro_rules! kernel_scope {
    ($phase:ident) => {
        #[cfg(feature = "obs")]
        let _kernel_scope =
            amopt_obs::kernel::KernelScope::start(amopt_obs::kernel::KernelPhase::$phase);
    };
}
pub(crate) use kernel_scope;

/// Obstacle (green-region closed form) of the shape all three pricing models
/// share: `green(t, c) = α·φ(t, c) + β` where the *node function* `φ` is an
/// eigenfunction of one linear stencil step `L` (`L φ_t = λ·φ_{t+1}`) and the
/// constants have eigenvalue `μ = Σ kernel taps` (`L 1 = μ·1`).
///
/// This structure is what makes the **premium-space** formulation possible:
/// the engines store `δ(t,c) = G(t,c) − green(t,c) ≥ 0` instead of raw grid
/// values.  On green cells `δ = 0` *exactly*, so rows extend with exact
/// zeros, and `δ` is bounded by a constant independent of `T` — while raw
/// grid values grow like `u^T`, whose dynamic range would drown the FFT's
/// absolute error (a real failure we observed at `T ≈ 2×10⁴`).  After `h`
/// linear steps the decomposition gives the exact affine correction
///
/// `δ(t+h, c) = (L^h δ(t,·))(c) + α(λ^h − 1)·φ(t+h, c) + β(μ^h − 1)`.
pub struct ExpObstacle<P> {
    /// Node function `φ(t, c)` (e.g. the BOPM node price `S·u^{2c−(T−t)}`).
    pub phi: P,
    /// Eigenvalue of `φ`: `L φ_t = λ φ_{t+1}` (e.g. `e^{−YΔt}`).
    pub lambda: f64,
    /// Eigenvalue of constants: sum of kernel taps (e.g. `e^{−RΔt}`).
    pub mu: f64,
    /// Coefficient of `φ` in the obstacle.
    pub alpha: f64,
    /// Constant term of the obstacle.
    pub beta: f64,
}

impl<P: Fn(u64, i64) -> f64 + Sync> ExpObstacle<P> {
    /// Builds an obstacle spec.  `μ` is derived from the actual kernel taps
    /// so the scalar corrections match what repeated application of `L`
    /// computes numerically; `λ` is model-specific
    /// (`λ = Σ_m w_m φ(t, c+anchor+m) / φ(t+1, c)`, column-independent for
    /// exponential node functions) and supplied by the caller.
    pub fn new(phi: P, kernel: &StencilKernel, lambda: f64, alpha: f64, beta: f64) -> Self {
        let mu = kernel.weights().iter().sum();
        ExpObstacle { phi, lambda, mu, alpha, beta }
    }

    /// Obstacle value `green(t, c)`.
    #[inline]
    pub fn green(&self, t: u64, c: i64) -> f64 {
        self.alpha * (self.phi)(t, c) + self.beta
    }

    /// Coefficients `(a, b)` of the `h`-step drift
    /// `A_h(t+h, c) = a·φ(t+h, c) + b`.
    #[inline]
    pub fn drift_coeffs(&self, h: u64) -> (f64, f64) {
        let pow = |base: f64| -> f64 {
            debug_assert!(base > 0.0);
            (h as f64 * base.ln()).exp()
        };
        (self.alpha * (pow(self.lambda) - 1.0), self.beta * (pow(self.mu) - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amopt_stencil::StencilKernel;

    fn obstacle() -> ExpObstacle<impl Fn(u64, i64) -> f64 + Sync> {
        // BOPM-like: φ = u^{2c−(T−t)}, λ = s0/u + s1·u with a 64-step grid.
        let u: f64 = 1.01;
        let (s0, s1) = (0.49_f64, 0.505_f64);
        let kernel = StencilKernel::new(vec![s0, s1], 0);
        let phi = move |t: u64, c: i64| u.powi((2 * c - (64 - t as i64)) as i32);
        ExpObstacle::new(phi, &kernel, s0 / u + s1 * u, 1.0, -2.5)
    }

    #[test]
    fn green_combines_phi_and_constant() {
        let ob = obstacle();
        let t = 3u64;
        let c = 7i64;
        assert!((ob.green(t, c) - ((ob.phi)(t, c) - 2.5)).abs() < 1e-15);
    }

    #[test]
    fn mu_is_kernel_tap_sum() {
        let ob = obstacle();
        assert!((ob.mu - (0.49 + 0.505)).abs() < 1e-15);
    }

    #[test]
    fn drift_coeffs_compose_like_the_stencil() {
        // A_h must equal the closed form α(λ^h − 1)φ + β(μ^h − 1); check the
        // one-step case against a direct application of L to green.
        let ob = obstacle();
        let (da, db) = ob.drift_coeffs(1);
        let (t, c) = (5u64, 9i64);
        // L green(t,·)(c) = s0·green(t,c) + s1·green(t,c+1)
        let lg = 0.49 * ob.green(t, c) + 0.505 * ob.green(t, c + 1);
        let want = lg - ob.green(t + 1, c);
        let got = da * (ob.phi)(t + 1, c) + db;
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn drift_is_zero_at_h_zero_and_grows_multiplicatively() {
        let ob = obstacle();
        let (a0, b0) = ob.drift_coeffs(0);
        assert_eq!((a0, b0), (0.0, 0.0));
        let (a1, _) = ob.drift_coeffs(1);
        let (a2, _) = ob.drift_coeffs(2);
        // α(λ²−1) = α(λ−1)(λ+1)
        assert!((a2 - a1 * (ob.lambda + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn red_row_accounting() {
        use amopt_stencil::Segment;
        let row = RedRow { t: 4, reds: Segment::new(3, vec![1.0, 2.0]), boundary: 4 };
        assert_eq!(row.red_count(), 2);
        assert!(!row.is_all_green());
        row.assert_consistent();
        let empty = RedRow { t: 0, reds: Segment::new(5, vec![]), boundary: 4 };
        assert!(empty.is_all_green());
        assert_eq!(empty.red_count(), 0);
    }
}

/// Tuning knobs shared by the two engines.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Trapezoid height at or below which the naive loop runs
    /// (the paper found 8 empirically optimal; see §5.1).
    pub base_cutoff: u64,
    /// Heights below this run without fork-join (task overhead dominates).
    pub sequential_below: u64,
    /// Linear-advance backend for certified-red regions.
    pub backend: Backend,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { base_cutoff: 8, sequential_below: 512, backend: Backend::Fft }
    }
}

/// A row of the space-time grid in compressed premium form for the
/// right-cone engine: red (continuation-valued) cells occupy
/// `[reds.start, boundary]` and store the **premium** `δ = G − green ≥ 0`;
/// every cell right of `boundary` is green with `δ = 0` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct RedRow {
    /// Time index: steps elapsed from the known initial row (expiry).
    pub t: u64,
    /// Stored red premiums over `[reds.start, boundary]`; empty iff
    /// `boundary < reds.start`.
    pub reds: Segment,
    /// Last red column; `reds.start − 1` encodes an all-green window.
    pub boundary: i64,
}

impl RedRow {
    /// Number of stored red cells.
    #[inline]
    pub fn red_count(&self) -> i64 {
        (self.boundary - self.reds.start + 1).max(0)
    }

    /// True when no red cell remains in the window.
    #[inline]
    pub fn is_all_green(&self) -> bool {
        self.boundary < self.reds.start
    }

    /// Internal consistency between the segment extent and the boundary.
    pub fn assert_consistent(&self) {
        debug_assert_eq!(
            self.reds.len() as i64,
            self.red_count(),
            "red segment [{}..{}] disagrees with boundary {}",
            self.reds.start,
            self.reds.end(),
            self.boundary
        );
    }
}
