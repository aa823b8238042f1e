//! The paper's fast BSM pricer: American put in `O(T log² T)` work and
//! `O(T)` span on the left-cone nonlinear-stencil engine (§4.3).
//!
//! The explicit scheme's grid row `n` (steps from expiry) spans the centred
//! columns `k ∈ [−(T−n), T−n]`.  In the shifted columns `c = k + (T − n)`
//! the row becomes `[0, 2(T−n)]`, the apex sits at column 0, and the
//! 3-point kernel `[b, c, a]` on `(k−1, k, k+1)` becomes an anchor-0,
//! span-2 kernel on `(c, c+1, c+2)` — the TOPM put's geometry.  Thm 4.3's
//! drift `f_k − 1 ≤ f_{k,n+1} ≤ f_k` becomes a left move of one to two
//! columns per step, within the engine's bound of the kernel span, and the
//! out-of-the-money payoff (exactly 0) is the engine's implicit zero tail.
//! Unlike the lattice puts, the bound holds from expiry on, so the engine
//! starts from the expiry row itself.
//!
//! The public [`price_american_put`] runs this engine only above
//! the measured crossover depth `T*` of [`crate::engine::dense`]; at or
//! below it, it runs the table-driven dense sweep of [`super::naive`].
//! [`price_american_put_trapezoid`] runs the engine at every depth.

use super::naive::{self, Style};
use super::BsmModel;
use crate::engine::dense::{self, T_STAR_BSM_PUT};
use crate::engine::left_cone::{self, GreenPrefixRow};
use crate::engine::EngineConfig;
use amopt_stencil::{advance, Segment, StencilKernel};

/// The scheme's kernel in shifted columns: `[b, c, a]` anchored at 0.
fn shifted_kernel(model: &BsmModel) -> StencilKernel {
    let (b, c, a) = model.weights();
    StencilKernel::new(vec![b, c, a], 0)
}

/// Obstacle in the columns `c = k + (m − t)`: `green(t, c) = 1 − e^{s_k}`.
fn shifted_green(model: &BsmModel, m: i64) -> impl Fn(u64, i64) -> f64 + Sync + '_ {
    move |t: u64, c: i64| model.exercise(c - (m - t as i64))
}

/// The expiry row in the columns `c = k + m` (`m ≥ T`), whose cone ends at
/// the apex column `m − T`: the exercise region ends at the expiry boundary
/// `f₀`, clamped to the row (`−1`: no green in view, `hi`: all green).
/// Every out-of-the-money payoff is an exact zero, so no red value is
/// stored.
fn expiry_row(model: &BsmModel, m: i64) -> GreenPrefixRow {
    let hi = m + model.steps() as i64;
    let boundary = (model.expiry_boundary() + m).clamp(-1, hi);
    GreenPrefixRow { t: 0, boundary, hi, reds: Segment::new(boundary + 1, vec![]) }
}

/// American put price: the table-driven dense sweep at or below
/// [`T_STAR_BSM_PUT`] steps, the left-cone engine
/// ([`price_american_put_trapezoid`]) above it.
pub fn price_american_put(model: &BsmModel, cfg: &EngineConfig) -> f64 {
    if model.steps() <= T_STAR_BSM_PUT {
        let apex = dense::pooled(|s| naive::apex_value_with_scratch(model, Style::American, s));
        return model.params().strike * apex;
    }
    price_american_put_trapezoid(model, cfg)
}

/// American put price via the FFT trapezoid decomposition
/// (`fft-bsm` in the paper's plots), at any depth.
pub fn price_american_put_trapezoid(model: &BsmModel, cfg: &EngineConfig) -> f64 {
    let t = model.steps() as i64;
    let green = shifted_green(model, t);
    let apex = left_cone::solve_to_root(
        &shifted_kernel(model),
        &green,
        expiry_row(model, t),
        t as u64,
        cfg,
    );
    model.params().strike * apex
}

/// European put under the same discretisation, `O(T log T)` (single FFT).
pub fn price_european_put_fft(model: &BsmModel) -> f64 {
    let t = model.steps() as i64;
    let payoff: Vec<f64> = (-t..=t).map(|k| model.payoff(k)).collect();
    if t == 0 {
        return model.params().strike * payoff[0];
    }
    let out =
        advance(&Segment::new(-t, payoff), &model.kernel(), t as u64, amopt_stencil::Backend::Fft);
    debug_assert_eq!(out.len(), 1);
    model.params().strike * out.values[0]
}

/// American put price plus green-boundary samples `(n, k_n)` at `rows`
/// roughly equally spaced time steps (the early-exercise curve of §4.2,
/// in centred grid columns; `s`-space value is `ln(S/K) + k·Δs`).
///
/// The boundary leaves the apex's cone on the left (`k_n ≥ f₀ − n` while
/// the cone's edge is `−(T − n)`), so the rows here reach `T − f₀` columns
/// further left than pricing needs: that keeps the true boundary in view at
/// every step, at the cost of advancing red cells left of the apex's cone,
/// which pricing alone never reads.
pub fn price_with_boundary_samples(
    model: &BsmModel,
    cfg: &EngineConfig,
    rows: usize,
) -> (f64, Vec<(usize, i64)>) {
    let t = model.steps() as i64;
    let m = t + (t - model.expiry_boundary()).max(0);
    let green = shifted_green(model, m);
    let kernel = shifted_kernel(model);
    let centred = |row: &GreenPrefixRow| (row.t as usize, row.boundary - (m - row.t as i64));
    let mut cur = expiry_row(model, m);
    let mut samples = vec![centred(&cur)];
    let chunk = (t as u64 / rows.max(1) as u64).max(1);
    while cur.t < t as u64 {
        let h = chunk.min(t as u64 - cur.t);
        cur = left_cone::advance_green_prefix(&kernel, &green, &cur, h, cfg);
        samples.push(centred(&cur));
    }
    (model.params().strike * cur.value_at(&green, m - t), samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsm::naive::{self, ExecMode};
    use crate::params::{OptionParams, OptionType};

    fn params() -> OptionParams {
        OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() }
    }

    fn assert_matches_naive(p: OptionParams, steps: usize, tol: f64) {
        let m = BsmModel::new(p, steps).unwrap();
        let want = naive::price_american_put(&m, ExecMode::Serial);
        let got = price_american_put_trapezoid(&m, &EngineConfig::default());
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "steps={steps}: fft {got} vs naive {want}"
        );
    }

    #[test]
    fn matches_naive_paper_params() {
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 3000] {
            assert_matches_naive(params(), steps, 1e-9);
        }
    }

    #[test]
    fn matches_naive_across_moneyness() {
        for spot in [60.0, 110.0, 129.0, 131.0, 200.0, 500.0] {
            assert_matches_naive(OptionParams { spot, ..params() }, 500, 1e-9);
        }
    }

    #[test]
    fn matches_naive_across_vol_and_rates() {
        for vol in [0.08, 0.2, 0.5] {
            for rate in [0.0005, 0.01, 0.06] {
                let p = OptionParams { volatility: vol, rate, ..params() };
                assert_matches_naive(p, 400, 1e-9);
            }
        }
    }

    #[test]
    fn european_fft_matches_naive_european() {
        for steps in [1usize, 64, 1000] {
            let m = BsmModel::new(params(), steps).unwrap();
            let want = naive::price_european_put(&m, ExecMode::Serial);
            let got = price_european_put_fft(&m);
            assert!((got - want).abs() < 1e-9 * want.max(1.0), "steps={steps}");
        }
    }

    #[test]
    fn converges_to_known_american_put_value() {
        // Cross-model: FD American put vs binomial-lattice American put.
        let p = params();
        let steps = 4000;
        let m = BsmModel::new(p, steps).unwrap();
        let fd = price_american_put_trapezoid(&m, &EngineConfig::default());
        let lattice = crate::bopm::BopmModel::new(p, steps).unwrap();
        let bin = crate::bopm::naive::price(
            &lattice,
            OptionType::Put,
            crate::params::ExerciseStyle::American,
            crate::bopm::naive::ExecMode::Serial,
        );
        assert!((fd - bin).abs() < 5e-3 * bin, "fd {fd} vs binomial {bin}");
    }

    #[test]
    fn american_exceeds_european_and_intrinsic() {
        let m = BsmModel::new(params(), 2048).unwrap();
        let am = price_american_put_trapezoid(&m, &EngineConfig::default());
        let eu = price_european_put_fft(&m);
        let intrinsic = (m.params().strike - m.params().spot).max(0.0);
        assert!(am >= eu - 1e-9);
        assert!(am >= intrinsic - 1e-9);
    }

    #[test]
    fn deep_itm_immediate_exercise() {
        let p = OptionParams { spot: 1.0, strike: 130.0, ..params() };
        assert_matches_naive(p, 200, 1e-9);
    }

    #[test]
    fn deep_otm_linear_path() {
        let p = OptionParams { spot: 10_000.0, strike: 1.0, ..params() };
        let m = BsmModel::new(p, 300).unwrap();
        assert!(m.expiry_boundary() < -300);
        assert_matches_naive(p, 300, 1e-9);
    }

    #[test]
    fn boundary_samples_match_dense_boundary() {
        let m = BsmModel::new(params(), 512).unwrap();
        let (_, dense) = naive::apex_value_with_boundary(&m);
        let (price, samples) = price_with_boundary_samples(&m, &EngineConfig::default(), 8);
        let want = naive::price_american_put(&m, ExecMode::Serial);
        assert!((price - want).abs() < 1e-9 * want.max(1.0));
        let t = m.steps() as i64;
        for (n, k) in samples {
            // Comparable only while the dense sweep's shrinking cone still
            // contains the boundary.
            let half = t - n as i64;
            if n == 0 || dense[n] == i64::MIN || k.abs() >= half {
                continue;
            }
            assert_eq!(k, dense[n], "row {n}");
        }
    }

    #[test]
    fn exercise_boundary_is_monotone_decreasing_in_s() {
        // Thm 4.2: the early-exercise boundary decreases with time-to-expiry.
        let m = BsmModel::new(params(), 2048).unwrap();
        let (_, samples) = price_with_boundary_samples(&m, &EngineConfig::default(), 32);
        for w in samples.windows(2) {
            assert!(w[1].1 <= w[0].1, "boundary rose: {:?} -> {:?}", w[0], w[1]);
        }
    }
}
