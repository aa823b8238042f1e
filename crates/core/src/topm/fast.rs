//! The paper's fast TOPM pricer: American call in `O(T log² T)` work and
//! `O(T)` span (§3 / Appendix A.3), via the same right-cone engine as BOPM —
//! only the kernel (three taps, cone slope 2) and the node function differ.
//!
//! The extended-grid / first-backward-step treatment mirrors
//! [`crate::bopm::fast`]: row `T−1` is materialised from the payoff closed
//! form with a bracketed boundary search, and `Y = 0` short-circuits to the
//! European FFT pass.
//!
//! The public `price_american_*` entry points run these engines only above
//! the measured crossover depth `T*` of [`crate::engine::dense`]; at or
//! below it they run the table-driven dense sweep of [`super::naive`].
//! The `*_trapezoid` entry points run the engines at every depth.

use super::european::price_european_fft;
use super::{naive, TopmModel};
use crate::engine::dense::{self, T_STAR_TOPM_CALL, T_STAR_TOPM_PUT};
use crate::engine::left_cone::{self, GreenPrefixRow};
use crate::engine::right_cone::{advance_red_row, solve_to_root};
use crate::engine::{EngineConfig, ExpObstacle, RedRow};
use crate::params::{ExerciseStyle, OptionType};
use amopt_stencil::Segment;

/// Obstacle spec for the American call: `green(t, c) = φ(t, c) − K` with
/// `φ(t, c) = S·u^{c − (T−t)}` and `L φ_t = e^{−YΔt} φ_{t+1}`
/// (exact by the trinomial first-moment identity, see the module docs of
/// [`super`]).
fn call_obstacle(model: &TopmModel) -> ExpObstacle<impl Fn(u64, i64) -> f64 + Sync + '_> {
    let t_total = model.steps();
    let phi = move |t: u64, c: i64| model.node_price(t_total - t as usize, c);
    ExpObstacle::new(phi, &model.kernel(), model.lambda(), 1.0, -model.params().strike)
}

/// Continuation value of a row-`T−1` cell, straight from the payoff row.
#[inline]
fn first_step_continuation(model: &TopmModel, j: i64) -> f64 {
    let t = model.steps();
    let (s0, s1, s2) = model.weights();
    s0 * model.exercise_call(t, j).max(0.0)
        + s1 * model.exercise_call(t, j + 1).max(0.0)
        + s2 * model.exercise_call(t, j + 2).max(0.0)
}

/// Premium of cell `(T−1, j)`; red iff `≥ 0`.
#[inline]
fn first_step_premium(model: &TopmModel, j: i64) -> f64 {
    first_step_continuation(model, j) - model.exercise_call(model.steps() - 1, j)
}

#[inline]
fn first_step_red(model: &TopmModel, j: i64) -> bool {
    first_step_premium(model, j) >= 0.0
}

/// Builds row `T−1` (engine time `t = 1`) with a bracketed-binary-search
/// boundary (single crossing holds at `T−1` by Lemma A.1's induction).
fn first_step_row(model: &TopmModel) -> RedRow {
    let start = model.leaf_call_boundary().max(0);
    let (mut lo, mut hi);
    if first_step_red(model, start) {
        lo = start;
        hi = start + 1;
        let mut step = 1i64;
        while first_step_red(model, hi) {
            lo = hi;
            hi += step;
            step *= 2;
        }
    } else {
        hi = start;
        lo = start - 1;
        let mut step = 1i64;
        while lo >= 0 && !first_step_red(model, lo) {
            hi = lo;
            lo -= step;
            step *= 2;
        }
        lo = lo.max(-1);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if first_step_red(model, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let premiums: Vec<f64> = (0..=lo).map(|j| first_step_premium(model, j)).collect();
    RedRow { t: 1, reds: Segment::new(0, premiums), boundary: lo }
}

/// Merton: with `Y = 0` early exercise of a call never pays, so the
/// American call is the European one and the trapezoid entry prices it with
/// a single European FFT pass.
fn call_is_european(model: &TopmModel) -> bool {
    // amopt-lint: allow(float-eq) -- Y = 0.0 exactly is the Merton sentinel, not a tolerance check; any nonzero yield prices American
    model.params().dividend_yield == 0.0
}

/// The put-side mirror: with `R = 0` early exercise of a put never pays.
fn put_is_european(model: &TopmModel) -> bool {
    // amopt-lint: allow(float-eq) -- R = 0.0 exactly is the no-early-exercise sentinel for puts, not a tolerance check; any nonzero rate prices American
    model.params().rate == 0.0
}

/// American call price: the table-driven dense kernel at or below
/// [`T_STAR_TOPM_CALL`] steps, the FFT trapezoid engine
/// ([`price_american_call_trapezoid`]) above it.  A zero-yield call always
/// takes the trapezoid entry, which prices it with one European FFT pass
/// (Merton) — cheaper than the dense sweep once `T` passes about 1000.
pub fn price_american_call(model: &TopmModel, cfg: &EngineConfig) -> f64 {
    if model.steps() <= T_STAR_TOPM_CALL && !call_is_european(model) {
        return dense::pooled(|s| {
            naive::price_with_scratch(model, OptionType::Call, ExerciseStyle::American, s)
        });
    }
    price_american_call_trapezoid(model, cfg)
}

/// American call price via the FFT trapezoid decomposition
/// (`fft-topm` in the paper's plots), at any depth.
pub fn price_american_call_trapezoid(model: &TopmModel, cfg: &EngineConfig) -> f64 {
    if call_is_european(model) {
        return price_european_fft(model, OptionType::Call);
    }
    let t_total = model.steps() as u64;
    let row = first_step_row(model);
    if row.is_all_green() {
        return model.exercise_call(0, 0);
    }
    let obstacle = call_obstacle(model);
    solve_to_root(&model.kernel(), &obstacle, row, t_total, 0, cfg)
}

/// American call price plus the early-exercise boundary sampled at `rows`
/// roughly equally spaced time steps (the trinomial mirror of
/// [`crate::bopm::fast::price_with_boundary_samples`]).
///
/// Returns `(price, samples)`; each sample is `(i, j_i)` with grid row `i`
/// (market time step) and *extended-grid* boundary column `j_i` (−1 = all
/// green; values at or above the row width `2i` mean the triangle row is
/// all red).  One fast `O(T log² T)` pricing pass — this retires the old
/// `Θ(T²)` dense sweep as the only way to see a trinomial frontier.
pub fn price_with_boundary_samples(
    model: &TopmModel,
    cfg: &EngineConfig,
    rows: usize,
) -> (f64, Vec<(usize, i64)>) {
    let t_total = model.steps() as u64;
    let mut samples = Vec::with_capacity(rows + 2);
    samples.push((model.steps(), model.leaf_call_boundary()));
    if call_is_european(model) || t_total == 1 {
        let price = price_american_call_trapezoid(model, cfg);
        return (price, samples);
    }
    let kernel = model.kernel();
    let obstacle = call_obstacle(model);
    let mut cur = first_step_row(model);
    samples.push((model.steps() - 1, cur.boundary));
    let chunk = (t_total / rows.max(1) as u64).max(1);
    while cur.t < t_total && !cur.is_all_green() {
        let h = chunk.min(t_total - cur.t);
        cur = advance_red_row(&kernel, &obstacle, &cur, h, cfg);
        samples.push((model.steps() - cur.t as usize, cur.boundary));
    }
    let green_root = model.exercise_call(0, 0);
    let price = if cur.t == t_total && cur.boundary >= 0 && cur.reds.contains(0) {
        cur.reds.get(0) + green_root
    } else {
        green_root
    };
    (price, samples)
}

// ---------------------------------------------------------------------------
// American put — the left-cone engine.  On the trinomial lattice a fixed
// column gains a full factor of `u` per backward step, so the put boundary
// drifts left one-to-two columns every step (the span-2 case of the
// left-cone drift law); the engine's downward boundary scan handles it.
// ---------------------------------------------------------------------------

/// Obstacle closure for the American put: `green(t, c) = K − φ(t, c)`.
fn put_green(model: &TopmModel) -> impl Fn(u64, i64) -> f64 + Sync + '_ {
    let t_total = model.steps();
    move |t: u64, c: i64| model.exercise_put(t_total - t as usize, c)
}

/// Continuation value of a row-`T−1` cell, straight from the payoff row.
#[inline]
fn first_step_put_continuation(model: &TopmModel, j: i64) -> f64 {
    let t = model.steps();
    let (s0, s1, s2) = model.weights();
    s0 * model.exercise_put(t, j).max(0.0)
        + s1 * model.exercise_put(t, j + 1).max(0.0)
        + s2 * model.exercise_put(t, j + 2).max(0.0)
}

/// Whether cell `(T−1, j)` is green (exercise beats continuation).
#[inline]
fn first_step_put_green(model: &TopmModel, j: i64) -> bool {
    model.exercise_put(model.steps() - 1, j) >= first_step_put_continuation(model, j)
}

/// Builds row `T−1` (engine time `t = 1`) with a bracketed-binary-search
/// last green column — see [`crate::bopm::fast`]'s put driver for why the
/// expiry transition is materialised explicitly.
fn first_step_put_row(model: &TopmModel) -> GreenPrefixRow {
    let t = model.steps() as i64;
    let leaf = model.leaf_call_boundary();
    let lo = left_cone::last_green_from(leaf, |j| first_step_put_green(model, j));
    let row_hi = 2 * (t - 1);
    let support_end = leaf.min(row_hi);
    let values: Vec<f64> =
        ((lo + 1)..=support_end).map(|j| first_step_put_continuation(model, j)).collect();
    GreenPrefixRow { t: 1, boundary: lo, hi: row_hi, reds: Segment::new(lo + 1, values) }
}

/// American put price: the table-driven dense kernel at or below
/// [`T_STAR_TOPM_PUT`] steps, the left-cone engine
/// ([`price_american_put_trapezoid`]) above it.  A zero-rate put always
/// takes the trapezoid entry, which prices it with one European FFT pass.
pub fn price_american_put(model: &TopmModel, cfg: &EngineConfig) -> f64 {
    if model.steps() <= T_STAR_TOPM_PUT && !put_is_european(model) {
        return dense::pooled(|s| {
            naive::price_with_scratch(model, OptionType::Put, ExerciseStyle::American, s)
        });
    }
    price_american_put_trapezoid(model, cfg)
}

/// American put price via the left-cone FFT trapezoid decomposition —
/// `O(T log² T)` work and `O(T)` span — at any depth.
pub fn price_american_put_trapezoid(model: &TopmModel, cfg: &EngineConfig) -> f64 {
    if put_is_european(model) {
        // Zero rate ⇒ no early-exercise premium for puts (continuation
        // ≥ K·e^{−RΔt} − φ·e^{−YΔt} = K − φ·e^{−YΔt} ≥ K − φ node by node).
        return price_european_fft(model, OptionType::Put);
    }
    let t_total = model.steps() as u64;
    let row = first_step_put_row(model);
    if row.is_all_green() {
        return model.exercise_put(0, 0);
    }
    let green = put_green(model);
    left_cone::solve_to_root(&model.kernel(), &green, row, t_total, cfg)
}

/// American put price plus the early-exercise boundary sampled at `rows`
/// roughly equally spaced time steps (the trinomial mirror of
/// [`crate::bopm::fast::price_put_with_boundary_samples`]).
///
/// Returns `(price, samples)`; each sample is `(i, f_i)` with grid row `i`
/// (market time step) and the last green (exercise-optimal) column `f_i`:
/// `−1` means no exercise region in the row, values at or above the row
/// width `2i` mean the whole row exercises.
pub fn price_put_with_boundary_samples(
    model: &TopmModel,
    cfg: &EngineConfig,
    rows: usize,
) -> (f64, Vec<(usize, i64)>) {
    let t_total = model.steps() as u64;
    let mut samples = Vec::with_capacity(rows + 2);
    samples.push((model.steps(), model.leaf_call_boundary()));
    if put_is_european(model) || t_total == 1 {
        let price = price_american_put_trapezoid(model, cfg);
        return (price, samples);
    }
    let kernel = model.kernel();
    let green = put_green(model);
    let mut cur = first_step_put_row(model);
    samples.push((model.steps() - 1, cur.boundary));
    let chunk = (t_total / rows.max(1) as u64).max(1);
    while cur.t < t_total && !cur.is_all_green() {
        let h = chunk.min(t_total - cur.t);
        cur = left_cone::advance_green_prefix(&kernel, &green, &cur, h, cfg);
        samples.push((model.steps() - cur.t as usize, cur.boundary));
    }
    let price = if cur.t < t_total {
        // Green absorbs through the apex.
        model.exercise_put(0, 0)
    } else {
        cur.value_at(&green, 0)
    };
    (price, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ExerciseStyle, OptionParams};
    use crate::topm::naive::{self, ExecMode};

    fn assert_matches_naive(params: OptionParams, steps: usize, tol: f64) {
        let m = TopmModel::new(params, steps).unwrap();
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_call_trapezoid(&m, &EngineConfig::default());
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "steps={steps}: fft {got} vs naive {want}"
        );
    }

    #[test]
    fn matches_naive_paper_params() {
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 2500] {
            assert_matches_naive(OptionParams::paper_defaults(), steps, 1e-9);
        }
    }

    #[test]
    fn matches_naive_at_large_t() {
        assert_matches_naive(OptionParams::paper_defaults(), 10_000, 1e-9);
    }

    #[test]
    fn matches_naive_across_moneyness() {
        let base = OptionParams::paper_defaults();
        for spot in [60.0, 110.0, 129.5, 131.0, 250.0] {
            assert_matches_naive(OptionParams { spot, ..base }, 400, 1e-9);
        }
    }

    #[test]
    fn matches_naive_across_vol_and_rates() {
        let base = OptionParams::paper_defaults();
        for vol in [0.08, 0.2, 0.5] {
            for (rate, div) in [(0.0, 0.0163), (0.05, 0.02), (0.001, 0.07), (0.07, 0.004)] {
                let p = OptionParams { volatility: vol, rate, dividend_yield: div, ..base };
                assert_matches_naive(p, 300, 1e-8);
            }
        }
    }

    #[test]
    fn zero_dividend_equals_european() {
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        assert_matches_naive(p, 600, 1e-9);
    }

    #[test]
    fn deep_itm_immediate_exercise() {
        let p = OptionParams {
            spot: 5_000.0,
            strike: 10.0,
            dividend_yield: 0.2,
            ..OptionParams::paper_defaults()
        };
        assert_matches_naive(p, 128, 1e-9);
    }

    // --- American put (left-cone engine) ---

    fn assert_put_matches_naive(params: OptionParams, steps: usize, tol: f64) {
        let m = TopmModel::new(params, steps).unwrap();
        let want = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_put_trapezoid(&m, &EngineConfig::default());
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "steps={steps}: fft put {got} vs naive {want}"
        );
    }

    #[test]
    fn put_matches_naive_paper_params() {
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 2500] {
            assert_put_matches_naive(OptionParams::paper_defaults(), steps, 1e-9);
        }
    }

    #[test]
    fn put_matches_naive_at_large_t() {
        assert_put_matches_naive(OptionParams::paper_defaults(), 10_000, 1e-9);
    }

    #[test]
    fn put_matches_naive_across_moneyness() {
        let base = OptionParams::paper_defaults();
        for spot in [60.0, 110.0, 129.5, 131.0, 250.0] {
            assert_put_matches_naive(OptionParams { spot, ..base }, 400, 1e-9);
        }
    }

    #[test]
    fn put_matches_naive_across_vol_and_rates() {
        let base = OptionParams::paper_defaults();
        for vol in [0.08, 0.2, 0.5] {
            for (rate, div) in [(0.0163, 0.0), (0.05, 0.02), (0.001, 0.07), (0.07, 0.004)] {
                let p = OptionParams { volatility: vol, rate, dividend_yield: div, ..base };
                assert_put_matches_naive(p, 300, 1e-8);
            }
        }
    }

    #[test]
    fn zero_rate_put_equals_european() {
        let p = OptionParams { rate: 0.0, ..OptionParams::paper_defaults() };
        assert_put_matches_naive(p, 600, 1e-9);
        let m = TopmModel::new(p, 600).unwrap();
        assert_eq!(
            price_american_put_trapezoid(&m, &EngineConfig::default()),
            super::price_european_fft(&m, OptionType::Put)
        );
    }

    #[test]
    fn deep_itm_put_immediate_exercise() {
        let p = OptionParams {
            spot: 10.0,
            strike: 5_000.0,
            rate: 0.2,
            ..OptionParams::paper_defaults()
        };
        assert_put_matches_naive(p, 128, 1e-9);
    }

    #[test]
    fn put_boundary_drops_one_to_two_columns_per_interior_step() {
        // The span-2 drift law the left-cone engine is built around.
        let m = TopmModel::new(OptionParams::paper_defaults(), 400).unwrap();
        let t = m.steps();
        let (s0, s1, s2) = m.weights();
        let mut row: Vec<f64> = (0..=2 * t as i64).map(|j| m.exercise_put(t, j).max(0.0)).collect();
        let mut prev: Option<i64> = None;
        for i in (0..t).rev() {
            let mut f = -1i64;
            let mut next = Vec::with_capacity(2 * i + 1);
            for j in 0..=2 * i as i64 {
                let cont =
                    s0 * row[j as usize] + s1 * row[j as usize + 1] + s2 * row[j as usize + 2];
                let ex = m.exercise_put(i, j);
                if ex >= cont {
                    f = j;
                }
                next.push(cont.max(ex));
            }
            if let Some(p) = prev {
                if f >= 0 {
                    assert!(f < p && f >= p - 2, "row {i}: boundary {f} after {p}");
                }
            }
            prev = Some(f);
            row = next;
        }
    }

    #[test]
    fn boundary_samples_match_naive_boundary() {
        let m = TopmModel::new(OptionParams::paper_defaults(), 512).unwrap();
        let (_, dense) = naive::price_american_with_boundary(&m, OptionType::Call);
        let (price, samples) = price_with_boundary_samples(&m, &EngineConfig::default(), 16);
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((price - want).abs() < 1e-9 * want.max(1.0));
        assert!(samples.len() > 10, "expected a sampled frontier");
        for (i, j) in samples {
            if j <= 2 * i as i64 {
                assert_eq!(j, dense[i], "row {i}");
            } else {
                // Extended boundary beyond the hypotenuse ⇒ triangle row all red.
                assert_eq!(dense[i], 2 * i as i64, "row {i}");
            }
        }
    }

    #[test]
    fn put_boundary_samples_match_dense_tracking() {
        let m = TopmModel::new(OptionParams::paper_defaults(), 512).unwrap();
        // Dense last-green tracking: largest j with exercise ≥ continuation.
        let t = m.steps();
        let (s0, s1, s2) = m.weights();
        let mut row: Vec<f64> = (0..=2 * t as i64).map(|j| m.exercise_put(t, j).max(0.0)).collect();
        let mut dense = vec![-1i64; t]; // dense[i] = boundary of row i
        for i in (0..t).rev() {
            let mut f = -1i64;
            let mut next = Vec::with_capacity(2 * i + 1);
            for j in 0..=2 * i as i64 {
                let cont =
                    s0 * row[j as usize] + s1 * row[j as usize + 1] + s2 * row[j as usize + 2];
                let ex = m.exercise_put(i, j);
                if ex >= cont {
                    f = j;
                }
                next.push(cont.max(ex));
            }
            dense[i] = f;
            row = next;
        }
        let (price, samples) = price_put_with_boundary_samples(&m, &EngineConfig::default(), 16);
        let want = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        assert!((price - want).abs() < 1e-9 * want.max(1.0));
        assert!(samples.len() > 10, "expected a sampled frontier");
        for &(i, f) in &samples[1..] {
            // Expiry sample (index 0) uses the leaf formula; engine rows are
            // compared against the dense tracker directly.
            assert_eq!(f, dense[i], "row {i}");
        }
    }

    #[test]
    fn boundary_sampling_price_is_bitwise_the_plain_fast_price_on_shortcuts() {
        // Y = 0 call and R = 0 put short-circuit to the European FFT pass;
        // the sampling wrappers must return exactly the plain price and the
        // lone expiry sample.
        let cfg = EngineConfig::default();
        let y0 = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let m = TopmModel::new(y0, 300).unwrap();
        let (p, s) = price_with_boundary_samples(&m, &cfg, 8);
        assert_eq!(p.to_bits(), price_american_call_trapezoid(&m, &cfg).to_bits());
        assert_eq!(s.len(), 1);
        let r0 = OptionParams { rate: 0.0, ..OptionParams::paper_defaults() };
        let m = TopmModel::new(r0, 300).unwrap();
        let (p, s) = price_put_with_boundary_samples(&m, &cfg, 8);
        assert_eq!(p.to_bits(), price_american_put_trapezoid(&m, &cfg).to_bits());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn put_agrees_with_binomial_model() {
        let p = OptionParams::paper_defaults();
        let tri = TopmModel::new(p, 2000).unwrap();
        let bin = crate::bopm::BopmModel::new(p, 2000).unwrap();
        let v_tri = price_american_put_trapezoid(&tri, &EngineConfig::default());
        let v_bin = crate::bopm::fast::price_american_put_trapezoid(&bin, &EngineConfig::default());
        assert!((v_tri - v_bin).abs() < 5e-3 * v_bin.max(1.0), "tri {v_tri} vs bin {v_bin}");
    }

    #[test]
    fn agrees_with_binomial_model() {
        // Both lattices approximate the same continuous model; at moderate T
        // their American call prices should agree to discretisation error.
        let p = OptionParams::paper_defaults();
        let tri = TopmModel::new(p, 2000).unwrap();
        let bin = crate::bopm::BopmModel::new(p, 2000).unwrap();
        let v_tri = price_american_call_trapezoid(&tri, &EngineConfig::default());
        let v_bin =
            crate::bopm::fast::price_american_call_trapezoid(&bin, &EngineConfig::default());
        assert!((v_tri - v_bin).abs() < 5e-3 * v_bin, "tri {v_tri} vs bin {v_bin}");
    }
}
