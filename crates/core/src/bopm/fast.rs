//! The paper's fast BOPM pricer: American call in `O(T log² T)` work and
//! `O(T)` span via the right-cone nonlinear-stencil engine (§2.3).
//!
//! ## Extended grid and the first backward step
//!
//! The engine runs on the column-*unbounded* extension of the lattice (the
//! red–green lemmas' algebra never uses the hypotenuse, and the root's
//! dependency cone only reaches column `T`, so the answer is unchanged).
//! On the extension the "boundary drifts left" invariant (Cor. 2.7) holds
//! for every *interior* transition — Lemma 2.3 applies to any row that has
//! children — but **not necessarily** for the expiry → `T−1` transition:
//! when `(1 − e^{−RΔt}) > (1 − e^{−YΔt})·u²` a cell right of the expiry
//! boundary can turn red, i.e. the boundary jumps *right* exactly once.
//! (The paper avoids this by working inside the triangle, where the
//! hypotenuse truncates the red region.)  The driver therefore materialises
//! row `T−1` explicitly — every cell there has a closed form in the payoff —
//! finds its honest boundary by bracketed binary search over the single
//! crossing (Lemma 2.2 holds at `T−1` regardless), and starts the engine
//! from `t = 1`.
//!
//! The `Y = 0` contract is the degenerate limit: no interior cell is ever
//! green (Merton — early exercise of a call on a non-dividend stock never
//! pays), so pricing collapses to the `O(T log T)` European FFT pass.
//!
//! Rows are stored as **premiums** `δ = G − exercise ≥ 0` (see
//! [`crate::engine`]): at expiry `δ = (0 − ex)₊ = (K − S·u^{2j−T})₊`, bounded
//! by `K`, which keeps FFT inputs in a `T`-independent dynamic range.
//!
//! The public `price_american_*` entry points run these engines only above
//! the measured crossover depth `T*` of [`crate::engine::dense`]; at or
//! below it they run the table-driven dense sweep of [`super::naive`].
//! The `*_trapezoid` entry points run the engines at every depth.

use super::european::price_european_fft;
use super::{naive, BopmModel};
use crate::engine::dense::{self, T_STAR_BOPM_CALL, T_STAR_BOPM_PUT};
use crate::engine::left_cone::{self, GreenPrefixRow};
use crate::engine::right_cone::{advance_red_row, solve_to_root};
use crate::engine::{EngineConfig, ExpObstacle, RedRow};
use crate::params::{ExerciseStyle, OptionType};
use amopt_stencil::Segment;

/// Obstacle spec for the American call: `green(t, c) = φ(t, c) − K` with
/// `φ(t, c) = S·u^{2c − (T−t)}` and `L φ_t = e^{−YΔt} φ_{t+1}`
/// (the identity `s0/u + s1·u = e^{−YΔt}` from Lemma 2.2's proof).
fn call_obstacle(model: &BopmModel) -> ExpObstacle<impl Fn(u64, i64) -> f64 + Sync + '_> {
    let t_total = model.steps();
    let phi = move |t: u64, c: i64| model.node_price(t_total - t as usize, c);
    let lambda = model.s0() / model.up() + model.s1() * model.up();
    ExpObstacle::new(phi, &model.kernel(), lambda, 1.0, -model.params().strike)
}

/// Continuation value of a row-`T−1` cell, straight from the payoff row.
#[inline]
fn first_step_continuation(model: &BopmModel, j: i64) -> f64 {
    let t = model.steps();
    let p0 = model.exercise_call(t, j).max(0.0);
    let p1 = model.exercise_call(t, j + 1).max(0.0);
    model.s0() * p0 + model.s1() * p1
}

/// Premium (continuation − exercise) of cell `(T−1, j)`; red iff `≥ 0`.
#[inline]
fn first_step_premium(model: &BopmModel, j: i64) -> f64 {
    first_step_continuation(model, j) - model.exercise_call(model.steps() - 1, j)
}

#[inline]
fn first_step_red(model: &BopmModel, j: i64) -> bool {
    first_step_premium(model, j) >= 0.0
}

/// Builds row `T−1` (engine time `t = 1`) with an honestly located boundary,
/// immune to the one-off rightward jump described in the module docs.
///
/// Single crossing holds at row `T−1` (Lemma 2.2's induction starts at the
/// payoff row), so the boundary is found by galloping to a red/green bracket
/// from the expiry boundary and binary-searching the crossing.
fn first_step_row(model: &BopmModel) -> RedRow {
    let start = model.leaf_call_boundary().max(0);
    let (mut lo, mut hi); // invariant: lo red or −1, hi green
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
        lo = lo.max(-1); // −1 acts as a virtual red sentinel
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
fn call_is_european(model: &BopmModel) -> bool {
    // amopt-lint: allow(float-eq) -- Y = 0.0 exactly is the Merton sentinel, not a tolerance check; any nonzero yield prices American
    model.params().dividend_yield == 0.0
}

/// The put-side mirror: with `R = 0` early exercise of a put never pays.
fn put_is_european(model: &BopmModel) -> bool {
    // amopt-lint: allow(float-eq) -- R = 0.0 exactly is the no-early-exercise sentinel for puts, not a tolerance check; any nonzero rate prices American
    model.params().rate == 0.0
}

/// American call price: the table-driven dense kernel at or below
/// [`T_STAR_BOPM_CALL`] steps, the FFT trapezoid engine
/// ([`price_american_call_trapezoid`]) above it.  A zero-yield call always
/// takes the trapezoid entry, which prices it with one European FFT pass
/// (Merton) — cheaper than the dense sweep once `T` passes about 1000.
pub fn price_american_call(model: &BopmModel, cfg: &EngineConfig) -> f64 {
    if model.steps() <= T_STAR_BOPM_CALL && !call_is_european(model) {
        return dense::pooled(|s| {
            naive::price_with_scratch(model, OptionType::Call, ExerciseStyle::American, s)
        });
    }
    price_american_call_trapezoid(model, cfg)
}

/// American call price via the FFT trapezoid decomposition
/// (`fft-bopm` in the paper's plots), at any depth.
pub fn price_american_call_trapezoid(model: &BopmModel, cfg: &EngineConfig) -> f64 {
    if call_is_european(model) {
        // Merton: American call on a non-dividend stock ≡ European.
        return price_european_fft(model, OptionType::Call);
    }
    let t_total = model.steps() as u64;
    let row = first_step_row(model);
    if row.is_all_green() {
        // All green at T−1 stays green to the root (interior monotonicity).
        return model.exercise_call(0, 0);
    }
    let obstacle = call_obstacle(model);
    solve_to_root(&model.kernel(), &obstacle, row, t_total, 0, cfg)
}

/// American call price plus the early-exercise boundary sampled at `rows`
/// roughly equally spaced time steps (the red–green divider of §2.2).
///
/// Returns `(price, samples)`; each sample is `(i, j_i)` with grid row `i`
/// (market time step) and *extended-grid* boundary column `j_i` (−1 = all
/// green; values above the row width `i` mean the triangle row is all red).
pub fn price_with_boundary_samples(
    model: &BopmModel,
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
// American put — the left-cone engine (green region on the low-price side).
// ---------------------------------------------------------------------------

/// Obstacle closure for the American put: `green(t, c) = K − φ(t, c)`, i.e.
/// the exercise value at grid row `i = T − t`, column `c`.
fn put_green(model: &BopmModel) -> impl Fn(u64, i64) -> f64 + Sync + '_ {
    let t_total = model.steps();
    move |t: u64, c: i64| model.exercise_put(t_total - t as usize, c)
}

/// Continuation value of a row-`T−1` cell, straight from the payoff row.
#[inline]
fn first_step_put_continuation(model: &BopmModel, j: i64) -> f64 {
    let t = model.steps();
    model.s0() * model.exercise_put(t, j).max(0.0)
        + model.s1() * model.exercise_put(t, j + 1).max(0.0)
}

/// Whether cell `(T−1, j)` is green (exercise beats continuation).
#[inline]
fn first_step_put_green(model: &BopmModel, j: i64) -> bool {
    model.exercise_put(model.steps() - 1, j) >= first_step_put_continuation(model, j)
}

/// Builds row `T−1` (engine time `t = 1`) with an honestly located last
/// green column.  Like the call driver, the expiry → `T−1` transition is the
/// one step the interior drift lemmas do not cover (the boundary can jump
/// further left than the interior bound), so the row is materialised from
/// the payoff closed form and its boundary found by a bracketed search
/// (single crossing holds at `T−1` by the mirror of Lemma 2.2).
fn first_step_put_row(model: &BopmModel) -> GreenPrefixRow {
    let t = model.steps() as i64;
    // Leaf boundary: last column with K ≥ S·u^{2j−T}; identical to the
    // call's leaf boundary (the call is out of the money exactly where the
    // put is in the money).
    let leaf = model.leaf_call_boundary();
    let lo = left_cone::last_green_from(leaf, |j| first_step_put_green(model, j));
    // Stored reds reach the non-zero support edge: continuation vanishes
    // exactly right of the leaf boundary (both children pay zero).
    let row_hi = t - 1;
    let support_end = leaf.min(row_hi);
    let values: Vec<f64> =
        ((lo + 1)..=support_end).map(|j| first_step_put_continuation(model, j)).collect();
    GreenPrefixRow { t: 1, boundary: lo, hi: row_hi, reds: Segment::new(lo + 1, values) }
}

/// American put price: the table-driven dense kernel at or below
/// [`T_STAR_BOPM_PUT`] steps, the left-cone engine
/// ([`price_american_put_trapezoid`]) above it.  A zero-rate put always
/// takes the trapezoid entry, which prices it with one European FFT pass.
pub fn price_american_put(model: &BopmModel, cfg: &EngineConfig) -> f64 {
    if model.steps() <= T_STAR_BOPM_PUT && !put_is_european(model) {
        return dense::pooled(|s| {
            naive::price_with_scratch(model, OptionType::Put, ExerciseStyle::American, s)
        });
    }
    price_american_put_trapezoid(model, cfg)
}

/// American put price via the left-cone FFT trapezoid decomposition —
/// `O(T log² T)` work and `O(T)` span, same complexity class as the calls —
/// at any depth.
pub fn price_american_put_trapezoid(model: &BopmModel, cfg: &EngineConfig) -> f64 {
    if put_is_european(model) {
        // With no interest on the strike, early exercise of a put never
        // pays: continuation ≥ K·e^{−RΔt} − S·e^{−YΔt} = K − S·e^{−YΔt}
        // ≥ K − S at every node (the put-side mirror of Merton's Y = 0
        // call), so the American put collapses to the European FFT pass.
        return price_european_fft(model, OptionType::Put);
    }
    let t_total = model.steps() as u64;
    let row = first_step_put_row(model);
    if row.is_all_green() {
        // All green at T−1 stays green to the root (interior monotonicity).
        return model.exercise_put(0, 0);
    }
    let green = put_green(model);
    left_cone::solve_to_root(&model.kernel(), &green, row, t_total, cfg)
}

/// American put price plus the early-exercise boundary sampled at `rows`
/// roughly equally spaced time steps.
///
/// Returns `(price, samples)`; each sample is `(i, f_i)` with grid row `i`
/// (market time step) and the last green (exercise-optimal) column `f_i`:
/// `−1` means no exercise region in the row, values at or above the row
/// width `i` mean the whole row exercises.
pub fn price_put_with_boundary_samples(
    model: &BopmModel,
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
    use crate::bopm::naive::{self, ExecMode};
    use crate::params::{ExerciseStyle, OptionParams, OptionType};

    fn assert_matches_naive(params: OptionParams, steps: usize, tol: f64) {
        let m = BopmModel::new(params, steps).unwrap();
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_call_trapezoid(&m, &EngineConfig::default());
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "steps={steps}: fft {got} vs naive {want}"
        );
    }

    #[test]
    fn matches_naive_paper_params() {
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 4001] {
            assert_matches_naive(OptionParams::paper_defaults(), steps, 1e-9);
        }
    }

    #[test]
    fn matches_naive_at_large_t() {
        // The premium-space formulation must stay accurate where raw-value
        // FFTs lose absolute precision (u^T ≈ 1e12 at this size).
        assert_matches_naive(OptionParams::paper_defaults(), 20_000, 1e-9);
    }

    #[test]
    fn matches_naive_across_moneyness() {
        let base = OptionParams::paper_defaults();
        for spot in [60.0, 100.0, 129.0, 131.0, 200.0, 400.0] {
            assert_matches_naive(OptionParams { spot, ..base }, 500, 1e-9);
        }
    }

    #[test]
    fn matches_naive_across_vol_and_rates() {
        let base = OptionParams::paper_defaults();
        for vol in [0.05, 0.2, 0.6] {
            for (rate, div) in [(0.0, 0.0163), (0.05, 0.02), (0.001, 0.08), (0.08, 0.001)] {
                let p = OptionParams { volatility: vol, rate, dividend_yield: div, ..base };
                assert_matches_naive(p, 300, 1e-8);
            }
        }
    }

    #[test]
    fn deep_itm_immediate_exercise() {
        let p = OptionParams {
            spot: 10_000.0,
            strike: 1.0,
            dividend_yield: 0.3,
            ..OptionParams::paper_defaults()
        };
        assert_matches_naive(p, 64, 1e-9);
    }

    #[test]
    fn deep_otm_all_red() {
        let p = OptionParams { spot: 1.0, strike: 1000.0, ..OptionParams::paper_defaults() };
        let m = BopmModel::new(p, 400).unwrap();
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_call_trapezoid(&m, &EngineConfig::default());
        // The true price is astronomically small; premium space recovers it
        // as (δ + green) with δ ≈ −green ≈ K, so the achievable absolute
        // accuracy is ε·K — compare at that scale.
        assert!((got - want).abs() < 1e-12 * p.strike, "fft {got} vs naive {want}");
    }

    #[test]
    fn boundary_samples_match_naive_boundary() {
        let m = BopmModel::new(OptionParams::paper_defaults(), 512).unwrap();
        let (_, dense) = naive::price_american_with_boundary(&m, OptionType::Call);
        let (price, samples) = price_with_boundary_samples(&m, &EngineConfig::default(), 16);
        let want = naive::price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((price - want).abs() < 1e-9 * want.max(1.0));
        for (i, j) in samples {
            if j <= i as i64 {
                assert_eq!(j, dense[i], "row {i}");
            } else {
                // Extended boundary beyond the hypotenuse ⇒ triangle row all red.
                assert_eq!(dense[i], i as i64, "row {i}");
            }
        }
    }

    #[test]
    fn zero_dividend_equals_european_fft() {
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        assert_matches_naive(p, 777, 1e-9);
        let m = BopmModel::new(p, 777).unwrap();
        let eu = super::price_european_fft(&m, OptionType::Call);
        let am = price_american_call_trapezoid(&m, &EngineConfig::default());
        assert_eq!(am, eu);
    }

    #[test]
    fn rightward_expiry_jump_is_handled() {
        // R ≫ Y with modest vol triggers the one-off rightward boundary jump
        // at the first backward step (see module docs).
        let p = OptionParams {
            rate: 0.06,
            dividend_yield: 0.005,
            volatility: 0.08,
            ..OptionParams::paper_defaults()
        };
        let m = BopmModel::new(p, 256).unwrap();
        let row = super::first_step_row(&m);
        assert!(
            row.boundary > m.leaf_call_boundary(),
            "expected a rightward jump: {} vs {}",
            row.boundary,
            m.leaf_call_boundary()
        );
        assert_matches_naive(p, 256, 1e-9);
    }

    #[test]
    fn tiny_dividend_stays_consistent() {
        let p = OptionParams { dividend_yield: 1e-6, ..OptionParams::paper_defaults() };
        assert_matches_naive(p, 300, 1e-8);
    }

    // --- American put (left-cone engine) ---

    fn assert_put_matches_naive(params: OptionParams, steps: usize, tol: f64) {
        let m = BopmModel::new(params, steps).unwrap();
        let want = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_put_trapezoid(&m, &EngineConfig::default());
        assert!(
            (got - want).abs() <= tol * want.abs().max(1.0),
            "steps={steps}: fft put {got} vs naive {want}"
        );
    }

    #[test]
    fn put_matches_naive_paper_params() {
        for steps in [1usize, 2, 3, 7, 8, 9, 50, 252, 1000, 4001] {
            assert_put_matches_naive(OptionParams::paper_defaults(), steps, 1e-9);
        }
    }

    #[test]
    fn put_matches_naive_at_large_t() {
        // Raw value space: put values stay O(K) even where node prices reach
        // u^T ≈ 1e12, so the FFT keeps full precision at this size.
        assert_put_matches_naive(OptionParams::paper_defaults(), 20_000, 1e-9);
    }

    #[test]
    fn put_matches_naive_across_moneyness() {
        let base = OptionParams::paper_defaults();
        for spot in [60.0, 100.0, 129.0, 131.0, 200.0, 400.0] {
            assert_put_matches_naive(OptionParams { spot, ..base }, 500, 1e-9);
        }
    }

    #[test]
    fn put_matches_naive_across_vol_and_rates() {
        let base = OptionParams::paper_defaults();
        for vol in [0.05, 0.2, 0.6] {
            for (rate, div) in [(0.0163, 0.0), (0.05, 0.02), (0.001, 0.08), (0.08, 0.001)] {
                let p = OptionParams { volatility: vol, rate, dividend_yield: div, ..base };
                assert_put_matches_naive(p, 300, 1e-8);
            }
        }
    }

    #[test]
    fn deep_itm_put_immediate_exercise() {
        let p = OptionParams {
            spot: 1.0,
            strike: 10_000.0,
            rate: 0.3,
            ..OptionParams::paper_defaults()
        };
        assert_put_matches_naive(p, 64, 1e-9);
        let m = BopmModel::new(p, 64).unwrap();
        let got = price_american_put_trapezoid(&m, &EngineConfig::default());
        assert_eq!(got, m.exercise_put(0, 0), "deep ITM put must exercise at once");
    }

    #[test]
    fn deep_otm_put_is_tiny_but_accurate() {
        let p = OptionParams { spot: 1000.0, strike: 1.0, ..OptionParams::paper_defaults() };
        let m = BopmModel::new(p, 400).unwrap();
        let want = naive::price(&m, OptionType::Put, ExerciseStyle::American, ExecMode::Serial);
        let got = price_american_put_trapezoid(&m, &EngineConfig::default());
        // Absolute accuracy at the FFT's ε·K scale, like the deep-OTM call.
        assert!((got - want).abs() < 1e-12 * p.strike, "fft {got} vs naive {want}");
    }

    #[test]
    fn zero_rate_put_equals_european_fft() {
        let p = OptionParams { rate: 0.0, ..OptionParams::paper_defaults() };
        assert_put_matches_naive(p, 777, 1e-9);
        let m = BopmModel::new(p, 777).unwrap();
        let eu = super::price_european_fft(&m, OptionType::Put);
        let am = price_american_put_trapezoid(&m, &EngineConfig::default());
        assert_eq!(am, eu);
    }

    #[test]
    fn put_boundary_samples_match_dense_tracking() {
        let m = BopmModel::new(OptionParams::paper_defaults(), 512).unwrap();
        // Dense last-green tracking: largest j with exercise ≥ continuation.
        let t = m.steps();
        let mut row: Vec<f64> = (0..=t as i64).map(|j| m.exercise_put(t, j).max(0.0)).collect();
        let mut dense = vec![-1i64; t]; // dense[i] = boundary of row i
        for i in (0..t).rev() {
            let mut f = -1i64;
            let mut next = Vec::with_capacity(i + 1);
            for j in 0..=i as i64 {
                let cont = m.s0() * row[j as usize] + m.s1() * row[j as usize + 1];
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
    fn put_boundary_drifts_left_by_at_most_one_interior_step() {
        // The mirrored Cor. 2.7: on the binomial lattice the last green
        // column moves down monotonically, at most one column per interior
        // step.  (The expiry transition is excluded — the drivers
        // materialise row T−1 explicitly for exactly that reason.)
        let m = BopmModel::new(OptionParams::paper_defaults(), 600).unwrap();
        let t = m.steps();
        let mut row: Vec<f64> = (0..=t as i64).map(|j| m.exercise_put(t, j).max(0.0)).collect();
        let mut prev: Option<i64> = None;
        for i in (0..t).rev() {
            let mut f = -1i64;
            let mut next = Vec::with_capacity(i + 1);
            for j in 0..=i as i64 {
                let cont = m.s0() * row[j as usize] + m.s1() * row[j as usize + 1];
                let ex = m.exercise_put(i, j);
                if ex >= cont {
                    f = j;
                }
                next.push(cont.max(ex));
            }
            if let Some(p) = prev {
                assert!(f <= p && f >= p - 1, "row {i}: boundary {f} after {p}");
            }
            prev = Some(f);
            row = next;
        }
    }
}
