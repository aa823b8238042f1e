//! The row-by-row explicit FD sweep over the full cone — `vanilla-bsm` in
//! the paper's evaluation.  `Θ(T²)` work.

use super::BsmModel;
use crate::engine::dense;
use amopt_parallel::{for_each_chunk_mut, DEFAULT_GRAIN};

/// Execution strategy for the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Single-threaded.
    Serial,
    /// Row-parallel with double buffering.
    #[default]
    Parallel,
}

/// Early-exercise flavour of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Pure linear scheme (European put).
    European,
    /// Obstacle scheme `max(linear, exercise)` (American put).
    American,
}

/// Which obstacle the sweep applies: the put's (`1 − e^s`, green on the
/// left) or the call's (`e^s − 1`, green on the right).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Put,
    Call,
}

impl Side {
    #[inline]
    fn exercise(self, model: &BsmModel, k: i64) -> f64 {
        match self {
            Side::Put => model.exercise(k),
            Side::Call => model.exercise_call(k),
        }
    }
}

/// Dimensionless grid value at the apex; multiply by `K` for the price.
pub fn apex_value(model: &BsmModel, style: Style, mode: ExecMode) -> f64 {
    sweep(model, Side::Put, style, mode)
}

/// Call-side apex value under the same discretisation; multiply by `K` for
/// the price.  With the model's mandatory `Y = 0` the continuous American
/// call is never exercised early, so the obstacle binds at most as a
/// lattice-quantisation artifact — the sweep handles either outcome.
pub fn apex_call_value(model: &BsmModel, style: Style, mode: ExecMode) -> f64 {
    sweep(model, Side::Call, style, mode)
}

/// [`apex_value`] with [`ExecMode::Serial`], reusing a caller-provided
/// buffer so repeated pricings allocate nothing once it has grown to
/// `4T + 2` slots (the exercise table plus the lattice row).
///
/// Bitwise identical to `apex_value(model, style, ExecMode::Serial)`.
pub fn apex_value_with_scratch(model: &BsmModel, style: Style, scratch: &mut Vec<f64>) -> f64 {
    sweep_serial(model, Side::Put, style, scratch)
}

/// The table-driven serial sweep.  The exercise value of column `k` does
/// not depend on the row, so one table over the expiry row's columns
/// `[−T, T]` serves every row: row `n` (half-width `T − n`) reads the
/// contiguous slice `[n, 2T − n]`, and relaxes in place — output cell `p`
/// reads input cells `p, p+1, p+2`, none of them overwritten yet.
fn sweep_serial(model: &BsmModel, side: Side, style: Style, scratch: &mut Vec<f64>) -> f64 {
    // amopt-lint: hot-path
    let t = model.steps();
    scratch.clear();
    scratch.extend((-(t as i64)..=t as i64).map(|k| side.exercise(model, k)));
    scratch.resize(4 * t + 2, 0.0);
    let (table, g) = scratch.split_at_mut(2 * t + 1);
    for (leaf, &ex) in g.iter_mut().zip(table.iter()) {
        *leaf = ex.max(0.0);
    }
    let (wb, wc, wa) = model.weights();
    for n in 1..=t {
        match style {
            Style::European => {
                for p in 0..=2 * (t - n) {
                    g[p] = wb * g[p] + wc * g[p + 1] + wa * g[p + 2];
                }
            }
            Style::American => dense::american_row([wb, wc, wa], g, &table[n..=2 * t - n]),
        }
    }
    g[0]
}

fn sweep(model: &BsmModel, side: Side, style: Style, mode: ExecMode) -> f64 {
    if mode == ExecMode::Serial {
        return sweep_serial(model, side, style, &mut Vec::new());
    }
    let t = model.steps() as i64;
    // Row n spans columns [−(T−n), T−n]; store at index k + (T−n).
    let mut cur: Vec<f64> = (-t..=t).map(|k| side.exercise(model, k).max(0.0)).collect();
    let (wb, wc, wa) = model.weights();
    let mut next = vec![0.0; cur.len()];
    for n in 1..=t {
        let half = t - n;
        let width = (2 * half + 1) as usize;
        {
            let read: &[f64] = &cur;
            for_each_chunk_mut(&mut next[..width], DEFAULT_GRAIN, |offset, chunk| {
                for (i, out) in chunk.iter_mut().enumerate() {
                    let pos = offset + i; // 0-based in output row
                    let k = pos as i64 - half;
                    let idx = pos + 1; // same column in input row
                    let lin = wb * read[idx - 1] + wc * read[idx] + wa * read[idx + 1];
                    *out = match style {
                        Style::European => lin,
                        Style::American => lin.max(side.exercise(model, k)),
                    };
                }
            });
        }
        std::mem::swap(&mut cur, &mut next);
        next.truncate(width);
        cur.truncate(width);
        next.resize(width, 0.0);
    }
    cur[0]
}

/// American put price (`vanilla-bsm`).
pub fn price_american_put(model: &BsmModel, mode: ExecMode) -> f64 {
    model.params().strike * apex_value(model, Style::American, mode)
}

/// European put price under the same discretisation (validation oracle).
pub fn price_european_put(model: &BsmModel, mode: ExecMode) -> f64 {
    model.params().strike * apex_value(model, Style::European, mode)
}

/// American call price under the same discretisation (dense sweep — the
/// call side has no compressed green-left engine).
pub fn price_american_call(model: &BsmModel, mode: ExecMode) -> f64 {
    model.params().strike * apex_call_value(model, Style::American, mode)
}

/// Serial American sweep also recording the green-zone boundary
/// (largest `k` with exercise ≥ continuation; `i64::MIN` when the row has no
/// green cell inside the cone) for every row — used by the Thm 4.3 tests.
pub fn apex_value_with_boundary(model: &BsmModel) -> (f64, Vec<i64>) {
    let t = model.steps() as i64;
    let mut cur: Vec<f64> = (-t..=t).map(|k| model.payoff(k)).collect();
    let (wb, wc, wa) = model.weights();
    let mut boundaries = Vec::with_capacity(t as usize + 1);
    // Expiry row boundary.
    boundaries.push(model.expiry_boundary().min(t));
    for n in 1..=t {
        let half = t - n;
        let mut next = Vec::with_capacity((2 * half + 1) as usize);
        let mut b = i64::MIN;
        for k in -half..=half {
            let idx = (k + half + 1) as usize;
            let lin = wb * cur[idx - 1] + wc * cur[idx] + wa * cur[idx + 1];
            let ex = model.exercise(k);
            if ex >= lin {
                b = b.max(k);
            }
            next.push(lin.max(ex));
        }
        boundaries.push(b);
        cur = next;
    }
    (cur[0], boundaries)
}

/// Serial American **call** sweep also recording the green-zone boundary
/// for every row: the *smallest* `k` with exercise ≥ continuation
/// (`i64::MAX` when the row has no green cell inside the cone — for the
/// dividend-free call that is the common case; a green cell can appear
/// only as a quantisation artifact of the explicit scheme).  Θ(T²): this
/// is both the oracle and the production extractor for the call frontier.
pub fn apex_call_value_with_boundary(model: &BsmModel) -> (f64, Vec<i64>) {
    let t = model.steps() as i64;
    let mut cur: Vec<f64> = (-t..=t).map(|k| model.payoff_call(k)).collect();
    let (wb, wc, wa) = model.weights();
    let mut boundaries = Vec::with_capacity(t as usize + 1);
    // Expiry row boundary (clamped into the cone from the right).
    boundaries.push(model.expiry_call_boundary().max(-t));
    for n in 1..=t {
        let half = t - n;
        let mut next = Vec::with_capacity((2 * half + 1) as usize);
        let mut b = i64::MAX;
        for k in -half..=half {
            let idx = (k + half + 1) as usize;
            let lin = wb * cur[idx - 1] + wc * cur[idx] + wa * cur[idx + 1];
            let ex = model.exercise_call(k);
            if ex >= lin {
                b = b.min(k);
            }
            next.push(lin.max(ex));
        }
        boundaries.push(b);
        cur = next;
    }
    (cur[0], boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use crate::params::{OptionParams, OptionType};

    fn params() -> OptionParams {
        OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() }
    }

    #[test]
    fn serial_and_parallel_agree() {
        for steps in [1usize, 2, 9, 128, 800] {
            let m = BsmModel::new(params(), steps).unwrap();
            for style in [Style::European, Style::American] {
                let a = apex_value(&m, style, ExecMode::Serial);
                let b = apex_value(&m, style, ExecMode::Parallel);
                assert!((a - b).abs() < 1e-12, "steps={steps} {style:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn european_converges_to_black_scholes() {
        let p = params();
        let bs = analytic::black_scholes_price(&p, OptionType::Put).unwrap();
        let mut prev = f64::INFINITY;
        for steps in [250usize, 1000, 4000] {
            let m = BsmModel::new(p, steps).unwrap();
            let v = price_european_put(&m, ExecMode::Serial);
            let err = (v - bs).abs();
            assert!(err < prev, "steps={steps}: {err} !< {prev}");
            prev = err;
        }
        assert!(prev < 2e-2, "final error {prev}");
    }

    #[test]
    fn american_put_dominates_european_and_intrinsic() {
        let m = BsmModel::new(params(), 2000).unwrap();
        let eu = price_european_put(&m, ExecMode::Serial);
        let am = price_american_put(&m, ExecMode::Serial);
        let intrinsic = (m.params().strike - m.params().spot).max(0.0);
        assert!(am >= eu - 1e-12);
        assert!(am >= intrinsic);
    }

    #[test]
    fn american_put_matches_binomial_lattice() {
        // Cross-model validation: the FD put and the binomial-lattice put
        // approximate the same continuous value.
        let p = params();
        let m = BsmModel::new(p, 4000).unwrap();
        let fd = price_american_put(&m, ExecMode::Serial);
        let lattice = crate::bopm::BopmModel::new(p, 4000).unwrap();
        let bin = crate::bopm::naive::price(
            &lattice,
            OptionType::Put,
            crate::params::ExerciseStyle::American,
            crate::bopm::naive::ExecMode::Serial,
        );
        assert!((fd - bin).abs() < 5e-3 * bin, "fd {fd} vs binomial {bin}");
    }

    #[test]
    fn boundary_satisfies_theorem_4_3() {
        // 0 ≤ k_n − k_{n+1} ≤ 1 wherever the boundary is inside the cone.
        let m = BsmModel::new(params(), 600).unwrap();
        let (_, b) = apex_value_with_boundary(&m);
        let t = m.steps() as i64;
        for n in 0..m.steps() {
            let half_next = t - n as i64 - 1;
            if b[n] == i64::MIN || b[n + 1] == i64::MIN {
                continue;
            }
            // Skip rows where the cone edge truncates the comparison.
            if b[n].abs() >= t - n as i64 || b[n + 1].abs() >= half_next {
                continue;
            }
            assert!(b[n + 1] <= b[n], "n={n}: {} > {}", b[n + 1], b[n]);
            assert!(b[n + 1] >= b[n] - 1, "n={n}: {} < {} - 1", b[n + 1], b[n]);
        }
    }

    #[test]
    fn call_serial_and_parallel_agree() {
        for steps in [1usize, 2, 9, 128, 400] {
            let m = BsmModel::new(params(), steps).unwrap();
            for style in [Style::European, Style::American] {
                let a = apex_call_value(&m, style, ExecMode::Serial);
                let b = apex_call_value(&m, style, ExecMode::Parallel);
                assert!((a - b).abs() < 1e-12, "steps={steps} {style:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn american_call_without_dividends_tracks_black_scholes() {
        // With Y = 0 early exercise of a call is never optimal in the
        // continuum: American ≥ European on the grid by construction, and
        // the gap is at most a lattice-quantisation artifact; the European
        // leg converges to the Black–Scholes closed form.
        let p = params();
        let bs = analytic::black_scholes_price(&p, OptionType::Call).unwrap();
        let m = BsmModel::new(p, 2000).unwrap();
        let am = price_american_call(&m, ExecMode::Serial);
        let eu = m.params().strike * apex_call_value(&m, Style::European, ExecMode::Serial);
        assert!(am >= eu - 1e-12, "obstacle can only raise the value: {am} < {eu}");
        assert!(am <= eu * (1.0 + 1e-3), "call obstacle overshot: am {am} vs eu {eu}");
        assert!((eu - bs).abs() < 5e-2, "european leg {eu} vs closed form {bs}");
    }

    #[test]
    fn call_boundary_cells_are_in_the_money() {
        let m = BsmModel::new(params(), 600).unwrap();
        let (v, b) = apex_call_value_with_boundary(&m);
        let serial = apex_call_value(&m, Style::American, ExecMode::Serial);
        assert_eq!(v.to_bits(), serial.to_bits(), "boundary sweep must not change the value");
        let t = m.steps() as i64;
        for (n, &k) in b.iter().enumerate() {
            if k == i64::MAX {
                continue;
            }
            assert!(k <= t - n as i64, "row {n}: boundary {k} outside the cone");
            // Green ⇒ e^s − 1 ≥ continuation ≥ 0 ⇒ at/above the strike.
            assert!(m.s_at(k) >= 0.0, "green call cell out of the money: row {n} k {k}");
        }
    }

    #[test]
    fn deep_itm_put_approaches_intrinsic() {
        let p = OptionParams { spot: 40.0, strike: 130.0, ..params() };
        let m = BsmModel::new(p, 1500).unwrap();
        let am = price_american_put(&m, ExecMode::Serial);
        let intrinsic = 90.0;
        assert!(am >= intrinsic - 1e-9);
        assert!(am < intrinsic * 1.02, "am={am}");
    }

    #[test]
    fn single_step_grid() {
        let m = BsmModel::new(params(), 1).unwrap();
        let (wb, wc, wa) = m.weights();
        let lin = wb * m.payoff(-1) + wc * m.payoff(0) + wa * m.payoff(1);
        let want = lin.max(m.exercise(0)) * m.params().strike;
        let got = price_american_put(&m, ExecMode::Serial);
        assert!((got - want).abs() < 1e-12);
    }
}
