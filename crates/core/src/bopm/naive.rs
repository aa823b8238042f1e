//! The standard nested-loop binomial pricer (Fig. 1 of the paper).
//!
//! `Θ(T²)` work; the parallel variant sweeps each row with fork-join chunks
//! for `Θ(T²/p + T log T)` time.  This is the `ql-bopm` baseline of the
//! paper's evaluation (Par-bin-ops' QuantLib-equivalent loop nest).

use super::BopmModel;
use crate::engine::dense;
use crate::params::{ExerciseStyle, OptionType};
use amopt_parallel::{for_each_chunk_mut, DEFAULT_GRAIN};

/// Execution strategy for the loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Single-threaded, single rolling buffer (cache-friendliest loop).
    Serial,
    /// Row-parallel with double buffering.
    #[default]
    Parallel,
}

/// Prices any (type, style) combination by backward induction.
pub fn price(model: &BopmModel, opt: OptionType, style: ExerciseStyle, mode: ExecMode) -> f64 {
    match mode {
        ExecMode::Serial => price_serial(model, opt, style),
        ExecMode::Parallel => price_parallel(model, opt, style),
    }
}

/// Exercise value of `(i, j)` for the requested option type (no floor).
#[inline]
fn exercise(model: &BopmModel, opt: OptionType, i: usize, j: i64) -> f64 {
    match opt {
        OptionType::Call => model.exercise_call(i, j),
        OptionType::Put => model.exercise_put(i, j),
    }
}

/// Fills `out` with the expiry-row payoffs — the single source of truth for
/// the serial, scratch-reusing, and parallel sweeps.
fn fill_leaf_values(model: &BopmModel, opt: OptionType, out: &mut Vec<f64>) {
    let t = model.steps();
    out.clear();
    out.extend((0..=t as i64).map(|j| exercise(model, opt, t, j).max(0.0)));
}

fn leaf_values(model: &BopmModel, opt: OptionType) -> Vec<f64> {
    let mut out = Vec::new();
    fill_leaf_values(model, opt, &mut out);
    out
}

fn price_serial(model: &BopmModel, opt: OptionType, style: ExerciseStyle) -> f64 {
    price_with_scratch(model, opt, style, &mut Vec::new())
}

/// [`price`] with [`ExecMode::Serial`], reusing a caller-provided buffer so
/// repeated pricings (e.g. a batch hot loop or finite-difference bumps)
/// allocate nothing once it has grown to `T + 1` slots (`3T + 2` for
/// American exercise, which also holds the exercise tables).
///
/// Bitwise identical to `price(model, opt, style, ExecMode::Serial)`.
pub fn price_with_scratch(
    model: &BopmModel,
    opt: OptionType,
    style: ExerciseStyle,
    scratch: &mut Vec<f64>,
) -> f64 {
    if style == ExerciseStyle::American {
        return american_dense(model, opt, scratch);
    }
    let t = model.steps();
    let (s0, s1) = (model.s0(), model.s1());
    fill_leaf_values(model, opt, scratch);
    let g = &mut scratch[..];
    for i in (0..t).rev() {
        // In-place ascending sweep: g[j] is consumed before it is overwritten.
        for j in 0..=i {
            g[j] = s0 * g[j] + s1 * g[j + 1];
        }
    }
    g[0]
}

/// The table-driven American sweep.  Node `(i, j)` carries `S·u^{2j−i}`,
/// so its exercise value depends only on `2j − i`, whose parity is that of
/// `T − i`: rows `T` and `T − 1` hold every value once, split by parity,
/// and row `i` reads the contiguous slice of its parity's table starting
/// at `(T − i)/2`.
fn american_dense(model: &BopmModel, opt: OptionType, scratch: &mut Vec<f64>) -> f64 {
    // amopt-lint: hot-path
    let t = model.steps();
    scratch.clear();
    scratch.extend((0..=t as i64).map(|j| exercise(model, opt, t, j)));
    scratch.extend((0..t as i64).map(|j| exercise(model, opt, t - 1, j)));
    scratch.resize(3 * t + 2, 0.0);
    let (tables, g) = scratch.split_at_mut(2 * t + 1);
    let (even, odd) = tables.split_at(t + 1);
    for (leaf, &ex) in g.iter_mut().zip(even.iter()) {
        *leaf = ex.max(0.0);
    }
    let w = [model.s0(), model.s1()];
    for i in (0..t).rev() {
        let off = (t - i) / 2;
        let table = if (t - i).is_multiple_of(2) { even } else { odd };
        dense::american_row(w, g, &table[off..=off + i]);
    }
    g[0]
}

fn price_parallel(model: &BopmModel, opt: OptionType, style: ExerciseStyle) -> f64 {
    let t = model.steps();
    let (s0, s1) = (model.s0(), model.s1());
    let mut cur = leaf_values(model, opt);
    let mut next = vec![0.0; t + 1];
    for i in (0..t).rev() {
        {
            let read: &[f64] = &cur;
            for_each_chunk_mut(&mut next[..=i], DEFAULT_GRAIN, |offset, chunk| {
                for (k, out) in chunk.iter_mut().enumerate() {
                    let j = offset + k;
                    let cont = s0 * read[j] + s1 * read[j + 1];
                    *out = match style {
                        ExerciseStyle::European => cont,
                        ExerciseStyle::American => cont.max(exercise(model, opt, i, j as i64)),
                    };
                }
            });
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur[0]
}

/// Serial backward induction that also records, for every row `i`, the
/// red–green boundary `j_i` = largest `j` with continuation ≥ exercise
/// (−1 when the whole row is green).  Used by boundary-extraction APIs and
/// by the tests of Corollary 2.7.
pub fn price_american_with_boundary(model: &BopmModel, opt: OptionType) -> (f64, Vec<i64>) {
    let t = model.steps();
    let (s0, s1) = (model.s0(), model.s1());
    let mut g = leaf_values(model, opt);
    let mut boundary = vec![0i64; t + 1];
    // Expiry row: red cells are those whose exercise value is non-positive
    // (their lattice value is 0 = the degenerate continuation).
    boundary[t] = {
        let mut b = -1;
        for j in 0..=t as i64 {
            if exercise(model, opt, t, j) <= 0.0 {
                b = b.max(j);
            } else if matches!(opt, OptionType::Call) {
                break;
            }
        }
        b
    };
    for i in (0..t).rev() {
        let mut b = -1i64;
        for j in 0..=i {
            let cont = s0 * g[j] + s1 * g[j + 1];
            let ex = exercise(model, opt, i, j as i64);
            if cont >= ex {
                b = b.max(j as i64);
            }
            g[j] = cont.max(ex);
        }
        boundary[i] = b;
    }
    (g[0], boundary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OptionParams;

    fn model(steps: usize) -> BopmModel {
        BopmModel::new(OptionParams::paper_defaults(), steps).unwrap()
    }

    #[test]
    fn two_step_tree_by_hand() {
        // Tiny tree checked against a hand computation.
        let p = OptionParams {
            spot: 100.0,
            strike: 100.0,
            rate: 0.05,
            volatility: 0.3,
            dividend_yield: 0.0,
            expiry: 1.0,
        };
        let m = BopmModel::new(p, 2).unwrap();
        let (u, s0, s1) = (m.up(), m.s0(), m.s1());
        // Leaves: prices 100u², 100, 100/u².
        let leaf =
            [(100.0 / (u * u) - 100.0f64).max(0.0), 0.0, (100.0 * u * u - 100.0f64).max(0.0)];
        let mid = [
            (s0 * leaf[0] + s1 * leaf[1]).max(100.0 / u - 100.0),
            (s0 * leaf[1] + s1 * leaf[2]).max(100.0 * u - 100.0),
        ];
        let want = (s0 * mid[0] + s1 * mid[1]).max(0.0);
        let got = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn serial_and_parallel_agree() {
        for steps in [1usize, 2, 3, 17, 252, 1000] {
            let m = model(steps);
            for opt in [OptionType::Call, OptionType::Put] {
                for style in [ExerciseStyle::European, ExerciseStyle::American] {
                    let a = price(&m, opt, style, ExecMode::Serial);
                    let b = price(&m, opt, style, ExecMode::Parallel);
                    assert!(
                        (a - b).abs() < 1e-9 * a.abs().max(1.0),
                        "steps={steps} {opt:?} {style:?}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn american_dominates_european() {
        let m = model(500);
        for opt in [OptionType::Call, OptionType::Put] {
            let eu = price(&m, opt, ExerciseStyle::European, ExecMode::Serial);
            let am = price(&m, opt, ExerciseStyle::American, ExecMode::Serial);
            assert!(am >= eu - 1e-12, "{opt:?}: am={am} eu={eu}");
        }
    }

    #[test]
    fn american_call_without_dividends_equals_european() {
        // Merton: early exercise of a call is never optimal when Y = 0.
        let p = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
        let m = BopmModel::new(p, 600).unwrap();
        let eu = price(&m, OptionType::Call, ExerciseStyle::European, ExecMode::Serial);
        let am = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((am - eu).abs() < 1e-10 * eu.max(1.0), "am={am} eu={eu}");
    }

    #[test]
    fn converges_to_black_scholes_european() {
        let p = OptionParams::paper_defaults();
        let bs = crate::analytic::black_scholes_price(&p, OptionType::Call).unwrap();
        let mut prev_err = f64::INFINITY;
        for steps in [100usize, 400, 1600] {
            let m = BopmModel::new(p, steps).unwrap();
            let v = price(&m, OptionType::Call, ExerciseStyle::European, ExecMode::Serial);
            let err = (v - bs).abs();
            assert!(err < prev_err * 0.6, "steps={steps}: err {err} vs prev {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 5e-3);
    }

    #[test]
    fn boundary_satisfies_corollary_2_7() {
        // All red cells left of all green cells, and the boundary moves left
        // by at most one per step: j_{i+1} − 1 ≤ j_i ≤ j_{i+1}.
        let m = model(800);
        let (_, b) = price_american_with_boundary(&m, OptionType::Call);
        for i in 0..m.steps() {
            assert!(b[i] <= b[i + 1], "i={i}: {} > {}", b[i], b[i + 1]);
            assert!(b[i] >= b[i + 1] - 1, "i={i}: {} < {} - 1", b[i], b[i + 1]);
        }
    }

    #[test]
    fn boundary_price_matches_plain_price() {
        let m = model(300);
        let (v, _) = price_american_with_boundary(&m, OptionType::Call);
        let want = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((v - want).abs() < 1e-12);
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable() {
        let mut scratch = Vec::new();
        for steps in [7usize, 252, 100] {
            let m = model(steps);
            for opt in [OptionType::Call, OptionType::Put] {
                let want = price(&m, opt, ExerciseStyle::American, ExecMode::Serial);
                let got = price_with_scratch(&m, opt, ExerciseStyle::American, &mut scratch);
                assert_eq!(got.to_bits(), want.to_bits(), "steps={steps} {opt:?}");
            }
        }
    }

    #[test]
    fn single_step_tree() {
        let m = model(1);
        let v = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        let s0 = m.s0();
        let s1 = m.s1();
        let leaf0 = m.exercise_call(1, 0).max(0.0);
        let leaf1 = m.exercise_call(1, 1).max(0.0);
        let want = (s0 * leaf0 + s1 * leaf1).max(m.exercise_call(0, 0));
        assert!((v - want).abs() < 1e-12);
    }
}
