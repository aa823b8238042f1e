//! The standard nested-loop trinomial pricer — `vanilla-topm` in the paper's
//! evaluation.  `Θ(T²)` work (the grid has `2i+1` cells in row `i`).

use super::TopmModel;
use crate::engine::dense;
use crate::params::{ExerciseStyle, OptionType};
use amopt_parallel::{for_each_chunk_mut, DEFAULT_GRAIN};

/// Execution strategy for the loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Single-threaded, single rolling buffer.
    Serial,
    /// Row-parallel with double buffering.
    #[default]
    Parallel,
}

#[inline]
fn exercise(model: &TopmModel, opt: OptionType, i: usize, j: i64) -> f64 {
    match opt {
        OptionType::Call => model.exercise_call(i, j),
        OptionType::Put => model.exercise_put(i, j),
    }
}

/// Fills `out` with the expiry-row payoffs — the single source of truth for
/// the serial, scratch-reusing, and parallel sweeps.
fn fill_leaf_values(model: &TopmModel, opt: OptionType, out: &mut Vec<f64>) {
    let t = model.steps();
    out.clear();
    out.extend((0..=2 * t as i64).map(|j| exercise(model, opt, t, j).max(0.0)));
}

fn leaf_values(model: &TopmModel, opt: OptionType) -> Vec<f64> {
    let mut out = Vec::new();
    fill_leaf_values(model, opt, &mut out);
    out
}

/// Prices any (type, style) combination by backward induction.
pub fn price(model: &TopmModel, opt: OptionType, style: ExerciseStyle, mode: ExecMode) -> f64 {
    match mode {
        ExecMode::Serial => price_serial(model, opt, style),
        ExecMode::Parallel => price_parallel(model, opt, style),
    }
}

fn price_serial(model: &TopmModel, opt: OptionType, style: ExerciseStyle) -> f64 {
    price_with_scratch(model, opt, style, &mut Vec::new())
}

/// [`price`] with [`ExecMode::Serial`], reusing a caller-provided buffer so
/// repeated pricings allocate nothing once it has grown to `2T + 1` slots
/// (`4T + 2` for American exercise, which also holds the exercise table).
/// Bitwise identical to the serial [`price`].
pub fn price_with_scratch(
    model: &TopmModel,
    opt: OptionType,
    style: ExerciseStyle,
    scratch: &mut Vec<f64>,
) -> f64 {
    if style == ExerciseStyle::American {
        return american_dense(model, opt, scratch);
    }
    let t = model.steps();
    let (s0, s1, s2) = model.weights();
    fill_leaf_values(model, opt, scratch);
    let g = &mut scratch[..];
    for i in (0..t).rev() {
        for j in 0..=2 * i {
            g[j] = s0 * g[j] + s1 * g[j + 1] + s2 * g[j + 2];
        }
    }
    g[0]
}

/// The table-driven American sweep.  Node `(i, j)` carries `S·u^{j−i}`, so
/// the expiry row's exercise values are every row's: row `i` reads the
/// contiguous slice starting at column `T − i`.
fn american_dense(model: &TopmModel, opt: OptionType, scratch: &mut Vec<f64>) -> f64 {
    // amopt-lint: hot-path
    let t = model.steps();
    scratch.clear();
    scratch.extend((0..=2 * t as i64).map(|j| exercise(model, opt, t, j)));
    scratch.resize(4 * t + 2, 0.0);
    let (table, g) = scratch.split_at_mut(2 * t + 1);
    for (leaf, &ex) in g.iter_mut().zip(table.iter()) {
        *leaf = ex.max(0.0);
    }
    let (s0, s1, s2) = model.weights();
    for i in (0..t).rev() {
        dense::american_row([s0, s1, s2], g, &table[t - i..=t + i]);
    }
    g[0]
}

fn price_parallel(model: &TopmModel, opt: OptionType, style: ExerciseStyle) -> f64 {
    let t = model.steps();
    let (s0, s1, s2) = model.weights();
    let mut cur = leaf_values(model, opt);
    let mut next = vec![0.0; 2 * t + 1];
    for i in (0..t).rev() {
        {
            let read: &[f64] = &cur;
            for_each_chunk_mut(&mut next[..=2 * i], DEFAULT_GRAIN, |offset, chunk| {
                for (k, out) in chunk.iter_mut().enumerate() {
                    let j = offset + k;
                    let cont = s0 * read[j] + s1 * read[j + 1] + s2 * read[j + 2];
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

/// Serial backward induction recording the per-row red–green boundary
/// (largest `j` with continuation ≥ exercise, −1 if all green), used by the
/// tests of Corollary A.6.
pub fn price_american_with_boundary(model: &TopmModel, opt: OptionType) -> (f64, Vec<i64>) {
    let t = model.steps();
    let (s0, s1, s2) = model.weights();
    let mut g = leaf_values(model, opt);
    let mut boundary = vec![0i64; t + 1];
    boundary[t] = {
        let mut b = -1;
        for j in 0..=2 * t as i64 {
            if exercise(model, opt, t, j) <= 0.0 {
                b = b.max(j);
            }
        }
        b
    };
    for i in (0..t).rev() {
        let mut b = -1i64;
        for j in 0..=2 * i {
            let cont = s0 * g[j] + s1 * g[j + 1] + s2 * g[j + 2];
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

    fn model(steps: usize) -> TopmModel {
        TopmModel::new(OptionParams::paper_defaults(), steps).unwrap()
    }

    #[test]
    fn one_step_tree_by_hand() {
        let m = model(1);
        let (s0, s1, s2) = m.weights();
        let leaves: Vec<f64> = (0..3).map(|j| m.exercise_call(1, j).max(0.0)).collect();
        let want = (s0 * leaves[0] + s1 * leaves[1] + s2 * leaves[2]).max(m.exercise_call(0, 0));
        let got = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn serial_and_parallel_agree() {
        for steps in [1usize, 2, 9, 252, 700] {
            let m = model(steps);
            for opt in [OptionType::Call, OptionType::Put] {
                for style in [ExerciseStyle::European, ExerciseStyle::American] {
                    let a = price(&m, opt, style, ExecMode::Serial);
                    let b = price(&m, opt, style, ExecMode::Parallel);
                    assert!(
                        (a - b).abs() < 1e-9 * a.abs().max(1.0),
                        "steps={steps} {opt:?} {style:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn american_dominates_european() {
        let m = model(400);
        for opt in [OptionType::Call, OptionType::Put] {
            let eu = price(&m, opt, ExerciseStyle::European, ExecMode::Serial);
            let am = price(&m, opt, ExerciseStyle::American, ExecMode::Serial);
            assert!(am >= eu - 1e-12);
        }
    }

    #[test]
    fn converges_to_black_scholes_european() {
        let p = OptionParams::paper_defaults();
        let bs = crate::analytic::black_scholes_price(&p, OptionType::Call).unwrap();
        let m = TopmModel::new(p, 2000).unwrap();
        let v = price(&m, OptionType::Call, ExerciseStyle::European, ExecMode::Serial);
        assert!((v - bs).abs() < 5e-3, "{v} vs {bs}");
    }

    #[test]
    fn trinomial_converges_faster_than_binomial() {
        // Langat et al. (cited in §3): TOPM reaches a given accuracy with
        // about half the steps of BOPM.  Verify TOPM at T is at least as
        // close to Black–Scholes as BOPM at T for the European call.
        let p = OptionParams::paper_defaults();
        let bs = crate::analytic::black_scholes_price(&p, OptionType::Call).unwrap();
        let t = 400usize;
        let tri = TopmModel::new(p, t).unwrap();
        let bin = crate::bopm::BopmModel::new(p, t).unwrap();
        let tri_err =
            (price(&tri, OptionType::Call, ExerciseStyle::European, ExecMode::Serial) - bs).abs();
        let bin_err = (crate::bopm::naive::price(
            &bin,
            OptionType::Call,
            ExerciseStyle::European,
            crate::bopm::naive::ExecMode::Serial,
        ) - bs)
            .abs();
        assert!(tri_err <= bin_err * 1.2, "tri {tri_err} vs bin {bin_err}");
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable() {
        let mut scratch = Vec::new();
        for steps in [5usize, 200, 64] {
            let m = model(steps);
            let want = price(&m, OptionType::Call, ExerciseStyle::American, ExecMode::Serial);
            let got =
                price_with_scratch(&m, OptionType::Call, ExerciseStyle::American, &mut scratch);
            assert_eq!(got.to_bits(), want.to_bits(), "steps={steps}");
        }
    }

    #[test]
    fn boundary_satisfies_corollary_a6() {
        let m = model(500);
        let (_, b) = price_american_with_boundary(&m, OptionType::Call);
        for i in 0..m.steps() {
            // Within the triangle the boundary drifts left by at most one.
            if b[i + 1] <= 2 * i as i64 {
                assert!(b[i] <= b[i + 1], "i={i}");
                assert!(b[i] >= b[i + 1] - 1, "i={i}");
            }
        }
    }
}
