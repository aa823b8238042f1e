//! The whole-problem base case: table-driven `Θ(T²)` row kernels and the
//! measured crossover depths `T*` below which the public fast American
//! pricers run them instead of the trapezoid engines.
//!
//! The trapezoid engines already hand every sub-trapezoid of height
//! `≤ base_cutoff` to the naive loop (§5.1).  The same trade holds for the
//! whole lattice: below `T*` the `O(T log² T)` engine's constants (FFT
//! passes, boundary searches, row bookkeeping) cost more than sweeping all
//! `Θ(T²)` cells.  The sweep is cheap when it does no per-cell work beyond
//! the stencil itself, so each pricing first fills one table with its
//! exercise values — `2T + 1` entries from the models' own `exercise`
//! expressions, hence bitwise the values the per-cell nests computed — and
//! then relaxes every row in place over contiguous slices of it.
//!
//! Zero-yield calls and zero-rate puts skip the route: the trapezoid entry
//! prices them with one European FFT pass, exact for them and cheaper than
//! the sweep at depth.
//!
//! `T*` per (model, option type) is the largest depth at which the serial
//! kernel beats the trapezoid engine at full pool width, so no caller — a
//! batch fanning out one pricing per worker or a lone request owning the
//! pool — gets slower.  Measured with
//! `cargo run --release -p amopt-bench --bin paper-figures -- crossover`;
//! the numbers behind each constant are in `ARCHITECTURE.md`
//! ("The dense route below `T*`").  Every `T*` stays below `2^14`, so deep lattices
//! never leave the engines.

use super::kernel_scope;

/// Crossover depth for the BOPM American call.
pub const T_STAR_BOPM_CALL: usize = 4096;
/// Crossover depth for the BOPM American put.
pub const T_STAR_BOPM_PUT: usize = 3072;
/// Crossover depth for the TOPM American call.
pub const T_STAR_TOPM_CALL: usize = 3072;
/// Crossover depth for the TOPM American put.
pub const T_STAR_TOPM_PUT: usize = 3072;
/// Crossover depth for the BSM American put.
pub const T_STAR_BSM_PUT: usize = 3072;

/// One American backward row in place:
/// `g[j] = (w[0]·g[j] + … + w[N−1]·g[j+N−1]).max(ex[j])` for `j < ex.len()`.
///
/// The sweep ascends, so every `g[j+m]` is read before it is overwritten;
/// the sum associates left to right, exactly like the per-cell nests.
#[inline]
pub(crate) fn american_row<const N: usize>(w: [f64; N], g: &mut [f64], ex: &[f64]) {
    // amopt-lint: hot-path
    let g = &mut g[..ex.len() + N - 1];
    for (j, &e) in ex.iter().enumerate() {
        let mut cont = w[0] * g[j];
        for (m, &wm) in w.iter().enumerate().skip(1) {
            cont += wm * g[j + m];
        }
        g[j] = cont.max(e);
    }
}

/// Runs a dense kernel on scratch checked out of the `amopt-stencil` pool,
/// timed as the base-case kernel phase (it *is* the base case, of the whole
/// problem), so steady-state routed pricing allocates nothing.
#[inline]
pub(crate) fn pooled(kernel: impl FnOnce(&mut Vec<f64>) -> f64) -> f64 {
    // amopt-lint: hot-path
    kernel_scope!(BaseCase);
    amopt_stencil::with_scratch(|s| kernel(&mut s.staging))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_matches_the_per_cell_expression_bitwise() {
        let w = [0.49, 0.3, 0.205];
        let g0: Vec<f64> = (0..12).map(|k| (k as f64 * 0.37).sin().abs()).collect();
        let ex: Vec<f64> = (0..10).map(|k| 0.5 - k as f64 * 0.07).collect();
        let mut g = g0.clone();
        american_row(w, &mut g, &ex);
        for j in 0..ex.len() {
            let cont = w[0] * g0[j] + w[1] * g0[j + 1] + w[2] * g0[j + 2];
            assert_eq!(g[j].to_bits(), cont.max(ex[j]).to_bits(), "j={j}");
        }
        // Cells past the row are left alone.
        assert_eq!(&g[ex.len()..], &g0[ex.len()..]);
    }

    #[test]
    fn crossovers_stay_below_the_deep_lattices() {
        for t in
            [T_STAR_BOPM_CALL, T_STAR_BOPM_PUT, T_STAR_TOPM_CALL, T_STAR_TOPM_PUT, T_STAR_BSM_PUT]
        {
            assert!((1..1 << 14).contains(&t), "T* = {t}");
        }
    }
}
