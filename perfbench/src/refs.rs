//! Reference prices for the `deep_t` pool, from the `Θ(T²)` loop nests.
//!
//! Regenerate with (about five minutes on two cores):
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- regen-refs
//! ```
//!
//! The file is embedded at build time, so oracle time never enters a run.

use crate::facade;
use crate::gen::{self, DeepContract};

/// The committed reference table.
pub const DEEP_T_REFS: &str = include_str!("../refs/deep_t.tsv");

/// Relative tolerance (absolute below a price of 1) between a fast
/// engine's price and the loop-nest reference.  The largest gap measured
/// over the pool is recorded in the table's header.
pub const DEEP_T_TOL: f64 = 1e-9;

/// Whether `price` agrees with `reference` within [`DEEP_T_TOL`].
pub fn within_tol(price: f64, reference: f64) -> bool {
    (price - reference).abs() <= DEEP_T_TOL * reference.abs().max(1.0)
}

/// Parses the table and checks that it describes exactly the pool the
/// generator draws, returning one reference price per pool entry.
pub fn load(pool: &[DeepContract]) -> Result<Vec<f64>, String> {
    let rows: Vec<&str> =
        DEEP_T_REFS.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()).collect();
    if rows.len() != pool.len() {
        return Err(format!("reference table has {} rows, pool has {}", rows.len(), pool.len()));
    }
    rows.iter()
        .zip(pool)
        .enumerate()
        .map(|(i, (row, c))| {
            let cols: Vec<&str> = row.split('\t').collect();
            if cols.len() != 4 {
                return Err(format!("reference row {i}: expected 4 columns"));
            }
            if cols[1] != gen::describe(&c.request) {
                return Err(format!("reference row {i} describes another contract; regenerate"));
            }
            u64::from_str_radix(cols[2], 16)
                .map(f64::from_bits)
                .map_err(|e| format!("reference row {i}: {e}"))
        })
        .collect()
}

/// Recomputes the table with the loop nests on `threads` threads.
pub fn regenerate(threads: usize) -> String {
    let pool = gen::deep_t_pool();
    let cfg = american_option_pricing::core::EngineConfig::default();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut rows: Vec<(usize, f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(c) = pool.get(i) else { break out };
                        let reference = facade::naive_american(&c.request)
                            .expect("every pool contract has a loop-nest price");
                        let fast = facade::price(&c.request, &cfg)
                            .expect("every pool contract has a fast price");
                        eprintln!("ref {i:>3} {:<10} {reference:.12}", c.engine.name());
                        out.push((i, reference, fast));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("reference worker panicked")).collect()
    });
    rows.sort_by_key(|r| r.0);
    let worst =
        rows.iter().map(|&(_, r, f)| (f - r).abs() / r.abs().max(1.0)).fold(0.0f64, f64::max);
    let mut out = String::from(
        "# deep_t reference prices: Θ(T²) serial loop nests at T = 16384.\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- regen-refs\n",
    );
    out.push_str(&format!(
        "# largest fast-vs-reference gap over the pool (relative, absolute below 1): {worst:.3e}\n"
    ));
    out.push_str("# index\tcontract\tprice_bits\tprice\n");
    for (i, reference, _) in rows {
        out.push_str(&format!(
            "{i}\t{}\t{:016x}\t{reference:.15}\n",
            gen::describe(&pool[i].request),
            reference.to_bits()
        ));
    }
    out
}
