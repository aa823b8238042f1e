//! Shared measurement helpers for the benchmark harness that regenerates
//! the paper's tables and figures (see `src/bin/paper_figures.rs`).

#![forbid(unsafe_code)]

use amopt_core::batch::surface::VolQuote;
use amopt_core::batch::{BatchPricer, ModelKind, PricingRequest, Style};
use amopt_core::bopm::{self, BopmModel};
use amopt_core::bsm::{self, BsmModel};
use amopt_core::topm::{self, TopmModel};
use amopt_core::{implied_vol, EngineConfig, ExerciseStyle, OptionParams, OptionType, Result};
use std::time::Instant;

/// Implementations compared in Figure 5 / Table 5 (put-cone engines
/// included, so the Fig. 5-style sweeps cover both cones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Impl {
    /// Our FFT trapezoid pricer.
    FftBopm,
    /// The left-cone FFT pricer on the American **put** (same contract,
    /// mirrored geometry).
    FftBopmPut,
    /// Naive parallel loop nest (Par-bin-ops' QuantLib-equivalent).
    QlBopm,
    /// Cache-aware tiled loops (Zubair-style).
    ZbBopm,
    /// FFT trinomial pricer.
    FftTopm,
    /// The left-cone FFT pricer on the trinomial American **put**.
    FftTopmPut,
    /// Parallel trinomial loop nest.
    VanillaTopm,
    /// FFT BSM pricer (an American put by construction).
    FftBsm,
    /// Parallel BSM loop nest.
    VanillaBsm,
}

impl Impl {
    /// Legend string matching the paper's Table 4 (`-put` suffixed for the
    /// left-cone engines, which the paper does not cover).
    pub fn legend(self) -> &'static str {
        match self {
            Impl::FftBopm => "fft-bopm",
            Impl::FftBopmPut => "fft-bopm-put",
            Impl::QlBopm => "ql-bopm",
            Impl::ZbBopm => "zb-bopm",
            Impl::FftTopm => "fft-topm",
            Impl::FftTopmPut => "fft-topm-put",
            Impl::VanillaTopm => "vanilla-topm",
            Impl::FftBsm => "fft-bsm",
            Impl::VanillaBsm => "vanilla-bsm",
        }
    }

    /// Whether the implementation costs `Θ(T²)` work (limits feasible `T`).
    pub fn is_quadratic(self) -> bool {
        matches!(self, Impl::QlBopm | Impl::ZbBopm | Impl::VanillaTopm | Impl::VanillaBsm)
    }
}

/// Prices one paper-default instance with `steps` time steps; returns the
/// price.  The `Fft*` implementations run the paper's trapezoid engines at
/// every `T` (the `*_trapezoid` entry points), never the dense route below
/// `T*`.
pub fn run_pricer(which: Impl, steps: usize) -> f64 {
    run_pricer_with(which, OptionParams::paper_defaults(), steps)
}

/// [`run_pricer`] on an arbitrary contract (the BSM implementations price
/// it with `Y = 0`, the only yield that model admits).
pub fn run_pricer_with(which: Impl, params: OptionParams, steps: usize) -> f64 {
    let cfg = EngineConfig::default();
    match which {
        Impl::FftBopm => {
            let m = BopmModel::new(params, steps).expect("model");
            bopm::fast::price_american_call_trapezoid(&m, &cfg)
        }
        Impl::FftBopmPut => {
            let m = BopmModel::new(params, steps).expect("model");
            bopm::fast::price_american_put_trapezoid(&m, &cfg)
        }
        Impl::QlBopm => {
            let m = BopmModel::new(params, steps).expect("model");
            bopm::naive::price(
                &m,
                OptionType::Call,
                ExerciseStyle::American,
                bopm::naive::ExecMode::Parallel,
            )
        }
        Impl::ZbBopm => {
            let m = BopmModel::new(params, steps).expect("model");
            bopm::tiled::price(
                &m,
                OptionType::Call,
                ExerciseStyle::American,
                bopm::tiled::TileConfig::default(),
            )
        }
        Impl::FftTopm => {
            let m = TopmModel::new(params, steps).expect("model");
            topm::fast::price_american_call_trapezoid(&m, &cfg)
        }
        Impl::FftTopmPut => {
            let m = TopmModel::new(params, steps).expect("model");
            topm::fast::price_american_put_trapezoid(&m, &cfg)
        }
        Impl::VanillaTopm => {
            let m = TopmModel::new(params, steps).expect("model");
            topm::naive::price(
                &m,
                OptionType::Call,
                ExerciseStyle::American,
                topm::naive::ExecMode::Parallel,
            )
        }
        Impl::FftBsm => {
            let p = OptionParams { dividend_yield: 0.0, ..params };
            let m = BsmModel::new(p, steps).expect("model");
            bsm::fast::price_american_put_trapezoid(&m, &cfg)
        }
        Impl::VanillaBsm => {
            let p = OptionParams { dividend_yield: 0.0, ..params };
            let m = BsmModel::new(p, steps).expect("model");
            bsm::naive::price_american_put(&m, bsm::naive::ExecMode::Parallel)
        }
    }
}

/// Prices one `Fft*` instance with the serial table-driven dense kernel —
/// the route the public fast pricers take at or below `T*` — reusing
/// `scratch`; `None` for the loop-nest implementations.  Contracts as in
/// [`run_pricer_with`].
pub fn run_dense(
    which: Impl,
    params: OptionParams,
    steps: usize,
    scratch: &mut Vec<f64>,
) -> Option<f64> {
    let am = ExerciseStyle::American;
    let opt = match which {
        Impl::FftBopm | Impl::FftTopm => OptionType::Call,
        _ => OptionType::Put,
    };
    match which {
        Impl::FftBopm | Impl::FftBopmPut => {
            let m = BopmModel::new(params, steps).expect("model");
            Some(bopm::naive::price_with_scratch(&m, opt, am, scratch))
        }
        Impl::FftTopm | Impl::FftTopmPut => {
            let m = TopmModel::new(params, steps).expect("model");
            Some(topm::naive::price_with_scratch(&m, opt, am, scratch))
        }
        Impl::FftBsm => {
            let p = OptionParams { dividend_yield: 0.0, ..params };
            let m = BsmModel::new(p, steps).expect("model");
            let apex =
                bsm::naive::apex_value_with_scratch(&m, bsm::naive::Style::American, scratch);
            Some(p.strike * apex)
        }
        _ => None,
    }
}

/// Median-of-`reps` wall-clock time in seconds, plus the computed price.
pub fn time_pricer(which: Impl, steps: usize, reps: usize) -> (f64, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut price = 0.0;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        price = run_pricer(which, steps);
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], price)
}

/// Median-of-`reps` wall-clock seconds of `f` (used by the batch benches).
pub fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// A deterministic synthetic book of `n` *distinct* paper-default-sized
/// American BOPM calls: a dense strike ladder crossed with a maturity grid
/// around [`OptionParams::paper_defaults`].  Strikes are spaced `100/n`
/// apart, far beyond the batch layer's `1e-9` key quantisation, so no two
/// requests deduplicate — throughput numbers measure pricing, not caching.
pub fn paper_book(n: usize, steps: usize) -> Vec<PricingRequest> {
    let base = OptionParams::paper_defaults();
    (0..n)
        .map(|i| {
            let strike = 80.0 + 100.0 * i as f64 / n.max(1) as f64;
            let expiry = 0.25 + 0.25 * ((i % 8) as f64);
            let params = OptionParams { strike, expiry, ..base };
            PricingRequest::american(ModelKind::Bopm, OptionType::Call, params, steps)
        })
        .collect()
}

/// The same book shape as [`paper_book`] but with only `unique` distinct
/// contracts cycled to length `n` — exercises the dedup/memo path.
pub fn duplicated_book(unique: usize, n: usize, steps: usize) -> Vec<PricingRequest> {
    let distinct = paper_book(unique, steps);
    (0..n).map(|i| distinct[i % unique.max(1)].clone()).collect()
}

/// A deterministic put-heavy book: `n` distinct American **puts**
/// alternating between the binomial and trinomial lattices over the same
/// strike ladder × maturity grid as [`paper_book`].  This is the workload
/// that was `Θ(T²)`-bound before the left-cone engine: both put routes used
/// to fall back to the serial loop nest.
pub fn put_book(n: usize, steps: usize) -> Vec<PricingRequest> {
    let base = OptionParams::paper_defaults();
    (0..n)
        .map(|i| {
            let strike = 80.0 + 100.0 * i as f64 / n.max(1) as f64;
            let expiry = 0.25 + 0.25 * ((i % 8) as f64);
            let params = OptionParams { strike, expiry, ..base };
            let model = if i % 2 == 0 { ModelKind::Bopm } else { ModelKind::Topm };
            PricingRequest::american(model, OptionType::Put, params, steps)
        })
        .collect()
}

/// The pre-left-cone put baseline: one `Θ(T²)` serial loop nest per
/// contract, scratch-reused — exactly what `BatchPricer` routed American
/// puts to before the fast engines covered them.
///
/// # Panics
///
/// Panics on any request that is not an American BOPM/TOPM put.
pub fn sequential_naive_put_loop(book: &[PricingRequest]) -> Vec<f64> {
    let mut scratch = Vec::new();
    book.iter()
        .map(|req| {
            assert!(
                req.option_type == OptionType::Put && req.style == Style::American,
                "sequential_naive_put_loop only supports American puts, got {req:?}"
            );
            match req.model {
                ModelKind::Bopm => bopm::naive::price_with_scratch(
                    &BopmModel::new(req.params, req.steps).expect("valid book"),
                    OptionType::Put,
                    ExerciseStyle::American,
                    &mut scratch,
                ),
                ModelKind::Topm => topm::naive::price_with_scratch(
                    &TopmModel::new(req.params, req.steps).expect("valid book"),
                    OptionType::Put,
                    ExerciseStyle::American,
                    &mut scratch,
                ),
                ModelKind::Bsm => panic!("no naive-put baseline for the BSM grid in this loop"),
            }
        })
        .collect()
}

/// The sequential baseline the batch subsystem is judged against: a plain
/// loop over the facade, one model + one fast-pricer call per request, no
/// parallelism, no dedup, no memo.  Supports the [`paper_book`] request
/// shape (American BOPM calls) — exactly what a pre-batch caller wrote.
///
/// # Panics
///
/// Panics on any other request shape: a baseline that silently priced the
/// wrong contract would corrupt every reported speedup.
pub fn sequential_facade_loop(book: &[PricingRequest]) -> Vec<f64> {
    let cfg = EngineConfig::default();
    book.iter()
        .map(|req| {
            assert!(
                req.model == ModelKind::Bopm
                    && req.option_type == OptionType::Call
                    && req.style == Style::American,
                "sequential_facade_loop only supports the paper_book shape \
                 (American BOPM calls), got {req:?}"
            );
            let m = BopmModel::new(req.params, req.steps).expect("valid book");
            bopm::fast::price_american_call(&m, &cfg)
        })
        .collect()
}

/// Seconds to price `book` through a fresh memo-less [`BatchPricer`]
/// (median of `reps`): pure dispatch + parallel pricing, no cache effects.
pub fn time_batch_cold(book: &[PricingRequest], reps: usize) -> f64 {
    let pricer = BatchPricer::with_memo_capacity(EngineConfig::default(), 0);
    median_secs(reps, || {
        let out = pricer.price_batch(book);
        assert!(out.iter().all(std::result::Result::is_ok));
    })
}

/// A deterministic, duplicate-free K-strike × T-maturity grid of American
/// BOPM call quotes, each market price generated by pricing the contract
/// under a smooth volatility smile (so every quote is exactly attainable
/// and every inversion converges).
///
/// Strikes are spaced 5 apart and maturities 0.25y apart — far beyond the
/// batch layer's key quantisation — so no two quotes (and no two quotes'
/// probe sequences) deduplicate: surface throughput numbers measure
/// inversion, not caching.
pub fn surface_grid(strikes: usize, expiries: usize, steps: usize) -> Vec<VolQuote> {
    let base = OptionParams::paper_defaults();
    let cfg = EngineConfig::default();
    let mut quotes = Vec::with_capacity(strikes * expiries);
    for i in 0..strikes {
        for j in 0..expiries {
            let strike = 105.0 + 5.0 * i as f64;
            let expiry = 0.5 + 0.25 * j as f64;
            let smile = 0.16 + 0.06 * (strike / base.spot).ln().abs() + 0.015 * j as f64;
            let params = OptionParams { strike, expiry, ..base };
            let priced = OptionParams { volatility: smile, ..params };
            let market = bopm::fast::price_american_call(
                &BopmModel::new(priced, steps).expect("grid params are valid"),
                &cfg,
            );
            quotes.push(VolQuote::new(params, steps, market));
        }
    }
    quotes
}

/// The serial baseline the surface driver is judged against: one
/// [`implied_vol::american_call_bopm`] bisection per quote, in a plain loop
/// — exactly what a pre-surface caller wrote.
pub fn serial_surface_loop(quotes: &[VolQuote]) -> Vec<Result<f64>> {
    let cfg = EngineConfig::default();
    quotes
        .iter()
        .map(|q| implied_vol::american_call_bopm(&q.params, q.steps, q.market_price, &cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_impls_price_the_same_contract() {
        // BOPM family must agree with each other; same for TOPM/BSM pairs.
        let t = 256;
        let a = run_pricer(Impl::FftBopm, t);
        let b = run_pricer(Impl::QlBopm, t);
        let c = run_pricer(Impl::ZbBopm, t);
        assert!((a - b).abs() < 1e-9 * b && (c - b).abs() < 1e-9 * b);
        let d = run_pricer(Impl::FftTopm, t);
        let e = run_pricer(Impl::VanillaTopm, t);
        assert!((d - e).abs() < 1e-9 * e);
        let f = run_pricer(Impl::FftBsm, t);
        let g = run_pricer(Impl::VanillaBsm, t);
        assert!((f - g).abs() < 1e-9 * g.max(1.0));
    }

    #[test]
    fn put_impls_match_their_naive_nests() {
        let t = 256;
        let params = OptionParams::paper_defaults();
        let want_bopm = bopm::naive::price(
            &BopmModel::new(params, t).unwrap(),
            OptionType::Put,
            ExerciseStyle::American,
            bopm::naive::ExecMode::Serial,
        );
        let got = run_pricer(Impl::FftBopmPut, t);
        assert!((got - want_bopm).abs() < 1e-9 * want_bopm, "{got} vs {want_bopm}");
        let want_topm = topm::naive::price(
            &TopmModel::new(params, t).unwrap(),
            OptionType::Put,
            ExerciseStyle::American,
            topm::naive::ExecMode::Serial,
        );
        let got = run_pricer(Impl::FftTopmPut, t);
        assert!((got - want_topm).abs() < 1e-9 * want_topm, "{got} vs {want_topm}");
    }

    #[test]
    fn timing_returns_positive_duration() {
        let (secs, price) = time_pricer(Impl::FftBopm, 128, 3);
        assert!(secs > 0.0 && price > 0.0);
    }

    #[test]
    fn paper_book_is_distinct_and_batch_matches_sequential_loop() {
        let book = paper_book(64, 64);
        let pricer = BatchPricer::new(EngineConfig::default());
        let batch = pricer.price_batch(&book);
        // All 64 requests are distinct: none deduplicated away.
        assert_eq!(pricer.memo_stats().misses, 64);
        let seq = sequential_facade_loop(&book);
        for (b, s) in batch.iter().zip(&seq) {
            assert_eq!(b.as_ref().unwrap().to_bits(), s.to_bits());
        }
    }

    #[test]
    fn put_book_batch_matches_the_naive_loop_numerically() {
        let book = put_book(32, 96);
        let pricer = BatchPricer::new(EngineConfig::default());
        let batch = pricer.price_batch(&book);
        assert_eq!(pricer.memo_stats().misses, 32, "put book must be duplicate-free");
        let naive = sequential_naive_put_loop(&book);
        for ((req, b), n) in book.iter().zip(&batch).zip(&naive) {
            let b = b.as_ref().unwrap_or_else(|e| panic!("{req:?}: {e}"));
            assert!((b - n).abs() < 1e-9 * n.abs().max(1.0), "{req:?}: fast {b} vs naive {n}");
        }
    }

    #[test]
    fn duplicated_book_dedupes() {
        let book = duplicated_book(8, 64, 64);
        assert_eq!(book.len(), 64);
        let pricer = BatchPricer::new(EngineConfig::default());
        pricer.price_batch(&book);
        assert_eq!(pricer.memo_stats().misses, 8);
    }

    #[test]
    fn surface_grid_quotes_are_distinct_and_invert_both_ways() {
        use amopt_core::batch::surface::implied_vol_surface;
        let quotes = surface_grid(3, 2, 64);
        assert_eq!(quotes.len(), 6);
        let pricer = BatchPricer::new(EngineConfig::default());
        let batch = implied_vol_surface(&pricer, &quotes);
        let serial = serial_surface_loop(&quotes);
        for (b, s) in batch.iter().zip(&serial) {
            let (b, s) = (b.as_ref().unwrap(), s.as_ref().unwrap());
            assert!((b - s).abs() < 1e-6, "surface {b} vs serial {s}");
        }
    }
}
