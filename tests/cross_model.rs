//! Integration tests spanning the workspace crates: every implementation
//! family must agree on prices, and the models must agree with each other
//! and with closed forms in their overlap.

use american_option_pricing::core::bopm;
use american_option_pricing::prelude::*;

fn paper() -> OptionParams {
    OptionParams::paper_defaults()
}

#[test]
fn bopm_implementations_agree_at_multiple_sizes() {
    let cfg = EngineConfig::default();
    for steps in [64usize, 257, 1024, 4096] {
        let m = BopmModel::new(paper(), steps).unwrap();
        let fast = bopm_fast::price_american_call_trapezoid(&m, &cfg);
        let serial = bopm_naive::price(
            &m,
            OptionType::Call,
            ExerciseStyle::American,
            bopm_naive::ExecMode::Serial,
        );
        let parallel = bopm_naive::price(
            &m,
            OptionType::Call,
            ExerciseStyle::American,
            bopm_naive::ExecMode::Parallel,
        );
        let tiled = bopm::tiled::price(
            &m,
            OptionType::Call,
            ExerciseStyle::American,
            bopm::tiled::TileConfig::default(),
        );
        let oblivious = bopm::oblivious::price(&m, OptionType::Call, ExerciseStyle::American);
        for (name, v) in
            [("fast", fast), ("parallel", parallel), ("tiled", tiled), ("oblivious", oblivious)]
        {
            assert!(
                (v - serial).abs() < 1e-9 * serial,
                "steps={steps} {name}: {v} vs serial {serial}"
            );
        }
    }
}

#[test]
fn binomial_and_trinomial_agree_on_the_continuous_limit() {
    let cfg = EngineConfig::default();
    let steps = 4096;
    let bin = BopmModel::new(paper(), steps).unwrap();
    let tri = TopmModel::new(paper(), steps).unwrap();
    let v_bin = bopm_fast::price_american_call(&bin, &cfg);
    let v_tri = topm_fast::price_american_call(&tri, &cfg);
    assert!((v_bin - v_tri).abs() < 2e-3 * v_bin, "binomial {v_bin} vs trinomial {v_tri}");
}

#[test]
fn american_put_consistent_across_bsm_fd_and_lattice() {
    let cfg = EngineConfig::default();
    let p = OptionParams { dividend_yield: 0.0, rate: 0.05, ..paper() };
    let steps = 4096;
    let fd = BsmModel::new(p, steps).unwrap();
    let v_fd = bsm_fast::price_american_put(&fd, &cfg);
    let lat = BopmModel::new(p, steps).unwrap();
    let v_lat = bopm_fast::price_american_put(&lat, &cfg);
    assert!((v_fd - v_lat).abs() < 5e-3 * v_lat, "fd {v_fd} vs lattice {v_lat}");
}

#[test]
fn european_limits_match_black_scholes_within_discretisation_error() {
    let bs_call = analytic::black_scholes_price(&paper(), OptionType::Call).unwrap();
    let m = BopmModel::new(paper(), 32_768).unwrap();
    let v = american_option_pricing::core::bopm::european::price_european_fft(&m, OptionType::Call);
    assert!((v - bs_call).abs() < 1e-3, "lattice {v} vs closed form {bs_call}");
}

#[test]
fn perpetual_put_bounds_long_dated_american_put() {
    // As expiry grows, the American put value approaches (from below) the
    // perpetual closed form of McKean.
    let p = OptionParams { dividend_yield: 0.0, rate: 0.05, expiry: 25.0, ..paper() };
    let perpetual = analytic::perpetual_put(p.spot, p.strike, p.rate, p.volatility).unwrap();
    let m = BsmModel::new(p, 8192).unwrap();
    let long_dated = bsm_fast::price_american_put(&m, &EngineConfig::default());
    assert!(long_dated <= perpetual * 1.005, "{long_dated} vs perpetual {perpetual}");
    assert!(long_dated > perpetual * 0.9, "{long_dated} vs perpetual {perpetual}");
}

#[test]
fn price_is_monotone_in_contract_parameters() {
    let cfg = EngineConfig::default();
    let steps = 1024;
    let price =
        |p: OptionParams| bopm_fast::price_american_call(&BopmModel::new(p, steps).unwrap(), &cfg);
    let base = paper();
    // Call value rises with spot and vol, falls with strike.
    assert!(price(OptionParams { spot: 140.0, ..base }) > price(base));
    assert!(price(OptionParams { volatility: 0.4, ..base }) > price(base));
    assert!(price(OptionParams { strike: 150.0, ..base }) < price(base));
    // American with more time is worth at least as much.
    assert!(price(OptionParams { expiry: 2.0, ..base }) >= price(base) - 1e-12);
}

#[test]
fn engine_base_cutoff_is_a_pure_performance_knob() {
    let m = BopmModel::new(paper(), 2000).unwrap();
    let reference = bopm_fast::price_american_call_trapezoid(&m, &EngineConfig::default());
    for cutoff in [1u64, 3, 16, 64, 256] {
        let cfg = EngineConfig { base_cutoff: cutoff, ..EngineConfig::default() };
        let v = bopm_fast::price_american_call_trapezoid(&m, &cfg);
        assert!((v - reference).abs() < 1e-9 * reference, "cutoff={cutoff}");
    }
}

#[test]
fn greeks_and_implied_vol_roundtrip_through_the_fast_pricer() {
    let cfg = EngineConfig::default();
    let p = paper();
    let g = greeks::american_call_bopm(&p, 1024, &cfg).unwrap();
    assert!(g.delta > 0.0 && g.delta < 1.0 && g.vega > 0.0);
    let m = BopmModel::new(p, 1024).unwrap();
    let quote = bopm_fast::price_american_call(&m, &cfg);
    let vol = implied_vol::american_call_bopm(&p, 1024, quote, &cfg).unwrap();
    assert!((vol - p.volatility).abs() < 1e-6, "recovered vol {vol}");
}
