//! The dense-kernel route of the public fast American pricers, on both
//! sides of each measured crossover `T*`.
//!
//! At `T ≤ T*` the public pricer must be bitwise the serial dense loop
//! (zero-yield calls and zero-rate puts excepted, see the last test), at
//! `T > T*` bitwise the trapezoid engine, and the two must agree to the
//! engine's accuracy wherever the switch happens — so crossing `T*` moves
//! a price by at most the fast-vs-naive gap.  A batch of one stays bitwise
//! the public pricer on both sides.

use american_option_pricing::core::engine::dense;
use american_option_pricing::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Every (model, option type) with a dense route.
const FAMILIES: [(ModelKind, OptionType); 5] = [
    (ModelKind::Bopm, OptionType::Call),
    (ModelKind::Bopm, OptionType::Put),
    (ModelKind::Topm, OptionType::Call),
    (ModelKind::Topm, OptionType::Put),
    (ModelKind::Bsm, OptionType::Put),
];

fn t_star(model: ModelKind, opt: OptionType) -> usize {
    match (model, opt) {
        (ModelKind::Bopm, OptionType::Call) => dense::T_STAR_BOPM_CALL,
        (ModelKind::Bopm, OptionType::Put) => dense::T_STAR_BOPM_PUT,
        (ModelKind::Topm, OptionType::Call) => dense::T_STAR_TOPM_CALL,
        (ModelKind::Topm, OptionType::Put) => dense::T_STAR_TOPM_PUT,
        (ModelKind::Bsm, _) => dense::T_STAR_BSM_PUT,
    }
}

fn arb_params() -> impl Strategy<Value = OptionParams> {
    (
        10.0..500.0f64, // spot
        10.0..500.0f64, // strike
        0.0..0.10f64,   // rate
        0.05..0.8f64,   // volatility
        0.0..0.10f64,   // dividend yield
        0.1..3.0f64,    // expiry
    )
        .prop_map(|(spot, strike, rate, volatility, dividend_yield, expiry)| OptionParams {
            spot,
            strike,
            rate,
            volatility,
            dividend_yield,
            expiry,
        })
}

/// The dense loop's, the engine's and the public pricer's price of one
/// American contract, or `None` when its model rejects the parameters.
fn prices(req: &PricingRequest) -> Option<(f64, f64, f64)> {
    let (p, steps, opt) = (req.params, req.steps, req.option_type);
    let cfg = EngineConfig::default();
    let am = ExerciseStyle::American;
    Some(match req.model {
        ModelKind::Bopm => {
            let m = BopmModel::new(p, steps).ok()?;
            let kernel = bopm_naive::price(&m, opt, am, bopm_naive::ExecMode::Serial);
            match opt {
                OptionType::Call => (
                    kernel,
                    bopm_fast::price_american_call_trapezoid(&m, &cfg),
                    bopm_fast::price_american_call(&m, &cfg),
                ),
                OptionType::Put => (
                    kernel,
                    bopm_fast::price_american_put_trapezoid(&m, &cfg),
                    bopm_fast::price_american_put(&m, &cfg),
                ),
            }
        }
        ModelKind::Topm => {
            let m = TopmModel::new(p, steps).ok()?;
            let kernel = topm_naive::price(&m, opt, am, topm_naive::ExecMode::Serial);
            match opt {
                OptionType::Call => (
                    kernel,
                    topm_fast::price_american_call_trapezoid(&m, &cfg),
                    topm_fast::price_american_call(&m, &cfg),
                ),
                OptionType::Put => (
                    kernel,
                    topm_fast::price_american_put_trapezoid(&m, &cfg),
                    topm_fast::price_american_put(&m, &cfg),
                ),
            }
        }
        ModelKind::Bsm => {
            let m = BsmModel::new(p, steps).ok()?;
            (
                bsm_naive::price_american_put(&m, bsm_naive::ExecMode::Serial),
                bsm_fast::price_american_put_trapezoid(&m, &cfg),
                bsm_fast::price_american_put(&m, &cfg),
            )
        }
    })
}

/// Checks one contract; `Err(Reject)` when its model rejects it.
fn check(req: &PricingRequest) -> Result<(), TestCaseError> {
    let Some((kernel, engine, routed)) = prices(req) else {
        return Err(TestCaseError::Reject);
    };
    let t_star = t_star(req.model, req.option_type);
    let (want, name) = if req.steps <= t_star { (kernel, "kernel") } else { (engine, "engine") };
    prop_assert!(
        routed.to_bits() == want.to_bits(),
        "{:?} {:?} T = {} (T* = {}): routed {} vs {} {}",
        req.model,
        req.option_type,
        req.steps,
        t_star,
        routed,
        name,
        want
    );
    // The engine's absolute error scales with the strike (its FFT passes
    // carry values of order K), so deep out-of-the-money contracts — prices
    // far below 1 — get the ε·K term the fast ≡ naive property tests use.
    let bound = 1e-10 * kernel.abs().max(1.0) + 1e-12 * req.params.strike;
    prop_assert!(
        (kernel - engine).abs() <= bound,
        "T = {}: kernel {} vs engine {} (bound {:e})",
        req.steps,
        kernel,
        engine,
        bound
    );
    let batch = BatchPricer::new(EngineConfig::default()).price_one(req).unwrap();
    prop_assert!(batch.to_bits() == routed.to_bits(), "batch {} vs routed {}", batch, routed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn route_switches_at_each_crossover(
        p in arb_params(),
        family in 0usize..FAMILIES.len(),
        dt in 0usize..17,
    ) {
        let (model, opt) = FAMILIES[family];
        // BSM admits only Y = 0 (paper §4).
        let p = if model == ModelKind::Bsm { OptionParams { dividend_yield: 0.0, ..p } } else { p };
        let steps = t_star(model, opt) - 8 + dt;
        check(&PricingRequest::american(model, opt, p, steps))?;
    }
}

/// Both sides of every crossover, deterministically: the last dense depth
/// and the first engine depth at paper defaults.
#[test]
fn each_crossover_is_the_last_dense_depth() {
    let p = OptionParams::paper_defaults();
    for (model, opt) in FAMILIES {
        let p = if model == ModelKind::Bsm { OptionParams { dividend_yield: 0.0, ..p } } else { p };
        let t_star = t_star(model, opt);
        for steps in [t_star, t_star + 1] {
            check(&PricingRequest::american(model, opt, p, steps)).unwrap();
        }
    }
}

/// A zero-yield call and a zero-rate put keep the trapezoid entry's single
/// European FFT pass below `T*` too: it is exact for them and cheaper than
/// the dense sweep at depth.
#[test]
fn zero_yield_calls_and_zero_rate_puts_keep_the_european_pass() {
    let y0 = OptionParams { dividend_yield: 0.0, ..OptionParams::paper_defaults() };
    let r0 = OptionParams { rate: 0.0, ..OptionParams::paper_defaults() };
    for (model, opt) in FAMILIES.into_iter().filter(|&(m, _)| m != ModelKind::Bsm) {
        let p = if opt == OptionType::Call { y0 } else { r0 };
        for steps in [252, 2048] {
            let req = PricingRequest::american(model, opt, p, steps);
            let (_, engine, routed) = prices(&req).unwrap();
            assert_eq!(routed.to_bits(), engine.to_bits(), "{req:?}");
        }
    }
}
