//! Property tests for the fast American puts (left-cone engine): naive-loop
//! equivalence across a randomized parameter grid, the discrete put–call
//! symmetry, boundary monotonicity, and batch-of-one bitwise identity.  The
//! engine checks call the `*_trapezoid` entry points, which run the engines
//! at every depth; the public pricers run the dense loop below `T*`.

use american_option_pricing::core::engine::dense;
use american_option_pricing::prelude::*;
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bopm_fast_put_matches_naive_on_random_params(p in arb_params(), steps in 16usize..600) {
        prop_assume!(BopmModel::new(p, steps).is_ok());
        let m = BopmModel::new(p, steps).unwrap();
        let fast = bopm_fast::price_american_put_trapezoid(&m, &EngineConfig::default());
        let naive = bopm_naive::price(
            &m, OptionType::Put, ExerciseStyle::American, bopm_naive::ExecMode::Serial);
        prop_assert!(
            (fast - naive).abs() < 1e-8 * naive.abs().max(1.0) + 1e-12 * p.strike,
            "fast {} vs naive {}", fast, naive
        );
    }

    #[test]
    fn topm_fast_put_matches_naive_on_random_params(p in arb_params(), steps in 16usize..400) {
        prop_assume!(TopmModel::new(p, steps).is_ok());
        let m = TopmModel::new(p, steps).unwrap();
        let fast = topm_fast::price_american_put_trapezoid(&m, &EngineConfig::default());
        let naive = topm_naive::price(
            &m, OptionType::Put, ExerciseStyle::American, topm_naive::ExecMode::Serial);
        prop_assert!(
            (fast - naive).abs() < 1e-8 * naive.abs().max(1.0) + 1e-12 * p.strike,
            "fast {} vs naive {}", fast, naive
        );
    }

    #[test]
    fn bopm_put_call_symmetry_holds(p in arb_params(), steps in 16usize..500) {
        // McDonald–Schroder discrete symmetry, exact on CRR lattices
        // (u·d = 1): P(S, K, R, Y) = C(K, S, Y, R).  The put prices through
        // the left-cone engine, the call through the right-cone engine —
        // two independent code paths agreeing through a nontrivial identity.
        let mirrored = OptionParams {
            spot: p.strike,
            strike: p.spot,
            rate: p.dividend_yield,
            dividend_yield: p.rate,
            ..p
        };
        prop_assume!(BopmModel::new(p, steps).is_ok());
        // |R−Y| and V·√Δt are symmetric, so the mirror is stable too.
        let put_m = BopmModel::new(p, steps).unwrap();
        let call_m = BopmModel::new(mirrored, steps).unwrap();
        let cfg = EngineConfig::default();
        let put = bopm_fast::price_american_put_trapezoid(&put_m, &cfg);
        let call = bopm_fast::price_american_call_trapezoid(&call_m, &cfg);
        prop_assert!(
            (put - call).abs() < 1e-8 * call.abs().max(1.0) + 1e-11 * p.strike.max(p.spot),
            "put {} vs mirrored call {}", put, call
        );
    }

    #[test]
    fn bopm_put_boundary_is_monotone(p in arb_params(), steps in 64usize..400) {
        prop_assume!(BopmModel::new(p, steps).is_ok());
        prop_assume!(p.rate > 1e-4); // zero-rate puts have no frontier
        let m = BopmModel::new(p, steps).unwrap();
        let pts = exercise_boundary::bopm_put_boundary(&m, &EngineConfig::default(), 12);
        // Expiry-first samples: the critical price never increases as
        // time-to-expiry grows — up to the lattice quantisation (the
        // discrete frontier tracks S*(τ) only to within a factor u²) — and
        // stays at or below the strike exactly.
        let prices: Vec<f64> = pts.iter().filter_map(|q| q.critical_price).collect();
        let slack = m.up().powi(2) * (1.0 + 1e-9);
        for w in prices.windows(2) {
            prop_assert!(w[1] <= w[0] * slack, "frontier not monotone: {:?}", w);
        }
        for &x in &prices {
            prop_assert!(x <= p.strike * (1.0 + 1e-12), "critical {} above strike", x);
        }
    }

    #[test]
    fn batch_of_one_put_is_bitwise_identical_to_the_direct_pricer(
        p in arb_params(),
        steps in 16usize..300,
        family in 0usize..2,
    ) {
        let cfg = EngineConfig::default();
        let (req, want) = if family == 1 {
            prop_assume!(TopmModel::new(p, steps).is_ok());
            let m = TopmModel::new(p, steps).unwrap();
            (
                PricingRequest::american(ModelKind::Topm, OptionType::Put, p, steps),
                topm_fast::price_american_put(&m, &cfg),
            )
        } else {
            prop_assume!(BopmModel::new(p, steps).is_ok());
            let m = BopmModel::new(p, steps).unwrap();
            (
                PricingRequest::american(ModelKind::Bopm, OptionType::Put, p, steps),
                bopm_fast::price_american_put(&m, &cfg),
            )
        };
        let pricer = BatchPricer::new(cfg);
        let got = pricer.price_one(&req).unwrap();
        prop_assert!(got.to_bits() == want.to_bits(), "batch {} vs direct {}", got, want);
    }
}

/// The engine-vs-engine symmetry at a size where the trapezoid recursion is
/// deep on both sides (non-property, one deterministic heavyweight case).
#[test]
fn put_call_symmetry_at_depth() {
    let p = OptionParams::paper_defaults();
    let mirrored = OptionParams {
        spot: p.strike,
        strike: p.spot,
        rate: p.dividend_yield,
        dividend_yield: p.rate,
        ..p
    };
    let cfg = EngineConfig::default();
    let put = bopm_fast::price_american_put_trapezoid(&BopmModel::new(p, 8192).unwrap(), &cfg);
    let call =
        bopm_fast::price_american_call_trapezoid(&BopmModel::new(mirrored, 8192).unwrap(), &cfg);
    assert!((put - call).abs() < 1e-8 * call.max(1.0), "put {put} vs mirrored call {call}");
}

/// The batch layer routes American puts through the public fast pricer —
/// bitwise its result, which below `T*` is the dense loop and above it the
/// left-cone engine (the engine differs from the loop in the last few ulps,
/// so bitwise identity pins which one ran).
#[test]
fn batch_put_route_is_the_fast_engine() {
    let p = OptionParams::paper_defaults();
    let steps = 300;
    let pricer = BatchPricer::new(EngineConfig::default());
    let got = pricer
        .price_one(&PricingRequest::american(ModelKind::Bopm, OptionType::Put, p, steps))
        .unwrap();
    let fast =
        bopm_fast::price_american_put(&BopmModel::new(p, steps).unwrap(), &EngineConfig::default());
    assert_eq!(got.to_bits(), fast.to_bits());
    let deep = dense::T_STAR_BOPM_PUT + 1;
    let engine = bopm_fast::price_american_put_trapezoid(
        &BopmModel::new(p, deep).unwrap(),
        &EngineConfig::default(),
    );
    let routed = pricer
        .price_one(&PricingRequest::american(ModelKind::Bopm, OptionType::Put, p, deep))
        .unwrap();
    assert_eq!(routed.to_bits(), engine.to_bits(), "above T* the batch runs the engine");
    // Keep the naive nest as the numerical oracle for the same contract.
    let naive = bopm_naive::price(
        &BopmModel::new(p, steps).unwrap(),
        OptionType::Put,
        ExerciseStyle::American,
        bopm_naive::ExecMode::Serial,
    );
    assert!((got - naive).abs() < 1e-9 * naive.max(1.0), "batch {got} vs naive {naive}");
}
