//! `deep_t`: American contracts at `T = 2^14`, priced one at a time through
//! the public fast pricers.  The FFT, the stencil, the trapezoid recursion
//! and the in-pricing fork-join do nearly all the work; batch, queue and
//! wire do none.

use crate::facade;
use crate::gen::{self, DEEP_T_STEPS};
use crate::refs;
use crate::spec::Measured;
use crate::stats::{self, median, percentile, spin, CpuTimes};
use crate::trace::Tracer;
use crate::RunArgs;
use american_option_pricing::core::EngineConfig;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Prices the whole pool in passes, each in the seed's order, until
/// `--seconds` have passed; the first pass always completes, so every run
/// times the same contracts.  Each contract's time is the fastest of its
/// pricings: a neighbour on a shared machine only ever adds time, and
/// pricings of one contract lie a pass apart, so a slow stretch of the
/// machine rarely hits them all.
pub fn run(args: &RunArgs, tracer: &Tracer) -> Result<Measured, String> {
    let pool = gen::deep_t_pool();
    let references = refs::load(&pool)?;
    let order = gen::deep_t_order(args.seed, 100 * pool.len());

    // Set-up: engine configuration plus one warm-up pricing per engine
    // (first-touch of the FFT plans and the scratch pools).
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cfg = EngineConfig::default();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        cfg = EngineConfig::default();
        for e in 0..gen::Engine::ALL.len() {
            let c = &pool[e * gen::DEEP_T_POOL_PER_ENGINE];
            std::hint::black_box(facade::price(&c.request, &cfg).map_err(|e| e.to_string())?);
        }
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut best_ms = vec![f64::INFINITY; pool.len()];
    let mut stolen = 0.0;
    let mut failed = 0u64;
    let mut priced = 0;
    let start = Instant::now();
    for (k, &i) in order.iter().enumerate() {
        if k >= pool.len() && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let c = &pool[i];
        let root = tracer.begin("deep_t.contract", None, k as u64);
        let cpu = CpuTimes::now();
        let t0 = Instant::now();
        let result = tracer.span(engine_span(c.engine), root.id(), k as u64, || {
            facade::price(std::hint::black_box(&c.request), &cfg)
        });
        spin(t0.elapsed().as_secs_f64() * args.delay_pct / 100.0);
        let dt = t0.elapsed().as_secs_f64();
        stolen += cpu.steal_since(CpuTimes::now());
        tracer.end(root);
        best_ms[i] = best_ms[i].min(dt * 1e3);
        priced += 1;
        match result {
            Ok(p) if refs::within_tol(p, references[i]) => {}
            _ => failed += 1,
        }
    }
    let pool_s: f64 = best_ms.iter().sum::<f64>() / 1e3;
    Ok(Measured {
        setup_s: median(&setups),
        options_per_s: pool.len() as f64 / pool_s,
        latency_ms_p50: median(&best_ms),
        peak_rss_mb: stats::peak_rss_mb(),
        tail_percentile: 90.0,
        latency_ms_tail: percentile(&best_ms, 90.0),
        attempted: priced as u64,
        failed,
        notes: vec![
            ("steps".into(), DEEP_T_STEPS.to_string()),
            ("pricings".into(), priced.to_string()),
            (
                "contracts_timed".into(),
                format!(
                    "{} (fastest of {:.2} pricings each)",
                    pool.len(),
                    priced as f64 / pool.len() as f64
                ),
            ),
            ("steal_mean".into(), format!("{:.4}", stolen / priced as f64)),
            ("tolerance".into(), format!("{:e} relative to the loop nests", refs::DEEP_T_TOL)),
        ],
        valid: true,
    })
}

fn engine_span(e: gen::Engine) -> &'static str {
    match e {
        gen::Engine::RightCone => "engine.right_cone",
        gen::Engine::LeftCone => "engine.left_cone",
        gen::Engine::Centered => "engine.centered",
    }
}
