//! `book_cold`: a seeded book of distinct contracts at `T = 252`, priced
//! with one `BatchPricer::price_batch` call per round on a fresh pricer, so
//! the memo never hits and nothing deduplicates.  Per-pricing constant
//! factors and the batch fan-out dominate; FFT passes are short.

use crate::facade;
use crate::gen::{self, Rng, BOOK_SIZE, BOOK_STEPS};
use crate::spec::Measured;
use crate::stats::{self, median, percentile, spin, CpuTimes};
use crate::trace::Tracer;
use crate::RunArgs;
use american_option_pricing::core::batch::BatchPricer;
use american_option_pricing::core::EngineConfig;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Warm-up batch of each set-up: the head of the book.
const WARMUP: usize = 256;
/// Results per round checked bitwise against direct facade calls.
const CHECKED_PER_ROUND: usize = 32;
/// Rounds priced even when `--seconds` is shorter than that takes.
const MIN_ROUNDS: usize = 3;
/// Share of rounds the timing metrics keep: those that lost the least CPU
/// time to the hypervisor (see [`stats::least_stolen`]).
const KEEP: f64 = 0.75;

pub fn run(args: &RunArgs, tracer: &Tracer) -> Result<Measured, String> {
    let book = gen::book(args.seed, BOOK_SIZE, BOOK_STEPS);
    let cfg = EngineConfig::default();

    // Set-up: a pricer and one warm-up batch (scratch pools, FFT plans).
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let pricer = BatchPricer::new(cfg);
        std::hint::black_box(pricer.price_batch(&book[..WARMUP]));
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut round_ms = Vec::new();
    let mut stolen = Vec::new();
    let mut failed = 0u64;
    let mut check_rng = Rng::new(args.seed, 7);
    let start = Instant::now();
    while round_ms.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let r = round_ms.len() as u64;
        let pricer = BatchPricer::new(cfg);
        let root = tracer.begin("book.round", None, r);
        let cpu = CpuTimes::now();
        let t0 = Instant::now();
        let prices = tracer.span("batch.price_batch", root.id(), r, || {
            pricer.price_batch(std::hint::black_box(&book))
        });
        spin(t0.elapsed().as_secs_f64() * args.delay_pct / 100.0);
        let dt = t0.elapsed().as_secs_f64();
        stolen.push(cpu.steal_since(CpuTimes::now()));
        tracer.end(root);
        round_ms.push(dt * 1e3);

        failed += prices.iter().filter(|p| p.is_err()).count() as u64;
        for _ in 0..CHECKED_PER_ROUND {
            let i = check_rng.below(book.len());
            let direct = facade::price(&book[i], &cfg);
            match (&prices[i], direct) {
                (Ok(a), Ok(b)) if a.to_bits() == b.to_bits() => {}
                (Err(_), _) => {} // already counted
                _ => failed += 1,
            }
        }
    }
    let n = round_ms.len();
    let keep = ((n as f64 * KEEP).ceil() as usize).max(1);
    let kept = stats::least_stolen(stolen.iter().copied().zip(round_ms).collect(), keep);
    let priced_s: f64 = kept.iter().sum::<f64>() / 1e3;
    Ok(Measured {
        setup_s: median(&setups),
        options_per_s: (kept.len() * book.len()) as f64 / priced_s,
        latency_ms_p50: median(&kept),
        peak_rss_mb: stats::peak_rss_mb(),
        tail_percentile: 90.0,
        latency_ms_tail: percentile(&kept, 90.0),
        attempted: (n * book.len()) as u64,
        failed,
        notes: vec![
            ("steps".into(), BOOK_STEPS.to_string()),
            ("book".into(), book.len().to_string()),
            ("rounds".into(), n.to_string()),
            ("rounds_timed".into(), format!("{} least-stolen", kept.len())),
            ("steal_mean".into(), format!("{:.4}", stolen.iter().sum::<f64>() / n as f64)),
            ("latency_unit".into(), "one price_batch round over the whole book".into()),
            ("checked_bitwise".into(), (n * CHECKED_PER_ROUND).to_string()),
            ("nproc".into(), stats::nproc().to_string()),
        ],
        valid: true,
    })
}
