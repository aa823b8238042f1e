//! Layer probes of the traced run.  Where a layer runs inside a single
//! public call (the FFT and the stencil inside an engine, the engines
//! inside a batch, the batch inside the service), its own public function
//! is replayed here on seed-derived inputs, each call inside a span; the
//! per-layer metrics are read back from those spans.  FFT and stencil
//! sizes are those a `T = 2^14` recursion uses.

use crate::facade;
use crate::gen::{self, Quote, Rng, BOOK_STEPS, DEEP_T_POOL_PER_ENGINE, DEEP_T_STEPS};
use crate::quote_stream::{self, Stream, HEAVY_RPS};
use crate::stats::{median, nproc, percentile};
use crate::trace::{durations_us, Span, Tracer};
use american_option_pricing::core::batch::{BatchPricer, PricingRequest};
use american_option_pricing::core::bopm::{self, BopmModel};
use american_option_pricing::core::{EngineConfig, ExerciseStyle, OptionParams, OptionType};
use american_option_pricing::fft::{correlate_power_valid_with, FftScratch};
use american_option_pricing::parallel;
use american_option_pricing::service::{wire, QuoteService, ServiceConfig};
use american_option_pricing::stencil::{advance, Backend, Segment};
use std::collections::HashSet;
use std::time::Duration;

/// Book slice replayed for the batch probes.
const BATCH_SLICE: usize = 1024;
/// Seconds of heavy-rate schedule the queue probes replay.
const QUEUE_SECONDS: f64 = 2.0;
/// Lone requests timed into an idle service.
const LONE: usize = 20;
/// Stream lines the wire probes decode and encode.
const WIRE_LINES: usize = 2000;

fn black_box_ok<T, E: std::fmt::Debug>(r: Result<T, E>) -> T {
    std::hint::black_box(r.expect("probe inputs price"))
}

/// Runs every probe, recording spans into `tracer`, and returns the values
/// that do not come from span durations.
pub fn run(seed: u64, tracer: &Tracer) -> std::io::Result<Vec<(&'static str, f64)>> {
    let mut direct: Vec<(&'static str, f64)> = Vec::new();
    let mut rng = Rng::new(seed, 10);

    // amopt-fft: valid-mode power correlation with the paper's kernel.
    let kernel = BopmModel::new(OptionParams::paper_defaults(), DEEP_T_STEPS)
        .expect("paper defaults form a lattice")
        .kernel();
    let mut scratch = FftScratch::default();
    for (n, reps, name) in
        [(4096usize, 200, "fft.correlate.n4096"), (65536, 20, "fft.correlate.n65536")]
    {
        let x: Vec<f64> = (0..n).map(|_| rng.range(0.0, 100.0)).collect();
        let h = (n / 4) as u64;
        std::hint::black_box(correlate_power_valid_with(&x, kernel.weights(), h, &mut scratch));
        for r in 0..reps {
            tracer.span(name, None, r, || {
                std::hint::black_box(correlate_power_valid_with(
                    &x,
                    kernel.weights(),
                    h,
                    &mut scratch,
                ))
            });
        }
    }

    // amopt-stencil: multi-step advance of a 4h-cell segment.
    for (h, reps, name) in
        [(1024u64, 100, "stencil.advance.h1024"), (4096, 30, "stencil.advance.h4096")]
    {
        let seg = Segment::new(0, (0..4 * h).map(|_| rng.range(0.0, 100.0)).collect());
        std::hint::black_box(advance(&seg, &kernel, h, Backend::Fft));
        for r in 0..reps {
            tracer.span(name, None, r, || {
                std::hint::black_box(advance(&seg, &kernel, h, Backend::Fft))
            });
        }
    }

    // Engine pricers at both depths, on the first pool contract per engine.
    let cfg = EngineConfig::default();
    let pool = gen::deep_t_pool();
    let deep = |e: usize| &pool[e * DEEP_T_POOL_PER_ENGINE].request;
    let at_252 = |r: &PricingRequest| PricingRequest { steps: BOOK_STEPS, ..r.clone() };
    let engines = [
        ("engine.right_cone.t16384", "engine.right_cone.t252"),
        ("engine.left_cone.t16384", "engine.left_cone.t252"),
        ("engine.centered.t16384", "engine.centered.t252"),
    ];
    for (e, (deep_name, shallow_name)) in engines.into_iter().enumerate() {
        for r in 0..2 {
            tracer.span(deep_name, None, r, || black_box_ok(facade::price(deep(e), &cfg)));
        }
        let shallow = at_252(deep(e));
        black_box_ok(facade::price(&shallow, &cfg));
        for r in 0..40 {
            tracer.span(shallow_name, None, r, || black_box_ok(facade::price(&shallow, &cfg)));
        }
    }

    // The Θ(T²) loop nest at the wire's default depth (left-cone contract).
    let naive_model = BopmModel::new(at_252(deep(1)).params, BOOK_STEPS).expect("pool contract");
    for r in 0..40 {
        tracer.span("pricer.naive.t252", None, r, || {
            std::hint::black_box(bopm::naive::price(
                &naive_model,
                OptionType::Put,
                ExerciseStyle::American,
                bopm::naive::ExecMode::Serial,
            ))
        });
    }

    // amopt-parallel: fork-join overheads and the in-pricing speed-up.
    for r in 0..200 {
        tracer.span("parallel.join", None, r, || parallel::join(|| (), || ()));
    }
    for r in 0..100 {
        tracer.span("parallel.map64", None, r, || {
            std::hint::black_box(parallel::parallel_map(64, 1, |i| i))
        });
    }
    let width = nproc();
    let mut one = Vec::new();
    let mut wide = Vec::new();
    for r in 0..2 {
        let t = std::time::Instant::now();
        tracer.span("parallel.deep_t.width1", None, r, || {
            parallel::run_with_threads(1, || black_box_ok(facade::price(deep(1), &cfg)))
        });
        one.push(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        tracer.span("parallel.deep_t.widthn", None, r, || {
            parallel::run_with_threads(width, || black_box_ok(facade::price(deep(1), &cfg)))
        });
        wide.push(t.elapsed().as_secs_f64());
    }
    direct.push(("parallel.speedup.deep_t", median(&one) / median(&wide)));

    // amopt-core::batch: one round at full width, the same round replayed
    // at width 1, and the same requests through the facade pricers.
    let book = gen::book(seed, BATCH_SLICE, BOOK_STEPS);
    let t = std::time::Instant::now();
    tracer.span("batch.round.widthn", None, 0, || {
        std::hint::black_box(BatchPricer::new(cfg).price_batch(&book))
    });
    let wall_n = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    tracer.span("batch.round.width1", None, 0, || {
        parallel::run_with_threads(1, || {
            std::hint::black_box(BatchPricer::new(cfg).price_batch(&book))
        })
    });
    let wall_1 = t.elapsed().as_secs_f64();
    let mut engine_s = 0.0;
    parallel::run_with_threads(1, || {
        for (k, req) in book.iter().enumerate() {
            let t = std::time::Instant::now();
            tracer.span("batch.facade", None, k as u64, || black_box_ok(facade::price(req, &cfg)));
            engine_s += t.elapsed().as_secs_f64();
        }
    });
    direct.push(("batch.self_ms", (wall_1 - engine_s) * 1e3));
    direct.push(("batch.fanout_eff", engine_s / (wall_n * width as f64)));

    // Dedup a full coalesced batch of stream traffic would see.
    let stream = Stream::new(seed, QUEUE_SECONDS * 4.0);
    let batch: Vec<&str> = stream
        .quotes
        .iter()
        .zip(&stream.lines)
        .filter(|(q, _)| matches!(q, Quote::Price(_)))
        .map(|(_, l)| l.split_once(',').map_or(l.as_str(), |(_, b)| b))
        .take(256)
        .collect();
    let unique: HashSet<&str> = batch.iter().copied().collect();
    direct.push(("batch.dedup_ratio", batch.len() as f64 / unique.len() as f64));

    // amopt-service::queue: the heavy-rate schedule through the in-process
    // client, then lone requests into the idle service.
    let mut arr = Rng::new(seed, 9);
    let offsets = quote_stream::arrivals(&mut arr, HEAVY_RPS, QUEUE_SECONDS);
    let reqs: Vec<usize> = (0..offsets.len()).collect();
    let service = QuoteService::start(ServiceConfig::default())?;
    let clients: Vec<_> = (0..quote_stream::connections()).map(|_| service.client()).collect();
    let inproc = tracer.span("queue.schedule.inproc", None, 0, || {
        quote_stream::drive_inproc(&clients, &stream, &reqs, &offsets)
    });
    let inproc_p50 = median(&inproc.0);
    direct.push(("queue.inproc_latency_ms_p50", inproc_p50));
    direct.push(("queue.inproc_latency_ms_p99", percentile(&inproc.0, 99.0)));
    let mut lone_failed = 0;
    for r in 0..LONE {
        std::thread::sleep(Duration::from_millis(10));
        let req = quote_stream::service_request(&stream.lines[r]);
        if tracer.span("queue.lone", None, r as u64, || clients[0].call(req)).is_err() {
            lone_failed += 1;
        }
    }
    let st = service.stats();
    direct.push(("queue.mean_batch_size", st.mean_batch_size()));
    direct.push((
        "queue.shed",
        (st.rejected_queue_full
            + st.rejected_inflight
            + st.shed_by_class.total()
            + inproc.1
            + lone_failed) as f64,
    ));
    direct.push(("batch.memo_hit_ratio", st.memo_hit_rate()));
    service.shutdown();

    // amopt-service::{wire, reactor}: the same schedule over loopback TCP.
    let served = quote_stream::start_server(&stream)?;
    let tcp = tracer.span("queue.schedule.tcp", None, 0, || {
        quote_stream::drive_tcp(
            &served.conns,
            &stream,
            &reqs,
            &offsets,
            HEAVY_RPS,
            &Tracer::new(false),
        )
    })?;
    direct.push(("frontend.overhead_ms_p50", median(&tcp.lat_ms) - inproc_p50));
    served.server.shutdown();
    drop(served);

    for (k, line) in stream.lines.iter().take(WIRE_LINES).enumerate() {
        tracer.span("wire.decode", None, k as u64, || {
            std::hint::black_box(wire::decode_request(line).1.is_ok())
        });
    }
    for (k, q) in stream.quotes.iter().take(WIRE_LINES).enumerate() {
        tracer.span("wire.encode", None, k as u64, || {
            std::hint::black_box(quote_stream::encode(k as u64, q))
        });
    }
    Ok(direct)
}

/// Per-layer metrics read from probe spans.
pub fn from_spans(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let med_us = |name: &str| median(&durations_us(spans, name));
    let flops = |n: f64| 5.0 * n * n.log2();
    let fft_calls: Vec<(f64, f64)> =
        [(4096.0, "fft.correlate.n4096"), (65536.0, "fft.correlate.n65536")]
            .iter()
            .flat_map(|&(n, name)| {
                durations_us(spans, name).into_iter().map(move |us| (flops(n), us))
            })
            .collect();
    let gflops = fft_calls.iter().map(|c| c.0).sum::<f64>()
        / (fft_calls.iter().map(|c| c.1).sum::<f64>() * 1e3);
    vec![
        ("fft.correlate_us.n4096", med_us("fft.correlate.n4096")),
        ("fft.correlate_us.n65536", med_us("fft.correlate.n65536")),
        ("fft.gflops_computed", gflops),
        ("stencil.advance_us.h1024", med_us("stencil.advance.h1024")),
        ("stencil.advance_us.h4096", med_us("stencil.advance.h4096")),
        ("engine.right_cone_ms.t16384", med_us("engine.right_cone.t16384") / 1e3),
        ("engine.left_cone_ms.t16384", med_us("engine.left_cone.t16384") / 1e3),
        ("engine.centered_ms.t16384", med_us("engine.centered.t16384") / 1e3),
        ("engine.right_cone_us.t252", med_us("engine.right_cone.t252")),
        ("engine.left_cone_us.t252", med_us("engine.left_cone.t252")),
        ("engine.centered_us.t252", med_us("engine.centered.t252")),
        ("pricer.naive_us.t252", med_us("pricer.naive.t252")),
        ("parallel.join_us", med_us("parallel.join")),
        ("parallel.map64_us", med_us("parallel.map64")),
        ("queue.lone_ms", med_us("queue.lone") / 1e3),
        ("wire.decode_us", med_us("wire.decode")),
        ("wire.encode_us", med_us("wire.encode")),
    ]
}
