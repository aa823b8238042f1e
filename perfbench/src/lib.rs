//! The benchmark of record: three seeded workloads driven through the
//! library's public API, end-to-end metrics from untraced runs, per-layer
//! metrics from a traced run.  See `README.md`.

pub mod book_cold;
pub mod deep_t;
pub mod facade;
pub mod gate;
pub mod gen;
pub mod probes;
pub mod quote_stream;
pub mod refs;
pub mod spec;
pub mod stats;
pub mod trace;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Harness-side delay added inside each timed operation, as a percent
    /// of that operation's own time (0 for real measurements; the bounds
    /// test uses it to show the bounds catch a slowdown).
    pub delay_pct: f64,
}

/// Runs one workload for `args.seconds`.
pub fn run_workload(args: &RunArgs, tracer: &trace::Tracer) -> Result<spec::Measured, String> {
    match args.workload.as_str() {
        "deep_t" => deep_t::run(args, tracer),
        "book_cold" => book_cold::run(args, tracer),
        "quote_stream" => quote_stream::run(args, tracer),
        other => Err(format!("unknown workload `{other}`")),
    }
}
