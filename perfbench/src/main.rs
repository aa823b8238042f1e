//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench regen-refs` recomputes the `deep_t` reference prices.

use amopt_perfbench::spec::{self, Metric};
use amopt_perfbench::trace::{self, Tracer};
use amopt_perfbench::{probes, refs, run_workload, stats, RunArgs};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("regen-refs") {
        let table = refs::regenerate(stats::nproc());
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/refs/deep_t.tsv");
        return match std::fs::write(path, table) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&format!("write {path}: {e}")),
        };
    }
    let (run, traced) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--delay-pct <p>]", spec::WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    println!(
        "machine: nproc={} rustc=\"{}\" cpu=\"{}\" seed={} workload={} seconds={} trace={} delay_pct={}",
        stats::nproc(),
        stats::RUSTC_VERSION,
        stats::cpu_model(),
        run.seed,
        run.workload,
        run.seconds,
        u8::from(traced),
        run.delay_pct
    );
    let result = if traced { traced_run(&run) } else { untraced_run(&run) };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    ExitCode::FAILURE
}

fn parse(args: &[String]) -> Result<(RunArgs, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut delay_pct) = (None, None, None, 0.0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("`{flag} {v}`: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("`--seed {value}`: {e}"))?)
            }
            "--seconds" => seconds = Some(num(value)?),
            "--trace" => trace = Some(value == "1"),
            "--delay-pct" => delay_pct = num(value)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !spec::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let run = RunArgs { workload, seed: seed.ok_or("missing --seed")?, seconds, delay_pct };
    Ok((run, trace.ok_or("missing --trace")?))
}

/// The result line: `metrics` in `list` order, each looked up in `values`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[Metric],
    values: &[(&str, f64)],
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(list.len());
    for m in list {
        let v = values
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", m.name));
        }
        metrics.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    ))
}

fn untraced_run(run: &RunArgs) -> Result<String, String> {
    let m = run_workload(run, &Tracer::new(false))?;
    let values = m.values();
    let named: Vec<(&str, f64)> = spec::END_TO_END.iter().map(|m| m.name).zip(values).collect();
    for (metric, (_, v)) in spec::END_TO_END.iter().zip(&named) {
        println!("{:<18} {v:>14.4} {}", metric.name, metric.unit);
    }
    let tail = format!("latency_ms_p{}", m.tail_percentile);
    for (name, v) in [("latency_ms_p50", m.latency_ms_p50), (tail.as_str(), m.latency_ms_tail)] {
        println!("{name:<18} {v:>14.4} ms (printed, not gated)");
    }
    println!("{:<18} {:>14.6} frac", "fail_frac", m.failed as f64 / m.attempted.max(1) as f64);
    for (k, v) in &m.notes {
        println!("  {k}: {v}");
    }
    if !m.valid {
        return Err("run invalid: the open-loop generator fell behind its schedule".into());
    }
    result_line(m.failed == 0, m.attempted, m.failed, &spec::END_TO_END, &named)
}

fn traced_run(run: &RunArgs) -> Result<String, String> {
    let half = RunArgs { seconds: run.seconds / 2.0, ..run.clone() };
    let plain = run_workload(&half, &Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let traced = run_workload(&half, &tracer)?;
    let overhead_pct = (traced.latency_ms_p50 / plain.latency_ms_p50 - 1.0) * 100.0;
    let mut spans = tracer.take();
    println!("workload ledger ({}; spans around public calls):", run.workload);
    print!("{}", trace::render_ledger(&trace::ledger(&spans)));
    println!(
        "tracing overhead: latency_ms_p50 {:.4} untraced vs {:.4} traced ({overhead_pct:+.2}%)",
        plain.latency_ms_p50, traced.latency_ms_p50
    );

    // The same tracer, so span ids stay unique across both ledgers.
    let mut values = probes::run(run.seed, &tracer).map_err(|e| e.to_string())?;
    let probe_spans = tracer.take();
    println!("layer probes ledger:");
    print!("{}", trace::render_ledger(&trace::ledger(&probe_spans)));
    values.extend(probes::from_spans(&probe_spans));
    values.push(("trace.overhead_pct", overhead_pct));
    for (name, v) in &values {
        println!("  {name}: {v:.4}");
    }

    spans.extend(probe_spans);
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.jsonl",
        run.workload, run.seed
    ));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());

    let failed = plain.failed + traced.failed;
    let attempted = plain.attempted + traced.attempted;
    result_line(
        failed == 0 && plain.valid && traced.valid,
        attempted,
        failed,
        &spec::PER_LAYER,
        &values,
    )
}
