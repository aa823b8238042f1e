//! Whether the bounds are live both ways: two sets of runs of identical
//! code must agree within every end-to-end bound, and a harness-side delay
//! inside each workload's timed operation must show.  A 10% delay must
//! worsen the workload's target metric by at least 5%; a 40% delay must
//! break its bound.  The bounds sit above the run-to-run drift of a shared
//! 2-vCPU machine (see `README.md`), so a 10% delay alone stays inside them.
//!
//! Takes about twenty minutes on two cores, so it is ignored by default:
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml --test bounds -- --ignored --nocapture
//! ```

use amopt_perfbench::gate::{spread, within_bound, worsening};
use amopt_perfbench::spec::END_TO_END;
use std::process::Command;

/// Runs per set.
const RUNS: u64 = 4;
const SECONDS: &str = "20";

/// The metric each workload's delayed runs are judged on.
const TARGETS: [(&str, &str); 3] = [
    ("deep_t", "options_per_s"),
    ("book_cold", "options_per_s"),
    ("quote_stream", "options_per_s"),
];

fn run(workload: &str, seed: u64, delay_pct: &str) -> Vec<f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", SECONDS])
        .args(["--trace", "0", "--delay-pct", delay_pct])
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.contains("\"correct\": true"), "{last}");
    END_TO_END.iter().map(|m| value(last, m.name)).collect()
}

fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key).expect("metric present") + key.len()..];
    rest[..rest.find([',', '}']).expect("value ends")].parse().expect("numeric value")
}

fn column(sets: &[Vec<f64>], i: usize) -> Vec<f64> {
    sets.iter().map(|r| r[i]).collect()
}

#[test]
#[ignore = "runs the benchmark 48 times; see the module docs"]
fn identical_code_agrees_and_a_delay_shows() {
    for (workload, target) in TARGETS {
        let (mut a, mut b, mut d10, mut d40) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // Interleaved, so a slow stretch of the machine hits every set.
        for k in 0..RUNS {
            a.push(run(workload, 100 + k, "0"));
            d10.push(run(workload, 200 + k, "10"));
            b.push(run(workload, 300 + k, "0"));
            d40.push(run(workload, 400 + k, "40"));
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let pa = column(&a, i);
            let (pb, p10, p40) = (column(&b, i), column(&d10, i), column(&d40, i));
            println!(
                "{workload:<13} {:<16} bound {:<5} spread {:.4}  A-vs-A {:+.4}  \
                 delay10 {:+.4}  delay40 {:+.4}",
                m.name,
                m.bound.unwrap_or(f64::NAN),
                spread(&pa),
                worsening(m, &pa, &pb),
                worsening(m, &pa, &p10),
                worsening(m, &pa, &p40)
            );
            assert!(within_bound(m, &pa, &pb), "{workload} {}: A-vs-A must pass", m.name);
            if m.name == target {
                assert!(worsening(m, &pa, &p10) >= 0.05, "{workload} {}: 10% must show", m.name);
                assert!(!within_bound(m, &pa, &p40), "{workload} {}: 40% must fail", m.name);
            }
        }
    }
}
