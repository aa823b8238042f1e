//! `BENCHMARK.json` at the repository root states the gated workloads and
//! the metrics `spec.rs` defines, with the same units, directions and
//! bounds.

use amopt_perfbench::spec::{END_TO_END, GATED, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_lists_every_metric_as_spec_defines_it() {
    let json = benchmark_json();
    for w in WORKLOADS {
        let listed = json.contains(&format!("\"name\": \"{w}\""));
        assert_eq!(listed, GATED.contains(&w), "workload {w}");
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics are gated");
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(json.contains(&entry), "missing or different: {entry}");
    }
    for m in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(json.contains(&entry), "missing or different: {entry}");
    }
}
