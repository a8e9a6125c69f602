//! Smoke mode: every workload, run for a fraction of a second, must pass
//! all its correctness checks (`fail_frac == 0`) and report exactly the
//! metrics `BENCHMARK.json` declares. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{run, Workload};
use std::time::Duration;

/// Metric names of one section of the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(metrics: &[(String, f64, &'static str)]) -> Vec<String> {
    metrics.iter().map(|(n, _, _)| n.clone()).collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for w in Workload::ALL {
        let o = w
            .run(7, Duration::from_millis(500), false)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(o.attempted > 0, "{}: nothing attempted", w.name());
        assert_eq!(o.failed, 0, "{}: fail_frac must be 0", w.name());
        assert_eq!(names(&o.e2e.rows()), want, "{}", w.name());
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let r = run(Workload::Kv, 11, Duration::from_millis(2500), true).expect("traced run");
    assert_eq!(r.failed, 0);
    let mut got = names(&r.metrics);
    let mut want = declared("per_layer");
    got.sort();
    want.sort();
    assert_eq!(got, want);
}
