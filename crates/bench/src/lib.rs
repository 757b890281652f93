//! Shared helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers). Run them with
//! `cargo run --release -p qoserve-bench --bin <id>`; set
//! `QOSERVE_SCALE` to stretch measurement windows toward paper scale.

// Library code returns errors and data; the bins own panics and the
// console.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro,
    )
)]

use qoserve::prelude::*;
use qoserve_sim::json;
use qoserve_sim::json::Value;

pub mod forensics;
pub mod top;

/// Prints the standard experiment header.
#[expect(
    clippy::print_stdout,
    reason = "the banner is the experiment bins' console UI"
)]
pub fn banner(id: &str, title: &str) {
    let bar = "================================================================";
    println!(
        "{bar}\n{id}: {title}\nscale factor {} (set QOSERVE_SCALE to change)\n{bar}",
        qoserve::experiments::scale_factor()
    );
}

/// Formats an optional latency in seconds.
pub fn secs(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "-".to_owned(),
    }
}

/// Formats a `LatencySummary` percentile pair as `p50/p95`.
pub fn p50_p95(s: &LatencySummary) -> String {
    if s.count == 0 {
        "-".to_owned()
    } else {
        format!("{:.2}/{:.2}", s.p50, s.p95)
    }
}

/// The three per-tier violation percentages as table cells.
pub fn tier_violation_cells(report: &SloReport) -> Vec<String> {
    [TierId::Q1, TierId::Q2, TierId::Q3]
        .iter()
        .map(|t| format!("{:.1}%", report.tier_violation_pct(*t)))
        .collect()
}

/// Median of the tier-judged latency over all finished requests, seconds.
pub fn overall_median_latency(outcomes: &[RequestOutcome]) -> Option<f64> {
    let secs: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.tier_latency())
        .map(|d| d.as_secs_f64())
        .collect();
    qoserve_metrics::percentile(&secs, 0.5)
}

/// p95 of the tier-judged latency over all finished requests, seconds.
pub fn overall_p95_latency(outcomes: &[RequestOutcome]) -> Option<f64> {
    overall_latency_percentile(outcomes, 0.95)
}

/// Arbitrary percentile of the tier-judged latency, seconds.
pub fn overall_latency_percentile(outcomes: &[RequestOutcome], q: f64) -> Option<f64> {
    let secs: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.tier_latency())
        .map(|d| d.as_secs_f64())
        .collect();
    qoserve_metrics::percentile(&secs, q)
}

/// The machine-readable summary row of one sweep point: scheme, offered
/// load, violation percentage, and overall p50/p95 latency.
pub fn sweep_row(point: &qoserve::experiments::SweepPoint) -> Value {
    json!({
        "scheme": point.scheme,
        "qps": point.qps,
        "violation_pct": point.report.violation_pct(),
        "p50_secs": overall_median_latency(&point.outcomes),
        "p95_secs": overall_p95_latency(&point.outcomes),
    })
}

/// Writes `rows` to `results/<id>.json` (creating `results/` if needed)
/// and returns the path. The file carries the experiment id and the rows
/// verbatim, so downstream tooling can diff runs across commits.
pub fn write_results_json(id: &str, rows: &[Value]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.json"));
    let doc = json!({ "id": id, "rows": rows });
    std::fs::write(&path, doc.to_pretty() + "\n")?;
    Ok(path)
}

/// [`write_results_json`], reported on stdout/stderr instead of returned —
/// a missing `results/` directory must never fail an experiment run.
pub fn emit_results(id: &str, rows: &[Value]) {
    match write_results_json(id, rows) {
        #[expect(clippy::print_stdout, reason = "console report on behalf of the bins")]
        Ok(path) => println!("machine-readable summary: {}", path.display()),
        #[expect(
            clippy::print_stderr,
            reason = "best-effort warning on behalf of the bins"
        )]
        Err(err) => eprintln!("warning: could not write results/{id}.json: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(None), "-");
        assert_eq!(secs(Some(1.234)), "1.23");
        assert_eq!(p50_p95(&LatencySummary::default()), "-");
    }

    #[test]
    fn sweep_row_shape() {
        let point = qoserve::experiments::SweepPoint {
            scheme: "QoServe".to_owned(),
            qps: 3.5,
            report: SloReport::compute(&[], 1_000),
            outcomes: Vec::new(),
        };
        let row = sweep_row(&point);
        assert_eq!(row.get("scheme").and_then(Value::as_str), Some("QoServe"));
        assert_eq!(row.get("qps").and_then(Value::as_f64), Some(3.5));
        assert!(row.get("violation_pct").and_then(Value::as_f64).is_some());
        assert_eq!(
            row.get("p50_secs"),
            Some(&Value::Null),
            "no outcomes -> null percentile"
        );
    }
}
