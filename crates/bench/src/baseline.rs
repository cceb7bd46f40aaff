//! Machine-readable performance baselines (`BENCH_<n>.json`).
//!
//! The `perf_baseline` bench target runs a fixed system × committee-size
//! matrix on the simulator and renders the metrics later PRs diff against
//! (a claimed speedup must show up here, not in prose). The JSON is
//! hand-rolled — the workspace is fully vendored and the schema is flat —
//! and deterministic: only simulated quantities are recorded, so the same
//! seed reproduces the file byte for byte on any machine.

use crate::metrics::RunStats;
use crate::params::BenchParams;
use crate::runner::{run_system, System};
use nt_network::SEC;

/// One measured matrix point.
pub struct BaselineEntry {
    /// System under test.
    pub system: System,
    /// Committee size.
    pub nodes: usize,
    /// Aggregate run statistics.
    pub stats: RunStats,
}

/// The baseline matrix: the five DAG systems over the paper's small and
/// medium committees. `quick` shrinks it to one committee size for smoke
/// runs.
pub fn baseline_matrix(quick: bool) -> Vec<(System, usize)> {
    let systems = [
        System::Tusk,
        System::DagRider,
        System::Bullshark,
        System::BullsharkRep,
        System::BullsharkPipelined,
    ];
    let sizes: &[usize] = if quick { &[4] } else { &[4, 10, 20] };
    let mut matrix = Vec::new();
    for &nodes in sizes {
        for system in systems {
            matrix.push((system, nodes));
        }
    }
    matrix
}

/// Parameters for one baseline point: the common-case load of §7 scaled
/// to keep per-validator rate constant across committee sizes.
pub fn baseline_params(nodes: usize, quick: bool) -> BenchParams {
    BenchParams {
        nodes,
        workers: 1,
        rate: 2_500.0 * nodes as f64,
        duration: if quick { 15 * SEC } else { 30 * SEC },
        seed: 7,
        ..Default::default()
    }
}

/// Runs the whole matrix.
pub fn run_baseline(quick: bool) -> Vec<BaselineEntry> {
    baseline_matrix(quick)
        .into_iter()
        .map(|(system, nodes)| BaselineEntry {
            system,
            nodes,
            stats: run_system(system, &baseline_params(nodes, quick), vec![]),
        })
        .collect()
}

/// A JSON number with fixed precision, or `null` for non-finite values
/// (JSON has no NaN; empty-sample means are NaN upstream).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

/// Renders the matrix as the `BENCH_<n>.json` document.
pub fn render_json(issue: u64, quick: bool, entries: &[BaselineEntry]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"issue\": {issue},\n"));
    out.push_str(&format!(
        "  \"profile\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(
        "  \"note\": \"deterministic simulation metrics; regenerate with \
         `cargo bench -p nt_bench --bench perf_baseline`\",\n",
    );
    out.push_str("  \"entries\": [\n");
    for (i, entry) in entries.iter().enumerate() {
        let params = baseline_params(entry.nodes, quick);
        let s = &entry.stats;
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"nodes\": {}, \"rate_tps\": {}, \
             \"duration_s\": {}, \"throughput_tps\": {}, \"p50_latency_s\": {}, \
             \"p99_latency_s\": {}, \"avg_latency_s\": {}, \"decision_rounds\": {}}}{}\n",
            entry.system.name(),
            entry.nodes,
            num(params.rate),
            params.duration / SEC,
            num(s.throughput_tps),
            num(s.p50_latency_s),
            num(s.p99_latency_s),
            num(s.avg_latency_s),
            num(s.decision_rounds),
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_null_safe() {
        let entries = vec![
            BaselineEntry {
                system: System::Tusk,
                nodes: 4,
                stats: RunStats {
                    throughput_tps: 9500.0,
                    p50_latency_s: 2.25,
                    p99_latency_s: 4.5,
                    avg_latency_s: f64::NAN,
                    decision_rounds: 4.5,
                    ..Default::default()
                },
            },
            BaselineEntry {
                system: System::Bullshark,
                nodes: 10,
                stats: RunStats::default(),
            },
        ];
        let json = render_json(7, true, &entries);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
        assert!(json.contains("\"issue\": 7"));
        assert!(json.contains("\"system\": \"Tusk\""));
        assert!(json.contains("\"throughput_tps\": 9500.0000"));
        assert!(json.contains("\"avg_latency_s\": null"), "NaN maps to null");
        assert!(!json.contains("NaN"));
        // Exactly one trailing entry without a comma.
        assert!(json.contains("\"nodes\": 10") && json.trim_end().ends_with("]\n}"));
    }

    #[test]
    fn matrix_covers_systems_and_sizes() {
        let full = baseline_matrix(false);
        assert_eq!(full.len(), 15, "5 systems x 3 committee sizes");
        assert!(baseline_matrix(true).len() == 5);
    }
}
