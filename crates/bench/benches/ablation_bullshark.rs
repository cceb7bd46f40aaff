//! Ablation: partially-synchronous Bullshark (2-round waves, predefined
//! leaders) vs Tusk (3-round piggybacked waves, retrospective coin) over
//! the identical Narwhal deployment.
//!
//! Bullshark decides a wave at its voting round; Tusk must additionally
//! wait for the next round's coin shares, so the `d-rnds` column (DAG
//! depth at decision time) and end-to-end latency should both favour
//! Bullshark under synchrony, while the partition/heal scenario checks
//! that both protocols keep every validator on one committed prefix. The
//! `Bullshark-Rep` arm swaps in the Shoal-style leader-reputation
//! schedule.
//!
//! A latency-frontier arm rides along: `Bullshark-Pipelined` (the same
//! engine re-based one round after each commit, so a Shoal-style anchor
//! candidate every round). Under synchrony it must decide at a strictly
//! lower DAG depth than plain Bullshark, which in turn sits below Tusk —
//! the `d-rnds` ordering this bench gates on.
//!
//! `-- --test` runs a small committee for a short window and asserts the
//! headline claims (CI smoke); the default run reproduces the full
//! table.

use nt_bench::runner::{build_dag_actors, run_actors_result, split_partition};
use nt_bench::{
    committed_sequences, print_series, sequences_prefix_consistent, BenchParams, RunStats, System,
};
use nt_network::SEC;
use nt_simnet::Partition;

struct Scenario {
    name: &'static str,
    partitions_for: fn(&BenchParams) -> Vec<Partition>,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "synchrony",
        partitions_for: |_| vec![],
    },
    Scenario {
        // Alternating below-quorum splits: periods of asynchrony with
        // calm windows barely long enough to commit in between (Table 1).
        name: "asynchrony",
        partitions_for: |p| {
            let mut out = Vec::new();
            let mut t = p.duration / 6;
            while t + p.duration / 6 < p.duration {
                out.push(split_partition(p.nodes, p.workers, t, t + p.duration / 6));
                t += p.duration / 3;
            }
            out
        },
    },
    Scenario {
        // One long split through mid-run, then heal: the tail is where the
        // backlog drains and the prefix-agreement check bites.
        name: "partition/heal",
        partitions_for: |p| {
            vec![split_partition(
                p.nodes,
                p.workers,
                p.duration / 4,
                p.duration / 2,
            )]
        },
    },
];

/// One run: stats plus the cross-validator prefix-agreement verdict.
fn run(system: System, params: &BenchParams, partitions: Vec<Partition>) -> (RunStats, bool) {
    let result = run_actors_result(build_dag_actors(system, params), params, partitions);
    let stats = RunStats::from_result(&result, params.duration);
    let seqs = committed_sequences(&result.commits, params.nodes);
    (stats, sequences_prefix_consistent(&seqs))
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let params = if test_mode {
        BenchParams {
            nodes: 4,
            workers: 1,
            rate: 4_000.0,
            duration: 20 * SEC,
            seed: 3,
            ..Default::default()
        }
    } else {
        BenchParams {
            nodes: 10,
            workers: 1,
            rate: 40_000.0,
            duration: 60 * SEC,
            seed: 1,
            ..Default::default()
        }
    };
    println!(
        "Ablation: Bullshark (2-round waves) vs Tusk (3-round waves), \
         {} validators, {:.0} tx/s{}",
        params.nodes,
        params.rate,
        if test_mode { " [test mode]" } else { "" }
    );

    let systems = [
        System::Tusk,
        System::Bullshark,
        System::BullsharkRep,
        System::BullsharkPipelined,
    ];
    for scenario in &SCENARIOS {
        let partitions = (scenario.partitions_for)(&params);
        let mut rows = Vec::new();
        let mut all_consistent = true;
        for system in systems {
            let (stats, consistent) = run(system, &params, partitions.clone());
            all_consistent &= consistent;
            rows.push((system.name().to_string(), stats));
        }
        print_series(&format!("scenario: {}", scenario.name), "system", &rows);
        println!(
            "   committed prefixes across validators: {}",
            if all_consistent {
                "CONSISTENT"
            } else {
                "DIVERGED"
            }
        );
        assert!(
            all_consistent,
            "{}: validators must agree on the committed prefix",
            scenario.name
        );
        if scenario.name == "synchrony" {
            // `systems` order: rows[0] is Tusk, rows[1] Bullshark,
            // rows[3] Bullshark-Pipelined.
            let tusk = &rows[0].1;
            let bull = &rows[1].1;
            let pipelined = &rows[3].1;
            println!(
                "   decision depth: Pipelined {:.1} < Bullshark {:.1} < Tusk {:.1} rounds",
                pipelined.decision_rounds, bull.decision_rounds, tusk.decision_rounds
            );
            assert!(
                bull.decision_rounds < tusk.decision_rounds,
                "Bullshark must decide at a lower DAG depth than Tusk \
                 ({:.2} vs {:.2})",
                bull.decision_rounds,
                tusk.decision_rounds
            );
            assert!(
                pipelined.decision_rounds < bull.decision_rounds,
                "pipelined anchors must decide at a lower DAG depth than \
                 plain Bullshark ({:.2} vs {:.2})",
                pipelined.decision_rounds,
                bull.decision_rounds
            );
            assert!(
                bull.avg_latency_s < tusk.avg_latency_s,
                "Bullshark must commit with lower end-to-end latency \
                 ({:.2}s vs {:.2}s)",
                bull.avg_latency_s,
                tusk.avg_latency_s
            );
        }
    }
    println!();
    println!("Expectation: under synchrony Bullshark's d-rnds and latency sit");
    println!("below Tusk's (no coin round to wait for); under partitions both");
    println!("stall and recover, never diverging on the committed prefix.");
}
