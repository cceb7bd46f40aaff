//! Ablation: Tusk's 3-round piggybacked waves vs DAG-Rider's 4-round waves.
//!
//! §5: "DAG-Rider's waves consist of 4 rounds, and thus each block in the
//! DAG is committed in expectation every 5.5 rounds in the common case. In
//! Tusk we improve latency by considering waves that consist of 3 rounds
//! [with the coin round piggybacked], committing in expectation every 4.5
//! rounds." This ablation runs both protocols over identical deployments
//! and compares commit depth (rounds from block to committing anchor) and
//! end-to-end latency.
//!
//! `-- --test` runs a small committee for a short window and asserts the
//! headline claim (CI smoke): both protocols commit, and Tusk decides at a
//! lower DAG depth than DAG-Rider. The default run reproduces the full
//! table.

use nt_bench::{print_series, run_system, BenchParams, System};
use nt_network::SEC;

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (nodes, rate, duration, seeds) = if test_mode {
        (4, 4_000.0, 15 * SEC, &[3u64][..])
    } else {
        (10, 40_000.0, 30 * SEC, &[1u64, 2][..])
    };
    println!(
        "Ablation: Tusk (3-round waves) vs DAG-Rider (4-round waves){}",
        if test_mode { " [test mode]" } else { "" }
    );
    let mut rows = Vec::new();
    for &seed in seeds {
        for system in [System::Tusk, System::DagRider] {
            let params = BenchParams {
                nodes,
                workers: 1,
                rate,
                duration,
                seed,
                ..Default::default()
            };
            let stats = run_system(system, &params, vec![]);
            rows.push((format!("{} seed={seed}", system.name()), stats));
        }
    }
    print_series(
        &format!("wave-size ablation ({nodes} validators, {rate:.0} tx/s)"),
        "system",
        &rows,
    );
    if test_mode {
        // One seed: rows[0] is Tusk, rows[1] DAG-Rider.
        let (tusk, rider) = (&rows[0].1, &rows[1].1);
        assert!(tusk.total_txs > 0, "Tusk must commit transactions");
        assert!(rider.total_txs > 0, "DAG-Rider must commit transactions");
        assert!(
            tusk.decision_rounds < rider.decision_rounds,
            "Tusk must decide at a lower DAG depth than DAG-Rider \
             ({:.2} vs {:.2})",
            tusk.decision_rounds,
            rider.decision_rounds
        );
    }
    println!();
    println!("Expectation: Tusk's commit depth ('rounds' column) and latency");
    println!("are lower; the paper's analytic gap is 4.5 vs 5.5 rounds.");
}
