//! Ablation: crash–restart recovery (the paper's §6 durability claim as a
//! running scenario, extending the Figure 8 crash-only experiment).
//!
//! One validator is crashed mid-run and later restarted. Its primary and
//! workers come back as *fresh* actors over the validator's durable store
//! (the per-validator RocksDB role), recover the persisted DAG, vote locks,
//! ordered markers, and consensus checkpoint, then catch up to the live
//! frontier through the §4.1 pull synchronization. The crash-only arm is
//! the Fig. 8 baseline the throughput dip is compared against.
//!
//! Asserted, for both Tusk and Bullshark:
//!
//! - the restarted validator resumes from its persisted state, not genesis:
//!   its commit-sequence numbers continue gaplessly across the outage and
//!   no block is committed twice;
//! - it catches up to within `gc_depth` of the live frontier;
//! - every validator's committed sequence is prefix-consistent across the
//!   outage;
//! - restarting recovers throughput the crash-only baseline loses.
//!
//! `-- --test` runs a small committee for a short window (CI smoke); the
//! default run uses the paper-scale committee.

use narwhal::BlockStore;
use nt_bench::runner::{build_dag_actor_factories, run_factories_result, validator_hosts};
use nt_bench::{committed_sequences, sequences_prefix_consistent, BenchParams, RunStats, System};
use nt_crypto::Scheme;
use nt_network::{NodeId, Time, SEC};
use nt_simnet::SimResult;
use nt_storage::{DynStore, MemStore};
use nt_types::{Committee, Round, ValidatorId};
use std::sync::Arc;

struct Scenario {
    params: BenchParams,
    crash_at: Time,
    restart_at: Time,
}

struct Outcome {
    stats: RunStats,
    result: SimResult,
    stores: Vec<DynStore>,
}

fn run(system: System, scenario: &Scenario, restart: bool) -> Outcome {
    let params = &scenario.params;
    let stores: Vec<DynStore> = (0..params.nodes)
        .map(|_| Arc::new(MemStore::new()) as DynStore)
        .collect();
    let victim = ValidatorId(params.nodes as u32 - 1);
    let hosts = validator_hosts(params.nodes, params.workers, victim);
    let crashes: Vec<(NodeId, Time)> = hosts.iter().map(|h| (*h, scenario.crash_at)).collect();
    let restarts: Vec<(NodeId, Time)> = if restart {
        hosts.iter().map(|h| (*h, scenario.restart_at)).collect()
    } else {
        vec![]
    };
    let result = run_factories_result(
        build_dag_actor_factories(system, params, &stores),
        params,
        vec![],
        crashes,
        restarts,
    );
    let stats = RunStats::from_result(&result, params.duration);
    Outcome {
        stats,
        result,
        stores,
    }
}

/// Committed transactions (creator-counted) per 5-second window.
fn windows(result: &SimResult, duration: Time) -> Vec<u64> {
    let mut buckets = vec![0u64; (duration / (5 * SEC)) as usize + 1];
    for (at, node, ev) in &result.commits {
        if ev.author.0 as usize == *node {
            buckets[(*at / (5 * SEC)) as usize] += ev.tx_count;
        }
    }
    buckets
}

fn check_recovery(system: System, scenario: &Scenario, outcome: &Outcome, committee: &Committee) {
    let name = system.name();
    let params = &scenario.params;
    let victim = params.nodes - 1;

    // 1. Every validator's committed sequence agrees across the outage.
    let seqs = committed_sequences(&outcome.result.commits, params.nodes);
    assert!(
        sequences_prefix_consistent(&seqs),
        "{name}: committed prefixes must agree across the outage"
    );

    // 2. The victim committed on both sides of the outage, its sequence
    // numbers continue gaplessly (recovered counter, not a genesis reboot),
    // and no block identity repeats (nothing is re-committed).
    let victim_commits: Vec<(Time, u64, (Round, ValidatorId))> = outcome
        .result
        .commits
        .iter()
        .filter(|(_, n, _)| *n == victim)
        .map(|(t, _, ev)| (*t, ev.sequence, (ev.round, ev.author)))
        .collect();
    let before = victim_commits
        .iter()
        .filter(|(t, _, _)| *t < scenario.crash_at)
        .count();
    let after = victim_commits
        .iter()
        .filter(|(t, _, _)| *t > scenario.restart_at)
        .count();
    assert!(before > 0, "{name}: victim committed before the crash");
    assert!(after > 0, "{name}: victim commits again after the restart");
    for pair in victim_commits.windows(2) {
        assert_eq!(
            pair[1].1,
            pair[0].1 + 1,
            "{name}: sequence numbers continue across the outage"
        );
    }
    let mut identities: Vec<(Round, ValidatorId)> =
        victim_commits.iter().map(|(_, _, id)| *id).collect();
    identities.sort_unstable();
    identities.dedup();
    assert_eq!(
        identities.len(),
        victim_commits.len(),
        "{name}: no block is committed twice across the outage"
    );

    // 3. The victim's durable DAG caught up to within gc_depth of the live
    // frontier (and is far past genesis).
    let frontier = |store: &DynStore| -> Round {
        BlockStore::new(store.clone())
            .load_dag(committee)
            .expect("store")
            .highest_round()
    };
    let victim_frontier = frontier(&outcome.stores[victim]);
    let live_frontier = (0..victim)
        .map(|v| frontier(&outcome.stores[v]))
        .max()
        .unwrap();
    let gc_depth = params.narwhal_config().gc_depth;
    println!(
        "   {name}: victim frontier r{victim_frontier} vs live r{live_frontier} \
         (gc depth {gc_depth})"
    );
    assert!(
        victim_frontier + gc_depth >= live_frontier,
        "{name}: victim must catch up to within gc_depth of the live \
         frontier (r{victim_frontier} vs r{live_frontier})"
    );
    assert!(
        victim_frontier > 1,
        "{name}: victim resumed from its persisted DAG, not genesis"
    );
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let scenario = if test_mode {
        Scenario {
            params: BenchParams {
                nodes: 4,
                workers: 1,
                rate: 4_000.0,
                duration: 30 * SEC,
                seed: 3,
                ..Default::default()
            },
            crash_at: 8 * SEC,
            restart_at: 12 * SEC,
        }
    } else {
        Scenario {
            params: BenchParams {
                nodes: 10,
                workers: 1,
                rate: 30_000.0,
                duration: 60 * SEC,
                seed: 1,
                ..Default::default()
            },
            crash_at: 20 * SEC,
            restart_at: 30 * SEC,
        }
    };
    let params = &scenario.params;
    let (committee, _) = Committee::deterministic(params.nodes, params.workers, Scheme::Insecure);
    println!(
        "Crash–restart recovery: {} validators, {:.0} tx/s, crash validator \
         {} at {}s, restart at {}s{}",
        params.nodes,
        params.rate,
        params.nodes - 1,
        scenario.crash_at / SEC,
        scenario.restart_at / SEC,
        if test_mode { " [test mode]" } else { "" }
    );
    println!();

    for system in [System::Tusk, System::Bullshark] {
        let recovered = run(system, &scenario, true);
        let baseline = run(system, &scenario, false);
        println!(
            "{}: committed tx per 5 s window (C = crashed, R = restarted):",
            system.name()
        );
        println!(
            "{:>10} {:>14} {:>14}",
            "window", "crash+restart", "crash-only"
        );
        let rec_w = windows(&recovered.result, params.duration);
        let base_w = windows(&baseline.result, params.duration);
        for (i, (r, b)) in rec_w.iter().zip(&base_w).enumerate() {
            let start = i as u64 * 5 * SEC;
            let marker = if start >= scenario.restart_at {
                "R"
            } else if start >= scenario.crash_at {
                "C"
            } else {
                ""
            };
            println!("{:>7}s.. {r:>14} {b:>14}   {marker}", start / SEC);
        }
        println!(
            "   throughput: {:.0} tx/s with restart vs {:.0} tx/s crash-only; \
             latency {:.2}s vs {:.2}s",
            recovered.stats.throughput_tps,
            baseline.stats.throughput_tps,
            recovered.stats.avg_latency_s,
            baseline.stats.avg_latency_s,
        );
        check_recovery(system, &scenario, &recovered, &committee);
        let rec_total: u64 = rec_w.iter().sum();
        let base_total: u64 = base_w.iter().sum();
        assert!(
            rec_total > base_total,
            "{}: restarting the validator must recover throughput the \
             crash-only baseline loses ({rec_total} vs {base_total} tx)",
            system.name()
        );
        println!();
    }
    println!("Expectation: the restarted validator reboots from its durable");
    println!("store, pulls the rounds it missed, and rejoins the committee —");
    println!("recovering the ~1/n throughput share the Fig. 8 crash-only");
    println!("baseline permanently loses, with all prefixes consistent.");
}
