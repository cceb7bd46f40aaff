//! App-state-root purity: the root stamped on each commit is a pure
//! function of the committed sequence of blocks.
//!
//! Three angles, all on simulator runs with the account ledger attached:
//!
//! 1. Every validator — and every consensus variant — stamps byte-identical
//!    roots at identical sequence numbers, and an offline replay of the
//!    recorded commit stream through a fresh engine reproduces them.
//! 2. A validator that crashes and recovers by replaying its durable store
//!    converges onto the same roots as the peers that never crashed.
//! 3. A validator that recovers via signed snapshot install (outage past
//!    the GC horizon) resumes with the same roots too — restore is
//!    root-equivalent to replay.

use narwhal_tusk::bench::fuzz::{fuzz_config, fuzz_params};
use narwhal_tusk::bench::runner::narwhal_topology;
use narwhal_tusk::bench::BenchParams;
use narwhal_tusk::bench::{build_dag_actor_factories_with_app, validator_hosts, System};
use narwhal_tusk::crypto::Digest;
use narwhal_tusk::execution::{BatchData, Execution, LedgerApp};
use narwhal_tusk::narwhal::{BlockStore, NarwhalConfig};
use narwhal_tusk::network::{NodeId, MS, SEC};
use narwhal_tusk::simnet::{FaultEvent, Schedule, SimConfig, Simulation};
use narwhal_tusk::storage::{DynStore, JournalStore};
use narwhal_tusk::types::{CommitEvent, ValidatorId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Runs `(system, params, schedule)` with a fresh [`LedgerApp`] attached to
/// every primary, returning each validator's commit stream and its store.
fn run_with_ledger(
    system: System,
    params: &BenchParams,
    config: &NarwhalConfig,
    schedule: &Schedule,
) -> (Vec<Vec<CommitEvent>>, Vec<DynStore>) {
    let nodes = params.nodes;
    let stores: Vec<DynStore> = (0..nodes)
        .map(|_| Arc::new(JournalStore::new()) as DynStore)
        .collect();
    let factories = build_dag_actor_factories_with_app(system, params, config, &stores, true);
    let unit_hosts: Vec<Vec<NodeId>> = (0..nodes)
        .map(|v| validator_hosts(nodes, params.workers, ValidatorId(v as u32)))
        .collect();
    let mut sim_config = SimConfig::new(params.seed, params.duration);
    schedule.apply(&mut sim_config, &unit_hosts);
    let sim = Simulation::from_factories(narwhal_topology(params), sim_config, factories);
    let result = sim.run();
    let mut streams = vec![Vec::new(); nodes];
    for (_, node, event) in result.commits {
        if node < nodes {
            streams[node].push(event);
        }
    }
    (streams, stores)
}

/// Per-validator `sequence -> app_root`, asserting each stream is gapless,
/// stamps non-zero roots, and never re-stamps a sequence differently.
fn root_maps(streams: &[Vec<CommitEvent>]) -> Vec<BTreeMap<u64, Digest>> {
    streams
        .iter()
        .enumerate()
        .map(|(v, stream)| {
            let mut map = BTreeMap::new();
            for event in stream {
                assert_ne!(
                    event.app_root,
                    Digest::default(),
                    "validator {v} committed sequence {} with a zero app root",
                    event.sequence
                );
                if let Some(prev) = map.insert(event.sequence, event.app_root) {
                    assert_eq!(
                        prev, event.app_root,
                        "validator {v} re-stamped sequence {} differently",
                        event.sequence
                    );
                }
            }
            map
        })
        .collect()
}

/// All validators agree on the root at every shared sequence.
fn assert_cross_validator_agreement(maps: &[BTreeMap<u64, Digest>]) {
    for (a, map_a) in maps.iter().enumerate() {
        for (b, map_b) in maps.iter().enumerate().skip(a + 1) {
            for (seq, root) in map_a {
                if let Some(other) = map_b.get(seq) {
                    assert_eq!(
                        root, other,
                        "validators {a} and {b} stamp different roots at sequence {seq}"
                    );
                }
            }
        }
    }
}

/// A quiet 4-committee envelope small enough that GC never prunes, so every
/// committed batch is still in the stores for offline replay.
fn no_gc_params(seed: u64) -> (BenchParams, NarwhalConfig) {
    let params = BenchParams {
        nodes: 4,
        workers: 1,
        rate: 1_000.0,
        duration: 8 * SEC,
        seed,
        ..Default::default()
    };
    let config = NarwhalConfig {
        gc_depth: 10_000,
        ..params.narwhal_config()
    };
    (params, config)
}

/// Angle 1: across all five DAG consensus variants, validators agree on
/// roots, the run is deterministic, and an offline replay of the committed
/// sequence through a fresh engine — fed the batches from the durable
/// store — reproduces every stamped root byte for byte.
#[test]
fn app_root_is_a_pure_function_of_the_committed_sequence() {
    for system in [
        System::Tusk,
        System::DagRider,
        System::Bullshark,
        System::BullsharkRep,
        System::BullsharkPipelined,
    ] {
        let (params, config) = no_gc_params(42);
        let (streams, stores) = run_with_ledger(system, &params, &config, &Schedule::default());
        let maps = root_maps(&streams);
        assert_cross_validator_agreement(&maps);
        assert!(
            maps[0].len() >= 20,
            "{}: expected a real committed prefix, got {} sequences",
            system.name(),
            maps[0].len()
        );

        // Same inputs, fresh run: byte-identical root maps.
        let (streams2, _) = run_with_ledger(system, &params, &config, &Schedule::default());
        assert_eq!(
            maps,
            root_maps(&streams2),
            "{}: rerun diverged",
            system.name()
        );

        // Offline replay: a fresh engine consuming validator 0's recorded
        // commit stream (batches resolved from its store) must stamp the
        // same roots — no hidden dependence on consensus internals, wall
        // clock, or delivery order.
        let store = BlockStore::new(stores[0].clone());
        let mut engine = LedgerApp::new();
        let mut ordered: Vec<&CommitEvent> = streams[0].iter().collect();
        ordered.sort_by_key(|e| e.sequence);
        ordered.dedup_by_key(|e| e.sequence);
        for event in ordered {
            let batches: Vec<BatchData> = event
                .payload
                .iter()
                .map(
                    |(digest, _)| match store.get_batch(digest).expect("store") {
                        Some(batch) => BatchData::Full(batch),
                        None => BatchData::Missing(*digest),
                    },
                )
                .collect();
            let root = engine.apply(event, &batches);
            assert_eq!(
                root,
                event.app_root,
                "{}: replay diverges from the live engine at sequence {}",
                system.name(),
                event.sequence
            );
        }
    }
}

/// Angle 2: crash-restart (store replay) converges onto the peers' roots.
#[test]
fn app_root_survives_restart_replay() {
    let params = fuzz_params(7);
    let config = fuzz_config(&params, Default::default());
    let schedule = Schedule {
        events: vec![FaultEvent::Outage {
            unit: 2,
            at: 6_000 * MS,
            until: 8_000 * MS,
            tear: 0,
        }],
    };
    let (streams, _) = run_with_ledger(System::Tusk, &params, &config, &schedule);
    let maps = root_maps(&streams);
    assert_cross_validator_agreement(&maps);
    let last = *maps[2].keys().next_back().expect("victim committed");
    assert!(
        maps[0].contains_key(&last) || last > *maps[0].keys().next_back().unwrap(),
        "victim's stream is not a recognizable prefix"
    );
    assert!(
        maps[2].len() >= 20,
        "victim stalled after restart ({} sequences)",
        maps[2].len()
    );
}

/// Angle 3: snapshot install (outage past the GC horizon) resumes with the
/// peers' roots — restore is root-equivalent to replay.
#[test]
fn app_root_survives_snapshot_restore() {
    let params = fuzz_params(721);
    let config = fuzz_config(&params, Default::default());
    let schedule = Schedule {
        events: vec![FaultEvent::Outage {
            unit: 2,
            at: 1_500 * MS,
            until: 13_500 * MS,
            tear: 0,
        }],
    };
    let (streams, stores) = run_with_ledger(System::Tusk, &params, &config, &schedule);
    let installs = BlockStore::new(stores[2].clone())
        .snapshot_installs()
        .expect("store readable");
    assert!(
        !installs.is_empty(),
        "the 12 s outage must push validator 2 past the GC horizon and \
         through a snapshot install"
    );
    let maps = root_maps(&streams);
    assert_cross_validator_agreement(&maps);
    // The victim stamped real post-install roots at sequences beyond the
    // install point, and those are exactly the peers' roots (checked by
    // the agreement pass above — here we check the overlap is non-trivial).
    let install = *installs.last().unwrap();
    let post: Vec<u64> = maps[2].keys().copied().filter(|s| *s > install).collect();
    assert!(
        post.len() >= 5,
        "victim committed only {} sequences after the snapshot install",
        post.len()
    );
    let overlap = post.iter().filter(|s| maps[0].contains_key(s)).count();
    assert!(
        overlap >= 5,
        "victim and a peer share only {overlap} post-install sequences"
    );
}
