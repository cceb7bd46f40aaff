//! Determinism regression: the simulator and every DAG system over it are
//! a pure function of the seed. Same seed ⇒ byte-identical commit streams
//! and identical `SimResult` counters, run to run.
//!
//! This is the property the schedule fuzzer's reproducibility rests on —
//! a failing seed must replay the exact run that failed — and the guard
//! against hash-map iteration order (or any other ambient nondeterminism)
//! creeping into `Primary`/`Worker`: both are heavy `HashMap`/`HashSet`
//! users, and any iteration-order-dependent send would shift message
//! timing and fork the commit stream.

use nt_bench::{build_dag_actors, run_actors_result, BenchParams, System};
use nt_network::SEC;
use nt_simnet::SimResult;

fn run_once(system: System, seed: u64) -> SimResult {
    let params = BenchParams {
        nodes: 4,
        workers: 1,
        rate: 2_000.0,
        duration: 10 * SEC,
        seed,
        ..Default::default()
    };
    run_actors_result(build_dag_actors(system, &params), &params, vec![])
}

#[test]
fn same_seed_same_run_for_all_dag_systems() {
    for system in [
        System::Tusk,
        System::DagRider,
        System::Bullshark,
        System::BullsharkRep,
        System::BullsharkPipelined,
    ] {
        let a = run_once(system, 42);
        let b = run_once(system, 42);
        assert!(
            !a.commits.is_empty(),
            "{}: the run committed something",
            system.name()
        );
        // Byte-identical commit sequences: same times, same emitting
        // nodes, same events (sequence numbers, block identities, payload
        // digests, samples, counters — CommitEvent is compared fieldwise).
        assert_eq!(
            a.commits,
            b.commits,
            "{}: commit streams must be identical across runs",
            system.name()
        );
        // And identical simulator counters.
        assert_eq!(a.delivered, b.delivered, "{}", system.name());
        assert_eq!(a.dropped, b.dropped, "{}", system.name());
        assert_eq!(a.end_time, b.end_time, "{}", system.name());
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the comparison above has teeth: another seed's
    // jitter must shift the stream.
    let a = run_once(System::Tusk, 42);
    let b = run_once(System::Tusk, 43);
    assert_ne!(a.commits, b.commits, "seeds drive the run");
}

#[test]
fn same_seed_same_run_under_a_fault_schedule() {
    // Determinism must also hold on the fuzzer's own path: factories,
    // durable stores, crashes, restarts, torn tails, partitions, spikes.
    use nt_bench::fuzz::{fuzz_params, fuzz_plan, run_schedule};
    use nt_simnet::Schedule;
    let params = fuzz_params(7);
    let schedule = Schedule::generate(7, &fuzz_plan(&params));
    assert!(
        !schedule.events.is_empty(),
        "seed 7 generates a non-trivial schedule"
    );
    let a = run_schedule(System::Bullshark, &params, &schedule, Default::default());
    let b = run_schedule(System::Bullshark, &params, &schedule, Default::default());
    assert_eq!(a.commit_events, b.commit_events);
    assert_eq!(a.stats.total_txs, b.stats.total_txs);
    assert_eq!(a.stats.samples, b.stats.samples);
    assert!(a.violations.is_empty() && b.violations.is_empty());
}

/// SHA-256 of one run's full observable output: every commit event plus
/// the simulator's delivered/dropped/end-time counters.
fn fingerprint(system: System, nodes: usize, faults: usize, seed: u64) -> String {
    let params = BenchParams {
        nodes,
        workers: 1,
        faults,
        rate: 500.0 * nodes as f64,
        duration: 15 * SEC,
        seed,
        ..Default::default()
    };
    let r = run_actors_result(build_dag_actors(system, &params), &params, vec![]);
    let text = format!(
        "{:?}|{}|{}|{}",
        r.commits, r.delivered, r.dropped, r.end_time
    );
    nt_crypto::Digest::of(text.as_bytes()).to_string()
}

#[test]
fn commit_streams_match_pinned_fingerprints() {
    // Reruns of the same code cannot catch a refactor that changes what
    // gets committed; these values can. They were recorded before the
    // commit rules were merged into one engine and must never move
    // unless a change means to alter consensus behaviour.
    const SCENARIOS: [(usize, usize, u64); 4] = [(4, 0, 42), (4, 1, 43), (10, 0, 7), (10, 3, 9)];
    let pinned: [(System, [&str; 4]); 5] = [
        (
            System::Bullshark,
            [
                "bc59013d2edd7f90381a7cabb5869d68f11e7580876aba89e3499da85ae7fc9f",
                "d7671885bcce7a3edaec87f72e6d0e1233365176c0bdfca179738384692c4fa9",
                "bc5e812b66ce7e3d8ad9546f360982362be8f9be1f49cd649a2f72bc2f9739eb",
                "302550d53474b873d87010dfc37752c7f004bf9d8ba5844fdf2e639bd5b1242c",
            ],
        ),
        (
            System::BullsharkRep,
            [
                "ab540fa51fd01c7404cf7c36ef7ea786c799f2a82c7a3a3f8053d89baa66810a",
                "74259f51fcb0f754ab0eea1ba2d2c43f02913bfeb0a3de21cf0368be6f61843c",
                "618e0a81b70fd571d5650927b26f96314c0ed8765b1a5427b4ff94e1878f3ece",
                "9c1725705d51489e34ef13391a75efb267a5fe9dc5b7d6c95a1031ca02eb3d15",
            ],
        ),
        (
            System::BullsharkPipelined,
            [
                "03c0b8cc46df5ccd7bd07c6de4111822fed48543d35f1aaba52274d7f4388673",
                "e563627e5b82a2559cbba3802efb77a65dd7fb18c0c38a75a034315c3dbbc9f4",
                "19e8ab71a076572f12e83127ae466903cd469ac7d11b6904e1231bbfa0ff6b15",
                "bdbab51b997e36b267f10114c7f2cb1c81622124e31497889d83bd84b6ea2167",
            ],
        ),
        (
            System::Tusk,
            [
                "baf070d598b73f9bc4dc2bd4a19903ec1bbe7e656d9c1a8eba88753cbe98f0e4",
                "8ead46d972b2cbe09ae9a9c9586765a51f9992a8dc54020ba6823e25be8f6065",
                "76f334f1e00fc95b6deddc49b2686d99ca0026782789936f0cec39caa1f916f3",
                "42c3095fd1a1b2739b7ebca47452342bf125022699775e62446d6ae09a976623",
            ],
        ),
        (
            System::DagRider,
            [
                "3afaafc8f5f86a4676ab6f48db19d7cd3c1c3a7758b6a46a1e81780d537dfbf7",
                "11f7190a0eafc58458c56381ba68e7b9667ac9b0bba6847be1f45b8d7befcf34",
                "6739203f89e0f95d7b5a48b1b58460e208db45e70d05dae49a5607253dd3b110",
                "6b730b63f1fb327df328106f5de543b8e17a865db16a79b9b901f196224f8da9",
            ],
        ),
    ];
    let mut mismatches = Vec::new();
    for (system, expected) in pinned {
        for ((nodes, faults, seed), want) in SCENARIOS.into_iter().zip(expected) {
            let got = fingerprint(system, nodes, faults, seed);
            if got != want {
                mismatches.push(format!(
                    "{} n={nodes} f={faults} seed={seed}: {got}",
                    system.name()
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "fingerprints moved:\n{}",
        mismatches.join("\n")
    );
}
