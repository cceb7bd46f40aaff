//! Cross-protocol agreement over one recorded DAG.
//!
//! Narwhal's promise (§3.2, Figure 3) is that the DAG is a consensus-
//! agnostic substrate: Tusk, DAG-Rider, and Bullshark each interpret the
//! same certificates. Each protocol picks its own anchors, so their total
//! orders differ *between* protocols — but for every protocol, validators
//! with different delivery orders of the same recorded DAG must linearize
//! identical committed-certificate prefixes, and every linearization must
//! respect the DAG's causal (parent) order.

use narwhal_tusk::bullshark::{Bullshark, PipelinedBullshark, Reputation, RoundRobin};
use narwhal_tusk::crypto::{CoinShare, Digest, Hashable, Scheme};
use narwhal_tusk::narwhal::test_support::Driver;
use narwhal_tusk::narwhal::{CommitRule, ConsensusOut, Dag, DagConsensus, Instance, Waves};
use narwhal_tusk::tusk::{DagRider, Tusk};
use narwhal_tusk::types::{Certificate, Committee, Header, Round, ValidatorId, Vote};
use std::collections::{HashMap, HashSet};

/// A boxed zero-message consensus instance (all three protocols qualify).
type BoxedConsensus = Box<dyn DagConsensus<Ext = narwhal_tusk::narwhal::NoExt>>;
/// A factory producing one fresh instance per simulated validator view.
type ProtocolFactory = fn(&Committee) -> BoxedConsensus;

/// Records a pseudo-random but deterministic DAG: every block references a
/// rotating 2f+1-subset of the previous round (all of it when `full`) and
/// carries a coin share (Tusk and DAG-Rider need one; Bullshark ignores it).
fn record_dag(n: usize, rounds: Round, seed: u64, full: bool) -> (Committee, Vec<Certificate>) {
    let (committee, kps) = Committee::deterministic(n, 1, Scheme::Insecure);
    let quorum = committee.quorum_threshold();
    let mut all: Vec<Certificate> = Certificate::genesis_set(&committee);
    let mut prev: Vec<Digest> = all.iter().map(Certificate::header_digest).collect();
    let mut state = seed | 1;
    for r in 1..=rounds {
        let mut next = Vec::new();
        for (i, kp) in kps.iter().enumerate() {
            let mut parents = prev.clone();
            while !full && parents.len() > quorum {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let pick = (state >> 33) as usize % parents.len();
                parents.remove(pick);
            }
            let share = CoinShare::new(kp, r);
            let header = Header::new(kp, ValidatorId(i as u32), r, vec![], parents, Some(share));
            let votes: Vec<Vote> = kps
                .iter()
                .enumerate()
                .map(|(j, vkp)| {
                    Vote::new(
                        vkp,
                        ValidatorId(j as u32),
                        header.digest(),
                        r,
                        header.author,
                    )
                })
                .collect();
            let cert = Certificate::from_votes(&committee, header, &votes).expect("quorum");
            next.push(cert.header_digest());
            all.push(cert);
        }
        prev = next;
    }
    (committee, all)
}

/// Replays the recorded DAG into `consensus` in `order` (deferring certs
/// whose parents are missing, as the primary does) and returns the
/// linearized committed-certificate sequence.
fn linearize(
    consensus: &mut dyn DagConsensus<Ext = narwhal_tusk::narwhal::NoExt>,
    certs: &[Certificate],
    order: &[usize],
) -> Vec<(Round, ValidatorId)> {
    let mut dag = Dag::new();
    let mut ordered: HashSet<Digest> = HashSet::new();
    let mut linearized = Vec::new();
    let mut pending: Vec<Certificate> = order.iter().map(|i| certs[*i].clone()).collect();
    while !pending.is_empty() {
        let mut progressed = false;
        let mut rest = Vec::new();
        for cert in pending {
            if dag.missing_parents(&cert).is_empty() {
                dag.insert(cert.clone());
                let mut out = ConsensusOut::default();
                consensus.on_certificate(&dag, &cert, &mut out);
                for anchor in out.anchors {
                    for c in dag.collect_history(&anchor, &ordered).expect("complete") {
                        ordered.insert(c.header_digest());
                        linearized.push((c.round(), c.origin()));
                    }
                }
                progressed = true;
            } else {
                rest.push(cert);
            }
        }
        assert!(progressed, "delivery must make progress");
        pending = rest;
    }
    linearized
}

fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Asserts ancestors precede descendants in `lin` (causal order).
fn assert_causal(lin: &[(Round, ValidatorId)], certs: &[Certificate]) {
    let by_id: HashMap<(Round, ValidatorId), &Certificate> =
        certs.iter().map(|c| ((c.round(), c.origin()), c)).collect();
    let position: HashMap<&(Round, ValidatorId), usize> =
        lin.iter().enumerate().map(|(i, id)| (id, i)).collect();
    let by_digest: HashMap<Digest, (Round, ValidatorId)> = certs
        .iter()
        .map(|c| (c.header_digest(), (c.round(), c.origin())))
        .collect();
    for id in lin {
        let cert = by_id[id];
        for parent in &cert.header.parents {
            let parent_id = by_digest[parent];
            if let (Some(&p), Some(&c)) = (position.get(&parent_id), position.get(id)) {
                assert!(p < c, "parent {parent_id:?} ordered after child {id:?}");
            }
        }
    }
}

#[test]
fn every_protocol_linearizes_consistent_prefixes_from_one_recorded_dag() {
    let (committee, certs) = record_dag(4, 12, 0xB5, false);
    let in_order: Vec<usize> = (0..certs.len()).collect();
    let views = [shuffled(certs.len(), 41), shuffled(certs.len(), 97)];

    // (protocol name, fresh instance per view)
    let protocols: Vec<(&str, ProtocolFactory)> = vec![
        ("Tusk", |c| Box::new(Tusk::new(c.clone(), 7))),
        ("DAG-Rider", |c| Box::new(DagRider::new(c.clone(), 7))),
        ("Bullshark", |c| {
            Box::new(Bullshark::new(c.clone(), RoundRobin::new(c)))
        }),
        ("Bullshark-Rep", |c| {
            Box::new(Bullshark::new(c.clone(), Reputation::new(c)))
        }),
        ("Bullshark-Pipelined", |c| {
            Box::new(PipelinedBullshark::new(c.clone(), Reputation::new(c)))
        }),
    ];

    for (name, make) in &protocols {
        let reference = linearize(make(&committee).as_mut(), &certs, &in_order);
        assert!(
            !reference.is_empty(),
            "{name}: something must commit over 12 rounds"
        );
        assert_causal(&reference, &certs);
        for (v, view) in views.iter().enumerate() {
            let other = linearize(make(&committee).as_mut(), &certs, view);
            let common = reference.len().min(other.len());
            assert!(common > 0, "{name}: view {v} commits nothing");
            assert_eq!(
                reference[..common],
                other[..common],
                "{name}: view {v} diverges from the in-order linearization"
            );
            assert_causal(&other, &certs);
        }
    }
}

#[test]
fn bullshark_commits_more_anchors_than_dag_rider_on_the_same_dag() {
    // Anchor cadence over the same recorded rounds: over 12 fully
    // connected rounds, 2-round Bullshark waves settle 6 anchors (voting
    // rounds 2..12), Tusk's piggybacked 3-round waves 5 (coin rounds
    // 3..11), DAG-Rider's 4-round waves 3 (reveal rounds 4, 8, 12).
    // Pipelined Bullshark re-bases after every commit, so every round
    // 1..=11 yields an anchor.
    let (committee, certs) = record_dag(4, 12, 0xB5, true);
    let in_order: Vec<usize> = (0..certs.len()).collect();
    let count = |consensus: &mut dyn DagConsensus<Ext = narwhal_tusk::narwhal::NoExt>| {
        let mut dag = Dag::new();
        let mut anchors = 0usize;
        for i in &in_order {
            let cert = certs[*i].clone();
            dag.insert(cert.clone());
            let mut out = ConsensusOut::default();
            consensus.on_certificate(&dag, &cert, &mut out);
            anchors += out.anchors.len();
        }
        anchors
    };
    let mut bull = Bullshark::new(committee.clone(), RoundRobin::new(&committee));
    let mut tusk = Tusk::new(committee.clone(), 7);
    let mut rider = DagRider::new(committee.clone(), 7);
    let mut pipelined = PipelinedBullshark::new(committee.clone(), RoundRobin::new(&committee));
    let b = count(&mut bull);
    let t = count(&mut tusk);
    let r = count(&mut rider);
    let p = count(&mut pipelined);
    assert_eq!((b, t, r), (6, 5, 3), "anchor cadence per wave size");
    assert_eq!(p, 11, "pipelined anchors every round");
}

/// Runs `make`'s protocol twice over one 4-validator DAG in which validator
/// 1 never proposes (so waves it leads are skipped): straight through, and
/// with the instance checkpointed after round 10 and replaced by a fresh
/// one restored from the blob. The restored instance must resume at the
/// same open instance with the same counters, and commit the same anchors.
fn assert_restore_resumes_identically<R: CommitRule>(
    name: &str,
    make: impl Fn(&Committee) -> Waves<R>,
) {
    const CUT: Round = 10;
    let live = [0, 2, 3];
    let mut straight = Driver::new(4, &make);
    let mut restarted = Driver::new(4, &make);
    for r in 1..=CUT {
        straight.round_of(r, &live);
        restarted.round_of(r, &live);
    }
    let blob = restarted.consensus.checkpoint().expect("checkpointed");
    let mut fresh = make(&restarted.committee);
    fresh.restore(&blob);
    let before = &restarted.consensus;
    assert_eq!(fresh.instance(), before.instance(), "{name}: open instance");
    assert_eq!(
        fresh.commit_counts(),
        before.commit_counts(),
        "{name}: counters"
    );
    restarted.consensus = fresh;
    let committed_at_cut = restarted.anchors.len();
    for r in CUT + 1..=24 {
        straight.round_of(r, &live);
        restarted.round_of(r, &live);
    }
    let seq = |anchors: &[Certificate]| -> Vec<(Round, ValidatorId)> {
        anchors.iter().map(|a| (a.round(), a.origin())).collect()
    };
    assert!(
        committed_at_cut > 0,
        "{name}: nothing committed before the cut"
    );
    assert!(
        restarted.anchors.len() > committed_at_cut,
        "{name}: nothing committed after the restore"
    );
    assert_eq!(
        seq(&straight.anchors),
        seq(&restarted.anchors),
        "{name}: anchors"
    );
    assert_eq!(
        straight.consensus.instance(),
        restarted.consensus.instance(),
        "{name}: open instance at the end"
    );
    assert_eq!(
        straight.consensus.commit_counts(),
        restarted.consensus.commit_counts(),
        "{name}: counters at the end"
    );
}

#[test]
fn checkpoint_restore_resumes_identically() {
    assert_restore_resumes_identically("Tusk", |c| Tusk::new(c.clone(), 7));
    assert_restore_resumes_identically("DAG-Rider", |c| DagRider::new(c.clone(), 7));
    assert_restore_resumes_identically("Bullshark", |c| {
        Bullshark::new(c.clone(), RoundRobin::new(c))
    });
    assert_restore_resumes_identically("Bullshark-Rep", |c| {
        Bullshark::new(c.clone(), Reputation::new(c))
    });
    assert_restore_resumes_identically("Bullshark-Pipelined", |c| {
        PipelinedBullshark::new(c.clone(), Reputation::new(c))
    });
}

/// A blob that does not decode leaves `make`'s protocol at genesis.
fn assert_garbage_restore_is_ignored<R: CommitRule>(
    name: &str,
    make: impl Fn(&Committee) -> Waves<R>,
) {
    let (committee, _) = Committee::deterministic(4, 1, Scheme::Insecure);
    let mut consensus = make(&committee);
    consensus.restore(b"not a checkpoint");
    let genesis = Instance {
        base: 1,
        settled: 0,
    };
    assert_eq!(consensus.instance(), genesis, "{name}");
    assert_eq!(consensus.commit_counts(), (0, 0), "{name}");
}

#[test]
fn garbage_restore_blob_is_ignored() {
    assert_garbage_restore_is_ignored("Tusk", |c| Tusk::new(c.clone(), 7));
    assert_garbage_restore_is_ignored("DAG-Rider", |c| DagRider::new(c.clone(), 7));
    assert_garbage_restore_is_ignored("Bullshark", |c| {
        Bullshark::new(c.clone(), RoundRobin::new(c))
    });
    assert_garbage_restore_is_ignored("Bullshark-Pipelined", |c| {
        PipelinedBullshark::new(c.clone(), Reputation::new(c))
    });
}
