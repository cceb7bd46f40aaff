//! Property tests for Bullshark's safety: agreement (identical anchor
//! sequences across local views), total order (identical linearized
//! certificate prefixes), and no-commit-loss across garbage collection.

use bullshark::{Bullshark, Reputation, RoundRobin};
use narwhal::test_support::make_round;
use narwhal::{ConsensusOut, Dag, DagConsensus};
use nt_crypto::{Digest, Scheme};
use nt_types::{Certificate, Committee, Round, ValidatorId};
use proptest::prelude::*;
use std::collections::HashSet;

/// Block identities in commit order: `(round, author)`.
type CommitSeq = Vec<(Round, ValidatorId)>;

/// Builds a randomized DAG like a real execution would: every block
/// references a pseudo-random 2f+1-subset of the previous round.
fn random_dag_certs(n: usize, rounds: Round, edges: &[u8]) -> (Committee, Vec<Certificate>) {
    let (committee, kps) = Committee::deterministic(n, 1, Scheme::Insecure);
    let quorum = committee.quorum_threshold();
    let mut all: Vec<Certificate> = Certificate::genesis_set(&committee);
    let mut prev: Vec<Digest> = all.iter().map(Certificate::header_digest).collect();
    let mut idx = 0usize;
    let authors: Vec<u32> = (0..n as u32).collect();
    for r in 1..=rounds {
        let parents: Vec<Vec<Digest>> = authors
            .iter()
            .map(|_| {
                let mut parents = prev.clone();
                while parents.len() > quorum {
                    let pick = edges.get(idx).copied().unwrap_or(7) as usize % parents.len();
                    idx += 1;
                    parents.remove(pick);
                }
                parents
            })
            .collect();
        let certs = make_round(&committee, &kps, r, &authors, |a| {
            parents[a as usize].clone()
        });
        prev = certs.iter().map(Certificate::header_digest).collect();
        all.extend(certs);
    }
    (committee, all)
}

/// One validator's view: feeds `certs` in `order` (deferring certs whose
/// parents are missing, as the primary's suspension discipline does) and
/// returns the committed anchors plus the linearized certificate sequence
/// obtained by flushing each anchor's not-yet-ordered causal history.
fn run_view(
    committee: &Committee,
    certs: &[Certificate],
    order: &[usize],
    reputation: bool,
    gc_depth: Option<Round>,
) -> (CommitSeq, CommitSeq) {
    let mut rr;
    let mut rep;
    let consensus: &mut dyn DagConsensus<Ext = narwhal::NoExt> = if reputation {
        rep = Bullshark::new(committee.clone(), Reputation::new(committee));
        &mut rep
    } else {
        rr = Bullshark::new(committee.clone(), RoundRobin::new(committee));
        &mut rr
    };
    let mut dag = Dag::new();
    let mut anchors = Vec::new();
    let mut linearized = Vec::new();
    let mut ordered: HashSet<Digest> = HashSet::new();
    let mut pending: Vec<Certificate> = order.iter().map(|i| certs[*i].clone()).collect();
    while !pending.is_empty() {
        let mut progressed = false;
        let mut rest = Vec::new();
        for cert in pending {
            if cert.round() < dag.first_retained_round() {
                // Pruned behind the commit point: the primary drops these.
                progressed = true;
                continue;
            }
            if dag.missing_parents(&cert).is_empty() {
                dag.insert(cert.clone());
                let mut out = ConsensusOut::default();
                consensus.on_certificate(&dag, &cert, &mut out);
                for anchor in out.anchors {
                    anchors.push((anchor.round(), anchor.origin()));
                    let history = dag
                        .collect_history(&anchor, &ordered)
                        .expect("complete causal cone");
                    for c in &history {
                        ordered.insert(c.header_digest());
                        linearized.push((c.round(), c.origin()));
                    }
                    if let Some(depth) = gc_depth {
                        let gc_round = anchor.round().saturating_sub(depth);
                        if gc_round > 0 {
                            for pruned in dag.gc(gc_round) {
                                ordered.remove(&pruned.header_digest());
                            }
                        }
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
    (anchors, linearized)
}

fn shuffle(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Agreement: two validators receiving the same DAG in different orders
    /// commit prefix-consistent anchor sequences, under both schedules.
    #[test]
    fn anchor_sequences_are_prefix_consistent_across_delivery_orders(
        edges in proptest::collection::vec(any::<u8>(), 512),
        shuffle_seed in any::<u64>(),
        reputation in any::<bool>(),
    ) {
        let (committee, certs) = random_dag_certs(4, 10, &edges);
        let in_order: Vec<usize> = (0..certs.len()).collect();
        let shuffled = shuffle(certs.len(), shuffle_seed);
        let (a, _) = run_view(&committee, &certs, &in_order, reputation, None);
        let (b, _) = run_view(&committee, &certs, &shuffled, reputation, None);
        let common = a.len().min(b.len());
        prop_assert!(common > 0, "some wave must commit over 10 rounds");
        prop_assert_eq!(&a[..common], &b[..common], "same anchor sequence");
    }

    /// Total order: the linearized certificate sequences (anchors plus
    /// flushed causal histories) are prefix-consistent across views, and
    /// never order a certificate twice.
    #[test]
    fn linearizations_are_prefix_consistent_and_duplicate_free(
        edges in proptest::collection::vec(any::<u8>(), 512),
        shuffle_seed in any::<u64>(),
        reputation in any::<bool>(),
    ) {
        let (committee, certs) = random_dag_certs(4, 10, &edges);
        let in_order: Vec<usize> = (0..certs.len()).collect();
        let shuffled = shuffle(certs.len(), shuffle_seed);
        let (_, lin_a) = run_view(&committee, &certs, &in_order, reputation, None);
        let (_, lin_b) = run_view(&committee, &certs, &shuffled, reputation, None);
        let common = lin_a.len().min(lin_b.len());
        prop_assert!(common > 0);
        prop_assert_eq!(&lin_a[..common], &lin_b[..common], "same total order");
        let unique: HashSet<&(Round, ValidatorId)> = lin_a.iter().collect();
        prop_assert_eq!(unique.len(), lin_a.len(), "no certificate ordered twice");
    }

    /// No commit loss across GC: pruning the DAG behind the commit point
    /// (as the primary does) never changes the committed anchor sequence,
    /// and the linearized order stays a subsequence of the unpruned one
    /// containing every anchor (blocks outside every anchor's cone may be
    /// pruned uncommitted — that is §3.3's re-injection case, not loss).
    #[test]
    fn gc_behind_the_commit_point_loses_no_commits(
        edges in proptest::collection::vec(any::<u8>(), 512),
        gc_depth in 4u64..8,
        reputation in any::<bool>(),
    ) {
        let (committee, certs) = random_dag_certs(4, 12, &edges);
        let in_order: Vec<usize> = (0..certs.len()).collect();
        let (plain_anchors, plain_lin) =
            run_view(&committee, &certs, &in_order, reputation, None);
        let (gc_anchors, gc_lin) =
            run_view(&committee, &certs, &in_order, reputation, Some(gc_depth));
        prop_assert!(!plain_anchors.is_empty());
        prop_assert_eq!(&plain_anchors, &gc_anchors, "anchors survive GC");
        // gc_lin is a subsequence of plain_lin...
        let mut it = plain_lin.iter();
        for entry in &gc_lin {
            prop_assert!(
                it.any(|p| p == entry),
                "GC must not reorder or invent commits: {entry:?}"
            );
        }
        // ...that still contains every committed anchor.
        for anchor in &gc_anchors {
            prop_assert!(gc_lin.contains(anchor), "anchor {anchor:?} linearized");
        }
    }
}
