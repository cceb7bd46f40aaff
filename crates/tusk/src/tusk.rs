//! The coin-elected commit rules: Tusk (§5) and DAG-Rider (§8.2).
//!
//! Both elect each wave's leader *in retrospect* with a shared random coin
//! reconstructed from the `f + 1`-of-`n` coin shares carried in ordinary
//! blocks, so an adaptive adversary learns the leader only after the
//! wave's first rounds are fixed (§5.2). Each is a [`CommitRule`] over the
//! shared [`Waves`] engine, which orders skipped leaders along DAG paths
//! (Lemma 1 guarantees such paths exist for leaders any honest validator
//! committed directly).
//!
//! - **Tusk**: waves are three rounds, and the third round of wave `w` is
//!   the first round of wave `w + 1` (the paper's piggybacking, which
//!   brings common-case latency from 5.5 to 4.5 rounds). Candidates sit at
//!   the odd rounds `2w - 1`; the coin is revealed two rounds above, and
//!   the leader commits if at least `f + 1` next-round blocks reference
//!   it.
//! - **DAG-Rider**: waves are four rounds with no piggybacking (wave `w`
//!   owns rounds `4w - 3 ..= 4w`). The coin is revealed in the wave's last
//!   round, and the leader commits if `2f + 1` of that round's blocks have
//!   a path to it. Weak links (DAG-Rider's block-level fairness device)
//!   are omitted, as Tusk forbids them to enable garbage collection.

use narwhal::{CertId, CommitRule, DagView, Waves};
use nt_crypto::{combine_shares, CoinShare};
use nt_types::{Committee, Round, ValidatorId};

/// Tusk consensus; `Tusk::new(committee, domain)`, where `domain` seeds the
/// coin and must be identical at all validators.
pub type Tusk = Waves<TuskRule>;

/// DAG-Rider consensus; `DagRider::new(committee, domain)`, as for Tusk.
pub type DagRider = Waves<DagRiderRule>;

/// Tusk's commit rule.
pub struct TuskRule {
    committee: Committee,
    /// Coin domain separator (a deployment-wide genesis nonce).
    domain: u64,
}

/// DAG-Rider's commit rule.
pub struct DagRiderRule {
    committee: Committee,
    /// Coin domain separator, as for Tusk.
    domain: u64,
}

/// The leader the coin revealed at round `reveal` elects, once `f + 1`
/// of that round's blocks carry shares.
fn elect(
    committee: &Committee,
    domain: u64,
    view: DagView<'_>,
    reveal: Round,
) -> Option<ValidatorId> {
    let shares: Vec<CoinShare> = view
        .round_ids(reveal)
        .filter_map(|id| view.cert(id).header.coin_share)
        .collect();
    let coin = combine_shares(domain, reveal, &shares, committee.validity_threshold())?;
    Some(ValidatorId((coin % committee.size() as u64) as u32))
}

impl CommitRule for TuskRule {
    type Params = u64;

    fn new(committee: Committee, domain: u64) -> Self {
        TuskRule { committee, domain }
    }

    fn spacing(&self) -> Round {
        2
    }

    fn leader(&self, view: DagView<'_>, round: Round, _: u64) -> Option<ValidatorId> {
        elect(&self.committee, self.domain, view, round + 2)
    }

    /// `f + 1` votes in the next round (§5).
    fn commits_directly(&self, view: DagView<'_>, anchor: CertId) -> bool {
        view.support(anchor) >= self.committee.validity_threshold()
    }
}

impl CommitRule for DagRiderRule {
    type Params = u64;

    fn new(committee: Committee, domain: u64) -> Self {
        DagRiderRule { committee, domain }
    }

    fn spacing(&self) -> Round {
        4
    }

    fn leader(&self, view: DagView<'_>, round: Round, _: u64) -> Option<ValidatorId> {
        elect(&self.committee, self.domain, view, round + 3)
    }

    /// `2f + 1` blocks in the wave's last round with a path to the leader.
    fn commits_directly(&self, view: DagView<'_>, anchor: CertId) -> bool {
        let votes = view
            .round_ids(view.round_of(anchor) + 3)
            .filter(|c| view.path_exists(*c, anchor))
            .count();
        votes >= self.committee.quorum_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use narwhal::test_support::{make_round, Driver};
    use narwhal::{ConsensusOut, Dag, DagConsensus};
    use nt_crypto::{Digest, Scheme};
    use nt_types::Certificate;

    fn tusk(n: usize, domain: u64) -> Driver<Tusk> {
        Driver::new(n, |c| Tusk::new(c.clone(), domain))
    }

    fn dag_rider(n: usize, rounds: Round) -> Driver<DagRider> {
        let mut d = Driver::new(n, |c| DagRider::new(c.clone(), 11));
        for r in 1..=rounds {
            d.full_round(r);
        }
        d
    }

    fn anchor_rounds(anchors: &[Certificate]) -> Vec<Round> {
        anchors.iter().map(Certificate::round).collect()
    }

    #[test]
    fn commits_leader_every_wave_in_full_dag() {
        let mut d = tusk(4, 7);
        for r in 1..=9 {
            d.full_round(r);
        }
        // Waves 1..=4 decidable (coin rounds 3, 5, 7, 9). Fully connected:
        // every leader present with n >= f+1 support commits.
        assert_eq!(d.anchors.len(), 4);
        assert_eq!(d.consensus.commit_counts(), (4, 0));
        // Anchors come in wave order at the waves' proposal rounds.
        assert_eq!(anchor_rounds(&d.anchors), vec![1, 3, 5, 7]);
        assert_eq!(d.consensus.anchor_cadence(), 2);
    }

    #[test]
    fn dag_rider_commits_one_leader_per_four_rounds() {
        let d = dag_rider(4, 12);
        // Waves 1..=3 commit, anchored at rounds 1, 5, 9; no piggybacking,
        // so wave 2 starts after wave 1's reveal round 4.
        assert_eq!(anchor_rounds(&d.anchors), vec![1, 5, 9]);
        assert_eq!(d.consensus.commit_counts(), (3, 0));
        assert_eq!(d.consensus.anchor_cadence(), 4);
    }

    #[test]
    fn dag_rider_waves_are_sparser_than_tusk() {
        // Over the same 13-round DAG, Tusk decides 6 waves (coin rounds 3,
        // 5, ..., 13) while DAG-Rider decides 3 (reveal rounds 4, 8, 12):
        // the piggybacking is exactly a 2x anchor-frequency improvement.
        let mut t = tusk(4, 11);
        for r in 1..=13 {
            t.full_round(r);
        }
        assert_eq!(t.anchors.len(), 6);
        assert_eq!(dag_rider(4, 13).anchors.len(), 3);
    }

    #[test]
    fn coin_needs_f_plus_1_shares() {
        let mut d = tusk(4, 7);
        for r in 1..=2 {
            d.full_round(r);
        }
        // Round 3 with only one block: one share < f + 1 = 2.
        d.round_of(3, &[0]);
        assert!(d.anchors.is_empty(), "no coin, no commit");
        // A second round-3 block reveals the coin.
        d.round_of(3, &[1]);
        assert_eq!(d.anchors.len(), 1, "wave 1 commits once the coin reveals");
    }

    #[test]
    fn leader_without_support_is_skipped_then_ordered_by_path() {
        // Build wave 1 where the leader gets zero votes in round 2, then a
        // fully connected wave 2. The wave-2 leader commits; wave 1's leader
        // is ordered first if reachable (here: skipped since no round-2
        // block references it => it is NOT an ancestor... verify both
        // branches by checking the committed sequence is consistent).
        let mut d = tusk(4, 7);
        d.full_round(1);
        // Determine who wave 1's leader will be (coin of wave 1).
        // Domain 7, r3 = 3; reconstruct with the same function.
        let shares: Vec<CoinShare> = (0..2).map(|i| CoinShare::new(&d.kps[i], 3)).collect();
        let coin = combine_shares(7, 3, &shares, 2).unwrap();
        let leader1 = ValidatorId((coin % 4) as u64 as u32);
        // Round 2: everyone references every round-1 block EXCEPT the
        // leader's (zero support).
        let parents: Vec<Digest> = d
            .dag
            .round_certs(1)
            .filter(|c| c.origin() != leader1)
            .map(|c| c.header_digest())
            .collect();
        let authors: Vec<u32> = (0..4).collect();
        let certs = make_round(&d.committee, &d.kps, 2, &authors, |_| parents.clone());
        d.feed(certs);
        // Waves 2..: fully connected.
        for r in 3..=7 {
            d.full_round(r);
        }
        // Wave 1's leader must never be an anchor (no support, and no path
        // from later leaders since nobody referenced it).
        assert!(
            d.anchors
                .iter()
                .all(|a| !(a.round() == 1 && a.origin() == leader1)),
            "unsupported, unreferenced leader cannot commit"
        );
        // Later waves commit normally.
        assert!(!d.anchors.is_empty());
        let (_, indirect) = d.consensus.commit_counts();
        assert_eq!(indirect, 0, "no path to the skipped leader");
    }

    #[test]
    fn two_validators_with_different_views_commit_consistent_sequences() {
        // Validator A sees all rounds; validator B misses one round-2 block.
        // Their committed leader sequences must be prefix-consistent
        // (Lemma 2: same sequence of block leaders).
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let mut dag_a = Dag::new();
        let mut dag_b = Dag::new();
        dag_a.insert_genesis(Certificate::genesis_set(&committee));
        dag_b.insert_genesis(Certificate::genesis_set(&committee));
        let mut tusk_a = Tusk::new(committee.clone(), 3);
        let mut tusk_b = Tusk::new(committee.clone(), 3);
        let mut anchors_a = Vec::new();
        let mut anchors_b = Vec::new();

        let authors: Vec<u32> = (0..4).collect();
        for r in 1..=9u64 {
            let parents: Vec<Digest> = dag_a
                .round_certs(r - 1)
                .map(|c| c.header_digest())
                .collect();
            let certs = make_round(&committee, &kps, r, &authors, |_| parents.clone());
            for cert in certs {
                dag_a.insert(cert.clone());
                let mut out = ConsensusOut::default();
                tusk_a.on_certificate(&dag_a, &cert, &mut out);
                anchors_a.extend(out.anchors);
                // B misses validator 3's block in round 2 (but still has a
                // quorum there).
                if r == 2 && cert.origin() == ValidatorId(3) {
                    continue;
                }
                dag_b.insert(cert.clone());
                let mut out = ConsensusOut::default();
                tusk_b.on_certificate(&dag_b, &cert, &mut out);
                anchors_b.extend(out.anchors);
            }
        }
        let seq_a: Vec<(Round, ValidatorId)> =
            anchors_a.iter().map(|c| (c.round(), c.origin())).collect();
        let seq_b: Vec<(Round, ValidatorId)> =
            anchors_b.iter().map(|c| (c.round(), c.origin())).collect();
        let common = seq_a.len().min(seq_b.len());
        assert!(common > 0);
        assert_eq!(seq_a[..common], seq_b[..common], "prefix consistency");
    }
}
