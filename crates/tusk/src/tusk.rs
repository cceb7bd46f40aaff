//! The Tusk commit rule (§5).
//!
//! Waves are three rounds; the third round of wave `w` is the first round
//! of wave `w + 1` (the paper's piggybacking optimization that brings
//! common-case latency from 5.5 to 4.5 rounds). For wave `w >= 1`:
//!
//! - proposal round `r1(w) = 2w - 1`,
//! - voting round `r2(w) = 2w`,
//! - coin round `r3(w) = 2w + 1` (also `r1(w + 1)`).
//!
//! The coin for wave `w` is reconstructed from the coin shares carried in
//! round-`r3` blocks; it elects a leader block in `r1` *in retrospect*, so
//! an adaptive adversary learns the leader only after the first two rounds
//! are fixed (§5.2). The leader commits if at least `f + 1` round-`r2`
//! blocks reference it. On commit, the validator walks back through the
//! waves since its last commit and orders every elected leader reachable by
//! a DAG path (Lemma 1 guarantees such paths exist for leaders any honest
//! validator committed directly).

use narwhal::{CertId, ConsensusOut, Dag, DagConsensus, DagView, NoExt};
use nt_codec::{decode_from_slice, encode_to_vec};
use nt_crypto::{combine_shares, CoinShare};
use nt_types::{Certificate, Committee, Round, ValidatorId};

/// Tusk consensus state.
pub struct Tusk {
    committee: Committee,
    /// Coin domain separator (a deployment-wide genesis nonce).
    domain: u64,
    /// Last wave whose leader this validator committed.
    last_committed_wave: u64,
    /// Count of directly committed leaders (metrics).
    direct_commits: u64,
    /// Count of leaders committed via the recursive path rule (metrics).
    indirect_commits: u64,
}

impl Tusk {
    /// Creates a Tusk instance for this committee.
    ///
    /// `domain` must be identical at all validators (it seeds the coin).
    pub fn new(committee: Committee, domain: u64) -> Self {
        Tusk {
            committee,
            domain,
            last_committed_wave: 0,
            direct_commits: 0,
            indirect_commits: 0,
        }
    }

    /// First round of wave `w` (wave numbering starts at 1; wave 0 is the
    /// genesis fiction and has no rounds).
    pub fn proposal_round(w: u64) -> Round {
        debug_assert!(w >= 1, "wave numbering starts at 1");
        (2 * w).saturating_sub(1)
    }

    /// Second (voting) round of wave `w`.
    pub fn voting_round(w: u64) -> Round {
        2 * w
    }

    /// Third (coin) round of wave `w` — shared with wave `w + 1`.
    pub fn coin_round(w: u64) -> Round {
        2 * w + 1
    }

    /// `(direct, indirect)` commit counts (metrics).
    pub fn commit_counts(&self) -> (u64, u64) {
        (self.direct_commits, self.indirect_commits)
    }

    /// Leaders committed by their own `f + 1` vote quorum (metrics).
    pub fn direct_commits(&self) -> u64 {
        self.direct_commits
    }

    /// Leaders committed via the recursive path rule (metrics).
    pub fn indirect_commits(&self) -> u64 {
        self.indirect_commits
    }

    /// The leader elected for `wave`, if its coin is revealed and the
    /// leader's block is in the local DAG.
    pub fn leader_of(&self, dag: &Dag, wave: u64) -> Option<Certificate> {
        self.leader_id_of(dag.view(), wave)
            .map(|id| dag.view().cert(id).clone())
    }

    /// The interned id of `wave`'s elected leader block, if present.
    fn leader_id_of(&self, view: DagView<'_>, wave: u64) -> Option<CertId> {
        let leader = self.elect(view, wave)?;
        view.id_at(Self::proposal_round(wave), leader)
    }

    /// Reconstructs the coin for `wave` from shares in round-`r3` blocks.
    fn elect(&self, view: DagView<'_>, wave: u64) -> Option<ValidatorId> {
        let r3 = Self::coin_round(wave);
        let shares: Vec<CoinShare> = view
            .round_ids(r3)
            .filter_map(|id| view.cert(id).header.coin_share)
            .collect();
        let coin = combine_shares(
            self.domain,
            r3,
            &shares,
            self.committee.validity_threshold(),
        )?;
        Some(ValidatorId((coin % self.committee.size() as u64) as u32))
    }

    /// Re-evaluates all undecided waves against the current DAG; returns
    /// newly committed anchors in commit order.
    ///
    /// Waves are never frozen: a wave whose leader lacks support *now* may
    /// gain it as more second-round blocks arrive, and is re-checked on
    /// every insertion until some later wave commits past it (at which
    /// point the recursion settles its fate once and for all).
    fn try_decide(&mut self, dag: &Dag) -> Vec<Certificate> {
        let view = dag.view();
        let mut anchors = Vec::new();
        let mut wave = self.last_committed_wave + 1;
        // Stop at the first wave whose coin is not yet revealed; later
        // waves reveal even later.
        while let Some(leader_id) = self.elect(view, wave) {
            let r1 = Self::proposal_round(wave);
            if let Some(leader) = view.id_at(r1, leader_id) {
                // Commit rule: f + 1 votes in the second round (§5).
                if view.support(leader) >= self.committee.validity_threshold() {
                    anchors.extend(self.commit(view, leader, wave));
                }
            }
            wave += 1;
        }
        anchors
    }

    /// Commits the leader of `wave`, first recursively ordering every
    /// elected leader of the skipped waves that the anchor has a path to.
    fn commit(&mut self, view: DagView<'_>, leader: CertId, wave: u64) -> Vec<Certificate> {
        let mut chain = vec![leader];
        let mut candidate = leader;
        for w in (self.last_committed_wave + 1..wave).rev() {
            if let Some(past) = self.leader_id_of(view, w) {
                if view.path_exists(candidate, past) {
                    chain.push(past);
                    candidate = past;
                }
            }
        }
        self.direct_commits += 1;
        self.indirect_commits += (chain.len() - 1) as u64;
        self.last_committed_wave = wave;
        chain.reverse();
        chain.into_iter().map(|id| view.cert(id).clone()).collect()
    }
}

impl DagConsensus for Tusk {
    type Ext = NoExt;

    fn on_certificate(&mut self, dag: &Dag, cert: &Certificate, out: &mut ConsensusOut<NoExt>) {
        // Only new blocks at or past a coin round can change decisions, but
        // re-evaluating unconditionally is cheap and simpler to reason
        // about: `try_decide` is idempotent and strictly forward-moving.
        let _ = cert;
        out.anchors.extend(self.try_decide(dag));
    }

    fn commit_counts(&self) -> (u64, u64) {
        (self.direct_commits, self.indirect_commits)
    }

    /// Tusk *must* checkpoint: `try_decide` walks waves forward from the
    /// last committed one, and a post-GC restart that rewound to wave 1
    /// could never reveal wave 1's coin again (its shares were pruned) —
    /// the walk would stall forever.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(encode_to_vec(&(
            self.last_committed_wave,
            self.direct_commits,
            self.indirect_commits,
        )))
    }

    fn restore(&mut self, checkpoint: &[u8]) {
        if let Ok((wave, direct, indirect)) = decode_from_slice::<(u64, u64, u64)>(checkpoint) {
            self.last_committed_wave = wave;
            self.direct_commits = direct;
            self.indirect_commits = indirect;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use narwhal::test_support::{make_round, Driver};
    use nt_crypto::{Digest, Scheme};

    fn tusk(n: usize, domain: u64) -> Driver<Tusk> {
        Driver::new(n, |c| Tusk::new(c.clone(), domain))
    }

    #[test]
    fn wave_round_arithmetic() {
        assert_eq!(Tusk::proposal_round(1), 1);
        assert_eq!(Tusk::voting_round(1), 2);
        assert_eq!(Tusk::coin_round(1), 3);
        // Piggybacking: wave 2 starts at wave 1's coin round.
        assert_eq!(Tusk::proposal_round(2), 3);
        assert_eq!(Tusk::coin_round(2), 5);
    }

    /// Regression: `proposal_round(0)` used to compute `2 * 0 - 1`,
    /// panicking in debug and wrapping to `u64::MAX` in release. Waves are
    /// numbered from 1, so wave 0 now trips the `debug_assert` guard...
    #[test]
    #[should_panic(expected = "wave numbering starts at 1")]
    #[cfg(debug_assertions)]
    fn proposal_round_zero_is_rejected_in_debug() {
        Tusk::proposal_round(0);
    }

    /// ...and saturates to round 0 instead of wrapping in release.
    #[test]
    #[cfg(not(debug_assertions))]
    fn proposal_round_zero_saturates_in_release() {
        assert_eq!(Tusk::proposal_round(0), 0);
    }

    #[test]
    fn commit_count_accessors_expose_the_metrics() {
        let mut d = tusk(4, 7);
        for r in 1..=9 {
            d.full_round(r);
        }
        // Fully connected 9 rounds: waves 1..=4 all commit directly (see
        // `commits_leader_every_wave_in_full_dag`).
        assert_eq!(d.consensus.direct_commits(), 4);
        assert_eq!(d.consensus.indirect_commits(), 0);
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
        let (direct, indirect) = d.consensus.commit_counts();
        assert_eq!(direct, 4);
        assert_eq!(indirect, 0);
        // Anchors come in wave order at the waves' proposal rounds.
        let rounds: Vec<Round> = d.anchors.iter().map(Certificate::round).collect();
        assert_eq!(rounds, vec![1, 3, 5, 7]);
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
