//! DAG-Rider over Narwhal: the 4-round-wave ancestor of Tusk (§8.2).
//!
//! The paper notes "it would take less than 200 LOC to implement DAG-Rider
//! over Narwhal"; this module validates that claim and serves as the
//! ablation baseline for Tusk's 3-round piggybacked waves. Differences from
//! Tusk, per §8.2:
//!
//! - waves are 4 rounds with no piggybacking (wave `w` owns rounds
//!   `4w-3 .. 4w`), so each block commits in ~5.5 rounds in expectation
//!   instead of Tusk's ~4.5;
//! - the commit rule requires `2f + 1` blocks in the wave's *last* round
//!   with a strong path to the leader;
//! - weak links (DAG-Rider's block-level fairness device) are omitted, as
//!   Tusk forbids them to enable garbage collection.

use narwhal::{CertId, ConsensusOut, Dag, DagConsensus, DagView, NoExt};
use nt_codec::{decode_from_slice, encode_to_vec};
use nt_crypto::{combine_shares, CoinShare};
use nt_types::{Certificate, Committee, Round, ValidatorId};

/// DAG-Rider consensus state.
pub struct DagRider {
    committee: Committee,
    domain: u64,
    last_committed_wave: u64,
    /// Count of directly committed leaders (metrics).
    direct_commits: u64,
    /// Count of leaders committed via the recursive path rule (metrics).
    indirect_commits: u64,
}

impl DagRider {
    /// Creates a DAG-Rider instance (`domain` seeds the coin, as in Tusk).
    pub fn new(committee: Committee, domain: u64) -> Self {
        DagRider {
            committee,
            domain,
            last_committed_wave: 0,
            direct_commits: 0,
            indirect_commits: 0,
        }
    }

    /// First round of wave `w`.
    pub fn first_round(w: u64) -> Round {
        4 * w - 3
    }

    /// Last round of wave `w` (where the coin is revealed).
    pub fn last_round(w: u64) -> Round {
        4 * w
    }

    fn elect(&self, view: DagView<'_>, wave: u64) -> Option<ValidatorId> {
        let reveal = Self::last_round(wave);
        let shares: Vec<CoinShare> = view
            .round_ids(reveal)
            .filter_map(|id| view.cert(id).header.coin_share)
            .collect();
        let coin = combine_shares(
            self.domain,
            reveal,
            &shares,
            self.committee.validity_threshold(),
        )?;
        Some(ValidatorId((coin % self.committee.size() as u64) as u32))
    }

    fn leader_id_of(&self, view: DagView<'_>, wave: u64) -> Option<CertId> {
        let leader = self.elect(view, wave)?;
        view.id_at(Self::first_round(wave), leader)
    }

    /// Re-evaluates all undecided waves (never frozen; see `Tusk`).
    fn try_decide(&mut self, dag: &Dag) -> Vec<Certificate> {
        let view = dag.view();
        let mut anchors = Vec::new();
        let mut wave = self.last_committed_wave + 1;
        while let Some(leader_id) = self.elect(view, wave) {
            let r1 = Self::first_round(wave);
            if let Some(leader) = view.id_at(r1, leader_id) {
                // Commit rule: 2f + 1 blocks in the wave's last round with
                // a strong path to the leader.
                let votes = view
                    .round_ids(Self::last_round(wave))
                    .filter(|c| view.path_exists(*c, leader))
                    .count();
                if votes >= self.committee.quorum_threshold() {
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
                    chain.reverse();
                    anchors.extend(chain.into_iter().map(|id| view.cert(id).clone()));
                    self.last_committed_wave = wave;
                }
            }
            wave += 1;
        }
        anchors
    }
}

impl DagConsensus for DagRider {
    type Ext = NoExt;

    fn on_certificate(&mut self, dag: &Dag, cert: &Certificate, out: &mut ConsensusOut<NoExt>) {
        let _ = cert;
        out.anchors.extend(self.try_decide(dag));
    }

    fn commit_counts(&self) -> (u64, u64) {
        (self.direct_commits, self.indirect_commits)
    }

    /// Same wave-walk checkpoint as Tusk (and for the same reason: coin
    /// shares of settled waves do not survive garbage collection).
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
    use narwhal::test_support::Driver;

    fn drive_full_dag(n: usize, rounds: Round) -> (Vec<Certificate>, DagRider) {
        let mut d = Driver::new(n, |c| DagRider::new(c.clone(), 11));
        for r in 1..=rounds {
            d.full_round(r);
        }
        (d.anchors, d.consensus)
    }

    #[test]
    fn wave_round_arithmetic() {
        assert_eq!(DagRider::first_round(1), 1);
        assert_eq!(DagRider::last_round(1), 4);
        // No piggybacking: wave 2 starts after wave 1 ends.
        assert_eq!(DagRider::first_round(2), 5);
        assert_eq!(DagRider::last_round(2), 8);
    }

    #[test]
    fn commits_one_leader_per_four_rounds() {
        let (anchors, _) = drive_full_dag(4, 12);
        // Waves 1..=3 commit, anchored at rounds 1, 5, 9.
        assert_eq!(anchors.len(), 3);
        let rounds: Vec<Round> = anchors.iter().map(Certificate::round).collect();
        assert_eq!(rounds, vec![1, 5, 9]);
    }

    #[test]
    fn waves_are_sparser_than_tusk() {
        // Over the same 13-round DAG, Tusk decides 6 waves (coin rounds at
        // 3,5,7,9,11,13) while DAG-Rider decides 3 (reveal rounds 4,8,12):
        // the piggybacking is exactly a 2x anchor-frequency improvement.
        let (rider_anchors, _) = drive_full_dag(4, 13);
        assert_eq!(rider_anchors.len(), 3);
        assert_eq!(crate::tusk::Tusk::coin_round(6), 13);
        assert_eq!(DagRider::last_round(3), 12);
    }
}
