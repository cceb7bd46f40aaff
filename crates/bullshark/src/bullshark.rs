//! The partially-synchronous Bullshark commit rule, with fixed or
//! pipelined anchors.
//!
//! Bullshark ("Bullshark: DAG BFT Protocols Made Practical", and the
//! standalone "partially synchronous version") reuses the Narwhal DAG but
//! replaces Tusk's retrospective coin with *predefined* leaders, cutting
//! the common-case commit point from Tusk's ~4.5 rounds to 2. As a
//! [`CommitRule`] over the shared [`Waves`] engine, candidates sit every
//! two rounds, led as a [`LeaderSchedule`] every validator evaluates
//! identically says, and a candidate at round `r` commits **directly** once
//! `2f + 1` round-`r + 1` blocks reference it.
//!
//! After committing an anchor at round `r`, the next instance re-bases at
//! `r + STEP`. The two variants differ only in that step:
//!
//! - [`Bullshark`] (`STEP = 2`): fixed two-round waves. Wave `w` owns the
//!   leader round `2w - 1` and the voting round `2w`; odd rounds carry
//!   anchors, even rounds only vote.
//! - [`PipelinedBullshark`] (`STEP = 1`): Shoal-style pipelining ("Shoal:
//!   Improving DAG-BFT Latency And Robustness"). The voting round is an
//!   offset, not a protocol slot, so the round right after a commit is the
//!   next candidate round. Under synchrony every round carries an anchor,
//!   and decision depth drops from ~2.5 rounds to `2 - 1/n`. Candidates of
//!   the old instance above the commit point are abandoned (their rounds
//!   have the wrong parity in the new instance); their blocks are ordered
//!   by later anchors' causal sweeps like any other block.

use crate::schedule::LeaderSchedule;
use narwhal::{CertId, CommitRule, DagView, Instance, Waves};
use nt_types::{Committee, Round, ValidatorId};

/// Bullshark with fixed two-round waves; `Bullshark::new(committee,
/// schedule)`.
pub type Bullshark<S> = Waves<BullsharkRule<S, 2>>;

/// Shoal-style pipelined Bullshark, an anchor candidate every round;
/// `PipelinedBullshark::new(committee, schedule)`.
pub type PipelinedBullshark<S> = Waves<BullsharkRule<S, 1>>;

/// Bullshark's commit rule over schedule `S`, re-basing `STEP` rounds past
/// each commit.
pub struct BullsharkRule<S, const STEP: Round> {
    committee: Committee,
    schedule: S,
}

impl<S: LeaderSchedule, const STEP: Round> BullsharkRule<S, STEP> {
    /// The schedule, for inspecting reputation standings (tests/metrics).
    pub fn schedule(&self) -> &S {
        &self.schedule
    }

    /// The leader expected to hold the candidate slot at `round`, used only
    /// by the wish hooks.
    ///
    /// Fixed waves use the static parity: every odd round `2w - 1` belongs
    /// to wave `w`, whatever has settled locally.
    ///
    /// The pipeline's candidate rounds are a function of the *dynamic*
    /// `base`, and a proposer can reach round `base + d` with `d` odd when
    /// it has a round quorum but has not yet processed the support that
    /// commits the base candidate locally. Returning no wish there is what
    /// made wish misses contagious: the proposer would not wait for round
    /// `base + d`'s candidate either, starving *its* direct quorum in turn.
    /// Instead, predict the post-commit state — the base candidate commits
    /// in the common case, re-basing to `base + 1` and settling one more
    /// wave — so every round gets a candidate wish. Wishes are bounded-wait
    /// performance hints, so a mis-prediction costs at most one wish
    /// deadline, never safety.
    fn expected_candidate_leader(&self, open: Instance, round: Round) -> Option<ValidatorId> {
        if STEP == 2 {
            return (!round.is_multiple_of(2)).then(|| self.schedule.leader(round.div_ceil(2)));
        }
        if round < open.base {
            return None;
        }
        let d = round - open.base;
        let wave = if d.is_multiple_of(2) {
            open.settled + 1 + d / 2
        } else {
            open.settled + 2 + d / 2
        };
        Some(self.schedule.leader(wave))
    }
}

impl<S: LeaderSchedule, const STEP: Round> CommitRule for BullsharkRule<S, STEP> {
    /// All validators of one deployment must start from identical schedule
    /// state (schedules are deterministic from the settled history).
    type Params = S;

    fn new(committee: Committee, schedule: S) -> Self {
        BullsharkRule {
            committee,
            schedule,
        }
    }

    fn spacing(&self) -> Round {
        2
    }

    fn step(&self) -> Round {
        STEP
    }

    fn leader(&self, _: DagView<'_>, _: Round, wave: u64) -> Option<ValidatorId> {
        Some(self.schedule.leader(wave))
    }

    fn commits_directly(&self, view: DagView<'_>, anchor: CertId) -> bool {
        view.support(anchor) >= self.committee.quorum_threshold()
    }

    fn record(&mut self, wave: u64, leader: ValidatorId, committed: bool) {
        self.schedule.record(wave, leader, committed);
    }

    fn checkpoint(&self) -> Vec<u8> {
        self.schedule.checkpoint()
    }

    fn restore(&mut self, checkpoint: &[u8]) {
        self.schedule.restore(checkpoint);
    }

    /// The partial-synchrony half of the protocol: before proposing the
    /// block after a candidate round, wait (up to the primary's header
    /// deadline) for the candidate's certificate, so the block's parents
    /// carry a vote for it. Without this, candidates miss their `2f + 1`
    /// direct quorum whenever WAN skew outruns proposal timing, and commit
    /// latency degrades to the indirect path. A timing hint only — after
    /// the timeout the primary proposes leaderless, exactly Bullshark's
    /// behaviour before global stabilisation.
    fn parent_wishes(&self, open: Instance, round: Round) -> Vec<(Round, ValidatorId)> {
        if round == 0 {
            return Vec::new();
        }
        let prev = round - 1;
        match self.expected_candidate_leader(open, prev) {
            Some(leader) => vec![(prev, leader)],
            None => Vec::new(),
        }
    }

    fn coverage_wishes(
        &self,
        open: Instance,
        round: Round,
        me: ValidatorId,
    ) -> Vec<(Round, ValidatorId)> {
        if round == 0 {
            return Vec::new();
        }
        // A leader about to propose its own anchor wishes for *every*
        // previous-round certificate: the anchor's causal history is the
        // commit sweep, and a history built from the bare 2f + 1 fastest
        // certificates never reaches the slowest regions' chains — their
        // blocks then wait for the next anchor led from their own region
        // (10 rounds at n = 10 under round-robin; unboundedly long under a
        // reputation schedule that stops electing them). Non-anchor blocks
        // keep proposing at quorum, so the round cadence is untouched.
        if round >= 2 && self.expected_candidate_leader(open, round) == Some(me) {
            return (0..self.committee.size())
                .map(|v| (round - 1, ValidatorId(v as u32)))
                .collect();
        }
        // Every other block wishes for its author's own previous
        // certificate — chain continuity. A validator whose vote
        // round-trips outlast the round cadence otherwise proposes round r
        // without its round r − 1 certificate; if no peer referenced that
        // certificate either, everything below it is unreachable from
        // every future anchor and its batches stall until GC re-injection,
        // a gc_depth-round latency cliff (observed as ~16 s p99 on 10- and
        // 20-node committees before this wish existed).
        vec![(round - 1, me)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Reputation, RoundRobin};
    use narwhal::test_support::{make_round, Driver};
    use narwhal::{ConsensusOut, Dag, DagConsensus};
    use nt_crypto::{Digest, Scheme};
    use nt_types::Certificate;

    fn fixed(n: usize) -> Driver<Bullshark<RoundRobin>> {
        Driver::new(n, |c| Bullshark::new(c.clone(), RoundRobin::new(c)))
    }

    fn pipelined(n: usize) -> Driver<PipelinedBullshark<RoundRobin>> {
        Driver::new(n, |c| {
            PipelinedBullshark::new(c.clone(), RoundRobin::new(c))
        })
    }

    /// Round 1 fully connected, then a round 2 where only the validators
    /// in `voters` reference validator 0's round-1 block.
    fn starve_round_one_leader<C: DagConsensus>(d: &mut Driver<C>, voters: u32) {
        d.full_round(1);
        let all = d.parents(1);
        let minus_leader: Vec<Digest> = d
            .dag
            .round_certs(1)
            .filter(|c| c.origin() != ValidatorId(0))
            .map(Certificate::header_digest)
            .collect();
        let certs = make_round(&d.committee, &d.kps, 2, &[0, 1, 2, 3], |a| {
            if a < voters {
                all.clone()
            } else {
                minus_leader.clone()
            }
        });
        d.feed(certs);
    }

    fn anchor_seq(anchors: &[Certificate]) -> Vec<(Round, u32)> {
        anchors.iter().map(|c| (c.round(), c.origin().0)).collect()
    }

    #[test]
    fn commits_one_leader_every_two_rounds_in_full_dag() {
        let mut d = fixed(4);
        for r in 1..=8 {
            d.full_round(r);
        }
        // Waves 1..=4 decide as soon as their voting round lands: anchors
        // at rounds 1, 3, 5, 7 — twice Tusk's cadence, no coin needed.
        assert_eq!(d.anchors.len(), 4);
        let rounds: Vec<Round> = d.anchors.iter().map(Certificate::round).collect();
        assert_eq!(rounds, vec![1, 3, 5, 7]);
        // Round-robin: wave w is led by validator (w - 1) mod 4.
        let leaders: Vec<u32> = d.anchors.iter().map(|c| c.origin().0).collect();
        assert_eq!(leaders, vec![0, 1, 2, 3]);
        let (direct, indirect) = d.consensus.commit_counts();
        assert_eq!((direct, indirect), (4, 0));
        assert_eq!(d.consensus.anchor_cadence(), 2);
    }

    #[test]
    fn pipeline_commits_one_anchor_every_round_in_full_dag() {
        let mut d = pipelined(4);
        for r in 1..=8 {
            d.full_round(r);
        }
        // Every round 1..=7 carries a committed anchor — twice the fixed
        // waves' cadence (rounds 1, 3, 5, 7) from the identical DAG.
        let rounds: Vec<Round> = d.anchors.iter().map(Certificate::round).collect();
        assert_eq!(rounds, vec![1, 2, 3, 4, 5, 6, 7]);
        // Waves settle in order, so round-robin leadership rotates per
        // round instead of per two rounds.
        let leaders: Vec<u32> = d.anchors.iter().map(|c| c.origin().0).collect();
        assert_eq!(leaders, vec![0, 1, 2, 3, 0, 1, 2]);
        let (direct, indirect) = d.consensus.commit_counts();
        assert_eq!((direct, indirect), (7, 0));
        assert_eq!(d.consensus.instance().base, 8);
        assert_eq!(d.consensus.anchor_cadence(), 1);
    }

    #[test]
    fn decides_at_the_voting_round_not_a_round_later() {
        let mut d = fixed(4);
        d.full_round(1);
        assert!(d.anchors.is_empty(), "no votes yet");
        d.full_round(2);
        // The wave-1 leader commits the moment round 2 completes — Tusk
        // would still be waiting for round 3's coin shares here.
        assert_eq!(d.anchors.len(), 1);
        assert_eq!(d.anchors[0].round(), 1);
    }

    #[test]
    fn pipeline_decides_one_round_after_the_candidate_not_two() {
        let mut d = pipelined(4);
        d.full_round(1);
        assert!(d.anchors.is_empty(), "no votes yet");
        d.full_round(2);
        assert_eq!(d.anchors.len(), 1);
        assert_eq!(d.anchors[0].round(), 1);
        // The pipeline's payoff: round 2's candidate needs only round 3.
        d.full_round(3);
        assert_eq!(d.anchors.len(), 2);
        assert_eq!(d.anchors[1].round(), 2);
    }

    #[test]
    fn unsupported_leader_is_skipped_and_unreferenced_leader_abandoned() {
        // Round 2: nobody references the wave-1 leader (validator 0).
        let mut d = fixed(4);
        starve_round_one_leader(&mut d, 0);
        // Waves 2..: fully connected.
        for r in 3..=6 {
            d.full_round(r);
        }
        // Wave 1's leader has no votes and no incoming path: abandoned.
        assert!(
            d.anchors
                .iter()
                .all(|a| !(a.round() == 1 && a.origin() == ValidatorId(0))),
            "unreferenced leader cannot commit"
        );
        // Later waves commit directly; the skip is settled, not pending.
        let (direct, indirect) = d.consensus.commit_counts();
        assert!(direct >= 2);
        assert_eq!(indirect, 0, "no path to the skipped leader");
        assert!(d.consensus.instance().settled >= 2);
    }

    #[test]
    fn pipeline_skips_an_unsupported_candidate_and_rebases() {
        let mut d = pipelined(4);
        starve_round_one_leader(&mut d, 0);
        for r in 3..=4 {
            d.full_round(r);
        }
        // Candidate k=1 (round 3, leader 1) commits directly; the walk
        // finds no path to validator 0's unreferenced block, so wave 1 is
        // a final skip and the instance re-bases at round 4.
        assert!(
            d.anchors
                .iter()
                .all(|a| !(a.round() == 1 && a.origin() == ValidatorId(0))),
            "unreferenced candidate cannot commit"
        );
        assert_eq!(d.anchors[0].round(), 3);
        assert_eq!(
            d.consensus.instance().settled,
            2,
            "skip + commit both settled"
        );
        assert_eq!(d.consensus.instance().base, 4, "re-based past the commit");
        let (direct, indirect) = d.consensus.commit_counts();
        assert_eq!((direct, indirect), (1, 0));
    }

    #[test]
    fn late_support_commits_leader_indirectly_through_the_walk() {
        // Round 2: only 2 of 4 blocks reference the wave-1 leader — below
        // the 2f + 1 = 3 direct threshold, above zero (so paths exist).
        let mut d = fixed(4);
        starve_round_one_leader(&mut d, 2);
        assert!(d.anchors.is_empty(), "2 votes < 2f + 1: no direct commit");
        // Waves 2..: fully connected; wave 2's direct commit reaches wave
        // 1's leader through the two referencing blocks.
        for r in 3..=4 {
            d.full_round(r);
        }
        assert_eq!(
            anchor_seq(&d.anchors),
            vec![(1, 0), (3, 1)],
            "wave 1 ordered before wave 2"
        );
        let (direct, indirect) = d.consensus.commit_counts();
        assert_eq!((direct, indirect), (1, 1), "wave 1 indirect, wave 2 direct");
    }

    #[test]
    fn pipeline_late_support_commits_candidate_indirectly_through_the_walk() {
        let mut d = pipelined(4);
        starve_round_one_leader(&mut d, 2);
        assert!(d.anchors.is_empty(), "2 votes < 2f + 1: no direct commit");
        for r in 3..=4 {
            d.full_round(r);
        }
        // The round-3 candidate's direct commit walks down, finds a path
        // through the two referencing blocks, and orders round 1's anchor
        // first; the re-based instances then sweep rounds 2 and 3 too.
        assert_eq!(
            anchor_seq(&d.anchors),
            vec![(1, 0), (2, 1), (3, 2)],
            "lowest ordered first"
        );
        let (direct, indirect) = d.consensus.commit_counts();
        assert_eq!((direct, indirect), (2, 1), "round 1 was indirect");
    }

    #[test]
    fn reputation_demotes_a_dead_leader_after_one_skipped_turn() {
        // Validator 1 starts inside the rotation ({0, 1, 2} by tie-break)
        // but never produces blocks. Its first turn is skipped, the penalty
        // drops it below idle validator 3, and the rotation heals to
        // {0, 2, 3}: exactly one skipped wave over the whole run, where
        // round-robin would skip every third wave forever.
        let mut d = Driver::new(4, |c| Bullshark::new(c.clone(), Reputation::new(c)));
        for r in 1..=20u64 {
            d.round_of(r, &[0, 2, 3]);
        }
        let bull = &d.consensus;
        assert!(
            d.anchors.iter().all(|a| a.origin() != ValidatorId(1)),
            "dead validator never leads a committed wave"
        );
        assert!(bull.rule().schedule().score(ValidatorId(1)) < 0, "demoted");
        assert!(
            d.anchors.iter().any(|a| a.origin() == ValidatorId(3)),
            "idle validator promoted into the rotation"
        );
        // 20 rounds = 10 waves: wave 2 (validator 1's only turn) is the
        // sole skip; everything else commits directly.
        let (direct, indirect) = bull.commit_counts();
        assert_eq!(indirect, 0);
        assert!(direct >= 8, "commits keep flowing, got {direct}");
        assert_eq!(bull.instance().settled, direct + 1, "exactly one skip");
    }

    #[test]
    fn pipeline_reputation_reanchors_past_a_dead_candidate() {
        // Same dead validator 1: its first candidate turn is skipped, the
        // penalty drops it below idle validator 3, and every later round
        // anchors on live leaders.
        let mut d = Driver::new(4, |c| {
            PipelinedBullshark::new(c.clone(), Reputation::new(c))
        });
        for r in 1..=20u64 {
            d.round_of(r, &[0, 2, 3]);
        }
        let pipe = &d.consensus;
        assert!(
            d.anchors.iter().all(|a| a.origin() != ValidatorId(1)),
            "dead validator never leads a committed round"
        );
        assert!(pipe.rule().schedule().score(ValidatorId(1)) < 0, "demoted");
        assert!(
            d.anchors.iter().any(|a| a.origin() == ValidatorId(3)),
            "idle validator promoted into the rotation"
        );
        // 20 full rounds at per-round cadence: one anchor per round except
        // around the single skipped turn.
        let (direct, indirect) = pipe.commit_counts();
        assert_eq!(indirect, 0);
        assert!(direct >= 16, "per-round commits keep flowing, got {direct}");
        assert_eq!(pipe.instance().settled, direct + 1, "exactly one skip");
    }

    /// Regression: with two consecutive skipped waves, the skip records
    /// must name the leaders the settlement walk actually checked. An
    /// earlier version re-read the (already re-ranked) schedule between
    /// records, penalizing the healthy wave-3 leader in place of the dead
    /// wave-2 one.
    #[test]
    fn consecutive_skips_penalize_the_checked_leaders_not_the_reranked_ones() {
        // n = 7 (f = 2, quorum 5, eligible 5): validators 0 and 1 — the
        // wave-1 and wave-2 leaders — are dead; 2..=6 are fully connected,
        // so wave 3 (leader 2) is the first direct commit and settles both
        // dead waves in one instance.
        let mut d = Driver::new(7, |c| Bullshark::new(c.clone(), Reputation::new(c)));
        for r in 1..=8u64 {
            d.round_of(r, &[2, 3, 4, 5, 6]);
        }
        let bull = &d.consensus;
        assert!(
            bull.instance().settled >= 3,
            "wave 3 settles the dead waves"
        );
        // Both dead leaders carry the skip penalty; the leader that
        // actually committed gained score.
        assert!(bull.rule().schedule().score(ValidatorId(0)) < 0);
        assert!(
            bull.rule().schedule().score(ValidatorId(1)) < 0,
            "misattribution"
        );
        assert!(
            bull.rule().schedule().score(ValidatorId(2)) > 0,
            "misattribution"
        );
        assert_eq!(d.anchors[0].origin(), ValidatorId(2));
    }

    #[test]
    fn reputation_standings_survive_restart_byte_identically() {
        // Four validators interpret one DAG with a dead member (validator
        // 1), so re-anchoring is actively rewriting the reputation
        // standings while validator 0 checkpoint-restarts mid-run. The
        // restored instance must end with standings byte-identical to the
        // peers that never restarted — a diverged schedule would anchor
        // different rounds on different leaders committee-wide.
        let (committee, kps) = Committee::deterministic(4, 1, Scheme::Insecure);
        let fresh = || PipelinedBullshark::new(committee.clone(), Reputation::new(&committee));
        let mut dag = Dag::new();
        dag.insert_genesis(Certificate::genesis_set(&committee));
        let mut pipes: Vec<PipelinedBullshark<Reputation>> = (0..4).map(|_| fresh()).collect();
        let feed_round = |dag: &mut Dag, pipes: &mut [PipelinedBullshark<Reputation>], r| {
            let parents: Vec<Digest> = dag.round_certs(r - 1).map(|c| c.header_digest()).collect();
            for cert in make_round(&committee, &kps, r, &[0, 2, 3], |_| parents.clone()) {
                dag.insert(cert.clone());
                for pipe in pipes.iter_mut() {
                    let mut out = ConsensusOut::default();
                    pipe.on_certificate(dag, &cert, &mut out);
                }
            }
        };
        for r in 1..=10u64 {
            feed_round(&mut dag, &mut pipes, r);
        }
        // Validator 0 crashes and recovers from its durable checkpoint.
        let blob = pipes[0].checkpoint().expect("checkpointed");
        pipes[0] = fresh();
        pipes[0].restore(&blob);
        for r in 11..=20u64 {
            feed_round(&mut dag, &mut pipes, r);
        }
        assert!(
            pipes[0].rule().schedule().score(ValidatorId(1)) < 0,
            "the skip that demoted the dead validator survived the restart"
        );
        let standings: Vec<Vec<u8>> = pipes
            .iter()
            .map(|p| p.checkpoint().expect("checkpointed"))
            .collect();
        for (v, blob) in standings.iter().enumerate().skip(1) {
            assert_eq!(
                standings[0], *blob,
                "validator {v} and the restarted validator 0 diverged"
            );
        }
        let (direct, _) = pipes[0].commit_counts();
        assert!(direct >= 16, "commits kept flowing through the restart");
    }
}
