//! Pluggable leader schedules for Bullshark waves.
//!
//! Partially-synchronous Bullshark replaces Tusk's retrospective shared
//! coin with *predefined* leaders: every validator must compute the same
//! leader for a wave without exchanging messages. The schedule is therefore
//! a deterministic function of the wave number and of state that advances
//! only with the *settled* wave outcomes — which Bullshark delivers to all
//! validators in the same order (see [`narwhal::Waves`]).
//!
//! Two schedules are provided:
//!
//! - [`RoundRobin`]: the baseline of the Bullshark paper — leaders rotate
//!   over the committee regardless of behaviour.
//! - [`Reputation`]: a Shoal-style schedule ("Shoal: Improving DAG-BFT
//!   Latency And Robustness") that scores validators by their record as
//!   leaders and rotates only over the currently best-scored subset, so
//!   crashed or sluggish validators stop costing a skipped wave per
//!   rotation turn.

use nt_types::{Committee, ValidatorId};

/// A deterministic wave-leader assignment.
///
/// Implementations must be pure functions of (wave, recorded history):
/// [`LeaderSchedule::record`] is invoked exactly once per wave, in strictly
/// ascending wave order, with the *agreed* outcome of that wave. Because
/// every validator settles the same outcomes in the same order, identical
/// schedule instances stay identical across the committee — the property
/// Bullshark's safety rests on.
pub trait LeaderSchedule: Send {
    /// The leader of `wave` (waves are numbered from 1) under the current
    /// recorded history.
    fn leader(&self, wave: u64) -> ValidatorId;

    /// Records the settled outcome of `wave`: its `leader` either committed
    /// (`committed = true`) or was skipped. Called in ascending wave order.
    fn record(&mut self, wave: u64, leader: ValidatorId, committed: bool) {
        let _ = (wave, leader, committed);
    }

    /// Serializes the schedule's recorded history for the crash checkpoint.
    ///
    /// Stateful schedules must implement this pair: Bullshark restores the
    /// settled wave *without* replaying the settled instances, so a
    /// schedule restored to its default state would assign different
    /// leaders than the rest of the committee — a safety violation.
    /// Stateless schedules keep the empty default.
    fn checkpoint(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state produced by [`LeaderSchedule::checkpoint`]. Invalid
    /// blobs are ignored (the schedule keeps its current state).
    fn restore(&mut self, checkpoint: &[u8]) {
        let _ = checkpoint;
    }
}

/// Rotates leaders over the whole committee: wave `w` is led by validator
/// `(w - 1) mod n`. History-free, so it never needs [`LeaderSchedule::record`].
#[derive(Clone, Debug)]
pub struct RoundRobin {
    n: u32,
}

impl RoundRobin {
    /// A round-robin schedule over `committee`.
    pub fn new(committee: &Committee) -> Self {
        RoundRobin {
            n: committee.size() as u32,
        }
    }
}

impl LeaderSchedule for RoundRobin {
    fn leader(&self, wave: u64) -> ValidatorId {
        debug_assert!(wave >= 1, "wave numbering starts at 1");
        ValidatorId((wave.saturating_sub(1) % self.n as u64) as u32)
    }
}

/// Shoal-style leader reputation: committed leaders gain score, skipped
/// leaders lose it, and waves rotate round-robin over the best-scored
/// validators only — everyone whose score ties or beats the `n - f`-th
/// best. Ties are *included*: exclusion needs evidence that a validator is
/// strictly worse than the cut, or a fresh committee would permanently
/// bench its highest ids on nothing but the id tie-break (validators that
/// never lead can never earn score, so an id-ordered prefix of equals is
/// self-perpetuating).
///
/// Scores are clamped so a recovered validator can climb back into the
/// eligible set after roughly `SCORE_CLAMP / SKIP_PENALTY` clean recoveries
/// of the committee (its peers' scores saturate while its own stops
/// falling).
#[derive(Clone, Debug)]
pub struct Reputation {
    scores: Vec<i64>,
    /// Guaranteed rotation width (`n - f`); ties at the cut extend it.
    eligible_base: usize,
    /// Validators whose score ties or beats the `eligible_base`-th best —
    /// the actual rotation width.
    eligible: usize,
    /// Validator ids ranked best-first, maintained on [`Reputation::record`]
    /// — `leader()` sits in per-certificate hot loops and must not sort.
    ranked: Vec<u32>,
}

/// Score delta for a committed wave.
const COMMIT_REWARD: i64 = 1;
/// Score delta for a skipped wave (skips hurt more than commits help: one
/// crash-induced skip should outweigh a long benign history).
const SKIP_PENALTY: i64 = 2;
/// Scores saturate at ±`SCORE_CLAMP` so standings stay reversible.
const SCORE_CLAMP: i64 = 16;

impl Reputation {
    /// A reputation schedule over `committee`, everyone starting equal.
    pub fn new(committee: &Committee) -> Self {
        let n = committee.size();
        let f = committee.validity_threshold() - 1;
        Reputation {
            scores: vec![0; n],
            eligible_base: n - f,
            eligible: n,
            ranked: (0..n as u32).collect(),
        }
    }

    /// Current score of `validator` (metrics/tests).
    pub fn score(&self, validator: ValidatorId) -> i64 {
        self.scores[validator.0 as usize]
    }

    /// Re-ranks validator ids best-first (by score descending, then id
    /// ascending — a total order, so every validator ranks identically)
    /// and recomputes the eligible width: everyone scoring at least as
    /// well as the `eligible_base`-th best rotates.
    fn rerank(&mut self) {
        let scores = &self.scores;
        self.ranked.sort_by_key(|&v| (-scores[v as usize], v));
        let cutoff = scores[self.ranked[self.eligible_base - 1] as usize];
        self.eligible = self
            .ranked
            .iter()
            .take_while(|&&v| scores[v as usize] >= cutoff)
            .count();
    }
}

impl LeaderSchedule for Reputation {
    fn leader(&self, wave: u64) -> ValidatorId {
        debug_assert!(wave >= 1, "wave numbering starts at 1");
        let slot = (wave.saturating_sub(1) % self.eligible as u64) as usize;
        ValidatorId(self.ranked[slot])
    }

    fn record(&mut self, _wave: u64, leader: ValidatorId, committed: bool) {
        let delta = if committed {
            COMMIT_REWARD
        } else {
            -SKIP_PENALTY
        };
        let score = &mut self.scores[leader.0 as usize];
        *score = (*score + delta).clamp(-SCORE_CLAMP, SCORE_CLAMP);
        self.rerank();
    }

    /// Scores are the whole history-dependent state; the ranking is
    /// re-derived on restore.
    fn checkpoint(&self) -> Vec<u8> {
        nt_codec::encode_to_vec(&self.scores.iter().map(|s| *s as u64).collect::<Vec<u64>>())
    }

    fn restore(&mut self, checkpoint: &[u8]) {
        let Ok(scores) = nt_codec::decode_from_slice::<Vec<u64>>(checkpoint) else {
            return;
        };
        if scores.len() != self.scores.len() {
            return;
        }
        self.scores = scores.into_iter().map(|s| s as i64).collect();
        self.rerank();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_crypto::Scheme;

    fn committee(n: usize) -> Committee {
        Committee::deterministic(n, 1, Scheme::Insecure).0
    }

    #[test]
    fn round_robin_cycles_over_committee() {
        let rr = RoundRobin::new(&committee(4));
        let leaders: Vec<u32> = (1..=6).map(|w| rr.leader(w).0).collect();
        assert_eq!(leaders, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn reputation_starts_as_round_robin_over_everyone() {
        // Equal scores exclude nobody: demotion needs evidence, not an id
        // tie-break, so a fresh schedule rotates over the full committee.
        let rep = Reputation::new(&committee(4));
        let leaders: Vec<u32> = (1..=5).map(|w| rep.leader(w).0).collect();
        assert_eq!(leaders, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn ties_at_the_cut_stay_eligible() {
        // n = 4, f = 1: the guaranteed rotation width is 3, but a validator
        // tying the 3rd-best score is not excluded.
        let mut rep = Reputation::new(&committee(4));
        rep.record(1, ValidatorId(0), true);
        // Scores [1, 0, 0, 0]: the 3rd best is 0, tied by validator 3.
        let leaders: Vec<u32> = (2..=9).map(|w| rep.leader(w).0).collect();
        assert!(leaders.contains(&3), "tied validator rotates: {leaders:?}");
    }

    #[test]
    fn skipped_leader_drops_out_of_rotation() {
        let mut rep = Reputation::new(&committee(4));
        // Validator 1 is skipped once; 0 and 2 commit.
        rep.record(1, ValidatorId(0), true);
        rep.record(2, ValidatorId(1), false);
        rep.record(3, ValidatorId(2), true);
        assert_eq!(rep.score(ValidatorId(1)), -SKIP_PENALTY);
        // Rotation is now over {0, 2, 3}: validator 1 no longer leads.
        let leaders: Vec<u32> = (4..=9).map(|w| rep.leader(w).0).collect();
        assert!(!leaders.contains(&1), "skipped leader demoted: {leaders:?}");
        assert!(leaders.contains(&3), "equal-scored validator promoted");
    }

    #[test]
    fn scores_clamp_and_recover() {
        let mut rep = Reputation::new(&committee(4));
        for w in 0..100 {
            rep.record(w, ValidatorId(3), false);
        }
        assert_eq!(rep.score(ValidatorId(3)), -SCORE_CLAMP);
        for w in 100..200 {
            rep.record(w, ValidatorId(3), true);
        }
        assert_eq!(rep.score(ValidatorId(3)), SCORE_CLAMP, "redeemable");
    }

    #[test]
    fn identical_histories_give_identical_schedules() {
        let mut a = Reputation::new(&committee(7));
        let mut b = Reputation::new(&committee(7));
        let history = [(1, 0, true), (2, 1, false), (3, 2, true), (4, 3, false)];
        for (w, v, ok) in history {
            a.record(w, ValidatorId(v), ok);
            b.record(w, ValidatorId(v), ok);
        }
        for w in 5..40 {
            assert_eq!(a.leader(w), b.leader(w));
        }
    }
}
