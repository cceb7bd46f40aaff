//! One wave-settlement engine for every DAG commit rule.
//!
//! Tusk (§5), its ancestor DAG-Rider (§8.2) and partially-synchronous
//! Bullshark read the local DAG the same way. Anchor *candidates* sit at a
//! fixed spacing above a base round, one leader each. A candidate commits
//! **directly** on its own votes; one that misses them is settled
//! **indirectly** by the walk down from the next direct commit, ordered if
//! the committing anchor has a DAG path to it and abandoned otherwise.
//! Quorum intersection makes that verdict common to all validators. The
//! protocols differ only in where candidates sit, who leads them and what
//! counts as a vote: that is a [`CommitRule`]. [`Waves`] is everything
//! else: the settlement loop, the walk, the counters and the checkpoint.
//!
//! Each pass commits only the *lowest* candidate reachable from the first
//! direct commit of the open [`Instance`], records it and the skips below
//! it with the rule, re-bases `step` rounds past the committed anchor and
//! scans again — Shoal's "re-interpret the DAG after every committed
//! anchor", which keeps stateful leader sources (reputation) agreed. Waves
//! are numbered in settlement order (`settled + 1 + k` for the instance's
//! `k`-th candidate), so [`CommitRule::record`] sees them ascending and
//! gap-free. When the step equals the spacing the candidate grid never
//! moves, and one anchor per pass orders exactly the chain a single
//! top-down walk would.

use crate::consensus::{ConsensusOut, DagConsensus, NoExt};
use crate::dag::{CertId, Dag, DagView};
use nt_codec::{decode_from_slice, encode_to_vec};
use nt_types::{Certificate, Committee, Round, ValidatorId};

/// What distinguishes one DAG commit rule from another.
pub trait CommitRule: Send {
    /// What a deployment passes to build the rule (a coin domain, a leader
    /// schedule).
    type Params;

    /// Builds the rule for `committee`.
    fn new(committee: Committee, params: Self::Params) -> Self;

    /// Rounds between consecutive candidates of one instance.
    fn spacing(&self) -> Round;

    /// Rounds from a committed anchor to the next instance's first
    /// candidate; also the happy-path anchor cadence.
    fn step(&self) -> Round {
        self.spacing()
    }

    /// The leader of the candidate at `round`, which is `wave` in
    /// settlement order. `None` while the leader cannot be known yet (an
    /// unrevealed coin) ends the scan.
    fn leader(&self, view: DagView<'_>, round: Round, wave: u64) -> Option<ValidatorId>;

    /// True if the candidate block `anchor` has the votes to commit on its
    /// own.
    fn commits_directly(&self, view: DagView<'_>, anchor: CertId) -> bool;

    /// Notes a settled wave: its leader either committed or was skipped.
    fn record(&mut self, wave: u64, leader: ValidatorId, committed: bool) {
        let _ = (wave, leader, committed);
    }

    /// The rule's own durable state, carried inside the engine's checkpoint.
    fn checkpoint(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores [`CommitRule::checkpoint`] output; invalid blobs are ignored.
    fn restore(&mut self, checkpoint: &[u8]) {
        let _ = checkpoint;
    }

    /// [`DagConsensus::parent_wishes`], given the open instance.
    fn parent_wishes(&self, open: Instance, round: Round) -> Vec<(Round, ValidatorId)> {
        let _ = (open, round);
        Vec::new()
    }

    /// [`DagConsensus::coverage_wishes`], given the open instance.
    fn coverage_wishes(
        &self,
        open: Instance,
        round: Round,
        me: ValidatorId,
    ) -> Vec<(Round, ValidatorId)> {
        let _ = (open, round, me);
        Vec::new()
    }
}

/// The open instance of a [`Waves`] engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instance {
    /// Round of the first candidate (1 at genesis).
    pub base: Round,
    /// Waves settled so far, committed or skipped.
    pub settled: u64,
}

/// The wave-settlement engine running commit rule `R`; a [`DagConsensus`].
pub struct Waves<R> {
    rule: R,
    open: Instance,
    /// Anchors committed by their own votes (metrics).
    direct_commits: u64,
    /// Anchors committed via the recursive path rule (metrics).
    indirect_commits: u64,
}

impl<R: CommitRule> Waves<R> {
    /// Starts at genesis. All validators of one deployment must pass the
    /// same `params`.
    pub fn new(committee: Committee, params: R::Params) -> Self {
        Waves {
            rule: R::new(committee, params),
            open: Instance {
                base: 1,
                settled: 0,
            },
            direct_commits: 0,
            indirect_commits: 0,
        }
    }

    /// The commit rule (tests/metrics).
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// The open instance (tests/metrics).
    pub fn instance(&self) -> Instance {
        self.open
    }

    /// Re-evaluates the open instance against the current DAG; returns
    /// newly committed anchors in commit order.
    ///
    /// Candidates are never frozen: one lacking votes *now* may gain them
    /// as more blocks arrive, so every insertion re-checks it until a
    /// commit re-bases past it.
    fn try_decide(&mut self, view: DagView<'_>) -> Vec<Certificate> {
        let mut anchors = Vec::new();
        'instances: loop {
            // The leaders the scan checked, snapshotted before any `record`
            // can change the rule: the skips recorded below must name
            // exactly the leaders that were on trial.
            let mut leaders = Vec::new();
            let mut round = self.open.base;
            // No candidate has votes before a higher round exists.
            while round < view.highest_round() {
                let wave = self.open.settled + 1 + leaders.len() as u64;
                let Some(leader) = self.rule.leader(view, round, wave) else {
                    break;
                };
                leaders.push(leader);
                if let Some(anchor) = view.id_at(round, leader) {
                    if self.rule.commits_directly(view, anchor) {
                        anchors.push(self.settle(view, anchor, &leaders));
                        continue 'instances;
                    }
                }
                round += self.rule.spacing();
            }
            return anchors;
        }
    }

    /// Settles the open instance, ending at the direct commit `anchor` of
    /// its last scanned candidate: walks down to the lowest reachable
    /// candidate, commits *that* one, records it and every candidate below
    /// it, and re-bases the next instance `step` rounds past it.
    fn settle(
        &mut self,
        view: DagView<'_>,
        anchor: CertId,
        leaders: &[ValidatorId],
    ) -> Certificate {
        let k = leaders.len() - 1;
        let mut lowest = (k, anchor);
        for (i, &leader) in leaders[..k].iter().enumerate().rev() {
            let round = self.open.base + self.rule.spacing() * i as u64;
            if let Some(past) = view.id_at(round, leader) {
                if view.path_exists(lowest.1, past) {
                    lowest = (i, past);
                }
            }
        }
        let (committed, id) = lowest;
        for (i, &leader) in leaders[..committed].iter().enumerate() {
            // Not on the anchor's path: no validator can ever commit this
            // candidate (quorum intersection), so the skip is final.
            self.rule
                .record(self.open.settled + 1 + i as u64, leader, false);
        }
        if committed == k {
            self.direct_commits += 1;
        } else {
            self.indirect_commits += 1;
        }
        let cert = view.cert(id).clone();
        let wave = self.open.settled + 1 + committed as u64;
        self.rule.record(wave, cert.origin(), true);
        self.open = Instance {
            base: cert.round() + self.rule.step(),
            settled: wave,
        };
        cert
    }
}

impl<R: CommitRule> DagConsensus for Waves<R> {
    type Ext = NoExt;

    fn on_certificate(&mut self, dag: &Dag, cert: &Certificate, out: &mut ConsensusOut<NoExt>) {
        // Only some insertions can change a decision, but re-evaluating
        // unconditionally is cheap, and `try_decide` is idempotent and
        // strictly forward-moving.
        let _ = cert;
        out.anchors.extend(self.try_decide(dag.view()));
    }

    fn commit_counts(&self) -> (u64, u64) {
        (self.direct_commits, self.indirect_commits)
    }

    fn anchor_cadence(&self) -> Round {
        self.rule.step()
    }

    /// The open instance, the commit counters and the rule's own state. A
    /// restarted validator resumes the open instance without replaying the
    /// settled ones: their coin shares may be garbage-collected, and a
    /// stateful schedule reset to defaults would elect different leaders
    /// than the rest of the committee.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(encode_to_vec(&(
            (
                (self.open.base, self.open.settled),
                (self.direct_commits, self.indirect_commits),
            ),
            self.rule.checkpoint(),
        )))
    }

    fn restore(&mut self, checkpoint: &[u8]) {
        type Blob = (((u64, u64), (u64, u64)), Vec<u8>);
        if let Ok((((base, settled), (direct, indirect)), rule)) =
            decode_from_slice::<Blob>(checkpoint)
        {
            self.open = Instance {
                base: base.max(1),
                settled,
            };
            self.direct_commits = direct;
            self.indirect_commits = indirect;
            self.rule.restore(&rule);
        }
    }

    fn parent_wishes(&self, dag: &Dag, round: Round) -> Vec<(Round, ValidatorId)> {
        let _ = dag;
        self.rule.parent_wishes(self.open, round)
    }

    fn coverage_wishes(
        &self,
        dag: &Dag,
        round: Round,
        me: ValidatorId,
    ) -> Vec<(Round, ValidatorId)> {
        let _ = dag;
        self.rule.coverage_wishes(self.open, round, me)
    }
}
