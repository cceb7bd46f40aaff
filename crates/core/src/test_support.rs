//! Hand-built DAG fixtures for the commit-rule unit tests of the consensus
//! crates (Tusk, DAG-Rider, Bullshark). Not part of the API.
//!
//! Every block carries a coin share, so one fixture serves both the
//! coin-elected protocols and the predefined-leader ones (which ignore it).

use crate::consensus::{ConsensusOut, DagConsensus};
use crate::dag::Dag;
use nt_crypto::{CoinShare, Digest, Hashable, KeyPair, Scheme};
use nt_types::{Certificate, Committee, Header, Round, ValidatorId, Vote};

/// Certificates for one round: each listed author's block references
/// `parents_of(author)` and is certified by every validator's vote.
pub fn make_round(
    committee: &Committee,
    kps: &[KeyPair],
    round: Round,
    authors: &[u32],
    parents_of: impl Fn(u32) -> Vec<Digest>,
) -> Vec<Certificate> {
    authors
        .iter()
        .map(|&a| {
            let kp = &kps[a as usize];
            let share = CoinShare::new(kp, round);
            let header = Header::new(
                kp,
                ValidatorId(a),
                round,
                vec![],
                parents_of(a),
                Some(share),
            );
            let votes: Vec<Vote> = kps
                .iter()
                .enumerate()
                .map(|(j, kp)| {
                    Vote::new(
                        kp,
                        ValidatorId(j as u32),
                        header.digest(),
                        round,
                        header.author,
                    )
                })
                .collect();
            Certificate::from_votes(committee, header, &votes).expect("quorum")
        })
        .collect()
}

/// A local DAG fed round by round into one consensus instance, collecting
/// the anchors it commits.
pub struct Driver<C: DagConsensus> {
    pub committee: Committee,
    pub kps: Vec<KeyPair>,
    pub dag: Dag,
    pub consensus: C,
    pub anchors: Vec<Certificate>,
}

impl<C: DagConsensus> Driver<C> {
    /// A genesis-only DAG of an `n`-validator committee.
    pub fn new(n: usize, make: impl FnOnce(&Committee) -> C) -> Self {
        let (committee, kps) = Committee::deterministic(n, 1, Scheme::Insecure);
        let mut dag = Dag::new();
        dag.insert_genesis(Certificate::genesis_set(&committee));
        let consensus = make(&committee);
        Driver {
            committee,
            kps,
            dag,
            consensus,
            anchors: Vec::new(),
        }
    }

    /// Inserts `certs` in order, handing each to the consensus instance.
    pub fn feed(&mut self, certs: Vec<Certificate>) {
        for cert in certs {
            self.dag.insert(cert.clone());
            let mut out = ConsensusOut::default();
            self.consensus.on_certificate(&self.dag, &cert, &mut out);
            self.anchors.extend(out.anchors);
        }
    }

    /// Digests of every `round` certificate in the local DAG.
    pub fn parents(&self, round: Round) -> Vec<Digest> {
        self.dag
            .round_certs(round)
            .map(Certificate::header_digest)
            .collect()
    }

    /// Adds a round where each of `authors` references every previous-round
    /// block.
    pub fn round_of(&mut self, round: Round, authors: &[u32]) {
        let parents = self.parents(round - 1);
        let certs = make_round(&self.committee, &self.kps, round, authors, |_| {
            parents.clone()
        });
        self.feed(certs);
    }

    /// Adds a fully connected round: every validator references every
    /// previous-round block.
    pub fn full_round(&mut self, round: Round) {
        let authors: Vec<u32> = (0..self.committee.size() as u32).collect();
        self.round_of(round, &authors);
    }
}
