//! The primary state machine (§3.1, §3.3, §4.1).
//!
//! The primary builds the DAG: it proposes one block per round containing
//! the batch digests its workers certified, votes for valid peer blocks,
//! assembles `2f + 1` votes into certificates of availability, advances
//! rounds when a quorum of certificates for the previous round is known,
//! pulls missing certified blocks (quorum-based reliable broadcast), and
//! garbage-collects the DAG behind the consensus commit point, re-injecting
//! transactions from garbage-collected uncommitted blocks.
//!
//! Consensus is a plug-in ([`DagConsensus`]): Tusk interprets the DAG
//! locally with zero extra messages; Narwhal-HotStuff exchanges extension
//! messages through the same primary.
//!
//! Durability (§6, "data-structures are persisted using RocksDB"): a
//! primary given a store ([`crate::NodeBuilder::store`]) writes through
//! a [`BlockStore`] — certificates on DAG insert, vote locks on
//! acknowledgment, ordered markers and the sequence counter on commit, the
//! consensus checkpoint after every settled anchor — and deletes with
//! garbage collection. On start it recovers all of it, so a crashed
//! validator resumes from its persisted frontier instead of genesis and
//! never re-commits or equivocates across the outage.

use crate::config::NarwhalConfig;
use crate::consensus::{ConsensusOut, DagConsensus};
use crate::dag::{Dag, InsertOutcome};
use crate::deployment::AddressBook;
use crate::messages::{BatchInfo, NarwhalMsg};
use crate::store::BlockStore;
use nt_crypto::{CoinShare, Digest, Hashable, KeyPair};
use nt_execution::{
    chunk_of, BatchData, Execution, OrderedRef, SnapshotBase, SnapshotManifest, SnapshotPackage,
    SnapshotSig,
};
use nt_network::{Actor, Context, NodeId, Time};
use nt_types::{Certificate, CommitEvent, Committee, Header, Round, ValidatorId, Vote};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

const TAG_PROPOSE: u64 = 1;
const TAG_RETRY: u64 = 2;
/// A verified certificate this many rounds above the local round proves the
/// committee has moved on without us; trigger a batched round-range pull
/// (§4.1 catch-up) instead of walking ancestry one suspended-parent
/// round-trip per DAG round.
const RANGE_PULL_LAG: Round = 5;
/// Rounds served per range response: bounds the responder's work and the
/// response size against malicious (or merely enormous) ranges; the
/// requester re-pulls as its round advances.
const RANGE_PULL_MAX_ROUNDS: Round = 32;
/// Consensus timer tags are namespaced above this base.
const CONSENSUS_TAG_BASE: u64 = 1 << 32;

struct PendingHeader {
    header: Header,
    missing_parents: HashSet<Digest>,
    missing_batches: HashSet<Digest>,
}

struct MissingCert {
    hint: ValidatorId,
    attempts: u32,
    last: Time,
}

/// An in-flight snapshot state transfer: a validator beyond the pull-sync
/// horizon downloading a 2f+1-signed snapshot chunk by chunk. Chunks verify
/// individually against the manifest, so a transfer resumes seamlessly when
/// the retry rotation switches serving validators.
struct SnapshotFetch {
    /// Rotation base for retry targets.
    hint: ValidatorId,
    attempts: u32,
    last: Time,
    manifest: Option<SnapshotManifest>,
    signatures: Vec<SnapshotSig>,
    base: Option<SnapshotBase>,
    chunks: Vec<Option<Vec<u8>>>,
}

/// An anchor pending linearization: either a held certificate or a digest
/// still being resolved (Narwhal-HS commits digests).
// The size gap between variants is fine: the queue is short-lived and small.
#[allow(clippy::large_enum_variant)]
enum AnchorKey {
    Cert(Certificate),
    Digest(Digest, ValidatorId),
}

/// The primary of one validator, generic over the consensus plug-in.
pub struct Primary<C: DagConsensus> {
    committee: Committee,
    config: NarwhalConfig,
    addr: AddressBook,
    me: ValidatorId,
    keypair: KeyPair,
    dag: Dag,
    /// The round we currently propose and vote in.
    round: Round,
    round_entered: Time,
    last_proposed: Round,
    current_header: Option<Header>,
    current_votes: Vec<Vote>,
    /// The block digest we acknowledged per (round, creator): enforces
    /// §3.1 condition 4 (one block per creator per round) while keeping
    /// votes idempotent — re-delivered blocks get the same vote again,
    /// which is what makes the §4.1 retransmission recover lost votes.
    voted: BTreeMap<Round, HashMap<ValidatorId, Digest>>,
    /// Own-batch digests ready for inclusion (from own workers).
    pending_digests: VecDeque<BatchInfo>,
    /// Digests queued or included but not yet committed (for re-injection).
    batch_meta: HashMap<Digest, BatchInfo>,
    /// Batches our workers hold (availability condition for voting, §4.2).
    stored_batches: HashSet<Digest>,
    /// Own batches that reached the committed sequence.
    committed_batches: HashSet<Digest>,
    /// Payload digests of our own proposed blocks, per round (§3.3).
    own_payloads: BTreeMap<Round, Vec<Digest>>,
    /// Peer blocks waiting for parents or batch availability.
    pending_headers: HashMap<Digest, PendingHeader>,
    waiting_on_parent: HashMap<Digest, Vec<Digest>>,
    waiting_on_batch: HashMap<Digest, Vec<Digest>>,
    /// Certified blocks referenced but not yet held (pull sync, §4.1).
    /// Ordered map: the retry loop emits requests in iteration order, and
    /// message order must be a pure function of state for seeded runs to
    /// reproduce (hash-map order is randomized per process).
    missing_certs: BTreeMap<Digest, MissingCert>,
    /// Certificates whose ancestry is incomplete, keyed by a missing parent.
    ///
    /// The DAG (and thus consensus) only ever sees certificates whose full
    /// causal history is local. This is the invariant that makes Tusk's
    /// path queries evaluate over complete causal cones, so every validator
    /// computing the commit recursion over the same anchor gets the same
    /// answer.
    suspended: HashMap<Digest, Vec<Certificate>>,
    /// Digests currently suspended (deduplication).
    suspended_digests: HashSet<Digest>,
    /// Headers already ordered into the committed sequence.
    ordered: HashSet<Digest>,
    /// Anchors waiting for their causal history to be locally complete.
    pending_anchors: VecDeque<AnchorKey>,
    sequence: u64,
    consensus: C,
    /// Durable write-through store (`None` = volatile, simulation default).
    block_store: Option<BlockStore>,
    /// Execution engine consuming the committed sequence (§8.4), if any.
    execution: Option<Box<dyn Execution>>,
    /// Commits awaiting batch resolution and engine apply. The flag says
    /// whether the event is emitted after apply (`false` replays history
    /// that was already externalized before a restart or install).
    exec_backlog: VecDeque<(CommitEvent, bool)>,
    /// Batch digest the backlog front is blocked on (fetch in flight).
    exec_waiting: Option<Digest>,
    /// Batches whose fetch round-trip completed but whose bytes the
    /// primary's store cannot serve (split primary/worker stores): folded
    /// as [`BatchData::Missing`] from then on. Every validator of such a
    /// deployment folds identically, so app roots still agree.
    exec_unresolved: HashSet<Digest>,
    /// Batch deletions GC owed but could not take because the execution
    /// backlog still needed the bytes; settled after the engine applies
    /// the referencing commit.
    exec_deferred_delete: HashSet<Digest>,
    /// Snapshot point currently due for production (a committed sequence).
    snapshot_due: Option<u64>,
    /// The last snapshot point chosen; a new point is due when the
    /// committed sequence crosses the next `snapshot_interval` multiple.
    last_snapshot_point: u64,
    /// Serving-side base captured for the due point (checkpoint moment).
    snapshot_base: Option<SnapshotBase>,
    /// App bytes captured when the engine reached exactly the due point.
    snapshot_app: Option<Vec<u8>>,
    /// Buffered peer votes for snapshot points not yet produced locally.
    snapshot_votes: BTreeMap<u64, Vec<(Digest, SnapshotSig)>>,
    /// In-flight state transfer, when we are beyond the sync horizon.
    snapshot_fetch: Option<SnapshotFetch>,
    /// Batched catch-up: when the last round-range pull left, and the
    /// rotation counter choosing its target (a dead or Byzantine peer costs
    /// one retry interval, not the whole recovery).
    range_pull_last: Time,
    range_pull_attempts: u32,
}

impl<C: DagConsensus> Primary<C> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        committee: Committee,
        config: NarwhalConfig,
        addr: AddressBook,
        me: ValidatorId,
        keypair: KeyPair,
        consensus: C,
        block_store: Option<BlockStore>,
        execution: Option<Box<dyn Execution>>,
    ) -> Self {
        Primary {
            committee,
            config,
            addr,
            me,
            keypair,
            dag: Dag::new(),
            round: 0,
            round_entered: 0,
            last_proposed: 0,
            current_header: None,
            current_votes: Vec::new(),
            voted: BTreeMap::new(),
            pending_digests: VecDeque::new(),
            batch_meta: HashMap::new(),
            stored_batches: HashSet::new(),
            committed_batches: HashSet::new(),
            own_payloads: BTreeMap::new(),
            pending_headers: HashMap::new(),
            waiting_on_parent: HashMap::new(),
            waiting_on_batch: HashMap::new(),
            missing_certs: BTreeMap::new(),
            suspended: HashMap::new(),
            suspended_digests: HashSet::new(),
            ordered: HashSet::new(),
            pending_anchors: VecDeque::new(),
            sequence: 0,
            consensus,
            block_store,
            execution,
            exec_backlog: VecDeque::new(),
            exec_waiting: None,
            exec_unresolved: HashSet::new(),
            exec_deferred_delete: HashSet::new(),
            snapshot_due: None,
            last_snapshot_point: 0,
            snapshot_base: None,
            snapshot_app: None,
            snapshot_votes: BTreeMap::new(),
            snapshot_fetch: None,
            range_pull_last: 0,
            range_pull_attempts: 0,
        }
    }

    /// Rebuilds state from the block store (crash recovery). Returns
    /// `false` when no store is configured — the volatile genesis boot.
    ///
    /// Recovered: the certified DAG (verified against the committee), the
    /// GC boundary, ordered markers, the commit-sequence counter, vote
    /// locks (so the new incarnation cannot acknowledge an equivocation),
    /// own committed batches (so they are not re-proposed), and the
    /// consensus checkpoint. `last_proposed` is re-derived from our own
    /// vote locks: a round we already signed a block for must never get a
    /// second one.
    fn recover(&mut self, now: Time) -> bool {
        let Some(store) = self.block_store.clone() else {
            return false;
        };
        let mut dag = store.load_dag(&self.committee).expect("block store");
        if let Some(gc_round) = store.gc_round().expect("block store") {
            // Restore the GC boundary; the pruned certificates were already
            // deleted, so this only prunes the freshly re-inserted genesis.
            dag.gc(gc_round);
        }
        // Resume at the highest round our DAG holds a full quorum for
        // (`advance_round` lifts it one further from there). Crawling up
        // from the GC boundary instead would wedge on any hole below the
        // frontier — e.g. a round whose certificates a torn tail half
        // deleted — that peers have long since garbage collected and can
        // no longer serve.
        self.round = (dag.first_retained_round()..=dag.highest_round())
            .rev()
            .find(|r| dag.round_size(*r) >= self.committee.quorum_threshold())
            .unwrap_or_else(|| dag.first_retained_round());
        self.round_entered = now;
        self.dag = dag;
        let (ordered, marker_seq) = store.load_ordered().expect("block store");
        self.ordered = ordered;
        // The counter resumes at the highest sequence any surviving marker
        // carries; the separately-persisted floor covers markers GC
        // deleted. Taking the max keeps both torn-tail cuts consistent.
        self.sequence = store.sequence().expect("block store").max(marker_seq);
        self.voted = store.load_votes().expect("block store");
        self.committed_batches = store.committed_batches().expect("block store");
        self.last_proposed = self
            .voted
            .iter()
            .filter(|(_, locks)| locks.contains_key(&self.me))
            .map(|(round, _)| *round)
            .max()
            .unwrap_or(0);
        // Payloads of our own certified-but-not-yet-committed blocks: the
        // recovered worker re-reports every batch it holds, and without
        // this in-flight record `handle_report` would queue these digests
        // for a *second* proposal — committing the same transactions twice
        // once both blocks linearize. (Committed blocks' payloads are
        // covered by `committed_batches`; blocks pruned uncommitted were
        // re-injected by the pre-crash GC.)
        let inflight_rounds = if self.config.bugs.skip_inflight_recovery {
            #[allow(clippy::reversed_empty_ranges)]
            {
                1..=0
            }
        } else {
            self.dag.first_retained_round()..=self.dag.highest_round()
        };
        for round in inflight_rounds {
            if let Some(cert) = self.dag.get(round, self.me) {
                let digests: Vec<Digest> = cert.header.payload.iter().map(|(d, _)| *d).collect();
                if self.ordered.contains(&cert.header_digest()) {
                    // Linearized: its payload is committed, whether or not
                    // the (later-written, thus more tearable) cb/ markers
                    // survived the crash.
                    self.committed_batches.extend(digests);
                    continue;
                }
                if !digests.is_empty() {
                    self.own_payloads.insert(round, digests);
                }
            }
        }
        // Re-arm the in-flight proposal (see `BlockStore::put_own_header`):
        // if our last signed proposal never certified, only its
        // retransmission can complete the round — we may not sign a
        // replacement, and with two validators in this state one round of
        // a 4-validator committee would sit below quorum forever.
        if let Some(header) = store.own_header().expect("block store") {
            if header.round >= self.dag.first_retained_round()
                && self.dag.get(header.round, self.me).is_none()
            {
                let digests: Vec<Digest> = header.payload.iter().map(|(d, _)| *d).collect();
                if !digests.is_empty() {
                    self.own_payloads.insert(header.round, digests);
                }
                let own_vote = Vote::new(
                    &self.keypair,
                    self.me,
                    header.digest(),
                    header.round,
                    self.me,
                );
                self.current_votes = vec![own_vote];
                self.current_header = Some(header);
            }
        }
        if let Some(blob) = store.consensus_checkpoint().expect("block store") {
            self.consensus.restore(&blob);
        }
        // Never re-produce the snapshot bucket that was in progress at the
        // crash: peers' quorum covers it, and the next grid crossing puts
        // us back on the committee-wide snapshot schedule.
        self.last_snapshot_point = self.sequence;
        if self.execution.is_some() {
            self.recover_app(&store);
        }
        true
    }

    /// Restores the execution engine across a restart: loads the persisted
    /// app state, then replays any ordered markers above it. The app record
    /// is written after each commit's ordered marker, so it can only be at
    /// or behind the recovered counter.
    fn recover_app(&mut self, store: &BlockStore) {
        let exec = self.execution.as_mut().expect("caller checked");
        let mut floor = 0u64;
        match store.app_state().expect("block store") {
            Some((seq, bytes)) => {
                exec.restore(seq, &bytes).expect("persisted app state");
                floor = seq;
            }
            None => {
                // No per-commit record (an engine newly attached over an
                // old store): fall back to our latest snapshot, if any.
                if let Some(package) = store.latest_snapshot().expect("block store") {
                    exec.restore(package.manifest.sequence, &package.app)
                        .expect("own snapshot");
                    floor = package.manifest.sequence;
                }
            }
        }
        let refs = store.ordered_refs().expect("block store");
        self.replay_refs(&refs, floor, self.sequence);
    }

    /// Queues committed blocks in `(floor, ceiling]` for re-apply through
    /// the engine (without re-emitting them), resolving each position from
    /// the DAG by its ordered marker. Positions whose markers or
    /// certificates are gone are already folded into the restored state.
    fn replay_refs(&mut self, refs: &[(Digest, u64)], floor: u64, ceiling: u64) {
        for (digest, seq) in refs {
            if *seq <= floor || *seq > ceiling {
                continue;
            }
            let Some(cert) = self.dag.get_by_digest(digest) else {
                continue;
            };
            let event = CommitEvent {
                sequence: *seq,
                round: cert.round(),
                author: cert.origin(),
                payload: cert.header.payload.clone(),
                header_digest: *digest,
                ..Default::default()
            };
            self.exec_backlog.push_back((event, false));
        }
    }

    /// Current local round (tests/metrics).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The local DAG (tests/metrics).
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Number of blocks ordered so far (tests/metrics).
    pub fn ordered_len(&self) -> usize {
        self.ordered.len()
    }

    /// Access to the consensus plug-in (tests/metrics).
    pub fn consensus(&self) -> &C {
        &self.consensus
    }

    fn apply_consensus_out(
        &mut self,
        out: ConsensusOut<C::Ext>,
        ctx: &mut Context<NarwhalMsg<C::Ext>>,
    ) {
        for (to, msg) in out.sends {
            ctx.send(self.addr.primary(to), NarwhalMsg::Ext(msg));
        }
        for msg in out.broadcasts {
            for node in self.addr.other_primaries(self.me) {
                ctx.send(node, NarwhalMsg::Ext(msg.clone()));
            }
        }
        for (delay, tag) in out.timers {
            ctx.timer(delay, CONSENSUS_TAG_BASE + tag);
        }
        for (digest, hint) in out.request_certs {
            self.request_cert(digest, hint, ctx);
        }
        let had_anchors = !out.anchors.is_empty() || !out.anchor_digests.is_empty();
        self.pending_anchors
            .extend(out.anchors.into_iter().map(AnchorKey::Cert));
        self.pending_anchors.extend(
            out.anchor_digests
                .into_iter()
                .map(|(d, hint)| AnchorKey::Digest(d, hint)),
        );
        if had_anchors {
            self.drain_anchors(ctx);
        }
    }

    /// Commits pending anchors whose causal history is locally complete,
    /// strictly in order (§5: the committed leader sequence is common to
    /// all validators, so linearization must not skip ahead).
    fn drain_anchors(&mut self, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        let mut settled_any = false;
        while let Some(key) = self.pending_anchors.front() {
            let anchor = match key {
                AnchorKey::Cert(cert) => cert.clone(),
                AnchorKey::Digest(digest, hint) => {
                    if self.ordered.contains(digest) {
                        // Already linearized via an earlier anchor.
                        self.pending_anchors.pop_front();
                        continue;
                    }
                    match self.dag.get_by_digest(digest) {
                        Some(cert) => cert.clone(),
                        None => {
                            let (digest, hint) = (*digest, *hint);
                            self.request_cert(digest, hint, ctx);
                            return;
                        }
                    }
                }
            };
            if anchor.round() < self.dag.first_retained_round() {
                // The whole wave was garbage collected (we were far behind);
                // skip it — peers committed it long ago.
                self.pending_anchors.pop_front();
                continue;
            }
            match self.dag.collect_history(&anchor, &self.ordered) {
                Err(missing) => {
                    for digest in missing {
                        self.request_cert(digest, anchor.origin(), ctx);
                    }
                    return;
                }
                Ok(history) => {
                    self.pending_anchors.pop_front();
                    settled_any = true;
                    for cert in history {
                        self.commit_block(&cert, anchor.round(), ctx);
                    }
                    let gc_round = anchor.round().saturating_sub(self.config.gc_depth);
                    if gc_round > 0 {
                        self.perform_gc(gc_round);
                    }
                    // Snapshot points sit on the grid of `snapshot_interval`
                    // multiples, evaluated at anchor boundaries — a pure
                    // function of the committed sequence, so every validator
                    // picks the identical points and the 2f+1 signature
                    // aggregation below has something to aggregate over.
                    if self.snapshots_enabled()
                        && self.sequence / self.config.snapshot_interval
                            > self.last_snapshot_point / self.config.snapshot_interval
                    {
                        self.snapshot_due = Some(self.sequence);
                        self.last_snapshot_point = self.sequence;
                        self.snapshot_base = None;
                        self.snapshot_app = None;
                        self.snapshot_votes = self.snapshot_votes.split_off(&self.sequence);
                    }
                }
            }
        }
        // Checkpoint consensus only once every decided anchor is
        // linearized (the queue is empty), so the persisted consensus
        // state never runs ahead of the persisted ordered markers. The
        // consensus plug-in advances its settled wave the moment it
        // *decides* — possibly several waves per pass — so a per-anchor
        // checkpoint could claim a wave whose history markers are not yet
        // written; a torn tail cutting between them would then restart the
        // validator with "wave settled" but its blocks unmarked, and the
        // replay would fold those blocks into a later anchor's history,
        // forking the commit order (found by `sim_fuzz`, seed 300). The
        // early returns above (missing certificates) skip the checkpoint
        // for the same reason.
        if settled_any {
            if let Some(store) = &self.block_store {
                if let Some(blob) = self.consensus.checkpoint() {
                    store.put_consensus_checkpoint(&blob).expect("block store");
                }
            }
            // The drained-checkpoint moment is the only one where the
            // consensus checkpoint, the ordered markers and the DAG frontier
            // are mutually consistent — capture the snapshot base here.
            self.capture_snapshot_base();
            self.drain_execution(ctx);
        }
    }

    fn commit_block(
        &mut self,
        cert: &Certificate,
        anchor_round: Round,
        ctx: &mut Context<NarwhalMsg<C::Ext>>,
    ) {
        let digest = cert.header_digest();
        self.ordered.insert(digest);
        self.sequence += 1;
        if let Some(store) = &self.block_store {
            // One record carries the marker AND its sequence number, so a
            // torn tail can only lose whole commits — never leave the
            // counter and the ordered set disagreeing (recovery would then
            // renumber the replay and diverge from the committee).
            if !self.config.bugs.skip_ordered_persist {
                let persisted_seq = if self.config.bugs.skip_sequence_persist {
                    0
                } else {
                    self.sequence
                };
                store
                    .put_ordered(&digest, persisted_seq)
                    .expect("block store");
            }
        }
        let (direct_commits, indirect_commits) = self.consensus.commit_counts();
        let mut event = CommitEvent {
            sequence: self.sequence,
            round: cert.round(),
            author: cert.origin(),
            anchor_round,
            payload: cert.header.payload.clone(),
            decided_round: self.dag.highest_round(),
            direct_commits,
            indirect_commits,
            header_digest: digest,
            ..Default::default()
        };
        if cert.origin() == self.me {
            // Throughput/latency accounting: each batch is counted exactly
            // once across the system — by its creator (see DESIGN.md).
            for (batch_digest, _) in &cert.header.payload {
                if let Some(info) = self.batch_meta.get(batch_digest) {
                    event.tx_count += info.tx_count;
                    event.tx_bytes += info.tx_bytes;
                    event.samples.extend(info.samples.iter().copied());
                    self.committed_batches.insert(*batch_digest);
                    if let Some(store) = &self.block_store {
                        store
                            .put_committed_batch(batch_digest)
                            .expect("block store");
                    }
                }
            }
            self.own_payloads.remove(&cert.round());
        }
        if self.execution.is_some() {
            // Deferred emission: the event is externalized only after the
            // engine applies it (and stamps `app_root`), in `drain_execution`.
            self.exec_backlog.push_back((event, true));
        } else {
            ctx.commit(event);
        }
    }

    /// Garbage collection (§3.3): prune the DAG and all per-round state,
    /// re-injecting batch digests from our own uncommitted pruned blocks.
    fn perform_gc(&mut self, gc_round: Round) {
        let pruned = self.dag.gc(gc_round);
        if pruned.is_empty() {
            return;
        }
        let store = self.block_store.clone();
        // Batch bytes the execution backlog has yet to apply: a validator
        // catching up after an outage commits (and GCs) far ahead of its
        // engine, and deleting these now would force the engine to fold
        // them as missing while every peer applied them in full — a
        // permanent app-root split. Deletion is deferred to the apply
        // point instead (`drain_execution`).
        let exec_pending: HashSet<Digest> = self
            .exec_backlog
            .iter()
            .flat_map(|(event, _)| event.payload.iter().map(|(digest, _)| *digest))
            .collect();
        // Durable GC is an intent log: record the floor sequence and the
        // new boundary *before* any deletion. A torn tail then leaves
        // either the full pre-GC state or "GC declared, deletes partially
        // applied" — and recovery prunes everything at or below the
        // declared boundary anyway, so partial deletes below it are
        // invisible. The old order (marker last) let a tear keep some
        // deletions while forgetting the boundary, leaving a recovered
        // validator with a boundary round it could never assemble a quorum
        // for — wedging it permanently (found by `sim_fuzz` seed 19).
        if let Some(store) = &store {
            if !self.config.bugs.skip_sequence_persist {
                store.put_sequence(self.sequence).expect("block store");
            }
            store.put_gc_round(gc_round).expect("block store");
        }
        for cert in &pruned {
            let digest = cert.header_digest();
            self.ordered.remove(&digest);
            self.pending_headers.remove(&digest);
            self.missing_certs.remove(&digest);
            if let Some(store) = &store {
                store.delete_ordered(&digest).expect("block store");
            }
            if cert.origin() != self.me {
                for (batch_digest, _) in &cert.header.payload {
                    self.stored_batches.remove(batch_digest);
                    self.batch_meta.remove(batch_digest);
                    self.exec_unresolved.remove(batch_digest);
                    if exec_pending.contains(batch_digest) {
                        self.exec_deferred_delete.insert(*batch_digest);
                    } else if let Some(store) = &store {
                        store.delete_batch(batch_digest).expect("block store");
                    }
                }
            }
        }
        // Re-inject our own batches from pruned, uncommitted blocks so the
        // transactions eventually commit (transaction-level fairness, §8.2).
        let stale: Vec<Round> = self
            .own_payloads
            .range(..=gc_round)
            .map(|(r, _)| *r)
            .collect();
        for round in stale {
            if let Some(digests) = self.own_payloads.remove(&round) {
                for digest in digests {
                    if !self.committed_batches.contains(&digest) {
                        if let Some(info) = self.batch_meta.get(&digest) {
                            self.pending_digests.push_front(info.clone());
                        }
                    }
                }
            }
        }
        self.voted = self.voted.split_off(&(gc_round + 1));
        // Suspended certificates below the boundary will never be needed.
        let boundary = self.dag.first_retained_round();
        self.suspended.retain(|_, children| {
            children.retain(|c| c.round() >= boundary);
            !children.is_empty()
        });
        self.suspended_digests = self
            .suspended
            .values()
            .flatten()
            .map(Certificate::header_digest)
            .collect();
        // Bound the committed-batch set: pruned own blocks are final.
        for cert in &pruned {
            if cert.origin() == self.me {
                for (batch_digest, _) in &cert.header.payload {
                    if self.committed_batches.remove(batch_digest) {
                        self.batch_meta.remove(batch_digest);
                        self.stored_batches.remove(batch_digest);
                        self.exec_unresolved.remove(batch_digest);
                        if exec_pending.contains(batch_digest) {
                            self.exec_deferred_delete.insert(*batch_digest);
                        } else if let Some(store) = &store {
                            store.delete_batch(batch_digest).expect("block store");
                        }
                    }
                }
            }
        }
        // Mirror the prune in the durable store: certificates and vote
        // locks below the boundary go (the boundary itself was recorded
        // up front, before the first delete).
        if let Some(store) = &store {
            let boundary = self.dag.first_retained_round();
            store.gc_certificates_below(boundary).expect("block store");
            store.gc_votes_below(boundary).expect("block store");
        }
    }

    fn request_cert(
        &mut self,
        digest: Digest,
        hint: ValidatorId,
        ctx: &mut Context<NarwhalMsg<C::Ext>>,
    ) {
        if self.dag.contains_digest(&digest) || self.config.bugs.disable_cert_pull {
            return;
        }
        let entry = self.missing_certs.entry(digest).or_insert(MissingCert {
            hint,
            attempts: 0,
            last: ctx.now(),
        });
        if entry.attempts == 0 {
            entry.attempts = 1;
            let target = retry_target(hint, 0, self.me, self.committee.size() as u32);
            ctx.send(
                self.addr.primary(target),
                NarwhalMsg::CertRequest {
                    digests: vec![digest],
                },
            );
        }
    }

    /// Re-evaluates the local round from certificate quorums: "once
    /// certificates for round r − 1 are accumulated from 2f + 1 distinct
    /// validators, a validator moves the local round to r" (§3.1).
    fn advance_round(&mut self, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        let quorum = self.committee.quorum_threshold();
        let mut advanced = false;
        while self.dag.round_size(self.round) >= quorum {
            self.round += 1;
            advanced = true;
        }
        if advanced {
            self.round_entered = ctx.now();
            // Votes for rounds we left behind are no longer needed; pending
            // transmissions for them are dropped implicitly (sans-io).
            self.try_propose(ctx);
        }
    }

    fn try_propose(&mut self, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        if self.round == 0 || self.last_proposed >= self.round {
            return;
        }
        if self.dag.round_size(self.round - 1) < self.committee.quorum_threshold() {
            return;
        }
        // Wait for payload — and for any parents the consensus protocol
        // wishes to reference (partial synchrony: Bullshark waits for the
        // wave leader so it commits in two rounds) — but never beyond
        // max_header_delay: empty or leaderless blocks keep the DAG and
        // consensus advancing.
        let now = ctx.now();
        let deadline = self.round_entered + self.config.max_header_delay;
        // The leader timeout is the longer of the two bounds: a wished
        // parent is the one certificate whose absence costs a whole wave
        // (the leader misses its direct quorum), so it is worth waiting a
        // WAN round-trip for, where payload is only worth the header delay.
        let wish_deadline = self.round_entered
            + self
                .config
                .max_leader_delay
                .max(self.config.max_header_delay);
        let awaiting_parent = now < wish_deadline
            && self
                .consensus
                .parent_wishes(&self.dag, self.round)
                .into_iter()
                .any(|(round, author)| self.dag.get(round, author).is_none());
        // Coverage: parents the consensus protocol wants referenced for
        // commit-latency reasons but that are only worth the payload
        // deadline, not the leader timeout — Bullshark wishes for its own
        // previous certificate (chain continuity: a block proposed without
        // it strands the whole chain below until GC re-injection, a
        // gc_depth-round latency cliff observed as ~16 s p99 on 10/20-node
        // committees) and, when about to propose its own anchor, for full
        // previous-round coverage so the anchor's history sweeps the
        // slowest regions' chains on every wave.
        // Two bounds within the coverage wishes: a wish for the author's
        // *own* previous certificate is chain continuity — a break
        // strands the whole chain below until GC re-injection, so it is
        // worth the full header deadline. Wishes for *other* validators'
        // certificates are opportunistic coverage and must stay well
        // inside the quorum slack (the gap between this block's
        // certificate forming and the 2f + 1st certificate the round
        // advance actually waits for), or the wait itself would stretch
        // the cadence it is trying not to touch; on the fig-7 WAN
        // topology the stragglers trail round entry by a few tens of
        // milliseconds, so three eighths of the header deadline catches
        // them with slack to spare.
        let coverage_deadline = self.round_entered + self.config.max_header_delay * 3 / 8;
        let wishes = self
            .consensus
            .coverage_wishes(&self.dag, self.round, self.me);
        let awaiting_own = now < deadline
            && wishes
                .iter()
                .any(|&(round, author)| author == self.me && self.dag.get(round, author).is_none());
        let awaiting_coverage = now < coverage_deadline
            && wishes
                .iter()
                .any(|&(round, author)| author != self.me && self.dag.get(round, author).is_none());
        let awaiting_payload = now < deadline && self.pending_digests.is_empty();
        if awaiting_parent || awaiting_own || awaiting_coverage || awaiting_payload {
            let until = if awaiting_parent {
                wish_deadline
            } else if awaiting_coverage && !awaiting_own && !awaiting_payload {
                coverage_deadline
            } else {
                deadline
            };
            ctx.timer(until - now, TAG_PROPOSE);
            return;
        }
        let parents: Vec<Digest> = self
            .dag
            .round_certs(self.round - 1)
            .map(|c| c.header_digest())
            .collect();
        let mut payload = Vec::new();
        let mut payload_digests = Vec::new();
        while payload.len() < self.config.header_payload_limit {
            match self.pending_digests.pop_front() {
                Some(info) => {
                    payload_digests.push(info.digest);
                    payload.push((info.digest, info.worker));
                }
                None => break,
            }
        }
        let coin_share = Some(CoinShare::new(&self.keypair, self.round));
        let header = Header::new(
            &self.keypair,
            self.me,
            self.round,
            payload,
            parents,
            coin_share,
        );
        self.last_proposed = self.round;
        self.own_payloads.insert(self.round, payload_digests);
        // Vote for our own block.
        let own_vote = Vote::new(
            &self.keypair,
            self.me,
            header.digest(),
            header.round,
            self.me,
        );
        self.voted
            .entry(self.round)
            .or_default()
            .insert(self.me, header.digest());
        if let Some(store) = &self.block_store {
            if !self.config.bugs.skip_vote_persist {
                store
                    .put_vote(self.round, self.me, &header.digest())
                    .expect("block store");
            }
            // Persist the in-flight proposal and sync, both *before* the
            // broadcast below leaves (effects drain after this handler):
            // a primary that crashes between proposing and certifying can
            // neither re-propose the round (condition 4) nor retransmit a
            // header it no longer has — with two such losses at one round,
            // a 4-validator committee wedges below quorum forever (found
            // by `sim_fuzz`, seeds 19 and 378). Recovery re-arms the slot
            // and §4.1 retransmission completes the round.
            store.put_own_header(&header).expect("block store");
            if !self.config.bugs.skip_sync_barriers {
                store.barrier().expect("block store");
            }
        }
        self.current_votes = vec![own_vote];
        self.current_header = Some(header.clone());
        for node in self.addr.other_primaries(self.me) {
            ctx.send(node, NarwhalMsg::Header(header.clone()));
        }
        self.maybe_certify(ctx);
    }

    fn handle_header(&mut self, header: Header, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        if header.round < self.dag.first_retained_round() {
            return;
        }
        if header.verify(&self.committee).is_err() {
            return;
        }
        let digest = header.digest();
        if self.pending_headers.contains_key(&digest) {
            return;
        }
        // Track missing dependencies: parent certificates and batch data.
        let missing_parents: HashSet<Digest> = header
            .parents
            .iter()
            .filter(|d| !self.dag.contains_digest(d))
            .copied()
            .collect();
        let missing_batches: HashSet<Digest> = header
            .payload
            .iter()
            .filter(|(d, _)| !self.stored_batches.contains(d))
            .map(|(d, _)| *d)
            .collect();
        if missing_parents.is_empty() && missing_batches.is_empty() {
            self.maybe_vote(header, ctx);
            return;
        }
        // Iterate the header's parent list, not the set: set order varies
        // per process, and the first `CertRequest` it produces must not
        // (replays and crash-recovery re-execution depend on it).
        for parent in header
            .parents
            .iter()
            .filter(|d| missing_parents.contains(*d))
        {
            self.waiting_on_parent
                .entry(*parent)
                .or_default()
                .push(digest);
            self.request_cert(*parent, header.author, ctx);
        }
        for (batch_digest, worker) in &header.payload {
            if missing_batches.contains(batch_digest) {
                self.waiting_on_batch
                    .entry(*batch_digest)
                    .or_default()
                    .push(digest);
                ctx.send(
                    self.addr.worker(self.me, *worker),
                    NarwhalMsg::FetchBatch {
                        digest: *batch_digest,
                        worker: *worker,
                        creator: header.author,
                    },
                );
            }
        }
        self.pending_headers.insert(
            digest,
            PendingHeader {
                header,
                missing_parents,
                missing_batches,
            },
        );
    }

    /// Votes for a block whose dependencies are all satisfied, if the §3.1
    /// validity conditions hold.
    fn maybe_vote(&mut self, header: Header, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        // Parents must be certified blocks of exactly the previous round.
        for parent in &header.parents {
            match self.dag.get_by_digest(parent) {
                Some(cert) if cert.round() + 1 == header.round => {}
                // Below the GC boundary: accept (we cannot check, §3.3).
                None if header.round <= self.dag.first_retained_round() => {}
                _ => return,
            }
        }
        self.advance_round(ctx);
        // Condition (2): the block must be at our local round — older blocks
        // are dismissed; newer ones became current via their parents.
        if header.round != self.round {
            return;
        }
        // Condition (4): first block from this creator in this round. A
        // re-delivery of the block we already acknowledged gets the same
        // (deterministic) vote again — acknowledgments are idempotent, so
        // the creator's retransmission recovers votes lost in transit.
        let digest = header.digest();
        match self
            .voted
            .entry(header.round)
            .or_default()
            .entry(header.author)
        {
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != digest {
                    return; // Equivocation: never sign a second block.
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(digest);
                // Persist the lock *before* the vote leaves: a restarted
                // incarnation must remember what it signed (§3.1 cond. 4).
                if let Some(store) = &self.block_store {
                    if !self.config.bugs.skip_vote_persist {
                        store
                            .put_vote(header.round, header.author, &digest)
                            .expect("block store");
                    }
                }
            }
        }
        let vote = Vote::new(&self.keypair, self.me, digest, header.round, header.author);
        ctx.send(self.addr.primary(header.author), NarwhalMsg::Vote(vote));
    }

    fn handle_vote(&mut self, vote: Vote, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        let Some(current) = &self.current_header else {
            return;
        };
        if vote.header_digest != current.digest() || vote.origin != self.me {
            return;
        }
        if !vote.verify(&self.committee) {
            return;
        }
        if self.current_votes.iter().any(|v| v.voter == vote.voter) {
            return;
        }
        self.current_votes.push(vote);
        self.maybe_certify(ctx);
    }

    fn maybe_certify(&mut self, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        let Some(current) = self.current_header.clone() else {
            return;
        };
        if self.current_votes.len() < self.committee.quorum_threshold() {
            return;
        }
        let cert = Certificate::from_votes(&self.committee, current, &self.current_votes)
            .expect("quorum of matching votes");
        self.current_header = None;
        self.current_votes.clear();
        for node in self.addr.other_primaries(self.me) {
            ctx.send(node, NarwhalMsg::Certificate(cert.clone()));
        }
        self.process_certificate(cert, ctx);
    }

    /// Accepts a verified certificate: inserts it if its ancestry is
    /// locally complete, or suspends it and pulls the missing parents
    /// (§4.1). Suspended certificates resume recursively as parents land.
    fn process_certificate(&mut self, cert: Certificate, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        let digest = cert.header_digest();
        if self.dag.contains_digest(&digest) || self.suspended_digests.contains(&digest) {
            return;
        }
        let missing = self.dag.missing_parents(&cert);
        if !missing.is_empty() {
            self.suspended_digests.insert(digest);
            for parent in missing {
                if !self.suspended_digests.contains(&parent) {
                    self.request_cert(parent, cert.origin(), ctx);
                }
                self.suspended.entry(parent).or_default().push(cert.clone());
            }
            return;
        }
        self.insert_certificate(cert, ctx);
        // Resume suspended descendants, cascading.
        let mut ready = vec![digest];
        while let Some(parent) = ready.pop() {
            let Some(children) = self.suspended.remove(&parent) else {
                continue;
            };
            for child in children {
                let child_digest = child.header_digest();
                if !self.suspended_digests.contains(&child_digest) {
                    continue; // Already resumed via another parent.
                }
                if self.dag.missing_parents(&child).is_empty() {
                    self.suspended_digests.remove(&child_digest);
                    self.insert_certificate(child, ctx);
                    ready.push(child_digest);
                }
            }
        }
    }

    /// Inserts an ancestry-complete certificate into the DAG and runs all
    /// downstream reactions (round advance, consensus, proposal).
    fn insert_certificate(&mut self, cert: Certificate, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        let digest = cert.header_digest();
        match self.dag.insert(cert.clone()) {
            InsertOutcome::BelowGc | InsertOutcome::Duplicate => return,
            InsertOutcome::Inserted => {}
        }
        if let Some(store) = &self.block_store {
            store.put_certificate(&cert).expect("block store");
            // Sync before our own certificate's broadcast leaves (the
            // effects of this handler drain after it returns): once peers
            // can hold the certificate, a torn tail must not erase our
            // record of having proposed its payload, or a restarted
            // incarnation re-proposes those batches and the committee
            // commits them twice. Found by `sim_fuzz` (seed 219) before
            // this barrier existed; `skip_sync_barriers` re-opens the
            // window to prove the checkers still see it.
            if cert.origin() == self.me && !self.config.bugs.skip_sync_barriers {
                store.barrier().expect("block store");
            }
        }
        self.missing_certs.remove(&digest);
        // Wake any block proposal that waited on this certificate.
        if let Some(waiters) = self.waiting_on_parent.remove(&digest) {
            for waiter in waiters {
                if let Some(pending) = self.pending_headers.get_mut(&waiter) {
                    pending.missing_parents.remove(&digest);
                    if pending.missing_parents.is_empty() && pending.missing_batches.is_empty() {
                        let ready = self.pending_headers.remove(&waiter).expect("present");
                        self.maybe_vote(ready.header, ctx);
                    }
                }
            }
        }
        self.advance_round(ctx);
        let mut out = ConsensusOut::default();
        self.consensus.on_certificate(&self.dag, &cert, &mut out);
        self.apply_consensus_out(out, ctx);
        self.try_propose(ctx);
        self.drain_anchors(ctx);
    }

    fn handle_report(&mut self, info: BatchInfo, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        let digest = info.digest;
        self.stored_batches.insert(digest);
        let own = info.creator == self.me;
        let first = self.batch_meta.insert(digest, info.clone()).is_none();
        // A recovered worker re-reports everything it holds; own batches
        // that already reached the committed sequence, or that sit inside a
        // certified block still awaiting commit, must not re-enter the
        // proposal queue — either way their transactions would linearize
        // twice. (`own_payloads` is GC-bounded, so the scan is small.)
        let in_flight = || {
            self.own_payloads
                .values()
                .any(|digests| digests.contains(&digest))
        };
        if own && first && !self.committed_batches.contains(&digest) && !in_flight() {
            self.pending_digests.push_back(info);
            self.try_propose(ctx);
        }
        if let Some(waiters) = self.waiting_on_batch.remove(&digest) {
            for waiter in waiters {
                if let Some(pending) = self.pending_headers.get_mut(&waiter) {
                    pending.missing_batches.remove(&digest);
                    if pending.missing_parents.is_empty() && pending.missing_batches.is_empty() {
                        let ready = self.pending_headers.remove(&waiter).expect("present");
                        self.maybe_vote(ready.header, ctx);
                    }
                }
            }
        }
        if self.exec_waiting == Some(digest) {
            // The fetch round-trip completed. If the store still cannot
            // serve the bytes (split primary/worker stores), the digest is
            // folded as missing from here on; `drain_execution` re-checks
            // the store first, so this mark is moot wherever it can read.
            self.exec_waiting = None;
            self.exec_unresolved.insert(digest);
        }
        self.drain_execution(ctx);
    }

    fn handle_retry(&mut self, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        let now = ctx.now();
        // Retry missing-certificate pulls against rotating targets: "the
        // probability of receiving a correct response grows exponentially
        // after asking a handful of validators" (§4.1).
        let n = self.committee.size() as u32;
        let mut requests: Vec<(ValidatorId, Digest)> = Vec::new();
        if self.config.bugs.disable_cert_pull {
            self.missing_certs.clear();
        }
        for (digest, missing) in self.missing_certs.iter_mut() {
            if now.saturating_sub(missing.last) >= self.config.sync_retry_delay {
                missing.attempts += 1;
                missing.last = now;
                let target = retry_target(missing.hint, missing.attempts, self.me, n);
                requests.push((target, *digest));
            }
        }
        for (target, digest) in requests {
            ctx.send(
                self.addr.primary(target),
                NarwhalMsg::CertRequest {
                    digests: vec![digest],
                },
            );
        }
        // §4.1 retransmission: until the local round advances, keep
        // re-sending this round's own artifacts — the un-certified block to
        // validators whose acknowledgments are missing, or, once certified,
        // the certificate itself (peers may have lost it and cannot advance
        // without a quorum of certificates). Both stop implicitly when the
        // round moves on.
        if now.saturating_sub(self.round_entered) >= self.config.resend_delay {
            if let Some(header) = self.current_header.clone() {
                let voted: HashSet<ValidatorId> =
                    self.current_votes.iter().map(|v| v.voter).collect();
                for peer in self.committee.ids() {
                    if peer != self.me && !voted.contains(&peer) {
                        ctx.send(self.addr.primary(peer), NarwhalMsg::Header(header.clone()));
                    }
                }
            } else if let Some(cert) = self.dag.get(self.round, self.me).cloned() {
                for node in self.addr.other_primaries(self.me) {
                    ctx.send(node, NarwhalMsg::Certificate(cert.clone()));
                }
            }
        }
        // Retry an in-flight state transfer against rotating servers; the
        // manifest-relative cursor makes the transfer resume, not restart.
        if let Some(fetch) = self.snapshot_fetch.as_mut() {
            if now.saturating_sub(fetch.last) >= self.config.sync_retry_delay {
                fetch.attempts += 1;
                fetch.last = now;
                if fetch.attempts % (2 * n) == 0 {
                    // A full rotation with no progress: the point we chased
                    // may be pruned committee-wide. Start over on whatever
                    // latest quorum snapshot the next server holds.
                    fetch.manifest = None;
                    fetch.signatures.clear();
                    fetch.base = None;
                    fetch.chunks.clear();
                }
                let target = retry_target(fetch.hint, fetch.attempts, self.me, n);
                let (sequence, cursor) = match &fetch.manifest {
                    Some(m) => (
                        m.sequence,
                        fetch.chunks.iter().position(Option::is_none).unwrap_or(0) as u64,
                    ),
                    None => (0, 0),
                };
                ctx.send(
                    self.addr.primary(target),
                    NarwhalMsg::SnapshotRequest { sequence, cursor },
                );
            }
        }
        // Re-arm a possibly-lost batch fetch the execution backlog blocks
        // on: clearing the in-flight marker lets `drain_execution` re-send.
        self.exec_waiting = None;
        self.drain_anchors(ctx);
        self.drain_execution(ctx);
        ctx.timer(self.retry_interval(), TAG_RETRY);
    }

    /// The retry-timer cadence. Driven off the *smaller* of the two retry
    /// delays: a `resend_delay` below `sync_retry_delay` would otherwise be
    /// silently quantized up to the timer period.
    fn retry_interval(&self) -> Time {
        self.config.sync_retry_delay.min(self.config.resend_delay)
    }

    /// Whether this validator produces, serves and fetches snapshots.
    /// Requires a durable store — a snapshot a crash can erase is worse
    /// than none, because peers may be counting on our signature.
    fn snapshots_enabled(&self) -> bool {
        self.block_store.is_some()
            && !self.config.bugs.disable_snapshots
            && self.config.snapshot_interval > 0
    }

    /// Captures the serving-side base for the due snapshot point. Called
    /// only at the drained-checkpoint moment: the consensus checkpoint,
    /// the ordered markers and the DAG frontier are mutually consistent
    /// exactly when the anchor queue has fully drained.
    fn capture_snapshot_base(&mut self) {
        if self.snapshot_due.is_none() || self.snapshot_base.is_some() {
            return;
        }
        let Some(store) = self.block_store.clone() else {
            return;
        };
        // Skip round 0: genesis is implied, every joiner regenerates it.
        let frontier: Vec<Certificate> = (self.dag.first_retained_round().max(1)
            ..=self.dag.highest_round())
            .flat_map(|r| self.dag.round_certs(r).cloned().collect::<Vec<_>>())
            .collect();
        let ordered = store
            .ordered_refs()
            .expect("block store")
            .into_iter()
            .map(|(digest, sequence)| OrderedRef { digest, sequence })
            .collect();
        self.snapshot_base = Some(SnapshotBase {
            frontier,
            ordered,
            consensus: self.consensus.checkpoint().unwrap_or_default(),
            checkpoint_seq: self.sequence,
            gc_round: self.dag.first_retained_round().checked_sub(1),
        });
    }

    /// Finishes the due snapshot once both halves exist: the base (captured
    /// at the checkpoint moment) and the app bytes (captured when the
    /// engine applied exactly the due sequence; empty without an engine).
    /// Persists the package and broadcasts our manifest signature.
    fn try_finish_snapshot(&mut self, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        let Some(point) = self.snapshot_due else {
            return;
        };
        if self.snapshot_base.is_none() {
            return;
        }
        let Some(store) = self.block_store.clone() else {
            return;
        };
        let app = if self.execution.is_some() {
            match &self.snapshot_app {
                Some(bytes) => bytes.clone(),
                None => return, // the engine has not reached the point yet
            }
        } else {
            Vec::new()
        };
        let base = self.snapshot_base.take().expect("checked above");
        let manifest = SnapshotManifest::for_app(point, &app);
        let digest = manifest.digest();
        let sig = SnapshotSig::sign(self.me, &self.keypair, &manifest);
        let mut package = SnapshotPackage {
            manifest,
            signatures: vec![sig.clone()],
            base,
            app,
        };
        // Fold in peer votes that arrived before we finished producing.
        for (vote_digest, vote_sig) in self.snapshot_votes.remove(&point).unwrap_or_default() {
            if vote_digest == digest {
                package.add_signature(vote_sig);
            }
        }
        store.put_snapshot(&package).expect("block store");
        self.snapshot_due = None;
        self.snapshot_app = None;
        for node in self.addr.other_primaries(self.me) {
            ctx.send(
                node,
                NarwhalMsg::SnapshotVote {
                    sequence: point,
                    manifest: digest,
                    sig: sig.clone(),
                },
            );
        }
    }

    /// Pushes the committed sequence through the execution engine, in
    /// order, resolving each commit's batches first. The front of the
    /// backlog blocks (at most one fetch in flight) until its batches are
    /// either served by the store or deterministically folded as missing.
    /// Also the finish point for due snapshots — with or without an engine.
    fn drain_execution(&mut self, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        if let Some(exec) = self.execution.as_mut() {
            let store = self.block_store.clone();
            while let Some((front, _)) = self.exec_backlog.front() {
                let payload = front.payload.clone();
                let author = front.author;
                let mut batches: Vec<BatchData> = Vec::with_capacity(payload.len());
                let mut missing = None;
                for (digest, worker) in &payload {
                    let held = store
                        .as_ref()
                        .and_then(|s| s.get_batch(digest).expect("block store"));
                    match held {
                        Some(batch) => batches.push(BatchData::Full(batch)),
                        None if store.is_some() && !self.exec_unresolved.contains(digest) => {
                            missing = Some((*digest, *worker));
                            break;
                        }
                        // No store at all (the primary never sees batch
                        // bytes) or a completed fetch the store still cannot
                        // serve (split primary/worker stores): fold the
                        // commitment. Deterministic per deployment.
                        None => batches.push(BatchData::Missing(*digest)),
                    }
                }
                if let Some((digest, worker)) = missing {
                    if self.exec_waiting != Some(digest) {
                        self.exec_waiting = Some(digest);
                        ctx.send(
                            self.addr.worker(self.me, worker),
                            NarwhalMsg::FetchBatch {
                                digest,
                                worker,
                                creator: author,
                            },
                        );
                    }
                    break;
                }
                self.exec_waiting = None;
                let (mut event, emit) = self.exec_backlog.pop_front().expect("checked front");
                event.app_root = exec.apply(&event, &batches);
                // Settle deletions GC deferred on this commit's behalf —
                // unless a later backlog entry also references the digest.
                let still_needed = |digest: &Digest| {
                    self.exec_backlog
                        .iter()
                        .any(|(e, _)| e.payload.iter().any(|(d, _)| d == digest))
                };
                for (digest, _) in &payload {
                    if self.exec_deferred_delete.contains(digest) && !still_needed(digest) {
                        self.exec_deferred_delete.remove(digest);
                        if let Some(store) = &store {
                            store.delete_batch(digest).expect("block store");
                        }
                    }
                }
                if let Some(store) = &store {
                    // Written after the commit's ordered marker, so recovery
                    // sees app state at or behind the replay floor.
                    store
                        .put_app_state(event.sequence, &exec.snapshot())
                        .expect("block store");
                }
                if self.snapshot_due == Some(event.sequence) {
                    self.snapshot_app = Some(exec.snapshot());
                }
                if emit {
                    ctx.commit(event);
                }
            }
        }
        self.try_finish_snapshot(ctx);
    }

    /// Accepts a peer's signature over a snapshot manifest: merged into the
    /// stored package if we already produced that point, buffered (bounded)
    /// if the point is still ahead of us.
    fn handle_snapshot_vote(&mut self, sequence: u64, manifest: Digest, sig: SnapshotSig) {
        if !self.snapshots_enabled() {
            return;
        }
        if !sig.verify_digest(&self.committee, &manifest) {
            return;
        }
        let store = self.block_store.clone().expect("snapshots_enabled");
        if let Some(mut package) = store.snapshot(sequence).expect("block store") {
            if package.manifest.digest() == manifest && package.add_signature(sig) {
                store.put_snapshot(&package).expect("block store");
            }
            return;
        }
        if sequence < self.last_snapshot_point {
            return; // a point we passed without producing (or pruned)
        }
        if self.snapshot_votes.len() >= 8 && !self.snapshot_votes.contains_key(&sequence) {
            return; // bound the buffer against junk points
        }
        let votes = self.snapshot_votes.entry(sequence).or_default();
        if votes.len() < self.committee.size() && !votes.iter().any(|(_, s)| s.signer == sig.signer)
        {
            votes.push((manifest, sig));
        }
    }

    /// Serves one chunk of a quorum-signed snapshot. `sequence == 0` asks
    /// for our latest servable point; the base rides on chunk 0 only.
    fn handle_snapshot_request(
        &mut self,
        sequence: u64,
        cursor: u64,
        from: NodeId,
        ctx: &mut Context<NarwhalMsg<C::Ext>>,
    ) {
        if !self.snapshots_enabled() {
            return;
        }
        let store = self.block_store.clone().expect("snapshots_enabled");
        let package = if sequence == 0 {
            let mut found = None;
            for seq in store
                .snapshot_sequences()
                .expect("block store")
                .into_iter()
                .rev()
            {
                if let Some(p) = store.snapshot(seq).expect("block store") {
                    if p.has_quorum(&self.committee) {
                        found = Some(p);
                        break;
                    }
                }
            }
            found
        } else {
            store
                .snapshot(sequence)
                .expect("block store")
                .filter(|p| p.has_quorum(&self.committee))
        };
        let Some(package) = package else {
            return;
        };
        let Some(chunk) = chunk_of(&package.app, cursor as usize) else {
            return;
        };
        ctx.send(
            from,
            NarwhalMsg::SnapshotResponse {
                manifest: package.manifest.clone(),
                signatures: package.signatures.clone(),
                chunk_index: cursor,
                chunk: chunk.to_vec(),
                base: (cursor == 0).then(|| package.base.clone()),
            },
        );
    }

    /// Batched §4.1 catch-up: a verified certificate more than
    /// [`RANGE_PULL_LAG`] rounds above the local round proves the committee
    /// has moved on, so pull the whole missing round range in one request.
    /// Without this, recovery walks ancestry one suspended parent — one
    /// network round-trip — per DAG round, and a validator restarting a few
    /// dozen rounds behind burns seconds it may not have before the run (or
    /// its peers' patience) ends; a Byzantine equivocator's header spam
    /// makes the walk strictly worse. Rate-limited by `sync_retry_delay`
    /// and target-rotated like digest pulls.
    fn maybe_range_pull(&mut self, cert: &Certificate, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        // The range pull is part of §4.1 pull synchronization; the
        // `disable_cert_pull` self-test arm must take down both sync paths
        // or the checkers would never see the stall it exists to prove.
        if self.config.bugs.disable_cert_pull {
            return;
        }
        if cert.round() <= self.round + RANGE_PULL_LAG {
            return;
        }
        let now = ctx.now();
        if now.saturating_sub(self.range_pull_last) < self.config.sync_retry_delay
            && self.range_pull_attempts > 0
        {
            return;
        }
        self.range_pull_last = now;
        let n = self.committee.size() as u32;
        let target = retry_target(cert.origin(), self.range_pull_attempts, self.me, n);
        self.range_pull_attempts += 1;
        // Start two rounds below the local round: the local quorum that
        // advanced us here need not be the quorum our suspended descendants
        // reference, so the immediately preceding rounds can still have
        // holes only the range response fills in one shot.
        let from = self
            .round
            .saturating_sub(2)
            .max(self.dag.first_retained_round())
            .max(1);
        ctx.send(
            self.addr.primary(target),
            NarwhalMsg::CertRangeRequest {
                from,
                to: cert.round(),
            },
        );
    }

    /// Starts a snapshot state transfer when a verified certificate proves
    /// the committee is beyond our pull-sync horizon: per-certificate §4.1
    /// sync cannot close a gap wider than `gc_depth` (peers pruned it).
    fn maybe_trigger_state_transfer(
        &mut self,
        cert: &Certificate,
        ctx: &mut Context<NarwhalMsg<C::Ext>>,
    ) {
        if self.config.bugs.disable_snapshots || self.snapshot_fetch.is_some() {
            return;
        }
        if cert.round() <= self.dag.highest_round() + self.config.gc_depth {
            return;
        }
        let hint = retry_target(cert.origin(), 0, self.me, self.committee.size() as u32);
        self.snapshot_fetch = Some(SnapshotFetch {
            hint,
            attempts: 0,
            last: ctx.now(),
            manifest: None,
            signatures: Vec::new(),
            base: None,
            chunks: Vec::new(),
        });
        ctx.send(
            self.addr.primary(hint),
            NarwhalMsg::SnapshotRequest {
                sequence: 0,
                cursor: 0,
            },
        );
    }

    /// Accepts one chunk of an in-flight state transfer, pumps the next
    /// request, and installs once chunks, base and a signature quorum are
    /// all in hand. Chunks verify individually against the manifest, so a
    /// transfer survives switching serving validators mid-way.
    #[allow(clippy::too_many_arguments)]
    fn handle_snapshot_response(
        &mut self,
        manifest: SnapshotManifest,
        signatures: Vec<SnapshotSig>,
        chunk_index: u64,
        chunk: Vec<u8>,
        base: Option<SnapshotBase>,
        from: NodeId,
        ctx: &mut Context<NarwhalMsg<C::Ext>>,
    ) {
        if self.config.bugs.disable_snapshots {
            return;
        }
        let Some(fetch) = self.snapshot_fetch.as_mut() else {
            return;
        };
        let digest = manifest.digest();
        let adopt = match &fetch.manifest {
            None => true,
            Some(current) if current.digest() == digest => false,
            // A newer point appeared mid-transfer (ours may be pruned
            // committee-wide): restart on it. Older/conflicting: ignore.
            Some(current) if manifest.sequence > current.sequence => true,
            Some(_) => return,
        };
        if adopt {
            fetch.chunks = vec![None; manifest.chunk_count()];
            fetch.signatures.clear();
            fetch.base = None;
            fetch.manifest = Some(manifest.clone());
        }
        for sig in signatures {
            if sig.verify_digest(&self.committee, &digest)
                && !fetch.signatures.iter().any(|s| s.signer == sig.signer)
            {
                fetch.signatures.push(sig);
            }
        }
        if fetch.base.is_none() {
            fetch.base = base;
        }
        if let Some(slot) = fetch.chunks.get_mut(chunk_index as usize) {
            if slot.is_none() && manifest.verify_chunk(chunk_index as usize, &chunk) {
                *slot = Some(chunk);
            }
        }
        fetch.last = ctx.now();
        if let Some(idx) = fetch.chunks.iter().position(Option::is_none) {
            ctx.send(
                from,
                NarwhalMsg::SnapshotRequest {
                    sequence: manifest.sequence,
                    cursor: idx as u64,
                },
            );
            return;
        }
        if fetch.base.is_none() {
            // All chunks but no base: we joined mid-transfer past chunk 0.
            ctx.send(
                from,
                NarwhalMsg::SnapshotRequest {
                    sequence: manifest.sequence,
                    cursor: 0,
                },
            );
            return;
        }
        if fetch.signatures.len() >= self.committee.quorum_threshold() {
            self.install_snapshot(ctx);
        }
    }

    /// Installs a fully-downloaded, quorum-signed snapshot: verifies the
    /// app bytes against the manifest and every frontier certificate
    /// against the committee, then replaces the DAG, the ordered set, the
    /// sequence counter, consensus and app state wholesale, persists the
    /// new basis (install marker included, so checkers and recovery can
    /// license the sequence jump), and resumes normal DAG participation.
    fn install_snapshot(&mut self, ctx: &mut Context<NarwhalMsg<C::Ext>>) {
        let Some(fetch) = self.snapshot_fetch.take() else {
            return;
        };
        let (Some(manifest), Some(base)) = (fetch.manifest, fetch.base) else {
            return;
        };
        let mut app = Vec::with_capacity(manifest.app_len as usize);
        for chunk in &fetch.chunks {
            app.extend_from_slice(chunk.as_deref().unwrap_or_default());
        }
        if app.len() as u64 != manifest.app_len || Digest::of(&app) != manifest.app_root {
            return; // cannot happen with verified chunks; abort defensively
        }
        if base.checkpoint_seq < manifest.sequence {
            return; // malformed base: the capture moment precedes the point
        }
        // One multiscalar equation covers every frontier certificate's
        // vote set (Certificate::verify_all), instead of per-certificate
        // per-signature scalar multiplications.
        if Certificate::verify_all(&self.committee, &base.frontier).is_err() {
            // A fabricated frontier: drop the transfer. Still-arriving
            // far-future certificates re-trigger against another server.
            return;
        }
        // Replace the DAG with the served window.
        let mut dag = Dag::new();
        dag.insert_genesis(Certificate::genesis_set(&self.committee));
        if let Some(gc_round) = base.gc_round {
            dag.gc(gc_round);
        }
        let mut frontier = base.frontier.clone();
        frontier.sort_by_key(Certificate::round);
        for cert in &frontier {
            dag.insert(cert.clone());
        }
        self.dag = dag;
        self.ordered = base.ordered.iter().map(|r| r.digest).collect();
        self.sequence = base.checkpoint_seq;
        if !base.consensus.is_empty() {
            self.consensus.restore(&base.consensus);
        }
        // Everything queued against the pre-install view is void.
        self.pending_anchors.clear();
        self.suspended.clear();
        self.suspended_digests.clear();
        self.missing_certs.clear();
        self.pending_headers.clear();
        self.waiting_on_parent.clear();
        self.waiting_on_batch.clear();
        self.exec_backlog.clear();
        self.exec_waiting = None;
        // The discarded backlog will never apply, so the deletions GC
        // deferred on its behalf are due now — the installed app state
        // already covers those commits.
        if let Some(store) = &self.block_store {
            for digest in std::mem::take(&mut self.exec_deferred_delete) {
                store.delete_batch(&digest).expect("block store");
            }
        } else {
            self.exec_deferred_delete.clear();
        }
        self.snapshot_due = None;
        self.snapshot_base = None;
        self.snapshot_app = None;
        self.current_header = None;
        self.current_votes.clear();
        self.last_snapshot_point = self.sequence;
        let boundary = self.dag.first_retained_round();
        self.voted = self.voted.split_off(&boundary);
        // Reconcile our own certified-but-uncommitted payloads against the
        // installed basis. A block the new `ordered` set names is
        // committed; one still in the new DAG awaiting an anchor stays
        // in-flight. Everything else — below the boundary or absent from
        // the served window — was certified before the outage and almost
        // surely linearized by the committee while we were down, and no
        // local record can prove otherwise. Treating those as committed
        // (never re-proposing) is the safe side: a re-injection here is a
        // double-commit the moment both blocks linearize (`sim_fuzz` seed
        // 0 — the committee committed the block mid-partition, then our
        // post-install GC re-queued its batches). Exactly-once wins over
        // at-least-once; clients re-submit.
        let mut presumed_committed: Vec<Digest> = Vec::new();
        for (round, digests) in std::mem::take(&mut self.own_payloads) {
            match self.dag.get(round, self.me) {
                Some(cert) if !self.ordered.contains(&cert.header_digest()) => {
                    self.own_payloads.insert(round, digests);
                }
                _ => {
                    for digest in digests {
                        if self.committed_batches.insert(digest) {
                            presumed_committed.push(digest);
                        }
                    }
                }
            }
        }
        if let Some(store) = self.block_store.clone() {
            // Old markers at sequences the install supersedes; collected
            // before the new basis lands so the cleanup below can tell
            // them apart from freshly-written ones.
            let stale_refs = store.ordered_refs().expect("block store");
            // Persist the new basis. Order matters against a torn tail:
            // content first (certificates, checkpoint, markers ascending,
            // counter, install marker, app state), the GC boundary last
            // among state keys — an unpruned DAG merely makes recovery
            // descend into a hole, stall, and re-fetch a snapshot; a
            // pruned DAG with no recorded basis would commit wrong
            // content. The barrier seals the basis before any deletion.
            for cert in &frontier {
                store.put_certificate(cert).expect("block store");
            }
            store
                .put_consensus_checkpoint(&base.consensus)
                .expect("block store");
            let mut refs = base.ordered.clone();
            refs.sort_by_key(|r| r.sequence);
            for r in &refs {
                store
                    .put_ordered(&r.digest, r.sequence)
                    .expect("block store");
            }
            store.put_sequence(self.sequence).expect("block store");
            store
                .put_snapshot_install(self.sequence)
                .expect("block store");
            if let Some(gc_round) = base.gc_round {
                store.put_gc_round(gc_round).expect("block store");
            }
            for digest in &presumed_committed {
                store.put_committed_batch(digest).expect("block store");
            }
            store
                .put_app_state(manifest.sequence, &app)
                .expect("block store");
            let package = SnapshotPackage {
                manifest: manifest.clone(),
                signatures: fetch.signatures,
                base: base.clone(),
                app: app.clone(),
            };
            store.put_snapshot(&package).expect("block store");
            store.barrier().expect("block store");
            // Cleanup: superseded markers, pruned certificates and votes.
            let new_refs: HashSet<Digest> = self.ordered.iter().copied().collect();
            for (digest, seq) in stale_refs {
                if seq <= self.sequence && !new_refs.contains(&digest) {
                    store.delete_ordered(&digest).expect("block store");
                }
            }
            store.gc_certificates_below(boundary).expect("block store");
            store.gc_votes_below(boundary).expect("block store");
        }
        if let Some(exec) = self.execution.as_mut() {
            exec.restore(manifest.sequence, &app)
                .expect("root-verified app state");
            let refs: Vec<(Digest, u64)> = base
                .ordered
                .iter()
                .map(|r| (r.digest, r.sequence))
                .collect();
            // Close the (manifest.sequence, checkpoint_seq] gap through the
            // engine without re-emitting (the committee externalized these
            // long ago).
            self.replay_refs(&refs, manifest.sequence, self.sequence);
        }
        // Resume normal participation from the installed frontier.
        self.round = (self.dag.first_retained_round()..=self.dag.highest_round())
            .rev()
            .find(|r| self.dag.round_size(*r) >= self.committee.quorum_threshold())
            .unwrap_or_else(|| self.dag.first_retained_round());
        self.round_entered = ctx.now();
        self.advance_round(ctx);
        self.try_propose(ctx);
        self.drain_execution(ctx);
    }
}

impl<C: DagConsensus> Actor for Primary<C> {
    type Message = NarwhalMsg<C::Ext>;

    fn on_start(&mut self, ctx: &mut Context<Self::Message>) {
        if !self.recover(ctx.now()) {
            // Volatile boot: bootstrap from genesis (the recovered DAG
            // already contains it otherwise).
            self.dag
                .insert_genesis(Certificate::genesis_set(&self.committee));
        }
        let mut out = ConsensusOut::default();
        self.consensus.on_start(&mut out);
        self.apply_consensus_out(out, ctx);
        self.advance_round(ctx);
        self.try_propose(ctx);
        // Replay recovered commits through the engine before new ones land.
        self.drain_execution(ctx);
        ctx.timer(self.retry_interval(), TAG_RETRY);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<Self::Message>) {
        if tag >= CONSENSUS_TAG_BASE {
            let mut out = ConsensusOut::default();
            self.consensus
                .on_timer(tag - CONSENSUS_TAG_BASE, &self.dag, &mut out);
            self.apply_consensus_out(out, ctx);
            return;
        }
        match tag {
            TAG_PROPOSE => self.try_propose(ctx),
            TAG_RETRY => self.handle_retry(ctx),
            _ => {}
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>) {
        match msg {
            NarwhalMsg::Header(header) => self.handle_header(header, ctx),
            NarwhalMsg::Vote(vote) => self.handle_vote(vote, ctx),
            NarwhalMsg::Certificate(cert)
                if cert.round() >= self.dag.first_retained_round()
                    && !self.dag.contains_digest(&cert.header_digest())
                    && cert.verify(&self.committee).is_ok() =>
            {
                self.maybe_trigger_state_transfer(&cert, ctx);
                self.maybe_range_pull(&cert, ctx);
                self.process_certificate(cert, ctx);
            }
            NarwhalMsg::CertRequest { digests } => {
                let certs: Vec<Certificate> = digests
                    .iter()
                    .filter_map(|d| self.dag.get_by_digest(d).cloned())
                    .collect();
                if !certs.is_empty() {
                    ctx.send(from, NarwhalMsg::CertResponse { certs });
                }
            }
            NarwhalMsg::CertRangeRequest { from: lo, to: hi } => {
                // Malformed ranges are rejected at ingress: no honest
                // requester sends an inverted or zero-round range, and the
                // clamping below must never turn one into real work.
                if lo > hi || hi == 0 {
                    return;
                }
                // Serve ascending rounds so the requester's insertions
                // cascade without re-suspending; the cap bounds our work no
                // matter what range was asked for.
                let lo = lo.max(self.dag.first_retained_round()).max(1);
                let hi = hi
                    .min(lo.saturating_add(RANGE_PULL_MAX_ROUNDS - 1))
                    .min(self.dag.highest_round());
                let mut certs = Vec::new();
                for round in lo..=hi {
                    certs.extend(self.dag.round_certs(round).cloned());
                }
                if !certs.is_empty() {
                    ctx.send(from, NarwhalMsg::CertResponse { certs });
                }
            }
            NarwhalMsg::CertResponse { certs } => {
                // Verify the whole wanted set in one multiscalar pass; a
                // response with a bad certificate degrades to per-certificate
                // checks so the valid ones still land. Re-checking GC and
                // duplicates inside `process_certificate` makes the one-shot
                // filter safe even as earlier certificates insert.
                let wanted: Vec<Certificate> = certs
                    .into_iter()
                    .filter(|c| {
                        c.round() >= self.dag.first_retained_round()
                            && !self.dag.contains_digest(&c.header_digest())
                    })
                    .collect();
                let all_valid = Certificate::verify_all(&self.committee, &wanted).is_ok();
                for cert in wanted {
                    if all_valid || cert.verify(&self.committee).is_ok() {
                        self.process_certificate(cert, ctx);
                    }
                }
                self.drain_anchors(ctx);
            }
            NarwhalMsg::ReportBatch(info) => self.handle_report(info, ctx),
            NarwhalMsg::SnapshotVote {
                sequence,
                manifest,
                sig,
            } => self.handle_snapshot_vote(sequence, manifest, sig),
            NarwhalMsg::SnapshotRequest { sequence, cursor } => {
                self.handle_snapshot_request(sequence, cursor, from, ctx)
            }
            NarwhalMsg::SnapshotResponse {
                manifest,
                signatures,
                chunk_index,
                chunk,
                base,
            } => self.handle_snapshot_response(
                manifest,
                signatures,
                chunk_index,
                chunk,
                base,
                from,
                ctx,
            ),
            NarwhalMsg::Ext(ext) => {
                if let Some(peer) = self.addr.primary_of(from) {
                    let mut out = ConsensusOut::default();
                    self.consensus.on_message(peer, ext, &self.dag, &mut out);
                    self.apply_consensus_out(out, ctx);
                }
            }
            // Worker-to-worker traffic is never addressed to primaries.
            _ => {}
        }
    }
}

/// The `attempts`-th pull target after `hint` in a committee of `n`:
/// retries rotate through the committee, skipping `me`, so one dead or
/// Byzantine peer costs one retry interval.
fn retry_target(hint: ValidatorId, attempts: u32, me: ValidatorId, n: u32) -> ValidatorId {
    let target = ValidatorId((hint.0 + attempts) % n);
    if target == me {
        ValidatorId((target.0 + 1) % n)
    } else {
        target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{NoConsensus, NoExt};
    use nt_crypto::Scheme;
    use nt_network::{Effect, MS};
    use nt_types::WorkerId;

    type Msg = NarwhalMsg<NoExt>;

    fn setup(
        n: usize,
    ) -> (
        Committee,
        Vec<KeyPair>,
        AddressBook,
        Vec<Primary<NoConsensus>>,
    ) {
        let (committee, kps) = Committee::deterministic(n, 1, Scheme::Insecure);
        let addr = AddressBook::new(n, 1);
        let primaries = (0..n)
            .map(|v| {
                crate::node::NodeBuilder::new(committee.clone(), v as u32)
                    .keypair(kps[v].clone())
                    .build_primary(NoConsensus)
            })
            .collect();
        (committee, kps, addr, primaries)
    }

    fn sends(effects: Vec<Effect<Msg>>) -> Vec<(NodeId, Msg)> {
        effects
            .into_iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    fn report(primary: &mut Primary<NoConsensus>, seq: u64, now: Time) -> Vec<(NodeId, Msg)> {
        report_from(primary, primary.me, seq, now)
    }

    /// Simulates the worker of `primary` reporting a stored batch created
    /// by `creator` (workers replicate batches to all validators, §4.2).
    fn report_from(
        primary: &mut Primary<NoConsensus>,
        creator: ValidatorId,
        seq: u64,
        now: Time,
    ) -> Vec<(NodeId, Msg)> {
        let info = BatchInfo {
            digest: Digest::of(&seq.to_le_bytes()),
            worker: WorkerId(0),
            creator,
            tx_count: 100,
            tx_bytes: 51_200,
            samples: vec![],
        };
        let mut ctx = Context::new(now, primary.addr.primary(primary.me));
        primary.handle_report(info, &mut ctx);
        sends(ctx.drain())
    }

    #[test]
    fn starts_at_round_one_and_proposes_with_payload() {
        let (_, _, _, mut primaries) = setup(4);
        let mut ctx = Context::new(0, 0);
        primaries[0].on_start(&mut ctx);
        assert_eq!(primaries[0].round(), 1);
        ctx.drain();
        // A batch report triggers an immediate proposal.
        let out = report(&mut primaries[0], 1, MS);
        let headers: Vec<&Header> = out
            .iter()
            .filter_map(|(_, m)| match m {
                NarwhalMsg::Header(h) => Some(h),
                _ => None,
            })
            .collect();
        assert_eq!(headers.len(), 3, "header broadcast to 3 peers");
        assert_eq!(headers[0].round, 1);
        assert_eq!(headers[0].parents.len(), 4, "genesis parents");
        assert_eq!(headers[0].payload.len(), 1);
        assert!(headers[0].coin_share.is_some());
    }

    #[test]
    fn empty_proposal_after_header_delay() {
        let (_, _, _, mut primaries) = setup(4);
        let mut ctx = Context::new(0, 0);
        primaries[0].on_start(&mut ctx);
        ctx.drain();
        // No payload: nothing proposed until the deadline timer fires.
        let mut ctx = Context::new(NarwhalConfig::default().max_header_delay + MS, 0);
        primaries[0].on_timer(TAG_PROPOSE, &mut ctx);
        let out = sends(ctx.drain());
        let header = out
            .iter()
            .find_map(|(_, m)| match m {
                NarwhalMsg::Header(h) => Some(h),
                _ => None,
            })
            .expect("empty block proposed at deadline");
        assert!(header.payload.is_empty());
    }

    /// Drives a full round across 4 in-process primaries by routing their
    /// effects by hand; checks headers -> votes -> certificates -> round 2.
    #[test]
    fn full_round_certifies_and_advances() {
        let (_, _, addr, mut primaries) = setup(4);
        let mut queues: VecDeque<(NodeId, NodeId, Msg)> = VecDeque::new();
        for (v, primary) in primaries.iter_mut().enumerate() {
            let mut ctx = Context::new(0, v);
            primary.on_start(&mut ctx);
            for (to, msg) in sends(ctx.drain()) {
                queues.push_back((v, to, msg));
            }
        }
        // Workers replicate every batch to every validator before the
        // digest is proposed (§4.2): report batch `v` (created by validator
        // v) to all four primaries.
        for v in 0..4u32 {
            for (p, primary) in primaries.iter_mut().enumerate() {
                for (to, msg) in report_from(primary, ValidatorId(v), v as u64, MS) {
                    queues.push_back((p, to, msg));
                }
            }
        }
        // Route messages to a fixed point.
        let mut hops = 0;
        while let Some((from, to, msg)) = queues.pop_front() {
            hops += 1;
            assert!(hops < 10_000, "message routing must terminate");
            if let Some(_v) = addr.primary_of(to) {
                let mut ctx = Context::new(2 * MS, to);
                primaries[to].on_message(from, msg, &mut ctx);
                for (nto, nmsg) in sends(ctx.drain()) {
                    queues.push_back((to, nto, nmsg));
                }
            }
        }
        for (v, p) in primaries.iter().enumerate() {
            assert!(
                p.round() >= 2,
                "validator {v} should advance past round 1, at {}",
                p.round()
            );
            assert_eq!(p.dag().round_size(1), 4, "all round-1 blocks certified");
        }
    }

    #[test]
    fn header_from_unknown_round_is_pended_and_synced() {
        let (_committee, kps, _, mut primaries) = setup(4);
        let mut ctx = Context::new(0, 0);
        primaries[0].on_start(&mut ctx);
        ctx.drain();
        // A round-2 header whose parents we do not know.
        let fake_parents: Vec<Digest> = (0..3).map(|i| Digest::of(&[i as u8, 99])).collect();
        let header = Header::new(
            &kps[1],
            ValidatorId(1),
            2,
            vec![],
            fake_parents.clone(),
            None,
        );
        let mut ctx = Context::new(MS, 0);
        primaries[0].handle_header(header, &mut ctx);
        let out = sends(ctx.drain());
        // No vote; sync requests for the parents instead.
        assert!(out.iter().all(|(_, m)| !matches!(m, NarwhalMsg::Vote(_))));
        let requested: usize = out
            .iter()
            .filter(|(_, m)| matches!(m, NarwhalMsg::CertRequest { .. }))
            .count();
        assert!(requested >= 1, "parents are pulled");
    }

    #[test]
    fn votes_only_once_per_creator_round() {
        let (committee, kps, _, mut primaries) = setup(4);
        let mut ctx = Context::new(0, 0);
        primaries[0].on_start(&mut ctx);
        ctx.drain();
        let parents: Vec<Digest> = Certificate::genesis_set(&committee)
            .iter()
            .map(Certificate::header_digest)
            .collect();
        let h1 = Header::new(&kps[1], ValidatorId(1), 1, vec![], parents.clone(), None);
        let mut ctx = Context::new(MS, 0);
        primaries[0].handle_header(h1, &mut ctx);
        let votes1 = sends(ctx.drain())
            .iter()
            .filter(|(_, m)| matches!(m, NarwhalMsg::Vote(_)))
            .count();
        assert_eq!(votes1, 1);
        // An equivocating second block from the same creator and round.
        let h2 = Header::new(
            &kps[1],
            ValidatorId(1),
            1,
            vec![(Digest::of(b"x"), WorkerId(0))],
            parents,
            None,
        );
        let mut ctx = Context::new(2 * MS, 0);
        primaries[0].handle_header(h2, &mut ctx);
        let out = sends(ctx.drain());
        assert!(
            out.iter().all(|(_, m)| !matches!(m, NarwhalMsg::Vote(_))),
            "second block from the same creator in the same round is not signed"
        );
    }

    #[test]
    fn header_with_unavailable_batches_is_not_voted_until_fetched() {
        let (committee, kps, addr, mut primaries) = setup(4);
        let mut ctx = Context::new(0, 0);
        primaries[0].on_start(&mut ctx);
        ctx.drain();
        let parents: Vec<Digest> = Certificate::genesis_set(&committee)
            .iter()
            .map(Certificate::header_digest)
            .collect();
        let batch_digest = Digest::of(b"some batch");
        let header = Header::new(
            &kps[1],
            ValidatorId(1),
            1,
            vec![(batch_digest, WorkerId(0))],
            parents,
            None,
        );
        let mut ctx = Context::new(MS, 0);
        primaries[0].handle_header(header, &mut ctx);
        let out = sends(ctx.drain());
        assert!(out.iter().all(|(_, m)| !matches!(m, NarwhalMsg::Vote(_))));
        let fetch = out
            .iter()
            .find(|(to, m)| {
                *to == addr.worker(ValidatorId(0), WorkerId(0))
                    && matches!(m, NarwhalMsg::FetchBatch { .. })
            })
            .is_some();
        assert!(fetch, "primary instructs its worker to fetch the batch");

        // Once the worker reports the batch, the vote goes out.
        let info = BatchInfo {
            digest: batch_digest,
            worker: WorkerId(0),
            creator: ValidatorId(1),
            tx_count: 10,
            tx_bytes: 5_120,
            samples: vec![],
        };
        let mut ctx = Context::new(2 * MS, 0);
        primaries[0].handle_report(info, &mut ctx);
        let out = sends(ctx.drain());
        assert!(
            out.iter()
                .any(|(to, m)| *to == addr.primary(ValidatorId(1))
                    && matches!(m, NarwhalMsg::Vote(_))),
            "vote sent after availability is established"
        );
    }

    /// Routes messages between the given primaries until quiescence.
    fn route_to_fixpoint(
        primaries: &mut [Primary<NoConsensus>],
        addr: &AddressBook,
        mut queues: VecDeque<(NodeId, NodeId, Msg)>,
        now: Time,
    ) {
        let mut hops = 0;
        while let Some((from, to, msg)) = queues.pop_front() {
            hops += 1;
            assert!(hops < 10_000, "message routing must terminate");
            if addr.primary_of(to).is_some() {
                let mut ctx = Context::new(now, to);
                primaries[to].on_message(from, msg, &mut ctx);
                for (nto, nmsg) in sends(ctx.drain()) {
                    queues.push_back((to, nto, nmsg));
                }
            }
        }
    }

    #[test]
    fn restarted_primary_recovers_dag_round_and_vote_locks() {
        use nt_storage::MemStore;
        use std::sync::Arc;
        let (committee, kps, _, _) = setup(4);
        let addr = AddressBook::new(4, 1);
        let stores: Vec<nt_storage::DynStore> =
            (0..4).map(|_| Arc::new(MemStore::new()) as _).collect();
        let mut primaries: Vec<Primary<NoConsensus>> = (0..4)
            .map(|v| {
                crate::node::NodeBuilder::new(committee.clone(), v)
                    .keypair(kps[v as usize].clone())
                    .store(stores[v as usize].clone())
                    .build_primary(NoConsensus)
            })
            .collect();
        let mut queues: VecDeque<(NodeId, NodeId, Msg)> = VecDeque::new();
        for (v, primary) in primaries.iter_mut().enumerate() {
            let mut ctx = Context::new(0, v);
            primary.on_start(&mut ctx);
            for (to, msg) in sends(ctx.drain()) {
                queues.push_back((v, to, msg));
            }
        }
        for v in 0..4u32 {
            for (p, primary) in primaries.iter_mut().enumerate() {
                for (to, msg) in report_from(primary, ValidatorId(v), v as u64, MS) {
                    queues.push_back((p, to, msg));
                }
            }
        }
        route_to_fixpoint(&mut primaries, &addr, queues, 2 * MS);
        assert!(primaries[0].round() >= 2, "round 1 certified everywhere");

        // Crash validator 0 and boot a fresh incarnation over its store.
        let mut revived = crate::node::NodeBuilder::new(committee.clone(), 0)
            .keypair(kps[0].clone())
            .store(stores[0].clone())
            .build_primary(NoConsensus);
        let mut ctx = Context::new(5 * MS, 0);
        revived.on_start(&mut ctx);
        let old = &primaries[0];
        assert_eq!(revived.round, old.round, "round recovered from quorums");
        assert_eq!(
            revived.dag.len(),
            old.dag.len(),
            "DAG recovered, not genesis"
        );
        assert_eq!(revived.dag.round_size(1), 4);
        assert_eq!(revived.voted, old.voted, "vote locks survive the crash");
        assert_eq!(
            revived.last_proposed, old.last_proposed,
            "no second proposal for an already-signed round"
        );
        // The revived primary must not have proposed a round-1 block again.
        let proposals = sends(ctx.drain())
            .into_iter()
            .filter(|(_, m)| matches!(m, NarwhalMsg::Header(h) if h.round <= old.last_proposed))
            .count();
        assert_eq!(proposals, 0, "recovery never re-proposes a signed round");

        // Our round-1 block carried our own batch and is certified but not
        // committed (NoConsensus): the in-flight payload is recovered...
        let own_digest = Digest::of(&0u64.to_le_bytes());
        assert!(
            revived
                .own_payloads
                .values()
                .any(|ds| ds.contains(&own_digest)),
            "in-flight own payloads recovered from the DAG"
        );
        // ...so the recovered worker's re-report must NOT queue the batch
        // for a second proposal (its transactions would commit twice).
        report(&mut revived, 0, 6 * MS);
        assert!(
            revived.pending_digests.is_empty(),
            "batch inside a certified in-flight block is not re-proposed"
        );
    }

    #[test]
    fn fresh_store_boots_like_a_volatile_primary() {
        use nt_storage::MemStore;
        use std::sync::Arc;
        let (committee, kps, _, mut volatile) = setup(4);
        let mut durable = crate::node::NodeBuilder::new(committee, 0)
            .keypair(kps[0].clone())
            .store(Arc::new(MemStore::new()) as _)
            .build_primary(NoConsensus);
        let mut ctx_v = Context::new(0, 0);
        volatile[0].on_start(&mut ctx_v);
        let mut ctx_d = Context::new(0, 0);
        durable.on_start(&mut ctx_d);
        assert_eq!(durable.round(), volatile[0].round());
        assert_eq!(durable.dag().len(), volatile[0].dag().len());
    }

    /// The TAG 16 (`CertRangeRequest`) ingress path: inverted and
    /// zero-length ranges are dropped without a response, and an
    /// arbitrarily wide range is clamped to `RANGE_PULL_MAX_ROUNDS` of
    /// locally retained history instead of trusting the requester.
    #[test]
    fn malformed_cert_range_requests_are_rejected_or_clamped() {
        let (_, _, addr, mut primaries) = setup(4);
        let mut queues: VecDeque<(NodeId, NodeId, Msg)> = VecDeque::new();
        for (v, primary) in primaries.iter_mut().enumerate() {
            let mut ctx = Context::new(0, v);
            primary.on_start(&mut ctx);
            for (to, msg) in sends(ctx.drain()) {
                queues.push_back((v, to, msg));
            }
        }
        for v in 0..4u32 {
            for (p, primary) in primaries.iter_mut().enumerate() {
                for (to, msg) in report_from(primary, ValidatorId(v), v as u64, MS) {
                    queues.push_back((p, to, msg));
                }
            }
        }
        route_to_fixpoint(&mut primaries, &addr, queues, 2 * MS);
        assert_eq!(primaries[0].dag().round_size(1), 4, "round 1 certified");
        let mut range = |from: Round, to: Round| -> Vec<Certificate> {
            let mut ctx = Context::new(3 * MS, 0);
            primaries[0].on_message(1, NarwhalMsg::CertRangeRequest { from, to }, &mut ctx);
            sends(ctx.drain())
                .into_iter()
                .find_map(|(_, m)| match m {
                    NarwhalMsg::CertResponse { certs } => Some(certs),
                    _ => None,
                })
                .unwrap_or_default()
        };
        // Inverted and zero-length ranges answer nothing at all.
        assert!(range(2, 1).is_empty(), "inverted range");
        assert!(range(u64::MAX, 0).is_empty(), "extreme inverted range");
        assert!(range(0, 0).is_empty(), "zero-length range");
        // A well-formed request is served...
        assert_eq!(range(1, 1).len(), 4, "round 1 has four certificates");
        // ...and an absurdly wide one is clamped to what the cap and the
        // local DAG actually hold, not the requested size.
        let clamped = range(1, u64::MAX);
        assert_eq!(clamped.len(), 4, "only retained rounds are served");
        assert!(clamped.iter().all(|c| c.round() == 1));
    }

    #[test]
    fn serves_cert_requests_from_dag() {
        let (committee, _, _, mut primaries) = setup(4);
        let mut ctx = Context::new(0, 0);
        primaries[0].on_start(&mut ctx);
        ctx.drain();
        let genesis_digest = Certificate::genesis(ValidatorId(2)).header_digest();
        let mut ctx = Context::new(MS, 0);
        primaries[0].on_message(
            1,
            NarwhalMsg::CertRequest {
                digests: vec![genesis_digest, Digest::of(b"unknown")],
            },
            &mut ctx,
        );
        let out = sends(ctx.drain());
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            NarwhalMsg::CertResponse { certs } => {
                assert_eq!(certs.len(), 1);
                assert_eq!(certs[0].header_digest(), genesis_digest);
            }
            other => panic!("expected response, got {other:?}"),
        }
        let _ = committee;
    }
}
