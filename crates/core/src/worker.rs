//! The worker state machine (§4.2 scale-out design).
//!
//! Workers do the bulk data movement: they accumulate client transactions
//! into batches (~500 KB), stream each batch to the same worker slot of
//! every other validator, collect a `2f + 1` quorum of store-acknowledgments
//! (including their own), and only then hand the batch digest to their
//! primary for inclusion in a block. Peer batches are stored and reported
//! to the primary immediately, which is what lets the primary vote for
//! blocks whose payload its own workers already hold.

use crate::config::NarwhalConfig;
use crate::deployment::AddressBook;
use crate::messages::{BatchInfo, NarwhalMsg};
use crate::store::BlockStore;
use nt_crypto::{Digest, Hashable as _};
use nt_network::{Actor, Context, NodeId, Time};
use nt_types::{Batch, Committee, Transaction, TxSample, ValidatorId, WorkerId};
use std::collections::{BTreeMap, HashMap, HashSet};

const TAG_SEAL: u64 = 1;
const TAG_RETRY: u64 = 2;

struct PendingBatch {
    batch: Batch,
    acked: HashSet<ValidatorId>,
    created: Time,
}

struct FetchState {
    creator: ValidatorId,
    attempts: u32,
    last: Time,
}

/// One worker host of a validator.
pub struct Worker<Ext: Clone + Send + 'static> {
    committee: Committee,
    config: NarwhalConfig,
    addr: AddressBook,
    me: ValidatorId,
    worker_id: WorkerId,
    // Batching.
    buffer: Vec<Transaction>,
    buffer_bytes: usize,
    buffer_samples: Vec<TxSample>,
    buffer_opened: Time,
    seq: u64,
    sample_seq: u64,
    // Replication.
    store: HashMap<Digest, Batch>,
    /// Ordered maps: the retry timer walks these to emit resends and
    /// fetch retries, and message order must be a pure function of state
    /// for seeded runs to reproduce (hash-map order is randomized per
    /// process).
    pending: BTreeMap<Digest, PendingBatch>,
    // Fetching batches the primary asked for.
    fetching: BTreeMap<Digest, FetchState>,
    /// Durable write-through store (`None` = volatile, simulation default).
    block_store: Option<BlockStore>,
    _ext: std::marker::PhantomData<Ext>,
}

impl<Ext: Clone + Send + 'static> Worker<Ext> {
    pub(crate) fn build(
        committee: Committee,
        config: NarwhalConfig,
        addr: AddressBook,
        me: ValidatorId,
        worker_id: WorkerId,
        block_store: Option<BlockStore>,
    ) -> Self {
        Worker {
            committee,
            config,
            addr,
            me,
            worker_id,
            buffer: Vec::new(),
            buffer_bytes: 0,
            buffer_samples: Vec::new(),
            buffer_opened: 0,
            seq: 0,
            sample_seq: 0,
            store: HashMap::new(),
            pending: BTreeMap::new(),
            fetching: BTreeMap::new(),
            block_store,
            _ext: std::marker::PhantomData,
        }
    }

    /// Number of batches currently stored (tests/metrics).
    pub fn stored_batches(&self) -> usize {
        self.store.len()
    }

    /// Reloads persisted batches after a crash and re-reports them to the
    /// primary, which rebuilds its availability view (`stored_batches`)
    /// from the reports — own uncommitted batches re-enter the proposal
    /// queue there, committed ones are filtered by the primary's own
    /// recovered state. Also resumes the batch/sample sequence counters so
    /// new batches never collide with pre-crash digests.
    fn recover(&mut self, ctx: &mut Context<NarwhalMsg<Ext>>) {
        let Some(store) = self.block_store.clone() else {
            return;
        };
        for batch in store.load_batches().expect("block store") {
            let digest = batch.digest();
            if batch.creator == self.me && batch.worker == self.worker_id {
                self.seq = self.seq.max(batch.seq);
                for sample in &batch.samples {
                    // Sample ids pack the per-worker counter in the low 40
                    // bits (see `next_sample_id`).
                    self.sample_seq = self.sample_seq.max(sample.id & ((1 << 40) - 1));
                }
            }
            self.store.insert(digest, batch.clone());
            self.report(&batch, ctx);
        }
    }

    /// The retry-timer cadence: the smaller of the two retry delays, so a
    /// `resend_delay` below `sync_retry_delay` is not silently quantized
    /// up to the timer period.
    fn retry_interval(&self) -> Time {
        self.config.sync_retry_delay.min(self.config.resend_delay)
    }

    /// Persists a batch if a durable store is configured.
    fn persist(&self, batch: &Batch) {
        if let Some(store) = &self.block_store {
            store.put_batch(batch).expect("block store");
        }
    }

    fn next_sample_id(&mut self) -> u64 {
        self.sample_seq += 1;
        // Globally unique across validators and workers.
        ((self.me.0 as u64) << 48) | ((self.worker_id.0 as u64) << 40) | self.sample_seq
    }

    fn seal_interval(&self) -> Time {
        match self.config.load {
            Some(load) => self.config.batch_interval(load.rate_tps),
            None => self.config.max_batch_delay,
        }
    }

    /// Seals and disseminates a batch.
    fn seal(&mut self, batch: Batch, ctx: &mut Context<NarwhalMsg<Ext>>) {
        let digest = batch.digest();
        self.store.insert(digest, batch.clone());
        let peers = self.addr.peer_workers(self.me, self.worker_id);
        let mut acked = HashSet::new();
        acked.insert(self.me);
        if acked.len() >= self.committee.quorum_threshold() {
            // Single-validator committee: no replication needed.
            self.persist(&batch);
            self.report(&batch, ctx);
        } else {
            ctx.broadcast(peers, &NarwhalMsg::Batch(batch.clone()));
            self.pending.insert(
                digest,
                PendingBatch {
                    batch,
                    acked,
                    created: ctx.now(),
                },
            );
        }
    }

    /// Seals the synthetic batch for one load-generation interval.
    fn seal_synthetic(&mut self, interval: Time, ctx: &mut Context<NarwhalMsg<Ext>>) {
        let rate = self.config.load.expect("synthetic mode").rate_tps;
        let count = self.config.txs_in_interval(rate, interval);
        if count == 0 {
            return;
        }
        let bytes = count * self.config.tx_bytes as u64;
        let samples = self.make_samples(interval, ctx.now());
        self.seq += 1;
        let batch = Batch::synthetic(self.me, self.worker_id, self.seq, count, bytes, samples);
        self.seal(batch, ctx);
    }

    /// Seals the buffered client transactions (real mode).
    fn seal_buffer(&mut self, ctx: &mut Context<NarwhalMsg<Ext>>) {
        if self.buffer.is_empty() {
            return;
        }
        self.seq += 1;
        let txs = std::mem::take(&mut self.buffer);
        let samples = std::mem::take(&mut self.buffer_samples);
        self.buffer_bytes = 0;
        let batch = Batch::new(self.me, self.worker_id, self.seq, txs, samples);
        self.seal(batch, ctx);
    }

    /// Latency samples whose submit times spread over the accumulation
    /// interval ending at `now`.
    fn make_samples(&mut self, interval: Time, now: Time) -> Vec<TxSample> {
        let k = self.config.samples_per_batch.max(1) as u64;
        (0..k)
            .map(|i| TxSample {
                id: self.next_sample_id(),
                submit_ns: now.saturating_sub(interval * (i + 1) / (k + 1)),
            })
            .collect()
    }

    fn report(&self, batch: &Batch, ctx: &mut Context<NarwhalMsg<Ext>>) {
        let info = BatchInfo {
            digest: batch.digest(),
            worker: self.worker_id,
            creator: batch.creator,
            tx_count: batch.tx_count(),
            tx_bytes: batch.tx_bytes(),
            samples: batch.samples.clone(),
        };
        ctx.send(self.addr.primary(self.me), NarwhalMsg::ReportBatch(info));
    }
}

impl<Ext: Clone + Send + 'static> Actor for Worker<Ext> {
    type Message = NarwhalMsg<Ext>;

    fn on_start(&mut self, ctx: &mut Context<Self::Message>) {
        self.buffer_opened = ctx.now();
        self.recover(ctx);
        ctx.timer(self.seal_interval(), TAG_SEAL);
        ctx.timer(self.retry_interval(), TAG_RETRY);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<Self::Message>) {
        match tag {
            TAG_SEAL => {
                let interval = self.seal_interval();
                if self.config.load.is_some() {
                    self.seal_synthetic(interval, ctx);
                } else if ctx.now().saturating_sub(self.buffer_opened)
                    >= self.config.max_batch_delay
                {
                    self.seal_buffer(ctx);
                    self.buffer_opened = ctx.now();
                }
                ctx.timer(interval, TAG_SEAL);
            }
            TAG_RETRY => {
                let now = ctx.now();
                // Re-broadcast own batches stuck without a quorum (§4.1:
                // retransmission stops once the round advances; workers stop
                // when the quorum forms or the batch is garbage collected).
                let resend: Vec<(Vec<NodeId>, Batch)> = self
                    .pending
                    .values()
                    .filter(|p| now.saturating_sub(p.created) >= self.config.resend_delay)
                    .map(|p| {
                        let targets = self
                            .addr
                            .peer_workers(self.me, self.worker_id)
                            .into_iter()
                            .filter(|node| {
                                self.addr
                                    .worker_of(*node)
                                    .is_some_and(|(v, _)| !p.acked.contains(&v))
                            })
                            .collect();
                        (targets, p.batch.clone())
                    })
                    .collect();
                for (targets, batch) in resend {
                    ctx.broadcast(targets, &NarwhalMsg::Batch(batch));
                }
                // Retry outstanding fetches against rotating targets,
                // deterministically skipping ourselves: the old fallback
                // (retreat to the creator) re-targeted *us* whenever we
                // were fetching a batch we ourselves created and the
                // rotation landed on us — a request that can never be
                // answered.
                let n = self.committee.size() as u32;
                let mut retries: Vec<(NodeId, Digest)> = Vec::new();
                for (digest, fetch) in self.fetching.iter_mut() {
                    if now.saturating_sub(fetch.last) >= self.config.sync_retry_delay {
                        fetch.attempts += 1;
                        fetch.last = now;
                        let mut target = ValidatorId((fetch.creator.0 + fetch.attempts) % n);
                        if target == self.me && n > 1 {
                            target = ValidatorId((target.0 + 1) % n);
                        }
                        retries.push((self.addr.worker(target, self.worker_id), *digest));
                    }
                }
                for (node, digest) in retries {
                    ctx.send(
                        node,
                        NarwhalMsg::BatchRequest {
                            digests: vec![digest],
                        },
                    );
                }
                ctx.timer(self.retry_interval(), TAG_RETRY);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>) {
        match msg {
            NarwhalMsg::ClientTx(tx) => {
                self.buffer_bytes += tx.len();
                if self
                    .buffer
                    .len()
                    .is_multiple_of(self.config.samples_per_batch.max(1))
                {
                    let id = self.next_sample_id();
                    self.buffer_samples.push(TxSample {
                        id,
                        submit_ns: ctx.now(),
                    });
                }
                self.buffer.push(tx);
                if self.buffer_bytes >= self.config.batch_bytes {
                    self.seal_buffer(ctx);
                    self.buffer_opened = ctx.now();
                }
            }
            NarwhalMsg::Batch(batch) => {
                let digest = batch.digest();
                let first_seen = !self.store.contains_key(&digest);
                self.store.insert(digest, batch.clone());
                // Persist *before* acknowledging: the ack is a storage
                // promise another validator's certificate will depend on
                // (§4.2), so it must survive our crash.
                if first_seen {
                    self.persist(&batch);
                }
                ctx.send(
                    from,
                    NarwhalMsg::BatchAck {
                        digest,
                        voter: self.me,
                    },
                );
                if first_seen {
                    self.report(&batch, ctx);
                }
                self.fetching.remove(&digest);
            }
            NarwhalMsg::BatchAck { digest, voter } => {
                let quorum = self.committee.quorum_threshold();
                if let Some(p) = self.pending.get_mut(&digest) {
                    p.acked.insert(voter);
                    if p.acked.len() >= quorum {
                        let done = self.pending.remove(&digest).expect("present");
                        // Quorum reached: the batch is now replicated
                        // enough to be referenced by a block — persist it
                        // before the digest reaches the primary.
                        self.persist(&done.batch);
                        self.report(&done.batch, ctx);
                    }
                }
            }
            NarwhalMsg::BatchRequest { digests } => {
                let batches: Vec<Batch> = digests
                    .iter()
                    .filter_map(|d| self.store.get(d).cloned())
                    .collect();
                if !batches.is_empty() {
                    ctx.send(from, NarwhalMsg::BatchResponse { batches });
                }
            }
            NarwhalMsg::BatchResponse { batches } => {
                for batch in batches {
                    let digest = batch.digest();
                    if self.fetching.remove(&digest).is_some() || !self.store.contains_key(&digest)
                    {
                        self.store.insert(digest, batch.clone());
                        self.persist(&batch);
                        self.report(&batch, ctx);
                    }
                }
            }
            NarwhalMsg::FetchBatch {
                digest,
                worker: _,
                creator,
            } => {
                if let Some(batch) = self.store.get(&digest) {
                    // Already held: re-persist, then (re-)report. The report
                    // is a promise that the durable store can serve the
                    // bytes — but the primary may have garbage-collected
                    // them since we first persisted (an execution backlog
                    // catching up after a restart fetches batches whose
                    // rounds GC already pruned), so the write-through must
                    // be repeated, not assumed.
                    let batch = batch.clone();
                    self.persist(&batch);
                    self.report(&batch, ctx);
                } else if let std::collections::btree_map::Entry::Vacant(e) =
                    self.fetching.entry(digest)
                {
                    e.insert(FetchState {
                        creator,
                        attempts: 0,
                        last: ctx.now(),
                    });
                    ctx.send(
                        self.addr.worker(creator, self.worker_id),
                        NarwhalMsg::BatchRequest {
                            digests: vec![digest],
                        },
                    );
                }
            }
            // Primary-to-primary traffic is never addressed to workers.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::NoExt;
    use nt_crypto::Scheme;
    use nt_network::Effect;
    use nt_network::{MS, SEC};

    type Msg = NarwhalMsg<NoExt>;

    fn setup(n: usize) -> (Committee, AddressBook, Vec<Worker<NoExt>>) {
        let (committee, _) = Committee::deterministic(n, 1, Scheme::Insecure);
        let addr = AddressBook::new(n, 1);
        let workers = (0..n as u32)
            .map(|v| {
                crate::node::NodeBuilder::new(committee.clone(), v)
                    .config(NarwhalConfig::with_load(10_000.0))
                    .build_worker(WorkerId(0))
            })
            .collect();
        (committee, addr, workers)
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

    #[test]
    fn synthetic_seal_broadcasts_batch() {
        let (_, _, mut workers) = setup(4);
        let mut ctx = Context::new(200 * MS, 4);
        workers[0].on_timer(TAG_SEAL, &mut ctx);
        let out = sends(ctx.drain());
        let batches: Vec<&Msg> = out
            .iter()
            .map(|(_, m)| m)
            .filter(|m| matches!(m, NarwhalMsg::Batch(_)))
            .collect();
        assert_eq!(batches.len(), 3, "batch goes to the 3 peer workers");
    }

    #[test]
    fn quorum_of_acks_reports_to_primary() {
        let (_, addr, mut workers) = setup(4);
        let mut ctx = Context::new(200 * MS, addr.worker(ValidatorId(0), WorkerId(0)));
        workers[0].on_timer(TAG_SEAL, &mut ctx);
        let digest = sends(ctx.drain())
            .into_iter()
            .find_map(|(_, m)| match m {
                NarwhalMsg::Batch(b) => Some(b.digest()),
                _ => None,
            })
            .expect("batch sent");

        // First ack (self + 1 = 2 of 3): no report yet.
        let mut ctx = Context::new(210 * MS, 4);
        workers[0].on_message(
            5,
            NarwhalMsg::BatchAck {
                digest,
                voter: ValidatorId(1),
            },
            &mut ctx,
        );
        assert!(sends(ctx.drain()).is_empty());

        // Second ack completes the quorum: report to own primary.
        let mut ctx = Context::new(220 * MS, 4);
        workers[0].on_message(
            6,
            NarwhalMsg::BatchAck {
                digest,
                voter: ValidatorId(2),
            },
            &mut ctx,
        );
        let out = sends(ctx.drain());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, addr.primary(ValidatorId(0)));
        match &out[0].1 {
            NarwhalMsg::ReportBatch(info) => {
                assert_eq!(info.digest, digest);
                assert_eq!(info.creator, ValidatorId(0));
                assert!(info.tx_count > 0);
            }
            other => panic!("expected report, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_acks_do_not_double_count() {
        let (_, _, mut workers) = setup(4);
        let mut ctx = Context::new(200 * MS, 4);
        workers[0].on_timer(TAG_SEAL, &mut ctx);
        let digest = sends(ctx.drain())
            .into_iter()
            .find_map(|(_, m)| match m {
                NarwhalMsg::Batch(b) => Some(b.digest()),
                _ => None,
            })
            .unwrap();
        for _ in 0..3 {
            let mut ctx = Context::new(210 * MS, 4);
            workers[0].on_message(
                5,
                NarwhalMsg::BatchAck {
                    digest,
                    voter: ValidatorId(1),
                },
                &mut ctx,
            );
            assert!(
                sends(ctx.drain()).is_empty(),
                "same voter never completes a quorum"
            );
        }
    }

    #[test]
    fn peer_batch_stored_acked_and_reported() {
        let (_, addr, mut workers) = setup(4);
        let batch = Batch::synthetic(ValidatorId(1), WorkerId(0), 9, 100, 51_200, vec![]);
        let sender = addr.worker(ValidatorId(1), WorkerId(0));
        let mut ctx = Context::new(0, addr.worker(ValidatorId(0), WorkerId(0)));
        workers[0].on_message(sender, NarwhalMsg::Batch(batch.clone()), &mut ctx);
        let out = sends(ctx.drain());
        assert_eq!(out.len(), 2);
        assert!(matches!(
            &out[0],
            (node, NarwhalMsg::BatchAck { voter, .. })
                if *node == sender && *voter == ValidatorId(0)
        ));
        assert!(matches!(
            &out[1],
            (node, NarwhalMsg::ReportBatch(info))
                if *node == addr.primary(ValidatorId(0)) && info.creator == ValidatorId(1)
        ));
        assert_eq!(workers[0].stored_batches(), 1);
    }

    #[test]
    fn batch_request_served_from_store() {
        let (_, addr, mut workers) = setup(4);
        let batch = Batch::synthetic(ValidatorId(1), WorkerId(0), 9, 100, 51_200, vec![]);
        let digest = batch.digest();
        let mut ctx = Context::new(0, 4);
        workers[0].on_message(5, NarwhalMsg::Batch(batch), &mut ctx);
        ctx.drain();

        let requester = addr.worker(ValidatorId(2), WorkerId(0));
        let mut ctx = Context::new(0, 4);
        workers[0].on_message(
            requester,
            NarwhalMsg::BatchRequest {
                digests: vec![digest, Digest::of(b"unknown")],
            },
            &mut ctx,
        );
        let out = sends(ctx.drain());
        assert_eq!(out.len(), 1);
        match &out[0].1 {
            NarwhalMsg::BatchResponse { batches } => {
                assert_eq!(batches.len(), 1, "only the known batch is returned");
                assert_eq!(batches[0].digest(), digest);
            }
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn fetch_batch_pulls_from_creator() {
        let (_, addr, mut workers) = setup(4);
        let digest = Digest::of(b"missing");
        let mut ctx = Context::new(0, 4);
        workers[0].on_message(
            addr.primary(ValidatorId(0)),
            NarwhalMsg::FetchBatch {
                digest,
                worker: WorkerId(0),
                creator: ValidatorId(2),
            },
            &mut ctx,
        );
        let out = sends(ctx.drain());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, addr.worker(ValidatorId(2), WorkerId(0)));
        assert!(matches!(&out[0].1, NarwhalMsg::BatchRequest { digests } if digests[0] == digest));
    }

    #[test]
    fn retry_timer_resends_unacked_batches_to_non_ackers() {
        let (_, addr, mut workers) = setup(4);
        // Seal a batch (goes to 3 peers, awaiting 2f+1 = 3 acks incl self).
        let mut ctx = Context::new(200 * MS, 4);
        workers[0].on_timer(TAG_SEAL, &mut ctx);
        let digest = sends(ctx.drain())
            .into_iter()
            .find_map(|(_, m)| match m {
                NarwhalMsg::Batch(b) => Some(b.digest()),
                _ => None,
            })
            .unwrap();
        // One ack arrives (validator 1); validators 2 and 3 are silent.
        let mut ctx = Context::new(250 * MS, 4);
        workers[0].on_message(
            5,
            NarwhalMsg::BatchAck {
                digest,
                voter: ValidatorId(1),
            },
            &mut ctx,
        );
        ctx.drain();
        // After the resend delay, the retry timer re-sends to 2 and 3 only.
        let resend_at = 200 * MS + NarwhalConfig::default().resend_delay + MS;
        let mut ctx = Context::new(resend_at, 4);
        workers[0].on_timer(TAG_RETRY, &mut ctx);
        let targets: Vec<NodeId> = sends(ctx.drain())
            .into_iter()
            .filter(|(_, m)| matches!(m, NarwhalMsg::Batch(_)))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(
            targets,
            vec![
                addr.worker(ValidatorId(2), WorkerId(0)),
                addr.worker(ValidatorId(3), WorkerId(0)),
            ],
            "only non-ackers are retried"
        );
    }

    #[test]
    fn fetch_retries_rotate_targets() {
        let (_, addr, mut workers) = setup(4);
        let digest = Digest::of(b"gone");
        let mut ctx = Context::new(0, 4);
        workers[0].on_message(
            addr.primary(ValidatorId(0)),
            NarwhalMsg::FetchBatch {
                digest,
                worker: WorkerId(0),
                creator: ValidatorId(2),
            },
            &mut ctx,
        );
        let first: Vec<NodeId> = sends(ctx.drain()).into_iter().map(|(to, _)| to).collect();
        assert_eq!(first, vec![addr.worker(ValidatorId(2), WorkerId(0))]);
        // Repeated retry timers hit different validators (§4.1: asking "a
        // handful of validators" succeeds with overwhelming probability).
        let mut seen = std::collections::HashSet::new();
        let retry = NarwhalConfig::default().sync_retry_delay;
        for k in 1..=3u64 {
            let mut ctx = Context::new(k * (retry + MS), 4);
            workers[0].on_timer(TAG_RETRY, &mut ctx);
            for (to, msg) in sends(ctx.drain()) {
                if matches!(msg, NarwhalMsg::BatchRequest { .. }) {
                    seen.insert(to);
                }
            }
        }
        assert!(seen.len() >= 2, "retries rotate over peers: {seen:?}");
    }

    #[test]
    fn restarted_worker_recovers_batches_and_sequence() {
        use nt_storage::MemStore;
        use std::sync::Arc;
        let (committee, addr, _) = setup(4);
        let backend: nt_storage::DynStore = Arc::new(MemStore::new());
        let mut worker: Worker<NoExt> = crate::node::NodeBuilder::new(committee.clone(), 0)
            .config(NarwhalConfig::with_load(10_000.0))
            .store(backend.clone())
            .build_worker(WorkerId(0));
        // A peer batch is persisted before it is acknowledged.
        let peer_batch = Batch::synthetic(ValidatorId(1), WorkerId(0), 9, 100, 51_200, vec![]);
        let mut ctx = Context::new(0, 4);
        worker.on_message(5, NarwhalMsg::Batch(peer_batch.clone()), &mut ctx);
        ctx.drain();
        // An own batch is persisted once its ack quorum forms.
        let mut ctx = Context::new(200 * MS, 4);
        worker.on_timer(TAG_SEAL, &mut ctx);
        let own_digest = sends(ctx.drain())
            .into_iter()
            .find_map(|(_, m)| match m {
                NarwhalMsg::Batch(b) => Some(b.digest()),
                _ => None,
            })
            .unwrap();
        for voter in [1u32, 2] {
            let mut ctx = Context::new(210 * MS, 4);
            worker.on_message(
                5,
                NarwhalMsg::BatchAck {
                    digest: own_digest,
                    voter: ValidatorId(voter),
                },
                &mut ctx,
            );
            ctx.drain();
        }
        let own_seq = worker.seq;
        assert!(own_seq >= 1);

        // Crash; a fresh incarnation recovers both batches and re-reports.
        let mut revived: Worker<NoExt> = crate::node::NodeBuilder::new(committee, 0)
            .config(NarwhalConfig::with_load(10_000.0))
            .store(backend)
            .build_worker(WorkerId(0));
        let mut ctx = Context::new(SEC, 4);
        revived.on_start(&mut ctx);
        assert_eq!(revived.stored_batches(), 2, "both batches recovered");
        assert_eq!(
            revived.seq, own_seq,
            "batch sequence resumes, no digest reuse"
        );
        let reports: Vec<Digest> = sends(ctx.drain())
            .into_iter()
            .filter_map(|(to, m)| match m {
                NarwhalMsg::ReportBatch(info) if to == addr.primary(ValidatorId(0)) => {
                    Some(info.digest)
                }
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), 2, "recovered batches re-reported");
        assert!(reports.contains(&own_digest));
        assert!(reports.contains(&peer_batch.digest()));
    }

    #[test]
    fn retry_timer_runs_at_the_faster_of_the_two_delays() {
        let (committee, _addr, _) = setup(4);
        // resend_delay shorter than sync_retry_delay: the timer must follow
        // the resend cadence, not quantize it up to the sync interval.
        let config = NarwhalConfig {
            resend_delay: 100 * MS,
            sync_retry_delay: 500 * MS,
            ..NarwhalConfig::with_load(10_000.0)
        };
        let mut worker: Worker<NoExt> = crate::node::NodeBuilder::new(committee, 0)
            .config(config)
            .build_worker(WorkerId(0));
        let mut ctx = Context::new(0, 4);
        worker.on_start(&mut ctx);
        let delays: Vec<Time> = ctx
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                Effect::Timer {
                    delay,
                    tag: TAG_RETRY,
                } => Some(delay),
                _ => None,
            })
            .collect();
        assert_eq!(delays, vec![100 * MS], "retry timer at min(resend, sync)");
    }

    #[test]
    fn fetch_retry_rotation_skips_self() {
        let (_, addr, mut workers) = setup(4);
        // Validator 0 fetches a batch created by validator 3: the rotation
        // (creator + attempts) mod n passes through every slot including
        // our own, which must be skipped — asking ourselves for a batch we
        // do not have can never succeed.
        let digest = Digest::of(b"never self");
        let mut ctx = Context::new(0, 4);
        workers[0].on_message(
            addr.primary(ValidatorId(0)),
            NarwhalMsg::FetchBatch {
                digest,
                worker: WorkerId(0),
                creator: ValidatorId(3),
            },
            &mut ctx,
        );
        ctx.drain();
        let retry = NarwhalConfig::default().sync_retry_delay;
        let own_node = addr.worker(ValidatorId(0), WorkerId(0));
        for k in 1..=8u64 {
            let mut ctx = Context::new(k * (retry + MS), 4);
            workers[0].on_timer(TAG_RETRY, &mut ctx);
            for (to, msg) in sends(ctx.drain()) {
                if matches!(msg, NarwhalMsg::BatchRequest { .. }) {
                    assert_ne!(to, own_node, "attempt {k} targeted ourselves");
                }
            }
        }
    }

    #[test]
    fn real_mode_seals_at_size() {
        let (committee, _addr, _) = setup(4);
        let mut worker: Worker<NoExt> = crate::node::NodeBuilder::new(committee, 0)
            .config(NarwhalConfig {
                batch_bytes: 2_000,
                ..NarwhalConfig::default()
            })
            .build_worker(WorkerId(0));
        let mut sealed = 0;
        for i in 0..8 {
            let mut ctx = Context::new(i, 4);
            worker.on_message(
                nt_network::CLIENT,
                NarwhalMsg::ClientTx(Transaction::filler(i, 0, 512)),
                &mut ctx,
            );
            sealed += sends(ctx.drain())
                .iter()
                .filter(|(_, m)| matches!(m, NarwhalMsg::Batch(_)))
                .count();
        }
        // 8 x 512 B = 2 seals at the 2000 B threshold.
        assert_eq!(sealed / 3, 2, "two batches broadcast to 3 peers each");
    }
}
