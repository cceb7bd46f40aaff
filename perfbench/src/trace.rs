//! The traced run: a benchmark-owned copy of the `nt_runtime` drive loop
//! plus delegating wrappers around the store and the consensus plug-in.
//!
//! Nothing inside the program changes. The copy of the drive loop does
//! what `nt_runtime::drive` does, step for step, and times around the
//! calls it makes: `Node::handle` / `on_timer` by message kind, decode and
//! encode, `Transport::send`, and the wait for the next delivery. It also
//! reads the messages it already holds to stamp each hop of a
//! transaction's path (receive, seal, quorum, header, certificate). The
//! store wrapper stamps ordering (the primary's ordered marker), and the
//! ledger wrapper stamps apply.
//!
//! Counters and busy times only accumulate while [`recording`] is on (the
//! measurement window); stage stamps are kept for the whole run, since a
//! transaction due in the window may be ordered after it closes.

use narwhal::{ConsensusOut, Dag, DagConsensus, NarwhalMsg, NoExt, Node};
use nt_codec::{decode_from_slice, encode_to_vec};
use nt_crypto::{Digest, Hashable};
use nt_network::{Context, Effect, Time, CLIENT};
use nt_runtime::{TimerWheel, Transport};
use nt_storage::{DynStore, Store, StoreError};
use nt_types::{Certificate, Round, ValidatorId};
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sys::{now_ns, own_cpu_ns};

/// Same idle wait as `nt_runtime::drive`.
const IDLE_WAIT: Duration = Duration::from_millis(50);
/// The worker's seal timer tag (`narwhal::worker`).
const WORKER_TAG_SEAL: u64 = 1;

static RECORDING: AtomicBool = AtomicBool::new(false);

/// True while the measurement window is open.
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Opens or closes the measurement window for per-layer counters.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// A call count and the time spent in those calls.
#[derive(Default)]
pub struct Counter {
    count: AtomicU64,
    ns: AtomicU64,
}

impl Counter {
    pub fn add(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Mean microseconds per call of `(count, ns)` totals (0 when no calls).
pub fn mean_us(count: u64, ns: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64 / 1e3
    }
}

// ---------------------------------------------------------------------------
// Store wrapper
// ---------------------------------------------------------------------------

/// Storage counters of one validator's store.
#[derive(Default)]
pub struct StoreStats {
    pub put: Counter,
    pub get: Counter,
    pub delete: Counter,
    pub sync: Counter,
    pub put_bytes: AtomicU64,
    /// `(header digest, ordered at)` from the primary's ordered markers.
    pub ordered: Mutex<Vec<([u8; 32], u64)>>,
}

/// A [`Store`] that delegates every call and times put/get/delete/sync.
pub struct TracedStore {
    inner: DynStore,
    stats: Arc<StoreStats>,
}

impl TracedStore {
    pub fn new(inner: DynStore, stats: Arc<StoreStats>) -> Self {
        TracedStore { inner, stats }
    }
}

impl Store for TracedStore {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let started = Instant::now();
        let result = self.inner.put(key, value);
        if recording() {
            self.stats.put.add(started.elapsed().as_nanos() as u64);
            self.stats
                .put_bytes
                .fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);
        }
        // The ordered marker `o/<header digest>` is written the moment the
        // primary linearizes a block.
        if key.len() == 34 && key.starts_with(b"o/") {
            let digest: [u8; 32] = key[2..].try_into().expect("32 bytes");
            let at = now_ns();
            self.stats
                .ordered
                .lock()
                .expect("ordered")
                .push((digest, at));
        }
        result
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let started = Instant::now();
        let result = self.inner.get(key);
        if recording() {
            self.stats.get.add(started.elapsed().as_nanos() as u64);
        }
        result
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        let started = Instant::now();
        let result = self.inner.delete(key);
        if recording() {
            self.stats.delete.add(started.elapsed().as_nanos() as u64);
        }
        result
    }

    fn contains(&self, key: &[u8]) -> Result<bool, StoreError> {
        self.inner.contains(key)
    }

    fn keys_with_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
        self.inner.keys_with_prefix(prefix)
    }

    fn len(&self) -> Result<usize, StoreError> {
        self.inner.len()
    }

    fn is_empty(&self) -> Result<bool, StoreError> {
        self.inner.is_empty()
    }

    fn sync_barrier(&self) -> Result<(), StoreError> {
        let started = Instant::now();
        let result = self.inner.sync_barrier();
        if recording() {
            self.stats.sync.add(started.elapsed().as_nanos() as u64);
        }
        result
    }

    fn tear_tail(&self, ops: usize) -> Result<usize, StoreError> {
        self.inner.tear_tail(ops)
    }
}

// ---------------------------------------------------------------------------
// Consensus wrapper
// ---------------------------------------------------------------------------

/// A [`DagConsensus`] that delegates every method and times
/// `on_certificate`.
pub struct TracedConsensus<C> {
    inner: C,
    on_certificate: Arc<Counter>,
}

impl<C> TracedConsensus<C> {
    pub fn new(inner: C, on_certificate: Arc<Counter>) -> Self {
        TracedConsensus {
            inner,
            on_certificate,
        }
    }
}

impl<C: DagConsensus> DagConsensus for TracedConsensus<C> {
    type Ext = C::Ext;

    fn on_start(&mut self, out: &mut ConsensusOut<Self::Ext>) {
        self.inner.on_start(out);
    }

    fn on_certificate(&mut self, dag: &Dag, cert: &Certificate, out: &mut ConsensusOut<Self::Ext>) {
        let started = own_cpu_ns();
        self.inner.on_certificate(dag, cert, out);
        if recording() {
            self.on_certificate.add(own_cpu_ns() - started);
        }
    }

    fn on_message(
        &mut self,
        from: ValidatorId,
        msg: Self::Ext,
        dag: &Dag,
        out: &mut ConsensusOut<Self::Ext>,
    ) {
        self.inner.on_message(from, msg, dag, out);
    }

    fn on_timer(&mut self, tag: u64, dag: &Dag, out: &mut ConsensusOut<Self::Ext>) {
        self.inner.on_timer(tag, dag, out);
    }

    fn commit_counts(&self) -> (u64, u64) {
        self.inner.commit_counts()
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &[u8]) {
        self.inner.restore(checkpoint);
    }

    fn anchor_cadence(&self) -> Round {
        self.inner.anchor_cadence()
    }

    fn parent_wishes(&self, dag: &Dag, round: Round) -> Vec<(Round, ValidatorId)> {
        self.inner.parent_wishes(dag, round)
    }

    fn coverage_wishes(
        &self,
        dag: &Dag,
        round: Round,
        me: ValidatorId,
    ) -> Vec<(Round, ValidatorId)> {
        self.inner.coverage_wishes(dag, round, me)
    }
}

// ---------------------------------------------------------------------------
// The traced drive loop
// ---------------------------------------------------------------------------

/// Message kind names used as per-layer keys.
pub fn kind(msg: &NarwhalMsg<NoExt>) -> &'static str {
    match msg {
        NarwhalMsg::Header(_) => "header",
        NarwhalMsg::Vote(_) => "vote",
        NarwhalMsg::Certificate(_) => "cert",
        NarwhalMsg::CertRequest { .. } => "cert_request",
        NarwhalMsg::CertResponse { .. } => "cert_response",
        NarwhalMsg::CertRangeRequest { .. } => "cert_range_request",
        NarwhalMsg::Batch(_) => "batch",
        NarwhalMsg::BatchAck { .. } => "batch_ack",
        NarwhalMsg::BatchRequest { .. } => "batch_request",
        NarwhalMsg::BatchResponse { .. } => "batch_response",
        NarwhalMsg::ReportBatch(_) => "report_batch",
        NarwhalMsg::FetchBatch { .. } => "fetch_batch",
        NarwhalMsg::ClientTx(_) => "client_tx",
        NarwhalMsg::Ext(_) => "ext",
        _ => "snapshot",
    }
}

/// Everything one host's driver observed.
#[derive(Default)]
pub struct HostTrace {
    pub validator: u32,
    pub is_worker: bool,
    /// `(calls, ns)` of `handle` by message kind, and of `on_timer` under
    /// `timer.seal` / `timer.other`.
    pub handle: BTreeMap<&'static str, (u64, u64)>,
    pub encode: (u64, u64),
    pub decode: (u64, u64),
    /// `(messages, bytes)` encoded for the transport, by kind.
    pub encoded: BTreeMap<&'static str, (u64, u64)>,
    pub send_ns: u64,
    pub busy_ns: u64,
    pub wait_ns: u64,
    pub sync_requests: u64,
    pub batch_sends: u64,
    pub batches_sealed: u64,
    pub sealed_txs: u64,
    pub dropped_sends: u64,
    /// Own header rounds seen in the window: `(first at, first round)` and
    /// `(last at, last round)`.
    pub rounds: Option<((u64, Round), (u64, Round))>,
    /// Stage stamps (whole run).
    pub tx_recv: Vec<(u64, u64)>,
    pub tx_batch: Vec<(u64, u64)>,
    pub sealed: Vec<(u64, u64)>,
    pub reported: Vec<(u64, [u8; 32], u64)>,
    pub headers: Vec<([u8; 32], Vec<[u8; 32]>, u64)>,
    pub certified: Vec<([u8; 32], u64)>,
    seen_batches: HashSet<u64>,
    seen_reports: HashSet<Digest>,
    last_header_round: Option<Round>,
    last_cert_round: Option<Round>,
}

impl HostTrace {
    fn add_handle(&mut self, kind: &'static str, cpu_ns: u64) {
        if recording() {
            let e = self.handle.entry(kind).or_default();
            e.0 += 1;
            e.1 += cpu_ns;
        }
    }

    /// Stamps a message this host is about to deliver.
    fn tap_in(&mut self, msg: &NarwhalMsg<NoExt>) {
        if let NarwhalMsg::ClientTx(tx) = msg {
            if tx.payload.len() >= 8 {
                let id = u64::from_le_bytes(tx.payload[..8].try_into().expect("8 bytes"));
                self.tx_recv.push((id, now_ns()));
            }
        }
    }

    /// Stamps a message this host's node emitted.
    fn tap_out(&mut self, msg: &NarwhalMsg<NoExt>) {
        let me = ValidatorId(self.validator);
        let on = recording();
        match msg {
            NarwhalMsg::Batch(batch) if batch.creator == me => {
                if on {
                    self.batch_sends += 1;
                }
                // The first sample id is unique per worker and rides in the
                // quorum report too: it links the batch to its digest
                // without re-hashing 500 KB here.
                let Some(key) = batch.samples.first().map(|s| s.id) else {
                    return;
                };
                if self.seen_batches.insert(key) {
                    let at = now_ns();
                    self.sealed.push((key, at));
                    if let nt_types::BatchPayload::Data(txs) = &batch.payload {
                        for tx in txs.iter().filter(|tx| tx.payload.len() >= 8) {
                            let id = u64::from_le_bytes(tx.payload[..8].try_into().expect("8"));
                            self.tx_batch.push((id, key));
                        }
                        if on {
                            self.batches_sealed += 1;
                            self.sealed_txs += txs.len() as u64;
                        }
                    }
                }
            }
            NarwhalMsg::ReportBatch(info) if info.creator == me => {
                if let Some(key) = info.samples.first().map(|s| s.id) {
                    if self.seen_reports.insert(info.digest) {
                        self.reported.push((key, info.digest.0, now_ns()));
                    }
                }
            }
            // Own headers and certificates: the first send of each round.
            NarwhalMsg::Header(header)
                if header.author == me
                    && self.last_header_round.is_none_or(|r| header.round > r) =>
            {
                self.last_header_round = Some(header.round);
                let at = now_ns();
                let payload = header.payload.iter().map(|(d, _)| d.0).collect();
                self.headers.push((header.digest().0, payload, at));
                if on {
                    let first = self.rounds.map_or((at, header.round), |r| r.0);
                    self.rounds = Some((first, (at, header.round)));
                }
            }
            NarwhalMsg::Certificate(cert)
                if cert.origin() == me && self.last_cert_round.is_none_or(|r| cert.round() > r) =>
            {
                self.last_cert_round = Some(cert.round());
                self.certified.push((cert.header_digest().0, now_ns()));
            }
            NarwhalMsg::CertRequest { .. }
            | NarwhalMsg::CertRangeRequest { .. }
            | NarwhalMsg::BatchRequest { .. }
            | NarwhalMsg::FetchBatch { .. }
                if on =>
            {
                self.sync_requests += 1;
            }
            _ => {}
        }
    }
}

/// Handle to a traced driver thread.
pub struct TracedHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<HostTrace>,
}

impl TracedHandle {
    /// Stops the driver and returns what it observed.
    pub fn stop(self) -> HostTrace {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("traced driver panicked")
    }
}

/// The traced counterpart of `nt_runtime::spawn_node`.
pub fn spawn_traced(
    node: Node<NoExt>,
    transport: Transport,
    validator: u32,
    is_worker: bool,
) -> TracedHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let thread = std::thread::spawn(move || {
        let mut trace = HostTrace {
            validator,
            is_worker,
            ..Default::default()
        };
        drive_traced(node, transport, &stop_flag, &mut trace);
        trace
    });
    TracedHandle { stop, thread }
}

/// `nt_runtime::drive`, step for step, with timing around each call.
fn drive_traced(
    mut node: Node<NoExt>,
    transport: Transport,
    stop: &AtomicBool,
    trace: &mut HostTrace,
) {
    let start = Instant::now();
    let now_of = |start: Instant| -> Time { start.elapsed().as_nanos() as Time };
    let mut timers = TimerWheel::new();

    let me = transport.node_id();

    let mut ctx = Context::new(now_of(start), me);
    node.on_start(&mut ctx);
    apply_effects(ctx.drain(), &transport, &mut timers, now_of(start), trace);

    // Transport drops at the window's opening; counted as the difference
    // when it closes (the loop notices within one idle wait).
    let mut dropped_at_open = None;
    while !stop.load(Ordering::SeqCst) {
        match (recording(), dropped_at_open) {
            (true, None) => dropped_at_open = Some(transport.dropped_sends()),
            (false, Some(at)) => {
                trace.dropped_sends += transport.dropped_sends() - at;
                dropped_at_open = None;
            }
            _ => {}
        }

        // Fire everything due.
        let now = now_of(start);
        while let Some(tag) = timers.pop_due(now) {
            let busy = own_cpu_ns();
            let mut ctx = Context::new(now, me);
            node.on_timer(tag, &mut ctx);
            let kind = if trace.is_worker && tag == WORKER_TAG_SEAL {
                "timer.seal"
            } else {
                "timer.other"
            };
            trace.add_handle(kind, own_cpu_ns() - busy);
            apply_effects(ctx.drain(), &transport, &mut timers, now, trace);
            if recording() {
                trace.busy_ns += own_cpu_ns() - busy;
            }
        }

        // Wait for the next delivery or the next deadline.
        let wait = match timers.next_deadline() {
            Some(at) => Duration::from_nanos(at.saturating_sub(now_of(start))).min(IDLE_WAIT),
            None => IDLE_WAIT,
        };
        let waiting = Instant::now();
        let delivered = transport.recv_timeout(wait);
        if recording() {
            trace.wait_ns += waiting.elapsed().as_nanos() as u64;
        }
        if let Some((from, payload)) = delivered {
            let busy = own_cpu_ns();
            let decoded = decode_from_slice::<NarwhalMsg<NoExt>>(&payload);
            if recording() {
                trace.decode.0 += 1;
                trace.decode.1 += own_cpu_ns() - busy;
            }
            let Ok(msg) = decoded else {
                continue;
            };
            let kind = kind(&msg);
            trace.tap_in(&msg);
            let now = now_of(start);
            let mut ctx = Context::new(now, me);
            let started = own_cpu_ns();
            node.handle(from, msg, &mut ctx);
            trace.add_handle(kind, own_cpu_ns() - started);
            apply_effects(ctx.drain(), &transport, &mut timers, now, trace);
            if recording() {
                trace.busy_ns += own_cpu_ns() - busy;
            }
        }
    }
    if let Some(at) = dropped_at_open {
        trace.dropped_sends += transport.dropped_sends() - at;
    }
    transport.shutdown();
}

fn apply_effects(
    effects: Vec<Effect<NarwhalMsg<NoExt>>>,
    transport: &Transport,
    timers: &mut TimerWheel,
    now: Time,
    trace: &mut HostTrace,
) {
    for effect in effects {
        match effect {
            Effect::Send { to, msg } => {
                trace.tap_out(&msg);
                if to != CLIENT {
                    let started = own_cpu_ns();
                    let bytes = encode_to_vec(&msg);
                    let encoded = own_cpu_ns();
                    let len = bytes.len() as u64;
                    transport.send(to, bytes);
                    if recording() {
                        trace.encode.0 += 1;
                        trace.encode.1 += encoded - started;
                        trace.send_ns += own_cpu_ns() - encoded;
                        let e = trace.encoded.entry(kind(&msg)).or_default();
                        e.0 += 1;
                        e.1 += len;
                    }
                }
            }
            Effect::Timer { delay, tag } => timers.arm(now + delay, tag),
            Effect::Commit(_) => {}
            Effect::Cpu { .. } => {}
        }
    }
}
