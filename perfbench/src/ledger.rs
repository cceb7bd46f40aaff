//! The benchmark's view of execution: a thin [`Execution`] wrapper around
//! [`LedgerApp`] that reads each applied transaction's id and stamps the
//! time it was applied.
//!
//! A transaction counts as committed when validator 0's engine applies it,
//! so the stamps taken here close the client-side latency measurement on
//! the same clock the sender used for due times.

use crate::load::ACCOUNTS;
use crate::sys::{now_ns, own_cpu_ns};
use crate::trace::{recording, Counter};
use nt_crypto::Digest;
use nt_execution::{BatchData, Execution, ExecutionError, LedgerApp};
use nt_types::{BatchPayload, CommitEvent};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// What one validator's engine reports to the benchmark.
#[derive(Default)]
pub struct LedgerProbe {
    /// Benchmark transactions applied so far (closed-loop credit). A count
    /// only: it publishes no other data, so `Relaxed` suffices.
    pub applied_txs: AtomicU64,
    /// The ledger's `net_total()` after the latest apply.
    pub net_total: AtomicI64,
    /// Committed batches the engine saw only as a digest.
    pub missing_batches: AtomicU64,
    /// `(tx id, applied at)` stamps; filled only when `record` is set.
    stamps: Mutex<Vec<(u64, u64)>>,
    /// Balances of accounts `0..ACCOUNTS` when the engine was dropped;
    /// filled only when `record` is set.
    balances: Mutex<Vec<i64>>,
    record: bool,
    /// Per-layer counters (traced runs only).
    pub apply: Counter,
    pub snapshot: Counter,
    pub txs: AtomicU64,
}

impl LedgerProbe {
    /// A probe; `record` keeps per-transaction apply stamps.
    pub fn new(record: bool) -> Self {
        LedgerProbe {
            record,
            ..Default::default()
        }
    }

    /// Takes the apply stamps gathered so far.
    pub fn take_stamps(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.stamps.lock().expect("stamps"))
    }

    /// The final balances (empty until the engine is dropped).
    pub fn balances(&self) -> Vec<i64> {
        self.balances.lock().expect("balances").clone()
    }
}

/// [`LedgerApp`] behind a probe. Every method delegates; `apply` also reads
/// the ids of the applied transactions.
pub struct ProbedLedger {
    app: LedgerApp,
    probe: std::sync::Arc<LedgerProbe>,
    traced: bool,
}

impl ProbedLedger {
    pub fn new(probe: std::sync::Arc<LedgerProbe>, traced: bool) -> Self {
        ProbedLedger {
            app: LedgerApp::new(),
            probe,
            traced,
        }
    }
}

impl Drop for ProbedLedger {
    /// The node drops its engine when its driver stops: publish the final
    /// balances, which the benchmark checks against the transfers it sent.
    fn drop(&mut self) {
        if self.probe.record {
            *self.probe.balances.lock().expect("balances") =
                (0..ACCOUNTS).map(|a| self.app.balance(a)).collect();
        }
    }
}

impl Execution for ProbedLedger {
    fn apply(&mut self, event: &CommitEvent, batches: &[BatchData]) -> Digest {
        let started = self.traced.then(own_cpu_ns);
        let root = self.app.apply(event, batches);
        let busy = started.map(|started| own_cpu_ns() - started);
        let at = now_ns();
        let mut ids = Vec::new();
        for data in batches {
            match data {
                BatchData::Full(batch) => {
                    if let BatchPayload::Data(txs) = &batch.payload {
                        ids.extend(txs.iter().filter(|tx| tx.payload.len() >= 8).map(|tx| {
                            u64::from_le_bytes(tx.payload[..8].try_into().expect("8 bytes"))
                        }));
                    }
                }
                BatchData::Missing(_) => {
                    self.probe.missing_batches.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if let Some(busy) = busy.filter(|_| recording()) {
            self.probe.apply.add(busy);
            self.probe
                .txs
                .fetch_add(ids.len() as u64, Ordering::Relaxed);
        }
        self.probe
            .net_total
            .store(self.app.net_total(), Ordering::Relaxed);
        if self.probe.record && !ids.is_empty() {
            let mut stamps = self.probe.stamps.lock().expect("stamps");
            stamps.extend(ids.iter().map(|&id| (id, at)));
        }
        self.probe
            .applied_txs
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        root
    }

    fn last_applied(&self) -> u64 {
        self.app.last_applied()
    }

    fn root(&self) -> Digest {
        self.app.root()
    }

    fn snapshot(&self) -> Vec<u8> {
        let started = own_cpu_ns();
        let bytes = self.app.snapshot();
        if self.traced && recording() {
            self.probe.snapshot.add(own_cpu_ns() - started);
        }
        bytes
    }

    fn restore(&mut self, sequence: u64, bytes: &[u8]) -> Result<(), ExecutionError> {
        self.app.restore(sequence, bytes)
    }
}
