//! The load generator: one sender thread over at most two client
//! connections, feeding seeded ledger transfers to the committee.
//!
//! Every transaction gets a *due time*. Open loop, it is the slot of the
//! fixed-rate schedule, whether or not the sender made it on time (how late
//! it ran is reported separately); closed loop, it is the moment a window
//! slot was seen free. Latency is always measured from the due time, so a
//! sender that falls behind cannot hide queueing from the result.

use crate::ledger::LedgerProbe;
use crate::sys::now_ns;
use narwhal::{NarwhalMsg, NoExt};
use nt_codec::encode_to_vec;
use nt_execution::transfer_tx;
use nt_runtime::ClientConn;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Transaction size on the wire, as in the paper's evaluation (§7).
pub const TX_BYTES: usize = 512;
/// Accounts the seeded transfers draw from.
pub const ACCOUNTS: u64 = 1024;
/// Most transactions a closed-loop sender pushes before re-reading credit.
const CLOSED_BURST: u64 = 64;

/// How load is offered.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Keep `window` transactions in flight (sent but not yet applied at
    /// validator 0).
    Closed { window: u64 },
    /// Send at a fixed rate, regardless of progress.
    Open { rate_tps: f64 },
}

/// Seeded transfer generator: the seed fixes accounts and amounts.
pub struct TxGen {
    state: u64,
}

impl TxGen {
    pub fn new(seed: u64) -> Self {
        TxGen {
            state: seed ^ 0x6a09_e667_f3bc_c909,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next transfer: `(from, to, amount)`.
    pub fn transfer(&mut self) -> (u16, u16, u32) {
        let from = (self.next_u64() % ACCOUNTS) as u16;
        let to = (self.next_u64() % ACCOUNTS) as u16;
        let amount = 1 + (self.next_u64() % 1000) as u32;
        (from, to, amount)
    }

    /// The encoded client message for the next transfer, as transaction
    /// `id`: a `transfer_tx` layout (`id | from | to | amount`) zero-padded
    /// to [`TX_BYTES`].
    pub fn message(&mut self, id: u64) -> Vec<u8> {
        let (from, to, amount) = self.transfer();
        let mut tx = transfer_tx(id, from, to, amount);
        tx.payload.resize(TX_BYTES, 0);
        encode_to_vec(&NarwhalMsg::<NoExt>::ClientTx(tx))
    }
}

/// What the sender did: transaction `id` (from 1) was due at
/// `due_ns[id - 1]` and left `late_ns[id - 1]` after that.
pub struct SenderReport {
    pub due_ns: Vec<u64>,
    pub late_ns: Vec<u64>,
}

/// Starts the sender; it runs until `stop` is set.
pub fn spawn_sender(
    addrs: &[SocketAddr],
    load: Load,
    seed: u64,
    stop: Arc<AtomicBool>,
    probe: Arc<LedgerProbe>,
) -> io::Result<JoinHandle<io::Result<SenderReport>>> {
    let conns = addrs
        .iter()
        .map(|&a| ClientConn::connect(a))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(std::thread::spawn(move || {
        run_sender(conns, load, seed, &stop, &probe)
    }))
}

fn run_sender(
    mut conns: Vec<ClientConn>,
    load: Load,
    seed: u64,
    stop: &AtomicBool,
    probe: &LedgerProbe,
) -> io::Result<SenderReport> {
    let mut gen = TxGen::new(seed);
    let mut report = SenderReport {
        due_ns: Vec::new(),
        late_ns: Vec::new(),
    };
    let mut send = |report: &mut SenderReport, due: u64| -> io::Result<()> {
        let id = report.due_ns.len() as u64 + 1;
        let msg = gen.message(id);
        let conn = (id as usize) % conns.len();
        conns[conn].send_payload(msg)?;
        report.due_ns.push(due);
        report.late_ns.push(now_ns().saturating_sub(due));
        Ok(())
    };
    match load {
        Load::Open { rate_tps } => {
            let start = now_ns();
            let interval = 1e9 / rate_tps;
            while !stop.load(Ordering::Relaxed) {
                let due = start + (report.due_ns.len() as f64 * interval) as u64;
                let now = now_ns();
                if now < due {
                    std::thread::sleep(Duration::from_nanos((due - now).min(1_000_000)));
                    continue;
                }
                send(&mut report, due)?;
            }
        }
        Load::Closed { window } => {
            while !stop.load(Ordering::Relaxed) {
                let in_flight = (report.due_ns.len() as u64)
                    .saturating_sub(probe.applied_txs.load(Ordering::Relaxed));
                if in_flight >= window {
                    // 1 ms is a handful of transactions against a window of
                    // thousands; polling faster only takes CPU from the
                    // committee.
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let due = now_ns();
                for _ in 0..(window - in_flight).min(CLOSED_BURST) {
                    send(&mut report, due)?;
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_codec::decode_from_slice;

    #[test]
    fn same_seed_same_transactions() {
        let (mut a, mut b, mut c) = (TxGen::new(7), TxGen::new(7), TxGen::new(8));
        let xs: Vec<_> = (1..50).map(|i| a.message(i)).collect();
        let ys: Vec<_> = (1..50).map(|i| b.message(i)).collect();
        let zs: Vec<_> = (1..50).map(|i| c.message(i)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn messages_carry_the_transfer_layout() {
        let bytes = TxGen::new(1).message(42);
        let NarwhalMsg::<NoExt>::ClientTx(tx) = decode_from_slice(&bytes).unwrap() else {
            panic!("not a client transaction");
        };
        assert_eq!(tx.payload.len(), TX_BYTES);
        assert_eq!(u64::from_le_bytes(tx.payload[..8].try_into().unwrap()), 42);
        let amount = u32::from_le_bytes(tx.payload[12..16].try_into().unwrap());
        assert!((1..=1000).contains(&amount));
        assert!(tx.payload[16..].iter().all(|&b| b == 0));
    }
}
