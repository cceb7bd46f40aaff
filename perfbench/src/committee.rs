//! An in-process committee over real loopback TCP, built only from the
//! program's public surface: `NodeBuilder` nodes (Ed25519), one
//! `WalStore` per validator shared by its primary and worker, `LedgerApp`
//! execution on every primary, and `nt_runtime` transports and drivers.

use crate::ledger::{LedgerProbe, ProbedLedger};
use crate::trace::{
    spawn_traced, Counter, HostTrace, StoreStats, TracedConsensus, TracedHandle, TracedStore,
};
use bullshark::{Bullshark, RoundRobin};
use narwhal::{AddressBook, CommitStream, NarwhalConfig, NoExt, Node, NodeBuilder};
use nt_crypto::Scheme;
use nt_network::NodeId;
use nt_runtime::{spawn_node, DriverHandle, Transport};
use nt_storage::{DynStore, WalStore};
use nt_types::{CommitEvent, Committee as Members, ValidatorId, WorkerId};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Commit-stream buffer per primary; drained every few milliseconds.
const STREAM_CAPACITY: usize = 1 << 16;

/// The consensus plug-in every primary runs.
#[derive(Clone, Copy, Debug)]
pub enum Protocol {
    Tusk,
    /// Bullshark with a round-robin leader schedule.
    Bullshark,
}

/// Shape of a committee.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub n: usize,
    pub protocol: Protocol,
    /// A validator whose hosts are never started (a crash from the start).
    pub down: Option<usize>,
}

enum Driver {
    Plain(DriverHandle),
    Traced(TracedHandle),
}

/// Per-layer counters shared with the traced wrappers.
pub struct Layers {
    pub stores: Vec<Arc<StoreStats>>,
    pub consensus: Vec<Arc<Counter>>,
}

/// A running committee.
pub struct Committee {
    drivers: Vec<Driver>,
    streams: Vec<CommitStream>,
    /// Validators whose hosts run, ascending; validator 0 is always live.
    pub live: Vec<usize>,
    /// Commit events per live primary, in `live` order.
    pub logs: Vec<Vec<CommitEvent>>,
    /// Ledger probes per live primary, in `live` order.
    pub probes: Vec<Arc<LedgerProbe>>,
    /// Worker addresses of validators 0 and 1: where clients send.
    pub client_addrs: Vec<SocketAddr>,
    pub layers: Option<Layers>,
}

/// Reserves `n` distinct loopback ports by binding and dropping listeners.
fn free_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    listeners.iter().map(TcpListener::local_addr).collect()
}

impl Committee {
    /// Starts every live host, with validator `v`'s store under `dir/v.wal`.
    pub fn start(spec: Spec, traced: bool, dir: &Path) -> io::Result<Committee> {
        let n = spec.n;
        let (members, keypairs) = Members::deterministic(n, 1, Scheme::Ed25519);
        let book = AddressBook::new(n, 1);
        let addrs = free_addrs(2 * n)?;
        let hosts: Vec<(NodeId, SocketAddr)> = (0..n)
            .map(|v| (book.primary(ValidatorId(v as u32)), addrs[v]))
            .chain((0..n).map(|v| {
                (
                    book.worker(ValidatorId(v as u32), WorkerId(0)),
                    addrs[n + v],
                )
            }))
            .collect();
        let transport = |id: NodeId, addr: SocketAddr| {
            let peers: Vec<_> = hosts.iter().copied().filter(|&(h, _)| h != id).collect();
            Transport::start(id, addr, &peers)
        };
        let config = NarwhalConfig::default();
        let live: Vec<usize> = (0..n).filter(|&v| Some(v) != spec.down).collect();
        let mut committee = Committee {
            drivers: Vec::new(),
            streams: Vec::new(),
            logs: vec![Vec::new(); live.len()],
            probes: Vec::new(),
            client_addrs: vec![addrs[n], addrs[n + 1]],
            layers: traced.then(|| Layers {
                stores: Vec::new(),
                consensus: Vec::new(),
            }),
            live,
        };
        let mut hosts_ready = Vec::new();
        for &v in &committee.live.clone() {
            let me = ValidatorId(v as u32);
            let wal: DynStore = Arc::new(
                WalStore::open(dir.join(format!("{v}.wal")))
                    .map_err(|e| io::Error::other(format!("{e:?}")))?,
            );
            let store: DynStore = match &mut committee.layers {
                Some(layers) => {
                    let stats = Arc::new(StoreStats::default());
                    layers.stores.push(stats.clone());
                    Arc::new(TracedStore::new(wal, stats))
                }
                None => wal,
            };
            let probe = Arc::new(LedgerProbe::new(v == 0));
            committee.probes.push(probe.clone());
            let builder = NodeBuilder::new(members.clone(), v as u32)
                .config(config.clone())
                .keypair(keypairs[v].clone())
                .store(store.clone())
                .execution(Box::new(ProbedLedger::new(probe, traced)));
            let on_certificate = committee.layers.as_mut().map(|layers| {
                let counter = Arc::new(Counter::default());
                layers.consensus.push(counter.clone());
                counter
            });
            let mut primary = build_primary(builder, spec.protocol, &members, on_certificate);
            committee
                .streams
                .push(primary.subscribe_commits(STREAM_CAPACITY));
            let worker = NodeBuilder::new(members.clone(), v as u32)
                .config(config.clone())
                .store(store)
                .worker_node::<NoExt>(WorkerId(0));
            let primary_id = book.primary(me);
            let worker_id = book.worker(me, WorkerId(0));
            hosts_ready.push((primary, transport(primary_id, addrs[v])?, v, false));
            hosts_ready.push((worker, transport(worker_id, addrs[n + v])?, v, true));
        }
        // Every listener is bound before any node starts sending, so first
        // messages find their peers instead of racing their start-up.
        for (node, transport, v, worker) in hosts_ready {
            committee
                .drivers
                .push(spawn(node, transport, v, worker, traced));
        }
        Ok(committee)
    }

    /// Moves buffered commit events into `logs`.
    pub fn poll(&mut self) {
        for (log, stream) in self.logs.iter_mut().zip(&self.streams) {
            log.extend(stream.drain());
        }
    }

    /// Waits until every live primary has emitted a commit.
    pub fn wait_first_commits(&mut self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            self.poll();
            if self.logs.iter().all(|log| !log.is_empty()) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("committee did not commit in time"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Commit events dropped because a stream lagged (must stay 0).
    pub fn stream_drops(&self) -> u64 {
        self.streams.iter().map(CommitStream::dropped).sum()
    }

    /// Stops every driver (joining its threads); returns the complete
    /// commit logs and what the traced drivers observed.
    pub fn stop(mut self) -> (Vec<Vec<CommitEvent>>, Vec<HostTrace>) {
        let mut traces = Vec::new();
        for driver in std::mem::take(&mut self.drivers) {
            match driver {
                Driver::Plain(handle) => handle.stop(),
                Driver::Traced(handle) => traces.push(handle.stop()),
            }
        }
        self.poll();
        (std::mem::take(&mut self.logs), traces)
    }
}

fn build_primary(
    builder: NodeBuilder,
    protocol: Protocol,
    members: &Members,
    on_certificate: Option<Arc<Counter>>,
) -> Node<NoExt> {
    let tusk = || tusk::Tusk::new(members.clone(), 0);
    let bullshark = || Bullshark::new(members.clone(), RoundRobin::new(members));
    match (protocol, on_certificate) {
        (Protocol::Tusk, None) => builder.primary_node(tusk()),
        (Protocol::Tusk, Some(c)) => builder.primary_node(TracedConsensus::new(tusk(), c)),
        (Protocol::Bullshark, None) => builder.primary_node(bullshark()),
        (Protocol::Bullshark, Some(c)) => {
            builder.primary_node(TracedConsensus::new(bullshark(), c))
        }
    }
}

fn spawn(node: Node<NoExt>, transport: Transport, v: usize, worker: bool, traced: bool) -> Driver {
    if traced {
        Driver::Traced(spawn_traced(node, transport, v as u32, worker))
    } else {
        Driver::Plain(spawn_node(node, transport))
    }
}

/// A new directory for one committee's stores.
pub fn fresh_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
