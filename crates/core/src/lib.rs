//! Narwhal: a DAG-based mempool (the paper's primary contribution).
//!
//! Narwhal separates *reliable transaction dissemination* from *ordering*:
//! workers stream batches of transactions between validators at full
//! bandwidth, while primaries build a round-structured DAG of small blocks
//! that reference batch digests and certify each other with `2f + 1`
//! signatures. Consensus then only needs to order certificates; the causal
//! structure of the DAG drags all disseminated data into the total order.
//!
//! Module map (paper section in parentheses):
//!
//! - [`dag`]: the round-based block DAG and its invariants (§2.1, §3.1).
//! - [`primary`]: the primary state machine — proposing blocks, voting,
//!   assembling certificates, advancing rounds (§3.1), the quorum-based
//!   reliable broadcast with pull-based synchronization (§4.1), and
//!   garbage collection with transaction re-injection (§3.3).
//! - [`worker`]: the scale-out worker state machine — batching, streaming,
//!   quorum acknowledgments, and batch fetching (§4.2).
//! - [`consensus`]: the plug-in interface consensus protocols implement to
//!   order the DAG (HotStuff in `nt-hotstuff`).
//! - [`waves`]: the one wave-settlement engine every DAG commit rule runs
//!   on (Tusk and DAG-Rider in the `tusk` crate, Bullshark in the
//!   `bullshark` crate).
//! - [`messages`]: the wire protocol, generic over a consensus extension.
//! - [`store`]: the typed persistent block store (the paper's RocksDB
//!   role), with crash recovery of the DAG.
//! - [`node`]: the [`NodeBuilder`] construction surface, [`build_actors`]
//!   for a whole deployment, and the role-agnostic [`Node`] driver API
//!   (with [`CommitStream`] taps) that the simulator and the real-socket
//!   runtime both program against.
//! - [`deployment`]: host layout shared by the simulator and local runtime.
//! - [`config`]: tunable parameters with the paper's defaults.

pub mod adversary;
pub mod config;
pub mod consensus;
pub mod dag;
pub mod deployment;
pub mod messages;
pub mod node;
pub mod primary;
pub mod store;
#[doc(hidden)]
pub mod test_support;
pub mod waves;
pub mod worker;

pub use adversary::{AdversaryKind, Byzantine, ADVERSARY_TAG_BASE};
pub use config::{NarwhalConfig, SelfTestBugs, SyntheticLoad};
pub use consensus::{ConsensusOut, DagConsensus, NoConsensus, NoExt};
pub use dag::{CertId, Dag, DagView, InsertOutcome};
pub use deployment::AddressBook;
pub use messages::{BatchInfo, NarwhalMsg};
pub use node::{build_actors, CommitStream, Node, NodeBuilder, NodeRole};
pub use primary::Primary;
pub use store::{BlockStore, BlockStoreError};
pub use waves::{CommitRule, Instance, Waves};
pub use worker::Worker;
