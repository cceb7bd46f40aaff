//! Tusk: zero-message-overhead asynchronous consensus over Narwhal (§5).
//!
//! Tusk interprets the locally observed DAG: validators divide rounds into
//! *waves* of three rounds, elect one leader block per wave in retrospect
//! using a shared random coin carried inside ordinary blocks, commit the
//! leader when `f + 1` second-round blocks reference it, and recursively
//! order skipped leaders along DAG paths. No messages beyond Narwhal's are
//! ever sent.
//!
//! The crate also contains [`DagRider`], the 4-round-wave protocol Tusk
//! improves on (§8.2): the paper predicts Tusk commits each block in ~4.5
//! rounds in the common case versus ~5.5 for DAG-Rider, which the
//! `ablation_dag_rider` bench reproduces. The paper's claim that DAG-Rider
//! takes "less than 200 LOC" over Narwhal holds with room to spare: both
//! protocols are small commit rules ([`TuskRule`], [`DagRiderRule`]) over
//! the [`narwhal::Waves`] settlement engine that Bullshark runs on too.

pub mod tusk;

pub use tusk::{DagRider, DagRiderRule, Tusk, TuskRule};

/// The wire message type of a Tusk deployment (no consensus extension).
pub type TuskMsg = narwhal::NarwhalMsg<narwhal::NoExt>;
