//! Bullshark: partially-synchronous consensus over the Narwhal DAG.
//!
//! The paper positions Narwhal as a mempool *any* consensus can order over
//! (§3.2, Figure 3); this crate exercises that boundary with the protocol
//! the Narwhal lineage converged on in production. Bullshark is one of
//! three commit rules over the shared [`narwhal::Waves`] engine (Tusk and
//! DAG-Rider, in the `tusk` crate, are the others): [`BullsharkRule`]
//! supplies predefined leaders, the `2f + 1` direct-commit test and the
//! wish hooks. [`Bullshark`] keeps fixed two-round waves, and
//! [`PipelinedBullshark`] re-bases one round after each commit
//! (Shoal-style pipelining: an anchor candidate every round).
//!
//! Two schedules ship with the crate: [`RoundRobin`] (the paper baseline)
//! and [`Reputation`], a Shoal-style standing that rotates leadership over
//! the best-behaved `n - f` validators so crashed leaders stop costing a
//! skipped wave per rotation turn.
//!
//! Like Tusk, Bullshark sends no messages of its own (`Ext = NoExt`), and
//! the `ablation_bullshark` bench compares the protocols on identical
//! deployments assembled with [`narwhal::build_actors`].

pub mod bullshark;
pub mod schedule;

pub use bullshark::{Bullshark, BullsharkRule, PipelinedBullshark};
pub use schedule::{LeaderSchedule, Reputation, RoundRobin};
