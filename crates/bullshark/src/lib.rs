//! Bullshark: partially-synchronous consensus over the Narwhal DAG.
//!
//! The paper positions Narwhal as a mempool *any* consensus can order over
//! (§3.2, Figure 3); this crate exercises that boundary with the protocol
//! the Narwhal lineage converged on in production: partially-synchronous
//! Bullshark. Waves are two rounds instead of Tusk's three, leaders are
//! predefined by a [`LeaderSchedule`] instead of a retrospective coin, and
//! a leader commits the moment `2f + 1` next-round blocks reference it —
//! cutting the common-case commit point from ~4.5 rounds to 2 while
//! reusing the DAG, the garbage collector, and the primary unchanged.
//!
//! One engine, [`Bullshark`], covers both anchor layouts:
//! [`Bullshark::new`] keeps fixed two-round waves, and
//! [`Bullshark::pipelined`] re-bases one round after each commit
//! (Shoal-style pipelining: an anchor candidate every round).
//!
//! Two schedules ship with the crate: [`RoundRobin`] (the paper baseline)
//! and [`Reputation`], a Shoal-style standing that rotates leadership over
//! the best-behaved `n - f` validators so crashed leaders stop costing a
//! skipped wave per rotation turn.
//!
//! Like Tusk, Bullshark here sends no messages of its own
//! (`Ext = NoExt`): it is a pure interpretation of the locally observed
//! DAG, and the `ablation_bullshark` bench compares the protocols on
//! identical deployments. Deployments are assembled with
//! [`narwhal::build_actors`].

pub mod bullshark;
pub mod schedule;

pub use bullshark::Bullshark;
pub use schedule::{LeaderSchedule, Reputation, RoundRobin};
