//! # dup-coord — a miniature versioned coordination service
//!
//! A ZooKeeper-like 3-node service (leader election with peerEpoch votes,
//! snapshot checkpoints) built as a DUPTester subject. Three releases:
//!
//! | Seeded bug | Pair | Mechanism |
//! |---|---|---|
//! | ZOOKEEPER-1805 | 3.4 → 3.5 rolling | a restarting node receives different `peerEpoch` values from a 3.4 and a 3.5 peer and wedges in election — needs all 3 nodes |
//! | MESOS-3834 shape | 3.5 → 3.6 | the new version requires a `checkpoint_id` field old checkpoints never wrote; every upgraded node crashes on load |
//!
//! The full-stop 3.4 → 3.5 path is a clean control (the wedge needs mixed
//! versions at election time).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod sut;

pub use crate::node::{CoordNode, SNAPSHOT, VOTE};
pub use crate::sut::CoordSystem;
