//! # dup-simnet — deterministic distributed-system simulation substrate
//!
//! This crate is the simulation analog of the containerized test environment
//! used by DUPTester in *Understanding and Detecting Software Upgrade
//! Failures in Distributed Systems* (SOSP 2021, §6.1.1). It provides:
//!
//! - a millisecond-resolution virtual clock and a deterministic
//!   discrete-event loop ([`Sim`]);
//! - node slots with container-like lifecycle — start, graceful stop, crash,
//!   and *upgrade* (replace the process, keep the host's persistent storage)
//!   ([`Sim::install`]);
//! - per-host persistent storage that outlives process generations
//!   ([`HostStorage`]), reproducing DUPTester's shared host directories;
//! - a simple network model: a base latency plus seeded jitter;
//! - deterministic fault injection, the one way a run breaks the cluster —
//!   seeded per-message drop / duplicate / delay-spike / reorder plus
//!   scheduled partitions and crash-then-restart ([`FaultPlan`],
//!   [`Sim::install_fault_plan`]);
//! - a crash-durability model: writes buffer until an explicit flush, and a
//!   seeded crash materializer drops or tears the unflushed tail on every
//!   crash ([`Durability`], [`Ctx::flush`]), with state-triggered
//!   [`CrashPoint`]s that kill hosts mid-upgrade or between a write and its
//!   flush;
//! - panic containment: a panicking process crashes *its node*, not the
//!   simulation — the analog of a JVM dying inside its container;
//! - captured, queryable logs ([`LogBuffer`]) for the failure oracle;
//! - an allocation-free causal trace recorder ([`Sim::enable_trace`],
//!   [`TraceBuffer`]) whose bounded slices reconstruct the chain of
//!   messages, timers, faults, and crashes behind a violating observation.
//!
//! Everything is deterministic in the root seed, which is what makes
//! Finding 11 of the paper (≈89% of upgrade failures are deterministic)
//! testable: replaying the same seed replays the same failure.
//!
//! # Examples
//!
//! ```
//! use dup_simnet::{Sim, SimDuration, Process, Ctx, StepResult, Endpoint};
//! use bytes::Bytes;
//!
//! struct Echo;
//! impl Process for Echo {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
//!         ctx.info("up");
//!         Ok(())
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, p: &[u8]) -> StepResult {
//!         ctx.send(from, Bytes::copy_from_slice(p));
//!         Ok(())
//!     }
//!     fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) -> StepResult { Ok(()) }
//! }
//!
//! let mut sim = Sim::new(42);
//! let n = sim.add_node("host-0", "v1.0", Box::new(Echo));
//! sim.start_node(n).unwrap();
//! sim.run_for(SimDuration::from_millis(10));
//! let resp = sim.rpc(n, Bytes::from_static(b"hi"), SimDuration::from_secs(1));
//! assert_eq!(resp.as_deref(), Some(&b"hi"[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
mod log;
mod net;
mod node;
mod process;
mod rng;
mod sim;
mod storage;
mod time;
mod trace;

pub use crate::faults::{
    CrashPoint, CrashPointKind, FaultKind, FaultPlan, ScheduledFault, FAULT_CRASH_REASON,
};
pub use crate::log::{LogBuffer, LogLevel, LogMark, LogRecord};
pub use crate::node::NodeStatus;
pub use crate::process::{restore_clone, Ctx, Endpoint, Fatal, NodeId, Process, StepResult};
pub use crate::rng::SimRng;
pub use crate::sim::{ClientHandle, Sim, SimError, SimSnapshot};
pub use crate::storage::{Durability, HostId, HostStorage, StorageMap};
pub use crate::time::{SimDuration, SimTime};
pub use crate::trace::{TraceBuffer, TraceConfig, TraceEvent, TraceEventKind, TraceSlice};
