//! The process abstraction: what runs "inside a container".
//!
//! A [`Process`] is the versioned software under test. The simulator calls
//! its handlers in response to events; handlers interact with the world only
//! through the [`Ctx`] they are given (sending messages, setting timers,
//! reading and writing host storage, logging). A handler that returns
//! [`Fatal`] — or that panics — crashes the node, which is the simulation
//! analog of a JVM process dying inside its container.

use crate::log::{LogBuffer, LogLevel, LogRecord};
use crate::rng::SimRng;
use crate::storage::HostStorage;
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use std::fmt;

/// Identifier of a node slot in the simulation.
pub type NodeId = u32;

/// A message source or destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// A simulated node.
    Node(NodeId),
    /// An external client (one id per outstanding request issued by the harness).
    Client(u64),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Node(n) => write!(f, "node-{n}"),
            Endpoint::Client(c) => write!(f, "client-{c}"),
        }
    }
}

/// An unrecoverable error raised by a process handler.
///
/// Returning `Fatal` crashes the node: the slot transitions to
/// [`crate::NodeStatus::Crashed`], a FATAL record is logged, and the process
/// state is discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fatal {
    /// Human-readable description (becomes the FATAL log message).
    pub message: String,
}

impl Fatal {
    /// Creates a fatal error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Fatal {
            message: message.into(),
        }
    }
}

impl fmt::Display for Fatal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fatal: {}", self.message)
    }
}

impl std::error::Error for Fatal {}

/// Result type for process handlers.
pub type StepResult = Result<(), Fatal>;

/// Side effects a handler requests; applied by the simulator after the
/// handler returns (so a crashing handler's effects are still delivered,
/// matching real systems where buffers may already have been flushed).
#[derive(Debug)]
pub(crate) enum Effect {
    Send { to: Endpoint, payload: Bytes },
    SetTimer { delay: SimDuration, token: u64 },
}

/// The handler-side view of the simulation world.
///
/// A `Ctx` borrows exactly the per-node state a handler may touch: its host's
/// storage, its RNG stream, the global log buffer, and an effect queue.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) generation: u64,
    pub(crate) storage: &'a mut HostStorage,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) logs: &'a mut LogBuffer,
    pub(crate) effects: &'a mut Vec<Effect>,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's endpoint, for use as a reply address.
    pub fn me(&self) -> Endpoint {
        Endpoint::Node(self.node)
    }

    /// Sends `payload` to `to`; delivery latency follows the network model.
    pub fn send(&mut self, to: Endpoint, payload: Bytes) {
        self.effects.push(Effect::Send { to, payload });
    }

    /// Arms a timer that fires `delay` from now, delivering `token` to
    /// [`Process::on_timer`]. Timers do not survive restarts or upgrades.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.effects.push(Effect::SetTimer { delay, token });
    }

    /// This node's persistent storage (survives restarts and upgrades).
    pub fn storage(&mut self) -> &mut HostStorage {
        self.storage
    }

    /// Read-only view of this node's persistent storage.
    pub fn storage_ref(&self) -> &HostStorage {
        self.storage
    }

    /// Flushes one file to durable storage (the `fsync(2)` analog).
    /// Equivalent to `ctx.storage().flush(path)`; a no-op under
    /// [`crate::Durability::Strict`], where everything is already durable.
    pub fn flush(&mut self, path: &str) {
        self.storage.flush(path);
    }

    /// Flushes every file this host has written (the `sync(2)` analog).
    pub fn flush_all(&mut self) {
        self.storage.flush_all();
    }

    /// This node's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Emits a log record attributed to this node.
    pub fn log(&mut self, level: LogLevel, message: impl Into<String>) {
        self.logs.push(LogRecord {
            time: self.now,
            node: Some(self.node),
            generation: self.generation,
            level,
            message: message.into(),
        });
    }

    /// Shorthand for an INFO record.
    pub fn info(&mut self, message: impl Into<String>) {
        self.log(LogLevel::Info, message);
    }

    /// Shorthand for a WARN record.
    pub fn warn(&mut self, message: impl Into<String>) {
        self.log(LogLevel::Warn, message);
    }

    /// Shorthand for an ERROR record.
    pub fn error(&mut self, message: impl Into<String>) {
        self.log(LogLevel::Error, message);
    }
}

/// The software that runs on a node.
///
/// Implementations are state machines: all I/O goes through the [`Ctx`].
/// Any handler may return [`Fatal`] to crash the node; a panic inside a
/// handler is caught by the simulator and treated identically.
///
/// The `Any` supertrait (and thus `'static`) exists for snapshot-and-fork,
/// which copies a node's in-memory state between a live simulator and a
/// [`crate::SimSnapshot`] in both directions: [`Process::restore_from`]
/// writes `src`'s state into a process of the same concrete type without
/// reallocating it, and [`Process::fork`] is the fallback when there is no
/// such process to write into. Both have no-op defaults, so ordinary
/// (non-snapshotted) processes implement only the three handlers; a
/// `Clone` process implements them as `Some(Box::new(self.clone()))` and
/// [`restore_clone`]`(self, src)`.
pub trait Process: std::any::Any {
    /// Called once when the node starts (fresh start or post-upgrade restart).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult;

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, payload: &[u8]) -> StepResult;

    /// Called when a timer armed by this process generation fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> StepResult;

    /// Called on graceful shutdown (full-stop upgrades stop nodes gracefully);
    /// the default does nothing. Crashes skip this hook.
    fn on_shutdown(&mut self, _ctx: &mut Ctx<'_>) -> StepResult {
        Ok(())
    }

    /// Deep-copies this process for a [`crate::SimSnapshot`]. Returning
    /// `None` (the default) marks the process unsnapshottable, which makes
    /// [`crate::Sim::snapshot_into`] fail soft — callers then fall back to
    /// re-executing from scratch. Snapshot-aware processes implement this as
    /// `Some(Box::new(self.clone()))`.
    fn fork(&self) -> Option<Box<dyn Process>> {
        None
    }

    /// Makes this process a copy of `src` in place, reusing existing heap
    /// capacity where possible. Returns `false` (the default) when the
    /// states are not the same concrete type or in-place copying is
    /// unsupported; the simulator then falls back to `src`'s
    /// [`Process::fork`].
    fn restore_from(&mut self, _src: &dyn Process) -> bool {
        false
    }
}

/// [`Process::restore_from`] for a `Clone` process: `dst.clone_from(src)`
/// when `src` has `dst`'s concrete type, else `false`.
pub fn restore_clone<P: Process + Clone>(dst: &mut P, src: &dyn Process) -> bool {
    let any: &dyn std::any::Any = src;
    any.downcast_ref::<P>()
        .map(|src| dst.clone_from(src))
        .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display() {
        assert_eq!(Endpoint::Node(3).to_string(), "node-3");
        assert_eq!(Endpoint::Client(9).to_string(), "client-9");
    }

    #[test]
    fn fatal_formats_message() {
        let f = Fatal::new("checkpoint missing required field 'id'");
        assert_eq!(
            f.to_string(),
            "fatal: checkpoint missing required field 'id'"
        );
    }

    #[test]
    fn ctx_accumulates_effects() {
        let mut storage = HostStorage::new();
        let mut rng = SimRng::new(1);
        let mut logs = LogBuffer::new();
        let mut effects = Vec::new();
        let mut ctx = Ctx {
            now: SimTime::from_millis(10),
            node: 2,
            generation: 1,
            storage: &mut storage,
            rng: &mut rng,
            logs: &mut logs,
            effects: &mut effects,
        };
        ctx.send(Endpoint::Node(0), Bytes::from_static(b"hi"));
        ctx.set_timer(SimDuration::from_secs(1), 7);
        ctx.info("hello");
        assert_eq!(ctx.me(), Endpoint::Node(2));
        assert_eq!(ctx.now().as_millis(), 10);
        assert_eq!(effects.len(), 2);
        assert_eq!(logs.len(), 1);
    }
}
