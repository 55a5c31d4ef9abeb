//! Node slots: the simulation analog of DUPTester's containers.
//!
//! A slot binds a host name (and therefore persistent storage) to a sequence
//! of process *generations*. Upgrading a node replaces the process while the
//! slot — and its storage — persists, exactly like replacing a container that
//! shares a host directory (paper §6.1.1).

use crate::process::{NodeId, Process};
use crate::rng::SimRng;
use crate::storage::HostId;
use std::fmt;

/// Lifecycle state of a node slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeStatus {
    /// Added but never started, or awaiting a scheduled start.
    Idle,
    /// Start scheduled; will transition to `Running` when the start event fires.
    Starting,
    /// Process is live and receiving events.
    Running,
    /// Stopped gracefully by the harness.
    Stopped,
    /// Terminated by a fatal error, a panic, or an injected fault.
    Crashed,
}

impl NodeStatus {
    /// Returns `true` for `Running`.
    pub fn is_running(self) -> bool {
        self == NodeStatus::Running
    }
}

impl fmt::Display for NodeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeStatus::Idle => "idle",
            NodeStatus::Starting => "starting",
            NodeStatus::Running => "running",
            NodeStatus::Stopped => "stopped",
            NodeStatus::Crashed => "crashed",
        };
        f.write_str(s)
    }
}

/// Errors reported by the simulation harness API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An operation referenced a node id that was never added.
    UnknownNode(NodeId),
    /// The operation is invalid in the node's current status.
    BadStatus {
        /// The offending node.
        node: NodeId,
        /// Its status at the time of the call.
        status: NodeStatus,
        /// The operation that was attempted.
        op: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownNode(n) => write!(f, "unknown node {n}"),
            SimError::BadStatus { node, status, op } => {
                write!(f, "cannot {op} node {node} while {status}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One container slot in the simulated cluster.
///
/// The slot stores only the *interned* host id, not the host name: the
/// event loop reaches storage by `Vec` index.
pub(crate) struct NodeSlot {
    pub host: HostId,
    pub version_label: String,
    pub process: Option<Box<dyn Process>>,
    pub status: NodeStatus,
    pub generation: u64,
    pub rng: SimRng,
    pub crash_reason: Option<String>,
}

impl NodeSlot {
    /// A slot with no process, for [`NodeSlot::copy_from`] to fill.
    pub(crate) fn empty() -> Self {
        NodeSlot {
            host: HostId::from_index(0),
            version_label: String::new(),
            process: None,
            status: NodeStatus::Idle,
            generation: 0,
            rng: SimRng::new(0),
            crash_reason: None,
        }
    }

    /// Refuses `op` on `node` while its process is running or starting.
    pub(crate) fn check_down(&self, node: NodeId, op: &'static str) -> Result<(), SimError> {
        match self.status {
            NodeStatus::Running | NodeStatus::Starting => Err(SimError::BadStatus {
                node,
                status: self.status,
                op,
            }),
            _ => Ok(()),
        }
    }

    /// Makes this slot a copy of `src`, reusing its strings and its process
    /// ([`Process::restore_from`]) where it can, else [`Process::fork`]ing
    /// `src`'s. Returns `false` if that process cannot fork.
    pub(crate) fn copy_from(&mut self, src: &NodeSlot) -> bool {
        self.host = src.host;
        self.version_label.clone_from(&src.version_label);
        self.status = src.status;
        self.generation = src.generation;
        self.rng = src.rng.clone();
        self.crash_reason.clone_from(&src.crash_reason);
        let Some(theirs) = src.process.as_deref() else {
            self.process = None;
            return true;
        };
        let reused = self
            .process
            .as_deref_mut()
            .is_some_and(|mine| mine.restore_from(theirs));
        if !reused {
            self.process = theirs.fork();
        }
        self.process.is_some()
    }
}

impl fmt::Debug for NodeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeSlot")
            .field("host", &self.host)
            .field("version", &self.version_label)
            .field("status", &self.status)
            .field("generation", &self.generation)
            .field("crash_reason", &self.crash_reason)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display_and_predicates() {
        assert_eq!(NodeStatus::Running.to_string(), "running");
        assert_eq!(NodeStatus::Crashed.to_string(), "crashed");
        assert!(NodeStatus::Running.is_running());
        assert!(!NodeStatus::Stopped.is_running());
    }
}
