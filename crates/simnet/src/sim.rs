//! The discrete-event simulator.
//!
//! [`Sim`] owns the clock, the event queue, the node slots, the network, the
//! per-host persistent storage, and the captured logs. All execution is
//! deterministic in the seed: events are ordered by `(time, sequence)` and all
//! randomness is drawn from split streams of one root RNG.
//!
//! One private `Sim::copy_from` copies that state into retained capacity; it
//! is all of [`Sim::reset`] (copy a fresh `Sim`), [`Sim::snapshot_into`]
//! (copy into a [`SimSnapshot`], a `Sim` that is never stepped) and
//! [`Sim::restore`] (copy back out).

use crate::faults::{
    CrashPointKind, FaultKind, FaultPlan, FaultState, MessageFate, FAULT_CRASH_REASON,
};
use crate::log::{LogBuffer, LogLevel, LogRecord};
use crate::net::Network;
use crate::node::{NodeSlot, NodeStatus};
use crate::process::{Ctx, Effect, Endpoint, NodeId, Process};
use crate::rng::SimRng;
use crate::storage::{HostId, HostStorage, StorageMap};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceBuffer, TraceConfig, TraceEventKind};
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Handle to the responses of one client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientHandle(u64);

#[derive(Debug, Clone)]
enum EventKind {
    Start {
        node: NodeId,
        generation: u64,
    },
    Deliver {
        from: Endpoint,
        to: Endpoint,
        payload: Bytes,
    },
    Timer {
        node: NodeId,
        generation: u64,
        token: u64,
    },
    /// A scheduled fault action: an index into the installed plan's actions,
    /// tagged with the plan epoch so events from a replaced plan are inert.
    Fault {
        action: usize,
        epoch: u64,
    },
    /// A due restart after a crash-point crash: re-queues the node for the
    /// harness if it is still fault-crashed. Epoch-tagged like `Fault`.
    PointRestart {
        node: NodeId,
        epoch: u64,
    },
}

#[derive(Clone)]
struct QueuedEvent {
    time: SimTime,
    seq: u64,
    /// Trace id of the event whose processing enqueued this one (0 when
    /// tracing is disabled or the enqueue was a harness root action).
    cause: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A resumable snapshot of a [`Sim`]'s complete logical state: a simulator
/// that is never stepped, written by [`Sim::snapshot_into`] and read by
/// [`Sim::restore`]. Both directions copy into retained capacity, so in
/// steady state neither touches the allocator: a campaign runner executes a
/// shared case prefix once, snapshots it, and forks many seed-divergent
/// suffixes off it at ~the cost of a `memcpy`.
pub struct SimSnapshot(Sim);

impl Default for SimSnapshot {
    fn default() -> Self {
        SimSnapshot(Sim::new(0))
    }
}

impl SimSnapshot {
    /// Creates an empty snapshot buffer for use with [`Sim::snapshot_into`].
    pub fn new() -> Self {
        Self::default()
    }
}

impl fmt::Debug for SimSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSnapshot")
            .field("now", &self.0.now)
            .field("nodes", &self.0.nodes.len())
            .field("queued_events", &self.0.queue.len())
            .finish_non_exhaustive()
    }
}

/// The simulated world.
pub struct Sim {
    seed: u64,
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    nodes: Vec<NodeSlot>,
    storage: StorageMap,
    /// The network model: latency, and the partitions the fault plan cuts.
    net: Network,
    logs: LogBuffer,
    net_rng: SimRng,
    /// Client inboxes, a slab indexed by client id: [`Sim::client_send`]
    /// assigns ids densely, so the id *is* the index. `VecDeque` makes
    /// [`Sim::poll_response`] a pointer bump instead of a `Vec::remove(0)`
    /// shift, and the slab spares [`Sim::rpc`] a tree lookup per poll. The
    /// slab may hold more (empty) slots than `clients` after a
    /// [`Sim::reset`]: slots are retained for reuse and re-issued in order.
    client_inbox: Vec<VecDeque<Bytes>>,
    /// Number of client ids issued so far — the live prefix of
    /// `client_inbox`. Slots at or past this index are warm spares; they
    /// must be invisible (a fresh simulator would not have them).
    clients: usize,
    events_processed: u64,
    messages_delivered: u64,
    /// The node-to-node share of `messages_delivered`: client requests and
    /// replies never move it.
    cluster_messages_delivered: u64,
    /// Scratch buffer for the per-dispatch effect queue, recycled across
    /// dispatches so steady-state dispatch performs no heap allocation.
    effects_pool: Vec<Effect>,
    /// Active fault-injection state, if a plan was installed.
    faults: Option<FaultState>,
    /// Fault state parked by [`Sim::reset`]; the next
    /// [`Sim::install_fault_plan`] recycles its allocations.
    fault_pool: Option<FaultState>,
    /// Incremented per [`Sim::install_fault_plan`]; stamps `Fault` events so
    /// a replaced plan's leftover events do nothing.
    fault_epoch: u64,
    /// Nodes crashed by the plan whose scheduled restart has come due. The
    /// harness drains this via [`Sim::take_pending_restart`] and decides what
    /// process to install (the simulator cannot spawn processes itself).
    pending_restarts: VecDeque<NodeId>,
    /// Remaining event budget, if one was set: the watchdog against
    /// non-terminating cases. At zero, [`Sim::step`] refuses to run and
    /// [`Sim::peek_time`] reports no pending events.
    event_budget: Option<u64>,
    /// The causal trace recorder, if [`Sim::enable_trace`] was called. The
    /// hot path pays one branch per record site when disabled.
    trace: Option<TraceBuffer>,
    /// Trace ring parked by [`Sim::reset`]; the next [`Sim::enable_trace`]
    /// with the same (normalized) config recycles it instead of allocating.
    trace_pool: Option<TraceBuffer>,
    /// Trace id of the event currently being processed: the causal parent
    /// for everything the running handler produces. 0 while tracing is off.
    trace_ctx: u64,
}

impl Sim {
    /// Creates an empty simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let root = SimRng::new(seed);
        Sim {
            seed,
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            storage: StorageMap::new(),
            net: Network::default(),
            logs: LogBuffer::new(),
            net_rng: root.split(u64::MAX),
            client_inbox: Vec::new(),
            clients: 0,
            events_processed: 0,
            messages_delivered: 0,
            cluster_messages_delivered: 0,
            effects_pool: Vec::new(),
            faults: None,
            fault_pool: None,
            fault_epoch: 0,
            pending_restarts: VecDeque::new(),
            event_budget: None,
            trace: None,
            trace_pool: None,
            trace_ctx: 0,
        }
    }

    /// Arena-style reset: returns the simulator to the state `Sim::new(seed)`
    /// would produce — it copies one (`Sim::copy_from`) — but keeps every
    /// pooled allocation: the event queue, storage and inbox slabs, the
    /// effect scratch buffer, and (parked for the next
    /// [`Sim::install_fault_plan`] / [`Sim::enable_trace`]) the fault state
    /// and trace ring. In steady state this touches the allocator zero
    /// times, which is what makes warm per-worker simulators cheaper than
    /// constructing a fresh `Sim` per case.
    pub fn reset(&mut self, seed: u64) {
        self.copy_from(&Sim::new(seed));
    }

    // ----- snapshot & fork --------------------------------------------------

    /// Captures the simulator's complete logical state into a fresh
    /// [`SimSnapshot`]. Returns `None` if any live process does not support
    /// [`Process::fork`] — snapshotting is opt-in per process type.
    ///
    /// For repeated captures, allocate the buffer once and use
    /// [`Sim::snapshot_into`], which reuses its capacity.
    pub fn snapshot(&self) -> Option<SimSnapshot> {
        let mut snap = SimSnapshot::new();
        self.snapshot_into(&mut snap).then_some(snap)
    }

    /// Captures the simulator's state into a pooled snapshot buffer
    /// (`Sim::copy_from` into the snapshot), overwriting whatever it held.
    /// Returns `false` (leaving the buffer's contents unspecified) if any
    /// live process does not support [`Process::fork`]. In steady state —
    /// re-capturing a similarly shaped world into a warm buffer — this
    /// performs no heap allocation.
    pub fn snapshot_into(&self, snap: &mut SimSnapshot) -> bool {
        snap.0.copy_from(self)
    }

    /// Restores the simulator to the exact state captured in `snap`
    /// (`Sim::copy_from` out of the snapshot), reusing every retained
    /// allocation: the simulator continues exactly as the one that produced
    /// `snap` did from the capture point. In steady state — restoring the
    /// same snapshot into the same warm simulator repeatedly, as the
    /// campaign runner does per seed — this performs no heap allocation.
    pub fn restore(&mut self, snap: &SimSnapshot) {
        let forked = self.copy_from(&snap.0);
        debug_assert!(forked, "a captured snapshot holds forkable processes");
    }

    /// Makes this simulator a copy of `src`'s complete logical state,
    /// writing into retained capacity: the one copy behind [`Sim::reset`],
    /// [`Sim::snapshot_into`] and [`Sim::restore`]. Returns `false`, with
    /// the copy unfinished, if a live process of `src` cannot
    /// [`Process::fork`].
    ///
    /// The copy-equals-source contract: afterwards every observable —
    /// event order, RNG streams, host-id assignment, client handles,
    /// storage, logs, counters, trace slices — is byte-identical to `src`
    /// driven the same way. `src` is destructured below, so a new `Sim`
    /// field does not compile until it is copied here or named a pool:
    /// `effects_pool`, the parked `fault_pool`/`trace_pool` and inbox slots
    /// past `clients` hold allocations, never state.
    fn copy_from(&mut self, src: &Sim) -> bool {
        let Sim {
            seed,
            now,
            seq,
            queue,
            nodes,
            storage,
            net,
            logs,
            net_rng,
            client_inbox,
            clients,
            events_processed,
            messages_delivered,
            cluster_messages_delivered,
            effects_pool: _,
            faults,
            fault_pool: _,
            fault_epoch,
            pending_restarts,
            event_budget,
            trace,
            trace_pool: _,
            trace_ctx,
        } = src;
        self.seed = *seed;
        self.now = *now;
        self.seq = *seq;
        // An element-wise copy of the same valid heap array; pop order is
        // total on the unique (time, seq) key anyway.
        self.queue.clone_from(queue);
        self.storage.copy_from(storage);
        self.net.copy_from(net);
        self.logs.copy_from(logs);
        self.net_rng = net_rng.clone();
        // Only the issued prefix is state. Slots past it become warm spares
        // that must read empty when their ids are re-issued.
        if self.client_inbox.len() < *clients {
            self.client_inbox.resize_with(*clients, VecDeque::new);
        }
        let (live, spare) = self.client_inbox.split_at_mut(*clients);
        for (dst, src) in live.iter_mut().zip(client_inbox) {
            dst.clone_from(src);
        }
        spare.iter_mut().for_each(VecDeque::clear);
        self.clients = *clients;
        self.events_processed = *events_processed;
        self.messages_delivered = *messages_delivered;
        self.cluster_messages_delivered = *cluster_messages_delivered;
        copy_pooled(
            &mut self.faults,
            &mut self.fault_pool,
            faults.as_ref(),
            FaultState::copy_from,
        );
        self.fault_epoch = *fault_epoch;
        self.pending_restarts.clone_from(pending_restarts);
        self.event_budget = *event_budget;
        copy_pooled(
            &mut self.trace,
            &mut self.trace_pool,
            trace.as_ref(),
            TraceBuffer::copy_from,
        );
        self.trace_ctx = *trace_ctx;
        self.nodes.resize_with(nodes.len(), NodeSlot::empty);
        self.nodes
            .iter_mut()
            .zip(nodes)
            .all(|(dst, src)| dst.copy_from(src))
    }

    /// Rebinds the root seed without disturbing any existing state: node
    /// RNG streams derived so far keep their positions, but every stream
    /// derived *after* this call — node starts, restarts, new nodes, and the
    /// network jitter stream — comes from `seed`.
    ///
    /// This is the fork point of snapshot-and-fork execution: restore a
    /// seed-independent prefix snapshot, `reseed(case_seed)`, and the
    /// suffix diverges exactly as if the whole case had run under a harness
    /// that switched seeds at the same instant.
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.net_rng = SimRng::new(seed).split(u64::MAX);
    }

    /// Caps the total number of further events this simulation may process.
    /// Once the budget is spent, [`Sim::step`] returns `false` and
    /// [`Sim::peek_time`] reports no pending events, so every driver loop
    /// terminates — the virtual-time watchdog for non-terminating cases.
    /// Check [`Sim::budget_exhausted`] afterwards to tell "quiesced" from
    /// "cut off".
    pub fn set_event_budget(&mut self, max_events: u64) {
        self.event_budget = Some(max_events);
    }

    /// `true` once a budget set via [`Sim::set_event_budget`] hit zero.
    pub fn budget_exhausted(&self) -> bool {
        self.event_budget == Some(0)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total node-to-node and node-to-client messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Node-to-node messages delivered so far: [`Sim::messages_delivered`]
    /// without client requests and replies, so it measures cluster traffic
    /// however hard clients drive the nodes.
    pub fn cluster_messages_delivered(&self) -> u64 {
        self.cluster_messages_delivered
    }

    /// Captured logs.
    pub fn logs(&self) -> &LogBuffer {
        &self.logs
    }

    // ----- causal tracing ---------------------------------------------------

    /// Enables the causal trace recorder. The ring is fully allocated here,
    /// so recording itself performs no heap allocation; call before the run
    /// starts to capture the whole history. Replaces any previous buffer —
    /// except that a buffer with the same (normalized) config, current or
    /// parked by [`Sim::reset`], is emptied and reused instead of
    /// reallocated, so warm case runners re-enable tracing for free.
    pub fn enable_trace(&mut self, config: TraceConfig) {
        let config = config.normalized();
        self.trace = match self.trace.take().or_else(|| self.trace_pool.take()) {
            Some(mut t) if t.config() == config => {
                t.reset();
                Some(t)
            }
            _ => Some(TraceBuffer::new(config)),
        };
        self.trace_ctx = 0;
    }

    /// The trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Records an observation anchor — the terminal event a failure's
    /// lineage chain ends at — parented to the last event touching `node`
    /// (or the latest event overall when no node is implicated). Returns the
    /// anchor's trace id, or 0 when tracing is disabled.
    pub fn trace_observe(&mut self, node: Option<NodeId>) -> u64 {
        let parent = match self.trace.as_ref() {
            Some(t) => t.anchor_for(node),
            None => return 0,
        };
        self.trace_record(parent, TraceEventKind::Observation { node })
    }

    /// Records one trace event at the current time; returns 0 when disabled.
    #[inline(always)]
    fn trace_record(&mut self, parent: u64, kind: TraceEventKind) -> u64 {
        match self.trace.as_mut() {
            Some(t) => t.record(self.now, parent, kind),
            None => 0,
        }
    }

    /// Emits a harness-level log record.
    pub fn log_sim(&mut self, level: LogLevel, message: impl Into<String>) {
        self.logs.push(LogRecord {
            time: self.now,
            node: None,
            generation: 0,
            level,
            message: message.into(),
        });
    }

    // ----- node lifecycle -------------------------------------------------

    /// Adds a node slot on `host` running `process` labelled `version_label`.
    ///
    /// The node starts `Idle`; call [`Sim::start_node`].
    pub fn add_node(
        &mut self,
        host: &str,
        version_label: &str,
        process: Box<dyn Process>,
    ) -> NodeId {
        let id = self.nodes.len() as NodeId;
        let host = self.storage.intern(host);
        self.nodes.push(NodeSlot {
            host,
            version_label: version_label.to_string(),
            process: Some(process),
            status: NodeStatus::Idle,
            generation: 0,
            rng: SimRng::new(self.seed).split(u64::from(id)),
            crash_reason: None,
        });
        id
    }

    /// The status of `node`.
    pub fn node_status(&self, node: NodeId) -> NodeStatus {
        self.nodes
            .get(node as usize)
            .map(|s| s.status)
            .unwrap_or(NodeStatus::Idle)
    }

    /// The version label currently installed on `node`.
    pub fn node_version(&self, node: NodeId) -> &str {
        self.nodes
            .get(node as usize)
            .map(|s| s.version_label.as_str())
            .unwrap_or("")
    }

    /// The crash reason, if the node crashed.
    pub fn crash_reason(&self, node: NodeId) -> Option<&str> {
        self.nodes
            .get(node as usize)
            .and_then(|s| s.crash_reason.as_deref())
    }

    /// Ids of nodes currently `Crashed`.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as NodeId)
            .filter(|&n| self.nodes[n as usize].status == NodeStatus::Crashed)
            .collect()
    }

    /// Schedules `node` to start at the current time.
    ///
    /// Starting bumps the node's generation: timers armed by the previous
    /// process generation are discarded, mirroring a process restart.
    pub fn start_node(&mut self, node: NodeId) -> Result<(), SimError> {
        let seed = self.seed;
        let slot = self.slot_mut(node)?;
        if slot.status == NodeStatus::Running || slot.status == NodeStatus::Starting {
            return Err(SimError::BadStatus {
                node,
                status: slot.status,
                op: "start",
            });
        }
        if slot.process.is_none() {
            return Err(SimError::BadStatus {
                node,
                status: slot.status,
                op: "start (no process installed)",
            });
        }
        slot.generation += 1;
        slot.status = NodeStatus::Starting;
        slot.crash_reason = None;
        let generation = slot.generation;
        slot.rng = SimRng::new(seed).split(u64::from(node) << 20 | generation);
        self.schedule(self.now, 0, EventKind::Start { node, generation });
        Ok(())
    }

    /// Gracefully stops `node`: its `on_shutdown` hook runs, then the process
    /// is discarded. Persistent storage survives.
    pub fn stop_node(&mut self, node: NodeId) -> Result<(), SimError> {
        let status = self.slot_mut(node)?.status;
        match status {
            NodeStatus::Running => {
                let stop_id = self.trace_record(0, TraceEventKind::NodeStop { node });
                self.trace_ctx = stop_id;
                self.dispatch(node, DispatchKind::Shutdown);
                // A shutdown handler may itself crash the node; only mark
                // stopped if it survived.
                if self.nodes[node as usize].status == NodeStatus::Running {
                    // An armed mid-upgrade crash point fires here: the old
                    // version has shut down, and the host dies before the
                    // next version boots.
                    let fired = self.faults.as_mut().is_some_and(|f| {
                        f.take_crash_point(node, CrashPointKind::MidUpgrade, self.now)
                    });
                    if fired {
                        let message = format!("crash point: node {node} crashed mid-upgrade");
                        self.fault_crash(node, message, stop_id);
                    } else {
                        let slot = &mut self.nodes[node as usize];
                        slot.process = None;
                        slot.status = NodeStatus::Stopped;
                        let host = slot.host;
                        // A graceful stop syncs buffered storage (a clean
                        // daemon exit flushes before the container is torn
                        // down).
                        self.trace_record(stop_id, TraceEventKind::StorageFlush { host });
                        self.storage.by_id_mut(host).flush_all();
                    }
                }
                Ok(())
            }
            NodeStatus::Starting | NodeStatus::Idle => {
                self.trace_record(0, TraceEventKind::NodeStop { node });
                let slot = self.slot_mut(node)?;
                slot.status = NodeStatus::Stopped;
                Ok(())
            }
            NodeStatus::Stopped | NodeStatus::Crashed => Ok(()),
        }
    }

    /// Installs a new process (typically a different software version) into a
    /// stopped, crashed, or idle slot. The host — and its persistent storage —
    /// is unchanged: this is the "replace the container, keep the shared
    /// directory" upgrade step of DUPTester.
    pub fn install(
        &mut self,
        node: NodeId,
        version_label: &str,
        process: Box<dyn Process>,
    ) -> Result<(), SimError> {
        let traced = TraceEventKind::NodeUpgrade { node };
        self.install_traced(node, version_label, process, traced)
    }

    /// Installs an *older* process version into a stopped, crashed, or idle
    /// slot — the rollback step of a downgrade rollout. Mechanically
    /// identical to [`Sim::install`] (the host keeps its persistent storage,
    /// including any newer-format state the replaced version wrote), but the
    /// trace records a distinct downgrade event so rollbacks are separable
    /// from forward rollouts in signatures and slices.
    pub fn install_downgrade(
        &mut self,
        node: NodeId,
        version_label: &str,
        process: Box<dyn Process>,
    ) -> Result<(), SimError> {
        let traced = TraceEventKind::NodeDowngrade { node };
        self.install_traced(node, version_label, process, traced)
    }

    /// The body of [`Sim::install`] and [`Sim::install_downgrade`], which
    /// differ only in the trace event `traced` they record.
    fn install_traced(
        &mut self,
        node: NodeId,
        version_label: &str,
        process: Box<dyn Process>,
        traced: TraceEventKind,
    ) -> Result<(), SimError> {
        let slot = self.slot_mut(node)?;
        if slot.status == NodeStatus::Running || slot.status == NodeStatus::Starting {
            return Err(SimError::BadStatus {
                node,
                status: slot.status,
                op: "install over",
            });
        }
        slot.process = Some(process);
        slot.version_label = version_label.to_string();
        self.trace_record(0, traced);
        Ok(())
    }

    /// Interns `host` (the same id [`Sim::add_node`] would assign) for use
    /// with the id-addressed storage API.
    pub fn host_id(&mut self, host: &str) -> HostId {
        self.storage.intern(host)
    }

    /// Direct access to a host's persistent storage by interned id. O(1).
    pub fn host_storage_by_id(&mut self, host: HostId) -> &mut HostStorage {
        self.storage.by_id_mut(host)
    }

    /// Read-only access to a host's persistent storage by interned id, or
    /// `None` if nothing was ever stored there.
    pub fn host_storage_by_id_ref(&self, host: HostId) -> Option<&HostStorage> {
        self.storage.by_id(host)
    }

    /// The host name of `node`.
    pub fn node_host(&self, node: NodeId) -> &str {
        self.nodes
            .get(node as usize)
            .map(|s| self.storage.name(s.host))
            .unwrap_or("")
    }

    /// The interned host id of `node`.
    pub fn node_host_id(&self, node: NodeId) -> Option<HostId> {
        self.nodes.get(node as usize).map(|s| s.host)
    }

    // ----- fault injection --------------------------------------------------

    /// Installs a [`FaultPlan`]: schedules its actions as simulator events
    /// (actions already in the past fire at the current time) and activates
    /// its per-message fate stream. Replaces any previously installed plan;
    /// the old plan's pending actions become inert.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_epoch += 1;
        let epoch = self.fault_epoch;
        for (action, fault) in plan.actions().iter().enumerate() {
            let at = fault.at.max(self.now);
            self.schedule(at, 0, EventKind::Fault { action, epoch });
        }
        // The plan's durability axis applies to every host, current and
        // future, for as long as the plan is installed.
        self.storage.set_mode(plan.durability);
        // Recycle the replaced (or reset-parked) state's allocations;
        // `reinstall` re-derives both RNG streams from the plan's seed, so
        // the result is indistinguishable from `FaultState::new(plan)`.
        self.faults = match self.faults.take().or_else(|| self.fault_pool.take()) {
            Some(mut state) => {
                state.reinstall(plan);
                Some(state)
            }
            None => Some(FaultState::new(plan)),
        };
    }

    /// Total faults injected so far: per-message fates (drops, duplicates,
    /// delays, reorders) plus applied scheduled actions.
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map(|f| f.injected).unwrap_or(0)
    }

    /// Pops the next node whose plan-scheduled restart is due. The caller
    /// installs a process and starts the node; the simulator has no way to
    /// spawn one.
    pub fn take_pending_restart(&mut self) -> Option<NodeId> {
        self.pending_restarts.pop_front()
    }

    /// `true` if `node` is crashed and the crash was injected by the fault
    /// plan (as opposed to a genuine process failure).
    pub fn is_fault_crashed(&self, node: NodeId) -> bool {
        self.node_status(node) == NodeStatus::Crashed
            && self.crash_reason(node) == Some(FAULT_CRASH_REASON)
    }

    /// Applies one scheduled fault action. Partition changes are silent (the
    /// hot path must stay allocation-free); crash/restart actions log at
    /// `Warn` — below the `Error` threshold failure oracles scan for.
    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Partition(a, b) => self.net.partition(a, b),
            FaultKind::Heal(a, b) => self.net.heal(a, b),
            FaultKind::Crash(n) => {
                let status = self.node_status(n);
                if !matches!(status, NodeStatus::Running | NodeStatus::Starting) {
                    return;
                }
                let message = format!("fault injection: crashed node {n}");
                self.fault_crash(n, message, self.trace_ctx);
            }
            FaultKind::Restart(n) => {
                if !self.restart_due(n, "fault injection", self.trace_ctx) {
                    return; // Never restart a genuinely crashed node.
                }
            }
        }
        if let Some(f) = self.faults.as_mut() {
            f.injected += 1;
        }
    }

    /// Crashes `node`: the one crash sequence behind every crash — a
    /// handler's fatal return or panic, a scheduled fault crash and both
    /// crash points. Marks
    /// the slot crashed for `reason`, logs `message` at `level`, records the
    /// crash under the trace id `parent` and resolves the host's unflushed
    /// storage. Returns the crash's trace id.
    fn crash_node(
        &mut self,
        node: NodeId,
        reason: String,
        level: LogLevel,
        message: String,
        parent: u64,
    ) -> u64 {
        let slot = &mut self.nodes[node as usize];
        slot.status = NodeStatus::Crashed;
        slot.crash_reason = Some(reason);
        slot.process = None;
        let (host, generation) = (slot.host, slot.generation);
        self.logs.push(LogRecord {
            time: self.now,
            node: Some(node),
            generation,
            level,
            message,
        });
        let crash_id = self.trace_record(parent, TraceEventKind::NodeCrash { node });
        self.crash_materialize_host(host, crash_id);
        crash_id
    }

    /// A crash the fault plan injects, which [`Sim::is_fault_crashed`] exempts.
    fn fault_crash(&mut self, node: NodeId, message: String, parent: u64) -> u64 {
        let reason = FAULT_CRASH_REASON.to_string();
        self.crash_node(node, reason, LogLevel::Warn, message, parent)
    }

    /// Queues `node` for the harness to restart if the fault plan crashed
    /// it, logging that `what` made its restart due. Returns whether it did.
    fn restart_due(&mut self, node: NodeId, what: &str, parent: u64) -> bool {
        if !self.is_fault_crashed(node) {
            return false;
        }
        self.pending_restarts.push_back(node);
        self.logs.push(LogRecord {
            time: self.now,
            node: Some(node),
            generation: self.nodes[node as usize].generation,
            level: LogLevel::Warn,
            message: format!("{what}: restart of node {node} due"),
        });
        self.trace_record(parent, TraceEventKind::NodeRestartDue { node });
        true
    }

    /// Resolves a host's unflushed storage against the plan's
    /// crash-materializer stream. Called on **every** crash — scheduled
    /// fault, genuine process failure, crash point — so the
    /// recovery image is always crash-consistent. A no-op without a plan
    /// (no plan means strict durability: nothing is ever unflushed).
    /// `parent` is the trace id of the crash that triggered it.
    fn crash_materialize_host(&mut self, host: HostId, parent: u64) {
        if self.faults.is_none() {
            return;
        }
        if self.trace.is_some() {
            let at_risk = self.storage.by_id_mut(host).unflushed_bytes() as u32;
            self.trace_record(parent, TraceEventKind::StorageCrash { host, at_risk });
        }
        if let Some(f) = self.faults.as_mut() {
            self.storage
                .by_id_mut(host)
                .crash_materialize(&mut f.crash_rng);
        }
    }

    // ----- client traffic ---------------------------------------------------

    /// Sends `payload` to `to` on behalf of a fresh external client; responses
    /// the node sends back are collected under the returned handle.
    pub fn client_send(&mut self, to: NodeId, payload: Bytes) -> ClientHandle {
        let id = self.clients as u64;
        if self.clients == self.client_inbox.len() {
            self.client_inbox.push(VecDeque::new());
        }
        self.clients += 1;
        let from = Endpoint::Client(id);
        let latency = self
            .net
            .route(from, Endpoint::Node(to), &mut self.net_rng)
            .unwrap_or(SimDuration::from_millis(1));
        let request_id = self.trace_record(
            0,
            TraceEventKind::ClientRequest {
                client: id,
                node: to,
                bytes: payload.len() as u32,
            },
        );
        self.schedule(
            self.now + latency,
            request_id,
            EventKind::Deliver {
                from,
                to: Endpoint::Node(to),
                payload,
            },
        );
        ClientHandle(id)
    }

    /// Pops the next response received for `handle`, if any.
    pub fn poll_response(&mut self, handle: ClientHandle) -> Option<Bytes> {
        // Index only the issued prefix: warm spare slots past `clients`
        // must behave exactly like the out-of-range ids they would be on a
        // fresh simulator.
        self.client_inbox[..self.clients]
            .get_mut(handle.0 as usize)?
            .pop_front()
    }

    /// Sends a request and runs the simulation until a response arrives or
    /// `timeout` elapses. Returns `None` on timeout.
    pub fn rpc(&mut self, to: NodeId, payload: Bytes, timeout: SimDuration) -> Option<Bytes> {
        let handle = self.client_send(to, payload);
        let deadline = self.now + timeout;
        loop {
            if let Some(resp) = self.poll_response(handle) {
                return Some(resp);
            }
            match self.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => {
                    self.now = deadline;
                    return self.poll_response(handle);
                }
            }
        }
    }

    // ----- event loop -------------------------------------------------------

    /// Processes the next event, if any; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        if self.budget_exhausted() {
            return false;
        }
        let Some(Reverse(event)) = self.queue.pop() else {
            return false;
        };
        if let Some(budget) = self.event_budget.as_mut() {
            *budget -= 1;
        }
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        self.events_processed += 1;
        match event.kind {
            EventKind::Start { node, generation } => {
                let slot = &mut self.nodes[node as usize];
                if slot.generation == generation && slot.status == NodeStatus::Starting {
                    slot.status = NodeStatus::Running;
                    self.trace_ctx = self
                        .trace_record(event.cause, TraceEventKind::NodeStart { node, generation });
                    self.dispatch(node, DispatchKind::Start);
                }
            }
            EventKind::Deliver { from, to, payload } => match to {
                Endpoint::Node(n) => {
                    if let Some(slot) = self.nodes.get_mut(n as usize) {
                        if slot.status.is_running() {
                            self.messages_delivered += 1;
                            if let Endpoint::Node(_) = from {
                                self.cluster_messages_delivered += 1;
                            }
                            self.trace_ctx = self.trace_record(
                                event.cause,
                                TraceEventKind::MessageDeliver {
                                    from,
                                    to,
                                    bytes: payload.len() as u32,
                                },
                            );
                            self.dispatch(n, DispatchKind::Message { from, payload });
                        }
                    }
                }
                Endpoint::Client(c) => {
                    self.messages_delivered += 1;
                    self.trace_record(
                        event.cause,
                        TraceEventKind::ClientResponse {
                            client: c,
                            bytes: payload.len() as u32,
                        },
                    );
                    // A reply to a client id the harness never issued has no
                    // reader; drop it (it still counts as delivered above,
                    // exactly as the old map-backed inbox counted it). The
                    // issued prefix keeps warm spare slots from absorbing
                    // such replies and leaking them to a later client that
                    // gets the recycled id.
                    if let Some(inbox) = self.client_inbox[..self.clients].get_mut(c as usize) {
                        inbox.push_back(payload);
                    }
                }
            },
            EventKind::Timer {
                node,
                generation,
                token,
            } => {
                let slot = &mut self.nodes[node as usize];
                if slot.generation == generation && slot.status.is_running() {
                    self.trace_ctx =
                        self.trace_record(event.cause, TraceEventKind::TimerFire { node, token });
                    self.dispatch(node, DispatchKind::Timer { token });
                }
            }
            EventKind::Fault { action, epoch } => {
                if epoch == self.fault_epoch {
                    let kind = self
                        .faults
                        .as_ref()
                        .and_then(|f| f.plan.actions().get(action))
                        .map(|a| a.kind);
                    if let Some(kind) = kind {
                        self.trace_ctx =
                            self.trace_record(event.cause, TraceEventKind::FaultAction { kind });
                        self.apply_fault(kind);
                    }
                }
            }
            EventKind::PointRestart { node, epoch } => {
                if epoch == self.fault_epoch {
                    self.restart_due(node, "crash point", event.cause);
                }
            }
        }
        true
    }

    /// Runs until the queue is empty or `deadline` is reached; `now` ends at
    /// `deadline` even if the queue drained early.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// The timestamp of the next queued event. Reports `None` once the
    /// event budget is exhausted, so deadline loops built on peek+step
    /// terminate instead of spinning on events that will never run.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.budget_exhausted() {
            return None;
        }
        self.queue.peek().map(|Reverse(e)| e.time)
    }

    // ----- internals --------------------------------------------------------

    fn slot_mut(&mut self, node: NodeId) -> Result<&mut NodeSlot, SimError> {
        self.nodes
            .get_mut(node as usize)
            .ok_or(SimError::UnknownNode(node))
    }

    fn schedule(&mut self, time: SimTime, cause: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent {
            time,
            seq,
            cause,
            kind,
        }));
    }

    fn dispatch(&mut self, node: NodeId, kind: DispatchKind) {
        let slot = &mut self.nodes[node as usize];
        let Some(mut process) = slot.process.take() else {
            return;
        };
        let host: HostId = slot.host;
        let generation = slot.generation;
        let mut rng = std::mem::replace(&mut slot.rng, SimRng::new(0));

        // Recycle the effect scratch buffer: after warm-up its capacity
        // covers any handler's burst, so steady-state dispatch performs no
        // heap allocation. (Dispatch never nests — effects are applied after
        // the handler returns — so one pooled buffer suffices.)
        let mut effects: Vec<Effect> = std::mem::take(&mut self.effects_pool);
        debug_assert!(effects.is_empty());
        let result = {
            let storage = self.storage.by_id_mut(host);
            let mut ctx = Ctx {
                now: self.now,
                node,
                generation,
                storage,
                rng: &mut rng,
                logs: &mut self.logs,
                effects: &mut effects,
            };
            // The process is discarded if the handler panics, so its
            // (possibly broken) state can never be observed afterwards;
            // catching the unwind here is therefore sound and reproduces a
            // process crash inside a container.
            catch_unwind(AssertUnwindSafe(|| match &kind {
                DispatchKind::Start => process.on_start(&mut ctx),
                DispatchKind::Message { from, payload } => {
                    process.on_message(&mut ctx, *from, payload)
                }
                DispatchKind::Timer { token } => process.on_timer(&mut ctx, *token),
                DispatchKind::Shutdown => process.on_shutdown(&mut ctx),
            }))
        };

        self.nodes[node as usize].rng = rng;

        // Everything this handler produced is causally parented to the
        // event that dispatched it.
        let dispatch_ctx = self.trace_ctx;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, payload } => {
                    let send_id = self.trace_record(
                        dispatch_ctx,
                        TraceEventKind::MessageSend {
                            from: Endpoint::Node(node),
                            to,
                            bytes: payload.len() as u32,
                        },
                    );
                    if let Some(latency) =
                        self.net.route(Endpoint::Node(node), to, &mut self.net_rng)
                    {
                        // Only node-to-node traffic is subject to injected
                        // faults; replies to clients always go through, like
                        // the partition exemption in `Network::route`.
                        let fate = match (&mut self.faults, to) {
                            (Some(f), Endpoint::Node(_)) => f.message_fate(),
                            _ => MessageFate::Deliver,
                        };
                        let from = Endpoint::Node(node);
                        match fate {
                            MessageFate::Drop => {
                                self.trace_record(send_id, TraceEventKind::FaultDrop { from, to });
                            }
                            MessageFate::Duplicate { extra } => {
                                let dup_id = self.trace_record(
                                    send_id,
                                    TraceEventKind::FaultDuplicate { extra },
                                );
                                // `Bytes::clone` bumps a refcount; no copy.
                                self.schedule(
                                    self.now + latency + extra,
                                    dup_id,
                                    EventKind::Deliver {
                                        from,
                                        to,
                                        payload: payload.clone(),
                                    },
                                );
                                self.schedule(
                                    self.now + latency,
                                    send_id,
                                    EventKind::Deliver { from, to, payload },
                                );
                            }
                            MessageFate::Delay { extra } => {
                                let delay_id = self
                                    .trace_record(send_id, TraceEventKind::FaultDelay { extra });
                                self.schedule(
                                    self.now + latency + extra,
                                    delay_id,
                                    EventKind::Deliver { from, to, payload },
                                );
                            }
                            MessageFate::Deliver => {
                                self.schedule(
                                    self.now + latency,
                                    send_id,
                                    EventKind::Deliver { from, to, payload },
                                );
                            }
                        }
                    }
                }
                Effect::SetTimer { delay, token } => {
                    let timer_id = self.trace_record(
                        dispatch_ctx,
                        TraceEventKind::TimerSet { node, token, delay },
                    );
                    self.schedule(
                        self.now + delay,
                        timer_id,
                        EventKind::Timer {
                            node,
                            generation,
                            token,
                        },
                    );
                }
            }
        }
        self.effects_pool = effects;

        // A crash's reason and its log message.
        let crash = match result {
            Ok(Ok(())) => {
                self.nodes[node as usize].process = Some(process);
                None
            }
            Ok(Err(fatal)) => Some((fatal.message.clone(), fatal.message)),
            Err(panic) => {
                let msg = panic_message(&panic);
                Some((msg.clone(), format!("panic: {msg}")))
            }
        };

        if let Some((reason, message)) = crash {
            // A dying process never got to fsync: the crash resolves its
            // unflushed state now, before anything can observe the storage.
            self.crash_node(node, reason, LogLevel::Fatal, message, dispatch_ctx);
        } else if self
            .faults
            .as_ref()
            .is_some_and(|f| f.wants(node, CrashPointKind::UnflushedWrite, self.now))
            && self.nodes[node as usize].status.is_running()
            && self.storage.by_id_mut(host).has_unflushed()
        {
            // An armed unflushed-write crash point fires: the handler left
            // dirty bytes behind and the host dies before flushing them.
            let restart = self.faults.as_mut().map_or(SimDuration::from_secs(2), |f| {
                f.take_crash_point(node, CrashPointKind::UnflushedWrite, self.now);
                f.plan.crash_point_restart
            });
            let epoch = self.fault_epoch;
            let message = format!("crash point: node {node} crashed with unflushed writes");
            let crash_id = self.fault_crash(node, message, dispatch_ctx);
            self.schedule(
                self.now + restart,
                crash_id,
                EventKind::PointRestart { node, epoch },
            );
        }
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("nodes", &self.nodes)
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

enum DispatchKind {
    Start,
    Message { from: Endpoint, payload: Bytes },
    Timer { token: u64 },
    Shutdown,
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Makes `live` a copy of `src` with `copy`, reusing `live`'s value or the
/// one parked in `pool`. A `None` source parks `live`'s value in `pool`:
/// the copy must read `None` (crash and fate gating test for it), but the
/// allocations are worth keeping for the next install.
fn copy_pooled<T: Clone>(
    live: &mut Option<T>,
    pool: &mut Option<T>,
    src: Option<&T>,
    copy: fn(&mut T, &T),
) {
    match src {
        Some(src) => match live.take().or_else(|| pool.take()) {
            Some(mut t) => {
                copy(&mut t, src);
                *live = Some(t);
            }
            None => *live = Some(src.clone()),
        },
        None => {
            if let Some(t) = live.take() {
                *pool = Some(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{restore_clone, StepResult};

    /// Echoes every message back to its sender, optionally crashing on a
    /// magic payload.
    struct Echo;

    impl Process for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
            ctx.info("echo started");
            Ok(())
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, payload: &[u8]) -> StepResult {
            if payload == b"die" {
                return Err(crate::Fatal::new("told to die"));
            }
            if payload == b"panic" {
                panic!("echo exploded");
            }
            ctx.send(from, Bytes::copy_from_slice(payload));
            Ok(())
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) -> StepResult {
            Ok(())
        }
    }

    fn started_echo(sim: &mut Sim) -> NodeId {
        let n = sim.add_node("h0", "v1", Box::new(Echo));
        sim.start_node(n).unwrap();
        sim.run_for(SimDuration::from_millis(10));
        n
    }

    #[test]
    fn rpc_roundtrip() {
        let mut sim = Sim::new(1);
        let n = started_echo(&mut sim);
        let resp = sim.rpc(n, Bytes::from_static(b"ping"), SimDuration::from_secs(1));
        assert_eq!(resp.as_deref(), Some(&b"ping"[..]));
        assert!(sim.node_status(n).is_running());
    }

    /// Answers each client request and tells its peer node about it; says
    /// nothing to a node.
    struct Relay(NodeId);

    impl Process for Relay {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) -> StepResult {
            Ok(())
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, payload: &[u8]) -> StepResult {
            if let Endpoint::Client(_) = from {
                ctx.send(Endpoint::Node(self.0), Bytes::copy_from_slice(payload));
                ctx.send(from, Bytes::copy_from_slice(payload));
            }
            Ok(())
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) -> StepResult {
            Ok(())
        }
    }

    #[test]
    fn client_traffic_never_moves_the_cluster_counter() {
        let mut sim = Sim::new(1);
        for (host, peer) in [("h0", 1), ("h1", 0)] {
            let n = sim.add_node(host, "v1", Box::new(Relay(peer)));
            sim.start_node(n).unwrap();
        }
        sim.run_for(SimDuration::from_millis(10));
        for round in 1..=4 {
            let node = (round % 2) as NodeId;
            let resp = sim.rpc(node, Bytes::from_static(b"ping"), SimDuration::from_secs(1));
            assert_eq!(resp.as_deref(), Some(&b"ping"[..]));
            sim.run_for(SimDuration::from_millis(10));
            // Request, reply and relay each count as delivered; only the
            // relay is cluster traffic.
            assert_eq!(sim.messages_delivered(), 3 * round);
            assert_eq!(sim.cluster_messages_delivered(), round);
        }
        sim.reset(1);
        assert_eq!(sim.cluster_messages_delivered(), 0);
    }

    #[test]
    fn fatal_crashes_node_and_logs() {
        let mut sim = Sim::new(1);
        let n = started_echo(&mut sim);
        let resp = sim.rpc(n, Bytes::from_static(b"die"), SimDuration::from_secs(1));
        assert!(resp.is_none());
        assert_eq!(sim.node_status(n), NodeStatus::Crashed);
        assert_eq!(sim.crash_reason(n), Some("told to die"));
        assert!(sim.logs().has_at_or_above(LogLevel::Fatal));
    }

    #[test]
    fn panic_is_contained_as_crash() {
        let mut sim = Sim::new(1);
        let n = started_echo(&mut sim);
        let resp = sim.rpc(n, Bytes::from_static(b"panic"), SimDuration::from_secs(1));
        assert!(resp.is_none());
        assert_eq!(sim.node_status(n), NodeStatus::Crashed);
        assert!(sim.crash_reason(n).unwrap().contains("echo exploded"));
        assert_eq!(sim.crashed_nodes(), vec![n]);
    }

    #[test]
    fn upgrade_preserves_storage() {
        /// Writes a marker at start; v2 reads v1's marker.
        struct Writer(&'static str);
        impl Process for Writer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
                let prior = ctx.storage_ref().read("marker").map(<[u8]>::to_vec);
                if let Some(prev) = prior {
                    ctx.info(format!("found marker {}", String::from_utf8_lossy(&prev)));
                }
                ctx.storage().write("marker", self.0.as_bytes().to_vec());
                Ok(())
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Endpoint, _: &[u8]) -> StepResult {
                Ok(())
            }
            fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) -> StepResult {
                Ok(())
            }
        }

        let mut sim = Sim::new(7);
        let n = sim.add_node("hostA", "v1", Box::new(Writer("one")));
        sim.start_node(n).unwrap();
        sim.run_for(SimDuration::from_millis(10));
        sim.stop_node(n).unwrap();
        assert_eq!(sim.node_status(n), NodeStatus::Stopped);

        sim.install(n, "v2", Box::new(Writer("two"))).unwrap();
        sim.start_node(n).unwrap();
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.node_version(n), "v2");
        assert_eq!(sim.logs().matching("found marker one").count(), 1);
        let host = sim.host_id("hostA");
        assert_eq!(
            sim.host_storage_by_id_ref(host).unwrap().read("marker"),
            Some(&b"two"[..])
        );
    }

    #[test]
    fn timers_do_not_survive_upgrade() {
        /// Arms a long timer at start; firing it crashes the node.
        struct TimerBomb;
        impl Process for TimerBomb {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
                ctx.set_timer(SimDuration::from_secs(10), 1);
                Ok(())
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: Endpoint, _: &[u8]) -> StepResult {
                Ok(())
            }
            fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) -> StepResult {
                Err(crate::Fatal::new("stale timer fired"))
            }
        }
        let mut sim = Sim::new(1);
        let n = sim.add_node("h", "v1", Box::new(TimerBomb));
        sim.start_node(n).unwrap();
        sim.run_for(SimDuration::from_secs(1));
        sim.stop_node(n).unwrap();
        sim.install(n, "v2", Box::new(Echo)).unwrap();
        sim.start_node(n).unwrap();
        sim.run_for(SimDuration::from_secs(60));
        // The v1 timer was discarded with its generation: node still alive.
        assert!(sim.node_status(n).is_running());
    }

    #[test]
    fn start_errors_on_running_node() {
        let mut sim = Sim::new(1);
        let n = started_echo(&mut sim);
        let err = sim.start_node(n).unwrap_err();
        assert!(matches!(err, SimError::BadStatus { op: "start", .. }));
    }

    #[test]
    fn install_rejected_while_running() {
        let mut sim = Sim::new(1);
        let n = started_echo(&mut sim);
        let err = sim.install(n, "v2", Box::new(Echo)).unwrap_err();
        assert!(matches!(err, SimError::BadStatus { .. }));
    }

    #[test]
    fn unknown_node_is_reported() {
        let mut sim = Sim::new(1);
        assert_eq!(sim.start_node(9).unwrap_err(), SimError::UnknownNode(9));
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        fn run(seed: u64) -> (u64, String) {
            let mut sim = Sim::new(seed);
            let n = started_echo(&mut sim);
            for i in 0..20u8 {
                sim.rpc(n, Bytes::copy_from_slice(&[i]), SimDuration::from_secs(1));
            }
            (sim.events_processed(), sim.logs().render())
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, 0);
    }

    #[test]
    fn rpc_response_at_exact_deadline_is_returned() {
        // Regression: a response whose Deliver event lands exactly on the
        // rpc deadline must be drained and returned, not dropped. Twin
        // simulators with one seed draw the same latencies, so the round
        // trip measured on one is exact on the others.
        let edge = |timeout: SimDuration| {
            let mut sim = Sim::new(5);
            let n = started_echo(&mut sim);
            let sent = sim.now();
            let resp = sim.rpc(n, Bytes::from_static(b"edge"), timeout);
            (resp, sim.now().since(sent), sim.node_status(n))
        };
        let (resp, round_trip, _) = edge(SimDuration::from_secs(1));
        assert_eq!(resp.as_deref(), Some(&b"edge"[..]));
        let (resp, _, _) = edge(round_trip);
        assert_eq!(resp.as_deref(), Some(&b"edge"[..]));
        // One millisecond less and the deadline cuts the response off.
        let (resp, waited, status) = edge(round_trip - SimDuration::from_millis(1));
        assert!(resp.is_none());
        assert_eq!(waited + SimDuration::from_millis(1), round_trip);
        assert!(status.is_running());
    }

    #[test]
    fn client_inboxes_are_fifo_and_per_handle() {
        /// Replies twice to every message: payload then "again".
        struct DoubleEcho;
        impl Process for DoubleEcho {
            fn on_start(&mut self, _: &mut Ctx<'_>) -> StepResult {
                Ok(())
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, p: &[u8]) -> StepResult {
                ctx.send(from, Bytes::copy_from_slice(p));
                ctx.send(from, Bytes::from_static(b"again"));
                Ok(())
            }
            fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) -> StepResult {
                Ok(())
            }
        }
        let mut sim = Sim::new(2);
        let n = sim.add_node("h", "v", Box::new(DoubleEcho));
        sim.start_node(n).unwrap();
        sim.run_for(SimDuration::from_millis(5));
        let h1 = sim.client_send(n, Bytes::from_static(b"one"));
        let h2 = sim.client_send(n, Bytes::from_static(b"two"));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.poll_response(h1).as_deref(), Some(&b"one"[..]));
        assert_eq!(sim.poll_response(h1).as_deref(), Some(&b"again"[..]));
        assert!(sim.poll_response(h1).is_none());
        assert_eq!(sim.poll_response(h2).as_deref(), Some(&b"two"[..]));
        assert_eq!(sim.poll_response(h2).as_deref(), Some(&b"again"[..]));
        assert!(sim.poll_response(h2).is_none());
    }

    #[test]
    fn node_host_roundtrips_through_interning() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("alpha", "v1", Box::new(Echo));
        let b = sim.add_node("beta", "v1", Box::new(Echo));
        // Same host, second node: same interned id.
        let a2 = sim.add_node("alpha", "v2", Box::new(Echo));
        assert_eq!(sim.node_host(a), "alpha");
        assert_eq!(sim.node_host(b), "beta");
        assert_eq!(sim.node_host_id(a), sim.node_host_id(a2));
        assert_ne!(sim.node_host_id(a), sim.node_host_id(b));
        assert_eq!(sim.node_host_id(99), None);
        assert_eq!(sim.node_host(99), "");
        // Interning is idempotent: `host_id` returns the id the node slot
        // already carries, and both address the same bytes.
        let id = sim.host_id("alpha");
        assert_eq!(sim.node_host_id(a), Some(id));
        sim.host_storage_by_id(id).write("f", b"x".to_vec());
        assert_eq!(
            sim.host_storage_by_id_ref(id).unwrap().read("f"),
            Some(&b"x"[..])
        );
    }

    /// Ping-pongs with a peer forever, re-arming a keepalive timer so the
    /// volley survives injected message drops.
    struct KeepalivePinger(NodeId);
    impl Process for KeepalivePinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
            ctx.send(Endpoint::Node(self.0), Bytes::from_static(b"p"));
            ctx.set_timer(SimDuration::from_millis(50), 0);
            Ok(())
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, _: &[u8]) -> StepResult {
            ctx.send(from, Bytes::from_static(b"p"));
            Ok(())
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) -> StepResult {
            ctx.send(Endpoint::Node(self.0), Bytes::from_static(b"p"));
            ctx.set_timer(SimDuration::from_millis(50), 0);
            Ok(())
        }
    }

    fn pinger_pair(seed: u64) -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(seed);
        let a = sim.add_node("fa", "v", Box::new(KeepalivePinger(1)));
        let b = sim.add_node("fb", "v", Box::new(KeepalivePinger(0)));
        sim.start_node(a).unwrap();
        sim.start_node(b).unwrap();
        (sim, a, b)
    }

    #[test]
    fn full_drop_plan_silences_node_traffic_but_not_clients() {
        let (mut sim, a, _) = pinger_pair(11);
        sim.run_for(SimDuration::from_secs(1));
        let mut plan = FaultPlan::new(99);
        plan.drop_probability = 1.0;
        sim.install_fault_plan(plan);
        // Messages already in flight at install time keep their fate; let
        // them drain before measuring.
        sim.run_for(SimDuration::from_millis(100));
        let before = sim.messages_delivered();
        sim.run_for(SimDuration::from_secs(2));
        // Timers still fire and send, but every node-to-node message drops.
        assert_eq!(sim.messages_delivered(), before);
        assert!(sim.faults_injected() > 0);
        // Client RPCs are exempt from injected faults end to end — but the
        // Echo reply path here is a Pinger, which replies to the client too.
        let resp = sim.rpc(a, Bytes::from_static(b"x"), SimDuration::from_secs(1));
        assert!(resp.is_some(), "client traffic must never be faulted");
    }

    /// Sends to a peer on a timer and ignores incoming messages. The
    /// duplicate test needs this: a node that *replies* to every delivery
    /// would turn `duplicate_probability = 0.5` into a supercritical
    /// branching process (1.5 expected deliveries, each spawning a reply)
    /// and the run would never drain.
    struct TickSender(NodeId);
    impl Process for TickSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
            ctx.set_timer(SimDuration::from_millis(20), 0);
            Ok(())
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: Endpoint, _: &[u8]) -> StepResult {
            Ok(())
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) -> StepResult {
            ctx.send(Endpoint::Node(self.0), Bytes::from_static(b"p"));
            ctx.set_timer(SimDuration::from_millis(20), 0);
            Ok(())
        }
    }

    fn ticker_pair(seed: u64) -> Sim {
        let mut sim = Sim::new(seed);
        let a = sim.add_node("fa", "v", Box::new(TickSender(1)));
        let b = sim.add_node("fb", "v", Box::new(TickSender(0)));
        sim.start_node(a).unwrap();
        sim.start_node(b).unwrap();
        sim
    }

    #[test]
    fn duplicate_plan_inflates_deliveries_deterministically() {
        let run = |seed: u64| {
            let mut sim = ticker_pair(5);
            let mut plan = FaultPlan::new(seed);
            plan.duplicate_probability = 0.5;
            sim.install_fault_plan(plan);
            sim.run_for(SimDuration::from_secs(5));
            (
                sim.messages_delivered(),
                sim.events_processed(),
                sim.faults_injected(),
            )
        };
        let baseline = {
            let mut sim = ticker_pair(5);
            sim.run_for(SimDuration::from_secs(5));
            sim.messages_delivered()
        };
        let (delivered, _, injected) = run(77);
        assert!(injected > 0);
        assert!(
            delivered > baseline,
            "duplicates should inflate deliveries: {delivered} vs {baseline}"
        );
        assert_eq!(run(77), run(77), "same plan seed must replay identically");
        assert_ne!(run(77).2, run(78).2, "different plan seeds should diverge");
    }

    #[test]
    fn scheduled_crash_and_restart_round_trip() {
        let (mut sim, a, b) = pinger_pair(2);
        let plan = FaultPlan::new(1)
            .schedule(SimTime::from_millis(500), FaultKind::Crash(a))
            .schedule(SimTime::from_millis(1500), FaultKind::Restart(a));
        sim.install_fault_plan(plan);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node_status(a), NodeStatus::Crashed);
        assert!(sim.is_fault_crashed(a));
        assert!(!sim.is_fault_crashed(b));
        assert_eq!(sim.crash_reason(a), Some(FAULT_CRASH_REASON));
        assert!(sim.take_pending_restart().is_none(), "restart not due yet");
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.take_pending_restart(), Some(a));
        assert_eq!(sim.take_pending_restart(), None);
        // The harness re-installs and restarts; the slot works again.
        sim.install(a, "v2", Box::new(KeepalivePinger(b))).unwrap();
        sim.start_node(a).unwrap();
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.node_status(a).is_running());
        assert!(!sim.is_fault_crashed(a));
    }

    #[test]
    fn restart_of_genuinely_crashed_node_is_refused() {
        let mut sim = Sim::new(4);
        let n = started_echo(&mut sim);
        sim.rpc(n, Bytes::from_static(b"die"), SimDuration::from_secs(1));
        assert_eq!(sim.node_status(n), NodeStatus::Crashed);
        let plan = FaultPlan::new(1).schedule(SimTime::ZERO, FaultKind::Restart(n));
        sim.install_fault_plan(plan);
        sim.run_for(SimDuration::from_secs(1));
        assert!(
            sim.take_pending_restart().is_none(),
            "fault plan must not resurrect a genuine crash"
        );
        assert!(!sim.is_fault_crashed(n));
    }

    #[test]
    fn scheduled_partition_blocks_and_heal_restores() {
        let (mut sim, a, b) = pinger_pair(6);
        let plan = FaultPlan::new(3)
            .schedule(SimTime::from_millis(1000), FaultKind::Partition(a, b))
            .schedule(SimTime::from_millis(3000), FaultKind::Heal(b, a));
        sim.install_fault_plan(plan);
        sim.run_for(SimDuration::from_millis(1500));
        assert!(sim.net.is_partitioned(a, b));
        let during = sim.messages_delivered();
        sim.run_for(SimDuration::from_millis(1000));
        // Keepalive sends continue but nothing crosses the cut.
        assert_eq!(sim.messages_delivered(), during);
        sim.run_for(SimDuration::from_secs(2));
        assert!(!sim.net.is_partitioned(a, b));
        assert!(sim.messages_delivered() > during, "traffic resumes on heal");
        assert_eq!(sim.faults_injected(), 2);
    }

    #[test]
    fn replacing_a_plan_neutralizes_the_old_schedule() {
        let (mut sim, a, _) = pinger_pair(8);
        sim.install_fault_plan(
            FaultPlan::new(1).schedule(SimTime::from_millis(2000), FaultKind::Crash(a)),
        );
        // Replace before the crash fires; the stale event must be inert.
        sim.install_fault_plan(FaultPlan::new(2));
        sim.run_for(SimDuration::from_secs(3));
        assert!(sim.node_status(a).is_running());
        assert_eq!(sim.faults_injected(), 0);
        assert!(sim.faults.is_some());
    }

    #[test]
    fn event_budget_halts_the_run() {
        let (mut sim, a, b) = pinger_pair(9);
        sim.run_for(SimDuration::from_millis(100));
        assert!(!sim.budget_exhausted());
        sim.set_event_budget(50);
        sim.run_for(SimDuration::from_secs(60));
        assert!(sim.budget_exhausted());
        assert!(sim.peek_time().is_none(), "exhausted budget hides events");
        assert!(!sim.step(), "exhausted budget refuses to step");
        // Time still advanced to the deadline; nodes are untouched.
        assert_eq!(sim.now().as_millis(), 60_100);
        assert!(sim.node_status(a).is_running());
        assert!(sim.node_status(b).is_running());
    }

    /// Appends to a WAL on every timer tick without flushing.
    struct LazyWriter;
    impl Process for LazyWriter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
            ctx.set_timer(SimDuration::from_millis(10), 0);
            Ok(())
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: Endpoint, _: &[u8]) -> StepResult {
            Ok(())
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) -> StepResult {
            ctx.storage().append("wal", b"record;");
            ctx.set_timer(SimDuration::from_millis(10), 0);
            Ok(())
        }
    }

    #[test]
    fn mid_upgrade_crash_point_fires_between_stop_and_boot() {
        let mut sim = Sim::new(21);
        let n = sim.add_node("h", "v1", Box::new(LazyWriter));
        let h = sim.host_id("h");
        sim.start_node(n).unwrap();
        let mut plan = FaultPlan::new(5).crash_point(
            n,
            CrashPointKind::MidUpgrade,
            SimTime::ZERO,
            SimTime::from_millis(60_000),
        );
        plan.durability = crate::Durability::Buffered;
        sim.install_fault_plan(plan);
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.host_storage_by_id_ref(h).unwrap().has_unflushed());
        // The stop-for-upgrade becomes a crash: old version down, host dies
        // before the new version boots.
        sim.stop_node(n).unwrap();
        assert_eq!(sim.node_status(n), NodeStatus::Crashed);
        assert!(sim.is_fault_crashed(n));
        assert!(sim.faults_injected() > 0);
        // The recovery image is crash-consistent (materialized, not dirty).
        assert!(!sim.host_storage_by_id_ref(h).unwrap().has_unflushed());
        // The upgrade continues from the crashed slot.
        sim.install(n, "v2", Box::new(LazyWriter)).unwrap();
        sim.start_node(n).unwrap();
        sim.run_for(SimDuration::from_millis(100));
        assert!(sim.node_status(n).is_running());
        // A second stop finds the point consumed: graceful, and flushed.
        sim.stop_node(n).unwrap();
        assert_eq!(sim.node_status(n), NodeStatus::Stopped);
        assert!(!sim.host_storage_by_id_ref(h).unwrap().has_unflushed());
    }

    #[test]
    fn unflushed_write_crash_point_crashes_and_schedules_restart() {
        let mut sim = Sim::new(22);
        let n = sim.add_node("h", "v1", Box::new(LazyWriter));
        let h = sim.host_id("h");
        sim.start_node(n).unwrap();
        let mut plan = FaultPlan::new(6).crash_point(
            n,
            CrashPointKind::UnflushedWrite,
            SimTime::from_millis(100),
            SimTime::from_millis(60_000),
        );
        plan.durability = crate::Durability::Torn;
        sim.install_fault_plan(plan);
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.node_status(n), NodeStatus::Crashed);
        assert!(sim.is_fault_crashed(n));
        assert!(sim.take_pending_restart().is_none(), "restart not due yet");
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.take_pending_restart(), Some(n));
        // The torn image holds a prefix of the append stream.
        let wal = sim.host_storage_by_id_ref(h).unwrap().read("wal");
        if let Some(bytes) = wal {
            let full: Vec<u8> = b"record;".repeat(64);
            assert!(full.starts_with(bytes), "torn WAL is not a write prefix");
        }
    }

    #[test]
    fn graceful_stop_flushes_buffered_storage() {
        let mut sim = Sim::new(23);
        let n = sim.add_node("h", "v1", Box::new(LazyWriter));
        let h = sim.host_id("h");
        sim.start_node(n).unwrap();
        let mut plan = FaultPlan::new(7);
        plan.durability = crate::Durability::Torn;
        sim.install_fault_plan(plan);
        sim.run_for(SimDuration::from_secs(1));
        let written = sim
            .host_storage_by_id_ref(h)
            .unwrap()
            .read("wal")
            .unwrap()
            .to_vec();
        assert!(sim.host_storage_by_id_ref(h).unwrap().has_unflushed());
        sim.stop_node(n).unwrap();
        assert_eq!(sim.node_status(n), NodeStatus::Stopped);
        // The clean shutdown synced everything: nothing at risk, bytes intact.
        let storage = sim.host_storage_by_id_ref(h).unwrap();
        assert!(!storage.has_unflushed());
        assert_eq!(storage.read("wal"), Some(&written[..]));
        assert_eq!(storage.read_durable("wal"), Some(&written[..]));
    }

    #[test]
    fn trace_lineage_links_request_to_crash() {
        let mut sim = Sim::new(31);
        sim.enable_trace(TraceConfig::default());
        let n = started_echo(&mut sim);
        sim.rpc(n, Bytes::from_static(b"die"), SimDuration::from_secs(1));
        assert_eq!(sim.node_status(n), NodeStatus::Crashed);
        let anchor = sim.trace_observe(Some(n));
        let trace = sim.trace().unwrap();
        assert!(trace.events_recorded() > 0);
        let slice = trace.slice(anchor);
        assert!(!slice.is_empty());
        // The chain ends at the observation and passes through the fatal
        // delivery and the client request that caused it.
        let kinds: Vec<String> = slice.lineage.iter().map(|e| e.kind.to_string()).collect();
        assert_eq!(
            kinds.last().map(String::as_str),
            Some(format!("observation node-{n}").as_str()),
            "{kinds:?}"
        );
        assert!(
            kinds.iter().any(|k| k.starts_with("node-crash")),
            "{kinds:?}"
        );
        assert!(
            kinds
                .iter()
                .any(|k| k.starts_with("deliver client-0->node-0")),
            "{kinds:?}"
        );
        assert!(
            kinds.iter().any(|k| k.starts_with("client-request")),
            "{kinds:?}"
        );
    }

    #[test]
    fn traces_replay_byte_identically_for_a_seed() {
        fn traced_run(seed: u64) -> String {
            let mut sim = Sim::new(seed);
            sim.enable_trace(TraceConfig::default());
            let (a, b) = {
                let a = sim.add_node("fa", "v", Box::new(KeepalivePinger(1)));
                let b = sim.add_node("fb", "v", Box::new(KeepalivePinger(0)));
                (a, b)
            };
            sim.start_node(a).unwrap();
            sim.start_node(b).unwrap();
            let mut plan = FaultPlan::new(seed);
            plan.drop_probability = 0.05;
            plan.duplicate_probability = 0.05;
            plan.delay_probability = 0.05;
            sim.install_fault_plan(plan);
            sim.run_for(SimDuration::from_secs(5));
            let anchor = sim.trace_observe(None);
            sim.trace().unwrap().slice(anchor).render_timeline()
        }
        assert_eq!(traced_run(42), traced_run(42));
        assert_ne!(traced_run(42), traced_run(43));
    }

    #[test]
    fn disabled_trace_records_nothing_and_observe_returns_zero() {
        let mut sim = Sim::new(1);
        let n = started_echo(&mut sim);
        sim.rpc(n, Bytes::from_static(b"x"), SimDuration::from_secs(1));
        assert!(sim.trace().is_none());
        assert_eq!(sim.trace_observe(Some(n)), 0);
    }

    #[test]
    fn messages_to_stopped_nodes_vanish() {
        let mut sim = Sim::new(1);
        let n = started_echo(&mut sim);
        sim.stop_node(n).unwrap();
        let resp = sim.rpc(
            n,
            Bytes::from_static(b"hello"),
            SimDuration::from_millis(100),
        );
        assert!(resp.is_none());
    }

    /// A forkable keepalive pinger for snapshot tests: same traffic shape as
    /// [`KeepalivePinger`], plus a payload counter so process state matters.
    #[derive(Clone)]
    struct ForkPinger {
        peer: NodeId,
        sent: u64,
    }
    impl ForkPinger {
        fn new(peer: NodeId) -> Self {
            ForkPinger { peer, sent: 0 }
        }
    }
    impl Process for ForkPinger {
        fn fork(&self) -> Option<Box<dyn Process>> {
            Some(Box::new(self.clone()))
        }
        fn restore_from(&mut self, src: &dyn Process) -> bool {
            restore_clone(self, src)
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
            ctx.set_timer(SimDuration::from_millis(40), 0);
            Ok(())
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, p: &[u8]) -> StepResult {
            if let Endpoint::Client(_) = from {
                ctx.send(from, Bytes::copy_from_slice(p));
            }
            Ok(())
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) -> StepResult {
            self.sent += 1;
            ctx.storage().append("pings", b"x");
            ctx.send(
                Endpoint::Node(self.peer),
                Bytes::copy_from_slice(&self.sent.to_be_bytes()),
            );
            ctx.set_timer(SimDuration::from_millis(40), 0);
            Ok(())
        }
    }

    /// Boots a traced, faulted two-node ForkPinger world and runs the shared
    /// "prefix" for one second.
    fn forkable_world(seed: u64) -> Sim {
        let mut sim = Sim::new(seed);
        sim.enable_trace(TraceConfig::default());
        let a = sim.add_node("fa", "v", Box::new(ForkPinger::new(1)));
        let b = sim.add_node("fb", "v", Box::new(ForkPinger::new(0)));
        sim.start_node(a).unwrap();
        sim.start_node(b).unwrap();
        let mut plan = FaultPlan::new(seed ^ 0x5EED);
        plan.drop_probability = 0.1;
        plan.delay_probability = 0.1;
        sim.install_fault_plan(plan);
        sim.run_for(SimDuration::from_secs(1));
        sim
    }

    /// Runs a divergent "suffix" and fingerprints every observable channel.
    fn suffix_fingerprint(sim: &mut Sim) -> String {
        sim.net.partition(0, 1);
        sim.run_for(SimDuration::from_millis(300));
        sim.net.heal(0, 1);
        sim.run_for(SimDuration::from_millis(700));
        let resp = sim.rpc(0, Bytes::from_static(b"probe"), SimDuration::from_secs(1));
        let anchor = sim.trace_observe(Some(1));
        let slice = sim.trace().unwrap().slice(anchor).render_timeline();
        format!(
            "events={} delivered={} faults={} resp={:?}\nLOGS\n{}\nTRACE\n{}",
            sim.events_processed(),
            sim.messages_delivered(),
            sim.faults_injected(),
            resp,
            sim.logs().render(),
            slice,
        )
    }

    #[test]
    fn snapshot_requires_forkable_processes() {
        let mut sim = Sim::new(1);
        let _ = started_echo(&mut sim); // Echo does not implement fork.
        assert!(sim.snapshot().is_none());
        // Stopping the node removes the unforkable process: snapshot works.
        sim.stop_node(0).unwrap();
        assert!(sim.snapshot().is_some());
    }

    #[test]
    fn restore_equals_fresh_byte_for_byte() {
        // The reference: a fresh world driven straight through.
        let mut fresh = forkable_world(77);
        let want = suffix_fingerprint(&mut fresh);

        // Snapshot at the fork point, run the suffix, restore, run it again:
        // both runs must match the fresh run byte for byte.
        let mut sim = forkable_world(77);
        let snap = sim.snapshot().expect("world is forkable");
        assert_eq!(snap.0.now(), sim.now());
        let first = suffix_fingerprint(&mut sim);
        assert_eq!(first, want, "suffix after snapshot capture diverged");
        for round in 0..3 {
            sim.restore(&snap);
            let again = suffix_fingerprint(&mut sim);
            assert_eq!(again, want, "restored suffix diverged (round {round})");
        }

        // Restoring into a cold, unrelated simulator works too.
        let mut cold = Sim::new(0);
        cold.restore(&snap);
        assert_eq!(suffix_fingerprint(&mut cold), want);
    }

    #[test]
    fn snapshot_into_reuses_the_buffer() {
        let mut sim = forkable_world(5);
        let mut snap = SimSnapshot::new();
        assert!(sim.snapshot_into(&mut snap));
        let want = suffix_fingerprint(&mut sim);
        sim.restore(&snap);
        // Re-capture over the warm buffer mid-flight, then keep using it.
        sim.run_for(SimDuration::from_millis(100));
        assert!(sim.snapshot_into(&mut snap));
        sim.restore(&snap);
        sim.restore(&snap); // Double restore is idempotent.
        assert_eq!(sim.now(), snap.0.now());
        // The original pre-capture suffix is gone; the recaptured world
        // replays its own suffix deterministically.
        let a = suffix_fingerprint(&mut sim);
        sim.restore(&snap);
        let b = suffix_fingerprint(&mut sim);
        assert_eq!(a, b);
        assert_ne!(a, want, "recapture at a later time must change the run");
    }

    #[test]
    fn reseed_forks_divergent_but_reproducible_suffixes() {
        let mut sim = forkable_world(9);
        let snap = sim.snapshot().unwrap();

        let mut fp = |seed: u64| {
            sim.restore(&snap);
            sim.reseed(seed);
            suffix_fingerprint(&mut sim)
        };
        let s1 = fp(101);
        let s2 = fp(202);
        assert_ne!(s1, s2, "different fork seeds must diverge");
        assert_eq!(fp(101), s1, "same fork seed must replay identically");
        assert_eq!(fp(202), s2);
    }

    #[test]
    fn restore_discards_post_snapshot_state() {
        fn files(sim: &Sim, host: HostId) -> Vec<(String, Vec<u8>)> {
            let storage = sim.host_storage_by_id_ref(host).expect("touched");
            let read = |p: &str| (p.to_string(), storage.read(p).unwrap().to_vec());
            storage.paths("").map(read).collect()
        }
        let mut sim = forkable_world(13);
        let fa = sim.host_id("fa");
        sim.host_storage_by_id(fa).write("keep", "k");
        sim.host_storage_by_id(fa).write("doomed", "d");
        let want_files = files(&sim, fa);
        let snap = sim.snapshot().unwrap();
        let want = suffix_fingerprint(&mut sim);

        // Wreck the world after the snapshot: rewrite storage and intern a
        // new host, add a node, install a new plan that crashes another,
        // issue clients. Restore must erase all of it.
        assert!(sim.host_storage_by_id(fa).delete("doomed"));
        sim.host_storage_by_id(fa).write("newcomer", "n");
        let late = sim.host_id("late");
        sim.host_storage_by_id(late).write("junk", "j");
        let extra = sim.add_node("extra", "vx", Box::new(ForkPinger::new(0)));
        sim.start_node(extra).unwrap();
        let mut plan = FaultPlan::new(999).schedule(sim.now(), FaultKind::Crash(0));
        plan.drop_probability = 1.0;
        sim.install_fault_plan(plan);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.crashed_nodes(), vec![0]);
        let h = sim.client_send(1, Bytes::from_static(b"junk"));
        sim.run_for(SimDuration::from_secs(1));
        let _ = sim.poll_response(h);

        sim.restore(&snap);
        assert_eq!(sim.nodes.len(), 2);
        let restored = files(&sim, fa);
        assert!(restored.iter().any(|(p, _)| p == "doomed"));
        assert!(!restored.iter().any(|(p, _)| p == "newcomer"));
        assert_eq!(restored, want_files);
        assert_eq!(suffix_fingerprint(&mut sim), want);

        // A cold simulator whose interning diverges from the snapshot's
        // rebuilds it: `fa` gets its captured id back.
        let mut cold = Sim::new(0);
        let zz = cold.host_id("zz");
        cold.host_id("fb");
        cold.host_storage_by_id(zz).write("stale", "s");
        cold.restore(&snap);
        assert_eq!(cold.host_id("fa"), fa);
        assert_eq!(cold.node_host(0), "fa");
        assert_eq!(files(&cold, fa), want_files);
        assert_eq!(suffix_fingerprint(&mut cold), want);
    }
}
