//! The discrete-event simulator: an engine plus components.
//!
//! The engine owns the clock, the root seed and network jitter stream, the
//! node slots, network, storage and logs, and dispatches each event to its
//! node. Each component owns one decision, its pooled allocations and its
//! own `copy_from`: [`EventQueue`] (order, budget), [`ClientInboxes`] (issued
//! ids), [`FaultInjector`] (plan, epoch, due restarts) and [`Tracer`]
//! (recorder, causal context). All randomness comes from split streams of
//! one root RNG, so a run is a function of its seed. [`Sim::reset`],
//! [`Sim::snapshot_into`] and [`Sim::restore`] are each one `Sim::copy_from`.

use crate::client::{ClientHandle, ClientInboxes};
use crate::faults::{
    CrashPointKind, FaultInjector, FaultKind, FaultPlan, MessageFate, FAULT_CRASH_REASON,
};
use crate::log::{LogBuffer, LogLevel, LogRecord};
use crate::net::Network;
use crate::node::{NodeSlot, NodeStatus, SimError};
use crate::process::{Ctx, Effect, Endpoint, NodeId, Process};
use crate::queue::{EventKind, EventQueue};
use crate::rng::SimRng;
use crate::storage::{HostId, HostStorage, StorageMap};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceBuffer, TraceConfig, TraceEventKind, Tracer};
use bytes::Bytes;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A resumable snapshot of a [`Sim`]'s complete logical state: a simulator
/// that is never stepped, written by [`Sim::snapshot_into`] and read by
/// [`Sim::restore`]. A campaign runner runs a shared case prefix once,
/// snapshots it, and forks many seed-divergent suffixes off it.
#[derive(Debug)]
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

/// The simulated world.
pub struct Sim {
    seed: u64,
    now: SimTime,
    queue: EventQueue,
    nodes: Vec<NodeSlot>,
    storage: StorageMap,
    /// Latency, the partitions the fault plan cuts, and delivery counters.
    net: Network,
    logs: LogBuffer,
    net_rng: SimRng,
    clients: ClientInboxes,
    /// Dispatch's effect scratch buffer, recycled across dispatches so
    /// steady-state dispatch performs no heap allocation. Never state.
    effects: Vec<Effect>,
    faults: FaultInjector,
    trace: Tracer,
}

impl Sim {
    /// Creates an empty simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            seed,
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            nodes: Vec::new(),
            storage: StorageMap::new(),
            net: Network::default(),
            logs: LogBuffer::new(),
            net_rng: SimRng::new(seed).split(u64::MAX),
            clients: ClientInboxes::default(),
            effects: Vec::new(),
            faults: FaultInjector::default(),
            trace: Tracer::default(),
        }
    }

    /// Arena-style reset: copies `Sim::new(seed)` into this simulator but
    /// keeps every pooled allocation, the fault plan's and the trace ring
    /// among them, so a warm per-worker simulator allocates nothing here.
    pub fn reset(&mut self, seed: u64) {
        self.copy_from(&Sim::new(seed));
    }

    // ----- snapshot & fork --------------------------------------------------

    /// Captures this simulator's state into `snap`, overwriting it. Returns
    /// `false` (leaving `snap` unspecified) if a live process does not
    /// support [`Process::fork`]. A warm buffer allocates nothing.
    pub fn snapshot_into(&self, snap: &mut SimSnapshot) -> bool {
        snap.0.copy_from(self)
    }

    /// Restores the exact state captured in `snap`: the simulator continues
    /// as the one that produced `snap` did. A warm simulator allocates nothing.
    pub fn restore(&mut self, snap: &SimSnapshot) {
        let forked = self.copy_from(&snap.0);
        debug_assert!(forked, "a captured snapshot holds forkable processes");
    }

    /// Makes this simulator a copy of `src`, writing into retained capacity.
    /// Returns `false`, with the copy unfinished, if a live process of `src`
    /// cannot [`Process::fork`]. Afterwards every observable —
    /// event order, RNG streams, host ids, client handles, storage, logs,
    /// counters, trace slices — is byte-identical to `src` driven the same
    /// way. `src` is destructured here and in each component's `copy_from`,
    /// so a new field does not compile until it is copied or named a pool.
    fn copy_from(&mut self, src: &Sim) -> bool {
        let Sim {
            seed,
            now,
            queue,
            nodes,
            storage,
            net,
            logs,
            net_rng,
            clients,
            effects: _,
            faults,
            trace,
        } = src;
        self.seed = *seed;
        self.now = *now;
        self.queue.copy_from(queue);
        self.storage.copy_from(storage);
        self.net.copy_from(net);
        self.logs.copy_from(logs);
        self.net_rng = net_rng.clone();
        self.clients.copy_from(clients);
        self.faults.copy_from(faults);
        self.trace.copy_from(trace);
        self.nodes.resize_with(nodes.len(), NodeSlot::empty);
        self.nodes
            .iter_mut()
            .zip(nodes)
            .all(|(dst, src)| dst.copy_from(src))
    }

    /// Rebinds the root seed without disturbing existing state: node RNG
    /// streams derived so far keep their positions, but every stream derived
    /// after this call — node starts, restarts, new nodes, network jitter —
    /// comes from `seed`. This is the fork point of snapshot-and-fork
    /// execution: restore a seed-independent prefix, `reseed(case_seed)`,
    /// and the suffix diverges as if the harness switched seeds right then.
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.net_rng = SimRng::new(seed).split(u64::MAX);
    }

    /// Caps the further events this simulation may process, against
    /// non-terminating cases: once spent, [`Sim::step`] and [`Sim::peek_time`]
    /// see an empty queue; [`Sim::budget_exhausted`] tells it from quiescence.
    pub fn set_event_budget(&mut self, max_events: u64) {
        self.queue.set_budget(max_events);
    }

    /// `true` once a budget set via [`Sim::set_event_budget`] hit zero.
    pub fn budget_exhausted(&self) -> bool {
        self.queue.budget_exhausted()
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.queue.popped()
    }

    /// Total node-to-node and node-to-client messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.net.delivered
    }

    /// Node-to-node messages delivered so far: [`Sim::messages_delivered`]
    /// without client requests and replies, so it measures cluster traffic
    /// however hard clients drive the nodes.
    pub fn cluster_messages_delivered(&self) -> u64 {
        self.net.cluster_delivered
    }

    /// Captured logs.
    pub fn logs(&self) -> &LogBuffer {
        &self.logs
    }

    // ----- causal tracing ---------------------------------------------------

    /// Enables the causal trace recorder, emptying any earlier trace. The
    /// ring is allocated here, or reused when its normalized config matches,
    /// so recording never allocates; call before the run to capture it all.
    pub fn enable_trace(&mut self, config: TraceConfig) {
        self.trace.enable(config);
    }

    /// The trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.buffer()
    }

    /// Records an observation anchor, where a failure's lineage chain ends,
    /// parented to the last event touching `node` (else the latest event).
    /// Returns the anchor's trace id, or 0 when tracing is disabled.
    pub fn trace_observe(&mut self, node: Option<NodeId>) -> u64 {
        self.trace.observe(self.now, node)
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
        slot.check_down(node, "start")?;
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
        let start = EventKind::Start { node, generation };
        self.queue.schedule(self.now, 0, start);
        Ok(())
    }

    /// Gracefully stops `node`: its `on_shutdown` hook runs, then the process
    /// is discarded. Persistent storage survives.
    pub fn stop_node(&mut self, node: NodeId) -> Result<(), SimError> {
        let status = self.slot_mut(node)?.status;
        match status {
            NodeStatus::Running => {
                let stop_id = self
                    .trace
                    .enter(self.now, 0, TraceEventKind::NodeStop { node });
                self.dispatch(node, DispatchKind::Shutdown);
                // A shutdown handler may itself crash the node; only mark
                // stopped if it survived.
                if self.nodes[node as usize].status == NodeStatus::Running {
                    // An armed mid-upgrade crash point fires here: the old
                    // version has shut down, and the host dies before the
                    // next version boots.
                    let midway = CrashPointKind::MidUpgrade;
                    if self.faults.fire_point(node, midway, self.now) {
                        let message = format!("crash point: node {node} crashed mid-upgrade");
                        self.fault_crash(node, message, stop_id);
                    } else {
                        let slot = &mut self.nodes[node as usize];
                        slot.process = None;
                        slot.status = NodeStatus::Stopped;
                        let host = slot.host;
                        // A graceful stop syncs buffered storage: a clean
                        // daemon exit flushes before its container goes.
                        let flush = TraceEventKind::StorageFlush { host };
                        self.trace.record(self.now, stop_id, flush);
                        self.storage.by_id_mut(host).flush_all();
                    }
                }
                Ok(())
            }
            NodeStatus::Starting | NodeStatus::Idle => {
                self.trace
                    .record(self.now, 0, TraceEventKind::NodeStop { node });
                let slot = self.slot_mut(node)?;
                slot.status = NodeStatus::Stopped;
                Ok(())
            }
            NodeStatus::Stopped | NodeStatus::Crashed => Ok(()),
        }
    }

    /// Installs a new process (typically another software version) into a
    /// stopped, crashed or idle slot, keeping the host and its storage: the
    /// "replace the container, keep the shared directory" upgrade step.
    pub fn install(
        &mut self,
        node: NodeId,
        version_label: &str,
        process: Box<dyn Process>,
    ) -> Result<(), SimError> {
        let traced = TraceEventKind::NodeUpgrade { node };
        self.install_traced(node, version_label, process, traced)
    }

    /// Installs an *older* process version — the rollback step of a
    /// downgrade rollout. Like [`Sim::install`] (the host keeps any
    /// newer-format state the replaced version wrote), but the trace records
    /// a downgrade event, so rollbacks stay separable in signatures and slices.
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
        slot.check_down(node, "install over")?;
        slot.process = Some(process);
        slot.version_label = version_label.to_string();
        self.trace.record(self.now, 0, traced);
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

    // ----- fault injection --------------------------------------------------

    /// Installs a [`FaultPlan`]: schedules its actions as simulator events
    /// (actions already in the past fire at the current time) and activates
    /// its per-message fate stream. Replaces any previously installed plan;
    /// the old plan's pending actions become inert.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        // The plan's durability axis applies to every host, current and
        // future, for as long as the plan is installed.
        self.storage.set_mode(plan.durability);
        self.faults.install(plan, self.now, &mut self.queue);
    }

    /// Total faults injected so far: per-message fates (drops, duplicates,
    /// delays, reorders) plus applied scheduled actions.
    pub fn faults_injected(&self) -> u64 {
        self.faults.injected()
    }

    /// Pops the next node whose plan-scheduled restart is due, for the
    /// caller to install a process on and start.
    pub fn take_pending_restart(&mut self) -> Option<NodeId> {
        self.faults.take_restart()
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
        let cause = self.trace.ctx;
        match kind {
            FaultKind::Partition(a, b) => self.net.partition(a, b),
            FaultKind::Heal(a, b) => self.net.heal(a, b),
            FaultKind::Crash(n) => {
                let status = self.node_status(n);
                if !matches!(status, NodeStatus::Running | NodeStatus::Starting) {
                    return;
                }
                let message = format!("fault injection: crashed node {n}");
                self.fault_crash(n, message, cause);
            }
            FaultKind::Restart(n) => {
                if !self.restart_due(n, "fault injection", cause) {
                    return; // Never restart a genuinely crashed node.
                }
            }
        }
        self.faults.applied();
    }

    /// Crashes `node`, whatever the cause: marks the slot crashed for
    /// `reason`, logs `message` at `level`, records the crash under trace id
    /// `parent` and resolves the host's unflushed storage. Returns the
    /// crash's trace id.
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
        let crash = TraceEventKind::NodeCrash { node };
        let crash_id = self.trace.record(self.now, parent, crash);
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
        self.faults.queue_restart(node);
        self.logs.push(LogRecord {
            time: self.now,
            node: Some(node),
            generation: self.nodes[node as usize].generation,
            level: LogLevel::Warn,
            message: format!("{what}: restart of node {node} due"),
        });
        let due = TraceEventKind::NodeRestartDue { node };
        self.trace.record(self.now, parent, due);
        true
    }

    /// Resolves a host's unflushed storage against the plan's
    /// crash-materializer stream. Called on **every** crash, so the recovery
    /// image is always crash-consistent; a no-op without a plan. `parent` is
    /// the trace id of the crash.
    fn crash_materialize_host(&mut self, host: HostId, parent: u64) {
        let Some(crash_rng) = self.faults.crash_rng() else {
            return;
        };
        let storage = self.storage.by_id_mut(host);
        if self.trace.buffer().is_some() {
            let at_risk = storage.unflushed_bytes() as u32;
            let crash = TraceEventKind::StorageCrash { host, at_risk };
            self.trace.record(self.now, parent, crash);
        }
        storage.crash_materialize(crash_rng);
    }

    // ----- client traffic ---------------------------------------------------

    /// Sends `payload` to `to` on behalf of a fresh external client; responses
    /// the node sends back are collected under the returned handle.
    pub fn client_send(&mut self, to: NodeId, payload: Bytes) -> ClientHandle {
        let handle = self.clients.issue();
        let from = Endpoint::Client(handle.0);
        let latency = self
            .net
            .route(from, Endpoint::Node(to), &mut self.net_rng)
            .unwrap_or(SimDuration::from_millis(1));
        let request = TraceEventKind::ClientRequest {
            client: handle.0,
            node: to,
            bytes: payload.len() as u32,
        };
        let request_id = self.trace.record(self.now, 0, request);
        let to = Endpoint::Node(to);
        let deliver = EventKind::Deliver { from, to, payload };
        self.queue.schedule(self.now + latency, request_id, deliver);
        handle
    }

    /// Pops the next response received for `handle`, if any.
    #[inline]
    pub fn poll_response(&mut self, handle: ClientHandle) -> Option<Bytes> {
        self.clients.poll(handle)
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
            if self.peek_time().is_none_or(|t| t > deadline) {
                break;
            }
            self.step();
        }
        self.now = deadline;
        self.poll_response(handle)
    }

    // ----- event loop -------------------------------------------------------

    /// Processes the next event, if any; returns `false` when the queue is
    /// empty or the event budget is spent.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        let cause = event.cause;
        match event.kind {
            EventKind::Start { node, generation } => {
                let slot = &mut self.nodes[node as usize];
                if slot.generation == generation && slot.status == NodeStatus::Starting {
                    slot.status = NodeStatus::Running;
                    let start = TraceEventKind::NodeStart { node, generation };
                    self.trace.enter(self.now, cause, start);
                    self.dispatch(node, DispatchKind::Start);
                }
            }
            EventKind::Deliver { from, to, payload } => match to {
                Endpoint::Node(n) => {
                    if self
                        .nodes
                        .get(n as usize)
                        .is_some_and(|s| s.status.is_running())
                    {
                        self.net.count_delivery(from, to);
                        let bytes = payload.len() as u32;
                        let deliver = TraceEventKind::MessageDeliver { from, to, bytes };
                        self.trace.enter(self.now, cause, deliver);
                        self.dispatch(n, DispatchKind::Message { from, payload });
                    }
                }
                Endpoint::Client(client) => {
                    self.net.count_delivery(from, to);
                    let bytes = payload.len() as u32;
                    let response = TraceEventKind::ClientResponse { client, bytes };
                    self.trace.record(self.now, cause, response);
                    self.clients.deliver(client, payload);
                }
            },
            EventKind::Timer {
                node,
                generation,
                token,
            } => {
                let slot = &mut self.nodes[node as usize];
                if slot.generation == generation && slot.status.is_running() {
                    let fire = TraceEventKind::TimerFire { node, token };
                    self.trace.enter(self.now, cause, fire);
                    self.dispatch(node, DispatchKind::Timer { token });
                }
            }
            EventKind::Fault { action, epoch } => {
                if let Some(kind) = self.faults.due_action(action, epoch) {
                    let fault = TraceEventKind::FaultAction { kind };
                    self.trace.enter(self.now, cause, fault);
                    self.apply_fault(kind);
                }
            }
            EventKind::PointRestart { node, epoch } => {
                if self.faults.is_current(epoch) {
                    self.restart_due(node, "crash point", cause);
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

    /// The timestamp of the next queued event; `None` once the event budget
    /// is spent, so deadline loops built on peek+step terminate.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    // ----- internals --------------------------------------------------------

    fn slot_mut(&mut self, node: NodeId) -> Result<&mut NodeSlot, SimError> {
        self.nodes
            .get_mut(node as usize)
            .ok_or(SimError::UnknownNode(node))
    }

    fn dispatch(&mut self, node: NodeId, kind: DispatchKind) {
        let slot = &mut self.nodes[node as usize];
        let Some(mut process) = slot.process.take() else {
            return;
        };
        let host: HostId = slot.host;
        let generation = slot.generation;
        let mut rng = std::mem::replace(&mut slot.rng, SimRng::new(0));

        // Recycle the effect scratch buffer (dispatch never nests, so one
        // suffices): after warm-up, dispatch performs no heap allocation.
        let mut effects: Vec<Effect> = std::mem::take(&mut self.effects);
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
            // A panicking handler's process is discarded, so its broken
            // state is never observed: the unwind is a process crash.
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
        let dispatch_ctx = self.trace.ctx;
        let (now, from) = (self.now, Endpoint::Node(node));
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, payload } => {
                    let bytes = payload.len() as u32;
                    let send = TraceEventKind::MessageSend { from, to, bytes };
                    let send_id = self.trace.record(now, dispatch_ctx, send);
                    let Some(latency) = self.net.route(from, to, &mut self.net_rng) else {
                        continue;
                    };
                    match self.faults.message_fate(to) {
                        MessageFate::Drop => {
                            let drop = TraceEventKind::FaultDrop { from, to };
                            self.trace.record(now, send_id, drop);
                        }
                        MessageFate::Duplicate { extra } => {
                            let duplicate = TraceEventKind::FaultDuplicate { extra };
                            let dup_id = self.trace.record(now, send_id, duplicate);
                            // `Bytes::clone` bumps a refcount; no copy.
                            let copy = payload.clone();
                            let copy = EventKind::Deliver {
                                from,
                                to,
                                payload: copy,
                            };
                            self.queue.schedule(now + latency + extra, dup_id, copy);
                            let deliver = EventKind::Deliver { from, to, payload };
                            self.queue.schedule(now + latency, send_id, deliver);
                        }
                        MessageFate::Delay { extra } => {
                            let delay = TraceEventKind::FaultDelay { extra };
                            let delay_id = self.trace.record(now, send_id, delay);
                            let deliver = EventKind::Deliver { from, to, payload };
                            self.queue
                                .schedule(now + latency + extra, delay_id, deliver);
                        }
                        MessageFate::Deliver => {
                            let deliver = EventKind::Deliver { from, to, payload };
                            self.queue.schedule(now + latency, send_id, deliver);
                        }
                    }
                }
                Effect::SetTimer { delay, token } => {
                    let set = TraceEventKind::TimerSet { node, token, delay };
                    let timer_id = self.trace.record(now, dispatch_ctx, set);
                    let timer = EventKind::Timer {
                        node,
                        generation,
                        token,
                    };
                    self.queue.schedule(now + delay, timer_id, timer);
                }
            }
        }
        self.effects = effects;

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
            .armed(node, CrashPointKind::UnflushedWrite, now)
            .is_some()
            && self.nodes[node as usize].status.is_running()
            && self.storage.by_id_mut(host).has_unflushed()
        {
            // An armed unflushed-write crash point fires: the handler left
            // dirty bytes behind and the host dies before flushing them.
            let message = format!("crash point: node {node} crashed with unflushed writes");
            let crash_id = self.fault_crash(node, message, dispatch_ctx);
            self.faults
                .fire_unflushed_write(node, now, crash_id, &mut self.queue);
        }
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("nodes", &self.nodes)
            .field("events_processed", &self.queue.popped())
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
        assert!(
            sim.faults.crash_rng().is_some(),
            "the new plan is installed"
        );
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
        assert!(!sim.snapshot_into(&mut SimSnapshot::new()));
        // Stopping the node removes the unforkable process: snapshot works.
        sim.stop_node(0).unwrap();
        assert!(sim.snapshot_into(&mut SimSnapshot::new()));
    }

    #[test]
    fn restore_equals_fresh_byte_for_byte() {
        // The reference: a fresh world driven straight through.
        let mut fresh = forkable_world(77);
        let want = suffix_fingerprint(&mut fresh);

        // Snapshot at the fork point, run the suffix, restore, run it again:
        // both runs must match the fresh run byte for byte.
        let mut sim = forkable_world(77);
        let mut snap = SimSnapshot::new();
        assert!(sim.snapshot_into(&mut snap), "world is forkable");
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
        let mut snap = SimSnapshot::new();
        assert!(sim.snapshot_into(&mut snap));

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
        let mut snap = SimSnapshot::new();
        assert!(sim.snapshot_into(&mut snap));
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
        assert_eq!(cold.nodes[0].host, fa);
        assert_eq!(files(&cold, fa), want_files);
        assert_eq!(suffix_fingerprint(&mut cold), want);
    }
}
