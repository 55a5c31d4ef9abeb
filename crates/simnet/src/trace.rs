//! Causal trace recorder for the simulator event loop.
//!
//! When enabled via [`crate::Sim::enable_trace`], the simulator records every
//! consequential event — message sends and deliveries, injected fault fates,
//! timers, node lifecycle transitions, storage flush and crash-materialization
//! outcomes, client traffic — into a fixed-capacity ring of [`TraceEvent`]s.
//! Each event carries the simulated time and the id of its **causal parent**:
//! the event whose processing enqueued or directly produced it. Walking
//! parents from any event reconstructs the chain of messages, timers, and
//! faults that led to it, which is exactly the forensic question a failing
//! upgrade case poses ("*which* delivery made this node crash?").
//!
//! Design rules:
//!
//! - **Allocation-free steady state.** The ring is allocated and prefilled
//!   once at enable time; recording overwrites slots in place and performs no
//!   allocation at all. Anchor lookup scans the live ring at extraction time
//!   instead of maintaining per-record side tables, keeping the hot path to a
//!   single slot store.
//! - **Deterministic.** Event ids are assigned sequentially from 1 and every
//!   recorded field derives from simulator state, so the same seed produces a
//!   byte-identical trace — and a byte-identical [`TraceSlice`] — on every
//!   rerun and regardless of campaign worker-thread count.
//! - **Bounded extraction.** [`TraceBuffer::slice`] returns the lineage chain
//!   (capped at [`TraceConfig::lineage_limit`], oldest first, ending at the
//!   anchor) plus the last [`TraceConfig::tail_events`] events. Events evicted
//!   by ring wrap terminate the lineage walk early; the wrap count is reported
//!   so a truncated chain is distinguishable from a complete one.

use crate::faults::FaultKind;
use crate::process::{Endpoint, NodeId};
use crate::storage::HostId;
use crate::time::{SimDuration, SimTime};
use std::fmt;
use std::fmt::Write as _;

/// Configuration for the trace recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity in events. Older events are overwritten once the ring
    /// is full (counted in [`TraceBuffer::events_dropped`]).
    pub capacity: usize,
    /// How many trailing events a [`TraceSlice`] carries.
    pub tail_events: usize,
    /// Maximum lineage chain length in a [`TraceSlice`].
    pub lineage_limit: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 4096,
            tail_events: 16,
            lineage_limit: 32,
        }
    }
}

impl TraceConfig {
    /// The config as [`TraceBuffer::new`] will actually apply it (all limits
    /// clamped to at least 1). Two configs with equal normalized forms yield
    /// interchangeable buffers — the test `Sim::enable_trace` uses to reuse
    /// a pooled ring across [`crate::Sim::reset`] instead of reallocating.
    pub fn normalized(self) -> TraceConfig {
        TraceConfig {
            capacity: self.capacity.max(1),
            tail_events: self.tail_events.max(1),
            lineage_limit: self.lineage_limit.max(1),
        }
    }
}

/// What one trace event describes. All variants are plain-old-data: no
/// strings, no heap — recording one is a handful of stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A node handed a message to the network.
    MessageSend {
        /// Sending endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// A message reached a running node.
    MessageDeliver {
        /// Sending endpoint.
        from: Endpoint,
        /// Destination endpoint.
        to: Endpoint,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// The fault plan silently dropped an in-flight message.
    FaultDrop {
        /// Sending endpoint.
        from: Endpoint,
        /// Intended destination.
        to: Endpoint,
    },
    /// The fault plan scheduled a second delivery of a message.
    FaultDuplicate {
        /// Offset of the duplicate copy from the original delivery.
        extra: SimDuration,
    },
    /// The fault plan spiked a message's latency (delay or reorder shift).
    FaultDelay {
        /// The injected extra latency.
        extra: SimDuration,
    },
    /// A handler armed a timer.
    TimerSet {
        /// The arming node.
        node: NodeId,
        /// The handler-chosen token.
        token: u64,
        /// The delay until it fires.
        delay: SimDuration,
    },
    /// A timer fired on a running node of the arming generation.
    TimerFire {
        /// The node whose handler runs.
        node: NodeId,
        /// The token it was armed with.
        token: u64,
    },
    /// A node began running (its `on_start` hook is the child context).
    NodeStart {
        /// The starting node.
        node: NodeId,
        /// Its new generation.
        generation: u64,
    },
    /// A node was stopped gracefully by the harness.
    NodeStop {
        /// The stopping node.
        node: NodeId,
    },
    /// A node crashed: fatal handler error, handler panic, injected crash,
    /// or a fired crash point.
    NodeCrash {
        /// The crashed node.
        node: NodeId,
    },
    /// A new process (typically another version) was installed into a slot.
    NodeUpgrade {
        /// The node whose process was replaced.
        node: NodeId,
    },
    /// An *older* process version was installed over newer on-disk state —
    /// the rollback step of a downgrade rollout. Distinct from
    /// [`TraceEventKind::NodeUpgrade`] so trace signatures separate
    /// forward rollouts from rollbacks.
    NodeDowngrade {
        /// The node whose process was replaced with an older version.
        node: NodeId,
    },
    /// A plan-scheduled restart of a fault-crashed node came due.
    NodeRestartDue {
        /// The node queued for harness restart.
        node: NodeId,
    },
    /// A scheduled fault action fired (partitions, heals, crashes, restarts).
    FaultAction {
        /// The applied action.
        kind: FaultKind,
    },
    /// A host's buffered storage was flushed by a graceful stop.
    StorageFlush {
        /// The flushed host.
        host: HostId,
    },
    /// A crash resolved a host's unflushed storage against the
    /// crash-materializer stream.
    StorageCrash {
        /// The crashed host.
        host: HostId,
        /// Unflushed bytes at risk when the crash hit.
        at_risk: u32,
    },
    /// The harness sent a client request.
    ClientRequest {
        /// The issuing client id.
        client: u64,
        /// The target node.
        node: NodeId,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// A reply reached a client inbox.
    ClientResponse {
        /// The receiving client id.
        client: u64,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// An oracle observation anchor recorded by [`crate::Sim::trace_observe`]:
    /// the terminal event a failure's lineage chain ends at.
    Observation {
        /// The node the observation implicates, if it names one.
        node: Option<NodeId>,
    },
}

impl TraceEventKind {
    /// The node this event primarily touches, used for anchoring
    /// observations to the last event involving a given node.
    fn node(&self) -> Option<NodeId> {
        match *self {
            TraceEventKind::MessageSend {
                from: Endpoint::Node(n),
                ..
            } => Some(n),
            TraceEventKind::MessageDeliver {
                to: Endpoint::Node(n),
                ..
            } => Some(n),
            TraceEventKind::TimerSet { node, .. }
            | TraceEventKind::TimerFire { node, .. }
            | TraceEventKind::NodeStart { node, .. }
            | TraceEventKind::NodeStop { node }
            | TraceEventKind::NodeCrash { node }
            | TraceEventKind::NodeUpgrade { node }
            | TraceEventKind::NodeDowngrade { node }
            | TraceEventKind::NodeRestartDue { node }
            | TraceEventKind::ClientRequest { node, .. } => Some(node),
            _ => None,
        }
    }

    /// Packs the kind into the compact ring representation: a tag byte plus
    /// three scalar fields. Inlined into the record hot path, where the
    /// encoding is a handful of register moves. Tags 9 and 15 belong to
    /// retired kinds and stay unused, so no structural token moves.
    #[inline(always)]
    fn pack(self) -> (u8, u64, u64, u32) {
        match self {
            TraceEventKind::MessageSend { from, to, bytes } => {
                (0, pack_endpoint(from), pack_endpoint(to), bytes)
            }
            TraceEventKind::MessageDeliver { from, to, bytes } => {
                (1, pack_endpoint(from), pack_endpoint(to), bytes)
            }
            TraceEventKind::FaultDrop { from, to } => {
                (2, pack_endpoint(from), pack_endpoint(to), 0)
            }
            TraceEventKind::FaultDuplicate { extra } => (3, extra.as_millis(), 0, 0),
            TraceEventKind::FaultDelay { extra } => (4, extra.as_millis(), 0, 0),
            TraceEventKind::TimerSet { node, token, delay } => (5, token, delay.as_millis(), node),
            TraceEventKind::TimerFire { node, token } => (6, token, 0, node),
            TraceEventKind::NodeStart { node, generation } => (7, generation, 0, node),
            TraceEventKind::NodeStop { node } => (8, 0, 0, node),
            TraceEventKind::NodeCrash { node } => (10, 0, 0, node),
            TraceEventKind::NodeUpgrade { node } => (11, 0, 0, node),
            TraceEventKind::NodeRestartDue { node } => (12, 0, 0, node),
            TraceEventKind::FaultAction { kind } => match kind {
                FaultKind::Partition(a, b) => (13, a as u64, b as u64, 0),
                FaultKind::Heal(a, b) => (14, a as u64, b as u64, 0),
                FaultKind::Crash(node) => (16, 0, 0, node),
                FaultKind::Restart(node) => (17, 0, 0, node),
            },
            TraceEventKind::StorageFlush { host } => (18, host.index() as u64, 0, 0),
            TraceEventKind::StorageCrash { host, at_risk } => (19, host.index() as u64, 0, at_risk),
            TraceEventKind::ClientRequest {
                client,
                node,
                bytes,
            } => (20, client, node as u64, bytes),
            TraceEventKind::ClientResponse { client, bytes } => (21, client, 0, bytes),
            TraceEventKind::Observation { node: None } => (22, 0, 0, 0),
            TraceEventKind::Observation { node: Some(node) } => (23, 0, 0, node),
            TraceEventKind::NodeDowngrade { node } => (24, 0, 0, node),
        }
    }

    /// Rebuilds the kind from its packed form. Cold: only runs when a slice
    /// is extracted or the buffer is inspected, never while recording.
    fn unpack(tag: u8, a: u64, b: u64, c: u32) -> TraceEventKind {
        match tag {
            0 => TraceEventKind::MessageSend {
                from: unpack_endpoint(a),
                to: unpack_endpoint(b),
                bytes: c,
            },
            1 => TraceEventKind::MessageDeliver {
                from: unpack_endpoint(a),
                to: unpack_endpoint(b),
                bytes: c,
            },
            2 => TraceEventKind::FaultDrop {
                from: unpack_endpoint(a),
                to: unpack_endpoint(b),
            },
            3 => TraceEventKind::FaultDuplicate {
                extra: SimDuration::from_millis(a),
            },
            4 => TraceEventKind::FaultDelay {
                extra: SimDuration::from_millis(a),
            },
            5 => TraceEventKind::TimerSet {
                node: c,
                token: a,
                delay: SimDuration::from_millis(b),
            },
            6 => TraceEventKind::TimerFire { node: c, token: a },
            7 => TraceEventKind::NodeStart {
                node: c,
                generation: a,
            },
            8 => TraceEventKind::NodeStop { node: c },
            10 => TraceEventKind::NodeCrash { node: c },
            11 => TraceEventKind::NodeUpgrade { node: c },
            12 => TraceEventKind::NodeRestartDue { node: c },
            13 => TraceEventKind::FaultAction {
                kind: FaultKind::Partition(a as NodeId, b as NodeId),
            },
            14 => TraceEventKind::FaultAction {
                kind: FaultKind::Heal(a as NodeId, b as NodeId),
            },
            16 => TraceEventKind::FaultAction {
                kind: FaultKind::Crash(c),
            },
            17 => TraceEventKind::FaultAction {
                kind: FaultKind::Restart(c),
            },
            18 => TraceEventKind::StorageFlush {
                host: HostId::from_index(a as u32),
            },
            19 => TraceEventKind::StorageCrash {
                host: HostId::from_index(a as u32),
                at_risk: c,
            },
            20 => TraceEventKind::ClientRequest {
                client: a,
                node: b as NodeId,
                bytes: c,
            },
            21 => TraceEventKind::ClientResponse {
                client: a,
                bytes: c,
            },
            22 => TraceEventKind::Observation { node: None },
            24 => TraceEventKind::NodeDowngrade { node: c },
            _ => TraceEventKind::Observation { node: Some(c) },
        }
    }
}

/// Client endpoints are flagged with the top bit; client ids are sequential
/// counters, so the bit can never collide with a real id.
const CLIENT_BIT: u64 = 1 << 63;

#[inline(always)]
fn pack_endpoint(endpoint: Endpoint) -> u64 {
    match endpoint {
        Endpoint::Node(n) => n as u64,
        Endpoint::Client(c) => c | CLIENT_BIT,
    }
}

fn unpack_endpoint(packed: u64) -> Endpoint {
    if packed & CLIENT_BIT != 0 {
        Endpoint::Client(packed & !CLIENT_BIT)
    } else {
        Endpoint::Node(packed as NodeId)
    }
}

/// Derives the structural token of one packed event: the tag byte mixed with
/// the identity payloads only. Timing payloads (delays, durations), byte
/// counts, and generation counters are deliberately excluded so the token is
/// invariant under wall-clock jitter within the same logical schedule.
#[inline(always)]
fn structural_token(packed: &PackedEvent) -> u64 {
    let (x, y) = match packed.tag {
        // Message send/deliver/drop and partition/heal carry two endpoints
        // or node ids in (a, b); the byte count in c is not structural.
        0 | 1 | 2 | 13 | 14 => (packed.a, packed.b),
        // Duplicate/delay payloads are pure timing.
        3 | 4 => (0, 0),
        // Timer set/fire: token + node; the delay in b is timing.
        5 | 6 => (packed.a, packed.c as u64),
        // NodeStart carries a generation counter in a — excluded.
        7 => (packed.c as u64, 0),
        // Node lifecycle and fault crash/restart: the node alone.
        8..=12 | 16 | 17 | 24 => (packed.c as u64, 0),
        // Storage flush/crash: the host; at-risk byte count is not identity.
        18 | 19 => (packed.a, 0),
        // Client request names both the client and the target node.
        20 => (packed.a, packed.b),
        // Client response: the client; bytes excluded.
        21 => (packed.a, 0),
        // Observations: the optional node in c (0 for the anonymous form).
        _ => (packed.c as u64, 0),
    };
    let mut h = (packed.tag as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = mix(h ^ x);
    mix(h ^ y)
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer, the standard choice
/// for hashing small fixed tuples without tables or allocation.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEventKind::MessageSend { from, to, bytes } => {
                write!(f, "send {from}->{to} {bytes}B")
            }
            TraceEventKind::MessageDeliver { from, to, bytes } => {
                write!(f, "deliver {from}->{to} {bytes}B")
            }
            TraceEventKind::FaultDrop { from, to } => write!(f, "fault-drop {from}->{to}"),
            TraceEventKind::FaultDuplicate { extra } => write!(f, "fault-duplicate +{extra}"),
            TraceEventKind::FaultDelay { extra } => write!(f, "fault-delay +{extra}"),
            TraceEventKind::TimerSet { node, token, delay } => {
                write!(f, "timer-set node-{node} token={token} +{delay}")
            }
            TraceEventKind::TimerFire { node, token } => {
                write!(f, "timer-fire node-{node} token={token}")
            }
            TraceEventKind::NodeStart { node, generation } => {
                write!(f, "node-start node-{node} gen={generation}")
            }
            TraceEventKind::NodeStop { node } => write!(f, "node-stop node-{node}"),
            TraceEventKind::NodeCrash { node } => write!(f, "node-crash node-{node}"),
            TraceEventKind::NodeUpgrade { node } => write!(f, "install node-{node}"),
            TraceEventKind::NodeDowngrade { node } => write!(f, "downgrade node-{node}"),
            TraceEventKind::NodeRestartDue { node } => write!(f, "restart-due node-{node}"),
            TraceEventKind::FaultAction { kind } => write!(f, "fault {kind}"),
            TraceEventKind::StorageFlush { host } => {
                write!(f, "storage-flush host#{}", host.index())
            }
            TraceEventKind::StorageCrash { host, at_risk } => {
                write!(f, "storage-crash host#{} {at_risk}B at risk", host.index())
            }
            TraceEventKind::ClientRequest {
                client,
                node,
                bytes,
            } => write!(f, "client-request client-{client}->node-{node} {bytes}B"),
            TraceEventKind::ClientResponse { client, bytes } => {
                write!(f, "client-response client-{client} {bytes}B")
            }
            TraceEventKind::Observation { node } => match node {
                Some(n) => write!(f, "observation node-{n}"),
                None => write!(f, "observation"),
            },
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sequential id, starting at 1. Id 0 means "no event" and is only ever
    /// a parent (root events have parent 0).
    pub id: u64,
    /// Id of the causal parent: the event whose processing produced this one.
    pub parent: u64,
    /// Simulated time of the event.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceEventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} @{} <-#{} {}",
            self.id, self.time, self.parent, self.kind
        )
    }
}

/// The in-ring event representation: 40 bytes instead of the 64 a full
/// [`TraceEvent`] takes, and no stored id — an event's id is implied by its
/// slot and the write counter, so the hot path stores five scalars and
/// nothing else. [`TraceBuffer::get`] rebuilds the full event on demand.
#[derive(Debug, Clone, Copy)]
struct PackedEvent {
    parent: u64,
    time_ms: u64,
    a: u64,
    b: u64,
    c: u32,
    tag: u8,
}

/// The placeholder filling unwritten ring slots; slots outside the live id
/// range are never exposed (see [`TraceBuffer::get`]), so its content only
/// has to be valid, not meaningful.
const PLACEHOLDER: PackedEvent = PackedEvent {
    parent: 0,
    time_ms: 0,
    a: 0,
    b: 0,
    c: 0,
    tag: 22,
};

/// The fixed-capacity ring of recorded events.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    config: TraceConfig,
    /// Ring storage, prefilled with placeholder events at construction: the
    /// event with id `i` lives at `(i - 1) % capacity`, because ids are
    /// assigned sequentially and slots are overwritten in the same
    /// sequential order.
    events: Vec<PackedEvent>,
    /// The slot the next event lands in — tracks `(next_id - 1) % capacity`
    /// by wrapping increments, keeping the per-record hot path free of
    /// integer division and of a filled-yet? branch.
    cursor: usize,
    /// Id the next recorded event will get; ids start at 1.
    next_id: u64,
}

impl TraceBuffer {
    /// Creates an empty buffer; the ring is fully allocated (and prefilled)
    /// up front so recording never allocates or branches on fill level.
    pub fn new(config: TraceConfig) -> Self {
        let config = config.normalized();
        TraceBuffer {
            config,
            events: vec![PLACEHOLDER; config.capacity],
            cursor: 0,
            next_id: 1,
        }
    }

    /// Rewinds the buffer to its freshly-constructed state without touching
    /// (or allocating) the ring. Stale slots are unreachable afterwards:
    /// every accessor derives liveness from `next_id`, and slots are
    /// overwritten in id order before an id that maps to them is reused.
    pub(crate) fn reset(&mut self) {
        self.cursor = 0;
        self.next_id = 1;
    }

    /// The configuration the buffer was created with.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Makes this buffer byte-identical to `src`. Slots are `Copy`, so when
    /// both rings share a capacity this is a `memcpy` into retained storage;
    /// a capacity change reallocates (cold — only when the config changed
    /// between snapshot and restore).
    pub(crate) fn copy_from(&mut self, src: &TraceBuffer) {
        self.config = src.config;
        self.events.clone_from(&src.events);
        self.cursor = src.cursor;
        self.next_id = src.next_id;
    }

    /// Total events recorded (including those since evicted by ring wrap).
    pub fn events_recorded(&self) -> u64 {
        self.next_id - 1
    }

    /// Events evicted by ring wrap.
    pub fn events_dropped(&self) -> u64 {
        self.events_recorded().saturating_sub(self.live())
    }

    /// How many events are still live in the ring.
    fn live(&self) -> u64 {
        self.events_recorded().min(self.config.capacity as u64)
    }

    /// Records one event and returns its id. This is the hot path: one slot
    /// store plus cursor/id bookkeeping, nothing else. Public so tooling can
    /// build standalone buffers (e.g. coverage-signature tests); the
    /// simulator only ever exposes its own buffer immutably.
    #[inline(always)]
    pub fn record(&mut self, time: SimTime, parent: u64, kind: TraceEventKind) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let (tag, a, b, c) = kind.pack();
        // `cursor` is always in-bounds (it wraps at `events.len()`), but the
        // optimizer cannot prove that; `get_mut` keeps the check without a
        // panic path in the hot loop.
        if let Some(slot) = self.events.get_mut(self.cursor) {
            *slot = PackedEvent {
                parent,
                time_ms: time.as_millis(),
                a,
                b,
                c,
                tag,
            };
        }
        self.cursor += 1;
        if self.cursor == self.config.capacity {
            self.cursor = 0;
        }
        id
    }

    /// The anchor parent for an observation: the last live event touching
    /// `node` if one exists, otherwise the latest event. Runs once per
    /// failing case (never in the record hot path), so it scans the ring
    /// newest-first instead of maintaining a per-record side table.
    pub(crate) fn anchor_for(&self, node: Option<NodeId>) -> u64 {
        let last = self.next_id - 1;
        let Some(n) = node else { return last };
        let first = self.next_id - self.live();
        (first..self.next_id)
            .rev()
            .find(|&id| self.get(id).is_some_and(|e| e.kind.node() == Some(n)))
            .unwrap_or(last)
    }

    /// The event with id `id`, if it is still live in the ring, rebuilt
    /// from its packed slot.
    pub fn get(&self, id: u64) -> Option<TraceEvent> {
        if id == 0 || id >= self.next_id {
            return None;
        }
        if self.next_id - id > self.live() {
            return None; // Evicted by ring wrap.
        }
        let packed = self
            .events
            .get(((id - 1) % self.config.capacity as u64) as usize)?;
        Some(TraceEvent {
            id,
            parent: packed.parent,
            time: SimTime::from_millis(packed.time_ms),
            kind: TraceEventKind::unpack(packed.tag, packed.a, packed.b, packed.c),
        })
    }

    /// The live events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let first = self.next_id - self.live();
        (first..self.next_id).filter_map(move |id| self.get(id))
    }

    /// Folds the structural identity of every live event, oldest first, into
    /// `visit`: one token per event, derived only from the event's kind and
    /// the endpoints, nodes, hosts, and clients it touches — never from
    /// times, delays, payload sizes, or generation counters. Two executions
    /// that perform the same logical steps therefore yield the same token
    /// stream even when their timings differ, which is what makes the stream
    /// usable as a coverage signal over the schedule space.
    ///
    /// Allocation-free: the walk reads packed ring slots in place, so it can
    /// run once per case inside a campaign hot loop.
    pub fn fold_structural(&self, mut visit: impl FnMut(u64)) {
        let first = self.next_id - self.live();
        let capacity = self.config.capacity as u64;
        for id in first..self.next_id {
            if let Some(packed) = self.events.get(((id - 1) % capacity) as usize) {
                visit(structural_token(packed));
            }
        }
    }

    /// Extracts the bounded causal slice anchored at `anchor`: the lineage
    /// chain walking parents from the anchor (oldest first, so the chain
    /// *ends* at the anchor), plus the trailing window of events.
    pub fn slice(&self, anchor: u64) -> TraceSlice {
        let mut lineage = Vec::with_capacity(self.config.lineage_limit);
        let mut id = anchor;
        while lineage.len() < self.config.lineage_limit {
            let Some(event) = self.get(id) else { break };
            id = event.parent;
            lineage.push(event);
        }
        lineage.reverse();
        let tail_len = (self.config.tail_events as u64).min(self.live());
        let tail: Vec<TraceEvent> = (self.next_id - tail_len..self.next_id)
            .filter_map(|id| self.get(id))
            .collect();
        TraceSlice {
            lineage,
            tail,
            events_recorded: self.events_recorded(),
            events_dropped: self.events_dropped(),
        }
    }
}

/// A bounded causal slice extracted from a [`TraceBuffer`], small enough to
/// attach to a failure report and cheap to clone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSlice {
    /// The causal chain from the oldest still-live ancestor down to the
    /// anchor event (the violating observation), oldest first.
    pub lineage: Vec<TraceEvent>,
    /// The last [`TraceConfig::tail_events`] events recorded, oldest first.
    pub tail: Vec<TraceEvent>,
    /// Total events the buffer recorded for the run.
    pub events_recorded: u64,
    /// Events the ring evicted; a nonzero count means the lineage chain may
    /// be truncated at its old end.
    pub events_dropped: u64,
}

impl TraceSlice {
    /// `true` if the slice carries no events at all.
    pub fn is_empty(&self) -> bool {
        self.lineage.is_empty() && self.tail.is_empty()
    }

    /// Renders the slice as a human-readable timeline.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events recorded, {} dropped by ring wrap",
            self.events_recorded, self.events_dropped
        );
        let _ = writeln!(out, "lineage (cause -> violation):");
        for event in &self.lineage {
            let _ = writeln!(out, "  {event}");
        }
        let _ = writeln!(out, "tail (last {} events):", self.tail.len());
        for event in &self.tail {
            let _ = writeln!(out, "  {event}");
        }
        out
    }

    /// Exports the slice in Chrome `trace_event` JSON array format, loadable
    /// by `chrome://tracing` / Perfetto. Lineage events come first; tail
    /// events already present in the lineage are not repeated.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let mut emit = |out: &mut String, event: &TraceEvent, track: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            // Event kinds render from numbers and fixed words only, so the
            // name needs no JSON escaping.
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\"pid\":0,\"tid\":{},\
                 \"cat\":\"{}\",\"args\":{{\"id\":{},\"parent\":{}}}}}",
                event.kind,
                event.time.as_millis() * 1000,
                event.kind.node().unwrap_or(0),
                track,
                event.id,
                event.parent
            );
        };
        for event in &self.lineage {
            emit(&mut out, event, "lineage");
        }
        for event in &self.tail {
            if self.lineage.iter().any(|l| l.id == event.id) {
                continue;
            }
            emit(&mut out, event, "tail");
        }
        out.push(']');
        out
    }
}

/// The simulator's trace component: the recorder and the causal context.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    /// `true` once [`crate::Sim::enable_trace`] was called.
    on: bool,
    /// The ring, allocated by the first enable and kept while tracing is
    /// off, for the next enable to reuse.
    buffer: Option<TraceBuffer>,
    /// Trace id of the event being processed: the causal parent of
    /// everything the running handler produces. 0 while tracing is off.
    pub(crate) ctx: u64,
}

impl Tracer {
    /// Starts recording into an empty buffer, reusing the ring when its
    /// (normalized) config matches.
    pub(crate) fn enable(&mut self, config: TraceConfig) {
        let config = config.normalized();
        match self.buffer.as_mut() {
            Some(t) if t.config() == config => t.reset(),
            _ => self.buffer = Some(TraceBuffer::new(config)),
        }
        self.on = true;
        self.ctx = 0;
    }

    /// The buffer, if tracing is on.
    pub(crate) fn buffer(&self) -> Option<&TraceBuffer> {
        self.buffer.as_ref().filter(|_| self.on)
    }

    /// Records one event at `now`; returns its id, or 0 when tracing is off.
    #[inline(always)]
    pub(crate) fn record(&mut self, now: SimTime, parent: u64, kind: TraceEventKind) -> u64 {
        match self.buffer.as_mut() {
            Some(t) if self.on => t.record(now, parent, kind),
            _ => 0,
        }
    }

    /// Records the event the simulator is about to process and makes it the
    /// causal context of what its handler produces; returns its id.
    #[inline(always)]
    pub(crate) fn enter(&mut self, now: SimTime, parent: u64, kind: TraceEventKind) -> u64 {
        self.ctx = self.record(now, parent, kind);
        self.ctx
    }

    /// Records an observation anchor parented to the last event touching
    /// `node`; returns its id, or 0 when tracing is off.
    pub(crate) fn observe(&mut self, now: SimTime, node: Option<NodeId>) -> u64 {
        let parent = self.buffer().map(|t| t.anchor_for(node));
        parent.map_or(0, |parent| {
            self.record(now, parent, TraceEventKind::Observation { node })
        })
    }

    /// Makes this component a copy of `src`, reusing the ring. A traceless
    /// `src` leaves the ring untouched for the next enable.
    pub(crate) fn copy_from(&mut self, src: &Tracer) {
        let Tracer { on, buffer, ctx } = src;
        match (self.buffer.as_mut(), buffer) {
            (Some(t), Some(src)) if *on => t.copy_from(src),
            (None, Some(src)) if *on => self.buffer = Some(src.clone()),
            _ => {}
        }
        self.on = *on;
        self.ctx = *ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(n: NodeId) -> TraceEventKind {
        TraceEventKind::TimerFire { node: n, token: 0 }
    }

    #[test]
    fn ids_are_sequential_and_parents_walk() {
        let mut buf = TraceBuffer::new(TraceConfig::default());
        let a = buf.record(SimTime::ZERO, 0, kind(0));
        let b = buf.record(SimTime::from_millis(1), a, kind(1));
        let c = buf.record(SimTime::from_millis(2), b, kind(0));
        assert_eq!((a, b, c), (1, 2, 3));
        let slice = buf.slice(c);
        let ids: Vec<u64> = slice.lineage.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            vec![a, b, c],
            "lineage is oldest-first, ends at anchor"
        );
        assert_eq!(slice.events_recorded, 3);
        assert_eq!(slice.events_dropped, 0);
    }

    #[test]
    fn structural_fold_ignores_timing_payloads_but_not_identity() {
        let mut buf = TraceBuffer::new(TraceConfig::default());
        buf.record(
            SimTime::ZERO,
            0,
            TraceEventKind::TimerSet {
                node: 2,
                token: 7,
                delay: SimDuration::from_millis(100),
            },
        );
        let mut base = Vec::new();
        buf.fold_structural(|t| base.push(t));
        assert_eq!(base.len(), 1);

        // Same logical event at a different delay folds identically.
        let mut jittered = TraceBuffer::new(TraceConfig::default());
        jittered.record(
            SimTime::from_millis(9),
            0,
            TraceEventKind::TimerSet {
                node: 2,
                token: 7,
                delay: SimDuration::from_millis(500),
            },
        );
        let mut tokens = Vec::new();
        jittered.fold_structural(|t| tokens.push(t));
        assert_eq!(tokens, base, "delay and timestamp are not structural");

        // A different node is a different token.
        let mut other = TraceBuffer::new(TraceConfig::default());
        other.record(
            SimTime::ZERO,
            0,
            TraceEventKind::TimerSet {
                node: 3,
                token: 7,
                delay: SimDuration::from_millis(100),
            },
        );
        let mut distinct = Vec::new();
        other.fold_structural(|t| distinct.push(t));
        assert_ne!(distinct, base, "node identity is structural");
    }

    #[test]
    fn ring_wrap_evicts_oldest_and_counts_drops() {
        let mut buf = TraceBuffer::new(TraceConfig {
            capacity: 4,
            tail_events: 4,
            lineage_limit: 8,
        });
        let mut last = 0;
        for i in 0..10 {
            last = buf.record(SimTime::from_millis(i), last, kind(0));
        }
        assert_eq!(buf.events_recorded(), 10);
        assert_eq!(buf.events_dropped(), 6);
        assert!(buf.get(6).is_none(), "evicted event is gone");
        assert!(buf.get(7).is_some(), "live window survives");
        let slice = buf.slice(last);
        // The chain breaks where the ring wrapped; only live events appear.
        let ids: Vec<u64> = slice.lineage.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
        assert_eq!(slice.tail.len(), 4);
    }

    #[test]
    fn lineage_limit_caps_the_walk() {
        let mut buf = TraceBuffer::new(TraceConfig {
            capacity: 64,
            tail_events: 2,
            lineage_limit: 3,
        });
        let mut last = 0;
        for i in 0..10 {
            last = buf.record(SimTime::from_millis(i), last, kind(0));
        }
        let slice = buf.slice(last);
        let ids: Vec<u64> = slice.lineage.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![8, 9, 10], "nearest ancestors win");
    }

    #[test]
    fn observation_anchors_to_the_implicated_node() {
        let mut buf = TraceBuffer::new(TraceConfig::default());
        buf.record(SimTime::ZERO, 0, kind(0));
        let on_node_1 = buf.record(SimTime::from_millis(1), 0, kind(1));
        buf.record(SimTime::from_millis(2), 0, kind(0));
        assert_eq!(buf.anchor_for(Some(1)), on_node_1);
        assert_eq!(buf.anchor_for(None), 3, "no hint anchors to the latest");
        assert_eq!(buf.anchor_for(Some(9)), 3, "unknown node anchors to latest");
    }

    #[test]
    fn renders_are_deterministic_and_json_is_balanced() {
        let mut buf = TraceBuffer::new(TraceConfig::default());
        let a = buf.record(
            SimTime::from_millis(5),
            0,
            TraceEventKind::MessageSend {
                from: Endpoint::Node(0),
                to: Endpoint::Node(1),
                bytes: 12,
            },
        );
        buf.record(
            SimTime::from_millis(6),
            a,
            TraceEventKind::Observation { node: Some(1) },
        );
        let slice = buf.slice(2);
        assert_eq!(slice.render_timeline(), buf.slice(2).render_timeline());
        assert!(slice.render_timeline().contains("send node-0->node-1 12B"));
        let json = slice.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert_eq!(json.matches("{\"name\"").count(), 2, "{json}");
        assert!(json.contains("\"ts\":5000"), "{json}");
    }
}
