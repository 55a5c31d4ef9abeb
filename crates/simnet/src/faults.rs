//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a pure value describing the adversity a simulation run
//! should face: per-message probabilities (drop, duplicate, delay-spike,
//! reorder) and a schedule of discrete actions (partition/heal link pairs,
//! crash and later restart nodes) pinned to simulated times. The plan carries
//! its own RNG seed, so **the same plan on the same [`crate::Sim`] seed
//! replays byte-identically** — fault campaigns are as reproducible as clean
//! runs, which is what lets a failure report quote the plan as part of a
//! one-line repro string.
//!
//! Message fates are decided inside the simulator's allocation-free dispatch
//! loop; steady-state injection performs no heap allocation (asserted by
//! `tests/alloc_free_dispatch.rs`). Client traffic is never faulted, matching
//! the network model's rule that the harness plays a co-located test driver.
//!
//! Nodes crashed by the plan carry the crash reason [`FAULT_CRASH_REASON`],
//! which failure oracles use to tell injected chaos from genuine failures.

use crate::process::{Endpoint, NodeId};
use crate::queue::{EventKind, EventQueue};
use crate::rng::SimRng;
use crate::storage::Durability;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// Crash reason recorded on nodes crashed by an injected fault, so oracles
/// can exempt them: the tester caused these crashes itself.
pub const FAULT_CRASH_REASON: &str = "crashed by fault injection";

/// Stream id under the plan seed for the per-message fate stream.
const FATE_STREAM: u64 = 0xFA7E;

/// Stream id under the plan seed for the crash-materializer stream.
/// Separate from [`FATE_STREAM`] so crash outcomes never shift message
/// fates (and vice versa) — the two schedules stay independently stable.
const CRASH_STREAM: u64 = 0xC4A5;

/// One discrete fault action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Partition the link between two nodes (both directions).
    Partition(NodeId, NodeId),
    /// Heal the partition between two nodes.
    Heal(NodeId, NodeId),
    /// Crash a node (no shutdown hook), recording [`FAULT_CRASH_REASON`].
    Crash(NodeId),
    /// Restart a node previously crashed by [`FaultKind::Crash`]. The
    /// simulator only queues the request ([`crate::Sim::take_pending_restart`]);
    /// the harness decides which process version to install.
    Restart(NodeId),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Partition(a, b) => write!(f, "part({a},{b})"),
            FaultKind::Heal(a, b) => write!(f, "heal({a},{b})"),
            FaultKind::Crash(n) => write!(f, "crash({n})"),
            FaultKind::Restart(n) => write!(f, "restart({n})"),
        }
    }
}

/// A [`FaultKind`] pinned to a simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// When the action fires (clamped to "now" if already past at install).
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// The trigger condition of a [`CrashPoint`].
///
/// Unlike a [`FaultKind::Crash`] pinned to a wall-clock instant, a crash
/// point fires when the *simulation* reaches a hazardous state — which is
/// how real upgrade failures trigger (paper §5: nodes dying partway through
/// the upgrade procedure itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPointKind {
    /// Crash the host mid-rolling-upgrade: after the old version was asked
    /// to stop (its shutdown hook has run) but before the new version
    /// boots. The harness's install+start continues the upgrade from the
    /// crash-materialized storage image.
    MidUpgrade,
    /// Crash the host right after a handler leaves unflushed bytes on disk
    /// — between a write and its flush. The node is restarted
    /// [`FaultPlan::crash_point_restart`] later at the version it was
    /// running.
    UnflushedWrite,
}

impl fmt::Display for CrashPointKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashPointKind::MidUpgrade => write!(f, "mid-upgrade"),
            CrashPointKind::UnflushedWrite => write!(f, "unflushed-write"),
        }
    }
}

/// A state-triggered crash armed for one node inside a time window.
///
/// The point fires (once) on the first matching hazard inside
/// `[after, not_after]`; if the hazard never occurs in the window, the
/// point simply never fires — the run is still deterministic because the
/// crash-materializer RNG stream is only consumed on actual crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The node whose host crashes.
    pub node: NodeId,
    /// What hazard triggers the crash.
    pub kind: CrashPointKind,
    /// Earliest simulated time the point may fire.
    pub after: SimTime,
    /// Latest simulated time the point may fire.
    pub not_after: SimTime,
}

/// A deterministic fault schedule for one simulation run.
///
/// Probabilities apply independently to every in-flight node-to-node message,
/// first match wins: drop, else duplicate, else delay-spike, else reorder.
/// Scheduled actions fire as ordinary simulator events at their pinned times.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// Probability a message is silently dropped.
    pub drop_probability: f64,
    /// Probability a message is delivered twice (the copy lands 1–25 ms
    /// later).
    pub duplicate_probability: f64,
    /// Probability a message's latency is spiked by up to
    /// [`FaultPlan::max_delay_spike`].
    pub delay_probability: f64,
    /// Upper bound of an injected latency spike.
    pub max_delay_spike: SimDuration,
    /// Probability a message is shifted by up to
    /// [`FaultPlan::max_reorder_shift`] so it can land after later sends.
    pub reorder_probability: f64,
    /// Upper bound of an injected reorder shift.
    pub max_reorder_shift: SimDuration,
    /// Crash-durability mode applied to every host while this plan is
    /// installed (see [`Durability`]).
    pub durability: Durability,
    /// How long after an [`CrashPointKind::UnflushedWrite`] crash the
    /// simulator requests the node's restart.
    pub crash_point_restart: SimDuration,
    actions: Vec<ScheduledFault>,
    crash_points: Vec<CrashPoint>,
}

impl FaultPlan {
    /// Creates an empty plan (no probabilities, no actions) seeded with
    /// `seed` for its per-message fate stream.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            delay_probability: 0.0,
            max_delay_spike: SimDuration::from_millis(500),
            reorder_probability: 0.0,
            max_reorder_shift: SimDuration::from_millis(25),
            durability: Durability::Strict,
            crash_point_restart: SimDuration::from_secs(2),
            actions: Vec::new(),
            crash_points: Vec::new(),
        }
    }

    /// The seed of the plan's fate stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedules `kind` at simulated time `at`; chains.
    pub fn schedule(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.actions.push(ScheduledFault { at, kind });
        self
    }

    /// The scheduled actions, in insertion order.
    pub fn actions(&self) -> &[ScheduledFault] {
        &self.actions
    }

    /// Arms a state-triggered crash for `node` inside `[after, not_after]`;
    /// chains.
    pub fn crash_point(
        mut self,
        node: NodeId,
        kind: CrashPointKind,
        after: SimTime,
        not_after: SimTime,
    ) -> Self {
        self.crash_points.push(CrashPoint {
            node,
            kind,
            after,
            not_after,
        });
        self
    }

    /// The armed crash points, in insertion order.
    pub fn crash_points(&self) -> &[CrashPoint] {
        &self.crash_points
    }

    /// `true` if the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.actions.is_empty()
            && self.crash_points.is_empty()
            && self.durability == Durability::Strict
            && self.drop_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && self.delay_probability <= 0.0
            && self.reorder_probability <= 0.0
    }

    /// Field-wise copy that reuses the destination's action and crash-point
    /// vec capacities (the derived `clone_from` would clone-and-replace).
    pub(crate) fn copy_from(&mut self, src: &FaultPlan) {
        let mut actions = std::mem::take(&mut self.actions);
        let mut crash_points = std::mem::take(&mut self.crash_points);
        actions.clone_from(&src.actions);
        crash_points.clone_from(&src.crash_points);
        *self = FaultPlan {
            actions,
            crash_points,
            ..*src
        };
    }

    /// A compact one-line description, suitable for repro strings:
    /// `fault-plan[seed=0x2a drop=2.0% dup=0.0% delay=5.0%/800ms
    /// reorder=10.0%/40ms actions=3]`.
    pub fn describe(&self) -> String {
        format!(
            "fault-plan[seed={:#x} drop={:.1}% dup={:.1}% delay={:.1}%/{} reorder={:.1}%/{} actions={} durability={} crash-points={}]",
            self.seed,
            self.drop_probability * 100.0,
            self.duplicate_probability * 100.0,
            self.delay_probability * 100.0,
            self.max_delay_spike,
            self.reorder_probability * 100.0,
            self.max_reorder_shift,
            self.actions.len(),
            self.durability,
            self.crash_points.len(),
        )
    }
}

/// The fate of one in-flight node-to-node message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MessageFate {
    /// Deliver normally.
    Deliver,
    /// Drop silently.
    Drop,
    /// Deliver normally, plus a second copy `extra` later.
    Duplicate {
        /// Offset of the duplicate copy from the original delivery.
        extra: SimDuration,
    },
    /// Deliver `extra` later than the network latency alone.
    Delay {
        /// The injected extra latency (spike or reorder shift).
        extra: SimDuration,
    },
}

/// The simulator's fault component: the installed plan with its fate and
/// crash-materializer streams, the plan epoch, and the restarts that came
/// due. Without a plan it injects nothing and keeps its allocations.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    /// `true` once a plan is installed; the plan is empty otherwise.
    active: bool,
    plan: FaultPlan,
    /// The per-message fate stream.
    rng: SimRng,
    /// The crash-materializer stream: consumed only when a host actually
    /// crashes, independent of message fates.
    crash_rng: SimRng,
    /// Per-[`CrashPoint`] fired flags (each point fires at most once).
    consumed: Vec<bool>,
    /// Message fates, applied actions and fired crash points so far.
    injected: u64,
    /// Incremented per install; stamps `Fault` and `PointRestart` events so
    /// a replaced plan's leftover events do nothing.
    epoch: u64,
    /// Nodes crashed by the plan whose restart came due, for the harness
    /// to drain ([`crate::Sim::take_pending_restart`]).
    pending_restarts: VecDeque<NodeId>,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector {
            active: false,
            plan: FaultPlan::new(0),
            rng: SimRng::new(0),
            crash_rng: SimRng::new(0),
            consumed: Vec::new(),
            injected: 0,
            epoch: 0,
            pending_restarts: VecDeque::new(),
        }
    }
}

impl FaultInjector {
    /// Installs `plan` under a new epoch, replacing any earlier one: its
    /// actions go on `queue` (those already past fire at `now`), and both
    /// RNG streams are derived from the plan's seed.
    pub(crate) fn install(&mut self, plan: FaultPlan, now: SimTime, queue: &mut EventQueue) {
        self.epoch += 1;
        let epoch = self.epoch;
        for (action, fault) in plan.actions().iter().enumerate() {
            queue.schedule(fault.at.max(now), 0, EventKind::Fault { action, epoch });
        }
        self.rng = SimRng::new(plan.seed).split(FATE_STREAM);
        self.crash_rng = SimRng::new(plan.seed).split(CRASH_STREAM);
        self.consumed.clear();
        self.consumed.resize(plan.crash_points.len(), false);
        self.injected = 0;
        self.plan = plan;
        self.active = true;
    }

    /// The action a `Fault` event of `epoch` names, or `None` if a later
    /// install made the event stale.
    #[inline]
    pub(crate) fn due_action(&self, action: usize, epoch: u64) -> Option<FaultKind> {
        if !self.active || epoch != self.epoch {
            return None;
        }
        self.plan.actions().get(action).map(|a| a.kind)
    }

    /// `true` if an event stamped `epoch` belongs to the installed plan.
    #[inline]
    pub(crate) fn is_current(&self, epoch: u64) -> bool {
        epoch == self.epoch
    }

    /// Decides the fate of one message to `to`; replies to clients always
    /// go through, as in `Network::route`. First matching fault wins, in
    /// the fixed draw order drop, duplicate, delay, reorder; every
    /// non-`Deliver` fate counts as one injection.
    #[inline]
    pub(crate) fn message_fate(&mut self, to: Endpoint) -> MessageFate {
        if !self.active || matches!(to, Endpoint::Client(_)) {
            return MessageFate::Deliver;
        }
        let plan = &self.plan;
        if self.rng.chance(plan.drop_probability) {
            self.injected += 1;
            return MessageFate::Drop;
        }
        if self.rng.chance(plan.duplicate_probability) {
            self.injected += 1;
            let extra = SimDuration::from_millis(self.rng.next_range(1, 25));
            return MessageFate::Duplicate { extra };
        }
        let cap = if self.rng.chance(plan.delay_probability) {
            plan.max_delay_spike
        } else if self.rng.chance(plan.reorder_probability) {
            plan.max_reorder_shift
        } else {
            return MessageFate::Deliver;
        };
        self.injected += 1;
        let extra = SimDuration::from_millis(self.rng.next_range(1, cap.as_millis().max(1)));
        MessageFate::Delay { extra }
    }

    /// The unfired crash point of `kind` armed for `node` whose window
    /// contains `now`, if any. Consumes nothing.
    #[inline]
    pub(crate) fn armed(&self, node: NodeId, kind: CrashPointKind, now: SimTime) -> Option<usize> {
        let mut points = self.plan.crash_points.iter().zip(&self.consumed);
        points.position(|(p, &used)| {
            !used && p.node == node && p.kind == kind && p.after <= now && now <= p.not_after
        })
    }

    /// Fires the crash point of `kind` armed for `node` at `now`, counting
    /// one injection; returns whether one was armed.
    pub(crate) fn fire_point(&mut self, node: NodeId, kind: CrashPointKind, now: SimTime) -> bool {
        let Some(i) = self.armed(node, kind, now) else {
            return false;
        };
        self.consumed[i] = true;
        self.injected += 1;
        true
    }

    /// Fires `node`'s armed unflushed-write crash point, whose crash was
    /// recorded under trace id `cause`, and schedules the node's restart
    /// [`FaultPlan::crash_point_restart`] later.
    pub(crate) fn fire_unflushed_write(
        &mut self,
        node: NodeId,
        now: SimTime,
        cause: u64,
        queue: &mut EventQueue,
    ) {
        self.fire_point(node, CrashPointKind::UnflushedWrite, now);
        let (at, epoch) = (now + self.plan.crash_point_restart, self.epoch);
        queue.schedule(at, cause, EventKind::PointRestart { node, epoch });
    }

    /// Faults injected since the plan was installed.
    pub(crate) fn injected(&self) -> u64 {
        self.injected
    }

    /// Counts one scheduled action that took effect.
    pub(crate) fn applied(&mut self) {
        self.injected += 1;
    }

    /// Queues `node`, crashed by the plan, for the harness to restart.
    pub(crate) fn queue_restart(&mut self, node: NodeId) {
        self.pending_restarts.push_back(node);
    }

    /// Pops the next node whose restart came due.
    pub(crate) fn take_restart(&mut self) -> Option<NodeId> {
        self.pending_restarts.pop_front()
    }

    /// The crash-materializer stream, or `None` without a plan (no plan
    /// means strict durability: nothing is ever unflushed).
    #[inline]
    pub(crate) fn crash_rng(&mut self) -> Option<&mut SimRng> {
        self.active.then_some(&mut self.crash_rng)
    }

    /// Makes this component a copy of `src` — both RNG stream positions
    /// included — reusing retained capacity.
    pub(crate) fn copy_from(&mut self, src: &FaultInjector) {
        let FaultInjector {
            active,
            plan,
            rng,
            crash_rng,
            consumed,
            injected,
            epoch,
            pending_restarts,
        } = src;
        self.active = *active;
        self.plan.copy_from(plan);
        self.rng = rng.clone();
        self.crash_rng = crash_rng.clone();
        self.consumed.clone_from(consumed);
        self.injected = *injected;
        self.epoch = *epoch;
        self.pending_restarts.clone_from(pending_restarts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn installed(plan: FaultPlan) -> FaultInjector {
        let mut faults = FaultInjector::default();
        faults.install(plan, SimTime::ZERO, &mut EventQueue::default());
        faults
    }

    fn fate(faults: &mut FaultInjector) -> MessageFate {
        faults.message_fate(Endpoint::Node(1))
    }

    fn heavy_plan(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        plan.drop_probability = 0.06;
        plan.duplicate_probability = 0.05;
        plan.delay_probability = 0.05;
        plan.reorder_probability = 0.10;
        plan.schedule(SimTime::from_millis(3000), FaultKind::Partition(0, 1))
            .schedule(SimTime::from_millis(8000), FaultKind::Heal(0, 1))
            .schedule(SimTime::from_millis(9000), FaultKind::Crash(2))
            .schedule(SimTime::from_millis(12000), FaultKind::Restart(2))
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let mut a = installed(heavy_plan(7));
        let mut b = installed(heavy_plan(7));
        for _ in 0..10_000 {
            assert_eq!(fate(&mut a), fate(&mut b));
        }
        assert_eq!(a.injected, b.injected);
        assert!(a.injected > 0, "heavy plan never injected in 10k draws");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = installed(heavy_plan(1));
        let mut b = installed(heavy_plan(2));
        let same = (0..1000).filter(|_| fate(&mut a) == fate(&mut b)).count();
        assert!(same < 1000, "independent streams matched everywhere");
    }

    #[test]
    fn noop_plan_always_delivers_and_counts_nothing() {
        let mut state = installed(FaultPlan::new(9));
        assert!(state.plan.is_noop());
        for _ in 0..1000 {
            assert_eq!(fate(&mut state), MessageFate::Deliver);
        }
        assert_eq!(state.injected, 0);
    }

    #[test]
    fn actions_keep_insertion_order() {
        let plan = heavy_plan(3);
        assert!(!plan.is_noop());
        let kinds: Vec<FaultKind> = plan.actions().iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::Partition(0, 1),
                FaultKind::Heal(0, 1),
                FaultKind::Crash(2),
                FaultKind::Restart(2),
            ]
        );
    }

    #[test]
    fn describe_is_stable_and_compact() {
        let d = heavy_plan(42).describe();
        assert_eq!(d, heavy_plan(42).describe());
        assert!(d.contains("seed=0x2a"), "{d}");
        assert!(d.contains("drop=6.0%"), "{d}");
        assert!(d.contains("actions=4"), "{d}");
        assert!(!d.contains('\n'));
    }

    #[test]
    fn crash_points_fire_once_inside_their_window() {
        let plan = FaultPlan::new(4).crash_point(
            1,
            CrashPointKind::UnflushedWrite,
            SimTime::from_millis(100),
            SimTime::from_millis(200),
        );
        assert!(!plan.is_noop());
        assert_eq!(plan.crash_points().len(), 1);
        let mut state = installed(plan);
        // Outside the window / wrong node / wrong kind: nothing fires.
        assert!(state
            .armed(1, CrashPointKind::UnflushedWrite, SimTime::from_millis(50))
            .is_none());
        assert!(!state.fire_point(1, CrashPointKind::UnflushedWrite, SimTime::from_millis(50)));
        assert!(!state.fire_point(2, CrashPointKind::UnflushedWrite, SimTime::from_millis(150)));
        assert!(!state.fire_point(1, CrashPointKind::MidUpgrade, SimTime::from_millis(150)));
        assert_eq!(state.injected, 0);
        // Inside: fires exactly once.
        assert!(state
            .armed(1, CrashPointKind::UnflushedWrite, SimTime::from_millis(150))
            .is_some());
        assert!(state.fire_point(1, CrashPointKind::UnflushedWrite, SimTime::from_millis(150)));
        assert!(state
            .armed(1, CrashPointKind::UnflushedWrite, SimTime::from_millis(150))
            .is_none());
        assert!(!state.fire_point(1, CrashPointKind::UnflushedWrite, SimTime::from_millis(150)));
        assert_eq!(state.injected, 1);
    }

    #[test]
    fn durability_alone_makes_a_plan_active() {
        let mut plan = FaultPlan::new(11);
        assert!(plan.is_noop());
        plan.durability = Durability::Torn;
        assert!(!plan.is_noop());
        assert!(
            plan.describe().contains("durability=torn"),
            "{}",
            plan.describe()
        );
    }

    #[test]
    fn fate_extras_respect_caps() {
        let mut plan = FaultPlan::new(5);
        plan.delay_probability = 1.0;
        plan.max_delay_spike = SimDuration::from_millis(100);
        let mut state = installed(plan);
        for _ in 0..500 {
            match fate(&mut state) {
                MessageFate::Delay { extra } => {
                    assert!((1..=100).contains(&extra.as_millis()), "{extra}")
                }
                other => panic!("expected Delay, got {other:?}"),
            }
        }
    }
}
