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

use crate::process::NodeId;
use crate::rng::SimRng;
use crate::storage::Durability;
use crate::time::{SimDuration, SimTime};
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
        self.seed = src.seed;
        self.drop_probability = src.drop_probability;
        self.duplicate_probability = src.duplicate_probability;
        self.delay_probability = src.delay_probability;
        self.max_delay_spike = src.max_delay_spike;
        self.reorder_probability = src.reorder_probability;
        self.max_reorder_shift = src.max_reorder_shift;
        self.durability = src.durability;
        self.crash_point_restart = src.crash_point_restart;
        self.actions.clone_from(&src.actions);
        self.crash_points.clone_from(&src.crash_points);
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

/// Live injection state inside [`crate::Sim`]: the plan plus its fate stream
/// and a counter of injections performed.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    rng: SimRng,
    /// The crash-materializer stream: consumed only when a host actually
    /// crashes, independent of message fates.
    pub(crate) crash_rng: SimRng,
    /// Per-[`CrashPoint`] fired flags (each point fires at most once).
    consumed: Vec<bool>,
    pub(crate) injected: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = SimRng::new(plan.seed).split(FATE_STREAM);
        let crash_rng = SimRng::new(plan.seed).split(CRASH_STREAM);
        let consumed = vec![false; plan.crash_points.len()];
        FaultState {
            plan,
            rng,
            crash_rng,
            consumed,
            injected: 0,
        }
    }

    /// Rebinds this state to a new `plan`, reusing the `consumed` flag vec's
    /// capacity. Observationally identical to `FaultState::new(plan)` — both
    /// RNG streams are re-derived from the plan's seed — so `Sim::reset` can
    /// park and recycle the state without touching the allocator.
    pub(crate) fn reinstall(&mut self, plan: FaultPlan) {
        self.rng = SimRng::new(plan.seed).split(FATE_STREAM);
        self.crash_rng = SimRng::new(plan.seed).split(CRASH_STREAM);
        self.consumed.clear();
        self.consumed.resize(plan.crash_points.len(), false);
        self.injected = 0;
        self.plan = plan;
    }

    /// Cheap pre-check: is an unconsumed crash point armed for `node` of
    /// `kind` whose window contains `now`? Does not consume the point.
    pub(crate) fn wants(&self, node: NodeId, kind: CrashPointKind, now: SimTime) -> bool {
        self.plan
            .crash_points
            .iter()
            .zip(&self.consumed)
            .any(|(p, &used)| {
                !used && p.node == node && p.kind == kind && p.after <= now && now <= p.not_after
            })
    }

    /// Fires the first matching crash point, marking it consumed and
    /// counting one injection. Returns `false` if none is armed.
    pub(crate) fn take_crash_point(
        &mut self,
        node: NodeId,
        kind: CrashPointKind,
        now: SimTime,
    ) -> bool {
        for (p, used) in self.plan.crash_points.iter().zip(&mut self.consumed) {
            if !*used && p.node == node && p.kind == kind && p.after <= now && now <= p.not_after {
                *used = true;
                self.injected += 1;
                return true;
            }
        }
        false
    }

    /// Makes this state a copy of `src` — plan, both RNG stream positions
    /// mid-run (unlike [`FaultState::reinstall`], which re-derives them from
    /// the seed), consumed crash-point flags, injection counter — reusing
    /// retained capacity.
    pub(crate) fn copy_from(&mut self, src: &FaultState) {
        self.plan.copy_from(&src.plan);
        self.rng = src.rng.clone();
        self.crash_rng = src.crash_rng.clone();
        self.consumed.clone_from(&src.consumed);
        self.injected = src.injected;
    }

    /// Decides the fate of one node-to-node message. First matching fault
    /// wins; every non-`Deliver` fate counts as one injection. Draw order is
    /// fixed (drop, duplicate, delay, reorder) so the stream is stable.
    pub(crate) fn message_fate(&mut self) -> MessageFate {
        if self.rng.chance(self.plan.drop_probability) {
            self.injected += 1;
            return MessageFate::Drop;
        }
        if self.rng.chance(self.plan.duplicate_probability) {
            self.injected += 1;
            let extra = SimDuration::from_millis(self.rng.next_range(1, 25));
            return MessageFate::Duplicate { extra };
        }
        if self.rng.chance(self.plan.delay_probability) {
            self.injected += 1;
            let cap = self.plan.max_delay_spike.as_millis().max(1);
            let extra = SimDuration::from_millis(self.rng.next_range(1, cap));
            return MessageFate::Delay { extra };
        }
        if self.rng.chance(self.plan.reorder_probability) {
            self.injected += 1;
            let cap = self.plan.max_reorder_shift.as_millis().max(1);
            let extra = SimDuration::from_millis(self.rng.next_range(1, cap));
            return MessageFate::Delay { extra };
        }
        MessageFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut a = FaultState::new(heavy_plan(7));
        let mut b = FaultState::new(heavy_plan(7));
        for _ in 0..10_000 {
            assert_eq!(a.message_fate(), b.message_fate());
        }
        assert_eq!(a.injected, b.injected);
        assert!(a.injected > 0, "heavy plan never injected in 10k draws");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultState::new(heavy_plan(1));
        let mut b = FaultState::new(heavy_plan(2));
        let same = (0..1000)
            .filter(|_| a.message_fate() == b.message_fate())
            .count();
        assert!(same < 1000, "independent streams matched everywhere");
    }

    #[test]
    fn noop_plan_always_delivers_and_counts_nothing() {
        let mut state = FaultState::new(FaultPlan::new(9));
        assert!(state.plan.is_noop());
        for _ in 0..1000 {
            assert_eq!(state.message_fate(), MessageFate::Deliver);
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
        let mut state = FaultState::new(plan);
        // Outside the window / wrong node / wrong kind: nothing fires.
        assert!(!state.wants(1, CrashPointKind::UnflushedWrite, SimTime::from_millis(50)));
        assert!(!state.take_crash_point(
            1,
            CrashPointKind::UnflushedWrite,
            SimTime::from_millis(50)
        ));
        assert!(!state.take_crash_point(
            2,
            CrashPointKind::UnflushedWrite,
            SimTime::from_millis(150)
        ));
        assert!(!state.take_crash_point(1, CrashPointKind::MidUpgrade, SimTime::from_millis(150)));
        assert_eq!(state.injected, 0);
        // Inside: fires exactly once.
        assert!(state.wants(1, CrashPointKind::UnflushedWrite, SimTime::from_millis(150)));
        assert!(state.take_crash_point(
            1,
            CrashPointKind::UnflushedWrite,
            SimTime::from_millis(150)
        ));
        assert!(!state.wants(1, CrashPointKind::UnflushedWrite, SimTime::from_millis(150)));
        assert!(!state.take_crash_point(
            1,
            CrashPointKind::UnflushedWrite,
            SimTime::from_millis(150)
        ));
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
        let mut state = FaultState::new(plan);
        for _ in 0..500 {
            match state.message_fate() {
                MessageFate::Delay { extra } => {
                    assert!((1..=100).contains(&extra.as_millis()), "{extra}")
                }
                other => panic!("expected Delay, got {other:?}"),
            }
        }
    }
}
