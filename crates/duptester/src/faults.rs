//! The fault-intensity axis of the campaign matrix.
//!
//! A [`FaultIntensity`] is the campaign-level knob; [`fault_plan_for`]
//! expands it (together with the storage [`Durability`] axis) into a
//! concrete [`FaultPlan`] as a *pure function* of
//! `(intensity, durability, seed, cluster size, base time)`. That purity is
//! the repro contract: a [`CaseSpec`](crate::CaseSpec) quotes the intensity,
//! the durability, the seed and the [`PlanNudge`], and that rebuilds the
//! exact plan — drops, partition windows, crash times, crash points and all.
//!
//! A case's [`FaultDriver`] runs the simulator while such a plan is armed:
//! it brings the nodes the plan crashed back at their version.

use crate::rollout::MAX_SETTLE_SHIFT_MS;
use dup_core::{Config, NodeSetup, SystemUnderTest, VersionId};
use dup_simnet::{
    CrashPointKind, Durability, FaultKind, FaultPlan, NodeId, Process, Sim, SimDuration, SimRng,
    SimTime,
};
use std::fmt;
use std::str::FromStr;

/// Stream id (under the case seed) for deriving a case's fault plan. Distinct
/// from every node stream and the network stream, so turning faults on never
/// perturbs the rest of the simulation's randomness.
const PLAN_STREAM: u64 = 0xFA17;

/// How much injected adversity a case runs under.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultIntensity {
    /// No injected faults (the default; matches pre-fault-axis behaviour).
    #[default]
    Off,
    /// Mild chaos: a few percent of messages perturbed, one partition
    /// window, one crash-and-restart.
    Light,
    /// Heavy chaos: most perturbation probabilities doubled or more, two
    /// partition windows, two crash-and-restarts.
    Heavy,
}

impl FaultIntensity {
    /// All intensities, mildest first.
    pub const ALL: [FaultIntensity; 3] = [
        FaultIntensity::Off,
        FaultIntensity::Light,
        FaultIntensity::Heavy,
    ];
}

impl fmt::Display for FaultIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultIntensity::Off => "off",
            FaultIntensity::Light => "light",
            FaultIntensity::Heavy => "heavy",
        };
        f.write_str(s)
    }
}

impl FromStr for FaultIntensity {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultIntensity, String> {
        let found = FaultIntensity::ALL.into_iter().find(|i| i.to_string() == s);
        found.ok_or_else(|| format!("unknown fault intensity {s:?}"))
    }
}

/// Expands `(intensity, durability, seed, nodes)` into a concrete
/// [`FaultPlan`], or `None` when there is nothing to inject — i.e. for
/// [`FaultIntensity::Off`] under [`Durability::Strict`] (or an empty
/// cluster).
///
/// Deterministic: the same arguments always yield the same plan — same
/// probabilities, same partition windows, same crash/restart times, same
/// crash points. Crash and partition targets are drawn from `0..nodes` (the
/// booted cluster; a scenario's late joiner is never a target). Action times
/// land inside the harness's workload-plus-quiesce span so the adversity
/// overlaps the upgrade window, and every partition is healed and every
/// crash restarted well before the post-upgrade verification ops.
///
/// `base` shifts every scheduled action time and crash-point window by a
/// fixed offset without touching any random draw. The snapshot-and-fork
/// harness installs plans at the start of a case's seed-dependent *suffix*
/// (after the shared warmup prefix) rather than at boot, so it passes the
/// install time as `base` to keep the adversity aimed at the upgrade
/// window. `SimTime::ZERO` reproduces the boot-anchored plan byte-for-byte.
///
/// Under a non-strict durability the plan additionally carries the
/// durability mode plus two state-triggered [`dup_simnet::CrashPoint`]s: one
/// that turns a graceful upgrade stop into a crash (mid-upgrade), and one
/// that kills a node between a write and its flush (unflushed-write). Their
/// draws come *after* every intensity draw, so adding the durability axis
/// never shifts an existing plan's randomness.
pub fn fault_plan_for(
    intensity: FaultIntensity,
    durability: Durability,
    seed: u64,
    nodes: u32,
    base: SimTime,
) -> Option<FaultPlan> {
    if (intensity == FaultIntensity::Off && durability == Durability::Strict) || nodes == 0 {
        return None;
    }
    let mut rng = SimRng::new(seed).split(PLAN_STREAM);
    let mut plan = FaultPlan::new(rng.next_u64());
    let (partition_windows, crashes) = match intensity {
        FaultIntensity::Off => (0, 0),
        FaultIntensity::Light => {
            plan.drop_probability = 0.02;
            plan.duplicate_probability = 0.02;
            plan.delay_probability = 0.02;
            plan.max_delay_spike = SimDuration::from_millis(200);
            plan.reorder_probability = 0.05;
            plan.max_reorder_shift = SimDuration::from_millis(20);
            (1, 1)
        }
        FaultIntensity::Heavy => {
            plan.drop_probability = 0.06;
            plan.duplicate_probability = 0.05;
            plan.delay_probability = 0.05;
            plan.max_delay_spike = SimDuration::from_millis(800);
            plan.reorder_probability = 0.10;
            plan.max_reorder_shift = SimDuration::from_millis(40);
            (2, 2)
        }
    };
    for _ in 0..partition_windows {
        if nodes < 2 {
            break;
        }
        let a = rng.next_below(u64::from(nodes)) as u32;
        let b_raw = rng.next_below(u64::from(nodes) - 1) as u32;
        let b = if b_raw >= a { b_raw + 1 } else { b_raw };
        let at = base + SimDuration::from_millis(rng.next_range(3_000, 50_000));
        let heal_after = SimDuration::from_millis(rng.next_range(2_000, 8_000));
        plan = plan
            .schedule(at, FaultKind::Partition(a, b))
            .schedule(at + heal_after, FaultKind::Heal(a, b));
    }
    for _ in 0..crashes {
        let victim = rng.next_below(u64::from(nodes)) as u32;
        let at = base + SimDuration::from_millis(rng.next_range(3_000, 50_000));
        let back_after = SimDuration::from_millis(rng.next_range(1_000, 4_000));
        plan = plan
            .schedule(at, FaultKind::Crash(victim))
            .schedule(at + back_after, FaultKind::Restart(victim));
    }
    // Durability draws come last so the axis composes with (rather than
    // perturbs) the intensity draws above.
    if durability != Durability::Strict {
        plan.durability = durability;
        let mid_victim = rng.next_below(u64::from(nodes)) as u32;
        plan = plan.crash_point(
            mid_victim,
            CrashPointKind::MidUpgrade,
            base,
            base + SimDuration::from_millis(120_000),
        );
        let wal_victim = rng.next_below(u64::from(nodes)) as u32;
        let after = rng.next_range(3_000, 50_000);
        plan = plan.crash_point(
            wal_victim,
            CrashPointKind::UnflushedWrite,
            base + SimDuration::from_millis(after),
            base + SimDuration::from_millis(after + 8_000),
        );
    }
    Some(plan)
}

/// Largest magnitude (in milliseconds) a [`PlanNudge`] may shift scheduled
/// fault times or crash-point windows by. Mutation operators draw shifts
/// from `[-MAX_NUDGE_SHIFT_MS, MAX_NUDGE_SHIFT_MS]`.
pub const MAX_NUDGE_SHIFT_MS: u64 = 20_000;

/// The span after a plan's `base` install time inside which every nudged
/// action and crash-point window is clamped. Matches the widest window
/// [`fault_plan_for`] itself uses (the mid-upgrade crash-point window), so a
/// nudged plan never aims adversity past the harness's verification phase.
pub const PLAN_WINDOW_MS: u64 = 120_000;

/// A deterministic perturbation of a case's fault plan — the unit the
/// coverage-guided search mutates instead of drawing fresh seeds.
///
/// A nudge never touches the case seed, so the workload, cluster, and every
/// non-fault random stream replay identically; only *when* the scheduled
/// adversity lands and *which* messages the per-message fate stream picks
/// on change. Applied via [`apply_nudge`], itself a pure function, which
/// keeps the repro contract: `(intensity, durability, seed, nudge)` rebuilds
/// the exact perturbed plan.
///
/// The text form lists the non-zero fields in declaration order, tagged
/// `a c f s w b k h`: shifts in signed decimal milliseconds, salts in
/// lowercase hex (`a-4200,f9e37`). Parsing accepts exactly that form, with
/// every shift inside the bound [`mutate`](crate::mutate) draws it from, so
/// two texts never denote one nudge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanNudge {
    /// Signed shift, in milliseconds, applied uniformly to every scheduled
    /// partition/heal/crash/restart time.
    pub action_shift_ms: i64,
    /// Signed shift, in milliseconds, applied uniformly to both edges of
    /// every state-triggered crash-point window.
    pub crash_shift_ms: i64,
    /// XOR salt folded into the plan's fate-stream seed: re-rolls which
    /// messages get dropped/duplicated/delayed/reordered without changing
    /// the probabilities.
    pub fate_salt: u64,
    /// Signed shift, in milliseconds, applied to every settle step of the
    /// case's compiled [`RolloutPlan`](crate::RolloutPlan), bounded by
    /// [`MAX_SETTLE_SHIFT_MS`](crate::MAX_SETTLE_SHIFT_MS). Ignored by
    /// [`apply_nudge`] — the rollout plan consumes it via
    /// [`RolloutPlan::nudge`](crate::RolloutPlan::nudge).
    pub settle_shift_ms: i64,
    /// Selects one validity-preserving adjacent step swap in the case's
    /// compiled rollout plan (`0` = no swap). Like `settle_shift_ms`,
    /// consumed by the rollout plan, not by [`apply_nudge`].
    pub step_swap_salt: u64,
    /// Signed shift, in milliseconds, applied to every burst segment of the
    /// case's compiled [`WorkloadPlan`](crate::WorkloadPlan), clamped to a
    /// quarter burst slot so segments stay disjoint. Ignored by
    /// [`apply_nudge`] — the workload plan consumes it via
    /// [`WorkloadPlan::nudge`](crate::WorkloadPlan::nudge).
    pub burst_shift_ms: i64,
    /// XOR salt folded into the workload plan's rank→key permutation:
    /// re-ranks *which* keys are hot without changing the Zipf profile.
    /// Consumed by the workload plan, not by [`apply_nudge`].
    pub key_rank_salt: u64,
    /// XOR salt folded into the workload plan's index→client hash: moves
    /// which logical clients issue which arrivals without changing arrival
    /// timing or keys. Consumed by the workload plan, not by
    /// [`apply_nudge`].
    pub arrival_churn_salt: u64,
}

impl PlanNudge {
    /// True when applying this nudge would return the fault plan, the
    /// rollout plan, *and* the workload plan unchanged.
    pub fn is_noop(&self) -> bool {
        *self == PlanNudge::default()
    }
}

impl fmt::Display for PlanNudge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: [(char, i128, bool); 8] = [
            ('a', self.action_shift_ms.into(), false),
            ('c', self.crash_shift_ms.into(), false),
            ('f', self.fate_salt.into(), true),
            ('s', self.settle_shift_ms.into(), false),
            ('w', self.step_swap_salt.into(), true),
            ('b', self.burst_shift_ms.into(), false),
            ('k', self.key_rank_salt.into(), true),
            ('h', self.arrival_churn_salt.into(), true),
        ];
        let mut sep = "";
        for (tag, value, hex) in fields.into_iter().filter(|field| field.1 != 0) {
            if hex {
                write!(f, "{sep}{tag}{value:x}")?;
            } else {
                write!(f, "{sep}{tag}{value}")?;
            }
            sep = ",";
        }
        Ok(())
    }
}

impl FromStr for PlanNudge {
    type Err = String;

    fn from_str(s: &str) -> Result<PlanNudge, String> {
        let mut nudge = PlanNudge::default();
        for field in s.split(',') {
            let body = field.get(1..).unwrap_or_default();
            let shift = |max: u64| body.parse::<i64>().ok().filter(|v| v.unsigned_abs() <= max);
            let salt = || u64::from_str_radix(body, 16).ok();
            let n = &mut nudge;
            let parsed = match field.chars().next() {
                Some('a') => shift(MAX_NUDGE_SHIFT_MS).map(|v| n.action_shift_ms = v),
                Some('c') => shift(MAX_NUDGE_SHIFT_MS).map(|v| n.crash_shift_ms = v),
                Some('f') => salt().map(|v| n.fate_salt = v),
                Some('s') => shift(MAX_SETTLE_SHIFT_MS).map(|v| n.settle_shift_ms = v),
                Some('w') => salt().map(|v| n.step_swap_salt = v),
                Some('b') => shift(MAX_NUDGE_SHIFT_MS).map(|v| n.burst_shift_ms = v),
                Some('k') => salt().map(|v| n.key_rank_salt = v),
                Some('h') => salt().map(|v| n.arrival_churn_salt = v),
                _ => None,
            };
            parsed.ok_or_else(|| format!("bad nudge field {field:?}"))?;
        }
        // Re-rendering rejects zero, repeated and out-of-order fields, and
        // any spelling of a number but the one `Display` writes.
        if s.is_empty() || nudge.to_string() != s {
            return Err(format!("nudge {s:?} is not in canonical form"));
        }
        Ok(nudge)
    }
}

/// Applies a [`PlanNudge`] to a plan installed at `base`, returning the
/// perturbed plan.
///
/// Pure: same `(plan, nudge, base)` always yields the same result. Scheduled
/// action times shift uniformly by `action_shift_ms` and clamp into
/// `[base, base + PLAN_WINDOW_MS]`; crash-point windows shift by
/// `crash_shift_ms` under the same clamp. Because the shift is uniform and
/// the clamp is monotone, relative ordering is preserved — a heal never
/// moves before its partition, a restart never before its crash, and
/// `after <= not_after` still holds for every crash point. A non-zero
/// `fate_salt` reseeds only the per-message fate stream.
pub fn apply_nudge(plan: &FaultPlan, nudge: &PlanNudge, base: SimTime) -> FaultPlan {
    let mut out = FaultPlan::new(plan.seed() ^ nudge.fate_salt);
    out.drop_probability = plan.drop_probability;
    out.duplicate_probability = plan.duplicate_probability;
    out.delay_probability = plan.delay_probability;
    out.max_delay_spike = plan.max_delay_spike;
    out.reorder_probability = plan.reorder_probability;
    out.max_reorder_shift = plan.max_reorder_shift;
    out.durability = plan.durability;
    out.crash_point_restart = plan.crash_point_restart;
    let clamp = |ms: u64, shift: i64| -> SimTime {
        let lo = i128::from(base.as_millis());
        let hi = lo + i128::from(PLAN_WINDOW_MS);
        let shifted = i128::from(ms) + i128::from(shift);
        SimTime::from_millis(shifted.clamp(lo, hi) as u64)
    };
    for action in plan.actions() {
        out = out.schedule(
            clamp(action.at.as_millis(), nudge.action_shift_ms),
            action.kind,
        );
    }
    for point in plan.crash_points() {
        out = out.crash_point(
            point.node,
            point.kind,
            clamp(point.after.as_millis(), nudge.crash_shift_ms),
            clamp(point.not_after.as_millis(), nudge.crash_shift_ms),
        );
    }
    out
}

/// Drives the simulation on the harness's behalf: between events it drains
/// [`Sim::take_pending_restart`] and brings fault-crashed nodes back —
/// re-spawning whatever version the node was on when the plan crashed it,
/// with the same configuration. With no fault plan installed nothing is ever
/// pending, and the pump is one empty-queue check per event.
pub(crate) struct FaultDriver<'a> {
    pub(crate) sut: &'a dyn SystemUnderTest,
    /// The configuration every node of the case boots with.
    pub(crate) config: &'a Config,
    /// The rollout plan's version path, the from-version first: the
    /// versions a node may legally be on mid-case (multi-hop plans have a
    /// middle version beyond the pair).
    pub(crate) path: &'a [VersionId],
}

impl FaultDriver<'_> {
    /// A process of `version` for `node`. A node past the initial cluster
    /// joined it, and sees one more member.
    pub(crate) fn spawn(&self, node: NodeId, version: VersionId) -> Box<dyn Process> {
        let n = self.sut.cluster_size();
        let mut setup = NodeSetup::new(node, if node >= n { n + 1 } else { n });
        setup.config = self.config.clone();
        self.sut.spawn(version, &setup)
    }

    /// Restarts every fault-crashed node whose scheduled comeback is due.
    fn pump(&self, sim: &mut Sim) {
        while let Some(node) = sim.take_pending_restart() {
            // Re-check: the harness may have upgraded (and restarted) the
            // node itself since the restart was queued.
            if !sim.is_fault_crashed(node) {
                continue;
            }
            // Re-spawn whatever path version the node was on when the plan
            // crashed it (only the fault plan crashes get pumped, so genuine
            // downgrade failures persist as oracle evidence).
            let version = sim
                .node_version(node)
                .parse::<VersionId>()
                .ok()
                .filter(|v| self.path.contains(v))
                .unwrap_or(self.path[0]);
            let process = self.spawn(node, version);
            if sim.install(node, &version.to_string(), process).is_ok() {
                let _ = sim.start_node(node);
            }
        }
    }

    /// The one pumped stepping loop: runs `sim` event by event up to
    /// `deadline`, pumping before each event, until `done` holds (asked
    /// before each pump). Returns `true` if `done` ended it; otherwise the
    /// clock stands at `deadline`.
    pub(crate) fn step_until(
        &self,
        sim: &mut Sim,
        deadline: SimTime,
        mut done: impl FnMut(&mut Sim) -> bool,
    ) -> bool {
        loop {
            if done(sim) {
                return true;
            }
            self.pump(sim);
            match sim.peek_time() {
                Some(t) if t <= deadline => {
                    sim.step();
                }
                _ => {
                    sim.run_until(deadline);
                    return false;
                }
            }
        }
    }

    /// Pump-aware [`Sim::run_for`].
    pub(crate) fn run_for(&self, sim: &mut Sim, duration: SimDuration) {
        self.quiesce(sim, duration, u64::MAX);
    }

    /// Pump-aware [`Sim::run_for`] that also stops, wherever the clock then
    /// stands, once [`Sim::cluster_messages_delivered`] reaches
    /// `decided_at`. Returns `true` if that is what ended it.
    pub(crate) fn quiesce(&self, sim: &mut Sim, duration: SimDuration, decided_at: u64) -> bool {
        let deadline = sim.now() + duration;
        let decided = self.step_until(sim, deadline, |sim| {
            sim.cluster_messages_delivered() >= decided_at
        });
        if !decided {
            self.pump(sim);
        }
        decided
    }

    /// Pump-aware [`Sim::run_until`]: advances to `deadline`, a no-op when
    /// the deadline already passed (time never rewinds). The open-loop
    /// traffic steps use this to hold each arrival until its scheduled
    /// time.
    pub(crate) fn run_until(&self, sim: &mut Sim, deadline: SimTime) {
        let wait = deadline.since(sim.now());
        if wait > SimDuration::ZERO {
            self.run_for(sim, wait);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_means_no_plan() {
        assert!(
            fault_plan_for(FaultIntensity::Off, Durability::Strict, 1, 3, SimTime::ZERO).is_none()
        );
        assert!(fault_plan_for(
            FaultIntensity::Heavy,
            Durability::Strict,
            1,
            0,
            SimTime::ZERO
        )
        .is_none());
    }

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        for intensity in [FaultIntensity::Light, FaultIntensity::Heavy] {
            let a = fault_plan_for(intensity, Durability::Strict, 7, 3, SimTime::ZERO).unwrap();
            let b = fault_plan_for(intensity, Durability::Strict, 7, 3, SimTime::ZERO).unwrap();
            assert_eq!(a.seed(), b.seed());
            assert_eq!(a.actions(), b.actions());
            assert_eq!(a.describe(), b.describe());
        }
        let a = fault_plan_for(
            FaultIntensity::Heavy,
            Durability::Strict,
            7,
            3,
            SimTime::ZERO,
        )
        .unwrap();
        let b = fault_plan_for(
            FaultIntensity::Heavy,
            Durability::Strict,
            8,
            3,
            SimTime::ZERO,
        )
        .unwrap();
        assert_ne!(
            (a.seed(), a.actions().to_vec()),
            (b.seed(), b.actions().to_vec()),
            "different seeds must yield different plans"
        );
    }

    #[test]
    fn heavy_outpaces_light() {
        let light = fault_plan_for(
            FaultIntensity::Light,
            Durability::Strict,
            3,
            3,
            SimTime::ZERO,
        )
        .unwrap();
        let heavy = fault_plan_for(
            FaultIntensity::Heavy,
            Durability::Strict,
            3,
            3,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(heavy.drop_probability > light.drop_probability);
        assert!(heavy.actions().len() > light.actions().len());
        assert!(!light.is_noop());
    }

    #[test]
    fn targets_stay_inside_the_cluster_and_pairs_are_distinct() {
        for seed in 0..50 {
            let plan = fault_plan_for(
                FaultIntensity::Heavy,
                Durability::Strict,
                seed,
                3,
                SimTime::ZERO,
            )
            .unwrap();
            for action in plan.actions() {
                match action.kind {
                    FaultKind::Partition(a, b) | FaultKind::Heal(a, b) => {
                        assert!(a < 3 && b < 3, "{:?}", action.kind);
                        assert_ne!(a, b, "self-partition in {:?}", action.kind);
                    }
                    FaultKind::Crash(n) | FaultKind::Restart(n) => assert!(n < 3),
                }
                assert!(action.at.as_millis() <= 58_000);
            }
        }
    }

    #[test]
    fn single_node_cluster_gets_no_partitions() {
        let plan = fault_plan_for(
            FaultIntensity::Heavy,
            Durability::Strict,
            5,
            1,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(plan
            .actions()
            .iter()
            .all(|a| matches!(a.kind, FaultKind::Crash(0) | FaultKind::Restart(0))));
    }

    #[test]
    fn base_offset_shifts_times_without_touching_draws() {
        let base = SimTime::from_millis(12_345);
        for (intensity, durability) in [
            (FaultIntensity::Light, Durability::Strict),
            (FaultIntensity::Heavy, Durability::Torn),
        ] {
            let zero = fault_plan_for(intensity, durability, 7, 3, SimTime::ZERO).unwrap();
            let shifted = fault_plan_for(intensity, durability, 7, 3, base).unwrap();
            assert_eq!(zero.seed(), shifted.seed());
            assert_eq!(zero.actions().len(), shifted.actions().len());
            for (z, s) in zero.actions().iter().zip(shifted.actions()) {
                assert_eq!(z.kind, s.kind, "base must not change any draw");
                assert_eq!(s.at.as_millis(), z.at.as_millis() + base.as_millis());
            }
            for (z, s) in zero.crash_points().iter().zip(shifted.crash_points()) {
                assert_eq!((z.node, z.kind), (s.node, s.kind));
                assert_eq!(s.after.as_millis(), z.after.as_millis() + base.as_millis());
                assert_eq!(
                    s.not_after.as_millis(),
                    z.not_after.as_millis() + base.as_millis()
                );
            }
        }
    }

    #[test]
    fn intensity_labels() {
        assert_eq!(FaultIntensity::Off.to_string(), "off");
        assert_eq!(FaultIntensity::Light.to_string(), "light");
        assert_eq!(FaultIntensity::Heavy.to_string(), "heavy");
        assert_eq!(FaultIntensity::default(), FaultIntensity::Off);
        assert_eq!(FaultIntensity::ALL.len(), 3);
    }

    #[test]
    fn durability_axis_rides_along_without_shifting_intensity_draws() {
        for intensity in [FaultIntensity::Light, FaultIntensity::Heavy] {
            let strict =
                fault_plan_for(intensity, Durability::Strict, 7, 3, SimTime::ZERO).unwrap();
            let torn = fault_plan_for(intensity, Durability::Torn, 7, 3, SimTime::ZERO).unwrap();
            // Same seed and identical scheduled actions: the durability
            // draws come after every intensity draw.
            assert_eq!(strict.seed(), torn.seed());
            assert_eq!(strict.actions(), torn.actions());
            assert_eq!(strict.crash_points().len(), 0);
            assert_eq!(torn.crash_points().len(), 2);
            assert_eq!(torn.durability, Durability::Torn);
        }
    }

    #[test]
    fn durability_alone_yields_a_plan_with_crash_points() {
        let plan = fault_plan_for(
            FaultIntensity::Off,
            Durability::Buffered,
            9,
            3,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(plan.actions().is_empty());
        assert!(!plan.is_noop());
        assert_eq!(plan.durability, Durability::Buffered);
        let kinds: Vec<_> = plan.crash_points().iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![CrashPointKind::MidUpgrade, CrashPointKind::UnflushedWrite]
        );
        for point in plan.crash_points() {
            assert!(point.node < 3);
            assert!(point.after <= point.not_after);
            assert!(point.not_after.as_millis() <= 120_000);
        }
        // Still a pure function of its inputs.
        let again = fault_plan_for(
            FaultIntensity::Off,
            Durability::Buffered,
            9,
            3,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(plan.crash_points(), again.crash_points());
        assert!(
            fault_plan_for(FaultIntensity::Off, Durability::Strict, 9, 3, SimTime::ZERO).is_none()
        );
    }

    #[test]
    fn noop_nudge_reproduces_the_plan_byte_for_byte() {
        let base = SimTime::from_millis(5_000);
        let plan = fault_plan_for(FaultIntensity::Heavy, Durability::Torn, 7, 3, base).unwrap();
        let nudged = apply_nudge(&plan, &PlanNudge::default(), base);
        assert!(PlanNudge::default().is_noop());
        assert_eq!(plan.seed(), nudged.seed());
        assert_eq!(plan.actions(), nudged.actions());
        assert_eq!(plan.crash_points(), nudged.crash_points());
        assert_eq!(plan.describe(), nudged.describe());
    }

    #[test]
    fn nudged_times_stay_in_window_and_preserve_order() {
        let base = SimTime::from_millis(2_000);
        let plan = fault_plan_for(FaultIntensity::Heavy, Durability::Torn, 11, 3, base).unwrap();
        for shift in [
            -(MAX_NUDGE_SHIFT_MS as i64),
            -7,
            13,
            MAX_NUDGE_SHIFT_MS as i64,
        ] {
            let nudge = PlanNudge {
                action_shift_ms: shift,
                crash_shift_ms: -shift,
                ..PlanNudge::default()
            };
            let nudged = apply_nudge(&plan, &nudge, base);
            let lo = base.as_millis();
            let hi = lo + PLAN_WINDOW_MS;
            for (orig, moved) in plan.actions().iter().zip(nudged.actions()) {
                assert_eq!(orig.kind, moved.kind, "nudges never change targets");
                assert!((lo..=hi).contains(&moved.at.as_millis()));
            }
            // Uniform shift + monotone clamp: every originally-ordered pair
            // of actions stays ordered (heals after partitions, restarts
            // after crashes).
            for i in 0..plan.actions().len() {
                for j in 0..plan.actions().len() {
                    if plan.actions()[i].at <= plan.actions()[j].at {
                        assert!(nudged.actions()[i].at <= nudged.actions()[j].at);
                    }
                }
            }
            for point in nudged.crash_points() {
                assert!(point.after <= point.not_after);
                assert!((lo..=hi).contains(&point.after.as_millis()));
                assert!((lo..=hi).contains(&point.not_after.as_millis()));
            }
        }
    }

    #[test]
    fn fate_salt_reseeds_without_moving_anything() {
        let base = SimTime::ZERO;
        let plan = fault_plan_for(FaultIntensity::Light, Durability::Strict, 3, 3, base).unwrap();
        let nudge = PlanNudge {
            fate_salt: 0xDEAD_BEEF,
            ..PlanNudge::default()
        };
        let nudged = apply_nudge(&plan, &nudge, base);
        assert_eq!(nudged.seed(), plan.seed() ^ 0xDEAD_BEEF);
        assert_eq!(plan.actions(), nudged.actions());
        assert_eq!(plan.drop_probability, nudged.drop_probability);
    }

    #[test]
    fn nudge_text_is_canonical() {
        let nudge = PlanNudge {
            action_shift_ms: -4_200,
            fate_salt: 0x9e37,
            settle_shift_ms: 2_000,
            arrival_churn_salt: u64::MAX,
            ..PlanNudge::default()
        };
        let text = "a-4200,f9e37,s2000,hffffffffffffffff";
        assert_eq!(nudge.to_string(), text);
        assert_eq!(text.parse(), Ok(nudge));
        assert_eq!(PlanNudge::default().to_string(), "");
        for bad in [
            "",                   // zero fields
            "a5,a5",              // repeated
            "f1,a5",              // out of order
            "a0",                 // a zero field
            "a20001",             // past MAX_NUDGE_SHIFT_MS
            "s-2001",             // past MAX_SETTLE_SHIFT_MS
            "a+5",                // a second spelling of a5
            "a05",                // likewise
            "fA",                 // likewise, of fa
            "f10000000000000000", // past u64
            "x1",                 // unknown tag
            "a5,",                // empty field
            "é1",
        ] {
            assert!(
                bad.parse::<PlanNudge>().is_err(),
                "{bad:?} should not parse"
            );
        }
        assert_eq!(
            "a20000,c-20000,b-20000,s-2000"
                .parse::<PlanNudge>()
                .map(|n| n.burst_shift_ms),
            Err("nudge \"a20000,c-20000,b-20000,s-2000\" is not in canonical form".into()),
            "s comes before b"
        );
        assert!("a20000,c-20000,s-2000,b-20000".parse::<PlanNudge>().is_ok());
        assert_eq!("light".parse(), Ok(FaultIntensity::Light));
        assert!("Light".parse::<FaultIntensity>().is_err());
    }
}
