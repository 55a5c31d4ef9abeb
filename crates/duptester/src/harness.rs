//! The test-case runner: boots a cluster of the old version in the
//! simulator, compiles the case's scenario into an explicit [`RolloutPlan`],
//! drives the workload through the plan's steps, and hands the evidence to
//! the oracle.
//!
//! # Snapshot-and-fork execution
//!
//! Every case splits into two halves at the upgrade boundary:
//!
//! - a **prefix** — boot the old-version cluster, let it settle, run the
//!   pre-upgrade workload — that depends only on `(from, workload)`, never
//!   on the case seed, the target version, the scenario, or the fault axes;
//! - a **suffix** — install the fault plan, drive the upgrade scenario,
//!   quiesce, verify — that consumes everything seed-dependent.
//!
//! The prefix runs under a seed derived purely from `(from, workload)`
//! ([`prefix_seed`]), so every case in a campaign's seed group (and across
//! the fault/durability/scenario axes) shares a byte-identical prefix. A
//! snapshotting [`CaseRunner`] executes that prefix once, captures the
//! simulator with [`Sim::snapshot_into`], and then runs each sibling case as
//! *restore → reseed → suffix*. `Sim::restore` is byte-equivalent to
//! re-running the prefix from scratch, so results are identical whether
//! snapshotting is on or off — only the per-case cost changes.

use crate::faults::{apply_nudge, fault_plan_for, FaultIntensity, PlanNudge};
use crate::oracle::{self, Observation, OpResult};
use crate::rollout::{RolloutPlan, RolloutStep};
use crate::scenario::Scenario;
use crate::translator::translate;
use crate::workload::{WorkloadPlan, WorkloadSpec};
use bytes::Bytes;
use dup_core::{ClientOp, Config, NodeSetup, SystemUnderTest, UnitTest, VersionId, WorkloadPhase};
use dup_simnet::{
    ClientHandle, Durability, LogLevel, NodeId, Sim, SimDuration, SimSnapshot, SimTime,
    TraceBuffer, TraceConfig, TraceSlice,
};
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// One test case: a version pair, a scenario, a workload, a seed, a fault
/// intensity, and a storage durability mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCase {
    /// The version upgraded *from*.
    pub from: VersionId,
    /// The version upgraded *to*.
    pub to: VersionId,
    /// Upgrade scenario.
    pub scenario: Scenario,
    /// Workload specification.
    pub workload: WorkloadSpec,
    /// Simulation seed (only matters for the ~11% timing-dependent bugs).
    pub seed: u64,
    /// Injected-fault intensity; the concrete plan is a pure function of
    /// `(faults, durability, seed, cluster size, suffix start time)` via
    /// [`fault_plan_for`].
    pub faults: FaultIntensity,
    /// Storage durability mode the case's hosts run under. Non-strict modes
    /// buffer writes until an explicit flush and let the crash materializer
    /// drop or tear the unflushed tail on every crash.
    pub durability: Durability,
}

impl TestCase {
    /// Runs this case inside `runner`: executes (or restores from snapshot)
    /// the seed-independent prefix — boot the old-version cluster at `from`,
    /// settle, run the pre-upgrade workload — then forks into this case's
    /// seed via [`Sim::reseed`] and drives the seed-dependent suffix: fault
    /// plan, upgrade scenario, quiesce, oracle.
    ///
    /// This is *the* case-execution entry point — `Sim::reset` guarantees a
    /// reset simulator is byte-indistinguishable from a fresh one, and
    /// `Sim::restore` guarantees a restored prefix is byte-indistinguishable
    /// from a re-executed one, so the result is identical whether the runner
    /// is brand new, warm from ten thousand cases, or snapshotting.
    ///
    /// A case whose `from` or `to` is not a release of the runner's system
    /// is not run: it returns [`CaseOutcome::InvalidWorkload`].
    pub fn run_in(&self, runner: &mut CaseRunner<'_>) -> CaseResult {
        runner.execute_checked(self, &PlanNudge::default())
    }

    /// Convenience wrapper for one-off runs: builds a throwaway untraced
    /// [`CaseRunner`] and returns just the outcome. Prefer a long-lived
    /// runner (and [`TestCase::run_in`]) anywhere more than one case runs.
    pub fn run(&self, sut: &dyn SystemUnderTest) -> CaseOutcome {
        self.run_in(&mut CaseRunner::new(sut)).outcome
    }
}

/// Everything that decides what a case does: the [`TestCase`] and the
/// [`PlanNudge`] a search mutant perturbs its plans with (the default nudge
/// for every other case). A failure report carries one, and its text is the
/// report's `repro:` line:
///
/// ```text
/// 3.11.0->4.0.0 scenario=rolling workload=stress seed=9 faults=light durability=strict nudge=a-4200,f9e37
/// ```
///
/// The `nudge=` segment appears only for a nudge that is not a no-op. The
/// fault, rollout and workload plans are pure functions of the spec and the
/// system, so the line replays the case: parse it and call
/// [`CaseSpec::run_in`]. Parsing accepts the line with or without its
/// `repro: ` label and only in the form `Display` writes, so two lines
/// never denote one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// The case.
    pub case: TestCase,
    /// The perturbation of its fault, rollout and workload plans.
    pub nudge: PlanNudge,
}

impl CaseSpec {
    /// Runs the case under its nudge inside `runner`; with the default
    /// nudge this is [`TestCase::run_in`], version check included.
    pub fn run_in(&self, runner: &mut CaseRunner<'_>) -> CaseResult {
        runner.execute_checked(&self.case, &self.nudge)
    }
}

impl fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.case;
        write!(
            f,
            "{}->{} scenario={} workload={} seed={} faults={} durability={}",
            c.from, c.to, c.scenario, c.workload, c.seed, c.faults, c.durability
        )?;
        if !self.nudge.is_noop() {
            write!(f, " nudge={}", self.nudge)?;
        }
        Ok(())
    }
}

impl FromStr for CaseSpec {
    type Err = String;

    fn from_str(line: &str) -> Result<CaseSpec, String> {
        let text = line.strip_prefix("repro: ").unwrap_or(line);
        let mut words = text.split(' ');
        let (from, to) = (words.next())
            .and_then(|pair| pair.split_once("->"))
            .ok_or("expected <from>-><to>")?;
        let version = |v: &str| v.parse().map_err(|_| format!("bad version {v:?}"));
        let mut field = |key: &str| {
            (words.next())
                .and_then(|w| w.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("expected {key}=…"))
        };
        let case = TestCase {
            from: version(from)?,
            to: version(to)?,
            scenario: field("scenario")?.parse()?,
            workload: field("workload").and_then(|w| {
                WorkloadSpec::parse(w).ok_or_else(|| format!("bad workload {w:?}"))
            })?,
            seed: field("seed")?.parse().map_err(|_| "bad seed")?,
            faults: field("faults")?.parse()?,
            durability: field("durability")?.parse()?,
        };
        let nudge = match words.next() {
            Some(w) => w
                .strip_prefix("nudge=")
                .ok_or("expected nudge=…")?
                .parse()?,
            None => PlanNudge::default(),
        };
        let spec = CaseSpec { case, nudge };
        if spec.to_string() != text {
            return Err(format!("{line:?} is not a repro line in canonical form"));
        }
        Ok(spec)
    }
}

/// A reusable case-execution context: the system under test, the campaign's
/// trace configuration, and a warm [`Sim`] whose pooled allocations (event
/// queue, storage and inbox slabs, fault state, trace ring) are recycled
/// across cases via [`Sim::reset`].
///
/// Executor workers each own one runner for their whole campaign; that is
/// what makes per-case cost independent of how many cases came before and
/// removes the alloc-heavy `Sim` construction from the per-case price.
/// Unwind-safe by construction: the reset at the start of every case
/// unconditionally clears all simulator state, so a runner whose previous
/// case panicked mid-run is as good as new.
pub struct CaseRunner<'a> {
    sut: &'a dyn SystemUnderTest,
    trace: Option<TraceConfig>,
    /// When `true`, the runner caches each `(from, workload)` prefix as a
    /// [`SimSnapshot`] and runs sibling cases as restore + suffix.
    use_snapshots: bool,
    sim: Sim,
    /// Pooled snapshot buffer, recycled across prefix captures.
    snapshot: SimSnapshot,
    /// The most recent prefix's cache entry (single-entry cache: campaign
    /// matrix order keeps same-prefix cases consecutive).
    prefix: Option<PrefixCache>,
    /// Pooled per-case working state, recompiled/refilled in place.
    pools: CasePools,
}

/// The runner's pooled per-case working state: plans recompiled in place,
/// phase buffers the streaming [`SystemUnderTest::stress_ops`] API emits
/// into, and the client's in-flight set and evidence log, so the warm path
/// allocates no fresh `Vec` per phase or per traffic step.
#[derive(Default)]
struct CasePools {
    /// Every client op the case sends, in flight and settled.
    client: Client,
    /// `sut.versions()`, which builds a `Vec` per call, asked once: every
    /// case's rollout plan is compiled against it.
    catalog: Vec<VersionId>,
    /// Pooled rollout plan, recompiled in place per case.
    plan: RolloutPlan,
    /// Pooled open-loop workload plan, recompiled in place per case; its
    /// arrival stream is consumed directly by the rollout plan's traffic
    /// steps, so open-loop during-traffic is never materialized as a batch.
    wplan: WorkloadPlan,
    /// Pre-upgrade phase ops (cleared and refilled per prefix).
    before_ops: Vec<ClientOp>,
    /// During-upgrade phase ops (empty for open-loop cases, which stream).
    during_ops: Vec<ClientOp>,
    /// Post-upgrade phase ops.
    after_ops: Vec<ClientOp>,
    /// Reference path for the differential tests: never end a quiesce early.
    #[cfg(test)]
    uncut: bool,
    /// How long the last case's rollout took, quiesce excluded.
    #[cfg(test)]
    rollout: SimDuration,
    /// How many of its rollout steps the last case started.
    #[cfg(test)]
    steps_run: usize,
    /// How many prefixes this runner has executed (cold paths taken).
    #[cfg(test)]
    prefixes_run: usize,
    /// The last case's open-loop sends, as (step index, arrival index).
    #[cfg(test)]
    sent: Vec<(usize, u64)>,
}

/// Everything the suffix needs from an executed prefix.
#[derive(Debug, Default)]
struct PrefixData {
    /// The effective node configuration (defaults plus the unit test's
    /// overrides) the prefix booted the cluster with.
    config: Config,
    /// When the pre-upgrade workload started (baseline window start).
    first_op_time: SimTime,
    /// Cluster messages delivered when the pre-upgrade workload started.
    msgs_at_first_op: u64,
    /// `Some` when the prefix decided the case is invalid — the message and
    /// the digest at the point of abort. Seed-independent, so it is the
    /// verdict for *every* case sharing this prefix.
    invalid: Option<(String, CaseDigest)>,
}

/// A cached prefix: its identity, its data, and whether `snapshot` holds a
/// restorable capture of the simulator at the prefix's end.
struct PrefixCache {
    key: (VersionId, WorkloadSpec),
    snapshot_valid: bool,
    data: PrefixData,
}

impl<'a> CaseRunner<'a> {
    /// A runner for `sut` with tracing and prefix snapshotting disabled.
    pub fn new(sut: &'a dyn SystemUnderTest) -> CaseRunner<'a> {
        CaseRunner::with_trace(sut, None)
    }

    /// A runner for `sut` that records a causal trace for every case under
    /// `trace` (when `Some`); failing cases return the bounded
    /// [`TraceSlice`] anchored at the violating observation.
    pub fn with_trace(sut: &'a dyn SystemUnderTest, trace: Option<TraceConfig>) -> CaseRunner<'a> {
        CaseRunner::with_options(sut, trace, false)
    }

    /// The fully explicit constructor: tracing under `trace`, and — when
    /// `snapshot` is set — snapshot-and-fork prefix reuse. Snapshotting is
    /// a pure performance choice: results are byte-identical either way.
    pub fn with_options(
        sut: &'a dyn SystemUnderTest,
        trace: Option<TraceConfig>,
        snapshot: bool,
    ) -> CaseRunner<'a> {
        CaseRunner {
            sut,
            trace,
            use_snapshots: snapshot,
            sim: Sim::new(0),
            snapshot: SimSnapshot::new(),
            prefix: None,
            pools: CasePools {
                catalog: sut.versions(),
                ..CasePools::default()
            },
        }
    }

    /// The reference the decided-verdict cut is tested against: every
    /// quiesce runs to its deadline, as it did before the cut existed.
    #[cfg(test)]
    pub(crate) fn uncut(mut self) -> Self {
        self.pools.uncut = true;
        self
    }

    /// The causal trace of the most recently executed case, if this runner
    /// traces. The coverage-guided search folds this buffer into a
    /// [`crate::campaign::CaseSignature`] right after each case.
    pub fn trace_buffer(&self) -> Option<&TraceBuffer> {
        self.sim.trace()
    }

    /// [`CaseRunner::execute`] for a case from outside the matrix, such as
    /// a parsed `repro:` line: a version this runner's system does not
    /// release makes the case invalid, not a pass.
    fn execute_checked(&mut self, case: &TestCase, nudge: &PlanNudge) -> CaseResult {
        let catalog = &self.pools.catalog;
        let stranger = [case.from, case.to]
            .into_iter()
            .find(|v| !catalog.contains(v));
        match stranger {
            None => self.execute(case, nudge),
            Some(v) => CaseResult {
                outcome: CaseOutcome::InvalidWorkload(format!(
                    "{v} is not a {} release",
                    self.sut.name()
                )),
                digest: CaseDigest::default(),
                slice: None,
            },
        }
    }

    /// Runs `case` with its plans perturbed by `nudge`; the default nudge
    /// perturbs nothing. Unchecked: the matrix and the search only
    /// enumerate catalog versions.
    pub(crate) fn execute(&mut self, case: &TestCase, nudge: &PlanNudge) -> CaseResult {
        let key = (case.from, case.workload.clone());
        self.pools.client.clear();

        // Fast path: a sibling case already executed this prefix.
        if self.use_snapshots {
            if let Some(pre) = self.prefix.as_ref().filter(|p| p.key == key) {
                if let Some((message, digest)) = &pre.data.invalid {
                    // The invalid verdict is seed-independent: replaying the
                    // prefix for this seed would abort identically.
                    return CaseResult {
                        outcome: CaseOutcome::InvalidWorkload(message.clone()),
                        digest: *digest,
                        slice: None,
                    };
                }
                if pre.snapshot_valid {
                    self.sim.restore(&self.snapshot);
                    self.sim.reseed(case.seed);
                    let (outcome, decided_early) = run_suffix(
                        &mut self.sim,
                        self.sut,
                        case,
                        &pre.data,
                        nudge,
                        &mut self.pools,
                    );
                    return finalize(&mut self.sim, outcome, decided_early);
                }
            }
        }

        // Cold path: execute the prefix from a reset simulator under the
        // seed-independent prefix seed.
        #[cfg(test)]
        {
            self.pools.prefixes_run += 1;
        }
        let pseed = prefix_seed(case.from, &case.workload);
        self.sim.reset(pseed);
        self.sim.set_event_budget(EVENT_BUDGET);
        if let Some(config) = self.trace {
            self.sim.enable_trace(config);
        }
        let mut data = PrefixData::default();
        let prefix_verdict = run_prefix(
            &mut self.sim,
            self.sut,
            case,
            pseed,
            &mut data,
            &mut self.pools,
        );
        if self.sim.budget_exhausted() {
            // A runaway prefix is not cacheable evidence of anything but its
            // own non-termination; report the hang without caching.
            self.prefix = None;
            return finalize(&mut self.sim, CaseOutcome::Pass, false);
        }
        if let Err(message) = &prefix_verdict {
            data.invalid = Some((message.clone(), digest_of(&self.sim)));
        }
        let snapshot_valid = self.use_snapshots
            && prefix_verdict.is_ok()
            && self.sim.snapshot_into(&mut self.snapshot);
        self.prefix = Some(PrefixCache {
            key,
            snapshot_valid,
            data,
        });
        let pre = &self.prefix.as_ref().expect("just cached").data;
        if let Some((message, digest)) = &pre.invalid {
            return CaseResult {
                outcome: CaseOutcome::InvalidWorkload(message.clone()),
                digest: *digest,
                slice: None,
            };
        }
        self.sim.reseed(case.seed);
        let (outcome, decided_early) =
            run_suffix(&mut self.sim, self.sut, case, pre, nudge, &mut self.pools);
        finalize(&mut self.sim, outcome, decided_early)
    }
}

/// The seed the seed-independent prefix runs under: an FNV-1a hash of
/// `(from, workload)`. Pure and stable, so every case sharing those two
/// fields — across seeds, target versions, scenarios, fault intensities and
/// durabilities — replays a byte-identical prefix.
fn prefix_seed(from: VersionId, workload: &WorkloadSpec) -> u64 {
    fn eat(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }
    let hash = eat(0xcbf2_9ce4_8422_2325, from.to_string().as_bytes());
    let hash = eat(hash, &[0xFF]);
    eat(hash, workload.to_string().as_bytes())
}

/// The end-of-case bookkeeping shared by every execution path: the event
/// budget watchdog, the failing case's trace slice, and the determinism
/// digest.
fn finalize(sim: &mut Sim, mut outcome: CaseOutcome, decided_early: bool) -> CaseResult {
    if sim.budget_exhausted() {
        // The case ran away; whatever the oracle saw is untrustworthy
        // evidence from a truncated run. Report the non-termination
        // itself.
        outcome = CaseOutcome::Fail(vec![Observation::CaseHung {
            events: sim.events_processed(),
        }]);
    }
    let slice = match &outcome {
        CaseOutcome::Fail(observations) => {
            // Anchor the slice at the violating observation: the node
            // the evidence implicates if it names one, otherwise the
            // last event.
            let hint = observations.iter().find_map(|o| match o {
                Observation::NodeCrash { node, .. } => Some(*node),
                _ => None,
            });
            let anchor = sim.trace_observe(hint);
            sim.trace().map(|t| t.slice(anchor))
        }
        _ => None,
    };
    CaseResult {
        outcome,
        digest: CaseDigest {
            decided_early: u64::from(decided_early),
            ..digest_of(sim)
        },
        slice,
    }
}

/// The determinism digest of the simulator's current counters.
fn digest_of(sim: &Sim) -> CaseDigest {
    CaseDigest {
        events_processed: sim.events_processed(),
        messages_delivered: sim.messages_delivered(),
        faults_injected: sim.faults_injected(),
        trace_events_recorded: sim.trace().map_or(0, |t| t.events_recorded()),
        trace_events_dropped: sim.trace().map_or(0, |t| t.events_dropped()),
        decided_early: 0,
    }
}

/// Everything one executed case produced: the oracle's verdict, the
/// determinism digest, and (for traced failing cases) the causal slice.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The oracle's verdict.
    pub outcome: CaseOutcome,
    /// The case's determinism digest (simulator counters at the end).
    pub digest: CaseDigest,
    /// The failing case's bounded causal slice; `None` for passes, invalid
    /// workloads, and untraced runners.
    pub slice: Option<TraceSlice>,
}

/// Determinism digest of one executed case: the simulator's global event and
/// message counters when the case finished.
///
/// A case is fully deterministic in its seed, so re-running it — on any
/// campaign thread, in any order — must reproduce the digest exactly. The
/// campaign layer sums digests per case index, which makes campaign totals
/// independent of the worker thread count; a mismatch is a determinism bug.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseDigest {
    /// Total simulator events processed by the case.
    pub events_processed: u64,
    /// Total messages delivered inside the case's simulation.
    pub messages_delivered: u64,
    /// Total faults the case's plan injected (0 with faults off).
    pub faults_injected: u64,
    /// Trace events the case recorded (0 with tracing off).
    pub trace_events_recorded: u64,
    /// Trace events the case's ring buffer evicted by wrap-around.
    pub trace_events_dropped: u64,
    /// 1 when the post-upgrade quiesce ended before its deadline because the
    /// oracle's storm verdict was already decided, else 0.
    pub decided_early: u64,
}

/// The outcome of one test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The upgrade went through cleanly.
    Pass,
    /// The oracle collected evidence of an upgrade failure.
    Fail(Vec<Observation>),
    /// The workload could not be set up (untranslatable unit test, invalid
    /// persistent state, …); the case says nothing about the upgrade.
    InvalidWorkload(String),
}

impl CaseOutcome {
    /// `true` for [`CaseOutcome::Fail`].
    pub fn is_failure(&self) -> bool {
        matches!(self, CaseOutcome::Fail(_))
    }
}

const SETTLE: SimDuration = SimDuration::from_secs(2);
/// Post-upgrade quiesce. Long enough for slow-burn symptoms (trash-purge
/// heartbeat stalls, storms) to surface. It ends at this deadline, or as
/// soon as the upgrade window holds more messages than
/// [`oracle::storm_decided_above`] allows for the longest window the case
/// can still reach: from there a `MessageStorm` is certain whatever happens
/// next, so pumping the storm further buys no evidence.
const QUIESCE: SimDuration = SimDuration::from_secs(75);
const OP_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// The logical phase window an open-loop [`WorkloadPlan`] compiles over:
/// it sizes the during-upgrade arrival schedule (rate × window arrivals,
/// plus bursts), independent of how long the rollout steps actually take.
const OPEN_LOOP_WINDOW_MS: u64 = 2_000;
/// Watchdog: hard ceiling on simulator events per case. A healthy case
/// (even heavy-fault stress on the chattiest system) stays well under one
/// million events; a case that hits the ceiling is runaway — a livelock,
/// a restart storm, a timer loop — and is reported as hung instead of
/// spinning the worker thread forever. A message flood whose storm verdict
/// is decided before the ceiling ends its [`QUIESCE`] there and is reported
/// as the `MessageStorm` it is; a runaway that delivers no messages (a timer
/// loop) still runs into the ceiling.
const EVENT_BUDGET: u64 = 2_000_000;

/// Drives the simulation on the harness's behalf: between events it drains
/// [`Sim::take_pending_restart`] and brings fault-crashed nodes back —
/// re-spawning whatever version the node was on when the plan crashed it,
/// with the same configuration. With no fault plan installed nothing is ever
/// pending, and the pump is one empty-queue check per event.
struct FaultDriver<'a> {
    sut: &'a dyn SystemUnderTest,
    case: &'a TestCase,
    config: &'a Config,
    cluster: u32,
    /// The rollout plan's version path: the versions a node may legally be
    /// on mid-case (multi-hop plans have a middle version beyond the pair).
    path: &'a [VersionId],
}

impl FaultDriver<'_> {
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
                .unwrap_or(self.case.from);
            let size = if node >= self.cluster {
                self.cluster + 1
            } else {
                self.cluster
            };
            let mut setup = NodeSetup::new(node, size);
            setup.config = self.config.clone();
            if sim
                .install(node, &version.to_string(), self.sut.spawn(version, &setup))
                .is_ok()
            {
                let _ = sim.start_node(node);
            }
        }
    }

    /// Pump-aware [`Sim::run_for`].
    fn run_for(&self, sim: &mut Sim, duration: SimDuration) {
        self.quiesce(sim, duration, u64::MAX);
    }

    /// Pump-aware [`Sim::run_for`] that also stops, wherever the clock then
    /// stands, once [`Sim::cluster_messages_delivered`] reaches
    /// `decided_at`. Returns `true` if that is what ended it.
    fn quiesce(&self, sim: &mut Sim, duration: SimDuration, decided_at: u64) -> bool {
        let deadline = sim.now() + duration;
        while sim.cluster_messages_delivered() < decided_at {
            self.pump(sim);
            match sim.peek_time() {
                Some(t) if t <= deadline => {
                    sim.step();
                }
                _ => {
                    sim.run_until(deadline);
                    self.pump(sim);
                    return false;
                }
            }
        }
        true
    }

    /// Pump-aware [`Sim::run_until`]: advances to `deadline`, a no-op when
    /// the deadline already passed (time never rewinds). The open-loop
    /// traffic steps use this to hold each arrival until its scheduled
    /// time.
    fn run_until(&self, sim: &mut Sim, deadline: SimTime) {
        let wait = deadline.since(sim.now());
        if wait > SimDuration::ZERO {
            self.run_for(sim, wait);
        }
    }
}

/// One client op in flight.
struct Pending {
    handle: ClientHandle,
    /// Send time plus [`OP_TIMEOUT`].
    deadline: SimTime,
    node: NodeId,
    /// The command sent, kept so an op that turns out to be evidence can
    /// name it.
    command: String,
    after_upgrade_started: bool,
    in_after_phase: bool,
}

/// The harness's client, the one path every op and reply takes. An op is
/// sent with [`Sim::client_send`] without waiting and joins the in-flight
/// set; it settles when its reply arrives or, unanswered, at its deadline.
/// The set is in send order and every op waits the same [`OP_TIMEOUT`], so
/// deadlines rise from front to back and only the front can be due. An op
/// is sent by value: its command moves in, and on to the evidence log if the
/// settled op can be evidence ([`oracle::can_be_evidence`]); the others cost
/// no reply conversion.
#[derive(Default)]
struct Client {
    in_flight: VecDeque<Pending>,
    /// The settled ops that can be evidence, in send order, for the oracle.
    evidence: Vec<OpResult>,
}

impl Client {
    /// Forgets every op, in flight or settled. Every case starts with this,
    /// so a case that panicked mid-step leaves the next one nothing.
    fn clear(&mut self) {
        self.in_flight.clear();
        self.evidence.clear();
    }

    /// Sends `op` now and returns its deadline.
    fn send(
        &mut self,
        sim: &mut Sim,
        op: ClientOp,
        after_upgrade_started: bool,
        in_after_phase: bool,
    ) -> SimTime {
        let request = Bytes::copy_from_slice(op.command.as_bytes());
        let deadline = sim.now() + OP_TIMEOUT;
        self.in_flight.push_back(Pending {
            handle: sim.client_send(op.node, request),
            deadline,
            node: op.node,
            command: op.command,
            after_upgrade_started,
            in_after_phase,
        });
        deadline
    }

    /// Settles the oldest op in flight if its reply is in or its deadline
    /// is no later than `until`. In the second case the simulator runs,
    /// pumped, to the reply or to the deadline, whichever comes first.
    /// Returns whether the op was answered, or `None` if none settled.
    fn settle_oldest(
        &mut self,
        driver: &FaultDriver<'_>,
        sim: &mut Sim,
        until: SimTime,
    ) -> Option<bool> {
        let &Pending {
            handle, deadline, ..
        } = self.in_flight.front()?;
        let reply = loop {
            if let Some(reply) = sim.poll_response(handle) {
                break Some(reply);
            }
            if deadline > until {
                return None;
            }
            driver.pump(sim);
            match sim.peek_time() {
                Some(t) if t <= deadline => {
                    sim.step();
                }
                _ => {
                    sim.run_until(deadline);
                    break sim.poll_response(handle);
                }
            }
        };
        let op = self.in_flight.pop_front().expect("the oldest op settled");
        let response = reply.as_deref();
        if oracle::can_be_evidence(op.after_upgrade_started, op.in_after_phase, response) {
            self.evidence.push(OpResult {
                command: op.command,
                node: op.node,
                response: response.map(|b| String::from_utf8_lossy(b).into_owned()),
                after_upgrade_started: op.after_upgrade_started,
                in_after_phase: op.in_after_phase,
            });
        }
        Some(response.is_some())
    }

    /// Settles ops oldest first for as long as the oldest is answered or due
    /// by `until`.
    fn settle(&mut self, driver: &FaultDriver<'_>, sim: &mut Sim, until: SimTime) {
        while self.settle_oldest(driver, sim, until).is_some() {}
    }

    /// Settles every op in flight: returns once each has a reply or has
    /// expired.
    fn drain(&mut self, driver: &FaultDriver<'_>, sim: &mut Sim) {
        if let Some(last) = self.in_flight.back().map(|op| op.deadline) {
            self.settle(driver, sim, last);
        }
    }

    /// Runs one op to completion — an in-flight set of one — and returns
    /// whether it was answered.
    fn run(
        &mut self,
        driver: &FaultDriver<'_>,
        sim: &mut Sim,
        op: ClientOp,
        after_upgrade_started: bool,
        in_after_phase: bool,
    ) -> bool {
        debug_assert!(self.in_flight.is_empty(), "ops are still in flight");
        let deadline = self.send(sim, op, after_upgrade_started, in_after_phase);
        self.settle_oldest(driver, sim, deadline) == Some(true)
    }

    /// Runs `batch` one op after another, taking each op's command.
    fn run_all(
        &mut self,
        driver: &FaultDriver<'_>,
        sim: &mut Sim,
        batch: &mut [ClientOp],
        after_upgrade_started: bool,
        in_after_phase: bool,
    ) {
        for op in batch {
            self.run(
                driver,
                sim,
                take_op(op),
                after_upgrade_started,
                in_after_phase,
            );
        }
    }
}

/// Moves `op` out of a pooled batch, leaving an empty command behind: each
/// pooled op is sent once, and its buffer is refilled before the next case.
fn take_op(op: &mut ClientOp) -> ClientOp {
    ClientOp::new(op.node, std::mem::take(&mut op.command))
}

/// `true` if some node is crashed for a *genuine* reason — i.e. not by the
/// fault plan (whose crashes are injected, expected, and exempt).
fn any_genuine_crash(sim: &Sim) -> bool {
    sim.crashed_nodes()
        .into_iter()
        .any(|n| !sim.is_fault_crashed(n))
}

/// The seed-independent half of a case: workload setup, old-version boot,
/// settle, pre-upgrade workload, and the validity checks. Depends only on
/// `(from, workload)` — everything here runs under `pseed`, never under
/// `case.seed` — which is what makes the resulting simulator state sharable
/// across a whole seed group via snapshot.
///
/// Fills `data`; returns `Err(message)` when the workload is invalid (the
/// message is the seed-independent [`CaseOutcome::InvalidWorkload`]
/// verdict).
fn run_prefix(
    sim: &mut Sim,
    sut: &dyn SystemUnderTest,
    case: &TestCase,
    pseed: u64,
    data: &mut PrefixData,
    pools: &mut CasePools,
) -> Result<(), String> {
    let n = sut.cluster_size();
    let mut config = sut.default_config();

    // Workload-specific setup, streamed into the pooled `before_ops` buffer.
    let before_ops = &mut pools.before_ops;
    before_ops.clear();
    match &case.workload {
        // Open-loop cases share the stress prefix: the pre-upgrade stress
        // batch creates the schemas/topics the open-loop traffic lands on.
        WorkloadSpec::Stress | WorkloadSpec::OpenLoop(_) => {
            // The pre-upgrade stress ops draw from the prefix seed: they run
            // before the case's seed can matter, and keying them off `pseed`
            // keeps them identical across a seed group.
            sut.stress_ops(pseed, WorkloadPhase::BeforeUpgrade, case.from, &mut |op| {
                before_ops.push(op)
            });
        }
        WorkloadSpec::TranslatedUnit(name) => {
            let Some(test) = find_unit_test(sut, name) else {
                return Err(format!("no unit test named {name}"));
            };
            let translation = translate(&test, &sut.translation(), 0);
            if !translation.is_usable() {
                return Err(format!("unit test {name} is fully untranslatable"));
            }
            for (k, v) in &test.config {
                config.insert(k.clone(), v.clone());
            }
            before_ops.extend(translation.ops);
        }
        WorkloadSpec::UnitStateHandoff(name) => {
            let Some(test) = find_unit_test(sut, name) else {
                return Err(format!("no unit test named {name}"));
            };
            for (k, v) in &test.config {
                config.insert(k.clone(), v.clone());
            }
            // Execute the unit test in place against node 0's storage, as
            // the original in-JVM test would.
            let storage_host = sim.host_id(&host(0));
            let storage = sim.host_storage_by_id(storage_host);
            for stmt in &test.statements {
                if let Err(e) = sut.run_unit_statement(case.from, stmt, storage) {
                    return Err(format!("unit test {name} cannot run in place: {e}"));
                }
            }
        }
    };

    // Boot the old-version cluster.
    for i in 0..n {
        let mut setup = NodeSetup::new(i, n);
        setup.config = config.clone();
        let id = sim.add_node(
            &host(i),
            &case.from.to_string(),
            sut.spawn(case.from, &setup),
        );
        if sim.start_node(id).is_err() {
            return Err("node failed to start".to_string());
        }
    }

    // No fault plan yet: the plan is seed-dependent, so it belongs to the
    // suffix. The prefix driver never has injected crashes to pump.
    let driver = FaultDriver {
        sut,
        case,
        config: &config,
        cluster: n,
        path: std::slice::from_ref(&case.from),
    };

    driver.run_for(sim, SETTLE);
    if let WorkloadSpec::UnitStateHandoff(name) = &case.workload {
        // Validity check: the old version itself must be able to start from
        // the unit test's persistent state (paper §6.1.2).
        if any_genuine_crash(sim) {
            return Err(format!(
                "state left by {name} does not boot the old version"
            ));
        }
    }

    // Baseline message-rate window starts here — at first-op time — so the
    // pre-workload boot SETTLE (mostly idle) does not deflate the rate.
    data.first_op_time = sim.now();
    data.msgs_at_first_op = sim.cluster_messages_delivered();

    // No op before the upgrade can be evidence, so none is recorded.
    pools
        .client
        .run_all(&driver, sim, &mut pools.before_ops, false, false);
    driver.run_for(sim, SETTLE);

    // If the *old* version already fails under this workload/config, the
    // case says nothing about upgrades (e.g. a config that breaks every
    // release from some point on, not just the upgraded one).
    if any_genuine_crash(sim) {
        return Err("workload or configuration crashes the old version too".to_string());
    }

    data.config = config;
    Ok(())
}

/// The seed-dependent half of a case, entered with the simulator at the end
/// of the prefix (freshly executed or restored) and already forked to
/// `case.seed` via [`Sim::reseed`]: fault plan, the compiled rollout plan's
/// steps, quiesce, post-upgrade verification, and the oracle.
///
/// `plan` is the runner's pooled [`RolloutPlan`]; it is recompiled in place
/// for this case (a pure function of the case plus the system's catalog, so
/// plans fork per seed exactly like fault plans do) and perturbed by the
/// plan-level half of `nudge`.
fn run_suffix(
    sim: &mut Sim,
    sut: &dyn SystemUnderTest,
    case: &TestCase,
    pre: &PrefixData,
    nudge: &PlanNudge,
    pools: &mut CasePools,
) -> (CaseOutcome, bool) {
    let n = sut.cluster_size();
    let config = &pre.config;
    let client = &mut pools.client;

    // The seed-dependent workload parts, streamed into the pooled phase
    // buffers. Open-loop cases compile the pooled [`WorkloadPlan`] instead
    // of a during-batch: the traffic steps below consume its arrival stream
    // directly, so during-traffic volume never costs a materialized `Vec`.
    let during_ops = &mut pools.during_ops;
    let after_ops = &mut pools.after_ops;
    let wplan = &mut pools.wplan;
    during_ops.clear();
    after_ops.clear();
    match &case.workload {
        WorkloadSpec::Stress => {
            sut.stress_ops(
                case.seed,
                WorkloadPhase::DuringUpgrade,
                case.from,
                &mut |op| during_ops.push(op),
            );
            sut.stress_ops(
                case.seed,
                WorkloadPhase::AfterUpgrade,
                case.from,
                &mut |op| after_ops.push(op),
            );
        }
        WorkloadSpec::OpenLoop(spec) => {
            // The arrival schedule forks per seed like the fault plan does,
            // and the nudge's workload half perturbs it in place.
            wplan.compile(spec, case.seed, OPEN_LOOP_WINDOW_MS);
            wplan.nudge(nudge);
            debug_assert!(wplan.validate().is_ok(), "{:?}", wplan.validate());
            // Post-upgrade, the stress read-back probes verify pre-upgrade
            // data survived under the open-loop barrage.
            sut.stress_ops(
                case.seed,
                WorkloadPhase::AfterUpgrade,
                case.from,
                &mut |op| after_ops.push(op),
            );
        }
        // Post-upgrade, re-check health everywhere.
        _ => after_ops.extend((0..n).map(|i| ClientOp::new(i, "HEALTH"))),
    };
    let open_loop = matches!(&case.workload, WorkloadSpec::OpenLoop(_));
    let wplan: &WorkloadPlan = wplan;

    // Compile the scenario into the pooled rollout plan — a pure function of
    // `(scenario, pair, catalog, cluster, seed)` — and apply the plan-level
    // half of the nudge.
    let plan = &mut pools.plan;
    plan.compile(
        case.scenario,
        case.from,
        case.to,
        &pools.catalog,
        n,
        case.seed,
    );
    plan.nudge(nudge);
    debug_assert!(
        plan.validate(n).is_ok(),
        "compiled plan invalid ({:?}): {plan}",
        plan.validate(n)
    );
    let plan: &RolloutPlan = plan;

    // Arm the fault plan at the start of the suffix, anchored at the current
    // time, so the adversity spans the upgrade-plus-quiesce timeline. The
    // plan is a pure function of (intensity, durability, seed, cluster
    // size, base) and the nudge: a failure's repro line rebuilds it exactly.
    if let Some(fplan) = fault_plan_for(case.faults, case.durability, case.seed, n, sim.now()) {
        let fplan = if nudge.is_noop() {
            fplan
        } else {
            apply_nudge(&fplan, nudge, sim.now())
        };
        sim.log_sim(LogLevel::Info, format!("fault plan: {}", fplan.describe()));
        sim.install_fault_plan(fplan);
    }
    let driver = FaultDriver {
        sut,
        case,
        config,
        cluster: n,
        path: plan.path(),
    };

    // ----- the rollout itself -------------------------------------------
    let log_mark = sim.logs().mark();
    let upgrade_started = sim.now();
    let msgs_before_window = sim.cluster_messages_delivered();

    // One arrival cursor for the whole case: each open-loop traffic step
    // advances it through its own time slice, so a case draws each arrival
    // once. `drawn_to` is the end of the last slice it was advanced to.
    let mut arrivals = wplan.arrivals().peekable();
    let mut drawn_to = 0;
    #[cfg(test)]
    {
        pools.steps_run = 0;
        pools.sent.clear();
    }

    for step in plan.steps() {
        // A case that spent its event budget stops here; `finalize` reports
        // the hang whatever the outcome says.
        if sim.budget_exhausted() {
            return (CaseOutcome::Pass, false);
        }
        #[cfg(test)]
        {
            pools.steps_run += 1;
        }
        match *step {
            RolloutStep::Stop { node } | RolloutStep::Leave { node } => {
                let _ = sim.stop_node(node);
            }
            RolloutStep::Settle { millis } => {
                driver.run_for(sim, SimDuration::from_millis(millis));
            }
            RolloutStep::Upgrade { node, version } | RolloutStep::Downgrade { node, version } => {
                let v = plan.version(version);
                let size = if node >= n { n + 1 } else { n };
                let mut setup = NodeSetup::new(node, size);
                setup.config = config.clone();
                let process = sut.spawn(v, &setup);
                let installed = if matches!(step, RolloutStep::Downgrade { .. }) {
                    sim.install_downgrade(node, &v.to_string(), process)
                } else {
                    sim.install(node, &v.to_string(), process)
                };
                if installed.is_ok() {
                    let _ = sim.start_node(node);
                }
            }
            RolloutStep::Join { node, version } => {
                let v = plan.version(version);
                let mut setup = NodeSetup::new(node, n + 1);
                setup.config = config.clone();
                let id = sim.add_node(&host(node), &v.to_string(), sut.spawn(v, &setup));
                let _ = sim.start_node(id);
            }
            RolloutStep::Traffic { chunk, of } => {
                // Round-robin partition of the during-upgrade workload by op
                // index; `of` shared across the plan's traffic steps, so the
                // steps together run each op exactly once, in order, each
                // waiting for its reply or timeout. Open-loop cases partition
                // the plan's *window* into `of` contiguous time slices
                // instead: step `chunk` sends each arrival scheduled inside
                // its slice at the arrival's offset, without waiting for
                // earlier replies — the schedule, not the responses, decides
                // when the next request fires, so a burst lands as
                // time-localized load against whatever rollout step
                // surrounds its slice (and `ShiftBursts` moves that load
                // between steps). Replies are collected as the arrivals go
                // out, and the step ends once every op it sent is answered or
                // has timed out. Each arrival is rendered to a client command
                // on the fly, never materialized as a batch.
                if open_loop {
                    let (lo, hi) = traffic_slice(wplan.window_us(), chunk, of);
                    if lo < drawn_to {
                        // The plan revisits an earlier slice: draw afresh.
                        arrivals = wplan.arrivals().peekable();
                    }
                    drawn_to = hi;
                    let anchor = sim.now();
                    while let Some(a) = arrivals.next_if(|a| a.at_us < hi) {
                        // Arrivals of a slice no step ran are never sent.
                        if a.at_us < lo {
                            continue;
                        }
                        // The sim clock is millisecond-grained; arrivals
                        // sharing a millisecond fire back-to-back within it.
                        let at = anchor + SimDuration::from_millis((a.at_us - lo) / 1_000);
                        client.settle(&driver, sim, at);
                        driver.run_until(sim, at);
                        if sim.budget_exhausted() {
                            return (CaseOutcome::Pass, false);
                        }
                        let op = sut.open_loop_op(a.key, a.client, a.read, case.from);
                        client.send(sim, op, true, false);
                        #[cfg(test)]
                        pools.sent.push((pools.steps_run - 1, a.index));
                    }
                    client.drain(&driver, sim);
                } else {
                    let of = u64::from(of.max(1));
                    for (i, op) in during_ops.iter_mut().enumerate() {
                        if i as u64 % of == u64::from(chunk) {
                            client.run(&driver, sim, take_op(op), true, false);
                        }
                    }
                }
            }
            RolloutStep::Probe { node } => {
                client.run(&driver, sim, ClientOp::new(node, "HEALTH"), true, false);
            }
            RolloutStep::CanaryGate { node } => {
                let health = ClientOp::new(node, "HEALTH");
                let answered = client.run(&driver, sim, health, true, false);
                let crashed = sim
                    .crashed_nodes()
                    .into_iter()
                    .any(|c| c == node && !sim.is_fault_crashed(c));
                if crashed || !answered {
                    // The canary failed its gate: the operator halts the
                    // rollout. Quiesce and verification still run, so the
                    // oracle sees whatever the canary broke.
                    sim.log_sim(
                        LogLevel::Info,
                        format!("canary gate failed on node {node}: halting rollout"),
                    );
                    break;
                }
            }
        }
    }

    if sim.budget_exhausted() {
        return (CaseOutcome::Pass, false);
    }

    // Messages and elapsed time of the rollout phase alone, captured before
    // the quiesce: a storm that dies with the rollout (a multi-hop storm
    // ends when the final hop leaves the buggy version behind) would be
    // diluted below threshold by the long quiet quiesce window.
    let rollout_msgs = sim.cluster_messages_delivered() - msgs_before_window;
    let rollout_len = sim.now().since(upgrade_started).as_millis().max(1);
    #[cfg(test)]
    {
        pools.rollout = sim.now().since(upgrade_started);
    }
    // Message-rate comparison: the baseline-window rate (first op to upgrade
    // start) projected onto the length of the window it is compared with.
    let baseline_window_msgs = msgs_before_window - pre.msgs_at_first_op;
    let baseline_len = upgrade_started.since(pre.first_op_time).as_millis();
    let project = |len_ms| oracle::project_baseline(baseline_window_msgs, baseline_len, len_ms);
    let baseline_rollout = project(rollout_len);

    // Decided-verdict cut: the window can only gain messages, and it ends at
    // most `max_len` after the upgrade started (an op settles by its
    // timeout), so past `decided_at` delivered cluster messages — or with
    // the rollout window already a storm — the storm rule below is certain
    // to fire and the rest of the quiesce would add no evidence.
    let max_len = max_window_len(rollout_len, after_ops.len());
    let decided_at = if oracle::is_storm(rollout_msgs, baseline_rollout) {
        0
    } else {
        oracle::storm_decided_above(project(max_len)).saturating_add(msgs_before_window + 1)
    };
    #[cfg(test)]
    let decided_at = if pools.uncut { u64::MAX } else { decided_at };
    let decided_early = driver.quiesce(sim, QUIESCE, decided_at);
    if decided_early {
        let at = sim.cluster_messages_delivered() - msgs_before_window;
        sim.log_sim(
            LogLevel::Info,
            format!("quiesce ended early: message storm decided at {at} window messages"),
        );
    }
    client.run_all(&driver, sim, after_ops, true, true);
    driver.run_for(sim, SETTLE);

    let window_msgs = sim.cluster_messages_delivered() - msgs_before_window;
    let window_len = sim.now().since(upgrade_started).as_millis().max(1);
    debug_assert!(window_len <= max_len, "{window_len} > {max_len}");
    let baseline_msgs = project(window_len);

    // The full window takes precedence (identical evidence to what it
    // always produced); the rollout-only window is consulted only when the
    // full window is quiet, so a transient rollout-phase storm still trips
    // the same oracle rule.
    let (window_msgs, baseline_msgs) = if !oracle::is_storm(window_msgs, baseline_msgs)
        && oracle::is_storm(rollout_msgs, baseline_rollout)
    {
        (rollout_msgs, baseline_rollout)
    } else {
        (window_msgs, baseline_msgs)
    };

    let observations =
        oracle::evaluate(sim, log_mark, baseline_msgs, window_msgs, &client.evidence);
    let outcome = if observations.is_empty() {
        CaseOutcome::Pass
    } else {
        CaseOutcome::Fail(observations)
    };
    (outcome, decided_early)
}

/// The time slice `[lo, hi)` of an open-loop window of `window_us` that
/// traffic step `chunk` of `of` sends: the window cut into `of` equal
/// slices, the last one open-ended.
fn traffic_slice(window_us: u64, chunk: u32, of: u32) -> (u64, u64) {
    let of = u64::from(of.max(1));
    let slice_us = (window_us / of).max(1);
    let lo = u64::from(chunk) * slice_us;
    let hi = if u64::from(chunk) + 1 == of {
        u64::MAX
    } else {
        lo + slice_us
    };
    (lo, hi)
}

/// The longest the upgrade window can get, in milliseconds, for a rollout
/// that took `rollout_len_ms`: a full [`QUIESCE`], every post-upgrade op
/// running into its timeout, and the final [`SETTLE`].
fn max_window_len(rollout_len_ms: u64, after_ops: usize) -> u64 {
    rollout_len_ms + (QUIESCE + OP_TIMEOUT.saturating_mul(after_ops as u64) + SETTLE).as_millis()
}

fn host(i: u32) -> String {
    format!("host-{i}")
}

fn find_unit_test(sut: &dyn SystemUnderTest, name: &str) -> Option<UnitTest> {
    sut.unit_tests().into_iter().find(|t| t.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{dedup_key, Campaign, CaseMatrix};
    use crate::oracle::project_baseline;
    use crate::workload::{OpenLoopSpec, ARRIVALS_DRAWN};
    use dup_simnet::{Ctx, Endpoint, Process, StepResult};
    use proptest::prelude::*;
    use std::cell::Cell;

    fn systems() -> [&'static dyn SystemUnderTest; 4] {
        [
            &dup_kvstore::KvStoreSystem,
            &dup_dfs::DfsSystem,
            &dup_mq::MqSystem,
            &dup_coord::CoordSystem,
        ]
    }

    fn evidence(outcome: &CaseOutcome) -> &[Observation] {
        match outcome {
            CaseOutcome::Fail(observations) => observations,
            _ => &[],
        }
    }

    fn has_storm(outcome: &CaseOutcome) -> bool {
        evidence(outcome)
            .iter()
            .any(|o| matches!(o, Observation::MessageStorm { .. }))
    }

    /// The cut against the uncut reference over one system's whole extended
    /// matrix, case by case: the same verdict always; the same everything
    /// when the cut did not fire; and when it did, a storm on both sides
    /// under the same dedup key. Snapshotting on and off must agree with
    /// each other too. Returns how many cases were cut.
    fn cut_equals_uncut_reference(sut: &dyn SystemUnderTest) -> usize {
        let config = Campaign::builder(sut)
            .seeds(1..=3)
            .scenarios(Scenario::extended())
            .faults([FaultIntensity::Off, FaultIntensity::Heavy])
            .durabilities([Durability::Strict, Durability::Torn])
            .into_config();
        let matrix = CaseMatrix::enumerate(sut, &config);
        let mut forked = CaseRunner::with_options(sut, None, true);
        let mut replayed = CaseRunner::with_options(sut, None, false);
        let mut reference = CaseRunner::with_options(sut, None, true).uncut();
        let mut cut_cases = 0;
        // Runs of consecutive cases sharing a prefix: `(from, workload)`.
        let (mut prefix_runs, mut last_prefix) = (0, None);
        for index in 0..matrix.len() {
            let case = matrix.case_at(index);
            let what = format!("{} {case:?}", sut.name());
            let prefix = Some((case.from, case.workload.clone()));
            if prefix != last_prefix {
                prefix_runs += 1;
                last_prefix = prefix;
            }
            let cut = case.run_in(&mut forked);
            let other = case.run_in(&mut replayed);
            assert_eq!(cut.outcome, other.outcome, "{what}");
            assert_eq!(cut.digest, other.digest, "{what}");
            let uncut = case.run_in(&mut reference);
            assert_eq!(uncut.digest.decided_early, 0, "{what}");
            assert_eq!(
                cut.outcome.is_failure(),
                uncut.outcome.is_failure(),
                "{what}"
            );
            if cut.digest.decided_early == 0 {
                assert_eq!(cut.outcome, uncut.outcome, "{what}");
                assert_eq!(cut.digest, uncut.digest, "{what}");
                continue;
            }
            cut_cases += 1;
            assert!(has_storm(&cut.outcome), "{what}: {:?}", cut.outcome);
            assert!(has_storm(&uncut.outcome), "{what}: {:?}", uncut.outcome);
            assert_eq!(
                dedup_key(evidence(&cut.outcome)),
                dedup_key(evidence(&uncut.outcome)),
                "{what}"
            );
            assert!(
                cut.digest.events_processed < uncut.digest.events_processed,
                "{what}"
            );
        }
        assert!(cut_cases * 10 < matrix.len(), "{cut_cases} cases cut");
        // Snapshot-and-fork pays for itself: one prefix per run of siblings,
        // where replaying from scratch pays one per case.
        let name = sut.name();
        assert_eq!(forked.pools.prefixes_run, prefix_runs, "{name}");
        assert_eq!(replayed.pools.prefixes_run, matrix.len(), "{name}");
        assert!(prefix_runs * 2 < matrix.len(), "{name}");
        cut_cases
    }

    // One test per system, so they run side by side.
    #[test]
    fn cut_equals_uncut_on_kvstore() {
        // CASSANDRA-13441's migration storm lives here.
        assert!(cut_equals_uncut_reference(&dup_kvstore::KvStoreSystem) > 0);
    }

    #[test]
    fn cut_equals_uncut_on_dfs() {
        cut_equals_uncut_reference(&dup_dfs::DfsSystem);
    }

    #[test]
    fn cut_equals_uncut_on_mq() {
        cut_equals_uncut_reference(&dup_mq::MqSystem);
    }

    #[test]
    fn cut_equals_uncut_on_coord() {
        cut_equals_uncut_reference(&dup_coord::CoordSystem);
    }

    #[test]
    fn a_repro_line_naming_another_systems_versions_is_invalid() {
        let tail = "scenario=rolling workload=stress seed=1 faults=off durability=strict";
        let hdfs = format!("2.8.0->3.1.0 {tail}");
        let cassandra = format!("3.11.0->4.0.0 {tail}");
        let systems: [(&dyn SystemUnderTest, &str, &str); 4] = [
            (&dup_kvstore::KvStoreSystem, &hdfs, "2.8.0"),
            (&dup_dfs::DfsSystem, &cassandra, "3.11.0"),
            (&dup_mq::MqSystem, &hdfs, "2.8.0"),
            (&dup_coord::CoordSystem, &hdfs, "2.8.0"),
        ];
        for (sut, foreign, stranger) in systems {
            let own = sut.versions()[0];
            let lines = [
                (foreign.to_string(), stranger),
                (format!("9.9.9->10.0.0 {tail}"), "9.9.9"),
                (format!("{own}->10.0.0 {tail}"), "10.0.0"),
            ];
            let mut runner = CaseRunner::new(sut);
            for (line, stranger) in lines {
                let spec: CaseSpec = line.parse().expect("a repro line");
                let refused = CaseOutcome::InvalidWorkload(format!(
                    "{stranger} is not a {} release",
                    sut.name()
                ));
                assert_eq!(spec.run_in(&mut runner).outcome, refused, "{line}");
                assert_eq!(spec.case.run_in(&mut runner).outcome, refused, "{line}");
            }
        }
        // The line itself replays on the system it names.
        let spec: CaseSpec = hdfs.parse().expect("a repro line");
        let outcome = spec
            .run_in(&mut CaseRunner::new(&dup_dfs::DfsSystem))
            .outcome;
        assert!(
            !matches!(outcome, CaseOutcome::InvalidWorkload(_)),
            "{outcome:?}"
        );
    }

    /// `upbench`'s open-loop workload: 10^6 logical clients at 500 req/s.
    fn open_loop(read_pct: u8) -> WorkloadSpec {
        WorkloadSpec::OpenLoop(OpenLoopSpec {
            clients: 1_000_000,
            rate_per_sec: 500,
            read_pct,
            ..OpenLoopSpec::small()
        })
    }

    /// A same-version "upgrade" has no storm to decide: under the heaviest
    /// adversity and the open-loop barrage no case fails and none is cut.
    /// (hdfs-mini's precision has known bounds, so it runs without the
    /// adversity — injected crashes leave its single namenode unresponsive —
    /// and under open-loop only has to stay storm-free: while a restarting
    /// datanode holds a block's only replica, reads of that block are
    /// answered `ERR no live replica` and the namenode logs the miss as an
    /// error.)
    #[test]
    fn same_version_cases_are_never_cut() {
        for sut in systems() {
            let hdfs = sut.name() == "hdfs-mini";
            let version = *sut.versions().last().expect("a system has versions");
            let (faults, durability) = if hdfs {
                (FaultIntensity::Off, Durability::Strict)
            } else {
                (FaultIntensity::Heavy, Durability::Torn)
            };
            let mut runner = CaseRunner::with_options(sut, None, true);
            for workload in [WorkloadSpec::Stress, open_loop(90), open_loop(10)] {
                for seed in 1..=3 {
                    let case = TestCase {
                        from: version,
                        to: version,
                        scenario: Scenario::Rolling,
                        workload: workload.clone(),
                        seed,
                        faults,
                        durability,
                    };
                    let result = case.run_in(&mut runner);
                    let what = format!("{} {case:?}: {:?}", sut.name(), result.outcome);
                    assert_eq!(result.digest.decided_early, 0, "{what}");
                    if hdfs && workload != WorkloadSpec::Stress {
                        assert!(!has_storm(&result.outcome), "{what}");
                    } else {
                        assert_eq!(result.outcome, CaseOutcome::Pass, "{what}");
                    }
                }
            }
        }
    }

    /// Open-loop traffic never holds the rollout up: a traffic step sends
    /// each arrival of its slice on schedule and then waits at most one
    /// [`OP_TIMEOUT`] for the last reply. So a rolling open-loop rollout
    /// takes no longer than the same rollout under stress traffic, plus the
    /// arrival window, plus one timeout per traffic step.
    #[test]
    fn open_loop_rollout_keeps_its_schedule() {
        let sut = &dup_kvstore::KvStoreSystem;
        let version = *sut.versions().last().expect("a system has versions");
        let mut runner = CaseRunner::new(sut);
        for seed in 1..=3 {
            let case = |workload| TestCase {
                from: version,
                to: version,
                scenario: Scenario::Rolling,
                workload,
                seed,
                faults: FaultIntensity::Off,
                durability: Durability::Strict,
            };
            case(WorkloadSpec::Stress).run_in(&mut runner);
            let stress = runner.pools.rollout;
            let traffic_steps = runner.pools.plan.steps().iter();
            let traffic_steps = traffic_steps
                .filter(|s| matches!(s, RolloutStep::Traffic { .. }))
                .count();
            let bound = stress
                + SimDuration::from_millis(OPEN_LOOP_WINDOW_MS)
                + OP_TIMEOUT.saturating_mul(traffic_steps as u64);
            for read_pct in [90, 10] {
                let result = case(open_loop(read_pct)).run_in(&mut runner);
                let rollout = runner.pools.rollout;
                assert!(
                    rollout <= bound,
                    "seed {seed} m{read_pct}: rollout {rollout} > {bound}: {:?}",
                    result.outcome
                );
            }
        }
    }

    /// The reference for one arrival cursor per case: what the last case run
    /// in `runner` sends when every traffic step re-draws the stream from
    /// its start and sends the arrivals of its own slice. Returns the
    /// (step, arrival) pairs and how many arrivals that re-drawing draws.
    fn redrawn_sends(runner: &CaseRunner<'_>) -> (Vec<(usize, u64)>, u64) {
        let (plan, wplan) = (&runner.pools.plan, &runner.pools.wplan);
        let drawn_before = ARRIVALS_DRAWN.with(Cell::get);
        let mut sends = Vec::new();
        for (i, step) in plan.steps()[..runner.pools.steps_run].iter().enumerate() {
            if let RolloutStep::Traffic { chunk, of } = *step {
                let (lo, hi) = traffic_slice(wplan.window_us(), chunk, of);
                let slice = wplan.arrivals().skip_while(|a| a.at_us < lo);
                sends.extend(slice.take_while(|a| a.at_us < hi).map(|a| (i, a.index)));
            }
        }
        (sends, ARRIVALS_DRAWN.with(Cell::get) - drawn_before)
    }

    /// Every extended scenario's plan, plain and nudged (step swaps, burst
    /// shifts), sends the same arrivals from the same steps as the per-step
    /// re-draw reference, and draws each arrival once: all of them when the
    /// rollout ran to its end. The reference draws 3.5× as many on a
    /// kvstore rolling case.
    #[test]
    fn one_arrival_cursor_sends_what_per_step_redraws_send() {
        let nudges = [
            PlanNudge::default(),
            PlanNudge {
                step_swap_salt: 1,
                ..PlanNudge::default()
            },
            PlanNudge {
                step_swap_salt: 2,
                ..PlanNudge::default()
            },
            PlanNudge {
                step_swap_salt: 5,
                ..PlanNudge::default()
            },
            PlanNudge {
                burst_shift_ms: 40,
                ..PlanNudge::default()
            },
            PlanNudge {
                step_swap_salt: 3,
                burst_shift_ms: -40,
                ..PlanNudge::default()
            },
        ];
        let kvstore: &dyn SystemUnderTest = &dup_kvstore::KvStoreSystem;
        for sut in [kvstore, &dup_mq::MqSystem] {
            let versions = sut.versions();
            let mut runner = CaseRunner::new(sut);
            for scenario in Scenario::extended() {
                for nudge in &nudges {
                    let case = TestCase {
                        from: versions[0],
                        to: *versions.last().expect("a system has versions"),
                        scenario,
                        workload: open_loop(10),
                        seed: 1,
                        faults: FaultIntensity::Off,
                        durability: Durability::Strict,
                    };
                    let drawn_before = ARRIVALS_DRAWN.with(Cell::get);
                    runner.execute(&case, nudge);
                    let drawn = ARRIVALS_DRAWN.with(Cell::get) - drawn_before;
                    let what = format!("{} {scenario} {nudge:?}", sut.name());
                    let (reference, redrawn) = redrawn_sends(&runner);
                    assert_eq!(runner.pools.sent, reference, "{what}");
                    let arrivals = runner.pools.wplan.arrivals().count() as u64;
                    if runner.pools.steps_run == runner.pools.plan.steps().len() {
                        assert_eq!(drawn, arrivals, "{what}");
                    } else {
                        assert!(drawn <= arrivals, "{what}: {drawn} of {arrivals}");
                    }
                    if sut.name() == kvstore.name() && scenario == Scenario::Rolling {
                        // 6 298 draws for 1 819 arrivals on the plain plan.
                        assert!(redrawn > 3 * arrivals, "{what}: {redrawn} of {arrivals}");
                    }
                }
            }
        }
    }

    /// The theorem the cut rests on, for one baseline and one rollout: a
    /// window holding more than the decided level is a storm at every
    /// length it can still end at.
    fn check_decided_level(base_msgs: u64, base_len: u64, rollout_len: u64, after_ops: usize) {
        let max_len = max_window_len(rollout_len, after_ops);
        let at_max = project_baseline(base_msgs, base_len, max_len);
        let level = oracle::storm_decided_above(at_max);
        let lens = [0, 1, rollout_len, max_len / 2, max_len - 1, max_len];
        for len in lens {
            let baseline = project_baseline(base_msgs, base_len, len);
            assert!(baseline <= at_max);
            if level < u64::MAX {
                for window in [level + 1, level.saturating_mul(2), u64::MAX] {
                    assert!(
                        oracle::is_storm(window, baseline),
                        "{window} msgs over {len} ms vs {base_msgs} per {base_len} ms"
                    );
                }
            }
        }
        // The level is tight at the longest window, or sits on the floor.
        assert!(!oracle::is_storm(level, at_max));
    }

    #[test]
    fn decided_level_is_sound_on_seeded_inputs() {
        let mut rng = dup_simnet::SimRng::new(17);
        // Uniform in magnitude, not in value: small counts matter as much.
        let mut up_to_bits = |bits: u64| {
            let bound = 1 << rng.next_below(bits);
            rng.next_below(bound)
        };
        for _ in 0..2_000 {
            let (base_msgs, base_len) = (up_to_bits(40), up_to_bits(24));
            let (rollout_len, after_ops) = (1 + up_to_bits(24), up_to_bits(7) as usize);
            check_decided_level(base_msgs, base_len, rollout_len, after_ops);
        }
        // Degenerate windows: no baseline time, no baseline traffic, and a
        // rate whose projection saturates.
        check_decided_level(7, 0, 1, 0);
        check_decided_level(0, 0, 1, 3);
        check_decided_level(u64::MAX, 1, 1, 0);
    }

    proptest! {
        #[test]
        fn decided_level_is_sound(
            base_msgs in any::<u64>(),
            base_len in 0u64..100_000_000,
            rollout_len in 1u64..100_000_000,
            after_ops in 0usize..10_000,
        ) {
            check_decided_level(base_msgs, base_len, rollout_len, after_ops);
        }

        #[test]
        fn baseline_projection_never_shrinks_with_the_window(
            base_msgs in any::<u64>(),
            base_len in any::<u64>(),
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            let (short, long) = (a.min(b), a.max(b));
            prop_assert!(
                project_baseline(base_msgs, base_len, short)
                    <= project_baseline(base_msgs, base_len, long)
            );
        }
    }

    // ---- a toy flood: the runaway the cut ends ------------------------------
    // (The timer-loop runaway it leaves alone is `durability_campaigns.rs`'s
    // `runaway_case_is_cut_off_and_reported_hung`.)

    /// Replies `OK` to clients. As the new version it also goes bad once the
    /// rollout has settled: 200 messages bounce between the two nodes forever.
    struct Flooder {
        new_version: bool,
    }

    impl Process for Flooder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
            if self.new_version {
                ctx.set_timer(SimDuration::from_secs(5), 1);
            }
            Ok(())
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, _payload: &[u8]) -> StepResult {
            let reply: &'static [u8] = match from {
                Endpoint::Node(_) => b"PING",
                Endpoint::Client(_) => b"OK",
            };
            ctx.send(from, bytes::Bytes::from_static(reply));
            Ok(())
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) -> StepResult {
            let peer = Endpoint::Node(1 - ctx.node_id());
            for _ in 0..200 {
                ctx.send(peer, bytes::Bytes::from_static(b"PING"));
            }
            Ok(())
        }
    }

    struct FloodSut;

    impl SystemUnderTest for FloodSut {
        fn name(&self) -> &'static str {
            "flood-toy"
        }
        fn versions(&self) -> Vec<VersionId> {
            vec!["1.0.0".parse().unwrap(), "2.0.0".parse().unwrap()]
        }
        fn cluster_size(&self) -> u32 {
            2
        }
        fn spawn(&self, version: VersionId, _setup: &NodeSetup) -> Box<dyn Process> {
            Box::new(Flooder {
                new_version: version.to_string() == "2.0.0",
            })
        }
        fn stress_ops(
            &self,
            _seed: u64,
            _phase: WorkloadPhase,
            _client_version: VersionId,
            emit: &mut dyn FnMut(ClientOp),
        ) {
            emit(ClientOp::new(0, "HEALTH"));
        }
    }

    #[test]
    fn a_flood_is_reported_as_the_storm_it_is() {
        let case = TestCase {
            from: "1.0.0".parse().unwrap(),
            to: "2.0.0".parse().unwrap(),
            scenario: Scenario::FullStop,
            workload: WorkloadSpec::Stress,
            seed: 1,
            faults: FaultIntensity::Off,
            durability: Durability::Strict,
        };
        let mut runner = CaseRunner::new(&FloodSut);
        let cut = case.run_in(&mut runner);
        assert_eq!(cut.digest.decided_early, 1);
        assert!(has_storm(&cut.outcome), "{:?}", cut.outcome);
        assert!(cut.digest.events_processed < EVENT_BUDGET / 2);
        let log = runner.sim.logs().records_since(Default::default());
        assert!(
            log.iter()
                .any(|r| r.message.starts_with("quiesce ended early")),
            "the cut explains itself in the log"
        );
        // Pumped through the whole quiesce, the same flood runs away.
        let uncut = case.run_in(&mut CaseRunner::new(&FloodSut).uncut());
        assert!(
            matches!(evidence(&uncut.outcome), [Observation::CaseHung { .. }]),
            "{:?}",
            uncut.outcome
        );
    }
}
