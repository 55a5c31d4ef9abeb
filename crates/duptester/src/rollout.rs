//! Explicit rollout plans: every [`Scenario`] compiles to a validated,
//! seeded sequence of [`RolloutStep`]s over a version path before it runs.
//!
//! Making the rollout schedule *data* rather than driver control flow buys
//! three things at once:
//!
//! - **reach** — downgrades, multi-hop jumps, canary gates, and membership
//!   churn are just step sequences, so the four extended scenarios share the
//!   one interpreter the paper's three already use;
//! - **mutability** — the coverage-guided search's `NudgeRolloutPlan`
//!   operator can shift settle times and swap adjacent steps within the
//!   validity constraints ([`RolloutPlan::nudge`]), the same way it already
//!   perturbs fault plans;
//! - **repro** — the plan is a pure function of a
//!   [`CaseSpec`](crate::CaseSpec) and the system, so a failure's repro
//!   line rebuilds it; the `replay` example prints it.
//!
//! The plan is a pure function of
//! `(scenario, from, to, catalog, cluster size, seed)` — compiled per case
//! into a pooled buffer ([`RolloutPlan::compile`] reuses its step vector, so
//! the warm path never allocates) — and for the paper's three scenarios it
//! replays the historical hard-coded driver sequence *exactly*, which keeps
//! every existing campaign report byte-identical.
//!
//! # Plan grammar
//!
//! A rendered plan is `[<path>]<steps>` where `<path>` is `>`-separated
//! versions (oldest first, length 2 or 3) and `<steps>` is a
//! comma-separated list of step mnemonics:
//!
//! | token | step |
//! |-------|------|
//! | `s<node>` | gracefully stop a node |
//! | `u<node>:<v>` | install path index `v` (higher than current) and start |
//! | `d<node>:<v>` | install path index `v` (lower than current) over newer on-disk state and start |
//! | `j<node>:<v>` | add a fresh node at path index `v` and start it |
//! | `l<node>` | gracefully stop a previously joined node |
//! | `w<millis>` | settle: drive the simulation for `millis` ms |
//! | `t<chunk>/<of>` | run the during-upgrade ops whose index ≡ chunk (mod of) |
//! | `p<node>` | health-probe a node |
//! | `g<node>` | canary gate: probe; on failure halt the remaining steps |

use crate::faults::PlanNudge;
use crate::scenario::Scenario;
use dup_core::VersionId;
use dup_simnet::NodeId;
use std::fmt;

/// Settle after an install or join, matching the harness's historical
/// post-install settle.
const SETTLE_MS: u64 = 2_000;
/// The brief full-stop gap between the last old-version stop and the first
/// new-version install.
const FULL_STOP_GAP_MS: u64 = 200;
/// Per-node downtime during a rolling step — past the 3 s restart
/// tolerance, far under the 60 s dead timeout (paper Fig. 1).
const ROLLING_DOWNTIME_MS: u64 = 3_600;
/// Dwell at each intermediate release of a multi-hop path before the next
/// hop starts. Long enough for intermediate-version-only pathologies (e.g.
/// a schema-pull feedback loop) to build observable pressure.
const INTERMEDIATE_SOAK_MS: u64 = 30_000;
/// Validity ceiling for any settle step: far above anything compiled or
/// nudged, far below the event-budget horizon.
const MAX_SETTLE_MS: u64 = 600_000;

/// Largest magnitude (in milliseconds) a [`PlanNudge::settle_shift_ms`] may
/// move a plan's settle steps by.
pub const MAX_SETTLE_SHIFT_MS: u64 = 2_000;

/// Longest version path a plan may carry (multi-hop: from → mid → to).
pub const MAX_PATH_LEN: usize = 3;

/// Most nodes a plan may govern (cluster plus one joiner); lets
/// [`RolloutPlan::validate`] track per-node state on the stack.
const MAX_NODES: usize = 32;

/// One step of a rollout schedule. Version fields are indices into the
/// plan's version path, not concrete versions — which is what makes
/// "downgrade" a structural property ([`RolloutStep::Downgrade`] must
/// strictly decrease the node's path index) instead of a runtime comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RolloutStep {
    /// Gracefully stop a running node (pre-install).
    Stop {
        /// The node to stop.
        node: NodeId,
    },
    /// Install the path version at `version` — higher than the node's
    /// current index — into a stopped node and start it.
    Upgrade {
        /// The node to upgrade.
        node: NodeId,
        /// Index into the plan's version path.
        version: u8,
    },
    /// Install the path version at `version` — *lower* than the node's
    /// current index — over the newer on-disk state and start it. This is
    /// the rollback step: the old process version must cope with durable
    /// state a newer version wrote.
    Downgrade {
        /// The node to downgrade.
        node: NodeId,
        /// Index into the plan's version path.
        version: u8,
    },
    /// Add a fresh node (with empty storage) at the path version `version`
    /// and start it.
    Join {
        /// The id the new node must receive.
        node: NodeId,
        /// Index into the plan's version path.
        version: u8,
    },
    /// Gracefully stop a node that leaves the cluster.
    Leave {
        /// The departing node.
        node: NodeId,
    },
    /// Drive the simulation for `millis` milliseconds.
    Settle {
        /// How long to drive.
        millis: u64,
    },
    /// Run the during-upgrade workload ops whose index is congruent to
    /// `chunk` modulo `of` (so `of` traffic steps with distinct chunks
    /// partition the workload round-robin, exactly like the historical
    /// rolling driver's chunking). Open-loop workload plans partition by
    /// *time* instead: step `chunk` replays slice `chunk` of the plan's
    /// `of`-way-split arrival window in simulated time, so scheduled bursts
    /// land against the rollout step their slice abuts.
    Traffic {
        /// Which residue class of op indices to run.
        chunk: u32,
        /// The modulus shared by every traffic step of the plan.
        of: u32,
    },
    /// Health-probe a node (the response lands in the oracle's op log).
    Probe {
        /// The node to probe.
        node: NodeId,
    },
    /// Health-probe a canary node; if the canary is genuinely crashed or
    /// the probe goes unanswered, the interpreter halts the remaining steps
    /// (the operator rolls no further) — quiesce and verification still
    /// run, so the oracle sees whatever the canary broke.
    CanaryGate {
        /// The canary node; must have been upgraded earlier in the plan.
        node: NodeId,
    },
}

/// A validated, seeded rollout schedule over a version path. See the
/// [module docs](self) for the grammar and the compile/nudge/repro
/// contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RolloutPlan {
    path: Vec<VersionId>,
    steps: Vec<RolloutStep>,
}

impl RolloutPlan {
    /// An empty plan. [`RolloutPlan::compile`] fills it in place, reusing
    /// both buffers across cases.
    pub fn new() -> RolloutPlan {
        RolloutPlan::default()
    }

    /// The version path, oldest first (`path()[0]` is the from-version and
    /// the last entry the to-version).
    pub fn path(&self) -> &[VersionId] {
        &self.path
    }

    /// The step sequence.
    pub fn steps(&self) -> &[RolloutStep] {
        &self.steps
    }

    /// The concrete version at path index `idx` (clamped to the path).
    pub fn version(&self, idx: u8) -> VersionId {
        self.path[(idx as usize).min(self.path.len().saturating_sub(1))]
    }

    /// Compiles `scenario` into this plan, in place, as a pure function of
    /// the arguments. `catalog` is the system's release catalog
    /// ([`dup_core::SystemUnderTest::versions`]): [`Scenario::MultiHop`]
    /// picks its middle hop from the releases strictly between `from` and
    /// `to` (none ⇒ single hop). `seed` picks the seeded choices — how many
    /// nodes a partial rollout upgrades, which node is the canary.
    ///
    /// For the paper's three scenarios the compiled plan replays the
    /// historical hard-coded driver sequence exactly.
    pub fn compile(
        &mut self,
        scenario: Scenario,
        from: VersionId,
        to: VersionId,
        catalog: &[VersionId],
        n: u32,
        seed: u64,
    ) {
        self.path.clear();
        self.steps.clear();
        self.path.push(from);
        if scenario == Scenario::MultiHop {
            if let Some(mid) = middle_hop(catalog, from, to) {
                self.path.push(mid);
            }
        }
        self.path.push(to);
        let last = (self.path.len() - 1) as u8;

        match scenario {
            Scenario::FullStop => {
                for i in (0..n).rev() {
                    self.steps.push(RolloutStep::Stop { node: i });
                }
                self.steps.push(RolloutStep::Settle {
                    millis: FULL_STOP_GAP_MS,
                });
                for i in 0..n {
                    self.steps.push(RolloutStep::Upgrade {
                        node: i,
                        version: last,
                    });
                }
                self.steps.push(RolloutStep::Settle { millis: SETTLE_MS });
                self.steps.push(RolloutStep::Traffic { chunk: 0, of: 1 });
            }
            Scenario::Rolling => self.rolling_hop(0, last, n, 2 * n),
            Scenario::NewNodeJoin => {
                self.steps.push(RolloutStep::Join {
                    node: n,
                    version: last,
                });
                self.steps.push(RolloutStep::Settle { millis: SETTLE_MS });
                self.steps.push(RolloutStep::Traffic { chunk: 0, of: 1 });
                self.steps.push(RolloutStep::Probe { node: n });
            }
            Scenario::RollbackAfterPartial => {
                // Upgrade k of n (seed-chosen, always partial for n >= 2),
                // run traffic so new-version state lands on disk, then roll
                // the upgraded nodes back to the from-version.
                let k = 1 + (seed % u64::from(n.saturating_sub(1).max(1))) as u32;
                for i in 0..k.min(n) {
                    self.steps.push(RolloutStep::Stop { node: i });
                    self.steps.push(RolloutStep::Settle {
                        millis: ROLLING_DOWNTIME_MS,
                    });
                    self.steps.push(RolloutStep::Upgrade {
                        node: i,
                        version: last,
                    });
                    self.steps.push(RolloutStep::Settle { millis: SETTLE_MS });
                }
                self.steps.push(RolloutStep::Traffic { chunk: 0, of: 2 });
                for i in 0..k.min(n) {
                    self.steps.push(RolloutStep::Stop { node: i });
                    self.steps.push(RolloutStep::Settle {
                        millis: ROLLING_DOWNTIME_MS,
                    });
                    self.steps.push(RolloutStep::Downgrade {
                        node: i,
                        version: 0,
                    });
                    self.steps.push(RolloutStep::Settle { millis: SETTLE_MS });
                }
                self.steps.push(RolloutStep::Traffic { chunk: 1, of: 2 });
            }
            Scenario::MultiHop => {
                // Rolling at each hop, with a soak at every intermediate
                // release before the next hop starts: the per-hop
                // mixed-version windows and the dwell *at* the intermediate
                // version are where multi-hop-only incompatibilities live
                // (CASSANDRA-13441's storm rages exactly while the fleet
                // sits on the middle release).
                let hops = last as u32;
                let of = (2 * n * hops).max(1);
                for hop in 1..=last {
                    self.rolling_hop(2 * n * (u32::from(hop) - 1), hop, n, of);
                    if hop < last {
                        self.steps.push(RolloutStep::Settle {
                            millis: INTERMEDIATE_SOAK_MS,
                        });
                    }
                }
            }
            Scenario::CanaryThenFleet => {
                let canary = (seed % u64::from(n.max(1))) as u32;
                self.steps.push(RolloutStep::Stop { node: canary });
                self.steps.push(RolloutStep::Settle {
                    millis: ROLLING_DOWNTIME_MS,
                });
                self.steps.push(RolloutStep::Upgrade {
                    node: canary,
                    version: last,
                });
                self.steps.push(RolloutStep::Settle { millis: SETTLE_MS });
                self.steps.push(RolloutStep::Traffic { chunk: 0, of: 2 });
                self.steps.push(RolloutStep::CanaryGate { node: canary });
                for i in (0..n).filter(|&i| i != canary) {
                    self.steps.push(RolloutStep::Stop { node: i });
                    self.steps.push(RolloutStep::Settle {
                        millis: ROLLING_DOWNTIME_MS,
                    });
                    self.steps.push(RolloutStep::Upgrade {
                        node: i,
                        version: last,
                    });
                    self.steps.push(RolloutStep::Settle { millis: SETTLE_MS });
                }
                self.steps.push(RolloutStep::Traffic { chunk: 1, of: 2 });
            }
            Scenario::RollingWithChurn => {
                // An old-version node joins as the rollout starts and leaves
                // near its end: membership churn mid-rollout.
                self.steps.push(RolloutStep::Join {
                    node: n,
                    version: 0,
                });
                self.steps.push(RolloutStep::Settle { millis: SETTLE_MS });
                self.rolling_hop(0, last, n, 2 * n);
                self.steps.push(RolloutStep::Leave { node: n });
                self.steps.push(RolloutStep::Settle { millis: SETTLE_MS });
            }
        }
    }

    /// One rolling pass over nodes `0..n` to path index `to`, consuming
    /// traffic chunks `chunk_base..chunk_base + 2n` out of `of`. Matches
    /// the historical rolling driver: half of each node's traffic while it
    /// is down (the restart-tolerance window), half right after it rejoins
    /// (the mixed-version live window).
    fn rolling_hop(&mut self, chunk_base: u32, to: u8, n: u32, of: u32) {
        for i in 0..n {
            self.steps.push(RolloutStep::Stop { node: i });
            self.steps.push(RolloutStep::Settle {
                millis: ROLLING_DOWNTIME_MS,
            });
            self.steps.push(RolloutStep::Traffic {
                chunk: chunk_base + 2 * i,
                of,
            });
            self.steps.push(RolloutStep::Upgrade {
                node: i,
                version: to,
            });
            self.steps.push(RolloutStep::Settle { millis: SETTLE_MS });
            self.steps.push(RolloutStep::Traffic {
                chunk: chunk_base + 2 * i + 1,
                of,
            });
        }
    }

    /// Applies the plan-level half of a [`PlanNudge`], in place:
    /// `settle_shift_ms` (clamped to ±[`MAX_SETTLE_SHIFT_MS`]) moves every
    /// settle step, and a non-zero `step_swap_salt` performs one
    /// validity-preserving adjacent step swap (chosen by the salt among the
    /// swappable pairs; plans with none are left untouched).
    ///
    /// Pure and bounded: the same `(plan, nudge)` always yields the same
    /// result, settles stay within `[0, MAX_SETTLE_MS]`, and a valid plan
    /// stays valid.
    pub fn nudge(&mut self, nudge: &PlanNudge) {
        if nudge.settle_shift_ms != 0 {
            let max = MAX_SETTLE_SHIFT_MS as i64;
            let shift = nudge.settle_shift_ms.clamp(-max, max);
            for step in &mut self.steps {
                if let RolloutStep::Settle { millis } = step {
                    *millis = millis.saturating_add_signed(shift).min(MAX_SETTLE_MS);
                }
            }
        }
        if nudge.step_swap_salt != 0 {
            let count = self
                .steps
                .windows(2)
                .filter(|w| swappable(&w[0], &w[1]))
                .count() as u64;
            if count > 0 {
                let target = nudge.step_swap_salt % count;
                let mut seen = 0u64;
                for i in 0..self.steps.len() - 1 {
                    if swappable(&self.steps[i], &self.steps[i + 1]) {
                        if seen == target {
                            self.steps.swap(i, i + 1);
                            break;
                        }
                        seen += 1;
                    }
                }
            }
        }
    }

    /// Checks the plan against the validity rules for a cluster of `n`
    /// initial members:
    ///
    /// - the version path is non-empty, at most [`MAX_PATH_LEN`] long, and
    ///   non-decreasing; every step's version index is inside it;
    /// - stops and leaves hit running nodes; upgrades and downgrades hit
    ///   stopped nodes and strictly raise resp. lower the node's path
    ///   index; joins introduce fresh ids in simulator order (`n`, `n+1`,
    ///   …);
    /// - probes and canary gates target running nodes, and a gate's canary
    ///   must have been upgraded earlier in the plan;
    /// - every traffic step shares one modulus, each chunk is used at most
    ///   once, and settles stay within `MAX_SETTLE_MS`.
    ///
    /// Never allocates on the success path.
    pub fn validate(&self, n: u32) -> Result<(), &'static str> {
        if self.path.is_empty() || self.path.len() > MAX_PATH_LEN {
            return Err("version path must have 1..=3 entries");
        }
        if self.path.windows(2).any(|w| w[0] > w[1]) {
            return Err("version path must be non-decreasing");
        }
        if n as usize + 1 > MAX_NODES {
            return Err("cluster too large to validate");
        }

        #[derive(Clone, Copy, PartialEq)]
        enum St {
            Absent,
            Running,
            Stopped,
        }
        let mut state = [St::Absent; MAX_NODES];
        let mut version = [0u8; MAX_NODES];
        for s in state.iter_mut().take(n as usize) {
            *s = St::Running;
        }
        let mut next_join = n;
        let mut traffic_of: Option<u32> = None;
        let mut chunks_seen = 0u64; // bitmask over chunk ids < 64

        let slot = |node: NodeId| -> Result<usize, &'static str> {
            let i = node as usize;
            if i < MAX_NODES {
                Ok(i)
            } else {
                Err("node id out of validated range")
            }
        };
        for step in &self.steps {
            match *step {
                RolloutStep::Stop { node } | RolloutStep::Leave { node } => {
                    let i = slot(node)?;
                    if state[i] != St::Running {
                        return Err("stop/leave of a node that is not running");
                    }
                    state[i] = St::Stopped;
                }
                RolloutStep::Upgrade { node, version: v } => {
                    let i = slot(node)?;
                    if usize::from(v) >= self.path.len() {
                        return Err("upgrade to a version outside the path");
                    }
                    if state[i] != St::Stopped {
                        return Err("upgrade of a node that is not stopped");
                    }
                    if v <= version[i] {
                        return Err("upgrade must raise the node's path index");
                    }
                    version[i] = v;
                    state[i] = St::Running;
                }
                RolloutStep::Downgrade { node, version: v } => {
                    let i = slot(node)?;
                    if usize::from(v) >= self.path.len() {
                        return Err("downgrade to a version outside the path");
                    }
                    if state[i] != St::Stopped {
                        return Err("downgrade of a node that is not stopped");
                    }
                    if v >= version[i] {
                        return Err("downgrade must lower the node's path index");
                    }
                    version[i] = v;
                    state[i] = St::Running;
                }
                RolloutStep::Join { node, version: v } => {
                    let i = slot(node)?;
                    if usize::from(v) >= self.path.len() {
                        return Err("join at a version outside the path");
                    }
                    if node != next_join || state[i] != St::Absent {
                        return Err("join must introduce the next fresh node id");
                    }
                    next_join += 1;
                    version[i] = v;
                    state[i] = St::Running;
                }
                RolloutStep::Settle { millis } => {
                    if millis > MAX_SETTLE_MS {
                        return Err("settle exceeds the validity ceiling");
                    }
                }
                RolloutStep::Traffic { chunk, of } => {
                    if of == 0 || chunk >= of {
                        return Err("traffic chunk outside its modulus");
                    }
                    if *traffic_of.get_or_insert(of) != of {
                        return Err("traffic steps must share one modulus");
                    }
                    if chunk < 64 {
                        let bit = 1u64 << chunk;
                        if chunks_seen & bit != 0 {
                            return Err("traffic chunk used twice");
                        }
                        chunks_seen |= bit;
                    }
                }
                RolloutStep::Probe { node } => {
                    let i = slot(node)?;
                    if state[i] != St::Running {
                        return Err("probe of a node that is not running");
                    }
                }
                RolloutStep::CanaryGate { node } => {
                    let i = slot(node)?;
                    if state[i] != St::Running {
                        return Err("canary gate on a node that is not running");
                    }
                    if version[i] == 0 {
                        return Err("canary gate on a node that was never upgraded");
                    }
                }
            }
        }
        Ok(())
    }

    /// Renders the plan into the grammar in the module docs.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Parses a plan rendered by [`RolloutPlan::render`]; inverse of it.
    pub fn parse(s: &str) -> Result<RolloutPlan, String> {
        let rest = s
            .strip_prefix('[')
            .ok_or_else(|| "plan must start with '['".to_string())?;
        let (path_str, steps_str) = rest
            .split_once(']')
            .ok_or_else(|| "plan path must end with ']'".to_string())?;
        let mut plan = RolloutPlan::new();
        for v in path_str.split('>') {
            plan.path
                .push(v.parse().map_err(|e| format!("bad path version: {e:?}"))?);
        }
        // Numbers parse straight into their field's type: an out-of-range
        // node, version index or chunk is an error, never a wrapped value.
        fn one<T: std::str::FromStr>(tok: &str, s: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("step {tok}: bad number"))
        }
        fn two<A: std::str::FromStr, B: std::str::FromStr>(
            tok: &str,
            body: &str,
            sep: char,
        ) -> Result<(A, B), String> {
            let (a, b) = body
                .split_once(sep)
                .ok_or_else(|| format!("step {tok}: expected '{sep}'"))?;
            Ok((one(tok, a)?, one(tok, b)?))
        }
        for tok in steps_str.split(',').filter(|t| !t.is_empty()) {
            let mut chars = tok.chars();
            let kind = chars.next().expect("empty tokens are skipped");
            let body = chars.as_str();
            plan.steps.push(match kind {
                's' => RolloutStep::Stop {
                    node: one(tok, body)?,
                },
                'u' => {
                    let (node, version) = two(tok, body, ':')?;
                    RolloutStep::Upgrade { node, version }
                }
                'd' => {
                    let (node, version) = two(tok, body, ':')?;
                    RolloutStep::Downgrade { node, version }
                }
                'j' => {
                    let (node, version) = two(tok, body, ':')?;
                    RolloutStep::Join { node, version }
                }
                'l' => RolloutStep::Leave {
                    node: one(tok, body)?,
                },
                'w' => RolloutStep::Settle {
                    millis: one(tok, body)?,
                },
                't' => {
                    let (chunk, of) = two(tok, body, '/')?;
                    RolloutStep::Traffic { chunk, of }
                }
                'p' => RolloutStep::Probe {
                    node: one(tok, body)?,
                },
                'g' => RolloutStep::CanaryGate {
                    node: one(tok, body)?,
                },
                other => return Err(format!("unknown step kind {other:?}")),
            });
        }
        Ok(plan)
    }
}

impl fmt::Display for RolloutPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, v) in self.path.iter().enumerate() {
            if i > 0 {
                f.write_str(">")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("]")?;
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match *step {
                RolloutStep::Stop { node } => write!(f, "s{node}")?,
                RolloutStep::Upgrade { node, version } => write!(f, "u{node}:{version}")?,
                RolloutStep::Downgrade { node, version } => write!(f, "d{node}:{version}")?,
                RolloutStep::Join { node, version } => write!(f, "j{node}:{version}")?,
                RolloutStep::Leave { node } => write!(f, "l{node}")?,
                RolloutStep::Settle { millis } => write!(f, "w{millis}")?,
                RolloutStep::Traffic { chunk, of } => write!(f, "t{chunk}/{of}")?,
                RolloutStep::Probe { node } => write!(f, "p{node}")?,
                RolloutStep::CanaryGate { node } => write!(f, "g{node}")?,
            }
        }
        Ok(())
    }
}

/// The middle hop for a multi-hop path: the catalog release (strictly
/// between `from` and `to`) closest to the middle of the gap, or `None`
/// when the catalog has nothing in between.
fn middle_hop(catalog: &[VersionId], from: VersionId, to: VersionId) -> Option<VersionId> {
    let count = catalog.iter().filter(|v| **v > from && **v < to).count();
    if count == 0 {
        return None;
    }
    catalog
        .iter()
        .filter(|v| **v > from && **v < to)
        .nth(count / 2)
        .copied()
}

/// Whether swapping two *adjacent* steps preserves validity for any plan
/// this module compiles: member lifecycle steps (stop/upgrade/downgrade) on
/// *different* nodes commute, and settle/traffic steps are fluid — they
/// commute with each other and with any member lifecycle step. Join, leave,
/// probe, and canary-gate steps never move (the gate's position *is* its
/// semantics).
fn swappable(a: &RolloutStep, b: &RolloutStep) -> bool {
    fn member(s: &RolloutStep) -> Option<NodeId> {
        match *s {
            RolloutStep::Stop { node }
            | RolloutStep::Upgrade { node, .. }
            | RolloutStep::Downgrade { node, .. } => Some(node),
            _ => None,
        }
    }
    fn fluid(s: &RolloutStep) -> bool {
        matches!(s, RolloutStep::Settle { .. } | RolloutStep::Traffic { .. })
    }
    match (member(a), member(b)) {
        (Some(x), Some(y)) => x != y,
        _ => (member(a).is_some() || fluid(a)) && (member(b).is_some() || fluid(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> VersionId {
        s.parse().unwrap()
    }

    fn catalog() -> Vec<VersionId> {
        ["1.0.0", "2.0.0", "3.0.0", "4.0.0"]
            .iter()
            .map(|s| v(s))
            .collect()
    }

    fn compiled(scenario: Scenario, seed: u64) -> RolloutPlan {
        let mut plan = RolloutPlan::new();
        plan.compile(scenario, v("1.0.0"), v("3.0.0"), &catalog(), 3, seed);
        plan
    }

    #[test]
    fn every_scenario_compiles_to_a_valid_plan() {
        for scenario in Scenario::extended() {
            for seed in 0..8 {
                let plan = compiled(scenario, seed);
                assert!(
                    plan.validate(3).is_ok(),
                    "{scenario} seed {seed}: {:?} for {plan}",
                    plan.validate(3)
                );
                assert!(!plan.steps().is_empty(), "{scenario} compiled empty");
            }
        }
    }

    #[test]
    fn paper_plans_replay_the_historical_driver_shape() {
        let full_stop = compiled(Scenario::FullStop, 1);
        assert_eq!(
            full_stop.to_string(),
            "[1.0.0>3.0.0]s2,s1,s0,w200,u0:1,u1:1,u2:1,w2000,t0/1"
        );
        let rolling = compiled(Scenario::Rolling, 1);
        assert_eq!(
            rolling.to_string(),
            "[1.0.0>3.0.0]s0,w3600,t0/6,u0:1,w2000,t1/6,\
             s1,w3600,t2/6,u1:1,w2000,t3/6,s2,w3600,t4/6,u2:1,w2000,t5/6"
        );
        let join = compiled(Scenario::NewNodeJoin, 1);
        assert_eq!(join.to_string(), "[1.0.0>3.0.0]j3:1,w2000,t0/1,p3");
    }

    #[test]
    fn rollback_upgrades_then_downgrades_a_seeded_partial_set() {
        let plan = compiled(Scenario::RollbackAfterPartial, 0);
        let ups = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, RolloutStep::Upgrade { .. }))
            .count();
        let downs = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, RolloutStep::Downgrade { .. }))
            .count();
        assert_eq!(ups, downs, "every upgraded node rolls back");
        assert!((1..3).contains(&ups), "partial rollout for n=3, got {ups}");
        // Seeds pick different k.
        let k0 = compiled(Scenario::RollbackAfterPartial, 0).steps().len();
        let k1 = compiled(Scenario::RollbackAfterPartial, 1).steps().len();
        assert_ne!(k0, k1, "seed must vary the partial-set size");
        // Traffic lands between the upgrade leg and the rollback leg.
        let first_traffic = plan
            .steps()
            .iter()
            .position(|s| matches!(s, RolloutStep::Traffic { .. }))
            .unwrap();
        let first_down = plan
            .steps()
            .iter()
            .position(|s| matches!(s, RolloutStep::Downgrade { .. }))
            .unwrap();
        assert!(first_traffic < first_down);
    }

    #[test]
    fn multi_hop_routes_through_a_catalog_middle_version() {
        let plan = compiled(Scenario::MultiHop, 1);
        assert_eq!(plan.path(), &[v("1.0.0"), v("2.0.0"), v("3.0.0")]);
        // Every node upgrades twice: once per hop.
        let ups = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, RolloutStep::Upgrade { .. }))
            .count();
        assert_eq!(ups, 6);
        // Without an intermediate release it degenerates to one rolling hop.
        let mut single = RolloutPlan::new();
        single.compile(Scenario::MultiHop, v("1.0.0"), v("2.0.0"), &catalog(), 3, 1);
        assert_eq!(single.path(), &[v("1.0.0"), v("2.0.0")]);
        assert!(single.validate(3).is_ok());
    }

    #[test]
    fn canary_gate_follows_the_seeded_canary_upgrade() {
        for seed in 0..6 {
            let plan = compiled(Scenario::CanaryThenFleet, seed);
            let gate = plan
                .steps()
                .iter()
                .position(|s| matches!(s, RolloutStep::CanaryGate { .. }))
                .expect("gate present");
            let RolloutStep::CanaryGate { node } = plan.steps()[gate] else {
                unreachable!()
            };
            let canary_up = plan
                .steps()
                .iter()
                .position(|s| matches!(s, RolloutStep::Upgrade { node: u, .. } if *u == node))
                .expect("canary upgraded");
            assert!(canary_up < gate, "gate must follow the canary upgrade");
            assert!(node < 3, "canary inside the cluster");
        }
    }

    #[test]
    fn churn_joins_old_version_early_and_leaves_late() {
        let plan = compiled(Scenario::RollingWithChurn, 1);
        assert!(matches!(
            plan.steps()[0],
            RolloutStep::Join {
                node: 3,
                version: 0
            }
        ));
        let leave = plan
            .steps()
            .iter()
            .position(|s| matches!(s, RolloutStep::Leave { node: 3 }))
            .expect("joiner leaves");
        let last_up = plan
            .steps()
            .iter()
            .rposition(|s| matches!(s, RolloutStep::Upgrade { .. }))
            .unwrap();
        assert!(leave > last_up, "leave lands after the rollout");
    }

    #[test]
    fn render_parse_round_trips_every_scenario() {
        for scenario in Scenario::extended() {
            for seed in [0, 3, 7] {
                let plan = compiled(scenario, seed);
                let rendered = plan.render();
                let parsed = RolloutPlan::parse(&rendered)
                    .unwrap_or_else(|e| panic!("{scenario}: {e} in {rendered}"));
                assert_eq!(parsed, plan, "{scenario} round trip");
            }
        }
        assert!(RolloutPlan::parse("no-bracket").is_err());
        assert!(RolloutPlan::parse("[1.0.0]x9").is_err());
        assert!(RolloutPlan::parse("[bogus]s0").is_err());
    }

    #[test]
    fn nudge_is_pure_bounded_and_validity_preserving() {
        for scenario in Scenario::extended() {
            for salt in [1u64, 0x9E37_79B9, u64::MAX] {
                for shift in [-5_000i64, -1, 1, 5_000] {
                    let nudge = PlanNudge {
                        settle_shift_ms: shift,
                        step_swap_salt: salt,
                        ..PlanNudge::default()
                    };
                    let mut a = compiled(scenario, 2);
                    a.nudge(&nudge);
                    let mut b = compiled(scenario, 2);
                    b.nudge(&nudge);
                    assert_eq!(a, b, "{scenario}: nudge must be pure");
                    assert!(
                        a.validate(3).is_ok(),
                        "{scenario}: nudged plan invalid: {:?}\n{a}",
                        a.validate(3)
                    );
                    let base = compiled(scenario, 2);
                    for (orig, moved) in base.steps().iter().zip(a.steps()) {
                        if let (
                            RolloutStep::Settle { millis: o },
                            RolloutStep::Settle { millis: m },
                        ) = (orig, moved)
                        {
                            let delta = (*m as i64) - (*o as i64);
                            assert!(
                                delta.unsigned_abs() <= MAX_SETTLE_SHIFT_MS,
                                "{scenario}: settle moved {delta} ms"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn noop_nudge_leaves_the_plan_untouched_and_salts_swap() {
        let mut plan = compiled(Scenario::Rolling, 1);
        let before = plan.clone();
        plan.nudge(&PlanNudge::default());
        assert_eq!(plan, before, "noop nudge must not move anything");

        let mut swapped = before.clone();
        swapped.nudge(&PlanNudge {
            step_swap_salt: 1,
            ..PlanNudge::default()
        });
        assert_ne!(swapped, before, "a salt must swap one adjacent pair");
        assert_eq!(swapped.steps().len(), before.steps().len());
        let moved: usize = before
            .steps()
            .iter()
            .zip(swapped.steps())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(moved, 2, "exactly one adjacent pair differs");
    }

    #[test]
    fn validate_rejects_malformed_plans() {
        let ok = compiled(Scenario::FullStop, 1);
        assert!(ok.validate(3).is_ok());

        // Upgrade of a running node.
        let mut bad = RolloutPlan::parse("[1.0.0>2.0.0]u0:1").unwrap();
        assert!(bad.validate(3).is_err());
        // Downgrade that does not lower the index.
        bad = RolloutPlan::parse("[1.0.0>2.0.0]s0,d0:1").unwrap();
        assert!(bad.validate(3).is_err());
        // Version index outside the path.
        bad = RolloutPlan::parse("[1.0.0>2.0.0]s0,u0:2").unwrap();
        assert!(bad.validate(3).is_err());
        // Join of an existing member.
        bad = RolloutPlan::parse("[1.0.0>2.0.0]j1:1").unwrap();
        assert!(bad.validate(3).is_err());
        // Canary gate before any upgrade.
        bad = RolloutPlan::parse("[1.0.0>2.0.0]g0").unwrap();
        assert!(bad.validate(3).is_err());
        // Mixed traffic moduli.
        bad = RolloutPlan::parse("[1.0.0>2.0.0]t0/2,t0/4").unwrap();
        assert!(bad.validate(3).is_err());
        // Decreasing path.
        bad = RolloutPlan::parse("[2.0.0>1.0.0]s0,u0:1").unwrap();
        assert!(bad.validate(3).is_err());
    }

    #[test]
    fn compile_reuses_buffers_in_place() {
        let mut plan = RolloutPlan::new();
        plan.compile(Scenario::MultiHop, v("1.0.0"), v("3.0.0"), &catalog(), 3, 1);
        let cap = (plan.steps.capacity(), plan.path.capacity());
        for seed in 0..16 {
            plan.compile(
                Scenario::RollbackAfterPartial,
                v("1.0.0"),
                v("3.0.0"),
                &catalog(),
                3,
                seed,
            );
            plan.compile(
                Scenario::MultiHop,
                v("1.0.0"),
                v("3.0.0"),
                &catalog(),
                3,
                seed,
            );
        }
        assert_eq!(
            (plan.steps.capacity(), plan.path.capacity()),
            cap,
            "recompiling equally-sized plans must not grow the buffers"
        );
    }
}
