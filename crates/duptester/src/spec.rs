//! The case value and its text form: a [`TestCase`], the [`CaseSpec`] that
//! pairs it with a search mutant's [`PlanNudge`], and the `repro:` grammar a
//! failure report prints and replays from.

use crate::faults::{FaultIntensity, PlanNudge};
use crate::scenario::Scenario;
use crate::workload::WorkloadSpec;
use dup_core::VersionId;
use dup_simnet::Durability;
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
    /// [`fault_plan_for`](crate::fault_plan_for).
    pub faults: FaultIntensity,
    /// Storage durability mode the case's hosts run under. Non-strict modes
    /// buffer writes until an explicit flush and let the crash materializer
    /// drop or tear the unflushed tail on every crash.
    pub durability: Durability,
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
