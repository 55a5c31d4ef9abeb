//! Upgrade scenarios (paper §6.1.1). Workload sources live in
//! [`workload`](crate::workload) as [`WorkloadSpec`](crate::WorkloadSpec).

use std::fmt;
use std::str::FromStr;

/// The upgrade scenarios DUPTester tests systematically: the paper's three
/// ([`Scenario::paper`]) plus four rollout-plan scenarios
/// ([`Scenario::extended`]) covering the failure classes the paper's
/// taxonomy names but its driver cannot reach — rollback over new-format
/// durable state, multi-hop version jumps, canary gating, and membership
/// churn mid-rollout.
///
/// Every scenario — old and new — compiles to an explicit
/// [`RolloutPlan`](crate::RolloutPlan) before it runs; the variants differ
/// only in the plan they compile to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scenario {
    /// Old cluster runs the workload, shuts down gracefully, restarts with
    /// every node on the new version.
    FullStop,
    /// Nodes take turns going down and coming back on the new version while
    /// the workload keeps running.
    Rolling,
    /// Nodes running the new version join a cluster of old-version nodes
    /// while the workload runs.
    NewNodeJoin,
    /// Upgrade `k` of `n` nodes (seed-chosen `k`), run traffic so
    /// new-version state lands on disk, then downgrade them — the
    /// CASSANDRA-13441-shaped rollback family where old code must read
    /// durable state a newer version wrote.
    RollbackAfterPartial,
    /// A → B → C across three catalog versions, rolling at each hop with
    /// traffic between hops. Requires a catalog release strictly between
    /// the pair's versions; without one it degenerates to a single hop.
    MultiHop,
    /// One seed-chosen canary node upgrades first; a health-probe gate
    /// decides whether the rest of the fleet follows or the rollout stops.
    CanaryThenFleet,
    /// A rolling upgrade interleaved with membership churn: an old-version
    /// node joins early in the rollout and leaves near its end.
    RollingWithChurn,
}

impl Scenario {
    /// The paper's three scenarios, in the order the paper lists them.
    /// Campaigns default to these; [`Scenario::extended`] is opt-in via the
    /// builder.
    pub const fn paper() -> [Scenario; 3] {
        [Scenario::FullStop, Scenario::Rolling, Scenario::NewNodeJoin]
    }

    /// All seven scenarios, paper-first.
    pub const fn extended() -> [Scenario; 7] {
        [
            Scenario::FullStop,
            Scenario::Rolling,
            Scenario::NewNodeJoin,
            Scenario::RollbackAfterPartial,
            Scenario::MultiHop,
            Scenario::CanaryThenFleet,
            Scenario::RollingWithChurn,
        ]
    }

    /// `true` for the rollout-plan scenarios beyond the paper's three.
    /// Extended scenarios carry a mutable schedule even with faults off, so
    /// the coverage-guided search runs its mutation rounds for them.
    pub const fn is_extended(&self) -> bool {
        !matches!(
            self,
            Scenario::FullStop | Scenario::Rolling | Scenario::NewNodeJoin
        )
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scenario::FullStop => "full-stop",
            Scenario::Rolling => "rolling",
            Scenario::NewNodeJoin => "new-node-join",
            Scenario::RollbackAfterPartial => "rollback-after-partial",
            Scenario::MultiHop => "multi-hop",
            Scenario::CanaryThenFleet => "canary-then-fleet",
            Scenario::RollingWithChurn => "rolling-with-churn",
        };
        f.write_str(s)
    }
}

impl FromStr for Scenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Scenario, String> {
        let found = Scenario::extended()
            .into_iter()
            .find(|x| x.to_string() == s);
        found.ok_or_else(|| format!("unknown scenario {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_labels() {
        assert_eq!(Scenario::FullStop.to_string(), "full-stop");
        assert_eq!(Scenario::Rolling.to_string(), "rolling");
        assert_eq!(Scenario::NewNodeJoin.to_string(), "new-node-join");
        assert_eq!(
            Scenario::RollbackAfterPartial.to_string(),
            "rollback-after-partial"
        );
        assert_eq!(Scenario::MultiHop.to_string(), "multi-hop");
        assert_eq!(Scenario::CanaryThenFleet.to_string(), "canary-then-fleet");
        assert_eq!(Scenario::RollingWithChurn.to_string(), "rolling-with-churn");
        assert_eq!(Scenario::paper().len(), 3);
        assert_eq!(Scenario::extended().len(), 7);
        for s in Scenario::extended() {
            assert_eq!(s.to_string().parse(), Ok(s));
        }
        assert!("Rolling".parse::<Scenario>().is_err());
    }

    #[test]
    fn paper_prefixes_extended_and_extends_the_split() {
        assert_eq!(Scenario::extended()[..3], Scenario::paper());
        for s in Scenario::paper() {
            assert!(!s.is_extended(), "{s} is a paper scenario");
        }
        for s in &Scenario::extended()[3..] {
            assert!(s.is_extended(), "{s} is an extended scenario");
        }
    }
}
