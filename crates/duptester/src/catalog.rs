//! The ground-truth catalog of seeded upgrade bugs, used to measure
//! DUPTester's recall (the analog of the paper's §6.1.4 false-negative
//! experiment, where DUPTester reproduced 5 of 15 sampled study failures).

use crate::campaign::{CampaignReport, FailureReport};
use crate::Scenario;
use dup_core::VersionId;

/// One seeded bug: where it lives and how to recognize it in the evidence.
#[derive(Debug, Clone)]
pub struct SeededBug {
    /// The studied ticket this bug re-implements.
    pub ticket: &'static str,
    /// System name (matches `SystemUnderTest::name()`).
    pub system: &'static str,
    /// Version upgraded from.
    pub from: &'static str,
    /// Version upgraded to.
    pub to: &'static str,
    /// A substring that appears in the failure evidence when caught.
    pub marker: &'static str,
    /// Whether the trigger needs timing luck (Finding 11's ~11%).
    pub timing_dependent: bool,
    /// The extended rollout-plan scenario required to reach the bug, or
    /// `None` when the paper's three scenarios suffice. Recall suites use
    /// this to decide which scenario sweep each bug belongs to.
    pub scenario: Option<Scenario>,
}

impl SeededBug {
    /// Parsed `from` version.
    pub fn from_version(&self) -> VersionId {
        self.from.parse().expect("static version strings parse")
    }

    /// Parsed `to` version.
    pub fn to_version(&self) -> VersionId {
        self.to.parse().expect("static version strings parse")
    }
}

/// Every bug seeded in the four mini systems.
pub fn seeded_bugs() -> Vec<SeededBug> {
    vec![
        SeededBug {
            ticket: "CASSANDRA-4195",
            system: "cassandra-mini",
            from: "1.1.0",
            to: "1.2.0",
            marker: "cannot deserialize gossip ApplicationState",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "CASSANDRA-6678",
            system: "cassandra-mini",
            from: "1.2.0",
            to: "2.0.0",
            marker: "cannot apply schema migrated from",
            timing_dependent: true,
            scenario: None,
        },
        SeededBug {
            ticket: "CASSANDRA-16257 (shape)",
            system: "cassandra-mini",
            from: "2.0.0",
            to: "2.1.0",
            marker: "corrupt sstable row",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "CASSANDRA-13441",
            system: "cassandra-mini",
            from: "3.0.0",
            to: "3.11.0",
            marker: "message storm",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "CASSANDRA-16292 (shape)",
            system: "cassandra-mini",
            from: "3.0.0",
            to: "3.11.0",
            marker: "tombstone for dropped keyspace",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "CASSANDRA-15794",
            system: "cassandra-mini",
            from: "3.11.0",
            to: "4.0.0",
            marker: "Compact Tables are not allowed",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "CASSANDRA-16301",
            system: "cassandra-mini",
            from: "3.11.0",
            to: "4.0.0",
            marker: "unable to find replication strategy class",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "HDFS-1936",
            system: "hdfs-mini",
            from: "0.20.0",
            to: "1.0.0",
            marker: "must be compressed",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "HDFS-5988",
            system: "hdfs-mini",
            from: "1.0.0",
            to: "2.0.0",
            marker: "no inode found",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "HDFS-8676",
            system: "hdfs-mini",
            from: "2.6.0",
            to: "2.7.0",
            marker: "marked dead",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "HDFS-11856",
            system: "hdfs-mini",
            from: "2.7.0",
            to: "2.8.0",
            marker: "bad permanently",
            timing_dependent: true,
            scenario: None,
        },
        SeededBug {
            ticket: "HDFS-14726",
            system: "hdfs-mini",
            from: "3.1.0",
            to: "3.2.0",
            marker: "InvalidProtocolBufferException",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "HDFS-15624",
            system: "hdfs-mini",
            from: "3.2.0",
            to: "3.3.0",
            marker: "NVDIMM",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "KAFKA-6238",
            system: "kafka-mini",
            from: "0.11.0",
            to: "1.0.0",
            marker: "message.version",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "KAFKA-7403",
            system: "kafka-mini",
            from: "1.0.0",
            to: "2.1.0",
            marker: "offset commit",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "KAFKA-10173",
            system: "kafka-mini",
            from: "2.3.0",
            to: "2.4.0",
            marker: "corrupt replica batch",
            timing_dependent: false,
            scenario: None,
        },
        SeededBug {
            ticket: "ZOOKEEPER-1805",
            system: "zookeeper-mini",
            from: "3.4.0",
            to: "3.5.0",
            marker: "inconsistent peerEpoch",
            timing_dependent: true,
            scenario: None,
        },
        SeededBug {
            ticket: "MESOS-3834 (shape)",
            system: "zookeeper-mini",
            from: "3.5.0",
            to: "3.6.0",
            marker: "checkpoint",
            timing_dependent: false,
            scenario: None,
        },
        // Rollout-plan-exclusive bugs: unreachable under the paper's three
        // scenarios, which never downgrade and never take multi-hop paths.
        SeededBug {
            // CASSANDRA-13441's rollback face: 4.0 writes a format-40
            // commit-log header before validation, so a 3.11 node
            // downgraded over that durable state fatals replaying a
            // segment format newer than its own.
            ticket: "CASSANDRA-15794 (rollback)",
            system: "cassandra-mini",
            from: "3.11.0",
            to: "4.0.0",
            marker: "unknown format 40",
            timing_dependent: false,
            scenario: Some(Scenario::RollbackAfterPartial),
        },
        SeededBug {
            // The multi-hop face of CASSANDRA-13441: a direct 3.0 → 4.0
            // rolling upgrade is storm-free (4.0 checks proto versions
            // before pulling), but the 3.0 → 3.11 → 4.0 path storms in its
            // first hop because 3.0 and 3.11 share a protocol version.
            ticket: "CASSANDRA-13441 (multi-hop)",
            system: "cassandra-mini",
            from: "3.0.0",
            to: "4.0.0",
            marker: "message storm",
            timing_dependent: false,
            scenario: Some(Scenario::MultiHop),
        },
    ]
}

/// A version pair that carries no seeded bug: every failure a campaign
/// reports on it is a false positive.
#[derive(Debug, Clone)]
pub struct ControlPair {
    /// System name (matches `SystemUnderTest::name()`).
    pub system: &'static str,
    /// Version upgraded from.
    pub from: &'static str,
    /// Version upgraded to.
    pub to: &'static str,
    /// The one scenario the pair is clean in, or `None` when it is clean in
    /// all of them.
    pub scenario: Option<Scenario>,
}

impl ControlPair {
    /// The failures `report` holds on this pair (in its scenario, if it has
    /// one): none, unless the tester reports a false positive.
    pub fn failures_in<'r>(&self, report: &'r CampaignReport) -> Vec<&'r FailureReport> {
        if report.system != self.system {
            return Vec::new();
        }
        let version = |v: &str| v.parse().expect("static version strings parse");
        let mut failures = report.failures_on(version(self.from), version(self.to));
        failures.retain(|f| self.scenario.is_none_or(|s| f.spec.case.scenario == s));
        failures
    }
}

/// Every control pair of the four mini systems. zookeeper-mini 3.4 → 3.5
/// is clean only in full-stop, because ZOOKEEPER-1805 is a rolling bug.
pub fn control_pairs() -> Vec<ControlPair> {
    let pair = |system, from, to, scenario| ControlPair {
        system,
        from,
        to,
        scenario,
    };
    vec![
        pair("cassandra-mini", "2.1.0", "3.0.0", None),
        pair("hdfs-mini", "2.0.0", "2.6.0", None),
        pair("hdfs-mini", "2.8.0", "3.1.0", None),
        pair("kafka-mini", "2.1.0", "2.3.0", None),
        pair("zookeeper-mini", "3.4.0", "3.5.0", Some(Scenario::FullStop)),
    ]
}

/// Computes which seeded bugs a campaign caught: the bug's marker must
/// appear in some failure's evidence on the right version pair.
pub fn recall(report: &CampaignReport) -> (Vec<&'static str>, Vec<&'static str>) {
    let mut caught = Vec::new();
    let mut missed = Vec::new();
    for bug in seeded_bugs() {
        if bug.system != report.system {
            continue;
        }
        // A scenario-gated bug only counts against campaigns that actually
        // ran its gating scenario; the paper sweep structurally cannot
        // reach the rollout-exclusive bugs.
        if let Some(scenario) = bug.scenario {
            if !report.metrics.per_scenario.contains_key(&scenario) {
                continue;
            }
        }
        let hit = report
            .failures_on(bug.from_version(), bug.to_version())
            .iter()
            .any(|f| {
                f.observations
                    .iter()
                    .any(|o| o.to_string().contains(bug.marker))
            });
        if hit {
            caught.push(bug.ticket);
        } else {
            missed.push(bug.ticket);
        }
    }
    (caught, missed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_four_systems() {
        let bugs = seeded_bugs();
        assert_eq!(bugs.len(), 20);
        for system in [
            "cassandra-mini",
            "hdfs-mini",
            "kafka-mini",
            "zookeeper-mini",
        ] {
            assert!(bugs.iter().any(|b| b.system == system), "{system} missing");
        }
        // Every from/to parses and is ordered.
        for b in &bugs {
            assert!(b.from_version() < b.to_version(), "{}", b.ticket);
        }
    }

    #[test]
    fn scenario_gated_bugs_require_extended_scenarios() {
        let bugs = seeded_bugs();
        let gated: Vec<_> = bugs.iter().filter(|b| b.scenario.is_some()).collect();
        assert_eq!(gated.len(), 2);
        for b in gated {
            let s = b.scenario.expect("filtered on is_some");
            assert!(s.is_extended(), "{} gates on a paper scenario", b.ticket);
        }
    }

    #[test]
    fn timing_dependent_fraction_is_small() {
        let bugs = seeded_bugs();
        let nondet = bugs.iter().filter(|b| b.timing_dependent).count();
        // Finding 11: ~11% of the studied bugs are timing-dependent; our
        // catalog keeps the deterministic majority.
        assert!(
            nondet * 4 <= bugs.len(),
            "{nondet} of {} timing-dependent",
            bugs.len()
        );
    }
}
