//! Record types for the upgrade-failure study (paper §2–§5).

use dup_core::{IncompatCategory, RootCause, Symptom, UpgradeKind};
use std::fmt;

/// The eight studied systems (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StudySystem {
    /// Apache Cassandra.
    Cassandra,
    /// Apache HBase.
    HBase,
    /// HDFS.
    Hdfs,
    /// Apache Kafka.
    Kafka,
    /// Hadoop MapReduce.
    MapReduce,
    /// Apache Mesos.
    Mesos,
    /// Hadoop YARN.
    Yarn,
    /// Apache ZooKeeper.
    ZooKeeper,
}

impl StudySystem {
    /// All systems in Table 1 order.
    pub const ALL: [StudySystem; 8] = [
        StudySystem::Cassandra,
        StudySystem::HBase,
        StudySystem::Hdfs,
        StudySystem::Kafka,
        StudySystem::MapReduce,
        StudySystem::Mesos,
        StudySystem::Yarn,
        StudySystem::ZooKeeper,
    ];

    /// Ticket prefix used in issue ids.
    pub fn prefix(self) -> &'static str {
        match self {
            StudySystem::Cassandra => "CASSANDRA",
            StudySystem::HBase => "HBASE",
            StudySystem::Hdfs => "HDFS",
            StudySystem::Kafka => "KAFKA",
            StudySystem::MapReduce => "MAPREDUCE",
            StudySystem::Mesos => "MESOS",
            StudySystem::Yarn => "YARN",
            StudySystem::ZooKeeper => "ZOOKEEPER",
        }
    }
}

impl fmt::Display for StudySystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StudySystem::Cassandra => "Cassandra",
            StudySystem::HBase => "HBase",
            StudySystem::Hdfs => "HDFS",
            StudySystem::Kafka => "Kafka",
            StudySystem::MapReduce => "MapReduce",
            StudySystem::Mesos => "Mesos",
            StudySystem::Yarn => "Yarn",
            StudySystem::ZooKeeper => "ZooKeeper",
        };
        f.write_str(s)
    }
}

/// Priority of a report, covering both tracker schemes (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudyPriority {
    /// Five-level scheme (all systems except Cassandra).
    Jira(dup_core::Priority),
    /// Cassandra's three-level scheme.
    Cassandra(dup_core::CassandraPriority),
}

/// When the bug was caught relative to the affected release (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaughtWhen {
    /// Report filed before the new version's release date.
    BeforeRelease,
    /// Report filed after (escaped into production code).
    AfterRelease,
    /// The report lacks version information (11 cases).
    Unknown,
}

/// Version gap needed to trigger, in Table 4's buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GapClass {
    /// Major gap of 2.
    Major2,
    /// Major gap of 1 (consecutive majors).
    Major1,
    /// Minor gap greater than 2.
    MinorGt2,
    /// Minor gap of exactly 2.
    Minor2,
    /// Minor gap of 1 (consecutive minors).
    Minor1,
    /// Bug-fix versions within the same minor ("<1").
    BugFixOnly,
    /// Any old version to one particular new version.
    AnyToParticular,
    /// Not reported.
    Unknown,
}

impl GapClass {
    /// `true` if consecutive major/minor testing (Finding 9) exposes it.
    pub fn consecutive_exposes(self) -> bool {
        matches!(
            self,
            GapClass::Major1 | GapClass::Minor1 | GapClass::BugFixOnly | GapClass::AnyToParticular
        )
    }
}

/// How the failure-triggering workload relates to existing assets (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// Stress-testing operations with default configuration (Finding 12).
    StressDefault,
    /// Needs a non-default configuration.
    Config {
        /// Whether an existing unit test covers that configuration.
        covered_by_unit_test: bool,
    },
    /// Needs special operations.
    SpecialOps {
        /// Whether existing unit tests cover those operations.
        covered_by_unit_test: bool,
    },
    /// Needs both a non-default configuration and special operations.
    Both {
        /// Whether existing unit tests cover the combination.
        covered_by_unit_test: bool,
    },
}

/// One studied upgrade failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyFailure {
    /// Ticket id. Real ids where the paper names them; reconstructed
    /// (`<SYS>-R<n>`) otherwise.
    pub id: String,
    /// `true` unless the paper names this ticket explicitly.
    pub reconstructed: bool,
    /// Which system.
    pub system: StudySystem,
    /// Tracker priority.
    pub priority: StudyPriority,
    /// End-user symptom (Table 2 row).
    pub symptom: Symptom,
    /// Affects all or a majority of users (the \[80\] definition).
    pub catastrophic: bool,
    /// Catastrophic *and* caught after release (Table 2, last column).
    pub catastrophic_in_production: bool,
    /// Crashes / fatal exceptions rather than subtle symptoms (Finding 3).
    pub easy_to_observe: bool,
    /// When it was caught (§3.3).
    pub caught: CaughtWhen,
    /// Root cause (§4).
    pub root_cause: RootCause,
    /// Version gap needed (Table 4).
    pub gap: GapClass,
    /// Nodes needed to trigger (Finding 10: always ≤ 3).
    pub nodes_required: u8,
    /// Whether the trigger is timing-independent (Finding 11).
    pub deterministic: bool,
    /// Workload relation to existing test assets (Findings 12–13).
    pub trigger: Trigger,
    /// Full-stop or rolling (§1: 57% / 43%).
    pub upgrade_kind: UpgradeKind,
}

impl StudyFailure {
    /// `true` if the root cause is an incompatible cross-version interaction.
    pub fn is_incompatibility(&self) -> bool {
        matches!(self.root_cause, RootCause::IncompatibleInteraction { .. })
    }

    /// The incompatibility category, if applicable.
    pub fn incompat_category(&self) -> Option<IncompatCategory> {
        match self.root_cause {
            RootCause::IncompatibleInteraction { category, .. } => Some(category),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_prefixes() {
        assert_eq!(StudySystem::Cassandra.prefix(), "CASSANDRA");
        assert_eq!(StudySystem::ALL.len(), 8);
        assert_eq!(StudySystem::Hdfs.to_string(), "HDFS");
    }

    #[test]
    fn gap_consecutive_exposure_matches_finding_9() {
        assert!(GapClass::Major1.consecutive_exposes());
        assert!(GapClass::Minor1.consecutive_exposes());
        assert!(GapClass::BugFixOnly.consecutive_exposes());
        assert!(GapClass::AnyToParticular.consecutive_exposes());
        assert!(!GapClass::Major2.consecutive_exposes());
        assert!(!GapClass::Minor2.consecutive_exposes());
        assert!(!GapClass::MinorGt2.consecutive_exposes());
    }
}
