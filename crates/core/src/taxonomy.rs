//! The failure taxonomy of the study (paper §3–§5).
//!
//! These types are shared by the study dataset (`dup-study`), the tester's
//! triage report (`dup-tester`), and the checker's findings (`dup-checker`),
//! so that a failure DUPTester exposes is classified in exactly the terms of
//! Tables 2–4.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Issue-tracker priority (all studied systems except Cassandra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Most severe and urgent.
    Blocker,
    /// Severe.
    Critical,
    /// Default severity.
    Major,
    /// Low severity.
    Minor,
    /// Cosmetic.
    Trivial,
}

impl Priority {
    /// "High priority" as the paper uses it: Blocker or Critical.
    pub fn is_high(self) -> bool {
        matches!(self, Priority::Blocker | Priority::Critical)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Priority::Blocker => "Blocker",
            Priority::Critical => "Critical",
            Priority::Major => "Major",
            Priority::Minor => "Minor",
            Priority::Trivial => "Trivial",
        };
        f.write_str(s)
    }
}

/// Cassandra's three-level priority scheme (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CassandraPriority {
    /// Highest.
    Urgent,
    /// Default.
    Normal,
    /// Lowest.
    Low,
}

impl fmt::Display for CassandraPriority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CassandraPriority::Urgent => "Urgent",
            CassandraPriority::Normal => "Normal",
            CassandraPriority::Low => "Low",
        };
        f.write_str(s)
    }
}

/// End-user-visible symptom categories of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Symptom {
    /// All nodes crash, or the (HA-failover-defeating) master crash.
    WholeClusterDown,
    /// Severe service-quality degradation limited to the rolling-upgrade window.
    RollingUpgradeDegradation,
    /// Data loss or corruption.
    DataLossOrCorruption,
    /// Increased latency, wasted computation, etc.
    PerformanceDegradation,
    /// Part of the worker nodes down, or the secondary master down.
    PartOfClusterDown,
    /// Failed read/write requests, UI errors, etc.
    IncorrectResult,
    /// The report does not explain the symptom.
    Unknown,
}

impl Symptom {
    /// Table 2's row label.
    pub fn label(self) -> &'static str {
        match self {
            Symptom::WholeClusterDown => "Whole cluster down",
            Symptom::RollingUpgradeDegradation => {
                "Severe service quality degradation during rolling upgrade"
            }
            Symptom::DataLossOrCorruption => "Data loss and data corruption",
            Symptom::PerformanceDegradation => "Performance degradation",
            Symptom::PartOfClusterDown => "Part of cluster down",
            Symptom::IncorrectResult => "Incorrect service result",
            Symptom::Unknown => "Unknown",
        }
    }

    /// Whether the symptom is "easy to observe" in Finding 3's sense
    /// (node crashes and fatal exceptions, as opposed to subtle symptoms).
    pub fn easy_to_observe(self) -> bool {
        matches!(
            self,
            Symptom::WholeClusterDown
                | Symptom::PartOfClusterDown
                | Symptom::RollingUpgradeDegradation
                | Symptom::DataLossOrCorruption
        )
    }
}

/// The medium through which two versions interacted incompatibly (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataMedium {
    /// Files handed over through persistent storage (60% of incompatibilities).
    PersistentStorage,
    /// Transient network messages (40%); only manifests in rolling upgrades.
    NetworkMessage,
}

/// Fine-grained incompatibility category, the rows of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IncompatCategory {
    /// Syntax: data defined using a serialization library.
    SyntaxSerializationLib,
    /// Syntax: enum-typed data serialized by index.
    SyntaxEnum,
    /// Syntax: system-specific data with missing/incomplete deserializers.
    SyntaxSystemSpecific,
    /// Semantics: serialization-library data handled under wrong assumptions.
    SemanticsSerializationLibMishandling,
    /// Semantics: incomplete version checking and handling.
    SemanticsIncompleteVersionHandling,
    /// Semantics: other.
    SemanticsOther,
}

impl IncompatCategory {
    /// Returns `true` for the three syntax rows of Table 3.
    pub fn is_syntax(self) -> bool {
        matches!(
            self,
            IncompatCategory::SyntaxSerializationLib
                | IncompatCategory::SyntaxEnum
                | IncompatCategory::SyntaxSystemSpecific
        )
    }

    /// Table 3's row label.
    pub fn label(self) -> &'static str {
        match self {
            IncompatCategory::SyntaxSerializationLib => "data defined using serialization lib.",
            IncompatCategory::SyntaxEnum => "enum",
            IncompatCategory::SyntaxSystemSpecific => "system-specific data",
            IncompatCategory::SemanticsSerializationLibMishandling => {
                "mishandling of serialization lib."
            }
            IncompatCategory::SemanticsIncompleteVersionHandling => "incomplete version handling",
            IncompatCategory::SemanticsOther => "other semantics issue",
        }
    }
}

/// Top-level root-cause categories (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RootCause {
    /// Incompatible cross-version interaction (63%).
    IncompatibleInteraction {
        /// What data carried the incompatibility.
        medium: DataMedium,
        /// Which Table 3 row it falls in.
        category: IncompatCategory,
    },
    /// Unexpected interaction between the upgrade operation and a regular
    /// operation (33%).
    BrokenUpgradeOperation,
    /// A configuration that worked in the old version no longer works (3%).
    Misconfiguration,
    /// The system stops working with a library after an upgrade (2%).
    BrokenDependency,
}

/// Which upgrade scenario exposes a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpgradeKind {
    /// Whole service stops, restarts on the new version.
    FullStop,
    /// Nodes take turns restarting on the new version.
    Rolling,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_high_predicate() {
        assert!(Priority::Blocker.is_high());
        assert!(Priority::Critical.is_high());
        assert!(!Priority::Major.is_high());
        assert!(!Priority::Trivial.is_high());
    }

    #[test]
    fn symptom_labels_match_table_2() {
        assert_eq!(Symptom::WholeClusterDown.label(), "Whole cluster down");
        assert!(Symptom::RollingUpgradeDegradation
            .label()
            .contains("rolling upgrade"));
    }

    #[test]
    fn syntax_vs_semantics_split() {
        assert!(IncompatCategory::SyntaxEnum.is_syntax());
        assert!(IncompatCategory::SyntaxSerializationLib.is_syntax());
        assert!(IncompatCategory::SyntaxSystemSpecific.is_syntax());
        assert!(!IncompatCategory::SemanticsOther.is_syntax());
        assert!(!IncompatCategory::SemanticsIncompleteVersionHandling.is_syntax());
    }

    #[test]
    fn priorities_order_by_urgency() {
        assert!(Priority::Blocker < Priority::Critical);
        assert!(CassandraPriority::Urgent < CassandraPriority::Low);
    }
}
