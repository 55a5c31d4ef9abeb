//! Release version identifiers and version gaps.
//!
//! All eight studied systems use a `<major>.<minor>.<bug-fix>` numbering
//! scheme (paper §5.1). [`VersionGap`] classifies the distance between two
//! releases exactly the way Table 4 does, which is what lets DUPTester
//! restrict itself to the O(N) consecutive pairs that expose >80% of the
//! studied failures (Finding 9).

use std::fmt;
use std::str::FromStr;

/// A three-component release version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId {
    /// Major component.
    pub major: u32,
    /// Minor component.
    pub minor: u32,
    /// Bug-fix component.
    pub patch: u32,
}

impl VersionId {
    /// Creates a version.
    pub const fn new(major: u32, minor: u32, patch: u32) -> Self {
        VersionId {
            major,
            minor,
            patch,
        }
    }

    /// Classifies the gap from `self` (the older release) to `newer`.
    pub fn gap_to(&self, newer: &VersionId) -> VersionGap {
        if newer.major != self.major {
            VersionGap::Major(newer.major.abs_diff(self.major))
        } else if newer.minor != self.minor {
            VersionGap::Minor(newer.minor.abs_diff(self.minor))
        } else if newer.patch != self.patch {
            VersionGap::BugFixOnly
        } else {
            VersionGap::Same
        }
    }

    /// Returns `true` if upgrading `self → newer` crosses consecutive
    /// major or minor versions (gap of exactly one step).
    pub fn is_consecutive_upgrade(&self, newer: &VersionId) -> bool {
        matches!(
            self.gap_to(newer),
            VersionGap::Major(1) | VersionGap::Minor(1)
        )
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

/// Error returned when a version string does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionParseError(pub String);

impl fmt::Display for VersionParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid version string '{}'", self.0)
    }
}

impl std::error::Error for VersionParseError {}

impl FromStr for VersionId {
    type Err = VersionParseError;

    /// Parses `"3.11.4"`, `"3.11"` (patch 0), or `"4"` (minor and patch 0).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let bad = || VersionParseError(s.to_string());
        let major = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let minor = match parts.next() {
            Some(p) => p.parse().map_err(|_| bad())?,
            None => 0,
        };
        let patch = match parts.next() {
            Some(p) => p.parse().map_err(|_| bad())?,
            None => 0,
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        Ok(VersionId::new(major, minor, patch))
    }
}

/// The distance between two releases, in Table 4's terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VersionGap {
    /// Different major versions, by this many steps.
    Major(u32),
    /// Same major, different minor, by this many steps.
    Minor(u32),
    /// Same major and minor, different bug-fix version ("<1" in Table 4).
    BugFixOnly,
    /// Identical versions.
    Same,
}

impl fmt::Display for VersionGap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionGap::Major(n) => write!(f, "major gap {n}"),
            VersionGap::Minor(n) => write!(f, "minor gap {n}"),
            VersionGap::BugFixOnly => write!(f, "bug-fix gap"),
            VersionGap::Same => write!(f, "same version"),
        }
    }
}

/// Enumerates the upgrade pairs DUPTester tests for a release history:
/// consecutive pairs (gap 1) and, when `include_gap_two` is set, pairs at
/// distance 2 — together covering ~90% of the studied failures (Finding 9).
pub fn upgrade_pairs(versions: &[VersionId], include_gap_two: bool) -> Vec<(VersionId, VersionId)> {
    let mut sorted = versions.to_vec();
    sorted.sort();
    sorted.dedup();
    let mut pairs = Vec::new();
    for w in sorted.windows(2) {
        pairs.push((w[0], w[1]));
    }
    if include_gap_two {
        for w in sorted.windows(3) {
            pairs.push((w[0], w[2]));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let v: VersionId = "3.11.4".parse().unwrap();
        assert_eq!(v, VersionId::new(3, 11, 4));
        assert_eq!(v.to_string(), "3.11.4");
        assert_eq!("2.1".parse::<VersionId>().unwrap(), VersionId::new(2, 1, 0));
        assert_eq!("4".parse::<VersionId>().unwrap(), VersionId::new(4, 0, 0));
        assert!("x.y".parse::<VersionId>().is_err());
        assert!("1.2.3.4".parse::<VersionId>().is_err());
        assert!("".parse::<VersionId>().is_err());
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut vs = vec![
            VersionId::new(2, 0, 0),
            VersionId::new(1, 2, 9),
            VersionId::new(1, 10, 0),
            VersionId::new(1, 2, 10),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                VersionId::new(1, 2, 9),
                VersionId::new(1, 2, 10),
                VersionId::new(1, 10, 0),
                VersionId::new(2, 0, 0),
            ]
        );
    }

    #[test]
    fn gap_classification_matches_table_4() {
        let v = |s: &str| s.parse::<VersionId>().unwrap();
        assert_eq!(v("0.22.0").gap_to(&v("0.24.0")), VersionGap::Minor(2));
        assert_eq!(v("1.2.0").gap_to(&v("2.0.0")), VersionGap::Major(1));
        assert_eq!(v("2.0.0").gap_to(&v("4.0.0")), VersionGap::Major(2));
        assert_eq!(v("3.11.4").gap_to(&v("3.11.9")), VersionGap::BugFixOnly);
        assert_eq!(v("3.11.4").gap_to(&v("3.11.4")), VersionGap::Same);
        assert_eq!(v("2.2.0").gap_to(&v("2.3.3")), VersionGap::Minor(1));
    }

    #[test]
    fn consecutive_upgrade_predicate() {
        let v = |s: &str| s.parse::<VersionId>().unwrap();
        assert!(v("1.1.0").is_consecutive_upgrade(&v("1.2.0")));
        assert!(v("1.2.0").is_consecutive_upgrade(&v("2.0.0")));
        assert!(!v("1.1.0").is_consecutive_upgrade(&v("1.3.0")));
        assert!(!v("1.1.0").is_consecutive_upgrade(&v("1.1.5")));
    }

    #[test]
    fn upgrade_pairs_consecutive_and_gap_two() {
        let vs: Vec<VersionId> = ["1.1.0", "1.2.0", "2.0.0", "2.1.0"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let pairs = upgrade_pairs(&vs, false);
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], (vs[0], vs[1]));
        let with_two = upgrade_pairs(&vs, true);
        assert_eq!(with_two.len(), 5);
        assert!(with_two.contains(&(vs[0], vs[2])));
        assert!(with_two.contains(&(vs[1], vs[3])));
    }

    #[test]
    fn upgrade_pairs_dedups_input() {
        let vs: Vec<VersionId> = ["1.0.0", "1.0.0", "1.1.0"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(upgrade_pairs(&vs, false).len(), 1);
    }
}
