//! Published baseline statistics for *non-upgrade* failures, used in the
//! paper's comparisons (Finding 1 and Finding 2).

/// Aggregate statistics about non-upgrade failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineStats {
    /// % Blocker among non-upgrade bugs (JIRA-scheme systems).
    pub blocker_pct: f64,
    /// % Blocker+Critical among non-upgrade bugs.
    pub high_priority_pct: f64,
    /// % Urgent among Cassandra non-upgrade bugs.
    pub cassandra_urgent_pct: f64,
    /// % Low among Cassandra non-upgrade bugs.
    pub cassandra_low_pct: f64,
    /// % catastrophic among all failures, from Yuan et al. (OSDI '14) \[80\].
    pub catastrophic_pct: f64,
}

/// The paper's published baseline (§3.1, §3.2).
pub const NON_UPGRADE: BaselineStats = BaselineStats {
    blocker_pct: 10.0,
    high_priority_pct: 20.0,
    cassandra_urgent_pct: 6.0,
    cassandra_low_pct: 41.0,
    catastrophic_pct: 24.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_the_papers_comparisons() {
        // "The percentage of Blocker bugs ... is 3.8X in upgrade failures."
        assert!((38.0 / NON_UPGRADE.blocker_pct - 3.8).abs() < 0.01);
        // "67% ... much higher than that (24%) among all bugs."
        let catastrophic_pct = NON_UPGRADE.catastrophic_pct;
        assert!(catastrophic_pct < 67.0);
    }
}
