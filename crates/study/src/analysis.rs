//! Analysis reproducing Tables 1–4 and Findings 1–13 from the dataset.

use crate::baseline;
use crate::types::{CaughtWhen, GapClass, StudyFailure, StudyPriority, StudySystem, Trigger};
use dup_core::{CassandraPriority, DataMedium, IncompatCategory, Priority, RootCause, Symptom};
use std::fmt::Write as _;

/// The paper's Table 1, in [`StudySystem::ALL`] order.
const PAPER_TABLE1: [usize; 8] = [44, 13, 38, 7, 1, 8, 8, 4];

/// The paper's Table 2 rows (all, catastrophic, catastrophic in production),
/// in [`table2`] order. The paper prints the Unknown row's zeros as "–".
const PAPER_TABLE2: [(usize, usize, usize); 7] = [
    (34, 34, 18),
    (16, 16, 10),
    (20, 15, 12),
    (10, 4, 4),
    (12, 7, 3),
    (24, 6, 4),
    (7, 0, 0),
];

/// The paper's Table 3, in [`table3`] order.
const PAPER_TABLE3: [usize; 6] = [7, 2, 41, 6, 16, 5];

/// The paper's Table 4, in [`table4`] order. It has no row for the records
/// without version information.
const PAPER_TABLE4: [usize; 7] = [3, 37, 3, 8, 31, 6, 32];

/// Table 1: failures per system.
pub fn table1(ds: &[StudyFailure]) -> Vec<(StudySystem, usize)> {
    StudySystem::ALL
        .iter()
        .map(|&s| (s, ds.iter().filter(|r| r.system == s).count()))
        .collect()
}

/// Renders Table 1 as a markdown table, the paper's counts beside the
/// measured ones.
pub fn render_table1(ds: &[StudyFailure]) -> String {
    let mut out = String::from("| System | Paper | Measured |\n|---|---|---|\n");
    for ((system, count), paper) in table1(ds).iter().zip(PAPER_TABLE1) {
        let _ = writeln!(out, "| {system} | {paper} | {count} |");
    }
    out
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymptomRow {
    /// The symptom.
    pub symptom: Symptom,
    /// All failures with it.
    pub all: usize,
    /// Catastrophic ones.
    pub catastrophic: usize,
    /// Catastrophic ones caught after release.
    pub catastrophic_in_production: usize,
}

/// Table 2: symptoms × severity tiers.
pub fn table2(ds: &[StudyFailure]) -> Vec<SymptomRow> {
    [
        Symptom::WholeClusterDown,
        Symptom::RollingUpgradeDegradation,
        Symptom::DataLossOrCorruption,
        Symptom::PerformanceDegradation,
        Symptom::PartOfClusterDown,
        Symptom::IncorrectResult,
        Symptom::Unknown,
    ]
    .iter()
    .map(|&symptom| SymptomRow {
        symptom,
        all: ds.iter().filter(|r| r.symptom == symptom).count(),
        catastrophic: ds
            .iter()
            .filter(|r| r.symptom == symptom && r.catastrophic)
            .count(),
        catastrophic_in_production: ds
            .iter()
            .filter(|r| r.symptom == symptom && r.catastrophic_in_production)
            .count(),
    })
    .collect()
}

/// Renders Table 2 as a markdown table: all / catastrophic / catastrophic
/// in production per symptom, the paper's beside the measured.
pub fn render_table2(ds: &[StudyFailure]) -> String {
    fn triple((all, cat, prod): (usize, usize, usize)) -> String {
        format!("{all}/{cat}/{prod}")
    }
    fn add(t: (usize, usize, usize), r: (usize, usize, usize)) -> (usize, usize, usize) {
        (t.0 + r.0, t.1 + r.1, t.2 + r.2)
    }
    let mut out = String::from("| Symptom | Paper | Measured |\n|---|---|---|\n");
    let (mut paper_total, mut total) = ((0, 0, 0), (0, 0, 0));
    for (row, paper) in table2(ds).iter().zip(PAPER_TABLE2) {
        let measured = (row.all, row.catastrophic, row.catastrophic_in_production);
        let (p, m) = (triple(paper), triple(measured));
        let _ = writeln!(out, "| {} | {p} | {m} |", row.symptom.label());
        (paper_total, total) = (add(paper_total, paper), add(total, measured));
    }
    let (p, m) = (triple(paper_total), triple(total));
    let _ = writeln!(out, "| **Total** | **{p}** | **{m}** |");
    out
}

/// Table 3: incompatibility categories.
pub fn table3(ds: &[StudyFailure]) -> Vec<(IncompatCategory, usize)> {
    [
        IncompatCategory::SyntaxSerializationLib,
        IncompatCategory::SyntaxEnum,
        IncompatCategory::SyntaxSystemSpecific,
        IncompatCategory::SemanticsSerializationLibMishandling,
        IncompatCategory::SemanticsIncompleteVersionHandling,
        IncompatCategory::SemanticsOther,
    ]
    .iter()
    .map(|&cat| {
        (
            cat,
            ds.iter()
                .filter(|r| r.incompat_category() == Some(cat))
                .count(),
        )
    })
    .collect()
}

/// Renders Table 3 as a markdown table, the paper's counts beside the
/// measured ones.
pub fn render_table3(ds: &[StudyFailure]) -> String {
    let mut out = String::from("| Category | Paper | Measured |\n|---|---|---|\n");
    let rows = table3(ds);
    for ((cat, count), paper) in rows.iter().zip(PAPER_TABLE3) {
        let kind = if cat.is_syntax() {
            "Syntax"
        } else {
            "Semantics"
        };
        let _ = writeln!(out, "| {kind}: {} | {paper} | {count} |", cat.label());
    }
    let _ = writeln!(
        out,
        "| **Total** | **{}** | **{}** |",
        PAPER_TABLE3.iter().sum::<usize>(),
        rows.iter().map(|(_, c)| c).sum::<usize>()
    );
    out
}

/// Table 4: version gaps.
pub fn table4(ds: &[StudyFailure]) -> Vec<(GapClass, usize)> {
    [
        GapClass::Major2,
        GapClass::Major1,
        GapClass::MinorGt2,
        GapClass::Minor2,
        GapClass::Minor1,
        GapClass::BugFixOnly,
        GapClass::AnyToParticular,
        GapClass::Unknown,
    ]
    .iter()
    .map(|&g| (g, ds.iter().filter(|r| r.gap == g).count()))
    .collect()
}

/// Renders Table 4 as a markdown table, the paper's counts beside the
/// measured ones.
pub fn render_table4(ds: &[StudyFailure]) -> String {
    let labels = [
        "major gap 2",
        "major gap 1",
        "minor gap >2",
        "minor gap 2",
        "minor gap 1",
        "bug-fix only (<1)",
        "any -> particular new version",
        "version not reported",
    ];
    let mut out = String::from("| Gap | Paper | Measured |\n|---|---|---|\n");
    for (i, ((_, count), label)) in table4(ds).iter().zip(labels).enumerate() {
        let paper = PAPER_TABLE4
            .get(i)
            .map_or("—".to_string(), usize::to_string);
        let _ = writeln!(out, "| {label} | {paper} | {count} |");
    }
    out
}

/// The computed findings, each with the paper's claimed value reproduced.
#[derive(Debug, Clone, PartialEq)]
pub struct Findings {
    /// F1: % Blocker among upgrade failures (JIRA-scheme systems).
    pub blocker_pct: f64,
    /// F1: % high-priority (Blocker+Critical).
    pub high_priority_pct: f64,
    /// F1 (Cassandra): % Urgent / % Low.
    pub cassandra_urgent_pct: f64,
    /// F1 (Cassandra): % Low.
    pub cassandra_low_pct: f64,
    /// F2: % catastrophic.
    pub catastrophic_pct: f64,
    /// F3: % with easy-to-observe symptoms.
    pub easy_to_observe_pct: f64,
    /// F4: caught after release, among those with version info.
    pub caught_after_release: usize,
    /// F4: with version info.
    pub with_release_info: usize,
    /// F5: % caused by incompatible cross-version interaction.
    pub incompatibility_pct: f64,
    /// §4.1: % of incompatibilities on persistent storage.
    pub persistent_medium_pct: f64,
    /// §4.1: % of incompatibilities that are syntax (vs semantics).
    pub syntax_pct: f64,
    /// F9: % exposable by consecutive major/minor versions.
    pub consecutive_pct: f64,
    /// F10: max nodes required.
    pub max_nodes: u8,
    /// F10: % needing a single node.
    pub single_node_pct: f64,
    /// F11: % deterministic.
    pub deterministic_pct: f64,
    /// F12: % triggered by stress ops + default config.
    pub stress_default_pct: f64,
    /// F13: % needing non-default configuration (alone).
    pub config_pct: f64,
    /// F13: of those, % covered by unit tests.
    pub config_covered_pct: f64,
    /// §5.2: % needing special operations (alone).
    pub special_ops_pct: f64,
    /// §5.2: of those, % covered by unit tests.
    pub ops_covered_pct: f64,
}

fn pct(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

/// Computes every finding from the dataset.
pub fn findings(ds: &[StudyFailure]) -> Findings {
    let jira: Vec<&StudyFailure> = ds
        .iter()
        .filter(|r| matches!(r.priority, StudyPriority::Jira(_)))
        .collect();
    let cass: Vec<&StudyFailure> = ds
        .iter()
        .filter(|r| matches!(r.priority, StudyPriority::Cassandra(_)))
        .collect();
    let blocker = jira
        .iter()
        .filter(|r| matches!(r.priority, StudyPriority::Jira(Priority::Blocker)))
        .count();
    let high = jira
        .iter()
        .filter(|r| matches!(r.priority, StudyPriority::Jira(p) if p.is_high()))
        .count();
    let urgent = cass
        .iter()
        .filter(|r| {
            matches!(
                r.priority,
                StudyPriority::Cassandra(CassandraPriority::Urgent)
            )
        })
        .count();
    let low = cass
        .iter()
        .filter(|r| matches!(r.priority, StudyPriority::Cassandra(CassandraPriority::Low)))
        .count();

    let with_info = ds
        .iter()
        .filter(|r| r.caught != CaughtWhen::Unknown)
        .count();
    let after = ds
        .iter()
        .filter(|r| r.caught == CaughtWhen::AfterRelease)
        .count();

    let incompat: Vec<&StudyFailure> = ds.iter().filter(|r| r.is_incompatibility()).collect();
    let persistent = incompat
        .iter()
        .filter(|r| {
            matches!(
                r.root_cause,
                RootCause::IncompatibleInteraction {
                    medium: DataMedium::PersistentStorage,
                    ..
                }
            )
        })
        .count();
    let syntax = incompat
        .iter()
        .filter(|r| r.incompat_category().is_some_and(|c| c.is_syntax()))
        .count();

    let known_gap = ds.iter().filter(|r| r.gap != GapClass::Unknown).count();
    let consecutive = ds.iter().filter(|r| r.gap.consecutive_exposes()).count();

    let config_only = ds
        .iter()
        .filter(|r| matches!(r.trigger, Trigger::Config { .. }))
        .count();
    let config_covered = ds
        .iter()
        .filter(|r| {
            matches!(
                r.trigger,
                Trigger::Config {
                    covered_by_unit_test: true
                }
            )
        })
        .count();
    let ops_only = ds
        .iter()
        .filter(|r| matches!(r.trigger, Trigger::SpecialOps { .. }))
        .count();
    let ops_covered = ds
        .iter()
        .filter(|r| {
            matches!(
                r.trigger,
                Trigger::SpecialOps {
                    covered_by_unit_test: true
                }
            )
        })
        .count();

    Findings {
        blocker_pct: pct(blocker, jira.len()),
        high_priority_pct: pct(high, jira.len()),
        cassandra_urgent_pct: pct(urgent, cass.len()),
        cassandra_low_pct: pct(low, cass.len()),
        catastrophic_pct: pct(ds.iter().filter(|r| r.catastrophic).count(), ds.len()),
        easy_to_observe_pct: pct(ds.iter().filter(|r| r.easy_to_observe).count(), ds.len()),
        caught_after_release: after,
        with_release_info: with_info,
        incompatibility_pct: pct(incompat.len(), ds.len()),
        persistent_medium_pct: pct(persistent, incompat.len()),
        syntax_pct: pct(syntax, incompat.len()),
        consecutive_pct: pct(consecutive, known_gap),
        max_nodes: ds.iter().map(|r| r.nodes_required).max().unwrap_or(0),
        single_node_pct: pct(
            ds.iter().filter(|r| r.nodes_required == 1).count(),
            ds.len(),
        ),
        deterministic_pct: pct(ds.iter().filter(|r| r.deterministic).count(), ds.len()),
        stress_default_pct: pct(
            ds.iter()
                .filter(|r| r.trigger == Trigger::StressDefault)
                .count(),
            ds.len(),
        ),
        config_pct: pct(config_only, ds.len()),
        config_covered_pct: pct(config_covered, config_only),
        special_ops_pct: pct(ops_only, ds.len()),
        ops_covered_pct: pct(ops_covered, ops_only),
    }
}

/// Renders the findings as a markdown table, each with the paper's claim
/// beside the measured value.
pub fn render_findings(ds: &[StudyFailure]) -> String {
    let f = findings(ds);
    let b = baseline::NON_UPGRADE;
    let rows = [
        (
            "F1 Blocker, upgrade vs non-upgrade",
            "38% vs 10%",
            format!("{:.0}% vs {:.0}%", f.blocker_pct, b.blocker_pct),
        ),
        (
            "F1 high priority, upgrade vs non-upgrade",
            "53% vs 20%",
            format!("{:.0}% vs {:.0}%", f.high_priority_pct, b.high_priority_pct),
        ),
        (
            "F1 Cassandra Urgent / Low, upgrade vs non-upgrade",
            "18% / 7% vs 6% / 41%",
            format!(
                "{:.0}% / {:.0}% vs {:.0}% / {:.0}%",
                f.cassandra_urgent_pct,
                f.cassandra_low_pct,
                b.cassandra_urgent_pct,
                b.cassandra_low_pct
            ),
        ),
        (
            "F2 catastrophic, upgrade vs all bugs [80]",
            "67% vs 24%",
            format!("{:.0}% vs {:.0}%", f.catastrophic_pct, b.catastrophic_pct),
        ),
        (
            "F3 easy-to-observe symptoms",
            "70%",
            format!("{:.0}%", f.easy_to_observe_pct),
        ),
        (
            "F4 caught after release",
            "70 of 112 (63%)",
            format!(
                "{} of {} ({:.0}%)",
                f.caught_after_release,
                f.with_release_info,
                pct(f.caught_after_release, f.with_release_info)
            ),
        ),
        (
            "F5 incompatible cross-version interaction",
            "~63%",
            format!("{:.0}%", f.incompatibility_pct),
        ),
        (
            "§4.1 incompatibilities on persistent storage",
            "60%",
            format!("{:.0}%", f.persistent_medium_pct),
        ),
        (
            "§4.1 syntax (vs semantics) incompatibilities",
            "~65%",
            format!("{:.0}%", f.syntax_pct),
        ),
        (
            "F9 consecutive versions expose, of known-gap",
            ">80%",
            format!("{:.0}%", f.consecutive_pct),
        ),
        (
            "F10 max nodes; single node",
            "3; 57%",
            format!("{}; {:.0}%", f.max_nodes, f.single_node_pct),
        ),
        (
            "F11 deterministic",
            "~89%",
            format!("{:.0}%", f.deterministic_pct),
        ),
        (
            "F12 stress + default config triggers",
            "50%",
            format!("{:.0}%", f.stress_default_pct),
        ),
        (
            "F13 non-default config; of those unit-test covered",
            "7%; 78%",
            format!("{:.0}%; {:.0}%", f.config_pct, f.config_covered_pct),
        ),
        (
            "§5.2 special operations; of those unit-test covered",
            "~1/3; ~60%",
            format!("{:.0}%; {:.0}%", f.special_ops_pct, f.ops_covered_pct),
        ),
    ];
    let mut out = String::from("| Finding | Paper | Measured |\n|---|---|---|\n");
    for (finding, paper, measured) in rows {
        let _ = writeln!(out, "| {finding} | {paper} | {measured} |");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::dataset;

    #[test]
    fn table1_matches_the_paper() {
        let ds = dataset();
        let t = table1(&ds);
        let counts: Vec<usize> = t.iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, PAPER_TABLE1);
        assert_eq!(counts.iter().sum::<usize>(), 123);
    }

    #[test]
    fn table2_matches_the_paper() {
        let ds = dataset();
        let rows = table2(&ds);
        let triples: Vec<(usize, usize, usize)> = rows
            .iter()
            .map(|r| (r.all, r.catastrophic, r.catastrophic_in_production))
            .collect();
        assert_eq!(triples, PAPER_TABLE2);
        assert_eq!(rows.iter().map(|r| r.catastrophic).sum::<usize>(), 82);
        assert_eq!(
            rows.iter()
                .map(|r| r.catastrophic_in_production)
                .sum::<usize>(),
            51
        );
    }

    #[test]
    fn table3_matches_the_paper() {
        let ds = dataset();
        let counts: Vec<usize> = table3(&ds).iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, PAPER_TABLE3);
        assert_eq!(counts.iter().sum::<usize>(), 77);
    }

    #[test]
    fn table4_matches_the_paper() {
        let ds = dataset();
        let counts: Vec<usize> = table4(&ds).iter().map(|(_, c)| *c).collect();
        assert_eq!(counts[..7], PAPER_TABLE4);
        assert_eq!(counts[7], 3, "records without version information");
    }

    #[test]
    fn findings_match_the_paper() {
        let ds = dataset();
        let f = findings(&ds);
        assert!(
            (f.blocker_pct - 38.0).abs() < 1.0,
            "blocker {}",
            f.blocker_pct
        );
        assert!((f.high_priority_pct - 53.0).abs() < 1.0);
        assert!((f.cassandra_urgent_pct - 18.0).abs() < 1.0);
        assert!((f.cassandra_low_pct - 7.0).abs() < 1.0);
        assert!((f.catastrophic_pct - 66.7).abs() < 1.0); // "67%"
        assert!((f.easy_to_observe_pct - 70.0).abs() < 1.0);
        assert_eq!(f.caught_after_release, 70);
        assert_eq!(f.with_release_info, 112);
        assert!((f.incompatibility_pct - 62.6).abs() < 1.0); // "about two thirds"
        assert!((f.persistent_medium_pct - 59.7).abs() < 1.0); // "60%"
        assert!((f.syntax_pct - 64.9).abs() < 1.0); // "close to two thirds"
        assert!(f.consecutive_pct > 80.0); // Finding 9.
        assert_eq!(f.max_nodes, 3);
        assert!((f.single_node_pct - 56.9).abs() < 1.0); // "57%"
        assert!((f.deterministic_pct - 88.6).abs() < 1.0); // "close to 90%"
        assert!((f.stress_default_pct - 50.4).abs() < 1.0); // "half"
        assert!((f.config_pct - 7.3).abs() < 1.0); // "7%"
        assert!((f.config_covered_pct - 77.8).abs() < 1.0); // "78%"
        assert!((f.special_ops_pct - 33.3).abs() < 1.0); // "about one third"
        assert!((f.ops_covered_pct - 61.0).abs() < 1.5); // "about 60%"
    }

    #[test]
    fn renders_are_complete() {
        let ds = dataset();
        assert!(render_table1(&ds).contains("| Cassandra | 44 | 44 |\n"));
        assert!(render_table2(&ds).contains("| Whole cluster down | 34/34/18 | 34/34/18 |\n"));
        assert!(render_table2(&ds).ends_with("| **Total** | **123/82/51** | **123/82/51** |\n"));
        assert!(render_table3(&ds).ends_with("| **Total** | **77** | **77** |\n"));
        assert!(render_table4(&ds).ends_with("| version not reported | — | 3 |\n"));
        let f = render_findings(&ds);
        assert!(f.contains("| F11 deterministic | ~89% | 89% |\n"));
        assert!(f.contains("F13"));
    }
}
