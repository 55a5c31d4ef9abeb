//! The check phase: every verdict a workload produces is held against an
//! answer written down by hand — the seeded-bug catalog, the corpus specs'
//! declared counts, the paper's enum-checker yield — never against the run
//! itself. A contradiction is a failed op and makes the command exit
//! non-zero.

use crate::workloads::{seed_base, Body, Inputs, Kind, Scale, Unit};
use dup_tester::catalog::{seeded_bugs, SeededBug};
use dup_tester::{CaseOutcome, CaseRunner, FaultIntensity, Scenario, TestCase, WorkloadSpec};

/// Bugs only a unit-test-derived workload reaches: each lives behind an
/// operation "stress testing never issues" (see the `unit_tests()` of
/// `dup-kvstore` and `dup-mq`), so workloads that run stress and open-loop
/// traffic alone are not required to find them.
pub const NEEDS_UNIT_TESTS: [&str; 4] = [
    "CASSANDRA-16292 (shape)",
    "CASSANDRA-15794",
    "CASSANDRA-16301",
    "KAFKA-6238",
];

/// Bugs whose trigger is one particular peer exchange — a gossip pull
/// storm, a replica batch — that an injected drop, partition or crash can
/// remove from a given schedule. Required with faults off; with faults on
/// they are reported when found but a miss is not a wrong verdict.
pub const FAULT_SENSITIVE: [&str; 3] = [
    "CASSANDRA-13441",
    "CASSANDRA-13441 (multi-hop)",
    "KAFKA-10173",
];

/// Two bounds of the oracle on hdfs-mini, where a same-version "upgrade"
/// raises an alarm that is no upgrade failure. Its single namenode goes
/// unresponsive once faults are injected (`workload_campaigns.rs` documents
/// it for heavy chaos; light faults do it too), and a datanode that leaves
/// on purpose is logged as dead, which the error-log oracle counts.
const HDFS_UNDER_FAULTS: &str = "precision of hdfs-mini under injected faults: its single \
    namenode goes unresponsive, so its same-version cases run with faults off";
const HDFS_CHURN: &str = "precision of hdfs-mini on rolling-with-churn: the datanode that \
    leaves is logged as `marked dead`, an error-log alarm even with faults off";

/// The paper's enum-ordinal checker yield (section 6.2).
pub const ENUM_BUGS: u64 = 2;
pub const ENUM_VULNERABILITIES: u64 = 6;

fn reachable(kind: Kind) -> Vec<SeededBug> {
    let Some(axes) = kind.axes() else {
        return Vec::new();
    };
    seeded_bugs()
        .into_iter()
        .filter(|bug| axes.systems.iter().any(|s| s.name() == bug.system))
        .filter(|bug| bug.scenario.is_none_or(|s| axes.scenarios.contains(&s)))
        .collect()
}

/// Why a deterministic bug within `kind`'s reach is not required of it:
/// one of the two lists above names it and `kind` lacks that axis.
fn exclusion(kind: Kind, bug: &SeededBug) -> Option<&'static str> {
    let axes = kind.axes()?;
    if !axes.unit_tests && NEEDS_UNIT_TESTS.contains(&bug.ticket) {
        Some("needs a unit-test workload, which this workload does not run")
    } else if axes.faults != FaultIntensity::Off && FAULT_SENSITIVE.contains(&bug.ticket) {
        Some("its trigger is one peer exchange that an injected fault can remove")
    } else {
        None
    }
}

/// The catalog bugs `kind` must detect: on one of its systems, behind a
/// scenario it runs, not timing-dependent, and not excluded by the two
/// lists above for the axes it lacks.
pub fn required(kind: Kind) -> Vec<SeededBug> {
    reachable(kind)
        .into_iter()
        .filter(|bug| !bug.timing_dependent && exclusion(kind, bug).is_none())
        .collect()
}

/// Timing-dependent bugs within reach: found or not, never a failed op.
pub fn timing_dependent(kind: Kind) -> Vec<SeededBug> {
    reachable(kind)
        .into_iter()
        .filter(|bug| bug.timing_dependent)
        .collect()
}

#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub timing_bugs_found: u64,
    pub notes: Vec<String>,
    /// What the known answers leave out, each with its reason: printed with
    /// every run, so `failed == 0` never hides what was not asked.
    pub excluded: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, ops: u64, note: String) {
        self.failed += ops;
        self.notes.push(note);
    }
}

/// Judges the units of one run. `units` all ran the same inputs — timed,
/// traced or multi-threaded — so they must agree exactly.
pub fn check(inputs: &Inputs, units: &[&Unit], seed: u64) -> Verdict {
    let mut v = Verdict::default();
    let Some(first) = units.first() else {
        return v;
    };
    for (i, unit) in units.iter().enumerate() {
        v.attempted += unit.ops;
        if unit.totals.broken > 0 {
            v.fail(
                unit.totals.broken,
                format!("unit {i}: {} cases panicked or hung", unit.totals.broken),
            );
        }
        if unit.totals != first.totals {
            v.fail(
                unit.ops,
                format!(
                    "unit {i} is not a replay of unit 0: {:?} vs {:?}",
                    unit.totals, first.totals
                ),
            );
        }
    }
    let expected = inputs.matrix_cases();
    if expected > 0 && first.totals.cases_run + first.totals.pruned != expected {
        v.fail(
            expected.abs_diff(first.totals.cases_run + first.totals.pruned),
            format!(
                "matrix has {expected} cases, {} ran",
                first.totals.cases_run
            ),
        );
    }

    // Recall. The smoke scale cuts systems and scenarios, so the catalog's
    // claims do not apply to it.
    if inputs.scale != Scale::Smoke {
        for bug in reachable(inputs.kind) {
            let found = first.detected.contains(bug.ticket);
            if bug.timing_dependent {
                continue;
            }
            if let Some(why) = exclusion(inputs.kind, &bug) {
                let found = if found { "found anyway" } else { "not found" };
                v.excluded
                    .push(format!("recall of {} ({found}): {why}", bug.ticket));
                continue;
            }
            v.attempted += 1;
            if !found {
                v.fail(1, format!("seeded bug {} not detected", bug.ticket));
            }
        }
        v.timing_bugs_found = timing_dependent(inputs.kind)
            .iter()
            .filter(|bug| first.detected.contains(bug.ticket))
            .count() as u64;
    }

    if let Body::Static { specs, .. } = &inputs.body {
        if first.corpus_counts.len() != specs.len() {
            v.fail(
                specs.len().abs_diff(first.corpus_counts.len()) as u64,
                format!(
                    "{} corpora checked, {} specified",
                    first.corpus_counts.len(),
                    specs.len()
                ),
            );
        }
        for (spec, (system, errors, warnings)) in specs.iter().zip(&first.corpus_counts) {
            v.attempted += 1;
            if (spec.errors, spec.warnings) != (*errors, *warnings) {
                v.fail(
                    1,
                    format!(
                        "{system}: {errors} errors + {warnings} warnings, spec declares {} + {}",
                        spec.errors, spec.warnings
                    ),
                );
            }
        }
        v.attempted += 1;
        let [_, _, bugs, vulns] = first.totals.findings;
        if (bugs, vulns) != (ENUM_BUGS, ENUM_VULNERABILITIES) {
            v.fail(
                1,
                format!("enum checker found {bugs} bugs + {vulns} vulnerabilities"),
            );
        }
    }
    precision(inputs, seed, &mut v);
    v
}

/// Same-version "upgrades" have no upgrade bug by construction, so every
/// verdict other than a pass is a false alarm. Run for the two workloads
/// that add adversity or traffic the paper sweep lacks.
fn precision(inputs: &Inputs, seed: u64, v: &mut Verdict) {
    let (Some(axes), Body::Campaigns(parts)) = (inputs.kind.axes(), &inputs.body) else {
        return;
    };
    let workloads: Vec<WorkloadSpec> = match inputs.kind {
        Kind::ChaosFanout => vec![WorkloadSpec::Stress],
        Kind::OpenLoop => std::iter::once(WorkloadSpec::Stress)
            .chain(
                parts[0]
                    .config
                    .workloads()
                    .iter()
                    .copied()
                    .map(WorkloadSpec::OpenLoop),
            )
            .collect(),
        _ => return,
    };
    let scenarios = if inputs.scale == Scale::Smoke {
        &axes.scenarios[..1]
    } else {
        &axes.scenarios[..]
    };
    for part in parts {
        // hdfs-mini has a clean same-version answer only where the two
        // oracle bounds below do not apply.
        let hdfs_chaos = inputs.kind == Kind::ChaosFanout && part.sut.name() == "hdfs-mini";
        let faults = if hdfs_chaos {
            v.excluded.push(HDFS_UNDER_FAULTS.to_string());
            FaultIntensity::Off
        } else {
            axes.faults
        };
        let newest = *part.sut.versions().last().expect("a system has versions");
        let mut runner = CaseRunner::with_options(part.sut, None, true);
        for &scenario in scenarios {
            if hdfs_chaos && scenario == Scenario::RollingWithChurn {
                v.excluded.push(HDFS_CHURN.to_string());
                continue;
            }
            for workload in &workloads {
                for k in 1..=3 {
                    let case = TestCase {
                        from: newest,
                        to: newest,
                        scenario,
                        workload: workload.clone(),
                        seed: seed_base(seed) + k,
                        faults,
                        durability: axes.durability,
                    };
                    v.attempted += 1;
                    let outcome = case.run_in(&mut runner).outcome;
                    if outcome != CaseOutcome::Pass {
                        v.fail(
                            1,
                            format!(
                                "false alarm on {} {newest}->{newest} {scenario} {workload} seed {}: {outcome:?}",
                                part.sut.name(),
                                case.seed
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tickets(bugs: Vec<SeededBug>) -> Vec<&'static str> {
        bugs.into_iter().map(|b| b.ticket).collect()
    }

    #[test]
    fn exclusion_lists_name_real_deterministic_bugs() {
        let catalog = seeded_bugs();
        for ticket in NEEDS_UNIT_TESTS.iter().chain(&FAULT_SENSITIVE) {
            let bug = catalog
                .iter()
                .find(|b| b.ticket == *ticket)
                .unwrap_or_else(|| panic!("{ticket} is not in the catalog"));
            assert!(!bug.timing_dependent, "{ticket} is already exempt");
        }
    }

    #[test]
    fn required_sets_follow_the_axes() {
        // Faults off, unit tests on, paper scenarios: every deterministic
        // bug that needs no extended scenario.
        assert_eq!(required(Kind::SweepPaper).len(), 15);
        assert_eq!(
            tickets(required(Kind::MillionCases)),
            ["KAFKA-6238", "KAFKA-7403", "KAFKA-10173"]
        );
        assert_eq!(
            tickets(required(Kind::OpenLoop)),
            [
                "CASSANDRA-4195",
                "CASSANDRA-16257 (shape)",
                "CASSANDRA-13441",
                "KAFKA-7403",
                "KAFKA-10173"
            ]
        );
        let chaos = tickets(required(Kind::ChaosFanout));
        assert!(
            chaos.contains(&"CASSANDRA-15794 (rollback)"),
            "extended scenario in reach"
        );
        assert!(
            !chaos.contains(&"CASSANDRA-13441 (multi-hop)"),
            "fault-sensitive"
        );
        assert!(!chaos.contains(&"CASSANDRA-16301"), "needs unit tests");
        assert_eq!(chaos.len(), 8);
        let search = tickets(required(Kind::GuidedSearch));
        assert_eq!(search.len(), 13);
        assert!(!search.contains(&"KAFKA-10173"));
        assert!(required(Kind::StaticCheck).is_empty());
        assert_eq!(
            tickets(timing_dependent(Kind::SweepPaper)),
            ["CASSANDRA-6678", "HDFS-11856", "ZOOKEEPER-1805"]
        );
    }

    #[test]
    fn a_missed_bug_a_broken_case_and_a_diverging_unit_are_failed_ops() {
        let inputs = Inputs::build(Kind::MillionCases, 1, Scale::Warmup);
        let mut good = Unit {
            ops: inputs.matrix_cases(),
            ..Unit::default()
        };
        good.totals.cases_run = good.ops;
        good.detected = required(Kind::MillionCases)
            .iter()
            .map(|b| b.ticket)
            .collect();
        let v = check(&inputs, &[&good, &good], 1);
        assert_eq!(
            (v.failed, v.attempted),
            (0, 2 * good.ops + 3),
            "{:?}",
            v.notes
        );

        let mut missed = good.clone();
        missed.detected.remove("KAFKA-7403");
        assert_eq!(check(&inputs, &[&missed], 1).failed, 1);

        let mut broken = good.clone();
        broken.totals.broken = 2;
        assert_eq!(check(&inputs, &[&broken], 1).failed, 2);

        let mut diverged = good.clone();
        diverged.totals.digest ^= 1;
        assert_eq!(check(&inputs, &[&good, &diverged], 1).failed, good.ops);

        let mut short = good.clone();
        short.totals.cases_run -= 5;
        assert_eq!(check(&inputs, &[&short], 1).failed, 5);
    }

    #[test]
    fn static_counts_are_held_against_the_specs() {
        let inputs = Inputs::build(Kind::StaticCheck, 1, Scale::Smoke);
        let unit = crate::workloads::run_unit(&inputs, 1, None);
        assert_eq!(
            unit.totals.findings,
            [700, 178, ENUM_BUGS, ENUM_VULNERABILITIES]
        );
        let v = check(&inputs, &[&unit], 1);
        assert_eq!((v.failed, v.attempted), (0, unit.ops + 8), "{:?}", v.notes);
        let mut wrong = unit.clone();
        wrong.corpus_counts[0].1 += 1;
        wrong.totals.findings[3] = 5;
        assert_eq!(check(&inputs, &[&wrong], 1).failed, 2);
        let mut short = unit.clone();
        short.corpus_counts.pop();
        assert_eq!(
            check(&inputs, &[&short], 1).failed,
            1,
            "a corpus went unchecked"
        );
    }

    #[test]
    fn what_the_answers_leave_out_is_listed() {
        // The search runs with faults on, so the two fault-sensitive bugs in
        // its reach are not required — and the verdict says so, found or not.
        let inputs = Inputs::build(Kind::GuidedSearch, 1, Scale::Warmup);
        let mut unit = Unit {
            detected: required(Kind::GuidedSearch)
                .iter()
                .map(|b| b.ticket)
                .collect(),
            ..Unit::default()
        };
        unit.detected.insert("KAFKA-10173");
        let v = check(&inputs, &[&unit], 1);
        assert_eq!(v.failed, 0, "{:?}", v.notes);
        assert_eq!(v.excluded.len(), 2, "{:?}", v.excluded);
        assert!(v.excluded[0].contains("CASSANDRA-13441 (not found)"));
        assert!(v.excluded[1].contains("KAFKA-10173 (found anyway)"));
        // Faults off and unit tests on: nothing is left out.
        let sweep = check(
            &Inputs::build(Kind::MillionCases, 1, Scale::Warmup),
            &[&Unit::default()],
            1,
        );
        assert!(sweep.excluded.is_empty());
    }
}
