//! Rollout-plan campaigns: the four extended scenarios — rollback,
//! multi-hop, canary-then-fleet, and rolling-with-churn — end to end.
//!
//! Four contracts ride on this file:
//!
//! 1. **Determinism** — an extended-scenario campaign under heavy faults,
//!    torn durability, and tracing renders a byte-identical report across
//!    thread counts, snapshot settings, and reruns.
//! 2. **Rollback exclusivity** — the seeded CASSANDRA-15794 analog (4.0
//!    stamps its commitlog format before validating, so a rolled-back 3.11
//!    chokes on the newer header) is found by `RollbackAfterPartial` and by
//!    *none* of the paper's three scenarios.
//! 3. **Multi-hop exclusivity** — the seeded CASSANDRA-13441 analog (the
//!    3.11 schema-pull storm on the 3.0 → 3.11 → 4.0 path) is found by
//!    `MultiHop` over the gap-2 pair and by none of the paper scenarios on
//!    that same pair.
//! 4. **Repro lines** — every failure, extended or paper scenario, replays
//!    from its `repro:` line, which derives the rollout plan.
//!
//! Rollback failure slices are also written to `target/trace-slices/` with
//! a `rollout-` prefix so CI can upload them when a campaign test fails.

mod common;

use dup_core::VersionId;
use dup_tester::{Campaign, CampaignReport, Durability, FaultIntensity, Scenario, TraceConfig};
use std::path::PathBuf;

fn v(s: &str) -> VersionId {
    s.parse().unwrap()
}

/// Writes every failure's rendered slice under
/// `target/trace-slices/rollout-<name>-<index>.*` before any assertion
/// runs, so a failing test still leaves evidence for the artifact upload.
fn dump_slices(name: &str, report: &CampaignReport) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/trace-slices");
    std::fs::create_dir_all(&dir).expect("create target/trace-slices");
    for (i, failure) in report.failures.iter().enumerate() {
        let rendered = failure.render();
        std::fs::write(dir.join(format!("rollout-{name}-{i}.txt")), rendered)
            .expect("write timeline");
        if let Some(slice) = &failure.trace {
            std::fs::write(
                dir.join(format!("rollout-{name}-{i}.json")),
                slice.to_chrome_json(),
            )
            .expect("write chrome json");
        }
    }
}

/// The adversarial end of the matrix for all four extended scenarios at
/// once: heavy faults, torn durability, tracing, multiple seeds.
fn extended_campaign(threads: usize, snapshot: bool) -> CampaignReport {
    Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1, 2])
        .scenarios([
            Scenario::RollbackAfterPartial,
            Scenario::MultiHop,
            Scenario::CanaryThenFleet,
            Scenario::RollingWithChurn,
        ])
        .unit_tests(false)
        .faults([FaultIntensity::Heavy])
        .durabilities([Durability::Torn])
        .threads(threads)
        .snapshot(snapshot)
        .trace(TraceConfig::default())
        .run()
}

#[test]
fn extended_scenario_reports_are_byte_identical_across_threads_snapshot_and_reruns() {
    let reference = extended_campaign(1, false);
    dump_slices("heavy-torn", &reference);
    assert!(
        (reference.failures.iter()).any(|f| f.spec.case.scenario.is_extended()),
        "the extended sweep should find at least one failure"
    );
    common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &reference);
    for (threads, snapshot) in [(4, false), (1, true), (4, true), (1, false)] {
        let other = extended_campaign(threads, snapshot);
        // FailureReport equality covers the attached slices event by event.
        assert_eq!(
            reference.failures, other.failures,
            "threads={threads}, snapshot={snapshot}"
        );
        assert_eq!(
            reference.render_table(),
            other.render_table(),
            "threads={threads}, snapshot={snapshot}"
        );
    }
}

/// Fault-free single-scenario campaign over the kvstore catalog.
fn scenario_campaign(scenario: Scenario, gap_two: bool) -> CampaignReport {
    Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1])
        .scenarios([scenario])
        .gap_two(gap_two)
        .unit_tests(false)
        .trace(TraceConfig::default())
        .run()
}

#[test]
fn rollback_bug_found_by_rollback_scenario_and_no_paper_scenario() {
    let (from, to) = (v("3.11.0"), v("4.0.0"));
    let marker = "unknown format 40";

    let rollback = scenario_campaign(Scenario::RollbackAfterPartial, false);
    dump_slices("rollback", &rollback);
    assert!(
        rollback
            .failures_on(from, to)
            .iter()
            .any(|f| f.to_string().contains(marker)),
        "RollbackAfterPartial must detect the seeded rollback bug on \
         {from}->{to}:\n{}",
        rollback.render_table()
    );
    common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &rollback);

    for scenario in Scenario::paper() {
        let report = scenario_campaign(scenario, false);
        assert!(
            !report
                .failures
                .iter()
                .any(|f| f.to_string().contains(marker)),
            "{scenario} must not trip the rollback-only bug:\n{}",
            report.render_table()
        );
        common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &report);
    }
}

#[test]
fn multi_hop_storm_found_by_multi_hop_and_no_paper_scenario_on_the_gap_two_pair() {
    let (from, to) = (v("3.0.0"), v("4.0.0"));
    let marker = "message storm";

    let multi_hop = scenario_campaign(Scenario::MultiHop, true);
    dump_slices("multi-hop", &multi_hop);
    assert!(
        multi_hop
            .failures_on(from, to)
            .iter()
            .any(|f| f.to_string().contains(marker)),
        "MultiHop must detect the seeded storm on the gap-2 pair \
         {from}->{to}:\n{}",
        multi_hop.render_table()
    );
    common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &multi_hop);

    // The storm lives only on the intermediate 3.11 release: a direct
    // 3.0 -> 4.0 upgrade never runs it, whatever the paper scenario.
    for scenario in Scenario::paper() {
        let report = scenario_campaign(scenario, true);
        assert!(
            !report
                .failures_on(from, to)
                .iter()
                .any(|f| f.to_string().contains(marker)),
            "{scenario} must not trip the multi-hop-only storm on \
             {from}->{to}:\n{}",
            report.render_table()
        );
    }
}
