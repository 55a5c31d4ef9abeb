//! Recall and determinism gates for coverage-guided campaign search.
//!
//! The recall tests hold the search to the ground-truth seeded-bug catalog:
//! for every non-timing-dependent bug the guided search must detect it
//! within no more cases than the blind seed sweep spends, and summed over
//! the catalog the guided search must spend strictly fewer cases. The two
//! timing-dependent bugs the satellite names (HDFS-11856, ZOOKEEPER-1805)
//! are coin flips per case by design, so they get a detection-rate
//! comparison at a fixed budget instead of a cases-to-detection bound.
//!
//! The determinism tests pin the properties everything above relies on:
//! trace signatures are byte-identical whether the runner is fresh, warm,
//! or snapshotting, and a full guided run renders the identical corpus and
//! report across thread counts, snapshot settings, and reruns.
//!
//! Every failure a search reports replays from its `repro:` line, those first
//! found by a mutant included: the line carries the mutant's nudge.
//!
//! On failure each recall test leaves its corpus dumps under
//! `target/search-corpus/` for CI to upload.

mod common;

use dup_core::{SystemUnderTest, VersionId};
use dup_tester::{
    catalog, Campaign, CaseRunner, CaseSignature, Durability, FaultIntensity, OpenLoopSpec,
    Scenario, SearchConfig, SearchReport, TestCase, TraceConfig, WorkloadSpec,
};
use std::path::PathBuf;

fn system(name: &str) -> &'static dyn SystemUnderTest {
    match name {
        "cassandra-mini" => &dup_kvstore::KvStoreSystem,
        "hdfs-mini" => &dup_dfs::DfsSystem,
        "kafka-mini" => &dup_mq::MqSystem,
        "zookeeper-mini" => &dup_coord::CoordSystem,
        other => panic!("unknown catalog system {other}"),
    }
}

/// The recall configuration: same shape as `SEARCH_efficiency.json`'s
/// cases-to-detection table — fault-free groups, bootstrap seed 1, budget 4.
fn recall_search(sut: &dyn SystemUnderTest, blind: bool, threads: usize) -> SearchReport {
    Campaign::builder(sut)
        .scenarios([Scenario::FullStop, Scenario::Rolling])
        .faults([FaultIntensity::Off])
        .threads(threads)
        .search(SearchConfig {
            budget_per_group: 4,
            initial_seeds: vec![1],
            blind,
            ..SearchConfig::default()
        })
        .build()
        .run_search()
}

fn dump_corpus(name: &str, report: &SearchReport) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/search-corpus");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.txt")), report.render_summary());
    }
}

/// The recall gate for one system: guided detects every non-timing catalog
/// bug within the blind sweep's cases-to-detection, and spends strictly
/// fewer cases overall.
fn assert_recall(name: &str) {
    let sut = system(name);
    let guided = recall_search(sut, false, 0);
    let blind = recall_search(sut, true, 0);
    dump_corpus(&format!("{name}-guided"), &guided);
    dump_corpus(&format!("{name}-blind"), &blind);
    common::assert_failures_replay(sut, &guided.campaign);
    common::assert_failures_replay(sut, &blind.campaign);

    for bug in catalog::seeded_bugs() {
        // Scenario-gated bugs need an extended rollout plan the paper-shaped
        // recall config never compiles; they get their own gate below.
        if bug.system != name || bug.timing_dependent || bug.scenario.is_some() {
            continue;
        }
        let (from, to): (VersionId, VersionId) = (bug.from_version(), bug.to_version());
        let g = guided
            .cases_to_detect(from, to, bug.marker)
            .unwrap_or_else(|| panic!("guided search missed {}", bug.ticket));
        let b = blind
            .cases_to_detect(from, to, bug.marker)
            .unwrap_or_else(|| panic!("blind sweep missed {}", bug.ticket));
        assert!(
            g <= b,
            "{}: guided took {g} cases, blind took {b}",
            bug.ticket
        );
    }
    assert!(
        guided.total_cases() < blind.total_cases(),
        "{name}: guided must spend strictly fewer cases ({} vs {})",
        guided.total_cases(),
        blind.total_cases()
    );
}

#[test]
fn recall_cassandra_mini() {
    assert_recall("cassandra-mini");
}

/// The recall gate for the rollout-plan-exclusive catalog bugs: guided
/// search — whose `NudgeRolloutPlan` operator is live for extended
/// scenarios even with faults off — must detect each within no more cases
/// than the blind sweep, and spend fewer cases overall.
#[test]
fn recall_rollout_exclusive_bugs_guided_vs_blind() {
    for bug in catalog::seeded_bugs() {
        let Some(scenario) = bug.scenario else {
            continue;
        };
        let sut = system(bug.system);
        let (from, to) = (bug.from_version(), bug.to_version());
        // Multi-hop pairs span two releases, so the matrix needs gap-2
        // pairs to reach them.
        let gap_two = scenario == Scenario::MultiHop;
        let run = |blind: bool| {
            Campaign::builder(sut)
                .scenarios([scenario])
                .gap_two(gap_two)
                .unit_tests(false)
                .faults([FaultIntensity::Off])
                .threads(0)
                .search(SearchConfig {
                    budget_per_group: 4,
                    initial_seeds: vec![1],
                    blind,
                    ..SearchConfig::default()
                })
                .build()
                .run_search()
        };
        let guided = run(false);
        let blind = run(true);
        dump_corpus(&format!("{}-rollout-guided", bug.system), &guided);
        dump_corpus(&format!("{}-rollout-blind", bug.system), &blind);
        common::assert_failures_replay(sut, &guided.campaign);
        common::assert_failures_replay(sut, &blind.campaign);
        let g = guided
            .cases_to_detect(from, to, bug.marker)
            .unwrap_or_else(|| panic!("guided search missed {}", bug.ticket));
        let b = blind
            .cases_to_detect(from, to, bug.marker)
            .unwrap_or_else(|| panic!("blind sweep missed {}", bug.ticket));
        assert!(
            g <= b,
            "{}: guided took {g} cases, blind took {b}",
            bug.ticket
        );
        assert!(
            guided.total_cases() < blind.total_cases(),
            "{}: guided must spend strictly fewer cases ({} vs {})",
            bug.ticket,
            guided.total_cases(),
            blind.total_cases()
        );
    }
}

#[test]
fn recall_hdfs_mini() {
    assert_recall("hdfs-mini");
}

/// The workload-axis recall gate (`SEARCH_efficiency.json` v3's third
/// pass): with the open-loop workload axis enabled — which adds groups
/// whose guided search draws from the widened operator set, bursts, hot
/// keys, and churn included — guided must still detect every non-timing
/// catalog bug within the blind sweep's cases-to-detection, and spend
/// strictly fewer cases overall.
#[test]
fn recall_with_open_loop_workload_axis_guided_vs_blind() {
    for name in [
        "cassandra-mini",
        "hdfs-mini",
        "kafka-mini",
        "zookeeper-mini",
    ] {
        let sut = system(name);
        let run = |blind: bool| {
            Campaign::builder(sut)
                .scenarios([Scenario::FullStop, Scenario::Rolling])
                .faults([FaultIntensity::Off])
                .workloads([OpenLoopSpec::small()])
                .threads(0)
                .search(SearchConfig {
                    budget_per_group: 4,
                    initial_seeds: vec![1],
                    blind,
                    ..SearchConfig::default()
                })
                .build()
                .run_search()
        };
        let guided = run(false);
        let blind = run(true);
        dump_corpus(&format!("{name}-workload-guided"), &guided);
        dump_corpus(&format!("{name}-workload-blind"), &blind);
        common::assert_failures_replay(sut, &guided.campaign);
        common::assert_failures_replay(sut, &blind.campaign);
        for bug in catalog::seeded_bugs() {
            if bug.system != name || bug.timing_dependent || bug.scenario.is_some() {
                continue;
            }
            let (from, to) = (bug.from_version(), bug.to_version());
            let g = guided
                .cases_to_detect(from, to, bug.marker)
                .unwrap_or_else(|| panic!("guided search missed {}", bug.ticket));
            let b = blind
                .cases_to_detect(from, to, bug.marker)
                .unwrap_or_else(|| panic!("blind sweep missed {}", bug.ticket));
            assert!(
                g <= b,
                "{}: guided took {g} cases, blind took {b}",
                bug.ticket
            );
        }
        assert!(
            guided.total_cases() < blind.total_cases(),
            "{name}: guided must spend strictly fewer cases ({} vs {})",
            guided.total_cases(),
            blind.total_cases()
        );
    }
}

#[test]
fn recall_kafka_mini() {
    assert_recall("kafka-mini");
}

#[test]
fn recall_zookeeper_mini() {
    assert_recall("zookeeper-mini");
}

/// Detection rate at a fixed per-group budget, over `reps` repetitions each
/// bootstrapping both modes from the same fresh seed. Light faults give the
/// mutation operators a plan to perturb. Also returns how many reported
/// failures a mutant found first, each replayed from its nudged line.
fn detection_rate(ticket: &str, reps: u64) -> (u64, u64, usize, usize, usize) {
    let bug = catalog::seeded_bugs()
        .into_iter()
        .find(|b| b.ticket == ticket)
        .expect("catalog ticket");
    assert!(bug.timing_dependent, "{ticket} should be timing-dependent");
    let sut = system(bug.system);
    let (from, to) = (bug.from_version(), bug.to_version());
    let mut hits = (0u64, 0u64);
    let mut cases = (0usize, 0usize);
    let mut nudged = 0;
    for rep in 0..reps {
        for blind in [false, true] {
            let report = Campaign::builder(sut)
                .scenarios([Scenario::Rolling])
                .faults([FaultIntensity::Light])
                .threads(0)
                .search(SearchConfig {
                    budget_per_group: 6,
                    initial_seeds: vec![rep],
                    search_seed: 0xC0FF_EE00 + rep,
                    blind,
                    ..SearchConfig::default()
                })
                .build()
                .run_search();
            nudged += common::assert_failures_replay(sut, &report.campaign);
            let hit = report.cases_to_detect(from, to, bug.marker).is_some() as u64;
            if blind {
                hits.1 += hit;
                cases.1 += report.total_cases();
            } else {
                hits.0 += hit;
                cases.0 += report.total_cases();
            }
        }
    }
    (hits.0, hits.1, cases.0, cases.1, nudged)
}

#[test]
fn timing_dependent_hdfs_11856_detection_rate_at_fixed_budget() {
    let (guided_hits, blind_hits, guided_cases, blind_cases, nudged) =
        detection_rate("HDFS-11856", 3);
    assert!(nudged > 0, "no failure was first found by a mutant");
    assert!(
        guided_hits >= blind_hits,
        "guided rate {guided_hits}/3 fell below blind rate {blind_hits}/3"
    );
    assert!(guided_hits > 0, "guided search never hit HDFS-11856");
    assert!(
        guided_cases < blind_cases,
        "guided spent {guided_cases} cases vs blind {blind_cases}"
    );
}

#[test]
fn timing_dependent_zookeeper_1805_detection_rate_at_fixed_budget() {
    let (guided_hits, blind_hits, guided_cases, blind_cases, _) =
        detection_rate("ZOOKEEPER-1805", 3);
    assert!(
        guided_hits >= blind_hits,
        "guided rate {guided_hits}/3 fell below blind rate {blind_hits}/3"
    );
    assert!(guided_hits > 0, "guided search never hit ZOOKEEPER-1805");
    assert!(
        guided_cases < blind_cases,
        "guided spent {guided_cases} cases vs blind {blind_cases}"
    );
}

fn signature_digest(runner: &mut CaseRunner<'_>, case: &TestCase) -> u64 {
    let result = case.run_in(runner);
    assert!(result.digest.events_processed > 0, "case did not run");
    let trace = runner.trace_buffer().expect("tracing enabled");
    let mut sig = CaseSignature::new();
    sig.fold(trace);
    assert!(sig.bits_set() > 0, "signature folded no events");
    sig.digest()
}

/// The signature of a case is a pure function of the case: fresh runner,
/// warm runner (second run in the same runner), and snapshotting runner all
/// fold byte-identical signatures.
#[test]
fn signature_identical_across_fresh_warm_and_snapshot_runners() {
    let sut = system("cassandra-mini");
    let case = TestCase {
        from: "2.1.0".parse().unwrap(),
        to: "3.0.0".parse().unwrap(),
        scenario: Scenario::Rolling,
        workload: WorkloadSpec::Stress,
        seed: 7,
        faults: FaultIntensity::Light,
        durability: Durability::Strict,
    };
    let trace = Some(TraceConfig::default());

    let mut fresh = CaseRunner::with_options(sut, trace, false);
    let fresh_digest = signature_digest(&mut fresh, &case);
    let warm_digest = signature_digest(&mut fresh, &case);

    let mut snapshotting = CaseRunner::with_options(sut, trace, true);
    let snap_cold = signature_digest(&mut snapshotting, &case);
    let snap_restored = signature_digest(&mut snapshotting, &case);

    assert_eq!(
        fresh_digest, warm_digest,
        "warm rerun changed the signature"
    );
    assert_eq!(fresh_digest, snap_cold, "snapshot runner (cold) diverged");
    assert_eq!(
        fresh_digest, snap_restored,
        "snapshot-restored run diverged"
    );
}

/// A full guided search renders the identical corpus and report whether it
/// runs on one thread or four, with snapshotting on or off, and across
/// reruns.
#[test]
fn guided_search_identical_across_threads_snapshot_and_reruns() {
    let run = |threads: usize, snapshot: bool| {
        Campaign::builder(system("kafka-mini"))
            .scenarios([Scenario::Rolling])
            .faults([FaultIntensity::Light])
            .threads(threads)
            .snapshot(snapshot)
            .search(SearchConfig {
                budget_per_group: 4,
                initial_seeds: vec![1],
                ..SearchConfig::default()
            })
            .build()
            .run_search()
    };
    let first = run(1, true);
    common::assert_failures_replay(system("kafka-mini"), &first.campaign);
    let sequential = first.render_summary();
    let parallel = run(4, false).render_summary();
    let rerun = run(4, false).render_summary();
    assert_eq!(sequential, parallel, "thread count changed the search");
    assert_eq!(parallel, rerun, "rerun changed the search");
    assert!(
        sequential.contains("digest="),
        "summary should dump a non-empty corpus:\n{sequential}"
    );
}
