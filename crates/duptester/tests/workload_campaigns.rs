//! Open-loop workload campaigns: the workload axis end to end.
//!
//! Five contracts ride on this file:
//!
//! 1. **Determinism replay** — an open-loop campaign under heavy faults and
//!    torn durability renders a byte-identical report on 1 thread and on 4,
//!    with snapshot-and-fork on or off, and twice in a row.
//! 2. **False-positive guard** — a *same-version* "upgrade" driven by
//!    open-loop traffic under heavy chaos must report zero upgrade
//!    failures: reads of keys nothing ever wrote are benign misses, not
//!    data loss.
//! 3. **Repro strings** — open-loop failures pin the exact workload spec in
//!    their repro line, and the spec round-trips through `parse`.
//! 4. **Client-count independence** — a million-logical-client case runs in
//!    the same arrival budget as a thousand-client one; logical clients are
//!    arithmetic, not state.
//! 5. **Storms under load** — CASSANDRA-13441's migration storm is reported
//!    under open-loop traffic too: the client barrage neither stretches the
//!    upgrade window nor counts as cluster traffic.

use dup_core::VersionId;
use dup_tester::{
    Campaign, CaseMatrix, CaseOutcome, CaseRunner, Durability, FaultIntensity, Observation,
    OpenLoopSpec, Scenario, TestCase, WorkloadSpec,
};

fn v(s: &str) -> VersionId {
    s.parse().unwrap()
}

fn open_loop_campaign(threads: usize, snapshot: bool) -> dup_tester::CampaignReport {
    Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1, 2])
        .scenarios([Scenario::Rolling])
        .unit_tests(false)
        .faults([FaultIntensity::Heavy])
        .durabilities([Durability::Torn])
        .workloads([OpenLoopSpec::small()])
        .threads(threads)
        .snapshot(snapshot)
        .run()
}

#[test]
fn open_loop_campaign_identical_across_threads_snapshot_and_reruns() {
    let seq = open_loop_campaign(1, false);
    let seq_snap = open_loop_campaign(1, true);
    let par = open_loop_campaign(4, false);
    let par_snap = open_loop_campaign(4, true);
    let rerun = open_loop_campaign(4, true);

    assert!(
        seq.sim_faults_injected > 0,
        "heavy intensity must actually inject faults"
    );
    assert_eq!(seq.render_table(), seq_snap.render_table(), "snapshot");
    assert_eq!(seq.render_table(), par.render_table(), "thread count");
    assert_eq!(seq.render_table(), par_snap.render_table(), "both");
    assert_eq!(seq.render_table(), rerun.render_table(), "rerun");
}

#[test]
fn open_loop_case_digest_reproducible_under_faults_and_torn() {
    let case = TestCase {
        from: v("2.1.0"),
        to: v("3.0.0"),
        scenario: Scenario::Rolling,
        workload: WorkloadSpec::OpenLoop(OpenLoopSpec::small()),
        seed: 7,
        faults: FaultIntensity::Heavy,
        durability: Durability::Torn,
    };
    // A warm runner recompiles the arrival plan into pooled buffers on every
    // case; the digests must not drift between the cold and warm runs.
    let mut runner = CaseRunner::new(&dup_kvstore::KvStoreSystem);
    let r1 = case.run_in(&mut runner);
    let r2 = case.run_in(&mut runner);
    assert_eq!(
        r1.digest, r2.digest,
        "open-loop digest must be reproducible"
    );
    assert!(r1.digest.events_processed > 0, "case did not run");
    assert_eq!(format!("{:?}", r1.outcome), format!("{:?}", r2.outcome));
}

#[test]
fn open_loop_adds_no_false_positives_beyond_stress() {
    // A system "upgraded" to its own version has no upgrade bugs by
    // construction. Open-loop traffic reads keys nothing ever wrote, so
    // this also pins the oracle's benign-miss handling for all four
    // systems' read paths: wherever the stress workload survives heavy
    // chaos cleanly, the open-loop workload must too. (hdfs-mini's single
    // namenode goes unresponsive under heavy same-version chaos with the
    // stress workload as well — a pre-existing bound on the oracle, not an
    // open-loop false positive.)
    for sut in [
        &dup_kvstore::KvStoreSystem as &dyn dup_core::SystemUnderTest,
        &dup_dfs::DfsSystem,
        &dup_mq::MqSystem,
        &dup_coord::CoordSystem,
    ] {
        let version = *sut.versions().last().expect("at least one version");
        for seed in [1, 2] {
            let run = |workload: WorkloadSpec| {
                TestCase {
                    from: version,
                    to: version,
                    scenario: Scenario::Rolling,
                    workload,
                    seed,
                    faults: FaultIntensity::Heavy,
                    durability: Durability::Torn,
                }
                .run(sut)
            };
            let stress = run(WorkloadSpec::Stress);
            let open = run(WorkloadSpec::OpenLoop(OpenLoopSpec::small()));
            if !stress.is_failure() {
                assert!(
                    !open.is_failure(),
                    "open-loop chaos misread as an upgrade failure \
                     ({}, seed {seed}): {open:?}",
                    sut.name()
                );
            }
        }
    }
}

#[test]
fn workload_axis_multiplies_the_matrix() {
    let base_config = Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1, 2])
        .scenarios([Scenario::FullStop])
        .unit_tests(false)
        .into_config();
    let base = CaseMatrix::enumerate(&dup_kvstore::KvStoreSystem, &base_config);
    let swept_config = Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1, 2])
        .scenarios([Scenario::FullStop])
        .unit_tests(false)
        .workloads([OpenLoopSpec::small(), OpenLoopSpec::million()])
        .into_config();
    let swept = CaseMatrix::enumerate(&dup_kvstore::KvStoreSystem, &swept_config);
    // Two added workloads double the stress-only axis: per (pair, scenario,
    // faults, durability) slot the workload list grows from 1 to 3.
    assert_eq!(swept.len(), base.len() * 3);
    let open_loop_cases = (0..swept.len())
        .map(|i| swept.case_at(i))
        .filter(|c| matches!(c.workload, WorkloadSpec::OpenLoop(_)))
        .count();
    assert_eq!(open_loop_cases, base.len() * 2);
}

#[test]
fn open_loop_repro_strings_round_trip_and_surface_in_reports() {
    // Display/parse round-trip over the specs campaigns actually use.
    for spec in [OpenLoopSpec::small(), OpenLoopSpec::million()] {
        let rendered = WorkloadSpec::OpenLoop(spec).to_string();
        assert!(rendered.starts_with("open:"), "{rendered}");
        assert_eq!(
            WorkloadSpec::parse(&rendered),
            Some(WorkloadSpec::OpenLoop(spec)),
            "{rendered} must parse back"
        );
    }
    // The legacy variants stay byte-stable so paper-scenario repro strings
    // (and derived prefix seeds) are unchanged by the API redesign.
    assert_eq!(WorkloadSpec::Stress.to_string(), "stress");
    assert_eq!(
        WorkloadSpec::parse("unit:testCompactTables"),
        Some(WorkloadSpec::TranslatedUnit("testCompactTables".into()))
    );
    // An open-loop campaign over the seeded gossip-bug pair must carry the
    // workload spec in every failure's repro line.
    let report = Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1])
        .scenarios([Scenario::Rolling])
        .unit_tests(false)
        .workloads([OpenLoopSpec::small()])
        .run();
    let failures = report.failures_on(v("1.1.0"), v("1.2.0"));
    assert!(!failures.is_empty(), "seeded bug lost under open-loop axis");
    let open_repro = report
        .failures
        .iter()
        .map(|f| f.repro())
        .find(|r| r.contains("workload=open:"));
    if let Some(repro) = &open_repro {
        let token = repro
            .split_whitespace()
            .find_map(|t| t.strip_prefix("workload="))
            .expect("repro carries a workload token");
        assert!(
            WorkloadSpec::parse(token).is_some(),
            "repro workload token must parse: {token}"
        );
    }
    for f in &report.failures {
        assert!(
            report.render_table().contains(&f.repro()),
            "table lacks {}",
            f.repro()
        );
    }
}

#[test]
fn million_clients_cost_the_same_arrivals_as_a_thousand() {
    // The open-loop model's whole point: client count is an arithmetic
    // parameter, not per-client state, so scaling clients 1000x leaves the
    // arrival schedule's shape — and the case's cost — unchanged.
    let run = |spec: OpenLoopSpec| {
        let case = TestCase {
            from: v("2.1.0"),
            to: v("3.0.0"),
            scenario: Scenario::Rolling,
            workload: WorkloadSpec::OpenLoop(spec),
            seed: 11,
            faults: FaultIntensity::Off,
            durability: Durability::Strict,
        };
        let mut runner = CaseRunner::new(&dup_kvstore::KvStoreSystem);
        case.run_in(&mut runner).digest
    };
    let small = run(OpenLoopSpec::small());
    let million = run(OpenLoopSpec::million());
    assert!(small.events_processed > 0);
    // Same seed, same rate, same window: the schedules differ only in which
    // logical client each arrival maps to, so the simulated work is within
    // a small factor (client ids feed into op payloads, not op counts).
    let lo = small.events_processed / 2;
    let hi = small.events_processed * 2;
    assert!(
        (lo..=hi).contains(&million.events_processed),
        "10^6 clients changed the work: {} vs {}",
        million.events_processed,
        small.events_processed
    );
}

#[test]
fn migration_storm_is_reported_under_open_loop_traffic() {
    // `upbench`'s two open-loop specs on the CASSANDRA-13441 pair, at seeds
    // where the storm starts (it needs a schema pull the upgraded node
    // serves, which not every seed's gossip schedule makes).
    let spec = |read_pct| OpenLoopSpec {
        clients: 1_000_000,
        rate_per_sec: 500,
        read_pct,
        ..OpenLoopSpec::small()
    };
    let pinned: [(u8, &[u64]); 2] = [(90, &[1001, 1002, 1003, 1004]), (10, &[1002, 1004])];
    let mut runner = CaseRunner::with_options(&dup_kvstore::KvStoreSystem, None, true);
    for (read_pct, seeds) in pinned {
        for &seed in seeds {
            let case = TestCase {
                from: v("3.0.0"),
                to: v("3.11.0"),
                scenario: Scenario::Rolling,
                workload: WorkloadSpec::OpenLoop(spec(read_pct)),
                seed,
                faults: FaultIntensity::Off,
                durability: Durability::Strict,
            };
            let outcome = case.run_in(&mut runner).outcome;
            let storm = matches!(&outcome, CaseOutcome::Fail(observations)
                if observations.iter().any(|o| matches!(o, Observation::MessageStorm { .. })));
            assert!(storm, "m{read_pct} seed {seed}: {outcome:?}");
        }
    }
}
