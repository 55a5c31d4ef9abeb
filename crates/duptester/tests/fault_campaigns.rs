//! Faulted campaigns: the fault-intensity axis end to end.
//!
//! Three contracts ride on this file:
//!
//! 1. **Determinism replay** — the same faulted campaign renders a
//!    byte-identical report on 1 thread and on 4, and twice in a row; case
//!    digests (including injected-fault counts) are reproducible.
//! 2. **False-positive guard** — a *same-version* "upgrade" under heavy
//!    faults must report zero upgrade failures in every scenario: the
//!    oracle must not mistake injected chaos for the system's own bugs.
//! 3. **Repro strings** — every failure a faulted campaign reports carries
//!    a `repro:` line that parses back and replays the failure (the
//!    concrete fault plan derives from the intensity, durability and seed).

mod common;

use dup_core::VersionId;
use dup_simnet::SimTime;
use dup_tester::{
    fault_plan_for, Campaign, CaseMatrix, Durability, FaultIntensity, Scenario, TestCase,
    WorkloadSpec,
};

fn v(s: &str) -> VersionId {
    s.parse().unwrap()
}

fn faulted_campaign(threads: usize) -> dup_tester::CampaignReport {
    Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1])
        .scenarios([Scenario::Rolling])
        .unit_tests(false)
        .faults([FaultIntensity::Off, FaultIntensity::Heavy])
        .threads(threads)
        .run()
}

#[test]
fn faulted_campaign_report_is_thread_count_and_rerun_invariant() {
    let seq = faulted_campaign(1);
    let par = faulted_campaign(4);
    let again = faulted_campaign(1);

    assert!(
        seq.sim_faults_injected > 0,
        "heavy intensity must actually inject faults"
    );
    assert_eq!(seq.sim_events_processed, par.sim_events_processed);
    assert_eq!(seq.sim_messages_delivered, par.sim_messages_delivered);
    assert_eq!(seq.sim_faults_injected, par.sim_faults_injected);
    assert_eq!(seq.render_table(), par.render_table());
    assert_eq!(seq.render_table(), again.render_table());
    common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &seq);
}

#[test]
fn case_digest_reproducible_under_faults() {
    let case = TestCase {
        from: v("2.1.0"),
        to: v("3.0.0"),
        scenario: Scenario::Rolling,
        workload: WorkloadSpec::Stress,
        seed: 7,
        faults: FaultIntensity::Heavy,
        durability: Default::default(),
    };
    // A warm runner executing the faulted case twice reinstalls its fault
    // plan into the pooled state both times; the digests must not drift.
    let mut runner = dup_tester::CaseRunner::new(&dup_kvstore::KvStoreSystem);
    let r1 = case.run_in(&mut runner);
    let r2 = case.run_in(&mut runner);
    assert_eq!(
        r1.digest, r2.digest,
        "faulted case digest must be reproducible"
    );
    assert!(r1.digest.faults_injected > 0, "heavy plan injected nothing");
    assert_eq!(format!("{:?}", r1.outcome), format!("{:?}", r2.outcome));

    let off = TestCase {
        faults: FaultIntensity::Off,
        durability: Default::default(),
        ..case
    };
    // The faults-off case runs on the same warm runner: a plan-less fault
    // injector stays inactive and injects nothing.
    let d_off = off.run_in(&mut runner).digest;
    assert_eq!(d_off.faults_injected, 0, "faults off must inject nothing");
}

#[test]
fn heavy_faults_on_same_version_pair_report_zero_upgrade_failures() {
    // A system "upgraded" to its own version has no upgrade bugs by
    // construction; anything the oracle reports under heavy chaos is the
    // fault injection bleeding through — exactly what it must not do.
    // Extended scenarios included: same-version rollback, hops, canary, and
    // churn plans are equally bug-free.
    for scenario in Scenario::extended() {
        for seed in [1, 2, 3] {
            let case = TestCase {
                from: v("2.1.0"),
                to: v("2.1.0"),
                scenario,
                workload: WorkloadSpec::Stress,
                seed,
                faults: FaultIntensity::Heavy,
                durability: Default::default(),
            };
            let outcome = case.run(&dup_kvstore::KvStoreSystem);
            assert!(
                !outcome.is_failure(),
                "injected chaos misread as an upgrade failure \
                 (scenario {scenario}, seed {seed}): {outcome:?}"
            );
        }
    }
}

#[test]
fn faulted_failures_carry_repro_strings() {
    // 1.1.0 -> 1.2.0 rolling is the seeded CASSANDRA-4195 gossip bug; it
    // must still be found with faults on, and the report must say how to
    // replay it.
    let report = Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1])
        .scenarios([Scenario::Rolling])
        .unit_tests(false)
        .faults([FaultIntensity::Light])
        .run();
    let failures = report.failures_on(v("1.1.0"), v("1.2.0"));
    assert!(!failures.is_empty(), "seeded bug lost under light faults");
    common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &report);
    for f in &report.failures {
        let repro = f.repro();
        assert!(
            report.render_table().contains(&repro),
            "table lacks {repro}"
        );
    }
}

#[test]
fn fault_axis_multiplies_the_matrix_with_seeds_innermost() {
    let base_config = dup_tester::Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1, 2])
        .scenarios([Scenario::FullStop])
        .unit_tests(false)
        .into_config();
    let base = CaseMatrix::enumerate(&dup_kvstore::KvStoreSystem, &base_config);
    let swept_config = dup_tester::Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1, 2])
        .scenarios([Scenario::FullStop])
        .unit_tests(false)
        .faults(FaultIntensity::ALL)
        .into_config();
    let swept = CaseMatrix::enumerate(&dup_kvstore::KvStoreSystem, &swept_config);
    assert_eq!(swept.len(), base.len() * FaultIntensity::ALL.len());
    // Every seed group holds one intensity across all seeds, and every
    // intensity shows up.
    let mut seen = std::collections::BTreeSet::new();
    for g in swept.groups() {
        let cases: Vec<TestCase> = g.indices().map(|i| swept.case_at(i)).collect();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].faults, cases[1].faults);
        assert_eq!((cases[0].seed, cases[1].seed), (1, 2));
        seen.insert(cases[0].faults);
    }
    assert_eq!(seen.len(), 3);
}

#[test]
fn plan_derivation_matches_what_cases_record() {
    // The repro contract: the plan a failing case ran under is recomputable
    // from its intensity + seed + cluster size alone.
    let n = 3;
    let a = fault_plan_for(
        FaultIntensity::Heavy,
        Durability::Strict,
        42,
        n,
        SimTime::ZERO,
    )
    .unwrap();
    let b = fault_plan_for(
        FaultIntensity::Heavy,
        Durability::Strict,
        42,
        n,
        SimTime::ZERO,
    )
    .unwrap();
    assert_eq!(a.describe(), b.describe());
    assert_ne!(
        a.describe(),
        fault_plan_for(
            FaultIntensity::Light,
            Durability::Strict,
            42,
            n,
            SimTime::ZERO
        )
        .unwrap()
        .describe(),
        "intensities must differ"
    );
}
