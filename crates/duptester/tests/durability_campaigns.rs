//! The crash-durability axis and the self-protecting executor, end to end.
//!
//! Four contracts ride on this file:
//!
//! 1. **Determinism replay** — a campaign sweeping durability modes renders
//!    a byte-identical report on 1 thread and on 4, and twice in a row; the
//!    crash-materialized storage images a torn-durability run leaves behind
//!    are byte-identical across replays of the same seed and plan.
//! 2. **False-positive guard** — a *same-version* "upgrade" under heavy
//!    faults and torn durability must report zero upgrade failures in every
//!    scenario: injected crashes and torn tails are the tester's own chaos,
//!    not the system's bugs.
//! 3. **Panic isolation** — a case whose harness execution panics costs that
//!    one case (reported `Panicked`, with a repro line that panics again);
//!    sibling cases complete normally.
//! 4. **Watchdog** — a case that never terminates is cut off at the event
//!    budget and reported `Hung` instead of wedging a worker thread.

mod common;

use dup_core::{ClientOp, NodeSetup, SystemUnderTest, VersionId, WorkloadPhase};
use dup_simnet::{Ctx, Endpoint, Process, Sim, SimDuration, SimTime, StepResult};
use dup_tester::{
    fault_plan_for, Campaign, Durability, FaultIntensity, Scenario, TestCase, WorkloadSpec,
};

fn v(s: &str) -> VersionId {
    s.parse().unwrap()
}

fn durability_campaign(threads: usize) -> dup_tester::CampaignReport {
    Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1])
        .scenarios([Scenario::Rolling])
        .unit_tests(false)
        .faults([FaultIntensity::Heavy])
        .durabilities([Durability::Strict, Durability::Buffered, Durability::Torn])
        .threads(threads)
        .run()
}

#[test]
fn snapshot_campaigns_match_no_snapshot_campaigns_byte_for_byte() {
    // The snapshot-and-fork contract: prefix reuse is a pure performance
    // choice. Sweep faults × durabilities × seeds, then compare the
    // snapshotting campaign against the no-snapshot reference at 1 and 4
    // threads, twice each — every rendered byte and every digest sum must
    // agree.
    let run = |threads: usize, snapshot: bool| {
        Campaign::builder(&dup_kvstore::KvStoreSystem)
            .seeds([1, 2, 3])
            .scenarios([Scenario::Rolling])
            .unit_tests(false)
            .faults([FaultIntensity::Off, FaultIntensity::Heavy])
            .durabilities([Durability::Strict, Durability::Torn])
            .threads(threads)
            .snapshot(snapshot)
            .run()
    };
    let reference = run(1, false);
    assert!(reference.cases_run >= 12, "sweep too small");
    for threads in [1, 4] {
        for repeat in 0..2 {
            let on = run(threads, true);
            assert_eq!(
                reference.render_table(),
                on.render_table(),
                "snapshot-on diverged (threads={threads}, repeat={repeat})"
            );
            assert_eq!(reference.failures, on.failures);
            assert_eq!(reference.sim_events_processed, on.sim_events_processed);
            assert_eq!(reference.sim_messages_delivered, on.sim_messages_delivered);
            assert_eq!(reference.sim_faults_injected, on.sim_faults_injected);
            let off = run(threads, false);
            assert_eq!(
                reference.render_table(),
                off.render_table(),
                "snapshot-off diverged (threads={threads}, repeat={repeat})"
            );
        }
    }
    common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &reference);
}

#[test]
fn durability_campaign_report_is_thread_count_and_rerun_invariant() {
    let seq = durability_campaign(1);
    let par = durability_campaign(4);
    let again = durability_campaign(1);

    assert!(seq.cases_run >= 3, "durability axis did not multiply cases");
    assert_eq!(seq.sim_events_processed, par.sim_events_processed);
    assert_eq!(seq.sim_messages_delivered, par.sim_messages_delivered);
    assert_eq!(seq.sim_faults_injected, par.sim_faults_injected);
    assert_eq!(seq.failures, par.failures);
    assert_eq!(seq.render_table(), par.render_table());
    assert_eq!(seq.render_table(), again.render_table());
    // Every reported failure replays from its repro line, durability mode
    // included.
    common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &seq);
}

/// The warm-runner campaign contract with everything on at once: faults,
/// buffered and torn durability, and tracing. Each worker's warm runner
/// sweeps many seed groups back to back, so two runs at 1 thread and two at
/// 4 exercise warm reuse in every dispatch shape — all four reports must be
/// byte-identical.
#[test]
fn traced_torn_campaign_is_identical_across_threads_and_warm_reruns() {
    let run = |threads: usize| {
        Campaign::builder(&dup_kvstore::KvStoreSystem)
            .seeds([1, 2])
            .scenarios([Scenario::Rolling])
            .unit_tests(false)
            .faults([FaultIntensity::Light, FaultIntensity::Heavy])
            .durabilities([Durability::Buffered, Durability::Torn])
            .threads(threads)
            .trace(dup_tester::TraceConfig::default())
            .run()
    };
    let runs = [run(1), run(1), run(4), run(4)];
    assert!(runs[0].cases_run >= 8, "axes did not multiply the matrix");
    for other in &runs[1..] {
        assert_eq!(runs[0].failures, other.failures);
        assert_eq!(runs[0].render_table(), other.render_table());
        assert_eq!(runs[0].sim_events_processed, other.sim_events_processed);
        assert_eq!(runs[0].sim_faults_injected, other.sim_faults_injected);
        assert_eq!(
            runs[0].metrics.trace_events_recorded,
            other.metrics.trace_events_recorded
        );
    }
    common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &runs[0]);
}

/// One host's crash-materialized storage image: (host, file paths + bytes).
type HostImage = (String, Vec<(String, Vec<u8>)>);

/// Boots a same-version kvstore cluster under a torn-durability heavy fault
/// plan, lets the plan crash nodes, and returns every host's
/// crash-materialized storage image.
fn torn_storage_images(seed: u64) -> Vec<HostImage> {
    let sut = &dup_kvstore::KvStoreSystem;
    let n = sut.cluster_size();
    let mut sim = Sim::new(seed);
    for i in 0..n {
        let mut setup = NodeSetup::new(i, n);
        setup.config = sut.default_config();
        let id = sim.add_node(&format!("host-{i}"), "2.1.0", sut.spawn(v("2.1.0"), &setup));
        sim.start_node(id).expect("node starts");
    }
    let plan = fault_plan_for(
        FaultIntensity::Heavy,
        Durability::Torn,
        seed,
        n,
        SimTime::ZERO,
    )
    .expect("heavy+torn always yields a plan");
    sim.install_fault_plan(plan);
    sim.run_for(SimDuration::from_secs(30));
    assert!(sim.faults_injected() > 0, "plan injected nothing");
    (0..n)
        .map(|i| {
            let host = format!("host-{i}");
            let host_id = sim.host_id(&host);
            let files = match sim.host_storage_by_id_ref(host_id) {
                Some(storage) => storage
                    .list("")
                    .into_iter()
                    .map(|path| {
                        let bytes = storage.read(&path).expect("listed file reads").to_vec();
                        (path, bytes)
                    })
                    .collect(),
                None => Vec::new(),
            };
            (host, files)
        })
        .collect()
}

#[test]
fn crash_materialized_storage_images_replay_byte_identically() {
    for seed in [1, 7] {
        let one = torn_storage_images(seed);
        let two = torn_storage_images(seed);
        assert!(
            one.iter().any(|(_, files)| !files.is_empty()),
            "seed {seed}: no host wrote any files"
        );
        assert_eq!(one, two, "seed {seed}: recovery images diverged");
    }
}

#[test]
fn heavy_torn_crashes_on_same_version_pair_report_zero_upgrade_failures() {
    // A system "upgraded" to its own version has no upgrade bugs by
    // construction; anything the oracle reports under heavy faults *plus*
    // mid-upgrade crash points and torn tails is injected chaos bleeding
    // through — exactly what the flush points at commit boundaries and the
    // crash-exempt oracle rules must prevent. Extended scenarios included:
    // same-version downgrades, hops, and churn are equally bug-free.
    for scenario in Scenario::extended() {
        for seed in [1, 2, 3] {
            let case = TestCase {
                from: v("2.1.0"),
                to: v("2.1.0"),
                scenario,
                workload: WorkloadSpec::Stress,
                seed,
                faults: FaultIntensity::Heavy,
                durability: Durability::Torn,
            };
            let outcome = case.run(&dup_kvstore::KvStoreSystem);
            assert!(
                !outcome.is_failure(),
                "injected crash misread as an upgrade failure \
                 (scenario {scenario}, seed {seed}): {outcome:?}"
            );
        }
    }
}

// ---- toy systems for the self-protection contracts ------------------------

/// Replies `OK` to every client command; otherwise inert.
struct Echo;

impl Process for Echo {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) -> StepResult {
        Ok(())
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, _payload: &[u8]) -> StepResult {
        ctx.send(from, bytes::Bytes::from_static(b"OK"));
        Ok(())
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _id: u64) -> StepResult {
        Ok(())
    }
}

/// A buggy SUT adapter: workload generation panics for one specific seed.
struct PanickySut;

impl SystemUnderTest for PanickySut {
    fn name(&self) -> &'static str {
        "panicky-toy"
    }
    fn versions(&self) -> Vec<VersionId> {
        vec![v("1.0.0"), v("2.0.0")]
    }
    fn cluster_size(&self) -> u32 {
        1
    }
    fn spawn(&self, _version: VersionId, _setup: &NodeSetup) -> Box<dyn Process> {
        Box::new(Echo)
    }
    fn stress_ops(
        &self,
        seed: u64,
        phase: WorkloadPhase,
        _client_version: VersionId,
        emit: &mut dyn FnMut(ClientOp),
    ) {
        // Keyed on the during-upgrade phase: that is the seed-dependent
        // suffix, so exactly one seed's case panics (the before-upgrade
        // phase draws from the shared, seed-independent prefix seed).
        if seed == 2 && phase == WorkloadPhase::DuringUpgrade {
            panic!("deliberate toy panic for seed 2");
        }
        emit(ClientOp::new(0, "HEALTH"));
    }
}

#[test]
fn panicking_case_is_isolated_and_siblings_complete() {
    let run = |threads: usize| {
        Campaign::builder(&PanickySut)
            .seeds([1, 2, 3])
            .scenarios([Scenario::FullStop])
            .unit_tests(false)
            .threads(threads)
            .run()
    };
    let report = run(1);
    assert_eq!(report.cases_run, 3, "all cases must execute");
    assert_eq!(report.cases_passed, 2, "sibling cases must pass");
    let counts = report.metrics.per_scenario[&Scenario::FullStop];
    assert_eq!(counts.panicked, 1, "{counts:?}");
    let failure = report
        .failures
        .iter()
        .find(|f| f.cause == "Harness Panic")
        .expect("the panic surfaces as a failure report");
    assert_eq!(failure.spec.case.seed, 2);
    assert!(failure.signature.contains("panic"), "{}", failure.signature);
    common::assert_failures_replay(&PanickySut, &report);
    assert!(
        report.render_table().contains(&failure.repro()),
        "table lacks the panic repro"
    );
    // Panics are deterministic: the parallel report is byte-identical.
    assert_eq!(report.render_table(), run(4).render_table());
}

/// A runaway SUT: every node spins a zero-delay timer forever, so no phase
/// of the harness timeline can ever drain the event queue.
struct Spinner;

impl Process for Spinner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        ctx.set_timer(SimDuration::from_millis(0), 1);
        Ok(())
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, _payload: &[u8]) -> StepResult {
        ctx.send(from, bytes::Bytes::from_static(b"OK"));
        Ok(())
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: u64) -> StepResult {
        ctx.set_timer(SimDuration::from_millis(0), 1);
        Ok(())
    }
}

/// A SUT whose nodes never quiesce.
struct RunawaySut;

impl SystemUnderTest for RunawaySut {
    fn name(&self) -> &'static str {
        "runaway-toy"
    }
    fn versions(&self) -> Vec<VersionId> {
        vec![v("1.0.0"), v("2.0.0")]
    }
    fn cluster_size(&self) -> u32 {
        1
    }
    fn spawn(&self, _version: VersionId, _setup: &NodeSetup) -> Box<dyn Process> {
        Box::new(Spinner)
    }
    fn stress_ops(
        &self,
        _seed: u64,
        _phase: WorkloadPhase,
        _client_version: VersionId,
        emit: &mut dyn FnMut(ClientOp),
    ) {
        emit(ClientOp::new(0, "HEALTH"));
    }
}

#[test]
fn runaway_case_is_cut_off_and_reported_hung() {
    // Three seeds share one prefix, and that prefix runs away. A runaway
    // prefix is never cached, so every sibling runs it again: snapshotting
    // on and off must agree case for case.
    let run = |snapshot| {
        Campaign::builder(&RunawaySut)
            .seeds([1, 2, 3])
            .scenarios([Scenario::FullStop])
            .unit_tests(false)
            .snapshot(snapshot)
            .threads(1)
            .run()
    };
    let (forked, replayed) = (run(true), run(false));
    for report in [&forked, &replayed] {
        assert_eq!(report.cases_run, 3);
        assert_eq!(report.metrics.per_scenario[&Scenario::FullStop].hung, 3);
        // A timer loop delivers no messages, so no storm verdict ends it early.
        assert_eq!(report.cases_decided_early, 0);
        let failure = report
            .failures
            .first()
            .expect("the hang surfaces as a failure report");
        assert_eq!(failure.cause, "Non-termination");
        assert_eq!(failure.signature, "hung");
        common::assert_failures_replay(&RunawaySut, report);
    }
    assert_eq!(forked.render_table(), replayed.render_table());
}
