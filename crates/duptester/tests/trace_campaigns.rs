//! Causal-trace campaigns: every distinct failure of the seeded-bug sweep
//! must carry a bounded causal slice whose lineage chain ends at the
//! violating observation — and the slices, like everything else in a
//! campaign report, must be byte-identical across worker-thread counts and
//! across reruns, faults and torn durability included.
//!
//! Rendered slices are also written to `target/trace-slices/` so CI can
//! upload them as artifacts when a campaign test fails.

mod common;

use dup_tester::{
    Campaign, CampaignObserver, CampaignReport, Durability, FaultIntensity, Scenario, TestCase,
    TraceConfig, TraceSlice,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn traced_campaign(threads: usize) -> CampaignReport {
    Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1])
        .scenarios([Scenario::FullStop, Scenario::Rolling])
        .threads(threads)
        .trace(TraceConfig::default())
        .run()
}

/// The directory campaign test jobs upload as a CI artifact on failure.
fn slice_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/trace-slices");
    std::fs::create_dir_all(&dir).expect("create target/trace-slices");
    dir
}

/// Writes every failure's rendered slice (timeline + Chrome JSON) under
/// `target/trace-slices/<prefix>-<index>.*` before any assertion runs, so a
/// failing test still leaves the evidence behind for the artifact upload.
fn dump_slices(prefix: &str, report: &CampaignReport) {
    let dir = slice_dir();
    for (i, failure) in report.failures.iter().enumerate() {
        let rendered = failure.render();
        std::fs::write(dir.join(format!("{prefix}-{i}.txt")), rendered).expect("write timeline");
        if let Some(slice) = &failure.trace {
            std::fs::write(
                dir.join(format!("{prefix}-{i}.json")),
                slice.to_chrome_json(),
            )
            .expect("write chrome json");
        }
    }
}

#[test]
fn every_failure_carries_a_slice_ending_at_the_observation() {
    let report = traced_campaign(1);
    dump_slices("seeded-bugs", &report);
    assert!(!report.failures.is_empty(), "seeded bugs must be found");
    for failure in &report.failures {
        let slice = failure
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("failure without a trace slice: {failure}"));
        assert!(!slice.is_empty(), "empty slice on: {failure}");
        assert!(slice.events_recorded > 0);
        let last = slice
            .lineage
            .last()
            .unwrap_or_else(|| panic!("empty lineage on: {failure}"));
        assert!(
            last.kind.to_string().starts_with("observation"),
            "lineage must end at the violating observation, got {last} on: {failure}"
        );
        // The timeline and the Chrome export both render the anchor.
        assert!(slice
            .render_timeline()
            .contains("lineage (cause -> violation):"));
        let json = slice.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"cat\":\"lineage\""), "{json}");
    }
    // The engine's metrics aggregated the per-case counters, and the
    // rendered table carries both the trace summary line and the timelines.
    assert!(report.metrics.trace_events_recorded > 0);
    let table = report.render_table();
    assert!(table.contains("trace:"));
    assert!(table.contains("lineage (cause -> violation):"));
    // Replayed untraced, every failure keeps its signature.
    common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &report);
}

#[test]
fn traced_reports_are_byte_identical_across_threads_and_reruns() {
    let seq = traced_campaign(1);
    let par = traced_campaign(4);
    let rerun = traced_campaign(1);
    dump_slices("threads-1", &seq);
    dump_slices("threads-4", &par);
    // FailureReport equality covers the attached slices event by event.
    assert_eq!(
        seq.failures, par.failures,
        "slices must not depend on threads"
    );
    assert_eq!(
        seq.failures, rerun.failures,
        "slices must replay across reruns"
    );
    assert_eq!(seq.render_table(), par.render_table());
    assert_eq!(seq.render_table(), rerun.render_table());
    assert_eq!(
        seq.metrics.trace_events_recorded,
        par.metrics.trace_events_recorded
    );
    assert_eq!(
        seq.metrics.trace_events_dropped,
        par.metrics.trace_events_dropped
    );
}

#[test]
fn traced_snapshot_campaigns_match_no_snapshot_campaigns() {
    // Snapshot-and-fork with the trace ring live: restored prefixes carry
    // the trace buffer too, so slices — the most state-sensitive output a
    // campaign renders — must be byte-identical with snapshotting on or
    // off, at 1 and 4 threads, twice each.
    let run = |threads: usize, snapshot: bool| {
        Campaign::builder(&dup_kvstore::KvStoreSystem)
            .seeds([1, 2])
            .scenarios([Scenario::FullStop, Scenario::Rolling])
            .threads(threads)
            .snapshot(snapshot)
            .trace(TraceConfig::default())
            .run()
    };
    let reference = run(1, false);
    assert!(
        !reference.failures.is_empty(),
        "seeded bugs must be found so slices are compared"
    );
    for threads in [1, 4] {
        for repeat in 0..2 {
            let on = run(threads, true);
            // FailureReport equality covers attached slices event by event.
            assert_eq!(
                reference.failures, on.failures,
                "threads={threads}, repeat={repeat}"
            );
            assert_eq!(reference.render_table(), on.render_table());
            assert_eq!(
                reference.metrics.trace_events_recorded,
                on.metrics.trace_events_recorded
            );
            assert_eq!(
                reference.metrics.trace_events_dropped,
                on.metrics.trace_events_dropped
            );
        }
    }
}

/// Heavy faults + torn durability: the adversarial end of the matrix, where
/// drops, duplicates, partitions, injected crashes, and torn storage tails
/// all feed the trace. Slices must still replay byte-identically.
#[test]
fn traced_slices_replay_under_heavy_faults_and_torn_durability() {
    let run = |threads: usize| {
        Campaign::builder(&dup_kvstore::KvStoreSystem)
            .seeds([1, 2])
            .scenarios([Scenario::Rolling])
            .unit_tests(false)
            .faults([FaultIntensity::Heavy])
            .durabilities([Durability::Torn])
            .threads(threads)
            .trace(TraceConfig {
                // Small ring: force wrap so eviction semantics are under test.
                capacity: 512,
                tail_events: 8,
                lineage_limit: 16,
            })
            .run()
    };
    let seq = run(1);
    let par = run(4);
    dump_slices("heavy-torn", &seq);
    assert_eq!(seq.failures, par.failures);
    assert_eq!(seq.render_table(), par.render_table());
    // Wrap definitely happened with a 512-slot ring under heavy chaos.
    assert!(seq.metrics.trace_events_dropped > 0, "ring never wrapped");
    for failure in &seq.failures {
        let slice = failure.trace.as_ref().expect("traced failure");
        assert!(!slice.is_empty());
        assert!(slice.events_dropped > 0);
    }
    common::assert_failures_replay(&dup_kvstore::KvStoreSystem, &seq);
}

/// A single traced case replays its slice byte-for-byte, and an untraced run
/// of the same case returns no slice.
#[test]
fn single_case_slice_is_reproducible() {
    let case = TestCase {
        from: "1.1.0".parse().unwrap(),
        to: "1.2.0".parse().unwrap(),
        scenario: Scenario::Rolling,
        workload: dup_tester::WorkloadSpec::Stress,
        seed: 1,
        faults: Default::default(),
        durability: Default::default(),
    };
    let config = Some(TraceConfig::default());
    // One warm runner executing the case twice: the second run reuses the
    // pooled trace ring via `Sim::reset`, and must replay byte-for-byte.
    let mut runner = dup_tester::CaseRunner::with_trace(&dup_kvstore::KvStoreSystem, config);
    let r1 = case.run_in(&mut runner);
    let r2 = case.run_in(&mut runner);
    assert!(
        r1.outcome.is_failure(),
        "seeded pair should fail: {:?}",
        r1.outcome
    );
    assert_eq!(r1.outcome, r2.outcome);
    assert_eq!(r1.digest, r2.digest);
    assert!(r1.digest.trace_events_recorded > 0);
    let (slice1, slice2) = (r1.slice.expect("slice"), r2.slice.expect("slice"));
    assert_eq!(slice1.render_timeline(), slice2.render_timeline());
    assert_eq!(slice1.to_chrome_json(), slice2.to_chrome_json());
    // Untraced: no slice, zero trace counters, same outcome.
    let r3 = case.run_in(&mut dup_tester::CaseRunner::new(
        &dup_kvstore::KvStoreSystem,
    ));
    assert_eq!(r1.outcome, r3.outcome);
    assert!(r3.slice.is_none());
    assert_eq!(r3.digest.trace_events_recorded, 0);
    assert_eq!(r3.digest.events_processed, r1.digest.events_processed);
}

/// One warm runner sweeping the heavy-fault torn-durability case list twice
/// must match a fresh runner per case, result for result — outcome, digest,
/// and slice. This is the warm-reuse contract at the case level: ten
/// thousand prior cases on the runner may not change case ten thousand and
/// one.
#[test]
fn warm_runner_sweep_matches_fresh_runners_case_for_case() {
    let sut = &dup_kvstore::KvStoreSystem;
    let trace = Some(TraceConfig {
        // Small ring: wrap-around eviction is part of the replayed state.
        capacity: 512,
        tail_events: 8,
        lineage_limit: 16,
    });
    let config = Campaign::builder(sut)
        .seeds([1, 2])
        .scenarios([Scenario::Rolling])
        .unit_tests(false)
        .faults([FaultIntensity::Heavy])
        .durabilities([Durability::Torn])
        .into_config();
    let matrix = dup_tester::CaseMatrix::enumerate(sut, &config);
    assert!(!matrix.is_empty());
    let mut warm = dup_tester::CaseRunner::with_trace(sut, trace);
    for pass in 0..2 {
        for case in matrix.iter() {
            let w = case.run_in(&mut warm);
            let f = case.run_in(&mut dup_tester::CaseRunner::with_trace(sut, trace));
            assert_eq!(w.outcome, f.outcome, "pass {pass}, case {case:?}");
            assert_eq!(w.digest, f.digest, "pass {pass}, case {case:?}");
            assert_eq!(
                w.slice.map(|s| s.render_timeline()),
                f.slice.map(|s| s.render_timeline()),
                "pass {pass}, case {case:?}"
            );
        }
    }
}

#[derive(Default)]
struct SliceCollector {
    failures: AtomicUsize,
    slices: Mutex<Vec<TraceSlice>>,
}

impl CampaignObserver for SliceCollector {
    fn on_failure_found(
        &self,
        _index: usize,
        _case: &TestCase,
        _failure: &dup_tester::FailureReport,
    ) {
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    fn on_trace_slice(&self, _index: usize, _case: &TestCase, slice: &TraceSlice) {
        self.slices.lock().unwrap().push(slice.clone());
    }
}

/// `on_trace_slice` fires once per distinct failure (alongside
/// `on_failure_found`) and hands the observer the same slice the report
/// carries.
#[test]
fn observer_sees_one_slice_per_distinct_failure() {
    let obs = std::sync::Arc::new(SliceCollector::default());
    let report = Campaign::builder(&dup_kvstore::KvStoreSystem)
        .seeds([1])
        .scenarios([Scenario::FullStop])
        .trace(TraceConfig::default())
        .observer(std::sync::Arc::clone(&obs))
        .run();
    assert_eq!(obs.failures.load(Ordering::Relaxed), report.failures.len());
    let slices = obs.slices.lock().unwrap();
    assert_eq!(slices.len(), report.failures.len());
    for (seen, failure) in slices.iter().zip(&report.failures) {
        assert_eq!(Some(seen), failure.trace.as_ref());
    }
}
