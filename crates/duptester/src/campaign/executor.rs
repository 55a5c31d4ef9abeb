//! The campaign engine: a worker pool over the case matrix with
//! deterministic, completion-order-independent aggregation.
//!
//! # Threading model
//!
//! Every [`TestCase`] is deterministic in its seed, so cases are
//! embarrassingly parallel. The executor enumerates the matrix
//! arithmetically ([`CaseMatrix`] — O(groups) memory, no materialized case
//! list), then `std::thread::scope`d workers pull *batches* — runs of
//! consecutive seed groups sharing one (version pair, scenario) — off a
//! shared atomic queue. Each worker owns one warm [`CaseRunner`] for the
//! whole campaign: `Sim::reset` recycles the simulator's pooled allocations
//! between cases, and (with snapshotting on, the default) `Sim::restore`
//! replays each seed group's shared warmup prefix from a snapshot instead
//! of re-executing it. Seeds of a group run in order on one worker, which
//! keeps dedup-aware seed pruning deterministic; every case is folded into
//! its worker's `Tally` the moment it finishes — counters and metrics
//! summed per worker, failures deduplicated per group on the spot, so
//! result memory is O(groups × distinct failure signatures), never O(cases)
//! or O(failing cases) — and the groups' failures are merged afterwards
//! **in matrix order**, so the report is byte-identical whether the
//! campaign ran on one thread or many, whether the runners were warm or
//! fresh, and whether snapshotting was on or off.
//! (`upbench`'s `million_cases`, 1 000 020 cases of which 100 002 fail onto
//! 3 signatures: peak RSS 70.3 MiB with every failing case kept until
//! aggregation, 3.7 MiB folded — `BENCH_upbench.json`.)

use crate::campaign::matrix::{CaseMatrix, SeedGroup};
use crate::campaign::observer::{CampaignObserver, NoopObserver};
use crate::campaign::report::{CampaignReport, CaseStatus, FailureFold};
use crate::campaign::search::{run_search_group, SearchConfig, SearchPools, SearchReport};
use crate::faults::{FaultIntensity, PlanNudge};
use crate::harness::{CaseDigest, CaseOutcome, CaseResult, CaseRunner};
use crate::oracle::Observation;
use crate::scenario::Scenario;
use crate::spec::TestCase;
use dup_core::SystemUnderTest;
use dup_simnet::{Durability, TraceConfig};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Campaign configuration. Constructed through [`Campaign::builder`] (or
/// [`CampaignConfig::default`]): every axis has a builder setter, and the
/// fields themselves are crate-private so a config can never be assembled
/// half-initialized by a struct literal.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds to try per case (Finding 11: ~89% of bugs need only one; the
    /// timing-dependent rest benefit from a few).
    pub(crate) seeds: Vec<u64>,
    /// Also test version pairs at distance two (Finding 9's extra 9%).
    pub(crate) include_gap_two: bool,
    /// Scenarios to run.
    pub(crate) scenarios: Vec<Scenario>,
    /// Include unit-test-derived workloads.
    pub(crate) use_unit_tests: bool,
    /// Fault intensities to sweep per (pair, scenario, workload)
    /// combination. Defaults to `[FaultIntensity::Off]` — the pre-fault-axis
    /// matrix exactly.
    pub(crate) fault_intensities: Vec<FaultIntensity>,
    /// Storage durability modes to sweep per (pair, scenario, workload,
    /// intensity) combination. Defaults to `[Durability::Strict]` — the
    /// pre-durability-axis matrix exactly.
    pub(crate) durabilities: Vec<Durability>,
    /// Open-loop workload specs appended to the workload axis (after the
    /// stress and unit-test entries). Defaults to empty — the
    /// pre-open-loop-axis matrix exactly.
    pub(crate) workloads: Vec<crate::workload::OpenLoopSpec>,
    /// Worker threads; `0` means one per available CPU.
    pub(crate) threads: usize,
    /// Dedup-aware seed pruning: once a failure signature has reproduced
    /// this many times within one (pair, scenario, workload) seed group,
    /// the group's remaining seeds are skipped (and counted as pruned).
    /// `None` disables pruning.
    pub(crate) prune_after: Option<usize>,
    /// Causal trace recording. `Some` enables the simulator's trace ring for
    /// every case and attaches a causal [`TraceSlice`] to each distinct
    /// failure's report; `None` (the default) runs untraced.
    pub(crate) trace: Option<TraceConfig>,
    /// Snapshot-and-fork prefix reuse (the default). Each worker runner
    /// executes a seed group's shared warmup prefix once, snapshots the
    /// simulator, and runs the remaining seeds as restore + suffix. Purely
    /// a performance choice: reports are byte-identical either way.
    pub(crate) snapshot: bool,
    /// Coverage-guided search configuration. When set, [`Campaign::run`]
    /// (and [`Campaign::run_search`]) replaces the blind seed sweep with
    /// the guided driver: the `seeds` axis is ignored in favour of the
    /// search's bootstrap seeds and mutation rounds.
    pub(crate) search: Option<SearchConfig>,
}

impl CampaignConfig {
    /// The seed axis.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The open-loop workload axis (empty unless
    /// [`CampaignBuilder::workloads`] added specs).
    pub fn workloads(&self) -> &[crate::workload::OpenLoopSpec] {
        &self.workloads
    }

    /// The trace configuration, if tracing is enabled.
    pub fn trace(&self) -> Option<TraceConfig> {
        self.trace
    }

    /// Whether workers reuse seed-group prefixes via snapshot-and-fork.
    pub fn snapshot(&self) -> bool {
        self.snapshot
    }

    /// The coverage-guided search configuration, if one is set.
    pub fn search(&self) -> Option<&SearchConfig> {
        self.search.as_ref()
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seeds: vec![1, 2, 3],
            include_gap_two: false,
            scenarios: Scenario::paper().to_vec(),
            use_unit_tests: true,
            fault_intensities: vec![FaultIntensity::Off],
            durabilities: vec![Durability::Strict],
            workloads: Vec::new(),
            threads: 0,
            prune_after: None,
            trace: None,
            snapshot: true,
            search: None,
        }
    }
}

/// A worker's running tally, folded case by case: outcome counts, digest
/// sums and metrics over every seed group the worker has run, and the
/// failures of the group it is running, by dedup key. A finished group
/// leaves only its [`FailureFold`] behind — one kept case per dedup key
/// and a count per variant, however many of its seeds failed — so result
/// memory is O(workers + groups × distinct variants).
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Counters and metrics (`failures` stays empty). Sums, so it does not
    /// matter which worker ran which group.
    totals: CampaignReport,
    /// The current group's failures; [`Tally::finish_group`] takes them.
    failures: FailureFold,
}

impl Tally {
    /// Folds one executed case into the tally and reports it done. Returns
    /// how often the case's failure signature has now reproduced in the
    /// group (0 for a case that did not fail).
    pub(crate) fn case_done(
        &mut self,
        index: usize,
        case: &TestCase,
        nudge: &PlanNudge,
        result: &CaseResult,
        wall: Duration,
        observer: &dyn CampaignObserver,
    ) -> usize {
        let (totals, digest) = (&mut self.totals, &result.digest);
        totals.cases_run += 1;
        totals.sim_events_processed += digest.events_processed;
        totals.sim_messages_delivered += digest.messages_delivered;
        totals.sim_faults_injected += digest.faults_injected;
        totals.cases_decided_early += digest.decided_early;
        totals
            .metrics
            .record_trace_counts(digest.trace_events_recorded, digest.trace_events_dropped);
        let status = CaseStatus::of(&result.outcome);
        totals
            .metrics
            .record_case(index, case.scenario, status, wall);
        observer.on_case_done(index, case, status, wall);
        let slice = result.slice.as_ref();
        match &result.outcome {
            CaseOutcome::Pass => totals.cases_passed += 1,
            CaseOutcome::InvalidWorkload(_) => totals.cases_invalid += 1,
            CaseOutcome::Fail(observations) => {
                return self.failures.push(index, case, nudge, observations, slice)
            }
        }
        0
    }

    /// Ends the current seed group, handing over its folded failures.
    pub(crate) fn finish_group(&mut self) -> FailureFold {
        std::mem::take(&mut self.failures)
    }
}

/// Builds a [`Campaign`]. Obtained from [`Campaign::builder`].
pub struct CampaignBuilder<'a> {
    sut: &'a dyn SystemUnderTest,
    config: CampaignConfig,
    observer: Option<Box<dyn CampaignObserver>>,
}

impl<'a> CampaignBuilder<'a> {
    /// Replaces the whole configuration.
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the seed axis: every matrix combination is swept across these
    /// seeds.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.config.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the scenario axis: every matrix combination is swept across
    /// these upgrade scenarios.
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.config.scenarios = scenarios.into_iter().collect();
        self
    }

    /// Also test version pairs at distance two (Finding 9).
    pub fn gap_two(mut self, include: bool) -> Self {
        self.config.include_gap_two = include;
        self
    }

    /// Include unit-test-derived workloads.
    pub fn unit_tests(mut self, include: bool) -> Self {
        self.config.use_unit_tests = include;
        self
    }

    /// Sets the fault axis: every matrix combination is swept across these
    /// intensities. Each case derives its concrete plan from its intensity,
    /// durability, seed, and cluster size — so failure repro strings stay
    /// self-contained.
    pub fn faults(mut self, intensities: impl IntoIterator<Item = FaultIntensity>) -> Self {
        self.config.fault_intensities = intensities.into_iter().collect();
        self
    }

    /// Sets the durability axis: every matrix combination is swept across
    /// these storage modes. Non-strict modes buffer writes until the system
    /// flushes and let the seeded crash materializer drop or tear the
    /// unflushed tail on every crash.
    pub fn durabilities(mut self, modes: impl IntoIterator<Item = Durability>) -> Self {
        self.config.durabilities = modes.into_iter().collect();
        self
    }

    /// Appends open-loop workload specs to the workload axis: every matrix
    /// combination is additionally swept under each spec's seeded arrival
    /// plan ([`WorkloadSpec::OpenLoop`](crate::WorkloadSpec::OpenLoop)),
    /// alongside the stress and unit-test workloads.
    pub fn workloads(
        mut self,
        specs: impl IntoIterator<Item = crate::workload::OpenLoopSpec>,
    ) -> Self {
        self.config.workloads = specs.into_iter().collect();
        self
    }

    /// Sets the worker thread count; `0` (the default) means one per
    /// available CPU.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Enables dedup-aware seed pruning after `k` in-group reproductions.
    pub fn prune_after(mut self, k: usize) -> Self {
        self.config.prune_after = Some(k.max(1));
        self
    }

    /// Turns snapshot-and-fork prefix reuse on or off (on by default).
    /// Purely a performance knob: the report is byte-identical either way,
    /// which `durability_campaigns`/`trace_campaigns` assert.
    pub fn snapshot(mut self, on: bool) -> Self {
        self.config.snapshot = on;
        self
    }

    /// Enables causal trace recording for every case: each distinct failure
    /// report carries a bounded [`TraceSlice`](dup_simnet::TraceSlice) whose lineage chain ends at
    /// the violating observation, and observers see it via
    /// [`CampaignObserver::on_trace_slice`].
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.config.trace = Some(config);
        self
    }

    /// Switches the campaign to coverage-guided search: instead of sweeping
    /// the `seeds` axis blindly, each matrix group bootstraps from the
    /// search's initial seeds and then mutates schedule-affecting inputs
    /// (fault timings, per-message fates, crash points) guided by trace
    /// coverage. Run it with [`Campaign::run_search`] for the full
    /// [`SearchReport`]; [`Campaign::run`] returns just its campaign half.
    pub fn search(mut self, search: SearchConfig) -> Self {
        self.config.search = Some(search);
        self
    }

    /// Attaches an observer; it sees every case start/finish and every
    /// distinct failure.
    pub fn observer(mut self, observer: impl CampaignObserver + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Finalizes the builder into a reusable [`Campaign`].
    pub fn build(self) -> Campaign<'a> {
        Campaign {
            observer: self.observer,
            ..Campaign::new(self.sut, self.config)
        }
    }

    /// Convenience: builds and runs in one call.
    pub fn run(self) -> CampaignReport {
        self.build().run()
    }

    /// Finalizes just the configuration — for callers that enumerate a
    /// [`CaseMatrix`] directly instead of running a campaign.
    pub fn into_config(self) -> CampaignConfig {
        self.config
    }
}

/// The campaign engine: sweeps the full case matrix for one system and
/// produces a deduplicated [`CampaignReport`] with [`CampaignMetrics`]
/// attached.
///
/// [`CampaignMetrics`]: crate::campaign::report::CampaignMetrics
pub struct Campaign<'a> {
    sut: &'a dyn SystemUnderTest,
    config: CampaignConfig,
    observer: Option<Box<dyn CampaignObserver>>,
}

impl<'a> Campaign<'a> {
    /// Starts a builder for `sut` with the default configuration.
    pub fn builder(sut: &'a dyn SystemUnderTest) -> CampaignBuilder<'a> {
        CampaignBuilder {
            sut,
            config: CampaignConfig::default(),
            observer: None,
        }
    }

    /// A campaign with an explicit configuration and no observer.
    pub fn new(sut: &'a dyn SystemUnderTest, config: CampaignConfig) -> Campaign<'a> {
        Campaign {
            sut,
            config,
            observer: None,
        }
    }

    /// Runs the full sweep. Deterministic for a given configuration: the
    /// returned report (failures, order, counts, signatures, rendered
    /// table) does not depend on the thread count.
    ///
    /// With a [`SearchConfig`] set (via [`CampaignBuilder::search`]) this
    /// runs the coverage-guided search instead and returns its campaign
    /// half; call [`Campaign::run_search`] for the search-specific evidence
    /// (per-group coverage, corpora, detections).
    pub fn run(&self) -> CampaignReport {
        if self.config.search.is_some() {
            return self.run_search().campaign;
        }
        let started = Instant::now();
        let matrix = CaseMatrix::enumerate(self.sut, &self.config);
        let observer = self.observer.as_deref();
        let threads = self.resolve_threads(matrix.groups().len());
        let (totals, failures) = run_groups(
            &matrix,
            threads,
            || CaseRunner::with_options(self.sut, self.config.trace, self.config.snapshot),
            |runner, tally, g| {
                run_group(
                    runner,
                    tally,
                    &matrix,
                    &matrix.groups()[g],
                    &self.config,
                    observer,
                )
            },
        );
        let mut report = self.aggregate(totals, failures);
        report.metrics.threads_used = threads;
        report.metrics.campaign_wall = started.elapsed();
        report
    }

    /// Runs the coverage-guided search (or, with `blind: true`, its blind
    /// baseline) and returns the full [`SearchReport`].
    ///
    /// The campaign matrix's non-seed axes (pairs, scenarios, workloads,
    /// faults, durabilities) still define the groups; within each group the
    /// search drives its own input sequence — bootstrap seeds, then
    /// coverage-gated mutation rounds — instead of the `seeds` axis. Trace
    /// recording is always on (coverage needs it): an explicitly configured
    /// trace config is honoured, otherwise the default one is used.
    /// Deterministic like [`Campaign::run`]: the report is byte-identical
    /// across thread counts, rerun-stable, and independent of snapshotting.
    pub fn run_search(&self) -> SearchReport {
        let started = Instant::now();
        let search = self.config.search.clone().unwrap_or_default();
        // One matrix slot per group: the placeholder seed is never executed
        // (the search substitutes its own inputs), it only shapes the
        // group/batch structure.
        let mut shape = self.config.clone();
        shape.seeds = vec![0];
        let matrix = CaseMatrix::enumerate(self.sut, &shape);
        let trace = Some(self.config.trace.unwrap_or_default());
        let observer = self.observer.as_deref().unwrap_or(&NoopObserver);
        let threads = self.resolve_threads(matrix.groups().len());
        // One warm runner and one set of pooled search buffers per worker,
        // reused across every group the worker runs.
        let (totals, records) = run_groups(
            &matrix,
            threads,
            || {
                let runner = CaseRunner::with_options(self.sut, trace, self.config.snapshot);
                (runner, SearchPools::new())
            },
            |(runner, pools), tally, g| {
                let template = matrix.case_at(matrix.groups()[g].start);
                run_search_group(runner, pools, tally, g, &template, &search, observer)
            },
        );
        let (mut groups, mut detections) = (Vec::with_capacity(records.len()), Vec::new());
        let failures = records.into_iter().map(|record| {
            groups.push(record.summary);
            detections.extend(record.detections);
            record.failures
        });
        let mut campaign = self.aggregate(totals, failures);
        campaign.metrics.threads_used = threads;
        campaign.metrics.campaign_wall = started.elapsed();
        SearchReport {
            campaign,
            groups,
            detections,
        }
    }

    fn resolve_threads(&self, groups: usize) -> usize {
        let requested = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        requested.clamp(1, groups.max(1))
    }

    /// Completes the workers' summed `totals` into the deduplicated report
    /// — the groups' failures, given in matrix order, merged and each
    /// distinct one announced — so the report reads exactly as a sequential
    /// per-case walk would.
    fn aggregate(
        &self,
        totals: CampaignReport,
        groups: impl IntoIterator<Item = FailureFold>,
    ) -> CampaignReport {
        let system = self.sut.name();
        let observer = self.observer.as_deref().unwrap_or(&NoopObserver);
        let mut report = CampaignReport {
            system: system.to_string(),
            ..totals
        };
        let mut failures = FailureFold::default();
        for group in groups {
            failures.merge(group);
        }
        for (index, mut failure) in failures.firsts {
            failure.system = system.to_string();
            let case = &failure.spec.case;
            observer.on_failure_found(index, case, &failure);
            if let Some(slice) = &failure.trace {
                observer.on_trace_slice(index, case, slice);
            }
            report.failures.push(failure);
        }
        report.metrics.distinct_failures = report.failures.len();
        report
    }
}

/// Runs `work` once per seed group on `threads` workers and returns the
/// workers' summed totals plus the per-group results in matrix order —
/// this, not completion order, is what the report sees. Each worker owns a
/// warm `state` and a [`Tally`] for the whole campaign and pulls (pair,
/// scenario) batches, not single groups, off a shared cursor: the groups of
/// one batch share cluster topology and workload shape, so a warm runner
/// replays near-identical allocation patterns and its pools stay
/// exactly-sized; consecutive groups of a batch also often share a prefix
/// snapshot, and coarser units mean fewer trips to the cursor. A worker
/// hands its totals and results back when it is joined; a single worker
/// runs on the calling thread.
fn run_groups<S, R: Send>(
    matrix: &CaseMatrix,
    threads: usize,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &mut Tally, usize) -> R + Sync,
) -> (CampaignReport, Vec<R>) {
    let batches = matrix.batches();
    let next = AtomicUsize::new(0);
    let worker = || {
        let (mut state, mut tally, mut done) = (state(), Tally::default(), Vec::new());
        while let Some(batch) = batches.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.extend(batch.clone().map(|g| (g, work(&mut state, &mut tally, g))));
        }
        (tally.totals, done)
    };
    let parts = if threads <= 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        })
    };
    let (mut totals, mut done) = (CampaignReport::default(), Vec::new());
    for (part, results) in parts {
        totals.absorb(&part);
        done.extend(results);
    }
    done.sort_unstable_by_key(|(g, _)| *g);
    (totals, done.into_iter().map(|(_, result)| result).collect())
}

/// Runs one case, containing a panic: a buggy SUT adapter (or harness) must
/// cost one case, not the whole campaign. Reusing the runner after an
/// unwind is sound despite `AssertUnwindSafe` because `run_in` starts with
/// an unconditional `Sim::reset` or `Sim::restore` — whatever torn state
/// the panicking case left behind is cleared before the next case sees it.
/// (A snapshot captured *before* the panic is still the prefix's pristine
/// end state, so restoring from it stays sound.)
pub(crate) fn run_contained(run: impl FnOnce() -> CaseResult) -> CaseResult {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| CaseResult {
        outcome: CaseOutcome::Fail(vec![Observation::HarnessPanic {
            message: panic_message(payload.as_ref()),
        }]),
        digest: CaseDigest::default(),
        slice: None,
    })
}

/// Runs one seed group in order, applying dedup-aware pruning within it,
/// folds the results into `rec`, and returns the group's failures.
fn run_group(
    runner: &mut CaseRunner<'_>,
    rec: &mut Tally,
    matrix: &CaseMatrix,
    group: &SeedGroup,
    config: &CampaignConfig,
    user: Option<&dyn CampaignObserver>,
) -> FailureFold {
    let observer = user.unwrap_or(&NoopObserver);
    let none = &PlanNudge::default();
    let mut indices = group.indices();
    for index in indices.by_ref() {
        let case = matrix.case_at(index);
        observer.on_case_start(index, &case);
        let t0 = Instant::now();
        let result = run_contained(|| runner.execute(&case, none));
        let reproduced = rec.case_done(index, &case, none, &result, t0.elapsed(), observer);
        if config.prune_after.is_some_and(|k| reproduced >= k) {
            break;
        }
    }
    // What pruning skipped is counted arithmetically; only an attached
    // observer has the skipped seeds decoded and announced one by one.
    let pruned = indices;
    if let Some(user) = user {
        for index in pruned.clone() {
            let case = matrix.case_at(index);
            user.on_case_start(index, &case);
            user.on_case_done(index, &case, CaseStatus::Pruned, Duration::ZERO);
        }
    }
    if let Some(last) = pruned.clone().last() {
        let (scenario, n) = (matrix.case_at(last).scenario, pruned.len());
        rec.totals.cases_pruned += n;
        rec.totals
            .metrics
            .record_cases(last, scenario, CaseStatus::Pruned, Duration::ZERO, n);
    }
    rec.finish_group()
}

/// Renders a panic payload as text (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::report::{dedup_key, variant_key, CampaignMetrics, FailureReport};
    use crate::oracle::Observation;
    use crate::spec::CaseSpec;
    use dup_core::VersionId;
    use dup_simnet::TraceSlice;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    fn crash(reason: &str) -> Observation {
        Observation::NodeCrash {
            node: 0,
            version: "2.0.0".into(),
            reason: reason.to_string(),
        }
    }

    fn case(seed: u64) -> TestCase {
        TestCase {
            from: "1.0.0".parse().unwrap(),
            to: "2.0.0".parse().unwrap(),
            scenario: Scenario::FullStop,
            workload: crate::workload::WorkloadSpec::Stress,
            seed,
            faults: FaultIntensity::Off,
            durability: Durability::Strict,
        }
    }

    /// One group's folded failures: `(case index, evidence)`, seed `i + 1`
    /// at index `i`.
    fn group(failures: &[(usize, Vec<Observation>)]) -> FailureFold {
        let mut fold = FailureFold::default();
        for (index, observations) in failures {
            let none = &PlanNudge::default();
            fold.push(*index, &case(*index as u64 + 1), none, observations, None);
        }
        fold
    }

    fn aggregate(totals: CampaignReport, groups: Vec<FailureFold>) -> CampaignReport {
        Campaign::new(&dup_kvstore::KvStoreSystem, CampaignConfig::default())
            .aggregate(totals, groups)
    }

    #[test]
    fn default_config_is_sane() {
        let c = CampaignConfig::default();
        assert_eq!(c.scenarios.len(), 3);
        assert!(!c.seeds.is_empty());
        assert!(c.use_unit_tests);
        assert_eq!(c.fault_intensities, vec![FaultIntensity::Off]);
        assert_eq!(c.durabilities, vec![Durability::Strict]);
        assert!(c.workloads.is_empty(), "open-loop axis is opt-in");
        assert_eq!(c.threads, 0);
        assert!(c.prune_after.is_none());
        assert!(c.trace.is_none());
        assert!(c.snapshot, "snapshot-and-fork is the default");
    }

    #[test]
    fn aggregation_keys_on_the_first_symptom() {
        let errlog = |sample: &str| Observation::ErrorLogs {
            count: 1,
            sample: sample.to_string(),
        };
        // Cases 0, 1 and 3 share their first error and differ in what
        // follows: one failure with two variants. Case 2 leads with another
        // error: a failure of its own.
        let failures = group(&[
            (0, vec![errlog("shared root"), errlog("beta effect")]),
            (1, vec![errlog("shared root"), errlog("gamma effect")]),
            (2, vec![errlog("beta effect"), errlog("shared root")]),
            (3, vec![errlog("shared root"), errlog("beta effect")]),
        ]);
        let report = aggregate(CampaignReport::default(), vec![failures]);
        assert_eq!(report.failures.len(), 2, "{:#?}", report.failures);
        assert_eq!(report.failures[0].reproductions(), 3);
        assert_eq!(report.failures[0].variants.len(), 2);
        assert_eq!(report.failures[1].reproductions(), 1);
        assert_eq!(report.metrics.distinct_failures, 2);
    }

    #[test]
    fn aggregation_merges_groups_in_the_order_given() {
        // The same signature in two groups: the earlier group's case is the
        // one reported, the later group's count is added to it.
        let totals = CampaignReport {
            cases_run: 3,
            cases_pruned: 1,
            ..Default::default()
        };
        let groups = vec![
            group(&[(1, vec![crash("boom")])]),
            group(&[(2, vec![crash("boom")]), (3, vec![crash("boom")])]),
        ];
        let report = aggregate(totals, groups);
        assert_eq!(report.system, dup_kvstore::KvStoreSystem.name());
        assert_eq!((report.cases_run, report.cases_pruned), (3, 1));
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].spec.case.seed, 2);
        assert_eq!(report.failures[0].reproductions(), 3);
    }

    /// The aggregation this engine ran before it folded results where they
    /// are produced, kept as the oracle the fold is compared against: one
    /// sequential walk that keeps every failing case's evidence until the
    /// end and only then deduplicates. Returns the report (every wall-clock
    /// zero) and the `(callback, case index)` sequence an observer would
    /// have seen for distinct failures.
    fn reference(
        sut: &dyn SystemUnderTest,
        config: &CampaignConfig,
    ) -> (CampaignReport, Vec<(&'static str, usize)>) {
        let matrix = CaseMatrix::enumerate(sut, config);
        let mut runner = CaseRunner::with_options(sut, config.trace, config.snapshot);
        let mut report = CampaignReport {
            system: sut.name().to_string(),
            ..Default::default()
        };
        let mut kept: Vec<(usize, TestCase, Vec<Observation>, Option<TraceSlice>)> = Vec::new();
        for group in matrix.groups() {
            let mut sig_counts: BTreeMap<String, usize> = BTreeMap::new();
            let mut prune_rest = false;
            for index in group.indices() {
                let case = matrix.case_at(index);
                let metrics = &mut report.metrics;
                if prune_rest {
                    report.cases_pruned += 1;
                    metrics.record_case(index, case.scenario, CaseStatus::Pruned, Duration::ZERO);
                    continue;
                }
                let result = case.run_in(&mut runner);
                report.cases_run += 1;
                report.sim_events_processed += result.digest.events_processed;
                report.sim_messages_delivered += result.digest.messages_delivered;
                report.sim_faults_injected += result.digest.faults_injected;
                report.cases_decided_early += result.digest.decided_early;
                metrics.record_trace_counts(
                    result.digest.trace_events_recorded,
                    result.digest.trace_events_dropped,
                );
                let status = CaseStatus::of(&result.outcome);
                metrics.record_case(index, case.scenario, status, Duration::ZERO);
                match result.outcome {
                    CaseOutcome::Pass => report.cases_passed += 1,
                    CaseOutcome::InvalidWorkload(_) => report.cases_invalid += 1,
                    CaseOutcome::Fail(observations) => {
                        let count = sig_counts.entry(dedup_key(&observations)).or_insert(0);
                        *count += 1;
                        prune_rest = config.prune_after.is_some_and(|k| *count >= k);
                        kept.push((index, case, observations, result.slice));
                    }
                }
            }
        }
        let mut seen: BTreeMap<(VersionId, VersionId, String), usize> = BTreeMap::new();
        let mut callbacks = Vec::new();
        for (index, case, observations, slice) in kept {
            let key = (case.from, case.to, dedup_key(&observations));
            if let Some(&at) = seen.get(&key) {
                let variants = &mut report.failures[at].variants;
                *variants.entry(variant_key(&observations)).or_insert(0) += 1;
                continue;
            }
            seen.insert(key, report.failures.len());
            callbacks.push(("failure", index));
            if slice.is_some() {
                callbacks.push(("slice", index));
            }
            let spec = CaseSpec {
                case,
                nudge: PlanNudge::default(),
            };
            let first = FailureReport::first(sut.name(), spec, &observations, slice.as_ref());
            report.failures.push(first);
        }
        report.metrics.distinct_failures = report.failures.len();
        (report, callbacks)
    }

    /// The distinct failures of one version pair, folded and aggregated as
    /// a campaign does it, from a sequential walk on `runner`.
    fn failures_on_pair(
        sut: &dyn SystemUnderTest,
        config: &CampaignConfig,
        pair: (VersionId, VersionId),
        mut runner: CaseRunner<'_>,
    ) -> Vec<FailureReport> {
        let matrix = CaseMatrix::enumerate(sut, config);
        let mut tally = Tally::default();
        let mut folds = Vec::new();
        for group in matrix.groups() {
            let first = matrix.case_at(group.start);
            if (first.from, first.to) != pair {
                continue;
            }
            for index in group.indices() {
                let case = matrix.case_at(index);
                let result = case.run_in(&mut runner);
                let none = &PlanNudge::default();
                tally.case_done(index, &case, none, &result, Duration::ZERO, &NoopObserver);
            }
            folds.push(tally.finish_group());
        }
        Campaign::new(sut, config.clone())
            .aggregate(tally.totals, folds)
            .failures
    }

    /// The proof obligation the decided-verdict cut ships behind instead of
    /// a knob: every catalog bug's pair, swept with the cut and with the
    /// uncut reference, reports the same failures.
    #[test]
    fn catalog_bugs_report_the_same_failures_cut_and_uncut() {
        let systems: [&dyn SystemUnderTest; 4] = [
            &dup_kvstore::KvStoreSystem,
            &dup_dfs::DfsSystem,
            &dup_mq::MqSystem,
            &dup_coord::CoordSystem,
        ];
        let mut storms = 0;
        for bug in crate::catalog::seeded_bugs() {
            let sut = *systems
                .iter()
                .find(|s| s.name() == bug.system)
                .expect("a catalog bug names one of the four systems");
            let scenarios = match bug.scenario {
                Some(scenario) => vec![scenario],
                None => Scenario::paper().to_vec(),
            };
            let config = Campaign::builder(sut)
                .seeds(1..=3)
                .scenarios(scenarios)
                .gap_two(true)
                .into_config();
            let pair = (bug.from_version(), bug.to_version());
            let sweep = |runner| failures_on_pair(sut, &config, pair, runner);
            let cut = sweep(CaseRunner::with_options(sut, None, true));
            let uncut = sweep(CaseRunner::with_options(sut, None, true).uncut());
            let rows = |failures: &[FailureReport]| -> Vec<_> {
                failures
                    .iter()
                    .map(|f| {
                        (
                            f.spec.clone(),
                            f.cause,
                            f.signature.clone(),
                            f.variants.clone(),
                        )
                    })
                    .collect()
            };
            assert_eq!(rows(&cut), rows(&uncut), "{}", bug.ticket);
            let caught = cut
                .iter()
                .flat_map(|f| &f.observations)
                .any(|o| o.to_string().contains(bug.marker));
            assert!(caught || bug.timing_dependent, "{} missed", bug.ticket);
            storms += usize::from(bug.marker == "message storm" && caught);
        }
        assert_eq!(storms, 2, "both storm bugs are caught, through the cut");
    }

    /// Logs every callback as `(name, case index)` and folds the metrics
    /// callbacks carry into a locked [`CampaignMetrics`] on the side.
    #[derive(Default)]
    struct Recording {
        log: Mutex<Vec<(&'static str, usize)>>,
        metrics: Mutex<CampaignMetrics>,
    }

    impl Recording {
        fn logged(&self, names: &[&str]) -> Vec<(&'static str, usize)> {
            let log = self.log.lock().unwrap();
            log.iter()
                .filter(|(name, _)| names.contains(name))
                .copied()
                .collect()
        }
    }

    impl CampaignObserver for Recording {
        fn on_case_start(&self, index: usize, _: &TestCase) {
            self.log.lock().unwrap().push(("start", index));
        }
        fn on_case_done(&self, index: usize, case: &TestCase, status: CaseStatus, wall: Duration) {
            self.log.lock().unwrap().push(("done", index));
            let mut metrics = self.metrics.lock().unwrap();
            metrics.record_case(index, case.scenario, status, wall);
        }
        fn on_failure_found(&self, index: usize, _: &TestCase, _: &FailureReport) {
            self.log.lock().unwrap().push(("failure", index));
            self.metrics.lock().unwrap().record_distinct_failure();
        }
        fn on_trace_slice(&self, index: usize, _: &TestCase, _: &TraceSlice) {
            self.log.lock().unwrap().push(("slice", index));
        }
    }

    /// The folded report equals the keep-everything reference field for
    /// field, on every system × threads × snapshot × pruning × tracing.
    #[test]
    fn fold_equals_reference() {
        let systems: [&dyn SystemUnderTest; 4] = [
            &dup_kvstore::KvStoreSystem,
            &dup_dfs::DfsSystem,
            &dup_mq::MqSystem,
            &dup_coord::CoordSystem,
        ];
        let mut failing_cases = 0;
        let mut pruned = 0;
        for sut in systems {
            for (prune_after, traced) in [None, Some(1), Some(3)]
                .into_iter()
                .flat_map(|p| [(p, false), (p, true)])
            {
                let mut builder = Campaign::builder(sut)
                    .seeds(1..=4)
                    .scenarios([Scenario::FullStop, Scenario::NewNodeJoin])
                    .unit_tests(false);
                if let Some(k) = prune_after {
                    builder = builder.prune_after(k);
                }
                if traced {
                    builder = builder.trace(TraceConfig::default());
                }
                let config = builder.into_config();
                let (expected, expected_callbacks) = reference(sut, &config);
                let enumerated = expected.cases_run + expected.cases_pruned;
                failing_cases += expected.metrics.failing_cases;
                pruned += expected.cases_pruned;

                // No observer (`None`: skipped seeds are counted, not
                // announced) and an observer, each on 1 and 4 threads with
                // snapshotting on and off.
                for (threads, snapshot, observed) in [
                    (1, true, true),
                    (1, false, true),
                    (4, true, true),
                    (4, false, true),
                    (1, false, false),
                    (4, true, false),
                ] {
                    let what = format!(
                        "{} prune_after={prune_after:?} traced={traced} threads={threads} \
                         snapshot={snapshot} observed={observed}",
                        sut.name()
                    );
                    let seen = Arc::new(Recording::default());
                    let mut builder = Campaign::builder(sut)
                        .config(config.clone())
                        .threads(threads)
                        .snapshot(snapshot);
                    if observed {
                        builder = builder.observer(Arc::clone(&seen));
                    }
                    let report = builder.run();

                    assert_eq!(report.failures, expected.failures, "{what}");
                    assert_eq!(report.render_table(), expected.render_table(), "{what}");
                    assert_eq!(report.cases_run, expected.cases_run, "{what}");
                    assert_eq!(report.cases_passed, expected.cases_passed, "{what}");
                    assert_eq!(report.cases_invalid, expected.cases_invalid, "{what}");
                    assert_eq!(report.cases_pruned, expected.cases_pruned, "{what}");
                    let reproductions: usize =
                        report.failures.iter().map(|f| f.reproductions()).sum();
                    // Everything but the wall-clocks is the reference's.
                    let (m, e) = (&report.metrics, &expected.metrics);
                    assert_eq!(reproductions, m.failing_cases, "{what}");
                    assert_eq!(m.per_scenario, e.per_scenario, "{what}");
                    assert_eq!(m.failing_cases, e.failing_cases, "{what}");
                    assert_eq!(m.distinct_failures, e.distinct_failures, "{what}");
                    assert_eq!(m.pruned_seeds, e.pruned_seeds, "{what}");
                    assert_eq!(m.trace_events_recorded, e.trace_events_recorded, "{what}");
                    assert_eq!(m.trace_events_dropped, e.trace_events_dropped, "{what}");
                    assert!(m.slowest_case().is_some_and(|(i, _)| i < enumerated));
                    if !observed {
                        continue;
                    }

                    // What the engine summed from its workers' tallies is
                    // what a locked collector saw case by case — `slowest`
                    // and its tie-break included. (No callback carries the
                    // trace counters.)
                    let mut collected = seen.metrics.lock().unwrap().clone();
                    collected.threads_used = report.metrics.threads_used;
                    collected.campaign_wall = report.metrics.campaign_wall;
                    collected.trace_events_recorded = report.metrics.trace_events_recorded;
                    collected.trace_events_dropped = report.metrics.trace_events_dropped;
                    assert_eq!(report.metrics, collected, "{what}");

                    assert_eq!(
                        seen.logged(&["failure", "slice"]),
                        expected_callbacks,
                        "{what}"
                    );
                    // Every enumerated case, pruned ones included, starts
                    // and finishes exactly once, and in that order.
                    let mut cases = seen.logged(&["start", "done"]);
                    assert_eq!(cases.len(), 2 * enumerated, "{what}");
                    cases.sort_by_key(|(_, index)| *index);
                    for (index, pair) in cases.chunks(2).enumerate() {
                        assert_eq!(pair, [("start", index), ("done", index)], "{what}");
                    }
                }
            }
        }
        assert!(
            failing_cases > pruned && pruned > 0,
            "the sweeps fail and prune"
        );
    }
}
