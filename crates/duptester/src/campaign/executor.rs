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
//! keeps dedup-aware seed pruning deterministic; results are folded into
//! per-group [`GroupRecord`]s — aggregation memory is O(groups + failures),
//! never O(cases) — and stitched afterwards **in matrix order**, so the
//! report is byte-identical whether the campaign ran on one thread or many,
//! whether the runners were warm or fresh, and whether snapshotting was on
//! or off.

use crate::campaign::matrix::{CaseMatrix, SeedGroup};
use crate::campaign::observer::{CampaignObserver, MetricsObserver};
use crate::campaign::report::{dedup_key, CampaignReport, CaseStatus, FailureReport};
use crate::campaign::search::{
    aggregate_search, run_search_group, SearchConfig, SearchGroupRecord, SearchPools, SearchReport,
    SearchRound,
};
use crate::faults::FaultIntensity;
use crate::harness::{CaseDigest, CaseOutcome, CaseResult, CaseRunner, TestCase};
use crate::oracle::Observation;
use crate::scenario::Scenario;
use dup_core::{SystemUnderTest, VersionId};
use dup_simnet::{Durability, TraceConfig, TraceSlice};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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

    /// The scenario axis.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The fault-intensity axis.
    pub fn faults(&self) -> &[FaultIntensity] {
        &self.fault_intensities
    }

    /// The durability axis.
    pub fn durabilities(&self) -> &[Durability] {
        &self.durabilities
    }

    /// The open-loop workload axis (empty unless
    /// [`CampaignBuilder::workloads`] added specs).
    pub fn workloads(&self) -> &[crate::workload::OpenLoopSpec] {
        &self.workloads
    }

    /// The worker thread count (`0` means one per available CPU).
    pub fn threads(&self) -> usize {
        self.threads
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

/// What one executed seed group left behind: folded counts and digest sums
/// for every case, plus the failing cases in full. This is the executor's
/// unit of result memory — O(groups + failures) for the whole campaign, so
/// a 10⁶-case sweep that mostly passes carries a few counters per group
/// instead of a million records. (Timings live in the metrics, collected
/// via the observer path.)
#[derive(Debug, Clone, Default)]
struct GroupRecord {
    cases_run: usize,
    cases_passed: usize,
    cases_invalid: usize,
    cases_pruned: usize,
    events_processed: u64,
    messages_delivered: u64,
    faults_injected: u64,
    /// The group's failing cases, in case-index order.
    failures: Vec<GroupFailure>,
}

/// One failing case inside a [`GroupRecord`].
#[derive(Debug, Clone)]
struct GroupFailure {
    index: usize,
    observations: Vec<Observation>,
    /// The failing case's causal slice; `None` for untraced campaigns.
    slice: Option<TraceSlice>,
}

/// Fans callbacks out to the engine's internal metrics collector plus the
/// caller's observer, if any. Crate-visible so the search driver (in
/// [`crate::campaign::search`]) reports through the same pipeline.
pub(crate) struct FanOut<'o> {
    metrics: &'o MetricsObserver,
    user: Option<&'o dyn CampaignObserver>,
}

impl FanOut<'_> {
    pub(crate) fn case_start(&self, index: usize, case: &TestCase) {
        self.metrics.on_case_start(index, case);
        if let Some(user) = self.user {
            user.on_case_start(index, case);
        }
    }

    pub(crate) fn case_done(
        &self,
        index: usize,
        case: &TestCase,
        status: CaseStatus,
        wall: Duration,
    ) {
        self.metrics.on_case_done(index, case, status, wall);
        if let Some(user) = self.user {
            user.on_case_done(index, case, status, wall);
        }
    }

    pub(crate) fn failure_found(&self, index: usize, case: &TestCase, failure: &FailureReport) {
        self.metrics.on_failure_found(index, case, failure);
        if let Some(user) = self.user {
            user.on_failure_found(index, case, failure);
        }
    }

    pub(crate) fn trace_slice(&self, index: usize, case: &TestCase, slice: &TraceSlice) {
        self.metrics.on_trace_slice(index, case, slice);
        if let Some(user) = self.user {
            user.on_trace_slice(index, case, slice);
        }
    }

    /// Per-case trace counters go straight to the engine's metrics
    /// collector: every traced case counts, not just the failing ones.
    /// Per-round search progress: the per-group driver reports each
    /// bootstrap/mutation round through here.
    pub(crate) fn search_round(&self, round: &SearchRound) {
        self.metrics.on_search_round(round);
        if let Some(user) = self.user {
            user.on_search_round(round);
        }
    }

    pub(crate) fn trace_counts(&self, digest: &CaseDigest) {
        self.metrics
            .record_trace(digest.trace_events_recorded, digest.trace_events_dropped);
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
    /// report carries a bounded [`TraceSlice`] whose lineage chain ends at
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
    /// `sut.versions()`, which builds a `Vec` per call, asked once.
    catalog: Vec<VersionId>,
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
            catalog: sut.versions(),
        }
    }

    /// The configuration this campaign runs with.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
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
        let metrics = MetricsObserver::new();
        let fan = FanOut {
            metrics: &metrics,
            user: self.observer.as_deref(),
        };
        let threads = self.resolve_threads(matrix.groups().len());

        let records = if threads <= 1 {
            self.run_groups_sequential(&matrix, &fan)
        } else {
            self.run_groups_parallel(&matrix, &fan, threads)
        };

        let mut report = aggregate(
            self.sut.name(),
            &matrix,
            &records,
            &fan,
            &self.catalog,
            self.sut.cluster_size(),
        );
        report.metrics = metrics.finish(threads, started.elapsed());
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
        let metrics = MetricsObserver::new();
        let fan = FanOut {
            metrics: &metrics,
            user: self.observer.as_deref(),
        };
        let threads = self.resolve_threads(matrix.groups().len());

        let records = if threads <= 1 {
            let mut runner = CaseRunner::with_options(self.sut, trace, self.config.snapshot);
            let mut pools = SearchPools::new();
            matrix
                .groups()
                .iter()
                .enumerate()
                .map(|(g, group)| {
                    let template = matrix.case_at(group.start);
                    run_search_group(&mut runner, &mut pools, g, &template, &search, &fan)
                })
                .collect()
        } else {
            self.run_search_parallel(&matrix, &search, trace, &fan, threads)
        };

        let mut report = aggregate_search(
            self.sut.name(),
            search.budget_per_group.max(1),
            records,
            &fan,
            &self.catalog,
            self.sut.cluster_size(),
        );
        report.campaign.metrics = metrics.finish(threads, started.elapsed());
        report
    }

    fn run_search_parallel(
        &self,
        matrix: &CaseMatrix,
        search: &SearchConfig,
        trace: Option<TraceConfig>,
        fan: &FanOut<'_>,
        threads: usize,
    ) -> Vec<SearchGroupRecord> {
        let groups = matrix.groups();
        let batches = matrix.batches();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<SearchGroupRecord>>> =
            groups.iter().map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // One warm runner and one set of pooled search buffers
                    // per worker, reused across every group the worker runs.
                    let mut runner =
                        CaseRunner::with_options(self.sut, trace, self.config.snapshot);
                    let mut pools = SearchPools::new();
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        let Some(batch) = batches.get(b) else { break };
                        for g in batch.clone() {
                            let template = matrix.case_at(groups[g].start);
                            let rec = run_search_group(
                                &mut runner,
                                &mut pools,
                                g,
                                &template,
                                search,
                                fan,
                            );
                            *slots[g].lock().expect("slot lock") = Some(rec);
                        }
                    }
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every group slot filled once the scope joins")
            })
            .collect()
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

    fn run_groups_sequential(&self, matrix: &CaseMatrix, fan: &FanOut<'_>) -> Vec<GroupRecord> {
        let mut runner =
            CaseRunner::with_options(self.sut, self.config.trace, self.config.snapshot);
        let mut records = Vec::with_capacity(matrix.groups().len());
        for group in matrix.groups() {
            records.push(run_group(&mut runner, matrix, group, &self.config, fan));
        }
        records
    }

    fn run_groups_parallel(
        &self,
        matrix: &CaseMatrix,
        fan: &FanOut<'_>,
        threads: usize,
    ) -> Vec<GroupRecord> {
        let groups = matrix.groups();
        // Workers pull (pair, scenario) batches, not single groups: the
        // groups of one batch share cluster topology and workload shape, so
        // a warm runner replays near-identical allocation patterns and its
        // pools stay exactly-sized; consecutive groups of a batch also often
        // share a prefix snapshot. Coarser units also mean fewer trips to
        // the shared queue.
        let batches = matrix.batches();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<GroupRecord>>> =
            groups.iter().map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // One warm runner per worker for the whole campaign.
                    let mut runner =
                        CaseRunner::with_options(self.sut, self.config.trace, self.config.snapshot);
                    loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        let Some(batch) = batches.get(b) else { break };
                        for g in batch.clone() {
                            let rec = run_group(&mut runner, matrix, &groups[g], &self.config, fan);
                            *slots[g].lock().expect("slot lock") = Some(rec);
                        }
                    }
                });
            }
        });

        // Stitch group results back together in matrix order — this, not
        // completion order, is what the report sees.
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every group slot filled once the scope joins")
            })
            .collect()
    }
}

/// Runs one seed group in order, applying dedup-aware pruning within it,
/// and folds the results into one [`GroupRecord`].
fn run_group(
    runner: &mut CaseRunner<'_>,
    matrix: &CaseMatrix,
    group: &SeedGroup,
    config: &CampaignConfig,
    fan: &FanOut<'_>,
) -> GroupRecord {
    let mut rec = GroupRecord::default();
    let mut sig_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut prune_rest = false;
    for index in group.indices() {
        let case = matrix.case_at(index);
        fan.case_start(index, &case);
        if prune_rest {
            fan.case_done(index, &case, CaseStatus::Pruned, Duration::ZERO);
            rec.cases_pruned += 1;
            continue;
        }
        let t0 = Instant::now();
        // Contain panics: a buggy SUT adapter (or harness) must cost one
        // case, not the whole campaign. Reusing the runner after an unwind
        // is sound despite AssertUnwindSafe because `run_in` starts with an
        // unconditional `Sim::reset` or `Sim::restore` — whatever torn state
        // the panicking case left behind is cleared before the next case
        // sees it. (A snapshot captured *before* the panic is still the
        // prefix's pristine end state, so restoring from it stays sound.)
        let CaseResult {
            outcome,
            digest,
            slice,
        } = match catch_unwind(AssertUnwindSafe(|| case.run_in(runner))) {
            Ok(result) => result,
            Err(payload) => CaseResult {
                outcome: CaseOutcome::Fail(vec![Observation::HarnessPanic {
                    message: panic_message(payload.as_ref()),
                }]),
                digest: CaseDigest::default(),
                slice: None,
            },
        };
        fan.trace_counts(&digest);
        let wall = t0.elapsed();
        rec.cases_run += 1;
        rec.events_processed += digest.events_processed;
        rec.messages_delivered += digest.messages_delivered;
        rec.faults_injected += digest.faults_injected;
        let status = match &outcome {
            CaseOutcome::Pass => CaseStatus::Passed,
            CaseOutcome::InvalidWorkload(_) => CaseStatus::Invalid,
            CaseOutcome::Fail(observations) => {
                if let Some(k) = config.prune_after {
                    let count = sig_counts.entry(dedup_key(observations)).or_insert(0);
                    *count += 1;
                    if *count >= k {
                        prune_rest = true;
                    }
                }
                if observations
                    .iter()
                    .any(|o| matches!(o, Observation::HarnessPanic { .. }))
                {
                    CaseStatus::Panicked
                } else if observations
                    .iter()
                    .any(|o| matches!(o, Observation::CaseHung { .. }))
                {
                    CaseStatus::Hung
                } else {
                    CaseStatus::Failed
                }
            }
        };
        fan.case_done(index, &case, status, wall);
        match outcome {
            CaseOutcome::Pass => rec.cases_passed += 1,
            CaseOutcome::InvalidWorkload(_) => rec.cases_invalid += 1,
            CaseOutcome::Fail(observations) => rec.failures.push(GroupFailure {
                index,
                observations,
                slice,
            }),
        }
    }
    rec
}

/// Renders a panic payload as text (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Folds per-group records into the deduplicated report, in matrix order
/// (groups in order, each group's failures in case-index order) — so the
/// report reads exactly as a sequential per-case walk would, at O(groups +
/// failures) memory.
fn aggregate(
    system: &str,
    matrix: &CaseMatrix,
    records: &[GroupRecord],
    fan: &FanOut<'_>,
    catalog: &[VersionId],
    cluster_size: u32,
) -> CampaignReport {
    debug_assert_eq!(matrix.groups().len(), records.len());
    let mut report = CampaignReport {
        system: system.to_string(),
        ..Default::default()
    };
    // dedup key -> index into report.failures
    let mut seen: BTreeMap<(VersionId, VersionId, String), usize> = BTreeMap::new();

    for record in records {
        report.cases_run += record.cases_run;
        report.cases_passed += record.cases_passed;
        report.cases_invalid += record.cases_invalid;
        report.cases_pruned += record.cases_pruned;
        // Per-case digests are deterministic in the seed, so these sums are
        // independent of worker thread count — the determinism-digest tests
        // key on exactly that.
        report.sim_events_processed += record.events_processed;
        report.sim_messages_delivered += record.messages_delivered;
        report.sim_faults_injected += record.faults_injected;
        for failure_case in &record.failures {
            let index = failure_case.index;
            let case = matrix.case_at(index);
            let observations = &failure_case.observations;
            let signature = dedup_key(observations);
            let key = (case.from, case.to, signature.clone());
            if let Some(&idx) = seen.get(&key) {
                report.failures[idx].reproductions += 1;
            } else {
                let cause = observations
                    .iter()
                    .map(|o| o.classify())
                    .find(|c| *c != "Unclassified")
                    .unwrap_or("Unclassified");
                seen.insert(key, report.failures.len());
                report.failures.push(FailureReport {
                    system: system.to_string(),
                    from: case.from,
                    to: case.to,
                    scenario: case.scenario,
                    workload: case.workload.clone(),
                    seed: case.seed,
                    faults: case.faults,
                    durability: case.durability,
                    signature,
                    cause,
                    observations: observations.clone(),
                    reproductions: 1,
                    trace: failure_case.slice.clone(),
                    plan: crate::rollout::rendered_plan(&case, None, catalog, cluster_size),
                });
                let failure = report.failures.last().expect("just pushed");
                fan.failure_found(index, &case, failure);
                if let Some(slice) = &failure.trace {
                    fan.trace_slice(index, &case, slice);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Observation;

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

    fn fail(index: usize, observations: Vec<Observation>) -> GroupFailure {
        GroupFailure {
            index,
            observations,
            slice: None,
        }
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
    fn aggregation_keys_on_all_observation_signatures() {
        // Two failing cases share their *first* observation but differ in
        // the second: they must surface as two distinct failures (the old
        // first-signature keying silently merged them).
        let matrix = CaseMatrix::from_cases(vec![case(1), case(2), case(3)]);
        assert_eq!(matrix.groups().len(), 1, "seeds fold into one group");
        let records = vec![GroupRecord {
            cases_run: 3,
            failures: vec![
                fail(0, vec![crash("shared root symptom"), crash("beta effect")]),
                fail(1, vec![crash("shared root symptom"), crash("gamma effect")]),
                fail(2, vec![crash("beta effect"), crash("shared root symptom")]),
            ],
            ..GroupRecord::default()
        }];
        let metrics = MetricsObserver::new();
        let fan = FanOut {
            metrics: &metrics,
            user: None,
        };
        let report = aggregate("sys", &matrix, &records, &fan, &[], 3);
        assert_eq!(report.failures.len(), 2, "{:#?}", report.failures);
        // Case 3 has the same *set* as case 1 (order-insensitive): a dedup hit.
        assert_eq!(report.failures[0].reproductions, 2);
        assert_eq!(report.failures[1].reproductions, 1);
        assert_eq!(metrics.snapshot().distinct_failures, 2);
    }

    #[test]
    fn aggregation_counts_pruned_separately() {
        let matrix = CaseMatrix::from_cases(vec![case(1), case(2)]);
        let records = vec![GroupRecord {
            cases_run: 1,
            cases_pruned: 1,
            failures: vec![fail(0, vec![crash("boom")])],
            ..GroupRecord::default()
        }];
        let metrics = MetricsObserver::new();
        let fan = FanOut {
            metrics: &metrics,
            user: None,
        };
        let report = aggregate("sys", &matrix, &records, &fan, &[], 3);
        assert_eq!(report.cases_run, 1);
        assert_eq!(report.cases_pruned, 1);
        assert_eq!(report.failures.len(), 1);
    }
}
