//! Campaign outputs: deduplicated failures, the Table-5-style report, and
//! per-run execution metrics.

use crate::faults::PlanNudge;
use crate::harness::CaseOutcome;
use crate::oracle::Observation;
use crate::scenario::Scenario;
use crate::spec::{CaseSpec, TestCase};
use dup_core::VersionId;
use dup_simnet::TraceSlice;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::{self, Write as _};
use std::time::Duration;

/// One deduplicated failure found by a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureReport {
    /// System name.
    pub system: String,
    /// The first exposing case, nudge included: its text is the
    /// [`repro`](FailureReport::repro) line.
    pub spec: CaseSpec,
    /// Dedup signature: the [`dedup_key`] of the first exposing case, its
    /// first symptom. Every case of the report shares it.
    pub signature: String,
    /// Heuristic root-cause label (Table 5 vocabulary).
    pub cause: &'static str,
    /// The evidence.
    pub observations: Vec<Observation>,
    /// The symptom variants the report absorbed: each [`variant_key`] (a
    /// case's whole evidence set) and how many of its cases had it.
    pub variants: BTreeMap<String, usize>,
    /// Causal trace slice of the first exposing case: the lineage chain
    /// ending at the violating observation plus the trailing event window.
    /// `None` when the campaign ran without tracing.
    pub trace: Option<TraceSlice>,
}

impl FailureReport {
    /// The report of the first case of a dedup key, which failed with
    /// `observations`; later cases of the key add to `variants`.
    pub(crate) fn first(
        system: &str,
        spec: CaseSpec,
        observations: &[Observation],
        trace: Option<&TraceSlice>,
    ) -> FailureReport {
        let mut cause = observations.iter().map(|o| o.classify());
        FailureReport {
            system: system.to_string(),
            spec,
            signature: dedup_key(observations),
            cause: cause
                .find(|c| *c != "Unclassified")
                .unwrap_or("Unclassified"),
            observations: observations.to_vec(),
            variants: BTreeMap::from([(variant_key(observations), 1)]),
            trace: trace.cloned(),
        }
    }

    /// How many cases reproduced it, over all its variants.
    pub fn reproductions(&self) -> usize {
        self.variants.values().sum()
    }

    /// Counts `n` more cases of `variant`.
    fn add_variant(&mut self, variant: String, n: usize) {
        *self.variants.entry(variant).or_insert(0) += n;
    }

    /// The one-line repro string: `repro: ` and the [`CaseSpec`] text, which
    /// parses back to [`spec`](FailureReport::spec).
    pub fn repro(&self) -> String {
        format!("repro: {}", self.spec)
    }

    /// The summary line (the [`Display`](fmt::Display) form), the `repro:`
    /// line, and the causal trace timeline when there is one, the last two
    /// indented three spaces.
    pub fn render(&self) -> String {
        format!("{self}\n{}", self.evidence())
    }

    /// The `repro:` line, the variants when there is more than one, and the
    /// trace timeline, each line indented three spaces: what
    /// [`render`](Self::render) and a report table print under a failure's
    /// summary.
    fn evidence(&self) -> String {
        let mut out = format!("   {}\n", self.repro());
        if self.variants.len() > 1 {
            for (variant, n) in &self.variants {
                let _ = writeln!(out, "   variant x{n}: {variant}");
            }
        }
        if let Some(slice) = &self.trace {
            for line in slice.render_timeline().lines() {
                let _ = writeln!(out, "   {line}");
            }
        }
        out
    }
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let case = &self.spec.case;
        write!(
            f,
            "{} {} -> {} [{} / {}] {}: {}",
            self.system,
            case.from,
            case.to,
            case.scenario,
            case.workload,
            self.cause,
            self.observations
                .first()
                .map(|o| o.to_string())
                .unwrap_or_default()
        )
    }
}

/// The dedup key for a case's evidence: the signature of its first symptom.
/// That is its first [`Observation::ErrorLogs`], the earliest ERROR/FATAL
/// record after the upgrade mark (the oracle groups records in log order),
/// or, for a case with no error record (a storm, a failed op, a hang, a
/// harness panic), its first observation. One bug seen with different
/// follow-on errors is one failure; the follow-ons tell its
/// [`variant_key`]s apart.
pub fn dedup_key(observations: &[Observation]) -> String {
    let first_error = observations
        .iter()
        .find(|o| matches!(o, Observation::ErrorLogs { .. }));
    first_error
        .or(observations.first())
        .map(Observation::signature)
        .unwrap_or_default()
}

/// The variant key for a case's evidence: every observation's signature,
/// sorted, deduplicated, and joined. A report counts its cases per variant.
pub fn variant_key(observations: &[Observation]) -> String {
    let mut sigs: Vec<String> = observations.iter().map(|o| o.signature()).collect();
    sigs.sort();
    sigs.dedup();
    sigs.join("|")
}

/// Failing cases folded by dedup key (version pair + [`dedup_key`]): the
/// first case of each key as its case index and report (its system name
/// still empty), every later one as a count under its variant. A worker
/// folds each failing case of a seed group the moment it finishes and
/// aggregation merges the groups' folds in matrix order, so what is kept is
/// O(distinct variants), never O(failing cases).
#[derive(Debug, Clone, Default)]
pub(crate) struct FailureFold {
    /// Dedup key -> position in `firsts`.
    slots: BTreeMap<(VersionId, VersionId, String), usize>,
    pub(crate) firsts: Vec<(usize, FailureReport)>,
}

impl FailureFold {
    /// Counts one failing case and returns how often its key has now
    /// reproduced, over all variants. The evidence is copied only when the
    /// key is new.
    pub(crate) fn push(
        &mut self,
        index: usize,
        case: &TestCase,
        nudge: &PlanNudge,
        observations: &[Observation],
        slice: Option<&TraceSlice>,
    ) -> usize {
        let key = (case.from, case.to, dedup_key(observations));
        if let Some(&slot) = self.slots.get(&key) {
            let report = &mut self.firsts[slot].1;
            report.add_variant(variant_key(observations), 1);
            return report.reproductions();
        }
        let spec = CaseSpec {
            case: case.clone(),
            nudge: *nudge,
        };
        let first = FailureReport::first("", spec, observations, slice);
        self.firsts.push((index, first));
        self.slots.insert(key, self.firsts.len() - 1);
        1
    }

    /// Folds a later fold in: its new keys append in their order, its known
    /// keys add their variants' counts.
    pub(crate) fn merge(&mut self, later: FailureFold) {
        for (index, first) in later.firsts {
            let case = &first.spec.case;
            let key = (case.from, case.to, first.signature.clone());
            match self.slots.entry(key) {
                Entry::Occupied(slot) => {
                    let report = &mut self.firsts[*slot.get()].1;
                    for (variant, n) in first.variants {
                        report.add_variant(variant, n);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(self.firsts.len());
                    self.firsts.push((index, first));
                }
            }
        }
    }
}

/// How one enumerated case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CaseStatus {
    /// The upgrade went through cleanly.
    Passed,
    /// The oracle collected failure evidence.
    Failed,
    /// The workload could not be set up.
    Invalid,
    /// Skipped by dedup-aware seed pruning (never executed).
    Pruned,
    /// The harness panicked while executing the case; the executor contained
    /// the panic and isolated it into a failure report.
    Panicked,
    /// The case exceeded its event budget and was cut off by the watchdog.
    Hung,
}

impl CaseStatus {
    /// The status of an executed case.
    pub(crate) fn of(outcome: &CaseOutcome) -> CaseStatus {
        let observations = match outcome {
            CaseOutcome::Pass => return CaseStatus::Passed,
            CaseOutcome::InvalidWorkload(_) => return CaseStatus::Invalid,
            CaseOutcome::Fail(observations) => observations,
        };
        let any = |pred: fn(&Observation) -> bool| observations.iter().any(pred);
        if any(|o| matches!(o, Observation::HarnessPanic { .. })) {
            CaseStatus::Panicked
        } else if any(|o| matches!(o, Observation::CaseHung { .. })) {
            CaseStatus::Hung
        } else {
            CaseStatus::Failed
        }
    }
}

impl fmt::Display for CaseStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CaseStatus::Passed => "passed",
            CaseStatus::Failed => "failed",
            CaseStatus::Invalid => "invalid",
            CaseStatus::Pruned => "pruned",
            CaseStatus::Panicked => "panicked",
            CaseStatus::Hung => "hung",
        };
        f.write_str(s)
    }
}

/// Per-scenario outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScenarioCounts {
    /// Cases that passed.
    pub passed: usize,
    /// Cases with failure evidence.
    pub failed: usize,
    /// Cases with invalid workloads.
    pub invalid: usize,
    /// Cases skipped by seed pruning.
    pub pruned: usize,
    /// Cases whose harness execution panicked.
    pub panicked: usize,
    /// Cases cut off by the event-budget watchdog.
    pub hung: usize,
}

impl ScenarioCounts {
    /// Cases that executed: everything but pruned seeds.
    pub fn executed(&self) -> usize {
        self.passed + self.failed + self.invalid + self.panicked + self.hung
    }

    fn bump(&mut self, status: CaseStatus, n: usize) {
        match status {
            CaseStatus::Passed => self.passed += n,
            CaseStatus::Failed => self.failed += n,
            CaseStatus::Invalid => self.invalid += n,
            CaseStatus::Pruned => self.pruned += n,
            CaseStatus::Panicked => self.panicked += n,
            CaseStatus::Hung => self.hung += n,
        }
    }
}

/// Execution observability for one campaign run: wall-clock totals,
/// per-scenario outcome counts, and dedup statistics — O(scenarios) state,
/// whatever the number of cases.
///
/// Everything here except the wall-clock durations (and `threads_used`) is a
/// pure function of the campaign configuration, so two runs of the same
/// config agree on every other field regardless of thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignMetrics {
    /// Outcome counts per scenario.
    pub per_scenario: BTreeMap<Scenario, ScenarioCounts>,
    /// Executed cases whose oracle collected failure evidence.
    pub failing_cases: usize,
    /// Distinct (post-dedup) failures.
    pub distinct_failures: usize,
    /// Seeds skipped by dedup-aware pruning.
    pub pruned_seeds: usize,
    /// Worker threads the run used.
    pub threads_used: usize,
    /// Sum of per-case wall-clock (CPU-side work, not elapsed time).
    pub total_case_wall: Duration,
    /// Elapsed wall-clock of the whole campaign.
    pub campaign_wall: Duration,
    /// Trace events recorded across executed cases (0 when tracing is off).
    /// Deterministic in the configuration, like the per-scenario counts.
    pub trace_events_recorded: u64,
    /// Trace events evicted by ring wrap across executed cases.
    pub trace_events_dropped: u64,
    /// The slowest case so far, as `(index, wall)`.
    slowest: Option<(usize, Duration)>,
}

impl CampaignMetrics {
    /// Records one finished (or pruned) case.
    pub fn record_case(
        &mut self,
        index: usize,
        scenario: Scenario,
        status: CaseStatus,
        wall: Duration,
    ) {
        self.record_cases(index, scenario, status, wall, 1);
    }

    /// Records `n` consecutive cases of one scenario, the last at index
    /// `last`, that each ended as `status` after `wall` — what `n` calls of
    /// [`record_case`](Self::record_case) would.
    pub(crate) fn record_cases(
        &mut self,
        last: usize,
        scenario: Scenario,
        status: CaseStatus,
        wall: Duration,
        n: usize,
    ) {
        self.note_slowest(last, wall);
        self.per_scenario
            .entry(scenario)
            .or_default()
            .bump(status, n);
        match status {
            CaseStatus::Failed | CaseStatus::Panicked | CaseStatus::Hung => self.failing_cases += n,
            CaseStatus::Pruned => self.pruned_seeds += n,
            _ => {}
        }
        self.total_case_wall += wall * n as u32;
    }

    // Ties go to the larger index, whatever order workers report in.
    fn note_slowest(&mut self, index: usize, wall: Duration) {
        if self.slowest.is_none_or(|(i, w)| (wall, index) > (w, i)) {
            self.slowest = Some((index, wall));
        }
    }

    /// Adds the metrics of another part of the same run — one seed group's,
    /// say. Commutative, so the sum does not depend on which worker ran
    /// which part; the run-wide `threads_used` and `campaign_wall` are left
    /// alone.
    pub fn merge(&mut self, part: &CampaignMetrics) {
        for (scenario, c) in &part.per_scenario {
            let counts = self.per_scenario.entry(*scenario).or_default();
            counts.passed += c.passed;
            counts.failed += c.failed;
            counts.invalid += c.invalid;
            counts.pruned += c.pruned;
            counts.panicked += c.panicked;
            counts.hung += c.hung;
        }
        self.failing_cases += part.failing_cases;
        self.distinct_failures += part.distinct_failures;
        self.pruned_seeds += part.pruned_seeds;
        self.total_case_wall += part.total_case_wall;
        self.trace_events_recorded += part.trace_events_recorded;
        self.trace_events_dropped += part.trace_events_dropped;
        if let Some((index, wall)) = part.slowest {
            self.note_slowest(index, wall);
        }
    }

    /// Records one distinct (post-dedup) failure.
    pub fn record_distinct_failure(&mut self) {
        self.distinct_failures += 1;
    }

    /// Accumulates one executed case's trace counters (a no-op for the
    /// all-zero counters an untraced case reports).
    pub fn record_trace_counts(&mut self, recorded: u64, dropped: u64) {
        self.trace_events_recorded += recorded;
        self.trace_events_dropped += dropped;
    }

    /// Failing cases that deduplicated onto an already-known failure.
    pub fn dedup_hits(&self) -> usize {
        self.failing_cases.saturating_sub(self.distinct_failures)
    }

    /// Fraction of failing cases that were dedup hits (0.0 when none failed).
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.failing_cases == 0 {
            0.0
        } else {
            self.dedup_hits() as f64 / self.failing_cases as f64
        }
    }

    /// Mean wall-clock of executed (non-pruned) cases.
    pub fn mean_case_wall(&self) -> Duration {
        let executed: usize = self
            .per_scenario
            .values()
            .map(ScenarioCounts::executed)
            .sum();
        if executed == 0 {
            Duration::ZERO
        } else {
            self.total_case_wall / executed as u32
        }
    }

    /// The slowest case, as `(index, wall)`.
    pub fn slowest_case(&self) -> Option<(usize, Duration)> {
        self.slowest
    }

    /// The deterministic slice of the metrics: per-scenario outcome counts,
    /// pruning, and dedup statistics. Identical across thread counts, so
    /// [`CampaignReport::render_table`] can include it and stay
    /// byte-identical between sequential and parallel runs.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        for (scenario, c) in &self.per_scenario {
            out.push_str(&format!(
                "   {:<14} {:>4} passed {:>4} failed {:>4} invalid {:>4} pruned {:>4} panicked {:>4} hung\n",
                scenario.to_string(),
                c.passed,
                c.failed,
                c.invalid,
                c.pruned,
                c.panicked,
                c.hung
            ));
        }
        out.push_str(&format!(
            "   dedup: {} failing cases -> {} distinct ({} hits, {:.0}% hit rate); {} seeds pruned\n",
            self.failing_cases,
            self.distinct_failures,
            self.dedup_hits(),
            self.dedup_hit_rate() * 100.0,
            self.pruned_seeds
        ));
        // Only traced campaigns get the trace line, so untraced reports stay
        // byte-identical to what they rendered before tracing existed.
        if self.trace_events_recorded > 0 {
            out.push_str(&format!(
                "   trace: {} events recorded, {} dropped by ring wrap\n",
                self.trace_events_recorded, self.trace_events_dropped
            ));
        }
        out
    }

    /// The timing slice of the metrics (wall-clock varies run to run, so
    /// this is rendered separately from the deterministic report).
    pub fn render_timings(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "   campaign wall-clock {:?} on {} thread(s); case work {:?} total, {:?} mean",
            self.campaign_wall,
            self.threads_used,
            self.total_case_wall,
            self.mean_case_wall()
        ));
        if let Some((idx, wall)) = self.slowest_case() {
            out.push_str(&format!(", slowest case #{idx} at {wall:?}"));
        }
        out.push('\n');
        out
    }
}

/// The full outcome of a campaign over one system.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// System name.
    pub system: String,
    /// Deduplicated failures, in case-index (discovery) order.
    pub failures: Vec<FailureReport>,
    /// Cases actually executed (excludes pruned seeds).
    pub cases_run: usize,
    /// Cases that passed.
    pub cases_passed: usize,
    /// Cases skipped as invalid workloads.
    pub cases_invalid: usize,
    /// Seeds skipped by dedup-aware pruning.
    pub cases_pruned: usize,
    /// Total simulator events processed across executed cases. Deterministic
    /// in the configuration (each case's digest is deterministic in its
    /// seed), so identical across thread counts.
    pub sim_events_processed: u64,
    /// Total simulated messages delivered across executed cases; same
    /// determinism guarantee as [`CampaignReport::sim_events_processed`].
    pub sim_messages_delivered: u64,
    /// Total faults injected across executed cases (message perturbations
    /// plus applied scheduled actions); same determinism guarantee.
    pub sim_faults_injected: u64,
    /// Executed cases whose post-upgrade quiesce ended before its deadline
    /// because the oracle's storm verdict was already decided (the sum of
    /// [`CaseDigest::decided_early`](crate::CaseDigest::decided_early)).
    pub cases_decided_early: u64,
    /// Execution metrics for this run.
    pub metrics: CampaignMetrics,
}

impl CampaignReport {
    /// Adds the counters and metrics of another part of the same run.
    pub(crate) fn absorb(&mut self, part: &CampaignReport) {
        self.cases_run += part.cases_run;
        self.cases_passed += part.cases_passed;
        self.cases_invalid += part.cases_invalid;
        self.cases_pruned += part.cases_pruned;
        // Per-case digests are deterministic in the seed, so these sums are
        // independent of worker thread count — the determinism-digest tests
        // key on exactly that.
        self.sim_events_processed += part.sim_events_processed;
        self.sim_messages_delivered += part.sim_messages_delivered;
        self.sim_faults_injected += part.sim_faults_injected;
        self.cases_decided_early += part.cases_decided_early;
        self.metrics.merge(&part.metrics);
    }

    /// Failures on the given version pair.
    pub fn failures_on(&self, from: VersionId, to: VersionId) -> Vec<&FailureReport> {
        self.failures
            .iter()
            .filter(|f| (f.spec.case.from, f.spec.case.to) == (from, to))
            .collect()
    }

    /// Renders a Table-5-style listing plus the deterministic metrics
    /// summary. Byte-identical for a given configuration regardless of the
    /// thread count the campaign ran with.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>8} {:>8} {:<14} {:<28} {}\n",
            "System", "From", "To", "Scenario", "Workload", "Cause"
        ));
        for f in &self.failures {
            let case = &f.spec.case;
            out.push_str(&format!(
                "{:<16} {:>8} {:>8} {:<14} {:<28} {}\n",
                f.system,
                case.from.to_string(),
                case.to.to_string(),
                case.scenario.to_string(),
                case.workload.to_string(),
                f.cause
            ));
            out.push_str(&f.evidence());
        }
        out.push_str(&format!(
            "-- {} distinct failures / {} cases ({} passed, {} invalid workloads, {} pruned)\n",
            self.failures.len(),
            self.cases_run,
            self.cases_passed,
            self.cases_invalid,
            self.cases_pruned
        ));
        out.push_str(&format!(
            "   sim totals: {} events, {} messages delivered, {} faults injected",
            self.sim_events_processed, self.sim_messages_delivered, self.sim_faults_injected
        ));
        if self.cases_decided_early > 0 {
            out.push_str(&format!(
                ", {} cases decided early",
                self.cases_decided_early
            ));
        }
        out.push('\n');
        out.push_str(&self.metrics.render_summary());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultIntensity;
    use crate::workload::WorkloadSpec;
    use dup_simnet::Durability;

    #[test]
    fn report_table_renders_counts() {
        let report = CampaignReport {
            system: "x".into(),
            failures: vec![],
            cases_run: 10,
            cases_passed: 9,
            cases_invalid: 1,
            cases_pruned: 0,
            sim_events_processed: 1234,
            sim_messages_delivered: 567,
            sim_faults_injected: 89,
            cases_decided_early: 0,
            metrics: CampaignMetrics::default(),
        };
        let table = report.render_table();
        assert!(table.contains("0 distinct failures / 10 cases"));
        let totals = "sim totals: 1234 events, 567 messages delivered, 89 faults injected";
        assert!(table.contains(&format!("{totals}\n")));
        // The cut count shows only when some case was cut.
        let cut = CampaignReport {
            cases_decided_early: 2,
            ..report
        };
        assert!(cut
            .render_table()
            .contains(&format!("{totals}, 2 cases decided early\n")));
    }

    fn failure(scenario: Scenario, nudge: PlanNudge) -> FailureReport {
        FailureReport {
            system: "kvstore".into(),
            spec: CaseSpec {
                case: TestCase {
                    from: "1.0.0".parse().unwrap(),
                    to: "2.0.0".parse().unwrap(),
                    scenario,
                    workload: WorkloadSpec::Stress,
                    seed: 7,
                    faults: FaultIntensity::Heavy,
                    durability: Durability::Torn,
                },
                nudge,
            },
            signature: String::new(),
            cause: "Unclassified",
            observations: vec![],
            variants: BTreeMap::from([(String::new(), 1)]),
            trace: None,
        }
    }

    #[test]
    fn repro_line_is_the_spec_and_parses_back() {
        // Un-nudged lines are the ones this report has always printed.
        let plain = failure(Scenario::Rolling, PlanNudge::default());
        let line = "repro: 1.0.0->2.0.0 scenario=rolling workload=stress seed=7 \
                    faults=heavy durability=torn";
        assert_eq!(plain.repro(), line);
        assert_eq!(line.parse(), Ok(plain.spec.clone()));
        // A mutant's line gains its nudge.
        let nudge = PlanNudge {
            settle_shift_ms: -300,
            step_swap_salt: 0x2b,
            ..PlanNudge::default()
        };
        let mutant = failure(Scenario::RollbackAfterPartial, nudge);
        assert_eq!(
            mutant.repro(),
            "repro: 1.0.0->2.0.0 scenario=rollback-after-partial workload=stress seed=7 \
             faults=heavy durability=torn nudge=s-300,w2b"
        );
        assert_eq!(mutant.repro().parse(), Ok(mutant.spec.clone()));
        // Without the label, too; and only in the canonical form.
        assert_eq!(line[7..].parse(), Ok(plain.spec));
        for bad in [
            "",
            "repro:",
            "1.0.0->2.0.0",
            "1.0->2.0.0 scenario=rolling workload=stress seed=7 faults=heavy durability=torn",
            "1.0.0->2.0.0 scenario=rolling workload=stress seed=07 faults=heavy durability=torn",
            "1.0.0->2.0.0  scenario=rolling workload=stress seed=7 faults=heavy durability=torn",
            "1.0.0->2.0.0 workload=stress scenario=rolling seed=7 faults=heavy durability=torn",
            "1.0.0->2.0.0 scenario=rolling workload=stress seed=7 faults=heavy durability=torn ",
            "1.0.0->2.0.0 scenario=rolling workload=stress seed=7 faults=heavy durability=torn nudge=",
            "1.0.0->2.0.0 scenario=rolling workload=stress seed=7 faults=heavy durability=torn x=1",
            "1.0.0->2.0.0 scenario=rolling workload=stress seed=7 faults=heavy durability=tor",
            "1.0.0->2.0.0 scenario=roll workload=stress seed=7 faults=heavy durability=torn",
            "1.0.0->2.0.0 scenario=rolling workload=unit: seed=7 faults=heavy durability=torn",
            "1.0.0->2.0.0 scenario=rolling workload=stress seed=7 faults=mild durability=torn",
        ] {
            assert!(bad.parse::<CaseSpec>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn render_is_summary_repro_and_trace() {
        use dup_simnet::{SimTime, TraceEvent, TraceEventKind};
        let mut f = failure(Scenario::Rolling, PlanNudge::default());
        assert_eq!(f.render(), format!("{f}\n   {}\n", f.repro()));
        f.trace = Some(TraceSlice {
            lineage: vec![TraceEvent {
                id: 1,
                parent: 0,
                time: SimTime::ZERO,
                kind: TraceEventKind::Observation { node: Some(0) },
            }],
            tail: vec![],
            events_recorded: 1,
            events_dropped: 0,
        });
        let traced = f.render();
        assert!(traced.starts_with(&format!("{f}\n   {}\n", f.repro())));
        assert!(traced.contains("   trace: 1 events recorded"));
        assert!(traced.contains("   lineage (cause -> violation):"));
        assert!(traced.contains("observation node-0"));
    }

    #[test]
    fn metrics_trace_line_appears_only_when_traced() {
        let mut m = CampaignMetrics::default();
        m.record_trace_counts(0, 0);
        assert!(!m.render_summary().contains("trace:"));
        m.record_trace_counts(120, 4);
        m.record_trace_counts(30, 0);
        assert_eq!(m.trace_events_recorded, 150);
        assert_eq!(m.trace_events_dropped, 4);
        assert!(m
            .render_summary()
            .contains("trace: 150 events recorded, 4 dropped by ring wrap"));
    }

    #[test]
    fn a_failure_is_keyed_on_its_first_symptom() {
        let errlog = |sample: &str| Observation::ErrorLogs {
            count: 1,
            sample: sample.to_string(),
        };
        let crash = Observation::NodeCrash {
            node: 0,
            version: "2.0.0".into(),
            reason: "beta".into(),
        };
        let case = |seed| TestCase {
            from: "1.0.0".parse().unwrap(),
            to: "2.0.0".parse().unwrap(),
            scenario: Scenario::Rolling,
            workload: WorkloadSpec::Stress,
            seed,
            faults: FaultIntensity::Off,
            durability: Durability::Strict,
        };
        let none = &PlanNudge::default();
        let mut fold = FailureFold::default();
        // The same first error with different follow-ons: one report, two
        // variants. A crash the oracle lists first does not lead the key.
        let a = [errlog("alpha 1"), errlog("beta 2")];
        let b = [crash.clone(), errlog("alpha 3"), errlog("gamma")];
        fold.push(0, &case(1), none, &a, None);
        assert_eq!(fold.push(1, &case(2), none, &b, None), 2);
        assert_eq!(fold.push(2, &case(3), none, &a, None), 3);
        // A different first error: another report.
        fold.push(3, &case(4), none, &[errlog("beta"), errlog("alpha")], None);
        // No error record: the first observation leads; a storm keys on
        // `storm`, whatever its counts.
        let storm = |messages| Observation::MessageStorm {
            messages,
            baseline: 10,
        };
        fold.push(4, &case(5), none, &[storm(9_000)], None);
        fold.push(5, &case(6), none, &[storm(7_000), crash], None);
        let reports: Vec<_> = fold.firsts.iter().map(|(_, f)| f).collect();
        let keys: Vec<&str> = reports.iter().map(|f| f.signature.as_str()).collect();
        assert_eq!(keys, ["errlog:alpha ", "errlog:beta", "storm"]);
        assert_eq!(reports[0].reproductions(), 3);
        assert_eq!(reports[2].reproductions(), 2);
        // Only a report with more than one variant lists them, with counts.
        let table = CampaignReport {
            failures: reports.iter().map(|f| (*f).clone()).collect(),
            ..CampaignReport::default()
        };
        let rendered = table.render_table();
        let listed: Vec<&str> = rendered
            .lines()
            .filter(|line| line.starts_with("   variant"))
            .collect();
        assert_eq!(
            listed,
            [
                "   variant x1: crash:beta|errlog:alpha |errlog:gamma",
                "   variant x2: errlog:alpha |errlog:beta ",
                "   variant x1: crash:beta|storm",
                "   variant x1: storm",
            ]
        );
        // The variant key is order- and duplicate-insensitive.
        assert_eq!(
            variant_key(&a),
            variant_key(&[errlog("beta 4"), errlog("alpha 5"), errlog("alpha 6")])
        );
    }

    #[test]
    fn failure_fold_keeps_firsts_and_counts_the_rest() {
        let crash = |reason: &str| Observation::NodeCrash {
            node: 0,
            version: "2.0.0".into(),
            reason: reason.to_string(),
        };
        let case = |seed| TestCase {
            from: "1.0.0".parse().unwrap(),
            to: "2.0.0".parse().unwrap(),
            scenario: Scenario::FullStop,
            workload: WorkloadSpec::Stress,
            seed,
            faults: FaultIntensity::Off,
            durability: Durability::Strict,
        };
        let none = &PlanNudge::default();
        let mut early = FailureFold::default();
        assert_eq!(early.push(0, &case(1), none, &[crash("alpha")], None), 1);
        assert_eq!(early.push(1, &case(2), none, &[crash("beta")], None), 1);
        assert_eq!(early.push(2, &case(3), none, &[crash("alpha")], None), 2);
        let mut late = FailureFold::default();
        late.push(7, &case(8), none, &[crash("gamma")], None);
        late.push(8, &case(9), none, &[crash("beta")], None);
        // Another version pair never merges, whatever its signature.
        let other_pair = TestCase {
            to: "3.0.0".parse().unwrap(),
            ..case(10)
        };
        late.push(9, &other_pair, none, &[crash("alpha")], None);

        early.merge(late);
        let kept: Vec<_> = early
            .firsts
            .iter()
            .map(|(index, f)| (*index, f.spec.case.seed, f.reproductions()))
            .collect();
        assert_eq!(kept, [(0, 1, 2), (1, 2, 2), (7, 8, 1), (9, 10, 1)]);
        assert_eq!(early.firsts[0].1.signature, dedup_key(&[crash("alpha")]));
    }

    #[test]
    fn merged_metrics_equal_recording_case_by_case() {
        let ms = Duration::from_millis;
        // (index, scenario, status, wall); 3 and 6 tie for slowest.
        let cases = [
            (0, Scenario::FullStop, CaseStatus::Passed, ms(5)),
            (1, Scenario::FullStop, CaseStatus::Failed, ms(2)),
            (2, Scenario::FullStop, CaseStatus::Pruned, ms(0)),
            (3, Scenario::Rolling, CaseStatus::Hung, ms(9)),
            (4, Scenario::Rolling, CaseStatus::Invalid, ms(1)),
            (5, Scenario::NewNodeJoin, CaseStatus::Panicked, ms(3)),
            (6, Scenario::NewNodeJoin, CaseStatus::Failed, ms(9)),
            (7, Scenario::NewNodeJoin, CaseStatus::Pruned, ms(0)),
            (8, Scenario::NewNodeJoin, CaseStatus::Pruned, ms(0)),
        ];
        let mut whole = CampaignMetrics::default();
        for (index, scenario, status, wall) in cases {
            whole.record_case(index, scenario, status, wall);
        }
        whole.record_trace_counts(70, 2);
        assert_eq!(whole.slowest_case(), Some((6, ms(9))), "ties go up");

        // The same cases as three parts, the pruned tail of the last one
        // counted in one step, merged in either order.
        let part = |range: std::ops::Range<usize>| {
            let mut m = CampaignMetrics::default();
            for (index, scenario, status, wall) in &cases[range] {
                m.record_case(*index, *scenario, *status, *wall);
            }
            m
        };
        let (mut a, b, mut c) = (part(0..3), part(3..5), part(5..7));
        c.record_cases(8, Scenario::NewNodeJoin, CaseStatus::Pruned, ms(0), 2);
        a.record_trace_counts(30, 2);
        c.record_trace_counts(40, 0);
        for order in [[&a, &b, &c], [&c, &b, &a]] {
            let mut merged = CampaignMetrics::default();
            for part in order {
                merged.merge(part);
            }
            assert_eq!(merged, whole);
        }
    }

    #[test]
    fn metrics_accumulate_and_summarize() {
        let mut m = CampaignMetrics::default();
        m.record_case(
            0,
            Scenario::FullStop,
            CaseStatus::Passed,
            Duration::from_millis(5),
        );
        m.record_case(
            1,
            Scenario::FullStop,
            CaseStatus::Failed,
            Duration::from_millis(7),
        );
        m.record_case(
            2,
            Scenario::Rolling,
            CaseStatus::Failed,
            Duration::from_millis(9),
        );
        m.record_case(3, Scenario::Rolling, CaseStatus::Pruned, Duration::ZERO);
        m.record_distinct_failure();
        assert_eq!(m.failing_cases, 2);
        assert_eq!(m.dedup_hits(), 1);
        assert!((m.dedup_hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(m.pruned_seeds, 1);
        assert_eq!(m.per_scenario[&Scenario::FullStop].passed, 1);
        assert_eq!(m.per_scenario[&Scenario::Rolling].pruned, 1);
        assert_eq!(m.slowest_case(), Some((2, Duration::from_millis(9))));
        assert_eq!(m.mean_case_wall(), Duration::from_millis(7));
        let summary = m.render_summary();
        assert!(summary.contains("full-stop"));
        assert!(summary.contains("1 seeds pruned"));
        assert!(m.render_timings().contains("thread"));
    }
}
