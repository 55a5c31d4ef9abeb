//! Coverage-guided search over the campaign schedule space.
//!
//! A blind campaign sweeps fresh seeds and hopes one of them lands in the
//! tiny corner of the interleaving space where an upgrade failure hides
//! (paper §6). This module searches instead: every executed case's causal
//! trace folds into a [`CaseSignature`](crate::campaign::CaseSignature),
//! a per-group [`CoverageMap`](crate::campaign::CoverageMap) accumulates
//! which structural event pairs have been seen, and inputs that reached
//! *new* coverage enter a [`Corpus`] whose entries are then perturbed by
//! seeded [`MutationOp`]s — shifting fault times, re-rolling per-message
//! fates, moving crash points across the upgrade window, and (for
//! open-loop workload groups) sliding traffic bursts, re-ranking hot keys,
//! and moving arrival churn — rather than by drawing unrelated fresh
//! seeds. Groups whose coverage stops growing stop
//! early, so a guided run spends its budget where the schedule space is
//! still yielding.
//!
//! Everything is deterministic: mutation draws come from a
//! [`SimRng`] tree keyed on `(search seed, group, round, entry, mutant)`,
//! corpus insertion is commutative, and per-group ordinals (not thread
//! interleavings) define the case order — so a [`SearchReport`] is
//! byte-identical across thread counts and reruns.

use crate::campaign::coverage::{CaseSignature, CoverageMap};
use crate::campaign::executor::{run_contained, Tally};
use crate::campaign::observer::CampaignObserver;
use crate::campaign::report::{CampaignReport, CaseStatus, FailureFold};
use crate::faults::{FaultIntensity, PlanNudge, MAX_NUDGE_SHIFT_MS};
use crate::harness::{CaseOutcome, CaseRunner};
use crate::oracle::Observation;
use crate::spec::{CaseSpec, TestCase};
use dup_core::VersionId;
use dup_simnet::{Durability, SimRng};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::time::Instant;

/// One schedule-affecting input the search can execute and mutate: the case
/// seed plus a [`PlanNudge`] perturbing the seed's fault plan.
///
/// The seed is chosen at bootstrap and never mutated — mutation operators
/// only touch the nudge, so a mutant replays the same workload and cluster
/// and moves only the injected adversity. That is the whole point: explore
/// *schedules*, not unrelated executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SearchInput {
    /// The case seed (selects the workload's seed-dependent half and every
    /// fault-plan draw).
    pub seed: u64,
    /// The perturbation applied to the seed's fault plan at install time.
    pub nudge: PlanNudge,
}

impl SearchInput {
    /// A bootstrap input: the bare seed with no perturbation.
    pub fn from_seed(seed: u64) -> Self {
        SearchInput {
            seed,
            nudge: PlanNudge::default(),
        }
    }
}

/// `seed=<seed>`, then ` nudge=<nudge>` for a nudge that is not a no-op.
impl fmt::Display for SearchInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        if !self.nudge.is_noop() {
            write!(f, " nudge={}", self.nudge)?;
        }
        Ok(())
    }
}

/// The mutation operators the search applies to corpus entries. Each is a
/// pure function of `(input, rng)` — see [`mutate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationOp {
    /// Shift every scheduled partition/heal/crash/restart uniformly by up
    /// to ±[`MAX_NUDGE_SHIFT_MS`] so the adversity slides across the
    /// upgrade window.
    ShiftFaultTimes,
    /// Re-roll the plan's per-message fate stream: the same probabilities
    /// pick on different messages, reordering different deliveries.
    SwapReorderFates,
    /// Shift the state-triggered crash-point windows by up to
    /// ±[`MAX_NUDGE_SHIFT_MS`], moving mid-upgrade and unflushed-write
    /// crashes to different points of the rollout.
    MoveCrashPoints,
    /// Perturb the compiled rollout plan itself: shift settle durations by
    /// up to ±[`MAX_SETTLE_SHIFT_MS`](crate::MAX_SETTLE_SHIFT_MS) and swap
    /// one adjacent pair of steps, both within
    /// [`RolloutPlan::validate`](crate::RolloutPlan::validate)'s
    /// constraints.
    NudgeRolloutPlan,
    /// Slide the open-loop workload's burst segments across the traffic
    /// window ([`WorkloadPlan::nudge`](crate::WorkloadPlan::nudge) clamps
    /// the shift to a quarter burst slot), so load spikes land on different
    /// rollout steps.
    ShiftBursts,
    /// Re-roll the Zipf rank→key permutation salt: a different key set
    /// becomes hot while the arrival schedule stays fixed.
    ReRankHotKeys,
    /// Re-roll the arrival→client churn salt: the same arrivals issue from
    /// a different assignment of logical clients.
    MoveArrivalChurn,
}

impl MutationOp {
    /// The fault/rollout-plan operators — everything a non-open-loop group
    /// can usefully mutate. Kept as its own slice (in the original order)
    /// so groups without an open-loop workload draw exactly the schedules
    /// they always have.
    pub const CORE: [MutationOp; 4] = [
        MutationOp::ShiftFaultTimes,
        MutationOp::SwapReorderFates,
        MutationOp::MoveCrashPoints,
        MutationOp::NudgeRolloutPlan,
    ];

    /// All operators, in the order the mutation RNG indexes them. The
    /// search draws from this slice only for groups whose template carries
    /// an open-loop workload; everyone else draws from [`CORE`](Self::CORE).
    pub const ALL: [MutationOp; 7] = [
        MutationOp::ShiftFaultTimes,
        MutationOp::SwapReorderFates,
        MutationOp::MoveCrashPoints,
        MutationOp::NudgeRolloutPlan,
        MutationOp::ShiftBursts,
        MutationOp::ReRankHotKeys,
        MutationOp::MoveArrivalChurn,
    ];
}

/// Applies `op` to `input`, drawing from `rng`. Pure and seeded: the same
/// `(input, op, rng state)` always produces the same mutant, and the mutant
/// never changes the case seed. Shifts are bounded by
/// [`MAX_NUDGE_SHIFT_MS`]; [`crate::apply_nudge`] additionally clamps the
/// shifted times into the plan window, so mutants always stay within case
/// bounds.
pub fn mutate(input: &SearchInput, op: MutationOp, rng: &mut SimRng) -> SearchInput {
    let mut out = *input;
    match op {
        MutationOp::ShiftFaultTimes => {
            out.nudge.action_shift_ms =
                rng.next_range(0, 2 * MAX_NUDGE_SHIFT_MS) as i64 - MAX_NUDGE_SHIFT_MS as i64;
        }
        MutationOp::SwapReorderFates => {
            // Force a non-zero salt so the fate stream actually re-rolls.
            out.nudge.fate_salt = rng.next_u64() | 1;
        }
        MutationOp::MoveCrashPoints => {
            out.nudge.crash_shift_ms =
                rng.next_range(0, 2 * MAX_NUDGE_SHIFT_MS) as i64 - MAX_NUDGE_SHIFT_MS as i64;
        }
        MutationOp::NudgeRolloutPlan => {
            out.nudge.settle_shift_ms = rng.next_range(0, 2 * crate::MAX_SETTLE_SHIFT_MS) as i64
                - crate::MAX_SETTLE_SHIFT_MS as i64;
            // Force a non-zero salt so a swap is actually attempted.
            out.nudge.step_swap_salt = rng.next_u64() | 1;
        }
        MutationOp::ShiftBursts => {
            out.nudge.burst_shift_ms =
                rng.next_range(0, 2 * MAX_NUDGE_SHIFT_MS) as i64 - MAX_NUDGE_SHIFT_MS as i64;
        }
        MutationOp::ReRankHotKeys => {
            // Force a non-zero salt so the permutation actually changes.
            out.nudge.key_rank_salt = rng.next_u64() | 1;
        }
        MutationOp::MoveArrivalChurn => {
            out.nudge.arrival_churn_salt = rng.next_u64() | 1;
        }
    }
    out
}

/// One retained corpus member: an input that reached new coverage, with the
/// evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The input that was executed.
    pub input: SearchInput,
    /// The digest of the case's coverage signature — the corpus dedup key.
    pub digest: u64,
    /// How many coverage bits this case was first to reach.
    pub new_bits: u32,
    /// Total bits the case's own signature set.
    pub bits_set: u32,
}

/// The set of inputs that reached new coverage, keyed (and deduplicated) by
/// signature digest.
///
/// Insertion is *commutative*: observing the same set of entries in any
/// order yields the same corpus, because the digest is the key and digest
/// collisions resolve to the smallest input. Iteration is in digest order,
/// which is what makes mutation scheduling independent of execution
/// interleaving.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    entries: BTreeMap<u64, CorpusEntry>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Removes every entry, retaining allocated capacity where possible.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Inserts `entry`, returning `true` when its digest was new. On a
    /// digest collision the entry with the smaller [`SearchInput`] wins, so
    /// the resulting corpus is a pure function of the observation *set*,
    /// not the observation order.
    pub fn insert(&mut self, entry: CorpusEntry) -> bool {
        match self.entries.get_mut(&entry.digest) {
            Some(existing) => {
                if entry.input < existing.input {
                    *existing = entry;
                }
                false
            }
            None => {
                self.entries.insert(entry.digest, entry);
                true
            }
        }
    }

    /// Whether a signature digest is already represented. Allocation-free.
    pub fn contains(&self, digest: u64) -> bool {
        self.entries.contains_key(&digest)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry has been retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained entries in digest order.
    pub fn entries(&self) -> impl Iterator<Item = &CorpusEntry> {
        self.entries.values()
    }

    /// A deterministic text dump of the corpus — one line per entry — used
    /// by the determinism tests and uploaded as a CI artifact when a search
    /// suite fails.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.entries.values() {
            let _ = writeln!(
                out,
                "digest={:#018x} {} new_bits={} bits_set={}",
                e.digest, e.input, e.new_bits, e.bits_set,
            );
        }
        out
    }
}

/// Configuration of one coverage-guided (or blind-baseline) search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfig {
    /// Hard per-group case budget. The blind baseline always spends exactly
    /// this many cases per group; the guided search spends at most this
    /// many and stops early once coverage goes dry.
    pub budget_per_group: usize,
    /// Bootstrap seeds executed un-nudged before any mutation. Shared with
    /// the blind baseline so the two modes start from the same prefix.
    pub initial_seeds: Vec<u64>,
    /// Mutants derived from each corpus entry per round.
    pub mutants_per_entry: usize,
    /// Stop a group after this many consecutive rounds without new
    /// coverage.
    pub dry_rounds: usize,
    /// Root of the mutation RNG tree; every draw is keyed on
    /// `(search_seed, group, round, entry, mutant)`.
    pub search_seed: u64,
    /// Run the blind baseline instead: `budget_per_group` consecutive
    /// seeds, no feedback, no mutation, no early stop.
    pub blind: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            budget_per_group: 4,
            initial_seeds: vec![1],
            mutants_per_entry: 2,
            dry_rounds: 1,
            search_seed: 0x5EAC_C0DE,
            blind: false,
        }
    }
}

/// What one mutation round accomplished; delivered to
/// [`CampaignObserver::on_search_round`](crate::campaign::CampaignObserver::on_search_round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchRound {
    /// The seed group (matrix order) the round ran in.
    pub group: usize,
    /// Round number within the group, 0-based (bootstrap is round 0).
    pub round: usize,
    /// Cases executed by this round.
    pub cases: usize,
    /// Coverage bits first reached by this round.
    pub new_bits: u32,
    /// The group's accumulated coverage after the round.
    pub coverage_bits: u32,
    /// Corpus size after the round.
    pub corpus_size: usize,
}

/// One failing case found by the search, positioned by `(group, ordinal)`
/// rather than wall-clock order so the cases-to-detection metric is
/// independent of thread count.
#[derive(Debug, Clone)]
pub struct Detection {
    /// The seed group (matrix order).
    pub group: usize,
    /// 0-based execution ordinal within the group.
    pub ordinal: usize,
    /// The case as executed: its real seed, not the matrix placeholder, and
    /// the nudge of the input that produced it.
    pub spec: CaseSpec,
    /// The oracle's evidence.
    pub observations: Vec<Observation>,
}

/// Per-group outcome of a search run.
#[derive(Debug, Clone, Default)]
pub struct GroupSearchSummary {
    /// Cases the group actually executed (≤ the budget for guided groups).
    pub cases_run: usize,
    /// Mutation rounds executed after bootstrap.
    pub rounds: usize,
    /// Final accumulated coverage bits.
    pub coverage_bits: u32,
    /// The group's final corpus, in digest order.
    pub corpus: Vec<CorpusEntry>,
}

/// The result of [`Campaign::run_search`](crate::campaign::Campaign::run_search):
/// the aggregated campaign-style report plus the search-specific evidence.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Failures aggregated exactly like a campaign report (deduplicated,
    /// matrix order), with counters summed over executed cases.
    pub campaign: CampaignReport,
    /// Per-group summaries, in matrix order.
    pub groups: Vec<GroupSearchSummary>,
    /// Every failing case, ordered by `(group, ordinal)`.
    pub detections: Vec<Detection>,
}

impl SearchReport {
    /// Total cases executed across all groups.
    pub fn total_cases(&self) -> usize {
        self.groups.iter().map(|g| g.cases_run).sum()
    }

    /// Cases-to-first-detection for a bug identified by its version pair
    /// and a marker substring (the catalog's convention): the number of
    /// cases a sequential walk in `(group, ordinal)` order executes up to
    /// and including the first matching detection. `None` when the bug was
    /// never detected.
    ///
    /// Thread-count independent by construction: ordinals and group order
    /// come from the matrix, not from completion order.
    pub fn cases_to_detect(&self, from: VersionId, to: VersionId, marker: &str) -> Option<usize> {
        let mut prefix = vec![0usize; self.groups.len() + 1];
        for (i, g) in self.groups.iter().enumerate() {
            prefix[i + 1] = prefix[i] + g.cases_run;
        }
        self.detections
            .iter()
            .filter(|d| {
                (d.spec.case.from, d.spec.case.to) == (from, to)
                    && d.observations
                        .iter()
                        .any(|o| o.to_string().contains(marker))
            })
            .map(|d| prefix[d.group] + d.ordinal + 1)
            .min()
    }

    /// A deterministic text rendering of the whole search outcome —
    /// campaign table, per-group coverage, and every corpus dump — used by
    /// the rerun/thread-count determinism tests.
    pub fn render_summary(&self) -> String {
        let mut out = self.campaign.render_table();
        for (i, g) in self.groups.iter().enumerate() {
            let _ = writeln!(
                out,
                "group {i}: cases={} rounds={} coverage_bits={} corpus={}",
                g.cases_run,
                g.rounds,
                g.coverage_bits,
                g.corpus.len(),
            );
            for e in &g.corpus {
                let _ = writeln!(
                    out,
                    "  digest={:#018x} {} new_bits={}",
                    e.digest, e.input, e.new_bits,
                );
            }
        }
        out
    }
}

/// What one searched group leaves behind for aggregation: its folded
/// failures, like a blind group, plus the search's own evidence — every
/// failing case as a [`Detection`], at most `budget_per_group` of them.
#[derive(Debug, Default)]
pub(crate) struct SearchGroupRecord {
    pub(crate) summary: GroupSearchSummary,
    pub(crate) failures: FailureFold,
    pub(crate) detections: Vec<Detection>,
}

/// The pooled per-worker search state: one signature buffer, one coverage
/// map, one corpus, all cleared (not reallocated) between groups.
pub(crate) struct SearchPools {
    signature: CaseSignature,
    coverage: CoverageMap,
    corpus: Corpus,
}

impl SearchPools {
    pub(crate) fn new() -> Self {
        SearchPools {
            signature: CaseSignature::new(),
            coverage: CoverageMap::new(),
            corpus: Corpus::new(),
        }
    }
}

/// The per-group search driver: bootstraps from the configured seeds, then
/// (guided mode, plan-bearing groups only) mutates corpus entries until the
/// budget runs out or coverage goes dry. Runs atop the warm `runner` —
/// snapshot-and-fork and pooled simulator state included — exactly like a
/// blind campaign group.
pub(crate) fn run_search_group(
    runner: &mut CaseRunner<'_>,
    pools: &mut SearchPools,
    tally: &mut Tally,
    group_index: usize,
    template: &TestCase,
    search: &SearchConfig,
    observer: &dyn CampaignObserver,
) -> SearchGroupRecord {
    pools.coverage.clear();
    pools.corpus.clear();
    let mut rec = SearchGroupRecord::default();
    let budget = search.budget_per_group.max(1);

    // Bootstrap: the configured seeds, un-nudged. Shared verbatim with the
    // blind baseline so guided-vs-blind comparisons start from an identical
    // prefix.
    let mut bootstrap_new = 0u32;
    for &seed in search.initial_seeds.iter().take(budget) {
        bootstrap_new += run_case(
            runner,
            pools,
            tally,
            &mut rec,
            group_index,
            budget,
            template,
            SearchInput::from_seed(seed),
            observer,
        );
    }
    observer.on_search_round(&SearchRound {
        group: group_index,
        round: 0,
        cases: rec.summary.cases_run,
        new_bits: bootstrap_new,
        coverage_bits: pools.coverage.bits_set(),
        corpus_size: pools.corpus.len(),
    });

    if search.blind {
        // Blind baseline: exhaust the budget with consecutive fresh seeds —
        // no feedback, no mutation, no early stop.
        let mut next = search.initial_seeds.iter().copied().max().unwrap_or(0) + 1;
        while rec.summary.cases_run < budget {
            run_case(
                runner,
                pools,
                tally,
                &mut rec,
                group_index,
                budget,
                template,
                SearchInput::from_seed(next),
                observer,
            );
            next += 1;
        }
        finish_group(rec, pools, tally)
    } else {
        // Guided rounds. A group with no fault plan — faults off under
        // strict durability — has nothing a nudge could perturb: every
        // mutant would replay its parent byte-for-byte. Skip mutation
        // outright; the bootstrap already explored everything a nudge
        // could. Extended scenarios carry a mutable rollout plan even with
        // faults off, so they always mutate — and so do open-loop workload
        // groups, whose compiled arrival plan the workload operators
        // perturb even when every fault knob is off.
        let open_loop = matches!(
            template.workload,
            crate::workload::WorkloadSpec::OpenLoop(_)
        );
        let has_plan = template.faults != FaultIntensity::Off
            || template.durability != Durability::Strict
            || template.scenario.is_extended()
            || open_loop;
        // Open-loop groups draw from the full operator set; everyone else
        // keeps the original four so pre-existing searches replay
        // byte-for-byte.
        let ops: &[MutationOp] = if open_loop {
            &MutationOp::ALL
        } else {
            &MutationOp::CORE
        };
        let mut round = 0usize;
        let mut dry = 0usize;
        while has_plan
            && rec.summary.cases_run < budget
            && dry < search.dry_rounds.max(1)
            && !pools.corpus.is_empty()
        {
            round += 1;
            // Snapshot the parent inputs up front: entries retained during
            // the round mutate in the *next* round, keeping the schedule a
            // pure function of the corpus state at round start.
            let parents: Vec<SearchInput> = pools.corpus.entries().map(|e| e.input).collect();
            let cases_before = rec.summary.cases_run;
            let mut round_new = 0u32;
            'parents: for (entry_idx, parent) in parents.iter().enumerate() {
                for mutant in 0..search.mutants_per_entry.max(1) {
                    if rec.summary.cases_run >= budget {
                        break 'parents;
                    }
                    let mut rng = SimRng::new(search.search_seed)
                        .split(group_index as u64)
                        .split(round as u64)
                        .split(entry_idx as u64)
                        .split(mutant as u64);
                    let op = *rng.pick(ops).expect("operator set is non-empty");
                    let input = mutate(parent, op, &mut rng);
                    round_new += run_case(
                        runner,
                        pools,
                        tally,
                        &mut rec,
                        group_index,
                        budget,
                        template,
                        input,
                        observer,
                    );
                }
            }
            rec.summary.rounds = round;
            observer.on_search_round(&SearchRound {
                group: group_index,
                round,
                cases: rec.summary.cases_run - cases_before,
                new_bits: round_new,
                coverage_bits: pools.coverage.bits_set(),
                corpus_size: pools.corpus.len(),
            });
            if round_new == 0 {
                dry += 1;
            } else {
                dry = 0;
            }
        }
        finish_group(rec, pools, tally)
    }
}

/// Moves the group's final coverage, corpus and folded failures into its
/// record.
fn finish_group(
    mut rec: SearchGroupRecord,
    pools: &mut SearchPools,
    tally: &mut Tally,
) -> SearchGroupRecord {
    rec.summary.coverage_bits = pools.coverage.bits_set();
    rec.summary.corpus = pools.corpus.entries().copied().collect();
    rec.failures = tally.finish_group();
    rec
}

/// Executes one input inside the group: run it under its nudge, fold the
/// trace into the signature, union into coverage, retain in the corpus on
/// novelty, and record the outcome. Returns the new coverage bits the case
/// contributed.
#[allow(clippy::too_many_arguments)]
fn run_case(
    runner: &mut CaseRunner<'_>,
    pools: &mut SearchPools,
    tally: &mut Tally,
    rec: &mut SearchGroupRecord,
    group_index: usize,
    budget: usize,
    template: &TestCase,
    input: SearchInput,
    observer: &dyn CampaignObserver,
) -> u32 {
    let ordinal = rec.summary.cases_run;
    let case = TestCase {
        seed: input.seed,
        ..template.clone()
    };
    // Synthetic per-case index: sparse but stable and collision-free, so
    // observer callbacks stay ordered the same way on any thread count.
    let index = group_index * budget + ordinal;
    observer.on_case_start(index, &case);
    let t0 = Instant::now();
    // Panic containment mirrors the blind executor: one buggy case costs
    // one case.
    let result = run_contained(|| runner.execute(&case, &input.nudge));
    let wall = t0.elapsed();
    rec.summary.cases_run += 1;

    // Coverage: fold the case's trace. A panicked case left no trustworthy
    // trace; it contributes nothing to coverage (but its failure is still
    // recorded below).
    let mut new_bits = 0u32;
    if CaseStatus::of(&result.outcome) != CaseStatus::Panicked {
        if let Some(trace) = runner.trace_buffer() {
            pools.signature.clear();
            pools.signature.fold(trace);
            new_bits = pools.coverage.observe(&pools.signature);
            if new_bits > 0 {
                pools.corpus.insert(CorpusEntry {
                    input,
                    digest: pools.signature.digest(),
                    new_bits,
                    bits_set: pools.signature.bits_set(),
                });
            }
        }
    }

    // Dedup keys on the case as *executed* — real seed and nudge, not the
    // matrix placeholder.
    tally.case_done(index, &case, &input.nudge, &result, wall, observer);
    if let CaseOutcome::Fail(observations) = result.outcome {
        rec.detections.push(Detection {
            group: group_index,
            ordinal,
            spec: CaseSpec {
                case,
                nudge: input.nudge,
            },
            observations,
        });
    }
    new_bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_is_pure_and_seeded() {
        let input = SearchInput::from_seed(7);
        for op in MutationOp::ALL {
            let mut a = SimRng::new(42).split(9);
            let mut b = SimRng::new(42).split(9);
            assert_eq!(mutate(&input, op, &mut a), mutate(&input, op, &mut b));
            let mut c = SimRng::new(43).split(9);
            // A different seed is allowed to (and in practice does) differ.
            let _ = mutate(&input, op, &mut c);
        }
    }

    #[test]
    fn mutation_never_touches_the_seed() {
        let input = SearchInput::from_seed(1234);
        let mut rng = SimRng::new(5);
        for op in MutationOp::ALL {
            assert_eq!(mutate(&input, op, &mut rng).seed, 1234);
        }
    }

    #[test]
    fn mutation_shifts_are_bounded() {
        let input = SearchInput::from_seed(1);
        for trial in 0..200u64 {
            let mut rng = SimRng::new(trial);
            for op in MutationOp::ALL {
                let m = mutate(&input, op, &mut rng);
                assert!(m.nudge.action_shift_ms.unsigned_abs() <= MAX_NUDGE_SHIFT_MS);
                assert!(m.nudge.crash_shift_ms.unsigned_abs() <= MAX_NUDGE_SHIFT_MS);
                assert!(m.nudge.settle_shift_ms.unsigned_abs() <= crate::MAX_SETTLE_SHIFT_MS);
                assert!(m.nudge.burst_shift_ms.unsigned_abs() <= MAX_NUDGE_SHIFT_MS);
            }
            let mut rng = SimRng::new(trial);
            let swapped = mutate(&input, MutationOp::SwapReorderFates, &mut rng);
            assert_ne!(swapped.nudge.fate_salt, 0, "fate swap must re-roll");
            let mut rng = SimRng::new(trial);
            let nudged = mutate(&input, MutationOp::NudgeRolloutPlan, &mut rng);
            assert_ne!(nudged.nudge.step_swap_salt, 0, "plan nudge must swap");
            assert_eq!(nudged.nudge.fate_salt, 0, "plan nudge leaves fates");
            let mut rng = SimRng::new(trial);
            let ranked = mutate(&input, MutationOp::ReRankHotKeys, &mut rng);
            assert_ne!(ranked.nudge.key_rank_salt, 0, "re-rank must re-roll");
            assert_eq!(ranked.nudge.burst_shift_ms, 0, "re-rank leaves timing");
            let mut rng = SimRng::new(trial);
            let churned = mutate(&input, MutationOp::MoveArrivalChurn, &mut rng);
            assert_ne!(churned.nudge.arrival_churn_salt, 0, "churn must re-roll");
            assert_eq!(churned.nudge.key_rank_salt, 0, "churn leaves ranking");
        }
    }

    #[test]
    fn core_operators_are_a_prefix_of_all() {
        // Non-open-loop groups draw from CORE; the invariant that CORE is
        // exactly the legacy operator set (and a prefix of ALL) is what
        // keeps their mutation schedules stable across this API widening.
        assert_eq!(
            &MutationOp::ALL[..MutationOp::CORE.len()],
            &MutationOp::CORE[..]
        );
        assert!(MutationOp::ALL.len() > MutationOp::CORE.len());
    }

    #[test]
    fn corpus_insertion_is_commutative() {
        let entries: Vec<CorpusEntry> = (0..8)
            .map(|i| CorpusEntry {
                input: SearchInput::from_seed(i),
                digest: 0x1000 + i % 5, // force collisions
                new_bits: 1,
                bits_set: 10,
            })
            .collect();
        let mut forward = Corpus::new();
        let mut backward = Corpus::new();
        for e in &entries {
            forward.insert(*e);
        }
        for e in entries.iter().rev() {
            backward.insert(*e);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.render(), backward.render());
        assert_eq!(forward.len(), 5);
        assert!(forward.contains(0x1000));
        assert!(!forward.contains(0x9999));
    }

    #[test]
    fn default_search_config_is_sane() {
        let c = SearchConfig::default();
        assert!(c.budget_per_group >= 1);
        assert_eq!(c.initial_seeds, vec![1]);
        assert!(!c.blind);
        assert!(c.dry_rounds >= 1);
    }
}
