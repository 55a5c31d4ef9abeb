//! Case-matrix enumeration: describes the full version-pair × scenario ×
//! workload × seed sweep *arithmetically*, giving every case a stable index
//! without materializing the cases.
//!
//! Stable indices are what make the parallel executor deterministic: workers
//! may finish in any order, but results are aggregated by index, so the
//! report reads exactly as if the matrix had been walked sequentially.
//!
//! An enumerated matrix stores only the sweep's *axes* (the version pairs,
//! scenarios, workloads, fault intensities, durabilities, and seeds) plus
//! the O(groups) seed-group table; [`CaseMatrix::case_at`] decodes a case
//! index into its [`TestCase`] by mixed-radix arithmetic. That is what lets
//! a campaign sweep 10⁶+ cases without ever holding 10⁶ `TestCase`s — or
//! per-case results — in memory.

use crate::campaign::CampaignConfig;
use crate::faults::FaultIntensity;
use crate::scenario::Scenario;
use crate::spec::TestCase;
use crate::workload::WorkloadSpec;
use dup_core::{upgrade_pairs, SystemUnderTest, VersionId};
use dup_simnet::Durability;
use std::sync::Arc;

// The enumeration order is pairs → scenarios → workloads → fault
// intensities → durabilities → seeds; seeds stay innermost so each
// (…, intensity, durability) combination still forms one contiguous
// `SeedGroup`.

/// A contiguous run of case indices that differ only in seed — one
/// (version pair, scenario, workload) combination swept across every
/// configured seed.
///
/// Seed groups are the unit of work handed to executor threads: seeds of one
/// group run in enumeration order on a single worker, which is what lets
/// dedup-aware seed pruning stay deterministic under parallelism. They are
/// also the unit of *prefix sharing*: every case of a group has the same
/// `(from, workload)`, so a snapshotting runner executes the warmup prefix
/// once per group at most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedGroup {
    /// Index of the group's first case.
    pub start: usize,
    /// Number of cases (seeds) in the group.
    pub len: usize,
}

impl SeedGroup {
    /// The case indices this group covers.
    pub fn indices(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// The sweep's axes, from which any case index decodes arithmetically.
#[derive(Debug, Clone, Default)]
struct MatrixShape {
    pairs: Vec<(VersionId, VersionId)>,
    scenarios: Vec<Scenario>,
    workloads: Vec<WorkloadSpec>,
    faults: Vec<FaultIntensity>,
    durabilities: Vec<Durability>,
    seeds: Vec<u64>,
}

impl MatrixShape {
    fn len(&self) -> usize {
        self.pairs
            .len()
            .saturating_mul(self.scenarios.len())
            .saturating_mul(self.workloads.len())
            .saturating_mul(self.faults.len())
            .saturating_mul(self.durabilities.len())
            .saturating_mul(self.seeds.len())
    }

    /// Decodes `index` in the canonical mixed-radix order (seeds innermost,
    /// pairs outermost). The only allocation is the workload's `Arc` bump.
    fn case_at(&self, index: usize) -> TestCase {
        debug_assert!(index < self.len());
        let mut rest = index;
        let seed = self.seeds[rest % self.seeds.len()];
        rest /= self.seeds.len();
        let durability = self.durabilities[rest % self.durabilities.len()];
        rest /= self.durabilities.len();
        let faults = self.faults[rest % self.faults.len()];
        rest /= self.faults.len();
        let workload = self.workloads[rest % self.workloads.len()].clone();
        rest /= self.workloads.len();
        let scenario = self.scenarios[rest % self.scenarios.len()];
        rest /= self.scenarios.len();
        let (from, to) = self.pairs[rest];
        TestCase {
            from,
            to,
            scenario,
            workload,
            seed,
            faults,
            durability,
        }
    }
}

/// The campaign sweep: an arithmetic description of the full enumeration
/// ([`CaseMatrix::enumerate`], O(axes + groups) memory).
#[derive(Debug, Clone, Default)]
pub struct CaseMatrix {
    shape: MatrixShape,
    groups: Vec<SeedGroup>,
    len: usize,
}

impl CaseMatrix {
    /// Enumerates every case for `sut` under `config`, in the canonical
    /// order: version pairs, then scenarios, then workloads, then fault
    /// intensities, then durability modes, then seeds.
    ///
    /// Lazy: stores the axes and the seed-group table, not the cases —
    /// memory is O(groups) no matter how many seeds the sweep multiplies
    /// out to.
    pub fn enumerate(sut: &dyn SystemUnderTest, config: &CampaignConfig) -> CaseMatrix {
        let versions = sut.versions();
        let pairs = upgrade_pairs(&versions, config.include_gap_two);

        let mut workloads: Vec<WorkloadSpec> = vec![WorkloadSpec::Stress];
        if config.use_unit_tests {
            for test in sut.unit_tests() {
                let name: Arc<str> = Arc::from(test.name.as_str());
                workloads.push(WorkloadSpec::TranslatedUnit(Arc::clone(&name)));
                workloads.push(WorkloadSpec::UnitStateHandoff(name));
            }
        }
        for spec in &config.workloads {
            workloads.push(WorkloadSpec::OpenLoop(*spec));
        }

        let shape = MatrixShape {
            pairs,
            scenarios: config.scenarios.clone(),
            workloads,
            faults: config.fault_intensities.clone(),
            durabilities: config.durabilities.clone(),
            seeds: config.seeds.clone(),
        };
        let len = shape.len();
        let seeds = shape.seeds.len();
        let groups = match len.checked_div(seeds) {
            None => Vec::new(),
            Some(n) => (0..n)
                .map(|g| SeedGroup {
                    start: g * seeds,
                    len: seeds,
                })
                .collect(),
        };
        CaseMatrix { shape, groups, len }
    }

    /// The case at `index` (stable enumeration order), decoded
    /// arithmetically: the cost is O(1) and a workload `Arc` bump.
    pub fn case_at(&self, index: usize) -> TestCase {
        self.shape.case_at(index)
    }

    /// All cases in stable index order, produced on demand.
    pub fn iter(&self) -> impl Iterator<Item = TestCase> + '_ {
        (0..self.len).map(|i| self.case_at(i))
    }

    /// The seed groups, each a contiguous index range.
    pub fn groups(&self) -> &[SeedGroup] {
        &self.groups
    }

    /// Partitions the group list into batches of consecutive groups that
    /// share one (version pair, scenario) — the executor's dispatch unit.
    /// Groups of a batch run the same cluster topology and upgrade shape,
    /// so a warm worker runner replays near-identical allocation patterns
    /// across a whole batch; coarser units also cost fewer queue round
    /// trips. Each range indexes into [`CaseMatrix::groups`].
    pub fn batches(&self) -> Vec<std::ops::Range<usize>> {
        let mut batches: Vec<std::ops::Range<usize>> = Vec::new();
        let mut prev_key: Option<(VersionId, VersionId, Scenario)> = None;
        for (g, group) in self.groups.iter().enumerate() {
            let case = self.case_at(group.start);
            let key = (case.from, case.to, case.scenario);
            match (batches.last_mut(), prev_key == Some(key)) {
                (Some(b), true) if b.end == g => b.end = g + 1,
                _ => batches.push(g..g + 1),
            }
            prev_key = Some(key);
        }
        batches
    }

    /// Total number of cases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::workload::OpenLoopSpec;

    /// kvstore's `scenarios` under its stress and small open-loop
    /// workloads, over `seeds`.
    fn matrix(scenarios: &[Scenario], seeds: &[u64]) -> CaseMatrix {
        let sut = &dup_kvstore::KvStoreSystem;
        let config = crate::campaign::Campaign::builder(sut)
            .seeds(seeds.iter().copied())
            .scenarios(scenarios.iter().copied())
            .unit_tests(false)
            .workloads([OpenLoopSpec::small()])
            .into_config();
        CaseMatrix::enumerate(sut, &config)
    }

    #[test]
    fn enumeration_is_stable_and_grouped() {
        let config = crate::campaign::Campaign::builder(&dup_kvstore::KvStoreSystem)
            .seeds([1, 2])
            .scenarios([Scenario::FullStop, Scenario::Rolling])
            .unit_tests(false)
            .into_config();
        let a = CaseMatrix::enumerate(&dup_kvstore::KvStoreSystem, &config);
        let b = CaseMatrix::enumerate(&dup_kvstore::KvStoreSystem, &config);
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert!(!a.is_empty());
        // Seeds are the innermost loop: every group covers all seeds of one
        // (pair, scenario, workload) combination, contiguously.
        for g in a.groups() {
            assert_eq!(g.len, 2);
            let cases: Vec<TestCase> = g.indices().map(|i| a.case_at(i)).collect();
            assert_eq!(cases[0].seed, 1);
            assert_eq!(cases[1].seed, 2);
            assert_eq!(cases[0].from, cases[1].from);
            assert_eq!(cases[0].scenario, cases[1].scenario);
        }
        // Groups tile the matrix exactly.
        let covered: usize = a.groups().iter().map(|g| g.len).sum();
        assert_eq!(covered, a.len());
    }

    #[test]
    fn lazy_enumeration_agrees_with_eager_case_for_case() {
        // The pre-lazy enumeration materialized the sweep with this exact
        // nested loop; replay it and demand index-for-index agreement.
        let sut = &dup_kvstore::KvStoreSystem;
        let config = crate::campaign::Campaign::builder(sut)
            .seeds([1, 2, 3])
            .faults(crate::faults::FaultIntensity::ALL)
            .durabilities([Durability::Strict, Durability::Torn])
            .workloads([crate::workload::OpenLoopSpec::small()])
            .into_config();
        let lazy = CaseMatrix::enumerate(sut, &config);

        let versions = sut.versions();
        let pairs = upgrade_pairs(&versions, config.include_gap_two);
        let mut workloads: Vec<WorkloadSpec> = vec![WorkloadSpec::Stress];
        for test in sut.unit_tests() {
            workloads.push(WorkloadSpec::TranslatedUnit(test.name.as_str().into()));
            workloads.push(WorkloadSpec::UnitStateHandoff(test.name.as_str().into()));
        }
        workloads.push(WorkloadSpec::OpenLoop(
            crate::workload::OpenLoopSpec::small(),
        ));
        let mut eager: Vec<TestCase> = Vec::new();
        for (from, to) in pairs {
            for &scenario in &config.scenarios {
                for workload in &workloads {
                    for &faults in &config.fault_intensities {
                        for &durability in &config.durabilities {
                            for &seed in &config.seeds {
                                eager.push(TestCase {
                                    from,
                                    to,
                                    scenario,
                                    workload: workload.clone(),
                                    seed,
                                    faults,
                                    durability,
                                });
                            }
                        }
                    }
                }
            }
        }

        assert_eq!(lazy.len(), eager.len());
        assert!(lazy.len() > 100, "sweep too small to be a meaningful check");
        for (i, expected) in eager.iter().enumerate() {
            assert_eq!(&lazy.case_at(i), expected, "case {i} diverges");
        }
        // And grouping matches the eager grouper exactly: consecutive
        // cases that differ only in seed form a group, and consecutive
        // groups that share a pair and a scenario form a batch.
        let mut groups: Vec<SeedGroup> = Vec::new();
        let mut batches: Vec<std::ops::Range<usize>> = Vec::new();
        for (i, case) in eager.iter().enumerate() {
            let prev = i.checked_sub(1).map(|p| &eager[p]);
            let key = |c: &TestCase| (c.from, c.to, c.scenario);
            let same_batch = prev.is_some_and(|p| key(p) == key(case));
            let same_group = same_batch
                && prev.is_some_and(|p| {
                    (&p.workload, p.faults, p.durability)
                        == (&case.workload, case.faults, case.durability)
                });
            match groups.last_mut() {
                Some(g) if same_group => g.len += 1,
                _ => {
                    match batches.last_mut() {
                        Some(b) if same_batch => b.end += 1,
                        _ => batches.push(groups.len()..groups.len() + 1),
                    }
                    groups.push(SeedGroup { start: i, len: 1 });
                }
            }
        }
        assert_eq!(lazy.groups(), groups);
        assert_eq!(lazy.batches(), batches);
    }

    #[test]
    fn million_case_matrix_stays_lazy() {
        // ~1.2M cases: the matrix must enumerate, group, and batch without
        // materializing a single TestCase.
        let sut = &dup_kvstore::KvStoreSystem;
        let seeds: Vec<u64> = (0..20_000).collect();
        let config = crate::campaign::Campaign::builder(sut)
            .seeds(seeds)
            .faults(crate::faults::FaultIntensity::ALL)
            .into_config();
        let m = CaseMatrix::enumerate(sut, &config);
        assert!(m.len() >= 1_000_000, "only {} cases", m.len());
        // The groups table is O(groups).
        assert_eq!(m.groups().len(), m.len() / 20_000);
        // Every group covers exactly the seed axis.
        let g = m.groups()[m.groups().len() / 2];
        assert_eq!(g.len, 20_000);
        // Spot-check arithmetic decoding across the range, including both
        // ends, and that seeds are the innermost axis.
        let last = m.len() - 1;
        for index in [0, 1, 19_999, 20_000, m.len() / 2, last] {
            let case = m.case_at(index);
            assert_eq!(case.seed, (index % 20_000) as u64);
        }
        // Batches tile the group list exactly, in order.
        let batches = m.batches();
        assert_eq!(
            batches.iter().map(|b| b.len()).sum::<usize>(),
            m.groups().len()
        );
        assert!(batches.windows(2).all(|w| w[0].end == w[1].start));
    }

    #[test]
    fn batches_merge_groups_by_pair_and_scenario() {
        // Two workloads make two groups per (pair, scenario): one batch.
        // With one scenario, neighbouring batches differ in the pair alone.
        for scenarios in [
            &[Scenario::FullStop, Scenario::Rolling][..],
            &[Scenario::Rolling],
        ] {
            let m = matrix(scenarios, &[1, 2]);
            let batch_count = m.len() / 4;
            let pairs = batch_count / scenarios.len();
            assert!(pairs > 1, "{pairs} pairs");
            assert_eq!(m.groups().len(), 2 * batch_count);
            let batches = m.batches();
            let expected: Vec<_> = (0..batch_count).map(|b| 2 * b..2 * b + 2).collect();
            assert_eq!(batches, expected);
            // Each batch shares its pair and scenario, and its neighbour differs.
            let key = |g: usize| {
                let c = m.case_at(m.groups()[g].start);
                (c.from, c.to, c.scenario)
            };
            for b in &batches {
                assert!(b.clone().all(|g| key(g) == key(b.start)));
            }
            assert!(batches
                .windows(2)
                .all(|w| key(w[0].start) != key(w[1].start)));
        }
        assert!(CaseMatrix::default().batches().is_empty());
    }

    #[test]
    fn groups_are_seed_runs() {
        for seeds in [&[7][..], &[1, 2, 3]] {
            let m = matrix(&[Scenario::FullStop, Scenario::Rolling], seeds);
            let n = seeds.len();
            assert_eq!(m.groups().len() * n, m.len());
            for (g, group) in m.groups().iter().enumerate() {
                assert_eq!((group.start, group.len), (g * n, n));
                // The cases of a group differ in their seed alone.
                let first = m.case_at(group.start);
                for (i, index) in group.indices().enumerate() {
                    let mut case = m.case_at(index);
                    assert_eq!(case.seed, seeds[i]);
                    case.seed = first.seed;
                    assert_eq!(case, first);
                }
            }
        }
    }
}
