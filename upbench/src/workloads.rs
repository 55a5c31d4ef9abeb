//! The six workloads: what each one is made of, how its inputs derive from
//! `--seed`, and how one *unit* — a fixed, deterministic amount of work —
//! is run against the program under test.

use crate::answers;
use crate::procstat::CpuReading;
use crate::spans::Recorder;
use dup_checker::{Corpus, CorpusSpec, JavaCorpusEntry};
use dup_core::SystemUnderTest;
use dup_srcmodel::CompilationUnit;
use dup_tester::{
    catalog, Campaign, CampaignObserver, CampaignReport, CaseMatrix, CaseStatus, Durability,
    FaultIntensity, OpenLoopSpec, Scenario, SearchConfig, SearchReport, SearchRound, TestCase,
    TraceConfig, WorkloadSpec,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub static KV: dup_kvstore::KvStoreSystem = dup_kvstore::KvStoreSystem;
pub static DFS: dup_dfs::DfsSystem = dup_dfs::DfsSystem;
pub static MQ: dup_mq::MqSystem = dup_mq::MqSystem;
pub static COORD: dup_coord::CoordSystem = dup_coord::CoordSystem;

pub type Sut = &'static dyn SystemUnderTest;

pub fn all_systems() -> [Sut; 4] {
    [&KV, &DFS, &MQ, &COORD]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SweepPaper,
    MillionCases,
    ChaosFanout,
    OpenLoop,
    GuidedSearch,
    StaticCheck,
}

/// How much of a workload one unit runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The unit end-to-end numbers are taken from.
    Full,
    /// The untimed warm-up unit of set-up, also the size the executor's
    /// overhead and thread scaling are measured at: the same groups on a
    /// shorter seed axis.
    Warmup,
    /// One system, one scenario, one seed: exercises every call the
    /// benchmark makes in a few debug-build seconds. Not a measurement.
    Smoke,
}

/// The two open-loop specs of `open_loop`: identical but for the read share.
pub fn open_loop_spec(read_pct: u8) -> OpenLoopSpec {
    OpenLoopSpec {
        clients: 1_000_000,
        rate_per_sec: 500,
        read_pct,
        ..OpenLoopSpec::small()
    }
}
pub const READ_HEAVY_PCT: u8 = 90;
pub const WRITE_HEAVY_PCT: u8 = 10;

/// The campaign axes of a workload, shared by input generation and by the
/// known answers (which bugs those axes can reach).
pub struct Axes {
    pub systems: Vec<Sut>,
    pub scenarios: Vec<Scenario>,
    pub unit_tests: bool,
    pub faults: FaultIntensity,
    pub durability: Durability,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::SweepPaper,
        Kind::MillionCases,
        Kind::ChaosFanout,
        Kind::OpenLoop,
        Kind::GuidedSearch,
        Kind::StaticCheck,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SweepPaper => "sweep_paper",
            Kind::MillionCases => "million_cases",
            Kind::ChaosFanout => "chaos_fanout",
            Kind::OpenLoop => "open_loop",
            Kind::GuidedSearch => "guided_search",
            Kind::StaticCheck => "static_check",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists — the `why` of `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Kind::SweepPaper => "the paper's Table-5 sweep, 4 systems x 3 scenarios x stress+unit tests x 3 seeds (1080 cases): many groups, few seeds, so prefix, snapshot capture, handlers and wire codecs do the work",
            Kind::MillionCases => "one mq campaign of 1000020 near-free cases: executor dispatch, case_at, per-case plan compile, snapshot restore and O(cases) memory dominate; the simulator barely runs",
            Kind::ChaosFanout => "kvstore+dfs, 7 scenarios, heavy faults x torn durability, sim trace ring on, 12 seeds (1176 cases): the event core at its busiest, with fate draws, crashes and restarts",
            Kind::OpenLoop => "kvstore+mq rolling upgrades under two 10^6-client 500 req/s open-loop specs, 90% and 10% reads (120 cases of ~14k events): client sends and timed arrival pumping, reads beside writes",
            Kind::GuidedSearch => "coverage-guided search, 4 systems, full-stop+rolling, light faults, budget 4, two search seeds (~1130 cases): the only user of trace folding, coverage map, corpus and mutation",
            Kind::StaticCheck => "DUPChecker end to end, 100 passes over the seven Table-6 corpora and the Java enum corpus: bypasses simulator and harness, the no-change control for their optimisations",
        }
    }

    /// `None` for `static_check`, which runs no campaign.
    pub fn axes(self) -> Option<Axes> {
        let (systems, scenarios): (Vec<Sut>, Vec<Scenario>) = match self {
            Kind::SweepPaper => (all_systems().to_vec(), Scenario::paper().to_vec()),
            Kind::MillionCases => (vec![&MQ], Scenario::paper().to_vec()),
            Kind::ChaosFanout => (vec![&KV, &DFS], Scenario::extended().to_vec()),
            Kind::OpenLoop => (vec![&KV, &MQ], vec![Scenario::Rolling]),
            Kind::GuidedSearch => (
                all_systems().to_vec(),
                vec![Scenario::FullStop, Scenario::Rolling],
            ),
            Kind::StaticCheck => return None,
        };
        let chaos = self == Kind::ChaosFanout;
        Some(Axes {
            systems,
            scenarios,
            unit_tests: !matches!(self, Kind::ChaosFanout | Kind::OpenLoop),
            faults: match self {
                Kind::ChaosFanout => FaultIntensity::Heavy,
                Kind::GuidedSearch => FaultIntensity::Light,
                _ => FaultIntensity::Off,
            },
            durability: if chaos {
                Durability::Torn
            } else {
                Durability::Strict
            },
        })
    }

    /// Length of the seed axis (campaigns), number of search seeds
    /// (`guided_search`) or number of passes (`static_check`).
    fn size(self, scale: Scale) -> u64 {
        let (full, warmup, smoke) = match self {
            Kind::SweepPaper => (3, 1, 1),
            Kind::MillionCases => (16_667, 1_667, 17),
            Kind::ChaosFanout => (12, 1, 1),
            Kind::OpenLoop => (4, 1, 1),
            Kind::GuidedSearch => (2, 1, 1),
            Kind::StaticCheck => (100, 25, 1),
        };
        match scale {
            Scale::Full => full,
            Scale::Warmup => warmup,
            Scale::Smoke => smoke,
        }
    }
}

/// One `Campaign` of a unit.
pub struct Part {
    pub sut: Sut,
    pub config: dup_tester::CampaignConfig,
    /// Cases the matrix enumerates — what a sweep must execute. A search
    /// decides its own spend, so there it is 0.
    pub cases: usize,
    /// Cases per seed group (a search group: its budget).
    pub group_len: usize,
}

pub enum Body {
    Campaigns(Vec<Part>),
    Static {
        specs: Vec<CorpusSpec>,
        corpora: Vec<Corpus>,
        java: Vec<JavaCorpusEntry>,
        passes: u64,
    },
}

pub struct Inputs {
    pub kind: Kind,
    pub scale: Scale,
    pub body: Body,
}

/// The first campaign seed of benchmark seed `seed`: runs at different
/// `--seed`s share no campaign seed (below 2^48, beyond which they wrap, so
/// that no seed axis overflows).
pub fn seed_base(seed: u64) -> u64 {
    (seed % (1 << 48)) * 1000
}

impl Inputs {
    /// Generates the workload's inputs from the benchmark seed. Pure: the
    /// same `(kind, seed, scale)` gives the same inputs.
    pub fn build(kind: Kind, seed: u64, scale: Scale) -> Inputs {
        let base = seed_base(seed);
        let n = kind.size(scale);
        let Some(mut axes) = kind.axes() else {
            // The seed deals the unchanged filler out differently among the
            // corpora (a rotation, so its total — and with it the work —
            // stays put); the declared error/warning counts never move.
            let table = dup_checker::table6_specs();
            let specs: Vec<CorpusSpec> = (0..table.len())
                .map(|i| CorpusSpec {
                    stable_messages: table
                        [(i + (seed % table.len() as u64) as usize) % table.len()]
                    .stable_messages,
                    ..table[i].clone()
                })
                .collect();
            let corpora = specs.iter().map(dup_checker::generate).collect();
            return Inputs {
                kind,
                scale,
                body: Body::Static {
                    specs,
                    corpora,
                    java: dup_checker::java_corpus(),
                    passes: n,
                },
            };
        };
        if scale == Scale::Smoke {
            // The last system of every list is its cheapest.
            axes.systems.drain(..axes.systems.len() - 1);
            axes.scenarios.truncate(1);
        }
        // One campaign per system; the search runs them once per search seed.
        let searches = if kind == Kind::GuidedSearch { n } else { 1 };
        let mut parts = Vec::new();
        for k in 1..=searches {
            for &sut in &axes.systems {
                let mut b = Campaign::builder(sut)
                    .scenarios(axes.scenarios.iter().copied())
                    .unit_tests(axes.unit_tests)
                    .faults([axes.faults])
                    .durabilities([axes.durability])
                    .threads(1);
                b = match kind {
                    Kind::GuidedSearch => b.search(SearchConfig {
                        budget_per_group: 4,
                        initial_seeds: vec![base + k],
                        search_seed: base + k,
                        ..SearchConfig::default()
                    }),
                    _ => b.seeds(base + 1..=base + n),
                };
                if kind == Kind::ChaosFanout {
                    b = b.trace(TraceConfig::default());
                }
                if kind == Kind::OpenLoop {
                    b = b.workloads([
                        open_loop_spec(READ_HEAVY_PCT),
                        open_loop_spec(WRITE_HEAVY_PCT),
                    ]);
                }
                let config = b.into_config();
                let (cases, group_len) = match config.search() {
                    Some(search) => (0, search.budget_per_group),
                    None => (
                        CaseMatrix::enumerate(sut, &config).len(),
                        config.seeds().len(),
                    ),
                };
                parts.push(Part {
                    sut,
                    config,
                    cases,
                    group_len,
                });
            }
        }
        Inputs {
            kind,
            scale,
            body: Body::Campaigns(parts),
        }
    }

    /// Cases a sweep unit must execute (0 for searches and `static_check`).
    pub fn matrix_cases(&self) -> u64 {
        match &self.body {
            Body::Campaigns(parts) => parts.iter().map(|p| p.cases as u64).sum(),
            Body::Static { .. } => 0,
        }
    }
}

/// Exact, deterministic counts of one unit — equal across reruns, thread
/// counts and tracing, or the run is not reproducible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    pub cases_run: u64,
    pub passed: u64,
    pub invalid: u64,
    pub pruned: u64,
    pub events: u64,
    pub msgs: u64,
    pub faults: u64,
    /// Cases that panicked or hung the harness.
    pub broken: u64,
    pub failing: u64,
    pub distinct: u64,
    pub trace_recorded: u64,
    pub trace_dropped: u64,
    pub search_rounds: u64,
    pub corpus_size: u64,
    pub cases_to_detect: u64,
    /// `static_check`: errors, warnings, enum bugs, enum vulnerabilities.
    pub findings: [u64; 4],
    /// FNV-1a of every rendered report, in order.
    pub digest: u64,
    pub report_bytes: u64,
}

/// What one unit did and what it cost.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Executed cases (pruned ones excluded), or on `static_check` checked
    /// version pairs plus source pairs.
    pub ops: u64,
    /// Wall seconds, rendering excluded.
    pub secs: f64,
    /// Process CPU seconds (user+sys), rendering excluded.
    pub cpu_secs: f64,
    pub render_secs: f64,
    pub totals: Totals,
    /// Catalog tickets some report of the unit caught.
    pub detected: BTreeSet<&'static str>,
    /// `static_check`: (system, errors, warnings) per corpus, first pass.
    pub corpus_counts: Vec<(String, usize, usize)>,
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// One case as the span recorder's observer saw it.
#[derive(Debug, Clone, Copy)]
pub struct CaseSample {
    pub nanos: u64,
    pub first_in_group: bool,
    pub invalid: bool,
    /// Read share of the case's open-loop spec, if it has one.
    pub read_pct: Option<u8>,
}

pub struct TraceState {
    pub rec: Recorder,
    pub cases: Vec<CaseSample>,
    system: &'static str,
    group_len: usize,
}

/// The traced unit's recorder, shared between the benchmark's own spans and
/// the [`CampaignObserver`] hooks the executor calls.
pub struct Tracer(Mutex<TraceState>);

impl Tracer {
    pub fn new(rec: Recorder) -> Arc<Tracer> {
        Arc::new(Tracer(Mutex::new(TraceState {
            rec,
            cases: Vec::new(),
            system: "",
            group_len: 1,
        })))
    }

    pub fn state(&self) -> std::sync::MutexGuard<'_, TraceState> {
        self.0
            .lock()
            .expect("no case panics while holding the recorder")
    }
}

impl CampaignObserver for Tracer {
    fn on_case_start(&self, index: usize, case: &TestCase) {
        let mut st = self.state();
        let (system, pos) = (st.system, index % st.group_len);
        st.rec.enter("case", || {
            format!(
                "system={system} pair={}->{} scenario={} workload={} seed={} pos={pos}",
                case.from, case.to, case.scenario, case.workload, case.seed
            )
        });
    }

    fn on_case_done(&self, index: usize, case: &TestCase, status: CaseStatus, _wall: Duration) {
        let mut st = self.state();
        let nanos = st.rec.exit();
        let sample = CaseSample {
            nanos,
            first_in_group: index.is_multiple_of(st.group_len),
            invalid: status == CaseStatus::Invalid,
            read_pct: match &case.workload {
                WorkloadSpec::OpenLoop(spec) => Some(spec.read_pct),
                _ => None,
            },
        };
        st.cases.push(sample);
    }

    fn on_search_round(&self, round: &SearchRound) {
        self.state().rec.instant(
            "search.round",
            format!(
                "group={} round={} cases={} new_bits={} corpus={}",
                round.group, round.round, round.cases, round.new_bits, round.corpus_size
            ),
        );
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
fn spanned<T>(
    tracer: Option<&Arc<Tracer>>,
    name: &'static str,
    tags: &str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        // The lock is not held while `f` runs: the observer hooks take it.
        Some(t) => {
            t.state().rec.enter(name, || tags.to_string());
            let out = f();
            t.state().rec.exit();
            out
        }
        None => f(),
    }
}

/// Runs one unit on `threads` workers. With a tracer, every call into the
/// program is wrapped in a span and the executor reports each case through
/// the tracer's observer hooks; without one nothing is attached at all.
pub fn run_unit(inputs: &Inputs, threads: usize, tracer: Option<&Arc<Tracer>>) -> Unit {
    let mut unit = Unit::default();
    unit.totals.digest = FNV_OFFSET;
    match &inputs.body {
        Body::Campaigns(parts) => {
            let required = answers::required(inputs.kind);
            for part in parts {
                run_part(part, threads, tracer, &required, &mut unit);
            }
        }
        Body::Static {
            corpora,
            java,
            passes,
            ..
        } => run_static(corpora, java, *passes, tracer, &mut unit),
    }
    unit
}

fn run_part(
    part: &Part,
    threads: usize,
    tracer: Option<&Arc<Tracer>>,
    required: &[catalog::SeededBug],
    unit: &mut Unit,
) {
    let system = part.sut.name();
    let (started, cpu_before) = (Instant::now(), CpuReading::now());
    let mut builder = Campaign::builder(part.sut)
        .config(part.config.clone())
        .threads(threads);
    if let Some(t) = tracer {
        {
            let mut st = t.state();
            st.system = system;
            st.group_len = part.group_len.max(1);
        }
        spanned(tracer, "matrix.enumerate", system, || {
            CaseMatrix::enumerate(part.sut, &part.config).len()
        });
        builder = builder.observer(Arc::clone(t));
    }
    let campaign = builder.build();
    let (report, search): (CampaignReport, Option<SearchReport>) = if part.config.search().is_some()
    {
        let mut found = spanned(tracer, "campaign.run_search", system, || {
            campaign.run_search()
        });
        let report = std::mem::take(&mut found.campaign);
        (report, Some(found))
    } else {
        (
            spanned(tracer, "campaign.run", system, || campaign.run()),
            None,
        )
    };
    unit.secs += started.elapsed().as_secs_f64();
    unit.cpu_secs += CpuReading::now().secs_since(&cpu_before);

    let t = &mut unit.totals;
    unit.ops += report.cases_run as u64;
    t.cases_run += report.cases_run as u64;
    t.passed += report.cases_passed as u64;
    t.invalid += report.cases_invalid as u64;
    t.pruned += report.cases_pruned as u64;
    t.events += report.sim_events_processed;
    t.msgs += report.sim_messages_delivered;
    t.faults += report.sim_faults_injected;
    t.failing += report.metrics.failing_cases as u64;
    t.distinct += report.metrics.distinct_failures as u64;
    t.trace_recorded += report.metrics.trace_events_recorded;
    t.trace_dropped += report.metrics.trace_events_dropped;
    t.broken += report
        .metrics
        .per_scenario
        .values()
        .map(|c| (c.panicked + c.hung) as u64)
        .sum::<u64>();
    if let Some(found) = &search {
        t.search_rounds += found.groups.iter().map(|g| g.rounds as u64).sum::<u64>();
        t.corpus_size += found
            .groups
            .iter()
            .map(|g| g.corpus.len() as u64)
            .sum::<u64>();
        // A bug the search never reached costs its whole spend.
        let spend = found.total_cases();
        t.cases_to_detect += required
            .iter()
            .filter(|bug| bug.system == system)
            .map(|bug| {
                found
                    .cases_to_detect(bug.from_version(), bug.to_version(), bug.marker)
                    .unwrap_or(spend) as u64
            })
            .sum::<u64>();
    }
    unit.detected.extend(catalog::recall(&report).0);

    let rendering = Instant::now();
    let table = spanned(tracer, "report.render", system, || report.render_table());
    unit.render_secs += rendering.elapsed().as_secs_f64();
    t.digest = fnv1a(t.digest, table.as_bytes());
    t.report_bytes += table.len() as u64;
}

fn parse_java_tree(files: &[(String, String)]) -> CompilationUnit {
    let mut merged = CompilationUnit::default();
    for (_, source) in files {
        let unit = dup_srcmodel::parse_java(source).expect("the bundled Java corpus parses");
        merged.classes.extend(unit.classes);
        merged.enums.extend(unit.enums);
    }
    merged
}

/// DUPChecker end to end, layer by layer: parse both versions of every
/// corpus and compare them, then parse both trees of every Java entry and
/// run the enum-ordinal check.
fn run_static(
    corpora: &[Corpus],
    java: &[JavaCorpusEntry],
    passes: u64,
    tracer: Option<&Arc<Tracer>>,
    unit: &mut Unit,
) {
    let (started, cpu_before) = (Instant::now(), CpuReading::now());
    for pass in 0..passes {
        let mut findings = [0u64; 4];
        for corpus in corpora {
            let (mut errors, mut warnings) = (0, 0);
            for pair in corpus.versions.windows(2) {
                let parse = |v| {
                    spanned(tracer, "idl.parse", &corpus.system, || {
                        dup_checker::parse_version(corpus.syntax, v)
                            .expect("generated corpora parse")
                    })
                };
                let (old, new) = (parse(&pair[0]), parse(&pair[1]));
                let violations = spanned(tracer, "dupchecker.compare", &corpus.system, || {
                    dup_checker::compare_files(&old, &new)
                });
                for v in &violations {
                    match v.severity() {
                        dup_checker::Severity::Error => errors += 1,
                        dup_checker::Severity::Warning => warnings += 1,
                    }
                    if pass == 0 {
                        unit.totals.digest = fnv1a(unit.totals.digest, v.to_string().as_bytes());
                    }
                }
                unit.ops += 1;
            }
            findings[0] += errors as u64;
            findings[1] += warnings as u64;
            if pass == 0 {
                unit.corpus_counts
                    .push((corpus.system.clone(), errors, warnings));
            }
        }
        for (system, old, new) in java {
            let (old, new) = spanned(tracer, "srcmodel.parse", system, || {
                (parse_java_tree(old), parse_java_tree(new))
            });
            let found = spanned(tracer, "dupchecker.enum_check", system, || {
                dup_checker::check_units(&old, &new)
            });
            for f in &found {
                findings[if f.is_bug() { 2 } else { 3 }] += 1;
                if pass == 0 {
                    unit.totals.digest = fnv1a(unit.totals.digest, f.to_string().as_bytes());
                }
            }
            unit.ops += 1;
        }
        if pass == 0 {
            unit.totals.findings = findings;
        } else if unit.totals.findings != findings {
            // A pass that disagrees with the first poisons the digest, which
            // the determinism check then reports.
            unit.totals.digest = fnv1a(unit.totals.digest, b"pass differs");
        }
    }
    unit.secs = started.elapsed().as_secs_f64();
    unit.cpu_secs = CpuReading::now().secs_since(&cpu_before);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds_of(inputs: &Inputs) -> Vec<Vec<u64>> {
        match &inputs.body {
            Body::Campaigns(parts) => parts
                .iter()
                .map(|p| match p.config.search() {
                    Some(s) => s.initial_seeds.clone(),
                    None => p.config.seeds().to_vec(),
                })
                .collect(),
            Body::Static { .. } => Vec::new(),
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
            assert!(kind.why().len() <= 200, "{}: why too long", kind.name());
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn full_scale_matrices_have_the_stated_sizes() {
        let size = |kind| Inputs::build(kind, 1, Scale::Full).matrix_cases();
        assert_eq!(size(Kind::SweepPaper), 1080);
        assert_eq!(size(Kind::MillionCases), 1_000_020);
        assert_eq!(size(Kind::ChaosFanout), 1176);
        assert_eq!(size(Kind::OpenLoop), 120);
    }

    #[test]
    fn same_seed_same_inputs_and_another_seed_another_axis() {
        for kind in [Kind::SweepPaper, Kind::OpenLoop, Kind::GuidedSearch] {
            let (a, b) = (
                Inputs::build(kind, 1, Scale::Warmup),
                Inputs::build(kind, 1, Scale::Warmup),
            );
            assert_eq!(seeds_of(&a), seeds_of(&b));
            assert_eq!(a.matrix_cases(), b.matrix_cases());
            let other = Inputs::build(kind, 2, Scale::Warmup);
            assert_eq!(a.matrix_cases(), other.matrix_cases(), "size is seed-free");
            let (sa, so) = (seeds_of(&a), seeds_of(&other));
            assert!(
                sa.iter()
                    .flatten()
                    .all(|s| !so.iter().flatten().any(|o| o == s)),
                "{}: seeds 1 and 2 share a campaign seed",
                kind.name()
            );
        }
        assert_eq!(
            seeds_of(&Inputs::build(Kind::SweepPaper, 1, Scale::Full))[0],
            [1001, 1002, 1003]
        );
        // The largest seed still has a seed axis and a corpus rotation.
        for kind in [Kind::SweepPaper, Kind::StaticCheck] {
            let huge = Inputs::build(kind, u64::MAX, Scale::Warmup);
            assert!(seeds_of(&huge).iter().all(|axis| axis.len() == 1));
        }
    }

    #[test]
    fn same_seed_same_digest_at_smoke_scale() {
        for kind in [Kind::OpenLoop, Kind::StaticCheck] {
            let run = |seed| run_unit(&Inputs::build(kind, seed, Scale::Smoke), 1, None).totals;
            assert_eq!(run(3), run(3), "{}", kind.name());
        }
        // The static filler follows the seed; the verdicts do not.
        let bytes = |seed| match Inputs::build(Kind::StaticCheck, seed, Scale::Smoke).body {
            Body::Static { corpora, .. } => corpora
                .iter()
                .flat_map(|c| &c.versions)
                .flat_map(|v| &v.files)
                .map(|(_, src)| src.len())
                .sum::<usize>(),
            Body::Campaigns(_) => 0,
        };
        assert_ne!(bytes(1), bytes(2));
    }
}
