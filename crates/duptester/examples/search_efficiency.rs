//! Generates `SEARCH_efficiency.json`: the ROADMAP success metric for
//! coverage-guided campaign search, measured against the ground-truth
//! seeded-bug catalog.
//!
//! For every non-timing-dependent catalog bug the artifact records
//! cases-to-first-detection for the guided search vs the blind seed sweep
//! (same bootstrap seed, same per-group budget) — once over the paper
//! matrix, and once more (schema v3's `workload_axis` rows) with the
//! open-loop workload axis enabled, where guided groups draw from the
//! widened operator set (bursts, hot keys, arrival churn). For the
//! timing-dependent bugs — where a single run is a coin flip by design —
//! it records the detection *rate* at a fixed budget across several
//! repetitions with varying bootstrap seeds, under light fault injection
//! so the mutation operators have a plan to perturb.
//!
//! Deterministic: fixed seeds and repetition counts, no timestamps — rerun
//! it and the file is byte-identical. Run from the repo root:
//!
//! ```text
//! cargo run --release -p dup-tester --example search_efficiency
//! ```

use dup_core::{SystemUnderTest, VersionId};
use dup_tester::{
    catalog, Campaign, FaultIntensity, OpenLoopSpec, Scenario, SearchConfig, SearchReport,
    WorkloadSpec,
};
use std::fmt::Write as _;

/// Per-group budget for the non-timing cases-to-detection table.
const BUDGET: usize = 4;
/// Per-group budget for the timing-dependent rate comparison.
const RATE_BUDGET: usize = 6;
/// Repetitions (distinct bootstrap seeds) for the rate comparison.
const REPS: u64 = 5;

fn system(name: &str) -> &'static dyn SystemUnderTest {
    match name {
        "cassandra-mini" => &dup_kvstore::KvStoreSystem,
        "hdfs-mini" => &dup_dfs::DfsSystem,
        "kafka-mini" => &dup_mq::MqSystem,
        "zookeeper-mini" => &dup_coord::CoordSystem,
        other => panic!("unknown catalog system {other}"),
    }
}

fn run_search(
    sut: &dyn SystemUnderTest,
    scenarios: &[Scenario],
    faults: FaultIntensity,
    seeds: Vec<u64>,
    budget: usize,
    search_seed: u64,
    blind: bool,
) -> SearchReport {
    Campaign::builder(sut)
        .scenarios(scenarios.iter().copied())
        .faults([faults])
        .search(SearchConfig {
            budget_per_group: budget,
            initial_seeds: seeds,
            search_seed,
            blind,
            ..SearchConfig::default()
        })
        .build()
        .run_search()
}

fn main() {
    let recall_scenarios = [Scenario::FullStop, Scenario::Rolling];
    let systems = [
        "cassandra-mini",
        "hdfs-mini",
        "kafka-mini",
        "zookeeper-mini",
    ];

    // ---- non-timing bugs: cases-to-first-detection, guided vs blind -----
    let mut rows = String::new();
    let mut guided_total = 0usize;
    let mut blind_total = 0usize;
    for name in systems {
        let sut = system(name);
        let guided = run_search(
            sut,
            &recall_scenarios,
            FaultIntensity::Off,
            vec![1],
            BUDGET,
            0x5EAC_C0DE,
            false,
        );
        let blind = run_search(
            sut,
            &recall_scenarios,
            FaultIntensity::Off,
            vec![1],
            BUDGET,
            0x5EAC_C0DE,
            true,
        );
        guided_total += guided.total_cases();
        blind_total += blind.total_cases();
        eprintln!(
            "[search-efficiency] {name}: guided {} cases, blind {} cases",
            guided.total_cases(),
            blind.total_cases()
        );
        for bug in catalog::seeded_bugs() {
            // Scenario-gated bugs need an extended rollout plan the
            // paper-shaped recall config never compiles; they get their own
            // pass below.
            if bug.system != name || bug.timing_dependent || bug.scenario.is_some() {
                continue;
            }
            let (from, to): (VersionId, VersionId) = (bug.from_version(), bug.to_version());
            let g = guided.cases_to_detect(from, to, bug.marker);
            let b = blind.cases_to_detect(from, to, bug.marker);
            let _ = writeln!(
                rows,
                "    {{\"ticket\": {:?}, \"system\": {:?}, \"from\": {:?}, \"to\": {:?}, \"timing_dependent\": false, \"guided_cases_to_detect\": {}, \"blind_cases_to_detect\": {}}},",
                bug.ticket,
                bug.system,
                bug.from,
                bug.to,
                g.map_or("null".to_string(), |n| n.to_string()),
                b.map_or("null".to_string(), |n| n.to_string()),
            );
        }
    }

    // ---- workload-axis pass: open-loop groups, widened operator set -----
    // The same recall comparison with the open-loop workload axis enabled:
    // every matrix slot gains an open-loop group whose guided search draws
    // from the full operator set — `ShiftBursts`, `ReRankHotKeys`, and
    // `MoveArrivalChurn` included — so this prices the widened search
    // space, not just the legacy fault/rollout operators.
    for name in systems {
        let sut = system(name);
        let run = |blind: bool| {
            Campaign::builder(sut)
                .scenarios(recall_scenarios)
                .faults([FaultIntensity::Off])
                .workloads([OpenLoopSpec::small()])
                .search(SearchConfig {
                    budget_per_group: BUDGET,
                    initial_seeds: vec![1],
                    search_seed: 0x5EAC_C0DE,
                    blind,
                    ..SearchConfig::default()
                })
                .build()
                .run_search()
        };
        let guided = run(false);
        let blind = run(true);
        guided_total += guided.total_cases();
        blind_total += blind.total_cases();
        eprintln!(
            "[search-efficiency] {name} (open-loop axis): guided {} cases, blind {} cases",
            guided.total_cases(),
            blind.total_cases()
        );
        for bug in catalog::seeded_bugs() {
            if bug.system != name || bug.timing_dependent || bug.scenario.is_some() {
                continue;
            }
            let (from, to): (VersionId, VersionId) = (bug.from_version(), bug.to_version());
            let g = guided.cases_to_detect(from, to, bug.marker);
            let b = blind.cases_to_detect(from, to, bug.marker);
            let _ = writeln!(
                rows,
                "    {{\"ticket\": {:?}, \"system\": {:?}, \"from\": {:?}, \"to\": {:?}, \"timing_dependent\": false, \"workload_axis\": true, \"guided_cases_to_detect\": {}, \"blind_cases_to_detect\": {}}},",
                bug.ticket,
                bug.system,
                bug.from,
                bug.to,
                g.map_or("null".to_string(), |n| n.to_string()),
                b.map_or("null".to_string(), |n| n.to_string()),
            );
        }
    }

    // ---- rollout-plan-exclusive bugs: extended scenarios only -----------
    // Each scenario-gated bug runs under exactly its gating scenario, with
    // the `NudgeRolloutPlan` operator live for the guided mode. Multi-hop
    // pairs span two releases, so that matrix needs gap-2 pairs.
    for bug in catalog::seeded_bugs() {
        let Some(scenario) = bug.scenario else {
            continue;
        };
        let sut = system(bug.system);
        let (from, to) = (bug.from_version(), bug.to_version());
        let run = |blind: bool| {
            Campaign::builder(sut)
                .scenarios([scenario])
                .gap_two(scenario == Scenario::MultiHop)
                .unit_tests(false)
                .faults([FaultIntensity::Off])
                .search(SearchConfig {
                    budget_per_group: BUDGET,
                    initial_seeds: vec![1],
                    search_seed: 0x5EAC_C0DE,
                    blind,
                    ..SearchConfig::default()
                })
                .build()
                .run_search()
        };
        let guided = run(false);
        let blind = run(true);
        guided_total += guided.total_cases();
        blind_total += blind.total_cases();
        let g = guided.cases_to_detect(from, to, bug.marker);
        let b = blind.cases_to_detect(from, to, bug.marker);
        eprintln!(
            "[search-efficiency] {} ({scenario}): guided {} cases, blind {} cases",
            bug.ticket,
            guided.total_cases(),
            blind.total_cases()
        );
        let _ = writeln!(
            rows,
            "    {{\"ticket\": {:?}, \"system\": {:?}, \"from\": {:?}, \"to\": {:?}, \"timing_dependent\": false, \"scenario\": \"{scenario}\", \"guided_cases_to_detect\": {}, \"blind_cases_to_detect\": {}}},",
            bug.ticket,
            bug.system,
            bug.from,
            bug.to,
            g.map_or("null".to_string(), |n| n.to_string()),
            b.map_or("null".to_string(), |n| n.to_string()),
        );
    }

    // ---- timing-dependent bugs: detection rate at a fixed budget --------
    // Light faults give the mutation operators a plan to perturb; each
    // repetition bootstraps both modes from the same fresh seed.
    for bug in catalog::seeded_bugs() {
        if !bug.timing_dependent {
            continue;
        }
        let sut = system(bug.system);
        let (from, to) = (bug.from_version(), bug.to_version());
        let mut guided_hits = 0u64;
        let mut blind_hits = 0u64;
        let mut guided_cases = 0usize;
        let mut blind_cases = 0usize;
        for rep in 0..REPS {
            let guided = run_search(
                sut,
                &[Scenario::Rolling],
                FaultIntensity::Light,
                vec![rep],
                RATE_BUDGET,
                0xC0FF_EE00 + rep,
                false,
            );
            let blind = run_search(
                sut,
                &[Scenario::Rolling],
                FaultIntensity::Light,
                vec![rep],
                RATE_BUDGET,
                0xC0FF_EE00 + rep,
                true,
            );
            guided_cases += guided.total_cases();
            blind_cases += blind.total_cases();
            if guided.cases_to_detect(from, to, bug.marker).is_some() {
                guided_hits += 1;
            }
            if blind.cases_to_detect(from, to, bug.marker).is_some() {
                blind_hits += 1;
            }
        }
        eprintln!(
            "[search-efficiency] {}: guided {guided_hits}/{REPS} ({guided_cases} cases), blind {blind_hits}/{REPS} ({blind_cases} cases)",
            bug.ticket
        );
        let _ = writeln!(
            rows,
            "    {{\"ticket\": {:?}, \"system\": {:?}, \"from\": {:?}, \"to\": {:?}, \"timing_dependent\": true, \"reps\": {REPS}, \"rate_budget_per_group\": {RATE_BUDGET}, \"guided_detection_rate\": {:.2}, \"blind_detection_rate\": {:.2}, \"guided_cases\": {guided_cases}, \"blind_cases\": {blind_cases}}},",
            bug.ticket,
            bug.system,
            bug.from,
            bug.to,
            guided_hits as f64 / REPS as f64,
            blind_hits as f64 / REPS as f64,
        );
    }
    let rows = rows.trim_end().trim_end_matches(',');

    let json = format!(
        "{{\n  \"schema\": \"search-efficiency/v3\",\n  \"config\": {{\"budget_per_group\": {BUDGET}, \"initial_seeds\": [1], \"scenarios\": [\"full-stop\", \"rolling\"], \"rollout_scenarios\": \"per-bug (scenario-gated catalog entries)\", \"workload_axis\": \"{open_spec}\", \"faults\": \"off\", \"timing_reps\": {REPS}, \"timing_budget_per_group\": {RATE_BUDGET}, \"timing_faults\": \"light\"}},\n  \"bugs\": [\n{rows}\n  ],\n  \"totals\": {{\"guided_cases\": {guided_total}, \"blind_cases\": {blind_total}}}\n}}\n",
        open_spec = WorkloadSpec::OpenLoop(OpenLoopSpec::small()),
    );

    let out = std::env::var("SEARCH_EFFICIENCY_OUT")
        .unwrap_or_else(|_| "SEARCH_efficiency.json".to_string());
    std::fs::write(&out, &json).expect("write artifact");
    println!("wrote {out}");
    assert!(
        guided_total < blind_total,
        "guided search must spend strictly fewer cases than the blind sweep \
         ({guided_total} vs {blind_total})"
    );
}
