//! Writes every deterministic table of EXPERIMENTS.md: the study's Tables
//! 1–4 and Findings 1–13, DUPTester's Table 5 and its ablation, and
//! DUPChecker's Table 6 and enum-checker yield. A table is the text between
//! a `<!-- paper:NAME -->` line and its `<!-- /paper:NAME -->` line; the
//! prose around the blocks is left as it is.
//!
//! ```text
//! cargo run --release --example paper
//! git diff --exit-code EXPERIMENTS.md   # the committed tables are current
//! ```
//!
//! The blocks hold no wall-clock figure, so a rerun rewrites them byte for
//! byte. A block that is missing, duplicated or unterminated, and a
//! `paper:` block this program does not render, are errors: it names the
//! marker, writes nothing and exits 1.

use ds_upgrade::checker::{check_corpus, check_sources, generate, java_corpus, table6_specs};
use ds_upgrade::core::SystemUnderTest;
use ds_upgrade::idl::SyntaxKind;
use ds_upgrade::study;
use ds_upgrade::tester::{catalog, Campaign, CampaignBuilder, CampaignReport, Scenario};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

const EXPERIMENTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");

/// Table 5's sweep: every consecutive pair, the paper's three scenarios,
/// stress plus translated unit-test and state-handoff workloads, seeds 1–4.
fn table5_sweep(sut: &dyn SystemUnderTest) -> CampaignBuilder<'_> {
    Campaign::builder(sut)
        .seeds(1..=4)
        .scenarios(Scenario::paper())
}

/// The symptom variants `report`'s failures absorbed: what the distinct
/// failures would be if a failure were keyed on its whole evidence set.
fn variants(report: &CampaignReport) -> usize {
    report.failures.iter().map(|f| f.variants.len()).sum()
}

/// `n label` per distinct cause, in label order.
fn cause_mix(causes: impl Iterator<Item = &'static str>) -> String {
    let mut counts = BTreeMap::new();
    for cause in causes {
        *counts.entry(cause).or_insert(0) += 1;
    }
    let mix: Vec<String> = counts.iter().map(|(c, n)| format!("{n} {c}")).collect();
    mix.join(", ")
}

fn table5(reports: &[CampaignReport]) -> String {
    let mut out = String::from(
        "| System | Cases | Distinct failures | Symptom variants | Cause mix | \
         Seeded-bug recall | Reports on control pairs |\n|---|---|---|---|---|---|---|\n",
    );
    let (mut caught, mut seeded) = (0, 0);
    for report in reports {
        let (hit, missed) = catalog::recall(report);
        (caught, seeded) = (caught + hit.len(), seeded + hit.len() + missed.len());
        let controls: Vec<String> = catalog::control_pairs()
            .iter()
            .filter(|pair| pair.system == report.system)
            .map(|pair| {
                let n = pair.failures_in(report).len();
                let only = pair.scenario.map(|s| format!(" {s}")).unwrap_or_default();
                format!("{}→{}{only}: {n}", pair.from, pair.to)
            })
            .collect();
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {}/{} | {} |",
            report.system,
            report.cases_run,
            report.failures.len(),
            variants(report),
            cause_mix(report.failures.iter().map(|f| f.cause)),
            hit.len(),
            hit.len() + missed.len(),
            controls.join(", ")
        );
    }
    let all = || reports.iter().flat_map(|r| &r.failures);
    let cases: usize = reports.iter().map(|r| r.cases_run).sum();
    let _ = writeln!(
        out,
        "| **Total** | **{cases}** | **{}** | **{}** | {} | **{caught}/{seeded}** | |",
        all().count(),
        reports.iter().map(variants).sum::<usize>(),
        cause_mix(all().map(|f| f.cause)),
    );
    let _ = writeln!(
        out,
        "\nCases whose quiesce ended early on a decided storm verdict: **{}** of {cases}.",
        reports.iter().map(|r| r.cases_decided_early).sum::<u64>()
    );
    out
}

/// Table 5's cassandra-mini sweep (`full`) with one ingredient removed or
/// added per row.
fn ablation(full: &CampaignReport) -> String {
    let kv = &ds_upgrade::kvstore::KvStoreSystem;
    let rows = [
        ("Table 5's sweep", full.clone()),
        (
            "without unit-test workloads",
            table5_sweep(kv).unit_tests(false).run(),
        ),
        (
            "full-stop scenario only",
            table5_sweep(kv).scenarios([Scenario::FullStop]).run(),
        ),
        (
            "rolling scenario only",
            table5_sweep(kv).scenarios([Scenario::Rolling]).run(),
        ),
        (
            "new-node-join scenario only",
            table5_sweep(kv).scenarios([Scenario::NewNodeJoin]).run(),
        ),
        ("seed 1 only", table5_sweep(kv).seeds([1]).run()),
        (
            "with gap-2 pairs (Finding 9)",
            table5_sweep(kv).gap_two(true).run(),
        ),
    ];
    let mut out = String::from(
        "| Variant | Cases | Distinct failures | Symptom variants | Seeded-bug recall | Missed |\n\
         |---|---|---|---|---|---|\n",
    );
    for (row, report) in &rows {
        let (caught, missed) = catalog::recall(report);
        let _ = writeln!(
            out,
            "| {row} | {} | {} | {} | {}/{} | {} |",
            report.cases_run,
            report.failures.len(),
            variants(report),
            caught.len(),
            caught.len() + missed.len(),
            if missed.is_empty() {
                "—".to_string()
            } else {
                missed.join(", ")
            }
        );
    }
    let without_unit = catalog::recall(&rows[1].1).0;
    let unit_only: Vec<&str> = catalog::recall(full)
        .0
        .into_iter()
        .filter(|bug| !without_unit.contains(bug))
        .collect();
    let _ = writeln!(
        out,
        "\nSeeded bugs only the unit-test workloads catch: **{}** ({}).",
        unit_only.len(),
        unit_only.join(", ")
    );
    out
}

fn table6() -> String {
    let mut out = String::from(
        "| System | Paper ERR | Paper WARN | Measured ERR | Measured WARN |\n\
         |---|---|---|---|---|\n",
    );
    let mut total = [0; 4];
    for spec in table6_specs() {
        let report = check_corpus(&generate(&spec)).expect("generated corpora parse");
        let row = [
            spec.errors,
            spec.warnings,
            report.errors(),
            report.warnings(),
        ];
        let thrift = if spec.syntax == SyntaxKind::Thrift {
            " (Thrift)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "| {}{thrift} | {} | {} | {} | {} |",
            spec.system, row[0], row[1], row[2], row[3]
        );
        for (t, n) in total.iter_mut().zip(row) {
            *t += n;
        }
    }
    let [pe, pw, me, mw] = total;
    let _ = writeln!(
        out,
        "| **Total** | **{pe}** | **{pw}** | **{me}** | **{mw}** |"
    );
    out
}

fn enum_checker() -> String {
    let (mut bugs, mut vulns) = (0, 0);
    for (_, old, new) in &java_corpus() {
        for finding in check_sources(old, new).expect("the Java corpus parses") {
            if finding.is_bug() {
                bugs += 1;
            } else {
                vulns += 1;
            }
        }
    }
    format!(
        "| Checker | Paper | Measured |\n|---|---|---|\n\
         | Enum ordinal (type 2) | 2 bugs + 6 vulnerabilities | \
         {bugs} bugs + {vulns} vulnerabilities |\n"
    )
}

/// The marker `s` starts with: up to its ` -->`, or to the end of the line.
fn marker(s: &str) -> &str {
    let line = s.lines().next().unwrap_or(s);
    line.find(" -->").map_or(line, |end| &line[..end + 4])
}

/// `text` with each block's body replaced by its rendering; an error names
/// the first marker that is missing, duplicated, unterminated or unknown.
fn splice(text: &str, blocks: &[(&str, String)]) -> Result<String, String> {
    const OPEN: &str = "<!-- paper:";
    const CLOSE: &str = "<!-- /paper:";
    let mut out = String::new();
    let mut rest = text;
    let mut seen: Vec<&str> = Vec::new();
    loop {
        let start = rest.find(OPEN);
        if let Some(stray) = rest.find(CLOSE).filter(|c| start.is_none_or(|s| *c < s)) {
            return Err(format!("`{}` closes no open block", marker(&rest[stray..])));
        }
        let Some(start) = start else { break };
        let open = marker(&rest[start..]);
        let name = open
            .strip_prefix(OPEN)
            .and_then(|m| m.strip_suffix(" -->"))
            .ok_or_else(|| format!("`{open}` does not end in ` -->`"))?;
        let close = format!("{CLOSE}{name} -->");
        let (before, after) = rest.split_at(start + open.len());
        let end = after
            .find(&close)
            .filter(|end| !after[..*end].contains(OPEN))
            .ok_or_else(|| {
                format!("`{open}` is unterminated: no `{close}` before the next block")
            })?;
        if seen.contains(&name) {
            return Err(format!("`{open}` is duplicated"));
        }
        let (_, body) = blocks
            .iter()
            .find(|(block, _)| *block == name)
            .ok_or_else(|| format!("`{open}` is not a block this program renders"))?;
        seen.push(name);
        let _ = write!(out, "{before}\n{body}{close}");
        rest = &after[end + close.len()..];
    }
    out.push_str(rest);
    match blocks.iter().find(|(name, _)| !seen.contains(name)) {
        Some((name, _)) => Err(format!("`{OPEN}{name} -->` is missing")),
        None => Ok(out),
    }
}

fn main() -> ExitCode {
    let ds = study::dataset();
    let systems: [&dyn SystemUnderTest; 4] = [
        &ds_upgrade::kvstore::KvStoreSystem,
        &ds_upgrade::dfs::DfsSystem,
        &ds_upgrade::mq::MqSystem,
        &ds_upgrade::coord::CoordSystem,
    ];
    let reports: Vec<CampaignReport> = systems.iter().map(|s| table5_sweep(*s).run()).collect();
    let blocks = [
        ("table1", study::render_table1(&ds)),
        ("table2", study::render_table2(&ds)),
        ("table3", study::render_table3(&ds)),
        ("table4", study::render_table4(&ds)),
        ("findings", study::render_findings(&ds)),
        ("table5", table5(&reports)),
        ("ablation", ablation(&reports[0])),
        ("table6", table6()),
        ("enum_checker", enum_checker()),
    ];
    let text = std::fs::read_to_string(EXPERIMENTS).expect("EXPERIMENTS.md is readable");
    match splice(&text, &blocks) {
        Ok(new) if new == text => ExitCode::SUCCESS,
        Ok(new) => {
            std::fs::write(EXPERIMENTS, new).expect("EXPERIMENTS.md is writable");
            println!("EXPERIMENTS.md: tables rewritten");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("EXPERIMENTS.md: {e}");
            ExitCode::FAILURE
        }
    }
}
