//! The `upbench` command. See the crate docs and `README.md`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use upbench::json::Json;
use upbench::metrics::{end_to_end, RUN_SECONDS};
use upbench::run::{self, Args};
use upbench::workloads::Kind;
use upbench::{compare, procstat, RESULT_SCHEMA};

const USAGE: &str = "\
usage:
  upbench [--seed N] [--seconds N] [--out DIR] [--smoke]
      every workload, each in its own child process, end-to-end then
      per-layer; writes DIR/result.json and DIR/trace-<workload>.json
  upbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
      one workload in this process; the last line of output is the result
  upbench compare A.json B.json
      holds result B against result A; exits 1 if any row is worse

workloads: sweep_paper million_cases chaos_fanout open_loop guided_search static_check
DIR defaults to $CARGO_TARGET_DIR/bench, or target/bench.";

/// The line of a child's output that carries its full record to the parent.
const DETAIL_PREFIX: &str = "detail ";

struct Cli {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Not in the usage text: how a `--trace 0` run takes one more cold
    /// set-up sample, in a child that prints its set-up seconds and exits.
    setup_only: bool,
    out: PathBuf,
    started: Instant,
}

fn parse_cli(args: &[String], started: Instant) -> Result<Cli, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        setup_only: false,
        out: Path::new(&target).join("bench"),
        started,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                cli.smoke = true;
                continue;
            }
            "--setup-only" => {
                cli.setup_only = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(Kind::parse(value).ok_or_else(bad)?);
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&cli.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => cli.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if cli.smoke {
        cli.seconds = 0.0;
    }
    if cli.setup_only && cli.workload.is_none() {
        return Err("--setup-only needs --workload".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_cli(&args, started).and_then(|cli| match cli.workload {
            Some(kind) => Ok(one_workload(kind, &cli)),
            None => all_workloads(&cli),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("upbench: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let lines = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&lines));
    let count = |s| lines.iter().filter(|l| l.status == s).count();
    let (worse, unresolved) = (
        count(compare::Status::Worse),
        count(compare::Status::Unresolved),
    );
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        lines.len()
    );
    Ok(worse == 0)
}

/// Runs one workload here and prints its rows, its detail record and, last,
/// the one-line result.
fn one_workload(kind: Kind, cli: &Cli) -> bool {
    let args = Args {
        kind,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        out: cli.out.clone(),
        started: cli.started,
    };
    if cli.setup_only {
        println!("{}", run::setup_only(&args));
        return true;
    }
    let outcome = run::run(&args);
    println!(
        "== {} seed {} trace {} ({} units{}{}) on {} cpus, 1 load thread",
        kind.name(),
        cli.seed,
        u8::from(cli.trace),
        outcome.units,
        if outcome.noisy { ", noisy" } else { "" },
        if cli.smoke { ", smoke" } else { "" },
        procstat::cpus(),
    );
    for row in &outcome.rows.0 {
        println!("{}", row.render());
    }
    println!(
        "  check: {} ops attempted, {} failed, {} known answers left out; report_digest {:016x}",
        outcome.verdict.attempted,
        outcome.verdict.failed,
        outcome.verdict.excluded.len(),
        outcome.exact.digest
    );
    for note in &outcome.verdict.notes {
        println!("  FAILED: {note}");
    }
    for what in &outcome.verdict.excluded {
        println!("  left out: {what}");
    }
    println!("{DETAIL_PREFIX}{}", outcome.detail(&args));
    println!("{}", outcome.contract_line());
    outcome.verdict.failed == 0
}

/// Runs `kind` in a child process of this binary, passing its output
/// through, and returns its detail record.
fn child(kind: Kind, trace: bool, cli: &Cli) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out)
        .stdout(Stdio::piped());
    if cli.smoke {
        command.arg("--smoke");
    }
    let mut process = command
        .spawn()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let stdout = process.stdout.take().expect("stdout was piped");
    let mut detail = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading a child's output: {e}"))?;
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(record) => detail = Some(Json::parse(record)?),
            // The one-line result is for the driver; the parent has the detail.
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    let status = process
        .wait()
        .map_err(|e| format!("waiting for a child: {e}"))?;
    detail.ok_or_else(|| {
        format!(
            "{} (trace {trace}) printed no result: {status}",
            kind.name()
        )
    })
}

fn all_workloads(cli: &Cli) -> Result<bool, String> {
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for kind in Kind::ALL {
        let timed = child(kind, false, cli)?;
        let traced = child(kind, true, cli)?;
        let number = |d: &Json, key: &str| d.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let mut notes: Vec<Json> = [&timed, &traced]
            .iter()
            .flat_map(|d| d.get("notes").map_or(&[][..], Json::as_arr).to_vec())
            .collect();
        let mut failed = number(&timed, "failed") + number(&traced, "failed");
        // Two processes, one seed: the simulated behaviour must be the same.
        if timed.get("report_digest") != traced.get("report_digest")
            || timed.get("exact") != traced.get("exact")
        {
            failed += number(&traced, "attempted");
            notes.push(Json::str("the traced process did not replay the timed one"));
        }
        all_correct &= failed == 0.0;
        let rows =
            |d: &Json, bounded: bool| {
                Json::obj(d.get("metrics").map_or(&[][..], Json::as_obj).iter().map(
                    |(name, row)| {
                        let mut row = row.clone();
                        if let (true, Some(def), Json::Obj(fields)) =
                            (bounded, end_to_end(name), &mut row)
                        {
                            fields.push(("better".into(), Json::str(def.better.as_str())));
                            fields.push(("bound".into(), Json::Num(def.bound)));
                        }
                        (name.clone(), row)
                    },
                ))
            };
        let noisy = [&timed, &traced]
            .iter()
            .any(|d| d.get("noisy") == Some(&Json::Bool(true)));
        workloads.push((
            kind.name(),
            Json::obj([
                ("why", Json::str(kind.why())),
                ("correct", Json::Bool(failed == 0.0)),
                (
                    "attempted",
                    Json::Num(number(&timed, "attempted") + number(&traced, "attempted")),
                ),
                ("failed", Json::Num(failed)),
                ("notes", Json::Arr(notes)),
                // Both processes check against the same answers.
                (
                    "excluded",
                    timed.get("excluded").cloned().unwrap_or(Json::Null),
                ),
                ("noisy", Json::Bool(noisy)),
                ("units", timed.get("units").cloned().unwrap_or(Json::Null)),
                (
                    "report_digest",
                    timed.get("report_digest").cloned().unwrap_or(Json::Null),
                ),
                ("exact", timed.get("exact").cloned().unwrap_or(Json::Null)),
                ("end_to_end", rows(&timed, true)),
                ("per_layer", rows(&traced, false)),
            ]),
        ));
    }
    let result = Json::obj([
        ("schema", Json::Num(f64::from(RESULT_SCHEMA))),
        ("smoke", Json::Bool(cli.smoke)),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("cpus", Json::Num(procstat::cpus() as f64)),
        ("threads", Json::Num(1.0)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = cli.out.join("result.json");
    std::fs::write(&path, format!("{result}\n")).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "\n== summary (seed {}, {} cpus, 1 load thread)",
        cli.seed,
        procstat::cpus()
    );
    for (name, w) in result.get("workloads").map_or(&[][..], Json::as_obj) {
        let value = |metric: &str| {
            w.get("end_to_end")
                .and_then(|e| e.get(metric)?.get("value")?.as_f64())
                .unwrap_or(0.0)
        };
        println!(
            "  {name:<14} {:>12.1} op/s {:>10.2} us/op {:>8.1} MiB  setup {:>6.3} s  failed {}{}",
            value("ops_per_s"),
            value("cpu_us_per_op"),
            value("peak_rss_mb"),
            value("setup_s"),
            w.get("failed").map_or(String::new(), Json::to_string),
            if w.get("noisy") == Some(&Json::Bool(true)) {
                "  (noisy)"
            } else {
                ""
            },
        );
    }
    println!("wrote {}", path.display());
    Ok(all_correct)
}
