//! One workload, one process. With `--trace 0`: set-up (timed from process
//! start, and again in fresh child processes; the median is `setup_s`), then
//! untraced units at one worker thread for `--seconds`, then the check phase
//! — the end-to-end numbers, each the median over the whole timed units. With
//! `--trace 1`: one untraced unit, one traced unit under the span recorder,
//! executor scaling at the warm-up size, and the micro-timings of the layers
//! this workload leans on — the per-layer numbers. End-to-end numbers never
//! come from a traced unit.

use crate::answers::{self, Verdict};
use crate::json::Json;
use crate::layers::{self, OPEN_LOOP_WINDOW_MS};
use crate::metrics::Rows;
use crate::procstat;
use crate::spans::Recorder;
use crate::stats::{self, median};
use crate::workloads::{
    run_unit, Body, CaseSample, Inputs, Kind, Scale, Totals, Tracer, Unit, READ_HEAVY_PCT,
    WRITE_HEAVY_PCT,
};
use dup_tester::{CaseMatrix, CaseRunner, WorkloadPlan};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Set-ups per `--trace 0` run, each in a process of its own so that every
/// one pays the first-use costs; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed units a run makes at least, whatever `--seconds` says.
const MIN_UNITS: usize = 3;
/// Time spent on each layer micro-timing row.
const MICRO_BUDGET: Duration = Duration::from_millis(30);
/// A unit that waited for a core for more than this share of its wall time
/// is flagged `noisy`.
const NOISY_WAIT_SHARE: f64 = 0.05;
/// `million_cases` stores one case span in this many; counts stay exact.
const MILLION_SAMPLE_EVERY: u64 = 1000;

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where `trace-<workload>.json` goes.
    pub out: PathBuf,
    /// Taken first thing in `main`: set-up time counts from here.
    pub started: Instant,
}

pub struct Outcome {
    pub rows: Rows,
    pub verdict: Verdict,
    /// The exact counts of one full-scale unit.
    pub exact: Totals,
    pub units: usize,
    pub noisy: bool,
}

impl Outcome {
    /// The last line the driver reads.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.verdict.failed == 0)),
            ("attempted", Json::Num(self.verdict.attempted.max(1) as f64)),
            ("failed", Json::Num(self.verdict.failed as f64)),
            (
                "metrics",
                Json::obj(self.rows.0.iter().map(|r| {
                    (
                        r.name.as_str(),
                        Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(r.unit))]),
                    )
                })),
            ),
        ])
    }

    /// Everything the parent folds into `result.json`.
    pub fn detail(&self, args: &Args) -> Json {
        let t = &self.exact;
        let exact = [
            ("cases_run", t.cases_run),
            ("passed", t.passed),
            ("invalid", t.invalid),
            ("pruned", t.pruned),
            ("sim_events", t.events),
            ("sim_messages", t.msgs),
            ("sim_faults", t.faults),
            ("failing_cases", t.failing),
            ("distinct_failures", t.distinct),
            ("search_rounds", t.search_rounds),
            ("cases_to_detect", t.cases_to_detect),
            ("report_bytes", t.report_bytes),
        ];
        Json::obj([
            ("workload", Json::str(args.kind.name())),
            ("trace", Json::Bool(args.trace)),
            ("correct", Json::Bool(self.verdict.failed == 0)),
            ("attempted", Json::Num(self.verdict.attempted as f64)),
            ("failed", Json::Num(self.verdict.failed as f64)),
            (
                "notes",
                Json::Arr(self.verdict.notes.iter().map(Json::str).collect()),
            ),
            (
                "excluded",
                Json::Arr(self.verdict.excluded.iter().map(Json::str).collect()),
            ),
            ("noisy", Json::Bool(self.noisy)),
            ("units", Json::Num(self.units as f64)),
            ("report_digest", Json::str(format!("{:016x}", t.digest))),
            (
                "exact",
                Json::obj(exact.map(|(k, v)| (k, Json::Num(v as f64)))),
            ),
            (
                "metrics",
                Json::obj(self.rows.0.iter().map(|r| (r.name.as_str(), r.to_json()))),
            ),
        ])
    }
}

fn scales(smoke: bool) -> (Scale, Scale) {
    if smoke {
        (Scale::Smoke, Scale::Smoke)
    } else {
        (Scale::Full, Scale::Warmup)
    }
}

/// An untraced unit with the share of its wall time it waited for a core.
struct Timed {
    unit: Unit,
    wait_share: f64,
}

fn timed_unit(inputs: &Inputs) -> Timed {
    let (wait, start) = (procstat::sched_wait_seconds(), Instant::now());
    let unit = run_unit(inputs, 1, None);
    let wall = start.elapsed().as_secs_f64();
    Timed {
        unit,
        wait_share: (procstat::sched_wait_seconds() - wait) / wall,
    }
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        per_layer(args)
    } else {
        end_to_end(args)
    }
}

/// Everything between process start and the first timed unit: build the
/// inputs, enumerate the matrices, run one untimed warm-up unit.
fn set_up(args: &Args) -> Inputs {
    let (full, warm) = scales(args.smoke);
    let inputs = Inputs::build(args.kind, args.seed, full);
    run_unit(&Inputs::build(args.kind, args.seed, warm), 1, None);
    inputs
}

/// `--setup-only`: what a set-up child does. Returns its set-up seconds.
pub fn setup_only(args: &Args) -> f64 {
    set_up(args);
    args.started.elapsed().as_secs_f64()
}

/// One more cold set-up, in a child process that does nothing else.
fn child_setup_secs(args: &Args) -> f64 {
    let exe = std::env::current_exe().expect("this binary has a path");
    let child = Command::new(exe)
        .args(["--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--setup-only")
        .output()
        .expect("a set-up child starts");
    let printed = String::from_utf8_lossy(&child.stdout);
    match printed.trim().parse() {
        Ok(secs) if child.status.success() => secs,
        _ => panic!("a set-up child failed ({}): {printed}", child.status),
    }
}

fn end_to_end(args: &Args) -> Outcome {
    let mut rows = Rows::default();
    let inputs = set_up(args);
    let mut setup_secs = vec![args.started.elapsed().as_secs_f64()];
    if !args.smoke {
        setup_secs.extend((1..SETUPS).map(|_| child_setup_secs(args)));
    }

    // Timed units, until the next one would overrun `--seconds`.
    let phase = Instant::now();
    let mut timed: Vec<Timed> = Vec::new();
    loop {
        timed.push(timed_unit(&inputs));
        let typical = median(&timed.iter().map(|t| t.unit.secs).collect::<Vec<_>>());
        if timed.len() >= MIN_UNITS && phase.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
    }

    let units: Vec<&Unit> = timed.iter().map(|t| &t.unit).collect();
    let ops_per_s: Vec<f64> = units.iter().map(|u| u.ops as f64 / u.secs).collect();
    rows.e2e(
        "ops_per_s",
        median(&ops_per_s),
        ops_per_s,
        &format!("median over timed units of {} ops each", units[0].ops),
    );
    let cpu_us_per_op: Vec<f64> = units
        .iter()
        .map(|u| u.cpu_secs * 1e6 / u.ops as f64)
        .collect();
    rows.e2e(
        "cpu_us_per_op",
        median(&cpu_us_per_op),
        cpu_us_per_op,
        "user+sys CPU per op, median over the timed units",
    );

    let verdict = answers::check(&inputs, &units, args.seed);
    let rss = procstat::peak_rss_mib();
    rows.e2e("peak_rss_mb", rss, vec![rss], "VmHWM after the check phase");
    rows.e2e(
        "setup_s",
        median(&setup_secs),
        setup_secs,
        "process start to the first timed unit, median over fresh processes",
    );

    Outcome {
        rows,
        verdict,
        exact: units[0].totals.clone(),
        units: units.len(),
        noisy: timed.iter().any(|t| t.wait_share > NOISY_WAIT_SHARE),
    }
}

fn per_layer(args: &Args) -> Outcome {
    let (full, warm) = scales(args.smoke);
    let mut rows = Rows::default();
    let inputs = Inputs::build(args.kind, args.seed, full);
    let warm_inputs = Inputs::build(args.kind, args.seed, warm);
    run_unit(&warm_inputs, 1, None);

    let rss_before = procstat::peak_rss_mib();
    let plain = timed_unit(&inputs);
    let rss_growth = procstat::peak_rss_mib() - rss_before;

    let mut recorder = Recorder::new(1);
    if args.kind == Kind::MillionCases {
        recorder.sample("case", MILLION_SAMPLE_EVERY);
    }
    let tracer = Tracer::new(recorder);
    let tags = format!("workload={} seed={}", args.kind.name(), args.seed);
    tracer.state().rec.enter("unit", || tags);
    let traced = run_unit(&inputs, 1, Some(&tracer));
    tracer.state().rec.exit();

    let mut verdict = answers::check(&inputs, &[&plain.unit, &traced], args.seed);
    workload_rows(&mut rows, &inputs, &plain, rss_growth);
    rows.layer1(
        "oracle.timing_bugs_found",
        verdict.timing_bugs_found as f64,
        &format!(
            "of {} timing-dependent bugs in reach",
            answers::timing_dependent(args.kind).len()
        ),
    );
    {
        let st = tracer.state();
        case_rows(&mut rows, &st.cases);
        rows.layer1(
            "bench.trace_overhead_pct",
            (traced.secs - plain.unit.secs) / plain.unit.secs * 100.0,
            "traced unit vs the untraced unit before it",
        );
        if let Err(e) = write_trace(&args.out, args.kind, &st.rec) {
            verdict.attempted += 1;
            verdict.failed += 1;
            verdict
                .notes
                .push(format!("cannot write the trace file: {e}"));
        }
    }
    rows.layer1(
        "bench.sched_wait_share",
        plain.wait_share,
        "run-delay over wall time of the untraced unit",
    );

    executor_rows(&mut rows, &warm_inputs, args.smoke, &mut verdict);
    let budget = if args.smoke {
        Duration::ZERO
    } else {
        MICRO_BUDGET
    };
    layers::micro_timings(&mut rows, args.kind, budget);
    rows.fill_layers();

    Outcome {
        rows,
        verdict,
        exact: plain.unit.totals.clone(),
        units: 2,
        noisy: plain.wait_share > NOISY_WAIT_SHARE,
    }
}

/// Rows read off the untraced unit's own counts.
fn workload_rows(rows: &mut Rows, inputs: &Inputs, plain: &Timed, rss_growth_mib: f64) {
    let (unit, t) = (&plain.unit, &plain.unit.totals);
    let ops = unit.ops.max(1) as f64;
    if let Body::Campaigns(parts) = &inputs.body {
        let note = format!(
            "{} events over {} ops in {:.3} s",
            t.events, unit.ops, unit.secs
        );
        rows.layer1(
            "simnet.ns_per_event",
            unit.secs * 1e9 / t.events.max(1) as f64,
            &note,
        );
        rows.layer1("simnet.events_per_op", t.events as f64 / ops, &note);
        rows.layer1("simnet.msgs_per_op", t.msgs as f64 / ops, "");
        rows.layer1("simnet.faults_per_op", t.faults as f64 / ops, "");
        rows.layer1(
            "simnet.trace_events_per_op",
            t.trace_recorded as f64 / ops,
            "sim trace ring",
        );
        rows.layer1(
            "simnet.trace_dropped_per_op",
            t.trace_dropped as f64 / ops,
            "ring wrap",
        );
        rows.layer1(
            "executor.bytes_per_case",
            (rss_growth_mib * 1024.0 * 1024.0 / ops).max(0.0),
            "VmHWM growth across the untraced unit over its cases",
        );
        rows.layer1(
            "report.render_us",
            unit.render_secs * 1e6,
            "render_table of every report",
        );
        rows.layer1(
            "report.dedup_hit_rate",
            t.failing.saturating_sub(t.distinct) as f64 / t.failing.max(1) as f64,
            &format!("{} failing cases -> {} distinct", t.failing, t.distinct),
        );
        rows.layer1("report.bytes", t.report_bytes as f64, "");
        if inputs.kind == Kind::GuidedSearch {
            rows.layer1("search.rounds", t.search_rounds as f64, "");
            rows.layer1("search.corpus_size", t.corpus_size as f64, "");
            rows.layer1("search.cases_total", t.cases_run as f64, "");
            rows.layer1(
                "search.cases_to_detect",
                t.cases_to_detect as f64,
                "summed over the unit's searches and their required bugs; a miss costs that search's whole spend",
            );
        }
        // What the oracle has to judge per open-loop case: the arrivals of
        // the compiled plan, averaged over the workload's specs and seeds.
        let mut arrivals = Vec::new();
        let mut plan = WorkloadPlan::new();
        for spec in parts[0].config.workloads() {
            for &seed in parts[0].config.seeds() {
                plan.compile(spec, seed, OPEN_LOOP_WINDOW_MS);
                arrivals.push(plan.arrivals().count() as f64);
            }
        }
        if !arrivals.is_empty() {
            let mean = arrivals.iter().sum::<f64>() / arrivals.len() as f64;
            rows.layer(
                "oracle.ops_per_case",
                mean,
                arrivals,
                "arrivals per open-loop plan",
            );
        }
    }
}

/// Rows read off the traced unit's per-case spans.
fn case_rows(rows: &mut Rows, cases: &[CaseSample]) {
    let micros = |pick: &dyn Fn(&CaseSample) -> bool| -> Vec<f64> {
        cases
            .iter()
            .filter(|c| pick(c))
            .map(|c| c.nanos as f64 / 1e3)
            .collect()
    };
    let Some(all) = stats::latency(&micros(&|_| true)) else {
        return;
    };
    rows.layer1("harness.case_p50_us", all.p50, &format!("n={}", all.n));
    match all.tail {
        Some((pct, value)) => rows.layer1(
            "harness.case_tail_us",
            value,
            &format!(
                "p{pct}, n={}: the highest percentile with ten samples beyond it",
                all.n
            ),
        ),
        None => rows.layer1(
            "harness.case_tail_us",
            0.0,
            &format!("n={} supports no tail percentile", all.n),
        ),
    }
    for (name, samples) in [
        (
            "harness.first_in_group_us",
            micros(&|c| c.first_in_group && !c.invalid),
        ),
        (
            "harness.sibling_us",
            micros(&|c| !c.first_in_group && !c.invalid),
        ),
        ("harness.invalid_case_us", micros(&|c| c.invalid)),
    ] {
        if !samples.is_empty() {
            rows.layer1(
                name,
                median(&samples),
                &format!("median, n={}", samples.len()),
            );
        }
    }
    for (name, pct) in [
        ("open_loop.read_heavy_ops_per_s", READ_HEAVY_PCT),
        ("open_loop.write_heavy_ops_per_s", WRITE_HEAVY_PCT),
    ] {
        let of_spec: Vec<&CaseSample> = cases.iter().filter(|c| c.read_pct == Some(pct)).collect();
        let secs: f64 = of_spec.iter().map(|c| c.nanos as f64 / 1e9).sum();
        if secs > 0.0 {
            rows.layer1(
                name,
                of_spec.len() as f64 / secs,
                &format!(
                    "{} cases at {pct}% reads, from their case spans",
                    of_spec.len()
                ),
            );
        }
    }
}

/// Repeats of each executor measurement; the rows are medians.
const EXECUTOR_REPEATS: usize = 3;
/// The executor's share of a case is nanoseconds, so it only resolves as the
/// difference of two timings over at least this many cases — in practice on
/// `million_cases`, where a case costs microseconds.
const OVERHEAD_MIN_OPS: u64 = 10_000;

/// A bare `CaseRunner` loop over the same matrices: the cases without the
/// executor around them.
fn bare_loop_secs(parts: &[crate::workloads::Part]) -> f64 {
    let start = Instant::now();
    for part in parts {
        let matrix = CaseMatrix::enumerate(part.sut, &part.config);
        let mut runner =
            CaseRunner::with_options(part.sut, part.config.trace(), part.config.snapshot());
        for index in 0..matrix.len() {
            std::hint::black_box(matrix.case_at(index).run_in(&mut runner));
        }
    }
    start.elapsed().as_secs_f64()
}

/// What the executor adds on top of the cases themselves, and what more
/// workers buy, both at the warm-up size and interleaved so drift hits every
/// side alike. The multi-threaded unit must replay the single-threaded one.
fn executor_rows(rows: &mut Rows, warm_inputs: &Inputs, smoke: bool, verdict: &mut Verdict) {
    let Body::Campaigns(parts) = &warm_inputs.body else {
        return;
    };
    let threads = procstat::cpus().min(4);
    let sweeps = warm_inputs.matrix_cases() >= OVERHEAD_MIN_OPS;
    let (mut single, mut multi, mut bare) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = 0;
    for _ in 0..if smoke { 1 } else { EXECUTOR_REPEATS } {
        let st = run_unit(warm_inputs, 1, None);
        let mt = run_unit(warm_inputs, threads, None);
        verdict.attempted += mt.ops;
        if mt.totals != st.totals {
            verdict.failed += mt.ops;
            verdict.notes.push(format!(
                "threads({threads}) is not a replay of threads(1): {:?} vs {:?}",
                mt.totals, st.totals
            ));
        }
        ops = st.ops;
        single.push(st.secs);
        multi.push(mt.secs);
        if sweeps {
            bare.push(bare_loop_secs(parts));
        }
    }
    // One core can show no parallel speed-up either way: no claim.
    let speedup = |mt: &f64| {
        if threads > 1 {
            median(&single) / mt
        } else {
            0.0
        }
    };
    rows.layer(
        "executor.mt_speedup",
        speedup(&median(&multi)),
        multi.iter().map(speedup).collect(),
        &format!(
            "threads({threads}) vs threads(1) on {} cpus, {ops} ops, medians",
            procstat::cpus()
        ),
    );
    if sweeps {
        let per_op = |bare: &f64| (median(&single) - bare) * 1e9 / ops.max(1) as f64;
        rows.layer(
            "executor.overhead_ns_per_op",
            per_op(&median(&bare)),
            bare.iter().map(per_op).collect(),
            &format!(
                "Campaign::run {:.4} s minus a bare CaseRunner loop {:.4} s over {ops} ops, medians",
                median(&single),
                median(&bare)
            ),
        );
    }
}

fn write_trace(out: &Path, kind: Kind, rec: &Recorder) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    std::fs::write(
        out.join(format!("trace-{}.json", kind.name())),
        rec.to_chrome(kind.name()).to_string(),
    )
}
