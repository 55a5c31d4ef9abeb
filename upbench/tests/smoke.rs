//! Runs the real binary end to end at the smoke scale — every workload, both
//! trace modes, every call the benchmark makes into the program — so that
//! API drift breaks a test here, not the benchmark.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use upbench::json::Json;
use upbench::metrics::{END_TO_END, PER_LAYER};
use upbench::workloads::Kind;

fn upbench(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_upbench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("the upbench binary starts")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn smoke_pass_runs_every_workload_and_is_refused_by_compare() {
    let out = out_dir("smoke");
    let run = upbench(&["--smoke"], &out);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let result = load(&out.join("result.json"));
    assert_eq!(result.get("smoke"), Some(&Json::Bool(true)));
    let workloads = result.get("workloads").unwrap().as_obj();
    assert_eq!(
        workloads
            .iter()
            .map(|(name, _)| name.as_str())
            .collect::<Vec<_>>(),
        Kind::ALL.map(Kind::name)
    );
    for (name, w) in workloads {
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{name}");
        for def in &END_TO_END {
            let row = w.get("end_to_end").unwrap().get(def.name).unwrap();
            let value = row.get("value").and_then(Json::as_f64).unwrap();
            // CPU time comes in 10 ms ticks, which a smoke unit can undercut.
            let floor = if def.name == "cpu_us_per_op" {
                -1.0
            } else {
                0.0
            };
            assert!(value > floor, "{name}: {} is {value}", def.name);
        }
        let layers = w.get("per_layer").unwrap().as_obj();
        assert_eq!(
            layers.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            PER_LAYER.iter().map(|def| def.name).collect::<Vec<_>>(),
            "{name}"
        );

        // The trace: Chrome's object form, and span self times that add up
        // to the traced unit's root span.
        let trace = load(&out.join(format!("trace-{name}.json")));
        let events = trace.get("traceEvents").unwrap().as_arr();
        let root = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("unit"));
        let root_ns = root.unwrap().get("dur").and_then(Json::as_f64).unwrap() * 1000.0;
        let self_ns: f64 = trace
            .get("otherData")
            .unwrap()
            .get("self_time_ns")
            .unwrap()
            .as_obj()
            .iter()
            .map(|(_, t)| t.get("self_ns").and_then(Json::as_f64).unwrap())
            .sum();
        assert!(
            (self_ns - root_ns).abs() <= 0.02 * root_ns,
            "{name}: self times {self_ns} ns vs root span {root_ns} ns"
        );
    }

    let result_path = out.join("result.json");
    let refused = Command::new(env!("CARGO_BIN_EXE_upbench"))
        .arg("compare")
        .args([&result_path, &result_path])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("smoke"));
}

#[test]
fn one_workload_ends_with_the_one_line_result() {
    let out = out_dir("single");
    let run = upbench(
        &[
            "--workload",
            "static_check",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ],
        &out,
    );
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    let metrics: Vec<&str> = last
        .get("metrics")
        .unwrap()
        .as_obj()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(metrics, END_TO_END.map(|m| m.name));
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = out_dir("bad");
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate", "1"],
        &["--seed"],
    ] {
        let run = upbench(args, &out);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&run.stderr).contains("usage:"));
    }
}
