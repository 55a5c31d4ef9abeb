//! The benchmark's metric tables — the single source `BENCHMARK.json`, the
//! printed rows, `result.json` and `compare` all agree with (a test holds
//! `BENCHMARK.json` to it).

use crate::json::Json;

/// How long one run measures; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the tester sees, with the share of
/// the parent's median it may worsen by before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    // Ops completed per wall second of a timed unit, median over the units.
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Process CPU (user+sys) per op, median over the units: the north
    // star's "per CPU-second"; leaves out time spent off the core.
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    // VmHWM at exit. The small workloads peak near 5 MiB, where allocator
    // and seed effects alone spread 8-9 %.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    // Process start to the first timed unit — build inputs, enumerate
    // matrices, one warm-up unit — median over fresh processes.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric. `moves` records, ahead of any measurement, which
/// end-to-end metric on which workload the layer should move — and where
/// the prediction is no change.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const SIM: &str = "ops_per_s, cpu_us_per_op on chaos_fanout and open_loop; little on million_cases; none on static_check";
const STORM: &str = "ops_per_s on chaos_fanout";
const FORK: &str =
    "restore/reset: ops_per_s on million_cases; snapshot: sweep_paper; none on static_check";
const RING: &str = "ops_per_s on chaos_fanout, guided_search; zero elsewhere";
const CASE: &str = "ops_per_s on sweep_paper; sibling_us on million_cases";
const SYSTEM: &str = "ops_per_s on sweep_paper";
const PLAN: &str = "ops_per_s on million_cases; none on open_loop";
const EXEC: &str = "ops_per_s, peak_rss_mb on million_cases";
const OPEN: &str = "ops_per_s on open_loop; none on sweep_paper";
const SEARCH: &str = "ops_per_s and search.cases_to_detect on guided_search; none elsewhere";
const REPORT: &str = "ops_per_s on sweep_paper, chaos_fanout";
const WIRE: &str = "ops_per_s on sweep_paper, open_loop; none on static_check";
const STATIC: &str = "ops_per_s on static_check only";
const BENCH: &str = "none: describes the measurement itself";

pub const PER_LAYER: [PerLayer; 64] = [
    layer("simnet.ns_per_event", "ns", Lower, SIM),
    layer("simnet.events_per_op", "count", Lower, SIM),
    layer("simnet.msgs_per_op", "count", Lower, SIM),
    layer("simnet.faults_per_op", "count", Lower, SIM),
    layer("simnet.dispatch_ns", "ns", Lower, STORM),
    layer("simnet.storm_ns_per_event", "ns", Lower, STORM),
    layer("simnet.faulted_ns_per_event", "ns", Lower, STORM),
    layer("simnet.traced_overhead_pct", "%", Lower, STORM),
    layer("simnet.snapshot_ns", "ns", Lower, FORK),
    layer("simnet.restore_ns", "ns", Lower, FORK),
    layer("simnet.reset_ns", "ns", Lower, FORK),
    layer("simnet.trace_events_per_op", "count", Lower, RING),
    layer("simnet.trace_dropped_per_op", "count", Lower, RING),
    layer("harness.case_p50_us", "us", Lower, CASE),
    layer("harness.case_tail_us", "us", Lower, CASE),
    layer("harness.first_in_group_us", "us", Lower, CASE),
    layer("harness.sibling_us", "us", Lower, CASE),
    layer("harness.invalid_case_us", "us", Lower, CASE),
    layer("kvstore.case_us", "us", Lower, SYSTEM),
    layer("kvstore.ns_per_event", "ns", Lower, SYSTEM),
    layer("dfs.case_us", "us", Lower, SYSTEM),
    layer("dfs.ns_per_event", "ns", Lower, SYSTEM),
    layer("mq.case_us", "us", Lower, SYSTEM),
    layer("mq.ns_per_event", "ns", Lower, SYSTEM),
    layer("coord.case_us", "us", Lower, SYSTEM),
    layer("coord.ns_per_event", "ns", Lower, SYSTEM),
    layer("rollout.compile_ns", "ns", Lower, PLAN),
    layer("rollout.parse_ns", "ns", Lower, PLAN),
    layer("faults.plan_ns", "ns", Lower, PLAN),
    layer("matrix.enumerate_us", "us", Lower, PLAN),
    layer("matrix.case_at_ns", "ns", Lower, PLAN),
    layer("executor.overhead_ns_per_op", "ns", Lower, EXEC),
    layer("executor.bytes_per_case", "B", Lower, EXEC),
    layer("executor.mt_speedup", "ratio", Higher, EXEC),
    layer("workload.compile_ns", "ns", Lower, OPEN),
    layer("workload.arrival_ns", "ns", Lower, OPEN),
    layer("oracle.ops_per_case", "count", Lower, OPEN),
    layer(
        "oracle.timing_bugs_found",
        "count",
        Higher,
        "none: found or not, a timing-dependent bug is never a failed op",
    ),
    layer("open_loop.read_heavy_ops_per_s", "op/s", Higher, OPEN),
    layer("open_loop.write_heavy_ops_per_s", "op/s", Higher, OPEN),
    layer("coverage.fold_ns", "ns", Lower, SEARCH),
    layer("coverage.observe_ns", "ns", Lower, SEARCH),
    layer("search.mutate_ns", "ns", Lower, SEARCH),
    layer("search.rounds", "count", Lower, SEARCH),
    layer("search.corpus_size", "count", Higher, SEARCH),
    layer("search.cases_total", "count", Lower, SEARCH),
    layer("search.cases_to_detect", "count", Lower, SEARCH),
    layer("report.render_us", "us", Lower, REPORT),
    layer("report.dedup_hit_rate", "ratio", Higher, REPORT),
    layer("report.bytes", "B", Lower, REPORT),
    layer("wire.proto_encode_ns", "ns", Lower, WIRE),
    layer("wire.proto_decode_ns", "ns", Lower, WIRE),
    layer("wire.thrift_encode_ns", "ns", Lower, WIRE),
    layer("wire.thrift_decode_ns", "ns", Lower, WIRE),
    layer("wire.frame_roundtrip_ns", "ns", Lower, WIRE),
    layer("idl.parse_proto_mb_s", "MB/s", Higher, STATIC),
    layer("idl.parse_thrift_mb_s", "MB/s", Higher, STATIC),
    layer("idl.lower_us", "us", Lower, STATIC),
    layer("srcmodel.parse_java_mb_s", "MB/s", Higher, STATIC),
    layer("dupchecker.compare_us_per_pair", "us", Lower, STATIC),
    layer("dupchecker.enum_check_us_per_pair", "us", Lower, STATIC),
    layer("dupchecker.findings", "count", Higher, STATIC),
    layer("bench.trace_overhead_pct", "%", Lower, BENCH),
    layer("bench.sched_wait_share", "ratio", Lower, BENCH),
];

/// One measured row: a value with its sample count and range, and a note
/// saying what the samples are.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The samples behind `value`; one entry when it is a single reading.
    pub samples: Vec<f64>,
    pub note: String,
}

impl Row {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
            ("samples", Json::nums(&self.samples)),
            ("note", Json::str(self.note.as_str())),
        ])
    }

    /// `name  value unit  [min .. max, n=k]  note`
    pub fn render(&self) -> String {
        let range = match crate::stats::summarize(&self.samples) {
            Some(s) if s.n > 1 => format!("[{:.4} .. {:.4}, n={}]", s.min, s.max, s.n),
            _ => "[n=1]".to_string(),
        };
        format!(
            "  {:<34} {:>16.4} {:<6} {range} {}",
            self.name, self.value, self.unit, self.note
        )
    }
}

/// The rows of one run, checked against a table as they are added.
#[derive(Debug, Default)]
pub struct Rows(pub Vec<Row>);

impl Rows {
    fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: Vec<f64>, note: &str) {
        assert!(
            !self.0.iter().any(|r| r.name == name),
            "metric {name} reported twice"
        );
        self.0.push(Row {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: note.to_string(),
        });
    }

    pub fn e2e(&mut self, name: &str, value: f64, samples: Vec<f64>, note: &str) {
        let def = end_to_end(name).unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        self.push(name, def.unit, value, samples, note);
    }

    pub fn layer(&mut self, name: &str, value: f64, samples: Vec<f64>, note: &str) {
        let def = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.push(name, def.unit, value, samples, note);
    }

    /// A single reading.
    pub fn layer1(&mut self, name: &str, value: f64, note: &str) {
        self.layer(name, value, vec![value], note);
    }

    /// Adds every per-layer metric not reported yet as 0 — the layer does
    /// not run on this workload — and puts the rows in table order.
    pub fn fill_layers(&mut self) {
        for def in &PER_LAYER {
            if !self.0.iter().any(|r| r.name == def.name) {
                self.push(def.name, def.unit, 0.0, vec![0.0], "n/a on this workload");
            }
        }
        let place = |row: &Row| PER_LAYER.iter().position(|def| def.name == row.name);
        self.0.sort_by_key(place);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_are_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Kind::ALL.iter().map(|k| k.name()));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    /// `BENCHMARK.json` at the repository root is this table, written out.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(doc.get("paths").unwrap().as_arr(), [Json::str("upbench")]);

        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = Kind::ALL
            .iter()
            .map(|k| (k.name().to_string(), k.why().to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<_> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<_> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(layers, expected);
    }

    #[test]
    fn rows_reject_unknown_and_repeated_names() {
        let mut rows = Rows::default();
        rows.layer1("bench.sched_wait_share", 0.01, "");
        rows.fill_layers();
        assert_eq!(rows.0.len(), PER_LAYER.len());
        assert!(rows
            .0
            .iter()
            .zip(&PER_LAYER)
            .all(|(row, def)| row.name == def.name));
        assert!(std::panic::catch_unwind(|| {
            let mut rows = Rows::default();
            rows.layer1("not.a.metric", 1.0, "");
        })
        .is_err());
    }
}
