//! `upbench compare <a.json> <b.json>`: holds run `b` against run `a`, one
//! row per workload and end-to-end metric, by the rule the repeatability
//! criterion and every later perf claim use.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// Worse by more than the bound, or an exact count changed.
    Worse,
    /// One side's own samples spread wider than the bound, so the medians
    /// cannot settle it — unless every sample of `b` beats every sample of
    /// `a`, which is `Ok`.
    Unresolved,
}

impl Status {
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Worse => "worse",
            Status::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub workload: String,
    pub metric: String,
    pub a: String,
    pub b: String,
    /// `b / a`, with `a` as the base; empty for exact rows.
    pub ratio: String,
    pub bound: String,
    pub status: Status,
}

/// Judges one timed metric. `lower_is_better` orients "worse".
pub fn judge(
    (a, a_samples): (f64, &[f64]),
    (b, b_samples): (f64, &[f64]),
    lower_is_better: bool,
    bound: f64,
) -> Status {
    let worsening = if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    // With under four samples the quartiles are just the range, which one
    // disturbed sample decides; the (robust) medians settle those rows.
    let spread_of = |s: &[f64]| if s.len() >= 4 { spread(s) } else { 0.0 };
    if spread_of(a_samples).max(spread_of(b_samples)) > bound {
        let fold = |s: &[f64], init: f64, f: fn(f64, f64) -> f64| s.iter().copied().fold(init, f);
        let all_better = if lower_is_better {
            fold(b_samples, f64::MIN, f64::max) < fold(a_samples, f64::MAX, f64::min)
        } else {
            fold(b_samples, f64::MAX, f64::min) > fold(a_samples, f64::MIN, f64::max)
        };
        return if all_better {
            Status::Ok
        } else {
            Status::Unresolved
        };
    }
    if worsening > bound {
        Status::Worse
    } else {
        Status::Ok
    }
}

fn exact_line(workload: &str, metric: &str, a: String, b: String) -> Line {
    Line {
        workload: workload.to_string(),
        metric: metric.to_string(),
        status: if a == b { Status::Ok } else { Status::Worse },
        a,
        b,
        ratio: String::new(),
        bound: "exact".to_string(),
    }
}

/// Compares two `result.json` documents. Smoke results measure nothing and
/// are refused, as are documents of another schema or seed.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Line>, String> {
    for (label, doc) in [("first", a), ("second", b)] {
        if doc.get("schema").and_then(Json::as_f64) != Some(crate::RESULT_SCHEMA as f64) {
            return Err(format!(
                "the {label} file is not an upbench result of this schema"
            ));
        }
        if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "the {label} file is a smoke result: it measures nothing"
            ));
        }
    }
    if a.get("seed") != b.get("seed") {
        return Err("the two results were taken at different seeds".to_string());
    }
    let mut lines = Vec::new();
    for (workload, wa) in a.get("workloads").map_or(&[][..], Json::as_obj) {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("{workload} is missing from the second file"))?;
        for def in &END_TO_END {
            let read = |w: &Json| {
                let row = w.get("end_to_end")?.get(def.name)?;
                Some((row.get("value")?.as_f64()?, row.get("samples")?.as_nums()))
            };
            let ((va, sa), (vb, sb)) = read(wa)
                .zip(read(wb))
                .ok_or_else(|| format!("{workload}: {} is missing", def.name))?;
            lines.push(Line {
                workload: workload.clone(),
                metric: def.name.to_string(),
                a: format!("{va:.4}"),
                b: format!("{vb:.4}"),
                ratio: format!("{:.4}", vb / va),
                bound: format!("{:.0}%", def.bound * 100.0),
                status: judge(
                    (va, &sa),
                    (vb, &sb),
                    def.better == crate::metrics::Better::Lower,
                    def.bound,
                ),
            });
        }
        let text = |w: &Json, key: &str| w.get(key).map_or(String::new(), Json::to_string);
        for key in ["failed", "report_digest"] {
            lines.push(exact_line(workload, key, text(wa, key), text(wb, key)));
        }
        for (key, value) in wa.get("exact").map_or(&[][..], Json::as_obj) {
            let other = wb.get("exact").and_then(|e| e.get(key));
            lines.push(exact_line(
                workload,
                key,
                value.to_string(),
                other.map_or(String::new(), Json::to_string),
            ));
        }
    }
    if lines.is_empty() {
        return Err("the first file holds no workloads".to_string());
    }
    Ok(lines)
}

pub fn render(lines: &[Line]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>20} {:>20} {:>8} {:>6}  {}\n",
        "workload", "metric", "a", "b", "b/a", "bound", "verdict"
    );
    for l in lines {
        out.push_str(&format!(
            "{:<14} {:<18} {:>20} {:>20} {:>8} {:>6}  {}\n",
            l.workload,
            l.metric,
            l.a,
            l.b,
            l.ratio,
            l.bound,
            l.status.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ops: f64, samples: &[f64], failed: f64, smoke: bool) -> Json {
        let row = |value: f64, samples: &[f64]| {
            Json::obj([
                ("value", Json::Num(value)),
                ("samples", Json::nums(samples)),
            ])
        };
        Json::obj([
            ("schema", Json::Num(crate::RESULT_SCHEMA as f64)),
            ("smoke", Json::Bool(smoke)),
            ("seed", Json::Num(1.0)),
            (
                "workloads",
                Json::obj([(
                    "sweep_paper",
                    Json::obj([
                        ("failed", Json::Num(failed)),
                        ("report_digest", Json::str("00ff")),
                        ("exact", Json::obj([("cases_run", Json::Num(1080.0))])),
                        (
                            "end_to_end",
                            Json::obj([
                                ("ops_per_s", row(ops, samples)),
                                ("cpu_us_per_op", row(2000.0, &[2000.0, 2001.0])),
                                ("peak_rss_mb", row(5.0, &[5.0])),
                                ("setup_s", row(0.9, &[0.9, 0.9, 0.91])),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    fn status_of(lines: &[Line], metric: &str) -> Status {
        lines.iter().find(|l| l.metric == metric).unwrap().status
    }

    #[test]
    fn verdicts_on_hand_made_results() {
        let base = result(400.0, &[398.0, 400.0, 402.0], 0.0, false);
        // Within the 25% bound, either direction.
        let lines = compare(&base, &result(380.0, &[379.0, 380.0, 381.0], 0.0, false)).unwrap();
        assert_eq!(status_of(&lines, "ops_per_s"), Status::Ok);
        assert_eq!(
            lines
                .iter()
                .find(|l| l.metric == "ops_per_s")
                .unwrap()
                .ratio,
            "0.9500"
        );
        assert!(lines.iter().all(|l| l.status == Status::Ok));
        // Throughput down by three tenths: worse.
        let lines = compare(&base, &result(280.0, &[279.0, 280.0, 281.0], 0.0, false)).unwrap();
        assert_eq!(status_of(&lines, "ops_per_s"), Status::Worse);
        // Up by a quarter is not worse.
        let lines = compare(&base, &result(500.0, &[499.0, 500.0, 501.0], 0.0, false)).unwrap();
        assert_eq!(status_of(&lines, "ops_per_s"), Status::Ok);
        // Samples spread wider than the bound: the medians settle nothing...
        let wide = [250.0, 380.0, 400.0, 530.0];
        let lines = compare(&base, &result(390.0, &wide, 0.0, false)).unwrap();
        assert_eq!(status_of(&lines, "ops_per_s"), Status::Unresolved);
        // ...unless every sample of b beats every sample of a.
        let wide = [410.0, 590.0, 610.0, 790.0];
        let lines = compare(&base, &result(600.0, &wide, 0.0, false)).unwrap();
        assert_eq!(status_of(&lines, "ops_per_s"), Status::Ok);
        // An exact count that moved is a change, however small.
        let lines = compare(&base, &result(400.0, &[398.0, 400.0, 402.0], 1.0, false)).unwrap();
        assert_eq!(status_of(&lines, "failed"), Status::Worse);
        assert_eq!(status_of(&lines, "cases_run"), Status::Ok);
        assert!(render(&lines).contains("worse"));
    }

    #[test]
    fn smoke_and_foreign_files_are_refused() {
        let good = result(400.0, &[400.0], 0.0, false);
        let smoke = result(400.0, &[400.0], 0.0, true);
        assert!(compare(&good, &smoke).unwrap_err().contains("smoke"));
        assert!(compare(&smoke, &good).unwrap_err().contains("smoke"));
        assert!(compare(&Json::obj([("x", Json::Null)]), &good).is_err());
        assert!(compare(&good, &Json::Null).is_err());
    }
}
