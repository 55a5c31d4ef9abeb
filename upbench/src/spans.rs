//! The benchmark's own span recorder. It wraps the *calls into* each layer
//! — the program under test carries no spans of its own yet — keeps
//! everything in memory, and writes one Chrome `trace_event` file when the
//! traced unit is over.
//!
//! A span's **self time** is its duration minus the time its child spans
//! cover. Spans nest strictly (load is generated on one thread), so the self
//! times of one unit sum to the root span's duration exactly; the recorder
//! folds them per name as spans close, which keeps that sum exact even when
//! only a sample of the spans themselves is stored.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing stored span, if any.
    pub parent: Option<usize>,
    /// The unit this span belongs to: every span of one traced unit shares
    /// it, the way spans of one request share a request id.
    pub unit: u32,
    pub tags: String,
}

/// Exact per-name totals, sampled or not.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Index in `spans` when this span is being stored.
    stored: Option<usize>,
}

pub struct Recorder {
    origin: Instant,
    unit: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    instants: Vec<(u64, &'static str, String)>,
    totals: BTreeMap<&'static str, NameTotal>,
    /// Store one in this many spans of `sampled_name` (all other spans are
    /// always stored). Totals stay exact either way.
    sample_every: u64,
    sampled_name: &'static str,
    sampled_seen: u64,
}

impl Recorder {
    pub fn new(unit: u32) -> Recorder {
        Recorder {
            origin: Instant::now(),
            unit,
            stack: Vec::new(),
            spans: Vec::new(),
            instants: Vec::new(),
            totals: BTreeMap::new(),
            sample_every: 1,
            sampled_name: "",
            sampled_seen: 0,
        }
    }

    /// Stores only every `every`-th span called `name`.
    pub fn sample(&mut self, name: &'static str, every: u64) {
        self.sampled_name = name;
        self.sample_every = every.max(1);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span. `tags` is only called for a span that is stored, so a
    /// sampled-out span costs no formatting.
    pub fn enter(&mut self, name: &'static str, tags: impl FnOnce() -> String) {
        let start_ns = self.now_ns();
        self.enter_at(name, tags, start_ns);
    }

    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        self.exit_at(end_ns)
    }

    fn enter_at(&mut self, name: &'static str, tags: impl FnOnce() -> String, start_ns: u64) {
        let keep = name != self.sampled_name || {
            self.sampled_seen += 1;
            (self.sampled_seen - 1).is_multiple_of(self.sample_every)
        };
        let stored = keep.then(|| {
            let parent = self.stack.iter().rev().find_map(|o| o.stored);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                unit: self.unit,
                tags: tags(),
            });
            self.spans.len() - 1
        });
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            stored,
        });
    }

    /// Closes the innermost open span and returns its duration.
    fn exit_at(&mut self, end_ns: u64) -> u64 {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.stored {
            self.spans[i].end_ns = end_ns;
        }
        dur
    }

    /// A point event (Chrome phase `i`); takes no part in self times.
    pub fn instant(&mut self, name: &'static str, tags: String) {
        let at = self.now_ns();
        self.instants.push((at, name, tags));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, NameTotal> {
        &self.totals
    }

    /// Sum of every closed span's self time.
    pub fn self_ns_sum(&self) -> u64 {
        self.totals.values().map(|t| t.self_ns).sum()
    }

    /// Chrome `trace_event` JSON (object form): one complete event (`X`)
    /// per stored span with `ts`/`dur` in microseconds, instants as `i`,
    /// and the exact per-name totals under `otherData.self_time_ns`.
    pub fn to_chrome(&self, workload: &str) -> Json {
        let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
        let mut events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", us(s.start_ns)),
                    ("dur", us(s.end_ns - s.start_ns)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("unit", Json::Num(f64::from(s.unit))),
                            ("tags", Json::str(s.tags.as_str())),
                        ]),
                    ),
                ])
            })
            .collect();
        events.extend(self.instants.iter().map(|(at, name, tags)| {
            Json::obj([
                ("name", Json::str(*name)),
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("ts", us(*at)),
                ("args", Json::obj([("tags", Json::str(tags.as_str()))])),
            ])
        }));
        let totals = self.totals.iter().map(|(name, t)| {
            (
                *name,
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        });
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([
                    ("workload", Json::str(workload)),
                    ("sampled_span", Json::str(self.sampled_name)),
                    ("sample_every", Json::Num(self.sample_every as f64)),
                    ("self_time_ns", Json::obj(totals)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0..100 { a 10..40 { a1 15..25 }, b 50..90 { b1 50..60, b2 70..90 } }
    fn tree(rec: &mut Recorder) {
        rec.enter_at("root", String::new, 0);
        rec.enter_at("a", String::new, 10);
        rec.enter_at("leaf", || "a1".into(), 15);
        rec.exit_at(25);
        rec.exit_at(40);
        rec.enter_at("b", String::new, 50);
        rec.enter_at("leaf", || "b1".into(), 50);
        rec.exit_at(60);
        rec.enter_at("leaf", || "b2".into(), 70);
        rec.exit_at(90);
        rec.exit_at(90);
        rec.exit_at(100);
    }

    #[test]
    fn self_time_is_duration_minus_children_nested_and_sibling() {
        let mut rec = Recorder::new(7);
        tree(&mut rec);
        let t = rec.totals();
        assert_eq!(
            t["root"],
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["a"],
            NameTotal {
                count: 1,
                total_ns: 30,
                self_ns: 20
            }
        );
        assert_eq!(
            t["b"],
            NameTotal {
                count: 1,
                total_ns: 40,
                self_ns: 10
            }
        );
        assert_eq!(
            t["leaf"],
            NameTotal {
                count: 3,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(rec.self_ns_sum(), 100, "self times sum to the root span");
        let parents: Vec<_> = rec
            .spans()
            .iter()
            .map(|s| (s.tags.as_str(), s.parent))
            .collect();
        assert_eq!(
            parents,
            [
                ("", None),
                ("", Some(0)),
                ("a1", Some(1)),
                ("", Some(0)),
                ("b1", Some(3)),
                ("b2", Some(3))
            ]
        );
        assert!(rec.spans().iter().all(|s| s.unit == 7));
    }

    #[test]
    fn sampling_drops_spans_but_not_totals() {
        let mut rec = Recorder::new(0);
        rec.sample("leaf", 2);
        tree(&mut rec);
        let leaves: Vec<_> = rec.spans().iter().filter(|s| s.name == "leaf").collect();
        assert_eq!(leaves.len(), 2, "first and third of three leaves stored");
        assert_eq!(rec.totals()["leaf"].count, 3);
        assert_eq!(rec.self_ns_sum(), 100);
    }

    #[test]
    fn chrome_export_is_valid_json_with_totals() {
        let mut rec = Recorder::new(1);
        tree(&mut rec);
        rec.instant("search.round", "group=0".into());
        let doc = Json::parse(&rec.to_chrome("w").to_string()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().len(), 7);
        let root = &doc.get("traceEvents").unwrap().as_arr()[0];
        assert_eq!(root.get("dur").and_then(Json::as_f64), Some(0.1));
        let leaf = doc
            .get("otherData")
            .unwrap()
            .get("self_time_ns")
            .unwrap()
            .get("leaf")
            .unwrap();
        assert_eq!(leaf.get("self_ns").and_then(Json::as_f64), Some(40.0));
    }
}
