//! Layer micro-timings: each layer's public functions called directly, so a
//! slow campaign can be attributed to a layer without guessing. The simulator
//! and codec rows run on the fixtures the criterion benches use, the
//! DUPChecker rows on `static_check`'s own inputs. These are per-layer rows
//! only — no end-to-end number comes from here.

use crate::fixtures::{heartbeat, heartbeat_schema, storm_world, Pinger};
use crate::metrics::Rows;
use crate::stats::median;
use crate::workloads::{
    all_systems, open_loop_spec, Body, Inputs, Kind, Scale, Sut, READ_HEAVY_PCT,
};
use bytes::Bytes;
use dup_idl::SyntaxKind;
use dup_simnet::{Sim, SimDuration, SimRng, SimSnapshot, SimTime, TraceConfig};
use dup_tester::{
    fault_plan_for, mutate, CaseMatrix, CaseRunner, CaseSignature, CoverageMap, Durability,
    FaultIntensity, MutationOp, RolloutPlan, Scenario, SearchInput, TestCase, WorkloadPlan,
    WorkloadSpec,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The phase window the harness compiles an open-loop plan over
/// (`OPEN_LOOP_WINDOW_MS`, private to `dup-tester`'s harness).
pub const OPEN_LOOP_WINDOW_MS: u64 = 2_000;

const BATCHES: u32 = 5;

/// Median seconds per call over [`BATCHES`] batches sized to fill `budget`,
/// with the samples. `first` is one calibration call: what it took and what
/// it measured; `batch(n)` makes `n` calls and returns seconds per call. A
/// zero budget (smoke) stops at the calibration call.
fn sampled(
    budget: Duration,
    first: (Duration, f64),
    mut batch: impl FnMut(u32) -> f64,
) -> (f64, Vec<f64>) {
    let (took, measured) = first;
    if budget.is_zero() {
        return (measured, vec![measured]);
    }
    let per_batch = budget.as_nanos() / u128::from(BATCHES);
    let iters = (per_batch / took.as_nanos().max(1)).clamp(1, 10_000_000) as u32;
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch(iters)).collect();
    (median(&samples), samples)
}

/// Times `op` from outside, a batch at a time, so a nanosecond-scale op is
/// not drowned in clock reads.
fn per_call(budget: Duration, mut op: impl FnMut()) -> (f64, Vec<f64>) {
    let start = Instant::now();
    op();
    let once = start.elapsed();
    sampled(budget, (once, once.as_secs_f64()), |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        start.elapsed().as_secs_f64() / f64::from(iters)
    })
}

/// Like [`per_call`], for an op that times the part of itself that counts.
fn per_call_inner(budget: Duration, mut op: impl FnMut() -> Duration) -> (f64, Vec<f64>) {
    let start = Instant::now();
    let once = op();
    sampled(budget, (start.elapsed(), once.as_secs_f64()), |iters| {
        (0..iters).map(|_| op()).sum::<Duration>().as_secs_f64() / f64::from(iters)
    })
}

struct Micro<'a> {
    rows: &'a mut Rows,
    budget: Duration,
}

impl Micro<'_> {
    /// Reports `op`'s time per call, scaled by `scale` (1e9 for ns).
    fn time(&mut self, name: &str, scale: f64, note: &str, op: impl FnMut()) -> f64 {
        let (secs, samples) = per_call(self.budget, op);
        let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
        self.rows.layer(name, secs * scale, scaled, note);
        secs
    }

    /// Reports a rate: `amount` per second of `op`.
    fn rate(&mut self, name: &str, amount: f64, note: &str, op: impl FnMut()) {
        let (secs, samples) = per_call(self.budget, op);
        let rates: Vec<f64> = samples.iter().map(|s| amount / s).collect();
        self.rows.layer(name, amount / secs, rates, note);
    }
}

fn ping_pong(traced: bool) -> u64 {
    let mut sim = Sim::new(1);
    if traced {
        sim.enable_trace(TraceConfig::default());
    }
    for (host, peer) in [("a", 1), ("b", 0)] {
        let node = sim.add_node(
            host,
            "v",
            Box::new(Pinger {
                peer,
                remaining: 5000,
            }),
        );
        sim.start_node(node).expect("a fresh node starts");
    }
    sim.run_for(SimDuration::from_secs(60));
    sim.messages_delivered()
}

/// A stress full-stop upgrade across the system's newest release pair.
fn newest_pair_case(sut: Sut) -> TestCase {
    let (from, to) = match sut.versions().as_slice() {
        [.., from, to] => (*from, *to),
        _ => panic!("{} has fewer than two releases", sut.name()),
    };
    TestCase {
        from,
        to,
        scenario: Scenario::FullStop,
        workload: WorkloadSpec::Stress,
        seed: 1,
        faults: FaultIntensity::Off,
        durability: Durability::Strict,
    }
}

/// Times the entry points of the layers `kind` leans on. Every row has one
/// home workload — the one its `moves` text in `metrics.rs` names — so a run
/// of all six workloads times each row once. `budget` is the time spent per
/// row; zero (smoke) calls each once.
pub fn micro_timings(rows: &mut Rows, kind: Kind, budget: Duration) {
    let mut m = Micro { rows, budget };
    match kind {
        Kind::SweepPaper => {
            snapshot(&mut m);
            systems(&mut m);
            wire(&mut m);
        }
        Kind::MillionCases => {
            restore_and_reset(&mut m);
            case_plans(&mut m);
        }
        Kind::ChaosFanout => event_core(&mut m),
        Kind::OpenLoop => traffic_plans(&mut m),
        Kind::GuidedSearch => search(&mut m),
        Kind::StaticCheck => static_layers(&mut m),
    }
}

fn event_core(m: &mut Micro<'_>) {
    {
        let mut sim = Sim::new(1);
        let node = sim.add_node(
            "a",
            "v",
            Box::new(Pinger {
                peer: 0,
                remaining: 0,
            }),
        );
        sim.start_node(node).expect("a fresh node starts");
        sim.run_for(SimDuration::from_millis(10));
        m.time(
            "simnet.dispatch_ns",
            1e9,
            "one client message through a warm node (perf_simnet dispatch_single_message)",
            || {
                let handle = sim.client_send(node, Bytes::from_static(b"ping"));
                sim.run_for(SimDuration::from_millis(10));
                black_box(sim.poll_response(handle));
            },
        );
    }

    let storm = |faulted: bool| {
        let mut sim = storm_world(2, 1000);
        if faulted {
            let plan = fault_plan_for(
                FaultIntensity::Heavy,
                Durability::Strict,
                2,
                8,
                SimTime::ZERO,
            );
            sim.install_fault_plan(plan.expect("a heavy plan exists"));
        }
        sim.run_for(SimDuration::from_secs(60));
        sim.events_processed()
    };
    for (name, faulted) in [
        ("simnet.storm_ns_per_event", false),
        ("simnet.faulted_ns_per_event", true),
    ] {
        let events = storm(faulted) as f64;
        m.time(
            name,
            1e9 / events,
            "8 nodes x 1000 timer+gossip rounds, world construction included",
            || {
                black_box(storm(faulted));
            },
        );
    }

    let (plain, _) = per_call(m.budget, || {
        black_box(ping_pong(false));
    });
    let (traced, _) = per_call(m.budget, || {
        black_box(ping_pong(true));
    });
    m.rows.layer1(
        "simnet.traced_overhead_pct",
        (traced - plain) / plain * 100.0,
        "10k-message ping-pong with the sim trace ring on vs off",
    );
}

const WARM_STORM: &str = "warm 8-node storm world with live timers and in-flight messages";

fn warm_storm() -> (Sim, SimSnapshot) {
    let mut sim = storm_world(3, u32::MAX);
    sim.run_for(SimDuration::from_secs(2));
    let mut snap = SimSnapshot::new();
    assert!(sim.snapshot_into(&mut snap), "the storm world is forkable");
    (sim, snap)
}

fn snapshot(m: &mut Micro<'_>) {
    let (sim, mut snap) = warm_storm();
    m.time("simnet.snapshot_ns", 1e9, WARM_STORM, || {
        black_box(sim.snapshot_into(&mut snap));
    });
}

fn restore_and_reset(m: &mut Micro<'_>) {
    let (mut sim, snap) = warm_storm();
    m.time("simnet.restore_ns", 1e9, WARM_STORM, || sim.restore(&snap));
    let (reset, samples) = per_call_inner(m.budget, || {
        let mut sim = storm_world(3, u32::MAX);
        sim.run_for(SimDuration::from_millis(100));
        let start = Instant::now();
        sim.reset(4);
        start.elapsed()
    });
    m.rows.layer(
        "simnet.reset_ns",
        reset * 1e9,
        samples.iter().map(|s| s * 1e9).collect(),
        "Sim::reset of a running 8-node storm world",
    );
}

fn systems(m: &mut Micro<'_>) {
    for (sut, label) in all_systems()
        .into_iter()
        .zip(["kvstore", "dfs", "mq", "coord"])
    {
        let case = newest_pair_case(sut);
        let mut runner = CaseRunner::new(sut);
        let events = case.run_in(&mut runner).digest.events_processed.max(1) as f64;
        let note = format!(
            "warm CaseRunner, stress full-stop {}->{}, {events} events",
            case.from, case.to
        );
        let secs = m.time(&format!("{label}.case_us"), 1e6, &note, || {
            black_box(case.run_in(&mut runner));
        });
        m.rows
            .layer1(&format!("{label}.ns_per_event"), secs * 1e9 / events, &note);
    }
}

/// The fixed costs every case of a sweep pays before the simulator runs.
fn case_plans(m: &mut Micro<'_>) {
    let kv = all_systems()[0];
    let case = newest_pair_case(kv);
    let catalog = kv.versions();
    let mut plan = RolloutPlan::new();
    let mut seed = 0u64;
    m.time(
        "rollout.compile_ns",
        1e9,
        "RolloutPlan::compile, rolling, 3 nodes, pooled",
        || {
            seed += 1;
            plan.compile(Scenario::Rolling, case.from, case.to, &catalog, 3, seed);
            black_box(plan.steps().len());
        },
    );
    let rendered = plan.render();
    m.time(
        "rollout.parse_ns",
        1e9,
        "RolloutPlan::parse of a rolling plan",
        || {
            black_box(RolloutPlan::parse(&rendered).expect("a rendered plan parses"));
        },
    );
    m.time(
        "faults.plan_ns",
        1e9,
        "fault_plan_for(Heavy, Torn, seed, 3 nodes)",
        || {
            seed += 1;
            black_box(fault_plan_for(
                FaultIntensity::Heavy,
                Durability::Torn,
                seed,
                3,
                SimTime::ZERO,
            ));
        },
    );

    let million = Inputs::build(Kind::MillionCases, 1, Scale::Full);
    let Body::Campaigns(parts) = &million.body else {
        unreachable!("million_cases is a campaign");
    };
    let part = &parts[0];
    let note = "the million_cases matrix";
    m.time("matrix.enumerate_us", 1e6, note, || {
        black_box(CaseMatrix::enumerate(part.sut, &part.config));
    });
    let matrix = CaseMatrix::enumerate(part.sut, &part.config);
    let mut index = 0usize;
    m.time("matrix.case_at_ns", 1e9, note, || {
        index = (index + 7919) % matrix.len();
        black_box(matrix.case_at(index));
    });
}

fn traffic_plans(m: &mut Micro<'_>) {
    let spec = open_loop_spec(READ_HEAVY_PCT);
    let mut wplan = WorkloadPlan::new();
    let mut seed = 0u64;
    m.time(
        "workload.compile_ns",
        1e9,
        "WorkloadPlan::compile, 10^6 clients at 500 req/s, pooled",
        || {
            seed += 1;
            wplan.compile(&spec, seed, OPEN_LOOP_WINDOW_MS);
            black_box(wplan.segment_count());
        },
    );
    let arrivals = wplan.arrivals().count().max(1) as f64;
    m.time(
        "workload.arrival_ns",
        1e9 / arrivals,
        "per arrival of WorkloadPlan::arrivals()",
        || {
            black_box(wplan.arrivals().fold(0u64, |acc, a| acc ^ a.key));
        },
    );
}

fn search(m: &mut Micro<'_>) {
    let kv = all_systems()[0];
    let mut runner = CaseRunner::with_trace(kv, Some(TraceConfig::default()));
    newest_pair_case(kv).run_in(&mut runner);
    let trace = runner.trace_buffer().expect("the runner traces");
    let events = trace.events().count().max(1) as f64;
    let mut signature = CaseSignature::new();
    m.time(
        "coverage.fold_ns",
        1e9 / events,
        "per trace event of CaseSignature::fold over one kvstore case",
        || {
            signature.clear();
            signature.fold(trace);
            black_box(signature.bits_set());
        },
    );
    let mut coverage = CoverageMap::new();
    m.time(
        "coverage.observe_ns",
        1e9,
        "CoverageMap::observe of one signature",
        || {
            black_box(coverage.observe(&signature));
        },
    );
    let mut rng = SimRng::new(7);
    let mut input = SearchInput::from_seed(1);
    let mut turn = 0usize;
    m.time(
        "search.mutate_ns",
        1e9,
        "mutate, cycling all operators",
        || {
            turn += 1;
            input = mutate(
                &input,
                MutationOp::ALL[turn % MutationOp::ALL.len()],
                &mut rng,
            );
            black_box(&input);
        },
    );
}

fn wire(m: &mut Micro<'_>) {
    use dup_wire::{proto, thrift, Frame};
    let schema = heartbeat_schema();
    let value = heartbeat(128);
    let proto_bytes = proto::encode(&schema, &value).expect("the heartbeat encodes");
    let thrift_bytes = thrift::encode(&schema, &value).expect("the heartbeat encodes");
    let note = "128-block heartbeat";
    m.time("wire.proto_encode_ns", 1e9, note, || {
        black_box(proto::encode(&schema, &value).expect("encodes"));
    });
    m.time("wire.proto_decode_ns", 1e9, note, || {
        black_box(proto::decode(&schema, "Heartbeat", &proto_bytes).expect("decodes"));
    });
    m.time("wire.thrift_encode_ns", 1e9, note, || {
        black_box(thrift::encode(&schema, &value).expect("encodes"));
    });
    m.time("wire.thrift_decode_ns", 1e9, note, || {
        black_box(thrift::decode(&schema, "Heartbeat", &thrift_bytes).expect("decodes"));
    });
    m.time(
        "wire.frame_roundtrip_ns",
        1e9,
        "Frame encode+decode around the 128-block heartbeat, payload clone included",
        || {
            let frame = Frame::new(12, "heartbeat", proto_bytes.clone());
            black_box(Frame::decode(&frame.encode()).expect("decodes"));
        },
    );
}

fn static_layers(m: &mut Micro<'_>) {
    let inputs = Inputs::build(Kind::StaticCheck, 1, Scale::Smoke);
    let Body::Static { corpora, java, .. } = &inputs.body else {
        unreachable!("static_check is not a campaign");
    };
    for (name, syntax) in [
        ("idl.parse_proto_mb_s", SyntaxKind::Proto2),
        ("idl.parse_thrift_mb_s", SyntaxKind::Thrift),
    ] {
        let sources: Vec<&String> = corpora
            .iter()
            .filter(|c| c.syntax == syntax)
            .flat_map(|c| &c.versions[0].files)
            .map(|(_, source)| source)
            .collect();
        let bytes: usize = sources.iter().map(|s| s.len()).sum();
        let note = format!(
            "{} files of the Table-6 corpora's oldest versions",
            sources.len()
        );
        m.rate(name, bytes as f64 / 1e6, &note, || {
            for source in &sources {
                black_box(match syntax {
                    SyntaxKind::Proto2 => dup_idl::parse_proto(source),
                    SyntaxKind::Thrift => dup_idl::parse_thrift(source),
                })
                .expect("generated corpora parse");
            }
        });
    }
    let file = dup_checker::parse_version(corpora[0].syntax, &corpora[0].versions[0])
        .expect("generated corpora parse");
    let note = format!(
        "lower the {} messages of {}'s oldest version to a wire schema",
        file.messages.len(),
        corpora[0].system
    );
    m.time("idl.lower_us", 1e6, &note, || {
        black_box(dup_idl::lower(&file).expect("lowers"));
    });
    let sources: Vec<&String> = java
        .iter()
        .flat_map(|(_, old, _)| old)
        .map(|(_, source)| source)
        .collect();
    let bytes: usize = sources.iter().map(|s| s.len()).sum();
    m.rate(
        "srcmodel.parse_java_mb_s",
        bytes as f64 / 1e6,
        &format!("{} files of the Java enum corpus", sources.len()),
        || {
            for source in &sources {
                black_box(dup_srcmodel::parse_java(source).expect("the bundled corpus parses"));
            }
        },
    );

    let parsed: Vec<_> = corpora
        .iter()
        .map(|c| {
            let parse = |v| dup_checker::parse_version(c.syntax, v).expect("parses");
            (parse(&c.versions[0]), parse(&c.versions[1]))
        })
        .collect();
    let mut findings = 0usize;
    m.time(
        "dupchecker.compare_us_per_pair",
        1e6 / parsed.len() as f64,
        "compare_files over the seven parsed Table-6 corpora",
        || {
            findings = parsed
                .iter()
                .map(|(old, new)| dup_checker::compare_files(old, new).len())
                .sum();
        },
    );
    let mut enum_findings = 0usize;
    m.time(
        "dupchecker.enum_check_us_per_pair",
        1e6 / java.len() as f64,
        "check_sources (parse + check) over the Java enum corpus",
        || {
            enum_findings = java
                .iter()
                .map(|(_, old, new)| dup_checker::check_sources(old, new).expect("parses").len())
                .sum();
        },
    );
    m.rows.layer1(
        "dupchecker.findings",
        (findings + enum_findings) as f64,
        "700 errors + 178 warnings + 2 bugs + 6 vulnerabilities",
    );
}
