//! A deterministic allocation budget for the codec and client request paths.
//!
//! Every simulated message and stored file of the four mini systems passes
//! through the runtime-schema `dup-wire` codec, and every case drives them
//! with client commands, so heap allocations per simulator event are a
//! direct, noise-free measure of what those paths cost: the counts below are
//! exact and repeat from run to run, on any machine. One warm stress
//! full-stop case on the newest release pair is run per system (the
//! `upbench` `<system>.case_us` fixture) and its allocations per event must
//! stay under a ceiling. Reading a received message — the handlers read
//! field by field off the payload, with `proto::Reader` — must not allocate
//! at all, nor must a value tree's reader taking an optional field that is
//! absent, nor a warm `HEALTH` round trip.
//!
//! The crates under test `#![forbid(unsafe_code)]`, so the counting
//! `GlobalAlloc` lives here, as in `crates/simnet/tests/alloc_free_dispatch.rs`.
//! This file deliberately contains exactly ONE `#[test]`: the counter is
//! process-global, and only the test's own thread is counted.

use bytes::Bytes;
use dup_core::{NodeSetup, SystemUnderTest};
use dup_simnet::{Sim, SimDuration};
use dup_tester::{CaseRunner, Durability, FaultIntensity, Scenario, TestCase, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count() {
    if COUNTED_THREAD
        .try_with(std::cell::Cell::get)
        .unwrap_or(false)
    {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a relaxed counter increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per simulator event of one warm stress full-stop case on
/// `sut`'s newest release pair, seed 1, no faults.
fn allocs_per_event(sut: &dyn SystemUnderTest) -> f64 {
    let (from, to) = match sut.versions().as_slice() {
        [.., from, to] => (*from, *to),
        _ => panic!("{} has fewer than two releases", sut.name()),
    };
    let case = TestCase {
        from,
        to,
        scenario: Scenario::FullStop,
        workload: WorkloadSpec::Stress,
        seed: 1,
        faults: FaultIntensity::Off,
        durability: Durability::Strict,
    };
    let mut runner = CaseRunner::new(sut);
    // Warm the runner's pooled simulator and every lazily built schema.
    let events = case.run_in(&mut runner).digest.events_processed;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let again = case.run_in(&mut runner).digest.events_processed;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(events, again, "a warm rerun replays the same events");
    allocations as f64 / events.max(1) as f64
}

#[test]
fn codec_path_stays_within_its_allocation_budget() {
    COUNTED_THREAD.with(|c| c.set(true));
    // Ceilings: the measured 0.87 / 2.88 / 3.94 / 2.64 + 10 %. With each
    // command collected into a `Vec`, each reply a `String` copied into its
    // bytes, mq's record paths formatted twice with zero padding and every
    // op's result kept for the oracle, these read 1.05 (kvstore), 3.17
    // (dfs), 8.76 (mq) and 3.42 (coord); with a `MessageValue` tree built
    // for every message sent and received, 3.66, 7.51, 8.97 and 4.04; with
    // a schema rebuilt per message and a `String` + `Vec` per field of every
    // value, 25.4, 43.7, 11.9 and 10.8. What remains is two allocations per
    // message sent (its buffer and the shared handle the simulator
    // delivers), the storage paths and images a command writes, one per
    // formatted reply, the harness's copy of each request, and log lines.
    let budgets: [(&dyn SystemUnderTest, f64); 4] = [
        (&dup_kvstore::KvStoreSystem, 0.96),
        (&dup_dfs::DfsSystem, 3.17),
        (&dup_mq::MqSystem, 4.34),
        (&dup_coord::CoordSystem, 2.91),
    ];
    for (sut, ceiling) in budgets {
        let measured = allocs_per_event(sut);
        println!("{}: {measured:.2} allocations/event", sut.name());
        assert!(
            measured <= ceiling,
            "{}: {measured:.2} allocations per event exceeds the budget of {ceiling}",
            sut.name()
        );
    }
    received_messages_are_read_without_allocating();
    absent_optional_reads_allocate_nothing();
    health_round_trips_allocate_nothing(&budgets.map(|(sut, _)| sut));
}

/// On a warm simulator — reset, so the client slot a request takes is a
/// warm spare — a `HEALTH` round trip with a prebuilt request allocates
/// nothing on any of the four systems: the command is split in place and
/// the reply is static bytes.
fn health_round_trips_allocate_nothing(suts: &[&dyn SystemUnderTest]) {
    let counts = suts.iter().map(|sut| {
        let version = *sut.versions().last().expect("has releases");
        let n = sut.cluster_size();
        let mut sim = Sim::new(1);
        let mut allocations = 0;
        for _warm_then_counted in 0..2 {
            sim.reset(1);
            for i in 0..n {
                let process = sut.spawn(version, &NodeSetup::new(i, n));
                let id = sim.add_node(&format!("host-{i}"), &version.to_string(), process);
                sim.start_node(id).expect("starts");
            }
            sim.run_for(SimDuration::from_secs(2));
            // Whatever else falls due within a round trip (1–5 ms each way)
            // happens first, so only the HEALTH path is counted.
            let round_trip = SimDuration::from_millis(10);
            while sim.peek_time().is_some_and(|t| t <= sim.now() + round_trip) {
                sim.step();
            }
            let health = Bytes::from_static(b"HEALTH");
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let reply = sim.rpc(0, health, SimDuration::from_secs(3));
            allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(reply.as_deref(), Some(&b"OK healthy"[..]), "{}", sut.name());
        }
        allocations
    });
    let counts: Vec<u64> = counts.collect();
    println!("HEALTH round trip allocations: {counts:?}");
    assert_eq!(counts, [0; 4], "a warm HEALTH round trip allocated");
}

/// The decode side of handling one received gossip digest and one received
/// heartbeat — the calls `KvNode::handle_gossip` and
/// `NameNode::handle_heartbeat` make — allocates nothing.
fn received_messages_are_read_without_allocating() {
    use dup_dfs::codec::{decode_heartbeat, write_heartbeat, Reported};
    use dup_kvstore::codec::{decode_gossip, write_gossip};
    let newest = |sut: &dyn SystemUnderTest| *sut.versions().last().expect("has releases");
    let (kv, dfs) = (
        newest(&dup_kvstore::KvStoreSystem),
        newest(&dup_dfs::DfsSystem),
    );
    let (mut digest, mut heartbeat) = (Vec::new(), Vec::new());
    write_gossip(kv, 3, 41, &mut digest).expect("encodes");
    write_heartbeat(dfs, 2, 100..140, 9, &mut heartbeat).expect("encodes");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let read = decode_gossip(kv, &digest).expect("decodes");
    let hb = decode_heartbeat(dfs, &heartbeat).expect("decodes");
    let (mut blocks, mut storages) = (0, 0);
    hb.for_each(|reported| match reported {
        Reported::Block(block) => blocks += block,
        Reported::Storage(_) => storages += 1,
    });
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        (read.schema_ts, blocks, storages),
        (41, (100..140).sum(), 2)
    );
    assert_eq!(allocations, 0, "reading a received message allocated");
}

/// A value tree's reader takes an optional field with `get` and a `match`;
/// the typed getters are for fields whose absence is an error, and build one.
fn absent_optional_reads_allocate_nothing() {
    use dup_wire::{proto, FieldDescriptor, FieldType, MessageDescriptor, Schema, Value};
    let schema = Schema::new().with_message(
        MessageDescriptor::new("Offset")
            .with(FieldDescriptor::required(1, "offset", FieldType::Uint64))
            .with(FieldDescriptor::optional(2, "expire_ts", FieldType::Uint64)),
    );
    let written = dup_wire::MessageValue::new("Offset").set("offset", Value::U64(7));
    let bytes = proto::encode(&schema, &written).expect("encodes");
    let decoded = proto::decode(&schema, "Offset", &bytes).expect("decodes");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let expire = match decoded.get("expire_ts") {
        Some(Value::U64(expire)) => Some(*expire),
        _ => None,
    };
    let offset = decoded.get_u64("offset");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!((offset, expire), (Ok(7), None));
    assert_eq!(allocations, 0, "reading an absent optional field allocated");
}
