//! A deterministic allocation budget for the codec path.
//!
//! Every simulated message and stored file of the four mini systems passes
//! through the runtime-schema `dup-wire` codec, so heap allocations per
//! simulator event are a direct, noise-free measure of what that path costs:
//! the counts below are exact and repeat from run to run, on any machine.
//! One warm stress full-stop case on the newest release pair is run per
//! system (the `upbench` `<system>.case_us` fixture) and its allocations per
//! event must stay under a ceiling. The handlers' way of reading an optional
//! field that is absent must not allocate at all.
//!
//! The crates under test `#![forbid(unsafe_code)]`, so the counting
//! `GlobalAlloc` lives here, as in `crates/simnet/tests/alloc_free_dispatch.rs`.
//! This file deliberately contains exactly ONE `#[test]`: the counter is
//! process-global, and only the test's own thread is counted.

use dup_core::SystemUnderTest;
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
    // Ceilings: the measured 3.66 / 7.51 / 8.97 / 4.04 + 10 %. With a schema
    // rebuilt per message and a `String` + `Vec` per field of every dynamic
    // value these read 25.4 (kvstore), 43.7 (dfs), 11.9 (mq) and 10.8
    // (coord); with an error built and dropped for each absent optional
    // field a handler reads, 4.00, 7.51, 9.13 and 4.29. What remains is
    // mostly client text commands and log lines, which this budget does not
    // target.
    let budgets: [(&dyn SystemUnderTest, f64); 4] = [
        (&dup_kvstore::KvStoreSystem, 4.02),
        (&dup_dfs::DfsSystem, 8.26),
        (&dup_mq::MqSystem, 9.86),
        (&dup_coord::CoordSystem, 4.44),
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
    absent_optional_reads_allocate_nothing();
}

/// The mini systems read an optional field with `get` and a `match`; the
/// typed getters are for fields whose absence is an error, and build one.
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
