//! What a hung case holds: no more than it held when its event budget ran
//! out.
//!
//! A case whose simulator spends its event budget is reported as
//! `CaseHung`, whatever else it saw, so the harness stops driving it the
//! moment the budget is spent. Were it to keep going, every arrival an
//! open-loop schedule had left would still be sent into a simulator that no
//! longer runs: each would sit in the harness's in-flight set and in the
//! simulator's queue until the case ended, and the case's peak heap would
//! grow with the request rate rather than with the events it simulated.
//!
//! Measured here with a counting `GlobalAlloc` that tracks live bytes
//! (allocated − freed) and their high-water mark: one rolling kvstore case
//! whose open-loop arrivals outrun the event budget is run at 400 000 and at
//! 1 600 000 requests per second, and the peak of the faster case, over
//! what was live when it started, must stay within a quarter of the slower
//! one's. Both peak at ≈ 173 MiB; a harness that sends the rest of the
//! schedule after the budget is spent peaks at ≈ 194 MiB and ≈ 288 MiB and
//! fails.
//!
//! The crates under test `#![forbid(unsafe_code)]`, so the counting
//! `GlobalAlloc` lives here, as in `result_retention.rs`. This file
//! deliberately contains exactly ONE `#[test]`: the counters are
//! process-global.

use dup_core::SystemUnderTest;
use dup_tester::{
    CaseOutcome, CaseRunner, Durability, FaultIntensity, Observation, OpenLoopSpec, Scenario,
    TestCase, WorkloadSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct PeakLiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: isize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the only additions
// are relaxed counter updates, which neither allocate nor unwind.
unsafe impl GlobalAlloc for PeakLiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakLiveBytes = PeakLiveBytes;

/// Runs one rolling kvstore case at `rate_per_sec` on a fresh runner and
/// returns the peak live bytes it reached over those live when it started.
fn hung_case_peak(rate_per_sec: u32) -> isize {
    let sut = &dup_kvstore::KvStoreSystem;
    let versions = sut.versions();
    let case = TestCase {
        from: versions[versions.len() - 2],
        to: versions[versions.len() - 1],
        scenario: Scenario::Rolling,
        workload: WorkloadSpec::OpenLoop(OpenLoopSpec {
            rate_per_sec,
            ..OpenLoopSpec::small()
        }),
        seed: 1,
        faults: FaultIntensity::Off,
        durability: Durability::Strict,
    };
    let mut runner = CaseRunner::new(sut);
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let result = case.run_in(&mut runner);
    let peak = PEAK.load(Ordering::Relaxed) - start;
    assert!(
        matches!(
            &result.outcome,
            CaseOutcome::Fail(observations)
                if matches!(observations.as_slice(), [Observation::CaseHung { .. }])
        ),
        "{rate_per_sec} req/s: {:?}",
        result.outcome
    );
    peak
}

#[test]
fn a_hung_case_stops_where_its_budget_ran_out() {
    let slow = hung_case_peak(400_000);
    let fast = hung_case_peak(1_600_000);
    println!(
        "peak live bytes of a hung case: {} KiB at 400 000 req/s, {} KiB at 1 600 000",
        slow / 1024,
        fast / 1024
    );
    assert!(
        fast <= slow + slow / 4,
        "a hung case peaks at {fast} B at 1 600 000 req/s but {slow} B at 400 000"
    );
}
