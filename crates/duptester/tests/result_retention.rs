//! What a campaign keeps per failing case: nothing.
//!
//! Upgrade failures are overwhelmingly deterministic, so a large sweep sees
//! the same failure over and over. The executor folds each failing case into
//! its seed group's failures the moment the case finishes — the first case
//! of a signature is kept, every later one is a count — so the heap a campaign
//! holds must not depend on how many seeds failed. Measured here with a
//! counting `GlobalAlloc` (live bytes = allocated − freed), sampled from
//! observer callbacks: an mq sweep is run at 64 and at 1 024 seeds, and
//!
//! - what is live when the report is made (`on_failure_found`), over what
//!   was live when the first case started, differs by under 4 KiB between
//!   the two sizes (both samples see the same matrix; the worker's runner
//!   is fresh at the first and gone at the second);
//! - inside the largest all-failing seed group, live bytes at the last
//!   failing seed stay within 4 KiB of live bytes at the 32nd.
//!
//! An executor that keeps each failing case's observations until
//! aggregation grows by ≈ 700 B per failing case and fails both.
//!
//! The crates under test `#![forbid(unsafe_code)]`, so the counting
//! `GlobalAlloc` lives here, as in `alloc_budget.rs`. This file
//! deliberately contains exactly ONE `#[test]`: the counter is
//! process-global.

use dup_tester::{Campaign, CampaignObserver, CaseStatus, FailureReport, Scenario, TestCase};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a relaxed counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Live-byte samples taken from inside the campaign. Everything it stores
/// is sized before the run, so sampling allocates nothing.
struct Sampler {
    seeds: usize,
    state: Mutex<Samples>,
}

#[derive(Default)]
struct Samples {
    at_first_start: Option<isize>,
    at_report: Option<isize>,
    /// Live bytes at each failing `on_case_done`, indexed by seed group
    /// (case index / seeds), in seed order.
    failing: Vec<Vec<isize>>,
}

impl Sampler {
    fn new(seeds: usize, groups: usize) -> Arc<Sampler> {
        let failing = (0..groups).map(|_| Vec::with_capacity(seeds)).collect();
        Arc::new(Sampler {
            seeds,
            state: Mutex::new(Samples {
                failing,
                ..Samples::default()
            }),
        })
    }
}

impl CampaignObserver for Sampler {
    fn on_case_start(&self, _: usize, _: &TestCase) {
        let live = LIVE.load(Ordering::Relaxed);
        self.state
            .lock()
            .unwrap()
            .at_first_start
            .get_or_insert(live);
    }

    fn on_case_done(&self, index: usize, _: &TestCase, status: CaseStatus, _: Duration) {
        if status == CaseStatus::Failed {
            let live = LIVE.load(Ordering::Relaxed);
            self.state.lock().unwrap().failing[index / self.seeds].push(live);
        }
    }

    fn on_failure_found(&self, _: usize, _: &TestCase, _: &FailureReport) {
        let live = LIVE.load(Ordering::Relaxed);
        self.state.lock().unwrap().at_report.get_or_insert(live);
    }
}

/// One single-threaded mq full-stop stress sweep at `seeds` seeds per group.
/// Returns (live bytes at report time over live bytes at the first case
/// start, failing cases, the per-group failing samples).
fn sweep(seeds: usize) -> (isize, usize, Vec<Vec<isize>>) {
    let builder = || {
        Campaign::builder(&dup_mq::MqSystem)
            .seeds(1..=seeds as u64)
            .scenarios([Scenario::FullStop])
            .unit_tests(false)
            .threads(1)
    };
    let cases = dup_tester::CaseMatrix::enumerate(&dup_mq::MqSystem, &builder().into_config());
    let sampler = Sampler::new(seeds, cases.groups().len());
    let report = builder().observer(Arc::clone(&sampler)).run();
    let samples = std::mem::take(&mut *sampler.state.lock().unwrap());
    let held = samples.at_report.expect("a failing pair") - samples.at_first_start.unwrap();
    (held, report.metrics.failing_cases, samples.failing)
}

#[test]
fn failing_cases_are_folded_not_kept() {
    // Warm every lazily built schema and thread-local before measuring.
    sweep(2);

    let (held_small, failing_small, _) = sweep(64);
    let (held_large, failing_large, groups) = sweep(1024);
    println!(
        "held at report time: {held_small} B after {failing_small} failing cases, \
         {held_large} B after {failing_large}"
    );
    assert!(
        failing_large >= failing_small + 960,
        "the sweep has an always-failing pair: {failing_small} -> {failing_large}"
    );
    assert!(
        (held_large - held_small).abs() < 4096,
        "{failing_large} failing cases hold {held_large} B at report time, \
         {failing_small} hold {held_small} B"
    );

    let group = groups
        .iter()
        .max_by_key(|g| g.len())
        .expect("the matrix has groups");
    assert_eq!(group.len(), 1024, "every seed of one group fails");
    let growth = group[1023] - group[31];
    println!("live bytes, 32nd to last failing seed of a group: {growth:+} B");
    assert!(
        growth < 4096,
        "live bytes grew by {growth} B over 992 failing seeds of one group"
    );
}
