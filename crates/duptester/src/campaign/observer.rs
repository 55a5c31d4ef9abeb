//! Per-case execution observability: the [`CampaignObserver`] trait plus the
//! bundled [`ProgressObserver`].
//!
//! Observers are shared across executor threads, so every callback takes
//! `&self` and implementations synchronize internally (atomics or a mutex).
//! For every enumerated case the engine calls `on_case_start` then
//! `on_case_done` exactly once — pruned cases included, reported with
//! [`CaseStatus::Pruned`] and zero duration. `on_failure_found` fires once
//! per *distinct* (post-dedup) failure, once every case is done and the
//! report is final, in case index order.

use crate::campaign::report::{CaseStatus, FailureReport};
use crate::campaign::search::SearchRound;
use crate::spec::TestCase;
use dup_simnet::TraceSlice;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Callbacks into a running campaign. All methods default to no-ops, so an
/// observer implements only what it cares about.
pub trait CampaignObserver: Send + Sync {
    /// A case is about to execute (or be pruned). Fires exactly once per
    /// enumerated case, from the worker thread that owns the case's seed
    /// group.
    fn on_case_start(&self, index: usize, case: &TestCase) {
        let _ = (index, case);
    }

    /// A case finished (or was pruned). Fires exactly once per enumerated
    /// case, immediately after the matching `on_case_start`.
    fn on_case_done(&self, index: usize, case: &TestCase, status: CaseStatus, wall: Duration) {
        let _ = (index, case, status, wall);
    }

    /// A distinct failure entered the report. `index` is the first exposing
    /// case and `failure` is final, `variants` included. Fires during
    /// aggregation, in case-index order.
    fn on_failure_found(&self, index: usize, case: &TestCase, failure: &FailureReport) {
        let _ = (index, case, failure);
    }

    /// The causal trace slice of a distinct failure's first exposing case.
    /// Fires immediately after the matching `on_failure_found`, only when the
    /// campaign ran with tracing enabled.
    fn on_trace_slice(&self, index: usize, case: &TestCase, slice: &TraceSlice) {
        let _ = (index, case, slice);
    }

    /// A coverage-guided search round finished in one seed group: round 0 is
    /// the group's bootstrap, later rounds are mutation rounds. Fires only
    /// for campaigns run with a [`SearchConfig`](crate::campaign::SearchConfig),
    /// from the worker thread that owns the group.
    fn on_search_round(&self, round: &SearchRound) {
        let _ = round;
    }
}

impl<T: CampaignObserver + ?Sized> CampaignObserver for Arc<T> {
    fn on_case_start(&self, index: usize, case: &TestCase) {
        (**self).on_case_start(index, case);
    }

    fn on_case_done(&self, index: usize, case: &TestCase, status: CaseStatus, wall: Duration) {
        (**self).on_case_done(index, case, status, wall);
    }

    fn on_failure_found(&self, index: usize, case: &TestCase, failure: &FailureReport) {
        (**self).on_failure_found(index, case, failure);
    }

    fn on_trace_slice(&self, index: usize, case: &TestCase, slice: &TraceSlice) {
        (**self).on_trace_slice(index, case, slice);
    }

    fn on_search_round(&self, round: &SearchRound) {
        (**self).on_search_round(round);
    }
}

/// The default observer: ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl CampaignObserver for NoopObserver {}

/// Prints a progress line to stderr every `every` finished cases (and for
/// every distinct failure found).
#[derive(Debug)]
pub struct ProgressObserver {
    every: usize,
    done: AtomicUsize,
    failures: AtomicUsize,
}

impl ProgressObserver {
    /// Reports every `every` cases; `every` is clamped to at least 1.
    pub fn new(every: usize) -> Self {
        ProgressObserver {
            every: every.max(1),
            done: AtomicUsize::new(0),
            failures: AtomicUsize::new(0),
        }
    }

    /// Cases finished so far.
    pub fn cases_done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }
}

impl Default for ProgressObserver {
    fn default() -> Self {
        ProgressObserver::new(25)
    }
}

impl CampaignObserver for ProgressObserver {
    fn on_case_done(&self, _index: usize, _case: &TestCase, _status: CaseStatus, _wall: Duration) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(self.every) {
            eprintln!(
                "[campaign] {done} cases done, {} distinct failures",
                self.failures.load(Ordering::Relaxed)
            );
        }
    }

    fn on_failure_found(&self, _index: usize, _case: &TestCase, failure: &FailureReport) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        eprintln!("[campaign] failure: {failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::workload::WorkloadSpec;

    fn case() -> TestCase {
        TestCase {
            from: "1.0.0".parse().unwrap(),
            to: "2.0.0".parse().unwrap(),
            scenario: Scenario::Rolling,
            workload: WorkloadSpec::Stress,
            seed: 7,
            faults: Default::default(),
            durability: Default::default(),
        }
    }

    #[test]
    fn progress_observer_counts() {
        let obs = ProgressObserver::new(1000);
        let c = case();
        for i in 0..5 {
            obs.on_case_done(i, &c, CaseStatus::Passed, Duration::ZERO);
        }
        assert_eq!(obs.cases_done(), 5);
    }

    #[test]
    fn arc_observer_delegates() {
        let inner = Arc::new(ProgressObserver::new(1000));
        let as_trait: &dyn CampaignObserver = &inner;
        as_trait.on_case_done(0, &case(), CaseStatus::Passed, Duration::ZERO);
        assert_eq!(inner.cases_done(), 1);
    }

    #[test]
    fn trace_slice_callback_defaults_to_noop() {
        struct CountingObserver(AtomicUsize);
        impl CampaignObserver for CountingObserver {
            fn on_trace_slice(&self, _index: usize, _case: &TestCase, _slice: &TraceSlice) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        // NoopObserver accepts the callback without doing anything.
        NoopObserver.on_trace_slice(0, &case(), &TraceSlice::default());
        // An Arc-wrapped observer delegates it.
        let counting = Arc::new(CountingObserver(AtomicUsize::new(0)));
        let as_trait: &dyn CampaignObserver = &counting;
        as_trait.on_trace_slice(0, &case(), &TraceSlice::default());
        assert_eq!(counting.0.load(Ordering::Relaxed), 1);
    }
}
