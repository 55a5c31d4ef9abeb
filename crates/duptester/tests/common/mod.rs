//! The one assertion every campaign and search suite makes of the failures
//! it reports: each `repro:` line parses back and replays.

use dup_core::SystemUnderTest;
use dup_tester::{
    dedup_key, variant_key, CampaignReport, CaseOutcome, CaseRunner, CaseSpec, Observation,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every failure's `repro:` line parses to exactly its `spec`, and that spec
/// run on a fresh runner fails with exactly its signature and one of its
/// variants (a panicking case panics again). Returns how many of the lines
/// carry a nudge.
pub fn assert_failures_replay(sut: &dyn SystemUnderTest, report: &CampaignReport) -> usize {
    for f in &report.failures {
        let line = f.repro();
        let spec: CaseSpec = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(spec, f.spec, "{line}");
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            spec.run_in(&mut CaseRunner::new(sut)).outcome
        }));
        let observations = match replayed {
            Ok(CaseOutcome::Fail(observations)) => observations,
            Ok(other) => panic!("{line} replays as {other:?}"),
            Err(payload) => vec![Observation::HarnessPanic {
                message: (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string()),
            }],
        };
        assert_eq!(dedup_key(&observations), f.signature, "{line}");
        let variant = variant_key(&observations);
        assert!(f.variants.contains_key(&variant), "{line}: {variant}");
    }
    let nudged = report.failures.iter().filter(|f| !f.spec.nudge.is_noop());
    nudged.count()
}
