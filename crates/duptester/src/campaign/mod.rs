//! Campaigns: systematic sweeps over version pairs × scenarios × workloads,
//! with deduplicated failure reports — the machinery behind Table 5.
//!
//! The engine lives in four layers:
//!
//! - [`matrix`] — describes the sweep as a lazy [`CaseMatrix`] with stable
//!   case indices: cases decode arithmetically from their index, so memory
//!   is O(seed groups) even for million-case sweeps;
//! - [`executor`] — the [`Campaign`] builder/engine: a `std::thread::scope`
//!   worker pool over an atomic work queue of seed groups, snapshot-and-fork
//!   case execution per group, merging per-group failures by index so
//!   parallel runs report byte-identically to sequential ones;
//! - [`observer`] — the [`CampaignObserver`] callbacks plus the bundled
//!   [`ProgressObserver`];
//! - [`report`] — [`CampaignReport`], [`FailureReport`], and the per-run
//!   [`CampaignMetrics`];
//! - [`coverage`] — trace-derived [`CaseSignature`]s and the accumulated
//!   [`CoverageMap`] that turn the causal trace into a novelty signal;
//! - [`search`] — the coverage-guided [`SearchConfig`]/[`SearchReport`]
//!   driver that mutates schedule-affecting inputs instead of sweeping
//!   seeds blindly.

pub mod coverage;
pub mod executor;
pub mod matrix;
pub mod observer;
pub mod report;
pub mod search;

pub use coverage::{CaseSignature, CoverageMap, SIGNATURE_BITS};
pub use executor::{Campaign, CampaignBuilder, CampaignConfig};
pub use matrix::{CaseMatrix, SeedGroup};
pub use observer::{CampaignObserver, NoopObserver, ProgressObserver};
pub use report::{
    dedup_key, variant_key, CampaignMetrics, CampaignReport, CaseStatus, FailureReport,
    ScenarioCounts,
};
pub use search::{
    Corpus, CorpusEntry, Detection, MutationOp, SearchConfig, SearchInput, SearchReport,
    SearchRound,
};
