//! # dup-tester — DUPTester, the upgrade testing framework (paper §6.1)
//!
//! DUPTester systematically tests a [`dup_core::SystemUnderTest`] across:
//!
//! - **version pairs**: consecutive releases, optionally distance-2 pairs
//!   (Finding 9 — this covers ~90% of studied failures with O(N) pairs);
//! - **scenarios** ([`Scenario`]): the paper's full-stop, rolling, and
//!   new-node-join, plus extended rollout-plan scenarios — rollback after a
//!   partial upgrade, multi-hop version paths, canary-gated fleets, and
//!   rolling upgrades under membership churn — each compiled to an explicit,
//!   validated [`RolloutPlan`] the harness interprets step by step;
//! - **workloads** ([`WorkloadSpec`]): the system's stress operations,
//!   unit tests *translated* into client commands ([`translate`], §6.1.3),
//!   unit tests executed in place whose persistent state the upgraded
//!   cluster must boot from (§6.1.2), and seeded open-loop arrival plans
//!   ([`WorkloadPlan`]) that drive millions of logical clients as pure
//!   arithmetic event streams over a Zipfian key-popularity model;
//! - **fault intensities** ([`FaultIntensity`]): deterministic injected
//!   chaos — message drops/duplicates/delays/reorders, partition windows,
//!   crash-then-restart — derived per case by [`fault_plan_for`], with the
//!   oracle distinguishing injected chaos from genuine upgrade failures;
//! - **durability modes** ([`Durability`]): whether host storage is
//!   write-through (strict), buffered until an explicit flush, or buffered
//!   with torn-tail crashes — with state-triggered crash points that kill
//!   nodes mid-upgrade or between a write and its flush.
//!
//! The failure oracle ([`evaluate`]) keys on crashes, fatal/error logs, failed or
//! unanswered client operations, and message storms — the observable
//! symptoms Finding 3 says cover 70% of real upgrade failures.
//!
//! [`Campaign`] sweeps everything — in parallel across a worker pool, yet
//! with a report byte-identical to a sequential run — and produces a
//! deduplicated, Table-5-style [`CampaignReport`] with per-case
//! [`CampaignMetrics`]; [`catalog`] holds the ground-truth seeded-bug list
//! so recall can be measured. The executor is self-protecting: a panicking
//! case is contained by `catch_unwind` and a runaway case is cut off by an
//! event-budget watchdog, each isolated into its own [`FailureReport`]
//! while the remaining cases complete.
//!
//! ```no_run
//! use dup_tester::{Campaign, Scenario};
//! let report = Campaign::builder(&dup_kvstore::KvStoreSystem)
//!     .seeds([1, 2, 3])
//!     .scenarios(Scenario::paper())
//!     .threads(4)
//!     .run();
//! print!("{}", report.render_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod catalog;
mod client;
mod faults;
mod harness;
mod oracle;
mod rollout;
mod scenario;
mod spec;
mod translator;
mod workload;

pub use crate::campaign::search::mutate;
pub use crate::campaign::{
    dedup_key, variant_key, Campaign, CampaignBuilder, CampaignConfig, CampaignMetrics,
    CampaignObserver, CampaignReport, CaseMatrix, CaseSignature, CaseStatus, Corpus, CorpusEntry,
    CoverageMap, Detection, FailureReport, MutationOp, NoopObserver, ProgressObserver,
    ScenarioCounts, SearchConfig, SearchInput, SearchReport, SearchRound, SeedGroup,
    SIGNATURE_BITS,
};
pub use crate::faults::{
    apply_nudge, fault_plan_for, FaultIntensity, PlanNudge, MAX_NUDGE_SHIFT_MS, PLAN_WINDOW_MS,
};
pub use crate::harness::{CaseDigest, CaseOutcome, CaseResult, CaseRunner};
pub use crate::oracle::{evaluate, Observation, OpResult};
pub use crate::rollout::{RolloutPlan, RolloutStep, MAX_PATH_LEN, MAX_SETTLE_SHIFT_MS};
pub use crate::scenario::Scenario;
pub use crate::spec::{CaseSpec, TestCase};
pub use crate::translator::{translate, Translation};
pub use crate::workload::{
    Arrival, Arrivals, OpenLoopSpec, WorkloadPlan, WorkloadSpec, MAX_BURSTS,
};
pub use dup_core::VersionId;
pub use dup_simnet::{CrashPoint, CrashPointKind, Durability, TraceConfig, TraceSlice};
