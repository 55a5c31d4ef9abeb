//! # ds-upgrade — reproduction of the SOSP 2021 upgrade-failure paper
//!
//! Umbrella crate re-exporting the whole toolchain built for
//! *Understanding and Detecting Software Upgrade Failures in Distributed
//! Systems* (Zhang et al., SOSP 2021):
//!
//! - [`simnet`] — deterministic simulation substrate (the "containers");
//! - [`wire`] — protobuf-like / thrift-like serialization runtime;
//! - [`idl`] — IDL parsers for the schema languages the checker reads;
//! - [`srcmodel`] — Java-subset source model for the enum-ordinal checker;
//! - [`kvstore`], [`dfs`], [`mq`], [`coord`] — four miniature versioned
//!   distributed systems seeded with the studied upgrade bugs;
//! - [`tester`] — DUPTester, the upgrade testing framework (§6.1);
//! - [`checker`] — DUPChecker, the static incompatibility checkers (§6.2);
//! - [`study`] — the 123-failure study dataset and analysis (§2–§5).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![forbid(unsafe_code)]

pub mod prelude {
    //! One-import surface for the common workflow: pick a system, build a
    //! [`Campaign`], run cases, poke the simulator.
    //!
    //! ```no_run
    //! use ds_upgrade::prelude::*;
    //! let report = Campaign::builder(&ds_upgrade::kvstore::KvStoreSystem)
    //!     .seeds([1, 2, 3])
    //!     .run();
    //! print!("{}", report.render_table());
    //! ```

    pub use dup_checker::{
        check_corpus, check_sources, compare_files, generate, table6_specs, Severity,
    };
    pub use dup_core::{ClientOp, NodeSetup, SystemUnderTest, VersionId};
    pub use dup_idl::{parse_proto, parse_thrift};
    pub use dup_simnet::{FaultPlan, Process, Sim, SimDuration};
    pub use dup_study::{
        dataset, render_findings, render_table1, render_table2, render_table3, render_table4,
    };
    pub use dup_tester::{
        fault_plan_for, Campaign, CampaignBuilder, CampaignConfig, CampaignMetrics,
        CampaignObserver, CampaignReport, CaseOutcome, CaseResult, CaseRunner, CaseSignature,
        CaseSpec, CaseStatus, Corpus, CoverageMap, Durability, FailureReport, FaultIntensity,
        MutationOp, NoopObserver, OpenLoopSpec, PlanNudge, ProgressObserver, Scenario,
        SearchConfig, SearchInput, SearchReport, TestCase, TraceConfig, TraceSlice, WorkloadPlan,
        WorkloadSpec,
    };
}

pub use dup_checker as checker;
pub use dup_coord as coord;
pub use dup_core as core;
pub use dup_dfs as dfs;
pub use dup_idl as idl;
pub use dup_kvstore as kvstore;
pub use dup_mq as mq;
pub use dup_simnet as simnet;
pub use dup_srcmodel as srcmodel;
pub use dup_study as study;
pub use dup_tester as tester;
pub use dup_wire as wire;
