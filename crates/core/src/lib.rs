//! # dup-core — shared vocabulary of the DUP toolchain
//!
//! Types shared by the study (`dup-study`), the tester (`dup-tester`), the
//! checker (`dup-checker`), and the miniature systems:
//!
//! - [`VersionId`] / [`VersionGap`] — release numbering and Table 4 gap
//!   classification, plus [`upgrade_pairs`] implementing Finding 9's
//!   consecutive-pair enumeration;
//! - the study's failure taxonomy ([`RootCause`], [`Symptom`],
//!   [`Priority`], …), which `dup-study` uses to classify every studied
//!   failure;
//! - the [`SystemUnderTest`] trait, DUPTester's view of a target system,
//!   and [`split_words`] / [`format_reply`] for the mini systems' client
//!   commands.
//!
//! # Examples
//!
//! ```
//! use dup_core::{VersionId, VersionGap};
//! let old: VersionId = "2.2.0".parse().unwrap();
//! let new: VersionId = "2.3.3".parse().unwrap();
//! assert_eq!(old.gap_to(&new), VersionGap::Minor(1));
//! assert!(old.is_consecutive_upgrade(&new));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod command;
mod sut;
mod taxonomy;
mod version;

pub use crate::command::{format_reply, split_words};
pub use crate::sut::{
    ClientOp, Config, NodeSetup, SystemUnderTest, TranslationTable, UnitStatement, UnitTest,
    WorkloadPhase,
};
pub use crate::taxonomy::{
    CassandraPriority, DataMedium, IncompatCategory, Priority, RootCause, Symptom, UpgradeKind,
};
pub use crate::version::{upgrade_pairs, VersionGap, VersionId, VersionParseError};
