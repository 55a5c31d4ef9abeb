//! # dup-study — the 123-failure upgrade-failure study (paper §2–§5)
//!
//! A structured dataset of the 123 real-world upgrade failures the paper
//! analyzed across 8 distributed systems, plus analysis code that
//! regenerates every table and finding:
//!
//! - [`dataset`] — the records. Aggregates reproduce the paper exactly;
//!   records the paper names carry real ticket ids, the rest are flagged
//!   `reconstructed` (the paper publishes only aggregate statistics).
//! - [`table1`]–[`table4`] and [`findings`] — Tables 1–4 and Findings 1–13,
//!   with markdown renderers that set the paper's values beside the
//!   measured ones (`examples/paper.rs` writes them into EXPERIMENTS.md).
//! - [`baseline::NON_UPGRADE`] — the published non-upgrade comparison stats.
//!
//! # Examples
//!
//! ```
//! let ds = dup_study::dataset();
//! assert_eq!(ds.len(), 123);
//! let f = dup_study::findings(&ds);
//! assert_eq!(f.max_nodes, 3); // Finding 10
//! assert_eq!(f.caught_after_release, 70); // Finding 4
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod baseline;
mod dataset;
mod types;

pub use crate::analysis::{
    findings, render_findings, render_table1, render_table2, render_table3, render_table4, table1,
    table2, table3, table4, Findings, SymptomRow,
};
pub use crate::dataset::{dataset, TOTAL};
pub use crate::types::{CaughtWhen, GapClass, StudyFailure, StudyPriority, StudySystem, Trigger};
