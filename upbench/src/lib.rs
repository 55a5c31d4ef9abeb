//! # upbench — one command, six workloads, end-to-end and per-layer numbers
//!
//! The product of this repository is *upgrade-failure detections per
//! CPU-second*. `upbench` fixes the workloads, the metrics and the known
//! answers that claim is measured with, so every later performance or
//! simplicity change is judged by the same run. It changes no product code
//! and claims no gain: each layer is measured from outside, by timing calls
//! into its public functions. See `README.md` beside this crate for the
//! metric and workload tables, the interaction map and how to read a trace.
//!
//! ```text
//! cargo run --release --manifest-path upbench/Cargo.toml -- --seed 1
//! cargo run --release --manifest-path upbench/Cargo.toml -- compare a.json b.json
//! cargo run --release --manifest-path upbench/Cargo.toml -- \
//!     --workload sweep_paper --seed 1 --seconds 15 --trace 0     # what the driver runs
//! ```
//!
//! Layout: [`workloads`] defines the six workloads and runs one unit;
//! [`answers`] is the check phase; [`run`] is one workload in one process
//! (end-to-end with tracing off, or per-layer with the span recorder on);
//! [`layers`] holds the layer micro-timings, the simulator and codec ones on
//! the [`fixtures`] the criterion benches use; [`spans`] is the span recorder; [`metrics`] is the table
//! `BENCHMARK.json` is written from; [`compare`] judges two results;
//! [`stats`], [`procstat`] and [`json`] are the small tools under them.

#![forbid(unsafe_code)]

pub mod answers;
pub mod compare;
pub mod fixtures;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod procstat;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Version of the `result.json` layout; `compare` refuses any other.
pub const RESULT_SCHEMA: u32 = 1;
