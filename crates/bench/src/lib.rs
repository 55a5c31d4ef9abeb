//! # dup-bench — reproduction harnesses
//!
//! - `repro_tables` — regenerates Tables 1–4 and Findings 1–13 (study).
//! - `repro_duptester` — runs the full DUPTester campaign over the four
//!   mini systems and prints the Table-5 analog plus seeded-bug recall.
//! - `repro_dupchecker` — regenerates Table 6 (700 errors + 178 warnings
//!   over 7 systems) and the enum-checker yield (2 bugs + 6 vulns).
//! - `repro_figures` — replays Figure 1 (HDFS-11856 timeline) and Figure 2
//!   (the ReplicationLoadSink diff).
//!
//! Run them all with `cargo bench`. Performance is measured by the
//! `upbench` package (`BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
