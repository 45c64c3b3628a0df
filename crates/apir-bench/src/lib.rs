//! # apir-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the index):
//!
//! * [`experiments::fig2`] — synthesized-vs-handcrafted schedule diagram
//!   on the toy graph (Figure 2 b);
//! * [`experiments::fig9`] — accelerator speedup over 1-core and
//!   (virtual) 10-core software (Figure 9);
//! * [`experiments::fig10`] — QPI bandwidth sweep: speedup over the 1×
//!   baseline and pipeline utilization (Figure 10);
//! * [`experiments::table1`] — OpenCL-HLS BFS vs SPEC-BFS vs COOR-BFS
//!   (Table 1);
//! * [`experiments::table_resources`] — structure comparison: rule-engine
//!   register share etc. (Section 6.2).
//!
//! The `figures` binary drives them:
//! `cargo run -p apir-bench --release --bin figures -- all`.
//!
//! The simulated counters of the six apps at the `tiny` scale are pinned
//! by `tests/report_golden.rs`; host speed is measured by `hostbench`.

pub mod experiments;
pub mod scale;

pub use scale::Scale;
