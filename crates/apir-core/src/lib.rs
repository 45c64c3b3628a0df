//! # apir-core
//!
//! Core abstraction of the APIR framework, a reproduction of
//! *"Aggressive Pipelining of Irregular Applications on Reconfigurable
//! Hardware"* (ISCA 2017).
//!
//! An irregular application is specified as a set of **well-ordered task
//! sets** (derived from `for-all` / `for-each` loop constructs) whose
//! unpredictable dependences are expressed as **rules** in an
//! Event-Condition-Action (ECA) grammar. The specification is lowered to a
//! **Boolean Dataflow Graph** (BDFG) intermediate representation from which
//! hardware pipelines are generated (see the `apir-fabric` and `apir-synth`
//! crates).
//!
//! This crate contains:
//!
//! * [`index`] — well-order index tuples assigned to tasks (Definition 4.3
//!   and Figure 5 of the paper);
//! * [`spec`] — the specification builder: task sets, memory regions, task
//!   bodies as straight-line dataflow programs, and rule declarations;
//! * [`expr`] — the condition-expression language evaluated by rule engines;
//! * [`rule`] — the ECA rule grammar with the mandatory `otherwise` clause;
//! * [`op`] — primitive body operations (ALU, load/store, enqueue, rule
//!   allocation, rendezvous, event emission, extern IP cores);
//! * [`bdfg`] — the Boolean Dataflow Graph IR, lowering, validation and DOT
//!   export;
//! * [`check`] — the static analyzer: liveness, well-formedness, memory
//!   hazard and interface lints with stable `APIRxxx` diagnostic codes;
//! * [`interp`] — the sequential reference interpreter (the golden model:
//!   Definition 4.3's "iteratively apply the minimum active task");
//! * [`mem`] — the region-based memory image shared by every execution
//!   engine;
//! * [`program`] — a compiled specification plus its input (seeded memory
//!   and initial tasks).
//!
//! # Example
//!
//! ```
//! use apir_core::spec::{Spec, TaskSetKind};
//! use apir_core::op::AluOp;
//!
//! // A toy application: tasks carry a number and store its double.
//! let mut spec = Spec::new("double");
//! let out = spec.region("out", 16);
//! let ts = spec.task_set("double", TaskSetKind::ForEach, 1, &["i"]);
//! let mut b = spec.body(ts);
//! let i = b.field(0);
//! let two = b.konst(2);
//! let d = b.alu(AluOp::Mul, i, two);
//! b.store_plain(out, i, d);
//! b.finish();
//! let spec = spec.build().unwrap();
//! assert_eq!(spec.task_sets().len(), 1);
//! ```

pub mod bdfg;
pub mod check;
pub mod expr;
pub mod index;
pub mod interp;
pub mod mem;
pub mod op;
pub mod pretty;
pub mod program;
pub mod rule;
pub mod spec;

pub use check::{Diagnostic, Lint, Report, Severity};
pub use index::IndexTuple;
pub use mem::{MemAccess, MemImage};
pub use program::{ProgramInput, SeededTask};
pub use spec::{RegionId, Spec, TaskSetId, TaskSetKind};

/// Maximum number of data fields a task token may carry.
///
/// Hardware pipelines move tokens of a fixed width; eight 64-bit words is
/// enough for every benchmark in the paper while keeping the simulated
/// datapath narrow.
pub const MAX_FIELDS: usize = 8;

/// Maximum nesting depth of loop constructs (length of an index tuple).
pub const MAX_DEPTH: usize = 4;
