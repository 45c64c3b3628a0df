//! Specification builder: task sets, regions, bodies, rules, externs.
//!
//! A [`Spec`] is the *what-to-do* description of an irregular application
//! (the paper's MoC): a collection of well-ordered task sets whose bodies
//! are straight-line dataflow programs, plus ECA rules describing the
//! conditions under which tasks may execute concurrently.

use crate::check::Diagnostic;
use crate::index::IndexTuple;
use crate::mem::MemAccess;
use crate::op::{AluOp, BodyOp, StoreKind, ValRef};
use crate::rule::RuleDecl;
use apir_util::snap_fields;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a memory region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub struct RegionId(pub usize);

/// Identifier of a task set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub struct TaskSetId(pub usize);

/// Identifier of a rule declaration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RuleId(pub usize);

/// Identifier of an event label.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub struct LabelId(pub usize);

// Ids snapshot as their number; range checks need the spec, so the
// fabric makes them.
snap_fields!(RegionId(0));
snap_fields!(TaskSetId(0));
snap_fields!(LabelId(0));

/// Identifier of an extern IP core.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ExternId(pub usize);

/// Loop construct a task set is iterated by (Section 4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TaskSetKind {
    /// All iterations may run in parallel; tasks share order `0` at their
    /// level of the index tuple.
    ForAll,
    /// Later iterations may depend on earlier ones; each activation draws a
    /// fresh counter value at its level.
    ForEach,
}

/// A declared task set: loop kind, nesting level, token fields, and body.
#[derive(Clone, Debug)]
pub struct TaskSetDecl {
    /// Name for diagnostics and DOT output.
    pub name: String,
    /// Loop construct.
    pub kind: TaskSetKind,
    /// 1-based nesting level (position in the index tuple).
    pub level: usize,
    /// Names of the data fields a token of this set carries.
    pub field_names: Vec<String>,
    /// The body program (filled by [`BodyBuilder::finish`]).
    pub body: Vec<BodyOp>,
}

impl TaskSetDecl {
    /// Number of data fields a token carries.
    pub fn arity(&self) -> usize {
        self.field_names.len()
    }
}

/// Inputs handed to an extern IP core invocation.
#[derive(Debug)]
pub struct ExternIn<'a> {
    /// Argument words from the pipeline.
    pub args: &'a [u64],
    /// Well-order index of the invoking task.
    pub index: IndexTuple,
}

/// Cost accounting reported by an extern core, charged to the simulated
/// memory system / pipeline by the fabric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExternCost {
    /// Bytes the core read from shared memory (burst loads).
    pub bytes_read: u64,
    /// Bytes the core wrote to shared memory (burst stores).
    pub bytes_written: u64,
    /// Pure compute cycles of the core.
    pub compute_cycles: u64,
}

/// Results of an extern IP core invocation.
#[derive(Clone, Debug, Default)]
pub struct ExternOut {
    /// The word returned into the pipeline.
    pub out: u64,
    /// Tasks to activate (pushed through the same queue ports as
    /// [`BodyOp::Enqueue`]).
    pub new_tasks: Vec<(TaskSetId, Vec<u64>)>,
    /// Events to broadcast (label, payload), one bus beat each.
    pub events: Vec<(LabelId, Vec<u64>)>,
    /// Timing charge.
    pub cost: ExternCost,
}

/// The function type of an extern IP core. The closure must be
/// deterministic and must touch application state only through the
/// [`MemAccess`] regions so every engine computes identical results.
pub type ExternFn = Arc<dyn Fn(&mut dyn MemAccess, &ExternIn<'_>) -> ExternOut + Send + Sync>;

/// A declared extern core.
#[derive(Clone)]
pub struct ExternDecl {
    /// Name for diagnostics.
    pub name: String,
    /// The functional model.
    pub f: ExternFn,
}

impl fmt::Debug for ExternDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExternDecl({})", self.name)
    }
}

/// A complete application specification.
///
/// Build one with the fluent API, then call [`Spec::build`] to validate:
/// see the crate-level example.
#[derive(Clone, Debug, Default)]
pub struct Spec {
    name: String,
    regions: Vec<(String, usize)>,
    task_sets: Vec<TaskSetDecl>,
    rules: Vec<RuleDecl>,
    labels: Vec<String>,
    label_by_name: HashMap<String, LabelId>,
    externs: Vec<ExternDecl>,
    validated: bool,
}

impl Spec {
    /// Creates an empty specification.
    pub fn new(name: impl Into<String>) -> Self {
        Spec {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Name of the application.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a memory region of `capacity` 64-bit words.
    pub fn region(&mut self, name: impl Into<String>, capacity: usize) -> RegionId {
        self.regions.push((name.into(), capacity));
        RegionId(self.regions.len() - 1)
    }

    /// Declares a task set at nesting `level` with the given data fields.
    pub fn task_set(
        &mut self,
        name: impl Into<String>,
        kind: TaskSetKind,
        level: usize,
        fields: &[&str],
    ) -> TaskSetId {
        self.task_sets.push(TaskSetDecl {
            name: name.into(),
            kind,
            level,
            field_names: fields.iter().map(|s| s.to_string()).collect(),
            body: Vec::new(),
        });
        TaskSetId(self.task_sets.len() - 1)
    }

    /// Interns an event label (idempotent by name).
    pub fn label(&mut self, name: impl Into<String>) -> LabelId {
        let name = name.into();
        if let Some(id) = self.label_by_name.get(&name) {
            return *id;
        }
        let id = LabelId(self.labels.len());
        self.labels.push(name.clone());
        self.label_by_name.insert(name, id);
        id
    }

    /// Registers a rule declaration.
    pub fn rule(&mut self, decl: RuleDecl) -> RuleId {
        self.rules.push(decl);
        RuleId(self.rules.len() - 1)
    }

    /// Registers an extern IP core.
    pub fn extern_core(&mut self, name: impl Into<String>, f: ExternFn) -> ExternId {
        self.externs.push(ExternDecl {
            name: name.into(),
            f,
        });
        ExternId(self.externs.len() - 1)
    }

    /// Opens a body builder for `task_set`. Call [`BodyBuilder::finish`]
    /// to commit the body.
    pub fn body(&mut self, task_set: TaskSetId) -> BodyBuilder<'_> {
        BodyBuilder {
            spec: self,
            task_set,
            ops: Vec::new(),
        }
    }

    /// Validates the specification by running the static analyzer
    /// ([`crate::check::check_spec`]) and failing on the first error-level
    /// diagnostic.
    ///
    /// # Errors
    ///
    /// Returns the first error-level [`Diagnostic`] found: a forward
    /// reference, an arity mismatch, a rendezvous without a rule, a width
    /// violation, a dead waiting rule, an unguarded store/store race, etc.
    pub fn build(mut self) -> Result<Spec, Diagnostic> {
        let report = crate::check::check_spec(&self);
        if let Some(d) = report.first_error() {
            return Err(d.clone());
        }
        self.validated = true;
        Ok(self)
    }

    /// Runs the full static-analysis pass (spec lints plus BDFG lints over
    /// the lowered graph) without consuming the spec. Works on both built
    /// and not-yet-built specs.
    pub fn check(&self) -> crate::check::Report {
        crate::check::check_all(self)
    }

    /// Was [`Spec::build`] run successfully?
    pub fn is_validated(&self) -> bool {
        self.validated
    }

    /// Declared task sets.
    pub fn task_sets(&self) -> &[TaskSetDecl] {
        &self.task_sets
    }

    /// Declared rules.
    pub fn rules(&self) -> &[RuleDecl] {
        &self.rules
    }

    /// Declared regions as `(name, capacity)`.
    pub fn regions(&self) -> &[(String, usize)] {
        &self.regions
    }

    /// Declared extern cores.
    pub fn externs(&self) -> &[ExternDecl] {
        &self.externs
    }

    /// Event label names.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Looks up a task set by name.
    pub fn task_set_by_name(&self, name: &str) -> Option<TaskSetId> {
        self.task_sets
            .iter()
            .position(|t| t.name == name)
            .map(TaskSetId)
    }
}

/// Fluent builder for one task body (SSA op list).
///
/// Obtained from [`Spec::body`]; every method appends an op and returns the
/// [`ValRef`] of its result.
pub struct BodyBuilder<'a> {
    spec: &'a mut Spec,
    task_set: TaskSetId,
    ops: Vec<BodyOp>,
}

impl<'a> BodyBuilder<'a> {
    fn push(&mut self, op: BodyOp) -> ValRef {
        self.ops.push(op);
        ValRef((self.ops.len() - 1) as u32)
    }

    /// Reads incoming token field `n`.
    pub fn field(&mut self, n: u8) -> ValRef {
        self.push(BodyOp::Field(n))
    }

    /// Reads well-order index component at 1-based `level`.
    pub fn index_comp(&mut self, level: u8) -> ValRef {
        self.push(BodyOp::IndexComp(level))
    }

    /// A constant word.
    pub fn konst(&mut self, v: u64) -> ValRef {
        self.push(BodyOp::Const(v))
    }

    /// Two-operand ALU op.
    pub fn alu(&mut self, op: AluOp, a: ValRef, b: ValRef) -> ValRef {
        self.push(BodyOp::Alu(op, a, b))
    }

    /// `cond != 0 ? t : e`.
    pub fn select(&mut self, cond: ValRef, t: ValRef, e: ValRef) -> ValRef {
        self.push(BodyOp::Select {
            cond,
            if_true: t,
            if_false: e,
        })
    }

    /// Loads `region[addr]`.
    pub fn load(&mut self, region: RegionId, addr: ValRef) -> ValRef {
        self.push(BodyOp::Load { region, addr })
    }

    /// Unconditional store.
    pub fn store_plain(&mut self, region: RegionId, addr: ValRef, value: ValRef) -> ValRef {
        self.push(BodyOp::Store {
            region,
            addr,
            value,
            kind: StoreKind::Plain,
            guard: None,
        })
    }

    /// Guarded store with explicit [`StoreKind`]; returns the "won" flag.
    pub fn store(
        &mut self,
        region: RegionId,
        addr: ValRef,
        value: ValRef,
        kind: StoreKind,
        guard: Option<ValRef>,
    ) -> ValRef {
        self.push(BodyOp::Store {
            region,
            addr,
            value,
            kind,
            guard,
        })
    }

    /// `mem = min(mem, value)` under `guard`; returns the "won" flag.
    pub fn store_min(
        &mut self,
        region: RegionId,
        addr: ValRef,
        value: ValRef,
        guard: Option<ValRef>,
    ) -> ValRef {
        self.push(BodyOp::Store {
            region,
            addr,
            value,
            kind: StoreKind::Min,
            guard,
        })
    }

    /// Activates one task of `task_set` (guarded); returns `1` if pushed.
    pub fn enqueue(
        &mut self,
        task_set: TaskSetId,
        fields: &[ValRef],
        guard: Option<ValRef>,
    ) -> ValRef {
        self.push(BodyOp::Enqueue {
            task_set,
            fields: fields.to_vec(),
            guard,
        })
    }

    /// Activates `hi - lo` tasks; child fields are `[lo + k, extra...]`.
    pub fn enqueue_range(
        &mut self,
        task_set: TaskSetId,
        lo: ValRef,
        hi: ValRef,
        extra: &[ValRef],
        guard: Option<ValRef>,
    ) -> ValRef {
        self.push(BodyOp::EnqueueRange {
            task_set,
            lo,
            hi,
            extra: extra.to_vec(),
            guard,
        })
    }

    /// Recirculates the current task through its own queue with new data
    /// fields, preserving its well-order index (retry / pointer-chase
    /// loops).
    pub fn requeue(&mut self, fields: &[ValRef], guard: Option<ValRef>) -> ValRef {
        self.push(BodyOp::Requeue {
            fields: fields.to_vec(),
            guard,
        })
    }

    /// Constructs a rule instance with parameters.
    pub fn alloc_rule(&mut self, rule: RuleId, params: &[ValRef]) -> ValRef {
        self.push(BodyOp::AllocRule {
            rule,
            params: params.to_vec(),
            guard: None,
        })
    }

    /// Guarded rule construction: skipped (no lane) when `guard` is zero.
    pub fn alloc_rule_if(&mut self, rule: RuleId, params: &[ValRef], guard: ValRef) -> ValRef {
        self.push(BodyOp::AllocRule {
            rule,
            params: params.to_vec(),
            guard: Some(guard),
        })
    }

    /// Plans the rendezvous for a rule instance; returns the rule's value.
    pub fn rendezvous(&mut self, rule_instance: ValRef) -> ValRef {
        self.push(BodyOp::Rendezvous {
            rule_instance,
            guard: None,
        })
    }

    /// Guarded rendezvous: when `guard` is zero the token steers past the
    /// wait and the result is `0`. Use the same guard as the matching
    /// [`BodyBuilder::alloc_rule_if`] so every allocated lane is claimed.
    pub fn rendezvous_if(&mut self, rule_instance: ValRef, guard: ValRef) -> ValRef {
        self.push(BodyOp::Rendezvous {
            rule_instance,
            guard: Some(guard),
        })
    }

    /// Broadcasts an event (guarded).
    pub fn emit(&mut self, label: LabelId, payload: &[ValRef], guard: Option<ValRef>) -> ValRef {
        self.push(BodyOp::Emit {
            label,
            payload: payload.to_vec(),
            guard,
        })
    }

    /// Invokes an extern IP core (guarded); returns its output word.
    pub fn call_extern(&mut self, ext: ExternId, args: &[ValRef], guard: Option<ValRef>) -> ValRef {
        self.push(BodyOp::Extern {
            ext,
            args: args.to_vec(),
            guard,
        })
    }

    /// Commits the body into the spec.
    pub fn finish(self) {
        self.spec.task_sets[self.task_set.0].body = self.ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Lint;
    use crate::rule::RuleAction;

    fn toy() -> Spec {
        let mut s = Spec::new("toy");
        let r = s.region("data", 64);
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
        let mut b = s.body(ts);
        let x = b.field(0);
        let one = b.konst(1);
        let y = b.alu(AluOp::Add, x, one);
        b.store_plain(r, x, y);
        b.finish();
        s
    }

    #[test]
    fn valid_spec_builds() {
        let s = toy().build().unwrap();
        assert!(s.is_validated());
        assert_eq!(s.regions().len(), 1);
        assert_eq!(s.task_sets()[0].body.len(), 4);
    }

    #[test]
    fn labels_are_interned() {
        let mut s = Spec::new("l");
        let a = s.label("commit");
        let b = s.label("commit");
        let c = s.label("other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(s.labels().len(), 2);
    }

    #[test]
    fn enqueue_arity_checked() {
        let mut s = Spec::new("bad");
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["a", "b"]);
        let mut b = s.body(ts);
        let x = b.field(0);
        b.enqueue(ts, &[x], None); // needs 2 fields
        b.finish();
        let err = s.build().unwrap_err();
        assert_eq!(err.lint, Lint::EnqueueArityMismatch);
    }

    #[test]
    fn rendezvous_must_consume_alloc() {
        let mut s = Spec::new("bad");
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["a"]);
        let mut b = s.body(ts);
        let x = b.field(0);
        b.rendezvous(x);
        b.finish();
        let err = s.build().unwrap_err();
        assert_eq!(err.lint, Lint::RendezvousWithoutAlloc);
    }

    #[test]
    fn rule_arity_checked() {
        let mut s = Spec::new("bad");
        let rule = s.rule(RuleDecl::new("r", 2, true));
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["a"]);
        let mut b = s.body(ts);
        let x = b.field(0);
        let h = b.alloc_rule(rule, &[x]); // needs 2 params
        b.rendezvous(h);
        b.finish();
        let err = s.build().unwrap_err();
        assert_eq!(err.lint, Lint::RuleParamArityMismatch);
    }

    #[test]
    fn unused_label_flagged() {
        let mut s = Spec::new("bad");
        let l = s.label("ghost");
        let rule = s.rule(RuleDecl::new("r", 0, true).on_label(
            l,
            crate::expr::Expr::Const(1),
            RuleAction::Return(false),
        ));
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["a"]);
        let mut b = s.body(ts);
        let x = b.field(0);
        let h = b.alloc_rule(rule, &[]);
        b.rendezvous(h);
        let _ = x;
        b.finish();
        let err = s.build().unwrap_err();
        assert_eq!(err.lint, Lint::UnemittedLabel);
    }

    #[test]
    fn empty_body_rejected() {
        let mut s = Spec::new("bad");
        s.task_set("t", TaskSetKind::ForEach, 1, &["a"]);
        assert_eq!(s.build().unwrap_err().lint, Lint::EmptyBody);
    }

    #[test]
    fn level_bounds_checked() {
        let mut s = Spec::new("bad");
        let ts = s.task_set("t", TaskSetKind::ForEach, 9, &["a"]);
        let mut b = s.body(ts);
        b.konst(0);
        b.finish();
        assert_eq!(s.build().unwrap_err().lint, Lint::BadLevel);
    }

    #[test]
    fn task_set_lookup_by_name() {
        let s = toy().build().unwrap();
        assert_eq!(s.task_set_by_name("t"), Some(TaskSetId(0)));
        assert_eq!(s.task_set_by_name("missing"), None);
    }
}
