//! Primitive operations of task bodies.
//!
//! A task body is a straight-line dataflow program in SSA form: a list of
//! [`BodyOp`]s, each producing one 64-bit value referenced by later ops via
//! [`ValRef`]. Control flow is expressed with *guards* (the BDFG switch
//! actor): a guarded side effect is dropped when its guard value is zero,
//! which is how squashing is realized in the datapath.
//!
//! Loops that a sequential program would write as `while`-loops (e.g. the
//! `find` loop of a union-find) are expressed by *task recirculation*: the
//! body enqueues a task of its own set, exactly as the hardware recirculates
//! tokens through the task queue.

use crate::spec::{ExternId, LabelId, RegionId, RuleId, TaskSetId};

/// Reference to the output value of an earlier op in the same body.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ValRef(pub(crate) u32);

impl ValRef {
    /// Position of the producing op in the body.
    pub fn pos(&self) -> usize {
        self.0 as usize
    }
}

/// Two-operand ALU operations (unsigned 64-bit unless noted).
///
/// Comparison operators yield `1` or `0`. `Div`/`Rem` by zero yield zero
/// (hardware returns an arbitrary bus value; we pick zero for determinism).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Min,
    Max,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Signed less-than (operands reinterpreted as `i64`).
    SLt,
    /// Signed less-or-equal.
    SLe,
}

impl AluOp {
    /// Evaluates the operation on two 64-bit words.
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => a.checked_div(b).unwrap_or(0),
            AluOp::Rem => a.checked_rem(b).unwrap_or(0),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32),
            AluOp::Shr => a.wrapping_shr(b as u32),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
            AluOp::Eq => (a == b) as u64,
            AluOp::Ne => (a != b) as u64,
            AluOp::Lt => (a < b) as u64,
            AluOp::Le => (a <= b) as u64,
            AluOp::Gt => (a > b) as u64,
            AluOp::Ge => (a >= b) as u64,
            AluOp::SLt => ((a as i64) < (b as i64)) as u64,
            AluOp::SLe => ((a as i64) <= (b as i64)) as u64,
        }
    }
}

/// Commit behaviour of a store.
///
/// Handcrafted accelerators for irregular applications place small
/// compare-and-update units at the commit port of on-chip/off-chip memory
/// (e.g. the ready-to-commit address comparison in the hybrid BFS design
/// the paper cites). We model the three shapes the benchmarks need. Every
/// store produces a "won" flag (did memory change?) that downstream ops may
/// use as a guard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StoreKind {
    /// Unconditional store; always "wins".
    Plain,
    /// `mem = min(mem, value)`; wins iff the new value is strictly smaller.
    Min,
    /// Compare-and-swap: store iff current content equals the expected
    /// operand; wins iff the swap happened.
    Cas { expected: ValRef },
    /// Fetch-and-add: `mem += value`; the op's result is the *new* value
    /// (old + value) rather than a won flag.
    Add,
}

/// One primitive operation of a task body.
///
/// Every op produces exactly one 64-bit result (side-effect ops produce
/// their "won"/status flag, pure sources produce the value). Side-effect
/// ops carry an optional `guard`: when the guard evaluates to zero the
/// effect is squashed and the result is zero.
#[derive(Clone, Debug)]
pub enum BodyOp {
    /// Read data field `n` of the incoming task token.
    Field(u8),
    /// Read component `level` (1-based) of the task's well-order index.
    IndexComp(u8),
    /// A constant word.
    Const(u64),
    /// Two-operand ALU operation.
    Alu(AluOp, ValRef, ValRef),
    /// `cond != 0 ? if_true : if_false`.
    Select {
        cond: ValRef,
        if_true: ValRef,
        if_false: ValRef,
    },
    /// Load a word from `region[addr]`.
    Load { region: RegionId, addr: ValRef },
    /// Store `value` to `region[addr]` with commit behaviour `kind`.
    /// Result is the "won" flag.
    Store {
        region: RegionId,
        addr: ValRef,
        value: ValRef,
        kind: StoreKind,
        guard: Option<ValRef>,
    },
    /// Activate one task of `task_set` with the given data fields.
    /// Result is `1` if the push happened (guard passed).
    Enqueue {
        task_set: TaskSetId,
        fields: Vec<ValRef>,
        guard: Option<ValRef>,
    },
    /// Activate `hi - lo` tasks of `task_set`; task `k` receives data
    /// fields `[lo + k, extra...]`. This is the *expand* actor used for
    /// inner `for-all` loops over e.g. adjacency lists.
    EnqueueRange {
        task_set: TaskSetId,
        lo: ValRef,
        hi: ValRef,
        extra: Vec<ValRef>,
        guard: Option<ValRef>,
    },
    /// Recirculate the current task through its own queue with fresh data
    /// fields but the *same* well-order index. This is how hardware
    /// pipelines express retry loops (squashed speculative tasks) and
    /// pointer-chasing loops (e.g. union-find root walks) without losing
    /// the task's position in the well-order. Result is `1` if requeued.
    Requeue {
        fields: Vec<ValRef>,
        guard: Option<ValRef>,
    },
    /// Construct an instance of rule `rule` with the given parameters; the
    /// result is an opaque handle consumed by a later [`BodyOp::Rendezvous`].
    /// A false guard skips the allocation (the token steers around the
    /// rule engine); the matching rendezvous must carry the same guard.
    AllocRule {
        rule: RuleId,
        params: Vec<ValRef>,
        guard: Option<ValRef>,
    },
    /// Planned rendezvous: stall until the rule instance returns a value.
    /// Result is the returned boolean (`1`/`0`); a false guard skips the
    /// wait and yields `0`.
    Rendezvous {
        rule_instance: ValRef,
        guard: Option<ValRef>,
    },
    /// Broadcast an event on the event bus: the label plus a payload of
    /// words, together with the task's index. Result is `1` if emitted.
    Emit {
        label: LabelId,
        payload: Vec<ValRef>,
        guard: Option<ValRef>,
    },
    /// Invoke an extern IP core (problem-specific combinational block).
    /// Result is the first output word of the core.
    Extern {
        ext: ExternId,
        args: Vec<ValRef>,
        guard: Option<ValRef>,
    },
}

impl BodyOp {
    /// Does this op have a side effect on memory, queues, rules or the
    /// event bus?
    pub fn has_effect(&self) -> bool {
        matches!(
            self,
            BodyOp::Store { .. }
                | BodyOp::Enqueue { .. }
                | BodyOp::EnqueueRange { .. }
                | BodyOp::Requeue { .. }
                | BodyOp::AllocRule { .. }
                | BodyOp::Rendezvous { .. }
                | BodyOp::Emit { .. }
                | BodyOp::Extern { .. }
        )
    }

    /// All value operands referenced by this op (for validation).
    pub fn operands(&self) -> Vec<ValRef> {
        let mut v = Vec::new();
        match self {
            BodyOp::Field(_) | BodyOp::IndexComp(_) | BodyOp::Const(_) => {}
            BodyOp::Alu(_, a, b) => v.extend([*a, *b]),
            BodyOp::Select {
                cond,
                if_true,
                if_false,
            } => v.extend([*cond, *if_true, *if_false]),
            BodyOp::Load { addr, .. } => v.push(*addr),
            BodyOp::Store {
                addr,
                value,
                kind,
                guard,
                ..
            } => {
                v.extend([*addr, *value]);
                if let StoreKind::Cas { expected } = kind {
                    v.push(*expected);
                }
                v.extend(guard.iter().copied());
            }
            BodyOp::Enqueue { fields, guard, .. } => {
                v.extend(fields.iter().copied());
                v.extend(guard.iter().copied());
            }
            BodyOp::EnqueueRange {
                lo,
                hi,
                extra,
                guard,
                ..
            } => {
                v.extend([*lo, *hi]);
                v.extend(extra.iter().copied());
                v.extend(guard.iter().copied());
            }
            BodyOp::Requeue { fields, guard } => {
                v.extend(fields.iter().copied());
                v.extend(guard.iter().copied());
            }
            BodyOp::AllocRule { params, guard, .. } => {
                v.extend(params.iter().copied());
                v.extend(guard.iter().copied());
            }
            BodyOp::Rendezvous {
                rule_instance,
                guard,
            } => {
                v.push(*rule_instance);
                v.extend(guard.iter().copied());
            }
            BodyOp::Emit { payload, guard, .. } => {
                v.extend(payload.iter().copied());
                v.extend(guard.iter().copied());
            }
            BodyOp::Extern { args, guard, .. } => {
                v.extend(args.iter().copied());
                v.extend(guard.iter().copied());
            }
        }
        v
    }

    /// The guard of a guarded op: when its value is 0, the op does
    /// nothing and yields 0.
    pub fn guard(&self) -> Option<ValRef> {
        match self {
            BodyOp::Store { guard, .. }
            | BodyOp::Enqueue { guard, .. }
            | BodyOp::EnqueueRange { guard, .. }
            | BodyOp::Requeue { guard, .. }
            | BodyOp::AllocRule { guard, .. }
            | BodyOp::Rendezvous { guard, .. }
            | BodyOp::Emit { guard, .. }
            | BodyOp::Extern { guard, .. } => *guard,
            _ => None,
        }
    }

    /// Short mnemonic used in DOT dumps and traces.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BodyOp::Field(_) => "field",
            BodyOp::IndexComp(_) => "index",
            BodyOp::Const(_) => "const",
            BodyOp::Alu(op, _, _) => match op {
                AluOp::Add => "add",
                AluOp::Sub => "sub",
                AluOp::Mul => "mul",
                AluOp::Div => "div",
                AluOp::Rem => "rem",
                AluOp::And => "and",
                AluOp::Or => "or",
                AluOp::Xor => "xor",
                AluOp::Shl => "shl",
                AluOp::Shr => "shr",
                AluOp::Min => "min",
                AluOp::Max => "max",
                AluOp::Eq => "eq",
                AluOp::Ne => "ne",
                AluOp::Lt => "lt",
                AluOp::Le => "le",
                AluOp::Gt => "gt",
                AluOp::Ge => "ge",
                AluOp::SLt => "slt",
                AluOp::SLe => "sle",
            },
            BodyOp::Select { .. } => "select",
            BodyOp::Load { .. } => "load",
            BodyOp::Store { .. } => "store",
            BodyOp::Enqueue { .. } => "enqueue",
            BodyOp::EnqueueRange { .. } => "expand",
            BodyOp::Requeue { .. } => "requeue",
            BodyOp::AllocRule { .. } => "alloc_rule",
            BodyOp::Rendezvous { .. } => "rendezvous",
            BodyOp::Emit { .. } => "emit",
            BodyOp::Extern { .. } => "extern",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.eval(3, 4), 7);
        assert_eq!(AluOp::Sub.eval(3, 4), u64::MAX);
        assert_eq!(AluOp::Min.eval(9, 2), 2);
        assert_eq!(AluOp::Lt.eval(1, 2), 1);
        assert_eq!(AluOp::Lt.eval(2, 1), 0);
        assert_eq!(AluOp::Div.eval(10, 0), 0);
        assert_eq!(AluOp::SLt.eval(u64::MAX, 0), 1); // -1 < 0 signed
        assert_eq!(AluOp::Lt.eval(u64::MAX, 0), 0);
    }

    #[test]
    fn operands_cover_guards() {
        let op = BodyOp::Store {
            region: RegionId(0),
            addr: ValRef(1),
            value: ValRef(2),
            kind: StoreKind::Cas { expected: ValRef(3) },
            guard: Some(ValRef(4)),
        };
        let ops = op.operands();
        assert_eq!(ops, vec![ValRef(1), ValRef(2), ValRef(3), ValRef(4)]);
        assert!(op.has_effect());
    }

    #[test]
    fn pure_ops_have_no_effect() {
        assert!(!BodyOp::Const(1).has_effect());
        assert!(!BodyOp::Alu(AluOp::Add, ValRef(0), ValRef(0)).has_effect());
        assert!(BodyOp::Rendezvous {
            rule_instance: ValRef(0),
            guard: None,
        }
        .has_effect());
    }
}
