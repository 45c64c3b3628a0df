//! Condition expressions of ECA rules.
//!
//! Per Section 4.2.2 of the paper, a rule's *condition* is a boolean
//! expression over (a) the index and data fields carried by the triggering
//! event, and (b) the parameters forwarded by the parent task when the rule
//! was constructed. Expressions are evaluated combinationally by a rule
//! lane every time an event is broadcast.

use crate::op::AluOp;
use crate::IndexTuple;
use std::fmt;

/// An expression evaluated by a rule lane against a broadcast event.
#[derive(Clone, Debug)]
pub enum Expr {
    /// A constant word.
    Const(u64),
    /// Payload word `n` of the triggering event.
    EventField(u8),
    /// Parameter `n` of this rule instance (forwarded by the parent task).
    Param(u8),
    /// `1` iff the triggering task is strictly *earlier* than the parent
    /// task in the well-order. This is the paper's "earlier than itself"
    /// check of speculative BFS.
    EventIsEarlier,
    /// `1` iff the triggering task has exactly the same well-order index as
    /// the parent (e.g. siblings from one `for-all` expansion).
    EventSameIndex,
    /// Binary ALU operation on two sub-expressions.
    Bin(AluOp, Box<Expr>, Box<Expr>),
    /// Logical negation (`x == 0`).
    Not(Box<Expr>),
}

/// Evaluation context: the broadcast event plus the lane's stored state.
#[derive(Clone, Copy, Debug)]
pub struct EvalCtx<'a> {
    /// Index of the task that triggered the event.
    pub event_index: IndexTuple,
    /// Payload words of the event.
    pub event_payload: &'a [u64],
    /// Index of the rule's parent task.
    pub parent_index: IndexTuple,
    /// Parameters stored in the lane at construction.
    pub params: &'a [u64],
}

impl Expr {
    /// Evaluates the expression; missing payload/parameter words read as 0,
    /// as an absent wire reads as ground in hardware.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> u64 {
        match self {
            Expr::Const(c) => *c,
            Expr::EventField(n) => ctx.event_payload.get(*n as usize).copied().unwrap_or(0),
            Expr::Param(n) => ctx.params.get(*n as usize).copied().unwrap_or(0),
            Expr::EventIsEarlier => (ctx.event_index < ctx.parent_index) as u64,
            Expr::EventSameIndex => (ctx.event_index == ctx.parent_index) as u64,
            Expr::Bin(op, a, b) => op.eval(a.eval(ctx), b.eval(ctx)),
            Expr::Not(e) => (e.eval(ctx) == 0) as u64,
        }
    }

    /// Evaluates as a boolean (non-zero is true).
    pub fn eval_bool(&self, ctx: &EvalCtx<'_>) -> bool {
        self.eval(ctx) != 0
    }

    /// Number of combinational operators (used by the resource model).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Bin(_, a, b) => 1 + a.op_count() + b.op_count(),
            Expr::Not(e) => 1 + e.op_count(),
            _ => 0,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::EventField(n) => write!(f, "ev[{n}]"),
            Expr::Param(n) => write!(f, "p[{n}]"),
            Expr::EventIsEarlier => write!(f, "ev.idx<idx"),
            Expr::EventSameIndex => write!(f, "ev.idx==idx"),
            Expr::Bin(op, a, b) => write!(f, "({a} {op:?} {b})"),
            Expr::Not(e) => write!(f, "!{e}"),
        }
    }
}

/// Convenience constructors for building conditions tersely.
pub mod dsl {
    use super::*;

    /// Event payload word `n`.
    pub fn ev(n: u8) -> Expr {
        Expr::EventField(n)
    }
    /// Rule instance parameter `n`.
    pub fn param(n: u8) -> Expr {
        Expr::Param(n)
    }
    /// Constant.
    pub fn c(v: u64) -> Expr {
        Expr::Const(v)
    }
    /// The triggering task is earlier in the well-order than the parent.
    pub fn earlier() -> Expr {
        Expr::EventIsEarlier
    }
    /// Equality.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Bin(AluOp::Eq, Box::new(a), Box::new(b))
    }
    /// Unsigned `a <= b`.
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::Bin(AluOp::Le, Box::new(a), Box::new(b))
    }
    /// Unsigned `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Bin(AluOp::Lt, Box::new(a), Box::new(b))
    }
    /// Logical and (both non-zero).
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::Bin(
            AluOp::And,
            Box::new(Expr::Bin(AluOp::Ne, Box::new(a), Box::new(Expr::Const(0)))),
            Box::new(Expr::Bin(AluOp::Ne, Box::new(b), Box::new(Expr::Const(0)))),
        )
    }
    /// Logical or.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Bin(AluOp::Or, Box::new(a), Box::new(b))
    }
    /// Logical not.
    pub fn not(a: Expr) -> Expr {
        Expr::Not(Box::new(a))
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;

    fn ctx<'a>(
        payload: &'a [u64],
        params: &'a [u64],
        ev_idx: &[u64],
        p_idx: &[u64],
    ) -> EvalCtx<'a> {
        EvalCtx {
            event_index: IndexTuple::new(ev_idx),
            event_payload: payload,
            parent_index: IndexTuple::new(p_idx),
            params,
        }
    }

    #[test]
    fn spec_bfs_conflict_condition() {
        // ON write-commit IF earlier && same address DO return false.
        let cond = and(earlier(), eq(ev(0), param(0)));
        // Event: task {2} wrote address 100. Parent: task {5}, watching 100.
        let c1 = ctx(&[100], &[100], &[2], &[5]);
        assert!(cond.eval_bool(&c1));
        // Different address: no trigger.
        let c2 = ctx(&[101], &[100], &[2], &[5]);
        assert!(!cond.eval_bool(&c2));
        // Later task wrote: no trigger.
        let c3 = ctx(&[100], &[100], &[7], &[5]);
        assert!(!cond.eval_bool(&c3));
    }

    #[test]
    fn coor_bfs_min_level_condition() {
        // ON min-waiting broadcast IF event.level == my.level DO return true.
        let cond = eq(ev(0), param(0));
        let c1 = ctx(&[3], &[3], &[0], &[9]);
        assert!(cond.eval_bool(&c1));
        let c2 = ctx(&[3], &[4], &[0], &[9]);
        assert!(!cond.eval_bool(&c2));
    }

    #[test]
    fn missing_words_read_zero() {
        let cond = eq(ev(5), c(0));
        let c1 = ctx(&[], &[], &[1], &[2]);
        assert!(cond.eval_bool(&c1));
    }

    #[test]
    fn logic_ops_are_boolean() {
        let t = and(c(17), c(4)); // non-zero && non-zero
        let cx = ctx(&[], &[], &[0], &[0]);
        assert_eq!(t.eval(&cx), 1);
        assert_eq!(not(c(3)).eval(&cx), 0);
        assert_eq!(or(c(0), c(2)).eval(&cx), 2); // bitwise or of booleans is fine
    }

    #[test]
    fn op_count_counts_operators() {
        let e = and(earlier(), eq(ev(0), param(0)));
        assert!(e.op_count() >= 3);
        assert_eq!(c(5).op_count(), 0);
    }

    #[test]
    fn display_is_readable() {
        let e = eq(ev(0), param(1));
        let s = format!("{e}");
        assert!(s.contains("ev[0]") && s.contains("p[1]"));
    }
}
