//! The Event-Condition-Action (ECA) rule grammar.
//!
//! Section 4.2 of the paper: a **rule** is a promise, created by a parent
//! task, to return a boolean to that task at a planned rendezvous. The rule
//! reacts to broadcast events (`ON event IF condition DO action`) and must
//! carry an `otherwise` clause that fires automatically when the parent
//! task becomes the minimum among all waiting tasks — this guarantees
//! liveness under finite rule-engine resources.

use crate::expr::Expr;
use crate::spec::LabelId;

/// What a rule reacts to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventPat {
    /// A task reached the body operation that emits `label` (the paper's
    /// "tasks reaching specific operations"; task activations are modeled
    /// by placing the emit right after dequeue).
    Label(LabelId),
    /// The rendezvous broadcast of the *minimum waiting task*: payload is
    /// that task's rule parameters. Lets coordinative rules release "all
    /// tasks equal to the minimum" (e.g. same BFS level).
    MinWaiting,
}

/// What a triggered clause does. Actions are limited to steering the parent
/// task's tokens, i.e. returning a boolean to the rendezvous switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleAction {
    /// Return the boolean to the parent and release the lane.
    Return(bool),
    /// Decrement the lane's countdown; when it reaches zero, return `true`.
    /// Used by coordinative rules that wait for a known number of
    /// dependence-satisfying commits (kinetic-dependence-graph style).
    CountDown,
}

/// When a rule delivers its value to the parent's rendezvous.
///
/// Section 4.2.1: a rule is a promise to return "when its creator reaches
/// a planned rendezvous" — the *speculative* shape, where the returned
/// value is a function of everything observed since the rule's creation.
/// Coordinative rules instead *withhold* the value until a clause fires or
/// the liveness `otherwise` triggers, stalling the parent at the
/// rendezvous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuleMode {
    /// Speculative: the verdict starts at the `otherwise` value, clauses
    /// may overwrite it while the parent runs, and whatever has been
    /// accumulated is returned the moment the parent reaches the
    /// rendezvous.
    Immediate,
    /// Coordinative: the parent stalls at the rendezvous until a clause
    /// fires an action or the parent becomes the minimum live task (the
    /// `otherwise` exit).
    Waiting,
}

/// One `ON event IF condition DO action` clause.
#[derive(Clone, Debug)]
pub struct EcaClause {
    /// Triggering event.
    pub event: EventPat,
    /// Boolean condition over event payload, indices and lane parameters.
    pub condition: Expr,
    /// Action fired when the condition holds.
    pub action: RuleAction,
}

/// A complete rule declaration: constructor arity, clauses, the obligatory
/// `otherwise`, and an optional countdown initializer.
#[derive(Clone, Debug)]
pub struct RuleDecl {
    /// Human-readable name (diagnostics, DOT dumps).
    pub name: String,
    /// Delivery mode (speculative vs coordinative).
    pub mode: RuleMode,
    /// Number of parameter words forwarded by the parent at construction.
    pub n_params: u8,
    /// ECA clauses evaluated on every broadcast event.
    pub clauses: Vec<EcaClause>,
    /// Value returned when the parent task is the minimum waiting task at
    /// the rendezvous. Obligatory (liveness).
    pub otherwise: bool,
    /// If set, parameter index whose value initializes the lane countdown;
    /// a lane whose countdown is initialized to zero returns `true`
    /// immediately at allocation.
    pub countdown_param: Option<u8>,
}

impl RuleDecl {
    /// Creates a speculative ([`RuleMode::Immediate`]) rule with no
    /// clauses (it only ever returns `otherwise`).
    pub fn new(name: impl Into<String>, n_params: u8, otherwise: bool) -> Self {
        RuleDecl {
            name: name.into(),
            mode: RuleMode::Immediate,
            n_params,
            clauses: Vec::new(),
            otherwise,
            countdown_param: None,
        }
    }

    /// Creates a coordinative ([`RuleMode::Waiting`]) rule.
    pub fn new_waiting(name: impl Into<String>, n_params: u8, otherwise: bool) -> Self {
        RuleDecl {
            mode: RuleMode::Waiting,
            ..Self::new(name, n_params, otherwise)
        }
    }

    /// Adds an `ON label IF condition DO action` clause.
    pub fn on_label(mut self, label: LabelId, condition: Expr, action: RuleAction) -> Self {
        self.clauses.push(EcaClause {
            event: EventPat::Label(label),
            condition,
            action,
        });
        self
    }

    /// Adds an `ON min-waiting IF condition DO action` clause.
    pub fn on_min_waiting(mut self, condition: Expr, action: RuleAction) -> Self {
        self.clauses.push(EcaClause {
            event: EventPat::MinWaiting,
            condition,
            action,
        });
        self
    }

    /// Declares the lane countdown to be initialized from parameter `p`.
    pub fn with_countdown(mut self, p: u8) -> Self {
        self.countdown_param = Some(p);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::dsl::*;
    use crate::spec::LabelId;

    #[test]
    fn builder_accumulates_clauses() {
        let r = RuleDecl::new("conflict", 2, true)
            .on_label(
                LabelId(0),
                and(earlier(), eq(ev(0), param(0))),
                RuleAction::Return(false),
            )
            .on_min_waiting(eq(ev(0), param(1)), RuleAction::Return(true));
        assert_eq!(r.clauses.len(), 2);
        assert!(r.otherwise);
        assert_eq!(r.clauses[0].event, EventPat::Label(LabelId(0)));
        assert_eq!(r.clauses[1].event, EventPat::MinWaiting);
    }

    #[test]
    fn countdown_param_recorded() {
        let r = RuleDecl::new("deps", 4, true).with_countdown(3);
        assert_eq!(r.countdown_param, Some(3));
    }

    #[test]
    fn modes() {
        assert_eq!(RuleDecl::new("s", 0, true).mode, RuleMode::Immediate);
        assert_eq!(RuleDecl::new_waiting("c", 1, true).mode, RuleMode::Waiting);
    }
}
