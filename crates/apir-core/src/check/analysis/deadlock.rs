//! Deadlock-freedom certification of queue/rendezvous dependency cycles.
//!
//! Every strongly-connected component of the lowered BDFG (memory
//! request/response edges excluded — the port always answers) is a
//! potential hold-and-wait loop. Each cyclic SCC is certified into one of
//! four classes:
//!
//! * **Buffered-safe** (`APIR610`, info) — a single-set recirculation
//!   loop whose requested reserve fits under the capacity clamp: every
//!   in-flight token has a guaranteed landing slot, so the loop can
//!   livelock but never wedge.
//! * **Watchdog-rescuable** (`APIR611`, info) — the cycle runs through a
//!   rule engine with an escape hatch (immediate mode, an `otherwise`
//!   arm, or a countdown): parked tokens are eventually bounced back out.
//! * **Uncertified** (`APIR612`, warn) — the only way out is a
//!   data-dependent guard or an engine with no static escape; liveness
//!   depends on runtime values the analysis cannot see.
//! * **Unsound** (`APIR613`, error) — no decision point and no reserve
//!   coverage: the cycle can fill up and hold forever.

use super::super::{Diagnostic, Lint, Report};
use super::occupancy::QueueBound;
use crate::bdfg::{ActorKind, Bdfg, EdgeKind};
use crate::spec::Spec;

/// Certification verdict for one dependency cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleClass {
    /// Reserve-covered single-set recirculation (`APIR610`).
    BufferedSafe,
    /// Escapes through a rule engine's otherwise/bounce path (`APIR611`).
    WatchdogRescuable,
    /// Escapes only via data-dependent guards (`APIR612`).
    Uncertified,
    /// No decision point, no reserve coverage (`APIR613`).
    Unsound,
}

impl CycleClass {
    /// Stable lowercase key (used by the JSON report).
    pub fn key(&self) -> &'static str {
        match self {
            CycleClass::BufferedSafe => "buffered_safe",
            CycleClass::WatchdogRescuable => "watchdog_rescuable",
            CycleClass::Uncertified => "uncertified",
            CycleClass::Unsound => "unsound",
        }
    }
}

/// One certified dependency cycle.
#[derive(Clone, Debug)]
pub struct CycleFinding {
    /// The verdict.
    pub class: CycleClass,
    /// Number of actors on the cycle.
    pub size: usize,
    /// Entity anchor (`actor:<id>` of the cycle's first actor).
    pub anchor: String,
    /// Names of the task sets whose actors participate.
    pub task_sets: Vec<String>,
}

/// Enumerates and certifies every dependency cycle, pushing one
/// `APIR610`–`APIR613` diagnostic per cycle.
pub(super) fn certify_cycles(
    bdfg: &Bdfg,
    spec: &Spec,
    queues: &[QueueBound],
    report: &mut Report,
) -> Vec<CycleFinding> {
    let n = bdfg.actors().len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in bdfg.edges() {
        if e.from < n && e.to < n && e.kind != EdgeKind::Memory {
            adj[e.from].push(e.to);
        }
    }
    let mut out = Vec::new();
    for scc in super::super::bdfg_lints::sccs(&adj) {
        let cyclic = scc.len() > 1 || adj[scc[0]].iter().any(|&w| w == scc[0]);
        if !cyclic {
            continue;
        }
        // Participating task sets, in declaration order.
        let mut set_ids: Vec<usize> = scc
            .iter()
            .filter_map(|&v| match bdfg.actors()[v].kind {
                ActorKind::Primitive { task_set, .. }
                | ActorKind::QueuePop(task_set)
                | ActorKind::QueuePush(task_set) => Some(task_set.0),
                _ => None,
            })
            .collect();
        set_ids.sort_unstable();
        set_ids.dedup();
        let task_sets: Vec<String> = set_ids
            .iter()
            .filter_map(|&i| spec.task_sets().get(i).map(|t| t.name.clone()))
            .collect();

        let rescuable_engine = scc.iter().any(|&v| match bdfg.actors()[v].kind {
            ActorKind::RuleEngine(r) => spec.rules().get(r).is_some_and(|rule| {
                matches!(rule.mode, crate::rule::RuleMode::Immediate)
                    || rule.otherwise
                    || rule.countdown_param.is_some()
            }),
            _ => false,
        });
        let any_engine = scc
            .iter()
            .any(|&v| matches!(bdfg.actors()[v].kind, ActorKind::RuleEngine(_)));
        let guarded = scc.iter().any(|&v| match &bdfg.actors()[v].kind {
            ActorKind::Primitive { task_set, pos, .. } => spec
                .task_sets()
                .get(task_set.0)
                .and_then(|ts| ts.body.get(*pos))
                .is_some_and(|op| op.guard().is_some()),
            _ => false,
        });
        let reserve_covered = set_ids.len() == 1
            && queues
                .get(set_ids[0])
                .is_some_and(|q| q.in_pipe <= q.reserve && q.reserve > 0);

        let class = if rescuable_engine {
            CycleClass::WatchdogRescuable
        } else if !any_engine && reserve_covered {
            CycleClass::BufferedSafe
        } else if guarded || any_engine {
            CycleClass::Uncertified
        } else {
            CycleClass::Unsound
        };

        let anchor_id = scc.iter().copied().min().unwrap_or(0);
        let anchor = format!("actor:{anchor_id}");
        let sets_text = if task_sets.is_empty() {
            "<none>".to_string()
        } else {
            task_sets.join(", ")
        };
        let (lint, msg, hint) = match class {
            CycleClass::BufferedSafe => (
                Lint::CycleBufferedSafe,
                format!(
                    "cycle of {} actor(s) over {{{sets_text}}} is buffered-safe: \
                     recirculation reserve covers every in-flight token",
                    scc.len()
                ),
                "no action needed; the loop cannot wedge the queue",
            ),
            CycleClass::WatchdogRescuable => (
                Lint::CycleWatchdogRescuable,
                format!(
                    "cycle of {} actor(s) over {{{sets_text}}} is watchdog-rescuable: \
                     a rule escape path (otherwise/immediate/countdown) bounces tokens out",
                    scc.len()
                ),
                "no action needed; parked tokens are eventually released",
            ),
            CycleClass::Uncertified => (
                Lint::CycleUncertified,
                format!(
                    "cycle of {} actor(s) over {{{sets_text}}} escapes only through \
                     data-dependent guards; liveness is not statically certified",
                    scc.len()
                ),
                "route the loop through a rule with an otherwise arm, or grow the reserve",
            ),
            CycleClass::Unsound => (
                Lint::CycleUnsound,
                format!(
                    "cycle of {} actor(s) over {{{sets_text}}} has no decision point and \
                     no reserve coverage: it can fill its queue and hold it forever",
                    scc.len()
                ),
                "guard the recirculating op, add a rule escape, or raise queue_capacity",
            ),
        };
        report.push(Diagnostic::new(lint, anchor.clone(), msg).hint(hint));
        out.push(CycleFinding {
            class,
            size: scc.len(),
            anchor,
            task_sets,
        });
    }
    out
}
