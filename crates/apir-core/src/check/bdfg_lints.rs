//! Graph-level analyses of a lowered BDFG: channel structure, actor
//! reachability from task inputs, and cycles without decision actors.

use super::{Diagnostic, Lint, Report};
use crate::bdfg::{ActorKind, Bdfg, EdgeKind};
use crate::spec::Spec;
use std::collections::HashMap;

/// Structural invariants: every channel endpoint names an actor, no
/// duplicate structural channel, every queue pop is fed by a push.
pub(super) fn structure(bdfg: &Bdfg, report: &mut Report) {
    let n = bdfg.actors().len();
    for (ei, e) in bdfg.edges().iter().enumerate() {
        if e.from >= n || e.to >= n {
            report.push(
                Diagnostic::new(
                    Lint::DanglingEdge,
                    format!("edge:{ei}"),
                    format!("dangling edge {e:?}"),
                )
                .hint("edge endpoints must be actor ids produced by the same lowering"),
            );
        }
    }
    // Structural (queue/event/rule) channels are hardware wires; wiring the
    // same pair twice duplicates a port.
    let mut seen: HashMap<(usize, usize, EdgeKind), usize> = HashMap::new();
    for e in bdfg.edges() {
        if matches!(e.kind, EdgeKind::Queue | EdgeKind::Event | EdgeKind::Rule) {
            *seen.entry((e.from, e.to, e.kind)).or_insert(0) += 1;
        }
    }
    let mut dups: Vec<_> = seen.into_iter().filter(|(_, c)| *c > 1).collect();
    dups.sort();
    for ((from, to, kind), count) in dups {
        if from < n && to < n {
            report.push(Diagnostic::new(
                Lint::DuplicateEdge,
                format!("actor:{from}"),
                format!(
                    "{count} identical {kind:?} channels from `{}` to `{}`",
                    bdfg.actors()[from].label,
                    bdfg.actors()[to].label
                ),
            ));
        }
    }
    for a in bdfg.actors() {
        if let ActorKind::QueuePop(_) = a.kind {
            let fed = bdfg
                .edges()
                .iter()
                .any(|e| e.to == a.id && e.kind == EdgeKind::Queue);
            if !fed {
                report.push(
                    Diagnostic::new(
                        Lint::UnfedQueuePop,
                        format!("actor:{}", a.id),
                        format!("queue pop `{}` has no push feeding it", a.label),
                    )
                    .hint("every task set queue needs at least its host-seed push port"),
                );
            }
        }
    }
}

/// Actors that no token from a task input can ever reach become dead
/// hardware after synthesis.
///
/// Roots are the queue ports (pops *and* pushes — the host seeds queues
/// directly) and, when the spec declares extern cores, every event tap:
/// an extern may broadcast any label at runtime, so taps without a static
/// emit edge are still live.
pub(super) fn reachability(bdfg: &Bdfg, spec: &Spec, report: &mut Report) {
    let n = bdfg.actors().len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in bdfg.edges() {
        if e.from < n && e.to < n {
            adj[e.from].push(e.to);
        }
    }
    let mut reach = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for a in bdfg.actors() {
        let root = match a.kind {
            ActorKind::QueuePop(_) | ActorKind::QueuePush(_) => true,
            ActorKind::EventTap(_) => !spec.externs().is_empty(),
            _ => false,
        };
        if root {
            reach[a.id] = true;
            stack.push(a.id);
        }
    }
    while let Some(v) = stack.pop() {
        for &w in &adj[v] {
            if !reach[w] {
                reach[w] = true;
                stack.push(w);
            }
        }
    }
    let mut degree = vec![0usize; n];
    for e in bdfg.edges() {
        if e.from < n && e.to < n {
            degree[e.from] += 1;
            degree[e.to] += 1;
        }
    }
    for a in bdfg.actors() {
        // Isolated shared actors (a memory port no op uses, a tap of an
        // unreferenced label) are vacuous, not dead datapath hardware.
        let interesting = matches!(a.kind, ActorKind::Primitive { .. }) || degree[a.id] > 0;
        if !reach[a.id] && interesting {
            report.push(
                Diagnostic::new(
                    Lint::UnreachableActor,
                    format!("actor:{}", a.id),
                    format!("actor `{}` is unreachable from every task input", a.label),
                )
                .hint("dead hardware after synthesis; remove the op or wire its trigger"),
            );
        }
    }
}

/// Cycles whose actors include no decision point — no rule engine and no
/// guarded primitive — can neither squash nor steer a token out: a static
/// deadlock/livelock risk. Memory request/response two-cycles are excluded
/// (the port always answers).
pub(super) fn cycles(bdfg: &Bdfg, spec: &Spec, report: &mut Report) {
    let n = bdfg.actors().len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in bdfg.edges() {
        if e.from < n && e.to < n && e.kind != EdgeKind::Memory {
            adj[e.from].push(e.to);
        }
    }
    for scc in sccs(&adj) {
        let cyclic = scc.len() > 1
            || adj[scc[0]].iter().any(|&w| w == scc[0]);
        if !cyclic {
            continue;
        }
        let decided = scc.iter().any(|&v| match &bdfg.actors()[v].kind {
            ActorKind::RuleEngine(_) => true,
            ActorKind::Primitive { task_set, pos, .. } => spec
                .task_sets()
                .get(task_set.0)
                .and_then(|ts| ts.body.get(*pos))
                .is_some_and(|op| op.guard().is_some()),
            _ => false,
        });
        if !decided {
            let mut names: Vec<&str> = scc
                .iter()
                .take(4)
                .map(|&v| bdfg.actors()[v].label.as_str())
                .collect();
            if scc.len() > 4 {
                names.push("...");
            }
            report.push(
                Diagnostic::new(
                    Lint::UndecidedCycle,
                    format!("actor:{}", scc[0]),
                    format!(
                        "cycle of {} actor(s) with no decision point: {}",
                        scc.len(),
                        names.join(" -> ")
                    ),
                )
                .hint("guard the recirculating op or route the loop through a rule"),
            );
        }
    }
}

/// Iterative Tarjan strongly-connected components (shared with the
/// semantic analysis pass in [`super::analysis`]).
pub(super) fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    // DFS frames: (vertex, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        frames.push((start, 0));
        while let Some(frame) = frames.last_mut() {
            let (v, ci) = (frame.0, frame.1);
            if ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(ci) {
                frame.1 += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(comp);
                }
            }
        }
    }
    out
}
