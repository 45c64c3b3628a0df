//! Spec-level analyses: body structure (the checks `Spec::build` always made),
//! rule liveness, switch/steer balance and interface contracts.

use super::{Diagnostic, Lint, Report, Severity};
use crate::op::BodyOp;
use crate::rule::{EventPat, RuleAction, RuleMode};
use crate::spec::Spec;
use crate::{MAX_DEPTH, MAX_FIELDS};

fn ts_path(name: &str) -> String {
    format!("task:{name}")
}

fn op_path(name: &str, pos: usize) -> String {
    format!("task:{name}/op:{pos}")
}

fn rule_path(name: &str) -> String {
    format!("rule:{name}")
}

/// Event labels statically emitted by at least one body op.
pub(super) fn emitted_labels(spec: &Spec) -> Vec<bool> {
    let mut emitted = vec![false; spec.labels().len()];
    for ts in spec.task_sets() {
        for op in &ts.body {
            if let BodyOp::Emit { label, .. } = op {
                emitted[label.0] = true;
            }
        }
    }
    emitted
}

/// The structural checks `Spec::build` has always performed, in their
/// original order, so the first error it reports is unchanged.
pub(super) fn body_structure(spec: &Spec, report: &mut Report) {
    for ts in spec.task_sets() {
        if ts.body.is_empty() {
            report.push(
                Diagnostic::new(
                    Lint::EmptyBody,
                    ts_path(&ts.name),
                    format!("task set `{}` has an empty body", ts.name),
                )
                .hint("open a body with Spec::body and commit it with finish()"),
            );
        }
        if ts.level == 0 || ts.level > MAX_DEPTH {
            report.push(
                Diagnostic::new(
                    Lint::BadLevel,
                    ts_path(&ts.name),
                    format!(
                        "task set `{}` level {} out of range 1..={MAX_DEPTH}",
                        ts.name, ts.level
                    ),
                ),
            );
        }
        if ts.arity() > MAX_FIELDS {
            report.push(
                Diagnostic::new(
                    Lint::WidthExceeded,
                    ts_path(&ts.name),
                    format!(
                        "task set `{}` carries {} fields, limit {MAX_FIELDS}",
                        ts.name,
                        ts.arity()
                    ),
                ),
            );
        }
        for (pos, op) in ts.body.iter().enumerate() {
            for v in op.operands() {
                if v.pos() >= pos {
                    report.push(
                        Diagnostic::new(
                            Lint::ForwardReference,
                            op_path(&ts.name, pos),
                            format!("forward value reference in `{}` op {pos}", ts.name),
                        ),
                    );
                }
            }
            match op {
                BodyOp::Rendezvous { rule_instance, .. } => {
                    let ok = rule_instance.pos() < ts.body.len()
                        && matches!(ts.body[rule_instance.pos()], BodyOp::AllocRule { .. });
                    if !ok {
                        report.push(
                            Diagnostic::new(
                                Lint::RendezvousWithoutAlloc,
                                op_path(&ts.name, pos),
                                format!(
                                    "rendezvous in `{}` op {pos} does not consume an alloc_rule",
                                    ts.name
                                ),
                            )
                            .hint("pass the ValRef returned by alloc_rule/alloc_rule_if"),
                        );
                    }
                }
                BodyOp::AllocRule { rule, params, .. } => {
                    let decl = &spec.rules()[rule.0];
                    if params.len() != decl.n_params as usize {
                        report.push(
                            Diagnostic::new(
                                Lint::RuleParamArityMismatch,
                                op_path(&ts.name, pos),
                                format!(
                                    "rule `{}` takes {} params, alloc passes {}",
                                    decl.name,
                                    decl.n_params,
                                    params.len()
                                ),
                            ),
                        );
                    }
                }
                BodyOp::Enqueue {
                    task_set: target,
                    fields,
                    ..
                } => {
                    let want = spec.task_sets()[target.0].arity();
                    if fields.len() != want {
                        report.push(
                            Diagnostic::new(
                                Lint::EnqueueArityMismatch,
                                op_path(&ts.name, pos),
                                format!(
                                    "enqueue into `{}` passes {} fields, set carries {want}",
                                    spec.task_sets()[target.0].name,
                                    fields.len()
                                ),
                            ),
                        );
                    }
                }
                BodyOp::Requeue { fields, .. } if fields.len() != ts.arity() => {
                    report.push(
                        Diagnostic::new(
                            Lint::EnqueueArityMismatch,
                            op_path(&ts.name, pos),
                            format!(
                                "requeue passes {} fields, `{}` carries {}",
                                fields.len(),
                                ts.name,
                                ts.arity()
                            ),
                        ),
                    );
                }
                BodyOp::EnqueueRange {
                    task_set: target,
                    extra,
                    ..
                } => {
                    let want = spec.task_sets()[target.0].arity();
                    if extra.len() + 1 != want {
                        report.push(
                            Diagnostic::new(
                                Lint::EnqueueArityMismatch,
                                op_path(&ts.name, pos),
                                format!(
                                    "expand into `{}` yields {} fields, set carries {want}",
                                    spec.task_sets()[target.0].name,
                                    extra.len() + 1
                                ),
                            ),
                        );
                    }
                }
                BodyOp::Emit { payload, .. } if payload.len() > MAX_FIELDS => {
                    report.push(
                        Diagnostic::new(
                            Lint::WidthExceeded,
                            op_path(&ts.name, pos),
                            format!(
                                "emit payload of {} words exceeds limit {MAX_FIELDS}",
                                payload.len()
                            ),
                        ),
                    );
                }
                _ => {}
            }
        }
    }
}

/// Rule declaration checks (widths, countdown indices, label emission) —
/// the rule checks `Spec::build` always made.
pub(super) fn rule_declarations(spec: &Spec, report: &mut Report) {
    let emitted = emitted_labels(spec);
    for r in spec.rules() {
        if r.n_params as usize > MAX_FIELDS {
            report.push(
                Diagnostic::new(
                    Lint::WidthExceeded,
                    rule_path(&r.name),
                    format!(
                        "rule `{}` declares {} params, limit {MAX_FIELDS}",
                        r.name, r.n_params
                    ),
                ),
            );
        }
        if let Some(p) = r.countdown_param {
            if p >= r.n_params {
                report.push(
                    Diagnostic::new(
                        Lint::CountdownOutOfRange,
                        rule_path(&r.name),
                        format!(
                            "rule `{}` countdown parameter {p} out of range (arity {})",
                            r.name, r.n_params
                        ),
                    ),
                );
            }
        }
        for (ci, c) in r.clauses.iter().enumerate() {
            if let EventPat::Label(l) = c.event {
                if !emitted[l.0] {
                    let label_name = &spec.labels()[l.0];
                    if spec.externs().is_empty() {
                        report.push(
                            Diagnostic::new(
                                Lint::UnemittedLabel,
                                format!("rule:{}/clause:{ci}", r.name),
                                format!(
                                    "rule `{}` listens on label `{label_name}` which no body emits",
                                    r.name
                                ),
                            )
                            .hint("add an emit op or remove the clause"),
                        );
                    } else {
                        // Extern cores may emit any label at runtime; only
                        // note the dependence on that behaviour.
                        report.push(
                            Diagnostic::new(
                                Lint::UnemittedLabel,
                                format!("rule:{}/clause:{ci}", r.name),
                                format!(
                                    "rule `{}` listens on `{label_name}`, emitted only by \
                                     extern cores (not statically checkable)",
                                    r.name
                                ),
                            )
                            .severity(Severity::Info),
                        );
                    }
                }
            }
        }
    }
}

/// Liveness family: every aggressive rule must be able to deliver a
/// verdict, and recirculation must be conditional.
pub(super) fn liveness(spec: &Spec, report: &mut Report) {
    for r in spec.rules() {
        let can_return_true = r.otherwise
            || r.countdown_param.is_some()
            || r.clauses.iter().any(|c| {
                matches!(c.action, RuleAction::Return(true) | RuleAction::CountDown)
            });
        if r.mode == RuleMode::Waiting && !can_return_true {
            report.push(
                Diagnostic::new(
                    Lint::WaitingRuleNeverTrue,
                    rule_path(&r.name),
                    format!(
                        "waiting rule `{}` can never return true: otherwise is false and no \
                         clause returns true",
                        r.name
                    ),
                )
                .hint("set otherwise=true (the paper's obligatory liveness clause) or add a \
                       Return(true)/CountDown clause"),
            );
        }
        if r.clauses
            .iter()
            .any(|c| matches!(c.action, RuleAction::CountDown))
            && r.countdown_param.is_none()
        {
            report.push(Diagnostic::new(
                Lint::CountdownWithoutInit,
                rule_path(&r.name),
                format!(
                    "rule `{}` fires CountDown but declares no countdown parameter; lanes count \
                     down from the default of 1",
                    r.name
                ),
            ).hint("declare with_countdown(param) to initialize lane countdowns"));
        }
        if r.mode == RuleMode::Waiting && r.clauses.is_empty() {
            report.push(Diagnostic::new(
                Lint::WaitingRuleNoClauses,
                rule_path(&r.name),
                format!(
                    "waiting rule `{}` has no clauses: every parent stalls until it is the \
                     minimum live task (full serialization)",
                    r.name
                ),
            ));
        }
    }
    for ts in spec.task_sets() {
        for (pos, op) in ts.body.iter().enumerate() {
            if let BodyOp::Requeue { guard: None, .. } = op {
                report.push(
                    Diagnostic::new(
                        Lint::UnguardedRequeue,
                        op_path(&ts.name, pos),
                        format!(
                            "unconditional requeue in `{}`: the task recirculates forever",
                            ts.name
                        ),
                    )
                    .hint("guard the requeue on a retry condition"),
                );
            }
        }
    }
}

/// Switch/steer family: every allocated rule lane must be claimed by
/// exactly one rendezvous carrying the same guard, so the boolean
/// switch (alloc) and steer (rendezvous) stay token-balanced.
pub(super) fn switch_steer(spec: &Spec, report: &mut Report) {
    for ts in spec.task_sets() {
        // claims[alloc_pos] = rendezvous positions consuming it.
        let mut claims: Vec<Vec<usize>> = vec![Vec::new(); ts.body.len()];
        for (pos, op) in ts.body.iter().enumerate() {
            if let BodyOp::Rendezvous { rule_instance, .. } = op {
                if rule_instance.pos() < pos {
                    claims[rule_instance.pos()].push(pos);
                }
            }
        }
        for (pos, op) in ts.body.iter().enumerate() {
            let BodyOp::AllocRule { guard, .. } = op else {
                continue;
            };
            match claims[pos].as_slice() {
                [] => {
                    report.push(
                        Diagnostic::new(
                            Lint::UnbalancedRuleTokens,
                            op_path(&ts.name, pos),
                            format!(
                                "alloc_rule in `{}` op {pos} is never claimed by a rendezvous: \
                                 the lane leaks until evicted",
                                ts.name
                            ),
                        )
                        .hint("add a rendezvous consuming this handle"),
                    );
                }
                [rpos] => {
                    let BodyOp::Rendezvous { guard: rguard, .. } = &ts.body[*rpos] else {
                        continue;
                    };
                    if guard != rguard {
                        let d = Diagnostic::new(
                            Lint::GuardMismatch,
                            op_path(&ts.name, *rpos),
                            format!(
                                "rendezvous at `{}` op {rpos} carries a different guard than \
                                 its alloc_rule at op {pos}",
                                ts.name
                            ),
                        )
                        .hint("use the same guard value for alloc_rule_if and rendezvous_if");
                        if guard.is_some() {
                            // The steer may wait on a lane the switch never
                            // allocated: deadlock risk.
                            report.push(d);
                        } else {
                            // Lane always allocated but conditionally
                            // claimed: leaks lanes, not liveness.
                            report.push(d.severity(Severity::Warn));
                        }
                    }
                }
                many => {
                    report.push(Diagnostic::new(
                        Lint::UnbalancedRuleTokens,
                        op_path(&ts.name, pos),
                        format!(
                            "alloc_rule in `{}` op {pos} is claimed by {} rendezvous ops \
                             ({many:?}); a lane returns exactly once",
                            ts.name,
                            many.len()
                        ),
                    ));
                }
            }
        }
    }
}

/// Interface family beyond the body-structure arity checks: event
/// payload widths read by conditions, and extern declarations.
pub(super) fn interfaces(spec: &Spec, report: &mut Report) {
    // Max payload arity statically emitted per label (None = no body emit).
    let mut payload_arity: Vec<Option<usize>> = vec![None; spec.labels().len()];
    let mut extern_used = vec![false; spec.externs().len()];
    for ts in spec.task_sets() {
        for op in &ts.body {
            match op {
                BodyOp::Emit { label, payload, .. } => {
                    let e = payload_arity[label.0].get_or_insert(0);
                    *e = (*e).max(payload.len());
                }
                BodyOp::Extern { ext, .. } => extern_used[ext.0] = true,
                _ => {}
            }
        }
    }
    for r in spec.rules() {
        for (ci, c) in r.clauses.iter().enumerate() {
            let bound = match c.event {
                // MinWaiting broadcasts the minimum task's rule params.
                EventPat::MinWaiting => Some(r.n_params as usize),
                EventPat::Label(l) => {
                    // Extern-emitted payloads are not statically known.
                    if payload_arity[l.0].is_none() && !spec.externs().is_empty() {
                        None
                    } else {
                        Some(payload_arity[l.0].unwrap_or(0))
                    }
                }
            };
            let Some(bound) = bound else { continue };
            let mut worst: Option<u8> = None;
            each_event_field(&c.condition, &mut |n| {
                if n as usize >= bound {
                    worst = Some(worst.map_or(n, |w| w.max(n)));
                }
            });
            if let Some(n) = worst {
                report.push(
                    Diagnostic::new(
                        Lint::EventFieldOutOfRange,
                        format!("rule:{}/clause:{ci}", r.name),
                        format!(
                            "condition reads ev[{n}] but the event carries only {bound} \
                             word(s); the wire reads as ground (0)",

                        ),
                    )
                    .hint("widen the emit payload or fix the field index"),
                );
            }
        }
    }
    for (i, used) in extern_used.iter().enumerate() {
        if !used {
            report.push(
                Diagnostic::new(
                    Lint::UnusedExtern,
                    format!("extern:{}", spec.externs()[i].name),
                    format!(
                        "extern core `{}` is declared but never invoked",
                        spec.externs()[i].name
                    ),
                )
                .hint("remove the declaration or call it with call_extern"),
            );
        }
    }
}

/// Visits every `EventField(n)` index in a condition expression.
fn each_event_field(e: &crate::expr::Expr, f: &mut impl FnMut(u8)) {
    use crate::expr::Expr;
    match e {
        Expr::EventField(n) => f(*n),
        Expr::Bin(_, a, b) => {
            each_event_field(a, f);
            each_event_field(b, f);
        }
        Expr::Not(x) => each_event_field(x, f),
        Expr::Const(_) | Expr::Param(_) | Expr::EventIsEarlier | Expr::EventSameIndex => {}
    }
}
