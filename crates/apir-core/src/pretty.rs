//! Pretty-printer: renders a specification as readable pseudo-code.
//!
//! Useful for documentation, debugging and diffing specifications; the
//! `export_bdfg` example prints both this view and the DOT graph.

use crate::op::{BodyOp, StoreKind};
use crate::rule::{EventPat, RuleAction, RuleMode};
use crate::spec::Spec;
use std::fmt::Write as _;

/// Renders the whole spec.
pub fn render(spec: &Spec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "application {} {{", spec.name());
    for (name, cap) in spec.regions() {
        let _ = writeln!(out, "  region {name}[{cap}];");
    }
    for (i, r) in spec.rules().iter().enumerate() {
        let mode = match r.mode {
            RuleMode::Immediate => "speculative",
            RuleMode::Waiting => "coordinative",
        };
        let _ = writeln!(
            out,
            "  {mode} rule {}(p0..p{}) {{  // #{i}",
            r.name, r.n_params
        );
        for c in &r.clauses {
            let ev = match &c.event {
                EventPat::Label(l) => format!("on {}", spec.labels()[l.0]),
                EventPat::MinWaiting => "on min-waiting".to_string(),
            };
            let act = match c.action {
                RuleAction::Return(v) => format!("return {v}"),
                RuleAction::CountDown => "countdown".to_string(),
            };
            let _ = writeln!(out, "    {ev} if {} do {act};", c.condition);
        }
        let _ = writeln!(out, "    otherwise return {};", r.otherwise);
        if let Some(p) = r.countdown_param {
            let _ = writeln!(out, "    countdown from p{p};");
        }
        let _ = writeln!(out, "  }}");
    }
    for ts in spec.task_sets() {
        let kind = match ts.kind {
            crate::spec::TaskSetKind::ForAll => "for-all",
            crate::spec::TaskSetKind::ForEach => "for-each",
        };
        let _ = writeln!(
            out,
            "  {kind} task {}({}) @level {} {{",
            ts.name,
            ts.field_names.join(", "),
            ts.level
        );
        for (pos, op) in ts.body.iter().enumerate() {
            let _ = writeln!(out, "    v{pos} = {};", render_op(spec, ts, op));
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

fn render_op(spec: &Spec, ts: &crate::spec::TaskSetDecl, op: &BodyOp) -> String {
    let v = |r: &crate::op::ValRef| format!("v{}", r.pos());
    let vs = |rs: &[crate::op::ValRef]| rs.iter().map(&v).collect::<Vec<_>>().join(", ");
    let guard = |g: &Option<crate::op::ValRef>| match g {
        Some(g) => format!(" if {}", v(g)),
        None => String::new(),
    };
    let region = |r: &crate::spec::RegionId| spec.regions()[r.0].0.clone();
    match op {
        BodyOp::Field(n) => format!(
            "field {}",
            ts.field_names
                .get(*n as usize)
                .cloned()
                .unwrap_or_else(|| format!("#{n}"))
        ),
        BodyOp::IndexComp(l) => format!("index[{l}]"),
        BodyOp::Const(c) => format!("{c}"),
        BodyOp::Alu(o, a, b) => format!("{} {o:?} {}", v(a), v(b)),
        BodyOp::Select {
            cond,
            if_true,
            if_false,
        } => format!("{} ? {} : {}", v(cond), v(if_true), v(if_false)),
        BodyOp::Load { region: r, addr } => format!("load {}[{}]", region(r), v(addr)),
        BodyOp::Store {
            region: r,
            addr,
            value,
            kind,
            guard: g,
        } => {
            let k = match kind {
                StoreKind::Plain => "store",
                StoreKind::Min => "store-min",
                StoreKind::Cas { .. } => "store-cas",
                StoreKind::Add => "fetch-add",
            };
            format!("{k} {}[{}] = {}{}", region(r), v(addr), v(value), guard(g))
        }
        BodyOp::Enqueue {
            task_set,
            fields,
            guard: g,
        } => format!(
            "enqueue {}({}){}",
            spec.task_sets()[task_set.0].name,
            vs(fields),
            guard(g)
        ),
        BodyOp::EnqueueRange {
            task_set,
            lo,
            hi,
            extra,
            guard: g,
        } => format!(
            "expand {}[{}..{}]({}){}",
            spec.task_sets()[task_set.0].name,
            v(lo),
            v(hi),
            vs(extra),
            guard(g)
        ),
        BodyOp::Requeue { fields, guard: g } => {
            format!("requeue({}){}", vs(fields), guard(g))
        }
        BodyOp::AllocRule {
            rule,
            params,
            guard: g,
        } => format!(
            "alloc-rule {}({}){}",
            spec.rules()[rule.0].name,
            vs(params),
            guard(g)
        ),
        BodyOp::Rendezvous {
            rule_instance,
            guard: g,
        } => format!("rendezvous {}{}", v(rule_instance), guard(g)),
        BodyOp::Emit {
            label,
            payload,
            guard: g,
        } => format!(
            "emit {}({}){}",
            spec.labels()[label.0],
            vs(payload),
            guard(g)
        ),
        BodyOp::Extern {
            ext,
            args,
            guard: g,
        } => format!(
            "extern {}({}){}",
            spec.externs()[ext.0].name,
            vs(args),
            guard(g)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::AluOp;
    use crate::rule::RuleDecl;
    use crate::spec::TaskSetKind;

    #[test]
    fn renders_all_constructs() {
        let mut s = Spec::new("demo");
        let r = s.region("mem", 64);
        let l = s.label("commit");
        let rule = s.rule(RuleDecl::new_waiting("w", 1, true).on_min_waiting(
            crate::expr::dsl::eq(crate::expr::dsl::ev(0), crate::expr::dsl::param(0)),
            crate::rule::RuleAction::Return(true),
        ));
        let child = s.task_set("child", TaskSetKind::ForAll, 2, &["i"]);
        let parent = s.task_set("parent", TaskSetKind::ForEach, 1, &["lo", "hi"]);
        {
            let mut b = s.body(child);
            let i = b.field(0);
            let one = b.konst(1);
            let j = b.alu(AluOp::Add, i, one);
            let h = b.alloc_rule(rule, &[i]);
            let rv = b.rendezvous(h);
            let won = b.store_min(r, i, j, Some(rv));
            b.emit(l, &[i], Some(won));
            b.requeue(&[i], Some(won));
            b.finish();
        }
        {
            let mut b = s.body(parent);
            let lo = b.field(0);
            let hi = b.field(1);
            b.enqueue_range(child, lo, hi, &[], None);
            b.enqueue(parent, &[lo, hi], None);
            b.finish();
        }
        let s = s.build().unwrap();
        let text = render(&s);
        for needle in [
            "application demo",
            "region mem[64]",
            "coordinative rule w",
            "on min-waiting",
            "otherwise return true",
            "for-all task child(i)",
            "for-each task parent(lo, hi)",
            "store-min mem[",
            "emit commit",
            "requeue(",
            "alloc-rule w(",
            "rendezvous",
            "expand child[",
            "enqueue parent(",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn field_names_used_when_available() {
        let mut s = Spec::new("f");
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["vertex"]);
        let mut b = s.body(ts);
        b.field(0);
        b.finish();
        let s = s.build().unwrap();
        assert!(render(&s).contains("field vertex"));
    }
}
