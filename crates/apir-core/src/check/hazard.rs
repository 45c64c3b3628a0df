//! Memory-hazard lint: spec-level race detection for speculation.
//!
//! Aggressive pipelining executes tasks from every set concurrently, so any
//! two memory operations on one region may interleave unless a rule
//! rendezvous arbitrates them or an atomic commit unit (min/CAS/fetch-add)
//! resolves the conflict at the memory port. This pass enumerates
//! store/store and load/store pairs per region and classifies each:
//!
//! * both sites *rendezvous-governed* (a rule verdict is in the transitive
//!   operand closure, guards included) — the rule engine is the arbiter,
//!   nothing to report;
//! * both addresses resolve to distinct constants — disjoint, no conflict;
//! * plain (last-write-wins) store against another store — `APIR401` error;
//! * plain store against a load — `APIR402` warning;
//! * only atomic commit kinds involved — `APIR403` info (arbitrated by
//!   construction, but worth knowing).

use super::{Diagnostic, Lint, Report};
use crate::op::{BodyOp, StoreKind, ValRef};
use crate::spec::Spec;

/// One memory access site in some task body.
struct Site {
    /// Task set index.
    tsi: usize,
    /// Op position in the body.
    pos: usize,
    /// `None` for a load, `Some(kind)` for a store.
    kind: Option<StoreKind>,
    /// Address, when it resolves to a constant.
    caddr: Option<u64>,
    /// Is a rule rendezvous in the transitive operand closure?
    governed: bool,
}

/// Is `v`'s transitive producer closure (operands and guards) rooted in a
/// rendezvous result? Bodies are SSA and refs point strictly backwards, so
/// a simple walk terminates.
fn governed_by_rendezvous(body: &[BodyOp], v: ValRef, seen: &mut Vec<bool>) -> bool {
    if seen[v.pos()] {
        return false; // already visited (or visiting): no new path
    }
    seen[v.pos()] = true;
    match &body[v.pos()] {
        BodyOp::Rendezvous { .. } => true,
        op => op
            .operands()
            .into_iter()
            .any(|o| governed_by_rendezvous(body, o, seen)),
    }
}

fn op_governed(body: &[BodyOp], pos: usize) -> bool {
    body[pos]
        .operands()
        .into_iter()
        .any(|o| governed_by_rendezvous(body, o, &mut vec![false; body.len()]))
}

/// Resolves an address operand to a constant when it is one directly.
fn const_addr(body: &[BodyOp], v: ValRef) -> Option<u64> {
    match body[v.pos()] {
        BodyOp::Const(c) => Some(c),
        _ => None,
    }
}

fn site_name(spec: &Spec, s: &Site) -> String {
    format!("task:{}/op:{}", spec.task_sets()[s.tsi].name, s.pos)
}

fn kind_name(kind: &Option<StoreKind>) -> &'static str {
    match kind {
        None => "load",
        Some(StoreKind::Plain) => "plain store",
        Some(StoreKind::Min) => "min store",
        Some(StoreKind::Cas { .. }) => "CAS store",
        Some(StoreKind::Add) => "fetch-add",
    }
}

/// Runs the hazard analysis over every region of the spec.
pub(super) fn memory_hazards(spec: &Spec, report: &mut Report) {
    for (ri, (rname, _)) in spec.regions().iter().enumerate() {
        let mut sites: Vec<Site> = Vec::new();
        for (tsi, ts) in spec.task_sets().iter().enumerate() {
            for (pos, op) in ts.body.iter().enumerate() {
                let (kind, addr) = match op {
                    BodyOp::Load { region, addr } if region.0 == ri => (None, *addr),
                    BodyOp::Store {
                        region, addr, kind, ..
                    } if region.0 == ri => (Some(*kind), *addr),
                    _ => continue,
                };
                sites.push(Site {
                    tsi,
                    pos,
                    kind,
                    caddr: const_addr(&ts.body, addr),
                    governed: op_governed(&ts.body, pos),
                });
            }
        }
        for (i, a) in sites.iter().enumerate() {
            // A store op races *itself* across concurrent tasks of its set.
            // Atomic kinds arbitrate at the commit unit; a plain store is
            // last-write-wins, which is worth knowing but is the documented
            // semantics, not a defect.
            if matches!(a.kind, Some(StoreKind::Plain)) && !a.governed {
                report.push(Diagnostic::new(
                    Lint::ArbitratedRace,
                    site_name(spec, a),
                    format!(
                        "plain store to region `{rname}` may race itself across tasks; \
                         the last writer wins"
                    ),
                ));
            }
            for b in &sites[i + 1..] {
                if a.governed || b.governed {
                    continue; // the rule engine arbitrates this pair
                }
                if let (Some(ca), Some(cb)) = (a.caddr, b.caddr) {
                    if ca != cb {
                        continue; // statically disjoint addresses
                    }
                }
                let pair = format!(
                    "{} here and {} at {}",
                    kind_name(&a.kind),
                    kind_name(&b.kind),
                    site_name(spec, b)
                );
                match (&a.kind, &b.kind) {
                    (Some(ka), Some(kb)) => {
                        let plain =
                            matches!(ka, StoreKind::Plain) || matches!(kb, StoreKind::Plain);
                        if plain {
                            report.push(
                                Diagnostic::new(
                                    Lint::StoreStoreRace,
                                    site_name(spec, a),
                                    format!(
                                        "unguarded store/store race on region `{rname}`: {pair}"
                                    ),
                                )
                                .hint(
                                    "guard one side with a rule rendezvous or use an atomic \
                                     commit kind (min/CAS/fetch-add)",
                                ),
                            );
                        } else {
                            report.push(Diagnostic::new(
                                Lint::ArbitratedRace,
                                site_name(spec, a),
                                format!(
                                    "concurrent atomic stores on region `{rname}` ({pair}) \
                                     are arbitrated by the commit unit"
                                ),
                            ));
                        }
                    }
                    (Some(k), None) | (None, Some(k)) => {
                        if matches!(k, StoreKind::Plain) {
                            report.push(
                                Diagnostic::new(
                                    Lint::LoadStoreRace,
                                    site_name(spec, a),
                                    format!(
                                        "unguarded load/store race on region `{rname}`: {pair}; \
                                         the load may observe any interleaving"
                                    ),
                                )
                                .hint(
                                    "guard the store with a rule rendezvous if the load's \
                                       task depends on ordering",
                                ),
                            );
                        }
                    }
                    (None, None) => {} // load/load is benign
                }
            }
        }
    }
}
