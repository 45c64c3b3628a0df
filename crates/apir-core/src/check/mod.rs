//! Static analysis of specifications and BDFGs with structured diagnostics.
//!
//! The paper's correctness story rests on properties that can be checked
//! *before* anything executes: every aggressive rule must be able to
//! deliver a verdict (liveness, Section 3), the lowered Boolean Dataflow
//! Graph must be well-formed (balanced switch/steer, no dangling channels,
//! Section 4), and speculative rules imply memory-conflict hazards that are
//! otherwise only caught at runtime. This module is the analysis pass that
//! enforces them: a multi-lint analyzer over [`Spec`] and [`Bdfg`]
//! producing [`Diagnostic`]s with stable `APIRxxx` codes, severities and
//! entity paths.
//!
//! Analysis families (stable code ranges):
//!
//! | Range     | Family |
//! |-----------|--------|
//! | `APIR0xx` | rule liveness (the obligatory `otherwise`, countdown sanity, recirculation) |
//! | `APIR1xx` | body structure (SSA form, rendezvous pairing, widths) |
//! | `APIR2xx` | BDFG well-formedness (channels, reachability, token balance, cycles) |
//! | `APIR3xx` | interface contracts (arities, labels, externs) |
//! | `APIR4xx` | memory hazards (spec-level race detection for speculation) |
//! | `APIR5xx` | fabric configuration sanity (structural resources, watchdog ordering, fault rates) |
//! | `APIR6xx` | semantic spec×config analysis ([`analysis`]: occupancy bounds, deadlock certification) |
//!
//! [`Spec::build`](crate::spec::Spec::build) and
//! [`Bdfg::validate`](crate::bdfg::Bdfg::validate) are thin wrappers over
//! [`check_spec`] and [`Bdfg::check`](crate::bdfg::Bdfg::check); the
//! `apir-check` crate packages the same passes as the `apir-lint` CLI.

pub mod analysis;
mod bdfg_lints;
mod hazard;
mod spec_lints;

use crate::bdfg::Bdfg;
use crate::spec::Spec;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a property worth knowing, not a defect.
    Info,
    /// Suspicious: likely a performance or robustness problem.
    Warn,
    /// Definitely broken: the spec/graph must not be synthesized.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric code never changes meaning across
/// versions; retired lints leave holes rather than being reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lint {
    /// `APIR001` — a waiting rule can never return `true`: its `otherwise`
    /// is `false`, no clause does `Return(true)` and it has no countdown.
    /// Any token gated on the rendezvous result is dead and a retry loop
    /// keyed on it livelocks.
    WaitingRuleNeverTrue,
    /// `APIR002` — an unguarded `Requeue`: the task recirculates through
    /// its own queue unconditionally and can never retire.
    UnguardedRequeue,
    /// `APIR003` — a rule's countdown parameter index is outside its
    /// parameter arity.
    CountdownOutOfRange,
    /// `APIR004` — a clause fires `CountDown` but the rule declares no
    /// countdown parameter; the lane counts down from the default of 1.
    CountdownWithoutInit,
    /// `APIR005` — a waiting rule has no clauses: every parent stalls
    /// until it is the minimum live task, serializing the task set.
    WaitingRuleNoClauses,
    /// `APIR101` — a value reference points at or after its own op
    /// (violates SSA straight-line form).
    ForwardReference,
    /// `APIR102` — a rendezvous consumes a value that is not an
    /// `AllocRule` result.
    RendezvousWithoutAlloc,
    /// `APIR103` — a task set body was never provided.
    EmptyBody,
    /// `APIR104` — a task set nesting level is out of range.
    BadLevel,
    /// `APIR105` — fields / params / payload exceed the fixed token width.
    WidthExceeded,
    /// `APIR201` — a BDFG edge endpoint does not name an actor.
    DanglingEdge,
    /// `APIR202` — a duplicate structural (queue/event/rule) channel.
    DuplicateEdge,
    /// `APIR203` — a queue-pop actor has no queue channel feeding it.
    UnfedQueuePop,
    /// `APIR204` — an actor is unreachable from every task input (dead
    /// hardware after synthesis).
    UnreachableActor,
    /// `APIR205` — a cycle whose actors include no decision point (no
    /// guarded switch, no rule engine): a static deadlock/livelock risk.
    UndecidedCycle,
    /// `APIR206` — token imbalance on a rule path: an allocated lane is
    /// never claimed by a rendezvous, or is claimed more than once.
    UnbalancedRuleTokens,
    /// `APIR207` — switch/steer inconsistency: an `AllocRule` and its
    /// matching `Rendezvous` carry different guards, so the steer may wait
    /// on a lane the switch never allocated.
    GuardMismatch,
    /// `APIR301` — enqueue/requeue/expand field count does not match the
    /// target task set arity.
    EnqueueArityMismatch,
    /// `APIR302` — `AllocRule` parameter count does not match the rule
    /// declaration.
    RuleParamArityMismatch,
    /// `APIR303` — a rule listens on an event label that no body emits
    /// (error when no extern core could emit it either).
    UnemittedLabel,
    /// `APIR304` — a rule condition reads an event payload word beyond
    /// what any emitter provides (the wire reads as ground).
    EventFieldOutOfRange,
    /// `APIR305` — an extern core is declared but never invoked.
    UnusedExtern,
    /// `APIR401` — two stores to one region from concurrently-live tasks,
    /// at least one a plain (last-write-wins) store, with no rule
    /// rendezvous guarding either: a lost-update race.
    StoreStoreRace,
    /// `APIR402` — a load and a plain store to one region from
    /// concurrently-live tasks with no rendezvous guard: the load may
    /// observe any interleaving.
    LoadStoreRace,
    /// `APIR403` — concurrent accesses arbitrated by an atomic commit
    /// unit (StoreMin/CAS/fetch-add) or issued by one op racing itself;
    /// benign by construction but worth knowing.
    ArbitratedRace,
    /// `APIR501` — a structural fabric resource is zero (queue banks,
    /// queue capacity, pipelines, station windows, event-bus width): the
    /// accelerator cannot move a single token.
    ZeroFabricResource,
    /// `APIR502` — `rendezvous_timeout >= deadlock_cycles`: the bounce
    /// path can never fire before the watchdog declares deadlock, so
    /// station-full stalls are unrecoverable. (A waiting rendezvous
    /// entry inserted at cycle `t` bounces at
    /// `t + rendezvous_timeout + 1`; the watchdog expires once
    /// `cycle - last_progress > deadlock_cycles`.)
    WatchdogMisordered,
    /// `APIR503` — a fault-injection rate is outside `[0, 1]` or NaN.
    /// Lane/bank rates are *per-trial* probabilities: they are drawn
    /// once per fault window per engine/queue, not per cycle.
    FaultRateOutOfRange,
    /// `APIR504` — fault injection enabled with a degenerate plan (zero
    /// fault window, or drops enabled with a zero retry timeout).
    ///
    /// Windowed lane/bank trials run at cycles ≡ `1 (mod fault_window)`
    /// — cycles `1, fw+1, 2fw+1, ...` — and at *every* cycle when
    /// `fault_window == 1` (the residue is `1 % 1 == 0`). A window of
    /// zero means no cycle ever qualifies, so the configured rates
    /// silently never apply; that is the degenerate plan this lint
    /// rejects. `fault_window == 1` is legal (maximum trial pressure),
    /// not degenerate.
    DegenerateFaultPlan,
    /// `APIR601` — the recirculation reserve a recirculating task set
    /// needs (pipeline latches plus every station slot) exceeds half the
    /// queue capacity, so the fabric's clamp weakens the requeue-always-
    /// succeeds guarantee. Informational on its own: the cycle
    /// certification escalates the consequence (`APIR611` when a rule
    /// escape rescues the loop, `APIR613` when nothing does).
    ReserveOverflow,
    /// `APIR602` — the clamped recirculation reserve cannot hold even one
    /// in-flight token per pipeline replica of a recirculating set: a full
    /// queue deadlocks against a full pipeline with certainty once enough
    /// tasks recirculate.
    CapacityInfeasible,
    /// `APIR603` — a queue's statically-derived peak activation demand
    /// exceeds the capacity left for ordinary (non-recirculation) pushes;
    /// producers will backpressure on `queue_full`.
    OccupancyOverCapacity,
    /// `APIR604` — a queue's occupancy bound was widened to the physical
    /// capacity because token production is not statically bounded
    /// (recirculation, expansion, an extern core, or a production cycle).
    OccupancyWidened,
    /// `APIR610` — a dependency cycle certified buffered-safe: it is one
    /// task set's own recirculation loop and the configured reserve covers
    /// every in-flight token, so the loop can always drain.
    CycleBufferedSafe,
    /// `APIR611` — a dependency cycle through a rule engine: the
    /// obligatory `otherwise` (minimum-live-task broadcast) plus the
    /// rendezvous bounce rescue it, provided the watchdog ordering of
    /// `APIR502` holds.
    CycleWatchdogRescuable,
    /// `APIR612` — a dependency cycle whose only exits are data-dependent
    /// guards, with no rule engine and no reserve guarantee: deadlock
    /// freedom cannot be certified statically.
    CycleUncertified,
    /// `APIR613` — a dependency cycle with no decision point at all and
    /// no reserve coverage: neither steering, nor the watchdog, nor
    /// buffering can break it. The config-aware escalation of `APIR205`.
    CycleUnsound,
    /// `APIR505` — `max_rollbacks > 0` with `checkpoint_interval == 0`:
    /// rollback recovery is armed but no checkpoint will ever exist to
    /// restore from, so a terminal link failure still aborts the run.
    RollbackWithoutCheckpoint,
    /// `APIR506` — `checkpoint_interval >= max_cycles`: only the initial
    /// cycle-0 checkpoint can ever be taken, so every rollback replays
    /// the entire run from the beginning.
    CheckpointNeverFires,
    /// `APIR507` — `max_rollbacks > 0` with fault injection disabled:
    /// harmless, but the rollback machinery can never trigger.
    RollbackWithoutFaults,
}

impl Lint {
    /// The stable `APIRxxx` code string.
    pub fn code(self) -> &'static str {
        match self {
            Lint::WaitingRuleNeverTrue => "APIR001",
            Lint::UnguardedRequeue => "APIR002",
            Lint::CountdownOutOfRange => "APIR003",
            Lint::CountdownWithoutInit => "APIR004",
            Lint::WaitingRuleNoClauses => "APIR005",
            Lint::ForwardReference => "APIR101",
            Lint::RendezvousWithoutAlloc => "APIR102",
            Lint::EmptyBody => "APIR103",
            Lint::BadLevel => "APIR104",
            Lint::WidthExceeded => "APIR105",
            Lint::DanglingEdge => "APIR201",
            Lint::DuplicateEdge => "APIR202",
            Lint::UnfedQueuePop => "APIR203",
            Lint::UnreachableActor => "APIR204",
            Lint::UndecidedCycle => "APIR205",
            Lint::UnbalancedRuleTokens => "APIR206",
            Lint::GuardMismatch => "APIR207",
            Lint::EnqueueArityMismatch => "APIR301",
            Lint::RuleParamArityMismatch => "APIR302",
            Lint::UnemittedLabel => "APIR303",
            Lint::EventFieldOutOfRange => "APIR304",
            Lint::UnusedExtern => "APIR305",
            Lint::StoreStoreRace => "APIR401",
            Lint::LoadStoreRace => "APIR402",
            Lint::ArbitratedRace => "APIR403",
            Lint::ZeroFabricResource => "APIR501",
            Lint::WatchdogMisordered => "APIR502",
            Lint::FaultRateOutOfRange => "APIR503",
            Lint::DegenerateFaultPlan => "APIR504",
            Lint::RollbackWithoutCheckpoint => "APIR505",
            Lint::CheckpointNeverFires => "APIR506",
            Lint::RollbackWithoutFaults => "APIR507",
            Lint::ReserveOverflow => "APIR601",
            Lint::CapacityInfeasible => "APIR602",
            Lint::OccupancyOverCapacity => "APIR603",
            Lint::OccupancyWidened => "APIR604",
            Lint::CycleBufferedSafe => "APIR610",
            Lint::CycleWatchdogRescuable => "APIR611",
            Lint::CycleUncertified => "APIR612",
            Lint::CycleUnsound => "APIR613",
        }
    }

    /// Default severity of the lint (individual diagnostics may be
    /// downgraded, e.g. `APIR303` with externs present).
    pub fn default_severity(self) -> Severity {
        match self {
            Lint::WaitingRuleNeverTrue
            | Lint::CountdownOutOfRange
            | Lint::ForwardReference
            | Lint::RendezvousWithoutAlloc
            | Lint::EmptyBody
            | Lint::BadLevel
            | Lint::WidthExceeded
            | Lint::DanglingEdge
            | Lint::UnfedQueuePop
            | Lint::UnbalancedRuleTokens
            | Lint::GuardMismatch
            | Lint::EnqueueArityMismatch
            | Lint::RuleParamArityMismatch
            | Lint::UnemittedLabel
            | Lint::StoreStoreRace
            | Lint::ZeroFabricResource
            | Lint::WatchdogMisordered
            | Lint::FaultRateOutOfRange
            | Lint::DegenerateFaultPlan
            | Lint::CapacityInfeasible
            | Lint::RollbackWithoutCheckpoint
            | Lint::CycleUnsound => Severity::Error,
            Lint::UnguardedRequeue
            | Lint::CountdownWithoutInit
            | Lint::DuplicateEdge
            | Lint::UnreachableActor
            | Lint::UndecidedCycle
            | Lint::EventFieldOutOfRange
            | Lint::UnusedExtern
            | Lint::LoadStoreRace
            | Lint::OccupancyOverCapacity
            | Lint::CheckpointNeverFires
            | Lint::CycleUncertified => Severity::Warn,
            Lint::WaitingRuleNoClauses
            | Lint::ArbitratedRace
            | Lint::ReserveOverflow
            | Lint::OccupancyWidened
            | Lint::CycleBufferedSafe
            | Lint::RollbackWithoutFaults
            | Lint::CycleWatchdogRescuable => Severity::Info,
        }
    }

    /// One-line description for the codes table.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::WaitingRuleNeverTrue => "waiting rule can never return true",
            Lint::UnguardedRequeue => "unconditional task recirculation",
            Lint::CountdownOutOfRange => "countdown parameter out of range",
            Lint::CountdownWithoutInit => "CountDown action without countdown parameter",
            Lint::WaitingRuleNoClauses => "waiting rule with no clauses serializes its parents",
            Lint::ForwardReference => "value reference at or after its producer",
            Lint::RendezvousWithoutAlloc => "rendezvous does not consume an alloc_rule",
            Lint::EmptyBody => "task set body never provided",
            Lint::BadLevel => "task set nesting level out of range",
            Lint::WidthExceeded => "token/parameter width limit exceeded",
            Lint::DanglingEdge => "BDFG channel endpoint names no actor",
            Lint::DuplicateEdge => "duplicate structural BDFG channel",
            Lint::UnfedQueuePop => "queue pop with no feeding push",
            Lint::UnreachableActor => "actor unreachable from task inputs",
            Lint::UndecidedCycle => "cycle with no decision actor (deadlock risk)",
            Lint::UnbalancedRuleTokens => "rule lane allocated but not claimed exactly once",
            Lint::GuardMismatch => "alloc_rule/rendezvous guard mismatch (switch vs steer)",
            Lint::EnqueueArityMismatch => "enqueue field count vs task set arity",
            Lint::RuleParamArityMismatch => "alloc_rule parameter count vs declaration",
            Lint::UnemittedLabel => "rule listens on a label nothing emits",
            Lint::EventFieldOutOfRange => "condition reads event payload beyond emitter arity",
            Lint::UnusedExtern => "extern core declared but never invoked",
            Lint::StoreStoreRace => "unguarded store/store race on a region",
            Lint::LoadStoreRace => "unguarded load/store race on a region",
            Lint::ArbitratedRace => "concurrent access arbitrated by an atomic commit unit",
            Lint::ZeroFabricResource => "fabric config with a zero structural resource",
            Lint::WatchdogMisordered => "rendezvous timeout not below the deadlock window",
            Lint::FaultRateOutOfRange => "fault injection rate outside [0, 1]",
            Lint::DegenerateFaultPlan => "fault injection enabled with a degenerate plan",
            Lint::RollbackWithoutCheckpoint => "rollbacks armed with no checkpoint interval",
            Lint::CheckpointNeverFires => "checkpoint interval at or above max_cycles",
            Lint::RollbackWithoutFaults => "rollbacks armed with fault injection disabled",
            Lint::ReserveOverflow => "recirculation reserve demand exceeds the capacity clamp",
            Lint::CapacityInfeasible => "reserve cannot hold one in-flight token per pipeline",
            Lint::OccupancyOverCapacity => {
                "static activation demand exceeds ordinary-push headroom"
            }
            Lint::OccupancyWidened => "occupancy bound widened to capacity (unbounded production)",
            Lint::CycleBufferedSafe => {
                "dependency cycle certified safe by the recirculation reserve"
            }
            Lint::CycleWatchdogRescuable => {
                "dependency cycle rescued by otherwise/bounce watchdog path"
            }
            Lint::CycleUncertified => "dependency cycle escapes only via data-dependent guards",
            Lint::CycleUnsound => "dependency cycle with no decision point and no reserve coverage",
        }
    }

    /// Every lint, in code order (drives the CLI codes table).
    pub fn all() -> &'static [Lint] {
        &[
            Lint::WaitingRuleNeverTrue,
            Lint::UnguardedRequeue,
            Lint::CountdownOutOfRange,
            Lint::CountdownWithoutInit,
            Lint::WaitingRuleNoClauses,
            Lint::ForwardReference,
            Lint::RendezvousWithoutAlloc,
            Lint::EmptyBody,
            Lint::BadLevel,
            Lint::WidthExceeded,
            Lint::DanglingEdge,
            Lint::DuplicateEdge,
            Lint::UnfedQueuePop,
            Lint::UnreachableActor,
            Lint::UndecidedCycle,
            Lint::UnbalancedRuleTokens,
            Lint::GuardMismatch,
            Lint::EnqueueArityMismatch,
            Lint::RuleParamArityMismatch,
            Lint::UnemittedLabel,
            Lint::EventFieldOutOfRange,
            Lint::UnusedExtern,
            Lint::StoreStoreRace,
            Lint::LoadStoreRace,
            Lint::ArbitratedRace,
            Lint::ZeroFabricResource,
            Lint::WatchdogMisordered,
            Lint::FaultRateOutOfRange,
            Lint::DegenerateFaultPlan,
            Lint::RollbackWithoutCheckpoint,
            Lint::CheckpointNeverFires,
            Lint::RollbackWithoutFaults,
            Lint::ReserveOverflow,
            Lint::CapacityInfeasible,
            Lint::OccupancyOverCapacity,
            Lint::OccupancyWidened,
            Lint::CycleBufferedSafe,
            Lint::CycleWatchdogRescuable,
            Lint::CycleUncertified,
            Lint::CycleUnsound,
        ]
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One finding of the analyzer.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable lint identity.
    pub lint: Lint,
    /// Severity of this particular finding.
    pub severity: Severity,
    /// Entity path, e.g. `rule:refine/clause:2` or `task:update/op:3`.
    pub entity: String,
    /// Human-readable statement of the defect.
    pub message: String,
    /// Suggested fix, when one is known.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic at the lint's default severity.
    pub fn new(lint: Lint, entity: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            lint,
            severity: lint.default_severity(),
            entity: entity.into(),
            message: message.into(),
            hint: None,
        }
    }

    /// Overrides the severity.
    pub fn severity(mut self, s: Severity) -> Self {
        self.severity = s;
        self
    }

    /// Attaches a fix hint.
    pub fn hint(mut self, h: impl Into<String>) -> Self {
        self.hint = Some(h.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity,
            self.lint.code(),
            self.entity,
            self.message
        )
    }
}

impl std::error::Error for Diagnostic {}

/// The findings of one full analysis pass over one spec/graph.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Name of the analyzed specification.
    pub subject: String,
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        Report {
            subject: subject.into(),
            diags: Vec::new(),
        }
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// All diagnostics, in analysis order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Diagnostics at exactly `severity`.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(move |d| d.severity == severity)
    }

    /// Number of error-level diagnostics.
    pub fn error_count(&self) -> usize {
        self.at(Severity::Error).count()
    }

    /// Does the report contain any error-level diagnostic?
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// First error-level diagnostic, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diags.iter().find(|d| d.severity == Severity::Error)
    }

    /// Does any diagnostic carry `lint`?
    pub fn has(&self, lint: Lint) -> bool {
        self.diags.iter().any(|d| d.lint == lint)
    }

    /// Absorbs another report's diagnostics.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// Renders the report as human-readable text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== lint report: {} ==", self.subject);
        for d in &self.diags {
            let _ = writeln!(out, "{d}");
            if let Some(h) = &d.hint {
                let _ = writeln!(out, "  hint: {h}");
            }
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} info",
            self.error_count(),
            self.at(Severity::Warn).count(),
            self.at(Severity::Info).count()
        );
        out
    }

    /// Renders one machine-readable line per diagnostic:
    /// `CODE|severity|subject|entity|message|hint`.
    pub fn render_machine(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diags {
            let _ = writeln!(
                out,
                "{}|{}|{}|{}|{}|{}",
                d.lint.code(),
                d.severity,
                self.subject,
                d.entity,
                d.message.replace('|', ";"),
                d.hint.as_deref().unwrap_or("").replace('|', ";"),
            );
        }
        out
    }
}

/// Runs every spec-level analysis: body structure, interface contracts,
/// rule liveness, switch/steer balance and memory hazards.
///
/// Works on both built and not-yet-built specs (this is what
/// [`Spec::build`](crate::spec::Spec::build) delegates to).
pub fn check_spec(spec: &Spec) -> Report {
    let mut report = Report::new(spec.name());
    spec_lints::body_structure(spec, &mut report);
    spec_lints::rule_declarations(spec, &mut report);
    spec_lints::liveness(spec, &mut report);
    spec_lints::switch_steer(spec, &mut report);
    spec_lints::interfaces(spec, &mut report);
    hazard::memory_hazards(spec, &mut report);
    report
}

/// Runs only the structural BDFG family (dangling/duplicate channels,
/// unfed queue pops); needs no spec. Backs
/// [`Bdfg::validate`](crate::bdfg::Bdfg::validate).
pub fn check_bdfg_structure(bdfg: &Bdfg) -> Report {
    let mut report = Report::new("bdfg");
    bdfg_lints::structure(bdfg, &mut report);
    report
}

/// Runs every graph-level analysis on a lowered BDFG (needs the spec for
/// guard information on primitives).
pub fn check_bdfg(bdfg: &Bdfg, spec: &Spec) -> Report {
    let mut report = Report::new(spec.name());
    bdfg_lints::structure(bdfg, &mut report);
    bdfg_lints::reachability(bdfg, spec, &mut report);
    bdfg_lints::cycles(bdfg, spec, &mut report);
    report
}

/// The full pass: spec lints, then (when the spec is structurally sound
/// enough to lower) BDFG lints over the lowered graph.
pub fn check_all(spec: &Spec) -> Report {
    let mut report = check_spec(spec);
    // Lowering a structurally broken spec could panic; only proceed when
    // the body-structure family is clean.
    let lowerable = !report.diags.iter().any(|d| {
        d.severity == Severity::Error
            && matches!(
                d.lint,
                Lint::ForwardReference
                    | Lint::RendezvousWithoutAlloc
                    | Lint::EmptyBody
                    | Lint::BadLevel
                    | Lint::WidthExceeded
                    | Lint::EnqueueArityMismatch
                    | Lint::RuleParamArityMismatch
            )
    });
    if lowerable {
        let bdfg = Bdfg::lower_unchecked(spec);
        report.merge(check_bdfg(&bdfg, spec));
    }
    report
}
