//! The synthesized accelerator: pipelines + queues + rule engines + memory.
//!
//! This is the Model-of-Structure of Figure 7: task queues pop tokens into
//! replicated task pipelines; pipelines are chains of primitive-operation
//! stages generated from the BDFG; load/store units and rendezvous points
//! complete out of order through small matching stations while every other
//! stage is in-order; rule engines steer tokens; the host seeds initial
//! tasks (incrementally, when queues are smaller than the seed set).
//!
//! Execution is cycle-by-cycle and *execution-driven*: memory operations
//! act on the real [`apir_core::MemImage`] at completion, so the final
//! image can be compared against the sequential interpreter.

use crate::fault::{FaultPlan, FaultStats};
use crate::memory::{MemStats, MemorySubsystem};
use crate::queue::TaskQueue;
use crate::rules::{ClaimOutcome, RuleEngine, RuleEngineStats};
use crate::snapshot::{self, SNAPSHOT_SCHEMA};
use crate::types::{to_fields, Ctx, EventMsg, MemReq, TaskToken, WriteKind};
use crate::FabricConfig;
use apir_core::op::{BodyOp, StoreKind, ValRef};
use apir_core::spec::{ExternIn, RuleId, Spec, TaskSetId};
use apir_core::{IndexTuple, ProgramInput, RegionId, MAX_FIELDS};
use apir_sim::delay::OutOfOrderStation;
use apir_sim::fifo::Fifo;
use apir_sim::metrics::MetricsSnapshot;
use apir_sim::seconds_from_cycles;
use apir_sim::stats::{Activity, ActivityTracker, StallCause, UtilizationSummary};
use apir_sim::timeline::{Timeline, TimelineRecorder, TimelineSample};
use apir_sim::trace::{CompId, EventTrace};
use apir_util::json::Json;
use apir_util::snap::{self, Snap};
use apir_util::snap_fields;
use observe::Samples;
use std::collections::VecDeque;
use std::fmt;

mod observe;
#[cfg(test)]
mod tests;

/// Simulation failure. The runtime variants carry the partial
/// [`FabricReport`] at the point of failure (metrics, trace, memory
/// image, diagnostics) so a failed campaign can still be post-mortemed
/// with the same tooling as a successful run.
#[derive(Debug)]
pub enum FabricError {
    /// No forward progress for the configured window, even after the
    /// watchdog escalation (forced `otherwise` + station flush).
    Deadlock {
        /// Cycle at which deadlock was declared.
        cycle: u64,
        /// Human-readable state summary.
        diagnostics: String,
        /// State of the fabric when the deadlock was declared.
        report: Box<FabricReport>,
    },
    /// The run exceeded `max_cycles`.
    MaxCycles {
        /// The cycle limit that was hit.
        cycle: u64,
        /// State of the fabric when the limit was hit.
        report: Box<FabricReport>,
    },
    /// A QPI transfer was dropped more than `faults.max_retries` times
    /// (only possible under an injected-fault campaign).
    LinkFailed {
        /// Cycle of the final drop.
        cycle: u64,
        /// Human-readable failure summary.
        diagnostics: String,
        /// State of the fabric when the link was declared failed.
        report: Box<FabricReport>,
    },
    /// The static analyzer found error-level diagnostics in the spec; the
    /// fabric refuses to simulate a graph it knows is broken.
    RejectedByLint {
        /// The rendered lint report.
        report: String,
    },
}

impl FabricError {
    /// The partial report captured at the failure point, when there is
    /// one (`RejectedByLint` fails before the first cycle).
    pub fn partial_report(&self) -> Option<&FabricReport> {
        match self {
            FabricError::Deadlock { report, .. }
            | FabricError::MaxCycles { report, .. }
            | FabricError::LinkFailed { report, .. } => Some(report),
            FabricError::RejectedByLint { .. } => None,
        }
    }

    /// Stable terminal-cause tag for report JSON (`terminated.kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            FabricError::Deadlock { .. } => "deadlock",
            FabricError::MaxCycles { .. } => "max_cycles",
            FabricError::LinkFailed { .. } => "link_failed",
            FabricError::RejectedByLint { .. } => "rejected_by_lint",
        }
    }

    /// Cycle at which the run terminated, when it got that far
    /// (`RejectedByLint` fails before the first cycle).
    pub fn failure_cycle(&self) -> Option<u64> {
        match self {
            FabricError::Deadlock { cycle, .. }
            | FabricError::MaxCycles { cycle, .. }
            | FabricError::LinkFailed { cycle, .. } => Some(*cycle),
            FabricError::RejectedByLint { .. } => None,
        }
    }
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Deadlock {
                cycle, diagnostics, ..
            } => {
                write!(f, "deadlock at cycle {cycle}: {diagnostics}")
            }
            FabricError::MaxCycles { cycle, .. } => write!(f, "exceeded max cycles ({cycle})"),
            FabricError::LinkFailed {
                cycle, diagnostics, ..
            } => {
                write!(f, "link failed at cycle {cycle}: {diagnostics}")
            }
            FabricError::RejectedByLint { report } => {
                write!(f, "spec rejected by static analysis:\n{report}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Results of a fabric run.
#[derive(Clone, Debug)]
pub struct FabricReport {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Wall time at the configured clock (`mem.clock_mhz`).
    pub seconds: f64,
    /// Tasks retired per task set.
    pub retired: Vec<u64>,
    /// Rendezvous that returned `false` (squashed tokens).
    pub squashes: u64,
    /// Tokens recirculated by `Requeue`.
    pub requeues: u64,
    /// Coordinative waits bounced by the reservation-station timeout.
    pub bounces: u64,
    /// Memory subsystem statistics.
    pub mem: MemStats,
    /// Per-rule-engine statistics.
    pub rules: Vec<RuleEngineStats>,
    /// The paper's pipeline utilization rate (Figure 10).
    pub utilization: f64,
    /// Number of primitive operations instantiated.
    pub primitive_ops: usize,
    /// Peak queue occupancy per task set.
    pub queue_peaks: Vec<usize>,
    /// Extern core invocations.
    pub extern_calls: u64,
    /// The final memory image.
    pub mem_image: apir_core::MemImage,
    /// Every metric, rendered from the final state (stable `fabric.*`,
    /// `queue.*`, `mem.*`, `rule.*`, `fault.*` keys — see README
    /// §Observability).
    pub metrics: MetricsSnapshot,
    /// Per-primitive-operation busy/stall/idle totals.
    pub activity: UtilizationSummary,
    /// Fault-injection and recovery totals (all zero on a fault-free
    /// run; also exported as the `fault.*` metric keys).
    pub faults: FaultStats,
    /// The structured event trace, when `trace_capacity > 0`.
    pub trace: Option<EventTrace>,
    /// Windowed activity/memory timeline, when `timeline_window > 0`.
    pub timeline: Option<Timeline>,
    /// Rollback-and-replay recovery summary; present exactly when
    /// recovery was armed (`max_rollbacks > 0`), even if no link
    /// failure ever triggered it.
    pub rollbacks: Option<RollbackSummary>,
}

/// Totals for the checkpoint/rollback recovery path: how often a
/// terminal link failure was converted into a rewind-and-replay, and
/// how much simulated work was re-executed to get there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RollbackSummary {
    /// Rollbacks performed (≤ `FabricConfig::max_rollbacks`).
    pub count: u64,
    /// Total cycles re-executed (Σ failure cycle − checkpoint cycle).
    pub replayed_cycles: u64,
    /// One `(fail_cycle, resume_cycle)` pair per rollback, in order.
    pub events: Vec<(u64, u64)>,
}

/// Outcome of [`Fabric::run_until`]: the run either finished before the
/// target cycle or paused at it with work still in flight.
#[allow(clippy::large_enum_variant)]
pub enum RunSplit {
    /// The run completed before reaching the target cycle.
    Done(Box<FabricReport>),
    /// The target cycle was reached; the paused fabric can be
    /// snapshotted with [`Fabric::snapshot`] or resumed with
    /// [`Fabric::run`] / [`Fabric::run_until`].
    Paused(Box<Fabric>),
}

impl FabricReport {
    /// Total retired tasks.
    pub fn total_retired(&self) -> u64 {
        self.retired.iter().sum()
    }
}

/// A stage snapshots its station, cursor and activity; the op and its
/// port are structure.
#[derive(Clone)]
struct Stage {
    op: BodyOp,
    /// Response-routing port for Load/Store/Extern/Rendezvous stages.
    port: Option<u32>,
    /// Rule engine a Rendezvous stage claims its verdict from (the rule
    /// of the `AllocRule` it names); `None` for every other op.
    rule: Option<RuleId>,
    station: Option<OutOfOrderStation<Box<Ctx>>>,
    /// Progress cursor of an in-flight `EnqueueRange`.
    expand_pos: Option<u64>,
    tracker: ActivityTracker,
    /// Trace component of this stage (meaningful only when tracing).
    comp: CompId,
    /// Last activity state recorded to the trace (transition detection).
    last_activity: Option<Activity>,
    /// Cause of the stall run the stage is in (see `stall_from`).
    /// Derived: read only while a run is open, and a load opens none.
    last_stall_cause: StallCause,
    /// While the stage is in a stall run, the first cycle of it that
    /// `tracker` does not count yet; every cycle from there repeats
    /// `last_stall_cause` until the next visit. Derived: never saved,
    /// cleared on load.
    stall_from: Option<u64>,
}
snap_fields!(Stage {
    station => "st",
    expand_pos => "ep",
    tracker => "tk",
    last_activity => "la",
    op: skip,
    port: skip,
    rule: skip,
    comp: skip,
    last_stall_cause: skip,
    stall_from: skip,
});

#[derive(Clone)]
struct Pipeline {
    set: TaskSetId,
    latches: Box<[Option<Box<Ctx>>]>,
    stages: Box<[Stage]>,
    /// Extern unit attached to this pipeline (if the body calls externs).
    extern_unit: Option<ExternUnit>,
    /// Trace component of this pipeline (meaningful only when tracing).
    comp: CompId,
    /// One bit per stage, clear while the stage sleeps: visiting it would
    /// change nothing but counters it settles on waking (see
    /// [`tick_pipeline`]). A context entering its latch, a response
    /// reaching its port, or a context leaving the next latch sets the
    /// bit. Derived: every bit is set on build and on load.
    awake: Box<[u64]>,
    /// One bit per stage, set from when the stage falls asleep on the
    /// full memory request channel (`bandwidth`) until it is next woken
    /// for a free slot or visited. Derived: clear on build and on load.
    chan: Box<[u64]>,
}
snap_fields!(Pipeline {
    latches,
    stages,
    extern_unit => "ext",
    set: skip,
    comp: skip,
    awake: skip,
    chan: skip,
} check Self::loaded);

/// The highest set bit of `bits` below `end`, if any.
fn highest_below(bits: &[u64], end: usize) -> Option<usize> {
    let mut w = end / 64;
    let mut word = match end % 64 {
        0 => 0,
        r => bits[w] & ((1 << r) - 1),
    };
    while word == 0 {
        w = w.checked_sub(1)?;
        word = bits[w];
    }
    Some(64 * w + 63 - word.leading_zeros() as usize)
}

impl Pipeline {
    /// A bitset with one set bit per stage of an `n`-op body.
    fn all_awake(n: usize) -> Box<[u64]> {
        (0..n.div_ceil(64))
            .map(|w| match n - 64 * w {
                r if r >= 64 => u64::MAX,
                r => (1 << r) - 1,
            })
            .collect()
    }

    fn wake(&mut self, i: usize) {
        self.awake[i / 64] |= 1 << (i % 64);
    }

    /// No stage is awake, so a tick only needs to visit the pipeline
    /// when its queue has a task to pop.
    fn asleep(&self) -> bool {
        self.awake.iter().all(|&w| w == 0)
    }

    fn sleep(&mut self, i: usize) {
        self.awake[i / 64] &= !(1 << (i % 64));
    }

    /// Clears stage `i`'s channel bit; returns whether it was set.
    fn leave_channel(&mut self, i: usize) -> bool {
        let bit = 1 << (i % 64);
        let set = self.chan[i / 64] & bit != 0;
        self.chan[i / 64] &= !bit;
        set
    }

    /// Wakes up to `n` of the stages asleep on the request channel, in
    /// the order a tick visits them (last stage first), and clears their
    /// channel bits; returns how many it woke.
    fn wake_for_channel(&mut self, n: usize) -> usize {
        let mut woken = 0;
        let mut end = self.stages.len();
        while woken < n {
            let Some(i) = highest_below(&self.chan, end) else {
                break;
            };
            self.leave_channel(i);
            self.wake(i);
            woken += 1;
            end = i;
        }
        woken
    }

    /// Checks a loaded snapshot (see [`Pipeline::fits`]) and wakes every
    /// stage, since the loaded state may give any of them work.
    fn loaded(&mut self) -> Result<(), String> {
        self.fits()?;
        self.awake = Pipeline::all_awake(self.stages.len());
        self.chan.fill(0);
        for st in self.stages.iter_mut() {
            st.stall_from = None;
        }
        Ok(())
    }

    /// A loaded snapshot must keep a station exactly at the stages with
    /// a response port, hold contexts as wide as the body, and have an
    /// extern unit exactly when the body calls an extern, whose requests
    /// name this pipeline's extern stages.
    fn fits(&self) -> Result<(), String> {
        let n = self.stages.len();
        for (i, st) in self.stages.iter().enumerate() {
            if st.station.is_some() != st.port.is_some() {
                return Err(format!(
                    ".stages[{i}].st: station presence disagrees with the op"
                ));
            }
            let mut parked = st.station.iter().flat_map(OutOfOrderStation::iter_all);
            if let Some(k) = parked.position(|c| c.vals.len() != n) {
                return Err(format!(".stages[{i}].st[{k}][1].v: the body has {n} ops"));
            }
        }
        for (i, c) in self.latches.iter().enumerate() {
            if c.as_ref().is_some_and(|c| c.vals.len() != n) {
                return Err(format!(".latches[{i}].v: the body has {n} ops"));
            }
        }
        // `(port, extern id, argument count)` of each extern stage.
        let calls: Vec<(u32, usize, usize)> = self
            .stages
            .iter()
            .filter_map(|st| match &st.op {
                BodyOp::Extern { ext, args, .. } => Some((st.port?, ext.0, args.len())),
                _ => None,
            })
            .collect();
        if calls.is_empty() != self.extern_unit.is_none() {
            return Err(".ext: presence disagrees with the body's extern calls".into());
        }
        let Some(u) = &self.extern_unit else {
            return Ok(());
        };
        let call_at = |port: u32| calls.iter().find(|c| c.0 == port);
        for (i, r) in u.queue.iter().enumerate() {
            let err = match call_at(r.port) {
                None => format!(".p: port {} calls no extern", r.port),
                Some(&(_, e, _)) if e != r.ext => format!(".e: port {} calls extern {e}", r.port),
                Some(&(_, _, n)) if n != usize::from(r.nargs) => {
                    format!(".n: {} arguments, but port {} passes {n}", r.nargs, r.port)
                }
                _ => continue,
            };
            let slot = snapshot::fifo_slot(&u.queue, i);
            return Err(snap::nest(format_args!(".ext.q.{slot}"), err));
        }
        match &u.busy {
            Some(job) if call_at(job.port).is_none() => {
                Err(format!(".ext.busy.p: port {} calls no extern", job.port))
            }
            _ => Ok(()),
        }
    }
}

#[derive(Clone, Default)]
struct ExternJob {
    tag: u64,
    port: u32,
    result: u64,
    bytes_left: u64,
    compute_left: u64,
}
snap_fields!(ExternJob {
    tag => "t",
    port => "p",
    result => "r",
    bytes_left => "b",
    compute_left => "c",
});

#[derive(Clone, Default)]
struct ExternReq {
    tag: u64,
    port: u32,
    ext: usize,
    args: [u64; MAX_FIELDS],
    nargs: u8,
    index: IndexTuple,
}
snap_fields!(ExternReq {
    tag => "t",
    port => "p",
    ext => "e",
    args => "a",
    nargs => "n",
    index => "i",
});

#[derive(Clone)]
struct ExternUnit {
    queue: Fifo<ExternReq>,
    busy: Option<ExternJob>,
    calls: u64,
}
snap_fields!(ExternUnit {
    queue => "q",
    busy,
    calls,
});

impl Default for ExternUnit {
    fn default() -> Self {
        ExternUnit {
            queue: Fifo::new(4),
            busy: None,
            calls: 0,
        }
    }
}

/// Scalar run state: sequence and tag cursors, the progress watchdog,
/// and event totals.
#[derive(Clone, Default)]
struct Core {
    next_seq: u64,
    next_tag: u64,
    last_progress: u64,
    /// An escalation already ran for the current no-progress window;
    /// the next expiry is a real deadlock.
    escalated: bool,
    /// Watchdog escalations performed (forced `otherwise` + flush).
    wd_escalations: u64,
    /// Reservation-station entries flushed by watchdog escalation.
    wd_flushes: u64,
    squashes: u64,
    requeues: u64,
    bounces: u64,
    /// Tasks retired per task set.
    retired: Box<[u64]>,
}
snap_fields!(Core {
    next_seq,
    next_tag,
    last_progress,
    escalated,
    wd_escalations,
    wd_flushes,
    squashes,
    requeues,
    bounces,
    retired,
});

impl Core {
    /// `[retired, squashes, requeues, bounces]`, whose per-pipeline
    /// deltas become trace records.
    fn event_totals(&self) -> [u64; 4] {
        let retired = self.retired.iter().sum();
        [retired, self.squashes, self.requeues, self.bounces]
    }

    /// Pushes a child of `parent` onto `queue` under the next sequence
    /// number and counts it live. The caller checked `can_push`.
    fn spawn(
        &mut self,
        queue: &mut TaskQueue,
        live: &mut LiveTasks,
        parent: IndexTuple,
        fields: [u64; MAX_FIELDS],
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let token = queue
            .push_child(parent, seq, fields)
            .expect("checked can_push");
        live.add((token.index, token.seq));
    }
}

/// How many tasks are live (queued or in flight), and the least of them
/// by `(index, seq)` while that is known. Derived: a load rebuilds both
/// from [`Fabric::held_tasks`], the walk over where the tasks are.
#[derive(Clone, Default)]
struct LiveTasks {
    count: usize,
    /// The least live task, unless `stale`.
    min: Option<(IndexTuple, u64)>,
    /// The least task retired since `min` was last found, so the next
    /// reader walks the tasks (see [`Fabric::min_live`]).
    stale: bool,
}

impl LiveTasks {
    /// Counts a spawned or requeued task.
    fn add(&mut self, key: (IndexTuple, u64)) {
        self.count += 1;
        if !self.stale && self.min.is_none_or(|m| key < m) {
            self.min = Some(key);
        }
    }

    /// Uncounts a task retiring at a pipeline's tail.
    fn retire(&mut self, key: (IndexTuple, u64)) {
        self.count -= 1;
        self.stale |= self.min == Some(key);
    }
}

/// Rollback-and-replay progress: `(fail_cycle, resume_cycle)` per
/// rollback, in order.
#[derive(Clone, Default)]
struct Rollback {
    events: Vec<(u64, u64)>,
}
snap_fields!(Rollback { events });

impl Rollback {
    /// Rollbacks performed so far (≤ `max_rollbacks`); also the re-salt
    /// epoch of the link RNG stream after the most recent rollback.
    fn done(&self) -> u64 {
        self.events.len() as u64
    }

    /// Total cycles re-executed across all rollbacks.
    fn replayed(&self) -> u64 {
        self.events
            .iter()
            .map(|&(fail, resume)| fail - resume)
            .sum()
    }

    /// A loaded log must hold at most `max` rollbacks, each resuming no
    /// later than it failed, whose replayed cycles sum within `u64`.
    fn fits(&self, max: u32) -> Result<(), String> {
        if self.events.len() > max as usize {
            return Err(format!(
                ".events: {} rollbacks, more than max_rollbacks {max}",
                self.events.len()
            ));
        }
        let mut replayed = 0u64;
        for (i, &(fail, resume)) in self.events.iter().enumerate() {
            let Some(n) = fail.checked_sub(resume) else {
                return Err(format!(
                    ".events[{i}]: resumes at cycle {resume}, after it failed at {fail}"
                ));
            };
            replayed = replayed
                .checked_add(n)
                .ok_or_else(|| format!(".events[{i}]: the replayed cycles sum past u64::MAX"))?;
        }
        Ok(())
    }
}

/// The accelerator instance. A clone holds the whole state, so it runs
/// on exactly as the original would.
#[derive(Clone)]
pub struct Fabric {
    spec: Spec,
    cfg: FabricConfig,
    mem: MemorySubsystem,
    queues: Box<[TaskQueue]>,
    engines: Box<[RuleEngine]>,
    pipelines: Box<[Pipeline]>,
    /// `(pipeline, stage)` behind each response port.
    port_owner: Box<[(usize, usize)]>,
    /// Scratch for `(port, tag, word)` completions on their way to the
    /// stations behind their ports; empty between uses, so never saved.
    out: Vec<(u32, u64, u64)>,
    bus_staged: Vec<EventMsg>,
    bus_current: Vec<EventMsg>,
    /// The count and least of the live tasks. Derived: a load rebuilds
    /// it from the tasks the loaded state holds.
    live: LiveTasks,
    /// Stages of every pipeline that sleep on the full request channel:
    /// the set bits of the pipelines' `chan`. Derived: zero on build and
    /// on load.
    chan_waiting: usize,
    /// Host-side seed backlog, pushed in as queue space allows.
    seed_backlog: VecDeque<(TaskSetId, [u64; MAX_FIELDS])>,
    /// Task activations from extern cores awaiting queue space.
    pending_tasks: VecDeque<(TaskSetId, IndexTuple, [u64; MAX_FIELDS])>,
    /// Events from extern cores awaiting bus slots.
    pending_events: VecDeque<EventMsg>,
    cycle: u64,
    core: Core,
    /// Tokens drained from fault-masked queue banks awaiting respill
    /// onto the surviving banks (they stay live throughout).
    fault_respill: VecDeque<(usize, TaskToken)>,
    /// Rendered lint report when the analyzer found error-level findings;
    /// [`Fabric::run`] refuses to start while this is set.
    lint_errors: Option<String>,
    /// The rollback checkpoint: a clone of this fabric, holding no
    /// checkpoint of its own, refreshed every `checkpoint_interval`
    /// cycles while rollback recovery is armed.
    ckpt: Option<Box<Fabric>>,
    rollback: Rollback,
    /// The per-cycle samples of each queue, the memory and each rule
    /// engine: the only metric state kept (see [`Fabric::metrics`]).
    samples: Box<[Samples]>,
    trace: Option<EventTrace>,
    timeline: Option<TimelineRecorder>,
    tr_host: CompId,
    tr_mem: CompId,
    tr_fault: CompId,
    tr_queues: Vec<CompId>,
    tr_rules: Vec<CompId>,
}

impl Fabric {
    /// Instantiates an accelerator for a validated spec and seeds it with
    /// the program input.
    ///
    /// # Panics
    ///
    /// Panics if the spec was not validated.
    pub fn new(spec: &Spec, input: &ProgramInput, cfg: FabricConfig) -> Self {
        assert!(spec.is_validated(), "spec must be validated");
        let mem = MemorySubsystem::with_faults(cfg.mem.clone(), input.mem.clone(), &cfg.faults);
        // A degenerate config is rejected by the lint gate at `run`;
        // clamp the structural parameters so construction itself cannot
        // panic before the gate reports the real diagnostics.
        let banks = cfg.queue_banks.max(1);
        let capacity = cfg.queue_capacity.max(banks);
        let queues: Box<[TaskQueue]> = spec
            .task_sets()
            .iter()
            .map(|t| {
                let mut q = TaskQueue::new(t.kind, t.level, banks, capacity);
                // Upper bound on contexts a task set's pipelines can hold
                // (latches + every station slot): reserve that much for
                // recirculation so requeue can never deadlock.
                let in_pipe = cfg.pipelines_per_set
                    * (t.body.len() + t.body.len() * cfg.lsu_window.max(cfg.rendezvous_window));
                q.set_reserve(in_pipe);
                q
            })
            .collect();
        let engines: Box<[RuleEngine]> = spec
            .rules()
            .iter()
            .map(|r| RuleEngine::new(r.clone(), cfg.rule_lanes))
            .collect();
        let mut trace = (cfg.trace_capacity > 0)
            .then(|| EventTrace::new(cfg.trace_capacity, &snapshot::EVENT_NAMES));
        let mut intern = |name: &str| trace.as_mut().map_or(CompId(0), |t| t.comp(name));
        let tr_host = intern("host");
        let tr_mem = intern("mem");
        let tr_fault = intern("fault");
        let tr_queues: Vec<CompId> = spec
            .task_sets()
            .iter()
            .map(|t| intern(&format!("queue:{}", t.name)))
            .collect();
        let tr_rules: Vec<CompId> = spec
            .rules()
            .iter()
            .map(|r| intern(&format!("rule:{}", r.name)))
            .collect();
        let mut port_owner = Vec::new();
        let mut pipelines = Vec::new();
        for (tsi, ts) in spec.task_sets().iter().enumerate() {
            for replica in 0..cfg.pipelines_per_set {
                let pipe_name = format!("pipe:{}#{}", ts.name, replica);
                let mut stages = Vec::with_capacity(ts.body.len());
                let mut has_extern = false;
                for (si, op) in ts.body.iter().enumerate() {
                    let window = match op {
                        BodyOp::Load { .. } | BodyOp::Store { .. } => Some(cfg.lsu_window),
                        BodyOp::Rendezvous { .. } => Some(cfg.rendezvous_window),
                        BodyOp::Extern { .. } => {
                            has_extern = true;
                            Some(cfg.lsu_window)
                        }
                        _ => None,
                    };
                    let port = window.map(|_| {
                        port_owner.push((pipelines.len(), si));
                        (port_owner.len() - 1) as u32
                    });
                    let station = window.map(OutOfOrderStation::new);
                    let rule = match op {
                        BodyOp::Rendezvous { rule_instance, .. } => {
                            match &ts.body[rule_instance.pos()] {
                                BodyOp::AllocRule { rule, .. } => Some(*rule),
                                _ => unreachable!("validated spec"),
                            }
                        }
                        _ => None,
                    };
                    stages.push(Stage {
                        comp: intern(&format!("{pipe_name}/s{si}:{}", op.mnemonic())),
                        op: op.clone(),
                        port,
                        rule,
                        station,
                        expand_pos: None,
                        tracker: ActivityTracker::new(),
                        last_activity: None,
                        last_stall_cause: StallCause::DownstreamFull,
                        stall_from: None,
                    });
                }
                pipelines.push(Pipeline {
                    set: TaskSetId(tsi),
                    latches: vec![None; ts.body.len()].into(),
                    stages: stages.into(),
                    extern_unit: has_extern.then(ExternUnit::default),
                    comp: intern(&pipe_name),
                    awake: Pipeline::all_awake(ts.body.len()),
                    chan: vec![0; ts.body.len().div_ceil(64)].into(),
                });
            }
        }
        let seed_backlog: VecDeque<(TaskSetId, [u64; MAX_FIELDS])> = input
            .initial
            .iter()
            .map(|t| (t.task_set, to_fields(&t.fields)))
            .collect();
        // Full static-analysis pass (spec + BDFG families) plus the
        // fabric-config sanity lints (`APIR5xx`): the fabric refuses at
        // `run` to simulate a graph or a configuration it knows is broken.
        let mut lint = apir_core::check::check_all(spec);
        lint.merge(cfg.validate());
        // Config-aware semantic analysis (`APIR6xx`): statically-certain
        // reserve starvation and unsound dependency cycles refuse to run
        // just like broken specs do. Skipped when the families above
        // already found errors — the analysis would reason about a graph
        // or config known to be invalid.
        if !lint.has_errors() {
            let params = crate::analysis_params(&cfg, spec, input);
            if let Some(a) = apir_core::check::analysis::analyze(spec, &params) {
                lint.merge(a.report);
            }
        }
        let lint_errors = lint.has_errors().then(|| lint.render_text());
        let timeline = (cfg.timeline_window > 0)
            .then(|| TimelineRecorder::new(cfg.timeline_window, cfg.timeline_capacity));
        Fabric {
            spec: spec.clone(),
            cfg,
            mem,
            queues,
            engines,
            pipelines: pipelines.into(),
            port_owner: port_owner.into(),
            out: Vec::new(),
            bus_staged: Vec::new(),
            bus_current: Vec::new(),
            live: LiveTasks::default(),
            chan_waiting: 0,
            seed_backlog,
            pending_tasks: VecDeque::new(),
            pending_events: VecDeque::new(),
            cycle: 0,
            core: Core {
                retired: vec![0; spec.task_sets().len()].into(),
                ..Core::default()
            },
            fault_respill: VecDeque::new(),
            lint_errors,
            ckpt: None,
            rollback: Rollback::default(),
            samples: Samples::all(spec),
            trace,
            timeline,
            tr_host,
            tr_mem,
            tr_fault,
            tr_queues,
            tr_rules,
        }
    }

    /// Runs the accelerator to quiescence.
    ///
    /// # Errors
    ///
    /// [`FabricError::RejectedByLint`] when the static analyzer found
    /// error-level diagnostics in the spec or its configuration;
    /// [`FabricError::Deadlock`] when nothing makes progress for the
    /// configured window and the watchdog escalation (forced `otherwise`
    /// for the minimum live task plus a rendezvous-station flush) also
    /// fails to restart it; [`FabricError::LinkFailed`] when an injected
    /// link-fault campaign exhausts a transfer's retry budget;
    /// [`FabricError::MaxCycles`] on timeout. All runtime errors carry
    /// the partial [`FabricReport`] for post-mortem.
    pub fn run(mut self) -> Result<FabricReport, FabricError> {
        if let Some(report) = self.lint_errors.take() {
            return Err(FabricError::RejectedByLint { report });
        }
        match self.run_loop(None)? {
            RunSplit::Done(report) => Ok(*report),
            RunSplit::Paused(_) => unreachable!("no pause target"),
        }
    }

    /// Runs until the fabric either finishes (exactly the [`Fabric::run`]
    /// contract) or reaches a cycle ≥ `target` with work still in
    /// flight, returning the paused fabric for snapshotting. Under the
    /// event wheel a quiescent jump may overshoot `target`; the pause
    /// then lands on the first post-jump cycle. `run_until(0)` pauses
    /// before the first tick.
    ///
    /// Restore equivalence: snapshotting the paused fabric, restoring
    /// it, and running to completion is byte-identical to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Exactly the [`Fabric::run`] contract, when the run fails before
    /// reaching `target`.
    pub fn run_until(mut self, target: u64) -> Result<RunSplit, FabricError> {
        if let Some(report) = self.lint_errors.take() {
            return Err(FabricError::RejectedByLint { report });
        }
        self.run_loop(Some(target))
    }

    /// One-shot job entry point: builds the fabric and runs it to
    /// completion in a single call. This is the unit of work batch
    /// drivers dispatch (`apir-campaign` runs thousands of these
    /// concurrently, one per plan cell), kept here so the simulation
    /// request surface is a single deterministic function of
    /// `(spec, input, cfg)`.
    ///
    /// # Errors
    ///
    /// Exactly the [`Fabric::run`] contract.
    pub fn execute(
        spec: &Spec,
        input: &ProgramInput,
        cfg: FabricConfig,
    ) -> Result<FabricReport, FabricError> {
        Fabric::new(spec, input, cfg).run()
    }

    fn run_loop(mut self, target: Option<u64>) -> Result<RunSplit, FabricError> {
        // Arm the recovery path: checkpoint the pristine state (or a
        // restored one whose document held no checkpoint) so a failure
        // before the first interval elapses still has somewhere to rewind
        // to.
        if self.cfg.max_rollbacks > 0 && self.ckpt.is_none() {
            self.take_checkpoint();
        }
        loop {
            if target.is_some_and(|t| self.cycle >= t) {
                self.settle_trackers();
                return Ok(RunSplit::Paused(Box::new(self)));
            }
            let moved = self.tick();
            if let Some(lf) = self.mem.link_failure() {
                // Rollback-and-replay: rewind to the last checkpoint and
                // re-run the window under a re-salted link RNG stream
                // instead of aborting, while the budget lasts.
                if self.rollback.done() < u64::from(self.cfg.max_rollbacks) {
                    self.rollback_and_replay();
                    continue;
                }
                let cycle = self.cycle;
                let diagnostics = format!(
                    "transfer tag {} on port {} dropped {} times (retries exhausted); {}",
                    lf.tag,
                    lf.port,
                    lf.retries + 1,
                    self.diagnostics()
                );
                return Err(FabricError::LinkFailed {
                    cycle,
                    diagnostics,
                    report: Box::new(self.into_report()),
                });
            }
            self.checkpoint_if_due();
            if self.is_done() {
                return Ok(RunSplit::Done(Box::new(self.into_report())));
            }
            if self.cycle >= self.cfg.max_cycles {
                let cycle = self.cycle;
                return Err(FabricError::MaxCycles {
                    cycle,
                    report: Box::new(self.into_report()),
                });
            }
            if self.cycle - self.core.last_progress > self.cfg.deadlock_cycles {
                if !self.core.escalated {
                    // The paper's liveness lever, pulled early: force the
                    // minimum waiting task's `otherwise` and flush the
                    // rendezvous stations before declaring defeat.
                    self.escalate_watchdog();
                    continue;
                }
                let cycle = self.cycle;
                let diagnostics = self.diagnostics();
                return Err(FabricError::Deadlock {
                    cycle,
                    diagnostics,
                    report: Box::new(self.into_report()),
                });
            }
            // Event wheel: a quiescent tick would repeat identically
            // until the earliest pending wake, so jump to the cycle
            // *before* it — the next `tick` lands exactly on the wake.
            // Clamped to `max_cycles` so a timing-out run stops on the
            // same cycle as the dense loop.
            if !moved && !self.cfg.dense_tick {
                let wake = self.next_wake().min(self.cfg.max_cycles);
                self.skip_to(wake - 1);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.live.count == 0
            && self.seed_backlog.is_empty()
            && self.pending_tasks.is_empty()
            && self.fault_respill.is_empty()
            && self.mem.is_idle()
    }

    /// Takes the rollback checkpoint, a clone, once the last one is
    /// dropped so that the clone holds none. Cloning changes nothing, so
    /// a checkpointing run is byte-identical to one without until a
    /// rollback fires.
    fn take_checkpoint(&mut self) {
        self.ckpt = None;
        self.ckpt = Some(Box::new(self.clone()));
    }

    /// The cycle of the next checkpoint while recovery is armed: the
    /// last one's plus `checkpoint_interval`, whichever scheduler runs.
    fn next_checkpoint(&self) -> Option<u64> {
        Some(self.ckpt.as_ref()?.cycle + self.cfg.checkpoint_interval)
    }

    /// Takes the checkpoint when the clock is on its cycle.
    fn checkpoint_if_due(&mut self) {
        if self.next_checkpoint() == Some(self.cycle) {
            self.take_checkpoint();
        }
    }

    /// Rewinds to a clone of the checkpoint after a terminal link
    /// failure and re-salts the link RNG stream so the replay draws a
    /// fresh drop schedule. Recovery progress (the rollback record and
    /// the checkpoint itself) is meta-state: it survives the rewind
    /// rather than being restored from it.
    fn rollback_and_replay(&mut self) {
        let ckpt = self.ckpt.take().expect("rollback requires a checkpoint");
        let failed = std::mem::replace(self, (*ckpt).clone());
        self.ckpt = Some(ckpt);
        self.rollback = failed.rollback;
        self.rollback.events.push((failed.cycle, self.cycle));
        let epoch = self.rollback.done();
        if let Some(plan) = self.mem.faults_mut() {
            plan.resalt_link(epoch);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.record(self.cycle, self.tr_fault, "rollback", epoch);
        }
    }

    /// Last-resort liveness escalation, run when the progress watchdog
    /// is about to expire: force-release the minimum live task's rule
    /// lanes with their `otherwise` verdicts, then bounce every entry
    /// waiting in a rendezvous reservation station (each receives the
    /// conservative `false` and retries through its abort path). Resets
    /// the watchdog so the recovered work gets a full window to drain.
    fn escalate_watchdog(&mut self) {
        let now = self.cycle;
        self.core.wd_escalations += 1;
        if let Some(key) = self.min_live() {
            for e in &mut self.engines {
                e.force_min_release(key, &mut self.out);
            }
        }
        for p in &mut self.pipelines {
            for stage in &mut p.stages {
                let Some(rule) = stage.rule else {
                    continue;
                };
                let station = stage.station.as_mut().expect("rendezvous has station");
                while let Some(tag) = station.timeout_one(now + 1) {
                    self.engines[rule.0].cancel(tag);
                    self.core.bounces += 1;
                    self.core.wd_flushes += 1;
                }
            }
        }
        self.route_out();
        if let Some(tr) = self.trace.as_mut() {
            tr.record(now, self.tr_fault, "wd_escalate", 1);
        }
        self.core.escalated = true;
        self.core.last_progress = self.cycle;
    }

    /// Assembles the campaign totals: the memory subsystem owns the
    /// plan's counters; the watchdog counters live on the fabric (the
    /// escalation works with faults off too).
    fn fault_totals(&self) -> FaultStats {
        let mut s = self.mem.fault_stats();
        s.watchdog_escalations = self.core.wd_escalations;
        s.watchdog_flushed = self.core.wd_flushes;
        s
    }

    /// The least live task by `(index, seq)`: the cached one, or, once
    /// that retired, the least that one walk over the tasks finds.
    fn min_live(&mut self) -> Option<(IndexTuple, u64)> {
        if self.live.stale {
            self.live.min = self.held_tasks().min();
            self.live.stale = false;
        }
        self.live.min
    }

    /// The `(index, seq)` of every live task, found where it is: in a
    /// queue, awaiting respill off a masked bank, in a pipeline latch, or
    /// in a station.
    fn held_tasks(&self) -> impl Iterator<Item = (IndexTuple, u64)> + '_ {
        let queued = self.queues.iter().flat_map(TaskQueue::iter);
        let respilled = self.fault_respill.iter().map(|(_, t)| t);
        let tokens = queued.chain(respilled).map(|t| (t.index, t.seq));
        let contexts = self.pipelines.iter().flat_map(|p| {
            let stations = p.stages.iter().filter_map(|st| st.station.as_ref());
            p.latches
                .iter()
                .flatten()
                .chain(stations.flat_map(OutOfOrderStation::iter_all))
        });
        tokens.chain(contexts.map(|c| (c.index, c.seq)))
    }

    fn diagnostics(&mut self) -> String {
        let mut s = format!(
            "live={} seed_backlog={} pending_tasks={} ",
            self.live.count,
            self.seed_backlog.len(),
            self.pending_tasks.len()
        );
        for (i, q) in self.queues.iter().enumerate() {
            s.push_str(&format!(
                "q[{}]={} ",
                self.spec.task_sets()[i].name,
                q.len()
            ));
        }
        for (i, e) in self.engines.iter().enumerate() {
            s.push_str(&format!(
                "lanes[{}]={} ",
                self.spec.rules()[i].name,
                e.occupied()
            ));
        }
        let in_flight: usize = self
            .pipelines
            .iter()
            .map(|p| {
                p.latches.iter().filter(|l| l.is_some()).count()
                    + p.stages
                        .iter()
                        .map(|st| st.station.as_ref().map_or(0, |s| s.len()))
                        .sum::<usize>()
            })
            .sum();
        s.push_str(&format!("in_pipeline={in_flight}"));
        if let Some((idx, seq)) = self.min_live() {
            s.push_str(&format!(" min_live=({idx}, seq {seq})"));
        }
        let ages = self.mem.mshr_ages(self.cycle);
        if !ages.is_empty() {
            s.push_str(&format!(" mshr_ages={:?}", &ages[..ages.len().min(8)]));
        }
        s
    }

    fn into_report(mut self) -> FabricReport {
        self.settle_trackers();
        let mut util = UtilizationSummary::new();
        for (pi, p) in self.pipelines.iter().enumerate() {
            for (si, st) in p.stages.iter().enumerate() {
                util.add(format!("p{pi}.s{si}:{}", st.op.mnemonic()), st.tracker);
            }
        }
        let metrics = self.metrics(&util);
        let faults = self.fault_totals();
        let timeline = self.timeline.take();
        let timeline = timeline.map(|tl| tl.finish(self.cycle, &self.timeline_totals()));
        FabricReport {
            rollbacks: (self.cfg.max_rollbacks > 0).then(|| RollbackSummary {
                count: self.rollback.done(),
                replayed_cycles: self.rollback.replayed(),
                events: self.rollback.events.clone(),
            }),
            faults,
            metrics,
            activity: util.clone(),
            trace: self.trace,
            timeline,
            cycles: self.cycle,
            seconds: seconds_from_cycles(self.cfg.mem.clock_mhz, self.cycle),
            retired: self.core.retired.into_vec(),
            squashes: self.core.squashes,
            requeues: self.core.requeues,
            bounces: self.core.bounces,
            mem: self.mem.stats(),
            rules: self.engines.iter().map(|e| e.stats()).collect(),
            utilization: util.pipeline_utilization(),
            primitive_ops: util.count(),
            queue_peaks: self.queues.iter().map(|q| q.peak()).collect(),
            extern_calls: self
                .pipelines
                .iter()
                .filter_map(|p| p.extern_unit.as_ref())
                .map(|u| u.calls)
                .sum(),
            mem_image: self.mem.image().clone(),
        }
    }

    /// One clock cycle. Returns whether any module changed state this
    /// cycle ("moved") — the event wheel's quiescence signal. A tick
    /// that returns `false` would repeat byte-identically every cycle
    /// until the next scheduled wake (a latency pipe maturing, a retry
    /// backoff expiring, a bandwidth credit covering a blocked
    /// transfer, a fault-window trial, a rendezvous timeout, or the
    /// watchdog), so [`Fabric::run`] may jump straight to that wake.
    ///
    /// `moved` is deliberately wider than the watchdog's `progress`: a
    /// stage can be busy without making forward progress (pure ALU
    /// work, a guard-fail pass-through, a rendezvous bounce), and the
    /// memory subsystem can accept or re-arm transfers that pay off
    /// only cycles later. Skipping such a cycle would change state;
    /// skipping a `!moved` cycle cannot.
    fn tick(&mut self) -> bool {
        self.cycle += 1;
        let now = self.cycle;
        let mut progress = false;
        let mut moved = false;
        // Totals whose moves in this tick become trace records.
        let before = self.trace.is_some().then(|| self.traced_totals());

        // 0) Fault campaign: windowed lane/bank hard-fault trials, then
        // respill of tokens drained from masked banks. Trials run at
        // cycles ≡ 1 (mod fw) — every cycle when `fw == 1`, since
        // `1 % 1 == 0`. (The old plain `now % fw == 1` comparison never
        // fired for a one-cycle window: no cycle satisfies
        // `now % 1 == 1`.)
        let fw = self.cfg.faults.fault_window;
        if fw > 0 && now % fw == 1 % fw {
            // Armed trials consume RNG draws even when masking fails,
            // so a trial cycle is never quiescent.
            moved |= self.fault_trials_armed();
            self.inject_window_faults(now);
        }
        progress |= self.drain_fault_respill();

        // 1) Memory subsystem: completions -> response ports.
        moved |= self.mem.tick(now, &mut self.out);
        progress |= self.route_out();

        // 2) Host seeding: drain the backlog into queues.
        while let Some(&(ts, fields)) = self.seed_backlog.front() {
            if !self.queues[ts.0].can_push() {
                break;
            }
            let q = &mut self.queues[ts.0];
            self.core.spawn(q, &mut self.live, IndexTuple::ROOT, fields);
            self.seed_backlog.pop_front();
            progress = true;
        }

        // 3) Extern spill buffers -> queues / bus.
        while let Some(&(ts, parent, fields)) = self.pending_tasks.front() {
            if !self.queues[ts.0].can_push() {
                break;
            }
            let q = &mut self.queues[ts.0];
            self.core.spawn(q, &mut self.live, parent, fields);
            self.pending_tasks.pop_front();
            progress = true;
        }
        while self.bus_staged.len() < self.cfg.event_bus_width {
            let Some(ev) = self.pending_events.pop_front() else {
                break;
            };
            self.bus_staged.push(ev);
        }

        // 4) Rule engines: evaluate last cycle's events + min broadcast.
        let global_min = self.min_live();
        for e in &mut self.engines {
            moved |= e.tick(&self.bus_current, global_min, &mut self.out);
        }
        self.bus_current.clear();
        progress |= self.route_out();

        // 5) Extern units.
        let units = self
            .pipelines
            .iter_mut()
            .filter_map(|p| p.extern_unit.as_mut());
        for unit in units {
            progress |= tick_extern_unit(
                unit,
                &self.spec,
                &mut self.mem,
                &mut self.out,
                &mut self.pending_tasks,
                &mut self.pending_events,
            );
        }
        self.route_out();

        // 6) Pipelines. First wake the stages asleep on the full request
        // channel that the channel now has room for: at most one per free
        // slot, in the order the pipelines visit them. A woken stage still
        // holds the context, guard and station slot it fell asleep with,
        // so it pushes if a slot is left when it is visited; any later
        // one would find the channel full.
        let mut free = self.mem.requests.free().min(self.chan_waiting);
        for p in self.pipelines.iter_mut() {
            if free == 0 {
                break;
            }
            let woken = p.wake_for_channel(free);
            free -= woken;
            self.chan_waiting -= woken;
        }
        let mut cx = TickCtx {
            now,
            rendezvous_timeout: self.cfg.rendezvous_timeout,
            bus_cap: self.cfg.event_bus_width,
            queues: &mut self.queues,
            engines: &mut self.engines,
            mem: &mut self.mem,
            bus_staged: &mut self.bus_staged,
            live: &mut self.live,
            chan_waiting: &mut self.chan_waiting,
            core: &mut self.core,
            trace: self.trace.as_mut(),
        };
        for p in self.pipelines.iter_mut() {
            // A visit would find no awake stage and nothing to pop.
            if cx.queues[p.set.0].visible() == 0 && p.asleep() {
                continue;
            }
            let (p_progress, p_active) = tick_pipeline(p, &mut cx);
            progress |= p_progress;
            moved |= p_active;
        }

        // 7) End of cycle: commit staged state.
        for q in &mut self.queues {
            q.commit();
        }
        self.mem.commit();
        for p in &mut self.pipelines {
            if let Some(u) = &mut p.extern_unit {
                u.queue.commit();
                progress |= u.busy.is_some();
            }
        }
        // Swap rather than move, so both bus buffers keep their capacity.
        std::mem::swap(&mut self.bus_current, &mut self.bus_staged);
        if !self.bus_current.is_empty() {
            progress = true;
        }

        // 8) Observability: trace records for the totals that moved, then
        // this cycle's samples. The running totals stay in the components
        // until metrics are read, or until a timeline window ends here.
        if let Some(before) = before {
            self.record_moved(now, before);
        }
        self.sample(1);
        self.close_window();

        if progress {
            self.core.last_progress = self.cycle;
            // A fresh no-progress window earns a fresh escalation.
            self.core.escalated = false;
        }
        moved || progress
    }

    /// Brings every stage's tracker up to the current cycle, which ticks
    /// leave behind (see [`Stage::record`]): it counts the open stall
    /// runs through this cycle, and the idle cycles, which are the ones
    /// not spent busy or stalled. Runs wherever a tracker leaves the tick
    /// loop: a pause, a snapshot of the checkpoint, or the report.
    fn settle_trackers(&mut self) {
        let next = self.cycle + 1;
        for st in self.pipelines.iter_mut().flat_map(|p| p.stages.iter_mut()) {
            if st.stall_from.is_some() {
                st.wake_stall(next);
                st.stall_from = Some(next);
            }
            st.tracker.idle = self.cycle - st.tracker.busy - st.tracker.stall;
        }
    }

    /// Closes the timeline window that ends on the current cycle, if one
    /// does, from the components' totals.
    fn close_window(&mut self) {
        let now = self.cycle;
        if let Some(mut tl) = self.timeline.take_if(|tl| tl.ends_window(now)) {
            tl.close(now, &self.timeline_totals());
            self.timeline = Some(tl);
        }
    }

    /// The running totals a timeline window reads at its end, counting
    /// each open stall run through the current cycle.
    /// Everything here is monotone, so a window's growth is never
    /// negative.
    fn timeline_totals(&self) -> TimelineSample {
        let mut s = TimelineSample::default();
        for st in self.pipelines.iter().flat_map(|p| p.stages.iter()) {
            let run = st.stall_from.map_or(0, |from| self.cycle + 1 - from);
            let stall = st.tracker.stall + run;
            s.busy += st.tracker.busy;
            s.stall += stall;
            s.idle += self.cycle - st.tracker.busy - stall;
        }
        s.retired = self.core.retired.iter().sum();
        let mem = self.mem.stats();
        s.hits = mem.hits;
        s.misses = mem.misses;
        s.qpi_bytes = mem.qpi_bytes;
        s
    }

    /// Completes each completion buffered in `out` in the station behind
    /// its response port and wakes that stage; returns whether there were
    /// any. A late answer to an entry a timeout or the watchdog bounced
    /// finds no waiting entry and is dropped.
    fn route_out(&mut self) -> bool {
        let any = !self.out.is_empty();
        for (port, tag, word) in self.out.drain(..) {
            let (pi, si) = self.port_owner[port as usize];
            let p = &mut self.pipelines[pi];
            if let Some(station) = p.stages[si].station.as_mut() {
                station.complete(tag, word);
            }
            p.wake(si);
        }
        any
    }

    /// Do the windowed fault trials consume RNG draws on this fabric?
    /// Zero-rate draws short-circuit without touching the generator, so
    /// they neither move state nor need event-wheel wakes.
    fn fault_trials_armed(&self) -> bool {
        self.cfg.faults.lane_fault_rate > 0.0 || self.cfg.faults.bank_fault_rate > 0.0
    }

    /// Earliest future cycle at which anything can happen, given that
    /// the tick at `self.cycle` moved nothing. Always finite — the
    /// watchdog deadline bounds every wait — and never later than the
    /// first cycle the dense loop would act on, so jumping here is
    /// semantically invisible.
    fn next_wake(&self) -> u64 {
        let now = self.cycle;
        // The watchdog fires on the first cycle where
        // `cycle - last_progress > deadlock_cycles`.
        let deadline = self.core.last_progress + self.cfg.deadlock_cycles + 1;
        let fw = self.cfg.faults.fault_window;
        let trial = (fw > 0 && self.fault_trials_armed()).then(|| {
            // Next cycle > now that is ≡ 1 (mod fw).
            let delta = (1 % fw + fw - now % fw) % fw;
            now + if delta == 0 { fw } else { delta }
        });
        // Rendezvous stations self-wake through their timeout; every
        // other station waits on memory or extern completions, which
        // the memory wake (or extern-busy forcing dense ticks) already
        // covers.
        let timeout = self.cfg.rendezvous_timeout;
        let bounces = self
            .pipelines
            .iter()
            .flat_map(|p| p.stages.iter())
            .filter(|st| st.rule.is_some())
            .filter_map(|st| st.station.as_ref()?.oldest_waiting_insert())
            .map(|born| born + timeout + 1);
        self.mem
            .next_wake(now, deadline)
            .into_iter()
            .chain(trial)
            .chain(bounces)
            .map(|c| c.max(now + 1))
            .fold(deadline, u64::min)
    }

    /// Jumps the clock over quiescent cycles to `target`, stopping on each
    /// timeline window end and checkpoint cycle on the way to close the
    /// window or take the checkpoint there, as a dense tick would. The
    /// stops add no tick, so the cycles that do tick (and with them a
    /// pause) depend on neither.
    fn skip_to(&mut self, target: u64) {
        while self.cycle < target {
            let next_end = self.timeline.as_ref().map(|tl| tl.next_end(self.cycle));
            let stops = next_end.into_iter().chain(self.next_checkpoint());
            self.fast_forward(stops.fold(target, u64::min) - self.cycle);
            self.close_window();
            self.checkpoint_if_due();
        }
    }

    /// Jumps the clock forward `k` quiescent cycles, replaying exactly
    /// the per-cycle side effects the dense loop would have produced:
    /// bandwidth-credit accrual (bit-exact — see
    /// [`apir_sim::bandwidth::BandwidthMeter::tick_n`]) and the per-cycle
    /// samples. A quiescent stage repeats the stall or idle state of the
    /// preceding dense tick, so no trace transition fires and no running
    /// total moves; its stall run and idle cycles are counted later
    /// ([`Stage::record`]).
    fn fast_forward(&mut self, k: u64) {
        self.cycle += k;
        self.mem.fast_forward(k);
        self.sample(k);
    }

    /// One lane-fault and one bank-fault trial per engine/queue. The
    /// draws happen every window regardless of whether masking succeeds,
    /// so the fault schedule is a pure function of the seed.
    fn inject_window_faults(&mut self, now: u64) {
        for ei in 0..self.engines.len() {
            let Some(pick) = self.mem.faults_mut().and_then(FaultPlan::draw_lane_fault) else {
                continue;
            };
            if let Some(drained) = self.engines[ei].mask_lane(pick, &mut self.out) {
                let plan = self.mem.faults_mut().expect("plan produced the draw");
                plan.stats.lanes_masked += 1;
                if drained {
                    plan.stats.lanes_drained += 1;
                }
                if let Some(tr) = self.trace.as_mut() {
                    tr.record(now, self.tr_fault, "lane_mask", 1);
                }
            }
            self.route_out();
        }
        for qi in 0..self.queues.len() {
            let Some(pick) = self.mem.faults_mut().and_then(FaultPlan::draw_bank_fault) else {
                continue;
            };
            if let Some(drained) = self.queues[qi].mask_bank(pick) {
                let plan = self.mem.faults_mut().expect("plan produced the draw");
                plan.stats.banks_masked += 1;
                plan.stats.banks_drained += drained.len() as u64;
                if let Some(tr) = self.trace.as_mut() {
                    tr.record(now, self.tr_fault, "bank_mask", 1);
                }
                for t in drained {
                    self.fault_respill.push_back((qi, t));
                }
            }
        }
    }

    /// Pushes tokens drained from masked banks back onto the surviving
    /// banks through the recirculation reserve (they never stopped being
    /// live).
    fn drain_fault_respill(&mut self) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.fault_respill.len() {
            let (qi, token) = self.fault_respill[i];
            if self.queues[qi].can_push_reserved() {
                let pushed = self.queues[qi].push_fixed(token);
                debug_assert!(pushed, "checked can_push_reserved");
                self.fault_respill.remove(i);
                progress = true;
            } else {
                i += 1;
            }
        }
        progress
    }
}

/// Ticks an extern unit; returns whether it made progress.
fn tick_extern_unit(
    unit: &mut ExternUnit,
    spec: &Spec,
    mem: &mut MemorySubsystem,
    out: &mut Vec<(u32, u64, u64)>,
    pending_tasks: &mut VecDeque<(TaskSetId, IndexTuple, [u64; MAX_FIELDS])>,
    pending_events: &mut VecDeque<EventMsg>,
) -> bool {
    let mut progress = false;
    if let Some(job) = &mut unit.busy {
        if job.bytes_left > 0 {
            let granted = mem.grant_burst(job.bytes_left.min(256));
            job.bytes_left -= granted;
            progress |= granted > 0;
        } else if job.compute_left > 0 {
            job.compute_left -= 1;
            progress = true;
        }
        if job.bytes_left == 0 && job.compute_left == 0 {
            out.push((job.port, job.tag, job.result));
            unit.busy = None;
            progress = true;
        }
    }
    if unit.busy.is_none() {
        if let Some(req) = unit.queue.pop() {
            unit.calls += 1;
            let f = spec.externs()[req.ext].f.clone();
            let out = f(
                mem.image_mut(),
                &ExternIn {
                    args: &req.args[..req.nargs as usize],
                    index: req.index,
                },
            );
            for (ts, fields) in out.new_tasks {
                pending_tasks.push_back((ts, req.index, to_fields(&fields)));
            }
            for (label, payload) in out.events {
                pending_events.push_back(EventMsg {
                    label,
                    payload: to_fields(&payload),
                    len: payload.len() as u8,
                    index: req.index,
                });
            }
            unit.busy = Some(ExternJob {
                tag: req.tag,
                port: req.port,
                result: out.out,
                bytes_left: out.cost.bytes_read + out.cost.bytes_written,
                compute_left: out.cost.compute_cycles.max(1),
            });
            progress = true;
        }
    }
    progress
}

/// The fabric state a pipeline tick reads and writes besides the
/// pipeline itself.
struct TickCtx<'a> {
    now: u64,
    rendezvous_timeout: u64,
    bus_cap: usize,
    queues: &'a mut [TaskQueue],
    engines: &'a mut [RuleEngine],
    mem: &'a mut MemorySubsystem,
    bus_staged: &'a mut Vec<EventMsg>,
    live: &'a mut LiveTasks,
    chan_waiting: &'a mut usize,
    core: &'a mut Core,
    trace: Option<&'a mut EventTrace>,
}

impl Stage {
    /// Records this cycle's activity: the tracker for a busy cycle, a
    /// stall run opened on this cycle for a stall (`cause` is ignored
    /// otherwise), and a trace record on a transition (so a stage that
    /// stays busy for ten thousand cycles costs one record, not ten
    /// thousand).
    ///
    /// The stage's next visit closes the run ([`Stage::wake_stall`]):
    /// until then nothing the stage depends on changes, whether it
    /// sleeps or the event wheel jumps, so every cycle of the run repeats
    /// `cause`. Idle cycles are not counted as they pass: a stage is in
    /// exactly one state per cycle, so its idle count is the cycles left
    /// over after busy and stall, which [`Fabric::settle_trackers`]
    /// writes before anything reads it.
    fn record(&mut self, state: Activity, cause: StallCause, cx: &mut TickCtx) {
        match state {
            Activity::Busy => self.tracker.record(Activity::Busy),
            Activity::Stall => {
                self.stall_from = Some(cx.now);
                self.last_stall_cause = cause;
            }
            Activity::Idle => {}
        }
        if let Some(tr) = cx.trace.as_deref_mut() {
            if self.last_activity != Some(state) {
                self.last_activity = Some(state);
                let ev = match state {
                    Activity::Busy => "busy",
                    Activity::Stall => "stall",
                    Activity::Idle => "idle",
                };
                tr.record(cx.now, self.comp, ev, 0);
            }
        }
    }

    /// Counts the cycles of the stall run this stage is in before `now`.
    fn wake_stall(&mut self, now: u64) {
        if let Some(from) = self.stall_from.take() {
            let cause = self.last_stall_cause;
            self.tracker.record_stall_n(cause, now - from);
        }
    }
}

/// What phase B does with a latch occupant.
enum Step {
    /// Leave the latch with this value in the stage's slot, once the
    /// next latch is free (else stall: `DownstreamFull`).
    Advance(u64),
    /// Move into the station under `(tag, insertion cycle)`.
    Park(u64, u64),
    /// Stay in the latch, stalled for this cause.
    Stay(StallCause),
}

/// Issues a load or store for the occupant of `stage`'s latch when the
/// station has a slot and the request channel takes it.
fn request(
    stage: &Stage,
    cx: &mut TickCtx,
    region: RegionId,
    offset: u64,
    write: Option<(WriteKind, u64)>,
) -> Step {
    let station = stage.station.as_ref().expect("memory op has station");
    if !station.can_insert() {
        return Step::Stay(StallCause::MshrFull);
    }
    if !cx.mem.requests.can_push() {
        return Step::Stay(StallCause::Bandwidth);
    }
    let tag = cx.core.next_tag;
    cx.core.next_tag += 1;
    cx.mem.requests.push(MemReq {
        port: stage.port.expect("memory op has port"),
        tag,
        region,
        offset,
        write,
    });
    Step::Park(tag, 0)
}

/// Ticks one pipeline's awake stages, tail to head. Returns
/// `(progress, active)`: `progress` feeds the deadlock watchdog (forward
/// progress only), `active` is the wider event-wheel quiescence signal —
/// any stage doing *anything* this cycle, including non-progress work
/// like pure ALU moves, guard-fail pass-throughs, and rendezvous timeout
/// bounces.
///
/// A stage that provably cannot act sleeps, so the cycles it idles or
/// stalls through cost nothing, while its counters and trace read exactly
/// what visiting it every cycle would have written:
/// - an idle stage (nothing latched, nothing in its station) sleeps until
///   a context enters its latch or a response reaches its port;
/// - a blocked stage (a latched context, no station, the next latch
///   full) sleeps until the next latch empties;
/// - a stage waiting on its own station (`miss_outstanding`,
///   `mshr_full`) or on the next latch sleeps until either of those
///   changes;
/// - a load or store stage that the full request channel holds back
///   (`bandwidth`) also sleeps until [`Fabric::tick`] wakes it for a free
///   slot in the channel;
/// - a rendezvous stage that the next latch holds back
///   (`downstream_full`) with no entry waiting in its station sleeps until
///   the next latch empties: no verdict can reach its port, and no entry
///   can time out or be flushed by the watchdog.
///
/// A stage that only other shared state (a queue, the event bus, an
/// extern unit) or time (a waiting rendezvous entry's timeout) can
/// release stays awake; its station answers in O(1) when nothing in it
/// is ready or due to time out.
///
/// Contexts move by pointer: a latch or station slot holds a boxed
/// context, so advancing or parking one moves a pointer, not the context.
fn tick_pipeline(p: &mut Pipeline, cx: &mut TickCtx) -> (bool, bool) {
    let n = p.stages.len();
    let set = p.set;
    let now = cx.now;
    let before = cx.trace.is_some().then(|| cx.core.event_totals());
    let mut progress = false;
    let mut active = false;

    let mut end = n;
    while let Some(i) = highest_below(&p.awake, end) {
        end = i;
        if *cx.chan_waiting > 0 && p.leave_channel(i) {
            *cx.chan_waiting -= 1;
        }
        // Split the borrow: current stage vs the next latch.
        let (latch_cur, mut latch_next) = {
            let (a, b) = p.latches.split_at_mut(i + 1);
            (&mut a[i], b.first_mut())
        };
        let stage = &mut p.stages[i];
        stage.wake_stall(now);
        let had_ctx = latch_cur.is_some();
        // The tail retires into no latch, so it is never blocked.
        let next_free = !latch_next.as_ref().is_some_and(|l| l.is_some());
        let station_idle = stage.station.as_ref().is_none_or(|s| s.is_empty());
        if latch_cur.is_none() && station_idle {
            stage.record(Activity::Idle, StallCause::DownstreamFull, cx);
            p.sleep(i);
            continue;
        }
        // Without a station, only `EnqueueRange` acts on a latched
        // context while the next latch is full (it emits children).
        let expands = matches!(stage.op, BodyOp::EnqueueRange { .. });
        if !next_free && stage.station.is_none() && !expands {
            stage.record(Activity::Stall, StallCause::DownstreamFull, cx);
            p.sleep(i);
            continue;
        }
        let mut busy = false;

        // Phase A: bounce a timed-out rendezvous entry and retire ready
        // entries forward.
        if let Some(station) = stage.station.as_mut() {
            // Coordinative rendezvous entries that waited too long bounce
            // back as `false`; their lane is cancelled.
            if let Some(rule) = stage.rule {
                let cutoff = now.saturating_sub(cx.rendezvous_timeout);
                if let Some(tag) = station.timeout_one(cutoff) {
                    cx.engines[rule.0].cancel(tag);
                    cx.core.bounces += 1;
                    // A bounce mutates the station and the engine but is
                    // not watchdog progress: flag it for the event wheel
                    // so back-to-back bounces are never skipped over.
                    active = true;
                }
            }
            // One completion may advance per cycle (station output port).
            if next_free {
                if let Some((mut ctx, word)) = station.take_ready() {
                    ctx.vals[i] = word;
                    if matches!(stage.op, BodyOp::Rendezvous { .. }) && word == 0 {
                        cx.core.squashes += 1;
                    }
                    busy = true;
                    progress = true;
                    advance(ctx, i, n, latch_next.as_deref_mut(), cx, set);
                }
            }
        }

        // Phase B: process the latch occupant in place; it leaves the
        // latch only to advance or to park in the station. `stall_cause`
        // says why it stays; the default covers every pure-op and
        // guard-fail path, which stall only because the next latch is
        // occupied.
        let mut stall_cause = StallCause::DownstreamFull;
        if let Some(ctx) = latch_cur.as_ref() {
            // Phase A may just have filled the next latch. A stage without
            // a station gets here with it full only to expand a range.
            let next_free = !latch_next.as_ref().is_some_and(|l| l.is_some());
            debug_assert!(next_free || stage.station.is_some() || expands);
            let val = |v: &ValRef| ctx.vals[v.pos()];
            let gather = |vs: &[ValRef]| {
                let mut f = [0u64; MAX_FIELDS];
                for (k, v) in vs.iter().enumerate() {
                    f[k] = val(v);
                }
                f
            };
            // A false guard, or an empty range to expand, passes the
            // context through with 0.
            let skip = stage.op.guard().is_some_and(|g| val(&g) == 0)
                || matches!(&stage.op, BodyOp::EnqueueRange { lo, hi, .. } if val(lo) >= val(hi));
            let step = match &stage.op {
                _ if skip => Step::Advance(0),
                BodyOp::Field(f) => Step::Advance(ctx.fields[*f as usize]),
                BodyOp::IndexComp(l) => Step::Advance(ctx.index.component(*l as usize)),
                BodyOp::Const(c) => Step::Advance(*c),
                BodyOp::Alu(op, a, b) => Step::Advance(op.eval(val(a), val(b))),
                BodyOp::Select {
                    cond,
                    if_true,
                    if_false,
                } => Step::Advance(if val(cond) != 0 {
                    val(if_true)
                } else {
                    val(if_false)
                }),
                BodyOp::Load { region, addr } => request(stage, cx, *region, val(addr), None),
                BodyOp::Store {
                    region,
                    addr,
                    value,
                    kind,
                    ..
                } => {
                    let wk = match kind {
                        StoreKind::Plain => WriteKind::Plain,
                        StoreKind::Min => WriteKind::Min,
                        StoreKind::Cas { expected } => WriteKind::Cas(val(expected)),
                        StoreKind::Add => WriteKind::Add,
                    };
                    request(stage, cx, *region, val(addr), Some((wk, val(value))))
                }
                BodyOp::Enqueue {
                    task_set, fields, ..
                } => {
                    let queue = &mut cx.queues[task_set.0];
                    if queue.can_push() {
                        cx.core.spawn(queue, cx.live, ctx.index, gather(fields));
                        progress = true;
                        Step::Advance(1)
                    } else {
                        Step::Stay(StallCause::QueueFull)
                    }
                }
                BodyOp::EnqueueRange {
                    task_set,
                    lo,
                    hi,
                    extra,
                    ..
                } => {
                    let (lo, hi) = (val(lo), val(hi));
                    let pos = stage.expand_pos.get_or_insert(lo);
                    // Emit one child per cycle while space is available.
                    let queue = &mut cx.queues[task_set.0];
                    if *pos < hi && queue.can_push() {
                        let mut f = [0u64; MAX_FIELDS];
                        f[0] = *pos;
                        for (k, v) in extra.iter().enumerate() {
                            f[k + 1] = val(v);
                        }
                        cx.core.spawn(queue, cx.live, ctx.index, f);
                        *pos += 1;
                        busy = true;
                        progress = true;
                    }
                    if *pos == hi {
                        Step::Advance(hi - lo)
                    } else {
                        Step::Stay(StallCause::QueueFull)
                    }
                }
                BodyOp::Requeue { fields, .. } => {
                    if cx.queues[set.0].can_push_reserved() {
                        let seq = cx.core.next_seq;
                        cx.core.next_seq += 1;
                        let token = TaskToken {
                            index: ctx.index,
                            seq,
                            fields: gather(fields),
                        };
                        let pushed = cx.queues[set.0].push_fixed(token);
                        debug_assert!(pushed, "checked can_push");
                        cx.live.add((token.index, token.seq));
                        cx.core.requeues += 1;
                        progress = true;
                        Step::Advance(1)
                    } else {
                        Step::Stay(StallCause::ReserveFull)
                    }
                }
                BodyOp::AllocRule { rule, params, .. } => {
                    let tag = cx.core.next_tag;
                    cx.core.next_tag += 1;
                    // Granted or nacked, the token proceeds: a nack
                    // buffered `false` for this tag, steering the task
                    // into its retry path at the rendezvous.
                    let _ = cx.engines[rule.0].alloc(ctx.index, ctx.seq, gather(params), tag);
                    progress = true;
                    Step::Advance(tag)
                }
                BodyOp::Rendezvous { rule_instance, .. } => {
                    let station = stage.station.as_ref().expect("rendezvous has station");
                    if station.can_insert() && next_free {
                        let rule = stage.rule.expect("rendezvous has rule");
                        let port = stage.port.expect("rendezvous has port");
                        let tag = val(rule_instance);
                        match cx.engines[rule.0].claim(tag, port) {
                            ClaimOutcome::Ready(v) => {
                                if !v {
                                    cx.core.squashes += 1;
                                }
                                progress = true;
                                Step::Advance(u64::from(v))
                            }
                            ClaimOutcome::Wait => Step::Park(tag, now),
                        }
                    } else if station.can_insert() {
                        Step::Stay(StallCause::DownstreamFull)
                    } else {
                        Step::Stay(StallCause::RendezvousParked)
                    }
                }
                BodyOp::Emit { label, payload, .. } => {
                    if cx.bus_staged.len() < cx.bus_cap {
                        cx.bus_staged.push(EventMsg {
                            label: *label,
                            payload: gather(payload),
                            len: payload.len() as u8,
                            index: ctx.index,
                        });
                        progress = true;
                        Step::Advance(1)
                    } else {
                        Step::Stay(StallCause::BusFull)
                    }
                }
                BodyOp::Extern { ext, args, .. } => {
                    let station = stage.station.as_ref().expect("extern has station");
                    let unit = p.extern_unit.as_mut().expect("extern has unit");
                    if station.can_insert() && unit.queue.can_push() {
                        let tag = cx.core.next_tag;
                        cx.core.next_tag += 1;
                        unit.queue.push(ExternReq {
                            tag,
                            port: stage.port.expect("extern has port"),
                            ext: ext.0,
                            args: gather(args),
                            nargs: args.len() as u8,
                            index: ctx.index,
                        });
                        Step::Park(tag, 0)
                    } else if station.can_insert() {
                        Step::Stay(StallCause::DownstreamFull)
                    } else {
                        Step::Stay(StallCause::MshrFull)
                    }
                }
            };
            match step {
                Step::Advance(v) if next_free => {
                    let mut ctx = latch_cur.take().expect("occupied latch");
                    ctx.vals[i] = v;
                    if matches!(stage.op, BodyOp::EnqueueRange { .. }) {
                        stage.expand_pos = None;
                    }
                    busy = true;
                    advance(ctx, i, n, latch_next, cx, set);
                }
                Step::Advance(_) => {}
                Step::Park(tag, born) => {
                    let ctx = latch_cur.take().expect("occupied latch");
                    let station = stage.station.as_mut().expect("parking op has station");
                    station.insert_at(tag, ctx, born);
                    busy = true;
                    progress = true;
                }
                Step::Stay(cause) => stall_cause = cause,
            }
        }

        active |= busy;
        // A re-parked latch carries the cause phase B just computed; a
        // station-only stall is waiting on an outstanding completion
        // (rendezvous verdict or memory/extern response).
        let (state, cause) = if busy {
            (Activity::Busy, stall_cause)
        } else if latch_cur.is_some() {
            (Activity::Stall, stall_cause)
        } else if stage.station.as_ref().is_some_and(|s| !s.is_empty()) {
            let cause = match stage.op {
                BodyOp::Rendezvous { .. } => StallCause::RendezvousParked,
                _ => StallCause::MissOutstanding,
            };
            (Activity::Stall, cause)
        } else {
            (Activity::Idle, stall_cause)
        };
        stage.record(state, cause, cx);
        // Sleep through a stall that only a wake can end: a response at
        // the port, the next latch emptying, or a free slot in the request
        // channel (see `Fabric::tick`). A rendezvous also waits on the
        // timeout of each entry waiting in its station, and an extern
        // stage's `DownstreamFull` may be its unit's full queue.
        let sleeps = match (state, cause) {
            (Activity::Idle, _) => true,
            (
                Activity::Stall,
                StallCause::MissOutstanding | StallCause::MshrFull | StallCause::Bandwidth,
            ) => true,
            (Activity::Stall, StallCause::DownstreamFull) => match stage.op {
                BodyOp::Rendezvous { .. } => {
                    stage.station.as_ref().is_some_and(|s| s.waiting() == 0)
                }
                BodyOp::Extern { .. } => false,
                _ => true,
            },
            _ => false,
        };
        if sleeps {
            if state == Activity::Stall && cause == StallCause::Bandwidth {
                p.chan[i / 64] |= 1 << (i % 64);
                *cx.chan_waiting += 1;
            }
            p.sleep(i);
        }
        // A context that entered the next latch wakes its stage; one that
        // left this latch wakes the stage behind, which may wait on it.
        if next_free && p.latches.get(i + 1).is_some_and(Option::is_some) {
            p.wake(i + 1);
        }
        if had_ctx && p.latches[i].is_none() && i > 0 {
            p.wake(i - 1);
        }
    }

    if let (Some(before), Some(tr)) = (before, cx.trace.as_deref_mut()) {
        let after = cx.core.event_totals();
        let evs = ["retire", "squash", "requeue", "bounce"];
        for ((ev, b), a) in evs.into_iter().zip(before).zip(after) {
            if a > b {
                tr.record(now, p.comp, ev, a - b);
            }
        }
    }
    // Head: pop a task into latch 0.
    if n > 0 && p.latches[0].is_none() {
        if let Some(token) = cx.queues[set.0].pop() {
            p.latches[0] = Some(Box::new(Ctx::from_token(token, n)));
            p.wake(0);
            progress = true;
        }
    }
    (progress, active || progress)
}

// The `schema` tag and the checkpoint, saved as the `ckpt` member (a
// snapshot of its own), are written by `snapshot` and read by `restore`
// and `load_snapshot`.
snap_fields!(Fabric {
    cycle,
    core,
    rollback,
    seed_backlog,
    pending_tasks,
    pending_events,
    bus_staged,
    bus_current,
    fault_respill,
    queues,
    engines,
    mem,
    pipelines,
    samples,
    trace,
    timeline,
    spec: skip,
    cfg: skip,
    port_owner: skip,
    out: skip,
    live: skip,
    chan_waiting: skip,
    lint_errors: skip,
    ckpt: skip,
    tr_host: skip,
    tr_mem: skip,
    tr_fault: skip,
    tr_queues: skip,
    tr_rules: skip,
} also ["schema", "ckpt"] check Self::fits);

impl Fabric {
    /// Serializes the complete mutable state of this fabric as an
    /// `apir.fabric.snapshot.v1` document: the schema tag followed by
    /// [`Snap::save`], and last, while rollback recovery holds a
    /// checkpoint, the snapshot of that checkpoint as the `ckpt` member.
    /// Everything derivable from the `(spec, input, config)` triple is
    /// structural and omitted; see [`crate::snapshot`] for the contract.
    pub fn snapshot(&self) -> Json {
        let mut doc = self.save();
        if let Json::Obj(members) = &mut doc {
            members.insert(0, ("schema".into(), Json::str(SNAPSHOT_SCHEMA)));
            if let Some(ckpt) = &self.ckpt {
                // The checkpoint was cloned mid-run, trackers unsettled.
                let mut ckpt = ckpt.clone();
                ckpt.settle_trackers();
                members.push(("ckpt".into(), ckpt.snapshot()));
            }
        }
        doc
    }

    /// Rebuilds a fabric from the `(spec, input, cfg)` triple the
    /// snapshot was taken under, plus the snapshot document. Running the
    /// result to completion is byte-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Any structural mismatch — a snapshot taken under a different
    /// spec or config, a truncated or hand-mangled document — fails
    /// loudly with the offending member named.
    ///
    /// # Panics
    ///
    /// Panics if the spec was not validated (the [`Fabric::new`]
    /// contract).
    pub fn restore(
        spec: &Spec,
        input: &ProgramInput,
        cfg: FabricConfig,
        doc: &Json,
    ) -> Result<Fabric, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(SNAPSHOT_SCHEMA) {
            return Err(format!("snapshot: `schema` is not `{SNAPSHOT_SCHEMA}`"));
        }
        let mut f = Fabric::new(spec, input, cfg);
        f.load_snapshot(doc).map_err(|e| snap::describe(&e))?;
        Ok(f)
    }

    /// Loads a snapshot document: the state, then the checkpoint it
    /// holds, which loads into a copy of the fabric as it was built (see
    /// [`Fabric::load_checkpoint`]). What the state derives is rebuilt
    /// from it: the live count from the tasks it holds, with the least of
    /// them left to the next reader, and each stage's idle cycles.
    fn load_snapshot(&mut self, doc: &Json) -> Result<(), String> {
        let ckpt = doc.get("ckpt").map(|j| (j, self.clone()));
        self.load(doc)?;
        // `Pipeline::loaded` woke every stage and cleared its channel bit.
        self.chan_waiting = 0;
        self.live = LiveTasks {
            count: self.held_tasks().count(),
            min: None,
            stale: true,
        };
        self.settle_trackers();
        if let Some((j, mut ckpt)) = ckpt {
            ckpt.load_checkpoint(j, self.cycle)
                .map_err(|e| snap::nest(".ckpt", e))?;
            self.ckpt = Some(Box::new(ckpt));
        }
        Ok(())
    }

    /// Loads a `ckpt` member: the checkpoint of an armed run, holding
    /// none of its own, taken within the last `checkpoint_interval`
    /// cycles up to `now`, the cycle of the document that holds it.
    fn load_checkpoint(&mut self, j: &Json, now: u64) -> Result<(), String> {
        if self.cfg.max_rollbacks == 0 {
            return Err("a checkpoint, but rollback recovery is not armed".into());
        }
        if j.get("ckpt").is_some() {
            return Err(".ckpt: a checkpoint holds no checkpoint".into());
        }
        self.load_snapshot(j)?;
        let (at, interval) = (self.cycle, self.cfg.checkpoint_interval);
        if at > now {
            return Err(format!(".cycle: {at} is after the clock's {now}"));
        }
        if now - at >= interval {
            return Err(format!(
                ".cycle: {at} is {} cycles before the clock's {now}, \
                 not less than checkpoint_interval {interval}",
                now - at
            ));
        }
        Ok(())
    }

    /// Checks a loaded snapshot against the structure: optional parts
    /// present exactly when the config arms them, every task set, queue
    /// and response port it names in range, a rollback log recovery can
    /// have written, every stage's busy and stall cycles within the clock
    /// (the idle cycles are the rest; see [`Stage::record`]), samples the
    /// clock can have taken, and no total below its value at the
    /// timeline's last window end.
    fn fits(&self) -> Result<(), String> {
        if self.trace.is_some() != (self.cfg.trace_capacity > 0) {
            return Err(".trace: presence disagrees with config trace_capacity".into());
        }
        if self.timeline.is_some() != (self.cfg.timeline_window > 0) {
            return Err(".timeline: presence disagrees with config timeline_window".into());
        }
        let sets = self.spec.task_sets().len();
        let seeds = self.seed_backlog.iter().map(|e| e.0 .0);
        in_range("seed_backlog", sets, seeds)?;
        let spawned = self.pending_tasks.iter().map(|e| e.0 .0);
        in_range("pending_tasks", sets, spawned)?;
        let respilled = self.fault_respill.iter().map(|e| e.0);
        in_range("fault_respill", self.queues.len(), respilled)?;
        self.rollback
            .fits(self.cfg.max_rollbacks)
            .map_err(|e| snap::nest(".rollback", e))?;
        let ports = self.port_owner.len();
        self.mem
            .check_loaded(ports, self.cfg.faults.is_enabled())
            .map_err(|e| snap::nest(".mem", e))?;
        for (i, e) in self.engines.iter().enumerate() {
            e.check_ports(ports)
                .map_err(|e| snap::nest(format_args!(".engines[{i}]"), e))?;
        }
        for (pi, p) in self.pipelines.iter().enumerate() {
            for (si, st) in p.stages.iter().enumerate() {
                let t = &st.tracker;
                let sum = u128::from(t.busy) + u128::from(t.stall);
                if sum > u128::from(self.cycle) {
                    return Err(format!(
                        ".pipelines[{pi}].stages[{si}].tk: busy + stall is {sum}, \
                         past the clock's {} cycles",
                        self.cycle
                    ));
                }
            }
        }
        for (i, s) in self.samples.iter().enumerate() {
            s.fits(self.cycle)
                .map_err(|e| snap::nest(format_args!(".samples[{i}]"), e))?;
        }
        if let Some(tl) = &self.timeline {
            let totals = self.timeline_totals();
            tl.check_start(&totals)
                .map_err(|e| snap::nest(".timeline", e))?;
        }
        Ok(())
    }
}

/// Checks that the id leading each entry of snapshot member `key` is
/// below `len`.
fn in_range(key: &str, len: usize, ids: impl Iterator<Item = usize>) -> Result<(), String> {
    match ids.enumerate().find(|&(_, id)| id >= len) {
        Some((i, id)) => Err(format!(".{key}[{i}][0]: {id} is out of range (0..{len})")),
        None => Ok(()),
    }
}

/// Moves a context's box to the next latch, or retires it at the pipeline
/// tail.
fn advance(
    ctx: Box<Ctx>,
    i: usize,
    n: usize,
    latch_next: Option<&mut Option<Box<Ctx>>>,
    cx: &mut TickCtx,
    set: TaskSetId,
) {
    if i + 1 == n {
        cx.live.retire((ctx.index, ctx.seq));
        cx.core.retired[set.0] += 1;
    } else {
        let slot = latch_next.expect("next latch exists");
        debug_assert!(slot.is_none(), "advance into occupied latch");
        *slot = Some(ctx);
    }
}
