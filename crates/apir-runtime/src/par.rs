//! Round-based speculative software runtime.
//!
//! Each round takes the `width` minimum active tasks and executes them
//! *as if concurrently*: every task records the memory read/write sets it
//! touches; a task whose read set intersects the write set of an
//! earlier-ordered task in the same round is aborted and retried in a
//! later round (thread-level speculation semantics). Surviving tasks
//! commit in well-order, so the result is deterministic and equal to the
//! sequential interpreter's — which is asserted in tests and is the point
//! of a debugging runtime.

use apir_core::index::IndexTuple;
use apir_core::interp::StepLimitExceeded;
use apir_core::mem::{MemAccess, MemImage};
use apir_core::op::{BodyOp, StoreKind};
use apir_core::program::ProgramInput;
use apir_core::spec::{ExternIn, RegionId, Spec, TaskSetId, TaskSetKind};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Configuration of the round-based runtime.
#[derive(Clone, Copy, Debug)]
pub struct ParConfig {
    /// Simulated workers per round.
    pub width: usize,
    /// Abort the run after this many task executions (including retries).
    pub max_steps: u64,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            width: 20,
            max_steps: 200_000_000,
        }
    }
}

/// Result of a round-based run.
#[derive(Clone, Debug)]
pub struct ParResult {
    /// Final memory image (must equal the sequential interpreter's).
    pub mem: MemImage,
    /// Number of rounds executed.
    pub rounds: u64,
    /// Tasks committed.
    pub committed: u64,
    /// Speculative aborts (task retried next round).
    pub aborts: u64,
    /// Committed tasks per round (profile for the virtual-core model).
    pub round_commits: Vec<u64>,
}

#[derive(PartialEq, Eq)]
struct ActiveTask {
    index: IndexTuple,
    seq: u64,
    task_set: TaskSetId,
    fields: Vec<u64>,
}

impl Ord for ActiveTask {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.index, self.seq).cmp(&(other.index, other.seq))
    }
}

impl PartialOrd for ActiveTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A memory wrapper recording read/write sets and buffering writes.
///
/// *Every* read is tracked — including reads issued from inside extern
/// IP cores, which go through the `MemAccess::read(&self, ..)` path —
/// so conflict detection covers extern-heavy specs (COOR-LU's commit
/// units read and decrement shared dependence counters). The read set
/// uses interior mutability because the trait read is `&self`.
struct SpecMem<'a> {
    base: &'a MemImage,
    writes: HashMap<(usize, u64), u64>,
    read_set: RefCell<HashSet<(usize, u64)>>,
}

impl MemAccess for SpecMem<'_> {
    fn read(&self, region: RegionId, offset: u64) -> u64 {
        let key = (region.0, offset);
        self.read_set.borrow_mut().insert(key);
        // Reads observe the task's own buffered writes.
        if let Some(v) = self.writes.get(&key) {
            return *v;
        }
        self.base.read(region, offset)
    }

    fn write(&mut self, region: RegionId, offset: u64, value: u64) {
        self.writes.insert((region.0, offset), value);
    }
}

impl SpecMem<'_> {
    fn tracked_read(&mut self, region: RegionId, offset: u64) -> u64 {
        self.read(region, offset)
    }
}

/// The round-based speculative runner.
pub struct ParRunner<'s> {
    spec: &'s Spec,
    cfg: ParConfig,
    counters: Vec<u64>,
    heap: BinaryHeap<Reverse<ActiveTask>>,
    seq: u64,
}

struct TaskOutcome {
    writes: HashMap<(usize, u64), u64>,
    read_set: HashSet<(usize, u64)>,
    spawned: Vec<(Option<IndexTuple>, TaskSetId, Vec<u64>)>,
}

impl<'s> ParRunner<'s> {
    /// Creates a runner.
    ///
    /// # Panics
    ///
    /// Panics if the spec was not validated.
    pub fn new(spec: &'s Spec, cfg: ParConfig) -> Self {
        assert!(spec.is_validated(), "spec must be validated");
        ParRunner {
            spec,
            cfg,
            counters: vec![0; spec.task_sets().len()],
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Runs the program to quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`StepLimitExceeded`] when `max_steps` is exceeded.
    pub fn run(
        spec: &'s Spec,
        input: &ProgramInput,
        cfg: ParConfig,
    ) -> Result<ParResult, StepLimitExceeded> {
        let mut runner = ParRunner::new(spec, cfg);
        let mut mem = input.mem.clone();
        for t in &input.initial {
            runner.activate(None, IndexTuple::ROOT, t.task_set, t.fields.clone());
        }
        let mut result = ParResult {
            mem: mem.clone(),
            rounds: 0,
            committed: 0,
            aborts: 0,
            round_commits: Vec::new(),
        };
        let mut steps = 0u64;
        while !runner.heap.is_empty() {
            result.rounds += 1;
            // Take up to `width` minimum tasks.
            let mut batch = Vec::with_capacity(runner.cfg.width);
            for _ in 0..runner.cfg.width {
                match runner.heap.pop() {
                    Some(Reverse(t)) => batch.push(t),
                    None => break,
                }
            }
            // Execute each against the round-start memory.
            let mut outcomes: Vec<TaskOutcome> = Vec::with_capacity(batch.len());
            for task in &batch {
                steps += 1;
                if steps > runner.cfg.max_steps {
                    return Err(StepLimitExceeded {
                        limit: runner.cfg.max_steps,
                    });
                }
                outcomes.push(runner.exec_speculative(&mem, task));
            }
            // Commit in well-order; abort on read-after-write conflicts
            // with earlier tasks of the same round.
            let mut committed_writes: HashSet<(usize, u64)> = HashSet::new();
            let mut commits_this_round = 0u64;
            // Once a task aborts, every later-ordered task of the round is
            // flushed too, so commits happen in exact global well-order
            // (otherwise the activation counters of spawned tasks would
            // diverge from the sequential schedule).
            let mut poisoned = false;
            for (task, outcome) in batch.into_iter().zip(outcomes) {
                let conflict = poisoned
                    || outcome
                        .read_set
                        .iter()
                        .any(|k| committed_writes.contains(k));
                if conflict {
                    poisoned = true;
                    result.aborts += 1;
                    runner.heap.push(Reverse(task));
                    continue;
                }
                for (&(r, o), &v) in &outcome.writes {
                    mem.write(RegionId(r), o, v);
                    committed_writes.insert((r, o));
                }
                for (fixed, ts, fields) in outcome.spawned {
                    runner.activate(fixed, task.index, ts, fields);
                }
                result.committed += 1;
                commits_this_round += 1;
            }
            result.round_commits.push(commits_this_round);
        }
        result.mem = mem;
        Ok(result)
    }

    fn activate(
        &mut self,
        fixed: Option<IndexTuple>,
        parent: IndexTuple,
        ts: TaskSetId,
        fields: Vec<u64>,
    ) {
        let index = match fixed {
            Some(i) => i,
            None => {
                let decl = &self.spec.task_sets()[ts.0];
                let ord = match decl.kind {
                    TaskSetKind::ForEach => {
                        let c = self.counters[ts.0];
                        self.counters[ts.0] += 1;
                        c
                    }
                    TaskSetKind::ForAll => 0,
                };
                parent.child(decl.level, ord)
            }
        };
        self.seq += 1;
        self.heap.push(Reverse(ActiveTask {
            index,
            seq: self.seq,
            task_set: ts,
            fields,
        }));
    }

    /// Executes one task speculatively against a read-only memory view,
    /// buffering writes and recording read/write sets. Rendezvous takes
    /// `otherwise` (the runtime aborts conflicting tasks itself).
    fn exec_speculative(&self, mem: &MemImage, task: &ActiveTask) -> TaskOutcome {
        let body: &[BodyOp] = &self.spec.task_sets()[task.task_set.0].body;
        let mut view = SpecMem {
            base: mem,
            writes: HashMap::new(),
            read_set: RefCell::new(HashSet::new()),
        };
        let mut vals = vec![0u64; body.len()];
        let mut spawned = Vec::new();
        for (pos, op) in body.iter().enumerate() {
            let guard_ok = |g: &Option<apir_core::op::ValRef>, vals: &[u64]| {
                g.is_none_or(|v| vals[v.pos()] != 0)
            };
            vals[pos] = match op {
                BodyOp::Field(n) => task.fields.get(*n as usize).copied().unwrap_or(0),
                BodyOp::IndexComp(l) => task.index.component(*l as usize),
                BodyOp::Const(c) => *c,
                BodyOp::Alu(o, a, b) => o.eval(vals[a.pos()], vals[b.pos()]),
                BodyOp::Select {
                    cond,
                    if_true,
                    if_false,
                } => {
                    if vals[cond.pos()] != 0 {
                        vals[if_true.pos()]
                    } else {
                        vals[if_false.pos()]
                    }
                }
                BodyOp::Load { region, addr } => view.tracked_read(*region, vals[addr.pos()]),
                BodyOp::Store {
                    region,
                    addr,
                    value,
                    kind,
                    guard,
                } => {
                    if guard_ok(guard, &vals) {
                        let a = vals[addr.pos()];
                        let v = vals[value.pos()];
                        match kind {
                            StoreKind::Plain => {
                                view.write(*region, a, v);
                                1
                            }
                            StoreKind::Min => {
                                let old = view.tracked_read(*region, a);
                                if v < old {
                                    view.write(*region, a, v);
                                    1
                                } else {
                                    0
                                }
                            }
                            StoreKind::Cas { expected } => {
                                let old = view.tracked_read(*region, a);
                                if old == vals[expected.pos()] {
                                    view.write(*region, a, v);
                                    1
                                } else {
                                    0
                                }
                            }
                            StoreKind::Add => {
                                let old = view.tracked_read(*region, a);
                                let new = old.wrapping_add(v);
                                view.write(*region, a, new);
                                new
                            }
                        }
                    } else {
                        0
                    }
                }
                BodyOp::Enqueue {
                    task_set,
                    fields,
                    guard,
                } => {
                    if guard_ok(guard, &vals) {
                        spawned.push((
                            None,
                            *task_set,
                            fields.iter().map(|v| vals[v.pos()]).collect(),
                        ));
                        1
                    } else {
                        0
                    }
                }
                BodyOp::EnqueueRange {
                    task_set,
                    lo,
                    hi,
                    extra,
                    guard,
                } => {
                    if guard_ok(guard, &vals) {
                        let (lo, hi) = (vals[lo.pos()], vals[hi.pos()]);
                        let extra: Vec<u64> = extra.iter().map(|v| vals[v.pos()]).collect();
                        for k in lo..hi {
                            let mut f = Vec::with_capacity(1 + extra.len());
                            f.push(k);
                            f.extend_from_slice(&extra);
                            spawned.push((None, *task_set, f));
                        }
                        hi.saturating_sub(lo)
                    } else {
                        0
                    }
                }
                BodyOp::Requeue { fields, guard } => {
                    if guard_ok(guard, &vals) {
                        spawned.push((
                            Some(task.index),
                            task.task_set,
                            fields.iter().map(|v| vals[v.pos()]).collect(),
                        ));
                        1
                    } else {
                        0
                    }
                }
                BodyOp::AllocRule { .. } => 0,
                BodyOp::Rendezvous {
                    rule_instance,
                    guard,
                } => {
                    if guard_ok(guard, &vals) {
                        let rule = match &body[rule_instance.pos()] {
                            BodyOp::AllocRule { rule, .. } => *rule,
                            _ => unreachable!("validated spec"),
                        };
                        self.spec.rules()[rule.0].otherwise as u64
                    } else {
                        0
                    }
                }
                BodyOp::Emit { guard, .. } => guard_ok(guard, &vals) as u64,
                BodyOp::Extern { ext, args, guard } => {
                    if guard_ok(guard, &vals) {
                        let args: Vec<u64> = args.iter().map(|v| vals[v.pos()]).collect();
                        let f = self.spec.externs()[ext.0].f.clone();
                        let out = f(
                            &mut view,
                            &ExternIn {
                                args: &args,
                                index: task.index,
                            },
                        );
                        for (ts, fields) in out.new_tasks {
                            spawned.push((None, ts, fields));
                        }
                        out.out
                    } else {
                        0
                    }
                }
            };
        }
        TaskOutcome {
            writes: view.writes,
            read_set: view.read_set.into_inner(),
            spawned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_core::interp::SeqInterp;
    use apir_core::op::AluOp;

    /// Chained increments with data dependences between tasks hitting the
    /// same cell: speculation must abort and retry to match sequential.
    fn racy_spec() -> (Spec, TaskSetId, RegionId) {
        let mut s = Spec::new("racy");
        let r = s.region("cells", 8);
        let ts = s.task_set("inc", TaskSetKind::ForEach, 1, &["cell"]);
        let mut b = s.body(ts);
        let cell = b.field(0);
        let old = b.load(r, cell);
        let one = b.konst(1);
        let new = b.alu(AluOp::Add, old, one);
        b.store_plain(r, cell, new);
        b.finish();
        (s, ts, r)
    }

    #[test]
    fn conflicting_tasks_match_sequential() {
        let (s, ts, r) = racy_spec();
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        for i in 0..40u64 {
            input.seed(&s, ts, &[i % 4]);
        }
        let seq = SeqInterp::run(&s, &input).unwrap();
        let par = ParRunner::run(&s, &input, ParConfig::default()).unwrap();
        assert!(par.mem.diff(&seq.mem, 5).is_empty());
        assert_eq!(par.mem.read(r, 0), 10);
        assert!(par.aborts > 0, "expected speculative aborts");
        assert_eq!(par.committed, 40);
        assert_eq!(par.round_commits.iter().sum::<u64>(), par.committed);
    }

    #[test]
    fn independent_tasks_run_wide() {
        let (s, ts, _r) = racy_spec();
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        for i in 0..40u64 {
            input.seed(&s, ts, &[i % 8]);
        }
        // Width 8 with 8 distinct cells: first round has at most 8 tasks,
        // conflicts only within the same cell.
        let par = ParRunner::run(
            &s,
            &input,
            ParConfig {
                width: 8,
                max_steps: 10_000,
            },
        )
        .unwrap();
        let seq = SeqInterp::run(&s, &input).unwrap();
        assert!(par.mem.diff(&seq.mem, 5).is_empty());
        assert!(par.rounds >= 5, "rounds {}", par.rounds);
    }

    #[test]
    fn spawning_tasks_supported() {
        let mut s = Spec::new("spawn");
        let r = s.region("out", 64);
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["n"]);
        let mut b = s.body(ts);
        let n = b.field(0);
        let one = b.konst(1);
        b.store_plain(r, n, n);
        let nm1 = b.alu(AluOp::Sub, n, one);
        let more = b.alu(AluOp::Gt, n, one);
        b.enqueue(ts, &[nm1], Some(more));
        b.finish();
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        input.seed(&s, ts, &[20]);
        let par = ParRunner::run(&s, &input, ParConfig::default()).unwrap();
        let seq = SeqInterp::run(&s, &input).unwrap();
        assert!(par.mem.diff(&seq.mem, 5).is_empty());
        assert_eq!(par.committed, 20);
    }

    #[test]
    fn step_limit_enforced() {
        let mut s = Spec::new("forever");
        let ts = s.task_set("l", TaskSetKind::ForEach, 1, &["x"]);
        let mut b = s.body(ts);
        let x = b.field(0);
        b.requeue(&[x], None);
        b.finish();
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        input.seed(&s, ts, &[0]);
        let err = ParRunner::run(
            &s,
            &input,
            ParConfig {
                width: 4,
                max_steps: 50,
            },
        )
        .unwrap_err();
        assert_eq!(err.limit, 50);
    }
}
