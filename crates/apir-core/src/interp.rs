//! Sequential reference interpreter — the golden model.
//!
//! Definition 4.3 of the paper: *sequential execution* repeatedly chooses
//! the minimum task among all active tasks and applies it to the program
//! state until no active task remains. Under sequential execution every
//! rendezvous takes its rule's `otherwise` exit (the executing task is by
//! construction the minimum waiting task), so rules never alter sequential
//! results — they only matter for parallel engines.
//!
//! Every parallel engine in this workspace is verified against this
//! interpreter's final memory image.

use crate::index::IndexTuple;
use crate::mem::{MemAccess, MemImage};
use crate::op::{BodyOp, StoreKind};
use crate::program::ProgramInput;
use crate::spec::{ExternIn, Spec, TaskSetId, TaskSetKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Execution statistics of a sequential run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeqStats {
    /// Tasks executed, per task set.
    pub tasks: Vec<u64>,
    /// Primitive body ops executed (incl. squash-guarded ones).
    pub ops: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores committed (guard passed).
    pub stores: u64,
    /// Stores that "won" (changed memory).
    pub store_wins: u64,
    /// Tasks activated by enqueues (incl. seeded).
    pub enqueued: u64,
    /// Peak number of simultaneously active tasks.
    pub peak_active: u64,
    /// Aggregate extern core cost.
    pub extern_bytes_read: u64,
    /// Aggregate extern bytes written.
    pub extern_bytes_written: u64,
    /// Aggregate extern compute cycles.
    pub extern_cycles: u64,
}

impl SeqStats {
    /// Total tasks across all sets.
    pub fn total_tasks(&self) -> u64 {
        self.tasks.iter().sum()
    }
}

/// Result of a sequential run: final memory plus statistics.
#[derive(Clone, Debug)]
pub struct SeqResult {
    /// Final memory image.
    pub mem: MemImage,
    /// Run statistics.
    pub stats: SeqStats,
}

/// Error for runaway executions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepLimitExceeded {
    /// The limit that was hit.
    pub limit: u64,
}

impl fmt::Display for StepLimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sequential execution exceeded {} tasks", self.limit)
    }
}

impl std::error::Error for StepLimitExceeded {}

#[derive(PartialEq, Eq)]
struct ActiveTask {
    index: IndexTuple,
    seq: u64,
    task_set: TaskSetId,
    fields: Vec<u64>,
}

impl Ord for ActiveTask {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Well-order first; FIFO (activation sequence) breaks ties among
        // for-all siblings that share an index.
        (self.index, self.seq).cmp(&(other.index, other.seq))
    }
}

impl PartialOrd for ActiveTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The sequential interpreter.
pub struct SeqInterp<'s> {
    spec: &'s Spec,
    counters: Vec<u64>,
    heap: BinaryHeap<Reverse<ActiveTask>>,
    seq: u64,
    stats: SeqStats,
}

impl<'s> SeqInterp<'s> {
    /// Creates an interpreter for a validated spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec was not validated with [`Spec::build`].
    pub fn new(spec: &'s Spec) -> Self {
        assert!(spec.is_validated(), "spec must be validated");
        SeqInterp {
            spec,
            counters: vec![0; spec.task_sets().len()],
            heap: BinaryHeap::new(),
            seq: 0,
            stats: SeqStats {
                tasks: vec![0; spec.task_sets().len()],
                ..Default::default()
            },
        }
    }

    /// Runs to completion with a default task limit of 200 million.
    ///
    /// # Errors
    ///
    /// Returns [`StepLimitExceeded`] if the application does not quiesce.
    pub fn run(spec: &'s Spec, input: &ProgramInput) -> Result<SeqResult, StepLimitExceeded> {
        Self::run_with_limit(spec, input, 200_000_000)
    }

    /// Runs to completion, failing after `limit` tasks.
    ///
    /// # Errors
    ///
    /// Returns [`StepLimitExceeded`] if more than `limit` tasks execute.
    pub fn run_with_limit(
        spec: &'s Spec,
        input: &ProgramInput,
        limit: u64,
    ) -> Result<SeqResult, StepLimitExceeded> {
        let mut interp = SeqInterp::new(spec);
        let mut mem = input.mem.clone();
        for t in &input.initial {
            interp.activate(IndexTuple::ROOT, t.task_set, t.fields.clone());
        }
        let mut executed = 0u64;
        while let Some(Reverse(task)) = interp.heap.pop() {
            executed += 1;
            if executed > limit {
                return Err(StepLimitExceeded { limit });
            }
            interp.exec_task(&mut mem, &task);
        }
        Ok(SeqResult {
            mem,
            stats: interp.stats,
        })
    }

    fn activate(&mut self, parent: IndexTuple, ts: TaskSetId, fields: Vec<u64>) {
        let decl = &self.spec.task_sets()[ts.0];
        let ord = match decl.kind {
            TaskSetKind::ForEach => {
                let c = self.counters[ts.0];
                self.counters[ts.0] += 1;
                c
            }
            TaskSetKind::ForAll => 0,
        };
        let index = parent.child(decl.level, ord);
        self.activate_fixed(index, ts, fields);
    }

    /// Activates a task with an explicit index (requeue keeps the parent's
    /// own index so retries do not lose their well-order position).
    fn activate_fixed(&mut self, index: IndexTuple, ts: TaskSetId, fields: Vec<u64>) {
        self.seq += 1;
        self.stats.enqueued += 1;
        self.heap.push(Reverse(ActiveTask {
            index,
            seq: self.seq,
            task_set: ts,
            fields,
        }));
        self.stats.peak_active = self.stats.peak_active.max(self.heap.len() as u64);
    }

    fn exec_task(&mut self, mem: &mut MemImage, task: &ActiveTask) {
        self.stats.tasks[task.task_set.0] += 1;
        let body: &[BodyOp] = &self.spec.task_sets()[task.task_set.0].body;
        let mut vals = vec![0u64; body.len()];
        // Deferred activations preserve in-body order while `self` is
        // borrowed for the body iteration. `Some(index)` pins the index
        // (requeue); `None` derives a child index.
        let mut pending: Vec<(Option<IndexTuple>, TaskSetId, Vec<u64>)> = Vec::new();
        for (pos, op) in body.iter().enumerate() {
            self.stats.ops += 1;
            let guard_ok =
                |g: &Option<crate::op::ValRef>, vals: &[u64]| g.is_none_or(|v| vals[v.pos()] != 0);
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
                BodyOp::Load { region, addr } => {
                    self.stats.loads += 1;
                    mem.read(*region, vals[addr.pos()])
                }
                BodyOp::Store {
                    region,
                    addr,
                    value,
                    kind,
                    guard,
                } => {
                    if guard_ok(guard, &vals) {
                        self.stats.stores += 1;
                        let a = vals[addr.pos()];
                        let v = vals[value.pos()];
                        let won = match kind {
                            StoreKind::Plain => {
                                mem.write(*region, a, v);
                                true
                            }
                            StoreKind::Min => {
                                let old = mem.read(*region, a);
                                if v < old {
                                    mem.write(*region, a, v);
                                    true
                                } else {
                                    false
                                }
                            }
                            StoreKind::Cas { expected } => {
                                let old = mem.read(*region, a);
                                if old == vals[expected.pos()] {
                                    mem.write(*region, a, v);
                                    true
                                } else {
                                    false
                                }
                            }
                            StoreKind::Add => {
                                let new = mem.read(*region, a).wrapping_add(v);
                                mem.write(*region, a, new);
                                self.stats.store_wins += 1;
                                // Fetch-and-add returns the new value, not
                                // a won flag; skip the generic accounting.
                                vals[pos] = new;
                                continue;
                            }
                        };
                        if won {
                            self.stats.store_wins += 1;
                        }
                        won as u64
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
                        pending.push((
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
                        let lo = vals[lo.pos()];
                        let hi = vals[hi.pos()];
                        let extra: Vec<u64> = extra.iter().map(|v| vals[v.pos()]).collect();
                        for k in lo..hi {
                            let mut f = Vec::with_capacity(1 + extra.len());
                            f.push(k);
                            f.extend_from_slice(&extra);
                            pending.push((None, *task_set, f));
                        }
                        hi.saturating_sub(lo)
                    } else {
                        0
                    }
                }
                BodyOp::Requeue { fields, guard } => {
                    if guard_ok(guard, &vals) {
                        pending.push((
                            Some(task.index),
                            task.task_set,
                            fields.iter().map(|v| vals[v.pos()]).collect(),
                        ));
                        1
                    } else {
                        0
                    }
                }
                // Sequentially the executing task is always the minimum
                // waiting task, so the rendezvous takes the otherwise exit.
                BodyOp::AllocRule { .. } => 0,
                BodyOp::Rendezvous {
                    rule_instance,
                    guard,
                } => {
                    if guard_ok(guard, &vals) {
                        let rule = match &body[rule_instance.pos()] {
                            BodyOp::AllocRule { rule, .. } => *rule,
                            _ => unreachable!("validated: rendezvous consumes alloc_rule"),
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
                            mem,
                            &ExternIn {
                                args: &args,
                                index: task.index,
                            },
                        );
                        self.stats.extern_bytes_read += out.cost.bytes_read;
                        self.stats.extern_bytes_written += out.cost.bytes_written;
                        self.stats.extern_cycles += out.cost.compute_cycles;
                        for (ts, f) in out.new_tasks {
                            pending.push((None, ts, f));
                        }
                        // Events are scheduling hints; they do not affect
                        // sequential semantics.
                        out.out
                    } else {
                        0
                    }
                }
            };
        }
        for (fixed, ts, fields) in pending {
            match fixed {
                Some(index) => self.activate_fixed(index, ts, fields),
                None => self.activate(task.index, ts, fields),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::AluOp;
    use crate::rule::RuleDecl;
    use crate::spec::{RegionId, TaskSetKind};

    /// Tasks increment a counter cell and recirculate until a bound.
    fn countdown_spec() -> (Spec, TaskSetId, RegionId) {
        let mut s = Spec::new("count");
        let r = s.region("cells", 8);
        let ts = s.task_set("tick", TaskSetKind::ForEach, 1, &["n"]);
        let mut b = s.body(ts);
        let n = b.field(0);
        let zero = b.konst(0);
        let old = b.load(r, zero);
        let one = b.konst(1);
        let new = b.alu(AluOp::Add, old, one);
        b.store_plain(r, zero, new);
        let nm1 = b.alu(AluOp::Sub, n, one);
        let more = b.alu(AluOp::Gt, n, one);
        b.enqueue(ts, &[nm1], Some(more));
        b.finish();
        (s, ts, r)
    }

    #[test]
    fn recirculation_runs_n_tasks() {
        let (s, ts, r) = countdown_spec();
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        input.seed(&s, ts, &[5]);
        let res = SeqInterp::run(&s, &input).unwrap();
        assert_eq!(res.mem.read(r, 0), 5);
        assert_eq!(res.stats.total_tasks(), 5);
        assert_eq!(res.stats.enqueued, 5);
    }

    #[test]
    fn step_limit_catches_runaway() {
        let mut s = Spec::new("forever");
        let ts = s.task_set("loop", TaskSetKind::ForEach, 1, &["x"]);
        let mut b = s.body(ts);
        let x = b.field(0);
        b.enqueue(ts, &[x], None);
        b.finish();
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        input.seed(&s, ts, &[0]);
        let err = SeqInterp::run_with_limit(&s, &input, 100).unwrap_err();
        assert_eq!(err.limit, 100);
    }

    #[test]
    fn store_min_wins_only_on_improvement() {
        let mut s = Spec::new("min");
        let r = s.region("v", 4);
        let wins = s.region("wins", 16);
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["val"]);
        let mut b = s.body(ts);
        let v = b.field(0);
        let zero = b.konst(0);
        let won = b.store_min(r, zero, v, None);
        let one = b.konst(1);
        b.store(wins, v, one, crate::op::StoreKind::Plain, Some(won));
        b.finish();
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        input.mem.fill(RegionId(0), 0, &[100]);
        input.seed(&s, ts, &[7]);
        input.seed(&s, ts, &[9]); // loses: 9 > 7
        input.seed(&s, ts, &[3]); // wins
        let res = SeqInterp::run(&s, &input).unwrap();
        assert_eq!(res.mem.read(r, 0), 3);
        assert_eq!(res.stats.store_wins, 2 + 2); // two min wins + their markers
        assert_eq!(res.mem.read(wins, 7), 1);
        assert_eq!(res.mem.read(wins, 9), 0);
        assert_eq!(res.mem.read(wins, 3), 1);
    }

    #[test]
    fn rendezvous_takes_otherwise_sequentially() {
        let mut s = Spec::new("rv");
        let r = s.region("out", 2);
        let rule_t = s.rule(RuleDecl::new("always", 0, true));
        let rule_f = s.rule(RuleDecl::new("never", 0, false));
        let ts = s.task_set("t", TaskSetKind::ForEach, 1, &["x"]);
        let mut b = s.body(ts);
        let h1 = b.alloc_rule(rule_t, &[]);
        let v1 = b.rendezvous(h1);
        let h2 = b.alloc_rule(rule_f, &[]);
        let v2 = b.rendezvous(h2);
        let zero = b.konst(0);
        let one = b.konst(1);
        b.store(r, zero, v1, StoreKind::Plain, None);
        b.store(r, one, v2, StoreKind::Plain, None);
        b.finish();
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        input.seed(&s, ts, &[0]);
        let res = SeqInterp::run(&s, &input).unwrap();
        assert_eq!(res.mem.read(r, 0), 1);
        assert_eq!(res.mem.read(r, 1), 0);
    }

    #[test]
    fn enqueue_range_expands() {
        let mut s = Spec::new("range");
        let r = s.region("hits", 16);
        let child = s.task_set("child", TaskSetKind::ForAll, 2, &["i", "tag"]);
        let parent = s.task_set("parent", TaskSetKind::ForEach, 1, &["lo", "hi"]);
        {
            let mut b = s.body(child);
            let i = b.field(0);
            let tag = b.field(1);
            b.store_plain(r, i, tag);
            b.finish();
        }
        {
            let mut b = s.body(parent);
            let lo = b.field(0);
            let hi = b.field(1);
            let tag = b.konst(9);
            b.enqueue_range(child, lo, hi, &[tag], None);
            b.finish();
        }
        let s = s.build().unwrap();
        let mut input = ProgramInput::new(&s);
        input.seed(&s, parent, &[2, 6]);
        let res = SeqInterp::run(&s, &input).unwrap();
        for i in 0..16u64 {
            let want = if (2..6).contains(&i) { 9 } else { 0 };
            assert_eq!(res.mem.read(r, i), want, "cell {i}");
        }
        assert_eq!(res.stats.tasks, vec![4, 1]);
        assert!(res.stats.peak_active >= 4);
    }
}
