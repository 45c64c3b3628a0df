//! Boolean Dataflow Graph (BDFG) intermediate representation.
//!
//! Section 5.1 of the paper: the bridge from software specification to
//! hardware implementation is a dataflow model of computation with switch
//! actors (Buck's Boolean Dataflow). Task bodies become chains of primitive
//! actors; task queues, rule constructors and rendezvous are inserted as
//! primitive operations of the graph. The `apir-synth` crate embeds this
//! graph into the simulated fabric; this module builds, validates,
//! summarizes and pretty-prints it.

use crate::op::BodyOp;
use crate::spec::{Spec, TaskSetId};
use std::fmt::Write as _;

/// Kind of a BDFG actor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ActorKind {
    /// Pops tasks of a set from its queue into the pipeline.
    QueuePop(TaskSetId),
    /// Pushes newly activated tasks of a set into its queue.
    QueuePush(TaskSetId),
    /// A primitive operation of a task body (mirrors one [`BodyOp`]).
    Primitive {
        /// Owning task set.
        task_set: TaskSetId,
        /// Position in the body.
        pos: usize,
        /// Mnemonic (`add`, `load`, `rendezvous`, ...).
        mnemonic: &'static str,
    },
    /// A rule engine serving one rule declaration.
    RuleEngine(usize),
    /// The event bus tap for one label.
    EventTap(usize),
    /// The shared memory subsystem port.
    MemoryPort,
}

/// A node of the BDFG.
#[derive(Clone, Debug)]
pub struct Actor {
    /// Dense id.
    pub id: usize,
    /// Kind.
    pub kind: ActorKind,
    /// Display label.
    pub label: String,
}

/// Kind of a BDFG channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Task tokens flowing through a pipeline.
    Token,
    /// Data operand forwarding between primitives.
    Data,
    /// Queue push/pop (task activation).
    Queue,
    /// Event broadcast.
    Event,
    /// Rule construction / return value.
    Rule,
    /// Memory request/response.
    Memory,
}

/// A directed channel between actors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Producer actor id.
    pub from: usize,
    /// Consumer actor id.
    pub to: usize,
    /// Channel kind.
    pub kind: EdgeKind,
}

/// Summary statistics of a graph (feeds the resource model).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BdfgSummary {
    /// Primitive actors per task set.
    pub primitives: Vec<usize>,
    /// Total actors.
    pub actors: usize,
    /// Total channels.
    pub edges: usize,
    /// Number of rule engines.
    pub rule_engines: usize,
    /// Number of event taps.
    pub event_taps: usize,
    /// Loads + stores (memory ports used).
    pub memory_ops: usize,
}

/// The Boolean Dataflow Graph of a specification.
#[derive(Clone, Debug)]
pub struct Bdfg {
    actors: Vec<Actor>,
    edges: Vec<Edge>,
    n_task_sets: usize,
}

impl Bdfg {
    /// Lowers a validated spec into its BDFG.
    ///
    /// # Panics
    ///
    /// Panics if the spec was not validated.
    pub fn from_spec(spec: &Spec) -> Self {
        assert!(spec.is_validated(), "spec must be validated");
        Self::lower_unchecked(spec)
    }

    /// Lowers a spec into its BDFG without requiring validation.
    ///
    /// The analyzer ([`crate::check::check_all`]) uses this to lint graphs
    /// of not-yet-built specs; it only lowers specs whose body-structure
    /// lints are clean, so the lowering cannot index out of bounds.
    pub fn lower_unchecked(spec: &Spec) -> Self {
        let mut g = Bdfg {
            actors: Vec::new(),
            edges: Vec::new(),
            n_task_sets: spec.task_sets().len(),
        };
        // Shared actors first: memory port, rule engines, event taps, queues.
        let mem_port = g.add(ActorKind::MemoryPort, "memory".to_string());
        let rule_engines: Vec<usize> = spec
            .rules()
            .iter()
            .enumerate()
            .map(|(i, r)| g.add(ActorKind::RuleEngine(i), format!("rule:{}", r.name)))
            .collect();
        let event_taps: Vec<usize> = spec
            .labels()
            .iter()
            .enumerate()
            .map(|(i, l)| g.add(ActorKind::EventTap(i), format!("event:{l}")))
            .collect();
        // Event taps feed the rule engines that subscribe to them.
        for (ri, r) in spec.rules().iter().enumerate() {
            for c in &r.clauses {
                if let crate::rule::EventPat::Label(l) = c.event {
                    g.edge(event_taps[l.0], rule_engines[ri], EdgeKind::Event);
                }
            }
        }
        let pops: Vec<usize> = spec
            .task_sets()
            .iter()
            .enumerate()
            .map(|(i, t)| g.add(ActorKind::QueuePop(TaskSetId(i)), format!("pop:{}", t.name)))
            .collect();
        let pushes: Vec<usize> = spec
            .task_sets()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                g.add(
                    ActorKind::QueuePush(TaskSetId(i)),
                    format!("push:{}", t.name),
                )
            })
            .collect();
        for i in 0..spec.task_sets().len() {
            g.edge(pushes[i], pops[i], EdgeKind::Queue);
        }
        // Per task set: a chain of primitive actors.
        for (tsi, ts) in spec.task_sets().iter().enumerate() {
            let mut prim_ids = Vec::with_capacity(ts.body.len());
            let mut prev = pops[tsi];
            for (pos, op) in ts.body.iter().enumerate() {
                let id = g.add(
                    ActorKind::Primitive {
                        task_set: TaskSetId(tsi),
                        pos,
                        mnemonic: op.mnemonic(),
                    },
                    format!("{}[{}]:{}", ts.name, pos, op.mnemonic()),
                );
                prim_ids.push(id);
                // Token chain (pipeline order).
                g.edge(prev, id, EdgeKind::Token);
                prev = id;
                // Operand data edges.
                for v in op.operands() {
                    g.edge(prim_ids[v.pos()], id, EdgeKind::Data);
                }
                match op {
                    BodyOp::Load { .. } | BodyOp::Store { .. } => {
                        g.edge(id, mem_port, EdgeKind::Memory);
                        g.edge(mem_port, id, EdgeKind::Memory);
                    }
                    BodyOp::Enqueue { task_set, .. } | BodyOp::EnqueueRange { task_set, .. } => {
                        g.edge(id, pushes[task_set.0], EdgeKind::Queue);
                    }
                    BodyOp::Requeue { .. } => {
                        // Recirculation pushes into the task's own queue.
                        g.edge(id, pushes[tsi], EdgeKind::Queue);
                    }
                    BodyOp::AllocRule { rule, .. } => {
                        g.edge(id, rule_engines[rule.0], EdgeKind::Rule);
                    }
                    BodyOp::Rendezvous { rule_instance, .. } => {
                        if let BodyOp::AllocRule { rule, .. } = &ts.body[rule_instance.pos()] {
                            g.edge(rule_engines[rule.0], id, EdgeKind::Rule);
                        }
                    }
                    BodyOp::Emit { label, .. } => {
                        g.edge(id, event_taps[label.0], EdgeKind::Event);
                    }
                    BodyOp::Extern { .. } => {
                        g.edge(id, mem_port, EdgeKind::Memory);
                        g.edge(mem_port, id, EdgeKind::Memory);
                    }
                    _ => {}
                }
            }
        }
        g
    }

    fn add(&mut self, kind: ActorKind, label: String) -> usize {
        let id = self.actors.len();
        self.actors.push(Actor { id, kind, label });
        id
    }

    fn edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        self.edges.push(Edge { from, to, kind });
    }

    /// All actors.
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// All channels.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Assembles a graph from hand-built parts (tests and tooling that
    /// exercise the analyzer on deliberately malformed graphs).
    pub fn from_parts(actors: Vec<Actor>, edges: Vec<Edge>, n_task_sets: usize) -> Self {
        Bdfg {
            actors,
            edges,
            n_task_sets,
        }
    }

    /// Runs the graph-level analyses (structure, reachability, cycles) and
    /// returns the full report. Needs the spec for guard information.
    pub fn check(&self, spec: &Spec) -> crate::check::Report {
        crate::check::check_bdfg(self, spec)
    }

    /// Validates structural invariants of the graph: every channel
    /// endpoint exists and every queue-pop actor has an incoming queue
    /// edge.
    ///
    /// Thin compatibility shim over the structural family of the analyzer
    /// ([`crate::check::check_bdfg_structure`]); the first error-level
    /// diagnostic becomes the error string.
    pub fn validate(&self) -> Result<(), String> {
        let report = crate::check::check_bdfg_structure(self);
        match report.first_error() {
            Some(d) => Err(d.message.clone()),
            None => Ok(()),
        }
    }

    /// Summary statistics.
    pub fn summary(&self) -> BdfgSummary {
        let mut s = BdfgSummary {
            primitives: vec![0; self.n_task_sets],
            actors: self.actors.len(),
            edges: self.edges.len(),
            ..Default::default()
        };
        for a in &self.actors {
            match &a.kind {
                ActorKind::Primitive {
                    task_set, mnemonic, ..
                } => {
                    s.primitives[task_set.0] += 1;
                    if *mnemonic == "load" || *mnemonic == "store" {
                        s.memory_ops += 1;
                    }
                }
                ActorKind::RuleEngine(_) => s.rule_engines += 1,
                ActorKind::EventTap(_) => s.event_taps += 1,
                _ => {}
            }
        }
        s
    }

    /// Renders the graph in Graphviz DOT, clustered by task set.
    pub fn to_dot(&self, spec: &Spec) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph bdfg {{");
        let _ = writeln!(out, "  rankdir=LR; node [shape=box, fontsize=10];");
        for (tsi, ts) in spec.task_sets().iter().enumerate() {
            let _ = writeln!(out, "  subgraph cluster_{tsi} {{");
            let _ = writeln!(out, "    label=\"pipeline: {}\";", ts.name);
            for a in &self.actors {
                let belongs = match &a.kind {
                    ActorKind::Primitive { task_set, .. } => task_set.0 == tsi,
                    ActorKind::QueuePop(t) | ActorKind::QueuePush(t) => t.0 == tsi,
                    _ => false,
                };
                if belongs {
                    let _ = writeln!(out, "    n{} [label=\"{}\"];", a.id, a.label);
                }
            }
            let _ = writeln!(out, "  }}");
        }
        for a in &self.actors {
            let shared = matches!(
                a.kind,
                ActorKind::RuleEngine(_) | ActorKind::EventTap(_) | ActorKind::MemoryPort
            );
            if shared {
                let _ = writeln!(
                    out,
                    "  n{} [label=\"{}\", shape=ellipse, style=filled, fillcolor=lightgray];",
                    a.id, a.label
                );
            }
        }
        for e in &self.edges {
            let style = match e.kind {
                EdgeKind::Token => "solid",
                EdgeKind::Data => "dotted",
                EdgeKind::Queue => "bold",
                EdgeKind::Event => "dashed",
                EdgeKind::Rule => "dashed",
                EdgeKind::Memory => "dotted",
            };
            let _ = writeln!(out, "  n{} -> n{} [style={style}];", e.from, e.to);
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::AluOp;
    use crate::spec::TaskSetKind;

    fn two_set_spec() -> Spec {
        let mut s = Spec::new("g");
        let r = s.region("mem", 32);
        let inner = s.task_set("inner", TaskSetKind::ForAll, 2, &["i"]);
        let outer = s.task_set("outer", TaskSetKind::ForEach, 1, &["lo", "hi"]);
        {
            let mut b = s.body(inner);
            let i = b.field(0);
            let v = b.load(r, i);
            let one = b.konst(1);
            let w = b.alu(AluOp::Add, v, one);
            b.store_plain(r, i, w);
            b.finish();
        }
        {
            let mut b = s.body(outer);
            let lo = b.field(0);
            let hi = b.field(1);
            b.enqueue_range(inner, lo, hi, &[], None);
            b.finish();
        }
        s.build().unwrap()
    }

    #[test]
    fn lowering_produces_expected_actors() {
        let s = two_set_spec();
        let g = Bdfg::from_spec(&s);
        g.validate().unwrap();
        let sum = g.summary();
        assert_eq!(sum.primitives, vec![5, 3]);
        assert_eq!(sum.memory_ops, 2);
        assert_eq!(sum.rule_engines, 0);
        // queue pops/pushes for both sets + mem port + primitives
        assert_eq!(sum.actors, 1 + 4 + 5 + 3);
    }

    #[test]
    fn queue_edges_connect_pipelines() {
        let s = two_set_spec();
        let g = Bdfg::from_spec(&s);
        // outer's expand must push into inner's queue.
        let push_inner = g
            .actors()
            .iter()
            .find(|a| a.label == "push:inner")
            .unwrap()
            .id;
        let expand = g
            .actors()
            .iter()
            .find(|a| a.label.contains("outer") && a.label.contains("expand"))
            .unwrap()
            .id;
        assert!(g
            .edges()
            .iter()
            .any(|e| e.from == expand && e.to == push_inner && e.kind == EdgeKind::Queue));
    }

    #[test]
    fn dot_output_contains_clusters() {
        let s = two_set_spec();
        let g = Bdfg::from_spec(&s);
        let dot = g.to_dot(&s);
        assert!(dot.contains("digraph bdfg"));
        assert!(dot.contains("pipeline: inner"));
        assert!(dot.contains("pipeline: outer"));
        assert!(dot.contains("->"));
    }
}
