//! The one place fabric state becomes metrics and per-tick trace records.
//! [`Fabric::walk_levels`] names each running total and gauge once, for
//! [`Fabric::metrics`] and the traced tick's diff. [`Fabric::sample`]
//! takes the per-cycle samples from each component's occupancy and
//! `admission_stall`; they are the only metric state the fabric keeps.
//! [`Fabric::metrics`] renders everything from the components whenever
//! metrics are read, and [`Fabric::load_metrics`] reads a snapshot's
//! samples back, checks them against the clock, and checks the rest of
//! its metrics against the state.

use super::Fabric;
use apir_core::spec::Spec;
use apir_sim::metrics::{Histogram, MetricValue, MetricsSnapshot};
use apir_sim::stats::{StallCause, UtilizationSummary};
use apir_sim::trace::CompId;
use apir_util::json::Json;
use apir_util::snap::Snap;
use std::fmt;

/// The trace component and label of a counter whose moves a traced tick
/// records.
type Label = Option<(CompId, &'static str)>;

/// A traced counter's component, label and value.
type Traced = (CompId, &'static str, u64);

/// One component's per-cycle samples under its key prefix: its
/// occupancy histogram, if it keeps one, and its admission stalls by
/// cause.
#[derive(Clone)]
pub(super) struct Samples {
    key: String,
    occupancy: Option<(&'static str, Histogram)>,
    stalls: [(StallCause, u64); 2],
}

impl Samples {
    /// Empty samples for every component, in the order
    /// [`Fabric::sample`] takes them: each queue, the memory, each rule
    /// engine.
    pub(super) fn all(spec: &Spec) -> Box<[Samples]> {
        use StallCause::{Bandwidth, LaneBusy, LaneMasked, MshrFull, QueueFull, ReserveFull};
        let new = |key: String, hist: Option<&'static str>, by: [StallCause; 2]| Samples {
            key,
            occupancy: hist.map(|h| (h, Histogram::new())),
            stalls: by.map(|c| (c, 0)),
        };
        let hist = Some("occupancy_hist");
        let queues = spec.task_sets().iter().map(|t| format!("queue.{}", t.name));
        let queues = queues.map(|k| new(k, hist, [QueueFull, ReserveFull]));
        let mem = new("mem".into(), Some("inflight_hist"), [MshrFull, Bandwidth]);
        let rules = spec.rules().iter().map(|r| format!("rule.{}", r.name));
        let rules = rules.map(|k| new(k, None, [LaneBusy, LaneMasked]));
        queues.chain([mem]).chain(rules).collect()
    }

    /// Takes the samples of `n` cycles that all see `occupancy` and `stall`.
    fn take(&mut self, occupancy: usize, stall: Option<StallCause>, n: u64) {
        if let Some((_, h)) = &mut self.occupancy {
            h.observe_n(occupancy as u64, n);
        }
        let Some(cause) = stall else { return };
        let by_cause = self.stalls.iter_mut().find(|c| c.0 == cause);
        by_cause.expect("a sampled cause").1 += n;
    }

    /// Adds the histogram, the stalls in total and the stalls by cause.
    fn render(&self, out: &mut Vec<(String, MetricValue)>) {
        let key = &self.key;
        if let Some((name, h)) = &self.occupancy {
            out.push((format!("{key}.{name}"), MetricValue::Histogram(h.clone())));
        }
        let [(_, a), (_, b)] = self.stalls;
        let total = MetricValue::Counter(a.saturating_add(b));
        out.push((format!("{key}.stall"), total));
        for (c, v) in self.stalls {
            out.push((format!("{key}.stall.{}", c.key()), MetricValue::Counter(v)));
        }
    }

    /// Reads the samples back from `m`, a rendering a snapshot taken at
    /// `cycle` loaded into, and checks them against that clock: a
    /// histogram observes each cycle once, and a component stalls for one
    /// cause at most a cycle, so the next samples cannot overflow.
    fn read_back(&mut self, m: &MetricsSnapshot, cycle: u64) -> Result<(), String> {
        let key = &self.key;
        let kept = "a load keeps the rendered keys and kinds";
        if let Some((name, h)) = &mut self.occupancy {
            *h = m.histogram(&format!("{key}.{name}")).expect(kept).clone();
            let n = h.count();
            let held: u128 = h.nonzero_buckets().map(|(_, k)| u128::from(k)).sum();
            if n != cycle || held != u128::from(cycle) {
                return Err(format!(
                    "`{key}.{name}` counts {n} cycles in buckets that hold {held}, \
                     but the clock is at cycle {cycle}"
                ));
            }
        }
        for (c, v) in &mut self.stalls {
            *v = m.counter(&format!("{key}.stall.{}", c.key())).expect(kept);
        }
        let [(a, x), (b, y)] = self.stalls.map(|(c, v)| (c.key(), u128::from(v)));
        if x + y > u128::from(cycle) {
            return Err(format!(
                "`{key}.stall.{a}` and `{key}.stall.{b}` sum to more than \
                 the clock's {cycle} cycles"
            ));
        }
        Ok(())
    }
}

impl Fabric {
    /// Passes `row` each running total and gauge, except the samples, the
    /// activity totals and `fault.rollback.*`: its key, its value
    /// (`fabric.cycles` reads the clock) and, for a counter whose moves a
    /// traced tick records, the trace component and label. Those counters
    /// come in the order a tick records them.
    #[rustfmt::skip]
    fn walk_levels(&self, row: &mut impl FnMut(fmt::Arguments<'_>, MetricValue, Label)) {
        use MetricValue::{Counter, Gauge};
        let c = &self.core;
        let externs = self.pipelines.iter().filter_map(|p| p.extern_unit.as_ref());
        row(format_args!("fabric.cycles"), Counter(self.cycle), None);
        for (t, &r) in self.spec.task_sets().iter().zip(c.retired.iter()) {
            row(format_args!("fabric.retired.{}", t.name), Counter(r), None);
        }
        row(format_args!("fabric.squashes"), Counter(c.squashes), None);
        row(format_args!("fabric.requeues"), Counter(c.requeues), None);
        row(format_args!("fabric.bounces"), Counter(c.bounces), None);
        row(format_args!("fabric.extern_calls"), Counter(externs.map(|u| u.calls).sum()), None);
        let (m, tr) = (self.mem.stats(), self.tr_mem);
        row(format_args!("mem.hits"), Counter(m.hits), Some((tr, "hit")));
        row(format_args!("mem.misses"), Counter(m.misses), Some((tr, "miss")));
        row(format_args!("mem.writes"), Counter(m.writes), Some((tr, "write")));
        row(format_args!("mem.reads"), Counter(m.reads), None);
        row(format_args!("mem.qpi_bytes"), Counter(m.qpi_bytes), None);
        row(format_args!("mem.inflight"), Gauge(self.mem.inflight() as f64), None);
        let queues = self.spec.task_sets().iter().zip(self.queues.iter());
        for ((t, q), &tr) in queues.zip(&self.tr_queues) {
            let n = &t.name;
            row(format_args!("queue.{n}.pushed"), Counter(q.pushed_total()), Some((tr, "push")));
            row(format_args!("queue.{n}.occupancy"), Gauge(q.len() as f64), None);
            row(format_args!("queue.{n}.peak"), Gauge(q.peak() as f64), None);
        }
        for ((r, e), &tr) in self.spec.rules().iter().zip(self.engines.iter()).zip(&self.tr_rules) {
            let (n, s) = (&r.name, e.stats());
            row(format_args!("rule.{n}.allocs"), Counter(s.allocs), Some((tr, "alloc")));
            row(format_args!("rule.{n}.nacks"), Counter(s.alloc_stalls), Some((tr, "nack")));
            row(format_args!("rule.{n}.clause_fires"), Counter(s.clause_fires), Some((tr, "clause")));
            row(format_args!("rule.{n}.otherwise_fires"), Counter(s.otherwise_fires), Some((tr, "otherwise")));
            row(format_args!("rule.{n}.evictions"), Counter(s.evictions), Some((tr, "evict")));
            row(format_args!("rule.{n}.occupied"), Gauge(e.occupied() as f64), None);
            row(format_args!("rule.{n}.peak_lanes"), Gauge(s.peak_lanes as f64), None);
        }
        let (f, tr) = (self.fault_totals(), self.tr_fault);
        row(format_args!("fault.mem.soft_injected"), Counter(f.soft_injected), Some((tr, "soft_injected")));
        row(format_args!("fault.mem.soft_corrected"), Counter(f.soft_corrected), Some((tr, "soft_corrected")));
        row(format_args!("fault.mem.soft_refetched"), Counter(f.soft_refetched), Some((tr, "soft_refetched")));
        row(format_args!("fault.link.dropped"), Counter(f.link_dropped), Some((tr, "link_drop")));
        row(format_args!("fault.link.late"), Counter(f.link_late), Some((tr, "link_late")));
        row(format_args!("fault.link.retried"), Counter(f.link_retried), Some((tr, "link_retry")));
        row(format_args!("fault.link.escalated"), Counter(f.link_escalated), Some((tr, "link_escalate")));
        row(format_args!("fault.lane.masked"), Counter(f.lanes_masked), None);
        row(format_args!("fault.lane.drained"), Counter(f.lanes_drained), None);
        row(format_args!("fault.bank.masked"), Counter(f.banks_masked), None);
        row(format_args!("fault.bank.drained"), Counter(f.banks_drained), None);
        row(format_args!("fault.watchdog.escalations"), Counter(f.watchdog_escalations), None);
        row(format_args!("fault.watchdog.flushed"), Counter(f.watchdog_flushed), None);
    }

    /// Renders every metric, sorted by key: the walk's levels, the
    /// samples, `fault.rollback.*` from the rollback record when recovery
    /// is armed, and the busy, stall, idle and utilization totals of
    /// `activity`. Only the report passes one; a snapshot saves zeros.
    pub(super) fn metrics(&self, activity: Option<&UtilizationSummary>) -> MetricsSnapshot {
        let mut out = Vec::new();
        self.walk_levels(&mut |key, v, _| out.push((key.to_string(), v)));
        for s in self.samples.iter() {
            s.render(&mut out);
        }
        let mut counter = |key: String, v: u64| out.push((key, MetricValue::Counter(v)));
        let t = activity.map(UtilizationSummary::totals).unwrap_or_default();
        counter("fabric.busy".into(), t.busy);
        counter("fabric.stall".into(), t.stall);
        counter("fabric.idle".into(), t.idle);
        for (c, v) in t.stall_causes() {
            counter(format!("fabric.stall.{}", c.key()), v);
        }
        if self.cfg.max_rollbacks > 0 {
            let rb = &self.rollback;
            counter("fault.rollback.count".into(), rb.done);
            counter("fault.rollback.replayed_cycles".into(), rb.replayed);
            let last = rb.events.last().map_or(0, |e| e.0);
            counter("fault.rollback.last_cycle".into(), last);
        }
        let util = activity.map_or(0.0, UtilizationSummary::pipeline_utilization);
        out.push(("fabric.utilization".into(), MetricValue::Gauge(util)));
        out.into_iter().collect()
    }

    /// Reads the samples back from a snapshot's `metrics` member, checks
    /// them against the clock, and checks the rest of it against the
    /// loaded state: its keys and kinds must be this fabric's, and each
    /// counter and gauge must be what the components give.
    pub(super) fn load_metrics(&mut self, j: &Json) -> Result<(), String> {
        let mut saved = self.metrics(None);
        saved.load(j)?;
        for s in self.samples.iter_mut() {
            s.read_back(&saved, self.cycle)?;
        }
        let have = self.metrics(None);
        let pairs = saved.entries().iter().zip(have.entries());
        match pairs.enumerate().find(|(_, (s, h))| s != h) {
            Some((n, ((key, s), (_, h)))) => Err(format!(
                "[{n}]: `{key}` is saved as {s:?}, but the state gives {h:?}"
            )),
            None => Ok(()),
        }
    }

    /// The seed backlog and the counters whose moves a traced tick
    /// records, in walk order.
    pub(super) fn traced_totals(&self) -> (usize, Vec<Traced>) {
        let mut counts = Vec::new();
        self.walk_levels(&mut |_, v, label| {
            if let (MetricValue::Counter(v), Some((comp, ev))) = (v, label) {
                counts.push((comp, ev, v));
            }
        });
        (self.seed_backlog.len(), counts)
    }

    /// Records what the host, memory, queues, rule engines and fault
    /// layer did in the tick at `now`, against the totals `before` it.
    pub(super) fn record_moved(&mut self, now: u64, before: (usize, Vec<Traced>)) {
        let (seeds, after) = self.traced_totals();
        let tr = self.trace.as_mut().expect("a traced tick");
        if before.0 > seeds {
            tr.record(now, self.tr_host, "seed", (before.0 - seeds) as u64);
        }
        for (&(comp, ev, a), &(.., b)) in after.iter().zip(&before.1) {
            if a > b {
                tr.record(now, comp, ev, a - b);
            }
        }
    }

    /// Takes the per-cycle samples of `n` cycles that all look like the
    /// end of the last tick: the queue and memory occupancy histograms
    /// and the queue, memory and rule-lane admission stalls.
    pub(super) fn sample(&mut self, n: u64) {
        let queues = self.queues.iter().map(|q| (q.len(), q.admission_stall()));
        let mem = (self.mem.inflight(), self.mem.admission_stall());
        let rules = self.engines.iter();
        let rules = rules.map(|e| (e.occupied(), e.admission_stall()));
        let seen = queues.chain([mem]).chain(rules);
        for (s, (occupancy, stall)) in self.samples.iter_mut().zip(seen) {
            s.take(occupancy, stall, n);
        }
    }
}
