//! The one place fabric state becomes metrics and per-tick trace records.
//! [`Fabric::walk_levels`] names each running total and gauge once, for
//! registration, [`Fabric::publish_levels`] and the traced tick's diff;
//! [`Fabric::sample`] takes the per-cycle samples from each component's
//! occupancy and `admission_stall`.

use super::Fabric;
use apir_core::spec::Spec;
use apir_sim::metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
use apir_sim::stats::StallCause;
use apir_sim::trace::CompId;
use std::fmt;

/// A running total or a gauge.
enum Level {
    Count(u64),
    Gauge(f64),
}

/// The trace component and label of a counter whose moves a traced tick
/// records.
type Label = Option<(CompId, &'static str)>;

/// A traced counter's component, label and value.
type Traced = (CompId, &'static str, u64);

/// Registry handles of one component's per-cycle samples: its occupancy
/// histogram, if it keeps one, and its admission stalls in total and by
/// cause.
struct Samples {
    occupancy: Option<HistogramId>,
    stall: CounterId,
    causes: [(StallCause, CounterId); 2],
}

impl Samples {
    fn new(m: &mut MetricsRegistry, key: &str, hist: Option<&str>, by: [StallCause; 2]) -> Self {
        Samples {
            occupancy: hist.map(|h| m.histogram(&format!("{key}.{h}"))),
            stall: m.counter(&format!("{key}.stall")),
            causes: by.map(|c| (c, m.counter(&format!("{key}.stall.{}", c.key())))),
        }
    }

    /// Takes the samples of `n` cycles that all see `occupancy` and `stall`.
    fn take(&self, m: &mut MetricsRegistry, occupancy: usize, stall: Option<StallCause>, n: u64) {
        if let Some(h) = self.occupancy {
            m.observe_n(h, occupancy as u64, n);
        }
        let Some(cause) = stall else { return };
        let by_cause = self.causes.iter().find(|c| c.0 == cause);
        m.inc(self.stall, n);
        m.inc(by_cause.expect("a registered cause").1, n);
    }
}

/// The registry handles the fabric writes through, besides the
/// `fault.rollback.*` ones.
pub(super) struct MetricIds {
    /// The walk's counters and its gauges, each in walk order.
    counters: Box<[CounterId]>,
    gauges: Box<[GaugeId]>,
    queues: Box<[Samples]>,
    mem: Samples,
    rules: Box<[Samples]>,
    pub(super) busy: CounterId,
    pub(super) stall: CounterId,
    pub(super) idle: CounterId,
    /// One counter per [`StallCause`], in `StallCause::ALL` order.
    pub(super) stall_causes: Box<[CounterId]>,
    pub(super) utilization: GaugeId,
}

impl MetricIds {
    /// Registers the samples and the activity totals, which only
    /// `into_report` writes; [`Fabric::register_levels`] adds the walk's
    /// levels.
    pub(super) fn register(m: &mut MetricsRegistry, spec: &Spec) -> Self {
        use StallCause::{Bandwidth, LaneBusy, LaneMasked, MshrFull, QueueFull, ReserveFull};
        let hist = Some("occupancy_hist");
        let queues = spec.task_sets().iter().map(|t| format!("queue.{}", t.name));
        let queues = queues.map(|k| Samples::new(m, &k, hist, [QueueFull, ReserveFull]));
        let queues = queues.collect();
        let rules = spec.rules().iter().map(|r| format!("rule.{}", r.name));
        let rules = rules.map(|k| Samples::new(m, &k, None, [LaneBusy, LaneMasked]));
        let rules = rules.collect();
        MetricIds {
            counters: Box::default(),
            gauges: Box::default(),
            queues,
            mem: Samples::new(m, "mem", Some("inflight_hist"), [MshrFull, Bandwidth]),
            rules,
            busy: m.counter("fabric.busy"),
            stall: m.counter("fabric.stall"),
            idle: m.counter("fabric.idle"),
            stall_causes: StallCause::ALL
                .iter()
                .map(|c| m.counter(&format!("fabric.stall.{}", c.key())))
                .collect(),
            utilization: m.gauge("fabric.utilization"),
        }
    }
}

impl Fabric {
    /// Passes `row` each running total and gauge the registry holds,
    /// except the samples, the activity totals and `fault.rollback.*`:
    /// its key, its value (`fabric.cycles` reads `cycle`) and, for a
    /// counter whose moves a traced tick records, the trace component and
    /// label. Those counters come in the order a tick records them.
    #[rustfmt::skip]
    fn walk_levels(&self, cycle: u64, row: &mut impl FnMut(fmt::Arguments<'_>, Level, Label)) {
        use Level::{Count, Gauge};
        let c = &self.core;
        let externs = self.pipelines.iter().filter_map(|p| p.extern_unit.as_ref());
        row(format_args!("fabric.cycles"), Count(cycle), None);
        for (t, &r) in self.spec.task_sets().iter().zip(c.retired.iter()) {
            row(format_args!("fabric.retired.{}", t.name), Count(r), None);
        }
        row(format_args!("fabric.squashes"), Count(c.squashes), None);
        row(format_args!("fabric.requeues"), Count(c.requeues), None);
        row(format_args!("fabric.bounces"), Count(c.bounces), None);
        row(format_args!("fabric.extern_calls"), Count(externs.map(|u| u.calls).sum()), None);
        let (m, tr) = (self.mem.stats(), self.tr_mem);
        row(format_args!("mem.hits"), Count(m.hits), Some((tr, "hit")));
        row(format_args!("mem.misses"), Count(m.misses), Some((tr, "miss")));
        row(format_args!("mem.writes"), Count(m.writes), Some((tr, "write")));
        row(format_args!("mem.reads"), Count(m.reads), None);
        row(format_args!("mem.qpi_bytes"), Count(m.qpi_bytes), None);
        row(format_args!("mem.inflight"), Gauge(self.mem.inflight() as f64), None);
        let queues = self.spec.task_sets().iter().zip(self.queues.iter());
        for ((t, q), &tr) in queues.zip(&self.tr_queues) {
            let n = &t.name;
            row(format_args!("queue.{n}.pushed"), Count(q.pushed_total()), Some((tr, "push")));
            row(format_args!("queue.{n}.occupancy"), Gauge(q.len() as f64), None);
            row(format_args!("queue.{n}.peak"), Gauge(q.peak() as f64), None);
        }
        for ((r, e), &tr) in self.spec.rules().iter().zip(self.engines.iter()).zip(&self.tr_rules) {
            let (n, s) = (&r.name, e.stats());
            row(format_args!("rule.{n}.allocs"), Count(s.allocs), Some((tr, "alloc")));
            row(format_args!("rule.{n}.nacks"), Count(s.alloc_stalls), Some((tr, "nack")));
            row(format_args!("rule.{n}.clause_fires"), Count(s.clause_fires), Some((tr, "clause")));
            row(format_args!("rule.{n}.otherwise_fires"), Count(s.otherwise_fires), Some((tr, "otherwise")));
            row(format_args!("rule.{n}.evictions"), Count(s.evictions), Some((tr, "evict")));
            row(format_args!("rule.{n}.occupied"), Gauge(e.occupied() as f64), None);
            row(format_args!("rule.{n}.peak_lanes"), Gauge(s.peak_lanes as f64), None);
        }
        let (f, tr) = (self.fault_totals(), self.tr_fault);
        row(format_args!("fault.mem.soft_injected"), Count(f.soft_injected), Some((tr, "soft_injected")));
        row(format_args!("fault.mem.soft_corrected"), Count(f.soft_corrected), Some((tr, "soft_corrected")));
        row(format_args!("fault.mem.soft_refetched"), Count(f.soft_refetched), Some((tr, "soft_refetched")));
        row(format_args!("fault.link.dropped"), Count(f.link_dropped), Some((tr, "link_drop")));
        row(format_args!("fault.link.late"), Count(f.link_late), Some((tr, "link_late")));
        row(format_args!("fault.link.retried"), Count(f.link_retried), Some((tr, "link_retry")));
        row(format_args!("fault.link.escalated"), Count(f.link_escalated), Some((tr, "link_escalate")));
        row(format_args!("fault.lane.masked"), Count(f.lanes_masked), None);
        row(format_args!("fault.lane.drained"), Count(f.lanes_drained), None);
        row(format_args!("fault.bank.masked"), Count(f.banks_masked), None);
        row(format_args!("fault.bank.drained"), Count(f.banks_drained), None);
        row(format_args!("fault.watchdog.escalations"), Count(f.watchdog_escalations), None);
        row(format_args!("fault.watchdog.flushed"), Count(f.watchdog_flushed), None);
    }

    /// Registers every level of the walk.
    pub(super) fn register_levels(&mut self) {
        let mut m = std::mem::take(&mut self.metrics);
        let (mut counters, mut gauges) = (Vec::new(), Vec::new());
        self.walk_levels(0, &mut |key, level, _| match level {
            Level::Count(_) => counters.push(m.counter(&key.to_string())),
            Level::Gauge(_) => gauges.push(m.gauge(&key.to_string())),
        });
        self.metrics = m;
        self.mids.counters = counters.into();
        self.mids.gauges = gauges.into();
    }

    /// Writes the running totals and gauges into the registry, as of the
    /// last executed tick, unless it holds them already. Every path that
    /// reads the registry or changes a total outside a tick (the watchdog
    /// escalation) calls this first; a quiescent jump changes no total,
    /// only the clock, so `fabric.cycles` stays at the last executed tick.
    pub(super) fn publish_levels(&mut self) {
        let Some(cycle) = self.unpublished.take() else {
            return;
        };
        let mut m = std::mem::take(&mut self.metrics);
        let (mut counters, mut gauges) = (self.mids.counters.iter(), self.mids.gauges.iter());
        self.walk_levels(cycle, &mut |_, level, _| match level {
            Level::Count(v) => m.set_counter(*counters.next().expect("registered"), v),
            Level::Gauge(v) => m.set_gauge(*gauges.next().expect("registered"), v),
        });
        self.metrics = m;
    }

    /// The seed backlog and the counters whose moves a traced tick
    /// records, in walk order.
    pub(super) fn traced_totals(&self) -> (usize, Vec<Traced>) {
        let mut counts = Vec::new();
        self.walk_levels(0, &mut |_, level, label| {
            if let (Level::Count(v), Some((comp, ev))) = (level, label) {
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
        let (m, ids) = (&mut self.metrics, &self.mids);
        for (q, s) in self.queues.iter().zip(ids.queues.iter()) {
            s.take(m, q.len(), q.admission_stall(), n);
        }
        let mem = &self.mem;
        ids.mem.take(m, mem.inflight(), mem.admission_stall(), n);
        for (e, s) in self.engines.iter().zip(ids.rules.iter()) {
            s.take(m, e.occupied(), e.admission_stall(), n);
        }
    }
}
