//! Structured event tracing: a bounded ring of `(cycle, component,
//! event, value)` records.
//!
//! When enabled (`FabricConfig::trace_capacity > 0`), the fabric records
//! one [`TraceRecord`] per interesting happening — task retirement, a
//! squash, a cache miss, a rule clause firing — attributed to an interned
//! *component* (a queue, the memory subsystem, a pipeline, a rule
//! engine). The buffer is a ring with a hard capacity: when full, the
//! **oldest** records are evicted (the end of a run is usually where the
//! interesting behavior is) and counted in [`EventTrace::dropped`], so a
//! bounded trace never lies about completeness.
//!
//! Renderers live in `apir-trace`: a text summary and Chrome-trace JSON
//! (`chrome://tracing` / <https://ui.perfetto.dev>).

use apir_util::snap::{self, Snap};
use apir_util::Json;
use std::collections::VecDeque;

/// Interned component handle within one [`EventTrace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompId(pub u32);

/// One trace record. `value` carries an event-specific count or payload
/// (e.g. how many cache misses completed this cycle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle at which the event happened.
    pub cycle: u64,
    /// The component it is attributed to.
    pub comp: CompId,
    /// Event label (stable, lowercase, e.g. `"retire"`, `"miss"`).
    pub event: &'static str,
    /// Event-specific value (usually a count; at least 1).
    pub value: u64,
}

/// The bounded trace buffer.
///
/// The default trace has no capacity, components or labels: it is a
/// placeholder for a snapshot load, which rejects it.
#[derive(Clone, Debug, Default)]
pub struct EventTrace {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
    components: Vec<String>,
    /// Every label the recording sites use: a snapshot load resolves the
    /// saved labels against it.
    events: &'static [&'static str],
}

impl EventTrace {
    /// Creates a trace holding at most `cap` records (`cap` ≥ 1), whose
    /// records carry labels from `events`.
    pub fn new(cap: usize, events: &'static [&'static str]) -> Self {
        EventTrace {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
            components: Vec::new(),
            events,
        }
    }

    /// Interns a component name, returning its handle. Re-interning the
    /// same name returns the same handle.
    pub fn comp(&mut self, name: &str) -> CompId {
        if let Some(i) = self.components.iter().position(|c| c == name) {
            return CompId(i as u32);
        }
        self.components.push(name.to_string());
        CompId((self.components.len() - 1) as u32)
    }

    /// Name of an interned component.
    pub fn component_name(&self, id: CompId) -> &str {
        &self.components[id.0 as usize]
    }

    /// All interned component names, in interning order.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Appends a record, evicting the oldest when full.
    pub fn record(&mut self, cycle: u64, comp: CompId, event: &'static str, value: u64) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceRecord {
            cycle,
            comp,
            event,
            value,
        });
    }

    /// Records retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted because the ring was full; with [`EventTrace::len`]
    /// they make up every record ever emitted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained records, oldest first. Cycles are monotone non-decreasing
    /// because the fabric records in simulation order.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }
}

/// A trace snapshots its component table, the retained records as
/// `[cycle, comp, event, value]`, and the count of dropped records. The
/// components are interned when the fabric is built, so a load must find
/// the receiver's table unchanged.
impl Snap for EventTrace {
    fn save(&self) -> Json {
        let record = |r: &TraceRecord| {
            Json::Arr(vec![
                r.cycle.save(),
                r.comp.0.save(),
                Json::str(r.event),
                r.value.save(),
            ])
        };
        Json::obj([
            (
                "components",
                Json::arr(self.components.iter().map(Json::str)),
            ),
            ("records", Json::arr(self.buf.iter().map(record))),
            ("dropped", self.dropped.save()),
        ])
    }

    fn load(&mut self, j: &Json) -> Result<(), String> {
        let names = snap::items(snap::member(j, "components")?)
            .map_err(|e| snap::nest(".components", e))?;
        let interned = self.components.iter().map(|c| Some(c.as_str()));
        if !names.iter().map(Json::as_str).eq(interned) {
            return Err(".components: differ from the components this fabric interns".into());
        }
        let records =
            snap::items(snap::member(j, "records")?).map_err(|e| snap::nest(".records", e))?;
        self.buf.clear();
        for (i, r) in records.iter().enumerate() {
            let rec = self.load_record(r);
            self.buf
                .push_back(rec.map_err(|e| snap::nest(format_args!(".records[{i}]"), e))?);
        }
        snap::load_key(&mut self.dropped, j, "dropped")?;
        snap::only(j, &["components", "records", "dropped"], &[])?;
        let kept = self.buf.len();
        if kept > self.cap {
            return Err(format!(".records: {kept} kept, capacity {}", self.cap));
        }
        Ok(())
    }
}

impl EventTrace {
    /// Decodes one saved record against the receiver's components and
    /// event labels.
    fn load_record(&self, r: &Json) -> Result<TraceRecord, String> {
        let p = snap::items_n(r, 4)?;
        let (mut cycle, mut comp, mut value) = (0, 0u32, 0);
        snap::load_at(&mut cycle, p, 0)?;
        snap::load_at(&mut comp, p, 1)?;
        if comp as usize >= self.components.len() {
            return Err(format!("[1]: component {comp} out of range"));
        }
        let event = p[2]
            .as_str()
            .and_then(|e| self.events.iter().copied().find(|&k| k == e))
            .ok_or_else(|| format!("[2]: unknown event {}", p[2].render()))?;
        snap::load_at(&mut value, p, 3)?;
        Ok(TraceRecord {
            cycle,
            comp: CompId(comp),
            event,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut t = EventTrace::new(8, &[]);
        let a = t.comp("mem");
        let b = t.comp("queue:frontier");
        assert_eq!(t.comp("mem"), a);
        assert_ne!(a, b);
        assert_eq!(t.component_name(a), "mem");
        assert_eq!(t.components().len(), 2);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = EventTrace::new(3, &["e"]);
        let c = t.comp("x");
        for cycle in 1..=5u64 {
            t.record(cycle, c, "e", 1);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<u64> = t.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![3, 4, 5]);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut t = EventTrace::new(0, &["e"]);
        let c = t.comp("x");
        t.record(1, c, "e", 1);
        t.record(2, c, "e", 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 1);
    }
}
