//! Versioned, byte-deterministic fabric snapshots.
//!
//! A snapshot is a complete serialization of one [`crate::Fabric`]'s
//! mutable state at a cycle boundary — memory image, tag array, in-flight
//! MSHRs, queue banks, rule-lane occupants, pipeline latches and
//! stations, fault RNG streams, per-cycle metric samples, trace and
//! timeline rings, the rollback log, and the rollback checkpoint while
//! recovery holds one — as an `apir.fabric.snapshot.v1` JSON document.
//! It saves each fact once: no view of the state, and no total that
//! other saved values fix. The contract is *restore equivalence*:
//! restoring a snapshot and running to completion produces a report
//! byte-identical to the uninterrupted run, from any snapshot cycle,
//! under either scheduler.
//!
//! Structure vs. values: everything derivable from the `(spec, input,
//! config)` triple — stage wiring, port assignment, metric keys,
//! trace-component interning, RNG *seeds* — is **structural** and is
//! rebuilt by [`crate::Fabric::new`] on restore. The snapshot carries
//! only the **mutable values**: queue contents, lane occupants, RNG
//! *positions*, counters. This keeps the document small and makes
//! version drift loud — a snapshot taken under a different config fails
//! with a located error instead of silently diverging. Totals the values
//! fix are **derived** on load: the live-task count, a queue's capacity,
//! a stage's stall and idle cycles, the rollback count and replayed
//! cycles, and the trace's emitted count are saved nowhere.
//!
//! The encoding is [`apir_util::snap::Snap`]: every stateful type lists
//! its fields once in [`apir_util::snap_fields!`], marking structure
//! `skip`, and loads into the value `Fabric::new` built, so capacities,
//! latencies and body widths come from the receiver. Floating-point
//! state (the bandwidth credit) is saved as raw IEEE-754 bits, so a JSON
//! round trip cannot perturb a single bandwidth decision. After the
//! values load, each component checks what only it can see: FIFO and
//! station capacities, delay-line ready order, and the task sets,
//! regions, offsets and response ports that requests name. The fabric
//! then checks what the clock and the config bound: each stage's busy and
//! stall cycles, the per-cycle samples (`samples`: each occupancy
//! histogram and each component's two admission-stall counts), and the
//! rollback log against `max_rollbacks`. No rendered metric is saved;
//! the report renders them from the components.
//!
//! This module holds the schema constant and the trace-event vocabulary
//! (trace records carry `&'static str` labels, which a load resolves
//! against it).

use apir_sim::fifo::Fifo;

/// Schema identifier stamped into every snapshot document.
pub const SNAPSHOT_SCHEMA: &str = "apir.fabric.snapshot.v1";

/// Every event label the fabric ever records into the structured trace.
pub(crate) const EVENT_NAMES: [&str; 28] = [
    "seed",
    "hit",
    "miss",
    "write",
    "push",
    "alloc",
    "nack",
    "clause",
    "otherwise",
    "evict",
    "soft_injected",
    "soft_corrected",
    "soft_refetched",
    "link_drop",
    "link_late",
    "link_retry",
    "link_escalate",
    "lane_mask",
    "bank_mask",
    "wd_escalate",
    "busy",
    "stall",
    "idle",
    "retire",
    "squash",
    "requeue",
    "bounce",
    "rollback",
];

/// The snapshot path of element `i` of a FIFO, which saves its visible
/// elements under `v` and those staged this cycle under `s`.
pub(crate) fn fifo_slot<T>(f: &Fifo<T>, i: usize) -> String {
    match i.checked_sub(f.visible()) {
        None => format!("v[{i}]"),
        Some(k) => format!("s[{k}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_are_unique() {
        let mut names = EVENT_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EVENT_NAMES.len(), "duplicate event name");
    }
}
