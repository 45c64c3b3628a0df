//! # apir-sim
//!
//! Cycle-level simulation primitives used by the fabric model of the APIR
//! framework (reproduction of "Aggressive Pipelining of Irregular
//! Applications on Reconfigurable Hardware", ISCA 2017).
//!
//! The crate deliberately contains no application or accelerator logic —
//! only the clocked building blocks every hardware template is assembled
//! from:
//!
//! * [`fifo::Fifo`] — a bounded FIFO with registered (next-cycle visible)
//!   pushes, matching dual-port FIFO interfaces between pipeline stages;
//! * [`delay::DelayLine`] — a fixed-latency in-order pipe (e.g. a cache hit
//!   path);
//! * [`delay::OutOfOrderStation`] — a tag-matched waiting station for
//!   out-of-order completion (load/store units, rendezvous);
//! * [`bandwidth::BandwidthMeter`] — a credit-based byte-rate limiter (the
//!   QPI link model);
//! * [`stats`] — activity tracking (busy/stall/idle) from which pipeline
//!   utilization rates are computed exactly as in Figure 10 of the paper;
//! * [`metrics`] — metric values (counters, gauges, power-of-two
//!   histograms) and the key-sorted snapshot the fabric renders from its
//!   components whenever metrics are read;
//! * [`trace`] — the bounded structured event trace behind the
//!   `apir-trace` renderers;
//! * [`timeline`] — windowed metric-delta snapshots (a bounded ring of
//!   per-window activity samples) behind the report `timeline` block.

pub mod bandwidth;
pub mod delay;
pub mod fifo;
pub mod metrics;
pub mod stats;
pub mod timeline;
pub mod trace;

/// A simulation timestamp in clock cycles.
pub type Cycle = u64;

/// Converts a cycle count at `mhz` to seconds.
pub fn seconds_from_cycles(mhz: u64, cycles: Cycle) -> f64 {
    cycles as f64 / (mhz as f64 * 1.0e6)
}

/// Converts a latency in nanoseconds to cycles at `mhz` (rounded up, at
/// least 1).
pub fn cycles_from_ns(mhz: u64, ns: f64) -> Cycle {
    ((ns * mhz as f64 / 1000.0).ceil() as Cycle).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        // 200 MHz: 1 cycle = 5 ns.
        assert_eq!(cycles_from_ns(200, 70.0), 14);
        assert_eq!(cycles_from_ns(200, 1.0), 1);
        let s = seconds_from_cycles(200, 200_000_000);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
