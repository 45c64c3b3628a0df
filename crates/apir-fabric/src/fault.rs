//! Deterministic fault injection and recovery (the chaos layer).
//!
//! Real HARP-class CPU–FPGA systems see transient soft errors on the
//! cache fill path, dropped or late responses on the QPI link, and hard
//! faults in replicated structures (rule-engine lanes, queue banks). The
//! paper's correctness argument — misspeculation squashes, conservative
//! `false` verdicts steer tasks into their retry paths, the minimum live
//! task's `otherwise` guarantees liveness — already covers all of these
//! recoveries; this module exercises them *adversarially* instead of
//! incidentally.
//!
//! Everything is seeded and fully deterministic: a [`FaultConfig`] on
//! [`FabricConfig`](crate::FabricConfig) drives a [`FaultPlan`] with one
//! independent [`SmallRng`] stream per fault site, so a draw at one site
//! never perturbs another and a campaign replays byte-identically.
//! Faults are part of the simulation, not noise: two runs with the same
//! seed produce the same `to_json()` bytes.
//!
//! Fault sites and their recoveries:
//!
//! * **soft errors on cache-line fills** — a modeled parity/ECC check in
//!   [`memory`](crate::memory): single-bit flips are corrected in-line
//!   and counted; multi-bit corruption invalidates the line and refetches
//!   it over QPI (the functional read still happens at final completion,
//!   so data is never wrong, only late);
//! * **dropped / late QPI responses** — a dropped transfer re-arms with
//!   deterministic exponential backoff (`retry_timeout << retries`) and
//!   escalates to [`FabricError::LinkFailed`](crate::FabricError) only
//!   after `max_retries`; a late response takes `late_cycles` extra;
//! * **lane / bank hard faults** — the faulted lane or bank is drained
//!   (occupants get a conservative `false` / are respilled through the
//!   recirculation reserve) and masked; the allocator and wavefront
//!   degrade onto survivors. Masking refuses to take a structure below
//!   half its replicas or below the recirculation reserve, so graceful
//!   degradation can never become a self-inflicted deadlock.

use apir_util::rng::SmallRng;
use apir_util::snap_fields;

/// Per-site fault rates and recovery windows. Carried on
/// [`FabricConfig`](crate::FabricConfig); the default injects nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Campaign seed; every fault site derives its own stream from it.
    pub seed: u64,
    /// Probability of a soft error per cache-line fill (and per
    /// line-sized extern burst chunk).
    pub soft_error_rate: f64,
    /// Fraction of soft errors that are multi-bit (uncorrectable:
    /// invalidate + refetch) rather than single-bit (corrected in-line).
    pub multi_bit_fraction: f64,
    /// Probability a QPI transfer is dropped at link admission.
    pub drop_rate: f64,
    /// Probability a QPI response is late (delivered after an extra
    /// `late_cycles`).
    pub late_rate: f64,
    /// Extra cycles a late response takes.
    pub late_cycles: u64,
    /// Base retry timeout for a dropped transfer; retry `k` re-arms after
    /// `retry_timeout << k` cycles (deterministic exponential backoff).
    pub retry_timeout: u64,
    /// Dropped-transfer retries before the link is declared failed.
    pub max_retries: u32,
    /// Probability (per fault window, per rule engine) of a lane fault.
    pub lane_fault_rate: f64,
    /// Probability (per fault window, per task queue) of a bank fault.
    pub bank_fault_rate: f64,
    /// Cycles between lane/bank fault trials; `0` disables them.
    pub fault_window: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            soft_error_rate: 0.0,
            multi_bit_fraction: 0.25,
            drop_rate: 0.0,
            late_rate: 0.0,
            late_cycles: 32,
            retry_timeout: 1024,
            max_retries: 8,
            lane_fault_rate: 0.0,
            bank_fault_rate: 0.0,
            fault_window: 1024,
        }
    }
}

impl FaultConfig {
    /// Does this configuration inject anything at all?
    pub fn is_enabled(&self) -> bool {
        self.soft_error_rate > 0.0
            || self.drop_rate > 0.0
            || self.late_rate > 0.0
            || self.lane_fault_rate > 0.0
            || self.bank_fault_rate > 0.0
    }

    /// A chaos-campaign preset: every fault class active at rates tuned
    /// so even the shortest builtin benchmark (COOR-LU, ~100 cycles at
    /// tiny scale) sees a nonzero mix, with retry budgets that recover
    /// long before the deadlock watchdog.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            soft_error_rate: 0.2,
            multi_bit_fraction: 0.3,
            drop_rate: 0.12,
            late_rate: 0.12,
            late_cycles: 24,
            retry_timeout: 64,
            max_retries: 8,
            lane_fault_rate: 0.5,
            bank_fault_rate: 0.5,
            fault_window: 16,
        }
    }
}

/// What a soft-error draw produced for one fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoftError {
    /// Correctable: ECC fixes it in-line; only counted.
    SingleBit,
    /// Uncorrectable: the line must be invalidated and refetched.
    MultiBit,
}

/// What a link draw produced for one QPI transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// The transfer is lost; the MSHR path re-arms with backoff.
    Dropped,
    /// The response arrives, but this many cycles late.
    Late(u64),
}

/// Running totals of every injection and recovery action, exported as
/// the stable `fault.*` metric keys and in the report JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Soft errors injected on fills / burst chunks.
    pub soft_injected: u64,
    /// Single-bit soft errors corrected in-line by the modeled ECC.
    pub soft_corrected: u64,
    /// Multi-bit soft errors that invalidated a line and refetched it.
    pub soft_refetched: u64,
    /// QPI transfers dropped at link admission.
    pub link_dropped: u64,
    /// QPI responses delivered late.
    pub link_late: u64,
    /// Dropped transfers re-sent after their backoff expired.
    pub link_retried: u64,
    /// Dropped transfers that exhausted `max_retries` (→ `LinkFailed`).
    pub link_escalated: u64,
    /// Rule-engine lanes masked by hard faults.
    pub lanes_masked: u64,
    /// Masked lanes that were occupied (parent got a conservative false).
    pub lanes_drained: u64,
    /// Queue banks masked by hard faults.
    pub banks_masked: u64,
    /// Tokens drained from masked banks and respilled onto survivors.
    pub banks_drained: u64,
    /// Watchdog escalations (forced `otherwise` + station flush) before
    /// declaring deadlock.
    pub watchdog_escalations: u64,
    /// Reservation-station entries flushed by watchdog escalation.
    pub watchdog_flushed: u64,
}
snap_fields!(FaultStats [
    soft_injected,
    soft_corrected,
    soft_refetched,
    link_dropped,
    link_late,
    link_retried,
    link_escalated,
    lanes_masked,
    lanes_drained,
    banks_masked,
    banks_drained,
    watchdog_escalations,
    watchdog_flushed,
]);

/// One PRNG stream per fault site keeps the sites independent: a fill
/// draw never shifts the lane-fault sequence and vice versa.
#[derive(Clone, Debug, Default)]
struct Streams {
    fill: SmallRng,
    link: SmallRng,
    lane: SmallRng,
    bank: SmallRng,
}
snap_fields!(Streams [
    fill,
    link,
    lane,
    bank,
]);

/// The seeded, per-site deterministic fault source threaded through the
/// fabric. A snapshot carries the stream positions and the totals; the
/// config is structure.
///
/// The default plan has the default config, which injects nothing: it is
/// a placeholder for a snapshot load, which the memory subsystem rejects.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Streams,
    /// Injection/recovery totals (the memory subsystem and the fabric
    /// both account into this).
    pub stats: FaultStats,
}
snap_fields!(FaultPlan {
    rng,
    stats,
    cfg: skip,
});

impl FaultPlan {
    /// Builds the plan; returns `None` when the config injects nothing,
    /// so the fault-free hot path stays branch-cheap.
    pub fn new(cfg: &FaultConfig) -> Option<Self> {
        cfg.is_enabled().then(|| FaultPlan {
            cfg: cfg.clone(),
            // Distinct odd salts per site; SplitMix64 seeding decorrelates.
            rng: Streams {
                fill: SmallRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15),
                link: SmallRng::seed_from_u64(cfg.seed ^ 0xbf58_476d_1ce4_e5b9),
                lane: SmallRng::seed_from_u64(cfg.seed ^ 0x94d0_49bb_1331_11eb),
                bank: SmallRng::seed_from_u64(cfg.seed ^ 0x2545_f491_4f6c_dd1d),
            },
            stats: FaultStats::default(),
        })
    }

    /// The config the plan was built from.
    pub fn cfg(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Draws the soft-error outcome for one cache-line fill (or one
    /// line-sized burst chunk). Counts the injection; the caller counts
    /// the recovery it actually performs.
    pub fn draw_fill(&mut self) -> Option<SoftError> {
        if self.cfg.soft_error_rate <= 0.0 || !self.rng.fill.gen_bool(self.cfg.soft_error_rate) {
            return None;
        }
        self.stats.soft_injected += 1;
        Some(if self.rng.fill.gen_bool(self.cfg.multi_bit_fraction) {
            SoftError::MultiBit
        } else {
            SoftError::SingleBit
        })
    }

    /// Draws the link outcome for one QPI transfer.
    pub fn draw_link(&mut self) -> Option<LinkFault> {
        if self.cfg.drop_rate > 0.0 && self.rng.link.gen_bool(self.cfg.drop_rate) {
            return Some(LinkFault::Dropped);
        }
        if self.cfg.late_rate > 0.0 && self.rng.link.gen_bool(self.cfg.late_rate) {
            return Some(LinkFault::Late(self.cfg.late_cycles));
        }
        None
    }

    /// One lane-fault trial (call once per rule engine per fault
    /// window). Returns a lane pick value on a hit.
    pub fn draw_lane_fault(&mut self) -> Option<u64> {
        (self.cfg.lane_fault_rate > 0.0 && self.rng.lane.gen_bool(self.cfg.lane_fault_rate))
            .then(|| self.rng.lane.next_u64())
    }

    /// One bank-fault trial (call once per task queue per fault window).
    /// Returns a bank pick value on a hit.
    pub fn draw_bank_fault(&mut self) -> Option<u64> {
        (self.cfg.bank_fault_rate > 0.0 && self.rng.bank.gen_bool(self.cfg.bank_fault_rate))
            .then(|| self.rng.bank.next_u64())
    }

    /// Deterministic exponential backoff: when a transfer on retry `k`
    /// drops, it re-arms `retry_timeout << k` cycles later.
    pub fn backoff(&self, retries: u32) -> u64 {
        self.cfg
            .retry_timeout
            .saturating_mul(1u64 << retries.min(16))
    }

    /// Re-salts the link stream for rollback epoch `epoch` (1-based).
    /// Without this, rollback-and-replay would re-draw the exact drop
    /// sequence that escalated in the first place and the replayed window
    /// would be doomed to fail identically. The new stream is a pure
    /// function of `(seed, epoch)`, so recovery stays deterministic.
    pub fn resalt_link(&mut self, epoch: u64) {
        self.rng.link = SmallRng::seed_from_u64(
            self.cfg.seed ^ 0xbf58_476d_1ce4_e5b9 ^ epoch.wrapping_mul(0xa076_1d64_78bd_642f),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_injects_nothing() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_enabled());
        assert!(FaultPlan::new(&cfg).is_none());
    }

    #[test]
    fn same_seed_same_draw_sequence() {
        let cfg = FaultConfig::chaos(42);
        let mut a = FaultPlan::new(&cfg).unwrap();
        let mut b = FaultPlan::new(&cfg).unwrap();
        for _ in 0..1000 {
            assert_eq!(a.draw_fill(), b.draw_fill());
            assert_eq!(a.draw_link(), b.draw_link());
            assert_eq!(a.draw_lane_fault(), b.draw_lane_fault());
            assert_eq!(a.draw_bank_fault(), b.draw_bank_fault());
        }
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.soft_injected > 0);
    }

    #[test]
    fn sites_are_independent_streams() {
        // Burning draws at one site must not shift another site's
        // sequence: replaying a campaign with more memory traffic keeps
        // the same lane-fault schedule.
        let cfg = FaultConfig::chaos(7);
        let mut a = FaultPlan::new(&cfg).unwrap();
        let mut b = FaultPlan::new(&cfg).unwrap();
        for _ in 0..500 {
            let _ = a.draw_fill(); // extra fill traffic in run A only
        }
        let la: Vec<_> = (0..100).map(|_| a.draw_lane_fault().is_some()).collect();
        let lb: Vec<_> = (0..100).map(|_| b.draw_lane_fault().is_some()).collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let cfg = FaultConfig {
            drop_rate: 0.5,
            retry_timeout: 64,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(&cfg).unwrap();
        assert_eq!(plan.backoff(0), 64);
        assert_eq!(plan.backoff(1), 128);
        assert_eq!(plan.backoff(3), 512);
        // Shift saturates instead of overflowing.
        assert_eq!(plan.backoff(60), 64 << 16);
    }
}
