//! The generic (problem-independent) memory subsystem.
//!
//! Section 5.2: "we use a generic cache design provided by HARP. In this
//! way, the memory subsystem is kept problem-independent." The model is a
//! direct-mapped FPGA-side cache in front of a QPI link:
//!
//! * cache hit: fixed pipeline latency (HARP: ~70 ns = 14 cycles at
//!   200 MHz, per Choi et al. DAC'16);
//! * cache miss: one cache-line transfer charged against the link's
//!   byte-credit meter plus the miss latency (>200 ns on HARP);
//! * writes are write-through/no-allocate, charging one word;
//! * misses in flight are bounded by an MSHR-style limit.
//!
//! Loads and RMW stores act on the [`MemImage`] *at completion time*, so
//! concurrent read-modify-writes serialize in completion order, exactly
//! like commit units behind a memory arbiter. Because dropped or retried
//! transfers have no functional effect until they complete, the fault
//! layer ([`crate::fault`]) can replay them arbitrarily without ever
//! double-applying a store.

use crate::fault::{FaultConfig, FaultPlan, FaultStats, LinkFault, SoftError};
use crate::snapshot::fifo_slot;
use crate::types::{MemReq, WriteKind};
use apir_sim::bandwidth::BandwidthMeter;
use apir_sim::delay::DelayLine;
use apir_sim::fifo::Fifo;
use apir_sim::stats::StallCause;
use apir_sim::{cycles_from_ns, Cycle};
use apir_core::{MemAccess, MemImage};
use apir_util::snap;
use apir_util::snap_fields;
use std::collections::VecDeque;

/// Memory subsystem parameters (defaults: the HARP platform).
#[derive(Clone, Debug)]
pub struct MemConfig {
    /// FPGA-side cache size in KiB.
    pub cache_kb: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Cache hit latency in cycles.
    pub hit_latency: Cycle,
    /// Additional miss latency in nanoseconds (on top of the hit path).
    pub miss_extra_ns: f64,
    /// QPI link bandwidth in GB/s (the Figure 10 sweep scales this).
    pub qpi_gbps: f64,
    /// FPGA clock in MHz (paper: all accelerators run at 200 MHz): it
    /// converts ns and GB/s to cycles, and a report's cycles to seconds.
    pub clock_mhz: u64,
    /// Maximum misses in flight (MSHR count).
    pub max_inflight_misses: usize,
    /// Requests accepted from the request FIFO per cycle.
    pub requests_per_cycle: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            cache_kb: 64,
            line_bytes: 64,
            hit_latency: 14,
            miss_extra_ns: 200.0,
            qpi_gbps: 7.0,
            clock_mhz: 200,
            max_inflight_misses: 32,
            requests_per_cycle: 4,
        }
    }
}

/// Statistics of the memory subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Read hits.
    pub hits: u64,
    /// Read misses.
    pub misses: u64,
    /// Bytes moved over the link.
    pub qpi_bytes: u64,
}
snap_fields!(MemStats [
    reads,
    writes,
    hits,
    misses,
    qpi_bytes,
]);

#[derive(Clone)]
struct TagArray {
    tags: Box<[u64]>, // tag + 1, 0 = invalid
    num_lines: usize,
}
snap_fields!(TagArray(
    tags,
    num_lines: skip,
));

impl TagArray {
    fn new(cache_bytes: usize, line_bytes: usize) -> Self {
        let num_lines = (cache_bytes / line_bytes).max(1);
        TagArray {
            tags: vec![0; num_lines].into(),
            num_lines,
        }
    }

    /// Probes (and on miss, allocates) the line containing word address
    /// `addr_words`. Returns hit/miss.
    fn access(&mut self, addr_words: u64, line_words: u64, allocate: bool) -> bool {
        let line = addr_words / line_words;
        let set = (line % self.num_lines as u64) as usize;
        let tag = line / self.num_lines as u64 + 1;
        if self.tags[set] == tag {
            true
        } else {
            if allocate {
                self.tags[set] = tag;
            }
            false
        }
    }

    /// Invalidates the line containing `addr_words` if it is resident
    /// (uncorrectable soft error: the data cannot be trusted).
    fn invalidate(&mut self, addr_words: u64, line_words: u64) {
        let line = addr_words / line_words;
        let set = (line % self.num_lines as u64) as usize;
        let tag = line / self.num_lines as u64 + 1;
        if self.tags[set] == tag {
            self.tags[set] = 0;
        }
    }
}

/// A miss-path transfer with its fault-recovery bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
struct MissEntry {
    req: MemReq,
    /// Link-drop retries spent so far.
    retries: u32,
    /// Cycle the request entered the subsystem (MSHR-age diagnostics).
    born: Cycle,
    /// This transfer is refetching a line an uncorrectable soft error
    /// invalidated; revalidate the tag when it completes.
    refetch: bool,
}
snap_fields!(MissEntry {
    req => "q",
    retries => "r",
    born => "b",
    refetch => "f",
});

/// A transfer that exhausted its retry budget; surfaced by the fabric as
/// [`FabricError::LinkFailed`](crate::FabricError).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct LinkFailure {
    /// Cycle the final drop was observed.
    pub cycle: Cycle,
    /// Requesting pipeline port.
    pub port: u32,
    /// Request tag.
    pub tag: u64,
    /// Retries spent before escalating.
    pub retries: u32,
}
snap_fields!(LinkFailure {
    cycle => "c",
    port => "p",
    tag => "t",
    retries => "r",
});

/// The memory subsystem component.
#[derive(Clone)]
pub struct MemorySubsystem {
    cfg: MemConfig,
    image: MemImage,
    tags: TagArray,
    /// Incoming requests (pushed by pipelines, staged).
    pub requests: Fifo<MemReq>,
    /// Hit-path pipe.
    hit_pipe: DelayLine<MemReq>,
    /// Miss-path pipe (entered once bandwidth + MSHR admit).
    miss_pipe: DelayLine<MissEntry>,
    /// Write-through pipe (admitted behind the same bandwidth meter but
    /// completing with hit latency; posted writes don't occupy MSHRs).
    write_pipe: DelayLine<MemReq>,
    /// Misses waiting for bandwidth/MSHR admission.
    miss_wait: VecDeque<MissEntry>,
    /// Transfers a link fault dropped, waiting out their deterministic
    /// exponential backoff (`(retry_at, entry)`).
    lost: Vec<(Cycle, MissEntry)>,
    /// First transfer that exhausted `max_retries`.
    link_failed: Option<LinkFailure>,
    /// Seeded fault source; `None` on the fault-free hot path.
    faults: Option<FaultPlan>,
    qpi: BandwidthMeter,
    stats: MemStats,
    /// Flat word-address base of each region (fixed at load time).
    bases: Vec<u64>,
}
// In-flight pipes keep absolute ready cycles, and the meter's credit is
// saved bit-exactly; `check_loaded` validates the requests.
snap_fields!(MemorySubsystem {
    image,
    tags,
    requests,
    hit_pipe,
    miss_pipe,
    write_pipe,
    miss_wait,
    lost,
    link_failed,
    faults,
    qpi,
    stats,
    cfg: skip,
    bases: skip,
});

impl MemorySubsystem {
    /// Builds the subsystem around an initial memory image.
    pub fn new(cfg: MemConfig, image: MemImage) -> Self {
        Self::with_faults(cfg, image, &FaultConfig::default())
    }

    /// Builds the subsystem with a fault-injection campaign armed. A
    /// config that injects nothing (the default) costs nothing at tick
    /// time.
    pub fn with_faults(cfg: MemConfig, image: MemImage, faults: &FaultConfig) -> Self {
        let tags = TagArray::new(cfg.cache_kb * 1024, cfg.line_bytes);
        let qpi = BandwidthMeter::from_gbps(cfg.qpi_gbps, cfg.clock_mhz)
            .with_min_burst(2 * cfg.line_bytes as u64);
        let miss_latency = cfg.hit_latency + cycles_from_ns(cfg.clock_mhz, cfg.miss_extra_ns);
        let bases = image.flat_bases();
        MemorySubsystem {
            requests: Fifo::new(256),
            hit_pipe: DelayLine::new(cfg.hit_latency),
            miss_pipe: DelayLine::new(miss_latency),
            write_pipe: DelayLine::new(cfg.hit_latency),
            miss_wait: VecDeque::new(),
            lost: Vec::new(),
            link_failed: None,
            faults: FaultPlan::new(faults),
            tags,
            qpi,
            image,
            stats: MemStats::default(),
            bases,
            cfg,
        }
    }

    /// The wrapped image (for seeding checks and final readout).
    pub fn image(&self) -> &MemImage {
        &self.image
    }

    /// Mutable image access (extern IP units execute through this).
    pub fn image_mut(&mut self) -> &mut MemImage {
        &mut self.image
    }

    /// Consumes link bandwidth for an extern core's burst transfer;
    /// returns the bytes actually granted this cycle (up to `want`).
    ///
    /// Extern DMA rides the same QPI link as misses, so it is exposed to
    /// the same faults: a dropped or corrupted chunk is not credited (it
    /// retransmits, burning more of this cycle's bandwidth budget); a
    /// late or single-bit-corrected chunk is counted but still credited.
    pub fn grant_burst(&mut self, want: u64) -> u64 {
        // Consume in line-size chunks to share fairly with misses.
        let chunk = self.cfg.line_bytes as u64;
        let mut granted = 0;
        while granted < want {
            let step = chunk.min(want - granted);
            if !self.qpi.try_consume(step) {
                break;
            }
            self.stats.qpi_bytes += step;
            if let Some(plan) = self.faults.as_mut() {
                match plan.draw_link() {
                    Some(LinkFault::Dropped) => {
                        plan.stats.link_dropped += 1;
                        continue; // chunk lost on the wire
                    }
                    Some(LinkFault::Late(_)) => plan.stats.link_late += 1,
                    None => {}
                }
                match plan.draw_fill() {
                    Some(SoftError::MultiBit) => {
                        plan.stats.soft_refetched += 1;
                        continue; // chunk corrupt; refetch it
                    }
                    Some(SoftError::SingleBit) => plan.stats.soft_corrected += 1,
                    None => {}
                }
            }
            granted += step;
        }
        granted
    }

    /// Statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Requests currently inside the subsystem (queued, waiting for
    /// admission, backing off after a drop, or traversing a latency
    /// pipe).
    pub fn inflight(&self) -> usize {
        self.requests.len()
            + self.hit_pipe.len()
            + self.miss_pipe.len()
            + self.write_pipe.len()
            + self.miss_wait.len()
            + self.lost.len()
    }

    /// Fault-injection totals accounted by this subsystem (zero when no
    /// campaign is armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|p| p.stats).unwrap_or_default()
    }

    /// The armed fault plan, if any (the fabric draws its lane/bank
    /// trials from the same plan so one seed governs the campaign).
    pub fn faults_mut(&mut self) -> Option<&mut FaultPlan> {
        self.faults.as_mut()
    }

    /// The transfer that exhausted its retry budget, if any.
    pub fn link_failure(&self) -> Option<LinkFailure> {
        self.link_failed
    }

    /// Ages (cycles since issue) of in-flight MSHR-path transfers,
    /// oldest first — deadlock-diagnostic fodder.
    pub fn mshr_ages(&self, now: Cycle) -> Vec<u64> {
        let mut ages: Vec<u64> = self
            .miss_wait
            .iter()
            .map(|e| now.saturating_sub(e.born))
            .chain(self.lost.iter().map(|(_, e)| now.saturating_sub(e.born)))
            .collect();
        ages.sort_unstable_by(|a, b| b.cmp(a));
        ages
    }

    /// Why the front of the miss-wait queue is blocked now, if anything
    /// waits there: `MshrFull` when it is a read and the in-flight-miss
    /// bound is reached, else `Bandwidth` (link byte credits). A skipped
    /// quiescent stretch changes neither.
    pub fn admission_stall(&self) -> Option<StallCause> {
        let front = self.miss_wait.front()?;
        if front.req.write.is_none() && self.miss_pipe.len() >= self.cfg.max_inflight_misses {
            Some(StallCause::MshrFull)
        } else {
            Some(StallCause::Bandwidth)
        }
    }

    /// Is anything in flight?
    pub fn is_idle(&self) -> bool {
        self.requests.is_empty()
            && self.hit_pipe.is_empty()
            && self.miss_pipe.is_empty()
            && self.write_pipe.is_empty()
            && self.miss_wait.is_empty()
            && self.lost.is_empty()
    }

    /// Advances one cycle: admits requests, serves completions into
    /// `responses` as `(port, tag, word)` triples. The caller must route
    /// responses and then call [`MemorySubsystem::commit`].
    ///
    /// Returns whether the subsystem changed any state this cycle (a
    /// re-arm, completion, admission, or acceptance) — the event-wheel
    /// scheduler's quiescence signal. The bandwidth meter's credit
    /// accrual does not count: it is replayed exactly across skipped
    /// cycles by [`MemorySubsystem::fast_forward`].
    pub fn tick(&mut self, now: Cycle, responses: &mut Vec<(u32, u64, u64)>) -> bool {
        let mut active = false;
        self.qpi.tick();
        let line_words = (self.cfg.line_bytes / 8) as u64;
        // 0) Re-arm dropped transfers whose backoff expired (ahead of the
        //    admission queue: they have already waited their turn once).
        let mut i = 0;
        while i < self.lost.len() {
            if self.lost[i].0 <= now {
                let (_, entry) = self.lost.remove(i);
                if let Some(plan) = self.faults.as_mut() {
                    plan.stats.link_retried += 1;
                }
                self.miss_wait.push_front(entry);
                active = true;
            } else {
                i += 1;
            }
        }
        // 1) Completions (functional effect happens here).
        while let Some(req) = self.hit_pipe.pop_ready(now) {
            responses.push(self.complete(req));
            active = true;
        }
        while let Some(mut entry) = self.miss_pipe.pop_ready(now) {
            active = true;
            // The fill just crossed the link: run the modeled ECC check.
            match self.faults.as_mut().and_then(FaultPlan::draw_fill) {
                Some(SoftError::MultiBit) => {
                    // Uncorrectable: invalidate the line and refetch it.
                    self.faults.as_mut().unwrap().stats.soft_refetched += 1;
                    let addr_words = self.bases[entry.req.region.0] + entry.req.offset;
                    self.tags.invalidate(addr_words, line_words);
                    entry.refetch = true;
                    self.miss_wait.push_front(entry);
                    continue;
                }
                Some(SoftError::SingleBit) => {
                    self.faults.as_mut().unwrap().stats.soft_corrected += 1;
                }
                None => {}
            }
            if entry.refetch {
                // The refetched line is valid again.
                let addr_words = self.bases[entry.req.region.0] + entry.req.offset;
                self.tags.access(addr_words, line_words, true);
            }
            responses.push(self.complete(entry.req));
        }
        while let Some(req) = self.write_pipe.pop_ready(now) {
            responses.push(self.complete(req));
            active = true;
        }
        // 2) Admit waiting misses (bandwidth + MSHR bound).
        while let Some(entry) = self.miss_wait.front().copied() {
            let is_write = entry.req.write.is_some();
            if !is_write && self.miss_pipe.len() >= self.cfg.max_inflight_misses {
                break;
            }
            let bytes = if is_write {
                8
            } else {
                self.cfg.line_bytes as u64
            };
            if !self.qpi.try_consume(bytes) {
                break;
            }
            self.stats.qpi_bytes += bytes;
            self.miss_wait.pop_front();
            active = true;
            // The transfer is on the wire: draw its link fate.
            match self.faults.as_mut().and_then(FaultPlan::draw_link) {
                Some(LinkFault::Dropped) => {
                    let plan = self.faults.as_mut().unwrap();
                    plan.stats.link_dropped += 1;
                    if entry.retries >= plan.cfg().max_retries {
                        plan.stats.link_escalated += 1;
                        self.link_failed.get_or_insert(LinkFailure {
                            cycle: now,
                            port: entry.req.port,
                            tag: entry.req.tag,
                            retries: entry.retries,
                        });
                    } else {
                        let retry_at = now + plan.backoff(entry.retries);
                        self.lost.push((
                            retry_at,
                            MissEntry {
                                retries: entry.retries + 1,
                                ..entry
                            },
                        ));
                    }
                }
                Some(LinkFault::Late(extra)) => {
                    self.faults.as_mut().unwrap().stats.link_late += 1;
                    if is_write {
                        self.write_pipe.push_extra(now, extra, entry.req);
                    } else {
                        self.miss_pipe.push_extra(now, extra, entry);
                    }
                }
                None => {
                    if is_write {
                        self.write_pipe.push(now, entry.req);
                    } else {
                        self.miss_pipe.push(now, entry);
                    }
                }
            }
        }
        // 3) Accept new requests.
        for _ in 0..self.cfg.requests_per_cycle {
            // Leave headroom in the wait queue so admission stays bounded.
            if self.miss_wait.len() >= 4 * self.cfg.max_inflight_misses {
                break;
            }
            let Some(req) = self.requests.pop() else { break };
            active = true;
            let addr_words = self.bases[req.region.0] + req.offset;
            let entry = MissEntry {
                req,
                retries: 0,
                born: now,
                refetch: false,
            };
            match req.write {
                None => {
                    self.stats.reads += 1;
                    if self.tags.access(addr_words, line_words, true) {
                        self.stats.hits += 1;
                        self.hit_pipe.push(now, req);
                    } else {
                        self.stats.misses += 1;
                        self.miss_wait.push_back(entry);
                    }
                }
                Some(_) => {
                    self.stats.writes += 1;
                    // Write-through, no-allocate: update the tag state only
                    // on a hit (data would be updated in place).
                    let _hit = self.tags.access(addr_words, line_words, false);
                    // All writes traverse the link; queue behind misses for
                    // bandwidth accounting.
                    self.miss_wait.push_back(entry);
                }
            }
        }
        active
    }

    /// End-of-cycle commit of the request FIFO.
    pub fn commit(&mut self) {
        self.requests.commit();
    }

    /// Earliest future cycle at which this subsystem can next change
    /// state, given that the tick at `now` changed nothing: the front of
    /// each latency pipe, the earliest backoff expiry, and the cycle the
    /// bandwidth meter first covers the blocked admission at the front of
    /// the wait queue. `None` when nothing is pending (idle, or blocked
    /// on conditions only the rest of the fabric can change, like an MSHR
    /// freeing — which the miss-pipe front already covers).
    ///
    /// May undershoot (waking early only costs a dense cycle); it never
    /// overshoots, so the dense loop and the event wheel admit and
    /// complete every transfer on identical cycles. The caller wakes by
    /// `deadline` anyway, so the bandwidth replay stops there: a later
    /// answer could not lower the wake.
    pub fn next_wake(&self, now: Cycle, deadline: Cycle) -> Option<Cycle> {
        let mut wake: Option<Cycle> = None;
        let mut consider = |c: Cycle| match wake {
            Some(w) if w <= c => {}
            _ => wake = Some(c),
        };
        if let Some(c) = self.hit_pipe.next_ready() {
            consider(c);
        }
        if let Some(c) = self.miss_pipe.next_ready() {
            consider(c);
        }
        if let Some(c) = self.write_pipe.next_ready() {
            consider(c);
        }
        if let Some(c) = self.lost.iter().map(|(r, _)| *r).min() {
            consider(c);
        }
        if let Some(entry) = self.miss_wait.front() {
            let is_write = entry.req.write.is_some();
            if is_write || self.miss_pipe.len() < self.cfg.max_inflight_misses {
                // Blocked on bandwidth credit alone: replay the accrual to
                // the exact admission cycle. A front that saturates below
                // its transfer size contributes no wake (the watchdog
                // bounds the wait, same as the dense loop).
                let bytes = if is_write {
                    8
                } else {
                    self.cfg.line_bytes as u64
                };
                if let Some(k) = self.qpi.cycles_until(bytes, deadline.saturating_sub(now)) {
                    consider(now + k.max(1));
                }
            }
            // Else: blocked on an MSHR; the miss-pipe front above is the
            // only event that can free one.
        }
        wake
    }

    /// Replays `n` skipped quiescent cycles: the bandwidth meter accrues
    /// credit exactly as `n` ticks would (see
    /// [`apir_sim::bandwidth::BandwidthMeter::tick_n`]); everything else
    /// is unchanged by construction.
    pub fn fast_forward(&mut self, n: u64) {
        self.qpi.tick_n(n);
    }

    fn complete(&mut self, req: MemReq) -> (u32, u64, u64) {
        let word = match req.write {
            None => self.image.read(req.region, req.offset),
            Some((kind, value)) => {
                let old = self.image.read(req.region, req.offset);
                match kind {
                    WriteKind::Plain => {
                        self.image.write(req.region, req.offset, value);
                        1
                    }
                    WriteKind::Min => {
                        if value < old {
                            self.image.write(req.region, req.offset, value);
                            1
                        } else {
                            0
                        }
                    }
                    WriteKind::Cas(expected) => {
                        if old == expected {
                            self.image.write(req.region, req.offset, value);
                            1
                        } else {
                            0
                        }
                    }
                    WriteKind::Add => {
                        let new = old.wrapping_add(value);
                        self.image.write(req.region, req.offset, new);
                        new
                    }
                }
            }
        };
        (req.port, req.tag, word)
    }

    /// Checks a loaded snapshot against the rest of the fabric: the
    /// fault plan is present exactly when the config arms one, and every
    /// request in flight addresses a word of the image and answers on one
    /// of the fabric's `ports`.
    pub(crate) fn check_loaded(&self, ports: usize, faults_armed: bool) -> Result<(), String> {
        if self.faults.is_some() != faults_armed {
            return Err(".faults: presence disagrees with the fault config".into());
        }
        for (i, r) in self.requests.iter().enumerate() {
            self.request_fits(r, ports).map_err(|e| {
                let slot = fifo_slot(&self.requests, i);
                snap::nest(format_args!(".requests.{slot}"), e)
            })?;
        }
        for (name, pipe) in [
            ("hit_pipe", &self.hit_pipe),
            ("write_pipe", &self.write_pipe),
        ] {
            for (i, r) in pipe.iter().enumerate() {
                self.request_fits(r, ports)
                    .map_err(|e| snap::nest(format_args!(".{name}[{i}][1]"), e))?;
            }
        }
        for (i, m) in self.miss_pipe.iter().enumerate() {
            self.request_fits(&m.req, ports)
                .map_err(|e| snap::nest(format_args!(".miss_pipe[{i}][1].q"), e))?;
        }
        for (i, m) in self.miss_wait.iter().enumerate() {
            self.request_fits(&m.req, ports)
                .map_err(|e| snap::nest(format_args!(".miss_wait[{i}].q"), e))?;
        }
        for (i, (_, m)) in self.lost.iter().enumerate() {
            self.request_fits(&m.req, ports)
                .map_err(|e| snap::nest(format_args!(".lost[{i}][1].q"), e))?;
        }
        Ok(())
    }

    fn request_fits(&self, r: &MemReq, ports: usize) -> Result<(), String> {
        let regions = self.image.region_count();
        if r.region.0 >= regions {
            return Err(format!(
                ".r: region {} out of range ({regions} regions)",
                r.region.0
            ));
        }
        let words = self.image.region(r.region).len();
        if r.offset >= words as u64 {
            return Err(format!(
                ".o: offset {} is past the {words} words of region {}",
                r.offset, r.region.0
            ));
        }
        if r.port as usize >= ports {
            return Err(format!(".p: port {} out of range ({ports} ports)", r.port));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apir_core::RegionId;

    fn subsystem() -> MemorySubsystem {
        let img = MemImage::new(&[("a".into(), 4096)]);
        MemorySubsystem::new(MemConfig::default(), img)
    }

    fn read_req(tag: u64, off: u64) -> MemReq {
        MemReq {
            port: 0,
            tag,
            region: RegionId(0),
            offset: off,
            write: None,
        }
    }

    fn run_until_responses(
        m: &mut MemorySubsystem,
        start: Cycle,
        n: usize,
        max: Cycle,
    ) -> (Vec<(u32, u64, u64)>, Cycle) {
        let mut out = Vec::new();
        let mut now = start;
        while out.len() < n && now < start + max {
            now += 1;
            m.tick(now, &mut out);
            m.commit();
        }
        (out, now)
    }

    #[test]
    fn miss_then_hit_latency() {
        let mut m = subsystem();
        m.requests.push(read_req(1, 0));
        m.commit();
        let (r, t1) = run_until_responses(&mut m, 0, 1, 500);
        assert_eq!(r.len(), 1);
        // Miss: hit latency + 200ns (40 cycles) plus admission.
        assert!(t1 >= 54, "miss completed too fast: {t1}");
        // Same line again: hit.
        m.requests.push(read_req(2, 1));
        m.commit();
        let (r2, t2) = run_until_responses(&mut m, t1, 1, 500);
        assert_eq!(r2.len(), 1);
        assert!(t2 - t1 <= 14 + 3, "hit too slow: {}", t2 - t1);
        let s = m.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.qpi_bytes, 64);
    }

    #[test]
    fn rmw_serializes_by_completion() {
        let mut m = subsystem();
        // Two CAS writes to the same cell, both expecting 0.
        let w = |tag, expected| MemReq {
            port: 0,
            tag,
            region: RegionId(0),
            offset: 7,
            write: Some((WriteKind::Cas(expected), 99)),
        };
        m.requests.push(w(1, 0));
        m.requests.push(w(2, 0));
        m.commit();
        let (r, _) = run_until_responses(&mut m, 0, 2, 500);
        let won: Vec<u64> = r.iter().map(|x| x.2).collect();
        assert_eq!(won.iter().sum::<u64>(), 1, "exactly one CAS wins: {won:?}");
        assert_eq!(m.image().read(RegionId(0), 7), 99);
    }

    #[test]
    fn store_min_and_add_semantics() {
        let mut m = subsystem();
        m.image_mut().write(RegionId(0), 3, 10);
        let mk = |tag, kind, v| MemReq {
            port: 0,
            tag,
            region: RegionId(0),
            offset: 3,
            write: Some((kind, v)),
        };
        m.requests.push(mk(1, WriteKind::Min, 12)); // loses
        m.requests.push(mk(2, WriteKind::Min, 5)); // wins
        m.requests.push(mk(3, WriteKind::Add, 2)); // 5 + 2 = 7
        m.commit();
        let (r, _) = run_until_responses(&mut m, 0, 3, 500);
        let by_tag = |t: u64| r.iter().find(|x| x.1 == t).unwrap().2;
        assert_eq!(by_tag(1), 0);
        assert_eq!(by_tag(2), 1);
        assert_eq!(by_tag(3), 7);
        assert_eq!(m.image().read(RegionId(0), 3), 7);
    }

    #[test]
    fn bandwidth_limits_miss_throughput() {
        // 1 GB/s => 5 bytes/cycle => a 64-byte line every ~13 cycles.
        let cfg = MemConfig {
            qpi_gbps: 1.0,
            ..MemConfig::default()
        };
        let img = MemImage::new(&[("a".into(), 1 << 16)]);
        let mut m = MemorySubsystem::new(cfg, img);
        // 32 reads to distinct lines.
        for i in 0..32u64 {
            m.requests.push(read_req(i, i * 8));
        }
        m.commit();
        let (r, t) = run_until_responses(&mut m, 0, 32, 20_000);
        assert_eq!(r.len(), 32);
        // 32 lines * 64B at 5 B/cycle = ~410 cycles minimum.
        assert!(t >= 350, "completed too fast for 1 GB/s: {t}");
        assert_eq!(m.stats().qpi_bytes, 32 * 64);
    }

    fn faulty_subsystem(faults: &FaultConfig) -> MemorySubsystem {
        let img = MemImage::new(&[("a".into(), 4096)]);
        MemorySubsystem::with_faults(MemConfig::default(), img, faults)
    }

    #[test]
    fn dropped_transfer_retries_and_completes() {
        // Seeded 50% drop: every lost admission re-arms after the backoff
        // and the miss still completes with the right data.
        let faults = FaultConfig {
            seed: 3,
            drop_rate: 0.5,
            retry_timeout: 8,
            max_retries: 8,
            ..FaultConfig::default()
        };
        let mut m = faulty_subsystem(&faults);
        m.image_mut().write(RegionId(0), 0, 42);
        for i in 0..8u64 {
            m.requests.push(read_req(i, i * 64));
        }
        m.commit();
        let (r, _) = run_until_responses(&mut m, 0, 8, 20_000);
        assert_eq!(r.len(), 8);
        assert_eq!(r.iter().find(|x| x.1 == 0).unwrap().2, 42);
        let f = m.fault_stats();
        assert!(f.link_dropped > 0, "seed 3 must drop something: {f:?}");
        assert_eq!(f.link_retried, f.link_dropped, "every drop re-armed");
        assert!(m.is_idle());
        assert!(m.link_failure().is_none());
    }

    #[test]
    fn certain_drop_exhausts_retries_into_link_failure() {
        let faults = FaultConfig {
            seed: 1,
            drop_rate: 1.0,
            retry_timeout: 2,
            max_retries: 2,
            ..FaultConfig::default()
        };
        let mut m = faulty_subsystem(&faults);
        m.requests.push(read_req(9, 0));
        m.commit();
        let (r, _) = run_until_responses(&mut m, 0, 1, 2_000);
        assert!(r.is_empty(), "a dead link must not answer");
        let fail = m.link_failure().expect("retries exhausted");
        assert_eq!(fail.tag, 9);
        assert_eq!(fail.retries, 2);
        assert_eq!(m.fault_stats().link_escalated, 1);
    }

    #[test]
    fn multi_bit_soft_error_refetches_with_correct_data() {
        // Frequent all-multi-bit soft errors (a certain rate would refetch
        // forever): corrupted fills are scrubbed and refetched, yet the
        // response carries the true memory word — modeled ECC never lets
        // corrupted data reach the pipelines. Seed 5 is probed to corrupt
        // the first fill and pass a later one.
        let faults = FaultConfig {
            seed: 5,
            soft_error_rate: 0.7,
            multi_bit_fraction: 1.0,
            ..FaultConfig::default()
        };
        let mut m = faulty_subsystem(&faults);
        m.image_mut().write(RegionId(0), 1, 77);
        m.requests.push(read_req(4, 1));
        m.commit();
        let (r, t) = run_until_responses(&mut m, 0, 1, 5_000);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].2, 77);
        let f = m.fault_stats();
        assert!(f.soft_refetched > 0, "{f:?}");
        assert_eq!(f.soft_corrected, 0);
        // The refetch pays at least one extra miss round trip.
        assert!(t >= 2 * 54, "refetch came back too fast: {t}");
    }

    #[test]
    fn single_bit_soft_errors_are_corrected_inline() {
        let faults = FaultConfig {
            seed: 5,
            soft_error_rate: 1.0,
            multi_bit_fraction: 0.0,
            ..FaultConfig::default()
        };
        let mut m = faulty_subsystem(&faults);
        m.image_mut().write(RegionId(0), 2, 31);
        m.requests.push(read_req(4, 2));
        m.commit();
        let (r, t) = run_until_responses(&mut m, 0, 1, 5_000);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].2, 31);
        let f = m.fault_stats();
        assert!(f.soft_corrected > 0, "{f:?}");
        assert_eq!(f.soft_refetched, 0);
        // Correction is free: same latency envelope as a clean miss.
        assert!(t < 2 * 54, "inline correction must not refetch: {t}");
    }

    #[test]
    fn admission_stall_names_what_blocks_the_wait_queue_front() {
        let cfg = MemConfig {
            max_inflight_misses: 1,
            ..MemConfig::default()
        };
        let mut m = MemorySubsystem::new(cfg, MemImage::new(&[("a".into(), 4096)]));
        assert_eq!(m.admission_stall(), None);
        let read = MissEntry {
            req: read_req(1, 0),
            ..MissEntry::default()
        };
        m.miss_wait.push_back(read);
        assert_eq!(m.admission_stall(), Some(StallCause::Bandwidth));
        m.miss_pipe.push(0, read);
        assert_eq!(m.admission_stall(), Some(StallCause::MshrFull));
        // A write at the front takes no MSHR.
        let write = MemReq {
            write: Some((WriteKind::Plain, 5)),
            ..read_req(2, 8)
        };
        m.miss_wait.push_front(MissEntry {
            req: write,
            ..MissEntry::default()
        });
        assert_eq!(m.admission_stall(), Some(StallCause::Bandwidth));
    }

    #[test]
    fn mshr_bounds_inflight() {
        let cfg = MemConfig {
            max_inflight_misses: 2,
            qpi_gbps: 700.0, // effectively unlimited bandwidth
            ..MemConfig::default()
        };
        let img = MemImage::new(&[("a".into(), 1 << 16)]);
        let mut m = MemorySubsystem::new(cfg, img);
        for i in 0..8u64 {
            m.requests.push(read_req(i, i * 64));
        }
        m.commit();
        // With only 2 MSHRs and ~54-cycle misses, 8 misses need >= 4 waves.
        let (r, t) = run_until_responses(&mut m, 0, 8, 10_000);
        assert_eq!(r.len(), 8);
        assert!(t >= 4 * 54 - 8, "MSHR limit not enforced: {t}");
        assert!(m.is_idle());
    }
}
