//! Rule engines: lanes, event matching, return buffer, min-task broadcast.
//!
//! Figure 8 of the paper: each rule type becomes a rule engine with an
//! allocator and a set of *lanes*. An `AllocRule` operation in a task
//! pipeline requests a lane (stalling the parent task when none is free);
//! events broadcast on the event bus are evaluated against every lane's
//! ECA clauses; a firing lane "puts a return value in the return buffer
//! and releases the lane". The rendezvous switch in the pipeline claims
//! the value and steers the task token. The minimum live task is broadcast
//! every cycle to trigger `otherwise` clauses (liveness).
//!
//! The hardware compares every lane with a requester's priority and with
//! the minimum-task broadcast in parallel. The model gets the same answers
//! from an ordered index of the occupied lanes, keyed by the holder's task
//! order and then the lane: the eviction victim is its last entry and the
//! minimum task's lane is one range lookup, so neither scans the lanes.

use crate::types::EventMsg;
use apir_core::expr::EvalCtx;
use apir_core::rule::{EcaClause, EventPat, RuleAction, RuleDecl, RuleMode};
use apir_core::{IndexTuple, MAX_FIELDS};
use apir_sim::stats::StallCause;
use apir_util::snap_fields;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Result of requesting a lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocOutcome {
    /// A lane was granted (possibly by evicting a later holder).
    Granted,
    /// No lane: the requester is later than every holder. A `false`
    /// return is buffered for its tag so the rendezvous steers it into
    /// its retry path instead of blocking the pipeline ("negative
    /// acknowledgement" allocator policy).
    Nacked,
}

/// Result of a rendezvous claiming its rule instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The value is available now (speculative verdict, or a buffered
    /// return from an already-released lane).
    Ready(bool),
    /// Coordinative rule still pending: the parent waits; the value will
    /// arrive through the engine's output port.
    Wait,
}

/// Engine statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleEngineStats {
    /// Lanes granted.
    pub allocs: u64,
    /// Alloc attempts rejected for lack of lanes.
    pub alloc_stalls: u64,
    /// ECA clause firings.
    pub clause_fires: u64,
    /// `otherwise` firings (minimum-task exits).
    pub otherwise_fires: u64,
    /// Lanes evicted by earlier-ordered requesters (priority allocator).
    pub evictions: u64,
    /// Peak simultaneously occupied lanes.
    pub peak_lanes: u64,
}
snap_fields!(RuleEngineStats [
    allocs,
    alloc_stalls,
    clause_fires,
    otherwise_fires,
    evictions,
    peak_lanes,
]);

#[derive(Clone, Debug, Default)]
struct Lane {
    parent_index: IndexTuple,
    parent_seq: u64,
    params: [u64; MAX_FIELDS],
    tag: u64,
    /// Speculative verdict accumulated so far (starts at `otherwise`).
    verdict: bool,
    /// Countdown for `RuleAction::CountDown` (None if unused).
    countdown: Option<u64>,
    /// Set once the parent reached the rendezvous: the response port.
    claimed_port: Option<u32>,
}
snap_fields!(Lane {
    parent_index => "pi",
    parent_seq => "ps",
    params => "pm",
    tag => "t",
    verdict => "v",
    countdown => "cd",
    claimed_port => "cp",
});

/// A rule engine serving one [`RuleDecl`].
#[derive(Clone, Debug)]
pub struct RuleEngine {
    decl: RuleDecl,
    /// Clauses shared cheaply with the per-cycle evaluation loop (the
    /// borrow checker otherwise forces a deep clone per event).
    clauses: Arc<Vec<EcaClause>>,
    lanes: Box<[Option<Lane>]>,
    /// Return buffer: values from lanes released before their parent
    /// claimed them.
    returns: BTreeMap<u64, bool>,
    /// Returns produced by evictions during `alloc` (drained by `tick`).
    evicted_returns: Vec<(u32, u64, u64)>,
    /// Lanes masked out by injected hard faults; the allocator never
    /// grants them (they are always empty once drained).
    masked: Box<[bool]>,
    stats: RuleEngineStats,
    /// Lanes holding a rule instance. Derived: recounted on load.
    occupied: usize,
    /// Lanes not masked. Derived: recounted on load.
    live: usize,
    /// The occupied lanes as `(parent_index, parent_seq, lane)`, in task
    /// order and then lane order. Derived: rebuilt on load.
    order: BTreeSet<(IndexTuple, u64, usize)>,
}
snap_fields!(RuleEngine {
    lanes,
    returns,
    evicted_returns,
    masked,
    stats,
    decl: skip,
    clauses: skip,
    occupied: skip,
    live: skip,
    order: skip,
} check Self::loaded);

impl RuleEngine {
    /// Creates an engine with `lanes` lanes.
    pub fn new(decl: RuleDecl, lanes: usize) -> Self {
        RuleEngine {
            clauses: Arc::new(decl.clauses.clone()),
            decl,
            lanes: vec![None; lanes.max(1)].into(),
            returns: BTreeMap::new(),
            evicted_returns: Vec::new(),
            masked: vec![false; lanes.max(1)].into(),
            stats: RuleEngineStats::default(),
            occupied: 0,
            live: lanes.max(1),
            order: BTreeSet::new(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> RuleEngineStats {
        self.stats
    }

    /// Occupied lanes.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Lanes still in service (not masked by an injected fault).
    pub fn live_lanes(&self) -> usize {
        self.live
    }

    /// Masks out one live lane (an injected hard fault). If the lane is
    /// occupied its holder is drained with a conservative `false` (the
    /// paper's abort/retry verdict), delivered through `out` or the
    /// return buffer exactly like an eviction. The pick is taken modulo
    /// the live-lane count. Refuses (returns `None`) when masking would
    /// drop below half the lanes; otherwise returns whether the lane had
    /// to be drained.
    pub fn mask_lane(&mut self, pick: u64, out: &mut Vec<(u32, u64, u64)>) -> Option<bool> {
        if self.live * 2 <= self.lanes.len() {
            return None;
        }
        let nth = (pick % self.live as u64) as usize;
        let victim = (0..self.lanes.len())
            .filter(|&i| !self.masked[i])
            .nth(nth)
            .expect("`live` counts the unmasked lanes");
        let drained = self.lanes[victim].is_some();
        if drained {
            self.release(victim, false, out);
        }
        self.masked[victim] = true;
        self.live -= 1;
        Some(drained)
    }

    /// Watchdog escalation: force the lane held by the task `key` to
    /// fire its `otherwise` path right now (the paper's liveness lever,
    /// pulled early). Returns whether a lane was released.
    pub fn force_min_release(
        &mut self,
        key: (IndexTuple, u64),
        out: &mut Vec<(u32, u64, u64)>,
    ) -> bool {
        let Some(pos) = self.lane_of(key) else {
            return false;
        };
        self.stats.otherwise_fires += 1;
        let v = self.decl.otherwise;
        self.release(pos, v, out);
        true
    }

    /// Why no live lane is free now, if none is: `LaneMasked` when
    /// fault masking removed lanes, else `LaneBusy` (every lane held).
    /// Masked lanes are empty, so a live lane is free exactly when fewer
    /// lanes are occupied than live.
    pub fn admission_stall(&self) -> Option<StallCause> {
        if self.occupied < self.live {
            None
        } else if self.live < self.lanes.len() {
            Some(StallCause::LaneMasked)
        } else {
            Some(StallCause::LaneBusy)
        }
    }

    /// Allocates a lane for a rule instance, never blocking: if all lanes
    /// are held by earlier tasks the request is *nacked* — a `false`
    /// return is buffered so the rendezvous steers the parent into its
    /// retry path and the pipeline keeps flowing.
    pub fn alloc(
        &mut self,
        parent_index: IndexTuple,
        parent_seq: u64,
        params: [u64; MAX_FIELDS],
        tag: u64,
    ) -> AllocOutcome {
        // A countdown initialized to zero is satisfied immediately: put
        // the return straight into the buffer without consuming a lane.
        let countdown = self.decl.countdown_param.map(|p| params[p as usize]);
        if countdown == Some(0) {
            self.returns.insert(tag, true);
            self.stats.allocs += 1;
            return AllocOutcome::Granted;
        }
        let slot_idx = if self.occupied < self.live {
            (0..self.lanes.len())
                .find(|&i| self.lanes[i].is_none() && !self.masked[i])
                .expect("occupied < live leaves a live lane free")
        } else {
            // Priority allocator: an earlier-ordered requester evicts
            // the *latest* lane holder, which receives a conservative
            // `false` (abort/retry). This guarantees the minimum live
            // task always obtains a lane, preserving the liveness
            // argument of the `otherwise` clause under finite lanes.
            match self.victim() {
                Some((vkey, vi)) if (parent_index, parent_seq) < vkey => {
                    self.stats.evictions += 1;
                    let mut evicted = std::mem::take(&mut self.evicted_returns);
                    self.release(vi, false, &mut evicted);
                    self.evicted_returns = evicted;
                    vi
                }
                _ => {
                    self.stats.alloc_stalls += 1;
                    self.returns.insert(tag, false);
                    return AllocOutcome::Nacked;
                }
            }
        };
        self.order.insert((parent_index, parent_seq, slot_idx));
        self.lanes[slot_idx] = Some(Lane {
            parent_index,
            parent_seq,
            params,
            tag,
            verdict: self.decl.otherwise,
            countdown,
            claimed_port: None,
        });
        self.occupied += 1;
        self.stats.allocs += 1;
        self.stats.peak_lanes = self.stats.peak_lanes.max(self.occupied as u64);
        AllocOutcome::Granted
    }

    /// Cancels a rule instance whose parent gave up waiting (reservation
    /// station timeout): frees the lane or discards the buffered return.
    /// Idempotent; a no-op if the value was already delivered.
    pub fn cancel(&mut self, tag: u64) {
        self.returns.remove(&tag);
        for li in 0..self.lanes.len() {
            if self.lanes[li].as_ref().is_some_and(|l| l.tag == tag) {
                self.vacate(li);
            }
        }
    }

    /// The parent task reached its rendezvous for the instance `tag`.
    ///
    /// `port` is where a deferred (coordinative) return must be delivered.
    pub fn claim(&mut self, tag: u64, port: u32) -> ClaimOutcome {
        if let Some(v) = self.returns.remove(&tag) {
            return ClaimOutcome::Ready(v);
        }
        let idx = self
            .lanes
            .iter()
            .position(|l| l.as_ref().is_some_and(|l| l.tag == tag));
        let Some(idx) = idx else {
            // Lane lost? Treat as otherwise to preserve liveness.
            return ClaimOutcome::Ready(self.decl.otherwise);
        };
        match self.decl.mode {
            RuleMode::Immediate => ClaimOutcome::Ready(self.vacate(idx).verdict),
            RuleMode::Waiting => {
                self.lanes[idx].as_mut().expect("lane present").claimed_port = Some(port);
                ClaimOutcome::Wait
            }
        }
    }

    /// One cycle: evaluates broadcast `events` against every lane, applies
    /// the minimum-live-task broadcast, and appends deferred returns as
    /// `(port, tag, value)` to `out`.
    ///
    /// Returns whether the engine changed any state this cycle (drained
    /// an evicted return or fired any clause — a fired clause is the
    /// only path that writes a verdict, decrements a countdown, or
    /// releases a lane). Evaluating conditions that do not fire is pure,
    /// so a `false` return means the identical tick can be elided: the
    /// event-wheel scheduler's quiescence signal.
    pub fn tick(
        &mut self,
        events: &[EventMsg],
        global_min: Option<(IndexTuple, u64)>,
        out: &mut Vec<(u32, u64, u64)>,
    ) -> bool {
        let fires_before = self.stats.clause_fires + self.stats.otherwise_fires;
        let moved = !self.evicted_returns.is_empty();
        // 0) Returns from lanes evicted during alloc this cycle.
        out.append(&mut self.evicted_returns);
        // 1) Label-triggered clauses. The clause list is shared only with
        // a tick that evaluates it: most ticks carry no event.
        if !events.is_empty() {
            let clauses = Arc::clone(&self.clauses);
            for ev in events {
                for clause in clauses.iter() {
                    let EventPat::Label(l) = clause.event else {
                        continue;
                    };
                    if l != ev.label {
                        continue;
                    }
                    self.eval_clause_on_lanes(
                        &clause.condition,
                        clause.action,
                        ev.index,
                        ev.payload(),
                        out,
                    );
                }
            }
        }
        // 2) Minimum-task broadcast.
        if let Some(pos) = global_min.and_then(|key| self.lane_of(key)) {
            let (idx, params) = {
                let l = self.lanes[pos].as_ref().expect("lane present");
                (l.parent_index, l.params)
            };
            // 2a) `ON min-waiting` clauses see the minimum lane's params.
            let clauses = Arc::clone(&self.clauses);
            for clause in clauses.iter() {
                if clause.event != EventPat::MinWaiting {
                    continue;
                }
                self.eval_clause_on_lanes(&clause.condition, clause.action, idx, &params, out);
            }
            // 2b) The obligatory `otherwise`: fires when the minimum task
            // is *waiting* at its rendezvous.
            if let Some(lane) = &self.lanes[pos] {
                if lane.claimed_port.is_some() {
                    self.stats.otherwise_fires += 1;
                    let v = self.decl.otherwise;
                    self.release(pos, v, out);
                }
            }
        }
        moved || self.stats.clause_fires + self.stats.otherwise_fires != fires_before
    }

    fn eval_clause_on_lanes(
        &mut self,
        condition: &apir_core::expr::Expr,
        action: RuleAction,
        event_index: IndexTuple,
        payload: &[u64],
        out: &mut Vec<(u32, u64, u64)>,
    ) {
        for li in 0..self.lanes.len() {
            let Some(lane) = &self.lanes[li] else {
                continue;
            };
            let ctx = EvalCtx {
                event_index,
                event_payload: payload,
                parent_index: lane.parent_index,
                params: &lane.params,
            };
            if !condition.eval_bool(&ctx) {
                continue;
            }
            self.stats.clause_fires += 1;
            match (action, self.decl.mode) {
                (RuleAction::Return(v), RuleMode::Immediate) => {
                    self.lanes[li].as_mut().expect("lane present").verdict = v;
                }
                (RuleAction::Return(v), RuleMode::Waiting) => {
                    self.release(li, v, out);
                }
                (RuleAction::CountDown, _) => {
                    let lane = self.lanes[li].as_mut().expect("lane present");
                    let c = lane.countdown.get_or_insert(1);
                    *c = c.saturating_sub(1);
                    if *c == 0 {
                        self.release(li, true, out);
                    }
                }
            }
        }
    }

    /// The latest holder's key and lane: the greatest
    /// `(parent_index, parent_seq)`, and of the lanes that hold it the
    /// last, as a scan keeping the last maximum finds it.
    fn victim(&self) -> Option<((IndexTuple, u64), usize)> {
        self.order
            .last()
            .map(|&(index, seq, li)| ((index, seq), li))
    }

    /// The first lane held by exactly the task `key`. The range holds
    /// every entry equal to `key` under `Ord`, which ignores an index's
    /// depth; `==` compares the depth too.
    fn lane_of(&self, (index, seq): (IndexTuple, u64)) -> Option<usize> {
        self.order
            .range((index, seq, 0)..=(index, seq, usize::MAX))
            .find(|&&(i, _, _)| i == index)
            .map(|&(_, _, li)| li)
    }

    /// Empties lane `li`; every lane change but a grant goes through here.
    fn vacate(&mut self, li: usize) -> Lane {
        let lane = self.lanes[li].take().expect("lane present");
        self.order.remove(&(lane.parent_index, lane.parent_seq, li));
        self.occupied -= 1;
        lane
    }

    fn release(&mut self, li: usize, value: bool, out: &mut Vec<(u32, u64, u64)>) {
        let lane = self.vacate(li);
        match lane.claimed_port {
            Some(port) => out.push((port, lane.tag, value as u64)),
            None => {
                self.returns.insert(lane.tag, value);
            }
        }
    }

    /// A loaded snapshot must leave every masked lane empty; recounts the
    /// derived lane totals and rebuilds the lane index.
    fn loaded(&mut self) -> Result<(), String> {
        let held = |(l, &m): (&Option<Lane>, &bool)| m && l.is_some();
        if let Some(i) = self.lanes.iter().zip(&self.masked).position(held) {
            return Err(format!(".lanes[{i}]: a masked lane holds a rule instance"));
        }
        self.order = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|l| (l.parent_index, l.parent_seq, i)))
            .collect();
        self.occupied = self.order.len();
        self.live = self.masked.iter().filter(|&&m| !m).count();
        Ok(())
    }

    /// Every response port a lane or a deferred return names must exist:
    /// the fabric routes them by index.
    pub(crate) fn check_ports(&self, ports: usize) -> Result<(), String> {
        let out_of_range = |p: u32| format!("port {p} out of range ({ports} ports)");
        for (i, lane) in self.lanes.iter().enumerate() {
            match lane.as_ref().and_then(|l| l.claimed_port) {
                Some(p) if p as usize >= ports => {
                    return Err(format!(".lanes[{i}].cp: {}", out_of_range(p)))
                }
                _ => {}
            }
        }
        match self
            .evicted_returns
            .iter()
            .position(|r| r.0 as usize >= ports)
        {
            Some(i) => Err(format!(
                ".evicted_returns[{i}][0]: {}",
                out_of_range(self.evicted_returns[i].0)
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::to_fields;
    use apir_core::expr::dsl::*;
    use apir_core::spec::LabelId;
    use apir_util::snap::Snap;
    use apir_util::Gen;

    fn msg(label: usize, payload: &[u64], index: &[u64]) -> EventMsg {
        EventMsg {
            label: LabelId(label),
            payload: to_fields(payload),
            len: payload.len() as u8,
            index: IndexTuple::new(index),
        }
    }

    #[test]
    fn immediate_rule_accumulates_verdict() {
        // SPEC-BFS-style: conflict from an earlier task flips to false.
        let decl = RuleDecl::new("conflict", 1, true).on_label(
            LabelId(0),
            and(earlier(), eq(ev(0), param(0))),
            RuleAction::Return(false),
        );
        let mut e = RuleEngine::new(decl, 4);
        assert_eq!(
            e.alloc(IndexTuple::new(&[5]), 50, to_fields(&[100]), 1),
            AllocOutcome::Granted
        );
        let mut out = Vec::new();
        // Later task writes same address: ignored.
        e.tick(&[msg(0, &[100], &[9])], None, &mut out);
        assert_eq!(e.claim(1, 0), ClaimOutcome::Ready(true));
        // New instance; earlier task writes same address: verdict false.
        assert_eq!(
            e.alloc(IndexTuple::new(&[5]), 51, to_fields(&[100]), 2),
            AllocOutcome::Granted
        );
        e.tick(&[msg(0, &[100], &[2])], None, &mut out);
        assert_eq!(e.claim(2, 0), ClaimOutcome::Ready(false));
        assert!(out.is_empty());
        assert_eq!(e.occupied(), 0);
    }

    #[test]
    fn waiting_rule_releases_on_clause_and_buffers() {
        // COOR-BFS-style: release all lanes whose level equals the
        // minimum's level.
        let decl = RuleDecl::new_waiting("wavefront", 1, true)
            .on_min_waiting(eq(ev(0), param(0)), RuleAction::Return(true));
        let mut e = RuleEngine::new(decl, 4);
        let min = IndexTuple::new(&[1]);
        assert_eq!(e.alloc(min, 10, to_fields(&[3]), 1), AllocOutcome::Granted); // level 3 (the min task)
        assert_eq!(
            e.alloc(IndexTuple::new(&[2]), 11, to_fields(&[3]), 2),
            AllocOutcome::Granted
        ); // level 3
        assert_eq!(
            e.alloc(IndexTuple::new(&[3]), 12, to_fields(&[4]), 3),
            AllocOutcome::Granted
        ); // level 4
           // Tag 2's parent claims first (waits).
        assert_eq!(e.claim(2, 7), ClaimOutcome::Wait);
        let mut out = Vec::new();
        e.tick(&[], Some((min, 10)), &mut out);
        // Lane 2 (claimed) got a direct return; lane 1 buffered; lane 3 waits.
        assert_eq!(out, vec![(7, 2, 1)]);
        assert_eq!(e.claim(1, 9), ClaimOutcome::Ready(true));
        assert_eq!(e.occupied(), 1);
        assert_eq!(e.claim(3, 9), ClaimOutcome::Wait);
    }

    #[test]
    fn otherwise_fires_only_for_claimed_minimum() {
        let decl = RuleDecl::new_waiting("serial", 0, true);
        let mut e = RuleEngine::new(decl, 2);
        let i1 = IndexTuple::new(&[1]);
        let i2 = IndexTuple::new(&[2]);
        assert_eq!(e.alloc(i1, 1, to_fields(&[]), 1), AllocOutcome::Granted);
        assert_eq!(e.alloc(i2, 2, to_fields(&[]), 2), AllocOutcome::Granted);
        let mut out = Vec::new();
        // Minimum not yet at rendezvous: nothing fires.
        e.tick(&[], Some((i1, 1)), &mut out);
        assert!(out.is_empty());
        // Task 2 waits; still nothing (it is not the minimum).
        assert_eq!(e.claim(2, 4), ClaimOutcome::Wait);
        e.tick(&[], Some((i1, 1)), &mut out);
        assert!(out.is_empty());
        // Minimum claims: otherwise fires for it only.
        assert_eq!(e.claim(1, 3), ClaimOutcome::Wait);
        e.tick(&[], Some((i1, 1)), &mut out);
        assert_eq!(out, vec![(3, 1, 1)]);
        assert_eq!(e.stats().otherwise_fires, 1);
        // Now task 2 is the minimum.
        out.clear();
        e.tick(&[], Some((i2, 2)), &mut out);
        assert_eq!(out, vec![(4, 2, 1)]);
    }

    #[test]
    fn countdown_rule() {
        let decl = RuleDecl::new_waiting("deps", 2, true)
            .on_label(LabelId(0), eq(ev(0), param(0)), RuleAction::CountDown)
            .with_countdown(1);
        let mut e = RuleEngine::new(decl, 2);
        // Two deps on key 42.
        assert_eq!(
            e.alloc(IndexTuple::new(&[5]), 1, to_fields(&[42, 2]), 1),
            AllocOutcome::Granted
        );
        // Zero deps: immediate buffered return.
        assert_eq!(
            e.alloc(IndexTuple::new(&[6]), 2, to_fields(&[42, 0]), 2),
            AllocOutcome::Granted
        );
        assert_eq!(e.claim(2, 0), ClaimOutcome::Ready(true));
        let mut out = Vec::new();
        e.tick(&[msg(0, &[42], &[1])], None, &mut out);
        assert!(out.is_empty()); // 1 left
        e.tick(&[msg(0, &[41], &[1])], None, &mut out);
        assert!(out.is_empty()); // wrong key
        assert_eq!(e.claim(1, 5), ClaimOutcome::Wait);
        e.tick(&[msg(0, &[42], &[2])], None, &mut out);
        assert_eq!(out, vec![(5, 1, 1)]);
    }

    #[test]
    fn masked_lane_drains_holder_and_degrades() {
        let decl = RuleDecl::new("r", 0, true);
        let mut e = RuleEngine::new(decl, 4);
        assert_eq!(
            e.alloc(IndexTuple::new(&[1]), 1, to_fields(&[]), 1),
            AllocOutcome::Granted
        );
        let mut out = Vec::new();
        // Mask the occupied lane: the holder gets a conservative false.
        let mut masked_occupied = false;
        for pick in 0..4 {
            if e.occupied() == 0 {
                break;
            }
            if e.mask_lane(pick, &mut out) == Some(true) {
                masked_occupied = true;
                break;
            }
        }
        assert!(masked_occupied);
        assert_eq!(e.claim(1, 0), ClaimOutcome::Ready(false));
        // Survivors still serve allocations.
        assert_eq!(
            e.alloc(IndexTuple::new(&[2]), 2, to_fields(&[]), 2),
            AllocOutcome::Granted
        );
        // Degradation stops at half the lanes.
        while e.live_lanes() > 2 {
            assert!(e.mask_lane(0, &mut out).is_some());
        }
        assert!(e.mask_lane(0, &mut out).is_none(), "refuses below half");
        assert_eq!(e.live_lanes(), 2);
    }

    #[test]
    fn force_min_release_fires_otherwise_early() {
        let decl = RuleDecl::new_waiting("serial", 0, true);
        let mut e = RuleEngine::new(decl, 2);
        let i1 = IndexTuple::new(&[1]);
        assert_eq!(e.alloc(i1, 1, to_fields(&[]), 1), AllocOutcome::Granted);
        assert_eq!(e.claim(1, 3), ClaimOutcome::Wait);
        let mut out = Vec::new();
        assert!(!e.force_min_release((IndexTuple::new(&[9]), 9), &mut out));
        assert!(e.force_min_release((i1, 1), &mut out));
        assert_eq!(out, vec![(3, 1, 1)]);
        assert_eq!(e.stats().otherwise_fires, 1);
        assert_eq!(e.occupied(), 0);
    }

    /// The victim scan the lane index replaced: the greatest key, and of
    /// the lanes holding it the last.
    fn scan_victim(e: &RuleEngine) -> Option<((IndexTuple, u64), usize)> {
        e.lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|l| (i, (l.parent_index, l.parent_seq))))
            .max_by_key(|&(_, key)| key)
            .map(|(i, key)| (key, i))
    }

    /// The minimum-task scan the lane index replaced: the first lane held
    /// by exactly `key`.
    fn scan_lane_of(e: &RuleEngine, key: (IndexTuple, u64)) -> Option<usize> {
        e.lanes.iter().position(|l| {
            l.as_ref()
                .is_some_and(|l| (l.parent_index, l.parent_seq) == key)
        })
    }

    /// The derived counts must equal a recount of the lanes, and the
    /// O(1) free-lane test must agree with a scan for one. The lane index
    /// must equal a sorted recount of the occupied lanes and answer as the
    /// scans it replaced, for every held key and for keys no lane holds.
    fn assert_counts(e: &RuleEngine) {
        let occupied = e.lanes.iter().filter(|l| l.is_some()).count();
        let live = e.masked.iter().filter(|&&m| !m).count();
        assert_eq!((e.occupied, e.live), (occupied, live));
        let free_live = e
            .lanes
            .iter()
            .zip(&e.masked)
            .any(|(l, &m)| !m && l.is_none());
        assert_eq!(e.occupied < e.live, free_live);
        let mut held: Vec<_> = e
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|l| (l.parent_index, l.parent_seq, i)))
            .collect();
        held.sort();
        assert!(
            e.order.iter().eq(&held),
            "index {:?}, lanes {held:?}",
            e.order
        );
        assert_eq!(e.victim(), scan_victim(e));
        // The same components at full depth: equal under `Ord` to the
        // key, and held by no lane here (no test index is 4 deep).
        let twin = |(index, seq): (IndexTuple, u64)| (IndexTuple::new(&index.as_array()), seq);
        let keys = held.iter().map(|&(index, seq, _)| (index, seq));
        let absent = keys.clone().map(twin).chain([twin((IndexTuple::ROOT, 0))]);
        for key in keys.chain(absent) {
            assert_eq!(e.lane_of(key), scan_lane_of(e, key), "lane of {key:?}");
        }
    }

    /// What one run of [`random_lane_ops`] reached.
    #[derive(Debug, Default)]
    struct Reached {
        /// One task held two lanes at once.
        shared: bool,
        /// Two holders' indexes were equal under `Ord` but differed in
        /// depth.
        twins: bool,
        evictions: u64,
    }

    /// Applies a random sequence of lane operations to a 4-lane engine in
    /// a random mode and checks the derived state after every one. An
    /// eviction must take the lane the old scan picks. The holders come
    /// from a pool small enough that one task often holds two lanes, and
    /// `[3]` and `[3, 0]` (equal under `Ord`) are both in it.
    fn random_lane_ops(g: &mut Gen) -> Reached {
        let decl = if g.gen_bool(0.5) {
            RuleDecl::new("r", 1, true)
        } else {
            RuleDecl::new_waiting("w", 1, true)
        };
        let decl = decl
            .on_label(LabelId(0), eq(ev(0), param(0)), RuleAction::Return(false))
            .on_min_waiting(eq(ev(0), param(0)), RuleAction::Return(true));
        let indexes = [[1].as_slice(), &[3], &[3, 0], &[4]].map(IndexTuple::new);
        let key = |g: &mut Gen| (indexes[g.gen_range(0..indexes.len())], g.gen_range(0u64..3));
        let mut e = RuleEngine::new(decl.clone(), 4);
        let (mut out, mut tags, mut reached) = (Vec::new(), 0u64, Reached::default());
        for _ in 0..g.gen_range(1usize..48) {
            match g.gen_range(0u32..9) {
                0..=2 => {
                    let (index, seq) = key(g);
                    let victim = scan_victim(&e).filter(|_| e.occupied == e.live);
                    let evictions = e.stats.evictions;
                    e.alloc(index, seq, to_fields(&[g.gen_range(0u64..3)]), tags);
                    if e.stats.evictions > evictions {
                        let (_, vi) = victim.expect("an eviction needs a full engine");
                        assert_eq!(e.lanes[vi].as_ref().map(|l| l.tag), Some(tags), "victim");
                    }
                    tags += 1;
                }
                3 => {
                    e.claim(g.gen_range(0..tags + 1), g.gen_range(0u32..2));
                }
                4 => e.cancel(g.gen_range(0..tags + 1)),
                5 => {
                    let events = [msg(0, &[g.gen_range(0u64..3)], &[2])];
                    let events = &events[..g.gen_range(0usize..2)];
                    let min = Some(key(g)).filter(|_| g.gen_bool(0.75));
                    e.tick(events, min, &mut out);
                }
                6 => {
                    e.mask_lane(g.gen_range(0u64..4), &mut out);
                }
                7 => {
                    e.force_min_release(key(g), &mut out);
                }
                _ => {
                    let mut back = RuleEngine::new(decl.clone(), 4);
                    back.load(&e.save()).unwrap();
                    e = back;
                }
            }
            assert_counts(&e);
            let keys: Vec<_> = e
                .order
                .iter()
                .map(|&(index, seq, _)| (index, seq))
                .collect();
            for (i, a) in keys.iter().enumerate() {
                for b in &keys[i + 1..] {
                    reached.shared |= a == b;
                    reached.twins |= a.0.cmp(&b.0).is_eq() && a.0 != b.0;
                }
            }
        }
        reached.evictions = e.stats.evictions;
        reached
    }

    apir_util::props! {
        cases = 256;

        /// The lane index agrees with the scans it replaced after every
        /// lane change, save and load.
        fn lane_index_agrees_with_the_scans_after_every_op(g) {
            random_lane_ops(g);
        }
    }

    #[test]
    fn random_lane_ops_reach_shared_holders_and_depth_twins() {
        let runs: Vec<Reached> = (0..32)
            .map(|s| random_lane_ops(&mut Gen::new(s, 0)))
            .collect();
        assert!(runs.iter().any(|r| r.shared), "{runs:?}");
        assert!(runs.iter().any(|r| r.twins), "{runs:?}");
        assert!(runs.iter().any(|r| r.evictions > 0), "{runs:?}");
    }

    #[test]
    fn derived_counts_follow_every_lane_change_and_load() {
        let decl = RuleDecl::new("r", 0, true);
        let mut e = RuleEngine::new(decl.clone(), 4);
        for i in 0..4u64 {
            let index = IndexTuple::new(&[5 + i]);
            assert_eq!(e.alloc(index, i, to_fields(&[]), i), AllocOutcome::Granted);
            assert_counts(&e);
        }
        assert_eq!(e.stats().peak_lanes, 4);
        // An earlier task evicts the latest holder.
        let early = IndexTuple::new(&[1]);
        assert_eq!(e.alloc(early, 9, to_fields(&[]), 9), AllocOutcome::Granted);
        assert_eq!((e.occupied(), e.stats().evictions), (4, 1));
        assert_counts(&e);
        assert_eq!(
            e.alloc(IndexTuple::new(&[99]), 10, to_fields(&[]), 10),
            AllocOutcome::Nacked
        );
        assert_counts(&e);
        assert_eq!(e.claim(0, 0), ClaimOutcome::Ready(true));
        assert_counts(&e);
        e.cancel(1);
        assert_counts(&e);
        assert_eq!(e.occupied(), 2);
        // Masking lane 2 drains its holder; masking lane 0 drains none.
        let mut out = Vec::new();
        assert_eq!(e.mask_lane(2, &mut out), Some(true));
        assert_counts(&e);
        assert_eq!(e.mask_lane(0, &mut out), Some(false));
        assert_counts(&e);
        assert_eq!((e.occupied(), e.live_lanes()), (1, 2));
        let mut back = RuleEngine::new(decl, 4);
        back.load(&e.save()).unwrap();
        assert_counts(&back);
        assert_eq!((back.occupied(), back.live_lanes()), (1, 2));

        // Releases through `force_min_release` and a fired `otherwise`.
        let mut w = RuleEngine::new(RuleDecl::new_waiting("w", 0, true), 2);
        let (i1, i2) = (IndexTuple::new(&[1]), IndexTuple::new(&[2]));
        assert_eq!(w.alloc(i1, 1, to_fields(&[]), 1), AllocOutcome::Granted);
        assert_eq!(w.alloc(i2, 2, to_fields(&[]), 2), AllocOutcome::Granted);
        assert_eq!(w.claim(1, 3), ClaimOutcome::Wait);
        assert_eq!(w.claim(2, 4), ClaimOutcome::Wait);
        assert!(w.force_min_release((i1, 1), &mut out));
        assert_counts(&w);
        w.tick(&[], Some((i2, 2)), &mut out);
        assert_counts(&w);
        assert_eq!(w.occupied(), 0);
    }

    #[test]
    fn a_loaded_masked_lane_must_be_empty() {
        let decl = RuleDecl::new("r", 0, true);
        let mut e = RuleEngine::new(decl.clone(), 4);
        assert_eq!(
            e.alloc(IndexTuple::new(&[1]), 1, to_fields(&[]), 1),
            AllocOutcome::Granted
        );
        e.masked[0] = true;
        let err = RuleEngine::new(decl, 4).load(&e.save()).unwrap_err();
        assert!(err.contains("a masked lane holds a rule instance"), "{err}");
    }

    #[test]
    fn admission_stall_tells_masked_lanes_from_busy_ones() {
        let mut e = RuleEngine::new(RuleDecl::new("r", 0, true), 4);
        assert_eq!(e.admission_stall(), None);
        for i in 1..=2u64 {
            let g = e.alloc(IndexTuple::new(&[i]), i, to_fields(&[]), i);
            assert_eq!(g, AllocOutcome::Granted);
        }
        assert_eq!(e.admission_stall(), None);
        // Lanes 2 and 3 are free: masking them leaves no free live lane.
        let mut out = Vec::new();
        assert_eq!(e.mask_lane(2, &mut out), Some(false));
        assert_eq!(e.mask_lane(2, &mut out), Some(false));
        assert_eq!(e.admission_stall(), Some(StallCause::LaneMasked));
        let mut full = RuleEngine::new(RuleDecl::new("r", 0, true), 1);
        let g = full.alloc(IndexTuple::new(&[1]), 1, to_fields(&[]), 1);
        assert_eq!(g, AllocOutcome::Granted);
        assert_eq!(full.admission_stall(), Some(StallCause::LaneBusy));
    }

    #[test]
    fn lane_exhaustion_stalls() {
        let decl = RuleDecl::new("r", 0, true);
        let mut e = RuleEngine::new(decl, 1);
        assert_eq!(
            e.alloc(IndexTuple::new(&[1]), 1, to_fields(&[]), 1),
            AllocOutcome::Granted
        );
        assert_eq!(
            e.alloc(IndexTuple::new(&[2]), 2, to_fields(&[]), 2),
            AllocOutcome::Nacked
        );
        assert_eq!(e.stats().alloc_stalls, 1);
        assert_eq!(e.claim(1, 0), ClaimOutcome::Ready(true));
        assert_eq!(
            e.alloc(IndexTuple::new(&[2]), 3, to_fields(&[]), 3),
            AllocOutcome::Granted
        );
    }
}
