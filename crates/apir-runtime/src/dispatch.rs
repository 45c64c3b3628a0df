//! Work-stealing job dispatch with deterministic, in-order result
//! delivery — the execution core of the campaign engine (`apir-campaign`).
//!
//! A campaign expands into `n` independent jobs whose durations vary
//! wildly (a quiescent tiny run vs. a chaos campaign that rides the
//! watchdog), so static chunking leaves threads idle. [`run_ordered`]
//! instead gives each worker a private deque of job indices (dealt
//! round-robin, ascending) and lets idle workers *steal* from the back
//! of a victim's deque — the classic work-stealing shape, hand-rolled on
//! `std` mutexes because the workspace builds with zero external crates.
//!
//! Results flow through a **bounded reorder buffer**: workers block once
//! they run more than `cap` results ahead of the slowest job, and a
//! dedicated drain thread hands results to the caller's `sink` strictly
//! in index order. Two consequences fall out of that design:
//!
//! * **determinism** — the sink sees `0, 1, 2, … n-1` regardless of the
//!   thread count or the steal schedule, so an 8-thread campaign writes
//!   byte-identical output to a 1-thread campaign;
//! * **bounded memory** — at most `cap` completed-but-undelivered
//!   results exist at any instant, no matter how lopsided job durations
//!   are (property-tested in `tests/campaign_props.rs`).
//!
//! A panicking job never takes the fleet down: the worker catches the
//! unwind and delivers `Err(message)` for that index, and every other
//! job still runs exactly once.
//!
//! ## Why the buffer cannot deadlock
//!
//! Indices are dealt round-robin ascending, workers pop their own deque
//! front-first, and thieves take from the *back*. Let `m` be the lowest
//! index not yet pushed into the buffer. If `m` is executing or being
//! pushed, its push cannot block (`m < m + cap`). Otherwise `m` sits at
//! the *front* of its owner's deque (fronts hold each deque's minimum,
//! and steals only remove maxima); its owner cannot be blocked pushing
//! some `j ≥ m + cap`, because a worker whose own deque is non-empty has
//! never stolen, pops ascending, and therefore only ever pushes indices
//! below its own front. So the holder of `m` always makes progress, the
//! drain advances, and blocked pushers wake.

use apir_util::prop::panic_message;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;

/// What [`run_ordered`] observed while draining the fleet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Jobs delivered to the sink (always `n` on return).
    pub jobs: usize,
    /// Jobs whose closure panicked (delivered as `Err`).
    pub panics: usize,
    /// Steals performed by idle workers.
    pub steals: usize,
    /// Peak completed-but-undelivered results held in the reorder
    /// buffer; never exceeds the configured `cap`.
    pub peak_inflight: usize,
}

/// The bounded reorder buffer between workers and the drain thread.
struct Reorder<T> {
    state: Mutex<ReorderState<T>>,
    /// Workers wait here for headroom (`index < next + cap`).
    space: Condvar,
    /// The drain waits here for the next in-order result.
    ready: Condvar,
    cap: usize,
}

struct ReorderState<T> {
    /// Next index owed to the sink.
    next: usize,
    /// Completed results awaiting delivery, keyed by index.
    slots: BTreeMap<usize, Result<T, String>>,
    /// High-water mark of `slots.len()`.
    peak: usize,
}

impl<T> Reorder<T> {
    fn new(cap: usize) -> Self {
        Reorder {
            state: Mutex::new(ReorderState {
                next: 0,
                slots: BTreeMap::new(),
                peak: 0,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Parks until `index` fits the window, then deposits the result.
    fn push(&self, index: usize, value: Result<T, String>) {
        let mut st = self.state.lock().expect("reorder poisoned");
        while index >= st.next + self.cap {
            st = self.space.wait(st).expect("reorder poisoned");
        }
        st.slots.insert(index, value);
        st.peak = st.peak.max(st.slots.len());
        self.ready.notify_one();
    }

    /// Blocks until result `index` is present and removes it.
    fn take(&self, index: usize) -> Result<T, String> {
        let mut st = self.state.lock().expect("reorder poisoned");
        loop {
            if let Some(v) = st.slots.remove(&index) {
                st.next = index + 1;
                self.space.notify_all();
                return v;
            }
            st = self.ready.wait(st).expect("reorder poisoned");
        }
    }

    fn peak(&self) -> usize {
        self.state.lock().expect("reorder poisoned").peak
    }
}

/// Runs jobs `0..n` across `threads` work-stealing workers and delivers
/// each result to `sink` **in index order**, holding at most `cap`
/// completed-but-undelivered results at any instant.
///
/// `job(i)` runs on an arbitrary worker; a panic inside it is caught and
/// delivered as `Err(message)` (the rest of the fleet is unaffected).
/// `sink(i, result)` runs on a single drain thread, strictly at
/// `i = 0, 1, …, n-1` — so anything the sink writes is byte-identical
/// across thread counts and steal schedules.
///
/// `threads` and `cap` are clamped to at least 1. With `threads == 1`
/// the call degrades to a plain in-order loop (no spawns, no buffer).
///
/// # Panics
///
/// Propagates panics from `sink` (not from `job` — those are captured).
pub fn run_ordered<T, J, S>(
    n: usize,
    threads: usize,
    cap: usize,
    job: J,
    mut sink: S,
) -> DispatchStats
where
    T: Send,
    J: Fn(usize) -> T + Sync,
    S: FnMut(usize, Result<T, String>) + Send,
{
    let threads = threads.max(1).min(n.max(1));
    let cap = cap.max(1);
    let mut stats = DispatchStats {
        jobs: n,
        ..DispatchStats::default()
    };
    if n == 0 {
        return stats;
    }
    if threads == 1 {
        for i in 0..n {
            let r = catch_unwind(AssertUnwindSafe(|| job(i))).map_err(|p| panic_message(&*p));
            if r.is_err() {
                stats.panics += 1;
            }
            sink(i, r);
        }
        stats.peak_inflight = 1;
        return stats;
    }

    // Deal indices round-robin so every deque is ascending and fronts
    // hold minima (see the module docs for why that precludes deadlock).
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|t| Mutex::new((t..n).step_by(threads).collect()))
        .collect();
    let buffer: Reorder<T> = Reorder::new(cap);
    let steals = AtomicUsize::new(0);
    let panics = AtomicUsize::new(0);

    thread::scope(|s| {
        for t in 0..threads {
            let deques = &deques;
            let buffer = &buffer;
            let steals = &steals;
            let panics = &panics;
            let job = &job;
            s.spawn(move || loop {
                // Own work first (front = this deque's minimum index)…
                let mut next = deques[t].lock().expect("deque poisoned").pop_front();
                // …then steal the *maximum* of the first non-empty
                // victim, scanning round-robin from our right neighbor.
                if next.is_none() {
                    for v in 1..threads {
                        let victim = (t + v) % threads;
                        if let Some(i) = deques[victim].lock().expect("deque poisoned").pop_back() {
                            steals.fetch_add(1, Ordering::Relaxed);
                            next = Some(i);
                            break;
                        }
                    }
                }
                // No queued work anywhere and jobs never spawn jobs:
                // this worker is done for good.
                let Some(i) = next else { break };
                let r = catch_unwind(AssertUnwindSafe(|| job(i))).map_err(|p| panic_message(&*p));
                if r.is_err() {
                    panics.fetch_add(1, Ordering::Relaxed);
                }
                buffer.push(i, r);
            });
        }
        // Drain on the caller-facing thread of the scope: strictly
        // in-order delivery, independent of completion order.
        let buffer = &buffer;
        let sink = &mut sink;
        s.spawn(move || {
            for i in 0..n {
                sink(i, buffer.take(i));
            }
        });
    });

    stats.steals = steals.load(Ordering::Relaxed);
    stats.panics = panics.load(Ordering::Relaxed);
    stats.peak_inflight = buffer.peak();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn delivers_all_results_in_order() {
        for threads in [1, 2, 4, 7] {
            let mut seen = Vec::new();
            let stats = run_ordered(
                25,
                threads,
                3,
                |i| i * 10,
                |i, r| seen.push((i, r.unwrap())),
            );
            assert_eq!(stats.jobs, 25);
            assert_eq!(stats.panics, 0);
            assert!(stats.peak_inflight <= 3, "threads={threads}");
            let want: Vec<(usize, usize)> = (0..25).map(|i| (i, i * 10)).collect();
            assert_eq!(seen, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_jobs_is_a_no_op() {
        let stats = run_ordered(0, 8, 4, |i| i, |_, _| panic!("no jobs to sink"));
        assert_eq!(
            stats,
            DispatchStats {
                jobs: 0,
                ..DispatchStats::default()
            }
        );
    }

    #[test]
    fn panicking_jobs_become_errors_without_stopping_the_fleet() {
        let ran: Vec<AtomicU64> = (0..30).map(|_| AtomicU64::new(0)).collect();
        let mut errs = Vec::new();
        let stats = run_ordered(
            30,
            4,
            2,
            |i| {
                ran[i].fetch_add(1, Ordering::Relaxed);
                if i % 7 == 3 {
                    panic!("job {i} exploded");
                }
                i
            },
            |i, r| {
                if let Err(msg) = r {
                    errs.push((i, msg));
                }
            },
        );
        assert!(ran.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.panics, errs.len());
        let idx: Vec<usize> = errs.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![3, 10, 17, 24]);
        assert!(errs.iter().all(|(i, m)| *m == format!("job {i} exploded")));
    }

    #[test]
    fn uneven_jobs_get_stolen() {
        // Worker 0's round-robin share carries almost all the work; with
        // enough jobs the idle workers must steal some of it.
        let stats = run_ordered(
            64,
            4,
            8,
            |i| {
                if i % 4 == 0 {
                    // The "slow" class: burn a little time.
                    let mut x = 0u64;
                    for k in 0..40_000u64 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(x);
                }
                i
            },
            |_, r| {
                r.unwrap();
            },
        );
        assert_eq!(stats.jobs, 64);
        assert!(stats.peak_inflight <= 8);
    }

    #[test]
    fn single_thread_matches_multi_thread_delivery() {
        let collect = |threads: usize| {
            let mut lines = String::new();
            run_ordered(
                17,
                threads,
                2,
                |i| {
                    if i == 9 {
                        panic!("nine");
                    }
                    format!("r{i}")
                },
                |i, r| {
                    lines.push_str(&match r {
                        Ok(v) => format!("{i}:{v}\n"),
                        Err(e) => format!("{i}:ERR {e}\n"),
                    });
                },
            );
            lines
        };
        let a = collect(1);
        for threads in [2, 3, 8] {
            assert_eq!(a, collect(threads), "threads={threads}");
        }
    }
}
