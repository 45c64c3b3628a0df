//! Host-speed reference: a fixed kernel timed beside the measured work.
//!
//! On a shared host the same simulation can take 50% longer from one
//! minute to the next, in CPU time as much as in wall time, so neither
//! clock alone gives a steady figure. The benchmark therefore times this
//! kernel, which is its own code and never changes, next to every
//! measured pass, and reports host times *scaled to a reference host
//! speed*: measured seconds × [`REF_S`] ÷ the kernel's measured seconds.
//! A slower simulator raises the scaled time; a slower host raises both
//! the measured time and the kernel's, and cancels out.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::Mutex;
use std::time::Instant;

/// Host seconds one kernel run takes at the reference host speed: a
/// fixed constant, near the 15–25 ms the kernel took on a shared 2-core
/// 2.1 GHz Xeon VM. Scaled times are the host times of a host that runs
/// the kernel in exactly this long.
pub const REF_S: f64 = 0.025;

/// Runs the kernel once and returns its host seconds.
pub fn reference_s() -> f64 {
    // The kernel's buffers are allocated once and reused, so timing the
    // kernel adds a fixed amount to the process's peak resident set and
    // never fragments the workload's heap.
    static KERNEL: Mutex<Option<Kernel>> = Mutex::new(None);
    let mut kernel = KERNEL.lock().expect("the reference kernel does not panic");
    kernel.get_or_insert_with(Kernel::new).timed_run()
}

/// The reference kernel: a toy event loop doing the kinds of host work
/// the simulator's tick loop does — hash-map updates, a ring of queues,
/// and random reads and writes over a 2 MiB table.
struct Kernel {
    table: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    queues: Vec<VecDeque<u64>>,
}

/// Steps of one kernel run.
const STEPS: u64 = 200_000;

impl Kernel {
    fn new() -> Kernel {
        let mut k = Kernel {
            table: vec![0; 1 << 18],
            map: HashMap::default(),
            queues: (0..16).map(|_| VecDeque::new()).collect(),
        };
        k.run(STEPS);
        k
    }

    fn timed_run(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.run(std::hint::black_box(STEPS)));
        t.elapsed().as_secs_f64()
    }

    /// One run from a reset state; the result depends only on `steps`.
    fn run(&mut self, steps: u64) -> u64 {
        for (i, v) in self.table.iter_mut().enumerate() {
            *v = (i as u64).wrapping_mul(0x9e37_79b9);
        }
        self.map.clear();
        for q in &mut self.queues {
            q.clear();
        }
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut acc = 0u64;
        for i in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (self.table.len() - 1);
            let v = self.table[slot];
            let q = &mut self.queues[(v % 16) as usize];
            if v & 3 == 0 || q.is_empty() {
                q.push_back(v ^ i);
            } else if let Some(front) = q.pop_front() {
                acc = acc.wrapping_add(front);
            }
            *self.map.entry(v & 0xffff).or_insert(0) += 1;
            if let Some(c) = self.map.get(&(x & 0xffff)) {
                acc = acc.wrapping_add(*c);
            }
            self.table[slot] = v.wrapping_add(acc);
        }
        acc ^ self.map.len() as u64
    }
}

/// Scales the ops of one measured interval: the kernel is timed before
/// the first op and after every op, and each op's host seconds are
/// scaled by the mean of the two timings around it.
pub struct Meter {
    /// The latest kernel timing, and when it ended.
    last_s: f64,
    since: Instant,
    host_s: f64,
    /// Σ op seconds ÷ mean kernel seconds around the op.
    kernels: f64,
}

impl Meter {
    /// Starts an interval with one kernel timing.
    pub fn start() -> Meter {
        Meter {
            last_s: reference_s(),
            since: Instant::now(),
            host_s: 0.0,
            kernels: 0.0,
        }
    }

    /// Records an op that took `host_s` seconds since the previous kernel
    /// timing, then times the kernel again.
    pub fn op(&mut self, host_s: f64) {
        let now_s = reference_s();
        self.record(host_s, now_s);
        self.since = Instant::now();
    }

    /// [`Meter::op`] for everything since the previous kernel timing.
    pub fn lap(&mut self) {
        self.op(self.since.elapsed().as_secs_f64());
    }

    /// The recorded ops' host seconds, scaled.
    pub fn scaled_s(&self) -> f64 {
        REF_S * self.kernels
    }

    fn record(&mut self, host_s: f64, now_s: f64) {
        self.host_s += host_s;
        self.kernels += host_s / ((self.last_s + now_s) / 2.0);
        self.last_s = now_s;
    }

    /// Factor that turns the interval's host seconds into reference-speed
    /// seconds.
    pub fn scale(&self) -> f64 {
        if self.host_s > 0.0 {
            REF_S * self.kernels / self.host_s
        } else {
            REF_S / self.last_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut k = Kernel::new();
        let first = k.run(1_000);
        assert_eq!(k.run(1_000), first);
        assert_eq!(Kernel::new().run(1_000), first);
    }

    #[test]
    fn each_op_is_scaled_by_the_timings_around_it() {
        let mut m = Meter {
            last_s: 0.02,
            since: Instant::now(),
            host_s: 0.0,
            kernels: 0.0,
        };
        m.record(1.0, 0.03);
        m.record(3.0, 0.03);
        // 1 s at a mean kernel time of 25 ms, then 3 s at 30 ms.
        let kernels = 1.0 / 0.025 + 3.0 / 0.03;
        assert!((m.scale() - REF_S * kernels / 4.0).abs() < 1e-12);
    }
}
