//! Minimal property-based testing: seeded case generation,
//! shrink-by-halving, and failing-seed reporting.
//!
//! A property is a closure over a [`Gen`]; [`check`] runs it for a fixed
//! number of deterministically seeded cases. On failure the harness
//! *shrinks by halving*: it re-runs the failing case with the generator's
//! offset-from-range-start halved 1, 2, 3… times (so lengths shrink
//! toward their minimum and values toward their range start) and reports
//! the most-shrunk case that still fails, together with the seed and an
//! environment-variable recipe to replay exactly that case:
//!
//! ```text
//! property `fifo_preserves_order` failed (case 17, seed 0x..., shrink shift 3): ...
//! reproduce with: APIR_PROP_SEED=0x... APIR_PROP_SHIFT=3 cargo test fifo_preserves_order
//! ```
//!
//! The [`props!`](crate::props) macro wraps properties into `#[test]`
//! functions:
//!
//! ```
//! apir_util::props! {
//!     cases = 64;
//!
//!     fn addition_commutes(g) {
//!         let a = g.gen_range(0u64..1000);
//!         let b = g.gen_range(0u64..1000);
//!         assert_eq!(a + b, b + a);
//!     }
//! }
//! # fn main() {}
//! ```

use crate::rng::{splitmix64, SampleRange, SmallRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fixed master seed: CI runs are deterministic; perturb locally with
/// `APIR_PROP_SEED` if you want fresh cases.
const MASTER_SEED: u64 = 0x0A91_12D0_5EED_CA5E;

/// Maximum shrink shift tried after a failure (offset halvings).
const MAX_SHIFT: u32 = 16;

/// Per-case value source handed to properties.
pub struct Gen {
    rng: SmallRng,
    shift: u32,
}

impl Gen {
    /// A generator for one case: `seed` picks the sequence, `shift` is
    /// the shrink level (0 = unshrunk).
    pub fn new(seed: u64, shift: u32) -> Self {
        Gen {
            rng: SmallRng::seed_from_u64(seed),
            shift,
        }
    }

    /// Draws from a range; under shrinking the value is pulled toward
    /// the range start.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_with(&mut self.rng, self.shift)
    }

    /// Bernoulli draw (not shrunk).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// A vector whose length is drawn from `len` (shrinks toward the
    /// minimum length) and whose elements come from `f`.
    pub fn vec<T, R, F>(&mut self, len: R, mut f: F) -> Vec<T>
    where
        R: SampleRange<usize>,
        F: FnMut(&mut Gen) -> T,
    {
        let n = self.gen_range(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// Escape hatch to the raw (unshrunk) generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// The message of a caught panic: its payload when that is a string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn parse_u64(s: &str) -> u64 {
    let t = s.trim();
    let parsed = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        t.parse()
    };
    parsed.unwrap_or_else(|_| panic!("cannot parse `{s}` as a seed"))
}

/// Runs `property` for `cases` deterministically seeded cases.
///
/// Honors `APIR_PROP_SEED` (decimal or `0x…` hex) to replay a single
/// reported case, with `APIR_PROP_SHIFT` selecting the shrink level.
///
/// # Panics
///
/// Panics (failing the enclosing test) on the first failing case, after
/// shrinking, with the seed/shift replay recipe in the message.
pub fn check<F>(name: &str, cases: u64, property: F)
where
    F: Fn(&mut Gen),
{
    if let Ok(seed) = std::env::var("APIR_PROP_SEED") {
        let seed = parse_u64(&seed);
        let shift = std::env::var("APIR_PROP_SHIFT")
            .map(|s| parse_u64(&s) as u32)
            .unwrap_or(0);
        property(&mut Gen::new(seed, shift));
        return;
    }
    let mut master = MASTER_SEED;
    for case in 0..cases {
        let seed = splitmix64(&mut master);
        let run =
            |shift: u32| catch_unwind(AssertUnwindSafe(|| property(&mut Gen::new(seed, shift))));
        if let Err(payload) = run(0) {
            // Shrink by halving until the property stops failing.
            let mut best_shift = 0;
            let mut best_payload = payload;
            for shift in 1..=MAX_SHIFT {
                match run(shift) {
                    Err(p) => {
                        best_shift = shift;
                        best_payload = p;
                    }
                    Ok(()) => break,
                }
            }
            panic!(
                "property `{name}` failed (case {case}, seed {seed:#018x}, \
                 shrink shift {best_shift}): {msg}\n\
                 reproduce with: APIR_PROP_SEED={seed:#x} \
                 APIR_PROP_SHIFT={best_shift} cargo test {name}",
                msg = panic_message(&*best_payload),
            );
        }
    }
}

/// Declares `#[test]` property functions sharing a case count.
///
/// Each `fn name(g) { … }` becomes a test that calls
/// [`check`](crate::prop::check) with `g: &mut Gen` bound inside the
/// body. See the [module docs](crate::prop) for an example.
#[macro_export]
macro_rules! props {
    (cases = $cases:expr; $( $(#[$attr:meta])* fn $name:ident($g:ident) $body:block )* ) => {
        $(
            $(#[$attr])*
            #[test]
            fn $name() {
                $crate::prop::check(
                    stringify!($name),
                    $cases,
                    |$g: &mut $crate::prop::Gen| $body,
                );
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0;
        check("always_ok", 32, |g| {
            let _ = g.gen_range(0u64..10);
        });
        // `check` takes Fn, so count via a second run with interior mutability.
        let counter = std::cell::Cell::new(0u64);
        check("counts", 32, |_| counter.set(counter.get() + 1));
        count += counter.get();
        assert_eq!(count, 32);
    }

    #[test]
    fn failure_reports_seed_and_replay_recipe() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("doomed", 8, |g| {
                let v = g.gen_range(0u64..100);
                assert!(v > 1_000, "forced failure, drew {v}");
            });
        }));
        let msg = panic_message(&*result.unwrap_err());
        assert!(msg.contains("property `doomed` failed"), "{msg}");
        assert!(msg.contains("seed 0x"), "{msg}");
        assert!(msg.contains("APIR_PROP_SEED=0x"), "{msg}");
        assert!(msg.contains("APIR_PROP_SHIFT="), "{msg}");
        assert!(msg.contains("forced failure"), "{msg}");
    }

    #[test]
    fn failure_is_deterministic_across_runs() {
        let fail_msg = |_: ()| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                check("det", 16, |g| {
                    let v = g.gen_range(0u64..u64::MAX);
                    assert!(v % 2 == 0, "odd {v}");
                });
            }));
            panic_message(&*result.unwrap_err())
        };
        assert_eq!(fail_msg(()), fail_msg(()));
    }

    #[test]
    fn shrinking_reduces_vec_lengths() {
        // Fails whenever the vec is non-empty; the shrinker should land on
        // a high shift (small lengths) yet still report a failing case
        // (min length 1 keeps it failing at every shift).
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("nonempty", 4, |g| {
                let v = g.vec(1usize..50, |g| g.gen_range(0u64..10));
                assert!(v.is_empty(), "len {}", v.len());
            });
        }));
        let msg = panic_message(&*result.unwrap_err());
        assert!(msg.contains(&format!("shrink shift {MAX_SHIFT}")), "{msg}");
        // At the max shift the length has collapsed to the minimum.
        assert!(msg.contains("len 1"), "{msg}");
    }

    props! {
        cases = 16;

        /// The macro wires doc-comments and the harness correctly.
        fn macro_generates_runnable_tests(g) {
            let xs = g.vec(0usize..8, |g| g.gen_range(0u32..100));
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            assert_eq!(sorted.len(), xs.len());
        }
    }
}
