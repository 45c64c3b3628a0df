//! # apir-util
//!
//! The workspace's determinism kit. This environment builds with **no
//! registry access**, so everything that used to come from external crates
//! is provided here, in-tree, with zero dependencies beyond `std`:
//!
//! * [`rng`] — a small seeded PRNG (xoshiro256** seeded via SplitMix64)
//!   with the `gen_range` / `gen_bool` / `shuffle` helpers the workload
//!   generators and harnesses need (replaces `rand::rngs::SmallRng`);
//! * [`prop`] — a minimal property-test harness: seeded case generation,
//!   shrink-by-halving, and failure-seed reporting, driven by the
//!   [`props!`](crate::props) macro (replaces `proptest`);
//! * [`bench`](mod@bench) — a wall-clock benchmark harness with criterion-shaped
//!   `group` / `bench_function` / `iter` surface and a
//!   [`bench_main!`](crate::bench_main) entry macro (replaces `criterion`
//!   for the two `apir-bench` benches);
//! * [`json`] — a deterministic JSON value/writer/parser used by the
//!   observability layer (`FabricReport::to_json`, snapshot documents,
//!   Chrome traces) in place of `serde_json`;
//! * [`jsonl`] — a JSON Lines writer/parser for streamed record output
//!   (the campaign engine's merged `results.jsonl`);
//! * [`snap`] — the [`Snap`] checkpoint codec and the
//!   [`snap_fields!`](crate::snap_fields) macro that derives it from one
//!   field list per struct.
//!
//! Everything here is deterministic: the same seed always yields the same
//! sequence on every platform, which is what makes the experiment results
//! and property-test failures reproducible offline.

pub mod bench;
pub mod json;
pub mod jsonl;
pub mod prop;
pub mod rng;
pub mod snap;

pub use json::Json;
pub use jsonl::JsonlWriter;
pub use prop::Gen;
pub use rng::SmallRng;
pub use snap::Snap;
