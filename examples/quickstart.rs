//! Quickstart: specify a tiny irregular application as tasks + rules,
//! debug it on the sequential interpreter and the software runtime, then
//! synthesize and run the simulated FPGA accelerator.
//!
//! Run with: `cargo run --example quickstart`

use apir::core::interp::SeqInterp;
use apir::core::op::AluOp;
use apir::core::spec::{Spec, TaskSetKind};
use apir::core::{MemAccess, ProgramInput};
use apir::fabric::FabricConfig;
use apir::runtime::{ParConfig, ParRunner};
use apir::synth::flow::{synthesize, SynthesisTarget};

fn main() {
    // 1. Specify: tasks that chase a linked list in memory, summing the
    //    payloads — a classic statically unpredictable access pattern.
    //    Each task loads node payload + next pointer and recirculates
    //    until it hits the null sentinel.
    let mut spec = Spec::new("list-sum");
    let nodes = spec.region("nodes", 256); // [payload, next] pairs
    let sums = spec.region("sums", 8);
    let walk = spec.task_set("walk", TaskSetKind::ForEach, 1, &["node", "acc", "out"]);
    let mut b = spec.body(walk);
    let node = b.field(0);
    let acc = b.field(1);
    let out = b.field(2);
    let two = b.konst(2);
    let off = b.alu(AluOp::Mul, node, two);
    let payload = b.load(nodes, off);
    let one = b.konst(1);
    let noff = b.alu(AluOp::Add, off, one);
    let next = b.load(nodes, noff);
    let acc2 = b.alu(AluOp::Add, acc, payload);
    let nil = b.konst(u64::MAX);
    let zero = b.konst(0);
    let done = b.alu(AluOp::Eq, next, nil);
    let more = b.alu(AluOp::Eq, done, zero);
    b.requeue(&[next, acc2, out], Some(more));
    b.store(
        sums,
        out,
        acc2,
        apir::core::op::StoreKind::Plain,
        Some(done),
    );
    b.finish();
    let spec = spec.build().expect("spec validates");

    // 2. Seed: two linked lists through the same node pool.
    let mut input = ProgramInput::new(&spec);
    // List A: 0 -> 2 -> 4 (payloads 10, 20, 30).
    for (i, (p, n)) in [(10u64, 2u64), (0, 0), (20, 4), (0, 0), (30, u64::MAX)]
        .iter()
        .enumerate()
    {
        input
            .mem
            .fill(apir::core::spec::RegionId(0), 2 * i, &[*p, *n]);
    }
    // List B: 1 -> 3 (payloads 7, 8).
    input.mem.fill(apir::core::spec::RegionId(0), 2, &[7, 3]);
    input
        .mem
        .fill(apir::core::spec::RegionId(0), 2 * 3, &[8, u64::MAX]);
    input.seed(&spec, walk, &[0, 0, 0]); // list A into sums[0]
    input.seed(&spec, walk, &[1, 0, 1]); // list B into sums[1]

    // 3. Golden model: sequential execution (Definition 4.3).
    let seq = SeqInterp::run(&spec, &input).expect("sequential run");
    println!(
        "sequential:   sums = [{}, {}]",
        seq.mem.read(sums, 0),
        seq.mem.read(sums, 1)
    );

    // 4. Software debugging runtime (round-based speculation).
    let par = ParRunner::run(&spec, &input, ParConfig::default()).expect("software runtime");
    println!(
        "sw runtime:   sums = [{}, {}]  (rounds: {}, aborts: {})",
        par.mem.read(sums, 0),
        par.mem.read(sums, 1),
        par.rounds,
        par.aborts
    );

    // 5. Synthesize an accelerator and run the cycle-level model.
    let design = synthesize(&spec, FabricConfig::default(), SynthesisTarget::default());
    println!(
        "synthesized:  {} pipelines/set, {} registers ({}% of Stratix V)",
        design.cfg.pipelines_per_set,
        design.resources.total_registers(),
        (design.resources.total_registers() * 100) / apir::fabric::StratixV::REGISTERS
    );
    let report = design.run(&spec, &input).expect("fabric run");
    println!(
        "accelerator:  sums = [{}, {}]  in {} cycles ({:.2} us at 200 MHz)",
        report.mem_image.read(sums, 0),
        report.mem_image.read(sums, 1),
        report.cycles,
        report.seconds * 1e6
    );
    assert!(
        report.mem_image.diff(&seq.mem, 1).is_empty(),
        "engines agree"
    );
    println!("all three engines agree.");
}
