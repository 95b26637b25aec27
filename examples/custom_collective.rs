//! Building a custom collective from HAN's task machinery.
//!
//! The paper's pitch is that hierarchical collectives are *compositions of
//! tasks over submodules*. This example composes a "reduce-then-broadcast
//! to a different root" operation (an allreduce variant MPI does not
//! provide) directly from the public frontier-based builders, runs it with
//! real payloads, and verifies the arithmetic.
//!
//! ```text
//! cargo run --release --example custom_collective
//! ```

// Verification loops index several per-rank buffers by rank on purpose.
#![allow(clippy::needless_range_loop)]

use han::colls::stack::BuildCtx;
use han::core::allreduce::build_reduce;
use han::core::bcast::build_bcast;
use han::prelude::*;

fn main() {
    let preset = mini(3, 3);
    let n = preset.topology.world_size();
    let comm = Comm::world(n);
    let cfg = HanConfig::default().with_fs(64);

    // Program: reduce everything to rank 1, then broadcast from rank 7.
    let bytes = 256u64;
    let mut b = ProgramBuilder::new(n);
    let bufs = b.alloc_all(bytes);
    let mut cx = BuildCtx::new(&mut b, &preset);
    let deps = Frontier::empty(n);
    let after_reduce = build_reduce(
        &mut cx,
        &cfg,
        &comm,
        1,
        &bufs,
        ReduceOp::Sum,
        DataType::Int32,
        &deps,
    );
    // Move the reduction result from rank 1 to the new root 7, then fan out.
    let (snd, rcv) = cx.b.send_recv(
        1,
        7,
        bufs[1],
        bufs[7],
        after_reduce.get(1),
        after_reduce.get(7),
    );
    let mut mid = after_reduce.clone();
    mid.set(1, &[snd]);
    mid.set(7, &[rcv]);
    build_bcast(&mut cx, &cfg, &comm, 7, &bufs, &mid);
    let prog = b.build();
    println!("program: {} ops over {} ranks", prog.len(), n);

    // Run with real data: every rank contributes (rank+1) per element.
    let mut machine = Machine::from_preset(&preset);
    let opts = ExecOpts::timing(Flavor::OpenMpi.p2p());
    let bufs2 = bufs.clone();
    let (report, mem) = han::mpi::execute_seeded(&mut machine, &prog, &opts, |mm| {
        for r in 0..n {
            let vals: Vec<u8> = (0..bytes / 4)
                .flat_map(|_| ((r + 1) as i32).to_le_bytes())
                .collect();
            mm.write(r, bufs2[r], &vals);
        }
    });

    let expect = (n * (n + 1) / 2) as i32;
    for r in 0..n {
        let out = mem.read(r, bufs[r]);
        assert!(out
            .chunks_exact(4)
            .all(|c| i32::from_le_bytes(c.try_into().unwrap()) == expect));
    }
    println!("every rank holds the sum {expect} — custom collective verified");
    println!("virtual completion time: {}", report.makespan);
}
