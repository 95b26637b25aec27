//! Failure/perturbation injection: imbalanced process arrival.
//!
//! The paper's related work (Parsons & Pai [25]) motivates leader
//! selection under imbalanced process arrival times. Our collectives must
//! stay correct under arbitrary per-rank start skews, and their cost must
//! degrade gracefully (bounded by the skew, since the DAG just waits).

// Verification loops index several per-rank buffers by rank on purpose.
#![allow(clippy::needless_range_loop)]

use han::colls::stack::build_coll;
use han::mpi::{execute, execute_seeded, BufRange};
use han::prelude::*;
use han::sim::SimRng;

fn skewed_starts(n: usize, max_us: u64, seed: u64) -> Vec<Time> {
    let mut rng = SimRng::seeded(seed);
    (0..n).map(|_| Time::from_us(rng.u64(max_us + 1))).collect()
}

#[test]
fn bcast_correct_under_arrival_imbalance() {
    let preset = mini(3, 4);
    let n = 12;
    let han = Han::with_config(HanConfig::default().with_fs(4 * 1024));
    let prog = build_coll(&han, &preset, Coll::Bcast, 50_000, 0).unwrap();
    let mut m = Machine::from_preset(&preset);
    let buf = BufRange::new(0, 50_000);
    let payload: Vec<u8> = (0..50_000u64).map(|i| (i % 241) as u8).collect();
    for seed in [1, 2, 3] {
        let opts = ExecOpts::timing(Flavor::OpenMpi.p2p()).with_skew(skewed_starts(n, 500, seed));
        let (_, mem) = execute_seeded(&mut m, &prog, &opts, |mm| mm.write(0, buf, &payload));
        for r in 0..n {
            assert_eq!(mem.read(r, buf), payload.as_slice(), "seed {seed} rank {r}");
        }
    }
}

#[test]
fn allreduce_correct_under_arrival_imbalance() {
    let preset = mini(2, 3);
    let n = 6;
    let comm = Comm::world(n);
    let han = Han::with_config(HanConfig::default().with_fs(256));
    let mut b = ProgramBuilder::new(n);
    let bufs = b.alloc_all(1024);
    let mut cx = han::colls::stack::BuildCtx::new(&mut b, &preset);
    han.allreduce(
        &mut cx,
        &comm,
        &bufs,
        ReduceOp::Sum,
        DataType::Int32,
        &Frontier::empty(n),
    );
    let prog = b.build();
    let mut m = Machine::from_preset(&preset);
    let opts = ExecOpts::timing(Flavor::OpenMpi.p2p()).with_skew(skewed_starts(n, 1_000, 99));
    let bufs2 = bufs.clone();
    let (_, mem) = execute_seeded(&mut m, &prog, &opts, |mm| {
        for r in 0..n {
            let vals: Vec<u8> = (0..256)
                .flat_map(|i| ((r * 3 + i) as i32).to_le_bytes())
                .collect();
            mm.write(r, bufs2[r], &vals);
        }
    });
    let expect: Vec<u8> = (0..256)
        .flat_map(|i| {
            let s: i32 = (0..n).map(|r| (r * 3 + i) as i32).sum();
            s.to_le_bytes()
        })
        .collect();
    for r in 0..n {
        assert_eq!(mem.read(r, bufs[r]), expect.as_slice(), "rank {r}");
    }
}

#[test]
fn reduce_correct_under_arrival_imbalance() {
    // Rooted reduction under skew: only the root's buffer must hold the
    // final sum, and it must hold it for every skew pattern.
    let preset = mini(2, 3);
    let n = 6;
    let comm = Comm::world(n);
    let han = Han::with_config(HanConfig::default().with_fs(512));
    let mut b = ProgramBuilder::new(n);
    let bufs = b.alloc_all(1024);
    let mut cx = han::colls::stack::BuildCtx::new(&mut b, &preset);
    han.reduce(
        &mut cx,
        &comm,
        0,
        &bufs,
        ReduceOp::Sum,
        DataType::Int32,
        &Frontier::empty(n),
    )
    .unwrap();
    let prog = b.build();
    let mut m = Machine::from_preset(&preset);
    let expect: Vec<u8> = (0..256)
        .flat_map(|i| {
            let s: i32 = (0..n).map(|r| (r * 5 + i) as i32).sum();
            s.to_le_bytes()
        })
        .collect();
    for seed in [11, 12, 13] {
        let opts = ExecOpts::timing(Flavor::OpenMpi.p2p()).with_skew(skewed_starts(n, 800, seed));
        let bufs2 = bufs.clone();
        let (_, mem) = execute_seeded(&mut m, &prog, &opts, |mm| {
            for r in 0..n {
                let vals: Vec<u8> = (0..256)
                    .flat_map(|i| ((r * 5 + i) as i32).to_le_bytes())
                    .collect();
                mm.write(r, bufs2[r], &vals);
            }
        });
        assert_eq!(mem.read(0, bufs[0]), expect.as_slice(), "seed {seed}");
    }
}

#[test]
fn barrier_waits_for_last_arrival_under_skew() {
    // A barrier's makespan is lower-bounded by the latest arrival (no rank
    // leaves before everyone entered) and degrades by at most the skew
    // plus a small multiple of the balanced cost — delayed ranks reshuffle
    // rendezvous handshakes on shared links, so the ideal additive bound
    // picks up protocol-level slack, but never a blowup.
    let preset = mini(2, 3);
    let n = 6;
    let comm = Comm::world(n);
    let han = Han::with_config(HanConfig::default());
    let mut b = ProgramBuilder::new(n);
    let mut cx = han::colls::stack::BuildCtx::new(&mut b, &preset);
    han.barrier(&mut cx, &comm, &Frontier::empty(n)).unwrap();
    let prog = b.build();
    let mut m = Machine::from_preset(&preset);
    let opts = ExecOpts::timing(Flavor::OpenMpi.p2p());
    let balanced = execute(&mut m, &prog, &opts).makespan;
    for seed in [21, 22, 23] {
        let skews = skewed_starts(n, 1_500, seed);
        let latest = *skews.iter().max().unwrap();
        let skewed = execute(&mut m, &prog, &opts.clone().with_skew(skews)).makespan;
        assert!(
            skewed >= latest,
            "seed {seed}: barrier finished at {skewed} before the last arrival {latest}"
        );
        let bound = latest + Time::from_ps(10 * balanced.as_ps());
        assert!(
            skewed <= bound,
            "seed {seed}: skewed barrier {skewed} exceeds skew {latest} + 10x balanced {balanced}"
        );
    }
}

#[test]
fn skew_degrades_cost_boundedly() {
    // Makespan under skew is at most (balanced makespan + max skew): the
    // DAG only ever waits for late ranks, it never livelocks.
    let preset = mini(3, 3);
    let han = Han::with_config(HanConfig::default().with_fs(64 * 1024));
    let prog = build_coll(&han, &preset, Coll::Bcast, 1 << 20, 0).unwrap();
    let mut m = Machine::from_preset(&preset);
    let opts = ExecOpts::timing(Flavor::OpenMpi.p2p());
    let balanced = execute(&mut m, &prog, &opts).makespan;
    let max_skew = Time::from_ms(2);
    let skews = skewed_starts(9, 2_000, 7);
    let skewed = execute(&mut m, &prog, &opts.clone().with_skew(skews.clone())).makespan;
    assert!(skewed >= *skews.iter().max().unwrap());
    assert!(
        skewed <= balanced + max_skew,
        "skewed {skewed} must be bounded by balanced {balanced} + skew {max_skew}"
    );
}

#[test]
fn late_root_delays_everyone() {
    // If the broadcast root arrives late, everyone waits; if a leaf is
    // late, only its own completion suffers — the asymmetry the paper's
    // dynamic-leader related work exploits.
    let preset = mini(3, 2);
    let n = 6;
    let han = Han::with_config(HanConfig::default().with_fs(16 * 1024));
    let prog = build_coll(&han, &preset, Coll::Bcast, 256 * 1024, 0).unwrap();
    let mut m = Machine::from_preset(&preset);
    let opts = ExecOpts::timing(Flavor::OpenMpi.p2p());

    let mut root_late = vec![Time::ZERO; n];
    root_late[0] = Time::from_ms(5);
    let t_root_late = execute(&mut m, &prog, &opts.clone().with_skew(root_late)).makespan;

    let mut leaf_late = vec![Time::ZERO; n];
    leaf_late[5] = Time::from_ms(5);
    let t_leaf_late = execute(&mut m, &prog, &opts.clone().with_skew(leaf_late)).makespan;

    assert!(t_root_late >= Time::from_ms(5));
    assert!(
        t_leaf_late < t_root_late,
        "a late leaf ({t_leaf_late}) must hurt less than a late root ({t_root_late})"
    );
}
