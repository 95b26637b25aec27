//! Cross-crate integration for the reduction-family collectives: data
//! correctness for allreduce/reduce across every stack and HAN config, and
//! the paper's qualitative performance relationships.

// Verification loops index several per-rank buffers by rank on purpose.
#![allow(clippy::needless_range_loop)]

use han::colls::stack::build_coll;
use han::mpi::{execute_seeded, BufRange};
use han::prelude::*;

fn as_i32(xs: &[i32]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn from_i32(b: &[u8]) -> Vec<i32> {
    b.chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn check_allreduce(stack: &dyn MpiStack, nodes: usize, ppn: usize, nelem: usize) {
    let preset = mini(nodes, ppn);
    let n = nodes * ppn;
    let bytes = (nelem * 4) as u64;
    let prog = build_coll(stack, &preset, Coll::Allreduce, bytes, 0).expect("allreduce");
    let mut m = Machine::from_preset(&preset);
    let opts = ExecOpts::timing(stack.flavor().p2p());
    let buf = BufRange::new(0, bytes);
    let (_, mem) = execute_seeded(&mut m, &prog, &opts, |mm| {
        for r in 0..n {
            let vals: Vec<i32> = (0..nelem).map(|i| (r * 13 + i) as i32).collect();
            mm.write(r, buf, &as_i32(&vals));
        }
    });
    let expect: Vec<i32> = (0..nelem)
        .map(|i| (0..n).map(|r| (r * 13 + i) as i32).sum())
        .collect();
    for r in 0..n {
        assert_eq!(
            from_i32(mem.read(r, buf)),
            expect,
            "{} rank {r} ({nodes}x{ppn})",
            stack.name()
        );
    }
}

#[test]
fn allreduce_correct_on_all_stacks() {
    // Note: `build_coll` uses Float32 for Allreduce; use a HAN program with
    // explicit Int32 via stacks that take the dtype from the caller —
    // build_coll hardcodes Float32, so the checks here go through stacks
    // whose arithmetic is exact for small ints in f32 too. Use small
    // values so f32 sums stay exact.
    let han = Han::with_config(HanConfig::default().with_fs(64));
    check_allreduce(&han, 3, 3, 16);
    check_allreduce(&TunedOpenMpi, 3, 3, 16);
    check_allreduce(&VendorMpi::cray(), 3, 3, 16);
    check_allreduce(&VendorMpi::intel(), 2, 4, 8);
    check_allreduce(&VendorMpi::mvapich2(), 2, 4, 8);
}

#[test]
fn allreduce_correct_across_han_configs() {
    for (imod, smod, fs) in [
        (InterModule::Libnbc, IntraModule::Sm, 32u64),
        (InterModule::Adapt, IntraModule::Solo, 48),
        (InterModule::Adapt, IntraModule::Sm, 1 << 20),
    ] {
        let cfg = HanConfig {
            fs,
            imod,
            smod,
            ..HanConfig::default()
        };
        check_allreduce(&Han::with_config(cfg), 3, 2, 32);
    }
}

#[test]
fn reduce_gather_scatter_allgather_through_han() {
    use han::colls::stack::BuildCtx;
    let preset = mini(2, 3);
    let n = 6;
    let comm = Comm::world(n);
    let han = Han::with_config(HanConfig::default().with_fs(32));

    // Reduce
    let mut b = ProgramBuilder::new(n);
    let bufs = b.alloc_all(64);
    let mut cx = BuildCtx::new(&mut b, &preset);
    let deps = Frontier::empty(n);
    han.reduce(
        &mut cx,
        &comm,
        4,
        &bufs,
        ReduceOp::Max,
        DataType::Int32,
        &deps,
    )
    .expect("reduce");
    let prog = b.build();
    let mut m = Machine::from_preset(&preset);
    let bufs2 = bufs.clone();
    let (_, mem) = execute_seeded(
        &mut m,
        &prog,
        &ExecOpts::timing(Flavor::OpenMpi.p2p()),
        |mm| {
            for r in 0..n {
                let vals: Vec<i32> = (0..16).map(|i| ((r as i32 * 7 + i) % 31) - 15).collect();
                mm.write(r, bufs2[r], &as_i32(&vals));
            }
        },
    );
    let expect: Vec<i32> = (0..16)
        .map(|i| {
            (0..n)
                .map(|r| ((r as i32 * 7 + i) % 31) - 15)
                .max()
                .unwrap()
        })
        .collect();
    assert_eq!(from_i32(mem.read(4, bufs[4])), expect, "reduce to root 4");

    // Gather + Scatter roundtrip
    let mut b = ProgramBuilder::new(n);
    let src: Vec<BufRange> = (0..n).map(|r| b.alloc(r, 8)).collect();
    let mid = b.alloc(2, 48);
    let dst: Vec<BufRange> = (0..n).map(|r| b.alloc(r, 8)).collect();
    let mut cx = BuildCtx::new(&mut b, &preset);
    let f = han
        .gather(&mut cx, &comm, 2, &src, mid, &Frontier::empty(n))
        .expect("gather");
    han.scatter(&mut cx, &comm, 2, mid, &dst, &f)
        .expect("scatter");
    let prog = b.build();
    let src2 = src.clone();
    let (_, mem) = execute_seeded(
        &mut m,
        &prog,
        &ExecOpts::timing(Flavor::OpenMpi.p2p()),
        |mm| {
            for r in 0..n {
                mm.write(r, src2[r], &[(r * 3) as u8; 8]);
            }
        },
    );
    for r in 0..n {
        assert_eq!(
            mem.read(r, dst[r]),
            &[(r * 3) as u8; 8],
            "roundtrip rank {r}"
        );
    }

    // Allgather
    let block = 8u64;
    let mut b = ProgramBuilder::new(n);
    let bufs = b.alloc_all(block * n as u64);
    let mut cx = BuildCtx::new(&mut b, &preset);
    han.allgather(&mut cx, &comm, &bufs, block, &Frontier::empty(n))
        .expect("allgather");
    let prog = b.build();
    let bufs2 = bufs.clone();
    let (_, mem) = execute_seeded(
        &mut m,
        &prog,
        &ExecOpts::timing(Flavor::OpenMpi.p2p()),
        |mm| {
            for r in 0..n {
                let mine = bufs2[r].slice(r as u64 * block, block);
                mm.write(r, mine, &[(r + 10) as u8; 8]);
            }
        },
    );
    let expect: Vec<u8> = (0..n).flat_map(|r| [(r + 10) as u8; 8]).collect();
    for r in 0..n {
        assert_eq!(
            mem.read(r, bufs[r]),
            expect.as_slice(),
            "allgather rank {r}"
        );
    }
}

#[test]
fn allreduce_small_message_gap_vs_vendors() {
    // Fig. 13/14: HAN loses small-message allreduce to vendor MPIs because
    // its tuner must pick Libnbc/SM (no AVX) there.
    let preset = mini(8, 8);
    let bytes = 8 * 1024;
    let han = Han::with_config(
        HanConfig::default()
            .with_fs(8 * 1024)
            .with_inter(InterModule::Libnbc, InterAlg::Binomial),
    );
    let t_han = time_coll(&han, &preset, Coll::Allreduce, bytes, 0).unwrap();
    let t_cray = time_coll(&VendorMpi::cray(), &preset, Coll::Allreduce, bytes, 0).unwrap();
    assert!(
        t_cray < t_han,
        "small allreduce: cray {t_cray} should beat HAN {t_han}"
    );
}

#[test]
fn allreduce_large_message_han_wins() {
    // HAN is autotuned in the paper; emulate that by taking its best
    // segment size. Fig. 13 reports only up to 1.12x over Cray MPI, so
    // require a win, however slim.
    let preset = mini(8, 8);
    let bytes = 32 << 20;
    let t_han = [512 * 1024u64, 1 << 20, 2 << 20, 4 << 20]
        .into_iter()
        .map(|fs| {
            let han = Han::with_config(
                HanConfig::default()
                    .with_fs(fs)
                    .with_intra(IntraModule::Solo),
            );
            time_coll(&han, &preset, Coll::Allreduce, bytes, 0).unwrap()
        })
        .min()
        .unwrap();
    for v in [VendorMpi::cray(), VendorMpi::intel()] {
        let t = time_coll(&v, &preset, Coll::Allreduce, bytes, 0).unwrap();
        assert!(
            t_han < t,
            "large allreduce: HAN {t_han} should beat {} {t}",
            v.name()
        );
    }
}
