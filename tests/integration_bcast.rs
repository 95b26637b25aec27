//! Cross-crate integration: every MPI stack's broadcast delivers correct
//! data on every machine shape, and the performance relationships the
//! paper reports hold at mini scale.

use han::colls::stack::build_coll;
use han::mpi::{execute_seeded, BufRange};
use han::prelude::*;

fn check_bcast_delivery(stack: &dyn MpiStack, nodes: usize, ppn: usize, bytes: u64, root: usize) {
    let preset = mini(nodes, ppn);
    let n = nodes * ppn;
    let prog = build_coll(stack, &preset, Coll::Bcast, bytes, root).expect("bcast");
    let mut m = Machine::from_preset(&preset);
    let opts = ExecOpts::timing(stack.flavor().p2p());
    let buf = BufRange::new(0, bytes);
    let payload: Vec<u8> = (0..bytes).map(|i| (i * 7 % 255) as u8).collect();
    let (report, mem) = execute_seeded(&mut m, &prog, &opts, |mm| mm.write(root, buf, &payload));
    assert!(report.makespan > Time::ZERO);
    for r in 0..n {
        assert_eq!(
            mem.read(r, buf),
            payload.as_slice(),
            "{} rank {r}/{n} bytes {bytes} root {root}",
            stack.name()
        );
    }
}

#[test]
fn all_stacks_deliver_small_and_large() {
    let han = Han::with_config(HanConfig::default().with_fs(4 * 1024));
    let stacks: Vec<Box<dyn MpiStack>> = vec![
        Box::new(han),
        Box::new(TunedOpenMpi),
        Box::new(VendorMpi::cray()),
        Box::new(VendorMpi::intel()),
        Box::new(VendorMpi::mvapich2()),
    ];
    for stack in &stacks {
        check_bcast_delivery(stack.as_ref(), 3, 4, 512, 0);
        check_bcast_delivery(stack.as_ref(), 3, 4, 64 * 1024, 0);
    }
}

#[test]
fn delivery_with_nontrivial_roots() {
    let han = Han::with_config(HanConfig::default().with_fs(1024));
    for root in [1, 5, 11] {
        check_bcast_delivery(&han, 3, 4, 10_000, root);
        check_bcast_delivery(&TunedOpenMpi, 3, 4, 10_000, root);
    }
}

#[test]
fn delivery_on_odd_shapes() {
    // Non-power-of-two node and rank counts, odd message sizes.
    let han = Han::with_config(HanConfig::default().with_fs(777));
    check_bcast_delivery(&han, 5, 3, 7_001, 7);
    check_bcast_delivery(&han, 1, 6, 999, 3); // single node
    check_bcast_delivery(&han, 6, 1, 999, 2); // single rank per node
}

#[test]
fn han_beats_tuned_across_the_size_range() {
    // The Fig. 10/12 headline at mini scale: HAN wins for both small and
    // large messages against the topology-oblivious default.
    let preset = mini(4, 8);
    for (bytes, fs, smod) in [
        (16 * 1024u64, 16 * 1024u64, IntraModule::Sm),
        (1 << 20, 128 * 1024, IntraModule::Sm),
        (16 << 20, 1 << 20, IntraModule::Solo),
    ] {
        let han = Han::with_config(HanConfig::default().with_fs(fs).with_intra(smod));
        let t_han = time_coll(&han, &preset, Coll::Bcast, bytes, 0).unwrap();
        let t_tuned = time_coll(&TunedOpenMpi, &preset, Coll::Bcast, bytes, 0).unwrap();
        assert!(t_han < t_tuned, "{bytes}B: HAN {t_han} vs tuned {t_tuned}");
    }
}

#[test]
fn cray_wins_small_han_wins_large() {
    // The Fig. 10 crossover: Cray MPI's cheaper P2P wins small messages;
    // HAN's pipelining wins large ones.
    let preset = mini(8, 8);
    let small_cfg = HanConfig::default().with_fs(8 * 1024);
    let large_cfg = HanConfig::default()
        .with_fs(1 << 20)
        .with_intra(IntraModule::Solo);
    let t_han_small = time_coll(
        &Han::with_config(small_cfg),
        &preset,
        Coll::Bcast,
        8 * 1024,
        0,
    )
    .unwrap();
    let t_cray_small = time_coll(&VendorMpi::cray(), &preset, Coll::Bcast, 8 * 1024, 0).unwrap();
    assert!(
        t_cray_small < t_han_small,
        "small: cray {t_cray_small} should beat HAN {t_han_small}"
    );
    let t_han_large = time_coll(
        &Han::with_config(large_cfg),
        &preset,
        Coll::Bcast,
        32 << 20,
        0,
    )
    .unwrap();
    let t_cray_large = time_coll(&VendorMpi::cray(), &preset, Coll::Bcast, 32 << 20, 0).unwrap();
    assert!(
        t_han_large < t_cray_large,
        "large: HAN {t_han_large} should beat cray {t_cray_large}"
    );
}

#[test]
fn deterministic_across_runs() {
    let preset = mini(3, 5);
    let han = Han::with_config(HanConfig::default());
    let a = time_coll(&han, &preset, Coll::Bcast, 3 << 20, 0).unwrap();
    let b = time_coll(&han, &preset, Coll::Bcast, 3 << 20, 0).unwrap();
    assert_eq!(a, b, "simulation must be bit-deterministic");
}
