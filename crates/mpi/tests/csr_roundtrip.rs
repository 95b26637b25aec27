//! Property tests for the flat dependency layout: for random DAGs built
//! through `ProgramBuilder`, every op's CSR dependency slice is exactly the
//! slice handed to the builder, and a cloned program — including one
//! cloned into a scratch that previously held a larger, different program
//! — executes identically to the original.

use han_machine::{mini, Flavor, Machine};
use han_mpi::{execute, ExecOpts, OpId, OpKind, Program, ProgramBuilder, Report};
use han_sim::Time;
use proptest::prelude::*;

/// 2 nodes x 2 ranks: cross-rank dependencies must stay within a node.
const NODES: usize = 2;
const PPN: usize = 2;

/// One sampled op: (kind selector, rank, peer rank, dependency picks,
/// bytes or duration).
type OpSpec = (u32, usize, usize, Vec<usize>, u64);

fn arb_ops() -> impl Strategy<Value = Vec<OpSpec>> {
    proptest::collection::vec(
        (
            0u32..5,
            0..NODES * PPN,
            0..NODES * PPN,
            proptest::collection::vec(any::<usize>(), 0..4),
            1u64..200_000,
        ),
        1..60,
    )
}

/// Up to `picks.len()` distinct earlier ops on `rank`'s node, in pick order.
fn pick_deps(ranks: &[usize], rank: usize, picks: &[usize]) -> Vec<OpId> {
    let mut deps = Vec::new();
    if ranks.is_empty() {
        return deps;
    }
    for &p in picks {
        let d = p % ranks.len();
        let id = OpId(d as u32);
        if ranks[d] / PPN == rank / PPN && !deps.contains(&id) {
            deps.push(id);
        }
    }
    deps
}

/// Build a random DAG; returns the program and, per op, the dependency
/// slice it was given.
fn build(specs: &[OpSpec]) -> (Program, Vec<Vec<OpId>>) {
    let mut b = ProgramBuilder::new(NODES * PPN);
    let mut ranks: Vec<usize> = Vec::new();
    let mut given: Vec<Vec<OpId>> = Vec::new();
    for (sel, rank, peer, picks, x) in specs {
        let (rank, peer) = (*rank, *peer);
        let deps = pick_deps(&ranks, rank, picks);
        match sel {
            0 => {
                b.nop(rank, &deps);
            }
            1 => {
                b.delay(rank, Time::from_ps(*x), &deps);
            }
            2 => {
                b.sleep(rank, Time::from_ps(*x), &deps);
            }
            3 => {
                let (src, dst) = (b.alloc(rank, *x), b.alloc(rank, *x));
                b.op(rank, OpKind::Copy { src, dst }, &deps);
            }
            _ if peer != rank => {
                let rdeps = pick_deps(&ranks, peer, picks);
                let (sbuf, dbuf) = (b.alloc(rank, *x), b.alloc(peer, *x));
                b.send_recv(rank, peer, sbuf, dbuf, &deps, &rdeps);
                ranks.push(rank);
                given.push(deps);
                ranks.push(peer);
                given.push(rdeps);
                continue;
            }
            _ => {
                b.nop(rank, &deps);
            }
        }
        ranks.push(rank);
        given.push(deps);
    }
    (b.build(), given)
}

fn run(p: &Program) -> Report {
    let mut m = Machine::from_preset(&mini(NODES, PPN));
    execute(&mut m, p, &ExecOpts::timing(Flavor::OpenMpi.p2p()))
}

fn assert_same_run(a: &Report, b: &Report) {
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.op_finishes(), b.op_finishes());
    assert_eq!(a.rank_finish, b.rank_finish);
    assert_eq!(a.events, b.events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_deps_equal_the_builder_slices(specs in arb_ops()) {
        let (p, given) = build(&specs);
        prop_assert_eq!(p.validate(), Ok(()));
        prop_assert_eq!(p.len(), given.len());
        prop_assert_eq!(p.dep_off.len(), p.len() + 1);
        for (i, deps) in given.iter().enumerate() {
            prop_assert_eq!(p.deps(OpId(i as u32)), deps.as_slice());
        }
    }

    #[test]
    fn clones_execute_like_the_original(
        specs in arb_ops(),
        bigger in arb_ops(),
    ) {
        let (p, _) = build(&specs);
        let want = run(&p);
        assert_same_run(&run(&p.clone()), &want);
        // A scratch that held a larger, different program: no stale CSR
        // tail, op or message may survive the copy.
        let mut all = bigger.clone();
        all.extend(specs.iter().cloned());
        all.extend(bigger);
        let (mut scratch, _) = build(&all);
        prop_assert!(scratch.len() > p.len());
        // Running it first also leaves the executor's cached structure on
        // the larger shape.
        run(&scratch);
        scratch.clone_from(&p);
        prop_assert_eq!(&scratch, &p);
        assert_same_run(&run(&scratch), &want);
    }
}
