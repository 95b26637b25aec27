//! Model test of [`Frontier`]: random sequences of every constructor and
//! mutator, driven in lockstep against the obvious `Vec<Vec<OpId>>`
//! reference. After each step every rank's list must agree exactly —
//! order included, and across the one-op (inline) to many-op (spilled)
//! transition in both directions.

use han_colls::Frontier;
use han_mpi::OpId;
use proptest::prelude::*;

/// One step: an operation selector, a rank/size seed and an op list.
type Step = (u32, usize, Vec<u32>);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u32..8,
            0usize..64,
            proptest::collection::vec(0u32..1000, 0..6),
        ),
        1..80,
    )
}

fn ops(list: &[u32]) -> Vec<OpId> {
    list.iter().copied().map(OpId).collect()
}

fn check(f: &Frontier, model: &[Vec<OpId>]) {
    assert_eq!(f.len(), model.len());
    for (i, want) in model.iter().enumerate() {
        assert_eq!(f.get(i), want.as_slice(), "rank {i} of {model:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn frontier_matches_vec_of_vecs(steps in arb_steps()) {
        let mut f = Frontier::empty(3);
        let mut model: Vec<Vec<OpId>> = vec![Vec::new(); 3];
        for (kind, a, list) in steps {
            let n = model.len();
            let list = ops(&list);
            match kind {
                0 => {
                    let m = 1 + a % 6;
                    f = Frontier::empty(m);
                    model = vec![Vec::new(); m];
                }
                1 if !list.is_empty() => {
                    f = Frontier::from_ops(&list);
                    model = list.iter().map(|&o| vec![o]).collect();
                }
                2 if n > 0 => {
                    f.set(a % n, &list);
                    model[a % n] = list;
                }
                3 if n > 0 => {
                    let op = list.first().copied().unwrap_or(OpId(a as u32));
                    f.push(a % n, op);
                    model[a % n].push(op);
                }
                4 if n > 0 => {
                    f.extend(a % n, &list);
                    model[a % n].extend_from_slice(&list);
                }
                5 => {
                    // A same-sized frontier with lists of every length.
                    let mut other = Frontier::empty(n);
                    for (i, mine) in model.iter_mut().enumerate() {
                        let k = (i + a) % (list.len() + 1);
                        other.set(i, &list[..k]);
                        mine.extend_from_slice(&list[..k]);
                    }
                    f.merge(&other);
                }
                6 if n > 0 => {
                    // Locals may repeat a parent rank, as sub-communicator
                    // maps never do but `project` must still copy.
                    let locals: Vec<usize> = list.iter().map(|o| o.0 as usize % n).collect();
                    f = f.project(&locals);
                    model = locals.iter().map(|&l| model[l].clone()).collect();
                }
                7 => {
                    let m = a % 6;
                    f.reset(m);
                    model = vec![Vec::new(); m];
                }
                _ => {}
            }
            check(&f, &model);
        }
    }
}
