//! Property test for the reduction kernel: `apply_reduce` is bitwise equal
//! to a per-element scalar reference for every datatype and operator, on
//! random lengths, with integer overflow and float NaN, ±0.0 and ±inf
//! among the inputs.
//!
//! One case is not bitwise: a float `Sum` or `Prod` of two NaNs. Rust
//! leaves the payload of such a result unspecified, and on x86 it is the
//! NaN of whichever operand the compiler puts first, which vectorized and
//! scalar code order differently. There the result must be a NaN.

use han_mpi::datatype::apply_reduce;
use han_mpi::{DataType, ReduceOp};
use proptest::prelude::*;

const DTYPES: [DataType; 5] = [
    DataType::Uint8,
    DataType::Int32,
    DataType::Int64,
    DataType::Float32,
    DataType::Float64,
];
const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];

/// One sampled element: a selector for a special value and random bits.
type ElemSpec = (u32, u64);

fn f64_special(sel: u32) -> f64 {
    [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
        -3.0,
    ][sel as usize % 8]
}

fn i64_special(sel: u32) -> i64 {
    [0, 1, -1, i64::MAX, i64::MIN, 2][sel as usize % 6]
}

/// Little-endian bytes of one element: a special value one time in three,
/// random bits otherwise (NaN payloads and subnormals included).
fn encode(dtype: DataType, (sel, bits): ElemSpec) -> Vec<u8> {
    let special = sel % 3 == 0;
    let s = sel / 3;
    match dtype {
        DataType::Uint8 => vec![if special {
            i64_special(s) as u8
        } else {
            bits as u8
        }],
        DataType::Int32 => {
            let x = if special {
                i64_special(s) as i32
            } else {
                bits as i32
            };
            x.to_le_bytes().to_vec()
        }
        DataType::Int64 => {
            let x = if special { i64_special(s) } else { bits as i64 };
            x.to_le_bytes().to_vec()
        }
        DataType::Float32 => {
            let x = if special {
                f64_special(s) as f32
            } else {
                f32::from_bits(bits as u32)
            };
            x.to_le_bytes().to_vec()
        }
        DataType::Float64 => {
            let x = if special {
                f64_special(s)
            } else {
                f64::from_bits(bits)
            };
            x.to_le_bytes().to_vec()
        }
    }
}

/// The kernel's per-element semantics, one element at a time with the
/// operator matched inside the loop.
macro_rules! scalar {
    ($t:ty, $op:expr, $src:expr, $dst:expr, $add:expr, $mul:expr) => {{
        const W: usize = std::mem::size_of::<$t>();
        for (d, s) in $dst.chunks_exact_mut(W).zip($src.chunks_exact(W)) {
            let a = <$t>::from_le_bytes(d.try_into().unwrap());
            let b = <$t>::from_le_bytes(s.try_into().unwrap());
            let r: $t = match $op {
                ReduceOp::Sum => $add(a, b),
                ReduceOp::Prod => $mul(a, b),
                ReduceOp::Max => {
                    if b > a {
                        b
                    } else {
                        a
                    }
                }
                ReduceOp::Min => {
                    if b < a {
                        b
                    } else {
                        a
                    }
                }
            };
            d.copy_from_slice(&r.to_le_bytes());
        }
    }};
}

fn reference(dtype: DataType, op: ReduceOp, src: &[u8], dst: &mut [u8]) {
    match dtype {
        DataType::Uint8 => scalar!(u8, op, src, dst, u8::wrapping_add, u8::wrapping_mul),
        DataType::Int32 => scalar!(i32, op, src, dst, i32::wrapping_add, i32::wrapping_mul),
        DataType::Int64 => scalar!(i64, op, src, dst, i64::wrapping_add, i64::wrapping_mul),
        DataType::Float32 => scalar!(f32, op, src, dst, |a: f32, b| a + b, |a: f32, b| a * b),
        DataType::Float64 => scalar!(f64, op, src, dst, |a: f64, b| a + b, |a: f64, b| a * b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_is_bitwise_equal_to_the_scalar_reference(
        d in 0usize..5,
        o in 0usize..4,
        elems in proptest::collection::vec(((0u32..100, any::<u64>()), (0u32..100, any::<u64>())), 0..300),
    ) {
        let (dtype, op) = (DTYPES[d], OPS[o]);
        let src: Vec<u8> = elems.iter().flat_map(|&(_, b)| encode(dtype, b)).collect();
        let dst: Vec<u8> = elems.iter().flat_map(|&(a, _)| encode(dtype, a)).collect();
        let mut got = dst.clone();
        apply_reduce(dtype, op, &src, &mut got);
        assert_matches_reference(dtype, op, &src, &dst, &got);
    }
}

/// Whether the little-endian element `b` is a float NaN.
fn is_nan(dtype: DataType, b: &[u8]) -> bool {
    match dtype {
        DataType::Float32 => f32::from_le_bytes(b.try_into().unwrap()).is_nan(),
        DataType::Float64 => f64::from_le_bytes(b.try_into().unwrap()).is_nan(),
        _ => false,
    }
}

/// `got` is `op(dst, src)` as the scalar reference computes it, element
/// by element; a `Sum` or `Prod` of two NaNs only has to be a NaN.
fn assert_matches_reference(dtype: DataType, op: ReduceOp, src: &[u8], dst: &[u8], got: &[u8]) {
    let mut want = dst.to_vec();
    reference(dtype, op, src, &mut want);
    let w = dtype.size();
    let arith = matches!(op, ReduceOp::Sum | ReduceOp::Prod);
    for (i, g) in got.chunks_exact(w).enumerate() {
        let e = i * w..(i + 1) * w;
        if arith && is_nan(dtype, &dst[e.clone()]) && is_nan(dtype, &src[e.clone()]) {
            assert!(
                is_nan(dtype, g),
                "{dtype} {op:?} element {i}: NaN op NaN gave {g:?}"
            );
        } else {
            assert_eq!(g, &want[e], "{dtype} {op:?} element {i}");
        }
    }
}

#[test]
fn every_datatype_operator_pair_matches_on_every_special_pair() {
    // Selectors 0, 3, ..., 21 pick each special value, so this crosses
    // every special with every other (ties and NaNs included) for all 20
    // pairs, whatever the random sample above happened to draw.
    let specials: Vec<ElemSpec> = (0..8).map(|s| (3 * s, 0)).collect();
    for dtype in DTYPES {
        for op in OPS {
            let pairs = specials
                .iter()
                .flat_map(|&a| specials.iter().map(move |&b| (a, b)));
            let src: Vec<u8> = pairs.clone().flat_map(|(_, b)| encode(dtype, b)).collect();
            let dst: Vec<u8> = pairs.flat_map(|(a, _)| encode(dtype, a)).collect();
            let mut got = dst.clone();
            apply_reduce(dtype, op, &src, &mut got);
            assert_matches_reference(dtype, op, &src, &dst, &got);
        }
    }
}
