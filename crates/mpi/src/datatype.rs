//! Element datatypes and reduction operators.
//!
//! The paper's collectives are value-oblivious except for reductions
//! (`MPI_Allreduce`, `MPI_Reduce`), so this module carries just enough type
//! information to (a) size elements and (b) apply reduction operators to
//! raw byte buffers during seeded execution.

use std::fmt;

/// Supported element types (subset of MPI's predefined datatypes that the
/// paper's experiments exercise: IMB uses bytes/floats, ASP uses i32
/// distances, Horovod reduces f32 gradients).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Uint8,
    Int32,
    Int64,
    Float32,
    Float64,
}

impl DataType {
    /// Every element type, in declaration order.
    pub const ALL: [DataType; 5] = [
        DataType::Uint8,
        DataType::Int32,
        DataType::Int64,
        DataType::Float32,
        DataType::Float64,
    ];

    #[inline]
    pub fn size(self) -> usize {
        match self {
            DataType::Uint8 => 1,
            DataType::Int32 | DataType::Float32 => 4,
            DataType::Int64 | DataType::Float64 => 8,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Uint8 => "u8",
            DataType::Int32 => "i32",
            DataType::Int64 => "i64",
            DataType::Float32 => "f32",
            DataType::Float64 => "f64",
        };
        f.write_str(s)
    }
}

/// Reduction operators (commutative, as assumed by the paper's
/// `MPI_Allreduce` design in section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Sum,
    Prod,
    Max,
    Min,
}

impl ReduceOp {
    /// Every operator, in declaration order.
    pub const ALL: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];
}

/// An element type as stored little-endian in a byte buffer, with the
/// arithmetic reductions use. Integer arithmetic wraps, in debug builds as
/// in release builds; float arithmetic is IEEE.
trait Elem: Copy + PartialOrd {
    const SIZE: usize;
    fn load(b: &[u8]) -> Self;
    fn store(self, b: &mut [u8]);
    fn sum(self, o: Self) -> Self;
    fn prod(self, o: Self) -> Self;
}

macro_rules! elem {
    ($t:ty, $sum:expr, $prod:expr) => {
        impl Elem for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn load(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("chunk of SIZE bytes"))
            }
            #[inline(always)]
            fn store(self, b: &mut [u8]) {
                b.copy_from_slice(&self.to_le_bytes())
            }
            #[inline(always)]
            fn sum(self, o: Self) -> Self {
                $sum(self, o)
            }
            #[inline(always)]
            fn prod(self, o: Self) -> Self {
                $prod(self, o)
            }
        }
    };
}

elem!(u8, u8::wrapping_add, u8::wrapping_mul);
elem!(i32, i32::wrapping_add, i32::wrapping_mul);
elem!(i64, i64::wrapping_add, i64::wrapping_mul);
elem!(f32, |a: f32, b| a + b, |a: f32, b| a * b);
elem!(f64, |a: f64, b| a + b, |a: f64, b| a * b);

/// `dst[i] = f(dst[i], src[i])` over whole elements.
#[inline(always)]
fn zip_elems<T: Elem>(src: &[u8], dst: &mut [u8], f: impl Fn(T, T) -> T) {
    for (d, s) in dst.chunks_exact_mut(T::SIZE).zip(src.chunks_exact(T::SIZE)) {
        f(T::load(d), T::load(s)).store(d);
    }
}

/// One loop per operator, so the element loop carries no branch on `op`
/// and vectorizes. `Max`/`Min` keep `dst` unless `src` compares strictly
/// greater/less, so ties and NaN operands resolve the same way in every
/// build. A float `Sum`/`Prod` of two NaNs is a NaN whose payload Rust
/// leaves unspecified.
fn reduce_typed<T: Elem>(op: ReduceOp, src: &[u8], dst: &mut [u8]) {
    match op {
        ReduceOp::Sum => zip_elems(src, dst, T::sum),
        ReduceOp::Prod => zip_elems(src, dst, T::prod),
        ReduceOp::Max => zip_elems(src, dst, |a: T, b: T| if b > a { b } else { a }),
        ReduceOp::Min => zip_elems(src, dst, |a: T, b: T| if b < a { b } else { a }),
    }
}

/// Apply `dst[i] = op(dst[i], src[i])` elementwise over raw little-endian
/// buffers. Lengths must match and be a multiple of the element size.
pub fn apply_reduce(dtype: DataType, op: ReduceOp, src: &[u8], dst: &mut [u8]) {
    assert_eq!(
        src.len(),
        dst.len(),
        "reduce operand length mismatch: {} vs {}",
        src.len(),
        dst.len()
    );
    assert_eq!(
        src.len() % dtype.size(),
        0,
        "buffer not a whole number of {dtype} elements"
    );
    match dtype {
        DataType::Uint8 => reduce_typed::<u8>(op, src, dst),
        DataType::Int32 => reduce_typed::<i32>(op, src, dst),
        DataType::Int64 => reduce_typed::<i64>(op, src, dst),
        DataType::Float32 => reduce_typed::<f32>(op, src, dst),
        DataType::Float64 => reduce_typed::<f64>(op, src, dst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_sizes() {
        assert_eq!(DataType::Uint8.size(), 1);
        assert_eq!(DataType::Int32.size(), 4);
        assert_eq!(DataType::Float64.size(), 8);
    }

    fn as_bytes_i32(xs: &[i32]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn from_bytes_i32(b: &[u8]) -> Vec<i32> {
        b.chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn sum_i32() {
        let src = as_bytes_i32(&[1, -2, 3]);
        let mut dst = as_bytes_i32(&[10, 20, 30]);
        apply_reduce(DataType::Int32, ReduceOp::Sum, &src, &mut dst);
        assert_eq!(from_bytes_i32(&dst), vec![11, 18, 33]);
    }

    #[test]
    fn max_min_prod_i32() {
        let src = as_bytes_i32(&[5, -7, 2]);
        let mut dst = as_bytes_i32(&[3, -2, 4]);
        apply_reduce(DataType::Int32, ReduceOp::Max, &src, &mut dst);
        assert_eq!(from_bytes_i32(&dst), vec![5, -2, 4]);
        let mut dst = as_bytes_i32(&[3, -2, 4]);
        apply_reduce(DataType::Int32, ReduceOp::Min, &src, &mut dst);
        assert_eq!(from_bytes_i32(&dst), vec![3, -7, 2]);
        let mut dst = as_bytes_i32(&[3, -2, 4]);
        apply_reduce(DataType::Int32, ReduceOp::Prod, &src, &mut dst);
        assert_eq!(from_bytes_i32(&dst), vec![15, 14, 8]);
    }

    #[test]
    fn sum_f64() {
        let src: Vec<u8> = [1.5f64, 2.25]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        let mut dst: Vec<u8> = [0.5f64, 0.75]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        apply_reduce(DataType::Float64, ReduceOp::Sum, &src, &mut dst);
        let out: Vec<f64> = dst
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    fn u8_wrapping_sum() {
        let src = vec![200u8, 1];
        let mut dst = vec![100u8, 2];
        apply_reduce(DataType::Uint8, ReduceOp::Sum, &src, &mut dst);
        assert_eq!(dst, vec![44, 3]); // 300 wraps to 44
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let src = vec![0u8; 4];
        let mut dst = vec![0u8; 8];
        apply_reduce(DataType::Int32, ReduceOp::Sum, &src, &mut dst);
    }

    #[test]
    fn sum_is_commutative_over_buffers() {
        // op(a<-b) then op(a<-c) == op(a<-c) then op(a<-b)
        let b = as_bytes_i32(&[4, 5, 6]);
        let c = as_bytes_i32(&[7, 8, 9]);
        let mut a1 = as_bytes_i32(&[1, 2, 3]);
        let mut a2 = as_bytes_i32(&[1, 2, 3]);
        apply_reduce(DataType::Int32, ReduceOp::Sum, &b, &mut a1);
        apply_reduce(DataType::Int32, ReduceOp::Sum, &c, &mut a1);
        apply_reduce(DataType::Int32, ReduceOp::Sum, &c, &mut a2);
        apply_reduce(DataType::Int32, ReduceOp::Sum, &b, &mut a2);
        assert_eq!(a1, a2);
    }
}
