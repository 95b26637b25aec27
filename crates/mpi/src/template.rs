//! Program templates: size-invariant shapes with affine scalar re-stamping.
//!
//! Within one autotuning sweep the same `(config, topology, collective,
//! segment-count)` point is built over and over at different message sizes,
//! yet the resulting [`Program`]s differ only in their *scalars*: byte
//! counts, buffer offsets/lengths and byte-derived delay durations. The op
//! list, dependency edges and message matching — the expensive part of the
//! build — are identical, and every scalar is an **affine function of the
//! message size** `v(m) = v(m₀) + k·(m − m₀)` as long as the build's
//! integer-division decisions (segment counts, sub-segmentation, fragment
//! counts) are pinned by the template key.
//!
//! A [`ProgramTemplate`] is learned from two probe builds at distinct
//! sizes: the shapes are checked for exact structural equality field by
//! field, each scalar's slope is recovered by exact integer division (any
//! remainder rejects the pair as non-affine), and specialization then
//! copies the base program's flat arrays and re-stamps the scalar stream —
//! no tree construction, no per-call hash maps, no frontier bookkeeping.
//! The caller (the template store in `han-colls`) is responsible for
//! keying entries so that builds with different shapes or non-affine
//! scalars never share a template.

use crate::buffer::BufRange;
use crate::program::{MsgMeta, OpKind, Program};

/// Visit the size-dependent scalars of one op kind: a duration, or a byte
/// count followed by the source and destination ranges. This and
/// [`msg_scalars`] are the single definition of the scalar stream's order;
/// reading and re-stamping both go through them.
fn kind_scalars(kind: &mut OpKind, f: &mut impl FnMut(&mut u64)) {
    match kind {
        OpKind::Nop | OpKind::Send { .. } | OpKind::Recv { .. } => {}
        OpKind::Delay { dur } | OpKind::Sleep { dur } => f(&mut dur.0),
        OpKind::Copy { bytes, src, dst }
        | OpKind::CrossCopy {
            bytes, src, dst, ..
        }
        | OpKind::Reduce {
            bytes, src, dst, ..
        }
        | OpKind::ReduceFrom {
            bytes, src, dst, ..
        } => {
            f(bytes);
            range_scalars(src, f);
            range_scalars(dst, f);
        }
    }
}

fn msg_scalars(m: &mut MsgMeta, f: &mut impl FnMut(&mut u64)) {
    f(&mut m.bytes);
    range_scalars(&mut m.sbuf, f);
    range_scalars(&mut m.dbuf, f);
}

fn range_scalars(r: &mut Option<BufRange>, f: &mut impl FnMut(&mut u64)) {
    if let Some(r) = r {
        f(&mut r.off);
        f(&mut r.len);
    }
}

/// Visit every size-dependent scalar of `p` in a fixed deterministic
/// order: per-op scalars in op order, then per-message scalars, then
/// per-rank memory sizes.
fn for_each_scalar_mut(p: &mut Program, f: &mut impl FnMut(&mut u64)) {
    for op in &mut p.ops {
        kind_scalars(&mut op.kind, f);
    }
    for m in &mut p.msgs {
        msg_scalars(m, f);
    }
    for sz in &mut p.mem_size {
        f(sz);
    }
}

/// Read-only [`for_each_scalar_mut`]: op kinds and messages are `Copy`,
/// so each is visited through a stack copy.
fn for_each_scalar(p: &Program, f: &mut impl FnMut(u64)) {
    let mut read = |s: &mut u64| f(*s);
    for op in &p.ops {
        let mut kind = op.kind;
        kind_scalars(&mut kind, &mut read);
    }
    for m in &p.msgs {
        let mut m = *m;
        msg_scalars(&mut m, &mut read);
    }
    p.mem_size.iter().for_each(|&sz| f(sz));
}

/// The scalar stream of `p` (see `for_each_scalar_mut` for the order).
pub fn collect_scalars(p: &Program) -> Vec<u64> {
    let mut out = Vec::new();
    for_each_scalar(p, &mut |s| out.push(s));
    out
}

/// `kind` with every scalar zeroed: what is left is its shape.
fn kind_shape(mut kind: OpKind) -> OpKind {
    kind_scalars(&mut kind, &mut |s| *s = 0);
    kind
}

/// `m` with every scalar zeroed: its endpoints and which buffers it has.
fn msg_shape(mut m: MsgMeta) -> MsgMeta {
    msg_scalars(&mut m, &mut |s| *s = 0);
    m
}

/// `a` and `b` are equal everywhere outside the scalar stream: the same
/// rank count, dependency CSR, op ranks and kind shapes, and message
/// shapes.
fn same_shape(a: &Program, b: &Program) -> bool {
    a.nranks == b.nranks
        && a.mem_size.len() == b.mem_size.len()
        && a.dep_off == b.dep_off
        && a.dep == b.dep
        && a.ops.len() == b.ops.len()
        && a.ops
            .iter()
            .zip(&b.ops)
            .all(|(x, y)| x.rank == y.rank && kind_shape(x.kind) == kind_shape(y.kind))
        && a.msgs.len() == b.msgs.len()
        && a.msgs
            .iter()
            .zip(&b.msgs)
            .all(|(x, y)| msg_shape(*x) == msg_shape(*y))
}

/// A size-invariant program shape plus per-scalar affine coefficients.
#[derive(Debug, Clone)]
pub struct ProgramTemplate {
    base_m: u64,
    base: Program,
    /// `(value at base_m, slope per message byte)` per scalar, in stream
    /// order.
    coeffs: Vec<(u64, i64)>,
}

impl ProgramTemplate {
    /// Learn a template from two probe builds of the same shape at
    /// distinct message sizes.
    ///
    /// Returns `None` when the programs differ structurally (anywhere
    /// outside the scalar stream) or when any scalar is not exactly affine
    /// in the message size — callers must then fall back to cold builds.
    pub fn learn(m1: u64, p1: &Program, m2: u64, p2: &Program) -> Option<ProgramTemplate> {
        if m1 == m2 || !same_shape(p1, p2) {
            return None;
        }
        // Equal shapes have scalar streams of equal length and layout.
        let s1 = collect_scalars(p1);
        let s2 = collect_scalars(p2);
        let dm = m2 as i128 - m1 as i128;
        let mut coeffs = Vec::with_capacity(s1.len());
        for (&a, &b) in s1.iter().zip(&s2) {
            let dv = b as i128 - a as i128;
            if dv % dm != 0 {
                return None;
            }
            let slope = i64::try_from(dv / dm).ok()?;
            coeffs.push((a, slope));
        }
        Some(ProgramTemplate {
            base_m: m1,
            base: p1.clone(),
            coeffs,
        })
    }

    /// Re-stamp the template's scalar stream for message size `m`.
    ///
    /// For any `m` whose build shares the template's shape (same template
    /// key), this is bit-identical to a cold build: same ops, same deps,
    /// same scalars — and therefore the same makespan, op finish times and
    /// event count under the deterministic executor.
    pub fn specialize(&self, m: u64) -> Program {
        let mut p = self.base.clone();
        self.restamp(m, &mut p);
        p
    }

    /// [`Self::specialize`] into an existing program. The scratch's prior
    /// contents are irrelevant; the result is identical to
    /// `specialize(m)`. This is the sweep's hot path: the base is copied
    /// as a handful of flat arrays (ops, dependency CSR, messages, memory
    /// sizes), then re-stamped in place.
    pub fn specialize_into(&self, m: u64, out: &mut Program) {
        out.clone_from(&self.base);
        self.restamp(m, out);
    }

    fn restamp(&self, m: u64, p: &mut Program) {
        let dm = m as i128 - self.base_m as i128;
        let mut it = self.coeffs.iter();
        for_each_scalar_mut(p, &mut |s| {
            let &(base, slope) = it.next().expect("coeff stream matches shape");
            let v = base as i128 + slope as i128 * dm;
            debug_assert!((0..=u64::MAX as i128).contains(&v), "scalar out of range");
            *s = v as u64;
        });
    }

    /// Message size the template was learned at.
    pub fn base_m(&self) -> u64 {
        self.base_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use han_sim::Time;

    /// A toy affine program: rank 0 copies m bytes then sends them; rank 1
    /// receives; a byte-derived delay of 2m ps follows (after the receive
    /// when `delay_after_recv`).
    fn toy_builder(m: u64, delay_after_recv: bool) -> ProgramBuilder {
        let mut b = ProgramBuilder::new(2);
        let src = b.alloc(0, m);
        let sbuf = b.alloc(0, m);
        let dbuf = b.alloc(1, m);
        let copy = OpKind::Copy {
            bytes: m,
            src: Some(src),
            dst: Some(sbuf),
        };
        let c = b.op(0, copy, &[]);
        let (_, r) = b.send_recv(0, 1, m, Some(sbuf), Some(dbuf), &[c], &[]);
        let deps = if delay_after_recv { vec![r] } else { vec![] };
        b.delay(1, Time::from_ps(2 * m), &deps);
        b
    }

    fn toy(m: u64) -> Program {
        toy_builder(m, true).build()
    }

    #[test]
    fn learned_template_reproduces_cold_builds() {
        let t = ProgramTemplate::learn(64, &toy(64), 4096, &toy(4096)).expect("affine");
        for m in [64, 100, 4096, 1 << 20] {
            assert_eq!(t.specialize(m), toy(m));
        }
    }

    #[test]
    fn non_affine_scalars_are_rejected() {
        // ceil-style scalar: 7 at m=64 vs 8 at m=65 has slope 1, but
        // m=64 → 7 vs m=192 → 9 gives slope 2/128: not integral.
        let mut a = toy(64);
        let mut b = toy(192);
        if let OpKind::Delay { dur } = &mut a.ops[3].kind {
            *dur = Time::from_ps(7);
        }
        if let OpKind::Delay { dur } = &mut b.ops[3].kind {
            *dur = Time::from_ps(9);
        }
        assert!(ProgramTemplate::learn(64, &a, 192, &b).is_none());
    }

    #[test]
    fn structural_differences_are_rejected() {
        let a = toy(64);
        let reject = |b: &Program| assert!(ProgramTemplate::learn(64, &a, 128, b).is_none());
        // Same scalar count, different dependency structure.
        reject(&toy_builder(128, false).build());
        // Different op count.
        let mut c = toy_builder(128, true);
        c.nop(0, &[]);
        reject(&c.build());
        // Different op rank.
        let mut d = toy(128);
        d.ops[3].rank = 0;
        reject(&d);
        // Different reduction/copy kind with the same scalars.
        let mut e = toy(128);
        if let OpKind::Copy { bytes, src, dst } = e.ops[0].kind {
            e.ops[0].kind = OpKind::CrossCopy {
                from: 1,
                bytes,
                src,
                dst,
            };
        }
        reject(&e);
        // A buffer range present in one program and absent in the other.
        let mut f = toy(128);
        f.msgs[0].dbuf = None;
        reject(&f);
        // Different message endpoint.
        let mut g = toy(128);
        g.msgs[0].src = 1;
        reject(&g);
    }

    #[test]
    fn same_size_probes_are_rejected() {
        let a = toy(64);
        assert!(ProgramTemplate::learn(64, &a, 64, &a).is_none());
    }

    #[test]
    fn scalar_stream_roundtrip() {
        let p = toy(320);
        let s = collect_scalars(&p);
        // Copy: bytes + 2 ranges (5), Delay dur (1), msg: bytes + 2 ranges
        // (5), mem_size (2).
        assert_eq!(s.len(), 13);
        let t = ProgramTemplate::learn(64, &toy(64), 128, &toy(128)).unwrap();
        assert_eq!(collect_scalars(&t.specialize(320)), s);
    }
}
