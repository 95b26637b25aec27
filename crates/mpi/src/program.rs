//! Programs: per-rank DAGs of communication and compute operations.
//!
//! A [`Program`] is the compiled form of a collective (or a HAN *task*
//! benchmark, or a whole application phase): a flat vector of [`Op`]s, each
//! owned by a rank, plus dependency edges. Messages are pre-matched at
//! build time — each send/recv pair shares a [`MsgId`] — so the executor
//! never performs tag matching; this both simplifies the transport and
//! guarantees determinism.
//!
//! Every per-op fact is stored once, at the width it needs:
//!
//! | array | bytes | per |
//! |---|---|---|
//! | [`Program::ops`] | 16 | op: rank, kind tag, reduction tags, payload word |
//! | [`Program::operands`] | 24 | distinct range triple: source offset, destination offset, length |
//! | [`Program::dep_off`] | 4 | op, plus one |
//! | [`Program::dep`] | 2 or 4 | dependency edge: a distance back if the program is narrow, an op id if wide |
//! | [`Program::msgs`] | 56 | message |
//! | [`Program::mem_size`] | 8 | rank |
//!
//! An [`Op`] is a 16-byte record: its rank, a kind tag, a reduction's
//! three tags and one payload word. Only the four data kinds carry more
//! than eight bytes, their `src` and `dst` ranges, and those live in a
//! per-program side table, [`Program::operands`], that the record indexes.
//! Both ranges of a data op have one length, stored once. The table holds
//! distinct ranges, not one entry per data op: the hierarchy repeats one
//! primitive on every rank of a node and every segment, so a data op whose
//! ranges equal one of the last few entries indexes that entry. The
//! 128 MiB HAN Bcast on 4096 ranks names 256 range triples over 1,015,808
//! data ops. An entry is never rewritten once pushed.
//! [`Program::push_op`] encodes an [`OpKind`] and [`Program::kind`] decodes
//! it, so every reader matches on the same `OpKind` the builder was given.
//! Op and message ids stay below 2^29, so that the executor can pack one
//! beside a 3-bit tag in a `u32`; [`Program::push_op`] refuses a larger
//! program.
//!
//! The dependency edges are stored once per program in compressed sparse
//! row (CSR) form: op `i` depends on the edges `dep_off[i]..dep_off[i + 1]`
//! of [`Program::dep`], read through [`Program::deps`]. Every field is a
//! flat vector of plain `Copy` data, so building, cloning and dropping a
//! program costs a few large allocations rather than one per op.
//!
//! The edges have one width per program, which the program picks from
//! its own edges ([`Edges`]). The hierarchy repeats one primitive on
//! every rank and segment, so an op depends on ops emitted shortly before
//! it: no edge of the Fig. 10/13 programs on 4096 ranks is more than
//! 33,270 ops long. A program is *narrow* while every edge is 1 to 65,535
//! ops back, and stores each as that distance in two bytes. The first
//! edge that does not fit, a longer one or one on the op itself or a
//! later op, makes the program *wide*: every edge is then rewritten in
//! place, in order, as the four-byte id it names, and stays so. Both
//! widths live in one `u16` array, so a program that widens, and a
//! thread that builds programs of both widths, keep one allocation: two
//! arrays would each leave the other's pages behind. Some baseline
//! stacks build wide programs: Open MPI's 128 MiB Bcast on 4096 ranks has
//! edges over four million ops long.
//!
//! Program storage is a per-thread resource, as the executor's state is.
//! A dropped program hands its six arrays to a one-slot thread-local,
//! which keeps the larger of the set it held and the one it is given, and
//! [`ProgramBuilder::new`](crate::ProgramBuilder::new) refills that set.
//! A thread that builds, runs and drops programs in a row therefore grows
//! its arrays once instead of faulting fresh pages in for every build.
//! The slot holds at most the largest program dropped on its thread and
//! is freed with the thread.

use crate::buffer::BufRange;
use crate::datatype::{DataType, ReduceOp};
use han_sim::Time;
use std::cell::Cell;
use std::mem::{size_of, take};

/// Index of an op within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// Index of a pre-matched message within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgId(pub u32);

/// Op and message ids are below this bound: the executor packs an id and
/// a 3-bit tag into one `u32`.
pub(crate) const ID_LIMIT: usize = 1 << 29;

/// What an op does. Resource costs are derived by the executor from the
/// machine parameters; `OpKind` carries only semantics and sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// No-op: join/fork point for dependencies (also used to observe the
    /// completion time of a task).
    Nop,
    /// Occupies the rank's CPU for a fixed duration (module setup costs,
    /// e.g. SOLO window synchronization, SM fragment flags).
    Delay { dur: Time },
    /// Waits without occupying any resource (benchmark-injected skew).
    Sleep { dur: Time },
    /// Local memcpy of `src` to `dst` (equal lengths): CPU at `copy_rate`
    /// + node memory bus.
    Copy { src: BufRange, dst: BufRange },
    /// One-sided read of `src.len` bytes from another rank **on the same
    /// node** (shared-memory mapping / XPMEM-style): this rank's CPU + the
    /// node bus. The dependency edge from the producer supplies the
    /// happens-before flag.
    CrossCopy {
        from: u32,
        /// Range in `from`'s address space.
        src: BufRange,
        /// Range in this rank's address space.
        dst: BufRange,
    },
    /// Local reduction `dst = op(dst, src)`: CPU at the scalar or AVX rate
    /// + bus for operand traffic.
    Reduce {
        vectorized: bool,
        op: ReduceOp,
        dtype: DataType,
        src: BufRange,
        dst: BufRange,
    },
    /// Reduction reading the source operand one-sided from a same-node
    /// peer: `dst = op(dst, remote src)`. Used by the SM/SOLO reduce paths
    /// where the node leader consumes children's contributions in place.
    ReduceFrom {
        from: u32,
        vectorized: bool,
        op: ReduceOp,
        dtype: DataType,
        src: BufRange,
        dst: BufRange,
    },
    /// The sending half of message `msg`.
    Send { msg: MsgId },
    /// The receiving half of message `msg`; completes when the payload has
    /// arrived and the receiver CPU has processed it.
    Recv { msg: MsgId },
}

/// A pre-matched point-to-point message of `bytes` bytes. A message with
/// a `payload` moves the bytes of its send range (on `src`) into its
/// receive range (on `dst`), both `bytes` long; one without only costs
/// time and orders its receive after its send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgMeta {
    pub src: u32,
    pub dst: u32,
    pub bytes: u64,
    pub payload: Option<(BufRange, BufRange)>,
}

/// The `src` and `dst` ranges of a data op (`Copy`, `CrossCopy`,
/// `Reduce`, `ReduceFrom`), both `len` bytes long: an entry of
/// [`Program::operands`], 24 bytes per distinct range triple, which every
/// data op with these ranges nearby in the program shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operands {
    pub src_off: u64,
    pub dst_off: u64,
    pub len: u64,
}

/// One operation, owned by `rank`, in 16 bytes. It becomes runnable once
/// every op in its program's [`Program::deps`] list has finished; what it
/// does is [`Program::kind`].
///
/// The record holds a kind tag, a reduction's `vectorized`/`ReduceOp`/
/// `DataType` tags (zero for other kinds) and one payload word: a Delay or
/// Sleep duration in picoseconds, a message id, or for a data op its
/// `from` rank (high half) and its index into [`Program::operands`] (low
/// half). Several data ops may index one entry. A data op given ranges of
/// two lengths, which [`Program::validate`] rejects, is kept exactly: it
/// gets two fresh entries, and a flag beside `vectorized` says that the
/// next operands entry holds the destination's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub rank: u32,
    tag: u8,
    red: [u8; 3],
    arg: u64,
}

// Kind tags of an `Op` record.
const NOP: u8 = 0;
const DELAY: u8 = 1;
const SLEEP: u8 = 2;
const COPY: u8 = 3;
const CROSS_COPY: u8 = 4;
const REDUCE: u8 = 5;
const REDUCE_FROM: u8 = 6;
const SEND: u8 = 7;
const RECV: u8 = 8;

// Flags in a data op's first reduction byte.
const VECTORIZED: u8 = 1;
/// The ranges differ in length; the next operands entry's `len` is the
/// destination's.
const SPLIT_LEN: u8 = 2;

/// How many of the newest operands entries a data op's ranges are compared
/// with before they get an entry of their own. The hierarchy repeats one
/// primitive on every rank of a node, so equal ranges come close together;
/// four also catches the SM reduce, which alternates a `Copy` and a
/// `ReduceFrom` over two ranges.
const INTERN_WINDOW: usize = 4;

/// Longest edge a narrow [`Edges`] array stores, in ops.
const NARROW_MAX: u32 = u16::MAX as u32;

/// Dependency edges at one width, in one array of `u16` words.
///
/// In a program, a narrow edge is one word: the distance from the op
/// that lists it back to the op it names, 1 to [`u16::MAX`]. A wide edge
/// is two words, the low and the high half of the id it names. The
/// executor's child lists take the width of their program, a narrow word
/// there being the distance forward to the child: the same number as the
/// edge's distance back. Both widths share one allocation, so a program
/// widens in place, and a thread that builds or runs programs of both
/// widths reuses one array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edges {
    Narrow(Vec<u16>),
    Wide(Vec<u16>),
}

/// An empty narrow array: every build starts narrow.
impl Default for Edges {
    fn default() -> Self {
        Edges::Narrow(Vec::new())
    }
}

impl Edges {
    pub fn len(&self) -> usize {
        match self {
            Edges::Narrow(w) => w.len(),
            Edges::Wide(w) => w.len() / 2,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.words().is_empty()
    }

    pub fn is_narrow(&self) -> bool {
        matches!(self, Edges::Narrow(_))
    }

    /// Bytes per edge: 2 narrow, 4 wide.
    pub fn bytes_per_edge(&self) -> usize {
        match self {
            Edges::Narrow(_) => 2,
            Edges::Wide(_) => 4,
        }
    }

    /// The words, at either width.
    fn words(&self) -> &Vec<u16> {
        match self {
            Edges::Narrow(w) | Edges::Wide(w) => w,
        }
    }

    /// The array, to be refilled at either width.
    pub(crate) fn into_words(self) -> Vec<u16> {
        match self {
            Edges::Narrow(w) | Edges::Wide(w) => w,
        }
    }
}

/// The two words of a wide edge naming `id`.
#[inline]
pub(crate) fn wide_words(id: u32) -> [u16; 2] {
    [id as u16, (id >> 16) as u16]
}

/// The id a wide edge's two words name.
#[inline]
pub(crate) fn wide_id([lo, hi]: [u16; 2]) -> u32 {
    u32::from(lo) | u32::from(hi) << 16
}

/// A complete program over `nranks` world ranks.
///
/// `==` and `Debug` see the encoding: records, operands entries, the
/// dependency CSR at its width, messages and memory sizes. Two builds that
/// add the same ops in the same order are equal, but a program edited with
/// [`Self::set_kind`] keeps the replaced operands entry and so may differ
/// from a fresh build of the same ops. [`Self::kind`] decodes one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub ops: Vec<Op>,
    /// The distinct ranges of the data ops, 24 bytes per entry, indexed
    /// from their records in the order they were first added. A data op
    /// shares an equal entry among the last few, so there are usually far
    /// fewer entries than data ops; entries are never rewritten.
    pub operands: Vec<Operands>,
    /// CSR offsets into `dep`, one per op plus a final `dep.len()`:
    /// op `i`'s dependencies are edges `dep_off[i]..dep_off[i + 1]`.
    pub dep_off: Vec<u32>,
    /// Every op's dependencies, concatenated in op order, at the
    /// program's width.
    pub dep: Edges,
    pub msgs: Vec<MsgMeta>,
    pub nranks: usize,
    /// Bump-allocated address-space size per rank (for seeded execution).
    pub mem_size: Vec<u64>,
}

/// The empty program over zero ranks (a valid program: `dep_off == [0]`).
impl Default for Program {
    fn default() -> Self {
        Program {
            ops: Vec::new(),
            operands: Vec::new(),
            dep_off: vec![0],
            dep: Edges::default(),
            msgs: Vec::new(),
            nranks: 0,
            mem_size: Vec::new(),
        }
    }
}

/// A program's six arrays, without the program: what a dropped
/// [`Program`] leaves in its thread's slot.
#[derive(Default)]
struct Storage {
    ops: Vec<Op>,
    operands: Vec<Operands>,
    dep_off: Vec<u32>,
    dep: Edges,
    msgs: Vec<MsgMeta>,
    mem_size: Vec<u64>,
}

impl Storage {
    const EMPTY: Storage = Storage {
        ops: Vec::new(),
        operands: Vec::new(),
        dep_off: Vec::new(),
        dep: Edges::Narrow(Vec::new()),
        msgs: Vec::new(),
        mem_size: Vec::new(),
    };

    /// Heap bytes the arrays hold, used or not.
    fn bytes(&self) -> usize {
        self.ops.capacity() * size_of::<Op>()
            + self.operands.capacity() * size_of::<Operands>()
            + self.dep_off.capacity() * size_of::<u32>()
            + self.dep.words().capacity() * size_of::<u16>()
            + self.msgs.capacity() * size_of::<MsgMeta>()
            + self.mem_size.capacity() * size_of::<u64>()
    }
}

thread_local! {
    /// The arrays of the largest program dropped on this thread and not
    /// yet refilled.
    static SLOT: Cell<Storage> = const { Cell::new(Storage::EMPTY) };
}

/// Hands the arrays to this thread's slot, which keeps the larger set.
/// During thread-local teardown the slot is gone and the arrays are
/// simply freed.
impl Drop for Program {
    fn drop(&mut self) {
        let freed = Storage {
            ops: take(&mut self.ops),
            operands: take(&mut self.operands),
            dep_off: take(&mut self.dep_off),
            dep: take(&mut self.dep),
            msgs: take(&mut self.msgs),
            mem_size: take(&mut self.mem_size),
        };
        let _ = SLOT.try_with(|slot| {
            let held = slot.take();
            slot.set(if freed.bytes() >= held.bytes() {
                freed
            } else {
                held
            });
        });
    }
}

impl Program {
    /// The empty program over `nranks` ranks, in the arrays this thread's
    /// slot holds (cleared), or in new ones when it holds none. The build
    /// starts narrow, in the edge array of either width.
    pub(crate) fn recycled(nranks: usize) -> Program {
        let Storage {
            mut ops,
            mut operands,
            mut dep_off,
            dep,
            mut msgs,
            mut mem_size,
        } = SLOT.try_with(Cell::take).unwrap_or_default();
        ops.clear();
        operands.clear();
        dep_off.clear();
        dep_off.push(0);
        let mut dep = dep.into_words();
        dep.clear();
        msgs.clear();
        mem_size.clear();
        mem_size.resize(nranks, 0);
        Program {
            ops,
            operands,
            dep_off,
            dep: Edges::Narrow(dep),
            msgs,
            nranks,
            mem_size,
        }
    }

    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.0 as usize]
    }

    /// What op `id` does, decoded from its record. Panics on a record that
    /// [`Self::validate`] rejects.
    #[inline(always)]
    pub fn kind(&self, id: OpId) -> OpKind {
        let op = &self.ops[id.0 as usize];
        let from = (op.arg >> 32) as u32;
        let [v, r, d] = op.red;
        let ranges = || {
            let i = op.arg as u32 as usize;
            let Operands {
                src_off,
                dst_off,
                len,
            } = self.operands[i];
            let dst_len = if v & SPLIT_LEN == 0 {
                len
            } else {
                self.operands[i + 1].len
            };
            (BufRange::new(src_off, len), BufRange::new(dst_off, dst_len))
        };
        let reduction = || {
            (
                v & VECTORIZED != 0,
                ReduceOp::ALL[r as usize],
                DataType::ALL[d as usize],
            )
        };
        match op.tag {
            NOP => OpKind::Nop,
            DELAY => OpKind::Delay {
                dur: Time::from_ps(op.arg),
            },
            SLEEP => OpKind::Sleep {
                dur: Time::from_ps(op.arg),
            },
            COPY => {
                let (src, dst) = ranges();
                OpKind::Copy { src, dst }
            }
            CROSS_COPY => {
                let (src, dst) = ranges();
                OpKind::CrossCopy { from, src, dst }
            }
            REDUCE => {
                let (src, dst) = ranges();
                let (vectorized, op, dtype) = reduction();
                OpKind::Reduce {
                    vectorized,
                    op,
                    dtype,
                    src,
                    dst,
                }
            }
            REDUCE_FROM => {
                let (src, dst) = ranges();
                let (vectorized, op, dtype) = reduction();
                OpKind::ReduceFrom {
                    from,
                    vectorized,
                    op,
                    dtype,
                    src,
                    dst,
                }
            }
            SEND => OpKind::Send {
                msg: MsgId(op.arg as u32),
            },
            RECV => OpKind::Recv {
                msg: MsgId(op.arg as u32),
            },
            t => unknown_tag(id, t),
        }
    }

    /// Append an op owned by `rank` doing `kind`, runnable after `deps`.
    /// Inlined so a call site with a literal kind encodes it without a
    /// branch on the kind.
    #[inline]
    pub fn push_op(&mut self, rank: u32, kind: OpKind, deps: &[OpId]) -> OpId {
        let n = self.ops.len();
        assert!(n < ID_LIMIT, "more than 2^29 ops");
        let id = OpId(n as u32);
        let op = self.encode(rank, kind);
        self.ops.push(op);
        self.push_deps(id.0, deps);
        self.dep_off
            .push(u32::try_from(self.dep.len()).expect("more than u32::MAX dependency edges"));
        id
    }

    /// Append op `id`'s dependency list, as distances back while every
    /// edge so far fits in a narrow word, else as ids.
    #[inline]
    fn push_deps(&mut self, id: u32, deps: &[OpId]) {
        let back = |d: &OpId| id.wrapping_sub(d.0);
        if let Edges::Narrow(words) = &mut self.dep {
            if deps.iter().all(|d| (1..=NARROW_MAX).contains(&back(d))) {
                words.extend(deps.iter().map(|d| back(d) as u16));
                return;
            }
            self.widen();
        }
        if let Edges::Wide(words) = &mut self.dep {
            words.extend(deps.iter().flat_map(|d| wide_words(d.0)));
        }
    }

    /// Rewrite a narrow program's edges, in place and in order, as the ids
    /// they name.
    #[cold]
    #[inline(never)]
    fn widen(&mut self) {
        if let Edges::Narrow(words) = &mut self.dep {
            words.resize(2 * words.len(), 0);
            // Back to front: edge `k`'s two words go to `2k` and `2k + 1`,
            // past every narrow word still to be read.
            for (i, w) in self.dep_off.windows(2).enumerate().rev() {
                for k in (w[0] as usize..w[1] as usize).rev() {
                    let id = (i as u32).wrapping_sub(u32::from(words[k]));
                    words[2 * k..2 * k + 2].copy_from_slice(&wide_words(id));
                }
            }
            self.dep = Edges::Wide(take(words));
        }
    }

    /// Make op `id` do `kind` instead, keeping its rank and dependencies.
    /// A data op indexes an equal operands entry among the last few or
    /// appends new ones, as [`Self::push_op`] does; its old entry stays in
    /// place, unchanged, for every other op that shares it.
    pub fn set_kind(&mut self, id: OpId, kind: OpKind) {
        let i = id.0 as usize;
        self.ops[i] = self.encode(self.ops[i].rank, kind);
    }

    /// The record of `kind` on `rank`. A data op whose ranges have one
    /// length indexes the newest of the last [`INTERN_WINDOW`] operands
    /// entries equal to them, or appends a new one; ranges of two lengths
    /// always append two fresh entries. No entry is ever rewritten.
    #[inline]
    fn encode(&mut self, rank: u32, kind: OpKind) -> Op {
        let mut split = 0;
        let mut data = |from: u32, src: BufRange, dst: BufRange| {
            let entry = Operands {
                src_off: src.off,
                dst_off: dst.off,
                len: src.len,
            };
            let n = self.operands.len();
            let window = n.saturating_sub(INTERN_WINDOW);
            let hit = if dst.len == src.len {
                self.operands[window..].iter().rposition(|e| *e == entry)
            } else {
                None
            };
            let idx = match hit {
                Some(j) => window + j,
                None => {
                    self.operands.push(entry);
                    if dst.len != src.len {
                        split = SPLIT_LEN;
                        self.operands.push(Operands {
                            src_off: 0,
                            dst_off: 0,
                            len: dst.len,
                        });
                    }
                    n
                }
            };
            let idx = u32::try_from(idx).expect("more than u32::MAX operands entries");
            u64::from(from) << 32 | u64::from(idx)
        };
        let red = |v: bool, op: ReduceOp, dtype: DataType| [u8::from(v), op as u8, dtype as u8];
        let (tag, mut red, arg) = match kind {
            OpKind::Nop => (NOP, [0; 3], 0),
            OpKind::Delay { dur } => (DELAY, [0; 3], dur.as_ps()),
            OpKind::Sleep { dur } => (SLEEP, [0; 3], dur.as_ps()),
            OpKind::Copy { src, dst } => (COPY, [0; 3], data(0, src, dst)),
            OpKind::CrossCopy { from, src, dst } => (CROSS_COPY, [0; 3], data(from, src, dst)),
            OpKind::Reduce {
                vectorized,
                op,
                dtype,
                src,
                dst,
            } => (REDUCE, red(vectorized, op, dtype), data(0, src, dst)),
            OpKind::ReduceFrom {
                from,
                vectorized,
                op,
                dtype,
                src,
                dst,
            } => (
                REDUCE_FROM,
                red(vectorized, op, dtype),
                data(from, src, dst),
            ),
            OpKind::Send { msg } => (SEND, [0; 3], u64::from(msg.0)),
            OpKind::Recv { msg } => (RECV, [0; 3], u64::from(msg.0)),
        };
        red[0] |= split;
        Op {
            rank,
            tag,
            red,
            arg,
        }
    }

    /// Why [`Self::kind`] would panic on `op`'s record, if it would.
    fn check_record(&self, op: &Op) -> Result<(), String> {
        if op.tag > RECV {
            return Err(format!("unknown kind tag {}", op.tag));
        }
        let first = op.arg as u32 as usize;
        let last = first + usize::from(op.red[0] & SPLIT_LEN != 0);
        if (COPY..=REDUCE_FROM).contains(&op.tag) && last >= self.operands.len() {
            return Err(format!(
                "operands index {last} out of range ({} entries)",
                self.operands.len()
            ));
        }
        let [_, r, d] = op.red;
        if r as usize >= ReduceOp::ALL.len() || d as usize >= DataType::ALL.len() {
            return Err(format!("unknown reduction tags {:?}", op.red));
        }
        Ok(())
    }

    /// The ops `id` depends on, in the order they were given to the
    /// builder.
    #[inline]
    pub fn deps(&self, id: OpId) -> impl ExactSizeIterator<Item = OpId> + '_ {
        let i = id.0 as usize;
        let edges = self.dep_off[i] as usize..self.dep_off[i + 1] as usize;
        edges.map(move |k| {
            OpId(match &self.dep {
                Edges::Narrow(words) => id.0.wrapping_sub(u32::from(words[k])),
                Edges::Wide(words) => wide_id([words[2 * k], words[2 * k + 1]]),
            })
        })
    }

    pub fn msg(&self, id: MsgId) -> &MsgMeta {
        &self.msgs[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Structural validation; called by the executor in debug builds and by
    /// tests. Returns a description of the first problem found, and never
    /// panics, whatever the fields hold.
    pub fn validate(&self) -> Result<(), String> {
        if self.mem_size.len() != self.nranks {
            return Err("mem_size length != nranks".into());
        }
        if self.ops.len() > ID_LIMIT || self.msgs.len() > ID_LIMIT {
            return Err(format!(
                "{} ops and {} messages: at most 2^29 of each",
                self.ops.len(),
                self.msgs.len()
            ));
        }
        self.validate_csr()?;
        let mut send_seen = vec![false; self.msgs.len()];
        let mut recv_seen = vec![false; self.msgs.len()];
        for (i, op) in self.ops.iter().enumerate() {
            if op.rank as usize >= self.nranks {
                return Err(format!("op {i}: rank {} out of range", op.rank));
            }
            for d in self.deps(OpId(i as u32)) {
                if d.0 as usize >= self.ops.len() {
                    return Err(format!("op {i}: dep {} out of range", d.0));
                }
                if d.0 as usize >= i {
                    return Err(format!("op {i}: forward/self dep on {}", d.0));
                }
            }
            let check_data = |from: u32, src: BufRange, dst: BufRange| -> Result<(), String> {
                for (r, rank, what) in [(src, from, "src"), (dst, op.rank, "dst")] {
                    if !fits(&r, self.mem_size[rank as usize]) {
                        return Err(format!(
                            "op {i}: {what} range of {} bytes at {} exceeds rank {rank} memory {}",
                            r.len, r.off, self.mem_size[rank as usize]
                        ));
                    }
                }
                if src.len != dst.len {
                    return Err(format!(
                        "op {i}: src of {} bytes but dst of {} bytes",
                        src.len, dst.len
                    ));
                }
                Ok(())
            };
            self.check_record(op).map_err(|e| format!("op {i}: {e}"))?;
            match self.kind(OpId(i as u32)) {
                OpKind::Copy { src, dst } | OpKind::Reduce { src, dst, .. } => {
                    check_data(op.rank, src, dst)?;
                }
                OpKind::CrossCopy { from, src, dst }
                | OpKind::ReduceFrom { from, src, dst, .. } => {
                    if from as usize >= self.nranks {
                        return Err(format!("op {i}: from rank {from} out of range"));
                    }
                    check_data(from, src, dst)?;
                }
                OpKind::Send { msg } => {
                    let m = msg.0 as usize;
                    if m >= self.msgs.len() {
                        return Err(format!("op {i}: msg {m} out of range"));
                    }
                    if send_seen[m] {
                        return Err(format!("op {i}: duplicate send for msg {m}"));
                    }
                    send_seen[m] = true;
                    if self.msgs[m].src != op.rank {
                        return Err(format!("op {i}: send rank != msg src"));
                    }
                }
                OpKind::Recv { msg } => {
                    let m = msg.0 as usize;
                    if m >= self.msgs.len() {
                        return Err(format!("op {i}: msg {m} out of range"));
                    }
                    if recv_seen[m] {
                        return Err(format!("op {i}: duplicate recv for msg {m}"));
                    }
                    recv_seen[m] = true;
                    if self.msgs[m].dst != op.rank {
                        return Err(format!("op {i}: recv rank != msg dst"));
                    }
                }
                OpKind::Nop | OpKind::Delay { .. } | OpKind::Sleep { .. } => {}
            }
        }
        for (m, meta) in self.msgs.iter().enumerate() {
            if !send_seen[m] || !recv_seen[m] {
                return Err(format!("msg {m}: missing send or recv op"));
            }
            if meta.src == meta.dst {
                return Err(format!("msg {m}: self-message"));
            }
            if let Some((sbuf, dbuf)) = meta.payload {
                if sbuf.len != meta.bytes || dbuf.len != meta.bytes {
                    return Err(format!(
                        "msg {m}: payload ranges of {} and {} bytes in a {}-byte message",
                        sbuf.len, dbuf.len, meta.bytes
                    ));
                }
                if !fits(&sbuf, self.mem_size[meta.src as usize]) {
                    return Err(format!("msg {m}: send range out of range"));
                }
                if !fits(&dbuf, self.mem_size[meta.dst as usize]) {
                    return Err(format!("msg {m}: receive range out of range"));
                }
            }
        }
        Ok(())
    }

    /// The CSR invariants [`Self::deps`] relies on: one offset per op plus
    /// a final one, starting at 0, never decreasing, ending at `dep.len()`,
    /// and two words per wide edge.
    fn validate_csr(&self) -> Result<(), String> {
        let n = self.ops.len();
        if self.dep_off.len() != n + 1 {
            return Err(format!(
                "dep_off has {} entries, expected ops + 1 = {}",
                self.dep_off.len(),
                n + 1
            ));
        }
        if self.dep_off[0] != 0 {
            return Err(format!("dep_off[0] = {}, expected 0", self.dep_off[0]));
        }
        if let Some(i) = self.dep_off.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("dep_off decreases at op {i}"));
        }
        if let Edges::Wide(words) = &self.dep {
            if words.len() % 2 != 0 {
                return Err(format!(
                    "wide dep has {} words, not two per edge",
                    words.len()
                ));
            }
        }
        if self.dep_off[n] as usize != self.dep.len() {
            return Err(format!(
                "dep_off ends at {}, but dep has {} entries",
                self.dep_off[n],
                self.dep.len()
            ));
        }
        Ok(())
    }
}

#[cold]
#[inline(never)]
fn unknown_tag(id: OpId, tag: u8) -> ! {
    panic!("op {}: unknown kind tag {tag}", id.0)
}

/// `r` lies within an address space of `size` bytes (overflow-safe).
fn fits(r: &BufRange, size: u64) -> bool {
    r.off.checked_add(r.len).is_some_and(|end| end <= size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_prog(nranks: usize) -> Program {
        let mut p = Program::default();
        p.nranks = nranks;
        p.mem_size = vec![0; nranks];
        p
    }

    #[test]
    fn empty_program_is_valid() {
        assert!(empty_prog(2).validate().is_ok());
        assert_eq!(Program::default().validate(), Ok(()));
        assert!(Program::default().is_empty());
    }

    #[test]
    fn forward_dep_rejected() {
        let mut p = empty_prog(1);
        p.push_op(0, OpKind::Nop, &[OpId(0)]);
        assert!(p.validate().unwrap_err().contains("forward/self dep"));
        // A self or forward edge after narrow ones widens the program,
        // keeps the earlier edges and is still reported.
        for (bad, want) in [
            (2, "op 2: forward/self dep on 2"),
            (3, "op 2: forward/self dep on 3"),
        ] {
            let mut p = empty_prog(1);
            p.push_op(0, OpKind::Nop, &[]);
            p.push_op(0, OpKind::Nop, &[OpId(0)]);
            assert!(p.dep.is_narrow());
            p.push_op(0, OpKind::Nop, &[OpId(1), OpId(bad)]);
            assert!(!p.dep.is_narrow());
            p.push_op(0, OpKind::Nop, &[OpId(2)]);
            assert!(p.deps(OpId(1)).eq([OpId(0)]));
            assert!(p.deps(OpId(2)).eq([OpId(1), OpId(bad)]));
            assert!(p.deps(OpId(3)).eq([OpId(2)]));
            assert_eq!(p.validate().unwrap_err(), want);
        }
    }

    /// A program of ops on rank 0, each depending on the one before, and
    /// then an op depending on the last of them and on op 0, `back` ops
    /// before it.
    fn reaching_back(back: u32) -> Program {
        let mut p = empty_prog(1);
        p.push_op(0, OpKind::Nop, &[]);
        for i in 1..back {
            p.push_op(0, OpKind::Nop, &[OpId(i - 1)]);
        }
        p.push_op(0, OpKind::Nop, &[OpId(back - 1), OpId(0)]);
        p
    }

    #[test]
    fn an_edge_past_65_535_ops_widens_the_program_and_keeps_every_edge() {
        for (back, narrow) in [(65_535, true), (65_536, false)] {
            let mut p = reaching_back(back);
            assert_eq!(p.dep.is_narrow(), narrow, "{back} ops back");
            assert_eq!(p.dep.bytes_per_edge(), if narrow { 2 } else { 4 });
            assert_eq!(p.dep.len(), back as usize + 1);
            assert_eq!(p.validate(), Ok(()));
            assert_eq!(p.deps(OpId(0)).len(), 0);
            for i in 1..back {
                assert!(p.deps(OpId(i)).eq([OpId(i - 1)]), "op {i}");
            }
            let last = OpId(back);
            assert_eq!(p.deps(last).len(), 2);
            assert!(p.deps(last).eq([OpId(back - 1), OpId(0)]));
            // Two builds of the same ops are equal.
            assert_eq!(reaching_back(back), p);
            // A short edge after a long one leaves the program at its width.
            p.push_op(0, OpKind::Nop, &[last]);
            assert_eq!(p.dep.is_narrow(), narrow);
            assert!(p.deps(OpId(back + 1)).eq([last]));
            assert_eq!(p.validate(), Ok(()));
        }
    }

    #[test]
    fn malformed_csr_is_an_error_not_a_panic() {
        // A valid base: op 1 depends on op 0.
        let mut base = empty_prog(1);
        base.push_op(0, OpKind::Nop, &[]);
        base.push_op(0, OpKind::Nop, &[OpId(0)]);
        assert_eq!(base.validate(), Ok(()));
        assert!(base.dep.is_narrow());
        assert!(base.deps(OpId(1)).eq([OpId(0)]));
        type Corrupt = fn(&mut Program);
        let cases: [(&str, Corrupt, &str); 14] = [
            ("no offsets", |p| p.dep_off.clear(), "dep_off has 0 entries"),
            (
                "offset missing",
                |p| {
                    p.dep_off.pop();
                },
                "dep_off has 2",
            ),
            ("extra offset", |p| p.dep_off.push(1), "dep_off has 4"),
            ("nonzero start", |p| p.dep_off[0] = 1, "dep_off[0] = 1"),
            (
                "decreasing",
                |p| p.dep_off = vec![0, 1, 0],
                "dep_off decreases at op 1",
            ),
            (
                "short dep",
                |p| p.dep = Edges::default(),
                "dep has 0 entries",
            ),
            (
                "dep out of range",
                |p| p.dep = Edges::Wide(vec![7, 0]),
                "out of range",
            ),
            (
                "odd wide words",
                |p| p.dep = Edges::Wide(vec![0]),
                "wide dep has 1 words, not two per edge",
            ),
            (
                "zero narrow word",
                |p| p.dep = Edges::Narrow(vec![0]),
                "op 1: forward/self dep on 1",
            ),
            (
                "narrow word past op 0",
                |p| p.dep = Edges::Narrow(vec![2]),
                "op 1: dep 4294967295 out of range",
            ),
            (
                "unknown tag",
                |p| p.ops[1].tag = 200,
                "op 1: unknown kind tag 200",
            ),
            (
                "operands out of range",
                |p| {
                    let empty = BufRange::new(0, 0);
                    let copy = OpKind::Copy {
                        src: empty,
                        dst: empty,
                    };
                    p.set_kind(OpId(1), copy);
                    p.operands.clear();
                },
                "op 1: operands index 0 out of range (0 entries)",
            ),
            (
                "second operands entry out of range",
                |p| {
                    let copy = OpKind::Copy {
                        src: BufRange::new(0, 8),
                        dst: BufRange::new(0, 4),
                    };
                    p.set_kind(OpId(1), copy);
                    p.operands.pop();
                },
                "op 1: operands index 1 out of range (1 entries)",
            ),
            (
                "unknown reduction tags",
                |p| {
                    let empty = BufRange::new(0, 0);
                    let sum = OpKind::Reduce {
                        vectorized: false,
                        op: ReduceOp::Sum,
                        dtype: DataType::Uint8,
                        src: empty,
                        dst: empty,
                    };
                    p.set_kind(OpId(0), sum);
                    p.ops[0].red[2] = 9;
                },
                "op 0: unknown reduction tags [0, 0, 9]",
            ),
        ];
        for (name, corrupt, want) in cases {
            let mut p = base.clone();
            corrupt(&mut p);
            let err = p.validate().expect_err(name);
            assert!(err.contains(want), "{name}: {err}");
        }
    }

    #[test]
    fn missing_recv_rejected() {
        let mut p = empty_prog(2);
        p.msgs.push(MsgMeta {
            src: 0,
            dst: 1,
            bytes: 8,
            payload: None,
        });
        p.push_op(0, OpKind::Send { msg: MsgId(0) }, &[]);
        assert!(p.validate().unwrap_err().contains("missing send or recv"));
    }

    #[test]
    fn buffer_overflow_rejected() {
        let mut p = empty_prog(1);
        p.mem_size[0] = 4;
        let copy = |src| OpKind::Copy {
            src,
            dst: BufRange::new(0, 4),
        };
        p.push_op(0, copy(BufRange::new(0, 8)), &[]);
        assert!(p.validate().is_err());
        // An end offset past u64::MAX is an error, not an overflow panic.
        p.set_kind(OpId(0), copy(BufRange::new(u64::MAX, 4)));
        assert!(p.validate().unwrap_err().contains("exceeds rank 0 memory"));
    }

    #[test]
    fn length_mismatches_are_errors_not_panics() {
        // A data op whose ranges differ in length.
        let mut p = empty_prog(1);
        p.mem_size[0] = 16;
        let copy = OpKind::Copy {
            src: BufRange::new(0, 8),
            dst: BufRange::new(8, 4),
        };
        p.push_op(0, copy, &[]);
        let err = p.validate().unwrap_err();
        assert!(err.contains("src of 8 bytes but dst of 4 bytes"), "{err}");
        // A message whose payload ranges differ in length, from each other
        // or from its size.
        for (slen, dlen) in [(8, 4), (4, 4)] {
            let p = mismatched_message(slen, dlen);
            let err = p.validate().unwrap_err();
            assert!(err.contains("in a 8-byte message"), "{err}");
        }
        assert_eq!(mismatched_message(8, 8).validate(), Ok(()));
    }

    /// An 8-byte message from rank 0 to rank 1 whose payload ranges are
    /// `slen` and `dlen` bytes long.
    fn mismatched_message(slen: u64, dlen: u64) -> Program {
        let mut p = empty_prog(2);
        p.mem_size = vec![8, 8];
        p.msgs.push(MsgMeta {
            src: 0,
            dst: 1,
            bytes: 8,
            payload: Some((BufRange::new(0, slen), BufRange::new(0, dlen))),
        });
        p.push_op(0, OpKind::Send { msg: MsgId(0) }, &[]);
        p.push_op(1, OpKind::Recv { msg: MsgId(0) }, &[]);
        p
    }

    #[test]
    fn op_is_16_bytes_and_operands_24() {
        // A rank, four tag bytes and one payload word; a data op's two
        // offsets and its one length live in the side table.
        assert_eq!(std::mem::size_of::<Op>(), 16);
        assert_eq!(std::mem::size_of::<Operands>(), 24);
    }

    fn copy(src: u64, dst: u64, len: u64) -> OpKind {
        OpKind::Copy {
            src: BufRange::new(src, len),
            dst: BufRange::new(dst, len),
        }
    }

    /// Push `kinds` on rank 0 of an empty program, check each decodes to
    /// what it was given, and return the program.
    fn pushed(kinds: &[OpKind]) -> Program {
        let mut p = empty_prog(1);
        for &k in kinds {
            p.push_op(0, k, &[]);
        }
        for (i, &k) in kinds.iter().enumerate() {
            assert_eq!(p.kind(OpId(i as u32)), k, "op {i}");
        }
        p
    }

    #[test]
    fn a_run_of_equal_data_ops_stores_one_entry() {
        let sum = |src, dst| OpKind::ReduceFrom {
            from: 7,
            vectorized: true,
            op: ReduceOp::Max,
            dtype: DataType::Float64,
            src: BufRange::new(src, 8),
            dst: BufRange::new(dst, 8),
        };
        // Kinds and `from` ranks differ; the ranges are one triple.
        let p = pushed(&[copy(0, 8, 8), sum(0, 8), copy(0, 8, 8), sum(0, 8)]);
        assert_eq!(p.operands.len(), 1);
        // Triples that differ in one field are distinct entries.
        let p = pushed(&[copy(0, 8, 8), copy(0, 16, 8), copy(8, 16, 8), copy(0, 8, 4)]);
        assert_eq!(p.operands.len(), 4);
        // The SM reduce's alternation: two triples, taken in turn.
        let alternating = [copy(0, 64, 8), sum(8, 64)].repeat(3);
        assert_eq!(pushed(&alternating).operands.len(), 2);
        // Four triples in turn still hit; a fifth falls out of the window.
        let cycle = |n: u64| -> Vec<OpKind> { (0..3 * n).map(|i| copy(i % n, 0, 1)).collect() };
        assert_eq!(pushed(&cycle(4)).operands.len(), 4);
        assert_eq!(pushed(&cycle(5)).operands.len(), 15);
    }

    #[test]
    fn set_kind_never_edits_a_shared_entry() {
        let mut p = pushed(&[copy(0, 8, 8), copy(0, 8, 8), copy(16, 24, 8)]);
        assert_eq!(p.operands.len(), 2);
        // Op 0 moves to new ranges: op 1 keeps the entry they shared.
        p.set_kind(OpId(0), copy(32, 40, 8));
        assert_eq!(p.kind(OpId(0)), copy(32, 40, 8));
        assert_eq!(p.kind(OpId(1)), copy(0, 8, 8));
        assert_eq!(p.operands.len(), 3);
        // Moving to ranges in the window reuses their entry.
        p.set_kind(OpId(1), copy(16, 24, 8));
        assert_eq!(p.operands.len(), 3);
        let want = [copy(32, 40, 8), copy(16, 24, 8), copy(16, 24, 8)];
        for (i, k) in want.into_iter().enumerate() {
            assert_eq!(p.kind(OpId(i as u32)), k, "op {i}");
        }
    }

    #[test]
    fn ranges_of_two_lengths_get_two_fresh_entries() {
        let split = OpKind::Copy {
            src: BufRange::new(0, 8),
            dst: BufRange::new(8, 4),
        };
        // Its first entry, `(0, 8, 8)`, is already in the window.
        let p = pushed(&[copy(0, 8, 8), split, copy(0, 8, 8)]);
        let entry = |src_off, dst_off, len| Operands {
            src_off,
            dst_off,
            len,
        };
        assert_eq!(
            p.operands,
            [entry(0, 8, 8), entry(0, 8, 8), entry(0, 0, 4)],
            "the split op's entries are fresh and consecutive"
        );
        assert_eq!(p.ops[1].arg as u32, 1);
        // A later equal-length op shares the newest equal entry.
        assert_eq!(p.ops[2].arg as u32, 1);
    }

    #[test]
    fn dropping_a_program_during_thread_local_teardown_does_not_panic() {
        /// Drops a program, and builds and drops another, from a
        /// thread-local destructor.
        struct Holder(Program);
        impl Drop for Holder {
            fn drop(&mut self) {
                drop(take(&mut self.0));
                let mut b = crate::ProgramBuilder::new(2);
                b.nop(1, &[]);
                drop(b.build());
            }
        }
        thread_local! {
            static HELD: std::cell::RefCell<Option<Holder>> = const { std::cell::RefCell::new(None) };
        }
        // Thread-locals are destroyed in reverse order of first use, so
        // the two orders drop the holder before and after the slot.
        for slot_first in [true, false] {
            std::thread::spawn(move || {
                let hold = || HELD.with(|h| *h.borrow_mut() = Some(Holder(empty_prog(3))));
                if slot_first {
                    drop(empty_prog(1));
                    hold();
                } else {
                    hold();
                    drop(empty_prog(1));
                }
            })
            .join()
            .expect("thread teardown does not panic");
        }
    }

    #[test]
    fn self_message_rejected() {
        let mut p = empty_prog(2);
        p.msgs.push(MsgMeta {
            src: 1,
            dst: 1,
            bytes: 8,
            payload: None,
        });
        p.push_op(1, OpKind::Send { msg: MsgId(0) }, &[]);
        p.push_op(1, OpKind::Recv { msg: MsgId(0) }, &[]);
        assert!(p.validate().unwrap_err().contains("self-message"));
    }
}
