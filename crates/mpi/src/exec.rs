//! The discrete-event executor.
//!
//! Runs a [`Program`] against a [`Machine`], producing per-op virtual
//! completion times ([`execute`]) and, when the caller seeds memory, real
//! buffer contents ([`execute_seeded`]). The executor implements the P2P
//! transport — eager and rendezvous protocols over the NIC/bus/CPU
//! resources — and the dependency propagation that turns HAN's task DAGs
//! into pipelined execution.
//!
//! ## Transport model
//!
//! *Inter-node eager* (`bytes <= eager_limit`): the sender CPU copies the
//! payload into a bounce buffer and returns; the NIC streams it out
//! immediately (no receiver involvement); the receiver CPU copies it out of
//! the bounce buffer once both the data and the receive are present.
//!
//! *Inter-node rendezvous*: send and receive first handshake (RTS/CTS,
//! [`P2pParams::rndv_handshake`]); the NIC then moves the payload zero-copy
//! by DMA. DMA traffic occupies the *memory bus* on both endpoints — the
//! paper's first reason why `ib` does not overlap perfectly with `sb`
//! ("ib needs to push the data back to memory which competes with sb for
//! the memory bus", section III-A2).
//!
//! *Intra-node*: eager messages take two copies through shared memory
//! (sender copy-in, receiver copy-out); rendezvous messages take a single
//! receiver-side copy (CMA/KNEM-style), started after both sides are
//! posted.
//!
//! Every CPU charge goes through the rank's FIFO CPU resource — the
//! single-threaded progression engine — which is the paper's second reason
//! for imperfect overlap ("ib and sb share the same CPU resource to
//! progress").
//!
//! ## Executor core
//!
//! Every execution runs on a persistent, thread-local executor rather than
//! a per-run stack value. All per-op and per-message state lives in flat
//! vectors indexed by `u32` ids, cleared — not reallocated — between runs
//! (the per-op records make the round trip through the report, below).
//! Everything the executor keeps per op is one 16-byte record: the ready
//! time, the pending-dependency count and a dispatch word. The record has
//! no rank field: a Delay or data op carries its rank in the spare high
//! bits of its dispatch word, and the others read theirs from the program
//! (the Send and Recv handlers, from the message). The structure derived
//! from the program's dependency CSR (children CSR, zero-in-degree roots,
//! message endpoints) lives in a `DepGraph` that is rebuilt on every run
//! into the same allocations. The children take the width of the
//! program's edges ([`Edges`]): a child of a narrow program is stored as
//! its distance forward, which is its edge's distance back, so both
//! directions cost two bytes per edge.
//!
//! | array | bytes | per |
//! |---|---|---|
//! | op records | 16 | op: ready time, pending dependencies, dispatch word |
//! | `child_off` | 4 | op, plus one |
//! | `child` | 2 or 4 | dependency edge: at its program's width, the distance forward to the child or its op id |
//! | `roots` | 4 | op without dependencies |
//! | message timestamps | 32 | message: send and receive posted, arrival, transmit end |
//! | message endpoints | 8 | message: its send and receive op |
//! | payload slots | 24 | message, in seeded runs only |
//!
//! Releasing a child compares the finished op's rank with the child's,
//! in `Ranks::release`. A Delay or data child's rank comes from its own
//! dispatch word, loaded with the record the release updates anyway; only
//! a Nop, Sleep, Send or Recv child's is read from the program.
//!
//! When an op finishes, its record's ready time becomes its finish time,
//! and its rank's finish time takes the max with it. The [`Report`] then
//! takes the per-op records themselves rather than a copy of their finish
//! times. A dropped report hands the records back to a one-slot
//! thread-local that keeps the larger array it is given, and the next run
//! on that thread refills them; while a report is alive, the next run on
//! its thread allocates a fresh array.
//!
//! Before a run, `prepare` resolves every op once: it decodes the op's
//! 16-byte record with [`Program::kind`] (a data op's ranges come from the
//! program's operands side table) and packs a dispatch tag (3 bits) and an
//! argument (29 bits) into the record's dispatch word. For Sleep the
//! argument indexes a per-program table of distinct `(cpu, bus)`
//! durations, and for Send and Recv it is the message id. For Delay and
//! the four data kinds it holds the op's rank above its cost index: the
//! low `rank_shift` bits index the table, and the bits above are enough
//! for every rank of the program (17 and 12 on 4096 ranks). An op
//! whose index does not fit below its rank gets its tag's `WIDE`
//! variant, whose argument is the index alone, and its rank is read from
//! the program. The ready handler then charges resources from the table
//! without reading the `Op`, the operands or the topology; only seeded
//! execution decodes a data op a second time, to move its bytes.

use crate::buffer::Memory;
use crate::program::{wide_id, wide_words, Edges, MsgId, OpId, OpKind, Program, ID_LIMIT};
use han_machine::{Machine, P2pParams, RailPolicy, MAX_LEVELS};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::mem::take;
use std::sync::atomic::{AtomicU64, Ordering};

use han_sim::{EngineStats, EventQueue, Time};

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Point-to-point protocol parameters (per MPI library flavour).
    pub p2p: P2pParams,
    /// Per-rank start skew: ops without dependencies on rank `r` become
    /// ready at `start_times[r]`. Used by the task benchmarks that must
    /// "delay the participation of each process by the duration of the
    /// ib(0) step" (paper section III-A2) and by imbalance injection.
    pub start_times: Option<Vec<Time>>,
}

impl ExecOpts {
    /// P2P parameters, no start skew.
    pub fn timing(p2p: P2pParams) -> Self {
        ExecOpts {
            p2p,
            start_times: None,
        }
    }

    pub fn with_skew(mut self, start_times: Vec<Time>) -> Self {
        self.start_times = Some(start_times);
        self
    }

    /// When `rank` arrives: no op on it is ready earlier.
    pub(crate) fn start_time(&self, rank: u32) -> Time {
        self.start_times
            .as_ref()
            .map_or(Time::ZERO, |st| st[rank as usize])
    }
}

/// Result of executing a program.
///
/// A report owns the executor's per-op records, each holding its op's
/// finish time; dropping it hands them back to its thread for the next
/// run to refill.
#[derive(Debug, Clone)]
pub struct Report {
    ops: Vec<OpState>,
    /// Completion time of the last op on each rank.
    pub rank_finish: Vec<Time>,
    /// Completion time of the whole program: `max(rank_finish)`. This is
    /// the cost definition the paper adopts from IMB/OSU ("the longest
    /// time among all the processes").
    pub makespan: Time,
    /// Number of simulator events processed (engine statistic).
    pub events: u64,
    /// Event-engine counters for this execution (pushes, pops, clamped
    /// past-scheduled events, peak queue depth, batch-drain efficacy).
    pub engine: EngineStats,
}

impl Report {
    /// Finish time of a specific op (e.g. a task's join nop).
    pub fn finish(&self, op: OpId) -> Time {
        self.ops[op.0 as usize].at
    }

    /// Finish time of every op, in op-id order (differential oracles).
    pub fn op_finishes(&self) -> impl ExactSizeIterator<Item = Time> + '_ {
        self.ops.iter().map(|op| op.at)
    }
}

/// Hands the per-op records to this thread's slot, which keeps the
/// larger array. During thread-local teardown the slot is gone and the
/// records are simply freed.
impl Drop for Report {
    fn drop(&mut self) {
        let freed = take(&mut self.ops);
        let _ = SPARE_OPS.try_with(|slot| {
            let held = slot.take();
            slot.set(if freed.capacity() >= held.capacity() {
                freed
            } else {
                held
            });
        });
    }
}

/// Process-wide event-engine totals, accumulated across every execution
/// (all threads). `clamped > 0` means some event was scheduled in the past
/// and silently clamped — a simulator bug that release builds would
/// otherwise hide.
static TOTAL_PUSHES: AtomicU64 = AtomicU64::new(0);
static TOTAL_POPS: AtomicU64 = AtomicU64::new(0);
static TOTAL_CLAMPED: AtomicU64 = AtomicU64::new(0);
static TOTAL_MAX_DEPTH: AtomicU64 = AtomicU64::new(0);
static TOTAL_BATCHED_POPS: AtomicU64 = AtomicU64::new(0);
static TOTAL_MAX_BATCH: AtomicU64 = AtomicU64::new(0);

fn accumulate_engine_totals(s: &EngineStats) {
    TOTAL_PUSHES.fetch_add(s.pushes, Ordering::Relaxed);
    TOTAL_POPS.fetch_add(s.pops, Ordering::Relaxed);
    TOTAL_CLAMPED.fetch_add(s.clamped, Ordering::Relaxed);
    TOTAL_MAX_DEPTH.fetch_max(s.max_depth, Ordering::Relaxed);
    TOTAL_BATCHED_POPS.fetch_add(s.batched_pops, Ordering::Relaxed);
    TOTAL_MAX_BATCH.fetch_max(s.max_batch, Ordering::Relaxed);
}

/// Snapshot of the process-wide engine totals.
pub fn engine_totals() -> EngineStats {
    EngineStats {
        pushes: TOTAL_PUSHES.load(Ordering::Relaxed),
        pops: TOTAL_POPS.load(Ordering::Relaxed),
        clamped: TOTAL_CLAMPED.load(Ordering::Relaxed),
        max_depth: TOTAL_MAX_DEPTH.load(Ordering::Relaxed),
        batched_pops: TOTAL_BATCHED_POPS.load(Ordering::Relaxed),
        max_batch: TOTAL_MAX_BATCH.load(Ordering::Relaxed),
    }
}

/// Reset the process-wide engine totals (benchmark harnesses).
pub fn reset_engine_totals() {
    TOTAL_PUSHES.store(0, Ordering::Relaxed);
    TOTAL_POPS.store(0, Ordering::Relaxed);
    TOTAL_CLAMPED.store(0, Ordering::Relaxed);
    TOTAL_MAX_DEPTH.store(0, Ordering::Relaxed);
    TOTAL_BATCHED_POPS.store(0, Ordering::Relaxed);
    TOTAL_MAX_BATCH.store(0, Ordering::Relaxed);
}

thread_local! {
    static TLS_EXEC: RefCell<Executor> = RefCell::new(Executor::default());
    /// The per-op records of the largest report dropped on this thread
    /// and not yet refilled.
    static SPARE_OPS: Cell<Vec<OpState>> = const { Cell::new(Vec::new()) };
}

/// Execute `prog` on `machine` (resources are reset first), modelling
/// resource occupancy only: no payload byte is read or copied.
///
/// Routed through a thread-local persistent executor, so repeated
/// executions reuse every state vector's allocation.
pub fn execute(machine: &mut Machine, prog: &Program, opts: &ExecOpts) -> Report {
    TLS_EXEC.with(|e| e.borrow_mut().run(machine, prog, opts, None).0)
}

/// [`execute`], additionally moving real bytes through per-rank memories
/// that `seed` initializes; returns the final memories (testing and
/// correctness harnesses). Virtual times are bit-identical to
/// [`execute`]'s: payload movement never influences resource occupancy.
pub fn execute_seeded(
    machine: &mut Machine,
    prog: &Program,
    opts: &ExecOpts,
    seed: impl FnOnce(&mut Memory),
) -> (Report, Memory) {
    let mut mem = Memory::new(&prog.mem_size);
    seed(&mut mem);
    TLS_EXEC.with(|e| {
        let (report, mem) = e.borrow_mut().run(machine, prog, opts, Some(mem));
        (report, mem.expect("seeded execution produces memory"))
    })
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// All dependencies of the op are satisfied.
    Ready(OpId),
    /// The send-side CPU phase of a message completed.
    SendPosted(MsgId),
    /// Both sides of a rendezvous are posted: the receiver's CPU must
    /// progress the CTS response before data can flow.
    RndvCts(MsgId),
    /// Begin NIC transmission (inter-node).
    TxStart(MsgId),
    /// Begin NIC reception (inter-node, cut-through: latency after tx start).
    RxStart(MsgId),
    /// Payload fully arrived at the destination endpoint.
    Arrived(MsgId),
    /// Begin the single receiver-side copy (intra-node rendezvous).
    IntraCopy(MsgId),
    /// The op is complete; propagate to dependents.
    Finish(OpId),
}

/// "No entry" sentinel for `u32` id slots in [`DepGraph`].
const NONE_U32: u32 = u32::MAX;

/// "Not yet happened" sentinel for per-op finish and per-message
/// timestamps (the virtual clock never legitimately reaches `Time::MAX`).
const UNSET: Time = Time::MAX;

/// Bus traffic factor for reductions: operands are read and the result
/// written, ~2 bytes of bus traffic per reduced byte.
const REDUCE_BUS_FACTOR: u64 = 2;

/// Compact `OpKind` dispatch tags, the top 3 bits of `OpState::dispatch`.
const TAG_NOP: u32 = 0;
const TAG_SLEEP: u32 = 1;
const TAG_SEND: u32 = 2;
const TAG_RECV: u32 = 3;
/// Delay: a CPU charge on the op's rank. Its argument, like a data op's,
/// packs the rank above the cost index (`Executor::rank_shift`).
const TAG_DELAY: u32 = 4;
/// Copy, CrossCopy, Reduce and ReduceFrom: a CPU charge, and a bus charge
/// that starts with it.
const TAG_DATA: u32 = 5;
/// Set in a Delay or data tag whose rank and cost index do not fit in
/// one argument: the argument is the cost index alone, and the rank is
/// read from the program.
const WIDE: u32 = 2;

/// Width of the argument below the 3-bit tag of a dispatch word.
const ID_BITS: u32 = ID_LIMIT.trailing_zeros();
const ID_MASK: u32 = (1 << ID_BITS) - 1;

/// Cost classes of [`CostTable`]: ops of one class at one level cost the
/// same for the same size. A vectorized reduction is `CLASS_REDUCE + 1`.
const CLASS_FIXED: usize = 0;
const CLASS_COPY: usize = 1;
const CLASS_REDUCE: usize = 2;
const NCLASSES: usize = 4;

/// Everything the executor keeps per op, in one 16-byte record.
#[derive(Debug, Clone, Copy)]
struct OpState {
    /// Latest dependency release so far, floored at the rank's start time;
    /// once the op finishes, its finish time.
    at: Time,
    /// Dependencies not yet finished.
    indeg: u32,
    /// The op's dispatch tag (`TAG_*`, top 3 bits) and argument (low 29
    /// bits): the message id of a Send/Recv, the cost index of a Sleep,
    /// and the rank and cost index of a Delay or data op.
    dispatch: u32,
}

/// CPU and memory-bus durations of a non-message op (`bus` is zero for
/// Sleep and Delay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Cost {
    cpu: Time,
    bus: Time,
}

/// One program's distinct non-message op costs on one machine.
#[derive(Debug, Default)]
struct CostTable {
    costs: Vec<Cost>,
    ids: HashMap<Cost, u32>,
    /// Last size (or duration) and cost index per class and level: runs
    /// of equal-sized ops skip the `Time::for_bytes` divisions and the
    /// hash lookup.
    memo: [[Option<(u64, u32)>; MAX_LEVELS]; NCLASSES],
}

impl CostTable {
    fn clear(&mut self) {
        self.costs.clear();
        self.ids.clear();
        self.memo = Default::default();
    }

    #[inline]
    fn get(&self, id: u32) -> Cost {
        self.costs[id as usize]
    }

    /// Index of the cost of a class-`class` op of size `key` (bytes, or
    /// picoseconds for `CLASS_FIXED`) at link level `lvl`.
    fn intern(&mut self, m: &Machine, class: usize, lvl: usize, key: u64) -> u32 {
        if let Some((k, id)) = self.memo[class][lvl] {
            if k == key {
                return id;
            }
        }
        let cost = op_cost(m, class, lvl, key);
        let id = *self.ids.entry(cost).or_insert_with(|| {
            self.costs.push(cost);
            (self.costs.len() - 1) as u32
        });
        self.memo[class][lvl] = Some((key, id));
        id
    }
}

/// Per-rank lookups resolved once per run, so the hot loop derives no
/// node or level from the topology.
#[derive(Debug, Default)]
pub(crate) struct Ranks {
    /// Memory-bus resource id of each rank's node.
    bus: Vec<u32>,
    /// Innermost shared-memory domain of each rank: two ranks in one
    /// domain link at the innermost level.
    domain: Vec<u32>,
}

impl Ranks {
    pub(crate) fn resolve(&mut self, m: &Machine, nranks: usize) {
        self.bus.clear();
        self.bus
            .extend((0..nranks).map(|r| m.bus(m.topo.node_of(r)) as u32));
        self.domain.clear();
        self.domain
            .extend((0..nranks).map(|r| m.topo.sm_domain_of(r) as u32));
    }

    /// The hierarchy level whose link two ranks of one node use. On a
    /// uniform machine the level's parameters carry exactly the values the
    /// single `NodeParams`/`NetParams` pair implies, so level-indexed
    /// costing is bit-identical to the historical model.
    #[inline]
    fn link_level(&self, m: &Machine, a: u32, b: u32) -> usize {
        debug_assert!(
            m.topo.same_node(a as usize, b as usize),
            "ranks {a} and {b} are on different nodes"
        );
        if self.domain[a as usize] == self.domain[b as usize] {
            m.topo.depth() - 1
        } else {
            m.topo.link_level(a as usize, b as usize)
        }
    }

    /// When a dependency that finished at `t` on rank `from` releases an
    /// op on rank `to`. Same-rank dependencies release at once; cross-rank
    /// ones model shared-memory flags and pay the latency of the level
    /// linking the two ranks. Cross-node dependencies must be expressed as
    /// messages.
    #[inline]
    pub(crate) fn release(&self, m: &Machine, from: u32, to: u32, t: Time) -> Time {
        if from == to {
            t
        } else {
            t + self.flag_latency(m, from, to)
        }
    }

    /// Latency of a synchronization flag between two ranks of one node:
    /// the latency of the level linking them.
    #[inline]
    fn flag_latency(&self, m: &Machine, a: u32, b: u32) -> Time {
        m.levels.get(self.link_level(m, a, b)).latency
    }
}

/// The rank of op `idx`, whose dispatch word is `dispatch`: packed in
/// the word for a Delay or data op that is not `WIDE` (its argument's
/// bits from `rank_shift` up), else read from the program.
#[inline]
fn rank_of(prog: &Program, idx: usize, dispatch: u32, rank_shift: u32) -> u32 {
    let tag = dispatch >> ID_BITS;
    if tag >= TAG_DELAY && tag & WIDE == 0 {
        (dispatch & ID_MASK) >> rank_shift
    } else {
        prog.ops[idx].rank
    }
}

/// Cost of a class-`class` op of size `key` (bytes, or picoseconds for
/// `CLASS_FIXED`) at link level `lvl`. On uniform machines every level
/// carries exactly the old bus/cross-socket rates; heterogeneous levels add
/// a launch overhead and their own bandwidth.
fn op_cost(m: &Machine, class: usize, lvl: usize, key: u64) -> Cost {
    let lp = m.levels.get(lvl);
    match class {
        CLASS_FIXED => Cost {
            cpu: Time::from_ps(key),
            bus: Time::ZERO,
        },
        CLASS_COPY => Cost {
            cpu: m.node.copy_time(key) + lp.launch,
            bus: lp.xfer_time(key),
        },
        _ => Cost {
            cpu: lp.reduce_time(key, class > CLASS_REDUCE) + lp.launch,
            bus: lp.xfer_time(key * REDUCE_BUS_FACTOR),
        },
    }
}

/// Dependency structure derived from a program's CSR: children CSR,
/// message endpoints, zero-in-degree roots. Rebuilt from
/// `prog.dep_off`/`prog.dep` on every run; only the allocations persist.
#[derive(Debug, Default)]
struct DepGraph {
    /// Children (reverse dependencies) in CSR form, at the program's
    /// width: op `i`'s children are edges `child_off[i]..child_off[i + 1]`.
    child_off: Vec<u32>,
    child: Edges,
    msg_send_op: Vec<u32>,
    msg_recv_op: Vec<u32>,
    /// Ops with no dependencies, in op-id order: the ready-queue seeds.
    roots: Vec<u32>,
}

impl DepGraph {
    /// Rebuild the children CSR from `prog`'s dependency CSR, reusing the
    /// allocations. A counting sort leaves `child_off[d]` at the end of
    /// `d`'s block; filling back to front then walks each block down to
    /// its start, so every list comes out in ascending op order with no
    /// separate cursor array.
    fn build_children(&mut self, prog: &Program) {
        let off = &mut self.child_off;
        off.clear();
        off.resize(prog.ops.len() + 1, 0);
        // One array, refilled at the program's width.
        let mut child = take(&mut self.child).into_words();
        self.child = match &prog.dep {
            Edges::Narrow(dep) => {
                // A child's distance forward is its edge's distance back.
                invert(off, &mut child, &prog.dep_off, dep, |i, [d]| {
                    (i - u32::from(d), [d])
                });
                Edges::Narrow(child)
            }
            Edges::Wide(dep) => {
                invert(off, &mut child, &prog.dep_off, dep, |i, d| {
                    (wide_id(d), wide_words(i))
                });
                Edges::Wide(child)
            }
        };
    }
}

/// Fill `child_off` (zeroed, one per op plus one) and `child` with the
/// children CSR of the edges `dep`, `W` words each, where op `i` lists
/// edges `dep_off[i]..dep_off[i + 1]`. `edge(i, w)` is the op that edge
/// `w` of op `i` names, and the edge that op's child list stores for `i`.
#[inline]
fn invert<const W: usize>(
    child_off: &mut [u32],
    child: &mut Vec<u16>,
    dep_off: &[u32],
    dep: &[u16],
    edge: impl Fn(u32, [u16; W]) -> (u32, [u16; W]),
) {
    let n = dep_off.len() - 1;
    let list = |i: usize| {
        dep[dep_off[i] as usize * W..dep_off[i + 1] as usize * W]
            .chunks_exact(W)
            .map(|w| <[u16; W]>::try_from(w).expect("W words"))
    };
    for i in 0..n {
        for w in list(i) {
            child_off[edge(i as u32, w).0 as usize] += 1;
        }
    }
    for i in 1..=n {
        child_off[i] += child_off[i - 1];
    }
    child.clear();
    child.resize(dep.len(), 0);
    for i in (0..n).rev() {
        for w in list(i) {
            let (d, c) = edge(i as u32, w);
            let end = &mut child_off[d as usize];
            *end -= 1;
            let at = *end as usize * W;
            child[at..at + W].copy_from_slice(&c);
        }
    }
}

/// The machine/program/options context threaded through event handlers,
/// split from [`Executor`] state so handlers can mutate both sides.
struct Ctx<'a> {
    m: &'a mut Machine,
    prog: &'a Program,
    opts: &'a ExecOpts,
}

impl Ctx<'_> {
    #[inline]
    fn node_of_rank(&self, rank: u32) -> usize {
        self.m.topo.node_of(rank as usize)
    }

    #[inline]
    fn is_intra(&self, msg: MsgId) -> bool {
        let meta = self.prog.msg(msg);
        self.m.topo.same_node(meta.src as usize, meta.dst as usize)
    }

    /// NIC occupancy: acquire the source/destination rails for `bytes` of
    /// `msg` at node `node`. Returns (earliest rail start, latest rail
    /// end). With one rail this is exactly the historical single-NIC
    /// acquisition; round-robin keeps whole messages on one rail chosen by
    /// message id, striping splits the payload evenly across all rails.
    fn acquire_rails(
        &mut self,
        node: usize,
        t: Time,
        bytes: u64,
        msg: MsgId,
        tx: bool,
    ) -> (Time, Time) {
        let rails = self.m.net.rails;
        let bw = self.m.levels.get(0).bandwidth;
        if rails == 1 || self.m.net.rail_policy == RailPolicy::RoundRobin {
            let rail = msg.0 as usize % rails;
            let id = if tx {
                self.m.nic_tx_rail(node, rail)
            } else {
                self.m.nic_rx_rail(node, rail)
            };
            return self.m.acquire(id, t, Time::for_bytes(bytes, bw));
        }
        // Stripe: even byte split, first `bytes % rails` rails carry one
        // extra byte.
        let base = bytes / rails as u64;
        let rem = bytes % rails as u64;
        let mut s_min: Option<Time> = None;
        let mut e_max = Time::ZERO;
        for r in 0..rails {
            let chunk = base + u64::from((r as u64) < rem);
            let id = if tx {
                self.m.nic_tx_rail(node, r)
            } else {
                self.m.nic_rx_rail(node, r)
            };
            let (s, e) = self.m.acquire(id, t, Time::for_bytes(chunk, bw));
            s_min = Some(s_min.map_or(s, |m| m.min(s)));
            e_max = e_max.max(e);
        }
        (s_min.unwrap(), e_max)
    }
}

/// A persistent, reusable program executor.
///
/// All per-run state lives in flat vectors indexed by op/message id that
/// are cleared (never reallocated) between runs; the per-op records go
/// out with each report and come back when it drops. One `Executor` per
/// thread (behind [`execute`]) turns a tuning sweep into a
/// zero-allocation steady state.
#[derive(Debug, Default)]
struct Executor {
    q: EventQueue<Ev>,
    graph: DepGraph,
    /// Per-op records; empty between runs, as the report takes them.
    ops: Vec<OpState>,
    /// Latest finish so far on each rank.
    rank_finish: Vec<Time>,
    costs: CostTable,
    /// Where a Delay or data op's rank starts in its dispatch argument:
    /// the cost index takes the bits below, and the rank the
    /// `ID_BITS - rank_shift` bits above, enough for every rank of the
    /// program.
    rank_shift: u32,
    ranks: Ranks,
    // Per-message SoA state ("not yet" = UNSET for the timestamps).
    msg_send_posted: Vec<Time>,
    msg_recv_posted: Vec<Time>,
    msg_arrived: Vec<Time>,
    msg_eff_tx_end: Vec<Time>,
    /// Each message's payload in flight; sized only in seeded runs.
    msg_payload: Vec<Option<Vec<u8>>>,
    completed: usize,
    mem: Option<Memory>,
    /// Free list of payload buffers. Send snapshots pop from here and are
    /// returned when the matching Recv delivers, so steady-state execution
    /// allocates only up to the peak number of in-flight messages.
    payload_pool: Vec<Vec<u8>>,
}

impl Executor {
    /// Execute `prog` on `machine` (resources are reset first), reusing
    /// this executor's state vectors.
    fn run(
        &mut self,
        machine: &mut Machine,
        prog: &Program,
        opts: &ExecOpts,
        mem: Option<Memory>,
    ) -> (Report, Option<Memory>) {
        self.mem = mem;
        self.prepare(machine, prog, opts);
        machine.reset();
        let mut cx = Ctx {
            m: machine,
            prog,
            opts,
        };
        while let Some((t, ev)) = self.q.pop() {
            self.handle(&mut cx, t, ev);
        }
        let report = self.finish_report();
        accumulate_engine_totals(&report.engine);
        (report, self.mem.take())
    }

    /// Reset all per-run state for `prog` (keeping allocations, and taking
    /// the per-op records of the last report dropped on this thread), rebuild
    /// its dependency structure, resolve every op's dispatch word and cost
    /// on `m`, and seed the ready queue from the zero-in-degree roots.
    /// Payload slots are sized only when `self.mem` is set.
    /// Kept out of line so that its size does not change how the event
    /// loop in `run` is compiled: inlined, it slowed that loop by about a
    /// tenth on synthesis-sized programs.
    #[inline(never)]
    fn prepare(&mut self, m: &Machine, prog: &Program, opts: &ExecOpts) {
        debug_assert_eq!(prog.validate(), Ok(()));
        assert!(
            prog.ops.len() <= ID_LIMIT && prog.msgs.len() <= ID_LIMIT,
            "more than 2^29 ops or messages"
        );
        let nm = prog.msgs.len();
        let g = &mut self.graph;
        g.roots.clear();
        g.msg_send_op.clear();
        g.msg_send_op.resize(nm, NONE_U32);
        g.msg_recv_op.clear();
        g.msg_recv_op.resize(nm, NONE_U32);
        let spare = SPARE_OPS.try_with(Cell::take).unwrap_or_default();
        if spare.capacity() > self.ops.capacity() {
            self.ops = spare;
        }
        self.ops.clear();
        // Grown once, not push by push: a thread's first run allocates
        // exactly one record per op, and a later run that outgrows the
        // records it holds at least doubles them.
        self.ops.reserve(prog.ops.len());
        self.rank_finish.clear();
        self.rank_finish.resize(prog.nranks, Time::ZERO);
        self.costs.clear();
        self.ranks.resolve(m, prog.nranks);
        let inner = m.topo.depth() - 1;
        let rank_bits = (usize::BITS - (prog.nranks.max(1) - 1).leading_zeros()).min(ID_BITS);
        let shift = ID_BITS - rank_bits;
        self.rank_shift = shift;
        for (i, op) in prog.ops.iter().enumerate() {
            let rank = op.rank;
            let mut cost = |class, lvl, key| self.costs.intern(m, class, lvl, key);
            // A Delay or data op's rank goes beside its cost index when
            // both fit, and is read from the program when not.
            let on_rank = |tag, c: u32| {
                if c >> shift == 0 && rank >> rank_bits == 0 {
                    (tag, rank << shift | c)
                } else {
                    (tag | WIDE, c)
                }
            };
            // A data op pulling from another rank uses the level linking
            // the two ranks; a local one the innermost level.
            let level = |from: u32| self.ranks.link_level(m, from, rank);
            let (tag, arg) = match prog.kind(OpId(i as u32)) {
                OpKind::Nop => (TAG_NOP, 0),
                OpKind::Sleep { dur } => (TAG_SLEEP, cost(CLASS_FIXED, 0, dur.as_ps())),
                OpKind::Delay { dur } => on_rank(TAG_DELAY, cost(CLASS_FIXED, 0, dur.as_ps())),
                OpKind::Copy { src, .. } => on_rank(TAG_DATA, cost(CLASS_COPY, inner, src.len)),
                OpKind::CrossCopy { from, src, .. } => {
                    on_rank(TAG_DATA, cost(CLASS_COPY, level(from), src.len))
                }
                OpKind::Reduce {
                    vectorized, src, ..
                } => on_rank(
                    TAG_DATA,
                    cost(CLASS_REDUCE + usize::from(vectorized), inner, src.len),
                ),
                OpKind::ReduceFrom {
                    from,
                    vectorized,
                    src,
                    ..
                } => on_rank(
                    TAG_DATA,
                    cost(CLASS_REDUCE + usize::from(vectorized), level(from), src.len),
                ),
                OpKind::Send { msg } => {
                    g.msg_send_op[msg.0 as usize] = i as u32;
                    (TAG_SEND, msg.0)
                }
                OpKind::Recv { msg } => {
                    g.msg_recv_op[msg.0 as usize] = i as u32;
                    (TAG_RECV, msg.0)
                }
            };
            let ndeps = prog.dep_off[i + 1] - prog.dep_off[i];
            self.ops.push(OpState {
                at: opts.start_time(rank),
                indeg: ndeps,
                dispatch: tag << ID_BITS | arg,
            });
            if ndeps == 0 {
                g.roots.push(i as u32);
            }
        }
        g.build_children(prog);
        self.q.reset();
        self.msg_send_posted.clear();
        self.msg_send_posted.resize(nm, UNSET);
        self.msg_recv_posted.clear();
        self.msg_recv_posted.resize(nm, UNSET);
        self.msg_arrived.clear();
        self.msg_arrived.resize(nm, UNSET);
        self.msg_eff_tx_end.clear();
        self.msg_eff_tx_end.resize(nm, Time::ZERO);
        self.msg_payload.clear();
        if self.mem.is_some() {
            self.msg_payload.resize_with(nm, || None);
        }
        self.completed = 0;
        for i in 0..self.graph.roots.len() {
            let r = self.graph.roots[i] as usize;
            let at = self.ops[r].at;
            self.q.push(at, Ev::Ready(OpId(r as u32)));
        }
    }

    /// Move the per-op records, whose ready times are now finish times,
    /// into the report.
    fn finish_report(&mut self) -> Report {
        let n = self.ops.len();
        assert_eq!(
            self.completed, n,
            "deadlock: {} of {n} ops completed (dependency cycle or unmatched message)",
            self.completed
        );
        let makespan = self.rank_finish.iter().copied().max().unwrap_or(Time::ZERO);
        let engine = self.q.stats();
        Report {
            ops: take(&mut self.ops),
            rank_finish: self.rank_finish.clone(),
            makespan,
            events: engine.pops,
            engine,
        }
    }

    #[inline]
    fn handle(&mut self, cx: &mut Ctx, t: Time, ev: Ev) {
        match ev {
            Ev::Ready(op) => self.on_ready(cx, t, op),
            Ev::SendPosted(msg) => self.on_send_posted(cx, t, msg),
            Ev::RndvCts(msg) => self.on_rndv_cts(cx, t, msg),
            Ev::TxStart(msg) => self.on_tx_start(cx, t, msg),
            Ev::RxStart(msg) => self.on_rx_start(cx, t, msg),
            Ev::Arrived(msg) => self.on_arrived(cx, t, msg),
            Ev::IntraCopy(msg) => self.on_intra_copy(cx, t, msg),
            Ev::Finish(op) => self.on_finish(cx, t, op),
        }
    }

    fn on_ready(&mut self, cx: &mut Ctx, t: Time, op: OpId) {
        let idx = op.0 as usize;
        let dispatch = self.ops[idx].dispatch;
        let arg = dispatch & ID_MASK;
        match dispatch >> ID_BITS {
            TAG_NOP => self.q.push(t, Ev::Finish(op)),
            TAG_SLEEP => {
                let dur = self.costs.get(arg).cpu;
                self.q.push(t + dur, Ev::Finish(op));
            }
            TAG_SEND => self.on_send_ready(cx, t, MsgId(arg)),
            TAG_RECV => self.on_recv_ready(cx, t, MsgId(arg)),
            tag => {
                let (rank, cost) = self.rank_and_cost(cx.prog, idx, dispatch);
                let c = self.costs.get(cost);
                let (s, e) = cx.m.acquire(cx.m.cpu(rank), t, c.cpu);
                if tag & !WIDE == TAG_DELAY {
                    self.q.push(e, Ev::Finish(op));
                } else {
                    let (_, be) = cx.m.acquire(self.ranks.bus[rank] as usize, s, c.bus);
                    self.q.push(e.max(be), Ev::Finish(op));
                }
            }
        }
    }

    /// The rank and cost index of Delay or data op `idx`, whose dispatch
    /// word is `dispatch`.
    #[inline]
    fn rank_and_cost(&self, prog: &Program, idx: usize, dispatch: u32) -> (usize, u32) {
        let arg = dispatch & ID_MASK;
        let cost = if dispatch >> ID_BITS & WIDE == 0 {
            arg & ((1 << self.rank_shift) - 1)
        } else {
            arg
        };
        (rank_of(prog, idx, dispatch, self.rank_shift) as usize, cost)
    }

    fn on_send_ready(&mut self, cx: &mut Ctx, t: Time, msg: MsgId) {
        let meta = cx.prog.msg(msg);
        let bytes = meta.bytes;
        let p2p = cx.opts.p2p;
        let eager = p2p.is_eager(bytes);
        let rank = meta.src as usize;
        let node = cx.node_of_rank(meta.src);

        // Snapshot the payload at send time: dependencies guarantee the
        // data is ready, and MPI forbids the sender from touching the
        // buffer until the send completes.
        if let Some(mem) = &self.mem {
            if let Some((sbuf, _)) = meta.payload {
                let mut data = self.payload_pool.pop().unwrap_or_default();
                data.clear();
                data.extend_from_slice(mem.read(rank, sbuf));
                self.msg_payload[msg.0 as usize] = Some(data);
            }
        }

        let cpu = cx.m.cpu(rank);
        let mut dur = p2p.o_send;
        if eager {
            // Eager: bounce-buffer copy + per-byte stack work on the CPU.
            dur += p2p.cpu_byte_time(bytes) + cx.m.node.copy_time(bytes);
        }
        let (s, e) = cx.m.acquire(cpu, t, dur);
        let posted = if eager && bytes > 0 {
            // The bounce-buffer copy-in is a local transfer: innermost link.
            let bdur = cx.m.levels.innermost().xfer_time(bytes);
            let bus = cx.m.bus(node);
            let (_, be) = cx.m.acquire(bus, s, bdur);
            e.max(be)
        } else {
            e
        };
        self.q.push(posted, Ev::SendPosted(msg));
    }

    fn on_send_posted(&mut self, cx: &mut Ctx, t: Time, msg: MsgId) {
        let mi = msg.0 as usize;
        self.msg_send_posted[mi] = t;
        let meta = cx.prog.msg(msg);
        let eager = cx.opts.p2p.is_eager(meta.bytes);
        let send_op = OpId(self.graph.msg_send_op[mi]);
        debug_assert_ne!(send_op.0, NONE_U32, "message without a send op");
        if eager {
            // Eager sends complete locally as soon as the bounce copy is done.
            self.q.push(t, Ev::Finish(send_op));
            if cx.is_intra(msg) {
                // Data is visible in shared memory after a flag round at
                // the level linking the two ranks.
                let arr = t + self.ranks.flag_latency(cx.m, meta.src, meta.dst);
                self.q.push(arr, Ev::Arrived(msg));
            } else {
                self.q.push(t, Ev::TxStart(msg));
            }
        } else {
            self.try_start_rendezvous(cx, msg);
        }
    }

    fn on_recv_ready(&mut self, cx: &mut Ctx, t: Time, msg: MsgId) {
        let mi = msg.0 as usize;
        self.msg_recv_posted[mi] = t;
        let eager = cx.opts.p2p.is_eager(cx.prog.msg(msg).bytes);
        if eager {
            if self.msg_arrived[mi] != UNSET {
                self.complete_recv(cx, t, msg);
            }
        } else {
            self.try_start_rendezvous(cx, msg);
        }
    }

    /// Once both sides of a rendezvous are posted, schedule the data phase
    /// after the handshake.
    fn try_start_rendezvous(&mut self, cx: &mut Ctx, msg: MsgId) {
        let mi = msg.0 as usize;
        let (sp, rp) = (self.msg_send_posted[mi], self.msg_recv_posted[mi]);
        if sp == UNSET || rp == UNSET {
            return;
        }
        if cx.is_intra(msg) {
            let meta = cx.prog.msg(msg);
            let start = sp.max(rp) + self.ranks.flag_latency(cx.m, meta.src, meta.dst);
            self.q.push(start, Ev::IntraCopy(msg));
        } else {
            self.q.push(sp.max(rp), Ev::RndvCts(msg));
        }
    }

    /// The receiver's (single-threaded) MPI engine must be free to process
    /// the RTS and reply with the CTS — if it is busy with a shared-memory
    /// copy, the whole transfer is delayed. This is the paper's "ib and sb
    /// share the same CPU resource to progress" effect made concrete.
    fn on_rndv_cts(&mut self, cx: &mut Ctx, t: Time, msg: MsgId) {
        let meta = cx.prog.msg(msg);
        let cpu = cx.m.cpu(meta.dst as usize);
        let (_, e) = cx.m.acquire(cpu, t, cx.opts.p2p.o_recv);
        self.q
            .push(e + cx.opts.p2p.rndv_handshake, Ev::TxStart(msg));
    }

    fn on_tx_start(&mut self, cx: &mut Ctx, t: Time, msg: MsgId) {
        let meta = cx.prog.msg(msg);
        let bytes = meta.bytes;
        let src_node = cx.node_of_rank(meta.src);
        let (txs, txe) = cx.acquire_rails(src_node, t, bytes, msg, true);
        // Sender-side DMA read competes for the node memory bus; the DMA
        // engine moves the full payload once regardless of rail striping.
        let dma = cx.m.net.dma_bus_time(bytes, &cx.m.node);
        let bus = cx.m.bus(src_node);
        let (_, dbe) = cx.m.acquire(bus, txs, dma);
        let mut eff_tx_end = txe.max(dbe);
        if let Some(core) = cx.m.net_core() {
            let cdur = Time::for_bytes(bytes, cx.m.net.core_bw.unwrap());
            let (_, ce) = cx.m.acquire(core, txs, cdur);
            eff_tx_end = eff_tx_end.max(ce);
        }
        self.msg_eff_tx_end[msg.0 as usize] = eff_tx_end;
        if !cx.opts.p2p.is_eager(bytes) {
            // Rendezvous sends complete when the payload has left the node.
            let send_op = OpId(self.graph.msg_send_op[msg.0 as usize]);
            self.q.push(eff_tx_end, Ev::Finish(send_op));
        }
        // Cut-through: reception starts one wire latency after transmission.
        self.q
            .push(txs + cx.m.levels.get(0).latency, Ev::RxStart(msg));
    }

    fn on_rx_start(&mut self, cx: &mut Ctx, t: Time, msg: MsgId) {
        let meta = cx.prog.msg(msg);
        let bytes = meta.bytes;
        let dst_node = cx.node_of_rank(meta.dst);
        let (rxs, rxe) = cx.acquire_rails(dst_node, t, bytes, msg, false);
        // Receiver-side DMA write competes for the node memory bus — the
        // paper's "ib needs to push the data back to memory" effect.
        let dma = cx.m.net.dma_bus_time(bytes, &cx.m.node);
        let bus = cx.m.bus(dst_node);
        let (_, dbe) = cx.m.acquire(bus, rxs, dma);
        let lower_bound = self.msg_eff_tx_end[msg.0 as usize] + cx.m.levels.get(0).latency;
        let arrival = rxe.max(dbe).max(lower_bound);
        self.q.push(arrival, Ev::Arrived(msg));
    }

    fn on_arrived(&mut self, cx: &mut Ctx, t: Time, msg: MsgId) {
        let mi = msg.0 as usize;
        self.msg_arrived[mi] = t;
        if self.msg_recv_posted[mi] != UNSET {
            self.complete_recv(cx, t, msg);
        }
    }

    /// Receiver-side completion: CPU processing (+ eager copy-out), then
    /// the recv op finishes. Called at `max(arrived, recv_posted)`.
    fn complete_recv(&mut self, cx: &mut Ctx, t: Time, msg: MsgId) {
        let meta = cx.prog.msg(msg);
        let bytes = meta.bytes;
        let rank = meta.dst as usize;
        let node = cx.node_of_rank(meta.dst);
        let p2p = cx.opts.p2p;
        let eager = p2p.is_eager(bytes);
        let mut dur = p2p.o_recv;
        if eager {
            dur += p2p.cpu_byte_time(bytes) + cx.m.node.copy_time(bytes);
        }
        let cpu = cx.m.cpu(rank);
        let (s, e) = cx.m.acquire(cpu, t, dur);
        let fin = if eager && bytes > 0 {
            // The receiver's copy-out reads the sender's bounce buffer:
            // within a node this moves over the level linking the ranks;
            // an inter-node copy-out reads the local NIC bounce buffer
            // (innermost link).
            let lvl = if cx.is_intra(msg) {
                self.ranks.link_level(cx.m, meta.src, meta.dst)
            } else {
                cx.m.topo.depth() - 1
            };
            let bdur = cx.m.levels.get(lvl).xfer_time(bytes);
            let bus = cx.m.bus(node);
            let (_, be) = cx.m.acquire(bus, s, bdur);
            e.max(be)
        } else {
            e
        };
        let recv_op = OpId(self.graph.msg_recv_op[msg.0 as usize]);
        debug_assert_ne!(recv_op.0, NONE_U32, "message without a recv op");
        self.q.push(fin, Ev::Finish(recv_op));
    }

    /// Intra-node rendezvous: a single receiver-side copy through shared
    /// memory (CMA/KNEM-style), after which both ops complete.
    fn on_intra_copy(&mut self, cx: &mut Ctx, t: Time, msg: MsgId) {
        let meta = cx.prog.msg(msg);
        let bytes = meta.bytes;
        let rank = meta.dst as usize;
        let node = cx.node_of_rank(meta.dst);
        let cpu = cx.m.cpu(rank);
        let dur = cx.opts.p2p.o_recv + cx.m.node.copy_time(bytes);
        let (s, e) = cx.m.acquire(cpu, t, dur);
        let lvl = self.ranks.link_level(cx.m, meta.src, meta.dst);
        let bdur = cx.m.levels.get(lvl).xfer_time(bytes);
        let bus = cx.m.bus(node);
        let (_, be) = cx.m.acquire(bus, s, bdur);
        let fin = e.max(be);
        let mi = msg.0 as usize;
        let send_op = OpId(self.graph.msg_send_op[mi]);
        let recv_op = OpId(self.graph.msg_recv_op[mi]);
        self.q.push(fin, Ev::Finish(recv_op));
        self.q.push(fin, Ev::Finish(send_op));
    }

    fn on_finish(&mut self, cx: &mut Ctx, t: Time, op: OpId) {
        let idx = op.0 as usize;
        let state = &mut self.ops[idx];
        state.at = t;
        let rank = rank_of(cx.prog, idx, state.dispatch, self.rank_shift);
        let last = &mut self.rank_finish[rank as usize];
        *last = (*last).max(t);
        self.completed += 1;

        if self.mem.is_some() {
            self.apply_data(cx, op);
        }

        let (lo, hi) = (
            self.graph.child_off[idx] as usize,
            self.graph.child_off[idx + 1] as usize,
        );
        // One loop body for both widths: a branch per child, which never
        // changes within a run, keeps the release inlined once.
        for k in lo..hi {
            let c = match &self.graph.child {
                Edges::Narrow(ahead) => op.0 + u32::from(ahead[k]),
                Edges::Wide(ids) => wide_id([ids[2 * k], ids[2 * k + 1]]),
            };
            let child = &mut self.ops[c as usize];
            let to = rank_of(cx.prog, c as usize, child.dispatch, self.rank_shift);
            child.at = child.at.max(self.ranks.release(cx.m, rank, to, t));
            child.indeg -= 1;
            if child.indeg == 0 {
                self.q.push(child.at, Ev::Ready(OpId(c)));
            }
        }
    }

    /// Move op `op`'s bytes in seeded execution. Kept out of line: the
    /// timing-only hot loop never calls it.
    #[inline(never)]
    fn apply_data(&mut self, cx: &Ctx, op: OpId) {
        let mem = self.mem.as_mut().unwrap();
        let rank = cx.prog.op(op).rank as usize;
        match cx.prog.kind(op) {
            OpKind::Copy { src, dst } => mem.copy_within_rank(rank, src, dst),
            OpKind::CrossCopy { from, src, dst } => mem.copy_across(from as usize, src, rank, dst),
            OpKind::Reduce {
                op: rop,
                dtype,
                src,
                dst,
                ..
            } => mem.reduce(dtype, rop, rank, src, rank, dst),
            OpKind::ReduceFrom {
                from,
                op: rop,
                dtype,
                src,
                dst,
                ..
            } => mem.reduce(dtype, rop, from as usize, src, rank, dst),
            OpKind::Recv { msg } => {
                let meta = cx.prog.msg(msg);
                if let Some((_, dbuf)) = meta.payload {
                    if let Some(payload) = self.msg_payload[msg.0 as usize].take() {
                        mem.write(rank, dbuf, &payload);
                        self.payload_pool.push(payload);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::datatype::{DataType, ReduceOp};
    use han_machine::{gpu_hier, mini, mini3, Flavor, Machine};

    fn machine(nodes: usize, ppn: usize) -> Machine {
        Machine::from_preset(&mini(nodes, ppn))
    }

    fn opts() -> ExecOpts {
        ExecOpts::timing(Flavor::OpenMpi.p2p())
    }

    #[test]
    fn empty_program() {
        let mut m = machine(1, 1);
        let p = ProgramBuilder::new(1).build();
        let r = execute(&mut m, &p, &opts());
        assert_eq!(r.makespan, Time::ZERO);
    }

    #[test]
    fn sleep_does_not_use_cpu_but_delay_does() {
        let mut m = machine(1, 1);
        let mut b = ProgramBuilder::new(1);
        b.sleep(0, Time::from_us(5), &[]);
        b.delay(0, Time::from_us(3), &[]);
        let p = b.build();
        let r = execute(&mut m, &p, &opts());
        assert_eq!(r.makespan, Time::from_us(5));
        assert_eq!(m.pool().get(m.cpu(0)).busy_time(), Time::from_us(3));
    }

    #[test]
    fn dependency_chain_is_sequential() {
        let mut m = machine(1, 1);
        let mut b = ProgramBuilder::new(1);
        let a = b.delay(0, Time::from_us(1), &[]);
        let c = b.delay(0, Time::from_us(2), &[a]);
        let d = b.sleep(0, Time::from_us(3), &[c]);
        let p = b.build();
        let r = execute(&mut m, &p, &opts());
        assert_eq!(r.finish(a), Time::from_us(1));
        assert_eq!(r.finish(c), Time::from_us(3));
        assert_eq!(r.finish(d), Time::from_us(6));
    }

    #[test]
    fn cross_rank_dep_costs_flag_latency() {
        let mut m = machine(1, 2);
        let flag = m.node.flag_latency;
        let mut b = ProgramBuilder::new(2);
        let a = b.delay(0, Time::from_us(1), &[]);
        let c = b.nop(1, &[a]);
        let p = b.build();
        let r = execute(&mut m, &p, &opts());
        assert_eq!(r.finish(c), Time::from_us(1) + flag);
    }

    #[test]
    fn inter_node_eager_message_timing() {
        let mut m = machine(2, 1);
        let mut b = ProgramBuilder::new(2);
        let (s, r) = b.signal(0, 1, 1024, &[], &[]);
        let p = b.build();
        let rep = execute(&mut m, &p, &opts());
        // Eager send completes locally, before the recv.
        assert!(rep.finish(s) < rep.finish(r));
        // End-to-end must include at least the wire latency.
        assert!(rep.finish(r) > m.net.latency);
    }

    #[test]
    fn inter_node_rendezvous_send_completes_with_transfer() {
        let mut m = machine(2, 1);
        let mut b = ProgramBuilder::new(2);
        let bytes = 1 << 20; // 1 MiB: rendezvous for every flavour
        let (s, r) = b.signal(0, 1, bytes, &[], &[]);
        let p = b.build();
        let rep = execute(&mut m, &p, &opts());
        let wire = m.net.wire_time(bytes);
        // The send completes only after the payload left the node.
        assert!(rep.finish(s) >= wire);
        assert!(rep.finish(r) >= rep.finish(s));
        // Sanity: total under 3x wire time (no pathological serialization).
        assert!(rep.finish(r) < wire * 3);
    }

    #[test]
    fn rendezvous_waits_for_late_receiver() {
        let mut m = machine(2, 1);
        let bytes = 1 << 20;
        // Receiver sleeps 1 ms before posting.
        let mut b = ProgramBuilder::new(2);
        let z = b.sleep(1, Time::from_ms(1), &[]);
        let (_, r) = b.signal(0, 1, bytes, &[], &[z]);
        let p = b.build();
        let rep = execute(&mut m, &p, &opts());
        assert!(rep.finish(r) > Time::from_ms(1));
    }

    #[test]
    fn eager_does_not_wait_for_late_receiver_cpu_much() {
        let mut m = machine(2, 1);
        let bytes = 512; // eager
        let mut b = ProgramBuilder::new(2);
        let z = b.sleep(1, Time::from_ms(1), &[]);
        let (_, r) = b.signal(0, 1, bytes, &[], &[z]);
        let p = b.build();
        let rep = execute(&mut m, &p, &opts());
        // Data was already there; only the receiver-side completion
        // processing happens after the 1 ms.
        let slack = rep.finish(r) - Time::from_ms(1);
        assert!(slack < Time::from_us(2), "slack {slack}");
    }

    #[test]
    fn same_direction_transfers_serialize_on_nic() {
        // Two rendezvous sends 0->1 and 0->2 (different nodes) leave the
        // same NIC: total ≈ 2x one transfer.
        let bytes = 4 << 20;
        let mut m = machine(3, 1);
        let mut b = ProgramBuilder::new(3);
        b.signal(0, 1, bytes, &[], &[]);
        b.signal(0, 2, bytes, &[], &[]);
        let two = execute(&mut m, &b.build(), &opts()).makespan;

        let mut b = ProgramBuilder::new(3);
        b.signal(0, 1, bytes, &[], &[]);
        let one = execute(&mut m, &b.build(), &opts()).makespan;

        let ratio = two.as_ps() as f64 / one.as_ps() as f64;
        assert!(ratio > 1.7, "expected ~2x serialization, got {ratio:.2}x");
    }

    #[test]
    fn opposite_directions_overlap_on_full_duplex_nic() {
        // 0->1 and 1->0 simultaneously: full duplex, ~1x one transfer.
        let bytes = 4 << 20;
        let mut m = machine(2, 1);
        let mut b = ProgramBuilder::new(2);
        b.signal(0, 1, bytes, &[], &[]);
        b.signal(1, 0, bytes, &[], &[]);
        let duplex = execute(&mut m, &b.build(), &opts()).makespan;

        let mut b = ProgramBuilder::new(2);
        b.signal(0, 1, bytes, &[], &[]);
        let one = execute(&mut m, &b.build(), &opts()).makespan;

        let ratio = duplex.as_ps() as f64 / one.as_ps() as f64;
        assert!(ratio < 1.3, "full duplex should overlap, got {ratio:.2}x");
    }

    #[test]
    fn intra_node_message_avoids_nic() {
        let bytes = 64 * 1024;
        let mut m = machine(2, 2);
        let mut b = ProgramBuilder::new(4);
        b.signal(0, 1, bytes, &[], &[]); // same node
        let p = b.build();
        execute(&mut m, &p, &opts());
        assert_eq!(m.pool().get(m.nic_tx(0)).requests(), 0);
        assert_eq!(m.pool().get(m.nic_rx(0)).requests(), 0);
        assert!(m.pool().get(m.bus(0)).requests() > 0);
    }

    #[test]
    fn intra_faster_than_inter_for_large() {
        let bytes = 1 << 20;
        let mut m = machine(2, 2);
        let mut b = ProgramBuilder::new(4);
        b.signal(0, 1, bytes, &[], &[]); // intra
        let intra = execute(&mut m, &b.build(), &opts()).makespan;
        let mut b = ProgramBuilder::new(4);
        b.signal(0, 2, bytes, &[], &[]); // inter
        let inter = execute(&mut m, &b.build(), &opts()).makespan;
        assert!(intra < inter, "intra {intra} should beat inter {inter}");
    }

    #[test]
    fn data_delivery_inter_node() {
        let mut m = machine(2, 1);
        let mut b = ProgramBuilder::new(2);
        let sbuf = b.alloc(0, 8);
        let dbuf = b.alloc(1, 8);
        b.send_recv(0, 1, sbuf, dbuf, &[], &[]);
        let p = b.build();
        let o = ExecOpts::timing(Flavor::OpenMpi.p2p());
        let (_, mem) = execute_seeded(&mut m, &p, &o, |mm| {
            mm.write(0, sbuf, &[1, 2, 3, 4, 5, 6, 7, 8])
        });
        assert_eq!(mem.read(1, dbuf), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn data_delivery_rendezvous() {
        let mut m = machine(2, 1);
        let bytes = 1u64 << 20;
        let mut b = ProgramBuilder::new(2);
        let sbuf = b.alloc(0, bytes);
        let dbuf = b.alloc(1, bytes);
        b.send_recv(0, 1, sbuf, dbuf, &[], &[]);
        let p = b.build();
        let o = ExecOpts::timing(Flavor::OpenMpi.p2p());
        let (_, mem) = execute_seeded(&mut m, &p, &o, |mm| {
            let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
            mm.write(0, sbuf, &data);
        });
        let out = mem.read(1, dbuf);
        assert!(out.iter().enumerate().all(|(i, &v)| v == (i % 251) as u8));
    }

    #[test]
    fn reduce_data_applies() {
        let mut m = machine(1, 1);
        let mut b = ProgramBuilder::new(1);
        let src = b.alloc(0, 8);
        let dst = b.alloc(0, 8);
        b.op(
            0,
            OpKind::Reduce {
                vectorized: true,
                op: ReduceOp::Sum,
                dtype: DataType::Int32,
                src,
                dst,
            },
            &[],
        );
        let p = b.build();
        let o = ExecOpts::timing(Flavor::OpenMpi.p2p());
        let (_, mem) = execute_seeded(&mut m, &p, &o, |mm| {
            mm.write(0, src, &as_i32(&[5, 6]));
            mm.write(0, dst, &as_i32(&[1, 2]));
        });
        assert_eq!(mem.read(0, dst), as_i32(&[6, 8]).as_slice());
    }

    #[test]
    fn cross_copy_moves_data_and_charges_bus() {
        let mut m = machine(1, 2);
        let mut b = ProgramBuilder::new(2);
        let src = b.alloc(0, 4);
        let dst = b.alloc(1, 4);
        b.op(1, OpKind::CrossCopy { from: 0, src, dst }, &[]);
        let p = b.build();
        let o = ExecOpts::timing(Flavor::OpenMpi.p2p());
        let (_, mem) = execute_seeded(&mut m, &p, &o, |mm| mm.write(0, src, &[9, 9, 8, 8]));
        assert_eq!(mem.read(1, dst), &[9, 9, 8, 8]);
        assert!(m.pool().get(m.bus(0)).busy_time() > Time::ZERO);
    }

    #[test]
    fn start_skew_delays_rank_roots() {
        let mut m = machine(1, 2);
        let mut b = ProgramBuilder::new(2);
        let a = b.delay(0, Time::from_us(1), &[]);
        let c = b.delay(1, Time::from_us(1), &[]);
        let p = b.build();
        let o = opts().with_skew(vec![Time::ZERO, Time::from_us(10)]);
        let r = execute(&mut m, &p, &o);
        assert_eq!(r.finish(a), Time::from_us(1));
        assert_eq!(r.finish(c), Time::from_us(11));
    }

    fn as_i32(xs: &[i32]) -> Vec<u8> {
        xs.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn single_rail_machine_times_are_unchanged_by_rail_plumbing() {
        // rails=1 must be byte-identical through both policies.
        use han_machine::RailPolicy;
        let bytes = 1 << 20;
        let mut times = vec![];
        for policy in [RailPolicy::RoundRobin, RailPolicy::Stripe] {
            let mut m = Machine::from_preset(&mini(2, 1).with_rails(1, policy));
            let mut b = ProgramBuilder::new(2);
            b.signal(0, 1, bytes, &[], &[]);
            let r = execute(&mut m, &b.build(), &opts());
            times.push((r.makespan, r.events));
        }
        assert_eq!(times[0], times[1]);
    }

    #[test]
    fn striping_speeds_up_a_single_large_transfer() {
        use han_machine::RailPolicy;
        let bytes = 16 << 20; // rendezvous
        let run = |rails: usize, policy| {
            let mut m = Machine::from_preset(&mini(2, 1).with_rails(rails, policy));
            let mut b = ProgramBuilder::new(2);
            b.signal(0, 1, bytes, &[], &[]);
            execute(&mut m, &b.build(), &opts()).makespan
        };
        let one = run(1, RailPolicy::RoundRobin);
        let striped = run(4, RailPolicy::Stripe);
        let rr = run(4, RailPolicy::RoundRobin);
        let ratio = one.as_ps() as f64 / striped.as_ps() as f64;
        assert!(
            ratio > 2.5,
            "4-rail striping should approach 4x on one large message, got {ratio:.2}x"
        );
        // Round-robin cannot accelerate a single message.
        assert!(rr >= striped);
        let rr_ratio = one.as_ps() as f64 / rr.as_ps() as f64;
        assert!(
            rr_ratio < 1.3,
            "round-robin single msg ~1x, got {rr_ratio:.2}x"
        );
    }

    #[test]
    fn round_robin_spreads_concurrent_messages_across_rails() {
        use han_machine::RailPolicy;
        let bytes = 4 << 20;
        let run = |rails: usize| {
            let mut m = Machine::from_preset(&mini(3, 1).with_rails(rails, RailPolicy::RoundRobin));
            let mut b = ProgramBuilder::new(3);
            b.signal(0, 1, bytes, &[], &[]);
            b.signal(0, 2, bytes, &[], &[]);
            execute(&mut m, &b.build(), &opts()).makespan
        };
        let serial = run(1);
        let parallel = run(2);
        let ratio = serial.as_ps() as f64 / parallel.as_ps() as f64;
        assert!(
            ratio > 1.6,
            "two messages on two rails should overlap, got {ratio:.2}x"
        );
    }

    #[test]
    fn level_override_changes_intra_node_cost() {
        use han_machine::LevelParams;
        let bytes = 4 << 20;
        let base = mini(2, 2);
        let fast = base.with_level_override(
            1,
            LevelParams {
                bandwidth: base.node.bus_bw * 8.0,
                latency: Time::from_ns(20),
                reduce_rate: base.node.reduce_rate,
                reduce_rate_avx: base.node.reduce_rate_avx,
                launch: Time::ZERO,
            },
        );
        let run = |p: &han_machine::MachinePreset| {
            let mut m = Machine::from_preset(p);
            let mut b = ProgramBuilder::new(4);
            b.signal(0, 1, bytes, &[], &[]); // intra-node
            execute(&mut m, &b.build(), &opts()).makespan
        };
        assert!(run(&fast) < run(&base));
    }

    #[test]
    fn launch_overhead_charged_per_compute_op() {
        let base = mini(1, 2);
        let launch = Time::from_us(7);
        let mut lp = *base.level_params().get(1);
        lp.launch = launch;
        let gpu = base.with_level_override(1, lp);
        let run = |p: &han_machine::MachinePreset| {
            let mut m = Machine::from_preset(p);
            let mut b = ProgramBuilder::new(2);
            let (src, dst) = (b.alloc(0, 64), b.alloc(0, 64));
            b.op(0, OpKind::Copy { src, dst }, &[]);
            execute(&mut m, &b.build(), &opts()).makespan
        };
        let delta = run(&gpu) - run(&base);
        assert_eq!(delta, launch, "one Copy pays exactly one launch");
    }

    /// A Delay on rank 0; a Copy on rank 1 and `filler` chained 1 ns
    /// Delays after it there, the chain not depending on the Copy; then a
    /// CrossCopy on rank 0 reading what the Copy wrote, after the Delay
    /// and, if `ordered`, after the Copy. Returns the program, the Copy,
    /// the chain's last op and the CrossCopy.
    fn reaching_across(filler: u32, ordered: bool) -> (Program, OpId, OpId, OpId) {
        let mut b = ProgramBuilder::new(2);
        let (src, mid, dst) = (b.alloc(1, 64), b.alloc(1, 64), b.alloc(0, 64));
        let delay = b.delay(0, Time::from_us(1), &[]);
        let copy = b.op(1, OpKind::Copy { src, dst: mid }, &[]);
        let mut chain = b.delay(1, Time::from_ns(1), &[]);
        for _ in 1..filler {
            chain = b.delay(1, Time::from_ns(1), &[chain]);
        }
        let read = OpKind::CrossCopy {
            from: 1,
            src: mid,
            dst,
        };
        let deps: &[OpId] = if ordered { &[delay, copy] } else { &[delay] };
        let last = b.op(0, read, deps);
        (b.build(), copy, chain, last)
    }

    #[test]
    fn a_wide_program_runs_and_checks_as_a_narrow_one_does() {
        let mut m = machine(1, 2);
        let inner = m.topo.depth() - 1;
        let copy_cost = op_cost(&m, CLASS_COPY, inner, 64);
        let read_cost = op_cost(&m, CLASS_COPY, m.topo.link_level(1, 0), 64);
        let flag = m.levels.get(m.topo.link_level(1, 0)).latency;
        let mut answers = Vec::new();
        for (filler, narrow) in [(1_000, true), (70_000, false)] {
            let (p, copy, chain, last) = reaching_across(filler, true);
            assert_eq!(p.dep.is_narrow(), narrow, "{filler} ops on rank 1");
            let r = execute(&mut m, &p, &opts());
            // The Delay, then the Copy, then the chain hold rank 1's CPU.
            assert_eq!(r.finish(OpId(0)), Time::from_us(1));
            assert_eq!(r.finish(copy), copy_cost.cpu.max(copy_cost.bus));
            let chain_end = copy_cost.cpu + Time::from_ns(u64::from(filler));
            assert_eq!(r.finish(chain), chain_end);
            let ready = Time::from_us(1).max(r.finish(copy) + flag);
            assert_eq!(r.finish(last), ready + read_cost.cpu.max(read_cost.bus));
            assert_eq!(r.makespan, r.finish(last).max(chain_end));
            assert_rank_finishes_are_op_maxima(&p, &r);
            let (traced, trace) = crate::trace_execution(&mut m, &p, &opts());
            assert_same_run(&traced, &r);
            assert_eq!(trace.spans[last.0 as usize].start, ready);
            // Without the Copy edge, the read races with the Copy.
            let (racy, ..) = reaching_across(filler, false);
            assert_eq!(racy.dep.is_narrow(), narrow);
            let race = crate::check_races(&racy).unwrap_err();
            let want = format!("op {} (", copy.0);
            assert!(race.contains(&want), "{race}");
            assert!(race.contains(&format!("op {} (", last.0)), "{race}");
            answers.push((crate::check_races(&p), r.finish(last), ready));
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0].0, Ok(()));
    }

    #[test]
    fn op_state_is_16_bytes() {
        assert_eq!(std::mem::size_of::<OpState>(), 16);
    }

    #[test]
    fn a_dependency_chain_pays_the_flag_latency_of_every_level_it_crosses() {
        // Three levels, and eight with a latency of its own per level
        // down to the fifth.
        for preset in [mini3(2, 2, 2), gpu_hier(&[2; MAX_LEVELS])] {
            let mut m = Machine::from_preset(&preset);
            let topo = m.topo;
            let mut b = ProgramBuilder::new(topo.world_size());
            let mut expect = Time::from_ns(1);
            let mut prev = b.delay(0, expect, &[]);
            let (mut on, mut step) = (0, 1);
            // From rank 0 to a rank linked to it at level k, a second op
            // there, and back to rank 0.
            for k in 1..topo.depth() {
                let peer = (1..topo.ppn())
                    .find(|&r| topo.link_level(0, r) == k)
                    .unwrap();
                for rank in [peer, peer, 0] {
                    step += 1;
                    let dur = Time::from_ns(step);
                    if rank != on {
                        expect += m.levels.get(k).latency;
                    }
                    expect += dur;
                    prev = b.delay(rank, dur, &[prev]);
                    on = rank;
                }
            }
            let p = b.build();
            let r = execute(&mut m, &p, &opts());
            assert_eq!(r.makespan, expect, "{}", preset.name);
            // Each op became ready when `Ranks::release` says its one
            // dependency released it: a chain of Delays never waits for
            // a CPU.
            let mut ranks = Ranks::default();
            ranks.resolve(&m, p.nranks);
            for i in 1..p.len() as u32 {
                let (op, dep) = (OpId(i), p.deps(OpId(i)).next().unwrap());
                let ready = ranks.release(&m, p.op(dep).rank, p.op(op).rank, r.finish(dep));
                let OpKind::Delay { dur } = p.kind(op) else {
                    unreachable!()
                };
                assert_eq!(r.finish(op), ready + dur, "{} op {i}", preset.name);
            }
        }
    }

    #[test]
    fn ranks_that_do_not_fit_beside_the_cost_index_are_read_from_the_program() {
        // 2^16 + 1 ranks take 17 bits of a Delay's or data op's argument
        // and leave 12 for its cost index: from the 4097th distinct cost
        // on, the rank is read from the program.
        let n = (1 << 16) + 1;
        let last = n - 1;
        let mut m = machine(1, n);
        let mut b = ProgramBuilder::new(n);
        let mut prev = b.nop(last, &[]);
        let mut expect = Time::ZERO;
        for ns in 1..=4097 {
            prev = b.delay(last, Time::from_ns(ns), &[prev]);
            expect += Time::from_ns(ns);
        }
        let (src, dst) = (b.alloc(last, 64), b.alloc(last, 64));
        let copy = b.op(last, OpKind::Copy { src, dst }, &[prev]);
        let p = b.build();
        let r = execute(&mut m, &p, &opts());
        let tag = |op: OpId| r.ops[op.0 as usize].dispatch >> ID_BITS;
        assert_eq!(tag(OpId(4096)), TAG_DELAY);
        assert_eq!(tag(OpId(4097)), TAG_DELAY | WIDE);
        assert_eq!(tag(copy), TAG_DATA | WIDE);
        let c = op_cost(&m, CLASS_COPY, m.topo.depth() - 1, 64);
        assert_eq!(r.finish(OpId(4097)), expect);
        assert_eq!(r.makespan, expect + c.cpu.max(c.bus));
        assert_eq!(m.pool().get(m.cpu(last)).busy_time(), expect + c.cpu);
        assert_eq!(m.pool().get(m.cpu(0)).busy_time(), Time::ZERO);
        assert_rank_finishes_are_op_maxima(&p, &r);
    }

    #[test]
    fn only_seeded_runs_hold_payload_slots() {
        let mut ex = Executor::default();
        let mut m = machine(2, 2);
        let mut b = ProgramBuilder::new(4);
        let (sbuf, dbuf) = (b.alloc(0, 8), b.alloc(2, 8));
        b.send_recv(0, 2, sbuf, dbuf, &[], &[]);
        b.signal(1, 3, 8, &[], &[]);
        let p = b.build();
        ex.run(&mut m, &p, &opts(), None);
        assert_eq!(ex.msg_payload.capacity(), 0, "a first timing run");
        let mem = Memory::new(&p.mem_size);
        ex.run(&mut m, &p, &opts(), Some(mem));
        assert_eq!(ex.msg_payload.len(), p.msgs.len(), "a seeded run");
        ex.run(&mut m, &p, &opts(), None);
        assert!(ex.msg_payload.is_empty(), "a timing run after a seeded one");
    }

    /// `a` and `b` report the same run.
    fn assert_same_run(a: &Report, b: &Report) {
        assert_eq!(a.makespan, b.makespan);
        assert!(a.op_finishes().eq(b.op_finishes()));
        assert_eq!(a.rank_finish, b.rank_finish);
        assert_eq!(a.events, b.events);
    }

    /// `r`'s rank finishes are the latest op finish on each rank of `p`,
    /// and its makespan the latest of all.
    fn assert_rank_finishes_are_op_maxima(p: &Program, r: &Report) {
        let mut latest = vec![Time::ZERO; p.nranks];
        for (i, t) in r.op_finishes().enumerate() {
            let rank = p.op(OpId(i as u32)).rank as usize;
            latest[rank] = latest[rank].max(t);
        }
        assert_eq!(r.rank_finish, latest);
        assert_eq!(r.makespan, latest.into_iter().max().unwrap_or(Time::ZERO));
    }

    #[test]
    fn executor_reuse_across_programs_matches_fresh_execute() {
        let mut ex = Executor::default();
        let mut m = machine(2, 2);
        let mut b = ProgramBuilder::new(4);
        b.signal(0, 1, 4096, &[], &[]);
        b.signal(0, 2, 1 << 20, &[], &[]);
        let pa = b.build();
        let mut b = ProgramBuilder::new(4);
        let a = b.delay(0, Time::from_us(1), &[]);
        b.nop(1, &[a]);
        let pb = b.build();
        // Alternate structures so stale per-run state would show, and
        // keep every report alive across the runs after it.
        let progs = [&pa, &pb, &pa, &pb];
        let mut held = Vec::new();
        for p in progs {
            let r1 = ex.run(&mut m, p, &opts(), None).0;
            let r2 = execute(&mut m, p, &opts());
            assert_same_run(&r1, &r2);
            assert_rank_finishes_are_op_maxima(p, &r1);
            held.push((r1, r2));
        }
        for (p, (r1, r2)) in progs.into_iter().zip(&held) {
            let fresh = execute(&mut m, p, &opts());
            for r in [r1, r2] {
                assert_same_run(r, &fresh);
                for i in 0..p.ops.len() as u32 {
                    assert_eq!(r.finish(OpId(i)), fresh.finish(OpId(i)));
                }
            }
        }
    }

    #[test]
    fn dropping_a_report_during_thread_local_teardown_does_not_panic() {
        /// Drops a report from a thread-local destructor.
        struct Holder(Option<Report>);
        impl Drop for Holder {
            fn drop(&mut self) {
                drop(self.0.take());
            }
        }
        thread_local! {
            static HELD: RefCell<Holder> = const { RefCell::new(Holder(None)) };
        }
        fn run() -> Report {
            let mut b = ProgramBuilder::new(2);
            b.nop(1, &[]);
            execute(&mut machine(1, 2), &b.build(), &opts())
        }
        // Thread-locals are destroyed in reverse order of first use, so
        // the two orders drop the holder before and after the slot.
        for slot_first in [true, false] {
            std::thread::spawn(move || {
                if slot_first {
                    drop(run());
                } else {
                    HELD.with(|_| {});
                }
                let report = run();
                HELD.with(|h| h.borrow_mut().0 = Some(report));
            })
            .join()
            .expect("thread teardown does not panic");
        }
    }
}
