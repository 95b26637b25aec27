//! The discrete-event executor.
//!
//! Runs a [`Program`] against a [`Machine`], producing per-op virtual
//! completion times (and, in data mode, real buffer contents). The
//! executor implements the P2P transport — eager and rendezvous protocols
//! over the NIC/bus/CPU resources — and the dependency propagation that
//! turns HAN's task DAGs into pipelined execution.
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
//! a per-run stack value. All per-op state (`ready_at`, pending-dep counts,
//! finish times) and per-message state live in flat struct-of-arrays
//! vectors indexed by `u32` arena ids, cleared — not reallocated — between
//! runs. The dependency structure (children CSR, zero-in-degree roots,
//! message endpoints) is cached in a `DepGraph` and reused verbatim across
//! template specializations of the same program shape: a sweep over
//! thousands of candidate configurations rebuilds the CSR only when the
//! DAG *structure* changes, not when scalars (byte counts, durations)
//! change.

use crate::buffer::Memory;
use crate::program::{MsgId, OpId, OpKind, Program};
use han_machine::{Machine, P2pParams, RailPolicy};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use han_sim::{EngineStats, EventQueue, Time};

/// How much work the executor does per event.
///
/// Virtual times are **bit-identical** across modes: payload movement never
/// influences resource occupancy, only real wall-clock spent simulating.
/// Tuning sweeps therefore run `TimingOnly` (no per-rank memories, no
/// payload copies) while correctness tests keep `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Model resource occupancy only; skip all payload reads/copies.
    #[default]
    TimingOnly,
    /// Additionally materialize per-rank memories and move real bytes.
    Full,
}

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Point-to-point protocol parameters (per MPI library flavour).
    pub p2p: P2pParams,
    /// Timing-only fast path vs. full data movement (correctness mode).
    pub mode: ExecMode,
    /// Per-rank start skew: ops without dependencies on rank `r` become
    /// ready at `start_times[r]`. Used by the task benchmarks that must
    /// "delay the participation of each process by the duration of the
    /// ib(0) step" (paper section III-A2) and by imbalance injection.
    pub start_times: Option<Vec<Time>>,
}

impl ExecOpts {
    pub fn timing(p2p: P2pParams) -> Self {
        ExecOpts {
            p2p,
            mode: ExecMode::TimingOnly,
            start_times: None,
        }
    }

    pub fn with_data(p2p: P2pParams) -> Self {
        ExecOpts {
            p2p,
            mode: ExecMode::Full,
            start_times: None,
        }
    }

    pub fn with_mode(p2p: P2pParams, mode: ExecMode) -> Self {
        ExecOpts {
            p2p,
            mode,
            start_times: None,
        }
    }

    pub fn with_skew(mut self, start_times: Vec<Time>) -> Self {
        self.start_times = Some(start_times);
        self
    }

    /// True when real bytes are moved (a [`Memory`] will be produced).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.mode == ExecMode::Full
    }
}

/// Result of executing a program.
#[derive(Debug, Clone)]
pub struct Report {
    op_finish: Vec<Time>,
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
        self.op_finish[op.0 as usize]
    }

    /// Finish time of every op, indexed by op id (differential oracles).
    pub fn op_finishes(&self) -> &[Time] {
        &self.op_finish
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
}

/// Execute `prog` on `machine` (resources are reset first).
///
/// Routed through a thread-local persistent executor, so repeated
/// executions of structurally identical programs reuse the dependency CSR
/// and every state vector's allocation.
pub fn execute(machine: &mut Machine, prog: &Program, opts: &ExecOpts) -> Report {
    TLS_EXEC.with(|e| {
        let mem = opts.is_full().then(|| Memory::new(&prog.mem_size));
        e.borrow_mut().run(machine, prog, opts, mem).0
    })
}

/// Execute in data mode and return the final memories as well.
pub fn execute_with_memory(
    machine: &mut Machine,
    prog: &Program,
    opts: &ExecOpts,
) -> (Report, Memory) {
    assert!(
        opts.is_full(),
        "execute_with_memory requires ExecMode::Full"
    );
    TLS_EXEC.with(|e| {
        let mem = Memory::new(&prog.mem_size);
        let (report, mem) = e.borrow_mut().run(machine, prog, opts, Some(mem));
        (report, mem.expect("data mode produces memory"))
    })
}

/// Execute with a closure that seeds initial memory contents (testing and
/// correctness harnesses).
pub fn execute_seeded(
    machine: &mut Machine,
    prog: &Program,
    opts: &ExecOpts,
    seed: impl FnOnce(&mut Memory),
) -> (Report, Memory) {
    assert!(opts.is_full(), "execute_seeded requires ExecMode::Full");
    let mut mem = Memory::new(&prog.mem_size);
    seed(&mut mem);
    TLS_EXEC.with(|e| {
        let (report, mem) = e.borrow_mut().run(machine, prog, opts, Some(mem));
        (report, mem.expect("data mode produces memory"))
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

/// "Not yet happened" sentinel for per-message timestamps (the virtual
/// clock never legitimately reaches `Time::MAX`).
const UNSET: Time = Time::MAX;

/// Bus traffic factor for reductions: operands are read and the result
/// written, ~2 bytes of bus traffic per reduced byte.
const REDUCE_BUS_FACTOR: u64 = 2;

/// Compact `OpKind` dispatch tags (see `Executor::kind_tag`).
const TAG_NOP: u8 = 0;
const TAG_SLEEP: u8 = 1;
const TAG_DELAY: u8 = 2;
const TAG_OTHER: u8 = 3;

/// Cached dependency *structure* of a program: children CSR, flat deps,
/// message endpoints, zero-in-degree roots. Built once and reused across
/// every specialization that keeps the same DAG shape — op scalars (byte
/// counts, durations) and message scalars never enter this structure, so a
/// sweep that only varies sizes shares one `DepGraph`.
#[derive(Debug, Default)]
struct DepGraph {
    built: bool,
    nops: usize,
    nmsgs: usize,
    /// Children (reverse dependencies) in CSR form.
    child_off: Vec<u32>,
    child: Vec<u32>,
    /// Flat copy of each op's deps (CSR), kept for exact `matches` compares.
    dep_off: Vec<u32>,
    dep: Vec<u32>,
    op_rank: Vec<u32>,
    /// Structural message tag: `Send{msg}` -> `msg*2`, `Recv{msg}` ->
    /// `msg*2+1`, anything else -> `NONE_U32`.
    op_msg: Vec<u32>,
    msg_send_op: Vec<u32>,
    msg_recv_op: Vec<u32>,
    /// Ops with no dependencies, in op-id order: the ready-queue seeds.
    roots: Vec<u32>,
    indeg0: Vec<u32>,
    cursor: Vec<u32>,
}

impl DepGraph {
    /// Exact structural equality with `prog` (ranks, dep lists, message
    /// endpoints). O(ops + deps); no hashing, so no collisions.
    fn matches(&self, prog: &Program) -> bool {
        if !self.built || self.nops != prog.ops.len() || self.nmsgs != prog.msgs.len() {
            return false;
        }
        let mut k = 0usize;
        for (i, op) in prog.ops.iter().enumerate() {
            if self.op_rank[i] != op.rank {
                return false;
            }
            let tag = match op.kind {
                OpKind::Send { msg } => msg.0 * 2,
                OpKind::Recv { msg } => msg.0 * 2 + 1,
                _ => NONE_U32,
            };
            if self.op_msg[i] != tag {
                return false;
            }
            let ndeps = (self.dep_off[i + 1] - self.dep_off[i]) as usize;
            if ndeps != op.deps.len() {
                return false;
            }
            for d in &op.deps {
                if self.dep[k] != d.0 {
                    return false;
                }
                k += 1;
            }
        }
        true
    }

    /// (Re)build from `prog`, reusing every allocation.
    fn build(&mut self, prog: &Program) {
        let n = prog.ops.len();
        self.nops = n;
        self.nmsgs = prog.msgs.len();
        self.op_rank.clear();
        self.op_msg.clear();
        self.indeg0.clear();
        self.roots.clear();
        self.dep.clear();
        self.dep_off.clear();
        self.dep_off.push(0);
        self.msg_send_op.clear();
        self.msg_send_op.resize(self.nmsgs, NONE_U32);
        self.msg_recv_op.clear();
        self.msg_recv_op.resize(self.nmsgs, NONE_U32);
        for (i, op) in prog.ops.iter().enumerate() {
            self.op_rank.push(op.rank);
            let tag = match op.kind {
                OpKind::Send { msg } => {
                    self.msg_send_op[msg.0 as usize] = i as u32;
                    msg.0 * 2
                }
                OpKind::Recv { msg } => {
                    self.msg_recv_op[msg.0 as usize] = i as u32;
                    msg.0 * 2 + 1
                }
                _ => NONE_U32,
            };
            self.op_msg.push(tag);
            self.indeg0.push(op.deps.len() as u32);
            if op.deps.is_empty() {
                self.roots.push(i as u32);
            }
            for d in &op.deps {
                self.dep.push(d.0);
            }
            self.dep_off.push(self.dep.len() as u32);
        }
        // Children CSR by counting sort over the flat dep array.
        self.child_off.clear();
        self.child_off.resize(n + 1, 0);
        for &d in &self.dep {
            self.child_off[d as usize + 1] += 1;
        }
        for i in 0..n {
            self.child_off[i + 1] += self.child_off[i];
        }
        self.child.clear();
        self.child.resize(self.dep.len(), 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.child_off[..n]);
        for (i, op) in prog.ops.iter().enumerate() {
            for d in &op.deps {
                let c = &mut self.cursor[d.0 as usize];
                self.child[*c as usize] = i as u32;
                *c += 1;
            }
        }
        self.built = true;
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

    /// The hierarchy level whose link two ranks communicate over. On a
    /// uniform machine the level's parameters carry exactly the values the
    /// single `NodeParams`/`NetParams` pair implies, so level-indexed
    /// costing is bit-identical to the historical model.
    #[inline]
    fn link_level(&self, a: u32, b: u32) -> usize {
        self.m.topo.link_level(a as usize, b as usize)
    }

    /// Latency of an intra-node synchronization flag between two ranks:
    /// the latency of the level linking them.
    #[inline]
    fn flag_latency(&self, a: u32, b: u32) -> Time {
        self.m.levels.get(self.link_level(a, b)).latency
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
/// are cleared (never reallocated) between runs; the dependency CSR is
/// cached across structurally identical programs. One `Executor` per
/// thread (behind [`execute`]) turns a tuning sweep into a
/// zero-allocation steady state.
#[derive(Debug, Default)]
struct Executor {
    q: EventQueue<Ev>,
    graph: DepGraph,
    indeg: Vec<u32>,
    ready_at: Vec<Time>,
    finish: Vec<Time>,
    done: Vec<bool>,
    // Per-message SoA state ("not yet" = UNSET for the timestamps).
    msg_send_posted: Vec<Time>,
    msg_recv_posted: Vec<Time>,
    msg_arrived: Vec<Time>,
    msg_eff_tx_end: Vec<Time>,
    msg_payload: Vec<Option<Vec<u8>>>,
    completed: usize,
    /// Per-op compact kind tag (`TAG_*`) and Sleep/Delay duration, rebuilt
    /// by `prepare` for each run (scalars are not part of the cached CSR).
    kind_tag: Vec<u8>,
    kind_dur: Vec<Time>,
    mem: Option<Memory>,
    /// Reusable operand buffer for Reduce/ReduceFrom in Full mode; the
    /// executor is single-threaded so one buffer serves every rank.
    scratch: Vec<u8>,
    /// Free list of payload buffers. Send snapshots pop from here and are
    /// returned when the matching Recv delivers, so steady-state execution
    /// allocates only up to the peak number of in-flight messages.
    payload_pool: Vec<Vec<u8>>,
}

impl Executor {
    /// Execute `prog` on `machine` (resources are reset first), reusing
    /// this executor's cached structure and state vectors.
    fn run(
        &mut self,
        machine: &mut Machine,
        prog: &Program,
        opts: &ExecOpts,
        mem: Option<Memory>,
    ) -> (Report, Option<Memory>) {
        self.prepare(prog, opts);
        self.mem = mem;
        machine.reset();
        let mut cx = Ctx {
            m: machine,
            prog,
            opts,
        };
        while let Some((t, ev)) = self.q.pop() {
            self.handle(&mut cx, t, ev);
        }
        let report = self.finish_report(prog);
        accumulate_engine_totals(&report.engine);
        (report, self.mem.take())
    }

    /// Rebuild the compact dispatch tables: the ready handler for the
    /// trivial kinds (Nop/Sleep/Delay — the bulk of fine-grained DAGs)
    /// reads one byte and one `Time` instead of the ~100-byte `Op`.
    /// Rebuilt per run because scalars move under template re-stamping
    /// even when the cached CSR structure matches.
    fn build_kind_tables(&mut self, prog: &Program) {
        self.kind_tag.clear();
        self.kind_dur.clear();
        for op in &prog.ops {
            let (tag, dur) = match op.kind {
                OpKind::Nop => (TAG_NOP, Time::ZERO),
                OpKind::Sleep { dur } => (TAG_SLEEP, dur),
                OpKind::Delay { dur } => (TAG_DELAY, dur),
                _ => (TAG_OTHER, Time::ZERO),
            };
            self.kind_tag.push(tag);
            self.kind_dur.push(dur);
        }
    }

    /// Reset all per-run state for `prog` (keeping allocations and, when
    /// the structure matches, the cached dependency CSR) and seed the
    /// ready queue from the precomputed zero-in-degree roots.
    fn prepare(&mut self, prog: &Program, opts: &ExecOpts) {
        debug_assert_eq!(prog.validate(), Ok(()));
        if !self.graph.matches(prog) {
            self.graph.build(prog);
        }
        let n = self.graph.nops;
        let nm = self.graph.nmsgs;
        self.q.reset();
        self.build_kind_tables(prog);
        self.indeg.clear();
        self.indeg.extend_from_slice(&self.graph.indeg0);
        self.finish.clear();
        self.finish.resize(n, Time::ZERO);
        self.done.clear();
        self.done.resize(n, false);
        self.ready_at.clear();
        match &opts.start_times {
            // A rank executes nothing before its arrival time: floor every
            // op's readiness at the rank's start time.
            Some(st) => self
                .ready_at
                .extend(self.graph.op_rank.iter().map(|&r| st[r as usize])),
            None => self.ready_at.resize(n, Time::ZERO),
        }
        self.msg_send_posted.clear();
        self.msg_send_posted.resize(nm, UNSET);
        self.msg_recv_posted.clear();
        self.msg_recv_posted.resize(nm, UNSET);
        self.msg_arrived.clear();
        self.msg_arrived.resize(nm, UNSET);
        self.msg_eff_tx_end.clear();
        self.msg_eff_tx_end.resize(nm, Time::ZERO);
        self.msg_payload.clear();
        self.msg_payload.resize_with(nm, || None);
        self.completed = 0;
        for i in 0..self.graph.roots.len() {
            let r = self.graph.roots[i] as usize;
            let at = self.ready_at[r];
            self.q.push(at, Ev::Ready(OpId(r as u32)));
        }
    }

    fn finish_report(&self, prog: &Program) -> Report {
        assert_eq!(
            self.completed, self.graph.nops,
            "deadlock: {} of {} ops completed (dependency cycle or unmatched message)",
            self.completed, self.graph.nops
        );
        let mut rank_finish = vec![Time::ZERO; prog.nranks];
        for (i, &r) in self.graph.op_rank.iter().enumerate() {
            let r = r as usize;
            rank_finish[r] = rank_finish[r].max(self.finish[i]);
        }
        let makespan = rank_finish.iter().copied().max().unwrap_or(Time::ZERO);
        let engine = self.q.stats();
        Report {
            op_finish: self.finish.clone(),
            rank_finish,
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
        // Trivial kinds dispatch off the compact tag table — one byte and
        // (for Sleep/Delay) one `Time` — without touching the fat `Op`.
        let idx = op.0 as usize;
        match self.kind_tag[idx] {
            TAG_NOP => return self.q.push(t, Ev::Finish(op)),
            TAG_SLEEP => return self.q.push(t + self.kind_dur[idx], Ev::Finish(op)),
            TAG_DELAY => {
                let cpu = cx.m.cpu(self.graph.op_rank[idx] as usize);
                let (_, e) = cx.m.acquire(cpu, t, self.kind_dur[idx]);
                return self.q.push(e, Ev::Finish(op));
            }
            _ => {}
        }
        let prog = cx.prog;
        let o = &prog.ops[idx];
        let rank = o.rank as usize;
        // `node` is a division by ppn; compute it only in the arms that
        // touch the node bus.
        match o.kind {
            OpKind::Nop | OpKind::Sleep { .. } | OpKind::Delay { .. } => {
                unreachable!("trivial kinds dispatch off the tag table")
            }
            OpKind::Copy { bytes, .. } | OpKind::CrossCopy { bytes, .. } => {
                // Local copies use the innermost link; cross-rank copies
                // the link level joining the two ranks. On uniform
                // machines both carry exactly the old bus/cross-socket
                // rates; heterogeneous levels add a launch overhead and
                // their own bandwidth.
                let mut lvl = cx.m.topo.depth() - 1;
                if let OpKind::CrossCopy { from, .. } = o.kind {
                    debug_assert!(
                        cx.m.topo.same_node(from as usize, rank),
                        "CrossCopy across nodes: {from} -> {rank}"
                    );
                    lvl = cx.link_level(from, o.rank);
                }
                let lp = *cx.m.levels.get(lvl);
                let cpu = cx.m.cpu(rank);
                let bus = cx.m.bus(cx.node_of_rank(o.rank));
                let cdur = cx.m.node.copy_time(bytes) + lp.launch;
                let (s, e) = cx.m.acquire(cpu, t, cdur);
                let (_, be) = cx.m.acquire(bus, s, lp.xfer_time(bytes));
                self.q.push(e.max(be), Ev::Finish(op));
            }
            OpKind::Reduce {
                bytes, vectorized, ..
            }
            | OpKind::ReduceFrom {
                bytes, vectorized, ..
            } => {
                let mut lvl = cx.m.topo.depth() - 1;
                if let OpKind::ReduceFrom { from, .. } = o.kind {
                    debug_assert!(
                        cx.m.topo.same_node(from as usize, rank),
                        "ReduceFrom across nodes: {from} -> {rank}"
                    );
                    lvl = cx.link_level(from, o.rank);
                }
                let lp = *cx.m.levels.get(lvl);
                let cpu = cx.m.cpu(rank);
                let bus = cx.m.bus(cx.node_of_rank(o.rank));
                let rdur = lp.reduce_time(bytes, vectorized) + lp.launch;
                let (s, e) = cx.m.acquire(cpu, t, rdur);
                let (_, be) =
                    cx.m.acquire(bus, s, lp.xfer_time(bytes * REDUCE_BUS_FACTOR));
                self.q.push(e.max(be), Ev::Finish(op));
            }
            OpKind::Send { msg } => self.on_send_ready(cx, t, msg),
            OpKind::Recv { msg } => self.on_recv_ready(cx, t, msg),
        }
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
            if let Some(sbuf) = meta.sbuf {
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
                let arr = t + cx.flag_latency(meta.src, meta.dst);
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
            let start = sp.max(rp) + cx.flag_latency(meta.src, meta.dst);
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
                cx.link_level(meta.src, meta.dst)
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
        let lvl = cx.link_level(meta.src, meta.dst);
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
        debug_assert!(!self.done[idx], "op {idx} finished twice");
        self.done[idx] = true;
        self.finish[idx] = t;
        self.completed += 1;

        if self.mem.is_some() {
            self.apply_data(cx, op);
        }

        let rank = self.graph.op_rank[idx];
        let (lo, hi) = (
            self.graph.child_off[idx] as usize,
            self.graph.child_off[idx + 1] as usize,
        );
        for ci in lo..hi {
            let c = self.graph.child[ci] as usize;
            let crank = self.graph.op_rank[c];
            // Cross-rank dependencies model shared-memory flags and cost a
            // coherence round trip; cross-node dependencies must be
            // expressed as messages.
            let extra = if crank == rank {
                Time::ZERO
            } else {
                debug_assert_eq!(
                    cx.node_of_rank(crank),
                    cx.node_of_rank(rank),
                    "cross-node dependency {rank}->{crank}; use send/recv"
                );
                cx.flag_latency(rank, crank)
            };
            self.ready_at[c] = self.ready_at[c].max(t + extra);
            self.indeg[c] -= 1;
            if self.indeg[c] == 0 {
                let at = self.ready_at[c];
                self.q.push(at, Ev::Ready(OpId(c as u32)));
            }
        }
    }

    fn apply_data(&mut self, cx: &Ctx, op: OpId) {
        let o = &cx.prog.ops[op.0 as usize];
        let mem = self.mem.as_mut().unwrap();
        let rank = o.rank as usize;
        match &o.kind {
            OpKind::Copy { src, dst, .. } => {
                if let (Some(s), Some(d)) = (src, dst) {
                    mem.copy_within_rank(rank, *s, *d);
                }
            }
            OpKind::CrossCopy { from, src, dst, .. } => {
                if let (Some(s), Some(d)) = (src, dst) {
                    mem.copy_across(*from as usize, *s, rank, *d);
                }
            }
            OpKind::Reduce {
                op: rop,
                dtype,
                src,
                dst,
                ..
            } => {
                if let (Some(s), Some(d)) = (src, dst) {
                    self.scratch.clear();
                    self.scratch.extend_from_slice(mem.read(rank, *s));
                    let dslice = unsafe_mut_range(mem, rank, *d);
                    crate::datatype::apply_reduce(*dtype, *rop, &self.scratch, dslice);
                }
            }
            OpKind::ReduceFrom {
                from,
                op: rop,
                dtype,
                src,
                dst,
                ..
            } => {
                if let (Some(s), Some(d)) = (src, dst) {
                    self.scratch.clear();
                    self.scratch.extend_from_slice(mem.read(*from as usize, *s));
                    let dslice = unsafe_mut_range(mem, rank, *d);
                    crate::datatype::apply_reduce(*dtype, *rop, &self.scratch, dslice);
                }
            }
            OpKind::Recv { msg } => {
                let meta = cx.prog.msg(*msg);
                if let Some(dbuf) = meta.dbuf {
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

/// Mutable view of a range in a rank's memory. Separate helper because the
/// borrow checker cannot see that the `tmp` read above was copied out.
fn unsafe_mut_range(mem: &mut Memory, rank: usize, r: crate::buffer::BufRange) -> &mut [u8] {
    // Safe: `Memory::read` clones were taken before this call; this is the
    // only live mutable borrow.
    let ptr = mem.read(rank, r).as_ptr() as *mut u8;
    unsafe { std::slice::from_raw_parts_mut(ptr, r.len as usize) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::datatype::{DataType, ReduceOp};
    use han_machine::{mini, Flavor, Machine};

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
        let (s, r) = b.send_recv(0, 1, 1024, None, None, &[], &[]);
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
        let (s, r) = b.send_recv(0, 1, bytes, None, None, &[], &[]);
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
        let (_, r) = b.send_recv(0, 1, bytes, None, None, &[], &[z]);
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
        let (_, r) = b.send_recv(0, 1, bytes, None, None, &[], &[z]);
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
        b.send_recv(0, 1, bytes, None, None, &[], &[]);
        b.send_recv(0, 2, bytes, None, None, &[], &[]);
        let two = execute(&mut m, &b.build(), &opts()).makespan;

        let mut b = ProgramBuilder::new(3);
        b.send_recv(0, 1, bytes, None, None, &[], &[]);
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
        b.send_recv(0, 1, bytes, None, None, &[], &[]);
        b.send_recv(1, 0, bytes, None, None, &[], &[]);
        let duplex = execute(&mut m, &b.build(), &opts()).makespan;

        let mut b = ProgramBuilder::new(2);
        b.send_recv(0, 1, bytes, None, None, &[], &[]);
        let one = execute(&mut m, &b.build(), &opts()).makespan;

        let ratio = duplex.as_ps() as f64 / one.as_ps() as f64;
        assert!(ratio < 1.3, "full duplex should overlap, got {ratio:.2}x");
    }

    #[test]
    fn intra_node_message_avoids_nic() {
        let bytes = 64 * 1024;
        let mut m = machine(2, 2);
        let mut b = ProgramBuilder::new(4);
        b.send_recv(0, 1, bytes, None, None, &[], &[]); // same node
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
        b.send_recv(0, 1, bytes, None, None, &[], &[]); // intra
        let intra = execute(&mut m, &b.build(), &opts()).makespan;
        let mut b = ProgramBuilder::new(4);
        b.send_recv(0, 2, bytes, None, None, &[], &[]); // inter
        let inter = execute(&mut m, &b.build(), &opts()).makespan;
        assert!(intra < inter, "intra {intra} should beat inter {inter}");
    }

    #[test]
    fn data_delivery_inter_node() {
        let mut m = machine(2, 1);
        let mut b = ProgramBuilder::new(2);
        let sbuf = b.alloc(0, 8);
        let dbuf = b.alloc(1, 8);
        b.send_recv(0, 1, 8, Some(sbuf), Some(dbuf), &[], &[]);
        let p = b.build();
        let o = ExecOpts::with_data(Flavor::OpenMpi.p2p());
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
        b.send_recv(0, 1, bytes, Some(sbuf), Some(dbuf), &[], &[]);
        let p = b.build();
        let o = ExecOpts::with_data(Flavor::OpenMpi.p2p());
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
                bytes: 8,
                vectorized: true,
                op: ReduceOp::Sum,
                dtype: DataType::Int32,
                src: Some(src),
                dst: Some(dst),
            },
            &[],
        );
        let p = b.build();
        let o = ExecOpts::with_data(Flavor::OpenMpi.p2p());
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
        b.op(
            1,
            OpKind::CrossCopy {
                from: 0,
                bytes: 4,
                src: Some(src),
                dst: Some(dst),
            },
            &[],
        );
        let p = b.build();
        let o = ExecOpts::with_data(Flavor::OpenMpi.p2p());
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
            b.send_recv(0, 1, bytes, None, None, &[], &[]);
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
            b.send_recv(0, 1, bytes, None, None, &[], &[]);
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
            b.send_recv(0, 1, bytes, None, None, &[], &[]);
            b.send_recv(0, 2, bytes, None, None, &[], &[]);
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
            b.send_recv(0, 1, bytes, None, None, &[], &[]); // intra-node
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
            b.op(
                0,
                OpKind::Copy {
                    bytes: 64,
                    src: None,
                    dst: None,
                },
                &[],
            );
            execute(&mut m, &b.build(), &opts()).makespan
        };
        let delta = run(&gpu) - run(&base);
        assert_eq!(delta, launch, "one Copy pays exactly one launch");
    }

    #[test]
    fn executor_reuse_across_programs_matches_fresh_execute() {
        let mut ex = Executor::default();
        let mut m = machine(2, 2);
        let mut b = ProgramBuilder::new(4);
        b.send_recv(0, 1, 4096, None, None, &[], &[]);
        b.send_recv(0, 2, 1 << 20, None, None, &[], &[]);
        let pa = b.build();
        let mut b = ProgramBuilder::new(4);
        let a = b.delay(0, Time::from_us(1), &[]);
        b.nop(1, &[a]);
        let pb = b.build();
        // Alternate structures so the cached CSR is rebuilt and re-hit.
        for p in [&pa, &pb, &pa, &pb] {
            let r1 = ex.run(&mut m, p, &opts(), None).0;
            let r2 = execute(&mut m, p, &opts());
            assert_eq!(r1.makespan, r2.makespan);
            assert_eq!(r1.op_finishes(), r2.op_finishes());
            assert_eq!(r1.rank_finish, r2.rank_finish);
            assert_eq!(r1.events, r2.events);
        }
    }
}
