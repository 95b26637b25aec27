//! Analytic lower bounds on collective makespans, for search pruning.
//!
//! [`lower_bound`] never builds or runs a program. It derives, from the
//! configuration alone, costs the executor (`han_mpi::exec`) charges in
//! *every* legal execution of the HAN program, and combines them only in
//! ways that stay below the makespan whatever order the executor serves
//! ready events in. Two kinds of argument are used.
//!
//! **Busy time of one serialized resource.** A CPU or a NIC direction
//! serves one request at a time, so the makespan is at least the sum of
//! the durations charged to it. The costs are exact because
//! every machine cost function is a pure rate plus fixed terms:
//!
//! * per message, on the sender's CPU: `o_send`, plus for an eager message
//!   (`bytes <= eager_limit`) the bounce-buffer copy and the per-byte stack
//!   work; on the receiver's CPU: `o_recv` (plus the same eager copy), and
//!   for a rendezvous message a second `o_recv` to answer the handshake;
//! * per data op: the copy or reduction time plus the `launch` of the
//!   level it runs at; per SM fragment set or SOLO epoch: the delay the
//!   submodule charges; per Libnbc call: its schedule set-up delay;
//! * per inter-node (sub-)segment on the root's NIC: the wire time at the
//!   aggregate bandwidth of all rails (exact for striping, optimistic for
//!   round-robin).
//!
//! The bound sums these on the root, on every leader of the inter tree and
//! on a pure consumer, and takes the maximum.
//!
//! **Dependency chains.** An op finishes no earlier than its dependencies
//! plus its own uncontended duration, and a cross-rank dependency inside a
//! node adds the flag latency of the level linking the two ranks. HAN's
//! builders join every leader's task `t` before any op of task `t + 1`
//! starts on that leader, so the root's join times obey a recurrence:
//! each task lasts at least as long as the CPU work the root must finish
//! in it, as long as its longest phase (a rendezvous send waits for the
//! receiver's handshake and the wire), and as long as the node's
//! intra-node delivery of the previous segment — leader op, flag latency,
//! the consumer's SM flags or SOLO epoch, and its copy, at every level.
//! That is the pipeline fill and drain: the last segment cannot leave the
//! root before the root has issued every earlier send, and it then still
//! needs every hop (sender CPU, wire latency and time, receiver CPU, and
//! for rendezvous the handshake) down the deepest tree path, and finally
//! the intra-node delivery. Reductions add the mirror image: every node's
//! intra reduce of segment 0 before anything leaves it, and the climb of
//! each segment from the deepest leaf to the root.
//!
//! Each term follows the exact segmentation the builders use — `fs`
//! coarsened for launch-heavy levels, ADAPT's `ibs`/`irs` pieces, the
//! eager/rendezvous switch per piece, the tree of every routed segment,
//! and the submodule and link parameters of every level. Omitted effects
//! (bus and NIC contention, DMA, queueing behind other ranks) only ever
//! add time, so the bound stays admissible.
//!
//! Collectives without such an argument return `None` and are never
//! pruned.

use han_colls::modules::LIBNBC_SETUP;
use han_colls::stack::Coll;
use han_colls::tree::parent;
use han_colls::{InterModule, IntraModule, TreeShape};
use han_core::{Han, HanConfig};
use han_machine::{LevelVec, MachinePreset, NodeParams, P2pParams, RailPolicy};
use han_mpi::DataType;
use han_sim::Time;

/// One inter-node tree over the node leaders (vrank 0 is the root).
struct Tree {
    /// Children of each vrank.
    deg: Vec<u64>,
    /// Edges from each vrank down to its deepest descendant.
    height: Vec<u64>,
    /// Height of the shallowest subtree hanging off the root.
    root_kid_height: u64,
}

impl Tree {
    fn new(shape: TreeShape, n: usize) -> Self {
        let mut deg = vec![0; n];
        let mut height = vec![0; n];
        let mut root_kid_height: Option<u64> = None;
        // Every shape numbers a child above its parent, so a descending
        // walk finishes each subtree before its parent reads it.
        for v in (1..n).rev() {
            let p = parent(shape, n, v).expect("non-root vrank has a parent");
            deg[p] += 1;
            height[p] = height[p].max(height[v] + 1);
            if p == 0 {
                root_kid_height = Some(root_kid_height.map_or(height[v], |h| h.min(height[v])));
            }
        }
        Tree {
            deg,
            height,
            root_kid_height: root_kid_height.unwrap_or(0),
        }
    }
}

/// What one segment costs along one direction of the inter tree: sums,
/// maxima and minima over the pieces it travels in.
#[derive(Clone, Copy, Default)]
struct Pieces {
    /// Σ sender CPU (one child's share).
    send: Time,
    /// Σ receiver CPU.
    recv: Time,
    /// Σ receiver CPU plus the merge of each piece (reduce direction).
    recv_merge: Time,
    /// Σ per piece of what a parent must wait after posting its receive
    /// before the merge ends (reduce direction; the next piece's receive
    /// waits for this merge).
    climb_recv: Time,
    /// Σ aggregate-bandwidth wire time.
    wire: Time,
    /// Σ aggregate-bandwidth wire time of the rendezvous pieces.
    rndv_wire: Time,
    /// Every piece is a rendezvous message.
    all_rndv: bool,
    /// Some piece is a rendezvous message.
    any_rndv: bool,
    /// Largest and smallest sender-ready-to-receive-done hop.
    hop_max: Time,
    hop_min: Time,
    /// Largest hop plus merge (reduce direction).
    hop_merge_max: Time,
    /// Smallest remainder of a hop once the sender's CPU is done.
    after_send_min: Time,
    /// Smallest rendezvous tail after the sender's CPU: handshake and the
    /// piece's own wire time.
    rndv_tail_min: Time,
}

/// One HAN segment: its intra-node phases on one node, and its pieces in
/// both inter-node directions.
#[derive(Clone, Copy, Default)]
struct Seg {
    /// Broadcast: the leader's own CPU ops at every level it leads.
    lead: Time,
    /// Broadcast: leader op → flag → consumer epoch → copy, level by level
    /// down to the deepest consumer.
    deliver: Time,
    /// Broadcast: a pure consumer's CPU.
    consume: Time,
    /// Reduce: the leader's CPU (SOLO epochs and every merge).
    merge: Time,
    /// Reduce: a child's contribution → flag → the leader's merge chain,
    /// level by level.
    fold: Time,
    /// Reduce: a pure consumer's CPU (its contribution).
    contribute: Time,
    /// Broadcast pieces (`ibs`).
    ib: Pieces,
    /// Reduce pieces (`irs`).
    ir: Pieces,
}

/// Machine, stack and configuration constants shared by every term.
struct Model<'a> {
    cfg: &'a HanConfig,
    p2p: P2pParams,
    node: NodeParams,
    lv: LevelVec,
    rails: usize,
    stripe: bool,
    /// Root-led intra levels with more than one subgroup, outermost
    /// first: `(level, subgroups)`.
    intra: Vec<(usize, u64)>,
    /// Libnbc's per-call set-up delay; zero for ADAPT.
    setup: Time,
    /// ADAPT merges inter-tree pieces vectorized, Libnbc scalar.
    vect: bool,
}

impl<'a> Model<'a> {
    fn new(preset: &MachinePreset, cfg: &'a HanConfig) -> Self {
        let topo = &preset.topology;
        let intra = (1..topo.depth())
            .map(|l| (l, topo.levels()[l] as u64))
            .filter(|&(_, k)| k > 1)
            .collect();
        let libnbc = cfg.imod == InterModule::Libnbc;
        Model {
            cfg,
            p2p: Han::FLAVOR.p2p(),
            node: preset.node,
            lv: preset.level_params(),
            rails: preset.net.rails,
            stripe: preset.net.rails > 1 && preset.net.rail_policy == RailPolicy::Stripe,
            intra,
            setup: if libnbc { LIBNBC_SETUP } else { Time::ZERO },
            vect: !libnbc,
        }
    }

    /// One message's NIC time: a round-robin message rides one rail, a
    /// striped one is as slow as its largest per-rail chunk.
    fn wire_msg(&self, b: u64) -> Time {
        let bw = self.lv.get(0).bandwidth;
        if self.stripe {
            Time::for_bytes(b, bw * self.rails as f64)
        } else {
            Time::for_bytes(b, bw)
        }
    }

    /// NIC time at the aggregate bandwidth of all rails. Summed over the
    /// messages of one NIC direction it stays below its busiest rail's
    /// occupancy under either rail policy.
    fn wire_agg(&self, b: u64) -> Time {
        Time::for_bytes(b, self.lv.get(0).bandwidth * self.rails as f64)
    }

    /// Sender CPU of one inter-node message.
    fn send_cpu(&self, b: u64) -> Time {
        let p = &self.p2p;
        if p.is_eager(b) {
            p.o_send + p.cpu_byte_time(b) + self.node.copy_time(b)
        } else {
            p.o_send
        }
    }

    /// Receiver CPU of one inter-node message; a rendezvous answers the
    /// handshake and completes, two `o_recv`.
    fn recv_cpu(&self, b: u64) -> Time {
        let p = &self.p2p;
        if p.is_eager(b) {
            p.o_recv + p.cpu_byte_time(b) + self.node.copy_time(b)
        } else {
            p.o_recv * 2
        }
    }

    /// From the end of the sender's CPU to the end of the receive: the
    /// handshake (rendezvous), wire latency and time, receiver CPU.
    fn after_send(&self, b: u64) -> Time {
        let p = &self.p2p;
        let flight = self.lv.get(0).latency + self.wire_msg(b);
        if p.is_eager(b) {
            flight + self.recv_cpu(b)
        } else {
            p.o_recv + p.rndv_handshake + flight + p.o_recv
        }
    }

    /// A parent's merge of one received inter-tree piece: a local
    /// `Reduce`, charged at the innermost level.
    fn inter_merge(&self, b: u64) -> Time {
        let li = self.lv.innermost();
        li.reduce_time(b, self.vect) + li.launch
    }

    /// Costs of one segment of `s` bytes sent in `sub`-byte pieces (the
    /// whole segment when `None`), exactly as `tree_bcast`/`tree_reduce`
    /// cut it.
    fn pieces(&self, s: u64, sub: Option<u64>) -> Pieces {
        let p = &self.p2p;
        let w = sub.unwrap_or(s).max(1);
        let q = s.div_ceil(w).max(1);
        let last = s - (q - 1) * w.min(s);
        let mut out = Pieces {
            all_rndv: true,
            hop_min: Time::MAX,
            after_send_min: Time::MAX,
            rndv_tail_min: Time::MAX,
            ..Pieces::default()
        };
        for (b, n) in [(w, q - 1), (last, 1)] {
            if n == 0 {
                continue;
            }
            let eager = p.is_eager(b);
            let send = self.send_cpu(b);
            let recv = self.recv_cpu(b);
            let after = self.after_send(b);
            let merge = self.inter_merge(b);
            out.send += send * n;
            out.recv += recv * n;
            out.recv_merge += (recv + merge) * n;
            // Eager data may already wait at the parent; a rendezvous
            // only starts once the receive is posted.
            let wait = if eager { recv } else { after };
            out.climb_recv += (wait + merge) * n;
            out.wire += self.wire_agg(b) * n;
            if eager {
                out.all_rndv = false;
            } else {
                out.any_rndv = true;
                out.rndv_wire += self.wire_agg(b) * n;
                let tail = p.o_recv + p.rndv_handshake + self.wire_msg(b);
                out.rndv_tail_min = out.rndv_tail_min.min(tail);
            }
            out.hop_max = out.hop_max.max(send + after);
            out.hop_min = out.hop_min.min(send + after);
            out.hop_merge_max = out.hop_merge_max.max(send + after + merge);
            out.after_send_min = out.after_send_min.min(after);
        }
        out
    }

    /// The intra-node phases and inter-node pieces of one segment.
    fn seg(&self, s: u64) -> Seg {
        let node = &self.node;
        // A `Copy` (SM bounce copy-in) always runs at the innermost level.
        let copy_in = node.copy_time(s) + self.lv.innermost().launch;
        let mut g = Seg::default();
        for &(l, k) in &self.intra {
            let lp = self.lv.get(l);
            let lat = lp.latency;
            // The consumer's `CrossCopy` from its leader, at this level.
            let cross = node.copy_time(s) + lp.launch;
            let solo = self.cfg.smod_at(l) == IntraModule::Solo;
            // (leader's bcast op, consumer's sync delay, child's reduce
            // contribution, leader's reduce sync)
            let (lead, epoch, child, sync) = if solo {
                let e = node.solo_setup;
                (e, e, e, e)
            } else {
                let flags = lat * (2 * node.sm_fragments(s));
                (copy_in, flags, copy_in + flags, Time::ZERO)
            };
            let merges = (lp.reduce_time(s, solo) + lp.launch) * (k - 1);
            g.lead += lead;
            g.deliver += lead + lat + epoch + cross;
            g.merge += sync + merges;
            g.fold += child + lat + merges;
            // Levels are outermost first: the last one is a pure
            // consumer's only role.
            g.consume = epoch + cross;
            g.contribute = child;
        }
        let (ibs, irs) = match self.cfg.imod {
            InterModule::Libnbc => (None, None),
            InterModule::Adapt => (self.cfg.ibs, self.cfg.irs),
        };
        g.ib = self.pieces(s, ibs);
        g.ir = self.pieces(s, irs);
        g
    }
}

/// Everything the per-collective bounds walk: the model, the segment
/// costs and the inter trees.
struct Plan<'a> {
    md: Model<'a>,
    nl: usize,
    /// Number of HAN segments.
    u: u64,
    full: Seg,
    last: Seg,
    /// Broadcast tree of unrouted and of routed segments.
    ib: Tree,
    ib_alt: Option<Tree>,
    /// Reduce tree.
    ir: Tree,
}

impl Plan<'_> {
    fn seg(&self, i: u64) -> &Seg {
        if i + 1 < self.u {
            &self.full
        } else {
            &self.last
        }
    }

    /// 1 when segment `i` rides the routed broadcast tree, else 0.
    fn route(&self, i: u64) -> usize {
        usize::from(self.ib_alt.is_some() && self.md.cfg.routed(i))
    }

    /// The broadcast tree segment `i` rides (ADAPT segment routing).
    fn ib_tree(&self, i: u64) -> &Tree {
        match (&self.ib_alt, self.route(i)) {
            (Some(alt), 1) => alt,
            _ => &self.ib,
        }
    }

    /// Root CPU of segment `i`'s inter broadcast.
    fn ib_root_cpu(&self, i: u64) -> Time {
        self.md.setup + self.seg(i).ib.send * self.ib_tree(i).deg[0]
    }

    /// From the root's join before segment `i`'s inter broadcast until its
    /// last send of it finishes. An eager send finishes when its CPU part
    /// does; a rendezvous send waits for the receiver's handshake and then
    /// for its own wire time, behind every earlier transmission.
    fn ib_phase(&self, i: u64) -> Time {
        let g = &self.seg(i).ib;
        let d = self.ib_tree(i).deg[0];
        let cpu = self.ib_root_cpu(i);
        let mut t = cpu;
        if d > 0 && g.all_rndv {
            t = t.max(cpu + g.rndv_tail_min);
        }
        if d > 0 && g.any_rndv {
            let p = &self.md.p2p;
            let first = self.md.setup + p.o_send + p.o_recv + p.rndv_handshake;
            t = t.max(first + g.rndv_wire * d);
        }
        t
    }

    /// From the root's join before segment `i`'s inter broadcast until the
    /// deepest leader holds it: a piece down the deepest path, or the
    /// root's last send and then the shallowest subtree.
    fn ib_drain(&self, i: u64) -> Time {
        let g = &self.seg(i).ib;
        let t = self.ib_tree(i);
        let deepest = self.md.setup + g.hop_max * t.height[0];
        let last_send = self.ib_root_cpu(i) + g.after_send_min + g.hop_min * t.root_kid_height;
        deepest.max(last_send)
    }

    /// Root CPU of segment `i`'s inter reduce: receive and merge every
    /// piece from every child.
    fn ir_root_cpu(&self, i: u64) -> Time {
        self.md.setup + self.seg(i).ir.recv_merge * self.ir.deg[0]
    }

    /// From the root's join until its merges of segment `i` end: each
    /// child's pieces share one scratch slot, so its receives and merges
    /// alternate.
    fn ir_root_chain(&self, i: u64) -> Time {
        if self.ir.deg[0] == 0 {
            return self.md.setup;
        }
        self.md.setup + self.seg(i).ir.climb_recv
    }

    /// From the deepest leaf's join until the root has merged segment `i`
    /// from it: one piece climbing every edge, merged at every parent.
    fn ir_climb(&self, i: u64) -> Time {
        self.md.setup + self.seg(i).ir.hop_merge_max * self.ir.height[0]
    }

    /// The busiest inter-tree leader's total CPU, given per-leader CPU
    /// `common` (the same on every leader), `leaf` (every non-root
    /// leader), the summed piece costs each child adds in the reduce
    /// tree, and in the broadcast tree for unrouted and routed segments.
    fn busiest_leader(&self, common: Time, leaf: Time, per_ir: Time, per_ib: [Time; 2]) -> Time {
        (0..self.nl)
            .map(|v| {
                let mut t = common + per_ir * self.ir.deg[v] + per_ib[0] * self.ib.deg[v];
                if let Some(alt) = &self.ib_alt {
                    t += per_ib[1] * alt.deg[v];
                }
                if v > 0 {
                    t += leaf;
                }
                t
            })
            .max()
            .unwrap_or(Time::ZERO)
    }

    fn bcast(&self) -> Time {
        let nl = self.nl;
        // Root join recurrence: r1 = J(i−1), r2 = J(i−2).
        let (mut r1, mut r2) = (Time::ZERO, Time::ZERO);
        // Per-leader and per-consumer CPU sums, root NIC occupancy.
        let (mut common, mut leaf, mut consume, mut tx) =
            (Time::ZERO, Time::ZERO, Time::ZERO, Time::ZERO);
        let mut send = [Time::ZERO; 2];
        for i in 0..self.u {
            let g = self.seg(i);
            let mut w = self.ib_phase(i);
            if i > 0 {
                let p = self.seg(i - 1);
                w = w.max(self.ib_root_cpu(i) + p.lead).max(p.deliver);
            }
            r2 = r1;
            r1 += w;
            common += self.md.setup + g.lead;
            leaf += g.ib.recv;
            consume += g.consume;
            send[self.route(i)] += g.ib.send;
            tx += g.ib.wire * self.ib_tree(i).deg[0];
        }
        let last = self.seg(self.u - 1);
        let mut best = (r1 + last.deliver).max(consume);
        if nl > 1 {
            best = best
                .max(r2 + self.ib_drain(self.u - 1) + last.deliver)
                .max(self.busiest_leader(common, leaf, Time::ZERO, send))
                .max(tx);
        }
        best
    }

    fn allreduce(&self) -> Time {
        let (nl, u) = (self.nl, self.u);
        let setup = self.md.setup;
        // r = J(t−1) on the root, g = J(t−1) on every other leader.
        let (mut r, mut g) = (Time::ZERO, Time::ZERO);
        let mut r_u = Time::ZERO;
        let (mut common, mut leaf, mut consume) = (Time::ZERO, Time::ZERO, Time::ZERO);
        let (mut merged, mut rx, mut tx) = (Time::ZERO, Time::ZERO, Time::ZERO);
        let mut send = [Time::ZERO; 2];
        for t in 0..u + 3 {
            let (mut root_cpu, mut leaf_cpu, mut w, mut gw) =
                (Time::ZERO, Time::ZERO, Time::ZERO, Time::ZERO);
            if t < u {
                // sr(t): every leader merges its node's contributions.
                let s = self.seg(t);
                root_cpu += s.merge;
                leaf_cpu += s.merge;
                common += s.merge + s.lead + setup * 2;
                leaf += s.ir.send + s.ib.recv;
                consume += s.contribute + s.consume;
                merged += s.ir.recv_merge;
                send[self.route(t)] += s.ib.send;
                rx += s.ir.wire * self.ir.deg[0];
                tx += s.ib.wire * self.ib_tree(t).deg[0];
            }
            if (1..=u).contains(&t) {
                // ir(t−1): the root receives and merges, the others send.
                root_cpu += self.ir_root_cpu(t - 1);
                w = w.max(self.ir_root_chain(t - 1));
                leaf_cpu += setup + self.seg(t - 1).ir.send;
            }
            if (2..=u + 1).contains(&t) {
                // ib(t−2): the root sends, the others receive.
                root_cpu += self.ib_root_cpu(t - 2);
                w = w.max(self.ib_phase(t - 2));
                leaf_cpu += setup + self.seg(t - 2).ib.recv;
            }
            if (3..=u + 2).contains(&t) {
                // sb(t−3): every leader delivers to its node.
                let s = self.seg(t - 3);
                root_cpu += s.lead;
                leaf_cpu += s.lead;
                gw = s.deliver;
            }
            let mut r_next = r + w.max(root_cpu).max(gw);
            let g_next = if t == 0 {
                let fold = self.seg(0).fold;
                r_next = r_next.max(fold);
                fold.max(leaf_cpu)
            } else {
                g + leaf_cpu.max(gw)
            };
            if nl > 1 && (1..=u).contains(&t) {
                r_next = r_next.max(g + self.ir_climb(t - 1));
            }
            if t == u {
                r_u = r_next;
            }
            r = r_next;
            g = g_next;
        }
        let last = self.seg(u - 1);
        let mut best = r.max(consume);
        if nl > 1 {
            best = best
                .max(r_u + self.ib_drain(u - 1) + last.deliver)
                .max(self.busiest_leader(common, leaf, merged, send))
                .max(rx)
                .max(tx);
        }
        best
    }

    fn reduce(&self) -> Time {
        let (nl, u) = (self.nl, self.u);
        let setup = self.md.setup;
        let (mut r, mut g) = (Time::ZERO, Time::ZERO);
        let (mut common, mut leaf, mut consume) = (Time::ZERO, Time::ZERO, Time::ZERO);
        let (mut merged, mut rx) = (Time::ZERO, Time::ZERO);
        for t in 0..u + 1 {
            let (mut root_cpu, mut leaf_cpu, mut w) = (Time::ZERO, Time::ZERO, Time::ZERO);
            if t < u {
                let s = self.seg(t);
                root_cpu += s.merge;
                leaf_cpu += s.merge;
                common += s.merge + setup;
                leaf += s.ir.send;
                consume += s.contribute;
                merged += s.ir.recv_merge;
                rx += s.ir.wire * self.ir.deg[0];
            }
            if t >= 1 {
                root_cpu += self.ir_root_cpu(t - 1);
                w = self.ir_root_chain(t - 1);
                leaf_cpu += setup + self.seg(t - 1).ir.send;
            }
            let mut r_next = r + w.max(root_cpu);
            let g_next = if t == 0 {
                let fold = self.seg(0).fold;
                r_next = r_next.max(fold);
                fold.max(leaf_cpu)
            } else {
                g + leaf_cpu
            };
            if nl > 1 && t >= 1 {
                r_next = r_next.max(g + self.ir_climb(t - 1));
            }
            r = r_next;
            g = g_next;
        }
        let mut best = r.max(consume);
        if nl > 1 {
            best = best
                .max(self.busiest_leader(common, leaf, merged, [Time::ZERO; 2]))
                .max(rx);
        }
        best
    }
}

/// An admissible (≤) lower bound on `time_coll` for HAN with config
/// `cfg`, or `None` when no sound bound is known for this collective.
/// Assumes the sweep convention `root = 0` (rank 0 leads every level it
/// belongs to) and no start skew.
pub fn lower_bound(preset: &MachinePreset, cfg: &HanConfig, coll: Coll, m: u64) -> Option<Time> {
    if !matches!(coll, Coll::Bcast | Coll::Allreduce | Coll::Reduce) {
        // No argument verified for these paths; never prune.
        return None;
    }
    let topo = &preset.topology;
    if m == 0 || topo.world_size() == 1 {
        return Some(Time::ZERO);
    }
    let md = Model::new(preset, cfg);
    // Sweeps reduce `Float32` elements.
    let dtype = if coll == Coll::Bcast {
        DataType::Uint8
    } else {
        DataType::Float32
    };
    let (fs, u) = cfg.segmentation(dtype, m, &md.node, &md.lv);
    let u = u as u64;
    let nl = topo.nodes();
    let (ib_shape, ir_shape) = match cfg.imod {
        InterModule::Libnbc => (TreeShape::Binomial, TreeShape::Binomial),
        InterModule::Adapt => (cfg.ibalg.shape(), cfg.iralg.shape()),
    };
    let ib_alt = match cfg.route {
        Some(r) if cfg.imod == InterModule::Adapt => Some(Tree::new(r.alt.shape(), nl)),
        _ => None,
    };
    let plan = Plan {
        full: md.seg(fs.min(m)),
        last: md.seg(m - (u - 1) * fs),
        md,
        nl,
        u,
        ib: Tree::new(ib_shape, nl),
        ib_alt,
        ir: Tree::new(ir_shape, nl),
    };
    Some(match coll {
        Coll::Bcast => plan.bcast(),
        Coll::Allreduce => plan.allreduce(),
        _ => plan.reduce(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_colls::stack::time_coll;
    use han_colls::{InterAlg, IntraModule};
    use han_core::Han;
    use han_machine::{mini, mini3, socketize};

    fn configs() -> Vec<HanConfig> {
        let mut out = Vec::new();
        for fs in [1024, 64 * 1024, 1 << 20] {
            for imod in [InterModule::Libnbc, InterModule::Adapt] {
                for smod in [IntraModule::Sm, IntraModule::Solo] {
                    for alg in [InterAlg::Chain, InterAlg::Binomial] {
                        let mut cfg = HanConfig::default().with_fs(fs).with_intra(smod);
                        cfg.imod = imod;
                        cfg.ibalg = alg;
                        cfg.iralg = alg;
                        if imod == InterModule::Adapt && fs > 1024 {
                            cfg.ibs = Some(16 * 1024);
                            cfg.irs = Some(8 * 1024);
                        }
                        out.push(cfg);
                    }
                }
            }
        }
        out
    }

    /// The defining property: the bound never exceeds the simulated cost.
    #[test]
    fn bound_is_below_simulated_cost() {
        for preset in [mini(4, 4), mini(2, 1), mini(1, 6), mini3(2, 2, 2)] {
            for cfg in configs() {
                for coll in [Coll::Bcast, Coll::Allreduce, Coll::Reduce] {
                    for m in [64u64, 4096, 100_000, 1 << 20] {
                        let Some(lb) = lower_bound(&preset, &cfg, coll, m) else {
                            continue;
                        };
                        let t = time_coll(&Han::with_config(cfg), &preset, coll, m, 0).unwrap();
                        assert!(
                            lb <= t,
                            "{} {coll:?} m={m} cfg={cfg:?}: bound {lb} > cost {t}",
                            preset.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bound_is_nontrivial_at_scale() {
        // At large message sizes the bandwidth terms dominate: the bound
        // must capture a decent fraction of the true cost, otherwise it
        // prunes nothing.
        let preset = mini(4, 4);
        let cfg = HanConfig::default().with_fs(256 * 1024);
        let m = 8 << 20;
        let lb = lower_bound(&preset, &cfg, Coll::Bcast, m).unwrap();
        let t = time_coll(&Han::with_config(cfg), &preset, Coll::Bcast, m, 0).unwrap();
        assert!(
            lb.as_ps() * 4 >= t.as_ps(),
            "bound {lb} too loose vs cost {t}"
        );
    }

    /// Where per-message fixed costs dominate (4 B and 4 KiB on the Fig. 8
    /// slice), the exhaustive winner's bound captures at least half of
    /// its simulated cost.
    #[test]
    fn winner_bound_is_tight_for_small_messages() {
        use crate::space::SearchSpace;
        use han_machine::shaheen2_ppn;
        let preset = shaheen2_ppn(16, 12);
        let space = SearchSpace::standard();
        for coll in [Coll::Bcast, Coll::Allreduce] {
            for m in [4u64, 4096] {
                let (t, cfg) = space
                    .configs_for(m, &preset.topology, false)
                    .into_iter()
                    .map(|cfg| {
                        let t = time_coll(&Han::with_config(cfg), &preset, coll, m, 0).unwrap();
                        (t, cfg)
                    })
                    .min_by_key(|&(t, _)| t)
                    .unwrap();
                let lb = lower_bound(&preset, &cfg, coll, m).unwrap();
                assert!(
                    lb.as_ps() * 2 >= t.as_ps(),
                    "{coll:?} m={m} winner {cfg}: bound {lb} < half of cost {t}"
                );
            }
        }
    }

    #[test]
    fn unbounded_collectives_return_none() {
        let preset = mini(2, 2);
        let cfg = HanConfig::default();
        for coll in [Coll::Gather, Coll::Scatter, Coll::Allgather, Coll::Barrier] {
            assert_eq!(lower_bound(&preset, &cfg, coll, 4096), None);
        }
    }

    #[test]
    fn heterogeneous_and_multi_rail_bounds_hold() {
        use han_machine::{dgx_like, gpu_hier};
        for preset in [dgx_like(2, 4), dgx_like(4, 2), gpu_hier(&[2, 2, 2])] {
            for cfg in configs().into_iter().step_by(3) {
                for coll in [Coll::Bcast, Coll::Allreduce, Coll::Reduce] {
                    for m in [4096u64, 1 << 20] {
                        let Some(lb) = lower_bound(&preset, &cfg, coll, m) else {
                            continue;
                        };
                        let t = time_coll(&Han::with_config(cfg), &preset, coll, m, 0).unwrap();
                        assert!(
                            lb <= t,
                            "{} {coll:?} m={m} cfg={cfg:?}: bound {lb} > cost {t}",
                            preset.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn three_level_socketized_bound_holds() {
        let preset = socketize(mini(2, 8), 2, 0.6);
        for smod in [IntraModule::Sm, IntraModule::Solo] {
            let cfg = HanConfig::default()
                .with_fs(128 * 1024)
                .with_intra(smod)
                .with_deep(2, IntraModule::Sm);
            for coll in [Coll::Bcast, Coll::Allreduce] {
                let m = 2 << 20;
                let lb = lower_bound(&preset, &cfg, coll, m).unwrap();
                let t = time_coll(&Han::with_config(cfg), &preset, coll, m, 0).unwrap();
                assert!(lb <= t, "{coll:?}: bound {lb} > cost {t}");
            }
        }
    }
}
