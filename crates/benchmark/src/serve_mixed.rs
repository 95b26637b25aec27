//! `serve-mixed`: the tuning service on the wire, reads beside writes.
//!
//! Set-up tunes tables for `mini(4,4)`, `mini3(2,2,2)` and
//! `dgx_like(2,4)`, publishes them into an in-process daemon bound to
//! `127.0.0.1:0`, connects and takes the first answer. Then, from one
//! process with two threads and two connections:
//!
//! * connection A sends single-query lookups, flushing its client cache
//!   before each so every lookup crosses the wire. Queries come from a
//!   seeded xorshift stream over fingerprint × collective × size in
//!   [1, 64 MiB). Phases: an open loop at 2,000/s, an open loop at
//!   12,000/s (each request timed from when it was due), then a closed
//!   loop of a fixed number of lookups — the timed operation.
//! * connection B, during the last two phases, sends `retune` every 2 s
//!   and polls `tables` until the generation changes.
//!
//! The repetition's wall time is the closed loop's lookup count times
//! its median round trip: on a shared two-core host, descheduling stalls
//! of milliseconds land in a handful of lookups and would otherwise set
//! the run-to-run spread. The measured throughput, stalls included, is
//! the per-layer `serve.lookups_per_s`.
//!
//! Every answer must equal `LookupTable::resolve` on the table generation
//! the answer names.

use crate::child::{Child, Rep};
use crate::stats::{geomean, median, percentile, tail};
use han_decide::{preset_fingerprint, LookupTable};
use han_machine::{dgx_like, mini, mini3, MachinePreset};
use han_mpi::engine_totals;
use han_serve::{resolve_batch, serve, tune_table, Answer, Client, Query, TableStore, SERVE_COLLS};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Length of each open-loop phase.
const OPEN_LOOP_PHASE: Duration = Duration::from_secs(2);
/// Lookups in the closed-loop phase.
const CLOSED_LOOP_LOOKUPS: usize = 20_000;
const RETUNE_EVERY: Duration = Duration::from_secs(2);
/// Poll interval while waiting for a retune to publish.
const PUBLISH_POLL: Duration = Duration::from_millis(1);
/// Queries per in-process micro-measurement.
const MICRO_QUERIES: usize = 20_000;

/// Deterministic query stream (xorshift64).
pub struct Queries {
    state: u64,
    fingerprints: Vec<u64>,
}

impl Queries {
    pub fn new(seed: u64, fingerprints: Vec<u64>) -> Self {
        // xorshift must not start at zero.
        let state = (seed ^ 0x9e37_79b9_7f4a_7c15).max(1);
        Queries {
            state,
            fingerprints,
        }
    }

    fn bits(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    pub fn next_query(&mut self) -> Query {
        let i = self.bits() % self.fingerprints.len() as u64;
        let fingerprint = self.fingerprints[i as usize];
        let coll = SERVE_COLLS[(self.bits() % SERVE_COLLS.len() as u64) as usize];
        // Log-uniform-ish size in [1, 64 MiB).
        let span = 1u64 << (1 + self.bits() % 26);
        let m = 1 + self.bits() % span;
        Query {
            fingerprint,
            coll,
            m,
        }
    }
}

/// Latencies of one open-loop phase, measured from each request's due
/// time, plus how late the generator sent.
struct Phase {
    latency_us: Vec<f64>,
    max_late_ms: f64,
}

/// Spin for the last stretch before a due time: sleeping alone
/// overshoots by the timer slack, which would read as service latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn lookup(client: &mut Client, q: Query, answers: &mut Vec<(Query, Answer)>) {
    client.flush_cache();
    let a = client.resolve(q).expect("lookup answered");
    answers.push((q, a));
}

fn open_loop(
    client: &mut Client,
    queries: &mut Queries,
    rate: f64,
    duration: Duration,
    answers: &mut Vec<(Query, Answer)>,
) -> Phase {
    let n = (rate * duration.as_secs_f64()) as usize;
    let mut phase = Phase {
        latency_us: Vec::with_capacity(n),
        max_late_ms: 0.0,
    };
    let start = Instant::now();
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        wait_until(due);
        let late = due.elapsed();
        lookup(client, queries.next_query(), answers);
        phase.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
        phase.max_late_ms = phase.max_late_ms.max(late.as_secs_f64() * 1e3);
    }
    phase
}

/// Connection B: retune the presets in turn every [`RETUNE_EVERY`] until
/// `stop`, timing each from request to published generation. Returns the
/// times and every table generation it saw published.
fn retuner(
    addr: SocketAddr,
    store: &TableStore,
    presets: &[MachinePreset],
    stop: &AtomicBool,
) -> (Vec<f64>, Vec<(u64, u64, LookupTable)>) {
    let mut client = Client::connect(addr).expect("connection B");
    let mut times = Vec::new();
    let mut published = Vec::new();
    let mut next = Instant::now();
    for preset in presets.iter().cycle() {
        while Instant::now() < next && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        next += RETUNE_EVERY;
        let fp = preset_fingerprint(preset);
        let generation_of = |client: &mut Client| {
            client
                .tables()
                .expect("tables listing")
                .iter()
                .find(|t| t.fingerprint == fp)
                .map_or(0, |t| t.generation)
        };
        let old = generation_of(&mut client);
        let t = Instant::now();
        client.retune(*preset).expect("retune accepted");
        while generation_of(&mut client) == old {
            std::thread::sleep(PUBLISH_POLL);
        }
        times.push(t.elapsed().as_secs_f64());
        let snap = store.snapshot(fp).expect("published table");
        published.push((fp, snap.generation, snap.table.clone()));
    }
    (times, published)
}

/// ns per call of `f` over `n` calls.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

pub fn run(cx: &mut Child) -> Option<Rep> {
    let presets = [mini(4, 4), mini3(2, 2, 2), dgx_like(2, 4)];
    let fps: Vec<u64> = presets.iter().map(preset_fingerprint).collect();
    let tables: Vec<LookupTable> = presets
        .iter()
        .map(|p| cx.tracer.span("tune_table", || tune_table(p)))
        .collect();
    let store = Arc::new(TableStore::new());
    for (&fp, t) in fps.iter().zip(&tables) {
        cx.tracer
            .span("TableStore::publish", || store.publish(fp, t.clone()));
    }
    let mut server = serve("127.0.0.1:0", Arc::clone(&store)).expect("bind 127.0.0.1:0");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connection A");
    let mut queries = Queries::new(cx.seed, fps.clone());
    let mut answers = Vec::new();
    lookup(&mut client, queries.next_query(), &mut answers);

    cx.setup_done()?;
    let before = engine_totals();
    let root = cx.tracer.open("serve-mixed");
    let r2k = cx.tracer.span("open_loop:2000/s", || {
        open_loop(
            &mut client,
            &mut queries,
            2000.0,
            OPEN_LOOP_PHASE,
            &mut answers,
        )
    });
    let stop = AtomicBool::new(false);
    let (r12k, closed_rtt_us, closed_s, (retune_s, published)) = std::thread::scope(|s| {
        let b = s.spawn(|| retuner(addr, &store, &presets, &stop));
        let r12k = cx.tracer.span("open_loop:12000/s", || {
            open_loop(
                &mut client,
                &mut queries,
                12000.0,
                OPEN_LOOP_PHASE,
                &mut answers,
            )
        });
        let closed = cx.tracer.open("closed_loop");
        let t0 = Instant::now();
        let mut rtt = Vec::with_capacity(CLOSED_LOOP_LOOKUPS);
        for _ in 0..CLOSED_LOOP_LOOKUPS {
            let t = Instant::now();
            lookup(&mut client, queries.next_query(), &mut answers);
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let closed_s = t0.elapsed().as_secs_f64();
        cx.tracer.close(closed);
        stop.store(true, Ordering::SeqCst);
        (r12k, rtt, closed_s, b.join().expect("retuner thread"))
    });
    cx.tracer.close(root);
    let after = engine_totals();
    let stats = server.stats();

    // Every answer against the table generation it names.
    let mut gens: HashMap<(u64, u64), &LookupTable> =
        fps.iter().map(|&fp| (fp, 1)).zip(&tables).collect();
    for (fp, g, t) in &published {
        gens.insert((*fp, *g), t);
    }
    for (q, a) in &answers {
        let want = gens
            .get(&(a.fingerprint, a.generation))
            .and_then(|t| t.resolve(q.coll, q.m));
        let ok = want.is_some_and(|r| {
            a.fingerprint == q.fingerprint
                && a.coll == q.coll
                && a.m == q.m
                && (a.cfg, a.sample, a.lo, a.hi, a.cost_ps) == (r.cfg, r.m, r.lo, r.hi, r.cost_ps)
        });
        cx.check(ok, || {
            format!(
                "{:016x} {} m={} gen {}: answer differs from LookupTable::resolve",
                q.fingerprint,
                q.coll.name(),
                q.m,
                a.generation
            )
        });
    }
    cx.check(!retune_s.is_empty(), || "no retune published".to_string());
    for (label, xs) in [
        ("open loop 2000/s", &r2k.latency_us),
        ("open loop 12000/s", &r12k.latency_us),
        ("closed loop", &closed_rtt_us),
    ] {
        if let (Some(p50), Some(t)) = (median(xs), tail(xs)) {
            eprintln!(
                "[serve-mixed] {label}: p50 {p50:.1} us, p{} {:.1} us (n={})",
                t.p, t.value, t.samples
            );
        }
    }
    let median_rtt_us = median(&closed_rtt_us).unwrap_or(0.0);
    let costs: Vec<f64> = tables
        .iter()
        .flat_map(|t| t.entries.iter().map(|e| e.cost_ps as f64 / 1e6))
        .collect();

    cx.engine(&before, &after);
    if cx.tracer.enabled() {
        for (name, phase, p) in [
            ("serve.lookup_p50_us.r2k", &r2k, 50.0),
            ("serve.lookup_p90_us.r2k", &r2k, 90.0),
            ("serve.lookup_p50_us.r12k", &r12k, 50.0),
            ("serve.lookup_p90_us.r12k", &r12k, 90.0),
            ("serve.rtt_p99_us.r12k", &r12k, 99.0),
        ] {
            cx.layer(name, percentile(&phase.latency_us, p).unwrap_or(0.0));
        }
        cx.layer("serve.lookups_per_s", CLOSED_LOOP_LOOKUPS as f64 / closed_s);
        cx.layer("serve.retune_publish_s", median(&retune_s).unwrap_or(0.0));
        cx.layer("serve.server_batches", stats.batches as f64);
        cx.layer("serve.server_lookups", stats.lookups as f64);
        cx.layer(
            "serve.generator_late_ms",
            r2k.max_late_ms.max(r12k.max_late_ms),
        );
        cx.layer("serve.publish_s", cx.tracer.total_s("TableStore::publish"));
        cx.layer(
            "tuner.retune_s",
            cx.tracer.total_s("tune_table") / presets.len() as f64,
        );

        // In-process costs of the same query stream, without the wire.
        let stream: Vec<Query> = {
            let mut qs = Queries::new(cx.seed, fps.clone());
            (0..MICRO_QUERIES).map(|_| qs.next_query()).collect()
        };
        let by_fp: HashMap<u64, &LookupTable> = fps.iter().copied().zip(&tables).collect();
        let resolve_ns = ns_per_call(MICRO_QUERIES, |i| {
            let q = stream[i];
            std::hint::black_box(by_fp[&q.fingerprint].resolve(q.coll, q.m));
        });
        let server_ns = ns_per_call(MICRO_QUERIES, |i| {
            std::hint::black_box(resolve_batch(&store, &stream[i..=i]).expect("known fingerprint"));
        });
        let hit_ns = ns_per_call(MICRO_QUERIES, |_| {
            std::hint::black_box(client.resolve(stream[0]).expect("cached lookup"));
        });
        let rtt_ns = median_rtt_us * 1e3;
        cx.layer("decide.resolve_ns", resolve_ns);
        cx.layer("serve.server_resolve_ns", server_ns);
        cx.layer("serve.client_hit_ns", hit_ns);
        cx.layer("serve.wire_share", 1.0 - server_ns / rtt_ns.max(1.0));
    }
    drop(client);
    server.shutdown();
    Some(Rep {
        wall_s: CLOSED_LOOP_LOOKUPS as f64 * median_rtt_us / 1e6,
        sim_latency_us: geomean(&costs).unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_stream_is_seeded_and_in_range() {
        let fps = vec![1, 2, 3];
        let a: Vec<Query> = {
            let mut q = Queries::new(7, fps.clone());
            (0..1000).map(|_| q.next_query()).collect()
        };
        let mut q = Queries::new(7, fps.clone());
        assert!(
            a.iter().all(|x| *x == q.next_query()),
            "same seed, same stream"
        );
        let mut other = Queries::new(8, fps.clone());
        assert!(a.iter().any(|x| *x != other.next_query()));
        assert!(a.iter().all(|q| (1..64 << 20).contains(&q.m)));
        assert!(a.iter().all(|q| fps.contains(&q.fingerprint)));
        for c in SERVE_COLLS {
            assert!(a.iter().any(|q| q.coll == c), "{c:?}");
        }
    }
}
