//! Serve-path equivalence: batched answers served over TCP must be
//! bit-identical to direct `han_decide::LookupTable` lookups, across
//! presets, random batches, client caching, and mid-flight hot-swaps.

use han_colls::Coll;
use han_core::HanConfig;
use han_decide::{preset_fingerprint, LookupTable};
use han_machine::{dgx_like, mini, mini3, MachinePreset};
use han_serve::{serve, tune_table, Answer, Client, Query, TableStore, SERVE_COLLS};
use han_sim::Time;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

struct Fixture {
    presets: Vec<MachinePreset>,
    tables: Vec<LookupTable>,
    fingerprints: Vec<u64>,
}

/// Tuning is the expensive part; share one tuned set across all tests.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let presets = vec![mini(4, 4), mini3(2, 2, 2), dgx_like(2, 4)];
        let tables: Vec<LookupTable> = presets.iter().map(tune_table).collect();
        let fingerprints = presets.iter().map(preset_fingerprint).collect();
        Fixture {
            presets,
            tables,
            fingerprints,
        }
    })
}

fn store_with_tables() -> Arc<TableStore> {
    let fx = fixture();
    let store = Arc::new(TableStore::new());
    for (fp, table) in fx.fingerprints.iter().zip(&fx.tables) {
        store.publish(*fp, table.clone());
    }
    store
}

/// The direct answer the served one must match bit-for-bit, bucket
/// included: sample, config, cost, `lo`, `hi`.
fn direct(table: &LookupTable, coll: Coll, m: u64) -> (u64, HanConfig, u64, u64, u64) {
    let r = table.resolve(coll, m).expect("tuned collective");
    (r.m, r.cfg, r.cost_ps, r.lo, r.hi)
}

/// The same fields of a served answer.
fn served(a: &Answer) -> (u64, HanConfig, u64, u64, u64) {
    (a.sample, a.cfg, a.cost_ps, a.lo, a.hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random batches over all presets, served over real TCP through the
    /// caching client, agree bit-identically with direct table lookups.
    #[test]
    fn served_batches_match_direct_lookups(
        raw in proptest::collection::vec(
            (0usize..3, 0usize..3, 0u64..(64 << 20)),
            1..48,
        ),
    ) {
        let fx = fixture();
        let store = store_with_tables();
        let mut server = serve("127.0.0.1:0", store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let queries: Vec<Query> = raw
            .iter()
            .map(|&(p, c, m)| Query {
                fingerprint: fx.fingerprints[p],
                coll: SERVE_COLLS[c],
                m,
            })
            .collect();
        let answers = client.resolve_batch(&queries).unwrap();
        prop_assert_eq!(answers.len(), queries.len());
        for (q, a) in queries.iter().zip(&answers) {
            let p = fx.fingerprints.iter().position(|f| *f == a.fingerprint).unwrap();
            prop_assert_eq!((a.m, a.coll, a.generation), (q.m, q.coll, 1));
            prop_assert_eq!(served(a), direct(&fx.tables[p], q.coll, q.m));
            prop_assert!(a.lo <= q.m && q.m <= a.hi);
        }
        server.shutdown();
    }

    /// The client cache never changes an answer: replaying the same
    /// batch (now mostly cache hits) returns identical answers, and the
    /// hit rate climbs.
    #[test]
    fn cached_replay_is_bit_identical(
        raw in proptest::collection::vec((0usize..3, 0u64..(64 << 20)), 8..64),
    ) {
        let fx = fixture();
        let store = store_with_tables();
        let mut server = serve("127.0.0.1:0", store).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let queries: Vec<Query> = raw
            .iter()
            .map(|&(c, m)| Query {
                fingerprint: fx.fingerprints[c % 3],
                coll: SERVE_COLLS[c],
                m,
            })
            .collect();
        let first = client.resolve_batch(&queries).unwrap();
        let misses_after_first = client.misses();
        let second = client.resolve_batch(&queries).unwrap();
        prop_assert_eq!(&first, &second);
        // The replay is answered entirely from the bucket cache.
        prop_assert_eq!(client.misses(), misses_after_first);
        prop_assert!(client.hit_rate() > 0.0);
        server.shutdown();
    }
}

/// Hot-swap consistency: while a publisher thread keeps swapping table
/// versions, every served batch stays internally consistent — one
/// generation per fingerprint per batch, every answer bit-identical to
/// the table version of *that* generation. Old-generation answers are
/// fine mid-swap; mixed-generation batches are not.
#[test]
fn hot_swap_never_mixes_generations() {
    let fx = fixture();
    // Two handmade versions so every generation's right answer is known.
    // (Versions alternate v1, v2, v1, ... as generations climb.)
    let versions: Vec<LookupTable> = vec![
        fx.tables[0].clone(),
        LookupTable {
            entries: fx.tables[0]
                .entries
                .iter()
                .map(|e| {
                    let mut e = e.clone();
                    e.cfg = e.cfg.with_fs(e.cfg.fs.saturating_mul(2).max(8));
                    e.cost_ps += 1;
                    e
                })
                .collect(),
            ..fx.tables[0].clone()
        },
    ];
    let fp = fx.fingerprints[0];
    let store = Arc::new(TableStore::new());
    store.publish(fp, versions[0].clone());
    let mut server = serve("127.0.0.1:0", Arc::clone(&store)).unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let publisher = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let versions = versions.clone();
        std::thread::spawn(move || {
            let mut v = 1usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                store.publish(fp, versions[v % 2].clone());
                v += 1;
                // Throttled so the publisher leaves the server and the
                // client a core to run on.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        })
    };

    let mut client = Client::connect(server.addr()).unwrap();
    let sizes: Vec<u64> = (0..14).map(|i| 1u64 << i).chain([100, 77777]).collect();
    let mut last_gen = 0u64;
    // At least 200 rounds, then on until the client has seen a swap:
    // past round 200 each round flushes the local cache, so it asks the
    // server, which answers from the latest generation.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut round = 0usize;
    while round < 200 || last_gen <= 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "client saw no swap by round {round}"
        );
        if round >= 200 {
            client.flush_cache();
        }
        let queries: Vec<Query> = sizes
            .iter()
            .enumerate()
            .map(|(i, &m)| Query {
                fingerprint: fp,
                coll: SERVE_COLLS[(i + round) % SERVE_COLLS.len()],
                m: m + round as u64,
            })
            .collect();
        let answers = client.resolve_batch(&queries).unwrap();
        // One generation across the whole batch (single fingerprint).
        let generation = answers[0].generation;
        assert!(
            answers.iter().all(|a| a.generation == generation),
            "mixed generations in one batch: {answers:?}"
        );
        // Generations only move forward from the client's point of view.
        assert!(generation >= last_gen, "generation went backwards");
        last_gen = generation;
        // Bit-identical to the version that generation published:
        // generation g carries versions[(g-1) % 2].
        let table = &versions[((generation - 1) % 2) as usize];
        for (q, a) in queries.iter().zip(&answers) {
            let want = direct(table, q.coll, q.m);
            assert_eq!(served(a), want, "wrong answer for generation {generation}");
        }
        round += 1;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    publisher.join().unwrap();
    // Deterministic swap observation: publish once more (parity chosen so
    // generation g still maps to versions[(g-1) % 2]) and require the
    // client to pick up the new generation on a fresh query.
    let settled = store.snapshot(fp).unwrap().generation;
    assert!(settled > 1, "publisher never landed a swap");
    store.publish(fp, versions[(settled % 2) as usize].clone());
    client.flush_cache(); // force a round-trip; buckets tile the axis
    let a = client
        .resolve(Query {
            fingerprint: fp,
            coll: SERVE_COLLS[0],
            m: 999_999,
        })
        .unwrap();
    assert_eq!(a.generation, settled + 1);
    let want = direct(&versions[(settled % 2) as usize], SERVE_COLLS[0], 999_999);
    assert_eq!(served(&a), want);
    server.shutdown();
}

/// A served preset's fingerprint answers must track the preset: publish
/// all three tables, then check each fingerprint resolves with its own
/// preset's table, not a neighbour's.
#[test]
fn fingerprints_do_not_cross_talk() {
    let fx = fixture();
    let store = store_with_tables();
    let mut server = serve("127.0.0.1:0", store).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (p, fp) in fx.fingerprints.iter().enumerate() {
        for coll in SERVE_COLLS {
            for m in [1u64, 4096, 1 << 20, 32 << 20] {
                let a = client
                    .resolve(Query {
                        fingerprint: *fp,
                        coll,
                        m,
                    })
                    .unwrap();
                let want = direct(&fx.tables[p], coll, m);
                assert_eq!(served(&a), want, "preset {p} {coll:?} m={m}");
            }
        }
    }
    // Tables listing matches what was published.
    let rows = client.tables().unwrap();
    assert_eq!(rows.len(), 3);
    for row in rows {
        let p = fx
            .fingerprints
            .iter()
            .position(|f| *f == row.fingerprint)
            .unwrap();
        assert_eq!(row.entries as usize, fx.tables[p].entries.len());
        assert_eq!(row.levels, fx.presets[p].topology.levels().to_vec());
    }
    server.shutdown();
}

/// The server-initiated retune path: ask the daemon to re-tune a preset
/// it already serves and wait for the hot-swap to land; the new
/// generation must serve answers identical to a locally tuned table.
#[test]
fn remote_retune_hot_swaps_in() {
    let fx = fixture();
    let preset = fx.presets[0];
    let fp = fx.fingerprints[0];
    let store = Arc::new(TableStore::new());
    // Start from a deliberately stale table (one entry) so the swap is
    // observable.
    let mut stale = LookupTable::for_topology(&preset.topology);
    stale.insert(
        han_colls::Coll::Bcast,
        1024,
        han_core::HanConfig::default(),
        han_sim::Time::from_us(1),
    );
    store.publish(fp, stale);
    let mut server = serve("127.0.0.1:0", Arc::clone(&store)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.retune(preset).unwrap(), fp);
    // Wait for the background worker to land the swap.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if store.snapshot(fp).map(|s| s.generation) == Some(2) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "retune did not land in time"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    for coll in SERVE_COLLS {
        for m in [512u64, 64 * 1024, 8 << 20] {
            let a = client
                .resolve(Query {
                    fingerprint: fp,
                    coll,
                    m,
                })
                .unwrap();
            assert_eq!(a.generation, 2);
            let want = direct(&fx.tables[0], coll, m);
            assert_eq!(served(&a), want, "{coll:?} m={m}");
        }
    }
    server.shutdown();
}

/// A table with uneven, non-power-of-two samples, including the corner
/// cases of the decision rule: 0 and 1 (the same log position, so 0
/// wins), two samples one apart near 2^60 (only integer arithmetic
/// separates them), one within 2 of `u64::MAX`, and a duplicated sample
/// (the first entry wins).
fn uneven_table() -> LookupTable {
    let mut t = LookupTable::new(3, 5);
    let sizes = [
        0u64,
        1,
        3,
        100,
        1000,
        1500,
        77_777,
        (1 << 20) + 5,
        123_456_789,
        1 << 60,
        (1 << 60) + 1,
        u64::MAX - 1,
    ];
    for (i, &m) in sizes.iter().enumerate() {
        let coll = [Coll::Bcast, Coll::Gather][i % 2];
        for c in [Coll::Allreduce, coll] {
            t.insert(
                c,
                m,
                HanConfig::default().with_fs(1 + i as u64),
                Time::from_ps(1000 + i as u64),
            );
        }
    }
    t.insert(
        Coll::Allreduce,
        1500,
        HanConfig::default().with_fs(999),
        Time::from_ps(1),
    );
    t
}

/// Brute force: the entry a linear scan over every sample picks with the
/// exact pairwise rule. For samples `a' < b'` (`s' = max(s, 1)`), `x`
/// goes to `a` iff `max(x, 1)² ≤ a'·b'`; equal `s'` keep the smaller
/// sample, then the first entry.
fn reference(t: &LookupTable, coll: Coll, x: u64) -> Option<(u64, HanConfig, u64)> {
    let (x, s) = (u128::from(x.max(1)), |m: u64| u128::from(m.max(1)));
    let entries = t.entries.iter().filter(|e| e.coll == coll.name());
    entries
        .reduce(|best, e| {
            let mut pair = [best, e];
            pair.sort_by_key(|e| (s(e.m), e.m));
            let [a, b] = pair;
            if s(a.m) == s(b.m) || x * x <= s(a.m) * s(b.m) {
                a
            } else {
                b
            }
        })
        .map(|e| (e.m, e.cfg, e.cost_ps))
}

/// A published generation answers like the brute-force reference, with
/// a bucket that holds the query: at every sample, on both sides of
/// every bucket edge, at the extremes and at 10,000 seeded random sizes;
/// and a collective the table lacks resolves to `None`.
#[test]
fn table_gen_matches_the_brute_force_reference() {
    let fx = fixture();
    let tables: Vec<LookupTable> = fx.tables.iter().cloned().chain([uneven_table()]).collect();
    let store = TableStore::new();
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    for (fp, table) in tables.iter().enumerate() {
        store.publish(fp as u64, table.clone());
        let snap = store.snapshot(fp as u64).unwrap();
        let mut lacking = 0;
        for coll in Coll::ALL {
            let buckets = table.buckets(coll);
            if buckets.is_empty() {
                lacking += 1;
            }
            let mut sizes = vec![0, 1, u64::MAX];
            sizes.extend(table.sampled_sizes(coll));
            for r in &buckets {
                sizes.extend([r.lo.wrapping_sub(1), r.lo, r.hi, r.hi.wrapping_add(1)]);
            }
            // Log-uniform over the whole axis.
            sizes.extend((0..10_000).map(|_| rng.random::<u64>() >> rng.random_range(0..64u32)));
            for m in sizes {
                let got = snap.resolve(coll, m);
                if let Some(r) = got {
                    assert!(r.contains(m), "table {fp} {coll:?} m={m}");
                }
                assert_eq!(
                    got.map(|r| (r.m, r.cfg, r.cost_ps)),
                    reference(table, coll, m),
                    "table {fp} {coll:?} m={m}"
                );
            }
        }
        assert!(lacking > 0, "table {fp} covers every collective");
    }
}
