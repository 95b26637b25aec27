//! Serve-path equivalence: batched answers served over TCP must be
//! bit-identical to direct `han_decide::LookupTable` lookups, across
//! presets, random batches and mid-flight hot-swaps.

use han_colls::Coll;
use han_core::HanConfig;
use han_decide::{preset_fingerprint, LookupTable};
use han_machine::{dgx_like, mini, mini3, MachinePreset};
use han_serve::{serve, tune_table, Answer, Client, Query, TableStore, SERVE_COLLS};
use han_sim::Time;
use proptest::prelude::*;
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

    /// Random batches over all presets, served over real TCP, agree
    /// bit-identically with direct table lookups.
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
}

/// Hot-swap consistency: while a publisher thread keeps swapping table
/// versions, every served batch stays internally consistent — one
/// generation per fingerprint per batch, every answer bit-identical to
/// the table version of *that* generation. Old-generation answers are
/// fine mid-swap; mixed-generation batches are not. This pins the
/// server's rule: one store snapshot per fingerprint per batch.
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
    // At least 200 rounds, then on until the client has seen a swap.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut round = 0usize;
    while round < 200 || last_gen <= 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "client saw no swap by round {round}"
        );
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
    stale.insert(Coll::Bcast, 1024, HanConfig::default(), Time::from_us(1));
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
