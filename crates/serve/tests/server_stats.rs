//! The server's counters, end to end: known traffic over loopback must
//! show up exactly in both `Client::server_stats` (the wire's `Stats`
//! request) and `ServerHandle::stats`, and a batch the server rejects
//! counts nothing.

use han_colls::Coll;
use han_core::HanConfig;
use han_decide::LookupTable;
use han_serve::{serve, Client, Query, ServerStats, TableStore};
use han_sim::Time;
use std::sync::Arc;

const FP: u64 = 0x5eed;

fn table() -> LookupTable {
    let mut t = LookupTable::new(2, 4);
    for (k, m) in [1u64 << 10, 1 << 16, 1 << 22].into_iter().enumerate() {
        let cfg = HanConfig::default().with_fs(m >> k);
        t.insert(Coll::Bcast, m, cfg, Time::from_us(10 + k as u64));
        t.insert(Coll::Allreduce, m, cfg, Time::from_us(20 + k as u64));
    }
    t
}

fn query(fingerprint: u64, coll: Coll, m: u64) -> Query {
    Query {
        fingerprint,
        coll,
        m,
    }
}

#[test]
fn stats_count_exactly_the_traffic_sent() {
    let server = serve("127.0.0.1:0", Arc::new(TableStore::new())).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.server_stats().unwrap(), ServerStats::default());

    assert_eq!(client.publish(FP, table()).unwrap(), 1);
    let batches: [&[Query]; 3] = [
        &[
            query(FP, Coll::Bcast, 4),
            query(FP, Coll::Bcast, 1 << 16),
            query(FP, Coll::Allreduce, 1 << 30),
        ],
        &[query(FP, Coll::Allreduce, 1 << 10)],
        &[
            query(FP, Coll::Bcast, 1 << 22),
            query(FP, Coll::Allreduce, 1 << 16),
        ],
    ];
    for batch in batches {
        assert_eq!(client.resolve_batch(batch).unwrap().len(), batch.len());
    }
    // One unknown fingerprint fails the whole batch, known query included.
    let failed = [query(FP, Coll::Bcast, 4), query(FP + 1, Coll::Bcast, 4)];
    assert!(client.resolve_batch(&failed).is_err());

    let expected = ServerStats {
        lookups: 6,
        batches: 3,
        publishes: 1,
        retunes: 0,
        tables: 1,
    };
    assert_eq!(client.server_stats().unwrap(), expected);
    assert_eq!(server.stats(), expected);
}
