//! Retunes coalesce per fingerprint: a `Retune` for a preset the daemon
//! is already tuning starts no second worker, yet is answered and
//! counted like any other. Once the table is published, the next
//! `Retune` tunes again.

use han_decide::preset_fingerprint;
use han_machine::mini;
use han_serve::proto::{read_frame, write_frame, Request, Response};
use han_serve::{serve, Client, TableStore};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wait until `fp`'s table reaches `generation`, failing after a minute.
fn wait_for(store: &TableStore, fp: u64, generation: u64) -> Duration {
    let start = Instant::now();
    while store.snapshot(fp).map_or(0, |s| s.generation) < generation {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "generation {generation} never landed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    start.elapsed()
}

#[test]
fn a_retune_of_a_preset_being_tuned_starts_no_second_worker() {
    // Large enough that tuning takes milliseconds (17 ms optimized on a
    // 2-vCPU host), far longer than the server needs for two requests.
    let preset = mini(8, 8);
    let fp = preset_fingerprint(&preset);
    let store = Arc::new(TableStore::new());
    let mut server = serve("127.0.0.1:0", Arc::clone(&store)).unwrap();

    // Both requests in one write, so the second is already waiting when
    // the server has answered the first.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let retune = Request::Retune {
        preset: Box::new(preset),
    };
    let mut frames = Vec::new();
    write_frame(&mut frames, &retune.encode()).unwrap();
    write_frame(&mut frames, &retune.encode()).unwrap();
    raw.write_all(&frames).unwrap();
    let mut reader = BufReader::new(raw);
    for _ in 0..2 {
        let body = read_frame(&mut reader).unwrap().expect("an answer");
        let answer = Response::decode(&body).unwrap();
        assert!(
            matches!(answer, Response::Retuning { fingerprint } if fingerprint == fp),
            "{answer:?}"
        );
    }
    assert!(
        store.snapshot(fp).is_none(),
        "the first retune published before the second was asked"
    );
    let tuned_in = wait_for(&store, fp, 1);
    // A second worker would have started beside the first and published
    // about when it did; give it ten times as long, and at least a second.
    std::thread::sleep((tuned_in * 10).max(Duration::from_secs(1)));
    assert_eq!(store.snapshot(fp).unwrap().generation, 1, "two publishes");

    // Published, so the next retune tunes again.
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.retune(preset).unwrap(), fp);
    wait_for(&store, fp, 2);
    // Every request counts, coalesced or not.
    assert_eq!(client.server_stats().unwrap().retunes, 3);
    server.shutdown();
}
