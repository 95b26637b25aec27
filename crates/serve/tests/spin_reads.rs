//! Spin-then-block reads on both ends of the wire. A frame that arrives
//! late or in pieces, after the poll has given up, is read intact by the
//! client and by the server. A peer that closes while the other end polls
//! gives a prompt clean close. A frame larger than a socket buffer still
//! goes out whole after a polled read, so no write ever meets the
//! socket in its non-blocking state.

use han_colls::Coll;
use han_core::HanConfig;
use han_decide::LookupTable;
use han_serve::proto::{read_frame, write_frame, Request, Response, PROTO_VERSION};
use han_serve::spin::{self, SPIN_BUDGET};
use han_serve::{resolve_batch, serve, Answer, Client, Query, TableStore};
use han_sim::Time;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

const FP: u64 = 0x5eed;
/// Far past the spin budget: a reader waiting this long has blocked.
const LATE: Duration = SPIN_BUDGET.saturating_mul(50);
/// A step that takes this long hangs.
const HANG: Duration = Duration::from_secs(30);
/// Lookups in a batch whose 96-byte answers fill several socket buffers.
const BIG_BATCH: usize = 100_000;
/// Entries in a table whose `publish` frame fills several socket buffers.
const BIG_TABLE: usize = 60_000;

fn table() -> LookupTable {
    let mut t = LookupTable::new(2, 4);
    for (k, m) in [1u64 << 10, 1 << 16, 1 << 22].into_iter().enumerate() {
        let cfg = HanConfig::default().with_fs(m >> k);
        t.insert(Coll::Bcast, m, cfg, Time::from_us(10 + k as u64));
        t.insert(Coll::Allreduce, m, cfg, Time::from_us(20 + k as u64));
    }
    t
}

fn big_table() -> LookupTable {
    let mut t = LookupTable::new(2, 4);
    for m in 1..=BIG_TABLE as u64 {
        t.insert(
            Coll::Bcast,
            m,
            HanConfig::default().with_fs(m),
            Time::from_ps(m),
        );
    }
    t
}

fn store() -> Arc<TableStore> {
    let store = Arc::new(TableStore::new());
    store.publish(FP, table());
    store
}

fn queries(n: usize) -> Vec<Query> {
    (0..n as u64)
        .map(|i| Query {
            fingerprint: FP,
            coll: [Coll::Bcast, Coll::Allreduce][i as usize % 2],
            m: i * 977 % (1 << 24),
        })
        .collect()
}

/// `body` as the bytes of one frame.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, body).unwrap();
    out
}

/// Write `bytes` cut at `cut`, the second piece [`LATE`] after the
/// first. A cut of 0 sends the whole frame late.
fn send_torn(w: &mut impl Write, bytes: &[u8], cut: usize) {
    w.write_all(&bytes[..cut]).unwrap();
    std::thread::sleep(LATE);
    w.write_all(&bytes[cut..]).unwrap();
}

/// Cuts inside the length prefix, inside the body, and before the frame.
const CUTS: [usize; 3] = [2, 4 + 3, 0];

fn decoded_answers(body: &[u8]) -> Vec<Answer> {
    match Response::decode(body).unwrap() {
        Response::Resolved { answers } => answers,
        other => panic!("expected answers, got {other:?}"),
    }
}

/// Run `f` on its own thread and return its result, failing the test if
/// it has not returned within [`HANG`].
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(HANG) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("{what} hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// A one-connection stand-in for the daemon: it answers the handshake,
/// then hands the connection to `script`.
fn fake_server(
    script: impl FnOnce(&mut BufReader<TcpStream>, &mut TcpStream) + Send + 'static,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let hello = read_frame(&mut reader).unwrap().unwrap();
        assert!(matches!(Request::decode(&hello), Ok(Request::Hello)));
        let reply = Response::Hello {
            proto: PROTO_VERSION,
            tables: 1,
        };
        write_frame(&mut stream, &reply.encode()).unwrap();
        script(&mut reader, &mut stream);
    });
    (addr, handle)
}

/// The next request the fake server reads, which must be a resolve.
fn read_resolve(reader: &mut BufReader<TcpStream>) -> Vec<Query> {
    let body = read_frame(reader).unwrap().expect("a request");
    match Request::decode(&body).unwrap() {
        Request::Resolve { queries } => queries,
        other => panic!("expected a resolve, got {other:?}"),
    }
}

/// A raw connection to a real daemon, outside `Client`, so a test
/// controls when each byte goes out and when answers are read.
struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(HANG)).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Raw { stream, reader }
    }

    fn answers(&mut self) -> Vec<Answer> {
        decoded_answers(&read_frame(&mut self.reader).unwrap().expect("a response"))
    }

    /// Back-to-back lookups, so the server holds the connection hot and
    /// polls for the next request.
    fn warm_up(&mut self, store: &TableStore) {
        let qs = queries(2);
        let request = framed(
            &Request::Resolve {
                queries: qs.clone(),
            }
            .encode(),
        );
        for _ in 0..50 {
            self.stream.write_all(&request).unwrap();
            assert_eq!(self.answers(), resolve_batch(store, &qs).unwrap());
        }
    }
}

#[test]
fn the_server_reads_a_late_or_torn_request_intact() {
    let store = store();
    let mut server = serve("127.0.0.1:0", Arc::clone(&store)).unwrap();
    let mut raw = Raw::connect(server.addr());
    let qs = queries(5);
    let want = resolve_batch(&store, &qs).unwrap();
    let request = framed(&Request::Resolve { queries: qs }.encode());
    for cut in CUTS {
        raw.warm_up(&store);
        send_torn(&mut raw.stream, &request, cut);
        assert_eq!(raw.answers(), want, "cut at {cut}");
    }
    server.shutdown();
}

#[test]
fn the_client_reads_a_late_or_torn_response_intact() {
    let store = store();
    let qs = queries(5);
    let want = resolve_batch(&store, &qs).unwrap();
    let (addr, fake) = {
        let store = Arc::clone(&store);
        fake_server(move |reader, writer| {
            for cut in CUTS {
                let qs = read_resolve(reader);
                let answers = resolve_batch(&store, &qs).unwrap();
                send_torn(
                    writer,
                    &framed(&Response::Resolved { answers }.encode()),
                    cut,
                );
            }
        })
    };
    let got = within("client", move || {
        let mut client = Client::connect(addr).unwrap();
        CUTS.map(|_| client.resolve_batch(&qs).unwrap())
    });
    for (cut, answers) in CUTS.into_iter().zip(got) {
        assert_eq!(answers, want, "cut at {cut}");
    }
    fake.join().unwrap();
}

#[test]
fn a_peer_closing_mid_poll_is_a_clean_close_at_the_reader() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (ours, _) = listener.accept().unwrap();
    // The peer writes one frame and hangs up at once, while the reader
    // polls for the next.
    std::thread::spawn(move || {
        write_frame(&mut peer, b"{}").unwrap();
    });
    let (first, second) = within("reader", move || {
        let mut reader = BufReader::new(ours);
        let first = spin::read_frame(&mut reader, true).unwrap();
        let second = spin::read_frame(&mut reader, true).unwrap();
        (first.0, second.0)
    });
    assert_eq!(first.as_deref(), Some(&b"{}"[..]));
    assert_eq!(second, None, "a close at a frame boundary is Ok(None)");
}

#[test]
fn a_client_closing_while_the_server_polls_ends_the_connection() {
    let store = store();
    let mut server = serve("127.0.0.1:0", Arc::clone(&store)).unwrap();
    let mut raw = Raw::connect(server.addr());
    raw.warm_up(&store);
    raw.stream.shutdown(Shutdown::Write).unwrap();
    // The server sees the close, returns and closes its end: end of
    // stream here, not a read timeout.
    let mut rest = Vec::new();
    assert_eq!(raw.reader.read_to_end(&mut rest).unwrap(), 0);
    // And it keeps serving other connections.
    let mut client = Client::connect(server.addr()).unwrap();
    let qs = queries(3);
    assert_eq!(
        client.resolve_batch(&qs).unwrap(),
        resolve_batch(&store, &qs).unwrap()
    );
    server.shutdown();
}

#[test]
fn a_server_closing_while_the_client_polls_is_server_closed() {
    let store = store();
    let (addr, fake) = {
        let store = Arc::clone(&store);
        fake_server(move |reader, writer| {
            let qs = read_resolve(reader);
            let answers = resolve_batch(&store, &qs).unwrap();
            write_frame(writer, &Response::Resolved { answers }.encode()).unwrap();
            // Read the next request, then hang up without answering.
            read_resolve(reader);
        })
    };
    let qs = queries(2);
    let (first, second) = within("client", move || {
        let mut client = Client::connect(addr).unwrap();
        (client.resolve_batch(&qs), client.resolve_batch(&qs))
    });
    assert_eq!(first.unwrap(), resolve_batch(&store, &queries(2)).unwrap());
    let e = second.unwrap_err();
    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
    assert_eq!(e.to_string(), "server closed");
    fake.join().unwrap();
}

#[test]
fn the_client_writes_a_large_frame_whole_after_a_polled_read() {
    let store = store();
    let big = big_table();
    let want = big.entries.len();
    let (addr, fake) = {
        let store = Arc::clone(&store);
        fake_server(move |reader, writer| {
            let qs = read_resolve(reader);
            let answers = resolve_batch(&store, &qs).unwrap();
            write_frame(writer, &Response::Resolved { answers }.encode()).unwrap();
            // Let the publish fill both socket buffers before reading it,
            // so the client's write has to wait for room.
            std::thread::sleep(Duration::from_millis(50));
            let body = read_frame(reader).unwrap().expect("a publish");
            let Ok(Request::Publish { fingerprint, table }) = Request::decode(&body) else {
                panic!("expected a publish");
            };
            assert_eq!(table.entries.len(), want);
            let reply = Response::Published {
                fingerprint,
                generation: 1,
            };
            write_frame(writer, &reply.encode()).unwrap();
        })
    };
    let generation = within("client", move || {
        let mut client = Client::connect(addr).unwrap();
        client.resolve_batch(&queries(2)).unwrap();
        client.publish(FP + 1, big)
    });
    assert_eq!(generation.unwrap(), 1);
    fake.join().unwrap();
}

#[test]
fn the_server_reads_and_writes_large_frames_whole_after_a_polled_read() {
    let store = store();
    let mut server = serve("127.0.0.1:0", Arc::clone(&store)).unwrap();
    // A large request: a table publish, read after polled reads.
    let big = big_table();
    let entries = big.entries.len() as u64;
    let mut client = Client::connect(server.addr()).unwrap();
    client.resolve_batch(&queries(2)).unwrap();
    assert_eq!(client.publish(FP + 1, big).unwrap(), 1);
    let rows = client.tables().unwrap();
    assert!(rows
        .iter()
        .any(|r| r.fingerprint == FP + 1 && r.entries == entries));
    // A large answer, written while this end does not read yet, so the
    // server's write has to wait for room.
    let mut raw = Raw::connect(server.addr());
    raw.warm_up(&store);
    let qs = queries(BIG_BATCH);
    raw.stream
        .write_all(&framed(
            &Request::Resolve {
                queries: qs.clone(),
            }
            .encode(),
        ))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(raw.answers(), resolve_batch(&store, &qs).unwrap());
    // The connection still serves after the large frames.
    raw.warm_up(&store);
    server.shutdown();
}
