//! The daemon: a `TcpListener` accept loop, one std thread per
//! connection, batched resolution against the shared [`TableStore`].
//!
//! Batch semantics: the server groups a batch's queries by fingerprint
//! and takes each fingerprint's store snapshot **once per batch**.
//! Every answer for a fingerprint within one batch therefore carries the
//! same generation, even if a re-tune hot-swaps the table mid-batch —
//! the swap lands atomically between batches, never inside one.

use crate::proto::{write_frame, Answer, Query, Request, Response, ServerStats, PROTO_VERSION};
use crate::retune::Retuning;
use crate::spin;
use crate::store::{TableGen, TableStore};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone counters, shared across connection threads.
#[derive(Debug, Default)]
pub struct Counters {
    pub lookups: AtomicU64,
    pub batches: AtomicU64,
    pub publishes: AtomicU64,
    pub retunes: AtomicU64,
}

impl Counters {
    fn stats(&self, tables: u64) -> ServerStats {
        ServerStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            retunes: self.retunes.load(Ordering::Relaxed),
            tables,
        }
    }
}

/// A running daemon: the bound address, the shared store (pre-publish
/// tables through it before pointing clients at the address), and the
/// accept-loop handle.
pub struct ServerHandle {
    addr: SocketAddr,
    store: Arc<TableStore>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn store(&self) -> &Arc<TableStore> {
        &self.store
    }

    pub fn stats(&self) -> ServerStats {
        self.counters.stats(self.store.len() as u64)
    }

    /// Ask the accept loop to stop and wait for it. Safe to call twice.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until the daemon exits (a client sent `Shutdown`).
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind and start serving `store` on `addr` (use port 0 for an
/// ephemeral port; the bound address is on the handle).
pub fn serve(addr: impl ToSocketAddrs, store: Arc<TableStore>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let counters = Arc::new(Counters::default());
    let retuning = Arc::new(Retuning::default());
    let shutdown = Arc::new(AtomicBool::new(false));

    let accept_store = Arc::clone(&store);
    let accept_counters = Arc::clone(&counters);
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let store = Arc::clone(&accept_store);
            let counters = Arc::clone(&accept_counters);
            let retuning = Arc::clone(&retuning);
            let shutdown = Arc::clone(&accept_shutdown);
            let server_addr = addr;
            std::thread::spawn(move || {
                let _ =
                    handle_connection(stream, &store, &counters, &retuning, &shutdown, server_addr);
            });
        }
    });

    Ok(ServerHandle {
        addr,
        store,
        counters,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

fn handle_connection(
    stream: TcpStream,
    store: &Arc<TableStore>,
    counters: &Counters,
    retuning: &Arc<Retuning>,
    shutdown: &AtomicBool,
    server_addr: SocketAddr,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    // Hot while each request arrives within the spin budget of the read
    // that waited for it; only a hot connection polls.
    let mut hot = false;
    loop {
        let (frame, prompt) = spin::read_frame(&mut reader, hot)?;
        hot = prompt;
        let Some(body) = frame else {
            return Ok(()); // peer closed
        };
        let request = match Request::decode(&body) {
            Ok(r) => r,
            Err(e) => {
                let resp = Response::Error {
                    message: format!("bad request: {e}"),
                };
                write_frame(&mut writer, &resp.encode())?;
                continue;
            }
        };
        let stop = matches!(request, Request::Shutdown);
        let response = dispatch(request, store, counters, retuning);
        write_frame(&mut writer, &response.encode())?;
        if stop {
            shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop so it observes the flag.
            let _ = TcpStream::connect(server_addr);
            return Ok(());
        }
    }
}

fn dispatch(
    request: Request,
    store: &Arc<TableStore>,
    counters: &Counters,
    retuning: &Arc<Retuning>,
) -> Response {
    match request {
        Request::Hello => Response::Hello {
            proto: PROTO_VERSION,
            tables: store.len() as u64,
        },
        Request::Resolve { queries } => match resolve_batch(store, &queries) {
            Ok(answers) => {
                counters.batches.fetch_add(1, Ordering::Relaxed);
                counters
                    .lookups
                    .fetch_add(answers.len() as u64, Ordering::Relaxed);
                Response::Resolved { answers }
            }
            Err(message) => Response::Error { message },
        },
        Request::Tables => Response::Tables {
            tables: store.tables(),
        },
        Request::Publish { fingerprint, table } => {
            let generation = store.publish(fingerprint, table);
            counters.publishes.fetch_add(1, Ordering::Relaxed);
            Response::Published {
                fingerprint,
                generation,
            }
        }
        Request::Retune { preset } => {
            counters.retunes.fetch_add(1, Ordering::Relaxed);
            // Detached worker, or none if one is tuning this preset
            // already; the swap lands whenever tuning finishes.
            let fingerprint = retuning.start(store, *preset);
            Response::Retuning { fingerprint }
        }
        Request::Stats => Response::Stats {
            stats: counters.stats(store.len() as u64),
        },
        Request::Shutdown => Response::Done,
    }
}

/// Resolve a batch with per-fingerprint generation consistency: one
/// snapshot per distinct fingerprint for the whole batch.
pub fn resolve_batch(store: &TableStore, queries: &[Query]) -> Result<Vec<Answer>, String> {
    let mut snapshots: HashMap<u64, Arc<TableGen>> = HashMap::new();
    let mut answers = Vec::with_capacity(queries.len());
    for q in queries {
        let snap = match snapshots.get(&q.fingerprint) {
            Some(s) => s,
            None => {
                let s = store
                    .snapshot(q.fingerprint)
                    .ok_or_else(|| format!("unknown fingerprint {:016x}", q.fingerprint))?;
                snapshots.entry(q.fingerprint).or_insert(s)
            }
        };
        let r = snap.table.resolve(q.coll, q.m).ok_or_else(|| {
            format!(
                "no entries for {} in table {:016x}",
                q.coll.name(),
                q.fingerprint
            )
        })?;
        answers.push(Answer {
            fingerprint: q.fingerprint,
            coll: q.coll,
            m: q.m,
            generation: snap.generation,
            cfg: r.cfg,
            sample: r.m,
            lo: r.lo,
            hi: r.hi,
            cost_ps: r.cost_ps,
        });
    }
    Ok(answers)
}
