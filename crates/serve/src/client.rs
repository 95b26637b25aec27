//! The caching client.
//!
//! Every server answer carries its size bucket `[lo, hi]` and table
//! generation, so the client caches one entry per *bucket* per
//! `(fingerprint, collective)` and answers every subsequent query inside
//! the bucket locally, bit-identically: a bucket is exact, from the one
//! integer rule in [`han_decide::resolve`] (a query `x` goes to sample
//! `a` rather than the next sample `b` iff `max(x, 1)² ≤ a·b`). Buckets
//! are invalidated by
//! generation: the first server answer carrying a newer generation for a
//! fingerprint flushes that fingerprint's buckets (and any answers
//! already assembled from them in the in-flight batch, which are then
//! re-resolved), so one returned batch never mixes generations for a
//! fingerprint.

use crate::proto::{read_frame, write_frame, Answer, Query, Request, Response, ServerStats};
use han_colls::Coll;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

/// A connected client with a local decision cache.
pub struct Client {
    stream: BufReader<TcpStream>,
    /// `(fingerprint, coll)` → bucket start `lo` → the bucket's answer.
    buckets: HashMap<(u64, Coll), BTreeMap<u64, Answer>>,
    /// Last generation seen per fingerprint.
    generations: HashMap<u64, u64>,
    hits: u64,
    misses: u64,
}

impl Client {
    /// Connect and handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut c = Client {
            stream: BufReader::new(stream),
            buckets: HashMap::new(),
            generations: HashMap::new(),
            hits: 0,
            misses: 0,
        };
        match c.roundtrip(&Request::Hello)? {
            Response::Hello { proto, .. } if proto == crate::proto::PROTO_VERSION => Ok(c),
            Response::Hello { proto, .. } => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("protocol mismatch: server speaks v{proto}"),
            )),
            other => Err(bad_response(&other)),
        }
    }

    /// Local cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Queries that needed a server round-trip.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups answered without touching the server.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drop every cached bucket (diagnostics; generation bumps already
    /// invalidate precisely).
    pub fn flush_cache(&mut self) {
        self.buckets.clear();
    }

    fn roundtrip(&mut self, request: &Request) -> std::io::Result<Response> {
        write_frame(self.stream.get_mut(), &request.encode())?;
        let body = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
        })?;
        Response::decode(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    fn local(&self, q: &Query) -> Option<Answer> {
        let tree = self.buckets.get(&(q.fingerprint, q.coll))?;
        let (_, &answer) = tree.range(..=q.m).next_back()?;
        if q.m > answer.hi {
            return None;
        }
        let mut a = answer;
        a.m = q.m;
        Some(a)
    }

    fn absorb(&mut self, answer: Answer) {
        let fp = answer.fingerprint;
        if self.generations.get(&fp).copied() != Some(answer.generation) {
            // New table generation: flush this fingerprint's buckets so
            // nothing stale answers locally again.
            self.buckets.retain(|(f, _), _| *f != fp);
            self.generations.insert(fp, answer.generation);
        }
        self.buckets
            .entry((fp, answer.coll))
            .or_default()
            .insert(answer.lo, answer);
    }

    /// Resolve a batch. Answers come back in query order; for each
    /// fingerprint, every answer in the batch carries one generation.
    ///
    /// Termination under concurrent re-tuning: if a server response
    /// leaves a fingerprint's batch answers spanning two generations
    /// (cache answers at the old table, fresh answers at the new one),
    /// every slot for that fingerprint is cleared and the next request
    /// bypasses the local cache for it — the server then answers the
    /// whole set from **one** store snapshot, which is gen-uniform by
    /// construction. A fingerprint therefore needs at most one such
    /// repair round no matter how fast the server hot-swaps.
    pub fn resolve_batch(&mut self, queries: &[Query]) -> std::io::Result<Vec<Answer>> {
        let mut answers: Vec<Option<Answer>> = vec![None; queries.len()];
        let mut force_server: HashSet<u64> = HashSet::new();
        loop {
            // Local pass over everything still unresolved.
            for (i, q) in queries.iter().enumerate() {
                if answers[i].is_none() && !force_server.contains(&q.fingerprint) {
                    if let Some(a) = self.local(q) {
                        answers[i] = Some(a);
                        self.hits += 1;
                    }
                }
            }
            let missing: Vec<usize> = (0..queries.len())
                .filter(|&i| answers[i].is_none())
                .collect();
            if missing.is_empty() {
                return Ok(answers.into_iter().map(|a| a.unwrap()).collect());
            }
            force_server.clear();
            self.misses += missing.len() as u64;
            let request = Request::Resolve {
                queries: missing.iter().map(|&i| queries[i]).collect(),
            };
            match self.roundtrip(&request)? {
                Response::Resolved { answers: fresh } => {
                    if fresh.len() != missing.len() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "answer count mismatch",
                        ));
                    }
                    for (&i, a) in missing.iter().zip(fresh) {
                        self.absorb(a);
                        answers[i] = Some(a);
                    }
                    // Per-fingerprint generation uniformity sweep: a
                    // mixed fingerprint is fully retracted and re-asked
                    // server-side in one snapshot next round.
                    let mut gens: HashMap<u64, u64> = HashMap::new();
                    for a in answers.iter().flatten() {
                        let g = gens.entry(a.fingerprint).or_insert(a.generation);
                        if *g != a.generation {
                            force_server.insert(a.fingerprint);
                        }
                    }
                    for slot in answers.iter_mut() {
                        if slot.is_some_and(|a| force_server.contains(&a.fingerprint)) {
                            *slot = None;
                        }
                    }
                }
                Response::Error { message } => return Err(std::io::Error::other(message)),
                other => return Err(bad_response(&other)),
            }
        }
    }

    /// Resolve one query.
    pub fn resolve(&mut self, q: Query) -> std::io::Result<Answer> {
        Ok(self.resolve_batch(std::slice::from_ref(&q))?[0])
    }

    /// Publish a table under a fingerprint; returns the new generation.
    pub fn publish(
        &mut self,
        fingerprint: u64,
        table: han_decide::LookupTable,
    ) -> std::io::Result<u64> {
        match self.roundtrip(&Request::Publish { fingerprint, table })? {
            Response::Published { generation, .. } => Ok(generation),
            Response::Error { message } => Err(std::io::Error::other(message)),
            other => Err(bad_response(&other)),
        }
    }

    /// Kick off a background re-tune of `preset` on the server; returns
    /// the fingerprint the table will hot-swap under.
    pub fn retune(&mut self, preset: han_machine::MachinePreset) -> std::io::Result<u64> {
        match self.roundtrip(&Request::Retune {
            preset: Box::new(preset),
        })? {
            Response::Retuning { fingerprint } => Ok(fingerprint),
            Response::Error { message } => Err(std::io::Error::other(message)),
            other => Err(bad_response(&other)),
        }
    }

    /// List the server's tables.
    pub fn tables(&mut self) -> std::io::Result<Vec<crate::proto::TableRow>> {
        match self.roundtrip(&Request::Tables)? {
            Response::Tables { tables } => Ok(tables),
            other => Err(bad_response(&other)),
        }
    }

    /// Fetch server counters.
    pub fn server_stats(&mut self) -> std::io::Result<ServerStats> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(bad_response(&other)),
        }
    }

    /// Ask the daemon to exit.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Done => Ok(()),
            other => Err(bad_response(&other)),
        }
    }
}

fn bad_response(r: &Response) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("unexpected response: {r:?}"),
    )
}
