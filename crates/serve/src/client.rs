//! The client: one connection, one round trip per batch. It polls for
//! each response before it blocks ([`crate::spin`]).
//!
//! The server answers each fingerprint of a batch from one store
//! snapshot, so every answer in a returned batch carries one generation
//! per fingerprint. Each answer also carries its size bucket `[lo, hi]`,
//! so a caller may cache it exactly; this client keeps no cache.

use crate::proto::{write_frame, Answer, Query, Request, Response, ServerStats};
use crate::spin;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

/// A connected client.
pub struct Client {
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connect and handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut c = Client {
            stream: BufReader::new(stream),
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

    /// Does nothing: the client keeps no cache.
    pub fn flush_cache(&mut self) {}

    fn roundtrip(&mut self, request: &Request) -> std::io::Result<Response> {
        write_frame(self.stream.get_mut(), &request.encode())?;
        // The answer is due within one round trip, so always poll for it.
        let (frame, _) = spin::read_frame(&mut self.stream, true)?;
        let body = frame.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
        })?;
        Response::decode(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Resolve a batch in one round trip. Answers come back in query
    /// order; for each fingerprint, every answer carries one generation.
    pub fn resolve_batch(&mut self, queries: &[Query]) -> std::io::Result<Vec<Answer>> {
        let request = Request::Resolve {
            queries: queries.to_vec(),
        };
        match self.roundtrip(&request)? {
            Response::Resolved { answers } if answers.len() == queries.len() => Ok(answers),
            Response::Resolved { .. } => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "answer count mismatch",
            )),
            Response::Error { message } => Err(std::io::Error::other(message)),
            other => Err(bad_response(&other)),
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
