//! The wire protocol: length-prefixed JSON frames over TCP.
//!
//! Framing is a 4-byte big-endian byte length followed by one JSON
//! document — trivially parseable from any language, and torn-write
//! immune because a frame is only acted on once fully read. Messages are
//! hand-serialized through the vendored [`serde::Value`] tree (the
//! vendored derive macro does not support data-carrying enum variants),
//! following the same pattern as `HanConfig`'s hand-written serde.
//!
//! The protocol is deliberately request/response (no streaming, no
//! server push): a client sends one `Request` frame and reads exactly
//! one `Response` frame. Batched resolution amortizes the round-trip.

use han_colls::Coll;
use han_core::HanConfig;
use han_decide::LookupTable;
use han_machine::MachinePreset;
use serde::{Deserialize, Error, Serialize, Value};
use std::io::{Read, Write};

/// Protocol version, exchanged in `Hello` so mismatched binaries fail
/// loudly instead of misparsing.
pub const PROTO_VERSION: u64 = 1;

/// Largest accepted frame (64 MiB): a defense against garbage length
/// prefixes, not a practical limit — a full lookup table is kilobytes.
pub const MAX_FRAME: u32 = 64 << 20;

/// One decision query: which machine (by fingerprint), which collective,
/// how many bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub fingerprint: u64,
    pub coll: Coll,
    pub m: u64,
}

/// One resolved answer: the configuration plus the size bucket
/// `[lo, hi]` it holds on (for client-side caching) and the generation
/// of the table that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub fingerprint: u64,
    pub coll: Coll,
    pub m: u64,
    pub generation: u64,
    pub cfg: HanConfig,
    /// The sampled size the query resolved to.
    pub sample: u64,
    pub lo: u64,
    pub hi: u64,
    pub cost_ps: u64,
}

/// Counters the server reports under `Stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub lookups: u64,
    pub batches: u64,
    pub publishes: u64,
    pub retunes: u64,
    pub tables: u64,
}

/// Client → server messages.
#[derive(Debug, Clone)]
pub enum Request {
    /// Version handshake.
    Hello,
    /// Resolve a batch of queries. Answers preserve query order; a query
    /// against an unknown fingerprint fails the whole batch (`Error`).
    Resolve { queries: Vec<Query> },
    /// List stored tables.
    Tables,
    /// Publish a pre-tuned table under a fingerprint (insert or
    /// hot-swap).
    Publish {
        fingerprint: u64,
        table: LookupTable,
    },
    /// Re-tune a preset on a background worker and hot-swap the result
    /// in when done. Returns immediately with the fingerprint. Boxed so
    /// the variant does not inflate every `Request` on the stack.
    Retune { preset: Box<MachinePreset> },
    /// Server counters.
    Stats,
    /// Stop the daemon.
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone)]
pub enum Response {
    Hello { proto: u64, tables: u64 },
    Resolved { answers: Vec<Answer> },
    Tables { tables: Vec<TableRow> },
    Published { fingerprint: u64, generation: u64 },
    Retuning { fingerprint: u64 },
    Stats { stats: ServerStats },
    Error { message: String },
    Done,
}

/// One `Tables` listing row: a stored table at its current generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRow {
    pub fingerprint: u64,
    pub generation: u64,
    pub levels: Vec<usize>,
    pub entries: u64,
}

// ---------------------------------------------------------------------
// Framing

/// Write one value as a length-prefixed JSON frame, in a single `write`
/// so a `TCP_NODELAY` socket sends header and body as one segment.
pub fn write_frame(w: &mut impl Write, v: &Value) -> std::io::Result<()> {
    let text = serde_json::to_string(v).expect("frame serializes");
    let len = u32::try_from(text.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + text.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(text.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed JSON frame. `Ok(None)` means the peer closed
/// the connection cleanly at a frame boundary. Socket readers should be
/// buffered, so a frame costs one `recv` rather than one per field.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Value>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // clean close at a frame boundary
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "torn frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    let text = String::from_utf8(buf)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let v = serde_json::from_str(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(Some(v))
}

// ---------------------------------------------------------------------
// Message (de)serialization

fn tagged(tag: &str, mut fields: Vec<(String, Value)>) -> Value {
    let mut map = vec![("type".to_string(), Value::Str(tag.to_string()))];
    map.append(&mut fields);
    Value::Map(map)
}

fn coll_to_value(c: Coll) -> Value {
    Value::Str(c.name().to_string())
}

fn coll_from_value(v: &Value) -> Result<Coll, Error> {
    v.as_str()
        .and_then(Coll::from_name)
        .ok_or_else(|| Error::custom("bad collective name"))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, Error> {
    v[key]
        .as_u64()
        .ok_or_else(|| Error::custom(format!("missing u64 field `{key}`")))
}

impl Serialize for Query {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("fp".to_string(), Value::UInt(self.fingerprint)),
            ("coll".to_string(), coll_to_value(self.coll)),
            ("m".to_string(), Value::UInt(self.m)),
        ])
    }
}

impl Deserialize for Query {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Query {
            fingerprint: need_u64(v, "fp")?,
            coll: coll_from_value(&v["coll"])?,
            m: need_u64(v, "m")?,
        })
    }
}

impl Serialize for Answer {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("fp".to_string(), Value::UInt(self.fingerprint)),
            ("coll".to_string(), coll_to_value(self.coll)),
            ("m".to_string(), Value::UInt(self.m)),
            ("gen".to_string(), Value::UInt(self.generation)),
            ("cfg".to_string(), self.cfg.to_value()),
            ("sample".to_string(), Value::UInt(self.sample)),
            ("lo".to_string(), Value::UInt(self.lo)),
            ("hi".to_string(), Value::UInt(self.hi)),
            ("cost_ps".to_string(), Value::UInt(self.cost_ps)),
        ])
    }
}

impl Deserialize for Answer {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Answer {
            fingerprint: need_u64(v, "fp")?,
            coll: coll_from_value(&v["coll"])?,
            m: need_u64(v, "m")?,
            generation: need_u64(v, "gen")?,
            cfg: HanConfig::from_value(&v["cfg"])?,
            sample: need_u64(v, "sample")?,
            lo: need_u64(v, "lo")?,
            hi: need_u64(v, "hi")?,
            cost_ps: need_u64(v, "cost_ps")?,
        })
    }
}

impl Serialize for ServerStats {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("lookups".to_string(), Value::UInt(self.lookups)),
            ("batches".to_string(), Value::UInt(self.batches)),
            ("publishes".to_string(), Value::UInt(self.publishes)),
            ("retunes".to_string(), Value::UInt(self.retunes)),
            ("tables".to_string(), Value::UInt(self.tables)),
        ])
    }
}

impl Deserialize for ServerStats {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(ServerStats {
            lookups: need_u64(v, "lookups")?,
            batches: need_u64(v, "batches")?,
            publishes: need_u64(v, "publishes")?,
            retunes: need_u64(v, "retunes")?,
            tables: need_u64(v, "tables")?,
        })
    }
}

impl Serialize for TableRow {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("fp".to_string(), Value::UInt(self.fingerprint)),
            ("gen".to_string(), Value::UInt(self.generation)),
            (
                "levels".to_string(),
                Value::Seq(self.levels.iter().map(|&l| Value::UInt(l as u64)).collect()),
            ),
            ("entries".to_string(), Value::UInt(self.entries)),
        ])
    }
}

impl Deserialize for TableRow {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let levels = v["levels"]
            .as_array()
            .ok_or_else(|| Error::custom("missing levels"))?
            .iter()
            .map(|l| l.as_u64().map(|u| u as usize))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| Error::custom("bad level"))?;
        Ok(TableRow {
            fingerprint: need_u64(v, "fp")?,
            generation: need_u64(v, "gen")?,
            levels,
            entries: need_u64(v, "entries")?,
        })
    }
}

fn seq_of<T: Serialize>(items: &[T]) -> Value {
    Value::Seq(items.iter().map(|i| i.to_value()).collect())
}

fn vec_of<T: Deserialize>(v: &Value) -> Result<Vec<T>, Error> {
    v.as_array()
        .ok_or_else(|| Error::custom("expected sequence"))?
        .iter()
        .map(T::from_value)
        .collect()
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Hello => tagged("hello", vec![]),
            Request::Resolve { queries } => {
                tagged("resolve", vec![("queries".to_string(), seq_of(queries))])
            }
            Request::Tables => tagged("tables", vec![]),
            Request::Publish { fingerprint, table } => tagged(
                "publish",
                vec![
                    ("fp".to_string(), Value::UInt(*fingerprint)),
                    ("table".to_string(), table.to_value()),
                ],
            ),
            Request::Retune { preset } => {
                tagged("retune", vec![("preset".to_string(), preset.to_value())])
            }
            Request::Stats => tagged("stats", vec![]),
            Request::Shutdown => tagged("shutdown", vec![]),
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let tag = v["type"]
            .as_str()
            .ok_or_else(|| Error::custom("missing type tag"))?;
        Ok(match tag {
            "hello" => Request::Hello,
            "resolve" => Request::Resolve {
                queries: vec_of(&v["queries"])?,
            },
            "tables" => Request::Tables,
            "publish" => Request::Publish {
                fingerprint: need_u64(v, "fp")?,
                table: LookupTable::from_value(&v["table"])?,
            },
            "retune" => Request::Retune {
                preset: Box::new(MachinePreset::from_value(&v["preset"])?),
            },
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            other => return Err(Error::custom(format!("unknown request `{other}`"))),
        })
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Hello { proto, tables } => tagged(
                "hello",
                vec![
                    ("proto".to_string(), Value::UInt(*proto)),
                    ("tables".to_string(), Value::UInt(*tables)),
                ],
            ),
            Response::Resolved { answers } => {
                tagged("resolved", vec![("answers".to_string(), seq_of(answers))])
            }
            Response::Tables { tables } => {
                tagged("tables", vec![("tables".to_string(), seq_of(tables))])
            }
            Response::Published {
                fingerprint,
                generation,
            } => tagged(
                "published",
                vec![
                    ("fp".to_string(), Value::UInt(*fingerprint)),
                    ("gen".to_string(), Value::UInt(*generation)),
                ],
            ),
            Response::Retuning { fingerprint } => tagged(
                "retuning",
                vec![("fp".to_string(), Value::UInt(*fingerprint))],
            ),
            Response::Stats { stats } => {
                tagged("stats", vec![("stats".to_string(), stats.to_value())])
            }
            Response::Error { message } => tagged(
                "error",
                vec![("message".to_string(), Value::Str(message.clone()))],
            ),
            Response::Done => tagged("done", vec![]),
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let tag = v["type"]
            .as_str()
            .ok_or_else(|| Error::custom("missing type tag"))?;
        Ok(match tag {
            "hello" => Response::Hello {
                proto: need_u64(v, "proto")?,
                tables: need_u64(v, "tables")?,
            },
            "resolved" => Response::Resolved {
                answers: vec_of(&v["answers"])?,
            },
            "tables" => Response::Tables {
                tables: vec_of(&v["tables"])?,
            },
            "published" => Response::Published {
                fingerprint: need_u64(v, "fp")?,
                generation: need_u64(v, "gen")?,
            },
            "retuning" => Response::Retuning {
                fingerprint: need_u64(v, "fp")?,
            },
            "stats" => Response::Stats {
                stats: ServerStats::from_value(&v["stats"])?,
            },
            "error" => Response::Error {
                message: v["message"]
                    .as_str()
                    .ok_or_else(|| Error::custom("missing message"))?
                    .to_string(),
            },
            "done" => Response::Done,
            other => return Err(Error::custom(format!("unknown response `{other}`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use han_machine::mini;

    fn roundtrip_req(r: &Request) -> Request {
        Request::from_value(&r.to_value()).expect("request roundtrips")
    }

    fn roundtrip_resp(r: &Response) -> Response {
        Response::from_value(&r.to_value()).expect("response roundtrips")
    }

    #[test]
    fn query_and_answer_roundtrip() {
        let q = Query {
            fingerprint: 0xdead_beef,
            coll: Coll::Allreduce,
            m: 1 << 20,
        };
        assert_eq!(Query::from_value(&q.to_value()).unwrap(), q);
        let a = Answer {
            fingerprint: 1,
            coll: Coll::Bcast,
            m: 4096,
            generation: 3,
            cfg: HanConfig::default().with_fs(65536),
            sample: 4096,
            lo: 0,
            hi: u64::MAX,
            cost_ps: 123_456,
        };
        assert_eq!(Answer::from_value(&a.to_value()).unwrap(), a);
    }

    #[test]
    fn requests_roundtrip_through_json_frames() {
        let mut table = LookupTable::new(2, 2);
        table.insert(
            Coll::Bcast,
            1024,
            HanConfig::default(),
            han_sim::Time::from_us(4),
        );
        let reqs = vec![
            Request::Hello,
            Request::Resolve {
                queries: vec![Query {
                    fingerprint: 9,
                    coll: Coll::Reduce,
                    m: 17,
                }],
            },
            Request::Tables,
            Request::Publish {
                fingerprint: 11,
                table,
            },
            Request::Retune {
                preset: Box::new(mini(2, 2)),
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for r in &reqs {
            // Through full framing, not just the value tree.
            let mut buf = Vec::new();
            write_frame(&mut buf, &r.to_value()).unwrap();
            let v = read_frame(&mut buf.as_slice()).unwrap().unwrap();
            let back = Request::from_value(&v).unwrap();
            assert_eq!(
                serde_json::to_string(&back.to_value()).unwrap(),
                serde_json::to_string(&r.to_value()).unwrap()
            );
        }
        let _ = roundtrip_req(&reqs[0]);
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Hello {
                proto: PROTO_VERSION,
                tables: 3,
            },
            Response::Resolved { answers: vec![] },
            Response::Tables {
                tables: vec![TableRow {
                    fingerprint: 5,
                    generation: 2,
                    levels: vec![4, 8],
                    entries: 12,
                }],
            },
            Response::Published {
                fingerprint: 5,
                generation: 2,
            },
            Response::Retuning { fingerprint: 7 },
            Response::Stats {
                stats: ServerStats {
                    lookups: 100,
                    batches: 10,
                    publishes: 2,
                    retunes: 1,
                    tables: 3,
                },
            },
            Response::Error {
                message: "nope".to_string(),
            },
            Response::Done,
        ];
        for r in &resps {
            let back = roundtrip_resp(r);
            assert_eq!(
                serde_json::to_string(&back.to_value()).unwrap(),
                serde_json::to_string(&r.to_value()).unwrap()
            );
        }
    }

    #[test]
    fn eof_at_frame_boundary_is_clean() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut &*empty).unwrap().is_none());
        // A torn frame mid-length or mid-body is an error, not a clean EOF.
        let torn: &[u8] = &[0, 0];
        assert!(read_frame(&mut &*torn).is_err());
        let mut framed = Vec::new();
        write_frame(&mut framed, &Value::UInt(7)).unwrap();
        framed.truncate(framed.len() - 1);
        assert!(read_frame(&mut framed.as_slice()).is_err());
    }

    #[test]
    fn frame_is_one_write() {
        /// A sink that counts `write` calls and never writes short.
        #[derive(Default)]
        struct Counting {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Counting::default();
        write_frame(&mut sink, &Request::Hello.to_value()).unwrap();
        assert_eq!(sink.writes, 1, "header and body must go out together");
        write_frame(&mut sink, &Value::UInt(7)).unwrap();
        assert_eq!(sink.writes, 2);
        let mut r = sink.bytes.as_slice();
        assert!(read_frame(&mut r).unwrap().is_some());
        assert_eq!(read_frame(&mut r).unwrap(), Some(Value::UInt(7)));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let huge = (MAX_FRAME + 1).to_be_bytes();
        let mut data = huge.to_vec();
        data.extend_from_slice(&[0; 16]);
        assert!(read_frame(&mut data.as_slice()).is_err());
    }
}
