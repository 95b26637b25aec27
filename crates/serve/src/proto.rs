//! The wire protocol: length-prefixed frames over TCP, a binary lookup
//! pair and JSON for everything else.
//!
//! A frame is a 4-byte big-endian body length followed by the body. A
//! frame is only acted on once fully read, so a torn write never
//! half-applies. Every message has exactly one encoding, told apart by
//! the body's first byte:
//!
//! | first byte | body                                              |
//! |------------|---------------------------------------------------|
//! | `0x01`     | `Request::Resolve`: binary query list             |
//! | `0x02`     | `Response::Resolved`: binary answer list          |
//! | `{`        | any other message: one JSON object with a `type`  |
//!
//! The binary bodies are fixed-width and little-endian. After the tag
//! byte comes a `u32` item count, then exactly that many items; the
//! body length must equal `5 + count * width`.
//!
//! A query (`width` 17):
//!
//! | offset | size | field                                   |
//! |--------|------|-----------------------------------------|
//! | 0      | 8    | `fp`: preset fingerprint, `u64`         |
//! | 8      | 1    | `coll`: index in `Coll::ALL`            |
//! | 9      | 8    | `m`: message bytes, `u64`               |
//!
//! An answer (`width` 96):
//!
//! | offset | size | field                                                  |
//! |--------|------|--------------------------------------------------------|
//! | 0      | 8    | `fp`, `u64`                                            |
//! | 8      | 1    | `coll`: index in `Coll::ALL`                           |
//! | 9      | 8    | `m`: the queried size, `u64`                           |
//! | 17     | 8    | `gen`: table generation, `u64`                         |
//! | 25     | 8    | `cfg.fs`, `u64`                                        |
//! | 33     | 1    | `cfg.imod`: index in `InterModule::ALL`                |
//! | 34     | 1    | `cfg.smod`: index in `IntraModule::ALL`                |
//! | 35     | 1    | `cfg.ibalg`: index in `InterAlg::ALL`                  |
//! | 36     | 1    | `cfg.iralg`: index in `InterAlg::ALL`                  |
//! | 37     | 1+8  | `cfg.ibs`: flag (`0` none, `1` some), then `u64`       |
//! | 46     | 1+8  | `cfg.irs`: flag, then `u64`                            |
//! | 55     | 6    | `cfg.deep[0..6]`: index in `IntraModule::ALL`, or `0xFF` for none |
//! | 61     | 1+1+1| `cfg.route`: flag, then `pri` (`u8`), then `alt` (index in `InterAlg::ALL`) |
//! | 64     | 8    | `sample`: the sampled size resolved to, `u64`          |
//! | 72     | 8    | `lo`: bucket start (inclusive), `u64`                  |
//! | 80     | 8    | `hi`: bucket end (inclusive), `u64`                    |
//! | 88     | 8    | `cost_ps`, `u64`                                       |
//!
//! With a flag of `0`, the bytes it guards must be zero, so every value
//! has exactly one encoding. Decoding checks everything — the count
//! against the body length before allocating, every enum index and flag
//! byte, no trailing bytes — and returns an error rather than panicking.
//!
//! The protocol is request/response (no streaming, no server push): a
//! client sends one `Request` frame and reads exactly one `Response`
//! frame. Batched resolution amortizes the round trip.

use han_colls::{Coll, InterAlg, InterModule, IntraModule};
use han_core::{HanConfig, SegRoute, MAX_DEEP};
use han_decide::LookupTable;
use han_machine::MachinePreset;
use serde::{Deserialize, Error, Serialize, Value};
use std::io::{Read, Write};

/// Protocol version, exchanged in `Hello` so mismatched binaries fail
/// loudly instead of misparsing.
pub const PROTO_VERSION: u64 = 2;

/// Largest accepted frame (64 MiB): a defense against garbage length
/// prefixes, not a practical limit — a full lookup table is kilobytes.
pub const MAX_FRAME: u32 = 64 << 20;

/// First body byte of a binary resolve request.
const RESOLVE_TAG: u8 = 0x01;
/// First body byte of a binary answer list.
const ANSWERS_TAG: u8 = 0x02;
/// Tag byte plus `u32` count.
const LIST_HEADER: usize = 5;
const QUERY_BYTES: usize = 17;
const ANSWER_BYTES: usize = 90 + MAX_DEEP;
/// A `deep` byte meaning "no override at this level".
const NO_DEEP: u8 = 0xFF;

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

/// Write one body as a length-prefixed frame, in a single `write` so a
/// `TCP_NODELAY` socket sends header and body as one segment.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame's body. `Ok(None)` means the peer
/// closed the connection cleanly at a frame boundary. Socket readers
/// should be buffered, so a frame costs one `recv` rather than two.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
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
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

// ---------------------------------------------------------------------
// Binary lookup pair

/// Bounds-checked little-endian reads over one item's bytes.
struct Reader<'a> {
    rest: &'a [u8],
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        if self.rest.len() < N {
            return Err(Error::custom("truncated item"));
        }
        let (head, tail) = self.rest.split_at(N);
        self.rest = tail;
        Ok(head.try_into().expect("split_at gave N bytes"))
    }

    fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take::<1>()?[0])
    }

    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// The enum variant at the next byte's index in `all`.
    fn index<T: Copy>(&mut self, all: &[T], what: &str) -> Result<T, Error> {
        variant(all, self.u8()?, what)
    }

    /// A flag byte: `0` or `1`.
    fn flag(&mut self) -> Result<bool, Error> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            f => Err(Error::custom(format!("flag byte {f}"))),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, Error> {
        let some = self.flag()?;
        let v = self.u64()?;
        match (some, v) {
            (true, v) => Ok(Some(v)),
            (false, 0) => Ok(None),
            (false, _) => Err(Error::custom("payload behind a none flag")),
        }
    }
}

/// The enum variant at index `i` of its `ALL` list.
fn variant<T: Copy>(all: &[T], i: u8, what: &str) -> Result<T, Error> {
    all.get(i as usize)
        .copied()
        .ok_or_else(|| Error::custom(format!("{what} index {i} out of range")))
}

/// Index of `x` in an enum's `ALL` list, as its wire byte.
fn index_of<T: PartialEq>(all: &[T], x: &T) -> u8 {
    all.iter()
        .position(|a| a == x)
        .expect("ALL lists every variant") as u8
}

/// Index of a collective in [`Coll::ALL`].
fn coll_index(coll: Coll) -> usize {
    index_of(&Coll::ALL, &coll) as usize
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    out.push(v.is_some() as u8);
    put_u64(out, v.unwrap_or(0));
}

fn put_query(out: &mut Vec<u8>, q: &Query) {
    put_u64(out, q.fingerprint);
    out.push(coll_index(q.coll) as u8);
    put_u64(out, q.m);
}

fn get_query(r: &mut Reader) -> Result<Query, Error> {
    Ok(Query {
        fingerprint: r.u64()?,
        coll: r.index(&Coll::ALL, "collective")?,
        m: r.u64()?,
    })
}

fn put_config(out: &mut Vec<u8>, c: &HanConfig) {
    put_u64(out, c.fs);
    out.push(index_of(&InterModule::ALL, &c.imod));
    out.push(index_of(&IntraModule::ALL, &c.smod));
    out.push(index_of(&InterAlg::ALL, &c.ibalg));
    out.push(index_of(&InterAlg::ALL, &c.iralg));
    put_opt_u64(out, c.ibs);
    put_opt_u64(out, c.irs);
    for d in &c.deep {
        out.push(d.map_or(NO_DEEP, |m| index_of(&IntraModule::ALL, &m)));
    }
    out.extend_from_slice(&match c.route {
        None => [0, 0, 0],
        Some(r) => [1, r.pri, index_of(&InterAlg::ALL, &r.alt)],
    });
}

fn get_config(r: &mut Reader) -> Result<HanConfig, Error> {
    let fs = r.u64()?;
    let imod = r.index(&InterModule::ALL, "imod")?;
    let smod = r.index(&IntraModule::ALL, "smod")?;
    let ibalg = r.index(&InterAlg::ALL, "ibalg")?;
    let iralg = r.index(&InterAlg::ALL, "iralg")?;
    let ibs = r.opt_u64()?;
    let irs = r.opt_u64()?;
    let mut deep = [None; MAX_DEEP];
    for d in &mut deep {
        *d = match r.u8()? {
            NO_DEEP => None,
            i => Some(variant(&IntraModule::ALL, i, "deep")?),
        };
    }
    let route = match (r.flag()?, r.u8()?, r.u8()?) {
        (true, pri, alt) => Some(SegRoute {
            pri,
            alt: variant(&InterAlg::ALL, alt, "route alt")?,
        }),
        (false, 0, 0) => None,
        (false, ..) => return Err(Error::custom("payload behind a none flag")),
    };
    Ok(HanConfig {
        fs,
        imod,
        smod,
        ibalg,
        iralg,
        ibs,
        irs,
        deep,
        route,
    })
}

fn put_answer(out: &mut Vec<u8>, a: &Answer) {
    put_u64(out, a.fingerprint);
    out.push(coll_index(a.coll) as u8);
    put_u64(out, a.m);
    put_u64(out, a.generation);
    put_config(out, &a.cfg);
    for v in [a.sample, a.lo, a.hi, a.cost_ps] {
        put_u64(out, v);
    }
}

fn get_answer(r: &mut Reader) -> Result<Answer, Error> {
    Ok(Answer {
        fingerprint: r.u64()?,
        coll: r.index(&Coll::ALL, "collective")?,
        m: r.u64()?,
        generation: r.u64()?,
        cfg: get_config(r)?,
        sample: r.u64()?,
        lo: r.u64()?,
        hi: r.u64()?,
        cost_ps: r.u64()?,
    })
}

/// A tagged, counted list of fixed-width items.
fn encode_list<T>(tag: u8, items: &[T], width: usize, put: fn(&mut Vec<u8>, &T)) -> Vec<u8> {
    let mut out = Vec::with_capacity(LIST_HEADER + items.len() * width);
    out.push(tag);
    // A longer list is far past MAX_FRAME, which `write_frame` refuses.
    let count = u32::try_from(items.len()).unwrap_or(u32::MAX);
    out.extend_from_slice(&count.to_le_bytes());
    for item in items {
        put(&mut out, item);
    }
    debug_assert_eq!(out.len(), LIST_HEADER + items.len() * width);
    out
}

/// Decode a list body whose tag byte the caller has matched. The count
/// is checked against the body length before anything is allocated.
fn decode_list<T>(
    body: &[u8],
    width: usize,
    get: fn(&mut Reader) -> Result<T, Error>,
) -> Result<Vec<T>, Error> {
    let count = body
        .get(1..LIST_HEADER)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 count bytes")))
        .ok_or_else(|| Error::custom("truncated list header"))?;
    let items = &body[LIST_HEADER..];
    if items.len() as u64 != u64::from(count) * width as u64 {
        return Err(Error::custom(format!(
            "{count} items of {width} bytes need {} body bytes, got {}",
            u64::from(count) * width as u64,
            items.len()
        )));
    }
    items
        .chunks_exact(width)
        .map(|item| get(&mut Reader { rest: item }))
        .collect()
}

// ---------------------------------------------------------------------
// JSON messages

fn json_body(tag: &str, fields: Vec<(&str, Value)>) -> Vec<u8> {
    let mut map = vec![("type".to_string(), Value::Str(tag.to_string()))];
    map.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    serde_json::to_string(&Value::Map(map))
        .expect("JSON prints")
        .into_bytes()
}

/// Parse a JSON body and return it with its `type` tag.
fn json_message(body: &[u8]) -> Result<(Value, String), Error> {
    if body.first() != Some(&b'{') {
        return Err(Error::custom(match body.first() {
            Some(b) => format!("unknown body tag {b:#04x}"),
            None => "empty body".to_string(),
        }));
    }
    let text = std::str::from_utf8(body).map_err(Error::custom)?;
    let v: Value = serde_json::from_str(text).map_err(Error::custom)?;
    let tag = v["type"]
        .as_str()
        .ok_or_else(|| Error::custom("missing type tag"))?
        .to_string();
    Ok((v, tag))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, Error> {
    v[key]
        .as_u64()
        .ok_or_else(|| Error::custom(format!("missing u64 field `{key}`")))
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

// ---------------------------------------------------------------------
// Messages

impl Request {
    /// This request as one frame body.
    pub fn encode(&self) -> Vec<u8> {
        let (tag, fields) = match self {
            Request::Resolve { queries } => {
                return encode_list(RESOLVE_TAG, queries, QUERY_BYTES, put_query)
            }
            Request::Hello => ("hello", vec![]),
            Request::Tables => ("tables", vec![]),
            Request::Publish { fingerprint, table } => (
                "publish",
                vec![
                    ("fp", Value::UInt(*fingerprint)),
                    ("table", table.to_value()),
                ],
            ),
            Request::Retune { preset } => ("retune", vec![("preset", preset.to_value())]),
            Request::Stats => ("stats", vec![]),
            Request::Shutdown => ("shutdown", vec![]),
        };
        json_body(tag, fields)
    }

    /// Decode one frame body; any malformed body is an error.
    pub fn decode(body: &[u8]) -> Result<Self, Error> {
        if body.first() == Some(&RESOLVE_TAG) {
            return Ok(Request::Resolve {
                queries: decode_list(body, QUERY_BYTES, get_query)?,
            });
        }
        let (v, tag) = json_message(body)?;
        Ok(match tag.as_str() {
            "hello" => Request::Hello,
            "tables" => Request::Tables,
            "publish" => Request::Publish {
                fingerprint: need_u64(&v, "fp")?,
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

impl Response {
    /// This response as one frame body.
    pub fn encode(&self) -> Vec<u8> {
        let (tag, fields) = match self {
            Response::Resolved { answers } => {
                return encode_list(ANSWERS_TAG, answers, ANSWER_BYTES, put_answer)
            }
            Response::Hello { proto, tables } => (
                "hello",
                vec![
                    ("proto", Value::UInt(*proto)),
                    ("tables", Value::UInt(*tables)),
                ],
            ),
            Response::Tables { tables } => (
                "tables",
                vec![(
                    "tables",
                    Value::Seq(tables.iter().map(|t| t.to_value()).collect()),
                )],
            ),
            Response::Published {
                fingerprint,
                generation,
            } => (
                "published",
                vec![
                    ("fp", Value::UInt(*fingerprint)),
                    ("gen", Value::UInt(*generation)),
                ],
            ),
            Response::Retuning { fingerprint } => {
                ("retuning", vec![("fp", Value::UInt(*fingerprint))])
            }
            Response::Stats { stats } => ("stats", vec![("stats", stats.to_value())]),
            Response::Error { message } => {
                ("error", vec![("message", Value::Str(message.clone()))])
            }
            Response::Done => ("done", vec![]),
        };
        json_body(tag, fields)
    }

    /// Decode one frame body; any malformed body is an error.
    pub fn decode(body: &[u8]) -> Result<Self, Error> {
        if body.first() == Some(&ANSWERS_TAG) {
            return Ok(Response::Resolved {
                answers: decode_list(body, ANSWER_BYTES, get_answer)?,
            });
        }
        let (v, tag) = json_message(body)?;
        Ok(match tag.as_str() {
            "hello" => Response::Hello {
                proto: need_u64(&v, "proto")?,
                tables: need_u64(&v, "tables")?,
            },
            "tables" => Response::Tables {
                tables: v["tables"]
                    .as_array()
                    .ok_or_else(|| Error::custom("missing tables"))?
                    .iter()
                    .map(TableRow::from_value)
                    .collect::<Result<_, _>>()?,
            },
            "published" => Response::Published {
                fingerprint: need_u64(&v, "fp")?,
                generation: need_u64(&v, "gen")?,
            },
            "retuning" => Response::Retuning {
                fingerprint: need_u64(&v, "fp")?,
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

    /// A config exercising every optional field.
    fn full_config() -> HanConfig {
        let mut cfg = HanConfig::default().with_fs(65536);
        cfg.ibs = Some(4096);
        cfg.irs = Some(u64::MAX);
        cfg.deep[0] = Some(IntraModule::Solo);
        cfg.deep[MAX_DEEP - 1] = Some(IntraModule::Sm);
        cfg.route = Some(SegRoute {
            pri: 5,
            alt: InterAlg::Chain,
        });
        cfg
    }

    #[test]
    fn lookup_pair_roundtrips_at_its_documented_widths() {
        let queries = vec![
            Query {
                fingerprint: 0xdead_beef,
                coll: Coll::Allreduce,
                m: 1 << 20,
            },
            Query {
                fingerprint: u64::MAX,
                coll: Coll::Barrier,
                m: 0,
            },
        ];
        let body = Request::Resolve {
            queries: queries.clone(),
        }
        .encode();
        assert_eq!(body.len(), 5 + 2 * 17);
        assert_eq!(&body[..5], &[RESOLVE_TAG, 2, 0, 0, 0]);
        match Request::decode(&body).unwrap() {
            Request::Resolve { queries: back } => assert_eq!(back, queries),
            other => panic!("{other:?}"),
        }
        let answers: Vec<Answer> = [HanConfig::default(), full_config()]
            .iter()
            .map(|&cfg| Answer {
                fingerprint: 1,
                coll: Coll::Bcast,
                m: 4096,
                generation: 3,
                cfg,
                sample: 4096,
                lo: 0,
                hi: u64::MAX,
                cost_ps: 123_456,
            })
            .collect();
        let body = Response::Resolved {
            answers: answers.clone(),
        }
        .encode();
        assert_eq!(ANSWER_BYTES, 96);
        assert_eq!(body.len(), 5 + 2 * 96);
        match Response::decode(&body).unwrap() {
            Response::Resolved { answers: back } => assert_eq!(back, answers),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn requests_roundtrip_through_frames() {
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
            // Through full framing, not just the body.
            let mut buf = Vec::new();
            write_frame(&mut buf, &r.encode()).unwrap();
            let body = read_frame(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(Request::decode(&body).unwrap().encode(), r.encode());
        }
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
            let body = r.encode();
            let binary = matches!(r, Response::Resolved { .. });
            assert_eq!(body[0] == b'{', !binary, "{r:?}");
            assert_eq!(Response::decode(&body).unwrap().encode(), body);
        }
    }

    #[test]
    fn json_resolve_is_no_longer_spoken() {
        let old = br#"{"type":"resolve","queries":[]}"#;
        assert!(Request::decode(old).is_err());
        let old = br#"{"type":"resolved","answers":[]}"#;
        assert!(Response::decode(old).is_err());
        // Each side decodes only its own binary body.
        let q = Request::Resolve { queries: vec![] }.encode();
        let a = Response::Resolved { answers: vec![] }.encode();
        assert!(Response::decode(&q).is_err());
        assert!(Request::decode(&a).is_err());
    }

    #[test]
    fn eof_at_frame_boundary_is_clean() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut &*empty).unwrap().is_none());
        // A torn frame mid-length or mid-body is an error, not a clean EOF.
        let torn: &[u8] = &[0, 0];
        assert!(read_frame(&mut &*torn).is_err());
        let mut framed = Vec::new();
        write_frame(&mut framed, b"{}").unwrap();
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
        write_frame(&mut sink, &Request::Hello.encode()).unwrap();
        assert_eq!(sink.writes, 1, "header and body must go out together");
        write_frame(&mut sink, &[7]).unwrap();
        assert_eq!(sink.writes, 2);
        let mut r = sink.bytes.as_slice();
        assert!(read_frame(&mut r).unwrap().is_some());
        assert_eq!(read_frame(&mut r).unwrap(), Some(vec![7]));
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
