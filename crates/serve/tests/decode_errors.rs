//! Wire decoders return errors on bad input, never panic: `read_frame`
//! over arbitrary bytes, `Request::decode`/`Response::decode` over
//! JSON-shaped noise, random binary list bodies, every truncation of a
//! valid body, bad counts, enum indices, flag bytes and trailing bytes.
//! A daemon answers a malformed body with `Error` and keeps serving.

use han_colls::{Coll, InterAlg, InterModule, IntraModule};
use han_core::{HanConfig, SegRoute, MAX_DEEP};
use han_serve::proto::{read_frame, write_frame, Request, Response};
use han_serve::{serve, Answer, Query, TableStore};
use proptest::prelude::*;
use std::sync::Arc;

/// Bytes that make the JSON parser take its less common paths.
const JSON_ALPHABET: &[u8] = b"{}[]\",:0123456789-+.eEtrufalsn \\/u\x7f\xc3\xa9";

/// Answer-body offsets from the layout in the `proto` module docs,
/// relative to the start of an answer.
const A_COLL: usize = 8;
const A_IMOD: usize = 33;
const A_SMOD: usize = 34;
const A_IBALG: usize = 35;
const A_IRALG: usize = 36;
const A_IBS: usize = 37;
const A_IRS: usize = 46;
const A_DEEP: usize = 55;
const A_ROUTE: usize = 61;
/// Tag byte plus `u32` count.
const HEADER: usize = 5;

/// `body` behind a correct length prefix.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// Decode `bytes` as one frame and, if that succeeds, its body as both
/// message types. Only `Err`/`Ok` may come back; a panic fails the test.
fn decode(bytes: &[u8]) -> std::io::Result<Option<Vec<u8>>> {
    let frame = read_frame(&mut &bytes[..]);
    if let Ok(Some(body)) = &frame {
        let _ = Request::decode(body);
        let _ = Response::decode(body);
    }
    frame
}

/// Both decoders reject `body`.
fn rejected(body: &[u8]) -> bool {
    Request::decode(body).is_err() && Response::decode(body).is_err()
}

/// A config whose every field is drawn from `bits`, `fs`, `ibs`, `irs`.
fn config(bits: u64, fs: u64, ibs: u64, irs: u64) -> HanConfig {
    let pick = |shift: u32, n: u64| ((bits >> shift) % n) as usize;
    let mut deep = [None; MAX_DEEP];
    for (k, d) in deep.iter_mut().enumerate() {
        *d = [None, Some(IntraModule::Sm), Some(IntraModule::Solo)][pick(20 + 2 * k as u32, 3)];
    }
    HanConfig {
        fs,
        imod: InterModule::ALL[pick(0, 2)],
        smod: IntraModule::ALL[pick(1, 2)],
        ibalg: InterAlg::ALL[pick(2, 3)],
        iralg: InterAlg::ALL[pick(4, 3)],
        ibs: (bits >> 6 & 1 == 1).then_some(ibs),
        irs: (bits >> 7 & 1 == 1).then_some(irs),
        deep,
        route: (bits >> 8 & 1 == 1).then(|| SegRoute {
            pri: (bits >> 9) as u8,
            alt: InterAlg::ALL[pick(17, 3)],
        }),
    }
}

fn answer(bits: u64, words: [u64; 7], cfg: HanConfig) -> Answer {
    Answer {
        fingerprint: words[0],
        coll: Coll::ALL[(bits % Coll::ALL.len() as u64) as usize],
        m: words[1],
        generation: words[2],
        cfg,
        sample: words[3],
        lo: words[4],
        hi: words[5],
        cost_ps: words[6],
    }
}

fn resolve_body(queries: &[Query]) -> Vec<u8> {
    Request::Resolve {
        queries: queries.to_vec(),
    }
    .encode()
}

fn answers_body(answers: &[Answer]) -> Vec<u8> {
    Response::Resolved {
        answers: answers.to_vec(),
    }
    .encode()
}

/// A valid answers body holding one answer with every optional field
/// set, so each field can be corrupted in place.
fn one_answer_body() -> Vec<u8> {
    answers_body(&[answer(
        1,
        [1, 2, 3, 4, 5, 6, 7],
        config(!0, 65536, 4096, 8192),
    )])
}

/// Every strict prefix of `body` fails both decoders; so does every
/// strict prefix of its frame, at the framing layer.
fn assert_truncations_fail(body: &[u8]) {
    for k in 0..body.len() {
        assert!(rejected(&body[..k]), "prefix of {k}/{} bytes", body.len());
    }
    let frame = framed(body);
    assert!(decode(&[]).unwrap().is_none());
    for k in 1..frame.len() {
        assert!(decode(&frame[..k]).is_err(), "frame prefix of {k} bytes");
    }
    assert!(decode(&frame).unwrap().is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let r = decode(&bytes);
        // `Ok(None)` only at a clean frame boundary: no bytes at all.
        prop_assert_eq!(matches!(r, Ok(None)), bytes.is_empty());
    }

    #[test]
    fn framed_noise_never_panics(
        raw in proptest::collection::vec(any::<u8>(), 0..96),
        picks in proptest::collection::vec(0..JSON_ALPHABET.len(), 0..96),
    ) {
        let mut noise = vec![b'{'];
        noise.extend(picks.iter().map(|&i| JSON_ALPHABET[i]));
        for body in [raw, noise] {
            prop_assert!(!matches!(decode(&framed(&body)), Ok(None)));
        }
    }

    /// List bodies with a count that matches their length, so decoding
    /// reaches the per-field checks; with `small` bytes most enum and
    /// flag bytes are in range, so it reaches the later ones too.
    /// Whatever decodes re-encodes to the same bytes: each value has one
    /// encoding.
    #[test]
    fn random_list_bodies_never_panic(
        answers in any::<bool>(),
        items in 0usize..4,
        bytes in proptest::collection::vec(any::<u8>(), 0..(4 * 96)),
        (extra, small) in (0usize..3, any::<bool>()),
    ) {
        let (tag, width) = if answers { (2, 96) } else { (1, 17) };
        let mut body = vec![tag];
        body.extend_from_slice(&(items as u32).to_le_bytes());
        body.extend((0..items * width + extra).map(|i| {
            let b = bytes.get(i).copied().unwrap_or(0);
            if small { b % 3 } else { b }
        }));
        let request = Request::decode(&body);
        let response = Response::decode(&body);
        if extra > 0 {
            prop_assert!(request.is_err() && response.is_err());
        }
        if let Ok(r) = request {
            prop_assert_eq!(r.encode(), body.clone());
        }
        if let Ok(r) = response {
            prop_assert_eq!(r.encode(), body);
        }
    }

    #[test]
    fn truncated_resolve_bodies_are_errors(
        raw in proptest::collection::vec((any::<u64>(), 0..Coll::ALL.len(), any::<u64>()), 0..4),
    ) {
        let queries: Vec<Query> = raw
            .iter()
            .map(|&(fingerprint, c, m)| Query { fingerprint, coll: Coll::ALL[c], m })
            .collect();
        let body = resolve_body(&queries);
        prop_assert_eq!(body.len(), HEADER + 17 * queries.len());
        assert_truncations_fail(&body);
        match Request::decode(&body).unwrap() {
            Request::Resolve { queries: back } => prop_assert_eq!(back, queries),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_answer_bodies_are_errors(
        (bits, fs, ibs, irs) in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (w0, w1, w2, w3) in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (w4, w5, w6) in (any::<u64>(), any::<u64>(), any::<u64>()),
        two in any::<bool>(),
    ) {
        let a = answer(bits, [w0, w1, w2, w3, w4, w5, w6], config(bits, fs, ibs, irs));
        let answers = if two { vec![a, a] } else { vec![a] };
        let body = answers_body(&answers);
        prop_assert_eq!(body.len(), HEADER + 96 * answers.len());
        assert_truncations_fail(&body);
        match Response::decode(&body).unwrap() {
            Response::Resolved { answers: back } => prop_assert_eq!(back, answers),
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn count_beyond_the_body_is_an_error() {
    for tag in [1u8, 2] {
        let mut body = vec![tag];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(body.len(), 5);
        assert!(rejected(&body), "tag {tag}");
    }
    // One item short, one item long.
    let body = resolve_body(&[Query {
        fingerprint: 1,
        coll: Coll::Bcast,
        m: 2,
    }]);
    for count in [0u32, 2] {
        let mut bad = body.clone();
        bad[1..5].copy_from_slice(&count.to_le_bytes());
        assert!(rejected(&bad), "count {count}");
    }
}

#[test]
fn out_of_range_enum_indices_are_errors() {
    let query = resolve_body(&[Query {
        fingerprint: 1,
        coll: Coll::Bcast,
        m: 2,
    }]);
    let mut bad = query.clone();
    bad[HEADER + 8] = Coll::ALL.len() as u8;
    assert!(rejected(&bad));
    bad[HEADER + 8] = 0xFF;
    assert!(rejected(&bad));

    let valid = one_answer_body();
    assert!(Response::decode(&valid).is_ok());
    for (offset, first_bad) in [
        (A_COLL, Coll::ALL.len()),
        (A_IMOD, InterModule::ALL.len()),
        (A_SMOD, IntraModule::ALL.len()),
        (A_IBALG, InterAlg::ALL.len()),
        (A_IRALG, InterAlg::ALL.len()),
        (A_DEEP, IntraModule::ALL.len()),
        (A_DEEP + MAX_DEEP - 1, IntraModule::ALL.len()),
        (A_ROUTE + 2, InterAlg::ALL.len()),
    ] {
        // 0xFF is the deep "none" byte, so stop short of it.
        for v in [first_bad as u8, 0xFE] {
            let mut bad = valid.clone();
            bad[HEADER + offset] = v;
            assert!(rejected(&bad), "byte {offset} = {v}");
        }
    }
}

#[test]
fn bad_flag_bytes_are_errors() {
    let valid = one_answer_body();
    for offset in [A_IBS, A_IRS, A_ROUTE] {
        for flag in [2u8, 0xFF] {
            let mut bad = valid.clone();
            bad[HEADER + offset] = flag;
            assert!(rejected(&bad), "flag byte {offset} = {flag}");
        }
        // A "none" flag must guard zero bytes.
        let mut bad = valid.clone();
        bad[HEADER + offset] = 0;
        assert!(rejected(&bad), "none flag at {offset} over a payload");
    }
    // With the payload zeroed too, "none" is valid.
    let mut none = valid.clone();
    none[HEADER + A_IBS..HEADER + A_IBS + 9].fill(0);
    match Response::decode(&none).unwrap() {
        Response::Resolved { answers } => assert_eq!(answers[0].cfg.ibs, None),
        other => panic!("{other:?}"),
    }
}

#[test]
fn trailing_bytes_are_errors() {
    let query = resolve_body(&[Query {
        fingerprint: 1,
        coll: Coll::Bcast,
        m: 2,
    }]);
    for body in [query, one_answer_body(), Request::Hello.encode()] {
        for tail in [&[0u8][..], &[0; 16], b" x"] {
            let mut bad = body.clone();
            bad.extend_from_slice(tail);
            assert!(rejected(&bad), "{} + {tail:?}", body.len());
        }
    }
}

#[test]
fn deeply_nested_json_body_is_an_error() {
    let body = format!("{{\"type\":{}", "[".repeat(1 << 20));
    assert!(decode(&framed(body.as_bytes())).unwrap().is_some());
    assert!(rejected(body.as_bytes()));
}

/// A malformed body gets `Response::Error`, and the same connection then
/// answers the next request.
#[test]
fn malformed_body_gets_an_error_and_the_connection_keeps_serving() {
    let mut server = serve("127.0.0.1:0", Arc::new(TableStore::new())).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut call = |body: &[u8]| {
        write_frame(&mut stream, body).unwrap();
        let reply = read_frame(&mut stream).unwrap().expect("a reply frame");
        Response::decode(&reply).unwrap()
    };
    let valid = resolve_body(&[Query {
        fingerprint: 1,
        coll: Coll::Bcast,
        m: 2,
    }]);
    let mut bad_enum = valid.clone();
    bad_enum[HEADER + 8] = 0xFF;
    let bad_bodies: [&[u8]; 5] = [
        &valid[..valid.len() - 1],
        &[1, 0xFF, 0xFF, 0xFF, 0xFF],
        &bad_enum,
        b"{\"type\":\"resolve\",\"queries\":[]}",
        &[],
    ];
    for bad in bad_bodies {
        match call(bad) {
            Response::Error { message } => assert!(message.starts_with("bad request"), "{message}"),
            other => panic!("{bad:?}: {other:?}"),
        }
        match call(&Request::Tables.encode()) {
            Response::Tables { tables } => assert!(tables.is_empty()),
            other => panic!("after {bad:?}: {other:?}"),
        }
    }
    // A well-formed resolve against an unknown table is an error too,
    // but a served one rather than a decode failure.
    match call(&valid) {
        Response::Error { message } => {
            assert!(message.contains("unknown fingerprint"), "{message}")
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}
