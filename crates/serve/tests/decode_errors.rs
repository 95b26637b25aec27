//! Wire decoders return errors on bad input, never panic: `read_frame`
//! and `Query`/`Answer` decoding over arbitrary bytes, JSON-shaped noise,
//! and every truncation of a valid encoded frame.

use han_colls::Coll;
use han_core::HanConfig;
use han_serve::proto::{read_frame, write_frame, Request, Response};
use han_serve::{Answer, Query};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// Bytes that make the JSON parser take its less common paths.
const JSON_ALPHABET: &[u8] = b"{}[]\",:0123456789-+.eEtrufalsn \\/u\x7f\xc3\xa9";

/// `body` behind a correct length prefix, so the JSON parser sees it.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// Decode `bytes` as one frame and, if that succeeds, as every message
/// type. Only `Err`/`Ok` may come back; a panic fails the test.
fn decode(bytes: &[u8]) -> std::io::Result<Option<Value>> {
    let frame = read_frame(&mut &bytes[..]);
    if let Ok(Some(v)) = &frame {
        let _ = Query::from_value(v);
        let _ = Answer::from_value(v);
        let _ = Request::from_value(v);
        let _ = Response::from_value(v);
    }
    frame
}

fn coll_strategy() -> impl Strategy<Value = Coll> {
    (0..Coll::ALL.len()).prop_map(|i| Coll::ALL[i])
}

fn encoded(v: &Value) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, v).unwrap();
    buf
}

/// Every strict prefix of a valid frame is an error, except the empty
/// one, which is a clean close. The whole frame decodes.
fn assert_truncations_fail(frame: &[u8]) {
    assert!(decode(&[]).unwrap().is_none());
    for k in 1..frame.len() {
        let r = decode(&frame[..k]);
        assert!(r.is_err(), "prefix of {k}/{} bytes: {r:?}", frame.len());
    }
    assert!(decode(frame).unwrap().is_some());
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
        let noise: Vec<u8> = picks.iter().map(|&i| JSON_ALPHABET[i]).collect();
        for body in [raw, noise] {
            prop_assert!(!matches!(decode(&framed(&body)), Ok(None)));
        }
    }

    #[test]
    fn truncated_query_frames_are_errors(
        fingerprint in any::<u64>(),
        coll in coll_strategy(),
        m in any::<u64>(),
    ) {
        let q = Query { fingerprint, coll, m };
        let frame = encoded(&q.to_value());
        assert_truncations_fail(&frame);
        let v = decode(&frame).unwrap().unwrap();
        prop_assert_eq!(Query::from_value(&v).unwrap(), q);
    }

    #[test]
    fn truncated_answer_frames_are_errors(
        fingerprint in any::<u64>(),
        coll in coll_strategy(),
        (m, generation, sample) in (any::<u64>(), any::<u64>(), any::<u64>()),
        (lo, hi, cost_ps) in (any::<u64>(), any::<u64>(), any::<u64>()),
        fs in 1u64..(1 << 24),
    ) {
        let a = Answer {
            fingerprint,
            coll,
            m,
            generation,
            cfg: HanConfig::default().with_fs(fs),
            sample,
            lo,
            hi,
            cost_ps,
        };
        let frame = encoded(&a.to_value());
        assert_truncations_fail(&frame);
        let v = decode(&frame).unwrap().unwrap();
        prop_assert_eq!(Answer::from_value(&v).unwrap(), a);
        // The body alone, cut anywhere, is no JSON document either.
        let text = serde_json::to_string(&a.to_value()).unwrap();
        for k in 0..text.len() {
            prop_assert!(serde_json::from_str::<Answer>(&text[..k]).is_err());
        }
    }
}

#[test]
fn deeply_nested_frame_is_an_error() {
    let body = "[".repeat(1 << 20);
    assert!(decode(&framed(body.as_bytes())).is_err());
}
