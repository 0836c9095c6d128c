//! Wire-codec coverage: proptest round-trips plus the adversarial
//! suite — truncated, oversized-length, bit-flipped, zero-length, and
//! interleaved-garbage streams must never panic and must map to the
//! exact typed [`ProtocolError`] each class deserves.

use mobiquery::SessionKind;
use proptest::prelude::*;
use server::protocol::{
    decode_payload, encode, encode_delta, DoneOutcome, EvictReason, FrameReader, HelloSpec, Msg,
    ProtocolError, RejectReason, DEFAULT_MAX_FRAME_BYTES, MAX_KEYS, PROTO_VERSION,
};

/// Round-trip one message through encode → FrameReader → compare.
fn roundtrip(msg: &Msg) -> Msg {
    let frame = encode(msg);
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
    reader.extend(&frame);
    let got = reader
        .next_msg()
        .expect("decode failed")
        .expect("frame incomplete");
    assert!(!reader.has_partial(), "bytes left after one frame");
    got
}

/// A random valid `HelloSpec` from primitive draws: times are made
/// strictly increasing by accumulation, windows non-empty by
/// construction.
fn build_hello(
    kind_bit: bool,
    join_frame: u32,
    credit: u32,
    key_seeds: Vec<(f64, f64, f64, f64, f64)>,
    frame_seeds: Vec<f64>,
) -> HelloSpec {
    let mut t = -50.0;
    let keys = key_seeds
        .iter()
        .map(|&(dt, x, y, w, h)| {
            t += 0.1 + dt;
            (t, [x, y], [x + w, y + h])
        })
        .collect();
    let mut ft = 0.0;
    let frame_times = frame_seeds
        .iter()
        .map(|&dt| {
            ft += dt; // non-decreasing is enough for the wire
            ft
        })
        .collect();
    HelloSpec {
        kind: if kind_bit {
            SessionKind::Pdq
        } else {
            SessionKind::Npdq
        },
        join_frame,
        credit,
        keys,
        frame_times,
    }
}

/// `encode_delta` against `encode(&Msg::Delta{..})` and against the
/// wire layout written out by hand (length prefix, tag 0x83, frame,
/// latency, count, pairs — all little-endian).
fn check_encode_delta(frame: u32, latency_ns: u64, results: &[(u32, u32)]) {
    let mut layout = (17 + 8 * results.len() as u32).to_le_bytes().to_vec();
    layout.push(0x83);
    layout.extend_from_slice(&frame.to_le_bytes());
    layout.extend_from_slice(&latency_ns.to_le_bytes());
    layout.extend_from_slice(&(results.len() as u32).to_le_bytes());
    for (oid, seq) in results {
        layout.extend_from_slice(&oid.to_le_bytes());
        layout.extend_from_slice(&seq.to_le_bytes());
    }
    let direct = encode_delta(frame, latency_ns, results);
    assert_eq!(direct, layout);
    assert_eq!(
        direct,
        encode(&Msg::Delta {
            frame,
            latency_ns,
            results: results.to_vec(),
        })
    );
}

#[test]
fn encode_delta_matches_encode_at_the_size_extremes() {
    check_encode_delta(0, 0, &[]);
    let full: Vec<(u32, u32)> = (0..MAX_KEYS as u32).map(|i| (i, u32::MAX - i)).collect();
    check_encode_delta(u32::MAX, u64::MAX, &full);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hello_roundtrips(
        kind_bit in any::<bool>(),
        join_frame in 0u32..1000,
        credit in 0u32..1_000_000,
        key_seeds in proptest::collection::vec(
            (0.0f64..10.0, -100.0f64..100.0, -100.0f64..100.0, 0.0f64..20.0, 0.0f64..20.0),
            2..12,
        ),
        frame_seeds in proptest::collection::vec(0.0f64..5.0, 1..20),
    ) {
        let hello = build_hello(kind_bit, join_frame, credit, key_seeds, frame_seeds);
        prop_assert_eq!(roundtrip(&Msg::Hello(hello.clone())), Msg::Hello(hello));
    }

    #[test]
    fn delta_roundtrips(
        frame in 0u32..100_000,
        latency_ns in any::<u64>(),
        results in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..200),
    ) {
        let msg = Msg::Delta { frame, latency_ns, results };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    /// The sink's slice encoder, the `Msg` encoder and the documented
    /// layout agree byte for byte.
    #[test]
    fn encode_delta_matches_encode(
        frame in any::<u32>(),
        latency_ns in any::<u64>(),
        results in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..200),
    ) {
        check_encode_delta(frame, latency_ns, &results);
    }

    #[test]
    fn control_messages_roundtrip(
        n in 1u32..1_000_000,
        session in any::<u32>(),
        frames in any::<u32>(),
        results in any::<u64>(),
        pick in 0u8..8,
    ) {
        let msg = match pick {
            0 => Msg::Credit { n },
            1 => Msg::Bye,
            2 => Msg::Admitted { session },
            3 => Msg::Rejected { reason: RejectReason::Busy },
            4 => Msg::Rejected { reason: RejectReason::Overloaded },
            5 => Msg::Done { outcome: DoneOutcome::Degraded, frames, results },
            6 => Msg::Evicted { reason: EvictReason::SlowReader },
            _ => Msg::Evicted { reason: EvictReason::Protocol },
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    /// Any byte stream fed to the reader either yields messages or a
    /// typed error — never a panic, never an unbounded allocation.
    #[test]
    fn arbitrary_streams_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..64,
    ) {
        let mut reader = FrameReader::new(1 << 16);
        let mut fed = 0;
        let mut dead = false;
        while fed < bytes.len() {
            let end = (fed + chunk).min(bytes.len());
            reader.extend(&bytes[fed..end]);
            fed = end;
            loop {
                match reader.next_msg() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => { dead = true; break; }
                }
            }
            if dead { break; }
        }
        prop_assert!(true);
    }

    /// Flipping any single bit of a valid frame still decodes to a
    /// message or a typed error — and flipping a payload bit past the
    /// prefix never breaks framing for a FOLLOWING frame... unless the
    /// error is terminal, which is the documented contract: errors
    /// poison the stream.
    #[test]
    fn bit_flips_are_contained(
        frame_idx in 0u32..50,
        bit in 0usize..2048,
        results in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..20),
    ) {
        let msg = Msg::Delta { frame: frame_idx, latency_ns: 7, results };
        let mut frame = encode(&msg);
        let nbits = frame.len() * 8;
        let bit = bit % nbits;
        frame[bit / 8] ^= 1 << (bit % 8);
        let mut reader = FrameReader::new(1 << 16);
        reader.extend(&frame);
        // Must not panic; outcome may be any typed result.
        let _ = reader.next_msg();
        prop_assert!(true);
    }
}

// ---- exact typed-error classification ------------------------------

/// Feed one complete raw frame and return the decode outcome.
fn feed(frame: &[u8], max: usize) -> Result<Option<Msg>, ProtocolError> {
    let mut reader = FrameReader::new(max);
    reader.extend(frame);
    reader.next_msg()
}

fn valid_hello() -> HelloSpec {
    HelloSpec {
        kind: SessionKind::Pdq,
        join_frame: 0,
        credit: 4,
        keys: vec![(0.0, [0.0, 0.0], [1.0, 1.0]), (10.0, [5.0, 0.0], [6.0, 1.0])],
        frame_times: vec![0.0, 5.0, 10.0],
    }
}

#[test]
fn zero_length_frame_is_empty_frame() {
    assert_eq!(
        feed(&0u32.to_le_bytes(), 1 << 16),
        Err(ProtocolError::EmptyFrame)
    );
}

#[test]
fn oversized_length_is_typed_before_any_payload_arrives() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&(1_000_000u32).to_le_bytes());
    // No payload bytes at all: the cap check happens on the prefix.
    assert_eq!(
        feed(&frame, 1 << 10),
        Err(ProtocolError::Oversized {
            len: 1_000_000,
            max: 1 << 10
        })
    );
}

#[test]
fn unknown_tag_is_classified() {
    let frame = [1u32.to_le_bytes().as_slice(), &[0x7F]].concat();
    assert_eq!(feed(&frame, 1 << 16), Err(ProtocolError::UnknownTag(0x7F)));
}

#[test]
fn bad_version_is_classified() {
    let mut frame = encode(&Msg::Hello(valid_hello()));
    // Version lives right after the prefix and tag.
    frame[5] = (PROTO_VERSION + 1) as u8;
    assert_eq!(
        feed(&frame, 1 << 20),
        Err(ProtocolError::BadVersion(PROTO_VERSION + 1))
    );
}

#[test]
fn truncated_payload_is_classified() {
    // A Credit frame whose prefix claims 5 bytes but delivers only the
    // tag: decoding the u32 runs out of payload.
    let mut frame = Vec::new();
    frame.extend_from_slice(&5u32.to_le_bytes());
    frame.push(0x02); // Credit tag, missing its 4-byte count
    frame.extend_from_slice(&[0, 0, 0, 0]); // prefix satisfied...
    frame.truncate(4 + 5);
    // ...but shrink the *claimed* length to 3 so fields outrun it.
    frame[0] = 3;
    frame.truncate(4 + 3);
    assert_eq!(feed(&frame, 1 << 16), Err(ProtocolError::Truncated));
}

#[test]
fn trailing_bytes_are_classified() {
    // Bye is 1 byte; claim 2 and append junk after the tag.
    let frame = [2u32.to_le_bytes().as_slice(), &[0x03, 0xAA]].concat();
    assert_eq!(feed(&frame, 1 << 16), Err(ProtocolError::Trailing));
}

#[test]
fn forged_count_cannot_balloon_allocation() {
    // Delta claiming u32::MAX results in a 17-byte payload: the count
    // is checked against remaining bytes before any Vec allocation.
    let mut payload = vec![0x83];
    payload.extend_from_slice(&1u32.to_le_bytes()); // frame
    payload.extend_from_slice(&2u64.to_le_bytes()); // latency
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // results count
    let frame = [(payload.len() as u32).to_le_bytes().as_slice(), &payload].concat();
    assert_eq!(feed(&frame, 1 << 20), Err(ProtocolError::Truncated));
}

#[test]
fn hello_semantic_violations_are_malformed() {
    let cases: Vec<(&str, HelloSpec)> = vec![
        ("one key", {
            let mut h = valid_hello();
            h.keys.truncate(1);
            h
        }),
        ("non-increasing times", {
            let mut h = valid_hello();
            h.keys[1].0 = h.keys[0].0;
            h
        }),
        ("nan key time", {
            let mut h = valid_hello();
            h.keys[1].0 = f64::NAN;
            h
        }),
        ("infinite corner", {
            let mut h = valid_hello();
            h.keys[0].1[0] = f64::INFINITY;
            h
        }),
        ("empty window", {
            let mut h = valid_hello();
            h.keys[0].1 = [2.0, 2.0];
            h.keys[0].2 = [1.0, 1.0];
            h
        }),
        ("empty schedule", {
            let mut h = valid_hello();
            h.frame_times.clear();
            h
        }),
        ("decreasing schedule", {
            let mut h = valid_hello();
            h.frame_times = vec![5.0, 1.0];
            h
        }),
        ("nan frame time", {
            let mut h = valid_hello();
            h.frame_times[1] = f64::NAN;
            h
        }),
    ];
    for (what, hello) in cases {
        match feed(&encode(&Msg::Hello(hello)), 1 << 20) {
            Err(ProtocolError::Malformed(_)) => {}
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
    }
}

#[test]
fn too_many_keys_is_malformed_not_oom() {
    let mut h = valid_hello();
    let n = MAX_KEYS + 1;
    h.keys = (0..n)
        .map(|i| (i as f64, [0.0, 0.0], [1.0, 1.0]))
        .collect();
    match feed(&encode(&Msg::Hello(h)), 1 << 22) {
        Err(ProtocolError::Malformed(m)) => assert!(m.contains("exceed"), "{m}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn interleaved_garbage_poisons_after_first_message() {
    let good = encode(&Msg::Credit { n: 3 });
    let mut stream = good.clone();
    stream.extend_from_slice(&[0u8; 4]); // zero-length frame = garbage
    stream.extend_from_slice(&good);
    let mut reader = FrameReader::new(1 << 16);
    reader.extend(&stream);
    assert_eq!(reader.next_msg(), Ok(Some(Msg::Credit { n: 3 })));
    assert_eq!(reader.next_msg(), Err(ProtocolError::EmptyFrame));
}

#[test]
fn partial_frame_at_eof_reads_as_truncated() {
    let frame = encode(&Msg::Credit { n: 9 });
    let mut reader = FrameReader::new(1 << 16);
    reader.extend(&frame[..frame.len() - 1]);
    assert_eq!(reader.next_msg(), Ok(None), "incomplete, not an error yet");
    assert!(reader.has_partial(), "EOF here classifies as Truncated");
}

#[test]
fn decode_payload_rejects_empty() {
    assert_eq!(decode_payload(&[]), Err(ProtocolError::EmptyFrame));
}

#[test]
fn hello_to_plan_is_safe_after_decode() {
    // The decode-validated spec must construct a Trajectory without
    // tripping any assert.
    let frame = encode(&Msg::Hello(valid_hello()));
    let Ok(Some(Msg::Hello(h))) = feed(&frame, 1 << 20) else {
        panic!("valid hello failed to decode");
    };
    let plan = h.to_plan();
    assert_eq!(plan.spec.frame_times.len(), 3);
    assert_eq!(plan.join_frame, 0);
}
