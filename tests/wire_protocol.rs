//! Property tests for the site wire protocol (`gmdj_core::wire`).
//!
//! Two families, both driven by a deterministic SplitMix64 stream (the
//! fuzz harness's generator, so failures replay from a seed alone):
//!
//! 1. **Round-trip identity** — for every frame type, randomized frames
//!    satisfy `decode(encode(f)) == f`, both through the buffer codec
//!    and the streaming reader (which must also report the exact byte
//!    count it consumed — that number feeds the `bytes_sent` /
//!    `bytes_received` counters and the request-size echo).
//! 2. **Corruption rejection** — a frame damaged in any single header
//!    field (magic, version, frame type, length prefix), truncated at
//!    any point, or extended with trailing bytes must be *rejected*,
//!    never panic, never allocate unboundedly. Random payload bit-flips
//!    must never panic either (they may still decode: flipping a value
//!    byte yields a different, equally well-formed frame).
//!
//! A greedy byte-shrinker keeps rejection counterexamples minimal: when
//! a corrupted buffer fails to decode, the test shrinks it to a locally
//! minimal failing input before asserting, so a codec regression reports
//! the smallest frame that still exhibits it.

use gmdj_core::eval::{EvalStats, KernelStats, ProbeStrategy};
use gmdj_core::spec::{AggBlock, GmdjSpec};
use gmdj_core::trace::{TraceEvent, WIRE_INTERN_TABLE};
use gmdj_core::wire::{
    decode_frame, encode_frame, read_frame, EvalRequestFrame, Frame, StateMatrixFrame,
    MAX_FRAME_LEN, WIRE_VERSION,
};
use gmdj_fuzz::rng::SplitMix64;
use gmdj_relation::agg::{Accumulator, AggFunc, NamedAgg};
use gmdj_relation::expr::{ArithOp, CmpOp, Predicate, ScalarExpr};
use gmdj_relation::fxhash::FxHashSet;
use gmdj_relation::relation::Tuple;
use gmdj_relation::schema::{ColumnRef, DataType, Field};
use gmdj_relation::value::{Truth, Value};

// ---------------------------------------------------------------------
// Random frame generators (SplitMix64-driven, replayable from a seed)
// ---------------------------------------------------------------------

fn gen_string(rng: &mut SplitMix64) -> String {
    let len = rng.below(8) as usize;
    (0..len)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect()
}

/// Finite values only: Float comes from small exact dyadics so frame
/// equality is bit-for-bit (NaN would break `PartialEq` round-trips).
fn gen_value(rng: &mut SplitMix64) -> Value {
    match rng.below(5) {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::Float((rng.below(4096) as f64 - 2048.0) / 8.0),
        3 => Value::Str(gen_string(rng).into()),
        _ => Value::Bool(rng.chance(50)),
    }
}

fn gen_colref(rng: &mut SplitMix64) -> ColumnRef {
    ColumnRef {
        qualifier: rng.chance(60).then(|| gen_string(rng)),
        name: gen_string(rng),
    }
}

fn gen_scalar(rng: &mut SplitMix64, depth: u32) -> ScalarExpr {
    match if depth == 0 {
        rng.below(2)
    } else {
        rng.below(4)
    } {
        0 => ScalarExpr::Column(gen_colref(rng)),
        1 => ScalarExpr::Literal(gen_value(rng)),
        2 => ScalarExpr::Binary {
            op: *rng.pick(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]),
            left: Box::new(gen_scalar(rng, depth - 1)),
            right: Box::new(gen_scalar(rng, depth - 1)),
        },
        _ => ScalarExpr::Case {
            branches: (0..1 + rng.below(2))
                .map(|_| (gen_predicate(rng, depth - 1), gen_scalar(rng, depth - 1)))
                .collect(),
            otherwise: rng.chance(50).then(|| Box::new(gen_scalar(rng, depth - 1))),
        },
    }
}

fn gen_predicate(rng: &mut SplitMix64, depth: u32) -> Predicate {
    match if depth == 0 {
        rng.below(4)
    } else {
        rng.below(7)
    } {
        0 => Predicate::Literal(*rng.pick(&[Truth::True, Truth::False, Truth::Unknown])),
        1 => Predicate::Cmp {
            op: *rng.pick(&[
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ]),
            left: gen_scalar(rng, depth.saturating_sub(1)),
            right: gen_scalar(rng, depth.saturating_sub(1)),
        },
        2 => Predicate::IsNull(gen_scalar(rng, depth.saturating_sub(1))),
        3 => Predicate::IsNotNull(gen_scalar(rng, depth.saturating_sub(1))),
        4 => Predicate::And(
            Box::new(gen_predicate(rng, depth - 1)),
            Box::new(gen_predicate(rng, depth - 1)),
        ),
        5 => Predicate::Or(
            Box::new(gen_predicate(rng, depth - 1)),
            Box::new(gen_predicate(rng, depth - 1)),
        ),
        _ => Predicate::Not(Box::new(gen_predicate(rng, depth - 1))),
    }
}

fn gen_spec(rng: &mut SplitMix64) -> GmdjSpec {
    let funcs = [
        AggFunc::CountStar,
        AggFunc::Count,
        AggFunc::CountDistinct,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    GmdjSpec::new(
        (0..1 + rng.below(3))
            .map(|_| {
                AggBlock::new(
                    gen_predicate(rng, 2),
                    (0..1 + rng.below(2))
                        .map(|_| {
                            let func = *rng.pick(&funcs);
                            let output = gen_string(rng);
                            match func {
                                AggFunc::CountStar => NamedAgg::count_star(output),
                                _ => NamedAgg::new(func, gen_scalar(rng, 1), output),
                            }
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

fn gen_fields(rng: &mut SplitMix64) -> Vec<Field> {
    let types = [
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Bool,
    ];
    (0..1 + rng.below(4))
        .map(|i| Field::new("B", format!("c{i}"), *rng.pick(&types)))
        .collect()
}

fn gen_tuple(rng: &mut SplitMix64, width: usize) -> Tuple {
    (0..width)
        .map(|_| gen_value(rng))
        .collect::<Vec<_>>()
        .into_boxed_slice()
}

fn gen_eval_stats(rng: &mut SplitMix64) -> EvalStats {
    EvalStats {
        detail_scanned: rng.below(1000),
        probe_candidates: rng.below(1000),
        theta_evals: rng.below(1000),
        agg_updates: rng.below(1000),
        base_rows: rng.below(1000),
        dead_early: rng.below(1000),
        done_early: rng.below(1000),
        index_builds: rng.below(1000),
        partitions: rng.below(1000),
        completion_fallbacks: rng.below(1000),
        col_chunk_reads: rng.below(1000),
        row_page_reads: rng.below(1000),
        rank_lookups: rng.below(1000),
    }
}

fn gen_kernel_stats(rng: &mut SplitMix64) -> KernelStats {
    KernelStats {
        batches: rng.below(1000),
        rows_vectorized: rng.below(1000),
        rows_row_path: rng.below(1000),
        morsels: rng.below(1000),
    }
}

fn gen_accumulator(rng: &mut SplitMix64) -> Accumulator {
    match rng.below(7) {
        0 => Accumulator::CountStar {
            n: rng.below(1000) as i64,
        },
        1 => Accumulator::Count {
            n: rng.below(1000) as i64,
        },
        2 => {
            let mut seen = FxHashSet::default();
            for _ in 0..rng.below(5) {
                seen.insert(gen_value(rng));
            }
            Accumulator::CountDistinct { seen }
        }
        3 => Accumulator::Sum {
            sum_i: rng.next_u64() as i64,
            sum_f: rng.below(4096) as f64 / 16.0,
            any_float: rng.chance(50),
            seen: rng.chance(50),
        },
        4 => Accumulator::Min {
            current: rng.chance(70).then(|| gen_value(rng)),
        },
        5 => Accumulator::Max {
            current: rng.chance(70).then(|| gen_value(rng)),
        },
        _ => Accumulator::Avg {
            sum: rng.below(4096) as f64 / 16.0,
            n: rng.below(1000) as i64,
        },
    }
}

/// A wire-shippable trace event: name and field keys must come from
/// [`WIRE_INTERN_TABLE`] — the strict decoder rejects anything else, so
/// the generator draws from the same table the codec re-interns against.
fn gen_trace_event(rng: &mut SplitMix64) -> TraceEvent {
    let nfields = rng.below(4) as usize;
    TraceEvent {
        name: WIRE_INTERN_TABLE[rng.below(WIRE_INTERN_TABLE.len() as u64) as usize],
        detail: gen_string(rng),
        start_ns: rng.below(1 << 40),
        dur_ns: rng.below(1 << 32),
        fields: (0..nfields)
            .map(|_| {
                (
                    WIRE_INTERN_TABLE[rng.below(WIRE_INTERN_TABLE.len() as u64) as usize],
                    rng.next_u64(),
                )
            })
            .collect(),
    }
}

fn gen_eval_request(rng: &mut SplitMix64) -> Frame {
    let fields = gen_fields(rng);
    let width = fields.len();
    let probe = *rng.pick(&[ProbeStrategy::Auto, ProbeStrategy::ForceScan]);
    Frame::EvalRequest(Box::new(EvalRequestFrame {
        attempt: rng.below(4) as u32,
        query_id: rng.next_u64(),
        parent_span: rng.next_u64(),
        trace: rng.chance(50),
        probe,
        // Ranked access is only ever admitted under `Auto`.
        ranked: probe == ProbeStrategy::Auto && rng.chance(50),
        total_aggs: 1 + rng.below(4) as u32,
        base_fields: fields,
        base_rows: (0..rng.below(6)).map(|_| gen_tuple(rng, width)).collect(),
        spec: gen_spec(rng),
    }))
}

fn gen_state_matrix(rng: &mut SplitMix64) -> Frame {
    Frame::StateMatrix(Box::new(StateMatrixFrame {
        request_bytes: rng.below(1 << 30),
        fragment_rows: rng.below(1 << 20),
        stats: gen_eval_stats(rng),
        kernel: gen_kernel_stats(rng),
        site_wall_ns: rng.below(1 << 40),
        spans: (0..rng.below(4)).map(|_| gen_trace_event(rng)).collect(),
        accs: (0..rng.below(12)).map(|_| gen_accumulator(rng)).collect(),
    }))
}

fn gen_flight_tail(rng: &mut SplitMix64) -> Frame {
    Frame::FlightTail {
        dropped: rng.below(1 << 20),
        events: (0..rng.below(5)).map(|_| gen_trace_event(rng)).collect(),
    }
}

/// One random frame of any type. `below(10)` skews toward the two
/// payload-bearing frames — they carry all the interesting structure.
fn gen_frame(rng: &mut SplitMix64) -> Frame {
    match rng.below(10) {
        0 => Frame::Hello {
            site: rng.next_u64() as u32,
        },
        1 => Frame::HelloAck {
            site: rng.next_u64() as u32,
        },
        2 => Frame::Error {
            message: gen_string(rng),
        },
        3 => Frame::FlightRequest {
            site: rng.next_u64() as u32,
        },
        4 => gen_flight_tail(rng),
        5..=7 => gen_eval_request(rng),
        _ => gen_state_matrix(rng),
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedily shrink a buffer that `decode_frame` rejects to a locally
/// minimal rejected input: repeatedly delete one byte (then one chunk)
/// wherever decoding still fails. Purely for diagnostics — the result
/// rides in the panic message so codec regressions report the smallest
/// reproducer, not a multi-kilobyte frame dump.
fn shrink_rejected(mut bytes: Vec<u8>) -> Vec<u8> {
    assert!(
        decode_frame(&bytes).is_err(),
        "shrinker needs a failing input"
    );
    for chunk in [64usize, 16, 4, 1] {
        let mut i = 0;
        while i < bytes.len() {
            let end = (i + chunk).min(bytes.len());
            let mut candidate = bytes.clone();
            candidate.drain(i..end);
            if decode_frame(&candidate).is_err() {
                bytes = candidate; // keep the deletion, retry same offset
            } else {
                i += 1;
            }
        }
    }
    bytes
}

// ---------------------------------------------------------------------
// Round-trip identity
// ---------------------------------------------------------------------

#[test]
fn every_frame_type_round_trips() {
    let mut rng = SplitMix64::new(0xF8A3E);
    let mut seen = [0usize; 7];
    for case in 0..400 {
        let frame = gen_frame(&mut rng);
        seen[match &frame {
            Frame::Hello { .. } => 0,
            Frame::HelloAck { .. } => 1,
            Frame::EvalRequest(_) => 2,
            Frame::StateMatrix(_) => 3,
            Frame::Error { .. } => 4,
            Frame::FlightRequest { .. } => 5,
            Frame::FlightTail { .. } => 6,
        }] += 1;
        let bytes = encode_frame(&frame);
        let decoded = decode_frame(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}\nframe: {frame:?}"));
        assert_eq!(decoded, frame, "case {case}: round-trip changed the frame");
        // The streaming reader agrees and reports the exact byte count —
        // that number feeds the bytes_sent/received counters and the
        // request-size echo the coordinator cross-checks.
        let (streamed, n) = read_frame(&mut bytes.as_slice())
            .unwrap_or_else(|e| panic!("case {case}: stream decode failed: {e}"));
        assert_eq!(streamed, frame, "case {case}");
        assert_eq!(n, bytes.len() as u64, "case {case}: byte count drifted");
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "generator never produced some frame type: {seen:?}"
    );
}

/// Re-encoding a decoded frame is byte-identical: the codec has exactly
/// one wire form per frame (no tolerated alternate encodings a
/// corrupted-but-accepted buffer could hide in). CountDistinct is the
/// one exception — its set iterates in hash order — so this sticks to
/// frames without it.
#[test]
fn encoding_is_canonical() {
    let mut rng = SplitMix64::new(0xCA201);
    for _ in 0..200 {
        let frame = match gen_frame(&mut rng) {
            Frame::StateMatrix(_) => Frame::Hello { site: 1 },
            f => f,
        };
        let bytes = encode_frame(&frame);
        let reencoded = encode_frame(&decode_frame(&bytes).unwrap());
        assert_eq!(bytes, reencoded, "non-canonical encoding for {frame:?}");
    }
}

// ---------------------------------------------------------------------
// Corruption rejection, field by header field
// ---------------------------------------------------------------------

fn assert_rejected(bytes: Vec<u8>, what: &str) {
    if decode_frame(&bytes).is_ok() {
        panic!("{what}: corrupted frame was accepted");
    }
    // Shrink before reporting; also proves the shrinker preserves failure.
    let minimal = shrink_rejected(bytes);
    assert!(
        decode_frame(&minimal).is_err(),
        "{what}: shrinker produced an accepted input {minimal:?}"
    );
}

#[test]
fn bad_magic_is_rejected() {
    let mut rng = SplitMix64::new(0xBAD);
    for _ in 0..50 {
        let mut bytes = encode_frame(&gen_frame(&mut rng));
        let i = rng.below(4) as usize;
        bytes[i] ^= 1 << rng.below(8);
        assert_rejected(bytes, "magic");
    }
}

#[test]
fn foreign_version_is_rejected() {
    let mut rng = SplitMix64::new(0x7E55);
    for _ in 0..50 {
        let mut bytes = encode_frame(&gen_frame(&mut rng));
        let bad = loop {
            let v = rng.next_u64() as u16;
            if v != WIRE_VERSION {
                break v;
            }
        };
        bytes[4..6].copy_from_slice(&bad.to_le_bytes());
        assert_rejected(bytes, "version");
    }
}

#[test]
fn unknown_frame_type_is_rejected() {
    let mut rng = SplitMix64::new(0xF7);
    for _ in 0..50 {
        let mut bytes = encode_frame(&gen_frame(&mut rng));
        bytes[6] = 8 + (rng.next_u64() % 248) as u8; // valid types are 1..=7
        assert_rejected(bytes, "frame type");
    }
}

#[test]
fn length_prefix_mismatch_is_rejected() {
    let mut rng = SplitMix64::new(0x1E27);
    for _ in 0..50 {
        let frame = gen_frame(&mut rng);
        let bytes = encode_frame(&frame);
        let real = bytes.len() as u32 - 11;
        // Any length other than the true one must be rejected: shorter
        // (payload has trailing bytes), longer (payload truncated), and
        // beyond MAX_FRAME_LEN (rejected straight from the header).
        for bad in [
            real.wrapping_sub(1 + rng.below(3) as u32),
            real + 1 + rng.below(100) as u32,
            MAX_FRAME_LEN + 1,
            u32::MAX,
        ] {
            if bad == real {
                continue;
            }
            let mut corrupted = bytes.clone();
            corrupted[7..11].copy_from_slice(&bad.to_le_bytes());
            assert_rejected(corrupted, "length prefix");
        }
    }
}

#[test]
fn truncation_at_any_point_is_rejected() {
    let mut rng = SplitMix64::new(0x7214);
    for _ in 0..20 {
        let bytes = encode_frame(&gen_frame(&mut rng));
        // Every strict prefix: sampled for long frames, exhaustive short.
        let cuts: Vec<usize> = if bytes.len() <= 64 {
            (0..bytes.len()).collect()
        } else {
            (0..64)
                .map(|_| rng.below(bytes.len() as u64) as usize)
                .collect()
        };
        for cut in cuts {
            let prefix = bytes[..cut].to_vec();
            assert!(
                decode_frame(&prefix).is_err(),
                "accepted a {cut}-byte prefix of a {}-byte frame",
                bytes.len()
            );
            assert!(
                read_frame(&mut &prefix[..]).is_err(),
                "stream reader accepted a {cut}-byte prefix"
            );
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut rng = SplitMix64::new(0x7A11);
    for _ in 0..50 {
        let mut bytes = encode_frame(&gen_frame(&mut rng));
        for _ in 0..1 + rng.below(8) {
            bytes.push(rng.next_u64() as u8);
        }
        assert_rejected(bytes, "trailing bytes");
    }
}

/// Random single-bit payload corruption must never panic and never
/// violate canonicality: either the buffer is rejected, or it decodes
/// to a frame (possibly a different one — flipping a literal's bit is
/// undetectable by design) that re-encodes and decodes consistently.
#[test]
fn payload_bit_flips_never_panic() {
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..300 {
        let mut bytes = encode_frame(&gen_frame(&mut rng));
        if bytes.len() == 11 {
            continue; // no payload to corrupt
        }
        let i = 11 + rng.below(bytes.len() as u64 - 11) as usize;
        bytes[i] ^= 1 << rng.below(8);
        if let Ok(frame) = decode_frame(&bytes) {
            let reencoded = encode_frame(&frame);
            assert_eq!(
                decode_frame(&reencoded).unwrap(),
                frame,
                "accepted corruption broke canonical re-encoding"
            );
        }
    }
}

/// The shrinker itself: a truncated EvalRequest shrinks all the way to
/// a locally minimal rejected input no bigger than a bare header — the
/// counterexamples it reports stay readable.
#[test]
fn shrinker_finds_minimal_rejected_frames() {
    let mut rng = SplitMix64::new(0x3A11);
    let bytes = encode_frame(&gen_eval_request(&mut rng));
    let truncated = bytes[..bytes.len() - 1].to_vec();
    let minimal = shrink_rejected(truncated);
    assert!(decode_frame(&minimal).is_err());
    assert!(
        minimal.len() <= 11,
        "greedy shrink should reach a sub-header reproducer, got {} bytes",
        minimal.len()
    );
}
