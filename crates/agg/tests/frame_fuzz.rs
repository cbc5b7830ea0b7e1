//! Frame-decoder hardening (robustness satellite): every truncated,
//! bit-flipped or otherwise mutated frame must decode to a [`FrameError`]
//! — never a panic, and never a silently-accepted packet. The CRC-32
//! trailer is what makes the "never silently accepted" half possible: it
//! detects every single-bit and every two-bit error at these frame sizes,
//! so a payload flip cannot masquerade as a different valid contribution
//! and corrupt the aggregation invariants downstream.

use fpisa_agg::protocol::{
    decode_ack, encode_ack, encode_block_fp, AckPacket, FRAME_TRAILER_BYTES,
};
use fpisa_agg::{crc32, decode_block_fp, decode_packet, encode_packet, AggPacket};
use fpisa_core::BlockFp;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// A frame decoder, type-erased to "bytes in, accepted or rejected out"
/// so one fuzz loop covers them all.
type Decoder = (&'static str, fn(&[u8]) -> bool);

/// Every decoder in the protocol.
fn decoders() -> Vec<Decoder> {
    vec![
        ("packet", |b| decode_packet(b).is_ok()),
        ("block_fp", |b| decode_block_fp(b).is_ok()),
        ("ack", |b| fpisa_agg::protocol::decode_ack(b).is_ok()),
    ]
}

/// A corpus of valid frames of every kind and several shapes.
fn corpus() -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for (wb, payload) in [
        (2u8, vec![0u64, 1, 0x3C00, 0xFFFF]),
        (4, vec![0x3F80_0000, 0xFFFF_FFFF]),
        (8, vec![1.0f64.to_bits()]),
        (4, vec![]),
        (2, vec![0x1234; 64]),
    ] {
        let pkt = AggPacket {
            job: 3,
            worker: 12,
            round: 9,
            chunk: 2,
            payload,
        };
        frames.push(encode_packet(&pkt, wb).unwrap());
    }
    for man_bits in [2u32, 8, 10, 23, 30] {
        let vals: Vec<f32> = (0..7).map(|i| (i as f32 - 3.0) * 0.625).collect();
        frames.push(encode_block_fp(&BlockFp::from_f32(&vals, man_bits)).unwrap());
    }
    for (recorded, complete) in [(true, false), (true, true), (false, true)] {
        frames.push(
            encode_ack(&AckPacket {
                job: 3,
                worker: 12,
                round: 9,
                chunk: 2,
                contributors: 7,
                current_round: 10,
                recorded,
                complete,
            })
            .unwrap(),
        );
    }
    frames
}

#[test]
fn every_single_bit_flip_is_rejected() {
    for frame in corpus() {
        for (name, accepts) in decoders() {
            // The pristine frame parses under exactly one decoder; every
            // 1-bit mutation of it parses under none.
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    !accepts(&bad),
                    "{name}: flipped bit {bit} of a {}-byte frame was accepted",
                    frame.len()
                );
            }
        }
    }
}

#[test]
fn every_truncation_and_extension_is_rejected() {
    for frame in corpus() {
        for (name, accepts) in decoders() {
            for len in 0..frame.len() {
                assert!(
                    !accepts(&frame[..len]),
                    "{name}: truncation to {len} of {} bytes was accepted",
                    frame.len()
                );
            }
            for extra in 1..4usize {
                let mut long = frame.clone();
                long.extend(std::iter::repeat_n(0xA5, extra));
                assert!(
                    !accepts(&long),
                    "{name}: {extra} appended bytes were accepted"
                );
            }
        }
    }
}

#[test]
fn random_multi_bit_flips_are_rejected() {
    let mut rng = SmallRng::seed_from_u64(0xF0_55ED);
    for frame in corpus() {
        for _ in 0..200 {
            let mut bad = frame.clone();
            let flips = rng.gen_range(2..8usize);
            for _ in 0..flips {
                let bit = rng.gen_range(0..frame.len() * 8);
                bad[bit / 8] ^= 1 << (bit % 8);
            }
            if bad == frame {
                continue; // flips cancelled out
            }
            for (name, accepts) in decoders() {
                assert!(!accepts(&bad), "{name}: multi-bit mutation accepted");
            }
        }
    }
}

#[test]
fn random_byte_soup_never_panics_or_parses() {
    let mut rng = SmallRng::seed_from_u64(0x50_0B);
    for _ in 0..2000 {
        let len = rng.gen_range(0..200usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        for (name, accepts) in decoders() {
            assert!(!accepts(&bytes), "{name}: random bytes parsed as a frame");
        }
    }
}

/// A decoder followed by its encoder: `None` when the bytes are rejected,
/// otherwise the frame the decoded value encodes to.
type Recoder = (&'static str, fn(&[u8]) -> Option<Vec<u8>>);

fn recoders() -> Vec<Recoder> {
    const WHY: &str = "a decoded value must be encodable";
    vec![
        ("packet", |b| {
            // The word width is the frame's, not the packet's: byte 5.
            let pkt = decode_packet(b).ok()?;
            Some(encode_packet(&pkt, b[5]).expect(WHY))
        }),
        ("block_fp", |b| {
            Some(encode_block_fp(&decode_block_fp(b).ok()?).expect(WHY))
        }),
        ("ack", |b| {
            Some(encode_ack(&decode_ack(b).ok()?).expect(WHY))
        }),
    ]
}

#[test]
fn resealed_mutations_are_rejected_or_decode_faithfully() {
    // The CRC normally hides the decoders' semantic checks: a mutated
    // frame dies at the trailer. Recompute the trailer after each mutation
    // and the checks behind it are on their own — whatever they then let
    // through must be a value that encodes back to exactly those bytes,
    // or the decoder has silently dropped or reinterpreted something
    // (reserved flag bits, a mantissa wider than its declared width, ...).
    // Every byte before the trailer is mutated, headers and payload alike.
    for frame in corpus() {
        let contents = frame.len() - FRAME_TRAILER_BYTES;
        for at in 0..contents {
            let b = frame[at];
            for byte in [0x00, 0xFF, b ^ 0x01, b ^ 0x80] {
                let mut bad = frame[..contents].to_vec();
                bad[at] = byte;
                let crc = crc32(&bad);
                bad.extend_from_slice(&crc.to_le_bytes());
                for (name, recode) in recoders() {
                    if let Some(again) = recode(&bad) {
                        assert_eq!(
                            again,
                            bad,
                            "{name}: byte {at} = {byte:#04x} of a {}-byte frame decoded \
                             to a value that encodes differently",
                            frame.len()
                        );
                    }
                }
            }
        }
    }
}
