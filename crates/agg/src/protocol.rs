//! Packet framing for aggregation jobs.
//!
//! An aggregation job splits a gradient vector of `elements` values across
//! fixed-size packets; each packet covers one contiguous **chunk** of slots
//! on the switch and carries one worker's contribution for every element in
//! that chunk. The header identifies the job, the worker, the chunk (and
//! through it the slot range) and the **round** — the slot-reuse version
//! number that makes retransmissions idempotent (see [`crate::SlotPool`]).
//!
//! The payload is backend-defined *wire words* ([`crate::Aggregator::encode`]):
//! packed IEEE bits for the FPISA backends, two's-complement fixed-point
//! integers for the SwitchML baseline. The byte layout packs each word at
//! `word_bytes` bytes, so putting FP16 on the wire really halves the
//! payload (§5.2.2).
//!
//! [`encode_block_fp`]/[`decode_block_fp`] additionally define the
//! **block floating point** wire layout of §3.3 on top of
//! [`fpisa_core::BlockFp`]: one shared exponent guarding a run of packed
//! signed mantissas, the MSFP-style format whose switch-side counterpart
//! replicates the exponent register across a slot range
//! ([`fpisa_core::BlockFpAccumulator`]).
//!
//! Every frame — data, block and [`AckPacket`] — ends in a CRC-32
//! trailer ([`crc32`], [`FRAME_TRAILER_BYTES`]). Decoding verifies it, so
//! a frame corrupted in flight is rejected as
//! [`FrameError::BadChecksum`] instead of silently folding garbage into
//! the aggregation state; CRC-32 detects every single-bit and every
//! two-bit error at these frame sizes. The [`AckPacket`] is the
//! switch-to-worker half of the protocol: it tells a worker that its
//! contribution is **recorded** for a round (whether the triggering
//! packet was accepted or dropped as an idempotent duplicate), how many
//! workers the chunk has fanned in, whether the round **completed**, and
//! the chunk's **current round** — enough for a worker to distinguish
//! "my duplicate was dropped idempotently" from "my packet was lost",
//! and for a restarted or stale worker to resync onto the live round.
//!
//! ## Cost of a frame
//!
//! Framing is end-host work, the thing §5.3 says in-network aggregation is
//! limited by, so the codecs are built to cost a small multiple of a
//! `memcpy`:
//!
//! * [`crc32`] is **slice-by-8**: eight 256-entry tables (8 KiB, built by
//!   a `const fn` into a `static`, so there is no lazy initialisation to
//!   pay or race on) consume eight input bytes per step with eight
//!   independent lookups, and a byte-at-a-time tail finishes the last
//!   0–7 bytes. It is the same IEEE reflected polynomial `0xEDB88320` and
//!   the same value for every input as the bit-at-a-time definition,
//!   which survives as the test oracle. A hardware CRC instruction is
//!   deliberately not used: SSE4.2 `crc32` computes CRC-32C (Castagnoli,
//!   `0x82F63B78`), a different polynomial — that would be a wire-format
//!   change, not an optimisation.
//! * [`encode_packet`] / [`decode_packet`] move the payload in **one
//!   fixed-width pass** chosen once per frame from `word_bytes`
//!   (2, 4 or 8), into one exactly-sized allocation; the too-wide-word
//!   check is a single OR-reduction over the payload, and the offending
//!   index is only looked up on the error path.

use fpisa_core::BlockFp;
use serde::{Deserialize, Serialize};

/// Framing magic of aggregation data packets (`"FPAG"`).
pub const PACKET_MAGIC: [u8; 4] = *b"FPAG";
/// Framing magic of block-floating-point payloads (`"FPBK"`).
pub const BLOCK_MAGIC: [u8; 4] = *b"FPBK";
/// Framing magic of switch-to-worker acknowledgements (`"FPAK"`).
pub const ACK_MAGIC: [u8; 4] = *b"FPAK";
/// Wire format version emitted by this crate (v2 added the CRC-32
/// trailer and the acknowledgement frame).
pub const WIRE_VERSION: u8 = 2;
/// Header bytes preceding an [`AggPacket`] payload.
pub const PACKET_HEADER_BYTES: usize = 22;
/// Bytes of an [`AckPacket`] frame before the trailer.
pub const ACK_HEADER_BYTES: usize = 26;
/// Header bytes preceding the mantissas of a block-floating-point frame.
pub const BLOCK_HEADER_BYTES: usize = 12;
/// CRC-32 trailer bytes terminating every frame.
pub const FRAME_TRAILER_BYTES: usize = 4;
/// Most workers a job can fan in — the per-chunk contribution bitmap is one
/// 64-bit word.
pub const MAX_WORKERS: u32 = 64;

/// Static description of one aggregation job, shared by workers and switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Job identifier carried by every packet.
    pub job: u32,
    /// Number of workers that must contribute to every chunk
    /// (1..=[`MAX_WORKERS`]).
    pub workers: u32,
    /// Total gradient elements — one aggregation slot each.
    pub elements: usize,
    /// Elements per packet (the chunk size); the last chunk may be shorter.
    pub elements_per_packet: usize,
}

impl JobSpec {
    /// Validate the spec's internal constraints.
    pub fn validate(&self) -> Result<(), AggError> {
        if self.workers == 0 || self.workers > MAX_WORKERS {
            return Err(AggError::BadSpec {
                detail: format!("workers {} outside 1..={MAX_WORKERS}", self.workers),
            });
        }
        if self.elements == 0 || self.elements_per_packet == 0 {
            return Err(AggError::BadSpec {
                detail: "elements and elements_per_packet must be non-zero".into(),
            });
        }
        // The frame header carries the payload count as u16.
        if self.elements_per_packet > u16::MAX as usize {
            return Err(AggError::BadSpec {
                detail: format!(
                    "elements_per_packet {} exceeds the 16-bit wire count field",
                    self.elements_per_packet
                ),
            });
        }
        Ok(())
    }

    /// Number of chunks (= packets per worker per round).
    pub fn chunks(&self) -> usize {
        self.elements.div_ceil(self.elements_per_packet)
    }

    /// The slot range `(start, len)` a chunk covers.
    pub fn slot_range(&self, chunk: usize) -> (usize, usize) {
        let start = chunk * self.elements_per_packet;
        let len = self.elements_per_packet.min(self.elements - start);
        (start, len)
    }

    /// Split one worker's gradient (already encoded to wire words) into the
    /// per-chunk packets of one round.
    pub fn packetize(&self, worker: u32, round: u32, words: &[u64]) -> Vec<AggPacket> {
        assert_eq!(words.len(), self.elements, "gradient length != elements");
        (0..self.chunks())
            .map(|chunk| {
                let (start, len) = self.slot_range(chunk);
                AggPacket {
                    job: self.job,
                    worker,
                    round,
                    chunk: chunk as u32,
                    payload: words[start..start + len].to_vec(),
                }
            })
            .collect()
    }
}

/// One aggregation data packet: a worker's contribution to one chunk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggPacket {
    /// Job identifier.
    pub job: u32,
    /// Sending worker (0-based).
    pub worker: u32,
    /// Slot-reuse round this contribution belongs to.
    pub round: u32,
    /// Chunk index; the slot range is [`JobSpec::slot_range`] of it.
    pub chunk: u32,
    /// Backend-defined wire words, one per element of the chunk.
    pub payload: Vec<u64>,
}

/// Why a byte buffer does not parse as a wire frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameError {
    /// Fewer bytes than the fixed header.
    TooShort {
        /// Bytes present.
        have: usize,
        /// Bytes needed.
        need: usize,
    },
    /// The magic did not match.
    BadMagic,
    /// Unknown wire version.
    BadVersion(u8),
    /// Word width not in {2, 4, 8} (packets) or mantissa bytes not in
    /// 1..=4 (blocks).
    BadWordWidth(u8),
    /// The payload length disagrees with the header count.
    LengthMismatch {
        /// Elements the header announces.
        declared: usize,
        /// Elements the bytes actually hold.
        actual: usize,
    },
    /// A word does not fit the declared width: a packet payload word
    /// wider than `word_bytes` (encode-side error), or a block mantissa
    /// beyond the `man_bits` magnitude bits the header declares (refused
    /// by the block encoder and decoder alike).
    WordTooWide {
        /// Offending payload index.
        index: usize,
    },
    /// A header field does not fit its wire width (encode-side error):
    /// worker ids, payload counts, block biases and exponents are 16-bit
    /// on the wire.
    HeaderFieldTooWide {
        /// Name of the offending field.
        field: String,
    },
    /// An acknowledgement sets flag bits this wire version reserves.
    BadFlags(u8),
    /// The CRC-32 trailer does not match the frame contents — the frame
    /// was corrupted in flight.
    BadChecksum {
        /// Checksum the trailer carries.
        declared: u32,
        /// Checksum of the bytes actually received.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort { have, need } => {
                write!(f, "frame of {have} bytes shorter than {need}")
            }
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            FrameError::BadWordWidth(w) => write!(f, "unsupported word width {w}"),
            FrameError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "header declares {declared} elements, frame holds {actual}"
                )
            }
            FrameError::WordTooWide { index } => {
                write!(f, "payload word {index} does not fit the declared width")
            }
            FrameError::HeaderFieldTooWide { field } => {
                write!(
                    f,
                    "header field `{field}` does not fit its 16-bit wire width"
                )
            }
            FrameError::BadFlags(flags) => {
                write!(f, "acknowledgement sets reserved flag bits ({flags:#04x})")
            }
            FrameError::BadChecksum { declared, actual } => {
                write!(
                    f,
                    "frame checksum {declared:#010x} does not match contents ({actual:#010x})"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

use crate::backend::AggError;

/// The reflected IEEE 802.3 generator polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b` through
/// it; `CRC_TABLES[k][b]` is the same followed by `k` zero bytes, which is
/// what lets eight bytes be folded in with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// The CRC-32 (IEEE reflected, as in Ethernet) every frame's trailer
/// carries over all preceding bytes. Slice-by-8: see the module docs.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut steps = bytes.chunks_exact(8);
    for c in &mut steps {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append the CRC-32 trailer to a frame under construction. Every encoder
/// reserves [`FRAME_TRAILER_BYTES`] for it up front, so this never
/// reallocates.
fn seal_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Split a received frame into contents and verified trailer. `min_len`
/// is the smallest valid frame (header plus trailer).
fn open_frame(bytes: &[u8], min_len: usize) -> Result<&[u8], FrameError> {
    if bytes.len() < min_len {
        return Err(FrameError::TooShort {
            have: bytes.len(),
            need: min_len,
        });
    }
    let (contents, trailer) = bytes.split_at(bytes.len() - FRAME_TRAILER_BYTES);
    let declared = u32::from_le_bytes(trailer.try_into().unwrap());
    let actual = crc32(contents);
    if declared != actual {
        return Err(FrameError::BadChecksum { declared, actual });
    }
    Ok(contents)
}

/// Pack `words` little-endian at `N` bytes each into `body`, which holds
/// exactly `N` bytes per word. `N` is a constant so every store is
/// fixed-width.
fn pack_words<const N: usize>(body: &mut [u8], words: &[u64]) {
    for (dst, w) in body.chunks_exact_mut(N).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes()[..N]);
    }
}

/// The inverse of [`pack_words`], into one exactly-sized allocation.
fn unpack_words<const N: usize>(body: &[u8]) -> Vec<u64> {
    body.chunks_exact(N)
        .map(|src| {
            let mut word = [0u8; 8];
            word[..N].copy_from_slice(src);
            u64::from_le_bytes(word)
        })
        .collect()
}

/// Serialize a packet, packing each payload word at `word_bytes` bytes
/// (2, 4 or 8 — FP16/BF16, FP32/fixed-point, f64 reference).
pub fn encode_packet(pkt: &AggPacket, word_bytes: u8) -> Result<Vec<u8>, FrameError> {
    if !matches!(word_bytes, 2 | 4 | 8) {
        return Err(FrameError::BadWordWidth(word_bytes));
    }
    if pkt.worker > u16::MAX as u32 {
        return Err(FrameError::HeaderFieldTooWide {
            field: "worker".into(),
        });
    }
    if pkt.payload.len() > u16::MAX as usize {
        return Err(FrameError::HeaderFieldTooWide {
            field: "count".into(),
        });
    }
    // A word is too wide exactly when it has a bit above the packed
    // width, so OR-ing the payload together answers "any?" in one
    // branch-free pass; which word it was matters only on the error path.
    let fits = u64::MAX >> (64 - 8 * word_bytes as u32);
    if pkt.payload.iter().fold(0, |acc, w| acc | w) & !fits != 0 {
        let index = pkt.payload.iter().position(|&w| w > fits);
        return Err(FrameError::WordTooWide {
            index: index.expect("a wide bit in the OR comes from some word"),
        });
    }
    let body_end = PACKET_HEADER_BYTES + pkt.payload.len() * word_bytes as usize;
    let mut out = Vec::with_capacity(body_end + FRAME_TRAILER_BYTES);
    out.extend_from_slice(&PACKET_MAGIC);
    out.push(WIRE_VERSION);
    out.push(word_bytes);
    out.extend_from_slice(&pkt.job.to_le_bytes());
    out.extend_from_slice(&(pkt.worker as u16).to_le_bytes());
    out.extend_from_slice(&pkt.round.to_le_bytes());
    out.extend_from_slice(&pkt.chunk.to_le_bytes());
    out.extend_from_slice(&(pkt.payload.len() as u16).to_le_bytes());
    debug_assert_eq!(out.len(), PACKET_HEADER_BYTES);
    out.resize(body_end, 0);
    let body = &mut out[PACKET_HEADER_BYTES..];
    match word_bytes {
        2 => pack_words::<2>(body, &pkt.payload),
        4 => pack_words::<4>(body, &pkt.payload),
        _ => pack_words::<8>(body, &pkt.payload),
    }
    Ok(seal_frame(out))
}

/// Parse a packet frame produced by [`encode_packet`].
pub fn decode_packet(frame: &[u8]) -> Result<AggPacket, FrameError> {
    let bytes = open_frame(frame, PACKET_HEADER_BYTES + FRAME_TRAILER_BYTES)?;
    if bytes[0..4] != PACKET_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if bytes[4] != WIRE_VERSION {
        return Err(FrameError::BadVersion(bytes[4]));
    }
    let word_bytes = bytes[5];
    if !matches!(word_bytes, 2 | 4 | 8) {
        return Err(FrameError::BadWordWidth(word_bytes));
    }
    let le32 = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let job = le32(6);
    let worker = u16::from_le_bytes(bytes[10..12].try_into().unwrap()) as u32;
    let round = le32(12);
    let chunk = le32(16);
    let count = u16::from_le_bytes(bytes[20..22].try_into().unwrap()) as usize;
    let body = &bytes[PACKET_HEADER_BYTES..];
    if body.len() != count * word_bytes as usize {
        return Err(FrameError::LengthMismatch {
            declared: count,
            actual: body.len() / word_bytes as usize,
        });
    }
    let payload = match word_bytes {
        2 => unpack_words::<2>(body),
        4 => unpack_words::<4>(body),
        _ => unpack_words::<8>(body),
    };
    Ok(AggPacket {
        job,
        worker,
        round,
        chunk,
        payload,
    })
}

/// Bytes one mantissa of `man_bits` magnitude bits occupies on the wire
/// (sign bit included, rounded up to whole bytes).
pub fn block_mantissa_bytes(man_bits: u32) -> usize {
    ((man_bits as usize + 1).div_ceil(8)).max(1)
}

/// Largest mantissa magnitude a block of `man_bits` carries:
/// [`BlockFp::from_f32`] clamps every element to `±(2^man_bits − 1)`, so
/// anything beyond is not a block this protocol produced — even where the
/// whole bytes of [`block_mantissa_bytes`] could hold it.
fn block_mantissa_limit(man_bits: u32) -> u32 {
    (1u32 << man_bits) - 1
}

/// Serialize a [`BlockFp`] in the §3.3 wire layout: magic, version, the
/// block geometry, the shared exponent once, then every signed mantissa
/// packed at [`block_mantissa_bytes`] — the amortization that makes block
/// floating point cheaper than scalar formats on the wire. A block the
/// header cannot describe (geometry, bias or exponent beyond their wire
/// fields, a mantissa beyond `man_bits`) is refused, never truncated.
pub fn encode_block_fp(block: &BlockFp) -> Result<Vec<u8>, FrameError> {
    if !(2..=30).contains(&block.man_bits) {
        return Err(FrameError::BadWordWidth(
            u8::try_from(block.man_bits).unwrap_or(u8::MAX),
        ));
    }
    let too_wide = |field: &str| FrameError::HeaderFieldTooWide {
        field: field.into(),
    };
    let bias = i16::try_from(block.bias).map_err(|_| too_wide("bias"))?;
    let shared_exp = i16::try_from(block.shared_exp).map_err(|_| too_wide("shared_exp"))?;
    let count = u16::try_from(block.len()).map_err(|_| too_wide("count"))?;
    let limit = block_mantissa_limit(block.man_bits);
    if let Some(index) = block
        .mantissas
        .iter()
        .position(|m| m.unsigned_abs() > limit)
    {
        return Err(FrameError::WordTooWide { index });
    }
    let mb = block_mantissa_bytes(block.man_bits);
    let mut out = Vec::with_capacity(BLOCK_HEADER_BYTES + block.len() * mb + FRAME_TRAILER_BYTES);
    out.extend_from_slice(&BLOCK_MAGIC);
    out.push(WIRE_VERSION);
    out.push(block.man_bits as u8);
    out.extend_from_slice(&bias.to_le_bytes());
    out.extend_from_slice(&shared_exp.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    debug_assert_eq!(out.len(), BLOCK_HEADER_BYTES);
    for &m in &block.mantissas {
        out.extend_from_slice(&m.to_le_bytes()[..mb]);
    }
    Ok(seal_frame(out))
}

/// Parse a block-floating-point frame produced by [`encode_block_fp`].
pub fn decode_block_fp(frame: &[u8]) -> Result<BlockFp, FrameError> {
    let bytes = open_frame(frame, BLOCK_HEADER_BYTES + FRAME_TRAILER_BYTES)?;
    if bytes[0..4] != BLOCK_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if bytes[4] != WIRE_VERSION {
        return Err(FrameError::BadVersion(bytes[4]));
    }
    let man_bits = bytes[5] as u32;
    if !(2..=30).contains(&man_bits) {
        return Err(FrameError::BadWordWidth(bytes[5]));
    }
    let bias = i16::from_le_bytes(bytes[6..8].try_into().unwrap()) as i32;
    let shared_exp = i16::from_le_bytes(bytes[8..10].try_into().unwrap()) as i32;
    let count = u16::from_le_bytes(bytes[10..12].try_into().unwrap()) as usize;
    let mb = block_mantissa_bytes(man_bits);
    let body = &bytes[BLOCK_HEADER_BYTES..];
    if body.len() != count * mb {
        return Err(FrameError::LengthMismatch {
            declared: count,
            actual: body.len() / mb,
        });
    }
    let shift = 32 - 8 * mb as u32;
    let mantissas: Vec<i32> = body
        .chunks_exact(mb)
        .map(|c| {
            let mut buf = [0u8; 4];
            buf[..c.len()].copy_from_slice(c);
            // Sign-extend from the packed width.
            (i32::from_le_bytes(buf) << shift) >> shift
        })
        .collect();
    let limit = block_mantissa_limit(man_bits);
    if let Some(index) = mantissas.iter().position(|m| m.unsigned_abs() > limit) {
        return Err(FrameError::WordTooWide { index });
    }
    Ok(BlockFp {
        man_bits,
        bias,
        shared_exp,
        mantissas,
    })
}

/// The switch-to-worker acknowledgement for one data packet (or one
/// completion broadcast): everything a worker needs to drive its
/// retransmission state machine over a lossy network.
///
/// Three situations, distinguished by the fields:
///
/// * **recorded, not complete** — the contribution is in (the triggering
///   packet was accepted, *or* dropped as an idempotent duplicate of an
///   earlier acceptance — to the worker the two are the same); stop
///   retransmitting, await completion.
/// * **complete** — the chunk's round reached full fan-in;
///   `current_round` names the next round the switch accepts.
/// * **`current_round > round`** — the acked round is already over (the
///   triggering packet classified as stale). A worker that missed the
///   completion broadcast, or restarted, resyncs onto `current_round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AckPacket {
    /// Job identifier.
    pub job: u32,
    /// Worker the ack is addressed to.
    pub worker: u32,
    /// Round the ack refers to (the triggering packet's round).
    pub round: u32,
    /// Chunk index.
    pub chunk: u32,
    /// Workers recorded for the chunk's current round so far (at round
    /// completion: the full contributor count, which under graceful
    /// degradation may be fewer than the job's fan-in).
    pub contributors: u32,
    /// The chunk's current round at the switch, after any completion
    /// triggered by the acked packet.
    pub current_round: u32,
    /// The addressed worker's contribution is recorded in `round`.
    pub recorded: bool,
    /// The chunk's `round` reached completion.
    pub complete: bool,
}

/// The flag bits wire v2 defines for an acknowledgement (`recorded`,
/// `complete`); the other six are reserved and must be zero, so that a
/// decoded ack re-encodes to the bytes it came from.
const ACK_FLAG_BITS: u8 = 0b11;

/// Serialize an acknowledgement frame.
pub fn encode_ack(ack: &AckPacket) -> Result<Vec<u8>, FrameError> {
    if ack.worker > u16::MAX as u32 {
        return Err(FrameError::HeaderFieldTooWide {
            field: "worker".into(),
        });
    }
    if ack.contributors > u16::MAX as u32 {
        return Err(FrameError::HeaderFieldTooWide {
            field: "contributors".into(),
        });
    }
    let mut out = Vec::with_capacity(ACK_HEADER_BYTES + FRAME_TRAILER_BYTES);
    out.extend_from_slice(&ACK_MAGIC);
    out.push(WIRE_VERSION);
    out.push(u8::from(ack.recorded) | (u8::from(ack.complete) << 1));
    out.extend_from_slice(&ack.job.to_le_bytes());
    out.extend_from_slice(&(ack.worker as u16).to_le_bytes());
    out.extend_from_slice(&ack.round.to_le_bytes());
    out.extend_from_slice(&ack.chunk.to_le_bytes());
    out.extend_from_slice(&(ack.contributors as u16).to_le_bytes());
    out.extend_from_slice(&ack.current_round.to_le_bytes());
    debug_assert_eq!(out.len(), ACK_HEADER_BYTES);
    Ok(seal_frame(out))
}

/// Parse an acknowledgement frame produced by [`encode_ack`].
pub fn decode_ack(frame: &[u8]) -> Result<AckPacket, FrameError> {
    let bytes = open_frame(frame, ACK_HEADER_BYTES + FRAME_TRAILER_BYTES)?;
    if bytes.len() != ACK_HEADER_BYTES {
        return Err(FrameError::LengthMismatch {
            declared: ACK_HEADER_BYTES,
            actual: bytes.len(),
        });
    }
    if bytes[0..4] != ACK_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if bytes[4] != WIRE_VERSION {
        return Err(FrameError::BadVersion(bytes[4]));
    }
    let flags = bytes[5];
    if flags & !ACK_FLAG_BITS != 0 {
        return Err(FrameError::BadFlags(flags));
    }
    let le32 = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    Ok(AckPacket {
        job: le32(6),
        worker: u16::from_le_bytes(bytes[10..12].try_into().unwrap()) as u32,
        round: le32(12),
        chunk: le32(16),
        contributors: u16::from_le_bytes(bytes[20..22].try_into().unwrap()) as u32,
        current_round: le32(22),
        recorded: flags & 1 != 0,
        complete: flags & 2 != 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(payload: Vec<u64>) -> AggPacket {
        AggPacket {
            job: 7,
            worker: 3,
            round: 2,
            chunk: 5,
            payload,
        }
    }

    /// The definition [`crc32`] must agree with: one bit at a time, no
    /// tables. This is the codec the wire format was specified under.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Recompute the trailer after deliberately mutating frame contents,
    /// so a test can exercise the *semantic* decode error behind the
    /// checksum (a real corruption is caught by the checksum first).
    fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
        frame.truncate(frame.len() - FRAME_TRAILER_BYTES);
        seal_frame(frame)
    }

    #[test]
    fn packet_roundtrips_at_every_word_width() {
        for (wb, words) in [
            (2u8, vec![0u64, 1, 0x3C00, 0xFFFF]),
            (4, vec![0, 0x3F80_0000, 0xFFFF_FFFF]),
            (8, vec![0, 1.0f64.to_bits(), u64::MAX]),
        ] {
            let p = pkt(words);
            let bytes = encode_packet(&p, wb).unwrap();
            assert_eq!(
                bytes.len(),
                PACKET_HEADER_BYTES + p.payload.len() * wb as usize + FRAME_TRAILER_BYTES
            );
            assert_eq!(decode_packet(&bytes).unwrap(), p, "word_bytes {wb}");
        }
    }

    #[test]
    fn fp16_on_the_wire_halves_the_payload() {
        let overhead = PACKET_HEADER_BYTES + FRAME_TRAILER_BYTES;
        let p = pkt(vec![0x3C00; 64]);
        let half = encode_packet(&p, 2).unwrap().len();
        let full = encode_packet(&p, 4).unwrap().len();
        assert_eq!(full - overhead, 2 * (half - overhead));
    }

    #[test]
    fn encode_rejects_oversized_words_and_bad_widths() {
        assert_eq!(
            encode_packet(&pkt(vec![0x1_0000]), 2),
            Err(FrameError::WordTooWide { index: 0 })
        );
        assert_eq!(
            encode_packet(&pkt(vec![]), 3),
            Err(FrameError::BadWordWidth(3))
        );
    }

    #[test]
    fn encode_rejects_header_fields_beyond_their_wire_width() {
        let mut wide_worker = pkt(vec![1, 2]);
        wide_worker.worker = 1 << 16;
        assert!(matches!(
            encode_packet(&wide_worker, 4),
            Err(FrameError::HeaderFieldTooWide { .. })
        ));
        let long = pkt(vec![0; (u16::MAX as usize) + 1]);
        assert!(matches!(
            encode_packet(&long, 2),
            Err(FrameError::HeaderFieldTooWide { .. })
        ));
        // The job spec refuses chunks the wire count field cannot carry.
        let spec = JobSpec {
            job: 0,
            workers: 2,
            elements: 100_000,
            elements_per_packet: 70_000,
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let good = encode_packet(&pkt(vec![1, 2, 3]), 4).unwrap();
        assert!(matches!(
            decode_packet(&good[..10]),
            Err(FrameError::TooShort { .. })
        ));
        // A corrupted byte fails the checksum before anything else looks
        // at it; the semantic errors below need a resealed frame.
        let mut corrupt = good.clone();
        corrupt[0] = b'X';
        assert!(matches!(
            decode_packet(&corrupt),
            Err(FrameError::BadChecksum { .. })
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_packet(&reseal(bad_magic)), Err(FrameError::BadMagic));
        let mut bad_ver = good.clone();
        bad_ver[4] = 9;
        assert_eq!(
            decode_packet(&reseal(bad_ver)),
            Err(FrameError::BadVersion(9))
        );
        let mut truncated = good.clone();
        truncated.pop();
        // Losing a trailer byte shifts the checksum window.
        assert!(matches!(
            decode_packet(&truncated),
            Err(FrameError::BadChecksum { .. })
        ));
        // One whole payload word removed, frame resealed: the count field
        // now disagrees with the body.
        let mut short_body = good.clone();
        short_body.truncate(good.len() - FRAME_TRAILER_BYTES - 4);
        short_body = seal_frame(short_body);
        assert!(matches!(
            decode_packet(&short_body),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn job_spec_packetizes_into_chunked_slot_ranges() {
        let spec = JobSpec {
            job: 1,
            workers: 4,
            elements: 10,
            elements_per_packet: 4,
        };
        spec.validate().unwrap();
        assert_eq!(spec.chunks(), 3);
        assert_eq!(spec.slot_range(0), (0, 4));
        assert_eq!(spec.slot_range(2), (8, 2), "tail chunk is shorter");
        let words: Vec<u64> = (0..10).collect();
        let pkts = spec.packetize(2, 1, &words);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[1].payload, vec![4, 5, 6, 7]);
        assert_eq!(pkts[2].payload, vec![8, 9]);
        assert!(pkts.iter().all(|p| p.worker == 2 && p.round == 1));
    }

    #[test]
    fn job_spec_validation_rejects_degenerate_jobs() {
        let base = JobSpec {
            job: 0,
            workers: 8,
            elements: 4,
            elements_per_packet: 2,
        };
        assert!(JobSpec { workers: 0, ..base }.validate().is_err());
        assert!(JobSpec {
            workers: 65,
            ..base
        }
        .validate()
        .is_err());
        assert!(JobSpec {
            elements: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(JobSpec {
            elements_per_packet: 0,
            ..base
        }
        .validate()
        .is_err());
    }

    #[test]
    fn block_fp_roundtrips_including_negative_mantissas() {
        for man_bits in [2u32, 7, 8, 10, 15, 23, 30] {
            let vals: Vec<f32> = (0..9)
                .map(|i| (i as f32 - 4.0) * 0.37 * 2f32.powi(i - 3))
                .collect();
            let b = BlockFp::from_f32(&vals, man_bits);
            let bytes = encode_block_fp(&b).unwrap();
            assert_eq!(
                bytes.len(),
                BLOCK_HEADER_BYTES + b.len() * block_mantissa_bytes(man_bits) + FRAME_TRAILER_BYTES,
                "man_bits {man_bits}"
            );
            assert_eq!(decode_block_fp(&bytes).unwrap(), b, "man_bits {man_bits}");
        }
    }

    #[test]
    fn block_fp_wire_is_smaller_than_scalar_fp32() {
        // 64 elements at 8-bit mantissas: header + trailer + 128 bytes of
        // mantissas vs 256 bytes of FP32 — the §3.3 amortization.
        let vals = vec![0.5f32; 64];
        let b = BlockFp::from_f32(&vals, 8);
        assert!(encode_block_fp(&b).unwrap().len() < 64 * 4 / 2 + 32);
    }

    #[test]
    fn block_fp_decode_rejects_malformed_frames() {
        let b = BlockFp::from_f32(&[1.0, -2.0], 8);
        let good = encode_block_fp(&b).unwrap();
        let mut bad = good.clone();
        bad[1] = b'Q';
        assert_eq!(decode_block_fp(&reseal(bad)), Err(FrameError::BadMagic));
        let mut wide = good.clone();
        wide[5] = 42;
        assert_eq!(
            decode_block_fp(&reseal(wide)),
            Err(FrameError::BadWordWidth(42))
        );
        let mut corrupt = good.clone();
        corrupt[6] ^= 0x10;
        assert!(matches!(
            decode_block_fp(&corrupt),
            Err(FrameError::BadChecksum { .. })
        ));
        let mut trunc = good;
        trunc.truncate(13);
        assert!(matches!(
            decode_block_fp(&trunc),
            Err(FrameError::TooShort { .. })
        ));
    }

    #[test]
    fn ack_roundtrips_and_rejects_corruption() {
        let ack = AckPacket {
            job: 7,
            worker: 41,
            round: 3,
            chunk: 11,
            contributors: 63,
            current_round: 4,
            recorded: true,
            complete: false,
        };
        let bytes = encode_ack(&ack).unwrap();
        assert_eq!(bytes.len(), ACK_HEADER_BYTES + FRAME_TRAILER_BYTES);
        assert_eq!(decode_ack(&bytes).unwrap(), ack);
        // Every flag combination survives the trip.
        for (recorded, complete) in [(false, false), (false, true), (true, true)] {
            let a = AckPacket {
                recorded,
                complete,
                ..ack
            };
            assert_eq!(decode_ack(&encode_ack(&a).unwrap()).unwrap(), a);
        }
        // Corruption anywhere is caught by the trailer.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x04;
            assert!(decode_ack(&bad).is_err(), "flipped byte {i}");
        }
        // A data frame is not an ack.
        let data = encode_packet(&pkt(vec![1]), 4).unwrap();
        assert!(decode_ack(&data).is_err());
        // Oversized header fields are an encode-side error.
        let wide = AckPacket {
            worker: 1 << 16,
            ..ack
        };
        assert!(matches!(
            encode_ack(&wide),
            Err(FrameError::HeaderFieldTooWide { .. })
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE CRC-32 check value ("123456789" → 0xCBF43926).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn crc32_agrees_with_the_bitwise_definition_at_every_length() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // 0..=600 covers every tail length 0..=7 after every step count up
        // to 75, and runs well past one data frame (154 bytes for FP16).
        let mut rng = SmallRng::seed_from_u64(0xC3C32);
        let bytes: Vec<u8> = (0..600).map(|_| rng.gen_range(0..256u32) as u8).collect();
        for len in 0..=bytes.len() {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "length {len}"
            );
        }
        // The eight-byte steps are cut from the slice's own start, wherever
        // that sits in memory.
        for start in 1..8 {
            assert_eq!(
                crc32(&bytes[start..]),
                crc32_bitwise(&bytes[start..]),
                "from offset {start}"
            );
        }
    }

    /// Frames emitted by the commit *before* the table-driven CRC and the
    /// width-specialised codecs, byte for byte: the wire did not move.
    #[test]
    fn wire_bytes_match_the_frames_recorded_before_the_fast_codecs() {
        assert_eq!(WIRE_VERSION, 2);
        let pkt = |payload: Vec<u64>| AggPacket {
            job: 0x0A0B_0C0D,
            worker: 0x1234,
            round: 0x5566_7788,
            chunk: 0x99AA_BBCC,
            payload,
        };
        #[rustfmt::skip]
        let header = |word_bytes: u8, count: u8| vec![
            b'F', b'P', b'A', b'G', 2, word_bytes,
            0x0D, 0x0C, 0x0B, 0x0A, 0x34, 0x12,
            0x88, 0x77, 0x66, 0x55, 0xCC, 0xBB, 0xAA, 0x99, count, 0x00,
        ];
        #[rustfmt::skip]
        let golden: [(u8, Vec<u64>, Vec<u8>); 3] = [
            (2, vec![0, 1, 0x3C00, 0xFFFF, 0x8001], [header(2, 5), vec![
                0x00, 0x00, 0x01, 0x00, 0x00, 0x3C, 0xFF, 0xFF, 0x01, 0x80,
                0x15, 0xBA, 0x1F, 0xF1,
            ]].concat()),
            (4, vec![0, 0x3F80_0000, 0xFFFF_FFFF, 0x8000_0001], [header(4, 4), vec![
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3F,
                0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x00, 0x00, 0x80,
                0x94, 0x63, 0x30, 0xD6,
            ]].concat()),
            (8, vec![0, 1.0f64.to_bits(), u64::MAX, 0x0102_0304_0506_0708], [header(8, 4), vec![
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
                0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
                0x8A, 0xF7, 0x55, 0x96,
            ]].concat()),
        ];
        for (wb, payload, bytes) in golden {
            let p = pkt(payload);
            assert_eq!(encode_packet(&p, wb).unwrap(), bytes, "word_bytes {wb}");
            assert_eq!(decode_packet(&bytes).unwrap(), p, "word_bytes {wb}");
        }

        let ack = AckPacket {
            job: 0x0A0B_0C0D,
            worker: 0x1234,
            round: 0x5566_7788,
            chunk: 0x99AA_BBCC,
            contributors: 0x0708,
            current_round: 0x5566_7789,
            recorded: true,
            complete: true,
        };
        #[rustfmt::skip]
        let ack_bytes = [
            b'F', b'P', b'A', b'K', 2, 0x03,
            0x0D, 0x0C, 0x0B, 0x0A, 0x34, 0x12,
            0x88, 0x77, 0x66, 0x55, 0xCC, 0xBB, 0xAA, 0x99, 0x08, 0x07,
            0x89, 0x77, 0x66, 0x55,
            0xAB, 0x69, 0x23, 0x81,
        ];
        assert_eq!(encode_ack(&ack).unwrap(), ack_bytes);
        assert_eq!(decode_ack(&ack_bytes).unwrap(), ack);

        let block = BlockFp::from_f32(&[1.0, -2.0, 0.375, -0.0625], 10);
        #[rustfmt::skip]
        let block_bytes = [
            b'F', b'P', b'B', b'K', 2, 10, 0x7F, 0x00, 0x81, 0x00, 0x04, 0x00,
            0x00, 0x01, 0x00, 0xFE, 0x60, 0x00, 0xF0, 0xFF,
            0xE9, 0xDB, 0xE7, 0x4A,
        ];
        assert_eq!(encode_block_fp(&block).unwrap(), block_bytes);
        assert_eq!(decode_block_fp(&block_bytes).unwrap(), block);
    }

    #[test]
    fn word_too_wide_names_the_first_offender() {
        // Two offenders: the OR-reduction only says "some word"; the error
        // path must still find the earlier one.
        let mut words = vec![0x7FFFu64; 40];
        words[9] = 0x1_0000;
        words[31] = u64::MAX;
        assert_eq!(
            encode_packet(&pkt(words.clone()), 2),
            Err(FrameError::WordTooWide { index: 9 })
        );
        words[9] = 0xFFFF_FFFF;
        words[3] = 0x1_0000_0000;
        assert_eq!(
            encode_packet(&pkt(words.clone()), 4),
            Err(FrameError::WordTooWide { index: 3 })
        );
        // Nothing is too wide for 8 bytes.
        assert!(encode_packet(&pkt(words), 8).is_ok());
    }

    #[test]
    fn packets_roundtrip_at_the_edge_payload_lengths() {
        for wb in [2u8, 4, 8] {
            let top = u64::MAX >> (64 - 8 * wb as u32);
            for len in [0usize, 1, 7, 8, 9, 64, u16::MAX as usize] {
                // Every byte of every word carries its own pattern, and
                // the last word is the widest the width allows.
                let mut payload: Vec<u64> = (1..=len as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & top)
                    .collect();
                if let Some(last) = payload.last_mut() {
                    *last = top;
                }
                let p = pkt(payload);
                let bytes = encode_packet(&p, wb).unwrap();
                assert_eq!(
                    bytes.len(),
                    PACKET_HEADER_BYTES + len * wb as usize + FRAME_TRAILER_BYTES
                );
                assert_eq!(decode_packet(&bytes).unwrap(), p, "{len} words of {wb}");
            }
        }
    }

    #[test]
    fn ack_with_reserved_flag_bits_is_rejected() {
        let ack = AckPacket {
            job: 1,
            worker: 2,
            round: 3,
            chunk: 4,
            contributors: 5,
            current_round: 3,
            recorded: true,
            complete: true,
        };
        let good = encode_ack(&ack).unwrap();
        for flags in [0xFFu8, 0x04, 0x80, 0x13] {
            let mut bad = good.clone();
            bad[5] = flags;
            assert_eq!(
                decode_ack(&reseal(bad)),
                Err(FrameError::BadFlags(flags)),
                "flags {flags:#04x}"
            );
        }
    }

    #[test]
    fn block_fp_encode_refuses_what_the_header_cannot_carry() {
        let good = BlockFp::from_f32(&[1.0, -2.0], 8);
        let too_wide = |field: &str| {
            Err(FrameError::HeaderFieldTooWide {
                field: field.into(),
            })
        };
        for (bias, shared_exp, field) in [
            (i16::MAX as i32 + 1, 0, "bias"),
            (i16::MIN as i32 - 1, 0, "bias"),
            (127, i16::MAX as i32 + 1, "shared_exp"),
        ] {
            let b = BlockFp {
                bias,
                shared_exp,
                ..good.clone()
            };
            assert_eq!(encode_block_fp(&b), too_wide(field));
        }
        let long = BlockFp {
            mantissas: vec![0; u16::MAX as usize + 1],
            ..good.clone()
        };
        assert_eq!(encode_block_fp(&long), too_wide("count"));
        for man_bits in [0u32, 1, 31, 300] {
            let b = BlockFp {
                man_bits,
                ..good.clone()
            };
            assert!(matches!(
                encode_block_fp(&b),
                Err(FrameError::BadWordWidth(_))
            ));
        }
        // 256 needs a ninth magnitude bit; i32::MIN has no magnitude at all.
        for m in [256, -256, i32::MAX, i32::MIN] {
            let b = BlockFp {
                mantissas: vec![255, m, i32::MIN],
                ..good.clone()
            };
            assert_eq!(
                encode_block_fp(&b),
                Err(FrameError::WordTooWide { index: 1 })
            );
        }
    }

    #[test]
    fn block_mantissa_bound_is_what_from_f32_produces() {
        for man_bits in 2..=30u32 {
            let limit = block_mantissa_limit(man_bits) as i32;
            // `from_f32` clamps to exactly ±limit (the infinities get
            // there; the shared exponent sits one above the largest finite
            // element's, so nothing finite can pass it)…
            let edge = BlockFp::from_f32(
                &[f32::INFINITY, f32::NEG_INFINITY, f32::MAX, -f32::MAX, 1.0],
                man_bits,
            );
            assert_eq!(edge.mantissas[..2], [limit, -limit], "man_bits {man_bits}");
            assert!(edge.mantissas.iter().all(|m| m.abs() <= limit));
            // …which the wire carries both ways…
            let bytes = encode_block_fp(&edge).unwrap();
            assert_eq!(decode_block_fp(&bytes).unwrap(), edge);
            // …and one past it is refused by the decoder even where the
            // packed bytes could hold it: flipping every bit of `limit`
            // gives -(limit + 1) at any packed width.
            let mut beyond = bytes;
            for b in &mut beyond[BLOCK_HEADER_BYTES..][..block_mantissa_bytes(man_bits)] {
                *b = !*b;
            }
            assert_eq!(
                decode_block_fp(&reseal(beyond)),
                Err(FrameError::WordTooWide { index: 0 }),
                "man_bits {man_bits}"
            );
        }
    }
}
