//! Floating-point format descriptions and pack/unpack helpers.
//!
//! FPISA is format-agnostic: the paper evaluates IEEE 754 FP32 and FP16 and
//! notes that bfloat16 and block floating point are supported "trivially" by
//! changing field widths (§3.3). [`FpFormat`] captures a format as
//! `(exponent bits, mantissa bits)`; all packing, unpacking and rounding is
//! implemented generically over it using only integer operations.

use serde::{Deserialize, Serialize};

/// Classification of an unpacked floating point value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FpClass {
    /// Positive or negative zero.
    Zero,
    /// A subnormal (denormal) value: stored exponent field is zero but the
    /// fraction is non-zero; there is no implied leading one.
    Subnormal,
    /// An ordinary normalized value with an implied leading one.
    Normal,
    /// Positive or negative infinity.
    Infinity,
    /// Not-a-number.
    Nan,
}

/// A binary floating-point format: 1 sign bit, `exp_bits` exponent bits and
/// `man_bits` explicitly stored mantissa (fraction) bits.
///
/// The constants [`FpFormat::FP64`], [`FpFormat::FP32`], [`FpFormat::FP16`]
/// and [`FpFormat::BF16`] cover the formats discussed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FpFormat {
    /// Number of exponent bits (`n` in the paper).
    pub exp_bits: u32,
    /// Number of explicitly stored mantissa bits (`m` in the paper).
    pub man_bits: u32,
}

/// An unpacked floating-point value: the three fields of the packed
/// representation plus its classification. The mantissa here is the *stored
/// fraction*, i.e. it does **not** include the implied leading one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Unpacked {
    /// Sign bit: `true` means negative.
    pub sign: bool,
    /// Raw (biased) exponent field.
    pub exponent: u32,
    /// Raw fraction field (without the implied one).
    pub fraction: u64,
    /// Classification of the value.
    pub class: FpClass,
}

impl FpFormat {
    /// IEEE 754 binary64 (double precision).
    pub const FP64: FpFormat = FpFormat {
        exp_bits: 11,
        man_bits: 52,
    };
    /// IEEE 754 binary32 (single precision) — the running example of the paper.
    pub const FP32: FpFormat = FpFormat {
        exp_bits: 8,
        man_bits: 23,
    };
    /// IEEE 754 binary16 (half precision), evaluated for ML training in §5.
    pub const FP16: FpFormat = FpFormat {
        exp_bits: 5,
        man_bits: 10,
    };
    /// bfloat16: same exponent range as FP32 with a 7-bit mantissa.
    pub const BF16: FpFormat = FpFormat {
        exp_bits: 8,
        man_bits: 7,
    };

    /// Create an arbitrary format. Panics if the format does not fit in 64
    /// bits or has a degenerate exponent/mantissa width.
    pub fn new(exp_bits: u32, man_bits: u32) -> Self {
        assert!((2..=15).contains(&exp_bits), "exponent width out of range");
        assert!((1..=62).contains(&man_bits), "mantissa width out of range");
        assert!(1 + exp_bits + man_bits <= 64, "format wider than 64 bits");
        FpFormat { exp_bits, man_bits }
    }

    /// Total number of bits in the packed representation.
    #[inline]
    pub fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Exponent bias (e.g. 127 for FP32, 15 for FP16).
    #[inline]
    pub fn bias(&self) -> i32 {
        (1i32 << (self.exp_bits - 1)) - 1
    }

    /// Maximum value of the raw exponent field (all ones = Inf/NaN).
    #[inline]
    pub fn max_exp_field(&self) -> u32 {
        (1u32 << self.exp_bits) - 1
    }

    /// Mask covering the fraction field.
    #[inline]
    pub fn fraction_mask(&self) -> u64 {
        (1u64 << self.man_bits) - 1
    }

    /// The implied-one bit position / value, i.e. `2^man_bits`.
    #[inline]
    pub fn implied_one(&self) -> u64 {
        1u64 << self.man_bits
    }

    /// Number of bits of the significand including the implied one.
    #[inline]
    pub fn sig_bits(&self) -> u32 {
        self.man_bits + 1
    }

    /// Mask covering the whole packed value.
    #[inline]
    pub fn value_mask(&self) -> u64 {
        if self.total_bits() == 64 {
            u64::MAX
        } else {
            (1u64 << self.total_bits()) - 1
        }
    }

    /// Bit pattern of positive infinity in this format.
    #[inline]
    pub fn infinity_bits(&self, sign: bool) -> u64 {
        let body = (self.max_exp_field() as u64) << self.man_bits;
        if sign {
            body | (1u64 << (self.total_bits() - 1))
        } else {
            body
        }
    }

    /// Bit pattern of the canonical quiet NaN in this format.
    #[inline]
    pub fn nan_bits(&self) -> u64 {
        self.infinity_bits(false) | (1u64 << (self.man_bits - 1))
    }

    /// Largest finite value representable in this format.
    pub fn max_finite(&self) -> f64 {
        let bits = ((self.max_exp_field() as u64 - 1) << self.man_bits) | self.fraction_mask();
        self.decode(bits)
    }

    /// Smallest positive normal value representable in this format.
    pub fn min_positive_normal(&self) -> f64 {
        self.decode(1u64 << self.man_bits)
    }

    // ------------------------------------------------------------------
    // Unpack / pack
    // ------------------------------------------------------------------

    /// Whether packed bits encode a finite value (not infinity or NaN):
    /// the exponent-field mask-and-compare alone, for hot ingest paths
    /// that screen every wire word and don't need a full
    /// [`FpFormat::unpack`]. Bits above [`FpFormat::total_bits`] are
    /// ignored.
    #[inline]
    pub fn is_finite_bits(&self, bits: u64) -> bool {
        ((bits >> self.man_bits) as u32) & self.max_exp_field() != self.max_exp_field()
    }

    /// Split packed bits into sign, exponent and fraction fields and classify
    /// the value. Bits above [`FpFormat::total_bits`] are ignored.
    pub fn unpack(&self, bits: u64) -> Unpacked {
        let bits = bits & self.value_mask();
        let sign = (bits >> (self.total_bits() - 1)) & 1 == 1;
        let exponent = ((bits >> self.man_bits) as u32) & self.max_exp_field();
        let fraction = bits & self.fraction_mask();
        let class = if exponent == 0 {
            if fraction == 0 {
                FpClass::Zero
            } else {
                FpClass::Subnormal
            }
        } else if exponent == self.max_exp_field() {
            if fraction == 0 {
                FpClass::Infinity
            } else {
                FpClass::Nan
            }
        } else {
            FpClass::Normal
        };
        Unpacked {
            sign,
            exponent,
            fraction,
            class,
        }
    }

    /// Pack sign, exponent and fraction fields into bits. The fields are
    /// masked to their widths; no rounding or normalization is performed.
    pub fn pack(&self, sign: bool, exponent: u32, fraction: u64) -> u64 {
        let s = if sign {
            1u64 << (self.total_bits() - 1)
        } else {
            0
        };
        s | (((exponent & self.max_exp_field()) as u64) << self.man_bits)
            | (fraction & self.fraction_mask())
    }

    // ------------------------------------------------------------------
    // Conversion to/from f64 (used by hosts; the switch never does this)
    // ------------------------------------------------------------------

    /// Whether every normal value of this format is a normal `f64` with
    /// room to spare in the fraction (`exp_bits ≤ 11`, `man_bits < 52`:
    /// FP32, FP16 and BF16, not FP64), so a normal value moves between the
    /// two by rebiasing its exponent.
    #[inline]
    fn rebiases(&self) -> bool {
        self.exp_bits <= 11 && self.man_bits < 52
    }

    /// Decode packed bits of this format into an `f64`. Exact for every
    /// format no wider than FP64.
    ///
    /// A normal input of a format with `exp_bits ≤ 11` and `man_bits < 52`
    /// moves its fields into an `f64`'s, the exponent rebiased; zero,
    /// subnormals, ∞, NaN and other formats take the field-by-field
    /// arithmetic. Both give the same bits.
    pub fn decode(&self, bits: u64) -> f64 {
        let exp = ((bits >> self.man_bits) as u32) & self.max_exp_field();
        if self.rebiases() && exp != 0 && exp != self.max_exp_field() {
            let sign = (bits >> (self.total_bits() - 1)) & 1;
            let exp = (i64::from(exp) - i64::from(self.bias()) + 1023) as u64;
            let frac = (bits & self.fraction_mask()) << (52 - self.man_bits);
            return f64::from_bits(sign << 63 | exp << 52 | frac);
        }
        self.decode_fields(bits)
    }

    /// [`FpFormat::decode`] field by field: every input, every format.
    fn decode_fields(&self, bits: u64) -> f64 {
        let u = self.unpack(bits);
        let sign = if u.sign { -1.0 } else { 1.0 };
        match u.class {
            FpClass::Zero => 0.0 * sign,
            FpClass::Infinity => f64::INFINITY * sign,
            FpClass::Nan => f64::NAN,
            FpClass::Subnormal => {
                let mag = (u.fraction as f64) * pow2(1 - self.bias() - self.man_bits as i32);
                sign * mag
            }
            FpClass::Normal => {
                let sig = (self.implied_one() | u.fraction) as f64;
                sign * sig * pow2(u.exponent as i32 - self.bias() - self.man_bits as i32)
            }
        }
    }

    /// Decode packed bits of this format into an `f32`. Lossless for formats
    /// no wider than FP32; wider formats are rounded by the `as` cast.
    pub fn decode_f32(&self, bits: u64) -> f32 {
        self.decode(bits) as f32
    }

    /// Encode an `f64` into this format using round-to-nearest-even, the
    /// same conversion an end host performs before handing values to the
    /// switch. Overflow saturates to infinity; NaN maps to the canonical NaN.
    ///
    /// In a format with `exp_bits ≤ 11` and `man_bits < 52`, an `x` whose
    /// rebiased exponent lands in the format's normal range is encoded from
    /// its bits: `t`, its magnitude with the bias difference subtracted,
    /// loses its `d = 52 − man_bits` extra fraction bits to one rounding
    /// add, `(t + 2^(d−1) − 1 + lsb) >> d`. A carry out of the fraction
    /// bumps the exponent, and one into the all-ones exponent is exactly ∞.
    /// Zero, subnormal inputs and results, ∞, NaN and other formats take the
    /// field-by-field arithmetic. Both give the same bits.
    pub fn encode(&self, x: f64) -> u64 {
        let b = x.to_bits();
        let rebias = i64::from(self.bias()) - 1023;
        let exp = ((b >> 52) & 0x7ff) as i64 + rebias;
        if self.rebiases() && (1..i64::from(self.max_exp_field())).contains(&exp) {
            let t = (b & !(1 << 63)) - (rebias.unsigned_abs() << 52);
            let d = 52 - self.man_bits;
            let rounded = (t + (1 << (d - 1)) - 1 + ((t >> d) & 1)) >> d;
            return (b >> 63) << (self.total_bits() - 1) | rounded;
        }
        self.encode_fields(x)
    }

    /// [`FpFormat::encode`] field by field: every input, every format.
    fn encode_fields(&self, x: f64) -> u64 {
        if x.is_nan() {
            return self.nan_bits();
        }
        let sign = x.is_sign_negative();
        let ax = x.abs();
        if ax == 0.0 {
            return self.pack(sign, 0, 0);
        }
        if ax.is_infinite() {
            return self.infinity_bits(sign);
        }
        // Work from the exact binary64 representation.
        let b = ax.to_bits();
        let e64 = ((b >> 52) & 0x7ff) as i32;
        let f64frac = b & ((1u64 << 52) - 1);
        // Unbiased exponent and 53-bit significand (with implied one when normal).
        let (unbiased, sig): (i32, u64) = if e64 == 0 {
            // subnormal double: value = frac * 2^-1074
            let lz = f64frac.leading_zeros() as i32 - 11; // bits above position 52
            (-1022 - lz, f64frac << lz)
        } else {
            (e64 - 1023, (1u64 << 52) | f64frac)
        };
        // sig currently has its leading one at bit 52; value = sig * 2^(unbiased-52).
        // Target: significand with leading one at bit man_bits.
        let target_exp_field = unbiased + self.bias();
        let (drop_bits, exp_field): (i32, i32) = if target_exp_field >= 1 {
            (52 - self.man_bits as i32, target_exp_field)
        } else {
            // Subnormal in the target format: shift extra to the right.
            (52 - self.man_bits as i32 + (1 - target_exp_field), 0)
        };
        if drop_bits >= 64 {
            // Underflows to zero even before rounding.
            return self.pack(sign, 0, 0);
        }
        let mut out_sig = if drop_bits <= 0 {
            sig << (-drop_bits)
        } else {
            // Round to nearest, ties to even.
            let kept = sig >> drop_bits;
            let rem = sig & ((1u64 << drop_bits) - 1);
            let half = 1u64 << (drop_bits - 1);
            if rem > half || (rem == half && kept & 1 == 1) {
                kept + 1
            } else {
                kept
            }
        };
        let mut exp_field = exp_field;
        // Rounding may have carried out of the significand.
        if exp_field >= 1 {
            if out_sig >= (1u64 << (self.man_bits + 1)) {
                out_sig >>= 1;
                exp_field += 1;
            }
        } else if out_sig >= (1u64 << self.man_bits) {
            // Subnormal rounded up into the normal range.
            exp_field = 1;
        }
        if exp_field >= self.max_exp_field() as i32 {
            return self.infinity_bits(sign);
        }
        let frac = out_sig & self.fraction_mask();
        self.pack(sign, exp_field.max(0) as u32, frac)
    }

    /// Encode an `f32` into this format (round-to-nearest-even).
    pub fn encode_f32(&self, x: f32) -> u64 {
        self.encode(x as f64)
    }

    /// Round an `f32` to the nearest value representable in this format and
    /// return it as an `f32` again. This is how the host-side "cast to FP16 /
    /// bfloat16" used in mixed-precision training is modelled.
    pub fn quantize_f32(&self, x: f32) -> f32 {
        self.decode_f32(self.encode_f32(x))
    }

    /// Machine epsilon of the format (distance from 1.0 to the next value).
    pub fn epsilon(&self) -> f64 {
        pow2(-(self.man_bits as i32))
    }
}

/// `2^e` as an `f64`, valid for the full double-precision exponent range.
#[inline]
pub fn pow2(e: i32) -> f64 {
    // Avoid powi inaccuracies: construct the bit pattern directly when the
    // exponent is in the normal range, fall back to repeated scaling outside.
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e > 1023 {
        f64::INFINITY
    } else {
        // Subnormal range: 2^-1074 .. 2^-1023.
        let shift = -1022 - e;
        if shift > 52 {
            0.0
        } else {
            f64::from_bits(1u64 << (52 - shift))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_roundtrip_matches_native() {
        let samples = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            3.0,
            0.1,
            1e-30,
            1e30,
            123_456.79,
            -0.000123,
            f32::MAX,
            f32::MIN_POSITIVE,
            core::f32::consts::PI,
            -core::f32::consts::E,
        ];
        for &x in &samples {
            let bits = FpFormat::FP32.encode_f32(x);
            assert_eq!(bits as u32, x.to_bits(), "encode mismatch for {x}");
            let back = FpFormat::FP32.decode_f32(x.to_bits() as u64);
            assert_eq!(back.to_bits(), x.to_bits(), "decode mismatch for {x}");
        }
    }

    #[test]
    fn fp64_roundtrip_matches_native() {
        let samples = [0.0f64, 1.0, -2.5, 1e-300, 1e300, core::f64::consts::PI];
        for &x in &samples {
            assert_eq!(FpFormat::FP64.encode(x), x.to_bits());
            assert_eq!(FpFormat::FP64.decode(x.to_bits()).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn fp32_subnormals_roundtrip() {
        let tiny = f32::from_bits(3); // a subnormal
        assert_eq!(FpFormat::FP32.encode_f32(tiny) as u32, tiny.to_bits());
        assert_eq!(FpFormat::FP32.decode_f32(tiny.to_bits() as u64), tiny);
    }

    #[test]
    fn fp16_constants() {
        let f = FpFormat::FP16;
        assert_eq!(f.bias(), 15);
        assert_eq!(f.total_bits(), 16);
        assert_eq!(f.max_exp_field(), 31);
        // 1.0 in FP16 is 0x3C00.
        assert_eq!(f.encode(1.0), 0x3C00);
        assert_eq!(f.decode(0x3C00), 1.0);
        // 65504 is the max finite FP16 value.
        assert_eq!(f.max_finite(), 65504.0);
        // Values beyond the range saturate to infinity.
        assert_eq!(f.encode(1e6), f.infinity_bits(false));
        assert_eq!(f.encode(-1e6), f.infinity_bits(true));
    }

    #[test]
    fn bf16_truncates_like_fp32_high_bits() {
        let f = FpFormat::BF16;
        // bfloat16 of 1.0 = 0x3F80
        assert_eq!(f.encode(1.0), 0x3F80);
        // quantize keeps sign and approximate magnitude
        let q = f.quantize_f32(core::f32::consts::PI);
        assert!((q - core::f32::consts::PI).abs() < 0.02);
    }

    #[test]
    fn fp16_rounding_nearest_even() {
        let f = FpFormat::FP16;
        // 2049 is exactly between 2048 and 2050 in FP16 (which has 11-bit
        // significands); round-to-nearest-even picks 2048.
        assert_eq!(f.decode(f.encode(2049.0)), 2048.0);
        // 2051 is between 2050 and 2052; ties go to even (2052)? 2051 is not a
        // tie (2050 and 2052 representable, 2051 exactly between -> even = 2052).
        assert_eq!(f.decode(f.encode(2051.0)), 2052.0);
    }

    #[test]
    fn classification() {
        let f = FpFormat::FP32;
        assert_eq!(f.unpack(0).class, FpClass::Zero);
        assert_eq!(f.unpack(0x8000_0000).class, FpClass::Zero);
        assert_eq!(f.unpack(1).class, FpClass::Subnormal);
        assert_eq!(f.unpack(0x3F80_0000).class, FpClass::Normal);
        assert_eq!(f.unpack(0x7F80_0000).class, FpClass::Infinity);
        assert_eq!(f.unpack(0x7FC0_0000).class, FpClass::Nan);
    }

    #[test]
    fn is_finite_bits_agrees_with_unpack() {
        for f in [FpFormat::FP32, FpFormat::FP16, FpFormat::BF16] {
            for bits in [
                0u64,
                1,
                f.value_mask(),
                f.infinity_bits(false),
                f.infinity_bits(true),
                f.nan_bits(),
                f.encode(1.5),
                f.encode(-2.0e4),
                1u64 << f.man_bits,
            ] {
                let finite = !matches!(f.unpack(bits).class, FpClass::Infinity | FpClass::Nan);
                assert_eq!(f.is_finite_bits(bits), finite, "{f:?} bits {bits:#x}");
            }
        }
    }

    #[test]
    fn nan_and_inf_encode() {
        let f = FpFormat::FP16;
        assert_eq!(f.encode(f64::NAN), f.nan_bits());
        assert_eq!(f.encode(f64::INFINITY), f.infinity_bits(false));
        assert_eq!(f.encode(f64::NEG_INFINITY), f.infinity_bits(true));
    }

    #[test]
    fn pow2_spans_range() {
        assert_eq!(pow2(0), 1.0);
        assert_eq!(pow2(10), 1024.0);
        assert_eq!(pow2(-10), 1.0 / 1024.0);
        assert_eq!(pow2(1024), f64::INFINITY);
        assert_eq!(pow2(-1074), f64::from_bits(1));
        assert!(pow2(-1075) == 0.0);
    }

    #[test]
    fn subnormal_encode_to_fp16() {
        let f = FpFormat::FP16;
        // Smallest positive FP16 subnormal is 2^-24.
        let tiny = pow2(-24);
        assert_eq!(f.encode(tiny), 1);
        // Half of it rounds to zero (ties-to-even with even=0).
        assert_eq!(f.encode(tiny / 2.0), 0);
        // 0.75 of it rounds up to the subnormal.
        assert_eq!(f.encode(tiny * 0.75), 1);
    }

    #[test]
    fn quantize_f32_idempotent() {
        let f = FpFormat::FP16;
        let q = f.quantize_f32(0.3333);
        assert_eq!(f.quantize_f32(q), q);
    }

    // The reference for the codec tests is the field-by-field arithmetic
    // (`decode_fields` / `encode_fields`), which the rebiasing paths of
    // `decode` / `encode` return ahead of.

    /// Encode `x`, demanding the reference's bits and `want`.
    fn encodes_to(f: FpFormat, x: f64, want: u64) {
        let got = f.encode(x);
        assert_eq!(got, f.encode_fields(x), "{f:?}: encode({x:e}) vs reference");
        assert_eq!(got, want, "{f:?}: encode({x:e})");
    }

    /// Every pattern of `patterns`: decodes to the reference's bits; a
    /// finite one round-trips through encode; and against its upper
    /// neighbour (when that is finite too), the midpoint of the two ties to
    /// the even one, while the midpoint's own `f64` neighbours go to the
    /// nearer one — at both signs.
    fn sweep(f: FpFormat, patterns: impl Iterator<Item = u64>) {
        let sign = 1u64 << (f.total_bits() - 1);
        for p in patterns {
            let x = f.decode(p);
            let want = f.decode_fields(p);
            assert_eq!(x.to_bits(), want.to_bits(), "{f:?}: decode({p:#x})");
            if !f.is_finite_bits(p) {
                continue;
            }
            assert_eq!(f.encode(x), p, "{f:?}: {p:#x} round trip");
            let q = p + 1;
            if p & sign != 0 || !f.is_finite_bits(q) {
                continue;
            }
            let mid = (x + f.decode(q)) / 2.0;
            let even = if p & 1 == 0 { p } else { q };
            for (s, m) in [(0, mid), (sign, -mid)] {
                encodes_to(f, m, s | even);
                let (up, down) = if s == 0 { (q, p) } else { (p, q) };
                encodes_to(f, m.next_up(), s | up);
                encodes_to(f, m.next_down(), s | down);
            }
        }
    }

    #[test]
    fn every_fp16_and_bf16_pattern_decodes_rounds_and_round_trips_like_the_reference() {
        for f in [FpFormat::FP16, FpFormat::BF16] {
            sweep(f, 0..1 << 16);
        }
    }

    /// The same sweep over all 2^32 FP32 patterns, split across the host's
    /// cores (about four CPU-minutes in release). Run it with
    /// `cargo test --release -p fpisa-core --lib -- --ignored fp32`.
    #[test]
    #[ignore]
    fn every_fp32_pattern_decodes_rounds_and_round_trips_like_the_reference() {
        let parts = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        std::thread::scope(|s| {
            for k in 0..parts {
                let range = (k << 32) / parts..((k + 1) << 32) / parts;
                s.spawn(move || sweep(FpFormat::FP32, range));
            }
        });
    }

    #[test]
    fn codec_edges_match_the_reference() {
        let neg = |f: FpFormat| f.pack(true, 0, 0);
        for f in [FpFormat::FP16, FpFormat::BF16, FpFormat::FP32] {
            let inf = f.infinity_bits(false);
            let (max, max_bits) = (f.max_finite(), inf - 1);
            let ulp = max - f.decode(max_bits - 1);
            let min_sub = f.decode(1);
            for (x, want) in [
                (0.0, 0),
                (-0.0, neg(f)),
                (f64::INFINITY, inf),
                (f64::NEG_INFINITY, inf | neg(f)),
                (f64::NAN, f.nan_bits()),
                (-max, max_bits | neg(f)),
                // Half an ulp past the largest finite value ties away from
                // its odd fraction, to ∞; anything less stays finite. Half
                // an ulp below it ties to its even neighbour.
                (max + ulp / 2.0, inf),
                ((max + ulp / 2.0).next_down(), max_bits),
                (max - ulp / 2.0, max_bits - 1),
                (min_sub, 1),
                (min_sub / 2.0, 0),
                (-min_sub * 0.75, 1 | neg(f)),
                (f.min_positive_normal().next_down(), f.implied_one()),
            ] {
                encodes_to(f, x, want);
            }
        }
        // FP64 and a format with a wider exponent than an `f64`'s are not
        // rebiased: the general path, against the reference both ways.
        for f in [FpFormat::FP64, FpFormat::new(12, 20)] {
            let mut probes = vec![
                0.0,
                f64::INFINITY,
                f64::NAN,
                f64::MAX,
                f64::MIN_POSITIVE,
                f64::MIN_POSITIVE / 3.0,
                f64::from_bits(1),
            ];
            let mut x = f64::from_bits(1);
            while x < 1.0e300 {
                probes.extend([x, x * 1.000_000_3]);
                x *= 1.37e3;
            }
            for v in probes.into_iter().flat_map(|v| [v, -v]) {
                let bits = f.encode(v);
                assert_eq!(bits, f.encode_fields(v), "{f:?}: encode({v:e})");
                for p in [bits, bits ^ 1, 1, f.implied_one() - 1, f.nan_bits()] {
                    let (got, want) = (f.decode(p), f.decode_fields(p));
                    assert_eq!(got.to_bits(), want.to_bits(), "{f:?}: decode({p:#x})");
                }
            }
        }
    }
}
