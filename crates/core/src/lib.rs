//! # fpisa-core
//!
//! Core numeric library for the FPISA reproduction ("Unlocking the Power of
//! Inline Floating-Point Operations on Programmable Switches", NSDI 2022).
//!
//! FPISA makes floating-point addition and comparison possible on PISA
//! programmable switches — which only have integer ALUs — by
//!
//! * **decomposing** every floating-point value into an *exponent* and a
//!   *signed two's-complement mantissa*, stored in separate register arrays
//!   (see [`value::SwitchValue`]),
//! * **delaying renormalization** so that an accumulator can absorb many
//!   additions before the result is read out and put back into canonical
//!   IEEE form (see [`accumulator::FpisaAccumulator`]), and
//! * exploiting the **extra bits** of the (wider-than-mantissa) switch
//!   register as headroom against overflow and as guard bits for rounding.
//!
//! Two operating modes are provided, mirroring the paper:
//!
//! * [`FpisaMode::Approximate`] (**FPISA-A**, §4.3) runs on today's Tofino:
//!   the *in-metadata* mantissa is always the one shifted. When the incoming
//!   value is larger than the stored value by more than the register
//!   headroom, the accumulator is **overwritten**, introducing a small,
//!   bounded error.
//! * [`FpisaMode::Full`] (§4.2) models the proposed hardware extension with a
//!   read-shift-add-write (RSAW) unit: the *stored* mantissa can be shifted
//!   in the same stage that adds, so no overwrite error ever occurs (only
//!   ordinary rounding).
//!
//! The crate is `no_std`-friendly in spirit (no I/O, no global state) but
//! uses `std` for convenience. All arithmetic is implemented with integer
//! operations only — exactly the operations a PISA switch ALU offers — so the
//! results are bit-reproducible and can be differentially tested against the
//! pipeline-level implementation in `fpisa-pipeline`.
//!
//! ## Quick example
//!
//! ```
//! use fpisa_core::{FpisaAccumulator, FpisaConfig, FpisaMode, FpFormat};
//!
//! let cfg = FpisaConfig::new(FpFormat::FP32, 32, FpisaMode::Approximate);
//! let mut acc = FpisaAccumulator::new(cfg);
//! acc.add_f32(3.0).unwrap();
//! acc.add_f32(1.0).unwrap();
//! assert_eq!(acc.read_f32(), 4.0);
//! ```

// The arithmetic oracle is plain integer code, and like every crate of
// the workspace it forbids `unsafe`.
#![forbid(unsafe_code)]

pub mod accumulator;
pub mod block;
pub mod compare;
pub mod error;
pub mod format;
pub mod plan;
pub mod reference;
pub mod stats;
pub mod value;

pub use accumulator::{FpisaAccumulator, FpisaConfig, FpisaMode, OverflowPolicy, ReadRounding};
pub use block::{BlockFp, BlockFpAccumulator};
pub use compare::{compare_bits, compare_f32_switch, sortable_key, SwitchComparator};
pub use error::{FpisaError, NonFiniteKind};
pub use format::{FpClass, FpFormat, Unpacked};
pub use plan::{plan_add, AddDecision};
pub use reference::{ExactAccumulator, KahanAccumulator, SequentialAccumulator};
pub use stats::{AddEvent, AddStats};
pub use value::SwitchValue;

#[cfg(test)]
mod integration_tests {
    use super::*;

    /// End-to-end sanity check combining the public API surface, mirroring
    /// the worked example of Fig. 4 in the paper (3.0 + 1.0 = 4.0).
    #[test]
    fn fig4_worked_example() {
        let cfg = FpisaConfig::new(FpFormat::FP32, 32, FpisaMode::Approximate);
        let mut acc = FpisaAccumulator::new(cfg);
        acc.add_f32(3.0).unwrap();
        // After the first add the accumulator holds 3.0 exactly.
        assert_eq!(acc.read_f32(), 3.0);
        acc.add_f32(1.0).unwrap();
        // The intermediate representation is denormalized (0b10.0 x 2^1) but
        // reads back as the canonical 4.0.
        assert_eq!(acc.read_f32(), 4.0);
        assert_eq!(acc.stats().additions, 2);
        assert_eq!(acc.stats().overwrites, 0);
    }

    #[test]
    fn full_mode_matches_approx_for_similar_magnitudes() {
        let values = [0.5f32, -0.25, 1.0, 0.125, -0.75, 2.0, 0.875, -1.5];
        let mut a =
            FpisaAccumulator::new(FpisaConfig::new(FpFormat::FP32, 32, FpisaMode::Approximate));
        let mut f = FpisaAccumulator::new(FpisaConfig::new(FpFormat::FP32, 32, FpisaMode::Full));
        for &v in &values {
            a.add_f32(v).unwrap();
            f.add_f32(v).unwrap();
        }
        assert_eq!(a.read_f32(), f.read_f32());
        assert_eq!(a.read_f32(), 2.0);
    }
}
