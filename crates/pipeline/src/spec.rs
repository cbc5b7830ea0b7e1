//! [`PipelineSpec`]: the validated, format-generic description of one
//! FPISA pipeline instantiation.
//!
//! The paper stresses that FPISA is format-agnostic — §3.3 notes that
//! FP16, bfloat16 and block floating point are supported by changing field
//! widths, and Appendix A.1 adds guard bits with round-to-nearest-even
//! read-out. A `PipelineSpec` captures one point of that space:
//!
//! * a [`PipelineVariant`] (the hardware/algorithm combination),
//! * an [`FpFormat`] (FP32, FP16, BF16 or a custom `(e, m)` format),
//! * the mantissa-register width,
//! * the number of guard bits kept below the mantissa,
//! * the read-out [`ReadRounding`],
//! * and the aggregation slot count.
//!
//! It is the single way programs are built: every field width, bias
//! constant, shift-table entry count, headroom threshold and the read-out
//! renormalization path in [`crate::program`] is computed from the spec,
//! and [`crate::FpisaPipeline::from_spec`] instantiates it.
//! [`crate::FpisaPipeline::new`] remains as a thin FP32 convenience.
//!
//! ```
//! use fpisa_core::{FpFormat, ReadRounding};
//! use fpisa_pipeline::{PipelineSpec, PipelineVariant};
//!
//! let spec = PipelineSpec::new(PipelineVariant::TofinoA)
//!     .format(FpFormat::BF16)
//!     .guard_bits(2)
//!     .read_rounding(ReadRounding::NearestEven)
//!     .slots(64);
//! assert!(spec.validate().is_ok());
//! assert_eq!(spec.effective_register_bits(), 16);
//! ```

use crate::program::{build_for_spec, Arrays, Fields, PipelineVariant};
use fpisa_core::{FpFormat, FpisaConfig, ReadRounding};
use fpisa_pisa::{AnalysisLevel, ProgramError, SwitchProgram};
use serde::{Deserialize, Serialize};

/// Largest slot count the 16-bit `slot` PHV field can address.
pub const MAX_SLOTS: usize = 1 << 16;

/// Why a [`PipelineSpec`] cannot be instantiated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpecError {
    /// The slot count is zero or exceeds [`MAX_SLOTS`].
    SlotsOutOfRange {
        /// The requested slot count.
        slots: usize,
    },
    /// The packed format does not fit the 32-bit `value`/`result` fields.
    FormatTooWide {
        /// Packed width of the requested format.
        bits: u32,
    },
    /// The mantissa register exceeds the 32-bit PHV containers the
    /// program's metadata fields are sized for.
    RegisterTooWide {
        /// The requested register width.
        bits: u32,
    },
    /// The mantissa register cannot hold sign + significand + guard bits
    /// + one headroom bit.
    RegisterTooNarrow {
        /// The requested register width.
        register_bits: u32,
        /// The minimum width the format + guard bits need.
        required: u32,
    },
    /// The read-out rounding mode has no pipeline lowering (only
    /// truncation and round-to-nearest-even are emitted).
    UnsupportedRounding(ReadRounding),
    /// The shard count is zero or exceeds the slot count (every shard
    /// must own at least one slot).
    ShardsOutOfRange {
        /// The requested shard count.
        shards: usize,
        /// The slot count being partitioned.
        slots: usize,
    },
    /// The generated program failed switch validation (never produced by
    /// specs that pass [`PipelineSpec::validate`]; surfaced for
    /// completeness by [`crate::FpisaPipeline::from_spec`]).
    Program(ProgramError),
    /// The static analyzer found error-severity diagnostics under
    /// [`fpisa_pisa::AnalysisLevel::Deny`] (never produced by built-in
    /// programs, which all analyze clean; reachable when program
    /// generation regresses).
    Analysis {
        /// How many error diagnostics the report carried.
        errors: usize,
        /// The first error, rendered.
        first: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::SlotsOutOfRange { slots } => {
                write!(f, "slot count {slots} outside 1..={MAX_SLOTS}")
            }
            SpecError::FormatTooWide { bits } => {
                write!(
                    f,
                    "packed format of {bits} bits exceeds the 32-bit value field"
                )
            }
            SpecError::RegisterTooWide { bits } => {
                write!(f, "register width {bits} exceeds the 32-bit PHV containers")
            }
            SpecError::RegisterTooNarrow {
                register_bits,
                required,
            } => write!(
                f,
                "register of {register_bits} bits cannot hold the significand: \
                 at least {required} bits required (sign + significand + guard + headroom)"
            ),
            SpecError::UnsupportedRounding(r) => {
                write!(f, "read-out rounding {r:?} has no pipeline lowering")
            }
            SpecError::ShardsOutOfRange { shards, slots } => {
                write!(f, "shard count {shards} outside 1..={slots} (slot count)")
            }
            SpecError::Program(e) => write!(f, "generated program failed validation: {e}"),
            SpecError::Analysis { errors, first } => write!(
                f,
                "static analysis rejected the generated program ({errors} error(s); \
                 first: {first})"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ProgramError> for SpecError {
    fn from(e: ProgramError) -> Self {
        SpecError::Program(e)
    }
}

/// Which execution engine [`crate::FpisaPipeline::from_spec`] instantiates
/// for the generated program. Both produce bit-for-bit identical packets
/// (enforced by the differential suite); they differ only in speed and
/// introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecEngine {
    /// The interpreting [`fpisa_pisa::Switch`]: the readable reference
    /// engine, the only one that can trace per-table execution.
    Interpreted,
    /// The pre-resolved [`fpisa_pisa::CompiledSwitch`] fast path
    /// (default): hash/dense match dispatch, flat op tapes, zero
    /// per-packet allocation.
    Compiled,
}

/// A validated, builder-style description of one FPISA pipeline: variant,
/// floating-point format, register width, guard bits, read-out rounding,
/// slot count and execution engine. See the [module docs](self) for the
/// paper mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineSpec {
    variant: PipelineVariant,
    format: FpFormat,
    /// `None` means "native width for the format" — see
    /// [`PipelineSpec::effective_register_bits`].
    register_bits: Option<u32>,
    guard_bits: u32,
    read_rounding: ReadRounding,
    slots: usize,
    engine: ExecEngine,
    shards: usize,
    shard_align: usize,
    /// Verify-on-compile level: [`AnalysisLevel::Deny`] by default.
    #[serde(default)]
    analysis: AnalysisLevel,
}

impl PipelineSpec {
    /// A spec with the paper's deployed defaults: FP32 in 32-bit
    /// registers, no guard bits, truncating read-out, 16 slots.
    pub fn new(variant: PipelineVariant) -> Self {
        PipelineSpec {
            variant,
            format: FpFormat::FP32,
            register_bits: None,
            guard_bits: 0,
            read_rounding: ReadRounding::TowardZero,
            slots: 16,
            engine: ExecEngine::Compiled,
            shards: 1,
            shard_align: 1,
            analysis: AnalysisLevel::default(),
        }
    }

    /// Builder: set the floating-point format (§3.3).
    pub fn format(mut self, format: FpFormat) -> Self {
        self.format = format;
        self
    }

    /// Builder: set the mantissa-register width explicitly. Without this,
    /// the width follows the format (16-bit registers for 16-bit formats,
    /// 32-bit otherwise — the register files real switches provide).
    pub fn register_bits(mut self, bits: u32) -> Self {
        self.register_bits = Some(bits);
        self
    }

    /// Builder: set the number of guard bits kept below the mantissa
    /// (Appendix A.1; 0 reproduces the paper's base design).
    pub fn guard_bits(mut self, guard_bits: u32) -> Self {
        self.guard_bits = guard_bits;
        self
    }

    /// Builder: set the read-out rounding. [`ReadRounding::NearestEven`]
    /// emits the Appendix A.1 guard-bit-inspection stage sequence.
    pub fn read_rounding(mut self, rounding: ReadRounding) -> Self {
        self.read_rounding = rounding;
        self
    }

    /// Builder: set the aggregation slot count.
    pub fn slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Builder: pick the execution engine ([`ExecEngine::Compiled`] by
    /// default). [`ExecEngine::Interpreted`] keeps the reference engine,
    /// e.g. as a differential baseline or for traced debugging.
    pub fn engine(mut self, engine: ExecEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Builder: partition the slot space into `shards` contiguous slot
    /// ranges, as a Tofino splits register state across its pipes (1, the
    /// default, is no partition). The partition is a build-time
    /// [`fpisa_pisa::ShardPlan`]: each shard's program is built, analyzed
    /// and proved shard-safe, and every packet still runs on the one
    /// full-space engine, so results are those of an unsharded spec. Any
    /// engine may carry one.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder: force shard boundaries onto multiples of `align` slots
    /// (default 1, i.e. unconstrained). Aggregation protocols pass their
    /// chunk size here so a whole chunk's slot range always lands on one
    /// shard.
    pub fn shard_align(mut self, align: usize) -> Self {
        self.shard_align = align.max(1);
        self
    }

    /// Builder: set the verify-on-compile level. The default,
    /// [`AnalysisLevel::Deny`], runs the static analyzer over every
    /// generated program (and each shard's program, under sharding) and
    /// fails [`crate::FpisaPipeline::from_spec`] with
    /// [`SpecError::Analysis`] on any error-severity finding.
    /// [`AnalysisLevel::Warn`] analyzes without failing;
    /// [`AnalysisLevel::Off`] skips the analyzer (shard-safety proofs
    /// are still attached where they hold).
    pub fn analysis(mut self, level: AnalysisLevel) -> Self {
        self.analysis = level;
        self
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The configured verify-on-compile level.
    pub fn analysis_level(&self) -> AnalysisLevel {
        self.analysis
    }

    /// The hardware/algorithm variant.
    pub fn variant(&self) -> PipelineVariant {
        self.variant
    }

    /// The floating-point format aggregated on the wire.
    pub fn fp_format(&self) -> FpFormat {
        self.format
    }

    /// Guard bits kept below the mantissa.
    pub fn guard_bit_count(&self) -> u32 {
        self.guard_bits
    }

    /// The configured read-out rounding.
    pub fn rounding(&self) -> ReadRounding {
        self.read_rounding
    }

    /// The aggregation slot count.
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// The execution engine the pipeline will run on.
    pub fn execution_engine(&self) -> ExecEngine {
        self.engine
    }

    /// The requested shard count (1 = no partition).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard-boundary alignment in slots.
    pub fn shard_alignment(&self) -> usize {
        self.shard_align
    }

    /// The slot ranges the spec's shards own: a balanced, exact,
    /// `shard_align`-aligned partition of the slot space. May hold fewer
    /// ranges than the requested shard count when the alignment leaves
    /// fewer whole blocks than shards.
    pub fn shard_ranges(&self) -> Vec<fpisa_pisa::SlotRange> {
        fpisa_pisa::partition_slots_aligned(self.slots, self.shards, self.shard_align)
    }

    /// The mantissa-register width this spec resolves to: the explicit
    /// width if one was set, else 16 bits for formats that pack into 16
    /// bits (FP16, BF16) and 32 bits otherwise.
    pub fn effective_register_bits(&self) -> u32 {
        self.register_bits
            .unwrap_or(if self.format.total_bits() <= 16 {
                16
            } else {
                32
            })
    }

    /// A short human-readable label, used by the Table 3 report rows.
    pub fn label(&self) -> String {
        let mut s = format!("{} {}", self.variant.name(), format_name(self.format));
        if self.guard_bits > 0 {
            s.push_str(&format!("+g{}", self.guard_bits));
        }
        if self.read_rounding == ReadRounding::NearestEven {
            s.push_str(" RNE");
        }
        if self.shards > 1 {
            s.push_str(&format!(" ×{}", self.shards));
        }
        s
    }

    // ------------------------------------------------------------------
    // Validation and lowering
    // ------------------------------------------------------------------

    /// Check every constraint the program builder relies on. `Ok` means
    /// [`PipelineSpec::build`] succeeds and the generated program
    /// validates against [`PipelineVariant::caps`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.slots == 0 || self.slots > MAX_SLOTS {
            return Err(SpecError::SlotsOutOfRange { slots: self.slots });
        }
        if self.format.total_bits() > 32 {
            return Err(SpecError::FormatTooWide {
                bits: self.format.total_bits(),
            });
        }
        let reg = self.effective_register_bits();
        if reg > 32 {
            return Err(SpecError::RegisterTooWide { bits: reg });
        }
        // Sign + significand (with the implied one) + guard bits + at
        // least one headroom bit, matching `FpisaConfig::new`'s contract.
        let required = self.format.sig_bits() + 2 + self.guard_bits;
        if reg < required {
            return Err(SpecError::RegisterTooNarrow {
                register_bits: reg,
                required,
            });
        }
        if self.read_rounding == ReadRounding::TowardNegInf {
            return Err(SpecError::UnsupportedRounding(self.read_rounding));
        }
        if self.shards == 0 || self.shards > self.slots {
            return Err(SpecError::ShardsOutOfRange {
                shards: self.shards,
                slots: self.slots,
            });
        }
        Ok(())
    }

    /// The `fpisa-core` configuration this spec reproduces — the reference
    /// model the differential suite compares against.
    pub fn core_config(&self) -> Result<FpisaConfig, SpecError> {
        self.validate()?;
        Ok(FpisaConfig::new(
            self.format,
            self.effective_register_bits(),
            self.variant.mode(),
        )
        .with_guard_bits(self.guard_bits)
        .with_read_rounding(self.read_rounding))
    }

    /// Lower the spec to a switch program. The returned program is
    /// guaranteed to validate against [`PipelineVariant::caps`].
    pub fn build(&self) -> Result<(SwitchProgram, Fields, Arrays), SpecError> {
        let cfg = self.core_config()?;
        Ok(build_for_spec(self, &cfg))
    }
}

/// Display name of a format (the constants get their conventional names,
/// anything else the `(e, m)` shape).
pub fn format_name(format: FpFormat) -> String {
    match format {
        FpFormat::FP64 => "FP64".into(),
        FpFormat::FP32 => "FP32".into(),
        FpFormat::FP16 => "FP16".into(),
        FpFormat::BF16 => "BF16".into(),
        f => format!("FP({},{})", f.exp_bits, f.man_bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_the_paper_configuration() {
        let spec = PipelineSpec::new(PipelineVariant::TofinoA);
        let cfg = spec.core_config().unwrap();
        assert_eq!(cfg, FpisaConfig::fp32_tofino());
        let full = PipelineSpec::new(PipelineVariant::ExtendedFull);
        assert_eq!(full.core_config().unwrap(), FpisaConfig::fp32_extended());
    }

    #[test]
    fn register_width_follows_format_unless_overridden() {
        let s = PipelineSpec::new(PipelineVariant::TofinoA);
        assert_eq!(s.effective_register_bits(), 32);
        assert_eq!(s.format(FpFormat::FP16).effective_register_bits(), 16);
        assert_eq!(s.format(FpFormat::BF16).effective_register_bits(), 16);
        assert_eq!(
            s.format(FpFormat::FP16)
                .register_bits(32)
                .effective_register_bits(),
            32
        );
    }

    #[test]
    fn invalid_specs_are_rejected_with_the_right_error() {
        let s = PipelineSpec::new(PipelineVariant::TofinoA);
        assert!(matches!(
            s.slots(0).validate(),
            Err(SpecError::SlotsOutOfRange { slots: 0 })
        ));
        assert!(matches!(
            s.slots(MAX_SLOTS + 1).validate(),
            Err(SpecError::SlotsOutOfRange { .. })
        ));
        assert!(matches!(
            s.format(FpFormat::FP64).validate(),
            Err(SpecError::FormatTooWide { bits: 64 })
        ));
        assert!(matches!(
            s.register_bits(48).validate(),
            Err(SpecError::RegisterTooWide { bits: 48 })
        ));
        // FP16 significand (11) + 2 + guard 4 = 17 > 16.
        assert!(matches!(
            s.format(FpFormat::FP16).guard_bits(4).validate(),
            Err(SpecError::RegisterTooNarrow {
                register_bits: 16,
                required: 17
            })
        ));
        assert!(matches!(
            s.read_rounding(ReadRounding::TowardNegInf).validate(),
            Err(SpecError::UnsupportedRounding(ReadRounding::TowardNegInf))
        ));
    }

    #[test]
    fn valid_specs_produce_validating_programs() {
        for variant in PipelineVariant::all() {
            for format in [FpFormat::FP32, FpFormat::FP16, FpFormat::BF16] {
                for (guard, rounding) in [
                    (0, ReadRounding::TowardZero),
                    (2, ReadRounding::TowardZero),
                    (2, ReadRounding::NearestEven),
                ] {
                    let spec = PipelineSpec::new(variant)
                        .format(format)
                        .guard_bits(guard)
                        .read_rounding(rounding)
                        .slots(8);
                    let (program, _, _) = spec.build().unwrap_or_else(|e| {
                        panic!("{variant:?}/{format:?}/g{guard}/{rounding:?}: {e}")
                    });
                    program
                        .validate()
                        .unwrap_or_else(|e| panic!("{variant:?}/{format:?}: {e}"));
                }
            }
        }
    }

    #[test]
    fn labels_are_distinct_and_informative() {
        let a = PipelineSpec::new(PipelineVariant::TofinoA).label();
        let b = PipelineSpec::new(PipelineVariant::TofinoA)
            .format(FpFormat::FP16)
            .label();
        let c = PipelineSpec::new(PipelineVariant::TofinoA)
            .format(FpFormat::FP16)
            .guard_bits(2)
            .read_rounding(ReadRounding::NearestEven)
            .label();
        assert!(a.contains("FP32"));
        assert!(b.contains("FP16"));
        assert!(c.contains("+g2") && c.contains("RNE"));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(format_name(FpFormat::new(4, 3)), "FP(4,3)");
    }
}
