//! The FPISA aggregation backend: floating point summed *in the switch*.
//!
//! [`FpisaAggregator`] puts the gradient on the wire in any format a
//! [`PipelineSpec`] supports (FP32, FP16, BF16, custom) and folds it
//! through the compiled Fig. 2 pipeline of `fpisa-pipeline` —
//! [`FpisaPipeline::add_ranges`] on ingest, [`FpisaPipeline::read_range`]
//! on read-out. Unlike the SwitchML baseline there is **no global scaling
//! factor**: every element aggregates at its own binade, which is exactly
//! the Fig. 10 advantage on wide-dynamic-range gradients.
//!
//! Numeric accounting (`AddStats`: rounding, overwrites, left shifts)
//! comes from optional per-slot **shadow accumulators** — control-plane
//! mirrors running [`fpisa_core::FpisaAccumulator`], the reference model
//! the pipeline is differentially tested against bit for bit. The data
//! path is always the switch program; the shadows only attribute error,
//! and can be disabled ([`FpisaAggregator::with_shadow_stats`]) for
//! throughput runs.

use crate::backend::{AggError, AggStats, Aggregator};
use fpisa_core::{AddStats, FpFormat, FpisaAccumulator};
use fpisa_pipeline::{format_name, FpisaPipeline, PipelineSpec, PipelineVariant, SpecError};

/// A switch-side floating-point aggregation backend over one
/// [`FpisaPipeline`].
#[derive(Debug, Clone)]
pub struct FpisaAggregator {
    pipe: FpisaPipeline,
    format: FpFormat,
    /// Host-side clamp bound: the format's largest finite value.
    max_finite: f64,
    /// Per-slot reference mirrors for `AddStats` accounting (`None` when
    /// shadow stats are disabled).
    shadow: Option<Vec<FpisaAccumulator>>,
    /// Stats banked from shadow accumulators cleared by `clear_range`
    /// (a reset accumulator starts its statistics afresh).
    retired: AddStats,
    clipped: u64,
    /// Additions counted directly when shadows are off.
    bare_adds: u64,
}

impl FpisaAggregator {
    /// Build a backend from a pipeline spec (shadow stats on).
    pub fn from_spec(spec: PipelineSpec) -> Result<Self, SpecError> {
        let pipe = FpisaPipeline::from_spec(spec)?;
        let cfg = pipe.core_config();
        let shadow = Some(
            (0..pipe.slots())
                .map(|_| FpisaAccumulator::new(cfg))
                .collect(),
        );
        Ok(FpisaAggregator {
            format: cfg.format,
            max_finite: cfg.format.max_finite(),
            shadow,
            retired: AddStats::default(),
            clipped: 0,
            bare_adds: 0,
            pipe,
        })
    }

    /// FP16 on the wire, FPISA-A on unmodified Tofino with native 16-bit
    /// registers — the paper's deployable ML-format configuration
    /// (§3.3/§5.2.2) and the Fig. 10 FPISA curve.
    pub fn fp16_tofino(slots: usize) -> Result<Self, SpecError> {
        Self::from_spec(
            PipelineSpec::new(PipelineVariant::TofinoA)
                .format(FpFormat::FP16)
                .slots(slots),
        )
    }

    /// [`FpisaAggregator::fp16_tofino`] partitioned into `shards` slot
    /// ranges, with shard boundaries aligned to `chunk` slots so every protocol
    /// chunk's slot range lands on exactly one shard (pass the job's
    /// `elements_per_packet`). The partition is a build-time plan with a
    /// shard-safety proof per shard ([`PipelineSpec::shards`]); packets run
    /// on the one full-space engine, so results are the unsharded ones.
    pub fn fp16_tofino_sharded(
        slots: usize,
        shards: usize,
        chunk: usize,
    ) -> Result<Self, SpecError> {
        Self::from_spec(
            PipelineSpec::new(PipelineVariant::TofinoA)
                .format(FpFormat::FP16)
                .slots(slots)
                .shards(shards)
                .shard_align(chunk),
        )
    }

    /// BF16 on the wire, FPISA-A on unmodified Tofino.
    pub fn bf16_tofino(slots: usize) -> Result<Self, SpecError> {
        Self::from_spec(
            PipelineSpec::new(PipelineVariant::TofinoA)
                .format(FpFormat::BF16)
                .slots(slots),
        )
    }

    /// FP32 on the wire, FPISA-A on unmodified Tofino.
    pub fn fp32_tofino(slots: usize) -> Result<Self, SpecError> {
        Self::from_spec(PipelineSpec::new(PipelineVariant::TofinoA).slots(slots))
    }

    /// FP32 on the wire through full FPISA (RSAW extension): no overwrite
    /// error, only alignment rounding — the paper's "FPISA" curve.
    pub fn fp32_extended(slots: usize) -> Result<Self, SpecError> {
        Self::from_spec(PipelineSpec::new(PipelineVariant::ExtendedFull).slots(slots))
    }

    /// Enable or disable the shadow accounting mirrors. With shadows off,
    /// `stats().add` only counts additions (every event category reads 0)
    /// and ingest does roughly half the work. Re-enabling is only
    /// meaningful on an empty pool: fresh shadows start from empty slots.
    pub fn with_shadow_stats(mut self, on: bool) -> Self {
        if on && self.shadow.is_none() {
            let cfg = self.pipe.core_config();
            self.shadow = Some(
                (0..self.pipe.slots())
                    .map(|_| FpisaAccumulator::new(cfg))
                    .collect(),
            );
        } else if !on {
            if let Some(shadow) = self.shadow.take() {
                for acc in &shadow {
                    self.retired.merge(acc.stats());
                }
            }
        }
        self
    }

    /// The pipeline this backend aggregates through.
    pub fn pipeline(&self) -> &FpisaPipeline {
        &self.pipe
    }

    /// Count of additions recorded when shadows are off.
    fn bare_additions(&self) -> u64 {
        self.bare_adds
    }
}

impl Aggregator for FpisaAggregator {
    fn label(&self) -> String {
        let mut s = format!(
            "FPISA {} ({})",
            format_name(self.format),
            self.pipe.variant().name()
        );
        if self.pipe.shards() > 1 {
            s.push_str(&format!(" ×{}", self.pipe.shards()));
        }
        s
    }

    fn slots(&self) -> usize {
        self.pipe.slots()
    }

    fn word_bytes(&self) -> u8 {
        if self.format.total_bits() <= 16 {
            2
        } else {
            4
        }
    }

    fn encode(&mut self, x: f64) -> u64 {
        // Clamp at the host, as the paper's transports do: an out-of-range
        // value would encode to an infinity bit pattern the switch has no
        // semantics for. NaN is not a clip: `clamp` passes it through.
        if x.abs() > self.max_finite {
            self.clipped += 1;
        }
        self.format
            .encode(x.clamp(-self.max_finite, self.max_finite))
    }

    fn add_wire(&mut self, start: usize, words: &[u64]) -> Result<(), AggError> {
        self.add_wire_multi(&[(start, words)])
    }

    fn add_wire_multi(&mut self, chunks: &[(usize, &[u64])]) -> Result<(), AggError> {
        // Validate every chunk — range and finiteness — before touching
        // any state, so the switch and the shadows never diverge on
        // partial batches and a rejected call folds nothing at all.
        for &(start, words) in chunks {
            self.check_range(start, words.len())?;
            for (i, &w) in words.iter().enumerate() {
                if !self.format.is_finite_bits(w) {
                    return Err(AggError::NonFinite { slot: start + i });
                }
            }
        }
        // One combined batch through the pipeline, the chunks handed over
        // as the ranges they are.
        self.pipe.add_ranges(chunks)?;
        match &mut self.shadow {
            Some(shadow) => {
                for &(start, words) in chunks {
                    for (i, &w) in words.iter().enumerate() {
                        shadow[start + i].add_bits_quiet(w).map_err(|_| {
                            // Unreachable after the finiteness screen above.
                            AggError::NonFinite { slot: start + i }
                        })?;
                    }
                }
            }
            None => {
                self.bare_adds += chunks.iter().map(|(_, w)| w.len() as u64).sum::<u64>();
            }
        }
        Ok(())
    }

    fn read_range(&mut self, start: usize, len: usize) -> Result<Vec<f64>, AggError> {
        self.check_range(start, len)?;
        let bits = self.pipe.read_range(start, len)?;
        if let Some(shadow) = &self.shadow {
            for (slot, &b) in (start..start + len).zip(&bits) {
                debug_assert_eq!(
                    b,
                    shadow[slot].read_bits(),
                    "switch and shadow model diverged on slot {slot}"
                );
            }
        }
        Ok(bits.into_iter().map(|b| self.format.decode(b)).collect())
    }

    fn clear_range(&mut self, start: usize, len: usize) -> Result<(), AggError> {
        self.check_range(start, len)?;
        self.pipe.clear_range(start, len)?;
        if let Some(shadow) = &mut self.shadow {
            for acc in &mut shadow[start..start + len] {
                self.retired.merge(acc.stats());
                acc.reset();
            }
        }
        Ok(())
    }

    fn stats(&self) -> AggStats {
        let mut add = self.retired;
        if let Some(shadow) = &self.shadow {
            for acc in shadow {
                add.merge(acc.stats());
            }
        }
        add.additions += self.bare_additions();
        AggStats {
            add,
            clipped: self.clipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactF64;

    #[test]
    fn fp32_extended_sums_exactly_representable_values() {
        let mut agg = FpisaAggregator::fp32_extended(4).unwrap();
        let words: Vec<u64> = [1.5f64, -0.25, 3.0, 0.125]
            .iter()
            .map(|&x| agg.encode(x))
            .collect();
        agg.add_wire(0, &words).unwrap();
        agg.add_wire(0, &words).unwrap();
        assert_eq!(
            agg.read_range(0, 4).unwrap(),
            vec![3.0, -0.5, 6.0, 0.25],
            "exact sums read back exactly"
        );
        let stats = agg.stats();
        assert_eq!(stats.add.additions, 8);
        assert_eq!(stats.clipped, 0);
    }

    /// The backends the benchmark runs must stay whole on the 32-bit lane
    /// word: a field wider than 32 bits, or a constant that breaks a
    /// narrow-kernel rule, would drop them to 64-bit columns or to
    /// lane-by-lane widening — here that fails a test, not a benchmark.
    #[test]
    fn tofino_backends_run_whole_on_32_bit_lanes() {
        for (name, agg) in [
            ("fp16_tofino", FpisaAggregator::fp16_tofino(8)),
            ("bf16_tofino", FpisaAggregator::bf16_tofino(8)),
            ("fp32_tofino", FpisaAggregator::fp32_tofino(8)),
        ] {
            let program = agg.unwrap().pipeline().switch_program().clone();
            let stats = fpisa_pisa::CompiledSwitch::compile(&program)
                .unwrap()
                .fusion_stats();
            assert_eq!(stats.lane_bits, 32, "{name}");
            assert_eq!(stats.widened_ops, 0, "{name}");
            assert_eq!(stats.narrow_ops, stats.tape_ops, "{name}");
        }
    }

    #[test]
    fn fp16_encode_clips_to_the_finite_range() {
        let mut agg = FpisaAggregator::fp16_tofino(2).unwrap();
        assert_eq!(agg.word_bytes(), 2);
        let w = agg.encode(1e9); // far beyond FP16's 65504
        assert_eq!(w, FpFormat::FP16.encode(65504.0));
        assert_eq!(agg.encode(-1e9), FpFormat::FP16.encode(-65504.0));
        assert_eq!(agg.stats().clipped, 2);
        // NaN is not beyond the finite range, so it is no clip.
        agg.encode(f64::NAN);
        assert_eq!(agg.stats().clipped, 2);
        agg.add_wire(0, &[w]).unwrap();
        assert_eq!(agg.read_range(0, 1).unwrap(), vec![65504.0]);
    }

    #[test]
    fn non_finite_wire_words_are_rejected_before_any_state_change() {
        let mut agg = FpisaAggregator::fp16_tofino(2).unwrap();
        let one = FpFormat::FP16.encode(1.0);
        let inf = FpFormat::FP16.infinity_bits(false);
        assert_eq!(
            agg.add_wire(0, &[one, inf]),
            Err(AggError::NonFinite { slot: 1 })
        );
        assert_eq!(
            agg.read_range(0, 2).unwrap(),
            vec![0.0, 0.0],
            "the in-range word of the rejected batch must not have run"
        );
    }

    #[test]
    fn range_checks_reject_out_of_pool_access() {
        let mut agg = FpisaAggregator::fp32_tofino(4).unwrap();
        assert!(matches!(
            agg.add_wire(3, &[0, 0]),
            Err(AggError::RangeOutOfBounds { .. })
        ));
        assert!(matches!(
            agg.read_range(4, 1),
            Err(AggError::RangeOutOfBounds { .. })
        ));
        assert!(matches!(
            agg.clear_range(0, 5),
            Err(AggError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn clear_range_resets_switch_and_shadow_state() {
        let mut agg = FpisaAggregator::fp32_tofino(2).unwrap();
        let w = agg.encode(2.5);
        agg.add_wire(0, &[w, w]).unwrap();
        agg.clear_range(0, 1).unwrap();
        assert_eq!(agg.read_range(0, 2).unwrap(), vec![0.0, 2.5]);
        // The cleared slot accumulates afresh, in agreement with its shadow.
        let w2 = agg.encode(1.25);
        agg.add_wire(0, &[w2]).unwrap();
        assert_eq!(agg.read_range(0, 1).unwrap(), vec![1.25]);
    }

    #[test]
    fn shadow_stats_attribute_overwrites_on_tofino() {
        let mut agg = FpisaAggregator::fp32_tofino(1).unwrap();
        let small = agg.encode(1.0);
        let big = agg.encode(512.0); // jumps past the 7-bit headroom
        agg.add_wire(0, &[small]).unwrap();
        agg.add_wire(0, &[big]).unwrap();
        assert_eq!(agg.read_range(0, 1).unwrap(), vec![512.0], "overwritten");
        assert_eq!(agg.stats().add.overwrites, 1);

        let mut bare = FpisaAggregator::fp32_tofino(1)
            .unwrap()
            .with_shadow_stats(false);
        bare.add_wire(0, &[small]).unwrap();
        bare.add_wire(0, &[big]).unwrap();
        assert_eq!(bare.read_range(0, 1).unwrap(), vec![512.0]);
        let s = bare.stats();
        assert_eq!(s.add.additions, 2, "additions still counted");
        assert_eq!(s.add.overwrites, 0, "no event attribution without shadows");
    }

    #[test]
    fn agrees_with_exact_reference_on_representable_streams() {
        let mut agg = FpisaAggregator::fp32_extended(8).unwrap();
        let mut exact = ExactF64::new(8);
        for k in 0..16u32 {
            let words_fp: Vec<u64> = (0..8)
                .map(|i| agg.encode(((i + 1) as f64) * 2f64.powi((k % 5) as i32 - 2)))
                .collect();
            let words_ex: Vec<u64> = (0..8)
                .map(|i| exact.encode(((i + 1) as f64) * 2f64.powi((k % 5) as i32 - 2)))
                .collect();
            agg.add_wire(0, &words_fp).unwrap();
            exact.add_wire(0, &words_ex).unwrap();
        }
        assert_eq!(
            agg.read_range(0, 8).unwrap(),
            exact.read_range(0, 8).unwrap()
        );
    }
}
