//! # fpisa-pipeline
//!
//! The FPISA floating-point add/read dataflow of the paper's Fig. 2,
//! compiled onto the PISA switch simulator from `fpisa-pisa` and
//! differentially tested — bit for bit — against the reference model in
//! `fpisa-core`.
//!
//! Construction goes through [`PipelineSpec`], a validated builder that
//! picks the variant, floating-point format, register width, guard bits,
//! read-out rounding and slot count; the program builder computes every
//! field width, bias constant and shift-table entry count from it.
//! [`FpisaPipeline`] wraps a [`fpisa_pisa::Switch`] running that program:
//! per aggregation slot, a biased exponent register entry and a signed
//! mantissa register entry (Fig. 3), updated by ADD packets and
//! renormalized by READ packets using only match tables and integer ALU
//! operations. Three [`program::PipelineVariant`]s cover the paper's
//! hardware spectrum — FPISA-A on unmodified Tofino
//! (shift-by-match-table, overwrite past the headroom), FPISA-A with the
//! proposed 2-operand shift ALU, and full FPISA with the RSAW stateful
//! unit.
//!
//! The [`report`] module produces the Table 3-style resource accounting
//! for each variant — and, via [`report::table3_formats`], for each
//! format, showing how the Tofino shift tables shrink for FP16/BF16 —
//! rendered through the shared `fpisa-hw` report machinery.
//!
//! Packets execute on one of two engines selected by
//! [`PipelineSpec::engine`] — the pre-resolved
//! [`fpisa_pisa::CompiledSwitch`] fast path by default, or the
//! interpreting [`fpisa_pisa::Switch`] reference — with bit-for-bit
//! identical results; [`FpisaPipeline::add_batch`] and
//! [`FpisaPipeline::read_batch`] push whole packet slices through a
//! reusable buffer for million-packet aggregation runs, and
//! [`FpisaPipeline::add_ranges`] / [`FpisaPipeline::read_range`] /
//! [`FpisaPipeline::clear_range`] take contiguous slot ranges as ranges —
//! the shape every packet of the paper's protocol has.
//!
//! On the compiled engine [`FpisaPipeline::add_ranges`] keeps a partly
//! filled batch **open** across calls, so the small chunks the wire carries
//! run as full [`LANE_CHUNK`](fpisa_pisa::LANE_CHUNK)-lane batches. An ADD
//! takes effect no later than the next call that reads, clears or runs
//! packets — every read-out, register value and error is the one running
//! each call at once would give — and a call that fails validation returns
//! before anything is appended. The open batch is not a buffer of its own:
//! it is the live part of the pipeline's one lane buffer, which every batch
//! and range call of the compiled engine fills and leaves empty, so a
//! pipeline never holds more than one `LANE_CHUNK` batch of lanes.
//!
//! [`PipelineSpec::shards`] partitions the slot space the way a Tofino
//! splits register state across its pipes. That is a build-time
//! [`fpisa_pisa::ShardPlan`]: the slot ranges, checked to cover the space
//! exactly once, and a shard-safety proof of every shard's program
//! ([`FpisaPipeline::shard_safety_proven`]). Packets of every slot still
//! run on the one full-space engine, so a sharded spec computes, holds
//! ADDs and faults exactly as an unsharded one does.
//!
//! ## Example
//!
//! ```
//! use fpisa_core::{FpFormat, ReadRounding};
//! use fpisa_pipeline::{FpisaPipeline, PipelineSpec, PipelineVariant};
//!
//! // The FP32 default (Fig. 4's worked example).
//! let mut pipe = FpisaPipeline::new(PipelineVariant::TofinoA, 16).unwrap();
//! pipe.add_f32(0, 3.0).unwrap();
//! pipe.add_f32(0, 1.0).unwrap();
//! assert_eq!(pipe.read_f32(0).unwrap(), 4.0);
//!
//! // BF16 on the wire, guard bits, round-to-nearest-even read-out.
//! let spec = PipelineSpec::new(PipelineVariant::TofinoA)
//!     .format(FpFormat::BF16)
//!     .guard_bits(2)
//!     .read_rounding(ReadRounding::NearestEven)
//!     .slots(16);
//! let mut pipe = FpisaPipeline::from_spec(spec).unwrap();
//! pipe.add_value(0, 3.0).unwrap();
//! pipe.add_value(0, 1.0).unwrap();
//! assert_eq!(pipe.read_f64(0).unwrap(), 4.0);
//! ```
//!
//! ## Scope
//!
//! The program covers the format space of §3.3 and Appendix A.1: any
//! [`fpisa_core::FpFormat`] that packs into 32 bits (FP32, FP16, BF16,
//! custom `(e, m)` shapes) in registers up to 32 bits wide, with optional
//! guard bits and either truncating or round-to-nearest-even read-out
//! (`ReadRounding::TowardNegInf` has no pipeline lowering and is rejected
//! at spec validation). `FpisaPipeline::new` keeps the paper's deployed
//! default — FP32 in 32-bit registers, no guard bits, truncating
//! read-out. Inputs must be finite: a PISA switch has no NaN semantics,
//! and the paper assumes hosts send finite values.

#![forbid(unsafe_code)]

pub mod program;
pub mod report;
pub mod spec;

pub use program::{build_program, Arrays, Fields, PipelineVariant, OP_ADD, OP_READ};
pub use report::{render_stage_breakdown, render_table3, table3, table3_formats, Table3Row};
pub use spec::{format_name, ExecEngine, PipelineSpec, SpecError, MAX_SLOTS};

use fpisa_core::{FpFormat, FpisaConfig};
use fpisa_pisa::{
    prove_shard_safety, verify_program, AnalysisLevel, AnalysisReport, BatchLanes, CompiledSwitch,
    DispatchCounts, FieldId, Phv, ProgramError, ResourceReport, RuntimeError, ShardPlan,
    SlotFields, SlotRange, Switch, SwitchProgram,
};

/// Packets per internal batch chunk of the interpreter: small enough that
/// the whole PHV buffer stays L1-resident (64 packets × ~50 containers ×
/// 8 B ≈ 26 KiB), large enough to amortize the per-call overhead of the
/// batch APIs. The compiled engines cut
/// [`LANE_CHUNK`](fpisa_pisa::LANE_CHUNK)-lane batches.
const BATCH_CHUNK: usize = 64;

/// Run the static analyzer over a generated program per the spec's
/// [`AnalysisLevel`]: `Off` skips it, `Warn` runs it without failing,
/// `Deny` (the default) rejects error-severity findings with
/// [`SpecError::Analysis`].
fn verify_for_spec(spec: &PipelineSpec, program: &SwitchProgram) -> Result<(), SpecError> {
    if spec.analysis_level() == AnalysisLevel::Off {
        return Ok(());
    }
    let report = verify_program(program);
    if spec.analysis_level() == AnalysisLevel::Deny && !report.is_clean() {
        return Err(SpecError::Analysis {
            errors: report.errors().count(),
            first: report
                .errors()
                .next()
                .map(ToString::to_string)
                .unwrap_or_default(),
        });
    }
    Ok(())
}

/// The spec's [`ShardPlan`]: its slot ranges, routed by `slot`. Under
/// sharding each shard's program — the same spec restricted to its range's
/// slot count — is built and analyzed as the spec's level asks, and the
/// plan records the proof when every one proves shard safety
/// ([`prove_shard_safety`]; built-in programs always do). Nothing runs
/// those programs: the pipeline's one engine runs the full-space one.
fn shard_plan(
    spec: &PipelineSpec,
    cfg: &FpisaConfig,
    slot: FieldId,
) -> Result<ShardPlan, SpecError> {
    let ranges = spec.shard_ranges();
    let mut proofs = Vec::with_capacity(ranges.len());
    if ranges.len() > 1 {
        for r in &ranges {
            let shard_spec = spec.slots(r.len).shards(1);
            let (shard_program, _, _) = program::build_for_spec(&shard_spec, cfg);
            verify_for_spec(&shard_spec, &shard_program)?;
            proofs.extend(prove_shard_safety(&shard_program, slot).ok());
        }
    }
    let plan = ShardPlan::new(spec.slot_count(), ranges, slot)
        .expect("a spec's shard ranges partition its slots");
    if proofs.len() < plan.shard_count() {
        return Ok(plan);
    }
    Ok(plan
        .prove(&proofs)
        .expect("proofs were produced for these exact shards"))
}

/// Which engine holds a pipeline's live register state and runs its
/// packets.
// One `Engine` exists per pipeline (never collections of them), so
// boxing the large compiled variant would buy no memory and add a
// pointer chase to every packet.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Engine {
    /// The interpreting reference engine (state lives in the `switch`
    /// field of [`FpisaPipeline`]).
    Interpreted,
    /// The compiled fast path.
    Compiled(CompiledSwitch),
}

/// A running FPISA pipeline: the Fig. 2 program instantiated on the switch
/// simulator for one [`PipelineSpec`].
///
/// Packets run on the spec's [`ExecEngine`] — the pre-resolved
/// [`CompiledSwitch`] by default, the interpreting [`Switch`] when the
/// spec asks for it — with bit-for-bit identical results (the differential
/// suite runs every configuration on both). One PHV is reused across
/// scalar packets, and [`FpisaPipeline::add_batch`] /
/// [`FpisaPipeline::read_batch`] push whole slices of packets through a
/// reusable buffer for bulk aggregation.
#[derive(Debug, Clone)]
pub struct FpisaPipeline {
    /// The interpreter: program holder, and the execution engine when the
    /// spec selects [`ExecEngine::Interpreted`].
    switch: Switch,
    /// The engine holding the live register state: the interpreter
    /// (`switch`) or the compiled engine, over the full slot space either
    /// way.
    engine: Engine,
    /// How [`PipelineSpec::shards`] partitions the slot space: one
    /// full-space range unless the spec asks for more.
    plan: ShardPlan,
    /// Scratch PHV reused by the scalar packet APIs.
    scratch: Phv,
    /// PHV buffer reused by the interpreter's batch APIs, grown on first
    /// use.
    batch_buf: Vec<Phv>,
    /// The one SoA column buffer of the compiled engine's batch and range
    /// APIs: packets are written straight into field columns — no
    /// per-packet PHV construction, no transpose at the boundary. Between
    /// calls its live lanes are the compiled engine's **open ADD batch**:
    /// packets [`FpisaPipeline::add_ranges`] has accepted but not yet run
    /// ([`CompiledSwitch::hold_ranges`]). Every other entry that runs
    /// packets or touches registers runs it first, and every lane loop
    /// leaves the buffer empty, so the open batch is all it ever holds.
    lanes: BatchLanes,
    fields: Fields,
    arrays: Arrays,
    spec: PipelineSpec,
    cfg: FpisaConfig,
}

impl FpisaPipeline {
    /// Build and validate the program for a spec, with zeroed slots. This
    /// is the single constructor every configuration goes through;
    /// [`FpisaPipeline::new`] is a thin FP32 convenience over it.
    pub fn from_spec(spec: PipelineSpec) -> Result<Self, SpecError> {
        // `core_config` validates the spec, so the program can be built
        // directly without a second validation pass.
        let cfg = spec.core_config()?;
        let (program, fields, arrays) = program::build_for_spec(&spec, &cfg);
        // Verify-on-compile: the analyzer sees the program that executes,
        // and `shard_plan` each shard's restricted program.
        verify_for_spec(&spec, &program)?;
        let plan = shard_plan(&spec, &cfg, fields.slot)?;
        let engine = match spec.execution_engine() {
            ExecEngine::Interpreted => Engine::Interpreted,
            ExecEngine::Compiled => Engine::Compiled(CompiledSwitch::compile(&program)?),
        };
        let switch = Switch::new(program)?;
        let scratch = switch.phv();
        Ok(FpisaPipeline {
            switch,
            engine,
            plan,
            scratch,
            batch_buf: Vec::new(),
            lanes: BatchLanes::default(),
            fields,
            arrays,
            spec,
            cfg,
        })
    }

    /// Build the paper's default configuration for a variant — FP32 in
    /// 32-bit registers, no guard bits, truncating read-out. Panics on
    /// slot counts outside the 16-bit slot field (use
    /// [`FpisaPipeline::from_spec`] for fallible construction).
    pub fn new(variant: PipelineVariant, slots: usize) -> Result<Self, ProgramError> {
        Self::from_spec(PipelineSpec::new(variant).slots(slots)).map_err(|e| match e {
            SpecError::Program(p) => p,
            other => panic!("{other}"),
        })
    }

    /// The spec this pipeline was built from.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The variant this pipeline runs.
    pub fn variant(&self) -> PipelineVariant {
        self.spec.variant()
    }

    /// Number of aggregation slots.
    pub fn slots(&self) -> usize {
        self.spec.slot_count()
    }

    /// Number of shards the slot space is partitioned across (1 when the
    /// spec asks for no partition).
    pub fn shards(&self) -> usize {
        self.plan.shard_count()
    }

    /// The slot ranges the shards own — one full-space range on an
    /// unpartitioned pipeline.
    pub fn shard_ranges(&self) -> Vec<SlotRange> {
        self.plan.ranges().to_vec()
    }

    /// The floating-point format on the wire.
    pub fn format(&self) -> FpFormat {
        self.cfg.format
    }

    /// The `fpisa-core` configuration this pipeline reproduces — the
    /// reference model the differential suite instantiates.
    pub fn core_config(&self) -> FpisaConfig {
        self.cfg
    }

    /// The underlying validated switch program.
    pub fn switch_program(&self) -> &SwitchProgram {
        self.switch.program()
    }

    /// The PHV field handles (for custom packet injection in tests).
    pub fn fields(&self) -> &Fields {
        &self.fields
    }

    /// Resource accounting of the running program.
    pub fn resource_report(&self) -> ResourceReport {
        ResourceReport::of(self.switch.program())
    }

    /// Analyze the running program with the default configuration (see
    /// [`fpisa_pisa::verify_program`]) — regardless of the spec's
    /// [`AnalysisLevel`], so a `Warn`/`Off` pipeline can still be
    /// inspected after the fact.
    pub fn analysis_report(&self) -> AnalysisReport {
        verify_program(self.switch.program())
    }

    /// Whether the slot space is partitioned and every shard's program
    /// proved shard safety (see [`fpisa_pisa::prove_shard_safety`]);
    /// `false` for an unpartitioned pipeline.
    pub fn shard_safety_proven(&self) -> bool {
        self.plan.safety_proven()
    }

    /// The runtime error an out-of-range slot produces, mirroring the
    /// switch's own register-range error.
    fn slot_error(&self, slot: usize) -> RuntimeError {
        RuntimeError::IndexOutOfRange {
            detail: format!(
                "slot {slot} out of range for pipeline with {} slots",
                self.slots()
            ),
        }
    }

    /// Check a slot index against the spec.
    fn check_slot(&self, slot: usize) -> Result<(), RuntimeError> {
        if slot >= self.slots() {
            return Err(self.slot_error(slot));
        }
        Ok(())
    }

    /// Check the slot span `start..start + len` against the spec — the one
    /// range check of the range-shaped APIs — and return its end.
    fn check_span(&self, start: usize, len: usize) -> Result<usize, RuntimeError> {
        start
            .checked_add(len)
            .filter(|&e| e <= self.slots())
            .ok_or_else(|| self.slot_error(start.saturating_add(len).saturating_sub(1)))
    }

    /// Process an ADD packet: fold a packed value of the spec's format
    /// into `slot`. Bits above the format's width are ignored, exactly as
    /// [`FpFormat::unpack`] masks them.
    ///
    /// Non-finite inputs are the caller's responsibility (see the crate
    /// docs); the switch will process their bit patterns like any others.
    pub fn add_bits(&mut self, slot: usize, bits: u64) -> Result<(), RuntimeError> {
        self.check_slot(slot)?;
        self.run_open()?;
        self.scratch.clear();
        self.scratch.set(self.fields.op, OP_ADD);
        self.scratch.set(self.fields.slot, slot as u64);
        self.scratch.set(self.fields.value, bits);
        match &mut self.engine {
            Engine::Interpreted => self.switch.run(&mut self.scratch)?,
            Engine::Compiled(c) => c.run(&mut self.scratch)?,
        };
        Ok(())
    }

    /// Process a slice of ADD packets — `(slot, packed bits)` pairs —
    /// through the reusable lane buffer: the bulk-aggregation hot path, with
    /// no per-packet construction work at all.
    ///
    /// Slot indices are validated up front: on an out-of-range slot the
    /// call errors **before any packet runs**. (A mid-batch runtime fault,
    /// impossible for in-range FPISA packets, would leave the prior
    /// packets applied, like the equivalent scalar loop.)
    pub fn add_batch(&mut self, packets: &[(usize, u64)]) -> Result<(), RuntimeError> {
        self.validate_slots(packets.iter().map(|&(s, _)| s))?;
        self.run_pairs(OP_ADD, packets.len(), |i| packets[i], None)
    }

    /// [`FpisaPipeline::add_batch`] for packets that arrive as the wire
    /// carries them: each `(start, words)` chunk folds `words[i]` into slot
    /// `start + i`, chunks in order — the ADD mirror of
    /// [`FpisaPipeline::read_range`]. Same packets, same order and same
    /// result as `add_batch` over the flattened `(slot, bits)` pairs, but
    /// no pair list is built: one range check per chunk, then the compiled
    /// engine's lanes are filled a column at a time
    /// ([`BatchLanes::fill`] / [`BatchLanes::fill_iota`] /
    /// [`BatchLanes::fill_slice`]), and the consecutive slots reach the
    /// stateful tables as runs they serve from one register window each.
    ///
    /// Every chunk is validated up front: on an out-of-range chunk the
    /// call errors **before any packet runs** or is appended to the open
    /// batch. Empty chunks are skipped.
    ///
    /// On the compiled engine the packets join the **open batch**
    /// ([`CompiledSwitch::hold_ranges`]): each batch that reaches
    /// [`LANE_CHUNK`](fpisa_pisa::LANE_CHUNK) lanes runs now, and the
    /// remainder waits for the next call. An ADD takes effect no later than
    /// the next call that reads, clears or runs packets
    /// ([`FpisaPipeline::register_state`] included),
    /// so nothing observable changes but the batch boundaries; a fault of
    /// the open batch is returned by the call that runs it, sharded spec or
    /// not. The interpreter runs every call at once.
    pub fn add_ranges(&mut self, chunks: &[(usize, &[u64])]) -> Result<(), RuntimeError> {
        for &(start, words) in chunks {
            self.check_span(start, words.len())?;
        }
        let ranges = chunks.iter().map(|&(start, w)| (start, w.len(), Some(w)));
        let fields = self.slot_fields();
        match &mut self.engine {
            Engine::Compiled(c) => c.hold_ranges(&mut self.lanes, fields, OP_ADD, ranges),
            Engine::Interpreted => self.run_ranges(OP_ADD, ranges, None),
        }
    }

    /// [`FpisaPipeline::add_batch`] over `f32` values (FP32 specs only,
    /// like [`FpisaPipeline::add_f32`]).
    pub fn add_batch_f32(&mut self, packets: &[(usize, f32)]) -> Result<(), RuntimeError> {
        assert_eq!(
            self.cfg.format,
            FpFormat::FP32,
            "add_batch_f32 on a non-FP32 pipeline"
        );
        self.validate_slots(packets.iter().map(|&(s, _)| s))?;
        let pair = |i: usize| (packets[i].0, u64::from(packets[i].1.to_bits()));
        self.run_pairs(OP_ADD, packets.len(), pair, None)
    }

    /// Process an ADD packet carrying an `f32`. Panics on non-FP32 specs
    /// — silently truncating 32 bits into a narrower value field would
    /// aggregate garbage; use [`FpisaPipeline::add_value`] or
    /// [`FpisaPipeline::add_bits`] there.
    pub fn add_f32(&mut self, slot: usize, x: f32) -> Result<(), RuntimeError> {
        assert_eq!(
            self.cfg.format,
            FpFormat::FP32,
            "add_f32 on a non-FP32 pipeline"
        );
        self.add_bits(slot, x.to_bits() as u64)
    }

    /// Process an ADD packet carrying an `f64`, first encoding it into the
    /// spec's format with round-to-nearest-even (models the host casting
    /// to FP16/BF16 before transmission, §5.2.2).
    ///
    /// The input must stay within the format's finite range: a finite
    /// `f64` beyond [`FpFormat::max_finite`] encodes to an infinity bit
    /// pattern, which the switch folds in like any other bits (see the
    /// crate docs) while the reference model would reject it — clamp at
    /// the host first, as the paper's transports do.
    pub fn add_value(&mut self, slot: usize, x: f64) -> Result<(), RuntimeError> {
        self.add_bits(slot, self.cfg.format.encode(x))
    }

    /// Process a READ packet: renormalize `slot` into packed bits of the
    /// spec's format. Reading does not modify the slot.
    pub fn read_bits(&mut self, slot: usize) -> Result<u64, RuntimeError> {
        self.check_slot(slot)?;
        self.run_open()?;
        self.scratch.clear();
        self.scratch.set(self.fields.op, OP_READ);
        self.scratch.set(self.fields.slot, slot as u64);
        match &mut self.engine {
            Engine::Interpreted => self.switch.run(&mut self.scratch)?,
            Engine::Compiled(c) => c.run(&mut self.scratch)?,
        };
        Ok(self.scratch.get(self.fields.result))
    }

    /// Process a READ packet per requested slot through the reusable lane
    /// buffer, returning the packed read-outs in order. Slot indices are
    /// validated up front, like [`FpisaPipeline::add_batch`]; reading does
    /// not modify any slot.
    pub fn read_batch(&mut self, slots: &[usize]) -> Result<Vec<u64>, RuntimeError> {
        self.validate_slots(slots.iter().copied())?;
        let mut out = Vec::with_capacity(slots.len());
        self.run_pairs(OP_READ, slots.len(), |i| (slots[i], 0), Some(&mut out))?;
        Ok(out)
    }

    /// [`FpisaPipeline::read_batch`] over the contiguous slot range
    /// `start..start + len` — the shape every chunked read-out protocol
    /// uses — without materializing a slot-index list: one range check,
    /// the lanes filled a column at a time like
    /// [`FpisaPipeline::add_ranges`], and the result column drained in one
    /// pass per batch.
    pub fn read_range(&mut self, start: usize, len: usize) -> Result<Vec<u64>, RuntimeError> {
        self.check_span(start, len)?;
        let mut out = Vec::with_capacity(len);
        self.run_ranges(OP_READ, std::iter::once((start, len, None)), Some(&mut out))?;
        Ok(out)
    }

    /// The range-shaped batch loop: one `op` packet per slot of every
    /// `(start, len, words)` range, ranges back to back and in order,
    /// packet `k` of a range carrying `words[k]` as its value (`None`:
    /// READ packets carry none). Ranges are already validated.
    ///
    /// The compiled engine fills lanes straight from the ranges:
    /// [`CompiledSwitch::run_ranges`] cuts
    /// [`LANE_CHUNK`](fpisa_pisa::LANE_CHUNK)-lane batches — the same
    /// batches [`FpisaPipeline::add_batch`] would cut from the flattened
    /// packets. Only the interpreter, the oracle, runs the same packets as
    /// PHVs through [`FpisaPipeline::run_phvs`].
    fn run_ranges<'a>(
        &mut self,
        op: u64,
        ranges: impl Iterator<Item = (usize, usize, Option<&'a [u64]>)> + Clone,
        collect: Option<&mut Vec<u64>>,
    ) -> Result<(), RuntimeError> {
        self.run_open()?;
        let fields = self.slot_fields();
        match &mut self.engine {
            Engine::Compiled(c) => c.run_ranges(&mut self.lanes, fields, op, ranges, collect),
            Engine::Interpreted => {
                let n = ranges.clone().map(|(_, len, _)| len).sum();
                let mut packets = ranges.flat_map(|(start, len, words)| {
                    (0..len).map(move |k| (start + k, words.map_or(0, |w| w[k])))
                });
                let next = |_| packets.next().expect("one packet per counted slot");
                self.run_phvs(op, n, next, collect)
            }
        }
    }

    /// The scattered batch loop: `n` `op` packets, packet `i` carrying the
    /// `(slot, word)` that `pair(i)` returns. Slots are already validated.
    ///
    /// The compiled engine fills lanes straight from the pairs
    /// ([`CompiledSwitch::run_pairs`]) the way [`FpisaPipeline::run_ranges`]
    /// dispatches ranges; only the interpreter runs them as PHVs.
    fn run_pairs(
        &mut self,
        op: u64,
        n: usize,
        pair: impl Fn(usize) -> (usize, u64),
        collect: Option<&mut Vec<u64>>,
    ) -> Result<(), RuntimeError> {
        self.run_open()?;
        let fields = self.slot_fields();
        match &mut self.engine {
            Engine::Compiled(c) => c.run_pairs(&mut self.lanes, fields, op, n, pair, collect),
            Engine::Interpreted => self.run_phvs(op, n, pair, collect),
        }
    }

    /// The interpreter's batch loop: `n` `op` packets streamed through
    /// chunks of the reusable PHV buffer. `fill` yields packet `i`'s
    /// `(slot, value)` and is asked for each `i` once, in order; when
    /// `collect` is given, every processed packet's `result` field is
    /// appended to it.
    fn run_phvs(
        &mut self,
        op: u64,
        n: usize,
        mut fill: impl FnMut(usize) -> (usize, u64),
        mut collect: Option<&mut Vec<u64>>,
    ) -> Result<(), RuntimeError> {
        if self.batch_buf.len() < BATCH_CHUNK {
            self.batch_buf.resize(BATCH_CHUNK, self.switch.phv());
        }
        let f = self.slot_fields();
        for start in (0..n).step_by(BATCH_CHUNK) {
            let len = BATCH_CHUNK.min(n - start);
            for (k, phv) in self.batch_buf[..len].iter_mut().enumerate() {
                phv.clear();
                let (slot, value) = fill(start + k);
                phv.set(f.op, op);
                phv.set(f.slot, slot as u64);
                phv.set(f.value, value);
            }
            self.switch.run_batch(&mut self.batch_buf[..len])?;
            if let Some(out) = collect.as_deref_mut() {
                out.extend(self.batch_buf[..len].iter().map(|p| p.get(f.result)));
            }
        }
        Ok(())
    }

    /// The columns a range-shaped batch writes and reads.
    fn slot_fields(&self) -> SlotFields {
        SlotFields {
            op: self.fields.op,
            slot: self.fields.slot,
            value: self.fields.value,
            result: self.fields.result,
        }
    }

    /// Run the compiled engine's open ADD batch, if it holds packets
    /// ([`CompiledSwitch::run_held`]), so the registers reflect every ADD
    /// accepted so far. A no-op on the interpreter, which holds nothing.
    fn run_open(&mut self) -> Result<(), RuntimeError> {
        match &mut self.engine {
            Engine::Compiled(c) => c.run_held(&mut self.lanes),
            Engine::Interpreted => Ok(()),
        }
    }

    /// Up-front slot validation for the batch APIs: error before any
    /// packet runs.
    fn validate_slots(&self, mut slots: impl Iterator<Item = usize>) -> Result<(), RuntimeError> {
        let n = self.spec.slot_count();
        match slots.find(|&s| s >= n) {
            Some(bad) => Err(self.slot_error(bad)),
            None => Ok(()),
        }
    }

    /// Process a READ packet and decode the result. Panics on non-FP32
    /// specs; use [`FpisaPipeline::read_f64`] or
    /// [`FpisaPipeline::read_bits`] there.
    pub fn read_f32(&mut self, slot: usize) -> Result<f32, RuntimeError> {
        assert_eq!(
            self.cfg.format,
            FpFormat::FP32,
            "read_f32 on a non-FP32 pipeline"
        );
        Ok(f32::from_bits(self.read_bits(slot)? as u32))
    }

    /// Process a READ packet and decode the result to `f64`, whatever the
    /// format.
    pub fn read_f64(&mut self, slot: usize) -> Result<f64, RuntimeError> {
        let bits = self.read_bits(slot)?;
        Ok(self.cfg.format.decode(bits))
    }

    /// Control-plane reset of one slot: zero its exponent and mantissa
    /// register entries, returning it to the empty state, in whichever
    /// engine holds the live state. This is how an aggregation protocol
    /// reuses a slot between rounds without rebuilding the pipeline.
    pub fn clear_slot(&mut self, slot: usize) -> Result<(), RuntimeError> {
        self.check_slot(slot)?;
        self.run_open()?;
        match &mut self.engine {
            Engine::Interpreted => {
                self.switch.set_register(self.arrays.exponent, slot, 0);
                self.switch.set_register(self.arrays.mantissa, slot, 0);
            }
            Engine::Compiled(c) => {
                c.set_register(self.arrays.exponent, slot, 0);
                c.set_register(self.arrays.mantissa, slot, 0);
            }
        }
        Ok(())
    }

    /// Control-plane reset of a contiguous slot range (see
    /// [`FpisaPipeline::clear_slot`]): one range check, then one fill per
    /// register array. On an out-of-range span the call errors before any
    /// slot is cleared.
    pub fn clear_range(&mut self, start: usize, len: usize) -> Result<(), RuntimeError> {
        self.check_span(start, len)?;
        self.run_open()?;
        for array in [self.arrays.exponent, self.arrays.mantissa] {
            match &mut self.engine {
                Engine::Interpreted => self.switch.fill_registers(array, start, len, 0),
                Engine::Compiled(c) => c.fill_registers(array, start, len, 0),
            }
        }
        Ok(())
    }

    /// The compiled engine's [`DispatchCounts`] per table, in execution
    /// order (see [`CompiledSwitch::dispatch_counts`]): which way each batch
    /// it ran went, sharded spec or not. Empty on the interpreter. The open
    /// ADD batch is not run for this: its packets count once a later call
    /// runs them.
    pub fn dispatch_counts(&self) -> &[DispatchCounts] {
        match &self.engine {
            Engine::Compiled(c) => c.dispatch_counts(),
            Engine::Interpreted => &[],
        }
    }

    /// Raw register state of a slot: `(biased exponent, signed mantissa)`.
    /// `(0, 0)` is an empty slot. Control-plane access used by the
    /// differential tests to compare against the reference model. Reads
    /// from whichever engine holds the live state, after running the
    /// compiled engine's open ADD batch: every ADD
    /// [`FpisaPipeline::add_ranges`] accepted is in the state read. That
    /// batch cannot fault — each slot it holds was checked against the
    /// slot count, which is the register arrays' length — so this panics
    /// only on a broken invariant.
    pub fn register_state(&mut self, slot: usize) -> (u32, i64) {
        self.run_open()
            .expect("ADDs to validated slots never fault");
        match &self.engine {
            Engine::Interpreted => (
                self.switch.register(self.arrays.exponent, slot) as u32,
                self.switch.register(self.arrays.mantissa, slot),
            ),
            Engine::Compiled(c) => (
                c.register(self.arrays.exponent, slot) as u32,
                c.register(self.arrays.mantissa, slot),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpisa_core::ReadRounding;

    #[test]
    fn fig4_worked_example_on_every_variant() {
        for v in PipelineVariant::all() {
            let mut pipe = FpisaPipeline::new(v, 4).unwrap();
            pipe.add_f32(0, 3.0).unwrap();
            assert_eq!(pipe.read_f32(0).unwrap(), 3.0, "{v:?}");
            pipe.add_f32(0, 1.0).unwrap();
            // The register is denormalized (0b10.0 x 2^1)...
            let (e, m) = pipe.register_state(0);
            assert_eq!(e, 128, "{v:?}");
            assert_eq!(m, 0b100 << 22, "{v:?}");
            // ...but reads back as the canonical 4.0.
            assert_eq!(pipe.read_f32(0).unwrap(), 4.0, "{v:?}");
        }
    }

    #[test]
    fn empty_and_zero_slots_read_zero() {
        for v in PipelineVariant::all() {
            let mut pipe = FpisaPipeline::new(v, 4).unwrap();
            assert_eq!(pipe.read_bits(1).unwrap(), 0, "{v:?} empty slot");
            pipe.add_f32(2, 0.0).unwrap();
            pipe.add_f32(2, -0.0).unwrap();
            assert_eq!(pipe.read_bits(2).unwrap(), 0, "{v:?} zero inputs skip");
            assert_eq!(pipe.register_state(2), (0, 0));
        }
    }

    #[test]
    fn slots_are_independent() {
        let mut pipe = FpisaPipeline::new(PipelineVariant::TofinoA, 8).unwrap();
        pipe.add_f32(1, 1.5).unwrap();
        pipe.add_f32(5, -2.25).unwrap();
        pipe.add_f32(1, 0.5).unwrap();
        assert_eq!(pipe.read_f32(1).unwrap(), 2.0);
        assert_eq!(pipe.read_f32(5).unwrap(), -2.25);
        assert_eq!(pipe.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn out_of_range_slots_error_instead_of_panicking() {
        // Regression test: `add_bits`/`read_bits` used to `assert!` on a
        // bad slot while every other failure returned `Result`.
        let mut pipe = FpisaPipeline::new(PipelineVariant::TofinoA, 4).unwrap();
        for bad in [4usize, 5, 1 << 16, usize::MAX] {
            assert!(
                matches!(
                    pipe.add_bits(bad, 0x3F80_0000),
                    Err(RuntimeError::IndexOutOfRange { .. })
                ),
                "add to slot {bad} must error"
            );
            assert!(
                matches!(
                    pipe.read_bits(bad),
                    Err(RuntimeError::IndexOutOfRange { .. })
                ),
                "read of slot {bad} must error"
            );
        }
        // The failed packets must not have disturbed any state.
        for slot in 0..4 {
            assert_eq!(pipe.register_state(slot), (0, 0));
        }
        // In-range packets still work afterwards.
        pipe.add_f32(3, 2.5).unwrap();
        assert_eq!(pipe.read_f32(3).unwrap(), 2.5);
    }

    #[test]
    fn overwrite_happens_on_tofino_but_not_full() {
        let mut a = FpisaPipeline::new(PipelineVariant::TofinoA, 1).unwrap();
        a.add_f32(0, 1.0).unwrap();
        a.add_f32(0, 512.0).unwrap();
        assert_eq!(
            a.read_f32(0).unwrap(),
            512.0,
            "FPISA-A overwrites past the headroom"
        );

        let mut fp = FpisaPipeline::new(PipelineVariant::ExtendedFull, 1).unwrap();
        fp.add_f32(0, 1.0).unwrap();
        fp.add_f32(0, 512.0).unwrap();
        assert_eq!(
            fp.read_f32(0).unwrap(),
            513.0,
            "RSAW keeps the stored value"
        );
    }

    #[test]
    fn subnormals_and_cancellation() {
        for v in PipelineVariant::all() {
            let mut pipe = FpisaPipeline::new(v, 2).unwrap();
            let tiny = f32::from_bits(7);
            pipe.add_f32(0, tiny).unwrap();
            pipe.add_f32(0, tiny).unwrap();
            assert_eq!(pipe.read_bits(0).unwrap(), 14, "{v:?} subnormal sum");

            pipe.add_f32(1, 1.0).unwrap();
            pipe.add_f32(1, -(1.0 - 2f32.powi(-20))).unwrap();
            assert_eq!(
                pipe.read_f32(1).unwrap(),
                2f32.powi(-20),
                "{v:?} cancellation"
            );
        }
    }

    #[test]
    fn fp16_and_bf16_pipelines_sum_exactly_representable_values() {
        for format in [FpFormat::FP16, FpFormat::BF16] {
            for v in PipelineVariant::all() {
                let spec = PipelineSpec::new(v).format(format).slots(2);
                let mut pipe = FpisaPipeline::from_spec(spec).unwrap();
                for x in [1.0f64, 0.5, 2.0, -0.25, 3.0] {
                    pipe.add_value(0, x).unwrap();
                }
                assert_eq!(pipe.read_f64(0).unwrap(), 6.25, "{v:?} {format:?}");
            }
        }
    }

    #[test]
    fn nearest_even_readout_rounds_ties_to_even() {
        // Accumulate (2^24 + 3) * 2^-23 into an FP32 slot with guard bits:
        // truncation keeps 2 + 2^-22, nearest-even rounds the half-ulp tie
        // up to 2 + 2^-21 (the `rounding_modes_differ_on_dropped_bits`
        // case of fpisa-core, now through the packet pipeline).
        for v in PipelineVariant::all() {
            for (rounding, expect) in [
                (ReadRounding::TowardZero, 2.0 + 2.0 * f32::EPSILON),
                (ReadRounding::NearestEven, 2.0 + 4.0 * f32::EPSILON),
            ] {
                let spec = PipelineSpec::new(v)
                    .guard_bits(2)
                    .read_rounding(rounding)
                    .slots(1);
                let mut pipe = FpisaPipeline::from_spec(spec).unwrap();
                pipe.add_f32(0, 2.0).unwrap();
                pipe.add_f32(0, 3.0 * 2f32.powi(-23)).unwrap();
                assert_eq!(pipe.read_f32(0).unwrap(), expect, "{v:?} {rounding:?}");
            }
        }
    }

    #[test]
    fn both_engines_agree_scalar_and_batch() {
        for v in PipelineVariant::all() {
            let mut interp = FpisaPipeline::from_spec(
                PipelineSpec::new(v)
                    .slots(8)
                    .engine(ExecEngine::Interpreted),
            )
            .unwrap();
            let mut comp = FpisaPipeline::from_spec(
                PipelineSpec::new(v).slots(8).engine(ExecEngine::Compiled),
            )
            .unwrap();
            let stream: Vec<(usize, f32)> = (0..64)
                .map(|i| ((i * 7) % 8, (i as f32 - 30.5) * 1.25))
                .collect();
            // Scalar on the interpreter, batch on the compiled engine.
            for &(slot, x) in &stream {
                interp.add_f32(slot, x).unwrap();
            }
            comp.add_batch_f32(&stream).unwrap();
            for slot in 0..8 {
                assert_eq!(
                    interp.register_state(slot),
                    comp.register_state(slot),
                    "{v:?} slot {slot}"
                );
            }
            let slots: Vec<usize> = (0..8).collect();
            let batch_reads = comp.read_batch(&slots).unwrap();
            for (slot, &batch_read) in batch_reads.iter().enumerate() {
                let want = interp.read_bits(slot).unwrap();
                assert_eq!(batch_read, want, "{v:?} slot {slot}");
                assert_eq!(comp.read_bits(slot).unwrap(), want, "{v:?} slot {slot}");
            }
        }
    }

    #[test]
    fn add_batch_equals_scalar_adds() {
        let mut scalar = FpisaPipeline::new(PipelineVariant::TofinoA, 16).unwrap();
        let mut batched = FpisaPipeline::new(PipelineVariant::TofinoA, 16).unwrap();
        let packets: Vec<(usize, u64)> = (0..2000u32)
            .map(|i| {
                let x = ((i as f32).sin() * 2f32.powi((i % 40) as i32 - 20)).to_bits();
                ((i as usize * 13) % 16, u64::from(x))
            })
            .collect();
        for &(slot, bits) in &packets {
            scalar.add_bits(slot, bits).unwrap();
        }
        batched.add_batch(&packets).unwrap();
        for slot in 0..16 {
            assert_eq!(
                scalar.register_state(slot),
                batched.register_state(slot),
                "slot {slot}"
            );
        }
        assert_eq!(
            batched.read_batch(&(0..16).collect::<Vec<_>>()).unwrap(),
            (0..16)
                .map(|s| scalar.read_bits(s).unwrap())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_rejects_bad_slots_before_applying_anything() {
        let mut pipe = FpisaPipeline::new(PipelineVariant::TofinoA, 4).unwrap();
        let packets = [
            (0usize, 1.0f32.to_bits() as u64),
            (9, 2.0f32.to_bits() as u64),
        ];
        assert!(matches!(
            pipe.add_batch(&packets),
            Err(RuntimeError::IndexOutOfRange { .. })
        ));
        // Up-front validation: the in-range packet must NOT have run.
        assert_eq!(pipe.register_state(0), (0, 0));
        assert!(matches!(
            pipe.read_batch(&[0, 4]),
            Err(RuntimeError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn clear_slot_resets_state_for_reuse() {
        for engine in [ExecEngine::Compiled, ExecEngine::Interpreted] {
            let spec = PipelineSpec::new(PipelineVariant::TofinoA)
                .slots(4)
                .engine(engine);
            let mut pipe = FpisaPipeline::from_spec(spec).unwrap();
            pipe.add_f32(1, 3.5).unwrap();
            pipe.add_f32(2, -1.0).unwrap();
            pipe.clear_slot(1).unwrap();
            assert_eq!(pipe.register_state(1), (0, 0), "{engine:?}");
            assert_eq!(pipe.read_bits(1).unwrap(), 0, "{engine:?}");
            // Untouched slots keep their state; the cleared slot is reusable.
            assert_eq!(pipe.read_f32(2).unwrap(), -1.0, "{engine:?}");
            pipe.add_f32(1, 2.0).unwrap();
            assert_eq!(pipe.read_f32(1).unwrap(), 2.0, "{engine:?}");
            // Range clear validates before clearing anything.
            pipe.add_f32(0, 1.0).unwrap();
            assert!(matches!(
                pipe.clear_range(2, 3),
                Err(RuntimeError::IndexOutOfRange { .. })
            ));
            assert_eq!(pipe.read_f32(2).unwrap(), -1.0, "{engine:?} untouched");
            pipe.clear_range(0, 4).unwrap();
            for slot in 0..4 {
                assert_eq!(pipe.register_state(slot), (0, 0), "{engine:?}");
            }
            assert!(pipe.clear_slot(4).is_err());
            assert!(pipe.clear_range(usize::MAX, 2).is_err());
        }
    }

    #[test]
    fn sharded_pipeline_matches_single_engine_bit_for_bit() {
        // Mixed scalar adds, batch adds, reads and clears on 1 vs N
        // shards: identical register state and read-outs throughout.
        let stream: Vec<(usize, u64)> = (0..3000u32)
            .map(|i| {
                let x = ((i as f32).cos() * 2f32.powi((i % 44) as i32 - 22)).to_bits();
                ((i as usize * 5) % 13, u64::from(x))
            })
            .collect();
        let mut single =
            FpisaPipeline::from_spec(PipelineSpec::new(PipelineVariant::TofinoA).slots(13))
                .unwrap();
        for shards in [2usize, 4, 13] {
            let spec = PipelineSpec::new(PipelineVariant::TofinoA)
                .slots(13)
                .shards(shards);
            let mut sharded = FpisaPipeline::from_spec(spec).unwrap();
            assert_eq!(sharded.shards(), shards);
            sharded.add_batch(&stream).unwrap();
            if shards == 2 {
                single.add_batch(&stream).unwrap();
            }
            for slot in 0..13 {
                assert_eq!(
                    sharded.register_state(slot),
                    single.register_state(slot),
                    "{shards} shards, slot {slot}"
                );
            }
            let slots: Vec<usize> = (0..13).collect();
            assert_eq!(
                sharded.read_batch(&slots).unwrap(),
                single.read_batch(&slots).unwrap(),
                "{shards} shards"
            );
            // Scalar packets keep working after batches, across shards.
            sharded.add_f32(12, 1.5).unwrap();
            sharded.add_f32(0, -2.0).unwrap();
            let mut scalar_ref = single.clone();
            scalar_ref.add_f32(12, 1.5).unwrap();
            scalar_ref.add_f32(0, -2.0).unwrap();
            for slot in [0usize, 12] {
                assert_eq!(
                    sharded.register_state(slot),
                    scalar_ref.register_state(slot)
                );
            }
            // clear_range spanning shard boundaries clears everywhere.
            sharded.clear_range(0, 13).unwrap();
            for slot in 0..13 {
                assert_eq!(sharded.register_state(slot), (0, 0));
            }
        }
    }

    #[test]
    fn sharded_pipeline_validates_slots_and_specs() {
        let spec = PipelineSpec::new(PipelineVariant::TofinoA)
            .slots(8)
            .shards(4);
        let mut pipe = FpisaPipeline::from_spec(spec).unwrap();
        assert!(matches!(
            pipe.add_bits(8, 0),
            Err(RuntimeError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            pipe.add_batch(&[(0, 0), (99, 0)]),
            Err(RuntimeError::IndexOutOfRange { .. })
        ));
        assert_eq!(pipe.register_state(0), (0, 0), "nothing ran");
        // Out-of-bounds clear_range errors (never truncates) on a sharded
        // spec too, and clears nothing.
        pipe.add_f32(7, 1.0).unwrap();
        assert!(matches!(
            pipe.clear_range(6, 3),
            Err(RuntimeError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            pipe.clear_range(usize::MAX, 2),
            Err(RuntimeError::IndexOutOfRange { .. })
        ));
        assert_ne!(pipe.register_state(7), (0, 0), "in-range slot untouched");
        // Shards must fit the slot space.
        assert!(matches!(
            PipelineSpec::new(PipelineVariant::TofinoA)
                .slots(4)
                .shards(5)
                .validate(),
            Err(SpecError::ShardsOutOfRange {
                shards: 5,
                slots: 4
            })
        ));
        assert!(matches!(
            PipelineSpec::new(PipelineVariant::TofinoA)
                .slots(8)
                .shards(0)
                .validate(),
            Err(SpecError::ShardsOutOfRange { .. })
        ));
        // A partition is a build-time fact: the interpreter carries one too.
        let pipe = FpisaPipeline::from_spec(spec.engine(ExecEngine::Interpreted)).unwrap();
        assert_eq!((pipe.shards(), pipe.shard_safety_proven()), (4, true));
    }

    #[test]
    fn shard_alignment_keeps_chunk_ranges_whole() {
        let spec = PipelineSpec::new(PipelineVariant::TofinoA)
            .slots(100)
            .shards(4)
            .shard_align(16);
        let pipe = FpisaPipeline::from_spec(spec).unwrap();
        for r in &pipe.shard_ranges()[..pipe.shards() - 1] {
            assert_eq!(r.start % 16, 0, "boundary off alignment");
        }
    }

    /// The memory side of one shared lane buffer: after a round shaped like
    /// the repo benchmark's `allreduce_fp16_batch2` — one 8192-word
    /// `add_ranges`, then `read_range(0, 4096)` — and after a scattered
    /// batch as long, the pipeline's one buffer is empty and holds at most
    /// one padded `LANE_CHUNK` batch, on one engine and on shards alike.
    #[test]
    fn one_lane_buffer_holds_at_most_one_batch() {
        use fpisa_pisa::LANE_CHUNK;
        let words: Vec<u64> = (0..8192u64).map(|k| 0x3C00 + k % 700).collect();
        let chunks: Vec<(usize, &[u64])> = (words.chunks(64).enumerate())
            .map(|(i, w)| ((64 * i) % 4096, w))
            .collect();
        let pairs: Vec<(usize, u64)> = (0..8192).map(|k| (k * 13 % 4096, words[k])).collect();
        for shards in [1, 3] {
            let spec = PipelineSpec::new(PipelineVariant::TofinoA)
                .format(FpFormat::FP16)
                .slots(4096)
                .shards(shards);
            let mut pipe = FpisaPipeline::from_spec(spec).unwrap();
            let batch = BatchLanes::new(&pipe.switch_program().layout, LANE_CHUNK);
            pipe.add_ranges(&chunks).unwrap();
            pipe.read_range(0, 4096).unwrap();
            pipe.add_batch(&pairs).unwrap();
            assert!(pipe.lanes.is_empty(), "{shards} shard(s)");
            assert!(
                pipe.lanes.capacity() <= batch.capacity(),
                "{shards} shard(s): {} lanes for a {LANE_CHUNK}-lane batch",
                pipe.lanes.capacity()
            );
        }
    }

    #[test]
    fn reads_do_not_disturb_state() {
        let mut pipe = FpisaPipeline::new(PipelineVariant::ExtendedFull, 1).unwrap();
        pipe.add_f32(0, 0.1).unwrap();
        let before = pipe.register_state(0);
        for _ in 0..5 {
            pipe.read_bits(0).unwrap();
        }
        assert_eq!(pipe.register_state(0), before);
    }
}
