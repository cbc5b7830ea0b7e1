//! The SwitchML-style fixed-point baseline.
//!
//! SwitchML (Sapio et al., NSDI 2021) aggregates gradients with the
//! integer ALUs a stock switch already has: hosts pick one **global
//! scaling factor** for the whole gradient, quantize every element to a
//! scaled integer, and the switch sums plain two's-complement values. The
//! cost is numeric: the scaling factor must accommodate the *largest*
//! element times the worker fan-in, so small elements keep only
//! `qmax / (max·workers)` of their relative precision — the error FPISA's
//! per-element exponents avoid (Fig. 10, §5.2).
//!
//! The switch side here is honest: a one-stage PISA match-action program
//! (dispatch on opcode, saturating `AddSat` stateful update per slot, read
//! via the SALU's old-value output) validated against the stock
//! [`SwitchCaps::tofino`] profile and executed on the compiled engine —
//! the same substrate the FPISA pipeline runs on, with none of its
//! floating-point stages. Packets reach it the way FPISA's do: every
//! payload and read-out is a slot range, filled into the engine's lanes a
//! column at a time by [`CompiledSwitch::run_ranges`] — no PHV is built
//! per packet. [`SwitchMlFixedPoint::with_shards`] partitions the slot
//! space as FPISA's sharded specs do: a build-time [`ShardPlan`] whose
//! every shard program analyzes clean and proves shard safety, while the
//! packets run on the one full-space engine.
//!
//! ADDs are **held** as FPISA's are: each `add_wire` / `add_wire_multi`
//! call appends its words to an open batch
//! ([`CompiledSwitch::hold_ranges`]), which runs once it reaches
//! [`fpisa_pisa::LANE_CHUNK`] lanes, and [`Aggregator::read_range`] and
//! [`Aggregator::clear_range`] run whatever is still open before touching
//! the registers — so a round's 64-word packets run as full batches and
//! every read-out is the one folding at once would give, sharded or not.
//! Quantization clipping is accounted on the host
//! ([`AggStats::clipped`]); register saturation is accounted via a
//! control-plane mirror of the saturated int32 registers, folded one
//! `(start, words)` range at a time in a branch-free pass at the
//! register's own width ([`fpisa_core::AddStats::overflows`]), while the
//! aggregated values themselves always come from the switch registers.

use crate::backend::{AggError, AggStats, Aggregator};
use fpisa_core::AddStats;
use fpisa_pisa::{
    partition_slots_aligned, prove_shard_safety, verify_program, Action, BatchLanes,
    CompiledSwitch, KeyMatch, MatchKind, Operand, PhvLayout, RegArrayId, RegisterArraySpec,
    SaluCond, SaluOutput, SaluUpdate, ShardPlan, ShardSafetyProof, SlotFields, SlotRange, Stage,
    StatefulCall, SwitchCaps, SwitchProgram, Table,
};

/// Packet opcode: fold a quantized value into a slot.
const OP_ADD: u64 = 0;
/// Packet opcode: read a slot's integer sum.
const OP_READ: u64 = 1;
/// Fixed-point word width on the wire and in the registers.
const VALUE_BITS: u32 = 32;

/// Per-worker quantization clamp: the register's positive range divided
/// by the fan-in, so a saturating sum of `workers` maximal contributions
/// cannot overflow.
fn qmax_for(workers: u32) -> i64 {
    ((1i64 << (VALUE_BITS - 1)) - 1) / workers as i64
}

/// A switch-side fixed-point aggregation backend: host-scaled integers
/// summed saturating in a plain PISA register array, its slot space
/// partitioned exactly like the FPISA backend's (1 shard by default; see
/// [`SwitchMlFixedPoint::with_shards`]).
#[derive(Debug, Clone)]
pub struct SwitchMlFixedPoint {
    engine: CompiledSwitch,
    plan: ShardPlan,
    fields: SlotFields,
    array: RegArrayId,
    slots: usize,
    /// The global scaling factor: real value = integer × `scale`.
    scale: f64,
    /// Host-side quantization clamp (± this), sized so a full fan-in of
    /// maximal contributions cannot overflow the accumulator register.
    qmax: i64,
    /// Control-plane mirror of the saturated int32 register values, used
    /// only to attribute register-overflow events (`read_range` checks it
    /// against the switch in debug builds).
    mirror: Vec<i32>,
    stats: AddStats,
    clipped: u64,
    /// Lane buffer of the range-shaped ADD and READ paths. Its live lanes
    /// between calls are the open ADD batch; every other call leaves it
    /// empty.
    lanes: BatchLanes,
}

impl SwitchMlFixedPoint {
    /// Build the backend with an explicit scaling factor and per-value
    /// clamp. `workers` sizes the clamp: each quantized contribution is
    /// clipped to `±(2^31 − 1) / workers` so the saturating register sum
    /// of a full fan-in cannot overflow.
    pub fn new(slots: usize, scale: f64, workers: u32) -> Result<Self, AggError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(AggError::BadSpec {
                detail: format!("scaling factor {scale} must be finite and positive"),
            });
        }
        if workers == 0 {
            return Err(AggError::BadSpec {
                detail: "workers must be non-zero".into(),
            });
        }
        if slots == 0 || slots > (1 << 16) {
            return Err(AggError::BadSpec {
                detail: format!("slot count {slots} outside 1..=65536"),
            });
        }
        let (engine, plan, fields, array) = build_engine(slots, 1, 1)?;
        let qmax = qmax_for(workers);
        Ok(SwitchMlFixedPoint {
            engine,
            plan,
            fields,
            array,
            slots,
            scale,
            qmax,
            mirror: vec![0; slots],
            stats: AddStats::default(),
            clipped: 0,
            lanes: BatchLanes::default(),
        })
    }

    /// Re-partition the backend's slot space into `shards` slot ranges,
    /// with shard boundaries aligned to `chunk` slots (pass the job's
    /// `elements_per_packet` so whole chunks land on one shard), each
    /// shard's program analyzed and proved shard-safe. Register state must
    /// be empty — shard on construction, before any packet. Packets still
    /// run on one full-space engine, so results are the unsharded ones.
    pub fn with_shards(mut self, shards: usize, chunk: usize) -> Result<Self, AggError> {
        self.run_held()?;
        if self.mirror.iter().any(|&m| m != 0) {
            return Err(AggError::BadSpec {
                detail: "with_shards on a backend holding live state".into(),
            });
        }
        if shards == 0 || shards > self.slots {
            return Err(AggError::BadSpec {
                detail: format!("shard count {shards} outside 1..={}", self.slots),
            });
        }
        (self.engine, self.plan, self.fields, self.array) =
            build_engine(self.slots, shards, chunk)?;
        Ok(self)
    }

    /// Number of shards the slot space is partitioned across.
    pub fn shards(&self) -> usize {
        self.plan.shard_count()
    }

    /// Size the scaling factor for a workload, SwitchML-style: the host
    /// control plane learns the largest absolute gradient element and
    /// spreads the clipped integer range over it, so the largest value
    /// quantizes to `qmax` exactly and nothing clips *at that maximum*.
    pub fn for_workload(slots: usize, max_abs: f64, workers: u32) -> Result<Self, AggError> {
        if !(max_abs.is_finite() && max_abs > 0.0) {
            return Err(AggError::BadSpec {
                detail: format!("workload maximum {max_abs} must be finite and positive"),
            });
        }
        if workers == 0 {
            return Err(AggError::BadSpec {
                detail: "workers must be non-zero".into(),
            });
        }
        Self::new(slots, max_abs / qmax_for(workers) as f64, workers)
    }

    /// The global scaling factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The host-side quantization clamp (quantized values are clipped to
    /// `±qmax`).
    pub fn qmax(&self) -> i64 {
        self.qmax
    }

    /// Run the open ADD batch, if one is held, so the registers reflect
    /// every ADD accepted so far.
    fn run_held(&mut self) -> Result<(), AggError> {
        Ok(self.engine.run_held(&mut self.lanes)?)
    }
}

/// Fold one range of ADD words into its slots' `mirror` entries, as the
/// switch's saturating `AddSat` does, and count the range's events in
/// `stats`: a zero word is a zero, a word whose sum saturates is an
/// overflow, any other is exact. One branch-free pass at the register's
/// width; the counters are `u32` because a range spans at most 2^16 slots.
fn account(mirror: &mut [i32], words: &[u64], stats: &mut AddStats) {
    let (mut zeros, mut overflows) = (0u32, 0u32);
    for (m, &w) in mirror.iter_mut().zip(words) {
        // The value field keeps the word's low 32 bits.
        let q = w as u32 as i32;
        let sum = m.wrapping_add(q);
        // Only same-signed operands overflow, and then the sum's sign flips.
        let overflowed = ((*m ^ sum) & (q ^ sum)) < 0;
        // `i32::MAX` for a non-negative `q`, `i32::MIN` for a negative one.
        let saturated = (q >> 31) ^ i32::MAX;
        *m = if overflowed { saturated } else { sum };
        zeros += u32::from(q == 0);
        overflows += u32::from(overflowed);
    }
    let (n, zeros, overflows) = (words.len() as u64, u64::from(zeros), u64::from(overflows));
    stats.additions += n;
    stats.zeros += zeros;
    stats.overflows += overflows;
    stats.exact += n - zeros - overflows;
}

/// Build the full-space engine and its [`ShardPlan`] over `shards` slot
/// ranges routed on the `slot` field. Generated code is not exempt from
/// the deny gate: the full-space program and every shard's program (the
/// same program over the shard's slot count; with one shard they are one)
/// must analyze error-free and prove shard safety. Only the full-space
/// program is compiled.
fn build_engine(
    slots: usize,
    shards: usize,
    chunk_align: usize,
) -> Result<(CompiledSwitch, ShardPlan, SlotFields, RegArrayId), AggError> {
    let ranges = partition_slots_aligned(slots, shards, chunk_align);
    let (program, fields, array) = build_program(slots);
    let mut proofs = vec![analyze(&program, fields)?];
    if ranges.len() > 1 {
        let shard = |r: &SlotRange| analyze(&build_program(r.len).0, fields);
        proofs = ranges.iter().map(shard).collect::<Result<_, _>>()?;
    }
    let plan = ShardPlan::new(slots, ranges, fields.slot)
        .and_then(|plan| plan.prove(&proofs))
        .map_err(AggError::Switch)?;
    let engine = CompiledSwitch::compile(&program).map_err(|e| AggError::BadSpec {
        detail: format!("generated SwitchML program failed validation: {e}"),
    })?;
    Ok((engine, plan, fields, array))
}

/// Analyze one generated program and prove it shard-safe on `fields.slot`.
fn analyze(program: &SwitchProgram, fields: SlotFields) -> Result<ShardSafetyProof, AggError> {
    let report = verify_program(program);
    if let Some(first) = report.errors().next() {
        return Err(AggError::BadSpec {
            detail: format!("generated SwitchML program failed analysis: {first}"),
        });
    }
    prove_shard_safety(program, fields.slot).map_err(|ds| AggError::BadSpec {
        detail: format!(
            "generated SwitchML program failed the shard-safety proof: {}",
            ds.first().map(ToString::to_string).unwrap_or_default()
        ),
    })
}

/// The one-stage integer-sum program: exactly what SwitchML asks of a
/// stock switch.
fn build_program(slots: usize) -> (SwitchProgram, SlotFields, RegArrayId) {
    let mut layout = PhvLayout::new();
    let op = layout.field("op", 1);
    let slot = layout.field("slot", 16);
    let value = layout.field("value", VALUE_BITS);
    let result = layout.field("result", VALUE_BITS);

    let array = RegArrayId(0);
    let sum = RegisterArraySpec {
        name: "int_sum".into(),
        width_bits: VALUE_BITS,
        entries: slots,
        stage: 0,
    };

    let add = Action::nop("add").call(StatefulCall {
        array,
        index: Operand::Field(slot),
        cond: SaluCond::Always,
        on_true: SaluUpdate::AddSat(Operand::Field(value)),
        on_false: SaluUpdate::Keep,
        output: None,
    });
    let read = Action::nop("read").call(StatefulCall {
        array,
        index: Operand::Field(slot),
        cond: SaluCond::Always,
        on_true: SaluUpdate::Keep,
        on_false: SaluUpdate::Keep,
        output: Some((result, SaluOutput::Old)),
    });
    let dispatch = Table::keyed(
        "switchml_dispatch",
        vec![(op, MatchKind::Exact)],
        vec![add, read],
        None,
    )
    .entry(vec![KeyMatch::Exact(OP_ADD)], 0, 0)
    .entry(vec![KeyMatch::Exact(OP_READ)], 0, 1);

    let program = SwitchProgram {
        caps: SwitchCaps::tofino(),
        layout,
        stages: vec![Stage::new().table(dispatch)],
        arrays: vec![sum],
        recirc_field: None,
    };
    let fields = SlotFields {
        op,
        slot,
        value,
        result,
    };
    (program, fields, array)
}

impl Aggregator for SwitchMlFixedPoint {
    fn label(&self) -> String {
        let mut s = String::from("SwitchML fixed point (int32)");
        if self.shards() > 1 {
            s.push_str(&format!(" ×{}", self.shards()));
        }
        s
    }

    fn slots(&self) -> usize {
        self.slots
    }

    fn word_bytes(&self) -> u8 {
        (VALUE_BITS / 8) as u8
    }

    fn encode(&mut self, x: f64) -> u64 {
        let q = (x / self.scale).round();
        // `clamp` passes NaN through (the cast below makes it word 0); only
        // a value beyond `±qmax` is a clip.
        if q.abs() > self.qmax as f64 {
            self.clipped += 1;
        }
        let clamped = q.clamp(-(self.qmax as f64), self.qmax as f64);
        (clamped as i64 as u64) & ((1u64 << VALUE_BITS) - 1)
    }

    fn add_wire(&mut self, start: usize, words: &[u64]) -> Result<(), AggError> {
        self.add_wire_multi(&[(start, words)])
    }

    fn add_wire_multi(&mut self, chunks: &[(usize, &[u64])]) -> Result<(), AggError> {
        // Validate every range before folding anything (all-or-nothing).
        for &(start, words) in chunks {
            self.check_range(start, words.len())?;
        }
        // The chunks go to the engine as the ranges they are: the words
        // fill the value column directly (truncated to the field's 32
        // bits), held in the open batch.
        let ranges = chunks.iter().map(|&(start, w)| (start, w.len(), Some(w)));
        self.engine
            .hold_ranges(&mut self.lanes, self.fields, OP_ADD, ranges)?;
        // Control-plane accounting: did the saturating register sum lose
        // information? (Per-slot order matches the engine's exactly.)
        for &(start, words) in chunks {
            account(
                &mut self.mirror[start..start + words.len()],
                words,
                &mut self.stats,
            );
        }
        Ok(())
    }

    fn read_range(&mut self, start: usize, len: usize) -> Result<Vec<f64>, AggError> {
        self.check_range(start, len)?;
        self.run_held()?;
        // READ packets ride the same range path as ingest, the result
        // column drained in packet order.
        let mut raw = Vec::with_capacity(len);
        let range = std::iter::once((start, len, None));
        self.engine
            .run_ranges(&mut self.lanes, self.fields, OP_READ, range, Some(&mut raw))?;
        let mirror = &self.mirror[start..start + len];
        let out = raw.into_iter().zip(mirror).map(|(raw, &m)| {
            // Sign-extend the register value from its width.
            let q = ((raw as i64) << (64 - VALUE_BITS)) >> (64 - VALUE_BITS);
            debug_assert_eq!(q, i64::from(m), "switch and mirror diverged");
            q as f64 * self.scale
        });
        Ok(out.collect())
    }

    fn clear_range(&mut self, start: usize, len: usize) -> Result<(), AggError> {
        self.check_range(start, len)?;
        self.run_held()?;
        self.engine.fill_registers(self.array, start, len, 0);
        self.mirror[start..start + len].fill(0);
        Ok(())
    }

    fn stats(&self) -> AggStats {
        AggStats {
            add: self.stats,
            clipped: self.clipped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpisa_pisa::LANE_CHUNK;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn integer_sum_roundtrips_through_the_switch() {
        let mut agg = SwitchMlFixedPoint::new(4, 0.5, 2).unwrap();
        let words: Vec<u64> = [1.0f64, -2.5, 3.0, 0.0]
            .iter()
            .map(|&x| agg.encode(x))
            .collect();
        agg.add_wire(0, &words).unwrap();
        agg.add_wire(0, &words).unwrap();
        assert_eq!(
            agg.read_range(0, 4).unwrap(),
            vec![2.0, -5.0, 6.0, 0.0],
            "exactly representable at scale 0.5"
        );
        let s = agg.stats();
        assert_eq!(s.add.additions, 8);
        assert_eq!(s.add.zeros, 2);
        assert_eq!(s.clipped, 0);
        agg.clear_range(0, 4).unwrap();
        assert_eq!(agg.read_range(0, 4).unwrap(), vec![0.0; 4]);
    }

    /// SwitchML is int32 end to end: its program must run on the 32-bit
    /// lane word, with nothing widened (see the FPISA backends' twin).
    #[test]
    fn program_runs_whole_on_32_bit_lanes() {
        let stats = CompiledSwitch::compile(&build_program(8).0)
            .unwrap()
            .fusion_stats();
        assert_eq!((stats.lane_bits, stats.widened_ops), (32, 0));
    }

    #[test]
    fn clear_range_resets_a_span_across_shards_and_nothing_else() {
        for shards in [1usize, 3] {
            let mut agg = SwitchMlFixedPoint::new(48, 1.0, 2)
                .unwrap()
                .with_shards(shards, 8)
                .unwrap();
            let words: Vec<u64> = (1..=48).map(|i| agg.encode(i as f64)).collect();
            agg.add_wire(0, &words).unwrap();
            agg.clear_range(10, 0).unwrap();
            agg.clear_range(10, 25).unwrap();
            let want: Vec<f64> = (0..48)
                .map(|s| {
                    if (10..35).contains(&s) {
                        0.0
                    } else {
                        s as f64 + 1.0
                    }
                })
                .collect();
            assert_eq!(agg.read_range(0, 48).unwrap(), want, "{shards} shard(s)");
            assert!(agg.clear_range(40, 9).is_err(), "{shards} shard(s)");
        }
    }

    /// A packet's slots are consecutive, so the program's one stateful
    /// table serves every ADD and READ lane from a register window — here
    /// through the backend's own range path: one chunk per call, and in one
    /// `add_wire_multi` call 48-word chunks in descending slot order, one
    /// more than a [`LANE_CHUNK`] batch holds (cut into a full batch that
    /// runs in the call and a 16-lane one the next read runs first), the
    /// same on a sharded backend, and alike on the other lane word (one
    /// unused 33-bit field). A fill path that stops producing runs fails
    /// this, not a benchmark.
    #[test]
    fn consecutive_slots_are_served_from_register_windows() {
        const N: usize = 48 * (LANE_CHUNK / 48 + 1);
        let mut agg = SwitchMlFixedPoint::new(N, 0.5, 2).unwrap();
        let words: Vec<u64> = (0..64).map(|i| agg.encode(i as f64 - 20.0)).collect();
        let multi: Vec<_> = (0..N / 48)
            .rev()
            .map(|k| (48 * k, 48, Some(&words[..48])))
            .collect();
        // `(opcode, ranges)` per call, the ranges as the engine takes them.
        type Span<'a> = (usize, usize, Option<&'a [u64]>);
        let calls: [(u64, &[Span]); 4] = [
            (OP_ADD, &[(30, 64, Some(&words))]),
            (OP_READ, &[(30, 64, None)]),
            (OP_ADD, &multi),
            (OP_READ, &[(0, N, None)]),
        ];
        let drive = |agg: &mut SwitchMlFixedPoint| -> Vec<Vec<f64>> {
            let mut reads = Vec::new();
            for &(opcode, ranges) in &calls {
                if opcode == OP_ADD {
                    let chunks: Vec<(usize, &[u64])> =
                        ranges.iter().map(|&(s, _, w)| (s, w.unwrap())).collect();
                    agg.add_wire_multi(&chunks).unwrap();
                } else {
                    reads.push(agg.read_range(ranges[0].0, ranges[0].1).unwrap());
                }
            }
            reads
        };
        let reads = drive(&mut agg);
        let own = agg.engine.dispatch_counts().to_vec();
        let lanes = (128 + 2 * N) as u64;
        assert_eq!((own[0].lanes, own[0].windowed), (lanes, lanes));

        // Two shards on 48-slot boundaries run the same batches.
        let mut sharded = SwitchMlFixedPoint::new(N, 0.5, 2)
            .unwrap()
            .with_shards(2, 48)
            .unwrap();
        assert_eq!(drive(&mut sharded), reads);
        assert_eq!(sharded.engine.dispatch_counts(), own);

        let (mut program, fields, _) = build_program(N);
        program.layout.field("lane_word_pad", 33);
        let mut wide = CompiledSwitch::compile(&program).unwrap();
        let mut lanes = BatchLanes::default();
        for &(opcode, ranges) in &calls {
            let ranges = ranges.iter().copied();
            wide.run_ranges(&mut lanes, fields, opcode, ranges, None)
                .unwrap();
        }
        assert_eq!(
            wide.dispatch_counts(),
            own,
            "the lane word changed the dispatch"
        );
        assert_eq!(
            wide.register_state(),
            agg.engine.register_state(),
            "the lane word changed the sums"
        );
    }

    /// ADDs held in the engine's open batch, checked against
    /// host integer sums after every read: held `add_wire` calls of 1, 64
    /// and `LANE_CHUNK + 1` words and `add_wire_multi` calls, a read and a
    /// clear with ADDs to their own slots still open (each must run them
    /// first), a clone taken with a batch open, and a call rejected for an
    /// out-of-range chunk, which appends nothing. A two-shard backend holds
    /// and reads the same throughout.
    #[test]
    fn held_adds_match_host_sums_through_reads_clears_and_clones() {
        const N: usize = LANE_CHUNK + 200;
        let mut agg = SwitchMlFixedPoint::new(N, 1.0, 8).unwrap();
        let mut sharded = agg.clone().with_shards(2, 64).unwrap();
        let mut sums = vec![0i64; N];
        let value = |k: usize| (k % 61) as i64 - 30;
        let words = |agg: &mut SwitchMlFixedPoint, n: usize, salt: usize| -> Vec<u64> {
            (0..n).map(|k| agg.encode(value(k + salt) as f64)).collect()
        };
        let add = |aggs: [&mut SwitchMlFixedPoint; 2], chunks: &[(usize, &[u64])]| {
            for agg in aggs {
                agg.add_wire_multi(chunks).unwrap();
            }
        };
        let fold = |sums: &mut [i64], start: usize, w: &[u64]| {
            for (s, &w) in sums[start..].iter_mut().zip(w) {
                *s += i64::from(w as u32 as i32);
            }
        };
        let host = |sums: &[i64]| -> Vec<f64> { sums.iter().map(|&s| s as f64).collect() };
        for round in 0..3 {
            let (one, short, long) = (
                words(&mut agg, 1, round),
                words(&mut agg, 64, round + 1),
                words(&mut agg, LANE_CHUNK + 1, round + 2),
            );
            add([&mut agg, &mut sharded], &[(5, &short)]);
            add([&mut agg, &mut sharded], &[(0, &one)]);
            fold(&mut sums, 5, &short);
            fold(&mut sums, 0, &one);
            // The clear covers slots the open batch still holds ADDs for.
            assert!(!agg.lanes.is_empty());
            for a in [&mut agg, &mut sharded] {
                a.clear_range(0, 40).unwrap();
            }
            sums[..40].fill(0);
            add([&mut agg, &mut sharded], &[(100, &long)]);
            add([&mut agg, &mut sharded], &[(3, &short), (N - 64, &short)]);
            fold(&mut sums, 100, &long);
            fold(&mut sums, 3, &short);
            fold(&mut sums, N - 64, &short);
            for a in [&agg, &sharded] {
                assert_eq!(a.lanes.len(), 1 + 2 * 64, "round {round}");
            }
            let mut twin = agg.clone();
            assert_eq!(twin.read_range(0, N).unwrap(), host(&sums), "clone");
            assert_eq!(
                agg.lanes.len(),
                1 + 2 * 64,
                "reading the clone ran the original's batch"
            );
            // A rejected call appends nothing to the open batch.
            let bad = [(0, &short[..]), (N - 10, &short[..])];
            assert!(agg.add_wire_multi(&bad).is_err());
            assert_eq!(agg.lanes.len(), 1 + 2 * 64, "round {round}");
            // Reads of slots the open batch holds ADDs for run them first.
            for a in [&mut agg, &mut sharded] {
                assert_eq!(a.read_range(0, 70).unwrap(), host(&sums[..70]));
                assert!(a.lanes.is_empty());
            }
            add([&mut agg, &mut sharded], &[(N - 64, &short)]);
            fold(&mut sums, N - 64, &short);
            for a in [&mut agg, &mut sharded] {
                a.clear_range(N - 30, 30).unwrap();
            }
            sums[N - 30..].fill(0);
            for a in [&mut agg, &mut sharded] {
                assert_eq!(a.read_range(0, N).unwrap(), host(&sums), "round {round}");
            }
        }
        assert_eq!(agg.stats(), sharded.stats());
    }

    #[test]
    fn quantization_clips_at_qmax_and_is_accounted() {
        let mut agg = SwitchMlFixedPoint::new(1, 1.0, 4).unwrap();
        let qmax = agg.qmax();
        // One scale unit beyond the clamp in each direction.
        let hi = agg.encode((qmax + 1) as f64);
        assert_eq!(hi, (qmax as u64) & 0xFFFF_FFFF);
        let lo = agg.encode(-((qmax + 1) as f64));
        assert_eq!(lo, ((-qmax) as u64) & 0xFFFF_FFFF);
        assert_eq!(agg.stats().clipped, 2);
        // Exactly at the clamp: no clip.
        agg.encode(qmax as f64);
        assert_eq!(agg.stats().clipped, 2);
        // NaN is not beyond the clamp, so it is no clip (it casts to 0).
        assert_eq!(agg.encode(f64::NAN), 0);
        assert_eq!(agg.stats().clipped, 2);
    }

    #[test]
    fn clipping_is_reported_exactly_when_the_scale_saturates() {
        // Property test: for random values and scales, `clipped` counts
        // exactly the values whose quantized magnitude exceeds qmax.
        let mut rng = SmallRng::seed_from_u64(0x5CA1E);
        for trial in 0..50 {
            let workers = rng.gen_range(1u32..9);
            let scale = 2f64.powi(rng.gen_range(-12..4));
            let mut agg = SwitchMlFixedPoint::new(1, scale, workers).unwrap();
            let qmax = agg.qmax() as f64;
            let mut expected = 0u64;
            for _ in 0..200 {
                let x = (rng.gen_range(-1.5f32..1.5) as f64) * 2f64.powi(rng.gen_range(0..40));
                if (x / scale).round().abs() > qmax {
                    expected += 1;
                }
                agg.encode(x);
            }
            assert_eq!(
                agg.stats().clipped,
                expected,
                "trial {trial}: workers {workers}, scale {scale}"
            );
        }
    }

    /// The per-word accounting the range pass replaced, kept as its
    /// definition: each word's exact `i64` sum is classified, then clamped
    /// to the register.
    #[derive(Clone)]
    struct Oracle {
        mirror: Vec<i64>,
        stats: AddStats,
        /// Whether a sum has saturated at `i32::MAX` / `i32::MIN`.
        saturated: [bool; 2],
    }

    impl Oracle {
        fn account(&mut self, slot: usize, w: u64) {
            let (reg_min, reg_max) = (i64::from(i32::MIN), i64::from(i32::MAX));
            let q = ((w as i64) << (64 - VALUE_BITS)) >> (64 - VALUE_BITS);
            let exact = self.mirror[slot].saturating_add(q);
            if q == 0 {
                self.stats.record(fpisa_core::AddEvent::Zero);
            } else if !(reg_min..=reg_max).contains(&exact) {
                self.stats.record(fpisa_core::AddEvent::Overflowed);
                self.saturated[usize::from(exact < 0)] = true;
            } else {
                self.stats.record(fpisa_core::AddEvent::Exact);
            }
            self.mirror[slot] = exact.clamp(reg_min, reg_max);
        }

        fn add(&mut self, chunks: &[(usize, &[u64])]) {
            for &(start, words) in chunks {
                for (i, &w) in words.iter().enumerate() {
                    self.account(start + i, w);
                }
            }
        }

        fn sums(&self, start: usize, len: usize) -> Vec<f64> {
            self.mirror[start..start + len]
                .iter()
                .map(|&m| m as f64)
                .collect()
        }
    }

    /// The range pass against the per-word [`Oracle`] on seeded traffic:
    /// `add_wire` and multi-chunk `add_wire_multi` calls (chunks may
    /// overlap) of words that are 0, ±`qmax`, raw `i32::MIN` / `i32::MAX`,
    /// random, or carry garbage in bits 32–63, biased by turns toward one
    /// sign until sums saturate both ways, with `clear_range` and
    /// `read_range` calls between them and a `clone()` that runs on as a
    /// second stream. After every call the stats equal the oracle's and
    /// a clone reads the oracle's saturating sums (reading a clone leaves
    /// the original's open batch open).
    #[test]
    fn range_accounting_matches_the_per_word_definition() {
        const N: usize = 150;
        let mut rng = SmallRng::seed_from_u64(0xACC0);
        for workers in [1u32, 3, 8] {
            let agg = SwitchMlFixedPoint::new(N, 1.0, workers).unwrap();
            let qmax = agg.qmax();
            let oracle = Oracle {
                mirror: vec![0; N],
                stats: AddStats::default(),
                saturated: [false; 2],
            };
            let mut streams = vec![(agg.clone(), oracle.clone()), (agg, oracle)];
            let word = |rng: &mut SmallRng, sign: i64| -> u64 {
                let q = match rng.gen_range(0..10) {
                    0 => 0,
                    1..=3 => sign * qmax,
                    4 => -sign * qmax,
                    5 => i64::from(if sign > 0 { i32::MAX } else { i32::MIN }),
                    6 => i64::from(rng.gen::<u32>() as i32),
                    7 => sign * i64::from(rng.gen_range(0..=qmax as i32)),
                    _ => rng.gen_range(-1000i32..1000).into(),
                };
                let garbage = if rng.gen_bool(0.3) {
                    rng.gen::<u64>() << 32
                } else {
                    0
                };
                (q as u64 & 0xFFFF_FFFF) | garbage
            };
            for step in 0..600 {
                let sign = if step / 60 % 2 == 0 { 1 } else { -1 };
                let s = rng.gen_range(0..2);
                let (agg, oracle) = &mut streams[s];
                let start = rng.gen_range(0..N);
                let len = rng.gen_range(0..=(N - start).min(70));
                match rng.gen_range(0..20) {
                    0..=8 => {
                        let words: Vec<u64> = (0..len).map(|_| word(&mut rng, sign)).collect();
                        agg.add_wire(start, &words).unwrap();
                        oracle.add(&[(start, &words)]);
                    }
                    9..=13 => {
                        let owned: Vec<(usize, Vec<u64>)> = (0..rng.gen_range(1..5))
                            .map(|_| {
                                let start = rng.gen_range(0..N);
                                let len = rng.gen_range(0..=(N - start).min(40));
                                (start, (0..len).map(|_| word(&mut rng, sign)).collect())
                            })
                            .collect();
                        let chunks: Vec<(usize, &[u64])> =
                            owned.iter().map(|(s, w)| (*s, &w[..])).collect();
                        agg.add_wire_multi(&chunks).unwrap();
                        oracle.add(&chunks);
                    }
                    14 | 15 => {
                        agg.clear_range(start, len).unwrap();
                        oracle.mirror[start..start + len].fill(0);
                    }
                    16..=18 => {
                        assert_eq!(
                            agg.read_range(start, len).unwrap(),
                            oracle.sums(start, len),
                            "workers {workers}, step {step}: read_range"
                        );
                    }
                    _ => streams[1 - s] = streams[s].clone(),
                }
                let (agg, oracle) = &streams[s];
                assert_eq!(
                    agg.stats().add,
                    oracle.stats,
                    "workers {workers}, step {step}: stats"
                );
                assert_eq!(
                    agg.clone().read_range(0, N).unwrap(),
                    oracle.sums(0, N),
                    "workers {workers}, step {step}: sums"
                );
            }
            for (_, oracle) in &streams {
                assert_eq!(oracle.saturated, [true; 2], "workers {workers}");
                assert!(oracle.stats.zeros > 0 && oracle.stats.exact > 0);
            }
        }
    }

    #[test]
    fn register_saturation_is_detected_and_accounted() {
        // workers=1 so qmax is the full register range: two maximal adds
        // saturate the 32-bit accumulator.
        let mut agg = SwitchMlFixedPoint::new(1, 1.0, 1).unwrap();
        let w = agg.encode(agg.qmax() as f64);
        agg.add_wire(0, &[w]).unwrap();
        assert_eq!(agg.stats().add.overflows, 0);
        agg.add_wire(0, &[w]).unwrap();
        assert_eq!(agg.stats().add.overflows, 1);
        // The switch saturated rather than wrapping.
        assert_eq!(agg.read_range(0, 1).unwrap(), vec![(i32::MAX as f64)]);
    }

    #[test]
    fn workload_sizing_prevents_overflow_at_full_fan_in() {
        let workers = 8u32;
        let max_abs = 100.0;
        let mut agg = SwitchMlFixedPoint::for_workload(4, max_abs, workers).unwrap();
        let w = agg.encode(max_abs);
        for _ in 0..workers {
            agg.add_wire(2, &[w]).unwrap();
        }
        assert_eq!(agg.stats().add.overflows, 0);
        assert_eq!(agg.stats().clipped, 0, "the maximum itself does not clip");
        let got = agg.read_range(2, 1).unwrap()[0];
        let rel = (got - 800.0).abs() / 800.0;
        assert!(rel < 1e-8, "got {got}");
    }

    #[test]
    fn generated_program_analyzes_clean_and_proves_shard_safety() {
        let (program, fields, _) = build_program(6);
        let report = verify_program(&program);
        assert!(report.is_clean(), "analysis errors:\n{report}");
        let proof = prove_shard_safety(&program, fields.slot).expect("proof must succeed");
        assert_eq!(proof.slot_field(), fields.slot);
        assert_eq!(proof.shard_slots(), 6);
        // And the sharded backend carries the proof end to end.
        let agg = SwitchMlFixedPoint::new(8, 1.0, 2)
            .unwrap()
            .with_shards(2, 1)
            .unwrap();
        assert!(agg.plan.safety_proven());
    }

    #[test]
    fn bad_configurations_are_rejected() {
        assert!(SwitchMlFixedPoint::new(4, 0.0, 2).is_err());
        assert!(SwitchMlFixedPoint::new(4, f64::NAN, 2).is_err());
        assert!(SwitchMlFixedPoint::new(4, 1.0, 0).is_err());
        assert!(SwitchMlFixedPoint::new(0, 1.0, 2).is_err());
        assert!(SwitchMlFixedPoint::for_workload(4, 0.0, 2).is_err());
        let mut ok = SwitchMlFixedPoint::new(2, 1.0, 2).unwrap();
        assert!(matches!(
            ok.add_wire(1, &[0, 0]),
            Err(AggError::RangeOutOfBounds { .. })
        ));
    }
}
