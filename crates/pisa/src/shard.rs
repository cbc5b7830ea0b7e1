//! Shard plans: how a switch's slot space is partitioned across pipes.
//!
//! In every FPISA workload the stateful arrays are indexed by an
//! **aggregation slot** carried in a PHV field, and two packets for
//! different slots never touch the same register entry. A Tofino uses this
//! to split register state across its pipes, each owning a slot range —
//! the paper's observation that line rate comes from partitioning pipeline
//! resources, and SwitchML/ATP-style pool partitioning on the aggregation
//! side. Which pipe owns which slots is a fact about resources, fixed when
//! the program is built, and a [`ShardPlan`] records it:
//!
//! * the slot space `0..total`, split into contiguous [`SlotRange`]s
//!   ([`partition_slots_aligned`]) that cover it **exactly once** (checked
//!   by [`check_partition`]: no gap, no overlap);
//! * the **slot field**, the PHV field carrying the global slot index a
//!   packet is routed by;
//! * whether every shard's program (the same program restricted to its
//!   range's slot count) proved [`crate::analysis::prove_shard_safety`]
//!   on that field and for exactly that range ([`ShardPlan::prove`]): no
//!   stateful index can leave a pipe's slots once the slot is in range.
//!
//! A plan runs nothing. Every packet runs on one full-space engine, and
//! its faults are that engine's. Running the shards pipe by pipe would
//! compute the same thing bit for bit, because routing by slot keeps every
//! slot's packets in order.

use crate::analysis::ShardSafetyProof;
use crate::phv::FieldId;
use crate::register::{check_partition, SlotRange};
use crate::switch::RuntimeError;

/// Split `0..total` into at most `shards` contiguous, non-empty, balanced
/// ranges (fewer when `total < shards`). The result always satisfies
/// [`check_partition`].
pub fn partition_slots(total: usize, shards: usize) -> Vec<SlotRange> {
    partition_slots_aligned(total, shards, 1)
}

/// Like [`partition_slots`], but every range boundary falls on a multiple
/// of `align` (the last range absorbs any remainder). With `align` set to
/// an aggregation protocol's chunk size, whole chunks land on one shard —
/// the chunk→slot-range mapping of `fpisa-agg` never straddles shards.
pub fn partition_slots_aligned(total: usize, shards: usize, align: usize) -> Vec<SlotRange> {
    assert!(total > 0, "cannot partition an empty slot space");
    let align = align.max(1).min(total);
    let blocks = total.div_ceil(align);
    let n = shards.max(1).min(blocks);
    let base = blocks / n;
    let rem = blocks % n;
    let mut out = Vec::with_capacity(n);
    let mut block = 0usize;
    for i in 0..n {
        let nblocks = base + usize::from(i < rem);
        let start = block * align;
        let end = ((block + nblocks) * align).min(total);
        out.push(SlotRange::new(start, end - start));
        block += nblocks;
    }
    out
}

/// The slot ranges a switch's pipes own, the field that routes a packet to
/// one, and whether a shard-safety proof covers every pipe. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    ranges: Box<[SlotRange]>,
    slot_field: FieldId,
    safety_proven: bool,
}

impl ShardPlan {
    /// A plan of `ranges`, routed by `slot_field`, with no proof recorded.
    /// The ranges must partition `0..total` exactly once.
    pub fn new(
        total: usize,
        ranges: Vec<SlotRange>,
        slot_field: FieldId,
    ) -> Result<Self, RuntimeError> {
        check_partition(total, &ranges)?;
        Ok(ShardPlan {
            ranges: ranges.into_boxed_slice(),
            slot_field,
            safety_proven: false,
        })
    }

    /// Record that every shard is proven safe, from one
    /// [`ShardSafetyProof`] per shard in shard order (each from
    /// [`crate::analysis::prove_shard_safety`] on that shard's program).
    /// Each proof must be conditioned on the plan's slot field and cover
    /// exactly its shard's slot count; a mismatched set is rejected.
    pub fn prove(mut self, proofs: &[ShardSafetyProof]) -> Result<Self, RuntimeError> {
        let oob = |detail: String| RuntimeError::IndexOutOfRange { detail };
        if proofs.len() != self.ranges.len() {
            return Err(oob(format!(
                "{} safety proofs for {} shards",
                proofs.len(),
                self.ranges.len()
            )));
        }
        for (i, (proof, range)) in proofs.iter().zip(self.ranges.iter()).enumerate() {
            if proof.slot_field() != self.slot_field {
                return Err(oob(format!(
                    "shard {i} proof is conditioned on field id {}, not the routing \
                     field id {}",
                    proof.slot_field().0,
                    self.slot_field.0
                )));
            }
            if proof.shard_slots() != range.len {
                return Err(oob(format!(
                    "shard {i} proof covers {} slots but the shard owns {}",
                    proof.shard_slots(),
                    range.len
                )));
            }
        }
        self.safety_proven = true;
        Ok(self)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// The slot ranges, in shard order (ascending, contiguous).
    pub fn ranges(&self) -> &[SlotRange] {
        &self.ranges
    }

    /// Whether a shard-safety proof covers every shard.
    pub fn safety_proven(&self) -> bool {
        self.safety_proven
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, AluOp, Operand};
    use crate::analysis::prove_shard_safety;
    use crate::compile::CompiledSwitch;
    use crate::phv::BatchLanes;
    use crate::ranges::SlotFields;
    use crate::register::{
        RegArrayId, RegisterArraySpec, SaluCond, SaluOutput, SaluUpdate, StatefulCall,
    };
    use crate::stage::Stage;
    use crate::switch::{Switch, SwitchCaps, SwitchProgram};
    use crate::table::Table;
    use crate::PhvLayout;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The offset counter's bump opcode: the zero a fresh PHV carries.
    const OP_BUMP: u64 = 0;

    #[test]
    fn partition_is_balanced_and_exact() {
        for (total, shards) in [(16, 4), (17, 4), (1, 8), (64, 1), (7, 7), (100, 3)] {
            let ranges = partition_slots(total, shards);
            check_partition(total, &ranges).unwrap();
            assert!(ranges.len() <= shards && ranges.len() == shards.min(total));
            let max = ranges.iter().map(|r| r.len).max().unwrap();
            let min = ranges.iter().map(|r| r.len).min().unwrap();
            assert!(max - min <= 1, "{total}/{shards}: unbalanced {min}..{max}");
        }
    }

    #[test]
    fn aligned_partition_keeps_chunks_whole() {
        let ranges = partition_slots_aligned(100, 4, 16);
        check_partition(100, &ranges).unwrap();
        for r in &ranges[..ranges.len() - 1] {
            assert_eq!(r.start % 16, 0);
            assert_eq!(r.len % 16, 0);
        }
        // A chunk of 16 starting anywhere on a 16-boundary never straddles.
        for chunk_start in (0..100).step_by(16) {
            let chunk_len = 16.min(100 - chunk_start);
            let owner = ranges.iter().position(|r| r.contains(chunk_start)).unwrap();
            assert!(
                ranges[owner].contains(chunk_start + chunk_len - 1),
                "chunk at {chunk_start} straddles shards"
            );
        }
    }

    #[test]
    fn random_partitions_cover_the_slot_space_exactly_once() {
        // Property test: for random (total, shards, align), every slot is
        // covered by exactly one range.
        let mut rng = SmallRng::seed_from_u64(0x5A4D);
        for _ in 0..200 {
            let total = rng.gen_range(1usize..500);
            let shards = rng.gen_range(1usize..12);
            let align = rng.gen_range(1usize..40);
            let ranges = partition_slots_aligned(total, shards, align);
            check_partition(total, &ranges).unwrap();
            for slot in 0..total {
                let owners = ranges.iter().filter(|r| r.contains(slot)).count();
                assert_eq!(owners, 1, "slot {slot} covered {owners} times");
            }
        }
    }

    #[test]
    fn bad_partitions_are_rejected() {
        // Gap.
        assert!(check_partition(8, &[SlotRange::new(0, 3), SlotRange::new(4, 4)]).is_err());
        // Overlap.
        assert!(check_partition(8, &[SlotRange::new(0, 5), SlotRange::new(4, 4)]).is_err());
        // Short.
        assert!(check_partition(8, &[SlotRange::new(0, 7)]).is_err());
        // Past the end.
        assert!(check_partition(8, &[SlotRange::new(0, 9)]).is_err());
        // Empty range.
        assert!(check_partition(8, &[SlotRange::new(0, 0), SlotRange::new(0, 8)]).is_err());
        // Exact.
        check_partition(8, &[SlotRange::new(0, 3), SlotRange::new(3, 5)]).unwrap();
    }

    /// The shard-safety proof of a per-slot counter over `slots` entries,
    /// indexed by its 16-bit `slot` field: the shape of every shard program.
    fn counter_proof(slots: usize) -> ShardSafetyProof {
        let mut layout = PhvLayout::new();
        let slot = layout.field("slot", 16);
        let bump = Action::nop("bump").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Field(slot),
            cond: SaluCond::Always,
            on_true: SaluUpdate::AddSat(Operand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: None,
        });
        prove_shard_safety(&counter(layout, bump, slots), slot).expect("a counter proves")
    }

    /// A one-table program running `bump` against one 32-bit register
    /// array of `slots` entries.
    fn counter(layout: PhvLayout, bump: Action, slots: usize) -> SwitchProgram {
        SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout,
            stages: vec![Stage::new().table(Table::always("count", bump))],
            arrays: vec![RegisterArraySpec {
                name: "pkt_count".into(),
                width_bits: 32,
                entries: slots,
                stage: 0,
            }],
            recirc_field: None,
        }
    }

    /// A per-slot counter over `slots` entries that bumps entry
    /// `slot + value` by one and echoes its new count: an in-range slot
    /// carrying a large value indexes past the array and faults in Phase C.
    fn offset_counter(slots: usize) -> (SwitchProgram, SlotFields) {
        let mut layout = PhvLayout::new();
        let slot = layout.field("slot", 16);
        let value = layout.field("value", 16);
        let op = layout.field("op", 1);
        let result = layout.field("count", 32);
        let at = layout.field("at", 16);
        let bump = Action::nop("bump")
            .prim(at, AluOp::Add, Operand::Field(slot), Operand::Field(value))
            .call(StatefulCall {
                array: RegArrayId(0),
                index: Operand::Field(at),
                cond: SaluCond::MetaNonZero(op),
                on_true: SaluUpdate::Keep,
                on_false: SaluUpdate::AddSat(Operand::Const(1)),
                output: Some((result, SaluOutput::New)),
            });
        let fields = SlotFields {
            op,
            slot,
            value,
            result,
        };
        (counter(layout, bump, slots), fields)
    }

    /// Run one bump packet on the interpreter.
    fn interpret(sw: &mut Switch, fields: SlotFields, slot: usize, value: u64) -> bool {
        let mut p = sw.phv();
        p.set(fields.op, OP_BUMP);
        p.set(fields.slot, slot as u64);
        p.set(fields.value, value);
        sw.run(&mut p).is_ok()
    }

    /// A plan is built only over an exact partition, and records a proof
    /// only from one per shard, on its slot field and of its shard's size.
    #[test]
    fn construction_rejects_mismatched_shards() {
        let slot = counter_proof(8).slot_field();
        let proofs = |lens: &[usize]| lens.iter().map(|&n| counter_proof(n)).collect::<Vec<_>>();
        let ranges = vec![SlotRange::new(0, 3), SlotRange::new(3, 5)];
        let plan = ShardPlan::new(8, ranges.clone(), slot).unwrap();
        assert_eq!((plan.shard_count(), plan.ranges()), (2, &ranges[..]));
        assert!(!plan.safety_proven());
        // Ranges that do not partition the slot space.
        assert!(ShardPlan::new(9, ranges.clone(), slot).is_err());
        let gap = vec![SlotRange::new(0, 3), SlotRange::new(4, 4)];
        assert!(ShardPlan::new(8, gap, slot).is_err());
        // A proof count that does not match the range count.
        assert!(plan.clone().prove(&proofs(&[3])).is_err());
        assert!(plan.clone().prove(&proofs(&[3, 5, 5])).is_err());
        // Proofs conditioned on another field than the routing one.
        let elsewhere = ShardPlan::new(8, ranges, FieldId(slot.0 + 1)).unwrap();
        assert!(elsewhere.prove(&proofs(&[3, 5])).is_err());
        // Proofs whose shard sizes are not the ranges' (here swapped).
        assert!(plan.clone().prove(&proofs(&[5, 3])).is_err());
        assert!(plan.prove(&proofs(&[3, 5])).unwrap().safety_proven());
    }

    /// Under a plan a fault stops where the one full-space engine stops:
    /// at the faulting packet in packet order, not at a shard boundary in
    /// shard order. Packets routed to any shard before it are applied, none
    /// after it is, and nothing of the faulting batch is collected. The
    /// registers are the interpreter's up to the fault.
    #[test]
    fn a_fault_stops_at_its_shard_in_shard_order() {
        let (program, fields) = offset_counter(9);
        let plan = ShardPlan::new(9, partition_slots(9, 3), fields.slot).unwrap();
        let owner = |slot| plan.ranges().iter().position(|r| r.contains(slot));
        // The third packet indexes entry 104 of 9.
        let packets = [(7, 0), (1, 0), (4, 100), (2, 0), (8, 0)];
        assert_eq!(packets.map(|(s, _)| owner(s)), [2, 0, 1, 0, 2].map(Some));
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        let mut out = vec![5];
        let res = cs.run_pairs(
            &mut BatchLanes::default(),
            fields,
            OP_BUMP,
            packets.len(),
            |i| (packets[i].0, packets[i].1),
            Some(&mut out),
        );
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        assert_eq!(out, [5], "nothing collected");
        let counts: Vec<i64> = (0..9).map(|s| cs.register(RegArrayId(0), s)).collect();
        assert_eq!(counts, [0, 1, 0, 0, 0, 0, 0, 1, 0]);
        let mut interp = Switch::new(program).unwrap();
        let ran = packets
            .iter()
            .take_while(|&&(s, v)| interpret(&mut interp, fields, s, v));
        assert_eq!(ran.count(), 2);
        assert_eq!(cs.register_state(), interp.register_state());
    }

    /// The one engine under a plan runs a range across shard boundaries
    /// whole, and rejects a range or a slot that does not fit the routing
    /// field before any register changes, instead of wrapping it to a slot
    /// of the first shard.
    #[test]
    fn run_ranges_reject_bad_ranges_before_any_register_changes() {
        let (program, fields) = offset_counter(600);
        let plan = ShardPlan::new(600, partition_slots(600, 3), fields.slot).unwrap();
        assert_eq!(plan.ranges()[1], SlotRange::new(200, 200));
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        let mut interp = Switch::new(program).unwrap();
        let mut lanes = BatchLanes::default();
        // All three shards, then the middle one and half of each neighbour.
        let spans = [(0, 600, None), (100, 400, None)];
        cs.run_ranges(&mut lanes, fields, OP_BUMP, spans.into_iter(), None)
            .unwrap();
        for (start, len, _) in spans {
            assert!((start..start + len).all(|s| interpret(&mut interp, fields, s, 0)));
        }
        assert_eq!(cs.register_state(), interp.register_state());
        let before = cs.register_state().clone();
        type Span<'a> = (usize, usize, Option<&'a [u64]>);
        let bad: [&[Span]; 2] = [
            &[(0, 10, None), (65_530, 10, None)],
            &[(10, 5, None), (usize::MAX, 2, None)],
        ];
        for ranges in bad {
            let res = cs.run_ranges(&mut lanes, fields, OP_BUMP, ranges.iter().copied(), None);
            assert!(
                matches!(res, Err(RuntimeError::IndexOutOfRange { .. })),
                "{ranges:?} must be rejected"
            );
            assert_eq!(cs.register_state(), &before, "{ranges:?} changed registers");
        }
        let pairs = [(10, 0), (65_536, 0)];
        let res = cs.run_pairs(&mut lanes, fields, OP_BUMP, 2, |i| pairs[i], None);
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        assert_eq!(
            cs.register_state(),
            &before,
            "a scattered slot changed registers"
        );
    }
}
