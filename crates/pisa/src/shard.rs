//! Sharded execution: slot-range-partitioned switch state.
//!
//! The register state a [`CompiledSwitch`] guards is *partitionable*: in
//! every FPISA workload the stateful arrays are indexed by an
//! **aggregation slot** carried in a PHV field, and two packets for
//! different slots never touch the same register entry. [`ShardedSwitch`]
//! partitions it the way a Tofino partitions register state across its
//! pipes — the paper's observation that line rate comes from partitioning
//! pipeline resources, and of SwitchML/ATP-style pool partitioning on the
//! aggregation side:
//!
//! * the slot space `0..total` is split into contiguous [`SlotRange`]s
//!   that cover it **exactly once** (checked by
//!   [`crate::register::check_partition`] — no gap, no overlap);
//! * each range is owned by one [`CompiledSwitch`] **shard**, compiled
//!   with register arrays of exactly the range's length (the shard-local
//!   slot space), its state held in a [`RegisterState`] that
//!   [`RegisterState::merged`] can reassemble;
//! * every packet is routed by the caller-supplied **slot field** — the
//!   PHV field carrying the global slot index — to the shard owning that
//!   slot, and the slot is rebased to the shard-local index on the way
//!   in;
//! * [`ShardedSwitch::run_ranges`] takes packets as the protocol carries
//!   them — `(start, len, words)` ranges of global slots — clips each
//!   range to each shard's range, rebases the piece, and runs every
//!   shard's pieces through [`CompiledSwitch::run_ranges`];
//! * [`ShardedSwitch::run_pairs`] takes scattered `(slot, word)` packets,
//!   sorts them by shard (stably), runs each shard's packets, rebased,
//!   through [`CompiledSwitch::run_pairs`], and writes every result back
//!   at its packet's position.
//!
//! The shards are slot-range partitions run one after another on the
//! calling thread: lanes are filled straight from the caller's ranges or
//! pairs, with no PHV built, no thread and no hand-off.
//!
//! Because routing preserves the relative order of packets that share a
//! slot (indeed, of packets that share a *shard*), the register state and
//! every read-out are **bit-for-bit identical** to running the same packet
//! sequence through a single full-space engine — the invariant the
//! pipeline differential suite enforces for every sharded configuration.
//! Every slot is validated before any packet runs. A fault inside a shard
//! (a program that indexes past its arrays) is returned from the first
//! faulting shard in shard order; the shards before it keep their packets
//! applied, and the shards after it do not run.

use crate::analysis::ShardSafetyProof;
use crate::compile::CompiledSwitch;
use crate::phv::{BatchLanes, FieldId, Phv};
use crate::ranges::SlotFields;
use crate::register::{check_partition, RegArrayId, RegisterState, SlotRange};
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

/// N compiled shards behind one switch interface, each owning a slot
/// range. See the [module docs](self) for the execution model.
#[derive(Debug, Clone)]
pub struct ShardedSwitch {
    shards: Vec<CompiledSwitch>,
    ranges: Box<[SlotRange]>,
    /// The caller-supplied slot extractor: the PHV field carrying the
    /// global slot index every packet is routed (and rebased) by.
    slot_field: FieldId,
    total_slots: usize,
    /// Scratch: shard index per packet of the current scattered call.
    shard_of: Vec<u32>,
    /// Scratch: per shard, the next free position in `order`.
    cursors: Vec<usize>,
    /// Scratch: the current call's packet indices, stably sorted by shard.
    order: Vec<usize>,
    /// Scratch: one shard's results, before they go back to their
    /// packets' positions.
    results: Vec<u64>,
    /// Whether a shard-safety proof covers every shard (see
    /// [`Self::attach_safety_proofs`]).
    safety_proven: bool,
}

impl ShardedSwitch {
    /// Assemble a sharded switch from per-shard engines, the slot ranges
    /// they own, and the PHV field carrying the global slot index.
    ///
    /// Validated up front: the ranges must partition `0..total` exactly
    /// once, every register array of shard `i` must have exactly
    /// `ranges[i].len` entries (the shard-local slot space), every shard
    /// must share one PHV layout (one PHV prototype and one lane buffer
    /// serve them all), and the slot field must exist in it.
    pub fn new(
        shards: Vec<CompiledSwitch>,
        ranges: Vec<SlotRange>,
        slot_field: FieldId,
    ) -> Result<Self, RuntimeError> {
        let oob = |detail: String| RuntimeError::IndexOutOfRange { detail };
        if shards.is_empty() || shards.len() != ranges.len() {
            return Err(oob(format!(
                "{} shards for {} slot ranges",
                shards.len(),
                ranges.len()
            )));
        }
        let total_slots = ranges.iter().map(|r| r.len).sum();
        check_partition(total_slots, &ranges)?;
        for (i, (shard, range)) in shards.iter().zip(&ranges).enumerate() {
            if shard.register_state().slot_space() != Some(range.len) {
                return Err(oob(format!(
                    "shard {i} register arrays do not all span its {}-slot range",
                    range.len
                )));
            }
            if shard.layout() != shards[0].layout() {
                return Err(oob(format!(
                    "shard {i}'s PHV layout differs from shard 0's"
                )));
            }
            if usize::from(slot_field.0) >= shard.layout().len() {
                return Err(oob(format!(
                    "slot field id {} outside shard {i}'s PHV layout",
                    slot_field.0
                )));
            }
        }
        let n = shards.len();
        Ok(ShardedSwitch {
            shards,
            ranges: ranges.into_boxed_slice(),
            slot_field,
            total_slots,
            shard_of: Vec::new(),
            cursors: vec![0; n],
            order: Vec::new(),
            results: Vec::new(),
            safety_proven: false,
        })
    }

    /// Attach per-shard [`ShardSafetyProof`]s (one per shard, from
    /// [`crate::analysis::prove_shard_safety`] on each shard's program),
    /// upgrading the dispatcher's dynamic bounds pre-scan into a
    /// verified assumption: the pre-scan validates exactly the
    /// hypothesis the proofs are conditioned on (every routing slot in
    /// range), so a proven switch can never surface
    /// [`RuntimeError::IndexOutOfRange`] from *inside* a shard — which
    /// debug builds assert on every fault path.
    ///
    /// Each proof must be conditioned on this switch's slot field and
    /// cover exactly its shard's slot range; mismatched proofs are
    /// rejected.
    pub fn attach_safety_proofs(
        mut self,
        proofs: &[ShardSafetyProof],
    ) -> Result<Self, RuntimeError> {
        let oob = |detail: String| RuntimeError::IndexOutOfRange { detail };
        if proofs.len() != self.shards.len() {
            return Err(oob(format!(
                "{} safety proofs for {} shards",
                proofs.len(),
                self.shards.len()
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

    /// Whether a shard-safety proof covers every shard.
    pub fn slot_safety_proven(&self) -> bool {
        self.safety_proven
    }

    /// Debug-build consult of the shard-safety proof: a proven switch
    /// must never see an out-of-range stateful index surface from a
    /// shard, because the dispatcher validated the routing assumption
    /// before any packet ran.
    fn check_shard_fault(&self, e: &RuntimeError) {
        debug_assert!(
            !(self.safety_proven && matches!(e, RuntimeError::IndexOutOfRange { .. })),
            "shard-safety proof violated: a proven shard raised {e:?}"
        );
    }

    /// Reject a lane call whose slot column is not the routing field.
    fn check_slot_field(&self, fields: SlotFields) -> Result<(), RuntimeError> {
        if fields.slot == self.slot_field {
            return Ok(());
        }
        Err(RuntimeError::IndexOutOfRange {
            detail: format!(
                "slot column field id {} is not the routing field id {}",
                fields.slot.0, self.slot_field.0
            ),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total slots across all shards.
    pub fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// The slot ranges, in shard order (ascending, contiguous).
    pub fn ranges(&self) -> &[SlotRange] {
        &self.ranges
    }

    /// One shard's engine.
    pub fn shard(&self, index: usize) -> &CompiledSwitch {
        &self.shards[index]
    }

    /// Mutable access to one shard's engine (control plane: per-shard
    /// register writes use shard-local slot indices).
    pub fn shard_mut(&mut self, index: usize) -> &mut CompiledSwitch {
        &mut self.shards[index]
    }

    /// The shard owning a global slot.
    pub fn shard_for_slot(&self, slot: usize) -> Result<usize, RuntimeError> {
        if slot >= self.total_slots {
            return Err(RuntimeError::IndexOutOfRange {
                detail: format!(
                    "slot {slot} out of range for sharded switch with {} slots",
                    self.total_slots
                ),
            });
        }
        // Ranges are a contiguous ascending partition: the owner is the
        // last range starting at or before the slot.
        Ok(self.ranges.partition_point(|r| r.end() <= slot))
    }

    /// Control-plane read of a register entry at a **global** slot index,
    /// routed to the owning shard.
    pub fn register(&self, id: RegArrayId, slot: usize) -> i64 {
        let s = self.shard_for_slot(slot).expect("slot out of range");
        self.shards[s].register(id, slot - self.ranges[s].start)
    }

    /// Control-plane write of a register entry at a **global** slot index.
    pub fn set_register(&mut self, id: RegArrayId, slot: usize, value: i64) {
        let s = self.shard_for_slot(slot).expect("slot out of range");
        self.shards[s].set_register(id, slot - self.ranges[s].start, value);
    }

    /// Control-plane write of one value into the **global** slot span
    /// `start..start + len` ([`RegisterState::fill_range`]), each shard
    /// filling the part of the span it owns. Panics on an out-of-range
    /// span, like indexing.
    pub fn fill_registers(&mut self, id: RegArrayId, start: usize, len: usize, value: i64) {
        let end = start.checked_add(len).filter(|&e| e <= self.total_slots);
        let end = end.expect("slot range out of range");
        for (shard, r) in self.shards.iter_mut().zip(&self.ranges) {
            let (lo, hi) = (start.max(r.start), end.min(r.end()));
            if lo < hi {
                shard.fill_registers(id, lo - r.start, hi - lo, value);
            }
        }
    }

    /// Reassemble the full-space register state from the shards — the
    /// inverse of splitting, for snapshots, migration to a single-core
    /// engine, or multi-switch merging.
    pub fn merged_state(&self) -> RegisterState {
        let states: Vec<RegisterState> = self
            .shards
            .iter()
            .map(|s| s.register_state().clone())
            .collect();
        RegisterState::merged(&states, &self.ranges)
            .expect("shard shapes validated at construction")
    }

    /// Install per-shard register states split from a full-space state
    /// (see [`RegisterState::split_ranges`]).
    pub fn set_merged_state(&mut self, state: &RegisterState) -> Result<(), RuntimeError> {
        let parts = state.split_ranges(&self.ranges)?;
        for (shard, part) in self.shards.iter_mut().zip(parts) {
            shard.set_register_state(part)?;
        }
        Ok(())
    }

    /// Route one packet by its slot field, rebase the field to the
    /// shard-local index, and run it on the owning shard.
    ///
    /// After the call the slot field holds the shard-local index (the
    /// shard's program saw a local packet); every other field carries the
    /// same result the full-space engine would produce.
    pub fn run(&mut self, phv: &mut Phv) -> Result<u32, RuntimeError> {
        let slot = phv.get(self.slot_field) as usize;
        let s = self.shard_for_slot(slot)?;
        let start = self.ranges[s].start;
        if start != 0 {
            phv.set(self.slot_field, (slot - start) as u64);
        }
        self.shards[s]
            .run(phv)
            .inspect_err(|e| self.check_shard_fault(e))
    }

    /// [`CompiledSwitch::run_ranges`] over **global** slots: one `op`
    /// packet per slot of every `(start, len, words)` range, results
    /// appended to `collect` in packet order.
    ///
    /// Every range is checked against the slot space, and `fields.slot`
    /// against the routing field, **before any packet runs**. Each range
    /// is then clipped to each shard's [`SlotRange`], its slots rebased to
    /// shard-local indices and its words sliced to match. Consecutive
    /// pieces on one shard run as one call on that shard's engine, on the
    /// calling thread. Pieces keep their list order, so results come back
    /// in packet order for any range list (ascending or not, overlapping
    /// or not) and every slot sees its packets in the order a single
    /// full-space engine would. `lanes` serves every shard, which share
    /// one layout.
    pub fn run_ranges<'a>(
        &mut self,
        lanes: &mut BatchLanes,
        fields: SlotFields,
        op: u64,
        ranges: impl Iterator<Item = (usize, usize, Option<&'a [u64]>)> + Clone,
        mut collect: Option<&mut Vec<u64>>,
    ) -> Result<(), RuntimeError> {
        self.check_slot_field(fields)?;
        for (start, len, _) in ranges.clone() {
            if start
                .checked_add(len)
                .is_none_or(|end| end > self.total_slots)
            {
                return Err(RuntimeError::IndexOutOfRange {
                    detail: format!(
                        "slot range {start}+{len} out of range for sharded switch with {} slots",
                        self.total_slots
                    ),
                });
            }
        }
        // One shard owns `0..total`: nothing to clip or rebase, and the
        // split's iterator chain would cost a one-table program ~13%.
        if self.shards.len() == 1 {
            return self.shards[0]
                .run_ranges(lanes, fields, op, ranges, collect)
                .inspect_err(|e| self.check_shard_fault(e));
        }
        // `(shard, (local start, len, words))` per piece of every range.
        let owned = &self.ranges;
        let pieces = ranges
            .filter(|&(_, len, _)| len > 0)
            .flat_map(|(start, len, words)| {
                let end = start + len;
                let first = owned.partition_point(|r| r.end() <= start);
                owned[first..]
                    .iter()
                    .take_while(move |r| r.start < end)
                    .enumerate()
                    .map(move |(i, r)| {
                        let (lo, hi) = (start.max(r.start), end.min(r.end()));
                        let words = words.map(|w| &w[lo - start..hi - start]);
                        (first + i, (lo - r.start, hi - lo, words))
                    })
            });
        let mut pieces = pieces.peekable();
        while let Some(&(s, _)) = pieces.peek() {
            let run = pieces
                .clone()
                .map_while(move |(t, p)| (t == s).then_some(p));
            self.shards[s]
                .run_ranges(lanes, fields, op, run, collect.as_deref_mut())
                .inspect_err(|e| self.check_shard_fault(e))?;
            while pieces.next_if(|&(t, _)| t == s).is_some() {}
        }
        Ok(())
    }

    /// [`CompiledSwitch::run_pairs`] over **global** slots: `n` `op`
    /// packets, packet `i` carrying the `(slot, word)` that `pair(i)`
    /// returns, results written to `collect` in packet order.
    ///
    /// Every slot is checked against the slot space, and `fields.slot`
    /// against the routing field, **before any packet runs**. The packets
    /// are then sorted by shard, keeping their order within each shard, and
    /// each shard's packets run with rebased slots as one call on its
    /// engine, shard after shard on the calling thread. Packets that share a
    /// slot share a shard and keep their order, so every slot sees its
    /// packets in the order a single full-space engine would, and each
    /// result lands at its packet's position.
    ///
    /// On a fault in a shard, that shard's error is returned, the shards
    /// after it do not run, and nothing is appended to `collect`.
    pub fn run_pairs(
        &mut self,
        lanes: &mut BatchLanes,
        fields: SlotFields,
        op: u64,
        n: usize,
        pair: impl Fn(usize) -> (usize, u64),
        mut collect: Option<&mut Vec<u64>>,
    ) -> Result<(), RuntimeError> {
        self.check_slot_field(fields)?;
        // Route and validate up front, counting each shard's packets.
        self.shard_of.clear();
        self.cursors.fill(0);
        for i in 0..n {
            let s = self.shard_for_slot(pair(i).0)?;
            self.shard_of.push(s as u32);
            self.cursors[s] += 1;
        }
        // Stable counting sort: each shard's packet indices in call order,
        // shard after shard. Afterwards `cursors[s]` is where shard `s`'s
        // packets end.
        let mut end = 0;
        for c in &mut self.cursors {
            (end, *c) = (end + *c, end);
        }
        self.order.resize(n, 0);
        for (i, &s) in self.shard_of.iter().enumerate() {
            let c = &mut self.cursors[s as usize];
            self.order[*c] = i;
            *c += 1;
        }
        let base = collect.as_ref().map_or(0, |out| out.len());
        if let Some(out) = collect.as_deref_mut() {
            out.resize(base + n, 0);
        }
        let mut from = 0;
        for s in 0..self.shards.len() {
            let (packets, start) = (&self.order[from..self.cursors[s]], self.ranges[s].start);
            from = self.cursors[s];
            self.results.clear();
            let rebased = |k: usize| {
                let (slot, word) = pair(packets[k]);
                (slot - start, word)
            };
            let sink = collect.is_some().then_some(&mut self.results);
            let ran = self.shards[s].run_pairs(lanes, fields, op, packets.len(), rebased, sink);
            if let Err(e) = ran {
                self.check_shard_fault(&e);
                if let Some(out) = collect {
                    out.truncate(base);
                }
                return Err(e);
            }
            if let Some(out) = collect.as_deref_mut() {
                for (&i, &r) in packets.iter().zip(&self.results) {
                    out[base + i] = r;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, AluOp, Operand};
    use crate::phv::PhvLayout;
    use crate::ranges::LANE_CHUNK;
    use crate::register::{RegisterArraySpec, SaluCond, SaluOutput, SaluUpdate, StatefulCall};
    use crate::stage::Stage;
    use crate::switch::{Switch, SwitchCaps, SwitchProgram};
    use crate::table::Table;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The counter's opcodes: bump (the zero a fresh PHV carries) or read.
    const OP_BUMP: u64 = 0;
    const OP_READ: u64 = 1;

    /// A per-slot saturating counter program over `slots` register
    /// entries: a packet bumps its slot by one plus its `value`, or only
    /// reads it when `op` is set, and the slot's count after the packet is
    /// echoed into the `count` field.
    fn counter_program(slots: usize) -> (SwitchProgram, FieldId, FieldId) {
        let mut layout = PhvLayout::new();
        let slot = layout.field("slot", 16);
        let count = layout.field("count", 32);
        let op = layout.field("op", 1);
        let value = layout.field("value", 16);
        let bump = Action::nop("bump")
            .prim(value, AluOp::Add, Operand::Field(value), Operand::Const(1))
            .call(StatefulCall {
                array: RegArrayId(0),
                index: Operand::Field(slot),
                cond: SaluCond::MetaNonZero(op),
                on_true: SaluUpdate::Keep,
                on_false: SaluUpdate::AddSat(Operand::Field(value)),
                output: Some((count, SaluOutput::New)),
            });
        let program = SwitchProgram {
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
        };
        (program, slot, count)
    }

    /// The counter's columns as a range-shaped batch writes and reads them.
    fn counter_fields(program: &SwitchProgram) -> SlotFields {
        let id = |name| program.layout.lookup(name).expect("counter field");
        SlotFields {
            op: id("op"),
            slot: id("slot"),
            value: id("value"),
            result: id("count"),
        }
    }

    fn sharded_counter(total: usize, shards: usize) -> (ShardedSwitch, FieldId, FieldId) {
        let ranges = partition_slots(total, shards);
        let engines: Vec<CompiledSwitch> = ranges
            .iter()
            .map(|r| {
                let (program, _, _) = counter_program(r.len);
                CompiledSwitch::compile(&program).unwrap()
            })
            .collect();
        let (_, slot, count) = counter_program(total);
        let sw = ShardedSwitch::new(engines, ranges, slot).unwrap();
        (sw, slot, count)
    }

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

    #[test]
    fn fill_registers_spans_shards_like_per_slot_writes() {
        let total = 23;
        for shards in [1usize, 2, 3, 8] {
            // Spans inside one shard, across two, across all; empty ones.
            for (start, len) in [(0, 23), (0, 0), (23, 0), (5, 1), (2, 9), (7, 16), (11, 12)] {
                let (mut filled, _, _) = sharded_counter(total, shards);
                for s in 0..total {
                    filled.set_register(RegArrayId(0), s, 100 + s as i64);
                }
                let mut looped = filled.clone();
                filled.fill_registers(RegArrayId(0), start, len, -3);
                for s in start..start + len {
                    looped.set_register(RegArrayId(0), s, -3);
                }
                assert_eq!(
                    filled.merged_state(),
                    looped.merged_state(),
                    "{shards} shards, span {start}+{len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fill_registers_past_the_slot_space_panics() {
        sharded_counter(23, 3)
            .0
            .fill_registers(RegArrayId(0), 20, 4, 0);
    }

    /// One range of a range-shaped call: `(start, len, words)`.
    type Span<'a> = (usize, usize, Option<&'a [u64]>);

    /// Range-shaped calls of `(op, ranges)` over 600 slots: ranges across
    /// every shard, a call of whole-space ranges longer than a
    /// [`LANE_CHUNK`] batch, ranges straddling shard boundaries (200 and
    /// 400 on 3 shards, multiples of 75 on 8), empty ones, out-of-order and
    /// overlapping lists, and a READ whose one range spans every shard.
    fn range_calls(words: &[u64]) -> Vec<(u64, Vec<Span<'_>>)> {
        let w = |start: usize, len: usize| (start, len, Some(&words[start..start + len]));
        vec![
            (OP_BUMP, vec![w(0, 600)]),
            (OP_BUMP, vec![w(0, 600); LANE_CHUNK / 600 + 1]),
            (OP_BUMP, vec![w(190, 20), w(5, 0), w(399, 2), w(0, 300)]),
            (OP_BUMP, vec![(250, 300, None), (600, 0, None), w(70, 10)]),
            (OP_READ, vec![(0, 600, None)]),
            (
                OP_READ,
                vec![(400, 100, None), (0, 0, None), (10, 290, None)],
            ),
        ]
    }

    #[test]
    fn run_ranges_split_at_shards_match_one_engine_and_the_interpreter() {
        let total = 600;
        let (program, _, _) = counter_program(total);
        let fields = counter_fields(&program);
        let words: Vec<u64> = (0..total as u64).map(|i| i % 7).collect();
        let calls = range_calls(&words);

        // The oracle: every packet as a PHV through the interpreter.
        let mut interp = Switch::new(program.clone()).unwrap();
        let mut want: Vec<Vec<u64>> = Vec::new();
        for (op, ranges) in &calls {
            let mut out = Vec::new();
            for &(start, len, w) in ranges {
                for k in 0..len {
                    let mut p = interp.phv();
                    p.set(fields.op, *op);
                    p.set(fields.slot, (start + k) as u64);
                    p.set(fields.value, w.map_or(0, |w| w[k]));
                    interp.run(&mut p).unwrap();
                    out.push(p.get(fields.result));
                }
            }
            want.push(out);
        }

        let mut single = CompiledSwitch::compile(&program).unwrap();
        let mut lanes = BatchLanes::default();
        for ((op, ranges), want) in calls.iter().zip(&want) {
            let mut out = Vec::new();
            let ranges = ranges.iter().copied();
            single
                .run_ranges(&mut lanes, fields, *op, ranges, Some(&mut out))
                .unwrap();
            assert_eq!(&out, want, "full-space engine");
        }
        assert_eq!(single.register_state(), interp.register_state());

        for shards in [1usize, 2, 3, 8] {
            let (mut sharded, _, _) = sharded_counter(total, shards);
            let mut lanes = BatchLanes::default();
            for (i, ((op, ranges), want)) in calls.iter().zip(&want).enumerate() {
                let mut out = Vec::new();
                let ranges = ranges.iter().copied();
                sharded
                    .run_ranges(&mut lanes, fields, *op, ranges, Some(&mut out))
                    .unwrap();
                assert_eq!(&out, want, "{shards} shards, call {i}");
            }
            assert_eq!(
                &sharded.merged_state(),
                single.register_state(),
                "{shards} shards"
            );
        }
    }

    /// Scattered calls of `(op, slots)` over 600 slots: random slots with
    /// duplicates (`9 * LANE_CHUNK` packets, more than one batch per shard
    /// on 8 shards), every slot in descending order twice in a row, an
    /// empty call, and READs in both shapes.
    fn pair_calls() -> Vec<(u64, Vec<usize>)> {
        let mut rng = SmallRng::seed_from_u64(0x9A1E);
        let random = |n: usize, rng: &mut SmallRng| (0..n).map(|_| rng.gen_range(0..600)).collect();
        let descending_twice = (0..1200).map(|k| 599 - k / 2).collect();
        vec![
            (OP_BUMP, random(9 * LANE_CHUNK, &mut rng)),
            (OP_BUMP, descending_twice),
            (OP_BUMP, Vec::new()),
            (OP_READ, (0..600).rev().collect()),
            (OP_BUMP, random(700, &mut rng)),
            (OP_READ, random(2000, &mut rng)),
        ]
    }

    #[test]
    fn run_pairs_split_at_shards_match_one_engine_and_the_interpreter() {
        let total = 600;
        let (program, _, _) = counter_program(total);
        let fields = counter_fields(&program);
        let calls = pair_calls();
        let word = |i: usize| (i % 13) as u64;
        for r in partition_slots(total, 8) {
            let on_shard = calls[0].1.iter().filter(|&&s| r.contains(s)).count();
            assert!(on_shard > LANE_CHUNK, "{r:?} fills no batch");
        }

        // The oracle: every packet as a PHV through the interpreter.
        let mut interp = Switch::new(program.clone()).unwrap();
        let mut want: Vec<Vec<u64>> = Vec::new();
        for (op, slots) in &calls {
            let mut out = Vec::new();
            for (i, &slot) in slots.iter().enumerate() {
                let mut p = interp.phv();
                p.set(fields.op, *op);
                p.set(fields.slot, slot as u64);
                p.set(fields.value, word(i));
                interp.run(&mut p).unwrap();
                out.push(p.get(fields.result));
            }
            want.push(out);
        }

        let mut single = CompiledSwitch::compile(&program).unwrap();
        let mut lanes = BatchLanes::default();
        for ((op, slots), want) in calls.iter().zip(&want) {
            let mut out = Vec::new();
            let pair = |i: usize| (slots[i], word(i));
            single
                .run_pairs(&mut lanes, fields, *op, slots.len(), pair, Some(&mut out))
                .unwrap();
            assert_eq!(&out, want, "full-space engine");
        }
        assert_eq!(single.register_state(), interp.register_state());

        for shards in [1usize, 2, 3, 8] {
            let (mut sharded, _, _) = sharded_counter(total, shards);
            let mut lanes = BatchLanes::default();
            for (i, ((op, slots), want)) in calls.iter().zip(&want).enumerate() {
                // Results are appended after what the sink already holds.
                let mut out = vec![7];
                let pair = |i: usize| (slots[i], word(i));
                sharded
                    .run_pairs(&mut lanes, fields, *op, slots.len(), pair, Some(&mut out))
                    .unwrap();
                assert_eq!(out[0], 7, "{shards} shards, call {i}");
                assert_eq!(&out[1..], want, "{shards} shards, call {i}");
            }
            assert_eq!(
                &sharded.merged_state(),
                single.register_state(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn run_ranges_reject_bad_ranges_before_any_register_changes() {
        let (program, _, _) = counter_program(600);
        let fields = counter_fields(&program);
        let words = vec![3u64; 600];
        let (mut sw, _, _) = sharded_counter(600, 3);
        let mut lanes = BatchLanes::default();
        let bump = std::iter::once((0, 600, Some(&words[..])));
        sw.run_ranges(&mut lanes, fields, OP_BUMP, bump, None)
            .unwrap();
        let before = sw.merged_state();
        let bad: [&[Span]; 3] = [
            &[(0, 10, Some(&words[..10])), (595, 10, Some(&words[..10]))],
            &[(10, 5, None), (usize::MAX, 2, None)],
            &[(601, 0, None)],
        ];
        for ranges in bad {
            let res = sw.run_ranges(&mut lanes, fields, OP_BUMP, ranges.iter().copied(), None);
            assert!(
                matches!(res, Err(RuntimeError::IndexOutOfRange { .. })),
                "{ranges:?} must be rejected"
            );
            assert_eq!(sw.merged_state(), before, "{ranges:?} changed registers");
        }
        // The slot column must be the field the shards are routed by.
        let wrong = SlotFields {
            slot: fields.value,
            ..fields
        };
        let res = sw.run_ranges(&mut lanes, wrong, OP_BUMP, [(0, 4, None)].into_iter(), None);
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        assert_eq!(sw.merged_state(), before);

        // One engine: a range past the 16-bit slot field is rejected
        // before any packet runs instead of wrapping to slot 0.
        let mut single = CompiledSwitch::compile(&program).unwrap();
        let wraps = [(10, 5, None), (65_530, 10, None)];
        let res = single.run_ranges(&mut lanes, fields, OP_BUMP, wraps.into_iter(), None);
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        // So is a scattered slot past it.
        let pairs = [(10, 1), (65_536, 1)];
        let res = single.run_pairs(&mut lanes, fields, OP_BUMP, 2, |i| pairs[i], None);
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        assert!((0..600).all(|s| single.register(RegArrayId(0), s) == 0));
    }

    #[test]
    fn sharded_counters_match_a_single_engine_bit_for_bit() {
        let total = 23;
        let (program, slot, count) = counter_program(total);
        let mut single = CompiledSwitch::compile(&program).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let stream: Vec<usize> = (0..800).map(|_| rng.gen_range(0..total)).collect();
        let fields = counter_fields(&program);
        for shards in [1usize, 2, 3, 8] {
            let (mut sharded, _, _) = sharded_counter(total, shards);
            let mut counts = Vec::new();
            let pair = |i: usize| (stream[i], 0);
            sharded
                .run_pairs(
                    &mut BatchLanes::default(),
                    fields,
                    OP_BUMP,
                    stream.len(),
                    pair,
                    Some(&mut counts),
                )
                .unwrap();
            assert_eq!(counts.len(), stream.len(), "{shards} shards");
            // Per-packet outputs match the scalar single-engine run.
            let mut fresh = CompiledSwitch::compile(&program).unwrap();
            for (i, (&s, &got)) in stream.iter().zip(&counts).enumerate() {
                let mut p = fresh.phv();
                p.set(slot, s as u64);
                fresh.run(&mut p).unwrap();
                assert_eq!(got, p.get(count), "{shards} shards, packet {i} (slot {s})");
            }
            // Global register state reassembles to the single engine's.
            if shards == 1 {
                for &s in &stream {
                    let mut p = single.phv();
                    p.set(slot, s as u64);
                    single.run(&mut p).unwrap();
                }
            }
            let merged = sharded.merged_state();
            for s in 0..total {
                assert_eq!(
                    merged.get(RegArrayId(0), s),
                    single.register(RegArrayId(0), s),
                    "{shards} shards, slot {s}"
                );
                assert_eq!(
                    sharded.register(RegArrayId(0), s),
                    single.register(RegArrayId(0), s)
                );
            }
        }
    }

    #[test]
    fn scalar_run_routes_and_rebases() {
        let (mut sw, slot, count) = sharded_counter(10, 3);
        // Slot 7 lands in the last shard; bump it twice.
        for want in 1..=2u64 {
            let mut p = sw.shard(0).phv();
            p.set(slot, 7);
            sw.run(&mut p).unwrap();
            assert_eq!(p.get(count), want);
        }
        assert_eq!(sw.register(RegArrayId(0), 7), 2);
        // Neighboring slots in other shards untouched.
        assert_eq!(sw.register(RegArrayId(0), 6), 0);
        assert_eq!(sw.register(RegArrayId(0), 8), 0);
    }

    #[test]
    fn out_of_range_slots_error_before_anything_runs() {
        let (mut sw, slot, _) = sharded_counter(8, 2);
        let fields = counter_fields(&counter_program(8).0);
        let mut lanes = BatchLanes::default();
        let mut out = vec![5];
        let pair = |i: usize| (if i == 3 { 99 } else { i }, 1);
        let res = sw.run_pairs(&mut lanes, fields, OP_BUMP, 4, pair, Some(&mut out));
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        assert_eq!(out, [5], "nothing collected");
        // The slot column must be the field the shards are routed by.
        let wrong = SlotFields {
            slot: fields.value,
            ..fields
        };
        let res = sw.run_pairs(&mut lanes, wrong, OP_BUMP, 1, |_| (0, 1), None);
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        for s in 0..8 {
            assert_eq!(sw.register(RegArrayId(0), s), 0, "nothing ran");
        }
        let mut bad = sw.shard(0).phv();
        bad.set(slot, 8);
        assert!(sw.run(&mut bad).is_err());
    }

    #[test]
    fn a_fault_stops_at_its_shard_in_shard_order() {
        // A counter indexed by `slot + value`: in-range slots pass the
        // up-front check, and a large value then indexes past its shard's
        // array in Phase C.
        let program = |entries: usize| {
            let (mut program, slot, count) = counter_program(entries);
            let (op, value) = (program.layout.lookup("op"), program.layout.lookup("value"));
            let at = program.layout.field("at", 16);
            let bump = Action::nop("bump")
                .prim(
                    at,
                    AluOp::Add,
                    Operand::Field(slot),
                    Operand::Field(value.unwrap()),
                )
                .call(StatefulCall {
                    array: RegArrayId(0),
                    index: Operand::Field(at),
                    cond: SaluCond::MetaNonZero(op.unwrap()),
                    on_true: SaluUpdate::Keep,
                    on_false: SaluUpdate::AddSat(Operand::Const(1)),
                    output: Some((count, SaluOutput::New)),
                });
            program.stages = vec![Stage::new().table(Table::always("count", bump))];
            program
        };
        let ranges = partition_slots(9, 3);
        let engines = ranges
            .iter()
            .map(|r| CompiledSwitch::compile(&program(r.len)).unwrap())
            .collect();
        let fields = counter_fields(&program(9));
        let mut sw = ShardedSwitch::new(engines, ranges, fields.slot).unwrap();
        // Shard 2, shard 0, shard 1 (faults), shard 0, shard 2.
        let packets = [(7, 0), (1, 0), (4, 100), (2, 0), (8, 0)];
        let mut out = vec![5];
        let res = sw.run_pairs(
            &mut BatchLanes::default(),
            fields,
            OP_BUMP,
            packets.len(),
            |i| packets[i],
            Some(&mut out),
        );
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        assert_eq!(out, [5], "nothing collected");
        let counts: Vec<i64> = (0..9).map(|s| sw.register(RegArrayId(0), s)).collect();
        // Shard 0 ran before the fault; shard 2 never ran.
        assert_eq!(counts, [0, 1, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn split_and_merge_roundtrip_register_state() {
        let (program, _, _) = counter_program(12);
        let mut single = CompiledSwitch::compile(&program).unwrap();
        for s in 0..12 {
            single.set_register(RegArrayId(0), s, (s * 3 + 1) as i64);
        }
        let ranges = partition_slots(12, 5);
        let parts = single.register_state().split_ranges(&ranges).unwrap();
        assert_eq!(parts.len(), 5);
        let merged = RegisterState::merged(&parts, &ranges).unwrap();
        assert_eq!(&merged, single.register_state());
        // Snapshot/restore roundtrip too.
        let snap = merged.snapshot();
        let mut zeroed = RegisterState::new(&program.arrays);
        zeroed.restore(&snap).unwrap();
        assert_eq!(&zeroed, single.register_state());
        // Shape mismatch is an error, not corruption.
        let (other, _, _) = counter_program(7);
        assert!(RegisterState::new(&other.arrays).restore(&snap).is_err());
        // So is merging shards whose register widths disagree: a wider
        // shard's values must not land behind narrower saturation bounds.
        let narrow = crate::register::RegisterArraySpec {
            name: "pkt_count".into(),
            width_bits: 8,
            entries: parts[1].entries(RegArrayId(0)),
            stage: 0,
        };
        let mut mixed: Vec<RegisterState> = parts.clone();
        mixed[1] = RegisterState::new(&[narrow]);
        assert!(RegisterState::merged(&mixed, &ranges).is_err());
    }

    #[test]
    fn repeated_scattered_calls_match_a_single_engine_and_clones_diverge() {
        // Repeated scattered calls on one sharded switch stay bit-for-bit
        // with a full-space engine; a clone taken mid-stream owns its state,
        // so the two diverge independently afterwards.
        let total = 29;
        let (program, _, _) = counter_program(total);
        let fields = counter_fields(&program);
        let mut single = CompiledSwitch::compile(&program).unwrap();
        let (mut sw, _, _) = sharded_counter(total, 4);
        let mut lanes = BatchLanes::default();
        let mut rng = SmallRng::seed_from_u64(99);
        let mut clone = None;
        for call in 0..6 {
            if call == 3 {
                clone = Some((sw.clone(), single.clone()));
            }
            let slots: Vec<usize> = (0..300).map(|_| rng.gen_range(0..total)).collect();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let pair = |i: usize| (slots[i], (i % 3) as u64);
            sw.run_pairs(&mut lanes, fields, OP_BUMP, 300, pair, Some(&mut got))
                .unwrap();
            single
                .run_pairs(&mut lanes, fields, OP_BUMP, 300, pair, Some(&mut want))
                .unwrap();
            assert_eq!(got, want, "call {call}");
        }
        assert_eq!(&sw.merged_state(), single.register_state());
        // The clone saw calls 0..3 only; bumping it leaves the original be.
        let (mut clone, mut clone_single) = clone.unwrap();
        assert_ne!(clone.merged_state(), sw.merged_state());
        let before = sw.merged_state();
        let pair = |i: usize| (i % total, 5);
        clone
            .run_pairs(&mut lanes, fields, OP_BUMP, 100, pair, None)
            .unwrap();
        clone_single
            .run_pairs(&mut lanes, fields, OP_BUMP, 100, pair, None)
            .unwrap();
        assert_eq!(&clone.merged_state(), clone_single.register_state());
        assert_eq!(sw.merged_state(), before, "the clone shares no state");
    }

    #[test]
    fn construction_rejects_mismatched_shards() {
        let ranges = partition_slots(8, 2);
        let engines: Vec<CompiledSwitch> = ranges
            .iter()
            .map(|r| {
                let (program, _, _) = counter_program(r.len);
                CompiledSwitch::compile(&program).unwrap()
            })
            .collect();
        let (_, slot, _) = counter_program(8);
        // Wrong range count.
        assert!(ShardedSwitch::new(engines.clone(), vec![SlotRange::new(0, 8)], slot).is_err());
        // Shard arrays don't span the claimed range.
        assert!(ShardedSwitch::new(
            engines.clone(),
            vec![SlotRange::new(0, 5), SlotRange::new(5, 3)],
            slot
        )
        .is_err());
        // Unknown slot field.
        assert!(ShardedSwitch::new(engines.clone(), ranges.clone(), FieldId(99)).is_err());
        // Shards whose PHV layouts differ (one lane buffer serves them all).
        let (mut other, _, _) = counter_program(ranges[1].len);
        other.layout.field("pad", 8);
        let mixed = vec![engines[0].clone(), CompiledSwitch::compile(&other).unwrap()];
        assert!(ShardedSwitch::new(mixed, ranges.clone(), slot).is_err());
        // Valid.
        ShardedSwitch::new(engines, ranges, slot).unwrap();
    }
}
