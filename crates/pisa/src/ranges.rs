//! Range-shaped batches: one packet per slot of each `(start, len, words)`
//! range, written into [`BatchLanes`] a column at a time instead of a PHV
//! per packet — the shape every packet of an aggregation protocol has
//! (consecutive elements in consecutive slots).
//!
//! [`CompiledSwitch::run_ranges`] is the one lane loop every compiled
//! engine uses for them; [`crate::ShardedSwitch::run_ranges`] splits the
//! ranges at shard boundaries and runs each shard's pieces through it.

use crate::compile::CompiledSwitch;
use crate::phv::{BatchLanes, FieldId, PhvLayout};
use crate::switch::RuntimeError;

/// Lanes per batch cut from ranges (and the batch size of
/// `fpisa-pipeline`'s scattered compiled batches): each `u32` column of
/// 256 lanes is 1 KiB, so a batch stays cache-resident while amortizing
/// the per-table dispatch over many packets.
pub const LANE_CHUNK: usize = 256;

/// The four PHV fields a range-shaped batch writes and reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotFields {
    /// The opcode column: one value for every packet of a call.
    pub op: FieldId,
    /// The slot column: `start, start + 1, …` per range.
    pub slot: FieldId,
    /// The value column: a range's words (zero when it carries none).
    pub value: FieldId,
    /// The result column, drained into the caller's sink when one is
    /// given.
    pub result: FieldId,
}

impl CompiledSwitch {
    /// Run one `op` packet per slot of every `(start, len, words)` range,
    /// ranges back to back and in order, packet `k` of a range carrying
    /// `words[k]` as its value (`None`: no value). When `collect` is given,
    /// every packet's result is appended to it in packet order.
    ///
    /// A batch is [`LANE_CHUNK`] lanes cut from the ranges as they come:
    /// the `op` column is written once per batch and each piece of a range
    /// with the column writers ([`BatchLanes::fill_iota`] for its slots,
    /// [`BatchLanes::fill_slice`] for its words), so consecutive slots
    /// reach the stateful tables as the runs Phase C serves from register
    /// windows. `lanes` is the caller's reusable buffer; an empty one
    /// (`BatchLanes::default()`) is built over this engine's layout on
    /// first use.
    ///
    /// A range whose slots do not fit the slot field is rejected before any
    /// packet runs; slots past a register array fault in Phase C like any
    /// packet's (see [`CompiledSwitch::run_lanes`] for what a fault leaves
    /// applied). Panics if a range carries fewer than `len` words or a
    /// field is not in this engine's layout.
    pub fn run_ranges<'a>(
        &mut self,
        lanes: &mut BatchLanes,
        fields: SlotFields,
        op: u64,
        mut ranges: impl Iterator<Item = (usize, usize, Option<&'a [u64]>)> + Clone,
        mut collect: Option<&mut Vec<u64>>,
    ) -> Result<(), RuntimeError> {
        let slot_max = PhvLayout::mask(self.layout().spec(fields.slot).bits);
        let mut left = 0usize;
        for (start, len, _) in ranges.clone() {
            let fits = |last: usize| last as u64 <= slot_max;
            if len > 0 && !start.checked_add(len - 1).is_some_and(fits) {
                return Err(RuntimeError::IndexOutOfRange {
                    detail: format!("slot range {start}+{len} overflows the slot field"),
                });
            }
            left += len;
        }
        if lanes.capacity() == 0 {
            *lanes = BatchLanes::new(self.layout(), LANE_CHUNK.min(left.max(1)));
        }
        // The range being cut: `(next slot, slots left, their words)`.
        let (mut slot, mut rest, mut words) = (0usize, 0usize, None);
        while left > 0 {
            let len = LANE_CHUNK.min(left);
            lanes.begin(len);
            lanes.fill(fields.op, op);
            let mut at = 0;
            while at < len {
                if rest == 0 {
                    (slot, rest, words) = ranges.next().expect("ranges hold every counted slot");
                    continue;
                }
                let take = rest.min(len - at);
                lanes.fill_iota(fields.slot, at, take, slot as u64);
                if let Some(w) = words {
                    lanes.fill_slice(fields.value, at, &w[..take]);
                    words = Some(&w[take..]);
                }
                (slot, rest, at) = (slot + take, rest - take, at + take);
            }
            self.run_lanes(lanes)?;
            if let Some(out) = collect.as_deref_mut() {
                lanes.extend_from_column(fields.result, out);
            }
            left -= len;
        }
        Ok(())
    }
}
