//! Range-shaped batches: one packet per slot of each `(start, len, words)`
//! range, written into [`BatchLanes`] a column at a time instead of a PHV
//! per packet — the shape every packet of an aggregation protocol has
//! (consecutive elements in consecutive slots).
//!
//! [`CompiledSwitch::run_ranges`] is the one lane loop for them, whether
//! or not a [`crate::ShardPlan`] partitions the slot space: a plan is a
//! build-time fact, and every slot's packets run on the one full-space
//! engine. Scattered `(slot, word)` pairs take its twin,
//! [`CompiledSwitch::run_pairs`]. Both have one fault contract: the
//! batches before a faulting one stay applied and collected, and nothing
//! of the faulting batch is collected.
//!
//! The same loop can also leave its last batch **open**
//! ([`CompiledSwitch::hold_ranges`]): a call fills lanes from where the
//! previous one stopped, runs each batch that reaches [`LANE_CHUNK`] lanes
//! and keeps the rest for the next call, until [`CompiledSwitch::run_held`]
//! runs it. Many small calls then cost what one large one does, and
//! because every register array is touched from one table only (what
//! [`CompiledSwitch::soa_eligible`] checks), a table-major batch of several
//! calls' packets leaves the registers exactly as running the calls one by
//! one would: only the batch boundaries move.

use crate::compile::CompiledSwitch;
use crate::phv::{BatchLanes, FieldId, PhvLayout};
use crate::switch::RuntimeError;

/// Lanes per batch cut from ranges or from scattered pairs. Every batch
/// pays a fixed cost in each table it passes, whatever its width, on top
/// of a cost per lane. The repo benchmark's ledger (`--trace 1`) records
/// both for the FP16 Tofino program: the cost per lane is
/// `pisa.run_lanes_add8k_ns_per_lane` (4096-lane ADD batches), and the
/// fixed cost is 64 times its gap to `pisa.run_lanes_add64_ns_per_lane`
/// (64-lane ones). 2048 lanes spread the fixed cost over enough packets to
/// be a few percent of the batch, while the program's 34 `u32` columns of
/// 2048 lanes (≈ 272 KiB) still sit in a core's L2.
pub const LANE_CHUNK: usize = 2048;

/// The four PHV fields a range- or pair-shaped batch writes and reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotFields {
    /// The opcode column: one value for every packet of a call.
    pub op: FieldId,
    /// The slot column: `start, start + 1, …` per range, or each pair's
    /// slot.
    pub slot: FieldId,
    /// The value column: a range's words (zero when it carries none), or
    /// each pair's word.
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
    /// first use. Whatever it held is dropped, and it is left empty, on
    /// success and on a fault alike.
    ///
    /// A range whose slots do not fit the slot field is rejected before any
    /// packet runs; slots past a register array fault in Phase C like any
    /// packet's. On a fault the batches before the faulting one stay
    /// applied and their results stay in `collect`; nothing of the
    /// faulting batch is collected, and of its packets those before the
    /// faulting one are applied (see [`CompiledSwitch::run_lanes`]). Panics
    /// if a range carries fewer than `len` words or a field is not in this
    /// engine's layout.
    pub fn run_ranges<'a>(
        &mut self,
        lanes: &mut BatchLanes,
        fields: SlotFields,
        op: u64,
        ranges: impl Iterator<Item = (usize, usize, Option<&'a [u64]>)> + Clone,
        collect: Option<&mut Vec<u64>>,
    ) -> Result<(), RuntimeError> {
        lanes.begin(0);
        self.fill_ranges(lanes, fields, op, ranges, collect, false)
    }

    /// [`CompiledSwitch::run_ranges`] into an **open batch**: the packets
    /// are appended to the lanes `open` already holds (its live count is
    /// the open batch), each batch that reaches [`LANE_CHUNK`] lanes runs,
    /// and the remainder stays in `open` for the next call — to be filled
    /// further, or run by [`CompiledSwitch::run_held`]. Results are not
    /// collected: hold only packets whose effect is on the registers.
    ///
    /// Ranges are validated as `run_ranges` validates them, before anything
    /// is appended. If a batch that filled up faults, `open` is left empty
    /// and the error returned; the rest of the call is not appended. Start
    /// from an empty `BatchLanes::default()`, built over this engine's
    /// layout on first use.
    pub fn hold_ranges<'a>(
        &mut self,
        open: &mut BatchLanes,
        fields: SlotFields,
        op: u64,
        ranges: impl Iterator<Item = (usize, usize, Option<&'a [u64]>)> + Clone,
    ) -> Result<(), RuntimeError> {
        self.fill_ranges(open, fields, op, ranges, None, true)
    }

    /// Run the open batch [`CompiledSwitch::hold_ranges`] left in `open`,
    /// if it holds any packets, and empty it — also when it faults, so
    /// the faulted packets are neither run again nor appended to.
    pub fn run_held(&mut self, open: &mut BatchLanes) -> Result<(), RuntimeError> {
        if open.is_empty() {
            return Ok(());
        }
        let ran = self.run_lanes(open);
        open.begin(0);
        ran.map(drop)
    }

    /// The scattered twin of [`CompiledSwitch::run_ranges`]: run `n` `op`
    /// packets in order, packet `i` carrying the `(slot, word)` that
    /// `pair(i)` returns. When `collect` is given, every packet's result is
    /// appended to it in packet order.
    ///
    /// A batch is [`LANE_CHUNK`] lanes: the `op` column is written once per
    /// batch, and the slot and word columns a column at a time, each in one
    /// pass over the batch's pairs.
    /// `lanes` is the caller's reusable buffer, as for `run_ranges`. Each
    /// batch is emptied once it has run, on success and on a fault alike,
    /// so a later [`CompiledSwitch::hold_ranges`] into the same buffer
    /// starts a fresh batch instead of running these packets again.
    ///
    /// A slot that does not fit the slot field is rejected before any
    /// packet runs; slots past a register array fault in Phase C like any
    /// packet's, with the fault contract of `run_ranges`: the batches
    /// before the faulting one stay applied and collected, nothing of the
    /// faulting batch is collected, and of its packets those before the
    /// faulting one are applied (see [`CompiledSwitch::run_lanes`]). Panics
    /// if a field is not in this engine's layout.
    pub fn run_pairs(
        &mut self,
        lanes: &mut BatchLanes,
        fields: SlotFields,
        op: u64,
        n: usize,
        pair: impl Fn(usize) -> (usize, u64),
        mut collect: Option<&mut Vec<u64>>,
    ) -> Result<(), RuntimeError> {
        let slot_max = PhvLayout::mask(self.layout().spec(fields.slot).bits);
        if let Some((slot, _)) = (0..n).map(&pair).find(|&(s, _)| s as u64 > slot_max) {
            return Err(RuntimeError::IndexOutOfRange {
                detail: format!("slot {slot} overflows the slot field"),
            });
        }
        if lanes.capacity() == 0 {
            *lanes = BatchLanes::new(self.layout(), LANE_CHUNK.min(n.max(1)));
        }
        for from in (0..n).step_by(LANE_CHUNK) {
            let len = LANE_CHUNK.min(n - from);
            lanes.begin(len);
            lanes.fill(fields.op, 0, op);
            let packets = from..from + len;
            lanes.write_column(fields.slot, 0, packets.clone().map(|i| pair(i).0 as u64));
            lanes.write_column(fields.value, 0, packets.map(|i| pair(i).1));
            let ran = self.run_lanes(lanes);
            if let (Ok(_), Some(out)) = (&ran, collect.as_deref_mut()) {
                lanes.extend_from_column(fields.result, out);
            }
            lanes.begin(0);
            ran?;
        }
        Ok(())
    }

    /// The range lane loop: append the ranges' packets to the lanes in
    /// `lanes`, running every batch that fills up to [`LANE_CHUNK`] and —
    /// unless `hold` — the last one, however short.
    fn fill_ranges<'a>(
        &mut self,
        lanes: &mut BatchLanes,
        fields: SlotFields,
        op: u64,
        mut ranges: impl Iterator<Item = (usize, usize, Option<&'a [u64]>)> + Clone,
        mut collect: Option<&mut Vec<u64>>,
        hold: bool,
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
            let from = lanes.len();
            let len = LANE_CHUNK.min(from + left);
            lanes.extend_to(len);
            lanes.fill(fields.op, from, op);
            let mut at = from;
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
            left -= len - from;
            if hold && len < LANE_CHUNK {
                break;
            }
            let ran = self.run_lanes(lanes);
            if let (Ok(_), Some(out)) = (&ran, collect.as_deref_mut()) {
                lanes.extend_from_column(fields.result, out);
            }
            lanes.begin(0);
            ran?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, AluOp, Operand};
    use crate::register::{
        RegArrayId, RegisterArraySpec, SaluCond, SaluOutput, SaluUpdate, StatefulCall,
    };
    use crate::stage::Stage;
    use crate::switch::{Switch, SwitchCaps, SwitchProgram};
    use crate::table::Table;

    /// The counter's opcodes: bump a slot by one plus the value, or read it.
    const OP_BUMP: u64 = 0;
    const OP_READ: u64 = 1;

    /// A per-slot saturating counter over `entries` register entries behind
    /// a 16-bit slot field, so slots from `entries` up fault in Phase C.
    fn counter(entries: usize) -> (SwitchProgram, SlotFields) {
        let mut layout = PhvLayout::new();
        let slot = layout.field("slot", 16);
        let result = layout.field("count", 32);
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
                output: Some((result, SaluOutput::New)),
            });
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout,
            stages: vec![Stage::new().table(Table::always("count", bump))],
            arrays: vec![RegisterArraySpec {
                name: "pkt_count".into(),
                width_bits: 32,
                entries,
                stage: 0,
            }],
            recirc_field: None,
        };
        let fields = SlotFields {
            op,
            slot,
            value,
            result,
        };
        (program, fields)
    }

    /// Run `(op, slot, value)` packets one at a time on the interpreter,
    /// returning their results.
    fn interpret(
        sw: &mut Switch,
        fields: SlotFields,
        packets: impl Iterator<Item = (u64, usize, u64)>,
    ) -> Vec<u64> {
        let run = |(op, slot, value)| {
            let mut p = sw.phv();
            p.set(fields.op, op);
            p.set(fields.slot, slot as u64);
            p.set(fields.value, value);
            sw.run(&mut p).unwrap();
            p.get(fields.result)
        };
        packets.map(run).collect()
    }

    /// Calls of 0, 1, 63, 64, 65, `LANE_CHUNK - 1`, `LANE_CHUNK`,
    /// `LANE_CHUNK + 1` and `2 * LANE_CHUNK + 88` words with slots hit
    /// again by later calls (one open batch holds a slot twice), READs held
    /// between bumps, and the open batch run every fourth call: after every
    /// call exactly the packets of the batches that filled have run, each
    /// in order, and the rest is open.
    #[test]
    fn open_batch_fills_across_calls_like_the_interpreter() {
        const LONG: usize = 2 * LANE_CHUNK + 88;
        let (program, fields) = counter(LONG + 100);
        let words: Vec<u64> = (0..LONG as u64).map(|i| i * 7 % 11).collect();
        let calls = [
            (OP_BUMP, 5, 0),
            (OP_BUMP, 10, 1),
            (OP_BUMP, 0, 63),
            (OP_READ, 3, 64),
            (OP_BUMP, 40, 65),
            (OP_BUMP, 10, LANE_CHUNK - 1),
            (OP_READ, 100, LANE_CHUNK),
            (OP_BUMP, 30, LANE_CHUNK + 1),
            (OP_BUMP, 0, LONG),
            (OP_BUMP, 62, 64),
            (OP_BUMP, LONG, 65),
            (OP_BUMP, 1, 1),
        ];
        let mut interp = Switch::new(program.clone()).unwrap();
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        let mut open = BatchLanes::default();
        // Packets handed over but not yet seen to run, in order.
        let mut pending = std::collections::VecDeque::new();
        for (i, &(op, start, len)) in calls.iter().enumerate() {
            let w = &words[..len];
            cs.hold_ranges(
                &mut open,
                fields,
                op,
                std::iter::once((start, len, Some(w))),
            )
            .unwrap();
            pending.extend((0..len).map(|k| (op, start + k, w[k])));
            assert!(
                open.len() < LANE_CHUNK,
                "call {i}: a full batch stayed open"
            );
            if i % 4 == 3 {
                cs.run_held(&mut open).unwrap();
                assert!(open.is_empty(), "call {i}");
            }
            let ran = pending.len() - open.len();
            interpret(&mut interp, fields, pending.drain(..ran));
            assert_eq!(cs.register_state(), interp.register_state(), "call {i}");
        }
        cs.run_held(&mut open).unwrap();
        interpret(&mut interp, fields, pending.drain(..));
        assert_eq!(cs.register_state(), interp.register_state());
        // Nothing left to run: an empty open batch runs nothing.
        cs.run_held(&mut open).unwrap();
        assert_eq!(cs.register_state(), interp.register_state());
    }

    /// A batch that faults is never left open: not when `run_held` runs it,
    /// not when it fills up inside `hold_ranges` (and the rest of that call
    /// is not appended), so a fresh hold runs only its own packets. A range
    /// past the slot field is rejected before anything is appended.
    #[test]
    fn open_batch_that_faults_is_emptied() {
        // Entries of the counter: two full ranges leave 56 lanes of a batch.
        const E: usize = LANE_CHUNK / 2 - 28;
        let (program, fields) = counter(E);
        let words: Vec<u64> = (0..E as u64).map(|i| i % 5).collect();
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        let mut open = BatchLanes::default();
        let bump = |start: usize, len: usize| (start, len, Some(&words[..len]));

        // In-range lanes, then lanes past the array's end.
        let held = [bump(0, 50), bump(E - 10, 40)];
        cs.hold_ranges(&mut open, fields, OP_BUMP, held.into_iter())
            .unwrap();
        assert_eq!(open.len(), 90);
        let res = cs.run_held(&mut open);
        assert!(
            matches!(res, Err(RuntimeError::IndexOutOfRange { .. })),
            "{res:?}"
        );
        assert!(open.is_empty(), "run_held left the faulted batch open");

        // `2 * E` open, then 100 more: the filled batch's last 56 lanes
        // reach slots `E - 40..E + 16`, past the array from `E`.
        cs.hold_ranges(
            &mut open,
            fields,
            OP_BUMP,
            [bump(0, E), bump(0, E)].into_iter(),
        )
        .unwrap();
        assert_eq!(open.len(), LANE_CHUNK - 56);
        let res = cs.hold_ranges(&mut open, fields, OP_BUMP, [bump(E - 40, 100)].into_iter());
        assert!(
            matches!(res, Err(RuntimeError::IndexOutOfRange { .. })),
            "{res:?}"
        );
        assert!(open.is_empty(), "the filled batch stayed open");

        // Validation rejects a range past the slot field before appending.
        cs.hold_ranges(&mut open, fields, OP_BUMP, [bump(0, 10)].into_iter())
            .unwrap();
        let wraps = [bump(20, 5), (65_530, 10, None)];
        let res = cs.hold_ranges(&mut open, fields, OP_BUMP, wraps.into_iter());
        assert!(
            matches!(res, Err(RuntimeError::IndexOutOfRange { .. })),
            "{res:?}"
        );
        assert_eq!(open.len(), 10, "a rejected call appended packets");

        // From the state the faults left, a fresh hold and run matches the
        // interpreter on every register.
        let mut interp = Switch::new(program.clone()).unwrap();
        interp
            .set_register_state(cs.register_state().clone())
            .unwrap();
        interpret(&mut interp, fields, (0..10).map(|k| (OP_BUMP, k, words[k])));
        cs.hold_ranges(
            &mut open,
            fields,
            OP_BUMP,
            [bump(3, E - 3), bump(0, E)].into_iter(),
        )
        .unwrap();
        cs.run_held(&mut open).unwrap();
        interpret(
            &mut interp,
            fields,
            (0..E - 3).map(|k| (OP_BUMP, 3 + k, words[k])),
        );
        interpret(&mut interp, fields, (0..E).map(|k| (OP_BUMP, k, words[k])));
        assert_eq!(cs.register_state(), interp.register_state());
        assert!((0..E).any(|s| cs.register(RegArrayId(0), s) != 0));
    }

    /// Both lane loops leave the buffer empty, after a call that ran and
    /// after one that faulted, so a hold into the same buffer starts a
    /// fresh batch: a stale last batch of ADDs would run a second time.
    /// When a later batch of a call faults, the batches before it stay
    /// applied and collected, nothing of it is collected, and the registers
    /// are the interpreter's up to the faulting packet. A slot past the
    /// slot field runs nothing.
    #[test]
    fn pair_and_range_loops_leave_the_buffer_empty() {
        let (program, fields) = counter(100);
        let mut interp = Switch::new(program.clone()).unwrap();
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        let mut lanes = BatchLanes::default();
        let n = LANE_CHUNK + 5;
        let pair = |i: usize| (i * 7 % 100, (i % 3) as u64);
        cs.run_pairs(&mut lanes, fields, OP_BUMP, n, pair, None)
            .unwrap();
        assert!(lanes.is_empty(), "run_pairs left its last batch live");
        interpret(
            &mut interp,
            fields,
            (0..n).map(|i| (OP_BUMP, pair(i).0, pair(i).1)),
        );
        // Lane 3 of the last batch indexes past the array.
        let past = |i: usize| {
            if i == LANE_CHUNK + 3 {
                (100, 1)
            } else {
                pair(i)
            }
        };
        let mut out = vec![7];
        let res = cs.run_pairs(&mut lanes, fields, OP_BUMP, n, past, Some(&mut out));
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        assert!(lanes.is_empty(), "run_pairs left its faulted batch live");
        let bumps = (0..LANE_CHUNK + 3).map(|i| (OP_BUMP, pair(i).0, pair(i).1));
        let want = interpret(&mut interp, fields, bumps);
        assert_eq!((out[0], &out[1..]), (7, &want[..LANE_CHUNK]), "run_pairs");
        assert_eq!(cs.register_state(), interp.register_state(), "run_pairs");
        // Whole-space ranges filling the first batch, then one past the
        // array, which faults in the second.
        let whole = std::iter::repeat_n((0, 100, None), LANE_CHUNK / 100 + 1);
        let ranges = whole.clone().chain([(90, 20, None)]);
        let mut out = vec![7];
        let res = cs.run_ranges(&mut lanes, fields, OP_BUMP, ranges, Some(&mut out));
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        assert!(lanes.is_empty(), "run_ranges left its faulted batch live");
        let slots = whole.flat_map(|(s, len, _)| s..s + len).chain(90..100);
        let want = interpret(&mut interp, fields, slots.map(|s| (OP_BUMP, s, 0)));
        assert_eq!((out[0], &out[1..]), (7, &want[..LANE_CHUNK]), "run_ranges");
        assert_eq!(cs.register_state(), interp.register_state(), "run_ranges");
        // A slot past the 16-bit slot field is rejected before any packet
        // runs, instead of wrapping to slot 0.
        let wraps = [(10, 5, None), (65_530, 10, None)];
        let res = cs.run_ranges(&mut lanes, fields, OP_BUMP, wraps.into_iter(), None);
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        let pairs = [(10, 1), (65_536, 1)];
        let res = cs.run_pairs(&mut lanes, fields, OP_BUMP, 2, |i| pairs[i], None);
        assert!(matches!(res, Err(RuntimeError::IndexOutOfRange { .. })));
        // A hold into the buffer runs its own packets and nothing else.
        let words = [4u64; 30];
        cs.hold_ranges(
            &mut lanes,
            fields,
            OP_BUMP,
            [(0, 30, Some(&words[..]))].into_iter(),
        )
        .unwrap();
        assert_eq!(lanes.len(), 30);
        cs.run_held(&mut lanes).unwrap();
        interpret(&mut interp, fields, (0..30).map(|s| (OP_BUMP, s, 4)));
        assert_eq!(cs.register_state(), interp.register_state());
    }
}
