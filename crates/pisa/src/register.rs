//! Register arrays and the stateful ALUs that guard them.
//!
//! State in a PISA pipeline lives in **register arrays**: SRAM blocks of
//! fixed-width entries, each bound to one stage, accessed through a
//! **stateful ALU** that performs a single read-modify-write per packet —
//! the paper's **RAW** (read-add-write) constraint. A packet cannot touch
//! the same array twice (there is no second access port and the packet has
//! left the stage), which is exactly why FPISA-A exists: without hardware
//! help the *stored* mantissa can never be shifted in the same pass that
//! adds to it.
//!
//! The proposed **RSAW** (read-shift-add-write) extension is modelled as
//! [`SaluUpdate::ShiftRightAddSat`] and is only admitted when the switch
//! capability profile enables it ([`crate::switch::SwitchCaps::rsaw`]).
//!
//! The stateful ALU itself follows the shape of real hardware (Tofino's
//! dual-predicate SALU): a condition over the stored value and packet
//! metadata selects one of two update expressions, and the old or new value
//! can be emitted into a PHV field.

use crate::action::Operand;
use crate::phv::{sign_extend, FieldId, Phv};
use crate::switch::RuntimeError;
use serde::{Deserialize, Serialize};

/// Index of a register array within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegArrayId(pub u16);

/// Declaration of one register array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterArraySpec {
    /// Diagnostic name (unique within a program).
    pub name: String,
    /// Entry width in bits (1..=64; 8/16/32 on real hardware).
    pub width_bits: u32,
    /// Number of entries.
    pub entries: usize,
    /// The stage this array is bound to. A packet meets each array exactly
    /// once, in this stage.
    pub stage: usize,
}

impl RegisterArraySpec {
    /// Total storage of this array in bits.
    pub fn total_bits(&self) -> u64 {
        self.width_bits as u64 * self.entries as u64
    }
}

/// Comparison operators available to SALU conditions (signed, at the
/// register width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// The predicate selecting between a stateful call's two updates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SaluCond {
    /// Always take the true branch.
    Always,
    /// True iff the named PHV field is non-zero.
    MetaNonZero(FieldId),
    /// Compare the stored register value (sign-extended from the array
    /// width) against an operand.
    RegCmp {
        /// Comparison operator.
        cmp: CmpOp,
        /// Right-hand side (signed evaluation).
        rhs: Operand,
    },
    /// Disjunction — the second predicate ALU of a dual-predicate SALU.
    Or(Box<SaluCond>, Box<SaluCond>),
    /// Conjunction.
    And(Box<SaluCond>, Box<SaluCond>),
}

impl SaluCond {
    fn eval(&self, stored: i64, phv: &Phv) -> bool {
        match self {
            SaluCond::Always => true,
            SaluCond::MetaNonZero(f) => phv.get(*f) != 0,
            SaluCond::RegCmp { cmp, rhs } => cmp.eval(stored, rhs.signed(phv)),
            SaluCond::Or(a, b) => a.eval(stored, phv) || b.eval(stored, phv),
            SaluCond::And(a, b) => a.eval(stored, phv) && b.eval(stored, phv),
        }
    }

    /// Number of primitive predicates — real SALUs provide two; the
    /// validator warns past that via the resource report.
    pub fn predicate_count(&self) -> u32 {
        match self {
            SaluCond::Always => 0,
            SaluCond::MetaNonZero(_) | SaluCond::RegCmp { .. } => 1,
            SaluCond::Or(a, b) | SaluCond::And(a, b) => a.predicate_count() + b.predicate_count(),
        }
    }
}

/// The update expression a stateful ALU applies to the stored value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SaluUpdate {
    /// Leave the stored value unchanged (pure read).
    Keep,
    /// Replace the stored value.
    Write(Operand),
    /// `stored + operand`, saturating at the signed range of the width —
    /// the RAW unit of Table 1.
    AddSat(Operand),
    /// `stored + operand`, wrapping at the width.
    AddWrap(Operand),
    /// Arithmetic-right-shift the **stored** value by a metadata-sourced
    /// distance, then add saturating — the proposed RSAW unit. Requires
    /// [`crate::switch::SwitchCaps::rsaw`].
    ShiftRightAddSat {
        /// Shift distance (raw evaluation; distances past the width
        /// collapse to the sign fill, like a barrel-shifter chain).
        shift: Operand,
        /// Addend (signed evaluation).
        addend: Operand,
    },
    /// `max(stored, operand)` signed.
    MaxSigned(Operand),
    /// `min(stored, operand)` signed.
    MinSigned(Operand),
}

impl SaluUpdate {
    /// Whether this update needs the RSAW hardware extension.
    pub fn needs_rsaw(&self) -> bool {
        matches!(self, SaluUpdate::ShiftRightAddSat { .. })
    }

    fn apply(&self, stored: i64, width: u32, phv: &Phv) -> i64 {
        let (min, max) = width_bounds(width);
        match *self {
            SaluUpdate::Keep => stored,
            SaluUpdate::Write(op) => truncate(op.signed(phv), width),
            SaluUpdate::AddSat(op) => saturating(stored as i128 + op.signed(phv) as i128, min, max),
            SaluUpdate::AddWrap(op) => truncate(stored.wrapping_add(op.signed(phv)), width),
            SaluUpdate::ShiftRightAddSat { shift, addend } => {
                let d = shift.raw(phv).min(63) as u32;
                let shifted = stored >> d;
                saturating(shifted as i128 + addend.signed(phv) as i128, min, max)
            }
            SaluUpdate::MaxSigned(op) => stored.max(truncate(op.signed(phv), width)),
            SaluUpdate::MinSigned(op) => stored.min(truncate(op.signed(phv), width)),
        }
    }
}

#[inline(always)]
pub(crate) fn truncate(v: i64, width: u32) -> i64 {
    sign_extend(v as u64 & crate::phv::PhvLayout::mask(width), width)
}

/// Signed `(min, max)` representable at `width` bits — the saturation
/// bounds every execution engine must share.
#[inline(always)]
pub(crate) fn width_bounds(width: u32) -> (i64, i64) {
    if width >= 64 {
        (i64::MIN, i64::MAX)
    } else {
        (-(1i64 << (width - 1)), (1i64 << (width - 1)) - 1)
    }
}

#[inline(always)]
pub(crate) fn saturating(v: i128, min: i64, max: i64) -> i64 {
    if v > max as i128 {
        max
    } else if v < min as i128 {
        min
    } else {
        v as i64
    }
}

/// Which value a stateful call emits into the PHV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SaluOutput {
    /// The stored value *before* the update (what RAW units forward).
    Old,
    /// The stored value *after* the update.
    New,
    /// 1 if the condition held, else 0.
    Predicate,
}

/// One stateful-ALU invocation attached to an action: the single
/// read-modify-write a packet performs on one register array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatefulCall {
    /// The register array accessed.
    pub array: RegArrayId,
    /// Entry index (raw evaluation; out of range is a runtime error).
    pub index: Operand,
    /// Predicate selecting between the two updates.
    pub cond: SaluCond,
    /// Update applied when the predicate holds.
    pub on_true: SaluUpdate,
    /// Update applied otherwise.
    pub on_false: SaluUpdate,
    /// Optional PHV output of the access.
    pub output: Option<(FieldId, SaluOutput)>,
}

impl StatefulCall {
    /// Whether either arm needs the RSAW extension.
    pub fn needs_rsaw(&self) -> bool {
        self.on_true.needs_rsaw() || self.on_false.needs_rsaw()
    }
}

/// A contiguous range of register entries — the unit the dataplane is
/// partitioned by. Slot `s` belongs to the range iff
/// `start <= s < start + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SlotRange {
    /// First slot of the range.
    pub start: usize,
    /// Number of slots.
    pub len: usize,
}

impl SlotRange {
    /// A range covering `start..start + len`.
    pub fn new(start: usize, len: usize) -> Self {
        SlotRange { start, len }
    }

    /// One past the last slot.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Whether a slot falls inside this range.
    pub fn contains(&self, slot: usize) -> bool {
        slot >= self.start && slot < self.end()
    }
}

/// Check that `ranges` partitions `0..total` exactly once — contiguous,
/// ascending, no gap, no overlap, nothing past the end. This is the
/// invariant a [`crate::ShardPlan`] is checked against: a slot belongs to
/// exactly one shard.
pub fn check_partition(total: usize, ranges: &[SlotRange]) -> Result<(), RuntimeError> {
    let mut next = 0usize;
    for (i, r) in ranges.iter().enumerate() {
        if r.len == 0 {
            return Err(range_error(format!("shard range {i} is empty")));
        }
        if r.start != next {
            return Err(range_error(format!(
                "shard range {i} starts at {} but slot {} is the next uncovered \
                 (gap or overlap in the partition)",
                r.start, next
            )));
        }
        next = match r.start.checked_add(r.len) {
            Some(end) if end <= total => end,
            _ => {
                return Err(range_error(format!(
                    "shard range {i} ({}+{}) runs past the {total}-slot space",
                    r.start, r.len
                )))
            }
        };
    }
    if next != total {
        return Err(range_error(format!(
            "shard ranges cover slots 0..{next} but the space has {total}"
        )));
    }
    Ok(())
}

fn range_error(detail: String) -> RuntimeError {
    RuntimeError::IndexOutOfRange { detail }
}

/// Per-array geometry inside a [`RegisterState`]: the slice bounds in the
/// flat value file plus the pre-computed width/saturation metadata the
/// execution engines need per access.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ArrayMeta {
    /// First entry of this array in the flat file.
    pub(crate) offset: usize,
    /// Number of entries.
    pub(crate) entries: usize,
    /// Entry width in bits.
    pub(crate) width: u32,
    /// Smallest representable signed value at the width.
    pub(crate) min: i64,
    /// Largest representable signed value at the width.
    pub(crate) max: i64,
    /// For runtime error messages only.
    pub(crate) name: String,
}

/// The flat register file of one switch: every register array's entries,
/// back to back. Both execution engines ([`crate::Switch`] and
/// [`crate::CompiledSwitch`]) store their state in a `RegisterState`, so
/// state can be compared and moved between them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegisterState {
    metas: Vec<ArrayMeta>,
    values: Vec<i64>,
}

impl RegisterState {
    /// Zero-initialized state for a set of array declarations.
    pub fn new(specs: &[RegisterArraySpec]) -> Self {
        let mut metas = Vec::with_capacity(specs.len());
        let mut total = 0usize;
        for spec in specs {
            let (min, max) = width_bounds(spec.width_bits);
            metas.push(ArrayMeta {
                offset: total,
                entries: spec.entries,
                width: spec.width_bits,
                min,
                max,
                name: spec.name.clone(),
            });
            total += spec.entries;
        }
        RegisterState {
            metas,
            values: vec![0; total],
        }
    }

    /// Number of register arrays.
    pub fn arrays(&self) -> usize {
        self.metas.len()
    }

    /// Number of entries in one array.
    pub fn entries(&self, id: RegArrayId) -> usize {
        self.metas[id.0 as usize].entries
    }

    /// Total entries across all arrays.
    pub fn total_entries(&self) -> usize {
        self.values.len()
    }

    /// Control-plane read of one entry (sign-extended at the array width).
    /// Panics on out-of-range indices, like indexing.
    pub fn get(&self, id: RegArrayId, index: usize) -> i64 {
        let meta = &self.metas[id.0 as usize];
        assert!(index < meta.entries, "index out of range");
        self.values[meta.offset + index]
    }

    /// Control-plane write of one entry, truncating to the array width.
    /// Panics on out-of-range indices, like indexing.
    pub fn set(&mut self, id: RegArrayId, index: usize, value: i64) {
        let meta = &self.metas[id.0 as usize];
        assert!(index < meta.entries, "index out of range");
        self.values[meta.offset + index] = truncate(value, meta.width);
    }

    /// Control-plane write of `value` into entries `start..start + len` of
    /// one array, truncating to its width: one range check and one slice
    /// fill — how a protocol resets a chunk of slots between rounds.
    /// Panics on an out-of-range span, like indexing.
    pub fn fill_range(&mut self, id: RegArrayId, start: usize, len: usize, value: i64) {
        let meta = &self.metas[id.0 as usize];
        let end = start.checked_add(len).filter(|&e| e <= meta.entries);
        let end = end.expect("index range out of range");
        self.values[meta.offset + start..meta.offset + end].fill(truncate(value, meta.width));
    }

    /// The metadata and mutable value file, split for the compiled
    /// engine's hot loop (which needs both at once).
    pub(crate) fn parts_mut(&mut self) -> (&[ArrayMeta], &mut [i64]) {
        (&self.metas, &mut self.values)
    }

    /// Whether two states have identical geometry (same arrays, widths,
    /// entry counts) — the precondition for moving values between them.
    pub fn same_shape(&self, other: &RegisterState) -> bool {
        self.metas.len() == other.metas.len()
            && self
                .metas
                .iter()
                .zip(&other.metas)
                .all(|(a, b)| a.entries == b.entries && a.width == b.width)
    }

    /// Execute one stateful call against the state (the interpreter's
    /// register access). Returns the entry index touched, or an error
    /// message for out-of-range indices.
    pub(crate) fn execute(&mut self, call: &StatefulCall, phv: &mut Phv) -> Result<usize, String> {
        let meta = &self.metas[call.array.0 as usize];
        let idx = call.index.raw(phv) as usize;
        if idx >= meta.entries {
            return Err(format!(
                "index {idx} out of range for register array `{}` ({} entries)",
                meta.name, meta.entries
            ));
        }
        let slot = meta.offset + idx;
        let old = self.values[slot];
        let taken = call.cond.eval(old, phv);
        let update = if taken { &call.on_true } else { &call.on_false };
        let new = update.apply(old, meta.width, phv);
        self.values[slot] = new;
        if let Some((f, out)) = call.output {
            let v = match out {
                SaluOutput::Old => old as u64,
                SaluOutput::New => new as u64,
                SaluOutput::Predicate => taken as u64,
            };
            phv.set(f, v);
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::PhvLayout;

    /// One 4-entry array of `width` bits behind the flat register file,
    /// with array id 0 (what the tests' calls reference).
    fn arr(width: u32) -> RegisterState {
        RegisterState::new(&[RegisterArraySpec {
            name: "r".into(),
            width_bits: width,
            entries: 4,
            stage: 0,
        }])
    }

    const R: RegArrayId = RegArrayId(0);

    fn phv1() -> (PhvLayout, FieldId, FieldId) {
        let mut l = PhvLayout::new();
        let x = l.field("x", 32);
        let out = l.field("out", 32);
        (l, x, out)
    }

    #[test]
    fn fill_range_equals_per_entry_sets_and_leaves_the_rest() {
        let specs: Vec<RegisterArraySpec> = [(8u32, 10usize), (32, 7)]
            .iter()
            .enumerate()
            .map(|(i, &(width_bits, entries))| RegisterArraySpec {
                name: format!("r{i}"),
                width_bits,
                entries,
                stage: i,
            })
            .collect();
        for (id, entries) in [(RegArrayId(0), 10usize), (RegArrayId(1), 7)] {
            // Every span of the array, the empty ones included; the value
            // does not fit the 8-bit array and must truncate like `set`.
            for start in 0..=entries {
                for len in 0..=entries - start {
                    let mut filled = RegisterState::new(&specs);
                    for a in 0..2u16 {
                        for i in 0..filled.entries(RegArrayId(a)) {
                            filled.set(RegArrayId(a), i, 40 + i as i64);
                        }
                    }
                    let mut looped = filled.clone();
                    filled.fill_range(id, start, len, 0x1_7F);
                    for i in start..start + len {
                        looped.set(id, i, 0x1_7F);
                    }
                    assert_eq!(filled, looped, "{id:?} {start}+{len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fill_range_past_the_array_panics_like_indexing() {
        // One past array 0's end would land in array 1 of the flat file.
        let mut r = RegisterState::new(&[
            RegisterArraySpec {
                name: "a".into(),
                width_bits: 8,
                entries: 4,
                stage: 0,
            },
            RegisterArraySpec {
                name: "b".into(),
                width_bits: 8,
                entries: 4,
                stage: 1,
            },
        ]);
        r.fill_range(RegArrayId(0), 2, 3, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fill_range_with_an_overflowing_span_panics() {
        arr(8).fill_range(R, 2, usize::MAX, 1);
    }

    #[test]
    fn raw_add_saturates_at_width() {
        let (l, x, _) = phv1();
        let mut p = Phv::new(&l);
        let mut r = arr(8);
        r.set(R, 0, 120);
        p.set(x, 50);
        let call = StatefulCall {
            array: RegArrayId(0),
            index: Operand::Const(0),
            cond: SaluCond::Always,
            on_true: SaluUpdate::AddSat(Operand::Field(x)),
            on_false: SaluUpdate::Keep,
            output: None,
        };
        r.execute(&call, &mut p).unwrap();
        assert_eq!(r.get(R, 0), 127, "8-bit signed saturation");
        r.set(R, 1, -120);
        p.set_signed(x, -50);
        let call = StatefulCall {
            index: Operand::Const(1),
            ..call
        };
        r.execute(&call, &mut p).unwrap();
        assert_eq!(r.get(R, 1), -128);
    }

    #[test]
    fn condition_selects_update_and_outputs_old() {
        let (l, x, out) = phv1();
        let mut p = Phv::new(&l);
        let mut r = arr(32);
        r.set(R, 2, 7);
        p.set(x, 100);
        let call = StatefulCall {
            array: RegArrayId(0),
            index: Operand::Const(2),
            cond: SaluCond::RegCmp {
                cmp: CmpOp::Lt,
                rhs: Operand::Field(x),
            },
            on_true: SaluUpdate::Write(Operand::Field(x)),
            on_false: SaluUpdate::Keep,
            output: Some((out, SaluOutput::Old)),
        };
        r.execute(&call, &mut p).unwrap();
        assert_eq!(r.get(R, 2), 100, "7 < 100 -> write");
        assert_eq!(p.get(out), 7, "old value forwarded");
        // Second offer, smaller: condition false, keep.
        p.set(x, 50);
        r.execute(&call, &mut p).unwrap();
        assert_eq!(r.get(R, 2), 100);
        assert_eq!(p.get(out), 100);
    }

    #[test]
    fn rsaw_shifts_stored_then_adds() {
        let (l, x, _) = phv1();
        let mut p = Phv::new(&l);
        let mut r = arr(32);
        r.set(R, 0, 0b11000);
        p.set(x, 5);
        let call = StatefulCall {
            array: RegArrayId(0),
            index: Operand::Const(0),
            cond: SaluCond::Always,
            on_true: SaluUpdate::ShiftRightAddSat {
                shift: Operand::Const(3),
                addend: Operand::Field(x),
            },
            on_false: SaluUpdate::Keep,
            output: None,
        };
        assert!(call.needs_rsaw());
        r.execute(&call, &mut p).unwrap();
        assert_eq!(r.get(R, 0), 0b11 + 5);
    }

    #[test]
    fn rsaw_shift_of_negative_value_sign_fills() {
        let (l, x, _) = phv1();
        let mut p = Phv::new(&l);
        p.set(x, 0);
        let mut r = arr(32);
        r.set(R, 0, -16);
        let call = StatefulCall {
            array: RegArrayId(0),
            index: Operand::Const(0),
            cond: SaluCond::Always,
            on_true: SaluUpdate::ShiftRightAddSat {
                shift: Operand::Const(200),
                addend: Operand::Field(x),
            },
            on_false: SaluUpdate::Keep,
            output: None,
        };
        r.execute(&call, &mut p).unwrap();
        assert_eq!(
            r.get(R, 0),
            -1,
            "distance past the width collapses to sign fill"
        );
    }

    #[test]
    fn dual_predicate_or_condition() {
        let (l, x, out) = phv1();
        let mut p = Phv::new(&l);
        let mut r = arr(32);
        r.set(R, 0, 0);
        p.set(x, 42);
        // reg == 0 OR reg < x - exactly the FPISA-A install-or-overwrite shape.
        let cond = SaluCond::Or(
            Box::new(SaluCond::RegCmp {
                cmp: CmpOp::Eq,
                rhs: Operand::Const(0),
            }),
            Box::new(SaluCond::RegCmp {
                cmp: CmpOp::Lt,
                rhs: Operand::Field(x),
            }),
        );
        assert_eq!(cond.predicate_count(), 2);
        let call = StatefulCall {
            array: RegArrayId(0),
            index: Operand::Const(0),
            cond,
            on_true: SaluUpdate::Write(Operand::Field(x)),
            on_false: SaluUpdate::Keep,
            output: Some((out, SaluOutput::Predicate)),
        };
        r.execute(&call, &mut p).unwrap();
        assert_eq!(r.get(R, 0), 42);
        assert_eq!(p.get(out), 1);
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let (l, _x, _) = phv1();
        let mut p = Phv::new(&l);
        let mut r = arr(32);
        let call = StatefulCall {
            array: RegArrayId(0),
            index: Operand::Const(99),
            cond: SaluCond::Always,
            on_true: SaluUpdate::Keep,
            on_false: SaluUpdate::Keep,
            output: None,
        };
        assert!(r.execute(&call, &mut p).is_err());
    }
}
