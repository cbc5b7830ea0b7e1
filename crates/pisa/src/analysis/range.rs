//! Value-range interval analysis over action op tapes.
//!
//! For every `(table, action)` pair the pass seeds each PHV field with
//! its full container range `[0, 2^bits - 1]`, narrows the ranges with
//! the table-entry key constraints that can select the action, then
//! abstractly executes the action's primitives in order with
//! conservative interval transfer functions that mirror the concrete
//! ALU semantics in [`crate::action::Primitive::execute`] (wrapping
//! adds, width-masked destination writes, ≥64 shift distances yielding
//! zero). The walk is per-action and flow-insensitive across tables —
//! sound for the checks below, which only ever *fail to prove*, never
//! assume.
//!
//! Emitted diagnostics:
//!
//! * `shift-always-overflows` (error) / `shift-may-overflow` (warning)
//!   — a `Shl`/`ShrLogic` distance provably ≥ 64 (the ALU pins the
//!   result to 0) or merely not provably < 64. The warning is the
//!   honest verdict for the extended-exponent pipelines, which shift by
//!   a computed 32-bit field; [`super::AnalysisReport::bounds_proven`]
//!   treats it as "not proven".
//! * `index-unproven` (warning) — a stateful slot index whose interval
//!   is not contained in `[0, entries)`. A shard plan's routing
//!   assumption can discharge this where plain interval reasoning
//!   cannot; see
//!   [`super::hazard::prove_shard_safety`].
//! * `unmatchable-entry`, `empty-range`, `unmatchable-ternary`,
//!   `bad-action-index` (errors) — installed entries that can never
//!   match a width-masked field value, or that name a missing action.
//! * `const-truncated` (warning) — a `Set` of a non-negative constant
//!   the destination width silently truncates. Negative constants are
//!   exempt: storing `-1` into a narrow field is the idiomatic
//!   all-ones mask.
//! * `const-compare` (info) — a comparison whose outcome is provably
//!   constant; together with the def-use pass's dead-write findings
//!   these are the analyzer's fusion candidates, cross-checked against
//!   [`crate::compile::FusionStats`] in the test suite.

use super::{Diagnostic, Loc, Severity};
use crate::action::{Action, AluOp, Operand};
use crate::switch::SwitchProgram;
use crate::table::{KeyMatch, Table};

const TOP64: Interval = Interval {
    lo: 0,
    hi: u64::MAX as u128,
};

/// An inclusive unsigned interval over raw 64-bit container values,
/// widened to `u128` so transfer functions never themselves overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u128,
    /// Inclusive upper bound.
    pub hi: u128,
}

impl Interval {
    /// The single-value interval `[v, v]`.
    pub fn constant(v: u64) -> Self {
        Interval {
            lo: v as u128,
            hi: v as u128,
        }
    }

    /// The full range of a `bits`-wide field.
    pub fn of_width(bits: u32) -> Self {
        Interval {
            lo: 0,
            hi: mask(bits),
        }
    }

    /// Whether the interval is the single value `v`.
    pub fn is_exactly(&self, v: u64) -> bool {
        self.lo == v as u128 && self.hi == v as u128
    }

    /// Interval union (convex hull).
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection; `None` when disjoint.
    pub fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Clamp to what a `bits`-wide destination write keeps: exact if the
    /// interval already fits, otherwise the full width (the masked wrap
    /// can land anywhere).
    fn store(self, bits: u32) -> Interval {
        if self.hi <= mask(bits) {
            self
        } else {
            Interval::of_width(bits)
        }
    }
}

fn mask(bits: u32) -> u128 {
    if bits >= 64 {
        u64::MAX as u128
    } else {
        (1u128 << bits) - 1
    }
}

/// Smallest all-ones value covering `v` (for `Or`/`Xor` bounds).
fn bit_cover(v: u128) -> u128 {
    if v == 0 {
        0
    } else {
        (u128::MAX >> v.leading_zeros()).min(u64::MAX as u128)
    }
}

/// The per-field abstract state of one action walk.
struct Env<'p> {
    program: &'p SwitchProgram,
    vals: Vec<Interval>,
}

impl<'p> Env<'p> {
    fn seeded(program: &'p SwitchProgram) -> Self {
        let vals = program
            .layout
            .iter()
            .map(|(_, spec)| Interval::of_width(spec.bits))
            .collect();
        Env { program, vals }
    }

    fn operand(&self, op: &Operand) -> Interval {
        match *op {
            Operand::Field(f) => self.vals[usize::from(f.0)],
            Operand::Const(c) => Interval::constant(c as u64),
        }
    }

    /// Whether the signed interpretation of this operand is provably
    /// the same as its raw value (needed before folding signed
    /// comparisons, which sign-extend fields from their declared
    /// width).
    fn provably_non_negative(&self, op: &Operand) -> bool {
        match *op {
            Operand::Const(c) => c >= 0,
            Operand::Field(f) => {
                let bits = self.program.layout.spec(f).bits;
                self.vals[usize::from(f.0)].hi < (mask(bits) / 2 + 1).max(1)
            }
        }
    }
}

/// Interval transfer for one primitive, mirroring the concrete ALU.
fn transfer(op: AluOp, a: Interval, b: Interval) -> Interval {
    match op {
        AluOp::Set => a,
        AluOp::Add => {
            let hi = a.hi + b.hi;
            if hi > u64::MAX as u128 {
                TOP64 // wrap possible
            } else {
                Interval {
                    lo: a.lo + b.lo,
                    hi,
                }
            }
        }
        AluOp::Sub => {
            if a.lo >= b.hi {
                Interval {
                    lo: a.lo - b.hi,
                    hi: a.hi - b.lo,
                }
            } else {
                TOP64 // borrow wraps
            }
        }
        AluOp::And => Interval {
            lo: 0,
            hi: a.hi.min(b.hi),
        },
        AluOp::Or | AluOp::Xor => Interval {
            lo: 0,
            hi: bit_cover(a.hi) | bit_cover(b.hi),
        },
        AluOp::Shl => {
            if b.lo == b.hi && b.lo < 64 {
                let d = b.lo as u32;
                let hi = a.hi << d;
                if hi <= u64::MAX as u128 {
                    return Interval { lo: a.lo << d, hi };
                }
            }
            TOP64
        }
        AluOp::ShrLogic => Interval {
            lo: 0,
            hi: a.hi >> b.lo.min(63),
        },
        AluOp::ShrArith => TOP64, // sign extension can set high bits
        AluOp::CmpEq | AluOp::CmpNe | AluOp::CmpLt | AluOp::CmpLe | AluOp::CmpGt | AluOp::CmpGe => {
            Interval { lo: 0, hi: 1 }
        }
    }
}

/// Entry-key refinement: the interval of values of key field `slot`
/// that can select `action_idx`, or `None` when the action is
/// unreachable through the entries (default-only).
fn key_refinement(table: &Table, key_slot: usize, action_idx: usize) -> Option<Interval> {
    let mut joined: Option<Interval> = None;
    for entry in &table.entries {
        if entry.action != action_idx {
            continue;
        }
        let iv = match entry.key.get(key_slot) {
            Some(KeyMatch::Exact(v)) => Interval::constant(*v),
            Some(KeyMatch::Range { lo, hi }) => Interval {
                lo: *lo as u128,
                hi: *hi as u128,
            },
            _ => TOP64, // ternary/wildcard: no useful bound
        };
        joined = Some(joined.map_or(iv, |j| j.join(iv)));
    }
    joined
}

pub(super) fn run(program: &SwitchProgram, diags: &mut Vec<Diagnostic>) {
    for (si, stage) in program.stages.iter().enumerate() {
        for table in &stage.tables {
            check_entries(program, si, table, diags);
            for (ai, action) in table.actions.iter().enumerate() {
                let mut env = Env::seeded(program);
                // Narrow key fields by the entries that can pick this
                // action — unless it is also the default action, which
                // runs on miss with unconstrained fields.
                if table.default_action != Some(ai) {
                    for (slot, &(f, _)) in table.keys.iter().enumerate() {
                        if let Some(refined) = key_refinement(table, slot, ai) {
                            let fi = usize::from(f.0);
                            if let Some(m) = env.vals[fi].meet(refined) {
                                env.vals[fi] = m;
                            }
                        }
                    }
                }
                walk_action(program, si, table, action, &mut env, diags);
            }
        }
    }
}

fn walk_action(
    program: &SwitchProgram,
    si: usize,
    table: &Table,
    action: &Action,
    env: &mut Env<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    let loc_op = |i: usize| Loc::op(si, &table.name, &action.name, i);
    for (pi, prim) in action.primitives.iter().enumerate() {
        let a = env.operand(&prim.a);
        let b = env.operand(&prim.b);
        match prim.op {
            AluOp::Shl | AluOp::ShrLogic => {
                if b.lo >= 64 {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        pass: "range",
                        code: "shift-always-overflows",
                        loc: loc_op(pi),
                        message: format!(
                            "shift distance is provably ≥ 64 (interval [{}, {}]); \
                             the ALU pins the result to 0",
                            b.lo, b.hi
                        ),
                    });
                } else if b.hi >= 64 {
                    diags.push(Diagnostic {
                        severity: Severity::Warning,
                        pass: "range",
                        code: "shift-may-overflow",
                        loc: loc_op(pi),
                        message: format!(
                            "shift distance not provably < 64 (interval [{}, {}]); \
                             distances ≥ 64 zero the result",
                            b.lo, b.hi
                        ),
                    });
                }
            }
            AluOp::Set => {
                if let Operand::Const(c) = prim.a {
                    let bits = program.layout.spec(prim.dst).bits;
                    if c >= 0 && (c as u64 as u128) > mask(bits) {
                        diags.push(Diagnostic {
                            severity: Severity::Warning,
                            pass: "range",
                            code: "const-truncated",
                            loc: loc_op(pi),
                            message: format!(
                                "constant {c} does not fit the {bits}-bit destination \
                                 `{}` and will be truncated",
                                program.layout.spec(prim.dst).name
                            ),
                        });
                    }
                }
            }
            // Fold only when sign extension provably cannot flip either
            // operand negative.
            AluOp::CmpEq
            | AluOp::CmpNe
            | AluOp::CmpLt
            | AluOp::CmpLe
            | AluOp::CmpGt
            | AluOp::CmpGe
                if env.provably_non_negative(&prim.a) && env.provably_non_negative(&prim.b) =>
            {
                let verdict = match prim.op {
                    AluOp::CmpEq if a.lo == a.hi && a == b => Some(true),
                    AluOp::CmpEq if a.meet(b).is_none() => Some(false),
                    AluOp::CmpNe if a.meet(b).is_none() => Some(true),
                    AluOp::CmpNe if a.lo == a.hi && a == b => Some(false),
                    AluOp::CmpLt if a.hi < b.lo => Some(true),
                    AluOp::CmpLt if a.lo >= b.hi => Some(false),
                    AluOp::CmpLe if a.hi <= b.lo => Some(true),
                    AluOp::CmpLe if a.lo > b.hi => Some(false),
                    AluOp::CmpGt if a.lo > b.hi => Some(true),
                    AluOp::CmpGt if a.hi <= b.lo => Some(false),
                    AluOp::CmpGe if a.lo >= b.hi => Some(true),
                    AluOp::CmpGe if a.hi < b.lo => Some(false),
                    _ => None,
                };
                if let Some(v) = verdict {
                    diags.push(Diagnostic {
                        severity: Severity::Info,
                        pass: "range",
                        code: "const-compare",
                        loc: loc_op(pi),
                        message: format!(
                            "comparison is provably always {} — fusion candidate",
                            u64::from(v)
                        ),
                    });
                }
            }
            _ => {}
        }
        let bits = program.layout.spec(prim.dst).bits;
        env.vals[usize::from(prim.dst.0)] = transfer(prim.op, a, b).store(bits);
    }
    for call in &action.stateful {
        let Some(spec) = program.arrays.get(usize::from(call.array.0)) else {
            continue; // hazard pass reports unknown arrays
        };
        let idx = env.operand(&call.index);
        if idx.hi >= spec.entries as u128 {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                pass: "range",
                code: "index-unproven",
                loc: Loc::action(si, &table.name, &action.name),
                message: format!(
                    "index interval [{}, {}] into array `{}` not provably within its \
                     {} entries; out-of-range values fault at runtime (a shard-safety \
                     proof can discharge this for partitioned deployments)",
                    idx.lo, idx.hi, spec.name, spec.entries
                ),
            });
        }
    }
}

/// Entry-level matchability and indexing checks.
fn check_entries(program: &SwitchProgram, si: usize, table: &Table, diags: &mut Vec<Diagnostic>) {
    let loc = || Loc::table(si, &table.name);
    if let Some(d) = table.default_action {
        if d >= table.actions.len() {
            diags.push(Diagnostic {
                severity: Severity::Error,
                pass: "range",
                code: "bad-action-index",
                loc: loc(),
                message: format!(
                    "default action index {d} out of range ({} actions)",
                    table.actions.len()
                ),
            });
        }
    }
    for (ei, entry) in table.entries.iter().enumerate() {
        if entry.action >= table.actions.len() {
            diags.push(Diagnostic {
                severity: Severity::Error,
                pass: "range",
                code: "bad-action-index",
                loc: loc(),
                message: format!(
                    "entry {ei} names action index {} out of range ({} actions)",
                    entry.action,
                    table.actions.len()
                ),
            });
        }
        for (slot, &(f, _)) in table.keys.iter().enumerate() {
            let bits = program.layout.spec(f).bits;
            let fname = &program.layout.spec(f).name;
            match entry.key.get(slot) {
                Some(KeyMatch::Exact(v)) if (*v as u128) > mask(bits) => {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        pass: "range",
                        code: "unmatchable-entry",
                        loc: loc(),
                        message: format!(
                            "entry {ei}: exact pattern {v} exceeds the {bits}-bit \
                             width of key `{fname}` — it can never match"
                        ),
                    });
                }
                Some(KeyMatch::Range { lo, hi }) => {
                    if lo > hi {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            pass: "range",
                            code: "empty-range",
                            loc: loc(),
                            message: format!(
                                "entry {ei}: range [{lo}, {hi}] on key `{fname}` is empty"
                            ),
                        });
                    } else if (*lo as u128) > mask(bits) {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            pass: "range",
                            code: "unmatchable-entry",
                            loc: loc(),
                            message: format!(
                                "entry {ei}: range [{lo}, {hi}] lies entirely above the \
                                 {bits}-bit width of key `{fname}` — it can never match"
                            ),
                        });
                    }
                }
                Some(KeyMatch::Ternary { value, mask: m })
                    if ((value & m) as u128) & !mask(bits) != 0 =>
                {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        pass: "range",
                        code: "unmatchable-ternary",
                        loc: loc(),
                        message: format!(
                            "entry {ei}: ternary pattern requires bits above the \
                             {bits}-bit width of key `{fname}` — it can never match"
                        ),
                    });
                }
                _ => {}
            }
        }
    }
}
