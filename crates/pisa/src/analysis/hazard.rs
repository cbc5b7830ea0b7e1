//! Register hazard analysis: a static proof of the RAW restriction, the
//! gated RSAW extension, array/stage binding, and shard-partition
//! safety.
//!
//! The paper's central hardware constraint (§3.1) is that a stateful
//! register array supports exactly **one** read-modify-write per packet
//! per pass. The builder checks the easy structural half
//! ([`SwitchProgram::validate`] rejects two calls in one action) and the
//! interpreter enforces the rest dynamically with a per-pass `touched`
//! bitmap that turns the second access into
//! [`crate::switch::RuntimeError::RawViolation`] — at runtime, per
//! packet. This pass proves the property (or pinpoints the violation)
//! before any packet exists:
//!
//! * Two calls to one array from a single action (`raw-same-action`) or
//!   from two different tables (`raw-multi-table`) can both fire for one
//!   packet — the first is certain, the second is possible for any
//!   packet matching both tables, and neither can be expressed as one
//!   read-modify-write. Calls from *sibling actions of one table* are
//!   fine: a lookup selects at most one action.
//! * An array used from a stage other than the one it is bound to
//!   (`stage-binding`) aliases state across stages the hardware keeps
//!   physically separate.
//! * [`crate::register::SaluUpdate::ShiftRightAddSat`] on a profile
//!   without the RSAW extension (`rsaw-unsupported`).
//!
//! [`prove_shard_safety`] is the partition-level companion: given the
//! routing field of a [`crate::shard::ShardPlan`], it proves that **no
//! stateful index can leave the shard's slot space** provided the routing
//! field itself is in range — a pipe that owns a slot range never touches
//! another pipe's registers. A [`ShardSafetyProof`] is only constructible
//! through that proof, so holding one *is* the evidence, and
//! [`crate::shard::ShardPlan::prove`] records it at build time.

use super::{Diagnostic, Loc, Severity};
use crate::action::Operand;
use crate::phv::FieldId;
use crate::switch::SwitchProgram;

/// Run the hazard pass; findings are appended to `diags`.
pub(super) fn run(program: &SwitchProgram, diags: &mut Vec<Diagnostic>) {
    // Per-array access sites, at (flat table index, stage, table name,
    // action name) granularity.
    let mut sites: Vec<Vec<(usize, usize, String, String)>> =
        vec![Vec::new(); program.arrays.len()];
    let mut flat = 0usize;
    for (si, stage) in program.stages.iter().enumerate() {
        for table in &stage.tables {
            for action in &table.actions {
                let mut in_action: Vec<u16> = Vec::new();
                for call in &action.stateful {
                    let a = usize::from(call.array.0);
                    let Some(spec) = program.arrays.get(a) else {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            pass: "hazard",
                            code: "unknown-array",
                            loc: Loc::action(si, &table.name, &action.name),
                            message: format!(
                                "stateful call references undeclared register array id {}",
                                call.array.0
                            ),
                        });
                        continue;
                    };
                    if spec.stage != si {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            pass: "hazard",
                            code: "stage-binding",
                            loc: Loc::action(si, &table.name, &action.name),
                            message: format!(
                                "array `{}` is bound to stage {} but accessed from stage {si} \
                                 — cross-stage register aliasing",
                                spec.name, spec.stage
                            ),
                        });
                    }
                    if call.needs_rsaw() && !program.caps.rsaw {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            pass: "hazard",
                            code: "rsaw-unsupported",
                            loc: Loc::action(si, &table.name, &action.name),
                            message: format!(
                                "read-shift-add-write update on array `{}` needs the RSAW \
                                 extension, which this capability profile does not grant",
                                spec.name
                            ),
                        });
                    }
                    if in_action.contains(&call.array.0) {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            pass: "hazard",
                            code: "raw-same-action",
                            loc: Loc::action(si, &table.name, &action.name),
                            message: format!(
                                "action accesses array `{}` twice — impossible in a single \
                                 read-modify-write (RAW restriction)",
                                spec.name
                            ),
                        });
                    }
                    in_action.push(call.array.0);
                    sites[a].push((flat, si, table.name.clone(), action.name.clone()));
                }
            }
            flat += 1;
        }
    }

    // Cross-table RAW: one packet can match both tables, producing two
    // accesses in one pass. Sibling actions of one table are mutually
    // exclusive and safe.
    for (a, spec) in program.arrays.iter().enumerate() {
        let mut tables: Vec<usize> = sites[a].iter().map(|&(t, ..)| t).collect();
        tables.sort_unstable();
        tables.dedup();
        if tables.len() > 1 {
            let mut names: Vec<String> = sites[a]
                .iter()
                .map(|(_, si, t, _)| format!("stage {si}/{t}"))
                .collect();
            names.sort();
            names.dedup();
            let (_, si, t, act) = &sites[a][0];
            diags.push(Diagnostic {
                severity: Severity::Error,
                pass: "hazard",
                code: "raw-multi-table",
                loc: Loc::action(*si, t, act),
                message: format!(
                    "array `{}` is accessed from {} different tables ({}) — a packet \
                     matching more than one performs two accesses in one pass, \
                     violating the RAW restriction",
                    spec.name,
                    tables.len(),
                    names.join(", ")
                ),
            });
        }
        if sites[a].is_empty() {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                pass: "hazard",
                code: "unused-array",
                loc: Loc::program(),
                message: format!(
                    "register array `{}` ({} × {} bits) is declared but never accessed",
                    spec.name, spec.entries, spec.width_bits
                ),
            });
        }
    }
}

/// Evidence that every stateful index of one shard's program stays
/// inside its slot space, **assuming the routing field is in range** —
/// the shard-local slot index a pipe owning that range would see.
///
/// Only [`prove_shard_safety`] constructs one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSafetyProof {
    slot_field: FieldId,
    shard_slots: usize,
}

impl ShardSafetyProof {
    /// The routing field the proof is conditioned on.
    pub fn slot_field(&self) -> FieldId {
        self.slot_field
    }

    /// The shard-local slot space the proof covers.
    pub fn shard_slots(&self) -> usize {
        self.shard_slots
    }
}

/// Prove shard-partition safety for one shard's program: under the
/// assumption `phv[slot_field] < slot_space`, every stateful op's index
/// is in its array's range, so the shard can never raise
/// [`crate::switch::RuntimeError::IndexOutOfRange`] on a packet whose
/// routing field is in range. Three index shapes are provable:
///
/// * the routing field itself, indexing an array spanning the full slot
///   space (the FPISA/SwitchML shape);
/// * a constant inside the array;
/// * any other field whose declared width cannot express an
///   out-of-range value (`2^bits <= entries`).
///
/// On failure the diagnostics name every unprovable index.
pub fn prove_shard_safety(
    program: &SwitchProgram,
    slot_field: FieldId,
) -> Result<ShardSafetyProof, Vec<Diagnostic>> {
    let mut diags = Vec::new();
    if usize::from(slot_field.0) >= program.layout.len() {
        diags.push(Diagnostic {
            severity: Severity::Error,
            pass: "hazard",
            code: "shard-unproven",
            loc: Loc::program(),
            message: format!("routing field id {} is not in the PHV layout", slot_field.0),
        });
        return Err(diags);
    }
    let mut entries = program.arrays.iter().map(|a| a.entries);
    let slot_space = match entries.next() {
        Some(first) if entries.all(|e| e == first) => first,
        Some(_) => {
            diags.push(Diagnostic {
                severity: Severity::Error,
                pass: "hazard",
                code: "shard-unproven",
                loc: Loc::program(),
                message: "register arrays disagree on the slot space \
                          (unequal entry counts); the program is not slot-partitionable"
                    .into(),
            });
            return Err(diags);
        }
        None => {
            diags.push(Diagnostic {
                severity: Severity::Error,
                pass: "hazard",
                code: "shard-unproven",
                loc: Loc::program(),
                message: "program declares no register arrays, so there is no slot space \
                          to partition"
                    .into(),
            });
            return Err(diags);
        }
    };
    for (si, stage) in program.stages.iter().enumerate() {
        for table in &stage.tables {
            for action in &table.actions {
                for call in &action.stateful {
                    let Some(spec) = program.arrays.get(usize::from(call.array.0)) else {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            pass: "hazard",
                            code: "shard-unproven",
                            loc: Loc::action(si, &table.name, &action.name),
                            message: format!("undeclared register array id {}", call.array.0),
                        });
                        continue;
                    };
                    let ok = match call.index {
                        Operand::Field(f) if f == slot_field => spec.entries >= slot_space,
                        Operand::Const(c) => c >= 0 && (c as usize) < spec.entries,
                        Operand::Field(f) => {
                            let bits = program.layout.spec(f).bits;
                            bits < 64 && (1u128 << bits) <= spec.entries as u128
                        }
                    };
                    if !ok {
                        let what = match call.index {
                            Operand::Const(c) => format!("constant index {c}"),
                            Operand::Field(f) => format!(
                                "index field `{}` ({} bits)",
                                program.layout.spec(f).name,
                                program.layout.spec(f).bits
                            ),
                        };
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            pass: "hazard",
                            code: "shard-unproven",
                            loc: Loc::action(si, &table.name, &action.name),
                            message: format!(
                                "{what} into array `{}` ({} entries) cannot be proven \
                                 in-range from the routing assumption on field id {}",
                                spec.name, spec.entries, slot_field.0
                            ),
                        });
                    }
                }
            }
        }
    }
    if diags.is_empty() {
        Ok(ShardSafetyProof {
            slot_field,
            shard_slots: slot_space,
        })
    } else {
        Err(diags)
    }
}
