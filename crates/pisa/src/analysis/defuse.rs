//! PHV def-use dataflow: per-field def/use chains in pipeline execution
//! order.
//!
//! The pass walks the program exactly as the interpreter executes it —
//! stage by stage, table by table, key lookups before action bodies,
//! primitives in order, stateful calls after — and classifies every
//! field access:
//!
//! * **Packet inputs** — fields the program reads but never writes. With
//!   a declared [`ProgramIo`] they must be listed (`undeclared-input` is
//!   an error otherwise); without one they are inferred and reported as
//!   a single info finding.
//! * **Uninitialized reads** (`uninitialized-read`) — a read of a field
//!   the program *does* write, at a point before any path can have
//!   written it. The read observes whatever the packet happened to carry
//!   in a field the program treats as computed metadata. Demoted to a
//!   warning when the program recirculates, because a later-stage write
//!   is visible to earlier stages on the next pass.
//! * **Dead writes** (`dead-write`) — a write that is provably
//!   overwritten before any read: within one action when the next access
//!   to the destination is another write, and across tables when a later
//!   table *must* write the field (default action present, every action
//!   writes it) with no intervening read. A field whose last access is a
//!   write is an *output*, never dead.
//! * **Unused fields** (`unused-field`) — declared in the layout,
//!   touched by nothing.
//!
//! Definedness uses may-write semantics (a field counts as defined after
//! any point where *some* path writes it); deadness uses must-overwrite
//! semantics. Both choices make the pass conservative in the direction
//! that matters: no false uninitialized-read errors, no false dead-write
//! claims.

use std::collections::{BTreeSet, HashSet};

use super::{Diagnostic, Loc, ProgramIo, Severity};
use crate::action::{Action, Operand};
use crate::phv::FieldId;
use crate::register::{SaluCond, SaluUpdate};
use crate::switch::SwitchProgram;
use crate::table::Table;

/// Append an operand's field read, if any.
fn operand_field(op: &Operand, out: &mut Vec<FieldId>) {
    if let Operand::Field(f) = op {
        out.push(*f);
    }
}

/// Fields a [`SaluCond`] reads from the PHV.
fn cond_fields(cond: &SaluCond, out: &mut Vec<FieldId>) {
    match cond {
        SaluCond::Always => {}
        SaluCond::MetaNonZero(f) => out.push(*f),
        SaluCond::RegCmp { rhs, .. } => operand_field(rhs, out),
        SaluCond::Or(a, b) | SaluCond::And(a, b) => {
            cond_fields(a, out);
            cond_fields(b, out);
        }
    }
}

/// Fields a [`SaluUpdate`] reads from the PHV.
fn update_fields(update: &SaluUpdate, out: &mut Vec<FieldId>) {
    match update {
        SaluUpdate::Keep => {}
        SaluUpdate::Write(op)
        | SaluUpdate::AddSat(op)
        | SaluUpdate::AddWrap(op)
        | SaluUpdate::MaxSigned(op)
        | SaluUpdate::MinSigned(op) => operand_field(op, out),
        SaluUpdate::ShiftRightAddSat { shift, addend } => {
            operand_field(shift, out);
            operand_field(addend, out);
        }
    }
}

/// Every PHV field an action reads, in execution order (primitive
/// operands first, then stateful index/condition/update operands).
pub(crate) fn action_reads(action: &Action) -> Vec<FieldId> {
    let mut out = Vec::new();
    for p in &action.primitives {
        operand_field(&p.a, &mut out);
        operand_field(&p.b, &mut out);
    }
    for call in &action.stateful {
        operand_field(&call.index, &mut out);
        cond_fields(&call.cond, &mut out);
        update_fields(&call.on_true, &mut out);
        update_fields(&call.on_false, &mut out);
    }
    out
}

/// Every PHV field an action writes.
pub(crate) fn action_writes(action: &Action) -> Vec<FieldId> {
    let mut out: Vec<FieldId> = action.primitives.iter().map(|p| p.dst).collect();
    out.extend(
        action
            .stateful
            .iter()
            .filter_map(|c| c.output.map(|(f, _)| f)),
    );
    out
}

/// Whether a table reads a field anywhere (keys or any action body).
fn table_reads(table: &Table, f: FieldId) -> bool {
    table.keys.iter().any(|&(k, _)| k == f)
        || table.actions.iter().any(|a| action_reads(a).contains(&f))
}

/// Whether a table is guaranteed to write `f` whenever a packet passes
/// it: a default action exists (so *some* action always runs) and every
/// action writes `f`.
fn table_must_write(table: &Table, f: FieldId) -> bool {
    table.default_action.is_some()
        && !table.actions.is_empty()
        && table.actions.iter().all(|a| action_writes(a).contains(&f))
}

/// Run the def-use pass; findings are appended to `diags`.
pub(super) fn run(program: &SwitchProgram, io: Option<&ProgramIo>, diags: &mut Vec<Diagnostic>) {
    let layout = &program.layout;

    // Global def/use census.
    let mut written_anywhere: HashSet<u16> = HashSet::new();
    let mut read_anywhere: HashSet<u16> = HashSet::new();
    for stage in &program.stages {
        for table in &stage.tables {
            read_anywhere.extend(table.keys.iter().map(|(f, _)| f.0));
            for action in &table.actions {
                read_anywhere.extend(action_reads(action).iter().map(|f| f.0));
                written_anywhere.extend(action_writes(action).iter().map(|f| f.0));
            }
        }
    }
    // The engine itself reads the recirculation request field after every
    // pass — it is used even when no table mentions it.
    if let Some(rf) = program.recirc_field {
        read_anywhere.insert(rf.0);
    }

    // Packet inputs: declared, or inferred as read-but-never-written.
    let declared: Option<HashSet<u16>> = io.map(|io| io.inputs.iter().map(|f| f.0).collect());
    let inferred: BTreeSet<u16> = read_anywhere
        .iter()
        .copied()
        .filter(|f| !written_anywhere.contains(f))
        .collect();
    match &declared {
        Some(decl) => {
            for &f in &inferred {
                if !decl.contains(&f) {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        pass: "defuse",
                        code: "undeclared-input",
                        loc: Loc::program(),
                        message: format!(
                            "field `{}` is read but never written, and is not a declared \
                             packet input — the program observes uninitialized data",
                            layout.spec(FieldId(f)).name
                        ),
                    });
                }
            }
        }
        None => {
            if !inferred.is_empty() {
                let names: Vec<&str> = inferred
                    .iter()
                    .map(|&f| layout.spec(FieldId(f)).name.as_str())
                    .collect();
                diags.push(Diagnostic {
                    severity: Severity::Info,
                    pass: "defuse",
                    code: "inferred-inputs",
                    loc: Loc::program(),
                    message: format!(
                        "fields inferred as packet inputs (read, never written): {}",
                        names.join(", ")
                    ),
                });
            }
        }
    }
    let is_input = |f: FieldId| match &declared {
        Some(decl) => decl.contains(&f.0),
        None => !written_anywhere.contains(&f.0),
    };

    // Uninitialized reads: walk in execution order with may-write
    // definedness. With recirculation, a later-pass write reaches earlier
    // stages, so the finding degrades to a warning.
    let rbw_severity = if program.recirc_field.is_some() {
        Severity::Warning
    } else {
        Severity::Error
    };
    let mut defined: HashSet<u16> = HashSet::new();
    let mut reported: HashSet<u16> = HashSet::new();
    let check_read = |f: FieldId,
                      defined: &HashSet<u16>,
                      local: Option<&HashSet<u16>>,
                      loc: Loc,
                      what: &str,
                      diags: &mut Vec<Diagnostic>,
                      reported: &mut HashSet<u16>| {
        if is_input(f)
            || !written_anywhere.contains(&f.0)
            || defined.contains(&f.0)
            || local.is_some_and(|l| l.contains(&f.0))
            || !reported.insert(f.0)
        {
            return;
        }
        diags.push(Diagnostic {
            severity: rbw_severity,
            pass: "defuse",
            code: "uninitialized-read",
            loc,
            message: format!(
                "{what} reads field `{}` before any path can have written it \
                 (first write is later in the pipeline)",
                layout.spec(f).name
            ),
        });
    };
    for (si, stage) in program.stages.iter().enumerate() {
        for table in &stage.tables {
            for &(k, _) in &table.keys {
                check_read(
                    k,
                    &defined,
                    None,
                    Loc::table(si, &table.name),
                    "table key",
                    diags,
                    &mut reported,
                );
            }
            for action in &table.actions {
                let mut local: HashSet<u16> = HashSet::new();
                for (pi, p) in action.primitives.iter().enumerate() {
                    for op in [&p.a, &p.b] {
                        if let Operand::Field(f) = op {
                            check_read(
                                *f,
                                &defined,
                                Some(&local),
                                Loc::op(si, &table.name, &action.name, pi),
                                "primitive",
                                diags,
                                &mut reported,
                            );
                        }
                    }
                    local.insert(p.dst.0);
                }
                for call in &action.stateful {
                    let mut reads = Vec::new();
                    operand_field(&call.index, &mut reads);
                    cond_fields(&call.cond, &mut reads);
                    update_fields(&call.on_true, &mut reads);
                    update_fields(&call.on_false, &mut reads);
                    for f in reads {
                        check_read(
                            f,
                            &defined,
                            Some(&local),
                            Loc::action(si, &table.name, &action.name),
                            "stateful call",
                            diags,
                            &mut reported,
                        );
                    }
                }
            }
            // After the table: any action may have run.
            for action in &table.actions {
                defined.extend(action_writes(action).iter().map(|f| f.0));
            }
        }
    }

    // Dead writes within one action: the next access to the destination
    // is another write.
    for (si, stage) in program.stages.iter().enumerate() {
        for table in &stage.tables {
            for action in &table.actions {
                let stateful_reads: HashSet<u16> = {
                    let mut r = Vec::new();
                    for call in &action.stateful {
                        operand_field(&call.index, &mut r);
                        cond_fields(&call.cond, &mut r);
                        update_fields(&call.on_true, &mut r);
                        update_fields(&call.on_false, &mut r);
                    }
                    r.iter().map(|f| f.0).collect()
                };
                for (pi, p) in action.primitives.iter().enumerate() {
                    let d = p.dst;
                    let mut dead = false;
                    for q in &action.primitives[pi + 1..] {
                        let reads = matches!(q.a, Operand::Field(f) if f == d)
                            || matches!(q.b, Operand::Field(f) if f == d);
                        if reads {
                            break;
                        }
                        if q.dst == d {
                            dead = true;
                            break;
                        }
                    }
                    if dead && !stateful_reads.contains(&d.0) {
                        diags.push(Diagnostic {
                            severity: Severity::Warning,
                            pass: "defuse",
                            code: "dead-write",
                            loc: Loc::op(si, &table.name, &action.name, pi),
                            message: format!(
                                "write to `{}` is overwritten later in the same action \
                                 before anything reads it",
                                layout.spec(d).name
                            ),
                        });
                    }
                }
            }
        }
    }

    // Dead writes across tables: a later table must-writes the field with
    // no read in between. Flattened table walk per written field.
    let tables: Vec<(usize, &Table)> = program
        .stages
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.tables.iter().map(move |t| (si, t)))
        .collect();
    for &f in &written_anywhere {
        let f = FieldId(f);
        // (stage, table name) of a write not yet observed by any read.
        let mut pending: Option<(usize, String)> = None;
        for &(si, table) in &tables {
            if table_reads(table, f) {
                pending = None;
            } else if let Some((ws, wt)) = pending.take() {
                if table_must_write(table, f) {
                    diags.push(Diagnostic {
                        severity: Severity::Warning,
                        pass: "defuse",
                        code: "dead-write",
                        loc: Loc::table(ws, &wt),
                        message: format!(
                            "every path through table `{}` (stage {si}) overwrites \
                             `{}` before anything reads it",
                            table.name,
                            layout.spec(f).name
                        ),
                    });
                } else {
                    pending = Some((ws, wt));
                }
            }
            if table.actions.iter().any(|a| action_writes(a).contains(&f)) {
                pending = Some((si, table.name.clone()));
            }
        }
        // A surviving pending write is the field's output value: fine.
    }

    // Unused fields: declared, never touched. The recirculation field is
    // engine-read and already in `read_anywhere`.
    for (f, spec) in layout.iter() {
        if !read_anywhere.contains(&f.0) && !written_anywhere.contains(&f.0) {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                pass: "defuse",
                code: "unused-field",
                loc: Loc::program(),
                message: format!(
                    "PHV field `{}` ({} bits, id {}) is never read or written",
                    spec.name, spec.bits, f.0
                ),
            });
        }
    }
}
