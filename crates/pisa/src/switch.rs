//! The switch itself: capability profile, validated program, runtime.
//!
//! A [`SwitchProgram`] is the static description — PHV layout, stages,
//! register arrays, capability profile — and [`Switch`] is the running
//! instance holding register state. [`SwitchProgram::validate`] enforces
//! the hardware model *before* any packet runs:
//!
//! * register arrays are bound to one stage, and only actions in that
//!   stage may touch them (the structural half of the RAW constraint);
//! * RSAW updates require [`SwitchCaps::rsaw`];
//! * field-distance shifts require [`SwitchCaps::metadata_shift`];
//! * per-stage table/PHV budgets hold.
//!
//! The runtime enforces the dynamic half of the RAW constraint — one
//! access per array per packet pass — and implements recirculation: if the
//! program declares a recirculation flag field and a pass leaves it
//! non-zero, the PHV re-enters stage 0 (up to [`SwitchCaps::recirc_limit`]
//! passes).

use crate::phv::{FieldId, Phv, PhvLayout};
use crate::register::{RegArrayId, RegisterArraySpec, RegisterState};
use crate::stage::Stage;
use crate::table::Table;
use serde::{Deserialize, Serialize};

/// The hardware capability profile a program is validated against.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchCaps {
    /// Number of match-action stages.
    pub stages: usize,
    /// Maximum tables per stage.
    pub max_tables_per_stage: usize,
    /// Maximum register arrays (stateful ALUs) per stage.
    pub max_stateful_per_stage: usize,
    /// Total PHV budget in bits.
    pub phv_bits: u64,
    /// Whether the stateful ALUs support read-shift-add-write (the
    /// proposed FPISA hardware extension, §4.2).
    pub rsaw: bool,
    /// Whether the stateless ALUs support the 2-operand shift (distance
    /// from metadata — the "FPISA ALU" of Table 1).
    pub metadata_shift: bool,
    /// Maximum number of passes a packet may make (1 = no recirculation).
    pub recirc_limit: u32,
}

impl SwitchCaps {
    /// A Tofino-like baseline: 12 stages, no FPISA extensions,
    /// recirculation allowed.
    pub fn tofino() -> Self {
        SwitchCaps {
            stages: 12,
            max_tables_per_stage: 16,
            max_stateful_per_stage: 4,
            phv_bits: 4096,
            rsaw: false,
            metadata_shift: false,
            recirc_limit: 4,
        }
    }

    /// The same switch with the paper's proposed extensions: RSAW stateful
    /// units and 2-operand shifts.
    pub fn fpisa_extended() -> Self {
        SwitchCaps {
            rsaw: true,
            metadata_shift: true,
            ..Self::tofino()
        }
    }
}

/// A validated program plus its capability profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchProgram {
    /// Capability profile the program was built for.
    pub caps: SwitchCaps,
    /// PHV layout.
    pub layout: PhvLayout,
    /// The stages, length ≤ `caps.stages`.
    pub stages: Vec<Stage>,
    /// Register array declarations.
    pub arrays: Vec<RegisterArraySpec>,
    /// Field whose non-zero value after the last stage requests another
    /// pass. Cleared by the runtime at the start of each pass.
    pub recirc_field: Option<FieldId>,
}

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProgramError {
    /// More stages used than the profile provides.
    TooManyStages {
        /// Stages the program uses.
        used: usize,
        /// Stages available.
        available: usize,
    },
    /// A stage exceeds the per-stage table budget.
    TooManyTables {
        /// Offending stage.
        stage: usize,
    },
    /// A stage exceeds the per-stage stateful budget.
    TooManyStateful {
        /// Offending stage.
        stage: usize,
    },
    /// The PHV layout exceeds the PHV bit budget.
    PhvOverflow {
        /// Bits the layout needs.
        used: u64,
        /// Bits available.
        available: u64,
    },
    /// An RSAW update on hardware without the extension.
    RsawUnsupported {
        /// Stage of the offending action.
        stage: usize,
        /// Action name.
        action: String,
    },
    /// A field-distance shift on hardware without the 2-operand shift.
    MetadataShiftUnsupported {
        /// Stage of the offending action.
        stage: usize,
        /// Action name.
        action: String,
    },
    /// An action touches a register array outside the array's bound stage.
    ArrayOutsideStage {
        /// Array name.
        array: String,
        /// Stage the array is bound to.
        bound_stage: usize,
        /// Stage that tried to access it.
        used_from: usize,
    },
    /// An action references an array id that was never declared.
    UnknownArray {
        /// The dangling id.
        id: u16,
    },
    /// One action performs two accesses to the same array — impossible in
    /// a single read-modify-write.
    DoubleAccess {
        /// Array name.
        array: String,
        /// Action name.
        action: String,
    },
    /// A table's entries or default do not fit its own keys and actions.
    MalformedTable {
        /// Table name.
        table: String,
        /// What does not fit.
        fault: TableFault,
    },
}

/// What [`ProgramError::MalformedTable`] found in a table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableFault {
    /// An entry selects an action index past the table's actions.
    EntryAction {
        /// Entry index.
        entry: usize,
        /// The action index it selects.
        action: usize,
        /// Actions the table has.
        actions: usize,
    },
    /// The default action index is past the table's actions.
    DefaultAction {
        /// The default action index.
        action: usize,
        /// Actions the table has.
        actions: usize,
    },
    /// An entry's pattern count differs from the table's key count.
    KeyArity {
        /// Entry index.
        entry: usize,
        /// Patterns the entry has.
        patterns: usize,
        /// Keys the table declares.
        keys: usize,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::TooManyStages { used, available } => {
                write!(f, "program uses {used} stages, switch has {available}")
            }
            ProgramError::TooManyTables { stage } => {
                write!(f, "stage {stage} exceeds the table budget")
            }
            ProgramError::TooManyStateful { stage } => {
                write!(f, "stage {stage} exceeds the stateful-ALU budget")
            }
            ProgramError::PhvOverflow { used, available } => {
                write!(f, "PHV needs {used} bits, switch has {available}")
            }
            ProgramError::RsawUnsupported { stage, action } => {
                write!(
                    f,
                    "stage {stage} action `{action}` needs RSAW, not available"
                )
            }
            ProgramError::MetadataShiftUnsupported { stage, action } => {
                write!(
                    f,
                    "stage {stage} action `{action}` needs a 2-operand shift, not available"
                )
            }
            ProgramError::ArrayOutsideStage {
                array,
                bound_stage,
                used_from,
            } => {
                write!(
                    f,
                    "array `{array}` is bound to stage {bound_stage} but used from {used_from}"
                )
            }
            ProgramError::UnknownArray { id } => write!(f, "unknown register array id {id}"),
            ProgramError::DoubleAccess { array, action } => {
                write!(f, "action `{action}` accesses array `{array}` twice")
            }
            ProgramError::MalformedTable { table, fault } => match fault {
                TableFault::EntryAction {
                    entry,
                    action,
                    actions,
                } => write!(
                    f,
                    "table `{table}` entry {entry} selects action {action} of {actions}"
                ),
                TableFault::DefaultAction { action, actions } => write!(
                    f,
                    "table `{table}` default action {action} is past its {actions} actions"
                ),
                TableFault::KeyArity {
                    entry,
                    patterns,
                    keys,
                } => write!(
                    f,
                    "table `{table}` entry {entry} has {patterns} patterns for {keys} keys"
                ),
            },
        }
    }
}

impl std::error::Error for ProgramError {}

impl SwitchProgram {
    /// Check the program against its capability profile.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.stages.len() > self.caps.stages {
            return Err(ProgramError::TooManyStages {
                used: self.stages.len(),
                available: self.caps.stages,
            });
        }
        let phv_used = self.layout.total_bits();
        if phv_used > self.caps.phv_bits {
            return Err(ProgramError::PhvOverflow {
                used: phv_used,
                available: self.caps.phv_bits,
            });
        }
        for (si, stage) in self.stages.iter().enumerate() {
            if stage.tables.len() > self.caps.max_tables_per_stage {
                return Err(ProgramError::TooManyTables { stage: si });
            }
            let mut arrays_in_stage: Vec<RegArrayId> = Vec::new();
            for table in &stage.tables {
                if let Some(fault) = table_fault(table) {
                    return Err(ProgramError::MalformedTable {
                        table: table.name.clone(),
                        fault,
                    });
                }
                for action in &table.actions {
                    let mut touched: Vec<RegArrayId> = Vec::new();
                    for p in &action.primitives {
                        if p.is_metadata_shift() && !self.caps.metadata_shift {
                            return Err(ProgramError::MetadataShiftUnsupported {
                                stage: si,
                                action: action.name.clone(),
                            });
                        }
                    }
                    for call in &action.stateful {
                        let spec = self
                            .arrays
                            .get(call.array.0 as usize)
                            .ok_or(ProgramError::UnknownArray { id: call.array.0 })?;
                        if spec.stage != si {
                            return Err(ProgramError::ArrayOutsideStage {
                                array: spec.name.clone(),
                                bound_stage: spec.stage,
                                used_from: si,
                            });
                        }
                        if call.needs_rsaw() && !self.caps.rsaw {
                            return Err(ProgramError::RsawUnsupported {
                                stage: si,
                                action: action.name.clone(),
                            });
                        }
                        if touched.contains(&call.array) {
                            return Err(ProgramError::DoubleAccess {
                                array: spec.name.clone(),
                                action: action.name.clone(),
                            });
                        }
                        touched.push(call.array);
                        if !arrays_in_stage.contains(&call.array) {
                            arrays_in_stage.push(call.array);
                        }
                    }
                }
            }
            if arrays_in_stage.len() > self.caps.max_stateful_per_stage {
                return Err(ProgramError::TooManyStateful { stage: si });
            }
        }
        Ok(())
    }
}

/// The first way `table`'s entries or default fail to fit its own keys
/// and actions, if any.
fn table_fault(table: &Table) -> Option<TableFault> {
    let actions = table.actions.len();
    let keys = table.keys.len();
    for (entry, e) in table.entries.iter().enumerate() {
        if e.key.len() != keys {
            return Some(TableFault::KeyArity {
                entry,
                patterns: e.key.len(),
                keys,
            });
        }
        if e.action >= actions {
            return Some(TableFault::EntryAction {
                entry,
                action: e.action,
                actions,
            });
        }
    }
    match table.default_action {
        Some(action) if action >= actions => Some(TableFault::DefaultAction { action, actions }),
        _ => None,
    }
}

/// A runtime fault while processing a packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeError {
    /// A packet performed a second access to a register array in one pass
    /// — the dynamic RAW violation.
    RawViolation {
        /// Array name.
        array: String,
        /// Pass number (0-based).
        pass: u32,
    },
    /// A stateful index was out of an array's range.
    IndexOutOfRange {
        /// Description from the register file.
        detail: String,
    },
    /// The packet requested more passes than the recirculation limit.
    RecircLimit {
        /// The limit that was hit.
        limit: u32,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::RawViolation { array, pass } => {
                write!(
                    f,
                    "RAW violation: array `{array}` accessed twice in pass {pass}"
                )
            }
            RuntimeError::IndexOutOfRange { detail } => write!(f, "{detail}"),
            RuntimeError::RecircLimit { limit } => {
                write!(f, "recirculation limit ({limit} passes) exceeded")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// One table execution in a packet's trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Pass number (0-based).
    pub pass: u32,
    /// Stage index.
    pub stage: usize,
    /// Table name.
    pub table: String,
    /// Name of the action run, or `None` on a miss with no default.
    pub action: Option<String>,
}

/// What happened to one packet.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketTrace {
    /// Number of passes the packet made (1 = no recirculation).
    pub passes: u32,
    /// Every table executed, in order.
    pub entries: Vec<TraceEntry>,
}

/// A running switch: program + register state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Switch {
    program: SwitchProgram,
    state: RegisterState,
}

impl Switch {
    /// Instantiate a validated program with zeroed registers.
    pub fn new(program: SwitchProgram) -> Result<Self, ProgramError> {
        program.validate()?;
        let state = RegisterState::new(&program.arrays);
        Ok(Switch { program, state })
    }

    /// The program this switch runs.
    pub fn program(&self) -> &SwitchProgram {
        &self.program
    }

    /// The live register state.
    pub fn register_state(&self) -> &RegisterState {
        &self.state
    }

    /// Replace the register state wholesale (e.g. a state copied from the
    /// other engine). The shape must match the program's arrays.
    pub fn set_register_state(&mut self, state: RegisterState) -> Result<(), RuntimeError> {
        if !self.state.same_shape(&state) {
            return Err(RuntimeError::IndexOutOfRange {
                detail: "register state shape does not match the program's arrays".into(),
            });
        }
        self.state = state;
        Ok(())
    }

    /// Control-plane read of a register entry.
    pub fn register(&self, id: RegArrayId, index: usize) -> i64 {
        self.state.get(id, index)
    }

    /// Control-plane write of a register entry.
    pub fn set_register(&mut self, id: RegArrayId, index: usize, value: i64) {
        self.state.set(id, index, value);
    }

    /// Control-plane write of one value into a span of register entries
    /// ([`RegisterState::fill_range`]).
    pub fn fill_registers(&mut self, id: RegArrayId, start: usize, len: usize, value: i64) {
        self.state.fill_range(id, start, len, value);
    }

    /// A fresh PHV for this program's layout.
    pub fn phv(&self) -> Phv {
        Phv::new(&self.program.layout)
    }

    /// Process one packet: run every stage (recirculating if requested)
    /// and return the number of passes made. The PHV is mutated in place;
    /// header fields carry the result out. This is the allocation-free hot
    /// path; use [`Switch::run_traced`] to also record which tables and
    /// actions fired.
    pub fn run(&mut self, phv: &mut Phv) -> Result<u32, RuntimeError> {
        self.run_impl(phv, None)
    }

    /// Process a buffer of packets back to back (the interpreted
    /// counterpart of [`crate::CompiledSwitch::run_batch`]), returning the
    /// total pass count. Stops at the first faulting packet.
    pub fn run_batch(&mut self, phvs: &mut [Phv]) -> Result<u64, RuntimeError> {
        let mut total = 0u64;
        for phv in phvs {
            total += u64::from(self.run(phv)?);
        }
        Ok(total)
    }

    /// Like [`Switch::run`], but records every table execution. Costs one
    /// allocation per table per pass — use for debugging and tests, not
    /// for bulk packet processing.
    pub fn run_traced(&mut self, phv: &mut Phv) -> Result<PacketTrace, RuntimeError> {
        let mut trace = PacketTrace::default();
        trace.passes = self.run_impl(phv, Some(&mut trace.entries))?;
        Ok(trace)
    }

    fn run_impl(
        &mut self,
        phv: &mut Phv,
        mut entries: Option<&mut Vec<TraceEntry>>,
    ) -> Result<u32, RuntimeError> {
        let limit = self.program.caps.recirc_limit.max(1);
        let mut passes = 0u32;
        loop {
            let pass = passes;
            if pass >= limit {
                return Err(RuntimeError::RecircLimit { limit });
            }
            if let Some(rf) = self.program.recirc_field {
                phv.set(rf, 0);
            }
            let mut touched: Vec<bool> = vec![false; self.program.arrays.len()];
            for (si, stage) in self.program.stages.iter().enumerate() {
                for table in &stage.tables {
                    let selected = table.lookup(phv);
                    if let Some(ai) = selected {
                        let action = &table.actions[ai];
                        for p in &action.primitives {
                            p.execute(phv);
                        }
                        for call in &action.stateful {
                            let a = call.array.0 as usize;
                            if touched[a] {
                                return Err(RuntimeError::RawViolation {
                                    array: self.program.arrays[a].name.clone(),
                                    pass,
                                });
                            }
                            touched[a] = true;
                            self.state
                                .execute(call, phv)
                                .map_err(|detail| RuntimeError::IndexOutOfRange { detail })?;
                        }
                    }
                    if let Some(entries) = entries.as_deref_mut() {
                        entries.push(TraceEntry {
                            pass,
                            stage: si,
                            table: table.name.clone(),
                            action: selected.map(|ai| table.actions[ai].name.clone()),
                        });
                    }
                }
            }
            passes += 1;
            let again = self
                .program
                .recirc_field
                .map(|rf| phv.get(rf) != 0)
                .unwrap_or(false);
            if !again {
                return Ok(passes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, AluOp, Operand};
    use crate::register::{CmpOp, SaluCond, SaluOutput, SaluUpdate, StatefulCall};
    use crate::table::{KeyMatch, MatchKind, Table};

    /// A two-stage counter program: stage 0 counts packets per port in a
    /// register array, stage 1 thresholds the count into a "mark" field.
    fn counter_program(caps: SwitchCaps) -> (SwitchProgram, FieldId, FieldId, FieldId) {
        let mut layout = PhvLayout::new();
        let port = layout.field("port", 8);
        let count = layout.field("count", 32);
        let mark = layout.field("mark", 1);

        let counter = RegisterArraySpec {
            name: "pkt_count".into(),
            width_bits: 32,
            entries: 16,
            stage: 0,
        };

        let bump = Action::nop("bump").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Field(port),
            cond: SaluCond::Always,
            on_true: SaluUpdate::AddSat(Operand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: Some((count, SaluOutput::New)),
        });

        let threshold =
            Action::nop("mark").prim(mark, AluOp::CmpGe, Operand::Field(count), Operand::Const(3));

        let program = SwitchProgram {
            caps,
            layout,
            stages: vec![
                Stage::new().table(Table::always("count", bump)),
                Stage::new().table(Table::always("threshold", threshold)),
            ],
            arrays: vec![counter],
            recirc_field: None,
        };
        (program, port, count, mark)
    }

    /// The counter program with its threshold behind a table `gate` keyed
    /// on `port`: one action, one entry, no default.
    fn gated_program() -> SwitchProgram {
        let (mut program, port, _count, _mark) = counter_program(SwitchCaps::tofino());
        let mark = program.stages[1].tables[0].actions.remove(0);
        let gate = Table::keyed("gate", vec![(port, MatchKind::Exact)], vec![mark], None).entry(
            vec![KeyMatch::Exact(7)],
            0,
            0,
        );
        program.stages[1].tables[0] = gate;
        assert!(Switch::new(program.clone()).is_ok());
        program
    }

    /// Both engines refuse `program` with the same error: `gate`'s `fault`.
    fn assert_gate_refused(program: SwitchProgram, fault: TableFault) {
        let compiled = crate::compile::CompiledSwitch::compile(&program).unwrap_err();
        let interpreted = Switch::new(program).unwrap_err();
        assert_eq!(compiled, interpreted);
        let table = "gate".into();
        assert_eq!(interpreted, ProgramError::MalformedTable { table, fault });
    }

    #[test]
    fn validation_rejects_an_entry_action_past_the_table() {
        let mut program = gated_program();
        program.stages[1].tables[0].entries[0].action = 1;
        let fault = TableFault::EntryAction {
            entry: 0,
            action: 1,
            actions: 1,
        };
        assert_gate_refused(program, fault);
    }

    #[test]
    fn validation_rejects_a_default_action_past_the_table() {
        let mut program = gated_program();
        program.stages[1].tables[0].default_action = Some(1);
        let fault = TableFault::DefaultAction {
            action: 1,
            actions: 1,
        };
        assert_gate_refused(program, fault);
    }

    #[test]
    fn validation_rejects_an_entry_whose_patterns_miscount_the_keys() {
        for patterns in [0, 2] {
            let mut program = gated_program();
            program.stages[1].tables[0].entries[0].key = vec![KeyMatch::Any; patterns];
            let fault = TableFault::KeyArity {
                entry: 0,
                patterns,
                keys: 1,
            };
            assert_gate_refused(program, fault);
        }
    }

    #[test]
    fn counter_program_counts_and_marks() {
        let (program, port, count, mark) = counter_program(SwitchCaps::tofino());
        let mut sw = Switch::new(program).unwrap();
        for i in 1..=4u64 {
            let mut phv = sw.phv();
            phv.set(port, 7);
            let passes = sw.run(&mut phv).unwrap();
            assert_eq!(passes, 1);
            assert_eq!(phv.get(count), i);
            assert_eq!(phv.get(mark), (i >= 3) as u64, "packet {i}");
        }
        assert_eq!(sw.register(RegArrayId(0), 7), 4);
        assert_eq!(sw.register(RegArrayId(0), 3), 0);
    }

    #[test]
    fn validation_rejects_rsaw_without_capability() {
        let (mut program, _port, count, _mark) = counter_program(SwitchCaps::tofino());
        program.stages[0].tables[0].actions[0].stateful[0].on_true = SaluUpdate::ShiftRightAddSat {
            shift: Operand::Const(1),
            addend: Operand::Field(count),
        };
        assert!(matches!(
            program.validate(),
            Err(ProgramError::RsawUnsupported { .. })
        ));
        program.caps = SwitchCaps::fpisa_extended();
        assert!(program.validate().is_ok());
    }

    #[test]
    fn validation_rejects_metadata_shift_without_capability() {
        let (mut program, port, count, mark) = counter_program(SwitchCaps::tofino());
        program.stages[1].tables[0].actions[0]
            .primitives
            .push(crate::action::Primitive {
                dst: mark,
                op: AluOp::ShrLogic,
                a: Operand::Field(count),
                b: Operand::Field(port),
            });
        assert!(matches!(
            program.validate(),
            Err(ProgramError::MetadataShiftUnsupported { .. })
        ));
        program.caps = SwitchCaps::fpisa_extended();
        assert!(program.validate().is_ok());
    }

    #[test]
    fn validation_rejects_array_access_from_wrong_stage() {
        let (mut program, _port, _count, _mark) = counter_program(SwitchCaps::tofino());
        // Move the counting action's table to stage 1; the array stays
        // bound to stage 0.
        let t = program.stages[0].tables.remove(0);
        program.stages[1].tables.push(t);
        assert!(matches!(
            program.validate(),
            Err(ProgramError::ArrayOutsideStage { .. })
        ));
    }

    #[test]
    fn validation_rejects_double_access_in_one_action() {
        let (mut program, _port, count, _mark) = counter_program(SwitchCaps::tofino());
        let dup = program.stages[0].tables[0].actions[0].stateful[0].clone();
        program.stages[0].tables[0].actions[0].stateful.push(dup);
        let err = program.validate();
        assert!(
            matches!(err, Err(ProgramError::DoubleAccess { .. })),
            "{err:?}"
        );
        let _ = count;
    }

    #[test]
    fn runtime_rejects_raw_violation_across_tables() {
        let (mut program, _port, count, _mark) = counter_program(SwitchCaps::tofino());
        // A second table in stage 0 with another access to the same array:
        // structurally legal (different actions), dynamically a violation.
        let second = Action::nop("again").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Const(0),
            cond: SaluCond::Always,
            on_true: SaluUpdate::AddSat(Operand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: None,
        });
        program.stages[0]
            .tables
            .push(Table::always("again", second));
        program.caps.max_stateful_per_stage = 4;
        let mut sw = Switch::new(program).unwrap();
        let mut phv = sw.phv();
        assert!(matches!(
            sw.run(&mut phv),
            Err(RuntimeError::RawViolation { .. })
        ));
        let _ = count;
    }

    #[test]
    fn recirculation_runs_extra_passes_up_to_limit() {
        // A program that recirculates until a counter field reaches 3.
        let mut layout = PhvLayout::new();
        let n = layout.field("n", 8);
        let recirc = layout.field("recirc", 1);
        let bump = Action::nop("bump").prim(n, AluOp::Add, Operand::Field(n), Operand::Const(1));
        let decide =
            Action::nop("decide").prim(recirc, AluOp::CmpLt, Operand::Field(n), Operand::Const(3));
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout,
            stages: vec![
                Stage::new().table(Table::always("bump", bump)),
                Stage::new().table(Table::always("decide", decide)),
            ],
            arrays: vec![],
            recirc_field: Some(recirc),
        };
        let mut sw = Switch::new(program).unwrap();
        let mut phv = sw.phv();
        let trace = sw.run_traced(&mut phv).unwrap();
        assert_eq!(phv.get(n), 3);
        assert_eq!(trace.passes, 3);

        // With a limit of 2 the same program faults.
        let mut program2 = sw.program().clone();
        program2.caps.recirc_limit = 2;
        let mut sw2 = Switch::new(program2).unwrap();
        let mut phv2 = sw2.phv();
        assert!(matches!(
            sw2.run(&mut phv2),
            Err(RuntimeError::RecircLimit { limit: 2 })
        ));
    }

    #[test]
    fn keyed_dispatch_selects_per_packet_actions() {
        let mut layout = PhvLayout::new();
        let op = layout.field("op", 2);
        let out = layout.field("out", 8);
        let t = Table::keyed(
            "dispatch",
            vec![(op, MatchKind::Exact)],
            vec![
                Action::nop("a").prim(out, AluOp::Set, Operand::Const(10), Operand::Const(0)),
                Action::nop("b").prim(out, AluOp::Set, Operand::Const(20), Operand::Const(0)),
            ],
            None,
        )
        .entry(vec![KeyMatch::Exact(0)], 0, 0)
        .entry(vec![KeyMatch::Exact(1)], 0, 1);
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout,
            stages: vec![Stage::new().table(t)],
            arrays: vec![],
            recirc_field: None,
        };
        let mut sw = Switch::new(program).unwrap();
        for (opv, expect) in [(0u64, 10u64), (1, 20), (2, 0)] {
            let mut phv = sw.phv();
            phv.set(op, opv);
            let trace = sw.run_traced(&mut phv).unwrap();
            assert_eq!(phv.get(out), expect);
            assert_eq!(trace.entries.len(), 1);
        }
    }

    #[test]
    fn stateful_condition_with_reg_cmp_keeps_running_max() {
        let mut layout = PhvLayout::new();
        let v = layout.field("v", 32);
        let spec = RegisterArraySpec {
            name: "max".into(),
            width_bits: 32,
            entries: 1,
            stage: 0,
        };
        let offer = Action::nop("offer").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Const(0),
            cond: SaluCond::RegCmp {
                cmp: CmpOp::Lt,
                rhs: Operand::Field(v),
            },
            on_true: SaluUpdate::Write(Operand::Field(v)),
            on_false: SaluUpdate::Keep,
            output: None,
        });
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout,
            stages: vec![Stage::new().table(Table::always("offer", offer))],
            arrays: vec![spec],
            recirc_field: None,
        };
        let mut sw = Switch::new(program).unwrap();
        for x in [5i64, 3, 9, 2, 9, 1] {
            let mut phv = sw.phv();
            phv.set_signed(v, x);
            sw.run(&mut phv).unwrap();
        }
        assert_eq!(sw.register(RegArrayId(0), 0), 9);
    }
}
