//! Mutation-style acceptance tests for the static analysis framework:
//! start from a program that analyzes **clean**, seed one defect per
//! test, and assert the responsible pass reports the exact machine code
//! at error severity. Two or more seeded defects per defect class
//! (def-use, register hazard, value range, hardware capability) keep
//! every pass honest — a pass that rubber-stamps everything fails here.

use fpisa_pisa::{
    prove_shard_safety, verify_program, Action, AluOp, Analyzer, HwProfile, KeyMatch, MatchKind,
    Operand, PhvLayout, ProgramIo, RegArrayId, RegisterArraySpec, SaluCond, SaluOutput, SaluUpdate,
    Severity, Stage, StatefulCall, SwitchCaps, SwitchProgram, Table,
};

/// Field handles for the baseline program.
struct Fields {
    op: fpisa_pisa::FieldId,
    slot: fpisa_pisa::FieldId,
    value: fpisa_pisa::FieldId,
    result: fpisa_pisa::FieldId,
}

/// The clean baseline: a one-stage accumulate/read program shaped like
/// the SwitchML backend — 4-bit slot into a 16-entry array, so index
/// bounds are provable and the shard-safety proof succeeds.
fn base_program() -> (SwitchProgram, Fields) {
    let mut layout = PhvLayout::new();
    let op = layout.field("op", 1);
    let slot = layout.field("slot", 4);
    let value = layout.field("value", 32);
    let result = layout.field("result", 32);

    let array = RegArrayId(0);
    let acc = RegisterArraySpec {
        name: "acc".into(),
        width_bits: 32,
        entries: 16,
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
        "dispatch",
        vec![(op, MatchKind::Exact)],
        vec![add, read],
        None,
    )
    .entry(vec![KeyMatch::Exact(0)], 0, 0)
    .entry(vec![KeyMatch::Exact(1)], 0, 1);

    let program = SwitchProgram {
        caps: SwitchCaps::tofino(),
        layout,
        stages: vec![Stage::new().table(dispatch)],
        arrays: vec![acc],
        recirc_field: None,
    };
    (
        program,
        Fields {
            op,
            slot,
            value,
            result,
        },
    )
}

/// Assert the code fires at error severity, and that the clean baseline
/// does NOT carry it (i.e. the test detects the mutation, not noise).
fn assert_caught(mutant: &SwitchProgram, code: &str) {
    let (clean, _) = base_program();
    let base = verify_program(&clean);
    assert!(base.is_clean(), "baseline must be clean:\n{base}");
    assert_eq!(
        base.with_code(code).count(),
        0,
        "baseline already carries `{code}` — mutation not isolated"
    );
    let report = verify_program(mutant);
    let hits: Vec<_> = report.with_code(code).collect();
    assert!(
        !hits.is_empty(),
        "seeded `{code}` defect not caught:\n{report}"
    );
    assert!(
        hits.iter().all(|d| d.severity == Severity::Error),
        "`{code}` must be error severity:\n{report}"
    );
}

#[test]
fn baseline_is_clean_and_bounds_proven() {
    let (program, _) = base_program();
    let report = verify_program(&program);
    assert!(report.is_clean(), "{report}");
    assert!(report.bounds_proven(), "{report}");
}

// ---- defect class 1: PHV def-use ------------------------------------

#[test]
fn defuse_catches_read_before_write() {
    // `result` is only ever produced by the read action's SALU output;
    // a new first table that *reads* it executes before any write.
    let (mut program, f) = base_program();
    let leak = Table::always(
        "leak",
        Action::nop("leak").prim(
            f.value,
            AluOp::Add,
            Operand::Field(f.result),
            Operand::Const(1),
        ),
    );
    program.stages[0].tables.insert(0, leak);
    assert_caught(&program, "uninitialized-read");
}

#[test]
fn defuse_catches_undeclared_input() {
    // With the packet interface declared, reading a never-written field
    // outside it is an error — here `value` is omitted from the inputs.
    let (program, f) = base_program();
    let report = Analyzer::new(&program)
        .with_io(ProgramIo {
            inputs: vec![f.op, f.slot],
        })
        .run();
    let hits: Vec<_> = report.with_code("undeclared-input").collect();
    assert!(!hits.is_empty(), "undeclared input not caught:\n{report}");
    assert!(hits.iter().all(|d| d.severity == Severity::Error));
    // Declaring the full interface restores cleanliness.
    let ok = Analyzer::new(&program)
        .with_io(ProgramIo {
            inputs: vec![f.op, f.slot, f.value],
        })
        .run();
    assert!(ok.is_clean(), "{ok}");
}

#[test]
fn defuse_catches_dead_write() {
    // Two consecutive stores to the same destination: the first can
    // never be observed.
    let (mut program, f) = base_program();
    let wasted = Table::always(
        "wasted",
        Action::nop("wasted")
            .set(f.result, Operand::Const(1))
            .set(f.result, Operand::Const(2)),
    );
    program.stages[0].tables.push(wasted);
    let report = verify_program(&program);
    let hits: Vec<_> = report.with_code("dead-write").collect();
    assert!(!hits.is_empty(), "dead write not caught:\n{report}");
    assert!(hits.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn dead_write_findings_match_fusion_dead_stores() {
    // The same dead stores the compile-time peephole silently drops
    // must be visible as analysis findings — the analyzer is the place
    // the author learns about them. Adjacent overwrites only, so both
    // sides count exactly the same events.
    let (mut program, f) = base_program();
    let wasteful = Action::nop("wasteful")
        .set(f.value, Operand::Const(1))
        .set(f.value, Operand::Const(2))
        .set(f.result, Operand::Const(3))
        .set(f.result, Operand::Const(4))
        .prim(
            f.result,
            AluOp::Add,
            Operand::Field(f.result),
            Operand::Field(f.value),
        );
    program.stages[0]
        .tables
        .push(Table::always("wasteful", wasteful));
    let report = verify_program(&program);
    let analyzed = report.with_code("dead-write").count();
    let dropped = fpisa_pisa::CompiledSwitch::compile(&program)
        .expect("program compiles")
        .fusion_stats()
        .dead_stores;
    assert_eq!(analyzed, 2, "{report}");
    assert_eq!(
        analyzed, dropped,
        "analysis saw {analyzed} dead writes, the compiler dropped {dropped}"
    );
}

// ---- defect class 2: register hazards & shard safety ----------------

#[test]
fn hazard_catches_double_access_in_one_action() {
    // A second stateful call to the same array inside one action: a
    // packet would meet the register twice (read-add-write hazard).
    let (mut program, f) = base_program();
    let extra = StatefulCall {
        array: RegArrayId(0),
        index: Operand::Field(f.slot),
        cond: SaluCond::Always,
        on_true: SaluUpdate::AddSat(Operand::Field(f.value)),
        on_false: SaluUpdate::Keep,
        output: None,
    };
    program.stages[0].tables[0].actions[0].stateful.push(extra);
    assert_caught(&program, "raw-same-action");
}

#[test]
fn hazard_catches_multi_table_access() {
    // The same array touched from a second table: execution order within
    // the stage decides who reads stale state.
    let (mut program, f) = base_program();
    let second = Table::always(
        "second_touch",
        Action::nop("touch").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Field(f.slot),
            cond: SaluCond::Always,
            on_true: SaluUpdate::AddSat(Operand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: None,
        }),
    );
    program.stages[0].tables.push(second);
    assert_caught(&program, "raw-multi-table");
}

#[test]
fn hazard_catches_stage_binding_violation() {
    // The array is bound to stage 0 but its only access sits in stage 1.
    let (mut program, _) = base_program();
    let dispatch = program.stages[0].tables.remove(0);
    program.stages = vec![Stage::new(), Stage::new().table(dispatch)];
    assert_caught(&program, "stage-binding");
}

#[test]
fn hazard_catches_rsaw_on_stock_hardware() {
    // ShiftRightAddSat needs the paper's RSAW extension; the baseline
    // claims stock Tofino.
    let (mut program, f) = base_program();
    program.stages[0].tables[0].actions[0].stateful[0].on_true = SaluUpdate::ShiftRightAddSat {
        shift: Operand::Const(1),
        addend: Operand::Field(f.value),
    };
    assert_caught(&program, "rsaw-unsupported");
}

#[test]
fn shard_proof_rejects_out_of_range_constant() {
    // A constant index beyond the 16-entry array: provably out of range
    // no matter what the router guarantees about the slot field.
    let (mut program, f) = base_program();
    program.stages[0].tables[0].actions[0].stateful[0].index = Operand::Const(16);
    let diags =
        prove_shard_safety(&program, f.slot).expect_err("out-of-range constant must not prove");
    assert!(
        diags.iter().any(|d| d.code == "shard-unproven"),
        "{diags:?}"
    );
    // An in-range constant, by contrast, proves fine.
    let (mut ok, g) = base_program();
    ok.stages[0].tables[0].actions[0].stateful[0].index = Operand::Const(15);
    prove_shard_safety(&ok, g.slot).expect("in-range constant proves");
}

#[test]
fn shard_proof_rejects_mismatched_slot_spaces() {
    // Two arrays with unequal entry counts: there is no single slot
    // space to partition, so the program is not shardable.
    let (mut program, f) = base_program();
    program.arrays.push(RegisterArraySpec {
        name: "aux".into(),
        width_bits: 32,
        entries: 8,
        stage: 0,
    });
    let diags =
        prove_shard_safety(&program, f.slot).expect_err("mismatched slot spaces must not prove");
    assert!(
        diags.iter().any(|d| d.code == "shard-unproven"),
        "{diags:?}"
    );
}

#[test]
fn shard_proof_rejects_foreign_index_field() {
    // Indexing the array by `value` (not the routing slot field) defeats
    // the partition argument even when the slot field itself is narrow.
    let (mut program, f) = base_program();
    program.stages[0].tables[0].actions[0].stateful[0].index = Operand::Field(f.value);
    program.stages[0].tables[0].actions[1].stateful[0].index = Operand::Field(f.value);
    let diags = prove_shard_safety(&program, f.slot).expect_err("foreign index must not prove");
    assert!(
        diags.iter().any(|d| d.code == "shard-unproven"),
        "{diags:?}"
    );
    // The baseline, by contrast, proves.
    let (clean, g) = base_program();
    let proof = prove_shard_safety(&clean, g.slot).expect("baseline proves");
    assert_eq!(proof.shard_slots(), 16);
}

// ---- defect class 3: value ranges -----------------------------------

#[test]
fn range_catches_overflowing_shift() {
    // A left shift by a constant ≥ the container width always produces
    // zero on this ALU — certainly not what the author meant.
    let (mut program, f) = base_program();
    let shift = Table::always(
        "shift",
        Action::nop("shift").prim(
            f.value,
            AluOp::Shl,
            Operand::Field(f.value),
            Operand::Const(64),
        ),
    );
    program.stages[0].tables.push(shift);
    assert_caught(&program, "shift-always-overflows");
}

#[test]
fn range_catches_empty_range_entry() {
    let (mut program, f) = base_program();
    program.stages[0].tables[0].keys = vec![(f.op, MatchKind::Range)];
    program.stages[0].tables[0].entries[0].key = vec![KeyMatch::Range { lo: 5, hi: 2 }];
    assert_caught(&program, "empty-range");
}

#[test]
fn range_catches_unmatchable_exact_entry() {
    // `op` is 1 bit: an Exact(2) entry can never match any packet.
    let (mut program, _) = base_program();
    program.stages[0].tables[0].entries[1].key = vec![KeyMatch::Exact(2)];
    assert_caught(&program, "unmatchable-entry");
}

#[test]
fn range_catches_bad_action_index() {
    let (mut program, _) = base_program();
    program.stages[0].tables[0].entries[1].action = 7;
    assert_caught(&program, "bad-action-index");
}

// ---- defect class 4: hardware capability lints ----------------------

#[test]
fn hw_catches_stage_budget_overflow() {
    let (mut program, f) = base_program();
    let tail = Table::always("tail", Action::nop("tail").set(f.value, Operand::Const(0)));
    program.stages.push(Stage::new().table(tail));
    let tiny = {
        let mut p = HwProfile::from_caps(&program.caps);
        p.stages = 1;
        p
    };
    let report = Analyzer::new(&program).with_profile(tiny).run();
    assert!(
        report.with_code("stage-budget").count() > 0,
        "stage overflow not caught:\n{report}"
    );
}

#[test]
fn hw_catches_salu_budget_overflow() {
    // A second register array in the same stage against a one-SALU
    // device profile.
    let (mut program, f) = base_program();
    program.arrays.push(RegisterArraySpec {
        name: "aux".into(),
        width_bits: 32,
        entries: 16,
        stage: 0,
    });
    program.stages[0].tables[0].actions[1] =
        program.stages[0].tables[0].actions[1]
            .clone()
            .call(StatefulCall {
                array: RegArrayId(1),
                index: Operand::Field(f.slot),
                cond: SaluCond::Always,
                on_true: SaluUpdate::AddSat(Operand::Const(1)),
                on_false: SaluUpdate::Keep,
                output: None,
            });
    let tiny = {
        let mut p = HwProfile::from_caps(&program.caps);
        p.salus_per_stage = 1;
        p
    };
    let report = Analyzer::new(&program).with_profile(tiny).run();
    assert!(
        report.with_code("salu-budget").count() > 0,
        "SALU overflow not caught:\n{report}"
    );
}

#[test]
fn hw_catches_wide_exact_key() {
    // Key on op + value (33 bits) against an 16-bit hash crossbar.
    let (mut program, f) = base_program();
    program.stages[0].tables[0].keys = vec![(f.op, MatchKind::Exact), (f.value, MatchKind::Exact)];
    for e in &mut program.stages[0].tables[0].entries {
        e.key.push(KeyMatch::Any);
    }
    let tiny = {
        let mut p = HwProfile::from_caps(&program.caps);
        p.hash_bits = 16;
        p
    };
    let report = Analyzer::new(&program).with_profile(tiny).run();
    assert!(
        report.with_code("hash-width").count() > 0,
        "wide exact key not caught:\n{report}"
    );
}

#[test]
fn hw_catches_wide_register() {
    let (program, _) = base_program();
    let tiny = {
        let mut p = HwProfile::from_caps(&program.caps);
        p.max_register_bits = 16;
        p
    };
    let report = Analyzer::new(&program).with_profile(tiny).run();
    assert!(
        report.with_code("register-width").count() > 0,
        "wide register not caught:\n{report}"
    );
}

#[test]
fn hw_profile_text_format_round_trips() {
    let p = HwProfile::tofino();
    let parsed = HwProfile::parse(&p.render()).expect("render must parse");
    assert_eq!(parsed, p);
    assert!(HwProfile::parse("stages = twelve").is_err());
    assert!(HwProfile::parse("no_such_key = 1").is_err());
}
