//! Property test: [`CompiledSwitch`] must be observationally identical to
//! the interpreting [`Switch`] on *random programs* — random layouts,
//! match kinds, priorities, actions, stateful calls and recirculation —
//! packet by packet: same output PHV, same register state, same pass
//! counts, and the same `RuntimeError` at the same point when a packet
//! faults (RAW violations, out-of-range indices, recirculation limits).

use fpisa_pisa::{
    Action, AluOp, CmpOp, CompiledSwitch, FieldId, KeyMatch, MatchKind, Operand, Phv, PhvLayout,
    RegArrayId, RegisterArraySpec, SaluCond, SaluOutput, SaluUpdate, Stage, StatefulCall, Switch,
    SwitchCaps, SwitchProgram, Table,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const PROGRAMS: usize = 120;
const PACKETS_PER_PROGRAM: usize = 60;

struct Gen {
    rng: SmallRng,
    fields: Vec<FieldId>,
    widths: Vec<u32>,
}

impl Gen {
    fn operand(&mut self) -> Operand {
        if self.rng.gen::<bool>() {
            let i = self.rng.gen_range(0..self.fields.len());
            Operand::Field(self.fields[i])
        } else {
            Operand::Const(self.rng.gen_range(-64i64..64))
        }
    }

    fn field(&mut self) -> FieldId {
        self.fields[self.rng.gen_range(0..self.fields.len())]
    }

    fn alu_op(&mut self) -> AluOp {
        const OPS: [AluOp; 15] = [
            AluOp::Set,
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::ShrLogic,
            AluOp::ShrArith,
            AluOp::CmpEq,
            AluOp::CmpNe,
            AluOp::CmpLt,
            AluOp::CmpLe,
            AluOp::CmpGt,
            AluOp::CmpGe,
        ];
        OPS[self.rng.gen_range(0..OPS.len())]
    }

    fn key_match(&mut self, kind: MatchKind, width: u32) -> KeyMatch {
        let max = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        match kind {
            MatchKind::Exact => {
                if self.rng.gen_range(0u32..10) == 0 {
                    KeyMatch::Any
                } else if self.rng.gen_range(0u32..12) == 0 {
                    // Occasionally unmatchable: value beyond the field width.
                    KeyMatch::Exact(max.wrapping_add(1 + self.rng.gen_range(0u64..4)))
                } else {
                    KeyMatch::Exact(self.rng.gen_range(0..=max.min(1 << 16)))
                }
            }
            MatchKind::Ternary => KeyMatch::Ternary {
                value: self.rng.gen_range(0..=max),
                mask: self.rng.gen_range(0..=max),
            },
            MatchKind::Range => {
                let lo = self.rng.gen_range(0..=max);
                let hi = self.rng.gen_range(lo..=max);
                KeyMatch::Range { lo, hi }
            }
        }
    }

    fn action(&mut self, name: String, stage_array: Option<(RegArrayId, usize)>) -> Action {
        let mut a = Action::nop(name);
        for _ in 0..self.rng.gen_range(0usize..4) {
            let dst = self.field();
            let op = self.alu_op();
            let x = self.operand();
            let y = self.operand();
            a = a.prim(dst, op, x, y);
        }
        if let Some((array, entries)) = stage_array {
            if self.rng.gen_range(0u32..3) == 0 {
                let index = if self.rng.gen_range(0u32..8) == 0 {
                    // Occasionally out of range → IndexOutOfRange at runtime.
                    Operand::Const(entries as i64 + self.rng.gen_range(0i64..4))
                } else if self.rng.gen::<bool>() {
                    Operand::Const(self.rng.gen_range(0..entries as i64))
                } else {
                    Operand::Field(self.field()) // may be out of range too
                };
                let cond = match self.rng.gen_range(0u32..4) {
                    0 => SaluCond::Always,
                    1 => SaluCond::MetaNonZero(self.field()),
                    2 => SaluCond::RegCmp {
                        cmp: CmpOp::Lt,
                        rhs: self.operand(),
                    },
                    _ => SaluCond::Or(
                        Box::new(SaluCond::RegCmp {
                            cmp: CmpOp::Eq,
                            rhs: Operand::Const(0),
                        }),
                        Box::new(SaluCond::MetaNonZero(self.field())),
                    ),
                };
                let update = |g: &mut Gen| match g.rng.gen_range(0u32..6) {
                    0 => SaluUpdate::Keep,
                    1 => SaluUpdate::Write(g.operand()),
                    2 => SaluUpdate::AddSat(g.operand()),
                    3 => SaluUpdate::AddWrap(g.operand()),
                    4 => SaluUpdate::MaxSigned(g.operand()),
                    _ => SaluUpdate::ShiftRightAddSat {
                        shift: g.operand(),
                        addend: g.operand(),
                    },
                };
                let on_true = update(self);
                let on_false = update(self);
                let output = if self.rng.gen::<bool>() {
                    let out = match self.rng.gen_range(0u32..3) {
                        0 => SaluOutput::Old,
                        1 => SaluOutput::New,
                        _ => SaluOutput::Predicate,
                    };
                    Some((self.field(), out))
                } else {
                    None
                };
                a = a.call(StatefulCall {
                    array,
                    index,
                    cond,
                    on_true,
                    on_false,
                    output,
                });
            }
        }
        a
    }

    fn table(&mut self, name: String, stage_array: Option<(RegArrayId, usize)>) -> Table {
        let n_actions = self.rng.gen_range(1usize..4);
        let actions: Vec<Action> = (0..n_actions)
            .map(|i| self.action(format!("{name}_a{i}"), stage_array))
            .collect();
        match self.rng.gen_range(0u32..5) {
            0 => Table::always(name, actions.into_iter().next().unwrap()),
            _ => {
                let n_keys = self.rng.gen_range(1usize..3);
                let keys: Vec<(FieldId, MatchKind)> = (0..n_keys)
                    .map(|_| {
                        let f = self.field();
                        let kind = match self.rng.gen_range(0u32..4) {
                            0 => MatchKind::Ternary,
                            1 => MatchKind::Range,
                            _ => MatchKind::Exact,
                        };
                        (f, kind)
                    })
                    .collect();
                let default = if self.rng.gen::<bool>() {
                    Some(self.rng.gen_range(0..n_actions))
                } else {
                    None
                };
                let mut t = Table::keyed(name, keys.clone(), actions, default);
                for _ in 0..self.rng.gen_range(0usize..16) {
                    let key: Vec<KeyMatch> = keys
                        .iter()
                        .map(|(f, kind)| {
                            let w = self.widths[f.0 as usize];
                            self.key_match(*kind, w)
                        })
                        .collect();
                    let prio = self.rng.gen_range(0u32..4);
                    let action = self.rng.gen_range(0..n_actions);
                    t = t.entry(key, prio, action);
                }
                t
            }
        }
    }
}

fn random_program(seed: u64) -> (SwitchProgram, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut layout = PhvLayout::new();
    let n_fields = rng.gen_range(4usize..9);
    let mut fields = Vec::new();
    let mut widths = Vec::new();
    for i in 0..n_fields {
        let bits = *[1u32, 4, 8, 12, 16, 32][..]
            .get(rng.gen_range(0..6))
            .unwrap();
        fields.push(layout.field(format!("f{i}"), bits));
        widths.push(bits);
    }
    // Sometimes recirculate on a 1-bit flag field; random programs may
    // then hit the recirculation limit — both engines must fault alike.
    let recirc_field = if rng.gen_range(0u32..3) == 0 {
        Some(layout.field("recirc", 1))
    } else {
        None
    };
    if let Some(rf) = recirc_field {
        fields.push(rf);
        widths.push(1);
    }

    let n_stages = rng.gen_range(1usize..5);
    let mut arrays = Vec::new();
    let mut gen = Gen {
        rng,
        fields,
        widths,
    };
    let mut stages = Vec::new();
    for si in 0..n_stages {
        // At most one array per stage, bound to it.
        let stage_array = if gen.rng.gen::<bool>() {
            let entries = gen.rng.gen_range(4usize..16);
            let id = RegArrayId(arrays.len() as u16);
            arrays.push(RegisterArraySpec {
                name: format!("r{si}"),
                width_bits: *[8u32, 16, 32][..].get(gen.rng.gen_range(0..3)).unwrap(),
                entries,
                stage: si,
            });
            Some((id, entries))
        } else {
            None
        };
        let mut stage = Stage::new();
        for ti in 0..gen.rng.gen_range(1usize..4) {
            stage = stage.table(gen.table(format!("s{si}t{ti}"), stage_array));
        }
        stages.push(stage);
    }
    let program = SwitchProgram {
        caps: SwitchCaps::fpisa_extended(), // admits every generated op
        layout,
        stages,
        arrays,
        recirc_field,
    };
    (program, gen.rng)
}

#[test]
fn compiled_engine_matches_interpreter_on_random_programs() {
    let mut checked = 0usize;
    let mut faults = 0usize;
    let mut recirculated = 0usize;
    for seed in 0..PROGRAMS as u64 {
        let (program, mut rng) = random_program(0xC0DE_0000 + seed);
        match program.validate() {
            Ok(()) => {}
            Err(want) => {
                // Both engines must reject identically; nothing to run.
                assert_eq!(CompiledSwitch::compile(&program).unwrap_err(), want);
                continue;
            }
        }
        let mut sw = Switch::new(program.clone()).unwrap();
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        for pkt in 0..PACKETS_PER_PROGRAM {
            let mut pi = sw.phv();
            for (id, spec) in program.layout.iter() {
                let max = if spec.bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << spec.bits) - 1
                };
                pi.set(id, rng.gen_range(0..=max));
            }
            let mut pc = pi.clone();
            let ri = sw.run(&mut pi);
            let rc = cs.run(&mut pc);
            assert_eq!(ri, rc, "seed {seed} packet {pkt}: result diverged");
            assert_eq!(pi, pc, "seed {seed} packet {pkt}: PHV diverged");
            match ri {
                Err(_) => faults += 1,
                Ok(passes) if passes > 1 => recirculated += 1,
                Ok(_) => {}
            }
            for (ai, spec) in program.arrays.iter().enumerate() {
                let id = RegArrayId(ai as u16);
                for idx in 0..spec.entries {
                    assert_eq!(
                        sw.register(id, idx),
                        cs.register(id, idx),
                        "seed {seed} packet {pkt}: register {}[{idx}] diverged",
                        spec.name
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(checked > PROGRAMS * PACKETS_PER_PROGRAM / 2, "too few runs");
    // The generator must actually exercise the interesting paths.
    assert!(faults > 0, "no runtime faults generated");
    assert!(recirculated > 0, "no recirculation generated");
}

/// Run one batch through the interpreter packet by packet and through
/// `run_batch_soa`, demanding bit-for-bit identical pass counts, PHVs,
/// registers and fault behaviour: the earliest faulting packet's error
/// wins and every packet before it is fully applied.
fn check_soa_batch(label: &str, program: &SwitchProgram, phvs: &[Phv]) {
    let mut sw = Switch::new(program.clone()).unwrap();
    let mut cs = CompiledSwitch::compile(program).unwrap();
    let mut interp_phvs = phvs.to_vec();
    let mut interp_total = 0u64;
    let mut interp_err = None;
    let mut fault_at = interp_phvs.len();
    for (i, p) in interp_phvs.iter_mut().enumerate() {
        match sw.run(p) {
            Ok(n) => interp_total += u64::from(n),
            Err(e) => {
                interp_err = Some(e);
                fault_at = i;
                break;
            }
        }
    }
    let mut phvs = phvs.to_vec();
    match (cs.run_batch_soa(&mut phvs), interp_err) {
        (Ok(total), None) => {
            assert_eq!(total, interp_total, "{label}");
            assert_eq!(phvs, interp_phvs, "{label}: PHVs diverged");
        }
        (Err(ce), Some(ie)) => {
            assert_eq!(ce, ie, "{label}: fault diverged");
            assert_eq!(
                phvs[..fault_at],
                interp_phvs[..fault_at],
                "{label}: pre-fault PHVs diverged"
            );
        }
        (got, want) => panic!("{label}: SoA batch {got:?} vs interpreter {want:?}"),
    }
    for (ai, spec) in program.arrays.iter().enumerate() {
        let id = RegArrayId(ai as u16);
        for idx in 0..spec.entries {
            assert_eq!(
                sw.register(id, idx),
                cs.register(id, idx),
                "{label}: register {}[{idx}] diverged",
                spec.name
            );
        }
    }
}

/// The same equivalence through the structure-of-arrays engine: routing a
/// whole buffer through `run_batch_soa` (transpose → table-major lane
/// execution → transpose back, with per-packet fallback for ineligible
/// programs) must leave PHVs and registers exactly as the interpreter's
/// packet-at-a-time loop does — including the uniform-key, split-key-LUT,
/// selector and per-packet paths random programs fall into.
#[test]
fn soa_batches_match_interpreter_streams() {
    let mut soa_runs = 0usize;
    for seed in 0..32u64 {
        let (program, mut rng) = random_program(0x50A0_0000 + seed);
        if program.validate().is_err() {
            continue;
        }
        let cs = CompiledSwitch::compile(&program).unwrap();
        if cs.soa_eligible() {
            soa_runs += 1;
        }
        let phvs: Vec<Phv> = (0..48)
            .map(|_| {
                let mut p = cs.phv();
                for (id, spec) in program.layout.iter() {
                    let max = if spec.bits >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << spec.bits) - 1
                    };
                    p.set(id, rng.gen_range(0..=max));
                }
                p
            })
            .collect();
        check_soa_batch(&format!("seed {seed}"), &program, &phvs);
    }
    assert!(soa_runs > 0, "no SoA-eligible program generated");
}

/// Order-sensitive accumulator for the adversarial duplicate-slot tests:
/// `r[idx] < val ? r[idx] := val : r[idx] += 1`, exporting the OLD
/// register value into `out`. Any reorder of two same-slot packets
/// changes either the final register or some packet's exported output,
/// so bit-for-bit agreement here proves Phase C applies same-slot updates
/// in packet order.
fn order_sensitive_program(entries: usize) -> (SwitchProgram, FieldId, FieldId, FieldId) {
    let mut layout = PhvLayout::new();
    let idx = layout.field("idx", 16);
    let val = layout.field("val", 16);
    let out = layout.field("out", 32);
    let action = Action::nop("bump").call(StatefulCall {
        array: RegArrayId(0),
        index: Operand::Field(idx),
        cond: SaluCond::RegCmp {
            cmp: CmpOp::Lt,
            rhs: Operand::Field(val),
        },
        on_true: SaluUpdate::Write(Operand::Field(val)),
        on_false: SaluUpdate::AddWrap(Operand::Const(1)),
        output: Some((out, SaluOutput::Old)),
    });
    let program = SwitchProgram {
        caps: SwitchCaps::fpisa_extended(),
        layout,
        stages: vec![Stage::new().table(Table::always("t", action))],
        arrays: vec![RegisterArraySpec {
            name: "r".into(),
            width_bits: 32,
            entries,
            stage: 0,
        }],
        recirc_field: None,
    };
    program.validate().expect("directed program must validate");
    (program, idx, val, out)
}

/// Build one adversarial batch over [`order_sensitive_program`] and check
/// it against the interpreter.
fn check_adversarial_batch(
    pat: &str,
    program: &SwitchProgram,
    idx: FieldId,
    val: FieldId,
    idxs: &[u64],
    vals: &[u64],
) {
    let cs = CompiledSwitch::compile(program).unwrap();
    assert!(cs.soa_eligible(), "directed program must take the SoA path");
    let phvs: Vec<Phv> = idxs
        .iter()
        .zip(vals)
        .map(|(&i, &v)| {
            let mut p = cs.phv();
            p.set(idx, i);
            p.set(val, v);
            p
        })
        .collect();
    check_soa_batch(pat, program, &phvs);
}

/// Adversarial duplicate-slot batches for Phase C: all packets hitting
/// one slot, two slots alternating, and random indices with heavy
/// collisions, each 256 packets wide and checked bit-for-bit against the
/// interpreter.
#[test]
fn phase_c_survives_adversarial_duplicate_slots() {
    let entries = 5usize;
    let (program, idx, val, _out) = order_sensitive_program(entries);
    let mut rng = SmallRng::seed_from_u64(0x51D5_0001);
    let n = 256usize;
    let patterns: Vec<(&str, Vec<u64>)> = vec![
        ("all-same-slot", vec![3; n]),
        ("alternating", (0..n).map(|i| (i % 2) as u64).collect()),
        (
            "random-collisions",
            (0..n).map(|_| rng.gen_range(0..entries as u64)).collect(),
        ),
    ];
    for (pat, idxs) in &patterns {
        // Duplicate values too: ties are where a reordering would leak.
        let vals: Vec<u64> = idxs.iter().map(|_| rng.gen_range(0..8u64)).collect();
        check_adversarial_batch(pat, &program, idx, val, idxs, &vals);
    }
}

/// Fault semantics of the batched Phase C: an out-of-range index
/// mid-batch must fault exactly as the interpreter does — the earliest
/// faulting packet's error wins even when a later lane also faults, and
/// all packets before it land in full.
#[test]
fn phase_c_keeps_earliest_fault_semantics() {
    let entries = 5usize;
    let (program, idx, val, _out) = order_sensitive_program(entries);
    let mut rng = SmallRng::seed_from_u64(0x51D5_0002);
    let n = 256usize;
    let base: Vec<u64> = (0..n).map(|_| rng.gen_range(0..entries as u64)).collect();
    let oor = entries as u64 + 2;
    let cases: Vec<(&str, Vec<u64>)> = vec![
        ("fault-first-lane", {
            let mut v = base.clone();
            v[0] = oor;
            v
        }),
        ("fault-mid-batch", {
            let mut v = base.clone();
            v[113] = oor;
            v
        }),
        ("two-faults-earliest-wins", {
            let mut v = base.clone();
            v[40] = oor;
            v[200] = oor + 1;
            v
        }),
        ("fault-last-lane", {
            let mut v = base.clone();
            v[n - 1] = oor;
            v
        }),
    ];
    for (pat, idxs) in &cases {
        let vals: Vec<u64> = idxs.iter().map(|_| rng.gen_range(0..8u64)).collect();
        check_adversarial_batch(pat, &program, idx, val, idxs, &vals);
    }
}

/// A divergent batch on a table whose actions do *not* share one op
/// skeleton (different tape lengths and destinations, so no selector):
/// 2, 3 and 4 distinct actions plus MISS lanes, at 64 and 256 lanes, with
/// and without out-of-range indices. Every lane walks its own tape, and
/// PHVs, registers and the earliest fault must equal the interpreter's.
#[test]
fn divergent_non_selector_table_matches_interpreter() {
    let mut layout = PhvLayout::new();
    let k = layout.field("k", 4);
    let v = layout.field("v", 16);
    let w = layout.field("w", 16);
    let idx = layout.field("idx", 8);
    let out = layout.field("out", 32);
    let tail = layout.field("tail", 16);
    let call = |on_true, output| StatefulCall {
        array: RegArrayId(0),
        index: Operand::Field(idx),
        cond: SaluCond::RegCmp {
            cmp: CmpOp::Lt,
            rhs: Operand::Field(v),
        },
        on_true,
        on_false: SaluUpdate::AddWrap(Operand::Const(1)),
        output: Some((out, output)),
    };
    let actions = vec![
        Action::nop("inc")
            .prim(v, AluOp::Add, Operand::Field(v), Operand::Const(1))
            .call(call(SaluUpdate::Write(Operand::Field(v)), SaluOutput::Old)),
        Action::nop("mix")
            .prim(w, AluOp::Shl, Operand::Field(v), Operand::Const(2))
            .prim(v, AluOp::Xor, Operand::Field(w), Operand::Const(0x55))
            .call(call(SaluUpdate::AddSat(Operand::Field(w)), SaluOutput::New)),
        Action::nop("diff").prim(v, AluOp::Sub, Operand::Field(v), Operand::Field(w)),
        Action::nop("flag")
            .prim(w, AluOp::CmpLt, Operand::Field(v), Operand::Field(w))
            .prim(v, AluOp::And, Operand::Field(v), Operand::Const(0xFF))
            .prim(w, AluOp::Or, Operand::Field(w), Operand::Const(2))
            .call(call(
                SaluUpdate::MaxSigned(Operand::Field(v)),
                SaluOutput::Predicate,
            )),
    ];
    // No default action: keys 4..16 miss.
    let mut mixed = Table::keyed("mixed", vec![(k, MatchKind::Exact)], actions, None);
    for a in 0..4 {
        mixed = mixed.entry(vec![KeyMatch::Exact(a as u64)], 0, a);
    }
    // A later table, so packets before a fault are seen to keep executing.
    let fold = Action::nop("fold").prim(tail, AluOp::Xor, Operand::Field(v), Operand::Field(w));
    let entries = 8usize;
    let program = SwitchProgram {
        caps: SwitchCaps::fpisa_extended(),
        layout,
        stages: vec![
            Stage::new().table(mixed),
            Stage::new().table(Table::always("fold", fold)),
        ],
        arrays: vec![RegisterArraySpec {
            name: "r".into(),
            width_bits: 32,
            entries,
            stage: 0,
        }],
        recirc_field: None,
    };
    program.validate().expect("directed program must validate");
    let cs = CompiledSwitch::compile(&program).unwrap();
    assert!(cs.soa_eligible(), "directed program must take the SoA path");
    assert_eq!(
        cs.fusion_stats().selector_tables,
        0,
        "the table must not be selector-shaped"
    );

    let mut rng = SmallRng::seed_from_u64(0xD1FE_0001);
    for distinct in 2..=4u64 {
        for n in [64usize, 256] {
            for faults in [false, true] {
                let mut phvs: Vec<Phv> = (0..n)
                    .map(|_| {
                        let mut p = cs.phv();
                        // One lane in five misses; the rest spread over
                        // the first `distinct` actions.
                        let key = if rng.gen_range(0u32..5) == 0 {
                            15
                        } else {
                            rng.gen_range(0..distinct)
                        };
                        p.set(k, key);
                        p.set(v, rng.gen_range(0..1u64 << 16));
                        p.set(w, rng.gen_range(0..1u64 << 16));
                        p.set(idx, rng.gen_range(0..entries as u64));
                        p
                    })
                    .collect();
                // Every one of the `distinct` actions is present.
                for (a, p) in phvs.iter_mut().enumerate().take(distinct as usize) {
                    p.set(k, a as u64);
                }
                if faults {
                    // Two out-of-range lanes, both on stateful actions:
                    // the earlier one must win.
                    for (lane, bad) in [(n / 3, entries as u64 + 1), (2 * n / 3, 200)] {
                        phvs[lane].set(k, 0);
                        phvs[lane].set(idx, bad);
                    }
                }
                check_soa_batch(
                    &format!("{distinct} actions / {n} lanes / faults={faults}"),
                    &program,
                    &phvs,
                );
            }
        }
    }
}

/// The same equivalence through the batch API: running a whole buffer
/// through `run_batch` must leave PHVs and registers exactly as the
/// interpreter's packet-at-a-time loop does.
#[test]
fn compiled_batches_match_interpreter_streams() {
    for seed in 0..24u64 {
        let (program, mut rng) = random_program(0xBA7C_0000 + seed);
        if program.validate().is_err() {
            continue;
        }
        let mut sw = Switch::new(program.clone()).unwrap();
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        let mut phvs: Vec<Phv> = (0..32)
            .map(|_| {
                let mut p = sw.phv();
                for (id, spec) in program.layout.iter() {
                    let max = if spec.bits >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << spec.bits) - 1
                    };
                    p.set(id, rng.gen_range(0..=max));
                }
                p
            })
            .collect();
        let mut interp_phvs = phvs.clone();
        let batch_result = cs.run_batch(&mut phvs);
        let mut interp_total = 0u64;
        let mut interp_err = None;
        for p in &mut interp_phvs {
            match sw.run(p) {
                Ok(n) => interp_total += u64::from(n),
                Err(e) => {
                    interp_err = Some(e);
                    break;
                }
            }
        }
        match (batch_result, interp_err) {
            (Ok(total), None) => assert_eq!(total, interp_total, "seed {seed}"),
            (Err(ce), Some(ie)) => assert_eq!(ce, ie, "seed {seed}"),
            (got, want) => panic!("seed {seed}: batch {got:?} vs interpreter {want:?}"),
        }
        for (ai, spec) in program.arrays.iter().enumerate() {
            let id = RegArrayId(ai as u16);
            for idx in 0..spec.entries {
                assert_eq!(sw.register(id, idx), cs.register(id, idx), "seed {seed}");
            }
        }
    }
}
