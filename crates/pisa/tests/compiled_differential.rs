//! Property test: [`CompiledSwitch`] must be observationally identical to
//! the interpreting [`Switch`] on *random programs* — random layouts,
//! match kinds, priorities, actions, stateful calls and recirculation —
//! packet by packet: same output PHV, same register state, same pass
//! counts, and the same `RuntimeError` at the same point when a packet
//! faults (RAW violations, out-of-range indices, recirculation limits).

use fpisa_pisa::{
    Action, AluOp, BatchLanes, CmpOp, CompiledSwitch, DispatchCounts, FieldId, KeyMatch, MatchKind,
    Operand, Phv, PhvLayout, RegArrayId, RegisterArraySpec, SaluCond, SaluOutput, SaluUpdate,
    Stage, StatefulCall, Switch, SwitchCaps, SwitchProgram, Table,
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
        match self.rng.gen_range(0u32..6) {
            0 => Table::always(name, actions.into_iter().next().unwrap()),
            1 => self.shift_table(name),
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

    /// An enumerated shift table, the way Tofino spells a shift by a
    /// field: one exact entry per distance, each action one constant shift
    /// of one source into one destination — now and then `dst = 0` or an
    /// empty action — so that it lowers to shift rows whenever its key is
    /// narrow enough to index directly.
    fn shift_table(&mut self, name: String) -> Table {
        let (src, dst) = (self.field(), self.field());
        let keys: Vec<(FieldId, MatchKind)> = (0..self.rng.gen_range(1usize..3))
            .map(|_| (self.field(), MatchKind::Exact))
            .collect();
        let n_actions = self.rng.gen_range(2usize..12);
        let actions: Vec<Action> = (0..n_actions)
            .map(|i| {
                let a = Action::nop(format!("{name}_a{i}"));
                match self.rng.gen_range(0u32..10) {
                    0 => a,
                    1 => a.set(dst, Operand::Const(0)),
                    _ => {
                        let op = SHIFT_OPS[self.rng.gen_range(0..3)];
                        let c = Operand::Const(self.rng.gen_range(-2i64..70));
                        a.prim(dst, op, Operand::Field(src), c)
                    }
                }
            })
            .collect();
        let default = self
            .rng
            .gen::<bool>()
            .then(|| self.rng.gen_range(0..n_actions));
        let mut t = Table::keyed(name, keys.clone(), actions, default);
        for a in 0..n_actions {
            // Small key values, so random lanes hit entries as well as miss.
            let key: Vec<KeyMatch> = keys
                .iter()
                .map(|(f, _)| {
                    let max = field_max(self.widths[f.0 as usize]).min(7);
                    KeyMatch::Exact(self.rng.gen_range(0..=max))
                })
                .collect();
            t = t.entry(key, self.rng.gen_range(0u32..2), a);
        }
        t
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
            let mut pi = random_phv(&program, &mut rng);
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

/// `program` with one unused 33-bit field declared after its own: enough
/// to put every batch column on the 64-bit lane word, whatever the widths
/// the program really uses. The lane word is a property of the layout and
/// nothing public selects it, so this is how a test reaches the other one.
fn on_wide_lanes(program: &SwitchProgram) -> SwitchProgram {
    let mut wide = program.clone();
    wide.layout.field("lane_word_pad", 33);
    wide
}

/// Run one batch through the interpreter packet by packet and through
/// `run_batch_soa`, demanding bit-for-bit identical pass counts, PHVs,
/// registers and fault behaviour: the earliest faulting packet's error
/// wins and every packet before it is fully applied. The SoA engine runs
/// twice, on the program's own lane word and [`on_wide_lanes`], and must
/// dispatch both runs alike. Returns its per-table dispatch counts for the
/// batch, so a directed test can also pin the path it meant to exercise.
fn check_soa_batch(label: &str, program: &SwitchProgram, phvs: &[Phv]) -> Vec<DispatchCounts> {
    let mut sw = Switch::new(program.clone()).unwrap();
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
    let mut counts: Vec<Vec<DispatchCounts>> = Vec::new();
    for (word, program) in [("own", program.clone()), ("wide", on_wide_lanes(program))] {
        let label = format!("{label} / {word} lane word");
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        // The same packets in this layout (the pad field stays zero).
        let mut got: Vec<Phv> = phvs
            .iter()
            .map(|p| {
                let mut q = Phv::new(&program.layout);
                for (id, _) in sw.program().layout.iter() {
                    q.set(id, p.get(id));
                }
                q
            })
            .collect();
        let result = cs.run_batch_soa(&mut got);
        let same = |upto: usize, what: &str| {
            for (i, (g, w)) in got[..upto].iter().zip(&interp_phvs).enumerate() {
                for (id, spec) in sw.program().layout.iter() {
                    let (g, w) = (g.get(id), w.get(id));
                    assert_eq!(g, w, "{label}: {what} diverged, lane {i} `{}`", spec.name);
                }
            }
        };
        match (result, &interp_err) {
            (Ok(total), None) => {
                assert_eq!(total, interp_total, "{label}");
                same(got.len(), "PHVs");
            }
            (Err(ce), Some(ie)) => {
                assert_eq!(&ce, ie, "{label}: fault diverged");
                same(fault_at, "pre-fault PHVs");
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
        counts.push(cs.dispatch_counts().to_vec());
    }
    assert_eq!(
        counts[0], counts[1],
        "{label}: the lane word changed the dispatch"
    );
    counts.swap_remove(0)
}

/// One PHV with every field drawn uniformly from its width.
fn random_phv(program: &SwitchProgram, rng: &mut SmallRng) -> Phv {
    let mut p = Phv::new(&program.layout);
    for (id, spec) in program.layout.iter() {
        let max = if spec.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << spec.bits) - 1
        };
        p.set(id, rng.gen_range(0..=max));
    }
    p
}

/// The same equivalence through the structure-of-arrays engine: routing a
/// whole buffer through `run_batch_soa` (transpose → table-major lane
/// execution → transpose back, with per-packet fallback for ineligible
/// programs) must leave PHVs and registers exactly as the interpreter's
/// packet-at-a-time loop does — including the uniform-key, split-key-LUT,
/// masked, shift-row and per-packet paths random programs fall into.
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
        let phvs: Vec<Phv> = (0..48).map(|_| random_phv(&program, &mut rng)).collect();
        check_soa_batch(&format!("seed {seed}"), &program, &phvs);
    }
    assert!(soa_runs > 0, "no SoA-eligible program generated");
}

/// The batch shape real callers produce: some input columns hold one value
/// in every lane (an opcode), the rest vary. A random subset of the fields
/// is shared by all lanes — so the engine's column facts come out
/// `Uniform` for them, tables resolve through the uniform and split-LUT
/// paths, and every action that writes such a column must make the batch
/// forget what it knew. In the second shape only the *last* lane breaks
/// the pattern, which a fact sweep that stopped early would miss.
#[test]
fn soa_uniform_column_batches_match_interpreter() {
    let mut soa_runs = 0usize;
    let (mut uniform_lookups, mut windowed, mut rows) = (0u64, 0u64, 0u64);
    for seed in 0..400u64 {
        let (program, mut rng) = random_program(0xFAC7_0000 + seed);
        if program.validate().is_err() {
            continue;
        }
        let cs = CompiledSwitch::compile(&program).unwrap();
        if cs.soa_eligible() {
            soa_runs += 1;
        }
        // (index field, entries of the array it indexes), per stateful call.
        let mut indexed: Vec<(FieldId, usize)> = Vec::new();
        for call in (program.stages.iter())
            .flat_map(|s| &s.tables)
            .flat_map(|t| &t.actions)
            .flat_map(|a| &a.stateful)
        {
            if let Operand::Field(f) = call.index {
                indexed.push((f, program.arrays[call.array.0 as usize].entries));
            }
        }
        for last_lane_differs in [false, true] {
            let n = [17usize, 48, 64, 100][rng.gen_range(0..4)];
            let shared = random_phv(&program, &mut rng);
            // Each field is shared with probability 2/3.
            let is_shared: Vec<bool> = program
                .layout
                .iter()
                .map(|_| rng.gen_range(0u32..3) != 0)
                .collect();
            let mut phvs: Vec<Phv> = (0..n)
                .map(|_| {
                    let mut p = random_phv(&program, &mut rng);
                    for ((id, _), &on) in program.layout.iter().zip(&is_shared) {
                        if on {
                            p.set(id, shared.get(id));
                        }
                    }
                    p
                })
                .collect();
            if last_lane_differs {
                phvs[n - 1] = random_phv(&program, &mut rng);
            }
            // The traffic real callers send: half the time, a field that
            // indexes a register array counts up slot by slot in runs —
            // mostly inside the array, now and then off its end.
            for &(f, entries) in &indexed {
                if rng.gen::<bool>() {
                    continue;
                }
                let mut i = 0;
                while i < n {
                    // Long runs (from slot 0) as often as any other.
                    let first = rng.gen_range(0..entries) * usize::from(rng.gen::<bool>());
                    let room = entries - first + usize::from(rng.gen_range(0u32..6) == 0);
                    for (k, p) in phvs[i..].iter_mut().take(room).enumerate() {
                        p.set(f, (first + k) as u64);
                    }
                    i += room;
                }
            }
            // The table-major engine lets the lanes after a faulting one
            // run the tables before the fault, register updates included;
            // the interpreter never starts them. End the batch at the
            // first fault, where both agree: every lane before it in full.
            let mut sw = Switch::new(program.clone()).unwrap();
            if let Some(fault_at) = phvs.iter().position(|p| sw.run(&mut p.clone()).is_err()) {
                phvs.truncate(fault_at + 1);
            }
            let counts = check_soa_batch(
                &format!("seed {seed} / last lane differs: {last_lane_differs}"),
                &program,
                &phvs,
            );
            uniform_lookups += counts.iter().map(|c| c.uniform_lookup).sum::<u64>();
            windowed += counts.iter().map(|c| c.windowed).sum::<u64>();
            rows += counts.iter().map(|c| c.rows).sum::<u64>();
        }
    }
    assert!(soa_runs > 0, "no SoA-eligible program generated");
    assert!(uniform_lookups > 0, "no batch resolved a table uniformly");
    assert!(rows > 0, "no batch ran a table as shift rows");
    assert!(
        windowed > 100,
        "only {windowed} lanes ran in a register window"
    );
}

/// Write one batch's input columns into `lanes` the way callers do — a
/// field at a time, through a randomly chosen column writer (`fill`,
/// `fill_iota`, `fill_slice` in two pieces, or `set` lane by lane), each
/// of which may leave a gap of lanes it does not write. Each field is an
/// input with probability 1/2; the rest are left as `begin` left them.
/// Returns the PHVs the same packets are as fresh [`Phv::new`] packets.
fn fill_inputs(program: &SwitchProgram, lanes: &mut BatchLanes, rng: &mut SmallRng) -> Vec<Phv> {
    let n = lanes.len();
    let mut phvs = vec![Phv::new(&program.layout); n];
    for (id, spec) in program.layout.iter() {
        if rng.gen::<bool>() {
            continue;
        }
        let max = field_max(spec.bits);
        let mut col = vec![None; n];
        let at = rng.gen_range(0..=n);
        match rng.gen_range(0u32..4) {
            0 => {
                let v = rng.gen_range(0..=max);
                lanes.fill(id, at, v);
                col[at..].fill(Some(v));
            }
            1 => {
                let (len, first) = (rng.gen_range(0..=n - at), rng.gen::<u64>());
                lanes.fill_iota(id, at, len, first);
                for (k, c) in col[at..at + len].iter_mut().enumerate() {
                    *c = Some(first.wrapping_add(k as u64));
                }
            }
            2 => {
                let (mid, to) = (rng.gen_range(at..=n), rng.gen_range(at..=n));
                for piece in [at..mid.min(to), mid.max(to)..n] {
                    let words: Vec<u64> = piece.clone().map(|_| rng.gen::<u64>()).collect();
                    lanes.fill_slice(id, piece.start, &words);
                    for (c, &w) in col[piece].iter_mut().zip(&words) {
                        *c = Some(w);
                    }
                }
            }
            _ => {
                for (i, c) in col.iter_mut().enumerate() {
                    if rng.gen::<bool>() {
                        let v = rng.gen::<u64>();
                        lanes.set(id, i, v);
                        *c = Some(v);
                    }
                }
            }
        }
        for (p, c) in phvs.iter_mut().zip(col) {
            p.set(id, c.unwrap_or(0));
        }
    }
    phvs
}

/// A reused batch buffer holds what its last batch left: every column of
/// a full batch is first set to random non-zero values and run, then fresh
/// batches fill only some input columns (through every column writer,
/// with gaps) and run through `run_lanes` — on SoA-eligible programs the
/// table-major engine, whose columns are zeroed only where a table reads
/// them, and otherwise the per-lane fallback. Every field of every lane,
/// read back through `get`, and every register must equal the
/// interpreter's on fresh PHVs; a faulting batch must fault alike and
/// agree on every lane up to the faulting one.
#[test]
fn reused_lanes_read_like_fresh_packets_on_random_programs() {
    const DIRTY: usize = 100;
    let (mut soa, mut faults) = (0usize, 0usize);
    for seed in 0..160u64 {
        let (program, mut rng) = random_program(0x57A1_0000 + seed);
        if program.validate().is_err() {
            continue;
        }
        let mut lanes = BatchLanes::new(&program.layout, DIRTY);
        lanes.begin(DIRTY);
        for (id, spec) in program.layout.iter() {
            let max = field_max(spec.bits);
            let words: Vec<u64> = (0..DIRTY).map(|_| rng.gen_range(1..=max)).collect();
            lanes.fill_slice(id, 0, &words);
        }
        let mut dirty = CompiledSwitch::compile(&program).unwrap();
        let _ = dirty.run_lanes(&mut lanes);
        let mut sw = Switch::new(program.clone()).unwrap();
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        soa += usize::from(cs.soa_eligible());
        for (b, n) in [
            rng.gen_range(1..=DIRTY),
            DIRTY,
            rng.gen_range(1..=DIRTY),
            130,
        ]
        .into_iter()
        .enumerate()
        {
            let label = format!("seed {seed} batch {b} ({n} lanes)");
            lanes.begin(n);
            let mut want = fill_inputs(&program, &mut lanes, &mut rng);
            let fault = want.iter_mut().enumerate().find_map(|(i, p)| {
                let ran = sw.run(p);
                ran.err().map(|e| (i, e))
            });
            let got = cs.run_lanes(&mut lanes);
            let upto = fault.as_ref().map_or(n, |(i, _)| i + 1);
            for (i, p) in want[..upto].iter().enumerate() {
                for (id, spec) in program.layout.iter() {
                    let (g, w) = (lanes.get(id, i), p.get(id));
                    assert_eq!(g, w, "{label}: lane {i} `{}`", spec.name);
                }
            }
            if let Some((_, e)) = fault {
                assert_eq!(got, Err(e), "{label}");
                faults += 1;
                break; // later lanes may have run the tables before the fault
            }
            assert_eq!(got.map(drop), Ok(()), "{label}");
            assert_eq!(cs.register_state(), sw.register_state(), "{label}");
        }
    }
    assert!(soa > 40, "only {soa} SoA-eligible programs");
    assert!(faults > 0, "no faulting batch");
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
) -> Vec<DispatchCounts> {
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
    check_soa_batch(pat, program, &phvs)
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
/// skeleton (different tape lengths and destinations): 2, 3 and 4 distinct
/// actions plus MISS lanes, at 64 and 256 lanes, with and without
/// out-of-range indices. Each distinct action sweeps the batch masked, each
/// lane makes its own action's stateful call, and PHVs, registers and the
/// earliest fault must equal the interpreter's.
#[test]
fn divergent_mixed_action_table_matches_interpreter() {
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
                let label = format!("{distinct} actions / {n} lanes / faults={faults}");
                let counts = check_soa_batch(&label, &program, &phvs);
                assert_eq!(counts[0].masked, 1, "{label}");
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
        // Odd seeds on the other lane word.
        let program = if seed % 2 == 0 {
            program
        } else {
            on_wide_lanes(&program)
        };
        let mut sw = Switch::new(program.clone()).unwrap();
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        let mut phvs: Vec<Phv> = (0..32).map(|_| random_phv(&program, &mut rng)).collect();
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

// ---------------------------------------------------------------------
// Directed tests for the batch engine's column facts (Phase A), masked
// per-action sweeps (Phase B) and fused in-order stateful loop (Phase C).
// Every one compares against the interpreter through `check_soa_batch`;
// the dispatch counts it returns pin the path the test means to take.
// ---------------------------------------------------------------------

/// A program over `layout` with one table per stage.
fn staged(layout: PhvLayout, tables: Vec<Table>, arrays: Vec<RegisterArraySpec>) -> SwitchProgram {
    let program = SwitchProgram {
        caps: SwitchCaps::fpisa_extended(),
        layout,
        stages: tables.into_iter().map(|t| Stage::new().table(t)).collect(),
        arrays,
        recirc_field: None,
    };
    program.validate().expect("directed program must validate");
    assert!(
        CompiledSwitch::compile(&program).unwrap().soa_eligible(),
        "directed program must take the SoA path"
    );
    program
}

fn array(name: &str, width_bits: u32, entries: usize, stage: usize) -> RegisterArraySpec {
    RegisterArraySpec {
        name: name.into(),
        width_bits,
        entries,
        stage,
    }
}

/// `n` PHVs of `program`, field `f` of lane `i` set to `fill(f, i)` for
/// every `(f, fill)` given.
fn batch(program: &SwitchProgram, n: usize, cols: &[(FieldId, &dyn Fn(usize) -> u64)]) -> Vec<Phv> {
    (0..n)
        .map(|i| {
            let mut p = Phv::new(&program.layout);
            for (f, fill) in cols {
                p.set(*f, fill(i));
            }
            p
        })
        .collect()
}

/// An exact-match table on `key` with one `out = value` action per listed
/// key value, and `out = 99` as the default.
fn reader(name: &str, key: FieldId, out: FieldId, values: &[u64]) -> Table {
    let set = |v: i64| Action::nop(format!("{name}{v}")).set(out, Operand::Const(v));
    let mut actions: Vec<Action> = values.iter().map(|&v| set(v as i64 + 20)).collect();
    actions.push(set(99));
    let mut t = Table::keyed(
        name,
        vec![(key, MatchKind::Exact)],
        actions,
        Some(values.len()),
    );
    for (a, &v) in values.iter().enumerate() {
        t = t.entry(vec![KeyMatch::Exact(v)], 0, a);
    }
    t
}

/// T0 matches on `k` (so the batch takes `k`'s fact), T1 writes `k`, T2
/// matches on `k` again: whatever T0 learned must be forgotten, whether
/// T1 runs one action with constant operands (a varying column becomes
/// uniform), one action with field operands (a uniform column starts to
/// vary), or different actions on different lanes.
#[test]
fn a_table_writing_a_key_column_invalidates_its_fact() {
    let mut l = PhvLayout::new();
    let k = l.field("k", 4);
    let j = l.field("j", 4);
    let x = l.field("x", 16);
    let seen = l.field("seen", 8);
    let out = l.field("out", 8);
    let const_write = Action::nop("const").set(k, Operand::Const(5));
    let field_write =
        Action::nop("field").prim(k, AluOp::And, Operand::Field(x), Operand::Const(0xF));
    let writers = [
        ("uniform/const", Table::always("w", const_write.clone())),
        ("uniform/field", Table::always("w", field_write.clone())),
        (
            "divergent",
            // j = 0 → const, j = 1 → field, anything else leaves k alone.
            Table::keyed(
                "w",
                vec![(j, MatchKind::Exact)],
                vec![const_write, field_write],
                None,
            )
            .entry(vec![KeyMatch::Exact(0)], 0, 0)
            .entry(vec![KeyMatch::Exact(1)], 0, 1),
        ),
    ];
    for (name, writer) in writers {
        let program = staged(
            l.clone(),
            vec![
                reader("probe", k, seen, &[3, 4]),
                writer,
                reader("read", k, out, &[3, 5, 7, 9]),
            ],
            vec![],
        );
        for k_uniform in [false, true] {
            for x_uniform in [false, true] {
                let phvs = batch(
                    &program,
                    70,
                    &[
                        (k, &|i| if k_uniform { 3 } else { 3 + (i as u64 % 3) }),
                        (x, &|i| if x_uniform { 7 } else { i as u64 * 5 }),
                        (j, &|i| i as u64 % 3),
                    ],
                );
                let label = format!("{name} / k uniform {k_uniform} / x uniform {x_uniform}");
                let counts = check_soa_batch(&label, &program, &phvs);
                // The probe did resolve off the fact under test …
                assert_eq!(counts[0].uniform_lookup, u64::from(k_uniform), "{label}");
                // … and the reader off the column as the writer left it.
                let now_uniform = match name {
                    "uniform/const" => true,
                    "uniform/field" => x_uniform,
                    _ => false,
                };
                assert_eq!(counts[2].uniform_lookup, u64::from(now_uniform), "{label}");
            }
        }
    }
}

/// A fact is taken over the lanes live at the time. When a fault narrows
/// the batch afterwards, `Uniform` is still true of the lanes that are
/// left and `Varying` merely pessimistic — here the key column is uniform
/// exactly over the prefix before the faulting lane.
#[test]
fn facts_taken_before_a_fault_stay_correct_after_it() {
    let mut l = PhvLayout::new();
    let k = l.field("k", 4);
    let idx = l.field("idx", 8);
    let seen = l.field("seen", 8);
    let out = l.field("out", 8);
    let bump = Action::nop("bump").call(StatefulCall {
        array: RegArrayId(0),
        index: Operand::Field(idx),
        cond: SaluCond::Always,
        on_true: SaluUpdate::AddSat(Operand::Const(1)),
        on_false: SaluUpdate::Keep,
        output: None,
    });
    let program = staged(
        l,
        vec![
            reader("probe", k, seen, &[3, 4]),
            Table::always("bump", bump),
            reader("read", k, out, &[3, 4, 5]),
        ],
        vec![array("r", 32, 4, 1)],
    );
    let n = 64;
    for fault_at in [1usize, 20, 63] {
        for uniform_after in [false, true] {
            let phvs = batch(
                &program,
                n,
                &[
                    (k, &|i| {
                        if i < fault_at || uniform_after {
                            3
                        } else {
                            4 + (i as u64 % 2)
                        }
                    }),
                    (idx, &|i| if i == fault_at { 9 } else { i as u64 % 4 }),
                ],
            );
            let label = format!("fault at {fault_at} / uniform after it: {uniform_after}");
            let counts = check_soa_batch(&label, &program, &phvs);
            assert_eq!(counts[0].lanes, n as u64, "{label}");
            assert_eq!(counts[2].lanes, fault_at as u64, "{label}: narrowed");
            // The stale `Varying` costs the per-lane path, nothing else.
            assert_eq!(
                counts[2].uniform_lookup,
                u64::from(uniform_after),
                "{label}"
            );
        }
    }
}

/// Every entry of the table pins `op = 1`, so the table is gated on `op`:
/// a batch whose `op` column is uniformly something else is decided by one
/// compare, one whose `op` is uniformly 1 passes the gate for every lane,
/// and a mixed batch is gated lane by lane.
#[test]
fn a_gate_on_a_uniform_column_decides_the_whole_batch() {
    let mut l = PhvLayout::new();
    let op = l.field("op", 2);
    let mag = l.field("mag", 40);
    let out = l.field("out", 8);
    for default in [None, Some(2)] {
        let set = |v: i64| Action::nop(format!("set{v}")).set(out, Operand::Const(v));
        let mut t = Table::keyed(
            "gated",
            vec![(op, MatchKind::Exact), (mag, MatchKind::Ternary)],
            vec![set(1), set(2), set(9)],
            default,
        );
        for (bit, action) in [(35u32, 0usize), (7, 1)] {
            let pat = KeyMatch::Ternary {
                value: 1 << bit,
                mask: 1 << bit,
            };
            t = t.entry(vec![KeyMatch::Exact(1), pat], bit, action);
        }
        let program = staged(l.clone(), vec![t], vec![]);
        for (shape, gate_decided) in [("fails", 1), ("passes", 0), ("mixed", 0)] {
            let phvs = batch(
                &program,
                77,
                &[
                    (op, &|i| match shape {
                        "fails" => 2,
                        "passes" => 1,
                        _ => i as u64 % 3,
                    }),
                    (mag, &|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A) >> 8),
                ],
            );
            let label = format!("gate {shape} / default {default:?}");
            let counts = check_soa_batch(&label, &program, &phvs);
            assert_eq!(counts[0].gate_decided, gate_decided, "{label}");
            assert_eq!(counts[0].per_lane, 1 - gate_decided, "{label}");
        }
    }
}

/// Keys the folded per-lane path does not take: more varying columns than
/// it packs, a tuple wider than 64 bits, and a varying width one bit past
/// the split-LUT's — next to the widest one the LUT does take.
#[test]
fn wide_keys_and_many_varying_columns_fall_back_to_per_lane_lookup() {
    let mut l = PhvLayout::new();
    let nibbles: Vec<FieldId> = (0..9).map(|i| l.field(format!("n{i}"), 4)).collect();
    let wide = l.field("wide", 64);
    let b6 = l.field("b6", 6);
    let b7 = l.field("b7", 7);
    // One output per table, so no table hides another's result.
    let outs: Vec<FieldId> = (0..4).map(|t| l.field(format!("out{t}"), 8)).collect();
    let set = |t: usize, v: i64| Action::nop(format!("set{v}")).set(outs[t], Operand::Const(v));
    let nine_keys: Vec<(FieldId, MatchKind)> =
        nibbles.iter().map(|&f| (f, MatchKind::Exact)).collect();
    let mut nine = Table::keyed(
        "nine",
        nine_keys,
        vec![set(0, 1), set(0, 2), set(0, 3)],
        Some(2),
    );
    // Lane `i` carries nibble `(i + c) % 16` in column `c`.
    let tuple =
        |i: u64| -> Vec<KeyMatch> { (0..9).map(|c| KeyMatch::Exact((i + c) % 16)).collect() };
    nine = nine.entry(tuple(3), 1, 0).entry(tuple(8), 1, 1);
    let mut any_but_first = tuple(5);
    any_but_first[1..].fill(KeyMatch::Any);
    nine = nine.entry(any_but_first, 0, 1);
    let over_64 = Table::keyed(
        "over64",
        vec![(wide, MatchKind::Exact), (nibbles[0], MatchKind::Exact)],
        vec![set(1, 4), set(1, 5)],
        None,
    )
    .entry(
        vec![KeyMatch::Exact(u64::MAX - 2), KeyMatch::Exact(2)],
        0,
        0,
    )
    .entry(vec![KeyMatch::Any, KeyMatch::Exact(7)], 0, 1);
    let lut_sized = |t: usize, name: &str, key: FieldId| {
        let actions = vec![set(t, 6), set(t, 7)];
        Table::keyed(name, vec![(key, MatchKind::Exact)], actions, None)
            .entry(vec![KeyMatch::Exact(1)], 0, 0)
            .entry(vec![KeyMatch::Exact(33)], 0, 1)
    };
    let program = staged(
        l,
        vec![
            nine,
            over_64,
            lut_sized(2, "six", b6),
            lut_sized(3, "seven", b7),
        ],
        vec![],
    );
    let nibble_cols: Vec<Box<dyn Fn(usize) -> u64>> = (0..9u64)
        .map(|c| Box::new(move |i: usize| (i as u64 + c) % 16) as Box<dyn Fn(usize) -> u64>)
        .collect();
    let mut cols: Vec<(FieldId, &dyn Fn(usize) -> u64)> = nibbles
        .iter()
        .zip(&nibble_cols)
        .map(|(&f, fill)| (f, fill.as_ref()))
        .collect();
    cols.push((wide, &|i| u64::MAX - i as u64 % 5));
    cols.push((b6, &|i| i as u64 % 64));
    cols.push((b7, &|i| i as u64 % 128));
    let counts = check_soa_batch("fallbacks", &program, &batch(&program, 200, &cols));
    for (t, name) in ["nine", "over64"].iter().enumerate() {
        assert_eq!((counts[t].per_lane, counts[t].lut), (1, 0), "{name}");
    }
    assert_eq!((counts[2].per_lane, counts[2].lut), (0, 1), "six bits: LUT");
    assert_eq!((counts[3].per_lane, counts[3].lut), (1, 0), "seven bits");
}

/// Scan-only tables (no all-exact entry) under a uniform `op` column: the
/// entries `op` rules out are dropped once per batch, and what is left is
/// swept on the varying column(s) — mask/value rows on half-width or full
/// lanes, a range pattern, and two varying columns.
#[test]
fn scan_tables_fold_their_uniform_columns() {
    let mut l = PhvLayout::new();
    let op = l.field("op", 2);
    let narrow = l.field("narrow", 16);
    let wide = l.field("wide", 48);
    let r = l.field("r", 12);
    // One output per table, so no table hides another's result.
    let outs: Vec<FieldId> = (0..4).map(|t| l.field(format!("out{t}"), 8)).collect();
    let set = |t: usize, v: i64| Action::nop(format!("set{v}")).set(outs[t], Operand::Const(v));
    let top_bit = |t: usize, name: &str, key: FieldId, bits: u32, default| {
        // One entry per leading-one position, as the FPISA `find_top`.
        let actions = (0..bits as i64).chain([77]).map(|v| set(t, v)).collect();
        let keys = vec![(op, MatchKind::Exact), (key, MatchKind::Ternary)];
        let mut t = Table::keyed(name, keys, actions, default);
        for b in 0..bits {
            let pat = KeyMatch::Ternary {
                value: 1 << b,
                mask: !0 << b,
            };
            // `op = 2` entries outrank the `op = 1` ones but must never
            // win on an `op = 1` batch.
            t = t.entry(vec![KeyMatch::Exact(1), pat], b + 1, b as usize);
            t = t.entry(vec![KeyMatch::Exact(2), pat], b + 100, bits as usize);
        }
        t
    };
    let ranged = Table::keyed(
        "ranged",
        vec![(op, MatchKind::Exact), (r, MatchKind::Range)],
        vec![set(2, 1), set(2, 2), set(2, 3)],
        Some(2),
    )
    .entry(
        vec![KeyMatch::Exact(1), KeyMatch::Range { lo: 10, hi: 200 }],
        1,
        0,
    )
    .entry(
        vec![KeyMatch::Exact(1), KeyMatch::Range { lo: 150, hi: 900 }],
        2,
        1,
    )
    .entry(
        vec![KeyMatch::Any, KeyMatch::Range { lo: 4000, hi: 4095 }],
        0,
        0,
    );
    let two_cols = Table::keyed(
        "two",
        vec![
            (op, MatchKind::Exact),
            (narrow, MatchKind::Ternary),
            (r, MatchKind::Ternary),
        ],
        vec![set(3, 4), set(3, 5)],
        None,
    )
    .entry(
        vec![
            KeyMatch::Exact(1),
            KeyMatch::Ternary { value: 1, mask: 1 },
            KeyMatch::Ternary { value: 0, mask: 2 },
        ],
        0,
        0,
    )
    .entry(
        vec![
            KeyMatch::Any,
            KeyMatch::Any,
            KeyMatch::Ternary { value: 4, mask: 4 },
        ],
        0,
        1,
    );
    let program = staged(
        l,
        vec![
            top_bit(0, "narrow", narrow, 16, None),
            top_bit(1, "wide", wide, 48, Some(48)),
            ranged,
            two_cols,
        ],
        vec![],
    );
    for n in [5usize, 64, 131] {
        for op_uniform in [true, false] {
            let phvs = batch(
                &program,
                n,
                &[
                    (op, &|i| if op_uniform { 1 } else { i as u64 % 3 }),
                    (narrow, &|i| (i as u64).wrapping_mul(0x9E37) >> (i % 13)),
                    (wide, &|i| {
                        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (16 + i % 40)
                    }),
                    (r, &|i| (i as u64 * 37) % 4096),
                ],
            );
            let label = format!("{n} lanes / op uniform {op_uniform}");
            let counts = check_soa_batch(&label, &program, &phvs);
            for c in &counts {
                assert_eq!(c.per_lane, 1, "{label}: {c:?}");
            }
        }
    }
}

/// `find_top`'s row shape and its near misses. Leading-one rows on one
/// varying column resolve by each lane's masked leading one (`leading`);
/// a row of another shape — a value that is not one bit, a mask pinning
/// bits below the one, a different top bit — or a second varying key
/// column keeps the row sweep (`claimed`). The rows cover bits `t..=9` of
/// a 16-bit key whose lanes also carry bits above 9; one position holds a
/// second row that outranks its neighbours and another holds a tie that
/// must lose; some lanes are zero under the mask, on tables with and
/// without a default.
#[test]
fn leading_one_rows_resolve_by_the_leading_one() {
    const TOP: u32 = 9;
    let mut l = PhvLayout::new();
    let op = l.field("op", 2);
    let k = l.field("k", 16);
    let k2 = l.field("k2", 4);
    let outs: Vec<FieldId> = (0..6).map(|t| l.field(format!("out{t}"), 8)).collect();
    let lead = |b: u32| KeyMatch::Ternary {
        value: 1 << b,
        mask: (2 << TOP) - (1 << b),
    };
    // Actions: `out = b` per position, then 50, 51 and 77.
    let lpm = |t: usize, default: bool, odd: Option<KeyMatch>, second_col: bool| {
        let set = |v: i64| Action::nop(format!("set{v}")).set(outs[t], Operand::Const(v));
        let actions = (0..=TOP as i64).chain([50, 51, 77]).map(set).collect();
        let mut keys = vec![(op, MatchKind::Exact), (k, MatchKind::Ternary)];
        if second_col {
            keys.push((k2, MatchKind::Ternary));
        }
        let (a50, a51, a77) = (TOP as usize + 1, TOP as usize + 2, TOP as usize + 3);
        let mut rows = Vec::new();
        for b in 0..=TOP {
            rows.push((vec![KeyMatch::Exact(1), lead(b)], b + 1, b as usize));
            // Outranks every `op = 1` row, but never on an `op = 1` batch.
            rows.push((vec![KeyMatch::Exact(2), lead(b)], 100, a77));
        }
        // Position 3 has a second row above everything; position 5 a tie
        // installed later, which loses.
        rows.push((vec![KeyMatch::Exact(1), lead(3)], 50, a50));
        rows.push((vec![KeyMatch::Exact(1), lead(5)], 6, a51));
        if let Some(odd) = odd {
            rows.push((vec![KeyMatch::Exact(1), odd], 60, a77));
        }
        if second_col {
            let pin = KeyMatch::Ternary { value: 1, mask: 1 };
            rows.push((vec![KeyMatch::Exact(1), lead(7), pin], 70, a50));
        }
        let table = Table::keyed(format!("lpm{t}"), keys, actions, default.then_some(a77));
        rows.into_iter()
            .fold(table, |table, (mut key, priority, action)| {
                key.resize(if second_col { 3 } else { 2 }, KeyMatch::Any);
                table.entry(key, priority, action)
            })
    };
    let odd = |value, mask| KeyMatch::Ternary { value, mask };
    let program = staged(
        l,
        vec![
            lpm(0, false, None, false),
            lpm(1, true, None, false),
            lpm(2, true, Some(odd(5, 7)), false),
            lpm(3, true, Some(odd(1 << 2, (2 << TOP) - 1)), false),
            lpm(4, false, Some(odd(1 << 4, (1 << TOP) - (1 << 4))), false),
            lpm(5, false, None, true),
        ],
        vec![],
    );
    let key = |i: usize| {
        let x = (i as u64).wrapping_mul(0x9E37) >> (i % 13);
        // Zero under the mask; zero; leading ones at 0..=2, at 3 and at 5
        // (two rows each), and at 9 over a clear 5..=8; the rest anywhere.
        // Junk above the mask throughout.
        let high = x & 0xFC00;
        match i % 7 {
            0 => high,
            1 => 0,
            2 => high | (x & 7),
            3 => high | 0x210 | (x & 0xF),
            4 => high | 0x8 | (x & 7),
            5 => high | 0x20 | (x & 0x1F),
            _ => x & 0xFFFF,
        }
    };
    for n in [5usize, 64, 131] {
        let phvs = batch(
            &program,
            n,
            &[(op, &|_| 1), (k, &key), (k2, &|i| i as u64 % 16)],
        );
        let label = format!("{n} lanes");
        let counts = check_soa_batch(&label, &program, &phvs);
        let arms: Vec<_> = counts
            .iter()
            .map(|c| (c.per_lane, c.leading, c.claimed))
            .collect();
        assert_eq!(
            arms,
            [
                (1, 1, 0),
                (1, 1, 0),
                (1, 0, 1),
                (1, 0, 1),
                (1, 0, 1),
                (1, 0, 1)
            ],
            "{label}"
        );
    }
}

/// A table of `n_actions` actions that share no op skeleton (tape lengths,
/// destinations and operand kinds differ), most of them stateful, keyed
/// exactly on `k` with no default: key `a` runs action `a`, keys past the
/// last action miss.
fn divergent_program(n_actions: usize, entries: usize) -> (SwitchProgram, [FieldId; 4]) {
    let mut l = PhvLayout::new();
    let k = l.field("k", 8);
    let v = l.field("v", 16);
    let w = l.field("w", 16);
    let idx = l.field("idx", 8);
    let out = l.field("out", 32);
    let tail = l.field("tail", 16);
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
    let (fv, fw) = (Operand::Field(v), Operand::Field(w));
    let actions: Vec<Action> = (0..n_actions)
        .map(|a| {
            let c = Operand::Const(a as i64 + 1);
            let action = Action::nop(format!("a{a}"));
            match a % 4 {
                // Every op reads its own destination.
                0 => action
                    .prim(v, AluOp::Add, fv, c)
                    .prim(v, AluOp::Xor, fv, fw)
                    .prim(v, AluOp::Shl, fv, Operand::Const(1))
                    .call(call(SaluUpdate::Write(fv), SaluOutput::Old)),
                1 => action
                    .prim(w, AluOp::Shl, fv, Operand::Const(2))
                    .prim(v, AluOp::Xor, fw, c)
                    .call(call(SaluUpdate::AddSat(fw), SaluOutput::New)),
                2 => action.prim(v, AluOp::Sub, fv, fw),
                _ => action
                    .prim(w, AluOp::CmpLt, fv, fw)
                    .prim(v, AluOp::And, fv, Operand::Const(0xFF))
                    .prim(w, AluOp::Or, fw, c)
                    .call(call(SaluUpdate::MaxSigned(fv), SaluOutput::Predicate)),
            }
        })
        .collect();
    let mut mixed = Table::keyed("mixed", vec![(k, MatchKind::Exact)], actions, None);
    for a in 0..n_actions {
        mixed = mixed.entry(vec![KeyMatch::Exact(a as u64)], 0, a);
    }
    // A later table, so packets before a fault are seen to keep executing.
    let fold = Action::nop("fold").prim(tail, AluOp::Xor, fv, fw);
    let program = staged(
        l,
        vec![mixed, Table::always("fold", fold)],
        vec![array("r", 32, entries, 0)],
    );
    (program, [k, v, w, idx])
}

/// A random batch over [`divergent_program`]: one lane in five misses, the
/// rest spread over the first `distinct` actions, each of which occurs
/// when there are lanes enough.
fn divergent_batch(
    program: &SwitchProgram,
    [k, v, w, idx]: [FieldId; 4],
    rng: &mut SmallRng,
    n: usize,
    distinct: u64,
    entries: u64,
) -> Vec<Phv> {
    let mut phvs: Vec<Phv> = (0..n)
        .map(|_| {
            let mut p = Phv::new(&program.layout);
            let miss = rng.gen_range(0u32..5) == 0;
            p.set(
                k,
                if miss {
                    200
                } else {
                    rng.gen_range(0..distinct)
                },
            );
            p.set(v, rng.gen_range(0..1u64 << 16));
            p.set(w, rng.gen_range(0..1u64 << 16));
            p.set(idx, rng.gen_range(0..entries));
            p
        })
        .collect();
    // Spread the guaranteed occurrences out, leaving misses in between.
    for a in 0..(distinct as usize).min(n / 2) {
        phvs[2 * a + 1].set(k, a as u64);
    }
    phvs
}

/// Divergent batches run one masked sweep per distinct action on any table
/// of at most 64 actions — what the distinct-action bitmap holds — however
/// many of them a batch hits; on a table of 65, each packet walks its own
/// tape. Lane counts straddle the eight-lane chunk; actions read their own
/// destinations; MISS lanes sit between the live ones.
#[test]
fn masked_sweeps_up_to_64_actions_and_the_walk_past_them_match_interpreter() {
    let entries = 8u64;
    let mut rng = SmallRng::seed_from_u64(0xD1FE_0002);
    let tables = [
        (12usize, vec![2u64, 5, 8, 9, 12]),
        (64, vec![2, 9, 64]),
        (65, vec![2, 9, 65]),
    ];
    for (n_actions, distincts) in tables {
        let (program, fields) = divergent_program(n_actions, entries as usize);
        for &distinct in &distincts {
            for n in [1usize, 7, 8, 9, 64, 255] {
                for faults in [false, true] {
                    let mut phvs =
                        divergent_batch(&program, fields, &mut rng, n, distinct, entries);
                    if n == 255 {
                        // Every one of the `distinct` actions occurs: the
                        // 64-action table is hit by all 64.
                        let mut hit: Vec<u64> = phvs.iter().map(|p| p.get(fields[0])).collect();
                        hit.retain(|&k| k < distinct);
                        hit.sort_unstable();
                        hit.dedup();
                        assert_eq!(hit.len() as u64, distinct);
                    }
                    if faults && n >= 9 {
                        // Two out-of-range lanes, both on stateful actions:
                        // the earlier one must win.
                        for (lane, bad) in [(n / 3, entries + 1), (2 * n / 3, 200)] {
                            phvs[lane].set(fields[0], 0);
                            phvs[lane].set(fields[3], bad);
                        }
                    }
                    let label = format!(
                        "{n_actions} actions / {distinct} hit / {n} lanes / faults={faults}"
                    );
                    let counts = check_soa_batch(&label, &program, &phvs);
                    if n >= 64 {
                        let masked = n_actions <= 64;
                        assert_eq!(counts[0].masked, u64::from(masked), "{label}");
                        assert_eq!(counts[0].walk, u64::from(!masked), "{label}");
                    }
                }
            }
        }
    }
}

/// Phase C applies in packet order and stops at the first out-of-range
/// lane: with every lane on one slot (and with two slots alternating), the
/// register must show exactly the updates of the lanes before the fault —
/// none from the same-slot lanes after it.
#[test]
fn phase_c_stops_at_the_fault_inside_a_duplicate_slot_chain() {
    let entries = 5usize;
    let (program, idx, val, _out) = order_sensitive_program(entries);
    let mut rng = SmallRng::seed_from_u64(0x51D5_0003);
    for n in [9usize, 64, 255] {
        for fault_at in [0, 1, n / 2, n - 1] {
            for slots in [1u64, 2] {
                let idxs: Vec<u64> = (0..n)
                    .map(|i| {
                        if i == fault_at {
                            77
                        } else {
                            3 - i as u64 % slots
                        }
                    })
                    .collect();
                let vals: Vec<u64> = idxs.iter().map(|_| rng.gen_range(0..8u64)).collect();
                let label = format!("{n} lanes / fault at {fault_at} / {slots} slot(s)");
                check_adversarial_batch(&label, &program, idx, val, &idxs, &vals);
            }
        }
    }
}

/// On a divergent stateful table a lane that missed makes no call, so its
/// out-of-range index is not a fault — not where it is the only bad lane,
/// and not where a later lane's real fault must be the one reported.
#[test]
fn a_miss_lane_at_the_fault_position_does_not_fault() {
    let entries = 8u64;
    let (program, fields) = divergent_program(4, entries as usize);
    let [k, _, _, idx] = fields;
    let mut rng = SmallRng::seed_from_u64(0xD1FE_0003);
    for n in [9usize, 64, 255] {
        for later_fault in [false, true] {
            let mut phvs = divergent_batch(&program, fields, &mut rng, n, 4, entries);
            phvs[n / 2].set(k, 200); // misses …
            phvs[n / 2].set(idx, 250); // … so this index is never used
            if later_fault {
                phvs[n - 2].set(k, 1);
                phvs[n - 2].set(idx, 100);
            }
            let label = format!("{n} lanes / later fault: {later_fault}");
            let counts = check_soa_batch(&label, &program, &phvs);
            let reached = if later_fault { n - 2 } else { n };
            assert_eq!(counts[1].lanes, reached as u64, "{label}");
        }
    }
}

/// Every shape the compiler flattens a SALU condition to — constant, one
/// leaf, two leaves under `||` / `&&` — and two three-leaf trees that keep
/// the recursive form, each with every SALU output, under one action for
/// the whole batch (the hoisted loop) and under a divergent table.
#[test]
fn salu_condition_shapes_and_outputs_match_interpreter() {
    let mut l = PhvLayout::new();
    let k = l.field("k", 2);
    let idx = l.field("idx", 4);
    let flag = l.field("flag", 1);
    let val = l.field("val", 12);
    let out = l.field("out", 32);
    let leaf = |cmp, rhs| SaluCond::RegCmp { cmp, rhs };
    let (a, b, c) = (
        leaf(CmpOp::Lt, Operand::Field(val)),
        SaluCond::MetaNonZero(flag),
        leaf(CmpOp::Ge, Operand::Const(40)),
    );
    let or = |x: &SaluCond, y: &SaluCond| SaluCond::Or(Box::new(x.clone()), Box::new(y.clone()));
    let and = |x: &SaluCond, y: &SaluCond| SaluCond::And(Box::new(x.clone()), Box::new(y.clone()));
    let conds = [
        SaluCond::Always,
        a.clone(),
        b.clone(),
        leaf(CmpOp::Ne, Operand::Const(0)),
        or(&a, &b),
        and(&a, &b),
        or(&SaluCond::Always, &c),
        or(&and(&a, &b), &c),
        and(&a, &or(&b, &c)),
    ];
    let outputs = [
        None,
        Some(SaluOutput::Old),
        Some(SaluOutput::New),
        Some(SaluOutput::Predicate),
    ];
    let mut rng = SmallRng::seed_from_u64(0x5A1_0001);
    for cond in &conds {
        for output in outputs {
            let call = |on_true| StatefulCall {
                array: RegArrayId(0),
                index: Operand::Field(idx),
                cond: cond.clone(),
                on_true,
                on_false: SaluUpdate::AddWrap(Operand::Const(3)),
                output: output.map(|o| (out, o)),
            };
            let write = Action::nop("write").call(call(SaluUpdate::Write(Operand::Field(val))));
            let add = Action::nop("add").call(call(SaluUpdate::AddSat(Operand::Field(val))));
            let divergent = Table::keyed(
                "t",
                vec![(k, MatchKind::Exact)],
                vec![write.clone(), add],
                None,
            )
            .entry(vec![KeyMatch::Exact(0)], 0, 0)
            .entry(vec![KeyMatch::Exact(1)], 0, 1);
            for table in [Table::always("t", write), divergent] {
                let program = staged(l.clone(), vec![table], vec![array("r", 16, 6, 0)]);
                for faults in [false, true] {
                    let mut phvs: Vec<Phv> =
                        (0..100).map(|_| random_phv(&program, &mut rng)).collect();
                    for (i, p) in phvs.iter_mut().enumerate() {
                        // In range unless this batch is meant to fault.
                        if !(faults && i == 71) {
                            p.set(idx, p.get(idx) % 6);
                        } else {
                            p.set(idx, 6);
                            p.set(k, 1);
                        }
                    }
                    let label = format!("{cond:?} / {output:?} / faults={faults}");
                    check_soa_batch(&label, &program, &phvs);
                }
            }
        }
    }
}

/// The saturating updates at the edges of `i64`: the interpreter sums in
/// 128 bits and clamps, the compiled engine saturates in 64 and clamps.
/// Operands at `i64::MAX` / `i64::MIN`, through a 64-bit register (the
/// clamp is the `i64` range itself) and a 32-bit one (a sum that leaves
/// `i64` must still land on the 32-bit bound), for `AddSat` and
/// `ShiftRightAddSat`, all on one slot so each lane builds on the last.
#[test]
fn saturating_updates_at_the_i64_edges_match_interpreter() {
    let mut l = PhvLayout::new();
    let x = l.field("x", 64);
    let s = l.field("s", 8);
    let out = l.field("out", 64);
    let edges = [
        i64::MAX,
        i64::MAX,
        -1,
        i64::MIN,
        i64::MIN,
        i64::MIN,
        1,
        i64::MAX,
        i64::MIN + 1,
        0,
        i64::MAX - 1,
        2,
    ];
    for width in [64u32, 32] {
        let updates = [
            SaluUpdate::AddSat(Operand::Field(x)),
            SaluUpdate::ShiftRightAddSat {
                shift: Operand::Field(s),
                addend: Operand::Field(x),
            },
            // A constant operand far outside a narrow register's range.
            SaluUpdate::AddSat(Operand::Const(i64::MAX)),
            SaluUpdate::AddSat(Operand::Const(i64::MIN)),
        ];
        for update in updates {
            let act = Action::nop("sat").call(StatefulCall {
                array: RegArrayId(0),
                index: Operand::Const(1),
                cond: SaluCond::MetaNonZero(s),
                on_true: update,
                on_false: SaluUpdate::AddSat(Operand::Field(x)),
                output: Some((out, SaluOutput::New)),
            });
            let program = staged(
                l.clone(),
                vec![Table::always("t", act)],
                vec![array("r", width, 2, 0)],
            );
            let phvs = batch(
                &program,
                edges.len() * 4,
                &[
                    (x, &|i| edges[i % edges.len()] as u64),
                    // Shift distances 0, 1, 63 and past the width; 0 also
                    // selects the plain add through the condition.
                    (s, &|i| [0u64, 1, 63, 200][i / edges.len()]),
                ],
            );
            check_soa_batch(&format!("{width}-bit / {update:?}"), &program, &phvs);
        }
    }
}

// ---------------------------------------------------------------------
// Phase C register windows: a uniform-action batch whose index column
// ascends slot by slot for eight lanes or more serves that run from one
// register window, as staged sweeps. Every test compares against the
// interpreter on both lane words through `check_soa_batch`, and pins
// `DispatchCounts::windowed` so it is known to have taken the window path.
// ---------------------------------------------------------------------

/// Lanes the engine must serve from a register window for index column
/// `idxs` over an array of `entries`: the lanes of every maximal ascending
/// run of eight or more, up to the first out-of-range one — the scalar
/// definition the engine's line-at-a-time scan is held to.
fn windowed_lanes(idxs: &[u64], entries: usize) -> u64 {
    let (mut served, mut i) = (0u64, 0usize);
    while i < idxs.len() {
        let mut len = 1;
        while i + len < idxs.len() && idxs[i + len - 1].checked_add(1) == Some(idxs[i + len]) {
            len += 1;
        }
        let fit = (entries as u64).saturating_sub(idxs[i]).min(len as u64);
        if len >= 8 {
            served += fit;
        }
        if fit < len as u64 {
            break; // the first lane past the array's end faults
        }
        i += len;
    }
    served
}

/// `runs` of `(first slot, lanes)` laid end to end.
fn runs(runs: &[(u64, usize)]) -> Vec<u64> {
    (runs.iter())
        .flat_map(|&(first, n)| (0..n as u64).map(move |k| first + k))
        .collect()
}

/// Index columns that are one run, many runs of every length around the
/// window threshold and both lane words' line widths, descending,
/// constant, interleaved, and runs over the same slots twice — the order
/// of which shows in the `Old` outputs of `order_sensitive_program`.
#[test]
fn phase_c_windows_cover_every_run_shape() {
    let entries = 64usize;
    let (program, idx, val, _out) = order_sensitive_program(entries);
    let mut rng = SmallRng::seed_from_u64(0x51D5_0010);
    let shapes: Vec<(&str, Vec<u64>)> = vec![
        ("one run", runs(&[(0, 64)])),
        ("one run, off the line grid", runs(&[(3, 37)])),
        (
            "runs of 1, 7, 8, 9, 15, 16, 17, 33",
            runs(&[
                (40, 1),
                (2, 7),
                (20, 8),
                (1, 9),
                (30, 15),
                (0, 16),
                (40, 17),
                (5, 33),
            ]),
        ),
        ("descending", (0..48).rev().collect()),
        ("constant", vec![7; 40]),
        (
            "the same slots twice, then a third run across both",
            runs(&[(0, 20), (0, 20), (10, 30)]),
        ),
        (
            "singles and duplicates between windows",
            [
                vec![9, 9, 3],
                runs(&[(8, 12)]),
                vec![5, 4, 4, 6, 6],
                runs(&[(8, 12), (50, 3)]),
            ]
            .concat(),
        ),
        (
            "a step up every other lane",
            (0..40).map(|i| (i / 2 * 5 + i % 2) as u64).collect(),
        ),
        ("long enough only together", runs(&[(0, 4), (4, 4), (9, 7)])),
        (
            "a run, then more than a line of singles to the end",
            [runs(&[(0, 30)]), (0..23).map(|i| 60 - 2 * i).collect()].concat(),
        ),
    ];
    for (shape, idxs) in &shapes {
        let vals: Vec<u64> = idxs.iter().map(|_| rng.gen_range(0..8u64)).collect();
        let counts = check_adversarial_batch(shape, &program, idx, val, idxs, &vals);
        assert_eq!(counts[0].windowed, windowed_lanes(idxs, entries), "{shape}");
        assert_eq!(counts[0].lanes, idxs.len() as u64, "{shape}");
    }
}

/// The line-at-a-time run scan against its scalar definition, on random
/// columns built from runs of random lengths (many exactly at a line's
/// edge) with random single lanes in between.
#[test]
fn phase_c_run_scan_matches_its_scalar_definition() {
    let entries = 256usize;
    let (program, idx, val, _out) = order_sensitive_program(entries);
    let mut rng = SmallRng::seed_from_u64(0x51D5_0011);
    let mut windowed = 0;
    for case in 0..60 {
        let mut idxs: Vec<u64> = Vec::new();
        while idxs.len() < 200 {
            let len = match rng.gen_range(0u32..4) {
                0 => 1,
                1 => rng.gen_range(2..8),
                2 => [8usize, 15, 16, 17, 31, 32, 33][rng.gen_range(0..7)],
                _ => rng.gen_range(8..70),
            };
            let first = rng.gen_range(0..(entries - len) as u64);
            idxs.extend(runs(&[(first, len)]));
        }
        idxs.truncate(rng.gen_range(150..=200));
        let vals: Vec<u64> = idxs.iter().map(|_| rng.gen_range(0..8u64)).collect();
        let label = format!("case {case}");
        let counts = check_adversarial_batch(&label, &program, idx, val, &idxs, &vals);
        assert_eq!(
            counts[0].windowed,
            windowed_lanes(&idxs, entries),
            "{label}"
        );
        windowed += counts[0].windowed;
    }
    assert!(windowed > 3000, "the cases must mostly run in windows");
}

/// A run that crosses the end of the array is clipped there: the lanes
/// before the end are applied, the first lane past it faults with the
/// interpreter's error, and neither it nor anything after it — a later
/// run over live slots included — touches a register.
#[test]
fn a_window_crossing_the_end_of_the_array_faults_at_the_clip() {
    let entries = 40usize;
    let (program, idx, val, _out) = order_sensitive_program(entries);
    let mut rng = SmallRng::seed_from_u64(0x51D5_0012);
    let cases: Vec<(&str, Vec<u64>)> = vec![
        ("crossing by one", runs(&[(0, 10), (28, 13), (0, 10)])),
        ("crossing in the first block", runs(&[(30, 30), (0, 10)])),
        ("one lane fits", runs(&[(5, 9), (39, 12)])),
        ("nothing fits", runs(&[(5, 9), (40, 12), (0, 9)])),
        ("far past the end", runs(&[(5, 9), (60_000, 12)])),
        ("a short run crossing", runs(&[(5, 9), (38, 5), (0, 9)])),
        ("the first lane of the batch", runs(&[(45, 20)])),
    ];
    for (case, idxs) in &cases {
        let vals: Vec<u64> = idxs.iter().map(|_| rng.gen_range(0..8u64)).collect();
        let counts = check_adversarial_batch(case, &program, idx, val, idxs, &vals);
        assert_eq!(counts[0].windowed, windowed_lanes(idxs, entries), "{case}");
    }
}

/// Slots at the very top of the index field's range: `base + len` leaves
/// `usize` on the 64-bit lane word, and on either word the column "steps
/// up" from the field's largest value to 0 — a wrap, not a run. Every such
/// lane is out of range for any array that fits in memory, so the first of
/// them must fault, after the lanes before it have landed.
#[test]
fn window_bounds_do_not_overflow_at_the_top_of_the_index_range() {
    for idx_bits in [16u32, 32, 64] {
        let mut l = PhvLayout::new();
        let idx = l.field("idx", idx_bits);
        let out = l.field("out", 32);
        let bump = Action::nop("bump").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Field(idx),
            cond: SaluCond::Always,
            on_true: SaluUpdate::AddSat(Operand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: Some((out, SaluOutput::New)),
        });
        let entries = 24usize;
        let program = staged(
            l,
            vec![Table::always("bump", bump)],
            vec![array("r", 32, entries, 0)],
        );
        let top = field_max(idx_bits);
        for back in [0u64, 3, 11] {
            // A live run, then twelve lanes counting up through `top`.
            let idxs: Vec<u64> = (0..10u64)
                .chain((0..12u64).map(|k| (top - back).wrapping_add(k) & top))
                .collect();
            let phvs = batch(&program, idxs.len(), &[(idx, &|i| idxs[i])]);
            let label = format!("{idx_bits}-bit index / {back} below the top");
            let counts = check_soa_batch(&label, &program, &phvs);
            assert_eq!(counts[0].windowed, 10, "{label}");
        }
    }
}

/// The largest value of a `bits`-wide field.
fn field_max(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The output field is also the index field, or a field the call's own
/// condition or update reads. Per packet every read precedes the output
/// store; the staged sweeps must keep that, for each output kind, and the
/// index column they overwrite must not disturb the runs still to come.
#[test]
fn window_outputs_into_fields_the_call_reads() {
    let mut rng = SmallRng::seed_from_u64(0x51D5_0013);
    let entries = 48usize;
    for aliased in [
        "index",
        "condition operand",
        "update operand",
        "both operands",
    ] {
        for output in [SaluOutput::Old, SaluOutput::New, SaluOutput::Predicate] {
            let mut l = PhvLayout::new();
            let idx = l.field("idx", 16);
            let lim = l.field("lim", 16);
            let val = l.field("val", 16);
            let out = match aliased {
                "index" => idx,
                "condition operand" => lim,
                "update operand" => val,
                _ => lim,
            };
            // "both operands": the condition and the update read `lim`.
            let add = if aliased == "both operands" { lim } else { val };
            let call = Action::nop("call").call(StatefulCall {
                array: RegArrayId(0),
                index: Operand::Field(idx),
                cond: SaluCond::RegCmp {
                    cmp: CmpOp::Lt,
                    rhs: Operand::Field(lim),
                },
                on_true: SaluUpdate::AddSat(Operand::Field(add)),
                on_false: SaluUpdate::Write(Operand::Field(add)),
                output: Some((out, output)),
            });
            // A later table reads every field, so a wrong store shows.
            let mut fold = Action::nop("fold");
            let seen = l.field("seen", 32);
            for f in [idx, lim, val] {
                fold = fold.prim(seen, AluOp::Add, Operand::Field(seen), Operand::Field(f));
            }
            let program = staged(
                l,
                vec![Table::always("call", call), Table::always("fold", fold)],
                vec![array("r", 16, entries, 0), array("unused", 16, 1, 1)],
            );
            let idxs = runs(&[(0, 30), (4, 3), (10, 30), (0, 9)]);
            let lims: Vec<u64> = idxs.iter().map(|_| rng.gen_range(0..40)).collect();
            let vals: Vec<u64> = idxs.iter().map(|_| rng.gen_range(0..30)).collect();
            let phvs = batch(
                &program,
                idxs.len(),
                &[
                    (idx, &|i| idxs[i]),
                    (lim, &|i| lims[i]),
                    (val, &|i| vals[i]),
                ],
            );
            let label = format!("{output:?} into the {aliased}");
            let counts = check_soa_batch(&label, &program, &phvs);
            assert_eq!(counts[0].windowed, 30 + 30 + 9, "{label}");
        }
    }
}

/// A constant index sends every lane to one slot: no run, no window, the
/// lanes chained through the slot in packet order.
#[test]
fn a_constant_index_never_takes_a_window() {
    let mut l = PhvLayout::new();
    let val = l.field("val", 16);
    let out = l.field("out", 32);
    let call = Action::nop("call").call(StatefulCall {
        array: RegArrayId(0),
        index: Operand::Const(2),
        cond: SaluCond::RegCmp {
            cmp: CmpOp::Lt,
            rhs: Operand::Field(val),
        },
        on_true: SaluUpdate::Write(Operand::Field(val)),
        on_false: SaluUpdate::AddWrap(Operand::Const(1)),
        output: Some((out, SaluOutput::Old)),
    });
    let program = staged(
        l,
        vec![Table::always("call", call)],
        vec![array("r", 32, 4, 0)],
    );
    let phvs = batch(&program, 64, &[(val, &|i| (i as u64 * 7) % 13)]);
    let counts = check_soa_batch("constant index", &program, &phvs);
    assert_eq!((counts[0].lanes, counts[0].windowed), (64, 0));
}

/// Every update × every output × every condition shape the compiler
/// lowers (no leaf, one leaf of each kind and compare, two leaves under
/// `||` / `&&`, a depth-3 tree, and leaves no lane / every lane satisfies,
/// so whole blocks go one way), against registers 8, 32 and 64 bits wide
/// with operands at their saturating edges — all through register windows
/// (one run spans two sweep blocks, another revisits its slots).
#[test]
fn every_update_output_and_condition_matches_interpreter_in_windows() {
    let mut rng = SmallRng::seed_from_u64(0x51D5_0014);
    for width in [8u32, 32, 64] {
        let mut l = PhvLayout::new();
        let idx = l.field("idx", 16);
        let flag = l.field("flag", 1);
        let sh = l.field("sh", 8);
        let val = l.field("val", width.max(16));
        let out = l.field("out", width.max(16));
        let (fv, fs) = (Operand::Field(val), Operand::Field(sh));
        let (min, max) = if width == 64 {
            (i64::MIN, i64::MAX)
        } else {
            (-(1i64 << (width - 1)), (1i64 << (width - 1)) - 1)
        };
        let edges = [0, 1, -1, max, min, max - 1, min + 1, max / 2, min / 2, 3];
        let updates = [
            SaluUpdate::Keep,
            SaluUpdate::Write(fv),
            SaluUpdate::AddSat(fv),
            SaluUpdate::AddWrap(fv),
            SaluUpdate::ShiftRightAddSat {
                shift: fs,
                addend: fv,
            },
            SaluUpdate::MaxSigned(fv),
            SaluUpdate::MinSigned(fv),
            SaluUpdate::AddSat(Operand::Const(max)),
            SaluUpdate::ShiftRightAddSat {
                shift: Operand::Const(2),
                addend: Operand::Const(min),
            },
        ];
        let leaf = |cmp, rhs| SaluCond::RegCmp { cmp, rhs };
        let or =
            |x: &SaluCond, y: &SaluCond| SaluCond::Or(Box::new(x.clone()), Box::new(y.clone()));
        let and =
            |x: &SaluCond, y: &SaluCond| SaluCond::And(Box::new(x.clone()), Box::new(y.clone()));
        let (a, b, c) = (
            leaf(CmpOp::Lt, fv),
            SaluCond::MetaNonZero(flag),
            leaf(CmpOp::Ge, Operand::Const(max / 3)),
        );
        let mut conds = vec![
            SaluCond::Always,
            b.clone(),
            leaf(CmpOp::Ge, Operand::Const(i64::MIN)), // every lane
            leaf(CmpOp::Lt, Operand::Const(i64::MIN)), // no lane
            or(&a, &b),
            and(&a, &b),
            or(&and(&a, &b), &and(&c, &or(&a, &b))),
        ];
        for cmp in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            conds.push(leaf(cmp, fv));
            conds.push(leaf(cmp, Operand::Const(1)));
        }
        let outputs = [
            None,
            Some(SaluOutput::Old),
            Some(SaluOutput::New),
            Some(SaluOutput::Predicate),
        ];
        let idxs = runs(&[(0, 70), (3, 2), (20, 30), (90, 9)]);
        for (u, on_true) in updates.iter().enumerate() {
            let on_false = updates[(u + 3) % updates.len()];
            for cond in &conds {
                for output in outputs {
                    let call = Action::nop("call").call(StatefulCall {
                        array: RegArrayId(0),
                        index: Operand::Field(idx),
                        cond: cond.clone(),
                        on_true: *on_true,
                        on_false,
                        output: output.map(|o| (out, o)),
                    });
                    let program = staged(
                        l.clone(),
                        vec![Table::always("call", call)],
                        vec![array("r", width, 100, 0)],
                    );
                    let vals: Vec<u64> = idxs
                        .iter()
                        .map(|_| edges[rng.gen_range(0..edges.len())] as u64)
                        .collect();
                    let phvs = batch(
                        &program,
                        idxs.len(),
                        &[
                            (idx, &|i| idxs[i]),
                            (val, &|i| vals[i]),
                            (flag, &|i| (i as u64 / 3) % 2),
                            (sh, &|i| [0u64, 1, 7, 63, 200][i % 5]),
                        ],
                    );
                    let label = format!("{width}-bit / {on_true:?} / {cond:?} / {output:?}");
                    let counts = check_soa_batch(&label, &program, &phvs);
                    assert_eq!(counts[0].windowed, 70 + 30 + 9, "{label}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shift rows: a table whose every action is one constant shift of one
// source into one destination (or `dst = 0`) runs a divergent batch in one
// pass — each lane's row gathered from its matcher slot, no per-lane
// action. Every test compares against the interpreter on both lane words
// (`check_soa_batch`) and pins which tables took the rows.
// ---------------------------------------------------------------------

const SHIFT_OPS: [AluOp; 3] = [AluOp::Shl, AluOp::ShrLogic, AluOp::ShrArith];

/// `dst = src ⊕ c`: the one action shape shift rows lower.
fn shift(dst: FieldId, op: AluOp, src: FieldId, c: i64) -> Action {
    Action::nop(format!("{op:?}{c}")).prim(dst, op, Operand::Field(src), Operand::Const(c))
}

/// `dst = 0`, which lowers as a logical shift by 64.
fn zero(dst: FieldId) -> Action {
    Action::nop("zero").set(dst, Operand::Const(0))
}

/// An exact-match table on `key` that runs `actions[a]` for key value `a`.
fn enumerated(name: &str, key: FieldId, actions: Vec<Action>, default: Option<usize>) -> Table {
    let n = actions.len();
    let t = Table::keyed(name, vec![(key, MatchKind::Exact)], actions, default);
    (0..n).fold(t, |t, a| t.entry(vec![KeyMatch::Exact(a as u64)], 0, a))
}

/// What a `bits`-wide source has to get right: zero, one, both sides of
/// its sign bit, all ones, and two bit patterns.
fn sign_edges(bits: u32) -> Vec<u64> {
    let (max, top) = (field_max(bits), 1u64 << (bits - 1));
    let edges = [top - 1, top, top + 1, max - 1, max, 0, 1];
    let patterns = [0x5555_5555_5555_5555, 0xDEAD_BEEF_F00D_CAFE];
    edges.iter().chain(&patterns).map(|v| v & max).collect()
}

/// `check_soa_batch`, then: exactly the tables named in `rows` ran the
/// batch as shift rows, and no table walked.
fn check_rows(label: &str, program: &SwitchProgram, phvs: &[Phv], rows: &[&str]) {
    let counts = check_soa_batch(label, program, phvs);
    let tables = program.stages.iter().flat_map(|s| &s.tables);
    for (t, c) in tables.zip(&counts) {
        let want = u64::from(rows.contains(&t.name.as_str()));
        assert_eq!(c.rows, want, "{label} / {}: {c:?}", t.name);
        assert_eq!(c.walk, 0, "{label} / {}", t.name);
    }
}

/// Every shift op at every count 0..=64, and constants past 64 (clamped
/// when lowered) and negative ones, on a source at its sign edges: one
/// action per (op, count) in one table and a lane on each; keys past them
/// miss to a `dst = 0` default.
#[test]
fn shift_rows_cover_every_op_and_count() {
    let mut l = PhvLayout::new();
    let k = l.field("k", 8);
    let x = l.field("x", 32);
    let y = l.field("y", 32);
    let counts = (0..=64).chain([65, 100, 1 << 40, i64::MAX, -1, i64::MIN]);
    let mut actions: Vec<Action> = SHIFT_OPS
        .iter()
        .flat_map(|&op| counts.clone().map(move |c| shift(y, op, x, c)))
        .collect();
    actions.push(zero(y));
    let default = actions.len() - 1;
    let program = staged(
        l,
        vec![enumerated("shifts", k, actions, Some(default))],
        vec![],
    );
    let edges = sign_edges(32);
    let phvs = batch(
        &program,
        256 * edges.len(),
        &[
            (k, &|i| i as u64 % 256),
            (x, &|i| edges[i / 256]),
            (y, &|_| 0xA5A5_A5A5),
        ],
    );
    check_rows("every op and count", &program, &phvs, &["shifts"]);
}

/// Sources 1, 8, 16, 31 and 32 bits wide — and 33, 63 and 64, which put
/// the layout on `u64` lanes — each at its sign edges, into a destination
/// as wide as the lane word's half and into a 12-bit one (its mask), at
/// the counts around the source's own width and both lane words'.
#[test]
fn shift_rows_hold_at_every_source_width() {
    for bits in [1u32, 8, 16, 31, 32, 33, 63, 64] {
        let mut l = PhvLayout::new();
        let k = l.field("k", 8);
        let x = l.field("x", bits);
        let full = l.field("full", bits.max(32));
        let narrow = l.field("narrow", 12);
        let counts = [0, 1, bits - 1, bits, bits + 1, 11, 12, 31, 32, 33, 63, 64];
        let actions = |dst| -> Vec<Action> {
            let each = |&op| counts.iter().map(move |&c| shift(dst, op, x, i64::from(c)));
            SHIFT_OPS.iter().flat_map(each).collect()
        };
        // Keys 36..64 miss, with no default: the destination keeps.
        let program = staged(
            l,
            vec![
                enumerated("full", k, actions(full), None),
                enumerated("narrow", k, actions(narrow), None),
            ],
            vec![],
        );
        let edges = sign_edges(bits);
        let phvs = batch(
            &program,
            64 * edges.len(),
            &[
                (k, &|i| i as u64 % 64),
                (x, &|i| edges[i / 64]),
                (full, &|i| 0x0123_4567_89AB_CDEF_u64.rotate_left(i as u32)),
                (narrow, &|i| i as u64 * 37),
            ],
        );
        check_rows(
            &format!("{bits}-bit source"),
            &program,
            &phvs,
            &["full", "narrow"],
        );
    }
}

/// A miss and an empty action keep the destination unless a default
/// writes it: a `dst = 0` default, no default at all, and an empty action
/// as the default — each table also matching its empty action by key.
#[test]
fn shift_rows_keep_or_zero_on_misses_and_empty_actions() {
    let mut l = PhvLayout::new();
    let k = l.field("k", 4);
    let x = l.field("x", 16);
    let ys = [l.field("y0", 16), l.field("y1", 16), l.field("y2", 16)];
    let actions = |y| {
        vec![
            shift(y, AluOp::Shl, x, 3),
            shift(y, AluOp::ShrArith, x, 5),
            Action::nop("empty"),
            zero(y),
        ]
    };
    // Keys 0..4 hit an action, 4..16 miss.
    let program = staged(
        l,
        vec![
            enumerated("zero_default", k, actions(ys[0]), Some(3)),
            enumerated("no_default", k, actions(ys[1]), None),
            enumerated("empty_default", k, actions(ys[2]), Some(2)),
        ],
        vec![],
    );
    let mut rng = SmallRng::seed_from_u64(0x5817_0003);
    let xs: Vec<u64> = (0..100).map(|_| rng.gen_range(0..1u64 << 16)).collect();
    let phvs = batch(
        &program,
        xs.len(),
        &[
            (k, &|i| i as u64 % 16),
            (x, &|i| xs[i]),
            (ys[0], &|i| 0x1111 + i as u64),
            (ys[1], &|i| 0x2222 + i as u64),
            (ys[2], &|i| 0x3333 + i as u64),
        ],
    );
    let all = ["zero_default", "no_default", "empty_default"];
    check_rows("misses and empty actions", &program, &phvs, &all);
}

/// A key too wide to index directly lowers to an index on its low bits,
/// verified against the full key: entries at distances ±1..=12 (two's
/// complement, as the alignment table keys them), lanes whose key shares
/// an entry's low bits but not the rest, lanes on empty slots with key 0,
/// and a default that shifts.
#[test]
fn shift_rows_verify_the_full_key_behind_a_prefix_index() {
    let mut l = PhvLayout::new();
    let d = l.field("d", 32);
    let x = l.field("x", 32);
    let y = l.field("y", 32);
    let mut t = Table::keyed("verified", vec![(d, MatchKind::Exact)], Vec::new(), None);
    let mut keys = Vec::new();
    for c in 1..=12i64 {
        for (op, key) in [(AluOp::Shl, c), (AluOp::ShrArith, -c)] {
            let key = key as u64 & 0xFFFF_FFFF;
            t.actions.push(shift(y, op, x, c));
            let a = t.actions.len() - 1;
            t = t.entry(vec![KeyMatch::Exact(key)], 0, a);
            keys.push(key);
        }
    }
    t.actions.push(shift(y, AluOp::ShrArith, x, 63));
    t.default_action = Some(t.actions.len() - 1);
    let program = staged(l, vec![t], vec![]);
    // Each entry's key, then the same low bits under other high bits.
    let lane_keys: Vec<u64> = (keys.iter())
        .chain(&[0, 32, 0x8000_0000])
        .flat_map(|&key| {
            [
                key,
                key ^ (1 << 5),
                key ^ (1 << 16),
                key ^ (1 << 31),
                key + 64,
            ]
        })
        .map(|key| key & 0xFFFF_FFFF)
        .collect();
    let edges = sign_edges(32);
    let phvs = batch(
        &program,
        lane_keys.len(),
        &[
            (d, &|i| lane_keys[i]),
            (x, &|i| edges[i % edges.len()]),
            (y, &|_| 0x5A5A),
        ],
    );
    check_rows("prefix collisions", &program, &phvs, &["verified"]);
}

/// The alignment table's shape — keyed on an opcode, a skip flag, a
/// direction bit and a 32-bit distance, gated on `op == 1, skip == 0` —
/// with one, two, three and four key columns varying (each key pack), the
/// opcode among them: lanes of two opcodes in one batch, so a gate column
/// varies and its failing lanes miss.
#[test]
fn shift_rows_pack_every_count_of_varying_key_columns() {
    let mut l = PhvLayout::new();
    let op = l.field("op", 2);
    let skip = l.field("skip", 1);
    let bigger = l.field("bigger", 1);
    let d2 = l.field("d2", 32);
    let x = l.field("x", 32);
    let y = l.field("y", 32);
    let keys = [op, skip, bigger, d2].map(|f| (f, MatchKind::Exact));
    let mut t = Table::keyed("align", keys.to_vec(), Vec::new(), None);
    let entry = |mut t: Table, act: Action, bigger: u64, dist: u64| {
        t.actions.push(act);
        let (a, key) = (t.actions.len() - 1, [1, 0, bigger, dist & 0xFFFF_FFFF]);
        t.entry(key.map(KeyMatch::Exact).to_vec(), 2, a)
    };
    for c in 1..=8i64 {
        t = entry(t, shift(y, AluOp::Shl, x, c), 1, c as u64);
    }
    for c in 0..=10i64 {
        t = entry(
            t,
            shift(y, AluOp::ShrArith, x, c),
            0,
            c.wrapping_neg() as u64,
        );
    }
    t.actions.push(shift(y, AluOp::ShrArith, x, 63));
    t.default_action = Some(t.actions.len() - 1);
    let program = staged(l, vec![t], vec![]);
    let mut rng = SmallRng::seed_from_u64(0x5817_0005);
    let dists: Vec<u64> = (0..256)
        .map(|i| match i % 4 {
            0 => rng.gen_range(1..=8),
            1 | 2 => rng.gen_range(0i64..11).wrapping_neg() as u64 & 0xFFFF_FFFF,
            _ => rng.gen_range(0..1u64 << 32),
        })
        .collect();
    let bits: Vec<u64> = (0..256).map(|_| rng.gen_range(0..4)).collect();
    let xs: Vec<u64> = (0..256).map(|_| rng.gen_range(0..1u64 << 32)).collect();
    for vary in [
        &[d2][..],
        &[bigger],
        &[bigger, d2],
        &[skip, bigger, d2],
        &[op, d2],
        &[op, skip, bigger, d2],
    ] {
        let pick = |f: FieldId, varying: u64, uniform: u64| {
            if vary.contains(&f) {
                varying
            } else {
                uniform
            }
        };
        let phvs = batch(
            &program,
            256,
            &[
                (op, &|i| pick(op, 1 + bits[i] % 2, 1)),
                (skip, &|i| pick(skip, u64::from(bits[i] == 3), 0)),
                (bigger, &|i| pick(bigger, bits[i] / 2, 0)),
                (d2, &|i| pick(d2, dists[i], 0xFFFF_FFFD)),
                (x, &|i| xs[i]),
                (y, &|i| i as u64),
            ],
        );
        let label = format!("{} varying key columns", vary.len());
        check_rows(&label, &program, &phvs, &["align"]);
    }
}

/// Tables one rule away from shift rows keep the masked path — and still
/// match: an action of two ops, a different source per action, a
/// different destination per action, a stateful action, and a shift by a
/// field distance.
#[test]
fn tables_that_are_not_shift_rows_keep_their_paths() {
    let mut l = PhvLayout::new();
    let k = l.field("k", 2);
    let x = l.field("x", 32);
    let z = l.field("z", 32);
    let y = l.field("y", 32);
    let w = l.field("w", 32);
    let idx = l.field("idx", 4);
    let call = StatefulCall {
        array: RegArrayId(0),
        index: Operand::Field(idx),
        cond: SaluCond::Always,
        on_true: SaluUpdate::AddWrap(Operand::Field(x)),
        on_false: SaluUpdate::Keep,
        output: None,
    };
    let pair =
        |name: &str, a: Action| enumerated(name, k, vec![a, shift(y, AluOp::ShrLogic, x, 2)], None);
    let two_ops =
        shift(y, AluOp::Shl, x, 1).prim(y, AluOp::Xor, Operand::Field(y), Operand::Const(7));
    let by_field =
        Action::nop("by_field").prim(y, AluOp::Shl, Operand::Field(x), Operand::Field(z));
    let tables = vec![
        pair("two_ops", two_ops),
        pair("other_src", shift(y, AluOp::Shl, z, 1)),
        pair("other_dst", shift(w, AluOp::Shl, x, 1)),
        pair("stateful", shift(y, AluOp::Shl, x, 1).call(call)),
        pair("by_field", by_field),
    ];
    let program = staged(l, tables, vec![array("r", 32, 16, 3)]);
    let mut rng = SmallRng::seed_from_u64(0x5817_0006);
    let vals: Vec<[u64; 3]> = (0..64)
        .map(|_| [0, 0, 0].map(|_: u64| rng.gen_range(0..1u64 << 32)))
        .collect();
    let phvs = batch(
        &program,
        64,
        &[
            (k, &|i| i as u64 % 3),
            (x, &|i| vals[i][0]),
            (z, &|i| vals[i][1] % 40),
            (y, &|i| vals[i][2]),
            (idx, &|i| i as u64 % 16),
        ],
    );
    let counts = check_soa_batch("not shift rows", &program, &phvs);
    for c in &counts {
        assert_eq!(c.rows, 0, "{c:?}");
        assert_eq!(c.lut + c.per_lane, 1, "{c:?}");
        assert_eq!((c.masked, c.walk), (1, 0), "{c:?}");
    }
}
