//! Which way the compiled batch engine dispatches the FPISA program, pinned
//! by [`CompiledSwitch::dispatch_counts`] — a count per table and batch,
//! not a timer. Every `add_batch` / `read_range` chunk is single-op, so a
//! batch should pay per lane only in the tables whose keys really differ
//! between lanes; if a change makes the READ-only tables look at the lanes
//! of an ADD batch again, this fails where a benchmark would merely drift.
//! Likewise for Phase C: a chunk's slots are consecutive, so both stateful
//! tables must serve every lane from a register window — a lane-fill path
//! that stops producing runs fails here.

use fpisa_core::FpFormat;
use fpisa_pipeline::{ExecEngine, FpisaPipeline, PipelineSpec, PipelineVariant, OP_ADD, OP_READ};
use fpisa_pisa::{BatchLanes, CompiledSwitch, DispatchCounts, LANE_CHUNK};

const LANES: usize = 64;

/// One batch's dispatch counts, by table name.
struct Counts {
    names: Vec<String>,
    counts: Vec<DispatchCounts>,
}

impl Counts {
    fn of(&self, table: &str) -> DispatchCounts {
        let t = self.names.iter().position(|n| n == table);
        self.counts[t.unwrap_or_else(|| panic!("no table `{table}`"))]
    }
}

#[test]
fn fp16_tofino_batches_pay_per_lane_only_where_lanes_differ() {
    let pipe = FpisaPipeline::from_spec(
        PipelineSpec::new(PipelineVariant::TofinoA)
            .format(FpFormat::FP16)
            .slots(LANES),
    )
    .unwrap();
    let program = pipe.switch_program();
    let fields = pipe.fields();
    let names: Vec<String> = program
        .stages
        .iter()
        .flat_map(|s| &s.tables)
        .map(|t| t.name.clone())
        .collect();
    let mut state = CompiledSwitch::compile(program)
        .unwrap()
        .register_state()
        .clone();
    // Each batch runs on a freshly compiled engine (zero counts) carrying
    // the registers the batches before it left.
    let mut run = |op: u64, value: &dyn Fn(usize) -> f64| {
        let mut cs = CompiledSwitch::compile(program).unwrap();
        cs.set_register_state(state.clone()).unwrap();
        let mut lanes = BatchLanes::new(cs.layout(), LANES);
        lanes.begin(LANES);
        for k in 0..LANES {
            lanes.set(fields.op, k, op);
            lanes.set(fields.slot, k, k as u64);
            lanes.set(fields.value, k, FpFormat::FP16.encode(value(k)));
        }
        cs.run_lanes(&mut lanes).unwrap();
        state = cs.register_state().clone();
        Counts {
            names: names.clone(),
            counts: cs.dispatch_counts().to_vec(),
        }
    };
    // Mixed sign, magnitudes over eight binades, no zeros. The first batch
    // installs every slot; the second aligns against what is stored.
    let gradient = |round: usize| {
        move |k: usize| {
            let sign = if (k + round) % 3 == 1 { -1.0 } else { 1.0 };
            sign * (1.0 + (k % 7) as f64 / 8.0) / f64::from(1u32 << ((k * 5 + round * 3) % 8))
        }
    };
    run(OP_ADD, &gradient(0));
    let add = run(OP_ADD, &gradient(1));

    // One resolution per table and batch; `rows` resolves and runs at once.
    let phase_a = |c: DispatchCounts| (c.gate_decided, c.uniform_lookup, c.lut, c.per_lane, c.rows);
    let phase_b = |c: DispatchCounts| (c.uniform, c.masked, c.walk);
    for c in &add.counts {
        assert_eq!(c.lanes, LANES as u64);
        assert_eq!(
            c.gate_decided + c.uniform_lookup + c.lut + c.per_lane + c.rows,
            1
        );
    }
    // The eight READ-only tables leave an ADD batch after one compare on
    // the uniform `op` column.
    for table in [
        "read_flags",
        "absval",
        "find_top",
        "normalize",
        "subnormal_select",
        "frac_shift_table",
        "mask_frac",
        "pack",
    ] {
        assert_eq!(phase_a(add.of(table)), (1, 0, 0, 0, 0), "ADD / {table}");
    }
    // `op` and `skip` are both uniform: one scalar lookup each.
    for table in ["exponent", "delta", "mantissa"] {
        assert_eq!(phase_a(add.of(table)), (0, 1, 0, 0, 0), "ADD / {table}");
        assert_eq!(phase_b(add.of(table)), (1, 0, 0), "ADD / {table}");
    }
    // `classify` keys on two 32-bit columns that both vary, and has two
    // entries (zero, subnormal) over a default: a handful of mask/value
    // rows swept chunk-major over both columns, not a hash probe and a
    // scan per lane. No other table of an ADD batch resolves that way.
    assert_eq!(phase_a(add.of("classify")), (0, 0, 0, 1, 0));
    for (table, c) in add.names.iter().zip(&add.counts) {
        assert_eq!(c.claimed, u64::from(table == "classify"), "ADD / {table}");
        assert_eq!(c.leading, 0, "ADD / {table}");
    }
    // The sign bit: a one-bit LUT, then one masked sweep per action.
    assert_eq!(phase_a(add.of("apply_sign")), (0, 0, 1, 0, 0));
    assert_eq!(phase_b(add.of("apply_sign")), (0, 1, 0));
    // The alignment distance really is per-lane, and every action of its
    // table is one constant shift: shift rows, no Phase B arm.
    assert_eq!(phase_a(add.of("align_shift_table")), (0, 0, 0, 0, 1));
    assert_eq!(phase_b(add.of("align_shift_table")), (0, 0, 0));

    let read = run(OP_READ, &|_| 0.0);
    // Every READ lane carries the value 0: `classify` sees uniform keys.
    assert_eq!(phase_a(read.of("classify")), (0, 1, 0, 0, 0));
    // Only these look at lanes: the leading-one scan and the shift
    // distance per lane (as shift rows), the one-bit flags through LUTs.
    for (table, c) in read.names.iter().zip(&read.counts) {
        let touches_lanes = c.lut + c.per_lane + c.rows == 1;
        let expected = match table.as_str() {
            "find_top" => (0, 0, 0, 1, 0),
            "frac_shift_table" => (0, 0, 0, 0, 1),
            "absval" | "subnormal_select" | "pack" if touches_lanes => (0, 0, 1, 0, 0),
            _ => {
                assert!(!touches_lanes, "READ / {table} touched lanes: {c:?}");
                continue;
            }
        };
        assert_eq!(phase_a(*c), expected, "READ / {table}");
    }
    assert_eq!(
        phase_a(read.of("absval")),
        (0, 0, 1, 0, 0),
        "signs are mixed"
    );
    assert_eq!(phase_a(read.of("find_top")), (0, 0, 0, 1, 0));
    // The LPM rows are one leading-one pattern per position: each lane
    // loads its action at its leading one, no row sweeps the lanes.
    assert_eq!(
        (read.of("find_top").leading, read.of("find_top").claimed),
        (1, 0),
        "find_top resolves by the leading one"
    );
    for (table, c) in read.names.iter().zip(&read.counts) {
        assert_eq!(c.claimed, 0, "READ / {table}");
        assert_eq!(c.leading, u64::from(table == "find_top"), "READ / {table}");
    }
    // One masked sweep per leading-one position the batch holds.
    assert_eq!(phase_b(read.of("find_top")), (0, 1, 0));
}

/// Every `add_ranges` / `read_range` chunk carries consecutive slots, so
/// the two stateful tables serve all 64 lanes of a batch from one register
/// window each (`windowed`, 64 of 64) — on ADD and on READ, with the
/// lanes filled by the column writers as the pipeline fills them, and
/// alike on both lane words (one unused 33-bit field puts the same program
/// on 64-bit columns).
#[test]
fn consecutive_slots_reach_the_stateful_tables_as_register_windows() {
    let pipe = FpisaPipeline::from_spec(
        PipelineSpec::new(PipelineVariant::TofinoA)
            .format(FpFormat::FP16)
            .slots(LANES + 8),
    )
    .unwrap();
    let fields = pipe.fields();
    let mut wide = pipe.switch_program().clone();
    wide.layout.field("lane_word_pad", 33);
    let mut per_word = Vec::new();
    for program in [pipe.switch_program(), &wide] {
        let table = |name: &str| {
            let mut tables = program.stages.iter().flat_map(|s| &s.tables);
            tables.position(|t| t.name == name).unwrap()
        };
        let (exponent, mantissa) = (table("exponent"), table("mantissa"));
        let mut cs = CompiledSwitch::compile(program).unwrap();
        let mut lanes = BatchLanes::new(cs.layout(), LANES);
        let words: Vec<u64> = (0..LANES)
            .map(|k| FpFormat::FP16.encode(1.0 + k as f64 / 8.0))
            .collect();
        let mut seen = Vec::new();
        // Two ADD batches (install, then align against what is stored)
        // and a READ batch, all over slots 3..67.
        for op in [OP_ADD, OP_ADD, OP_READ] {
            lanes.begin(LANES);
            lanes.fill(fields.op, 0, op);
            lanes.fill_iota(fields.slot, 0, LANES, 3);
            if op == OP_ADD {
                lanes.fill_slice(fields.value, 0, &words);
            }
            cs.run_lanes(&mut lanes).unwrap();
            let counts = cs.dispatch_counts();
            seen.push((counts[exponent], counts[mantissa]));
        }
        for (batch, (e, m)) in seen.iter().enumerate() {
            let lanes = (batch as u64 + 1) * LANES as u64;
            assert_eq!(
                (e.lanes, e.windowed),
                (lanes, lanes),
                "exponent, batch {batch}"
            );
            assert_eq!(
                (m.lanes, m.windowed),
                (lanes, lanes),
                "mantissa, batch {batch}"
            );
        }
        // No other table has a stateful call to serve.
        let total: u64 = cs.dispatch_counts().iter().map(|c| c.windowed).sum();
        assert_eq!(total, 2 * 3 * LANES as u64);
        per_word.push(cs.dispatch_counts().to_vec());
    }
    assert_eq!(
        per_word[0], per_word[1],
        "the lane word changed the dispatch"
    );
}

/// No FP16 Tofino batch walks. The two shift tables run a divergent batch
/// as shift rows — one pass, no per-lane action — including the two
/// batches that used to leave the fast arms: a full-width
/// ([`LANE_CHUNK`]) READ batch over
/// registers spread across many binades, whose renormalisation distances
/// (`frac_shift`) and leading-one positions (`top`) take more than eight
/// values each, and an ADD batch with zero inputs, which makes `skip` vary
/// beside `bigger` and `d2` (three varying key columns on
/// `align_shift_table`). On that READ batch `find_top` runs one masked
/// sweep per leading-one position. Alike on both lane words.
#[test]
fn fp16_tofino_shift_tables_run_as_rows_and_no_batch_walks() {
    const LANES: usize = LANE_CHUNK;
    let pipe = FpisaPipeline::from_spec(
        PipelineSpec::new(PipelineVariant::TofinoA)
            .format(FpFormat::FP16)
            .slots(LANES),
    )
    .unwrap();
    let fields = pipe.fields();
    let mut wide = pipe.switch_program().clone();
    wide.layout.field("lane_word_pad", 33);
    let mut per_word = Vec::new();
    for program in [pipe.switch_program(), &wide] {
        let names: Vec<String> = (program.stages.iter())
            .flat_map(|s| &s.tables)
            .map(|t| t.name.clone())
            .collect();
        let column = |name: &str| program.layout.lookup(name).unwrap();
        let mut cs = CompiledSwitch::compile(program).unwrap();
        let mut lanes = BatchLanes::new(cs.layout(), LANES);
        let mut batches = Vec::new();
        // Magnitudes over twelve binades, both signs. The second batch
        // takes back all but 2^-1..2^-10 of each slot, so the sums' leading
        // ones spread out; every fifth input of it is zero.
        for (op, second) in [(OP_ADD, false), (OP_ADD, true), (OP_READ, false)] {
            lanes.begin(LANES);
            for k in 0..LANES {
                let sign = if k % 3 == 1 { -1.0 } else { 1.0 };
                let x = sign * (1.0 + (k % 7) as f64 / 8.0) / f64::from(1u32 << (k % 12));
                let x = match (second, k % 5) {
                    (false, _) => x,
                    (true, 0) => 0.0,
                    (true, _) => -x * (1.0 - 1.0 / f64::from(2u32 << (k % 10))),
                };
                lanes.set(fields.op, k, op);
                lanes.set(fields.slot, k, k as u64);
                lanes.set(fields.value, k, FpFormat::FP16.encode(x));
            }
            let before = cs.dispatch_counts().to_vec();
            cs.run_lanes(&mut lanes).unwrap();
            let distinct = |f: &str| {
                let mut v: Vec<u64> = (0..LANES).map(|k| lanes.get(column(f), k)).collect();
                v.sort_unstable();
                v.dedup();
                v.len()
            };
            if second {
                assert_eq!(distinct("skip"), 2, "some inputs are zero, some not");
            }
            if op == OP_READ {
                let shifts = distinct("frac_shift");
                assert!(shifts > 8, "only {shifts} shift distances");
                let tops = distinct("top");
                assert!(tops > 8, "only {tops} leading-one positions");
            }
            let counts: Vec<DispatchCounts> = (cs.dispatch_counts().iter().zip(&before))
                .map(|(c, b)| DispatchCounts {
                    lanes: c.lanes - b.lanes,
                    rows: c.rows - b.rows,
                    masked: c.masked - b.masked,
                    walk: c.walk - b.walk,
                    ..DispatchCounts::default()
                })
                .collect();
            batches.push(Counts {
                names: names.clone(),
                counts,
            });
        }
        for (batch, counts) in batches.iter().enumerate() {
            for (table, c) in counts.names.iter().zip(&counts.counts) {
                assert_eq!(c.walk, 0, "batch {batch} / {table} walked");
            }
        }
        assert_eq!(batches[1].of("align_shift_table").rows, 1, "ADD with zeros");
        assert_eq!(batches[2].of("frac_shift_table").rows, 1, "READ");
        assert_eq!(batches[2].of("find_top").masked, 1, "READ");
        per_word.push(cs.dispatch_counts().to_vec());
    }
    assert_eq!(
        per_word[0], per_word[1],
        "the lane word changed the dispatch"
    );
}

/// The compiled pipeline's open ADD batch, pinned by
/// [`FpisaPipeline::dispatch_counts`]: `add_ranges` calls fill one batch
/// across calls, a batch runs when it reaches [`LANE_CHUNK`] lanes or when
/// something reads the registers, and the 64-word chunks a round's packets
/// carry, arriving in ascending slot order, reach Phase C as one
/// `LANE_CHUNK`-lane window.
#[test]
fn add_ranges_fill_one_open_batch_across_calls() {
    const C: usize = LANE_CHUNK;
    let spec = PipelineSpec::new(PipelineVariant::TofinoA)
        .format(FpFormat::FP16)
        .slots(2 * C);
    let words: Vec<u64> = (0..C + 44)
        .map(|k| FpFormat::FP16.encode(1.0 + (k % 300) as f64 / 64.0))
        .collect();
    let counts = |pipe: &FpisaPipeline| Counts {
        names: (pipe.switch_program().stages.iter())
            .flat_map(|s| &s.tables)
            .map(|t| t.name.clone())
            .collect(),
        counts: pipe.dispatch_counts().to_vec(),
    };
    // Batches a table has resolved, of either op.
    let batches =
        |c: &DispatchCounts| c.gate_decided + c.uniform_lookup + c.lut + c.per_lane + c.rows;
    let stateful = |c: &Counts| {
        let (e, m) = (c.of("exponent"), c.of("mantissa"));
        [(e.lanes, e.windowed), (m.lanes, m.windowed)]
    };

    // `C / 64 - 1` 64-word calls run nothing; the next fills the batch,
    // which runs as one ADD resolution of `C` lanes (an ADD batch leaves
    // the READ-only `find_top` at its gate), and the read then runs only
    // its own 64-lane READ batch.
    let mut pipe = FpisaPipeline::from_spec(spec).unwrap();
    assert_eq!(counts(&pipe).counts.len(), 16);
    for k in 0..C / 64 {
        assert!(
            pipe.dispatch_counts().iter().all(|c| c.lanes == 0),
            "a 64-word call ran its own batch"
        );
        pipe.add_ranges(&[(64 * k, &words[64 * k..64 * (k + 1)])])
            .unwrap();
    }
    pipe.read_range(0, 64).unwrap();
    let after = counts(&pipe);
    for (table, c) in after.names.iter().zip(&after.counts) {
        assert_eq!((c.lanes, batches(c)), ((C + 64) as u64, 2), "{table}");
    }
    assert_eq!(after.of("find_top").gate_decided, 1, "one ADD resolution");
    assert_eq!(
        stateful(&after),
        [((C + 64) as u64, (C + 64) as u64); 2],
        "one window each"
    );

    // A `C`-word call fills its batch and runs it: nothing stays open.
    let mut pipe = FpisaPipeline::from_spec(spec).unwrap();
    pipe.add_ranges(&[(0, &words[..C])]).unwrap();
    let full = counts(&pipe);
    assert_eq!(stateful(&full), [(C as u64, C as u64); 2]);
    pipe.register_state(0);
    assert_eq!(
        pipe.dispatch_counts(),
        &full.counts[..],
        "a batch stayed open"
    );

    // A `C + 44`-word call runs `C` lanes and holds 44; the next read runs
    // those 44 first.
    let mut pipe = FpisaPipeline::from_spec(spec).unwrap();
    pipe.add_ranges(&[(100, &words[..])]).unwrap();
    let ran = counts(&pipe);
    assert_eq!(stateful(&ran), [(C as u64, C as u64); 2]);
    assert_eq!(ran.of("find_top").gate_decided, 1);
    pipe.read_range(0, 8).unwrap();
    let after = counts(&pipe);
    assert_eq!(
        stateful(&after),
        [((C + 44 + 8) as u64, (C + 44 + 8) as u64); 2]
    );
    assert_eq!(after.of("find_top").gate_decided, 2, "the 44 ran as ADDs");
    for (table, c) in after.names.iter().zip(&after.counts) {
        assert_eq!(batches(c), 3, "{table}");
    }

    // A sharded spec holds and runs the same batches; the interpreter
    // holds nothing and counts nothing.
    let mut sharded = FpisaPipeline::from_spec(spec.shards(2)).unwrap();
    sharded.add_ranges(&[(100, &words[..])]).unwrap();
    assert_eq!(sharded.dispatch_counts(), &ran.counts[..], "ADDs");
    sharded.read_range(0, 8).unwrap();
    assert_eq!(sharded.dispatch_counts(), &after.counts[..], "read");
    let mut pipe = FpisaPipeline::from_spec(spec.engine(ExecEngine::Interpreted)).unwrap();
    pipe.add_ranges(&[(0, &words[..64])]).unwrap();
    assert!(pipe.dispatch_counts().is_empty());
}

/// A round shaped like the repo benchmark's `allreduce_fp16_batch2` — two
/// workers' 64-word chunks over `2 * LANE_CHUNK` slots in one `add_ranges`,
/// then one `read_range` over every slot — runs as 4 ADD batches and 2 READ
/// batches, each one register window per stateful table.
#[test]
fn a_two_worker_round_runs_as_four_add_and_two_read_batches() {
    const SLOTS: usize = 2 * LANE_CHUNK;
    let mut pipe = FpisaPipeline::from_spec(
        PipelineSpec::new(PipelineVariant::TofinoA)
            .format(FpFormat::FP16)
            .slots(SLOTS),
    )
    .unwrap();
    let words: Vec<u64> = (0..SLOTS)
        .map(|k| FpFormat::FP16.encode(0.5 + (k % 97) as f64 / 32.0))
        .collect();
    let chunks: Vec<(usize, &[u64])> = (0..2)
        .flat_map(|_| words.chunks(64).enumerate().map(|(i, w)| (64 * i, w)))
        .collect();
    pipe.add_ranges(&chunks).unwrap();
    pipe.read_range(0, SLOTS).unwrap();
    let names: Vec<String> = (pipe.switch_program().stages.iter())
        .flat_map(|s| &s.tables)
        .map(|t| t.name.clone())
        .collect();
    let c = Counts {
        names,
        counts: pipe.dispatch_counts().to_vec(),
    };
    let top = c.of("find_top");
    // ADD batches stop at `find_top`'s gate; READ batches resolve there by
    // the leading one.
    assert_eq!((top.gate_decided, top.leading), (4, 2));
    assert_eq!(top.lanes, 3 * SLOTS as u64);
    for table in ["exponent", "mantissa"] {
        assert_eq!(c.of(table).windowed, 3 * SLOTS as u64, "{table}");
    }
}
