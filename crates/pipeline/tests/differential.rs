//! Packet-level differential test: the pipeline must agree with
//! `fpisa_core::FpisaAccumulator` **bit for bit**, for every cell of the
//! configuration space the spec API opens up:
//!
//! `(variant × {FP32, FP16, BF16} × {TowardZero, NearestEven+guard bits})`
//!
//! For each cell a stream of random finite values of the cell's format —
//! wide exponent spread, subnormals, zeros, sign flips — is pushed through
//! **both execution engines** (the interpreting `Switch` and the compiled
//! fast path) and the reference accumulator built from the *same*
//! [`fpisa_core::FpisaConfig`] (the one [`FpisaPipeline::core_config`]
//! reports):
//!
//! * after **every** ADD packet, the exponent/mantissa register state of
//!   both engines must be identical to the reference, and all sides must
//!   have taken the same [`fpisa_core::AddDecision`];
//! * periodically, and at the end, the packed READ result of both engines
//!   must be bit-identical to the reference read-out.
//!
//! This is the compiled engine's 18-cell bit-for-bit guarantee: register
//! state after every ADD, every READ result, on every
//! `(variant × format × rounding)` configuration — and on **both lane
//! words** of the batch engine: every generated program declares only
//! fields of 32 bits or less, so `add_batch` / `read_batch` run on `u32`
//! columns, and each cell's stream is replayed once more through a copy of
//! its program that one unused 33-bit field puts on `u64` columns.

use fpisa_core::{FpClass, FpFormat, FpisaAccumulator, ReadRounding, SwitchValue};
use fpisa_pipeline::{ExecEngine, FpisaPipeline, PipelineSpec, PipelineVariant, OP_ADD, OP_READ};
use fpisa_pisa::{BatchLanes, CompiledSwitch, Phv, RegArrayId, Switch, LANE_CHUNK};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const SLOTS: usize = 8;
const ADDS_PER_CELL: usize = 2_500;

/// The format/rounding cells every variant is tested against. Guard bits
/// ride along with nearest-even, exercising the Appendix A.1 read-out.
fn cells() -> Vec<(FpFormat, u32, ReadRounding)> {
    let mut out = Vec::new();
    for format in [FpFormat::FP32, FpFormat::FP16, FpFormat::BF16] {
        out.push((format, 0, ReadRounding::TowardZero));
        out.push((format, 2, ReadRounding::NearestEven));
    }
    out
}

/// Random finite packed bits of `format`, biased toward adversarial
/// cases: wide exponent range, occasional zeros and subnormals, mixed
/// signs.
fn random_bits(rng: &mut SmallRng, format: FpFormat) -> u64 {
    let sign = rng.gen::<bool>();
    let frac = rng.gen_range(0..format.fraction_mask() + 1);
    let max_exp = format.max_exp_field();
    let bias = format.bias() as u32;
    match rng.gen_range(0u32..100) {
        // Zeros (positive and negative) exercise the skip path.
        0..=3 => format.pack(sign, 0, 0),
        // Subnormals exercise the exponent-1 install path.
        4..=8 => format.pack(sign, 0, frac.max(1)),
        // Narrow range around 1.0: mostly exact sums and right shifts.
        9..=40 => format.pack(sign, rng.gen_range(bias - 1..bias + 2), frac),
        // Full finite range: left shifts, overwrites, RSAW shifts,
        // saturation, subnormal read-outs.
        _ => format.pack(sign, rng.gen_range(1..max_exp), frac),
    }
}

fn run_differential(variant: PipelineVariant, seed: u64) {
    for (format, guard, rounding) in cells() {
        let spec = PipelineSpec::new(variant)
            .format(format)
            .guard_bits(guard)
            .read_rounding(rounding)
            .slots(SLOTS);
        let mut rng = SmallRng::seed_from_u64(seed ^ u64::from(format.man_bits) ^ u64::from(guard));
        let mut interp = FpisaPipeline::from_spec(spec.engine(ExecEngine::Interpreted))
            .expect("spec must validate");
        let mut comp = FpisaPipeline::from_spec(spec.engine(ExecEngine::Compiled))
            .expect("spec must validate");
        // The same cell partitioned into 3 slot-range shards must stay
        // bit-for-bit with the reference too.
        let mut sharded = FpisaPipeline::from_spec(spec.engine(ExecEngine::Compiled).shards(3))
            .expect("spec must validate");
        let cfg = interp.core_config();
        let cell = format!("{variant:?}/{format:?}/g{guard}/{rounding:?}");
        let mut refs: Vec<FpisaAccumulator> =
            (0..SLOTS).map(|_| FpisaAccumulator::new(cfg)).collect();
        let mut stream: Vec<(usize, u64)> = Vec::with_capacity(ADDS_PER_CELL);

        for i in 0..ADDS_PER_CELL {
            let slot = rng.gen_range(0usize..SLOTS);
            let bits = random_bits(&mut rng, format);
            stream.push((slot, bits));

            // All sides must plan the same alignment path (step-wise hook).
            if format.unpack(bits).class != FpClass::Zero {
                let incoming =
                    SwitchValue::extract(format, cfg.register_bits, cfg.guard_bits, bits).unwrap();
                let (pe, _pm) = interp.register_state(slot);
                let initialized = refs[slot].is_initialized();
                assert_eq!(
                    fpisa_core::plan_add(&cfg, initialized, pe, incoming.exponent),
                    refs[slot].plan_for(incoming.exponent),
                    "{cell} add #{i}: decision diverged for {bits:#x} in slot {slot}"
                );
            }

            interp.add_bits(slot, bits).unwrap();
            comp.add_bits(slot, bits).unwrap();
            sharded.add_bits(slot, bits).unwrap();
            refs[slot].add_bits_quiet(bits).unwrap();

            // The register state of both engines must match the reference
            // after every single packet.
            let want = if refs[slot].is_initialized() {
                (refs[slot].exponent(), refs[slot].mantissa())
            } else {
                (0, 0)
            };
            assert_eq!(
                interp.register_state(slot),
                want,
                "{cell} add #{i}: interpreter register state diverged after {bits:#x} in slot {slot}"
            );
            assert_eq!(
                comp.register_state(slot),
                want,
                "{cell} add #{i}: compiled register state diverged after {bits:#x} in slot {slot}"
            );
            assert_eq!(
                sharded.register_state(slot),
                want,
                "{cell} add #{i}: sharded register state diverged after {bits:#x} in slot {slot}"
            );

            // Periodic read-out comparison (bit-for-bit).
            if i % 7 == 0 {
                let want = refs[slot].read_bits();
                for (engine, pipe) in [
                    ("interpreter", &mut interp),
                    ("compiled", &mut comp),
                    ("sharded", &mut sharded),
                ] {
                    let got = pipe.read_bits(slot).unwrap();
                    assert_eq!(
                        got,
                        want,
                        "{cell} add #{i}: {engine} read {got:#010x} vs reference {want:#010x} \
                         ({} vs {})",
                        format.decode(got),
                        format.decode(want)
                    );
                }
            }
        }

        // Final read-out of every slot, on all engines — including the
        // batch READ paths on the compiled and sharded ones.
        let batch = comp.read_batch(&(0..SLOTS).collect::<Vec<_>>()).unwrap();
        let batch_sharded = sharded.read_batch(&(0..SLOTS).collect::<Vec<_>>()).unwrap();
        for (slot, reference) in refs.iter().enumerate() {
            let want = reference.read_bits();
            let got = interp.read_bits(slot).unwrap();
            assert_eq!(got, want, "{cell} final read of slot {slot}");
            assert_eq!(batch[slot], want, "{cell} final batch read of slot {slot}");
            assert_eq!(
                batch_sharded[slot], want,
                "{cell} final sharded batch read of slot {slot}"
            );
            // Reading must be non-destructive on every side: repeat.
            assert_eq!(interp.read_bits(slot).unwrap(), got);
            assert_eq!(comp.read_bits(slot).unwrap(), got);
            assert_eq!(sharded.read_bits(slot).unwrap(), got);
        }

        // Batch path: replay the same stream in 96-packet batches (wide
        // enough to engage the chunk kernels and their scalar tails) and
        // demand the same bit-for-bit agreement with the reference.
        let mut pipe = FpisaPipeline::from_spec(spec.engine(ExecEngine::Compiled))
            .expect("spec must validate");
        for chunk in stream.chunks(96) {
            pipe.add_batch(chunk).unwrap();
        }
        let batch = pipe.read_batch(&(0..SLOTS).collect::<Vec<_>>()).unwrap();
        let wide = replay_on_wide_lanes(&pipe, &stream);
        for (slot, reference) in refs.iter().enumerate() {
            let want_state = if reference.is_initialized() {
                (reference.exponent(), reference.mantissa())
            } else {
                (0, 0)
            };
            assert_eq!(
                pipe.register_state(slot),
                want_state,
                "{cell} batch register state diverged in slot {slot}"
            );
            assert_eq!(
                batch[slot],
                reference.read_bits(),
                "{cell} batch read of slot {slot}"
            );
            assert_eq!(
                wide[slot],
                (want_state, reference.read_bits()),
                "{cell} 64-bit lane word diverged in slot {slot}"
            );
        }
    }
}

/// The batch replay once more, through `pipe`'s program on the batch
/// engine's *other* lane word: the program is cloned, one unused 33-bit
/// field makes its layout wide, and the stream runs in the same 96-packet
/// batches straight through `run_lanes`. Returns every slot's
/// `((exponent, mantissa) registers, READ result)`.
fn replay_on_wide_lanes(pipe: &FpisaPipeline, stream: &[(usize, u64)]) -> Vec<((u32, i64), u64)> {
    let stats = CompiledSwitch::compile(pipe.switch_program())
        .unwrap()
        .fusion_stats();
    assert_eq!(
        (stats.lane_bits, stats.widened_ops),
        (32, 0),
        "every generated program runs whole on the 32-bit lane word"
    );
    let mut program = pipe.switch_program().clone();
    program.layout.field("lane_word_pad", 33);
    let mut cs = CompiledSwitch::compile(&program).unwrap();
    assert_eq!(cs.fusion_stats().lane_bits, 64);
    let fields = pipe.fields();
    let mut lanes = BatchLanes::new(cs.layout(), 96);
    for chunk in stream.chunks(96) {
        lanes.begin(chunk.len());
        for (k, &(slot, bits)) in chunk.iter().enumerate() {
            lanes.set(fields.op, k, OP_ADD);
            lanes.set(fields.slot, k, slot as u64);
            lanes.set(fields.value, k, bits);
        }
        cs.run_lanes(&mut lanes).unwrap();
    }
    lanes.begin(SLOTS);
    for slot in 0..SLOTS {
        lanes.set(fields.op, slot, OP_READ);
        lanes.set(fields.slot, slot, slot as u64);
    }
    cs.run_lanes(&mut lanes).unwrap();
    let array = |name: &str| {
        let at = program.arrays.iter().position(|a| a.name == name);
        RegArrayId(at.unwrap_or_else(|| panic!("no register array `{name}`")) as u16)
    };
    let (exponent, mantissa) = (array("exp_reg"), array("man_reg"));
    (0..SLOTS)
        .map(|slot| {
            let state = (
                cs.register(exponent, slot) as u32,
                cs.register(mantissa, slot),
            );
            (state, lanes.get(fields.result, slot))
        })
        .collect()
}

/// A reused lane buffer on every cell: every column of a full batch first
/// holds random non-zero values and runs, then ADD batches fill only the
/// op, slot and value columns — slots lane by lane with gaps, words from a
/// random lane on — and READ batches only op and slot, as the pipeline's
/// own lane loops do. The compiled engine zeroes a column only where a
/// table reads it, so every field of every lane (through `get`) and every
/// register must still equal the interpreter's on fresh PHVs.
#[test]
fn reused_lanes_read_like_fresh_packets_on_every_cell() {
    const N: usize = 200;
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0005);
    let variants = [
        PipelineVariant::TofinoA,
        PipelineVariant::ExtendedA,
        PipelineVariant::ExtendedFull,
    ];
    for variant in variants {
        for (format, guard, rounding) in cells() {
            let cell = format!("{variant:?}/{format:?}/g{guard}/{rounding:?}");
            let spec = PipelineSpec::new(variant)
                .format(format)
                .guard_bits(guard)
                .read_rounding(rounding)
                .slots(SLOTS);
            let pipe = FpisaPipeline::from_spec(spec).expect("spec must validate");
            let (program, f) = (pipe.switch_program(), pipe.fields());
            let mut lanes = BatchLanes::new(&program.layout, N);
            lanes.begin(N);
            for (id, spec) in program.layout.iter() {
                let top = u64::MAX >> (64 - spec.bits);
                let words: Vec<u64> = (0..N).map(|_| rng.gen_range(1..=top)).collect();
                lanes.fill_slice(id, 0, &words);
            }
            let _ = CompiledSwitch::compile(program)
                .unwrap()
                .run_lanes(&mut lanes);
            let mut sw = Switch::new(program.clone()).unwrap();
            let mut cs = CompiledSwitch::compile(program).unwrap();
            let batches = [(OP_ADD, N), (OP_ADD, 77), (OP_READ, SLOTS), (OP_ADD, 130)];
            for (b, (op, n)) in batches.into_iter().chain([(OP_READ, SLOTS)]).enumerate() {
                let mut want = vec![Phv::new(&program.layout); n];
                lanes.begin(n);
                lanes.fill(f.op, 0, op);
                if op == OP_READ {
                    lanes.fill_iota(f.slot, 0, n, 0);
                } else {
                    for (i, p) in want.iter_mut().enumerate() {
                        if rng.gen_range(0u32..4) != 0 {
                            let slot = rng.gen_range(0..SLOTS as u64);
                            lanes.set(f.slot, i, slot);
                            p.set(f.slot, slot);
                        }
                    }
                    let from = rng.gen_range(0..n);
                    let words: Vec<u64> =
                        (from..n).map(|_| random_bits(&mut rng, format)).collect();
                    lanes.fill_slice(f.value, from, &words);
                    for (p, &w) in want[from..].iter_mut().zip(&words) {
                        p.set(f.value, w);
                    }
                }
                for (i, p) in want.iter_mut().enumerate() {
                    p.set(f.op, op);
                    if op == OP_READ {
                        p.set(f.slot, i as u64);
                    }
                    sw.run(p).unwrap();
                }
                cs.run_lanes(&mut lanes).unwrap();
                for (i, p) in want.iter().enumerate() {
                    for (id, spec) in program.layout.iter() {
                        let (got, want) = (lanes.get(id, i), p.get(id));
                        assert_eq!(got, want, "{cell} batch {b}: lane {i} `{}`", spec.name);
                    }
                }
                assert_eq!(cs.register_state(), sw.register_state(), "{cell} batch {b}");
            }
        }
    }
}

#[test]
fn tofino_approximate_matches_reference_bit_for_bit() {
    run_differential(PipelineVariant::TofinoA, 0xD1FF_0001);
}

#[test]
fn extended_approximate_matches_reference_bit_for_bit() {
    run_differential(PipelineVariant::ExtendedA, 0xD1FF_0002);
}

#[test]
fn extended_full_matches_reference_bit_for_bit() {
    run_differential(PipelineVariant::ExtendedFull, 0xD1FF_0003);
}

/// The range-shaped calls against the scattered and the scalar ones, on
/// every cell and every engine: `add_ranges` ≡ `add_batch` over the
/// flattened pairs ≡ one `add_bits` per element, `read_range` ≡
/// `read_batch` ≡ `read_bits`, `clear_range` ≡ one `clear_slot` per slot.
/// The chunk list has empty chunks (first, mid-list, at the very end of the
/// slot space), chunks that straddle the compiled engine's first and second
/// [`LANE_CHUNK`] batch boundaries, and slots that are hit again by a later
/// chunk.
#[test]
fn range_shaped_calls_equal_scattered_and_scalar_ones_on_every_cell() {
    const C: usize = LANE_CHUNK;
    const N: usize = 2 * C + 88;
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0004);
    // (start, words): lanes 0..64 | 64..C-42 | C-42..C+58 (over C) |
    // C+58..C+59 | C+59..2C+88 (over 2C) | 2C+88..2C+188.
    let shape: [(usize, usize); 9] = [
        (7, 0),
        (0, 64),
        (C + 44, C - 106),
        (C - 6, 100),
        (N, 0),
        (N - 1, 1),
        (10, C + 29),
        (3, 0),
        (N - 100, 100),
    ];
    for variant in PipelineVariant::all() {
        for (format, guard, rounding) in cells() {
            let cell = format!("{variant:?}/{format:?}/g{guard}/{rounding:?}");
            let spec = PipelineSpec::new(variant)
                .format(format)
                .guard_bits(guard)
                .read_rounding(rounding)
                .slots(N);
            let words: Vec<Vec<u64>> = shape
                .iter()
                .map(|&(_, len)| (0..len).map(|_| random_bits(&mut rng, format)).collect())
                .collect();
            let chunks: Vec<(usize, &[u64])> = shape
                .iter()
                .zip(&words)
                .map(|(&(start, _), w)| (start, w.as_slice()))
                .collect();
            let pairs: Vec<(usize, u64)> = chunks
                .iter()
                .flat_map(|&(start, w)| w.iter().enumerate().map(move |(i, &b)| (start + i, b)))
                .collect();
            let mut scalar = FpisaPipeline::from_spec(spec).unwrap();
            for _ in 0..2 {
                for &(slot, bits) in &pairs {
                    scalar.add_bits(slot, bits).unwrap();
                }
            }
            let want_state: Vec<(u32, i64)> = (0..N).map(|s| scalar.register_state(s)).collect();
            let want_read: Vec<u64> = (0..N).map(|s| scalar.read_bits(s).unwrap()).collect();
            for (engine, spec) in [
                ("interpreted", spec.engine(ExecEngine::Interpreted)),
                ("compiled", spec.engine(ExecEngine::Compiled)),
                ("sharded", spec.engine(ExecEngine::Compiled).shards(3)),
            ] {
                let label = format!("{cell} / {engine}");
                let mut ranged = FpisaPipeline::from_spec(spec).unwrap();
                let mut scattered = FpisaPipeline::from_spec(spec).unwrap();
                for _ in 0..2 {
                    ranged.add_ranges(&chunks).unwrap();
                    scattered.add_batch(&pairs).unwrap();
                }
                ranged.add_ranges(&[]).unwrap();
                for (s, &want) in want_state.iter().enumerate() {
                    assert_eq!(
                        ranged.register_state(s),
                        want,
                        "{label}: add_ranges, slot {s}"
                    );
                    assert_eq!(
                        scattered.register_state(s),
                        want,
                        "{label}: add_batch, slot {s}"
                    );
                }
                // Read-outs: the whole space, a piece over a batch boundary,
                // empty pieces.
                let all: Vec<usize> = (0..N).collect();
                assert_eq!(ranged.read_range(0, N).unwrap(), want_read, "{label}");
                assert_eq!(ranged.read_batch(&all).unwrap(), want_read, "{label}");
                assert_eq!(
                    ranged.read_range(100, C + 44).unwrap(),
                    want_read[100..C + 144],
                    "{label}"
                );
                assert_eq!(ranged.read_range(N, 0).unwrap(), [0u64; 0], "{label}");
                // A chunk out of range — the last of the call, its start in
                // range — is rejected before any packet of any chunk runs.
                for bad in [(N - 4, &words[1][..5]), (usize::MAX, &words[1][..2])] {
                    let err = ranged.add_ranges(&[chunks[1], bad]).unwrap_err();
                    assert!(
                        matches!(err, fpisa_pisa::RuntimeError::IndexOutOfRange { .. }),
                        "{label}: {err:?}"
                    );
                    assert!(ranged.read_range(N - 4, 5).is_err(), "{label}");
                    assert!(ranged.clear_range(N - 4, 5).is_err(), "{label}");
                }
                for (s, &want) in want_state.iter().enumerate() {
                    assert_eq!(
                        ranged.register_state(s),
                        want,
                        "{label}: rejected, slot {s}"
                    );
                }
                // Resets: a span against the per-slot loop, then all of it.
                ranged.clear_range(250, 0).unwrap();
                ranged.clear_range(190, N - 280).unwrap();
                for s in 190..N - 90 {
                    scattered.clear_slot(s).unwrap();
                }
                for (s, &kept) in want_state.iter().enumerate() {
                    let want = if (190..N - 90).contains(&s) {
                        (0, 0)
                    } else {
                        kept
                    };
                    assert_eq!(
                        ranged.register_state(s),
                        want,
                        "{label}: clear_range, slot {s}"
                    );
                    assert_eq!(
                        scattered.register_state(s),
                        want,
                        "{label}: clear_slot, slot {s}"
                    );
                }
                ranged.clear_range(0, N).unwrap();
                assert!(
                    (0..N).all(|s| ranged.register_state(s) == (0, 0)),
                    "{label}"
                );
            }
        }
    }
}

/// Directed FP32 streams that historically break FP pipelines: pure
/// cancellation, saturation pressure, exact powers of two at the headroom
/// boundary, and denormal dust — run through every format/rounding cell
/// (values are re-encoded into each cell's format).
#[test]
fn directed_edge_streams_match_bit_for_bit() {
    let near_max_mantissa = f32::from_bits(0x3FFF_FFFF); // ~1.9999999
    let streams: Vec<Vec<f32>> = vec![
        // Headroom boundary: shifts just inside, overwrites just past.
        vec![1.0, 128.0, 1.0, 256.0, 1.0],
        // Saturation: 300 near-max values at one exponent.
        vec![near_max_mantissa; 300],
        // Cancellation to exact zero and below.
        vec![5.5, -5.5, -3.25, 1.0, 2.25],
        // Denormal dust plus a huge value (RSAW shifts everything out).
        vec![f32::from_bits(7), f32::from_bits(3), 1.0e20, -1.0e20],
        // Alternating signs across the full exponent sweep.
        (-38..38)
            .map(|e| 2f32.powi(e) * if e % 2 == 0 { 1.0 } else { -1.0 })
            .collect(),
        // Subnormal-only arithmetic.
        (1..200u32).map(f32::from_bits).collect(),
        // Half-ulp ties for the nearest-even read-out.
        vec![2.0, 3.0 * 2f32.powi(-23), 2.0, 2f32.powi(-24), -4.0],
    ];
    for variant in PipelineVariant::all() {
        for (format, guard, rounding) in cells() {
            let spec = PipelineSpec::new(variant)
                .format(format)
                .guard_bits(guard)
                .read_rounding(rounding)
                .slots(1);
            for (si, stream) in streams.iter().enumerate() {
                let mut pipe = FpisaPipeline::from_spec(spec).unwrap();
                let mut reference = FpisaAccumulator::new(pipe.core_config());
                for (i, &x) in stream.iter().enumerate() {
                    // Quantize to the cell's format (finite by construction:
                    // every stream value is within BF16/FP16 range or maps
                    // to zero/subnormal).
                    let bits = format.encode(x as f64);
                    if format.unpack(bits).class == FpClass::Infinity {
                        continue; // 1e20 overflows FP16; skip it.
                    }
                    pipe.add_bits(0, bits).unwrap();
                    reference.add_bits(bits).unwrap();
                    let got = pipe.read_bits(0).unwrap();
                    let want = reference.read_bits();
                    assert_eq!(
                        got, want,
                        "{variant:?}/{format:?}/g{guard}/{rounding:?} stream {si} step {i} \
                         ({x}): {got:#010x} vs {want:#010x}"
                    );
                }
            }
        }
    }
}

/// The compiled engine's open ADD batch against the interpreter, which
/// runs every call at once, bit for bit on every variant × format:
/// `add_ranges` calls of 0, 1, 63, 64, 65, `LANE_CHUNK - 1`, `LANE_CHUNK`,
/// `LANE_CHUNK + 1` and `2 * LANE_CHUNK + 88` words,
/// each a chunk plus a second chunk over slots of the first (one open batch
/// holds a slot twice), later calls landing on earlier calls' slots. Every
/// third call is followed by one of the entries that run the open batch
/// first, in turn, so batches span up to three calls; one clone taken while
/// a batch is open reads out the same as the original.
#[test]
fn open_batches_match_the_interpreter_across_every_entry() {
    const C: usize = LANE_CHUNK;
    const N: usize = 2 * C + 188;
    const SIZES: [usize; 9] = [0, 1, 63, 64, 65, C - 1, C, C + 1, 2 * C + 88];
    let mut rng = SmallRng::seed_from_u64(0x0BE7_0033);
    for variant in PipelineVariant::all() {
        for format in [FpFormat::FP32, FpFormat::FP16, FpFormat::BF16] {
            let spec = PipelineSpec::new(variant).format(format).slots(N);
            let mut interp =
                FpisaPipeline::from_spec(spec.engine(ExecEngine::Interpreted)).unwrap();
            let mut comp = FpisaPipeline::from_spec(spec.engine(ExecEngine::Compiled)).unwrap();
            for step in 0..3 * SIZES.len() {
                let label = format!("{variant:?}/{format:?} step {step}");
                let len = SIZES[step % SIZES.len()];
                let start = rng.gen_range(0..=N - len);
                let words: Vec<u64> = (0..len).map(|_| random_bits(&mut rng, format)).collect();
                let chunks = [(start, &words[..]), (start + len / 4, &words[..len / 2])];
                interp.add_ranges(&chunks).unwrap();
                comp.add_ranges(&chunks).unwrap();
                if step == 13 {
                    let mut twin = comp.clone();
                    let ran = |p: &FpisaPipeline| p.dispatch_counts()[0].lanes;
                    let before = ran(&twin);
                    twin.register_state(0);
                    assert!(ran(&twin) > before, "{label}: no batch was open");
                    let want = interp.read_range(0, N).unwrap();
                    assert_eq!(twin.read_range(0, N).unwrap(), want, "{label}: clone");
                    assert_eq!(comp.read_range(0, N).unwrap(), want, "{label}");
                }
                if step % 3 != 2 {
                    continue;
                }
                let slot = rng.gen_range(0..N);
                let bits = random_bits(&mut rng, format);
                let x = format.decode(bits);
                match step / 3 {
                    0 => {
                        // On the slots the call holds twice: three ADDs per
                        // slot, whose order the truncating variants see.
                        for s in start + len / 4..start + len / 2 {
                            interp.add_bits(s, bits).unwrap();
                            comp.add_bits(s, bits).unwrap();
                        }
                    }
                    1 => {
                        let pairs = [(slot, bits), (start, bits), (slot, bits)];
                        interp.add_batch(&pairs).unwrap();
                        comp.add_batch(&pairs).unwrap();
                    }
                    2 if format == FpFormat::FP32 => {
                        let pairs = [(slot, x as f32), (start, -x as f32)];
                        interp.add_batch_f32(&pairs).unwrap();
                        comp.add_batch_f32(&pairs).unwrap();
                    }
                    2 => {
                        interp.add_value(start, x).unwrap();
                        comp.add_value(start, x).unwrap();
                    }
                    3 => {
                        let want = interp.read_bits(start).unwrap();
                        assert_eq!(comp.read_bits(start).unwrap(), want, "{label}");
                    }
                    4 => {
                        let slots: Vec<usize> = (start..start + len).rev().collect();
                        let want = interp.read_batch(&slots).unwrap();
                        assert_eq!(comp.read_batch(&slots).unwrap(), want, "{label}");
                    }
                    5 => {
                        let want = interp.read_range(start, len).unwrap();
                        assert_eq!(comp.read_range(start, len).unwrap(), want, "{label}");
                    }
                    6 => {
                        interp.clear_slot(start).unwrap();
                        comp.clear_slot(start).unwrap();
                    }
                    7 => {
                        interp.clear_range(start + len / 4, len / 2).unwrap();
                        comp.clear_range(start + len / 4, len / 2).unwrap();
                    }
                    _ => {
                        for s in start..start + len {
                            let want = interp.register_state(s);
                            assert_eq!(comp.register_state(s), want, "{label}: slot {s}");
                        }
                    }
                }
            }
            let label = format!("{variant:?}/{format:?}");
            for s in 0..N {
                let want = interp.register_state(s);
                assert_eq!(comp.register_state(s), want, "{label}: slot {s}");
            }
            let want = interp.read_range(0, N).unwrap();
            assert_eq!(comp.read_range(0, N).unwrap(), want, "{label}");
        }
    }
}

/// Every entry of the compiled pipeline shares one lane buffer, whose live
/// lanes between calls are the open ADD batch: against the interpreter,
/// bit for bit on every variant × format, held `add_ranges` of 1, 64 and
/// `LANE_CHUNK + 1` words are interleaved with scattered `add_batch` and
/// `read_batch`, `read_range` and `clear_range`. A scattered call right
/// before a hold must leave no lanes behind for the hold to append to (they
/// would run again), a clone taken with a batch open reads out the same,
/// and a call rejected for an out-of-range chunk appends nothing to the
/// open batch.
#[test]
fn one_lane_buffer_serves_every_entry_like_the_interpreter() {
    const N: usize = LANE_CHUNK + 300;
    let mut rng = SmallRng::seed_from_u64(0x0B0F_0035);
    for variant in PipelineVariant::all() {
        for format in [FpFormat::FP32, FpFormat::FP16, FpFormat::BF16] {
            let spec = PipelineSpec::new(variant).format(format).slots(N);
            let mut interp =
                FpisaPipeline::from_spec(spec.engine(ExecEngine::Interpreted)).unwrap();
            let mut comp = FpisaPipeline::from_spec(spec.engine(ExecEngine::Compiled)).unwrap();
            let mut words = |len: usize| -> Vec<u64> {
                (0..len).map(|_| random_bits(&mut rng, format)).collect()
            };
            let ran = |p: &FpisaPipeline| p.dispatch_counts()[0].lanes;
            for round in 0..2 {
                let label = format!("{variant:?}/{format:?} round {round}");
                let (one, short, long) = (words(1), words(64), words(LANE_CHUNK + 1));
                let pairs: Vec<(usize, u64)> = words(37)
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| ((i * 61) % N, w))
                    .collect();
                for pipe in [&mut interp, &mut comp] {
                    pipe.add_ranges(&[(N - 1, &one)]).unwrap();
                    pipe.add_ranges(&[(40 * round, &short)]).unwrap();
                    pipe.add_batch(&pairs).unwrap();
                    pipe.add_ranges(&[(N - LANE_CHUNK - 1, &long)]).unwrap();
                    pipe.add_ranges(&[(7, &short), (N - 64, &short)]).unwrap();
                }
                // A clone of the open batch runs what the original would.
                let mut twin = comp.clone();
                let before = ran(&twin);
                twin.register_state(0);
                let held = ran(&twin) - before;
                assert!(held > 0, "{label}: no batch was open");
                let want = interp.read_range(0, N).unwrap();
                assert_eq!(twin.read_range(0, N).unwrap(), want, "{label}: clone");
                // A call with an out-of-range chunk appends nothing.
                for pipe in [&mut interp, &mut comp] {
                    let bad = [(0, &short[..]), (N - 10, &short[..])];
                    assert!(pipe.add_ranges(&bad).is_err(), "{label}");
                }
                comp.register_state(0);
                assert_eq!(ran(&comp), before + held, "{label}: the rejected call ran");
                let slots: Vec<usize> = (0..50).map(|i| (i * 47) % N).collect();
                for pipe in [&mut interp, &mut comp] {
                    pipe.add_ranges(&[(3, &short)]).unwrap();
                }
                let want = interp.read_batch(&slots).unwrap();
                assert_eq!(comp.read_batch(&slots).unwrap(), want, "{label}");
                for pipe in [&mut interp, &mut comp] {
                    pipe.add_ranges(&[(N - 100, &short)]).unwrap();
                    pipe.add_batch(&pairs).unwrap();
                    pipe.add_ranges(&[(20, &one)]).unwrap();
                }
                let want = interp.read_range(10, LANE_CHUNK).unwrap();
                assert_eq!(comp.read_range(10, LANE_CHUNK).unwrap(), want, "{label}");
                for pipe in [&mut interp, &mut comp] {
                    pipe.add_ranges(&[(30, &short)]).unwrap();
                    pipe.clear_range(50, 100).unwrap();
                    pipe.add_ranges(&[(60, &one)]).unwrap();
                }
                for s in 0..N {
                    let want = interp.register_state(s);
                    assert_eq!(comp.register_state(s), want, "{label}: slot {s}");
                }
            }
            let want = interp.read_range(0, N).unwrap();
            assert_eq!(
                comp.read_range(0, N).unwrap(),
                want,
                "{variant:?}/{format:?}"
            );
        }
    }
}
