//! The compiled fast-path execution engine.
//!
//! [`crate::Switch`] interprets a program one table at a time: every lookup
//! is a linear scan over the installed entries, and every pass allocates
//! bookkeeping. That is fine for debugging but bounds how many packets an
//! experiment can afford. [`CompiledSwitch`] lowers a validated
//! [`SwitchProgram`] once, ahead of any packet, into a form where the
//! per-packet loop is a branch-light walk over flat slices with **zero
//! allocation** — the same move the paper's hardware target makes (every
//! decision pre-resolved into match tables before traffic arrives) and that
//! Packet Transactions makes in reverse (compile the program so the
//! per-packet path does no interpretation).
//!
//! The lowering:
//!
//! * **exact-match tables** become either a *dense direct-index* array
//!   (every key pattern exact, total key width small enough to enumerate)
//!   or a *hash lookup* — packed into a single `u64` key when the key tuple
//!   fits 64 bits, a `Box<[u64]>` tuple otherwise — instead of a scan;
//! * **ternary / LPM / range / wildcard entries** are pre-sorted by
//!   `(priority desc, installation order asc)` into a scan-ready array, so
//!   the first hit *is* the winner;
//! * **keyless tables** resolve their winning action at compile time;
//! * every action's primitives and stateful calls are flattened into
//!   contiguous **op tapes** shared across the whole program, with
//!   pre-resolved register-array bindings;
//! * the per-pass `touched` bookkeeping and hash key buffer live in the
//!   engine and are reused across packets.
//!
//! Match semantics are bit-for-bit those of the interpreter (highest
//! priority wins, ties to the earliest installed entry, default action on
//! miss), as is the execution order (tables in stage order, primitives
//! before stateful calls, the dynamic RAW check before each register
//! access) — property-tested over random programs and differentially tested
//! against the interpreter by the FPISA pipeline suite.
//!
//! ## Data-oriented batch execution
//!
//! On top of the per-packet fast path, the engine has a
//! structure-of-arrays batch mode ([`CompiledSwitch::run_lanes`] /
//! [`CompiledSwitch::run_batch_soa`]): packets live in [`BatchLanes`]
//! columns (one flat lane per PHV field) and execution is *table-major* —
//! for each table, resolve the action of every packet (Phase A), run the
//! primitives (Phase B), then the stateful calls (Phase C). The rule
//! throughout: what is true of the whole batch is established once per
//! batch, and lanes are touched only where they differ.
//!
//! **Phase A** reads *column facts*. The first table to ask about a PHV
//! field sweeps its column once — one value in every live lane, or not —
//! and the batch remembers the answer until a table that can write the
//! field has executed. A gate check on a uniform column decides the whole
//! batch with one compare (an ADD batch leaves every READ-only table this
//! way); uniform key columns cost one scalar lookup; a few varying key
//! bits go through an action LUT enumerated per batch (each lane's index
//! built a column pass at a time, then one load per lane); a handful of
//! mask/value rows sweep the varying columns chunk-major — unless they are
//! leading-one patterns on one column (`find_top`: row `t` pins bit `t` set
//! and the bits above it clear), and each lane loads the winner at its
//! masked key's leading one, Fig. 5's TCAM as one lookup; otherwise each
//! lane packs just its varying columns onto a constant and probes the
//! matcher — except on a table lowered to *shift rows* (below), where a
//! divergent batch resolves and runs in one pass.
//!
//! **Phase B** has two arms:
//!
//! 1. **uniform** — the whole batch resolved to one action: the tape runs
//!    *instruction-major*, each op streaming across all lanes through its
//!    chunk kernel, a cache line of lanes at a time;
//! 2. **masked** — a divergent batch: each distinct action's tape runs
//!    instruction-major through the same chunk kernels, storing only into
//!    the lanes that resolved to it (`find_top`, one action per
//!    leading-one position, runs one per position a batch holds).
//!
//! Only a table with more than 64 actions — more than the distinct-action
//! bitmap holds — has each packet of a divergent batch walk its own tape,
//! the same code as the scalar engine.
//!
//! **Shift rows.** Tofino has no two-operand shift, so the FPISA program
//! enumerates its alignment and renormalisation shifts as exact-match
//! tables, one constant shift per distance. A table with no stateful call,
//! a direct-index matcher, and every non-empty action one `dst = src ⊕ c`
//! (⊕ a shift) or `dst = 0` (a logical shift by 64, bit for bit) — one
//! `dst` and one `src` throughout — is lowered to `ShiftRows`: each
//! matcher slot holds its full key next to its action's row of constants
//! (a miss takes the default's row; an empty action or no default keeps).
//! A divergent batch on it runs 16 lanes at a time — a scalar gather per
//! lane (pack the varying key columns onto the uniform-key constant, load
//! the slot, verify the key) and one vector loop over the chunk — with no
//! per-lane action and no second pass. SSE2 has no per-lane variable
//! shift, so on `u32` lanes a row is two multipliers (`pmuludq`) applied to
//! `y`, the source — for an arithmetic shift sign-extended with its sign
//! flipped in (`y ≥ 0`), and flipped back out of the result:
//!
//! | shift | row | result |
//! |---|---|---|
//! | left by `c < 32` | `mlo = 2^c` | low half of `y·mlo` |
//! | right by `1 ≤ c ≤ 31` | `mhi = 2^(32−c)` | high half of `y·mhi` |
//! | by 0 / by `c ≥ 32` | `mlo = 1` / neither | `y` / 0 or the sign fill |
//!
//! `u64` lanes keep two shift counts. The kernel stays out of line, so the
//! batch loop every program runs does not carry it: a prototype that
//! inlined it read the SwitchML workload, which never runs it, 8–24%
//! slower (binary layout; on the landed code both forms read alike).
//!
//! **Phase C** applies in packet order, stopping at the first out-of-range
//! lane, so per-slot update order (and thus every register value, SALU
//! output and fault) is bit-for-bit the per-packet engine's. The
//! definition is one indexed access per lane. Where a one-action batch's
//! index column *ascends slot by slot* — every packet of the paper's
//! protocol carries consecutive elements — the range stays a range: the
//! column splits into maximal ascending runs, and a run of eight lanes or
//! more takes its **register window** `regs[base..base + len]` once. That
//! checked slice is the fault test: a run crossing the array's end is
//! clipped there and the first lane past the clip faults, exactly as lane
//! by lane. Over the window the call runs as staged sweeps resolved per
//! 64-lane block, not per lane — a compare sweep per condition leaf into a
//! lane mask, `on_true` over the taken lanes and `on_false` over the rest
//! (a block gone all one way runs that update branch-free), then the
//! output store, after every read as per packet. Runs go in lane order and
//! the slots inside one are distinct, so nothing is reordered. The
//! per-lane loop keeps shorter runs and columns that are no run at all
//! (duplicate or permuted slots: a window's setup would not pay, and
//! duplicates need the order), a constant index (one slot), and
//! divergent-action tables (each lane under its own call).
//! [`CompiledSwitch::dispatch_counts`] reports which way each table went,
//! and how many lanes its windows served.
//!
//! The SoA mode is only entered for programs where table-major order is
//! observably identical to packet-major order (see
//! [`CompiledSwitch::soa_eligible`]): no recirculation, each register
//! array touched from at most one table, at most one stateful call per
//! action. Everything else — and every scalar entry point — takes the
//! per-packet path unchanged.
//!
//! **Entry points.** `run_batch_soa` transposes PHVs; `run_lanes` runs a
//! caller-filled [`BatchLanes`]; `ranges`' loops fill `LANE_CHUNK`-lane
//! batches a column at a time — `run_pairs` from `(slot, word)` pairs,
//! `run_ranges` from slot ranges, and `hold_ranges` / `run_held` leaving
//! the last batch *open* across calls, so a round's 64-word ADD packets run
//! as 2048-lane batches in the one lane buffer a pipeline or backend keeps.
//!
//! **Zeroing on first use.** A fresh batch reads like fresh packets, yet
//! no lane is cleared: a [`BatchLanes`] column's lanes past its mark stand
//! for zeros (`phv`'s docs), and the engine zeroes a column up to the live
//! lanes only before a table would read stale lanes there — its gate
//! columns before the gate check, its other keys once no gate check
//! decides the batch, the columns a uniform action reads (`action_reads`),
//! and every column a masked, rows or walk arm touches, since those leave
//! lanes as they were. A uniform action's other writes are only marked:
//! its sweeps store every live lane, its SALU output every lane before a
//! fault. Of the FP16 Tofino program's 34 columns, a 2048-lane
//! `add_ranges` batch of normal values zeroes 4, a `read_range` batch 8.
//!
//! ## The lane word
//!
//! A batch's columns are stored, and its sweeps computed, in the layout's
//! *lane word*: `u32` when every PHV field is at most 32 bits wide, `u64`
//! otherwise (`PhvLayout::lane_bits`; no option selects it). Everything
//! that touches a column — facts, key packs, row claims, the Phase B
//! sweeps, Phase C's run scan and window sweeps — is one generic source
//! over `LaneWord`, instantiated twice. An action is a fixed op template
//! plus constants (Packet Transactions), so the template is resolved when a
//! sweep starts, not per chunk: the ALU `match` and the operand shape
//! (`field∘field`, `field∘const`, `const∘field`) are decided outside the
//! lane loop, each arm a loop around one branchless op in which a constant
//! stays a scalar.
//!
//! The narrow word is what lets the portable x86-64 build vectorize at
//! all: SSE2 has no 64-bit signed compare, no 64-bit arithmetic shift and
//! no per-lane variable shift, so `u64` "vector" kernels for `CmpLt` or
//! `ShrArith` run lane by lane; it has all three for 32-bit lanes under a
//! uniform count (`pcmpgtd`, `psrad`, `pslld`), and moves half the bytes.
//!
//! Narrow arithmetic is used **per op, only where it is provably the
//! 64-bit result truncated** — field values fit their 32-bit lane by
//! construction, so the rules (`narrow_exact`) are all about constants:
//!
//! | op | exact in `u32` lanes when |
//! |---|---|
//! | `Set` `Add` `Sub` `And` `Or` `Xor` `Shl` | always: the low half of the result depends on the low halves alone |
//! | `ShrLogic` `ShrArith` | a constant *left* operand lies in `0..=i32::MAX` (right shifts pull high bits down) |
//! | `CmpEq` `CmpNe` | constants lie in `0..=u32::MAX` (raw compare; no field equals anything else) |
//! | `CmpLt` `CmpLe` `CmpGt` `CmpGe` | constants lie in `i32::MIN..=i32::MAX` (a field's signed view always does) |
//!
//! Shift *counts* need no rule: a constant count is clamped to 64 when
//! lowered, and each width zeroes (or sign-fills) once the count reaches
//! its own 32 or 64. An op that breaks its rule is *widened*: on a `u32`
//! batch that one op runs the 64-bit scalar ALU lane by lane, bit-exact
//! and slow — [`FusionStats`] counts such ops, and every generated FPISA
//! program is held to zero of them by a test.
//!
//! ## Dead-store elimination
//!
//! Lowering runs one peephole pass over each action's primitive tape: a
//! store overwritten by the next op before anyone reads it is dropped.
//! An op's only effect is its destination store, so results are
//! bit-for-bit unchanged. [`CompiledSwitch::fusion_stats`] reports the
//! counts.

use crate::action::{AluOp, Operand, Primitive};
use crate::analysis::defuse::{action_reads, action_writes};
use crate::phv::{zero_below, BatchLanes, ColumnsMut, FieldId, LaneWord, Phv, PhvLayout};
use crate::register::{
    ArrayMeta, CmpOp, RegArrayId, RegisterState, SaluCond, SaluOutput, SaluUpdate,
};
use crate::switch::{ProgramError, RuntimeError, SwitchProgram};
use crate::table::{KeyMatch, Table};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Largest total key width (in bits) lowered to a dense direct-index
/// array: 2^16 slots of 4 bytes = 256 KiB per table, at most.
const DENSE_MAX_BITS: u32 = 16;

/// Sentinel in dense tables: no entry installed for this key value.
const MISS: u32 = u32::MAX;

/// A minimal Fx-style hasher for the match-key maps: one multiply-xor per
/// `u64`, instead of SipHash's per-lookup setup. Match keys are
/// attacker-free simulator state, so DoS hardening buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let x = (self.0 ^ v).wrapping_mul(0xa076_1d64_78bd_642f);
        self.0 = x ^ (x >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<K> = HashMap<K, Cand, BuildHasherDefault<KeyHasher>>;

/// A candidate winner: enough to run the interpreter's tie-break
/// (`priority` desc, then `install` asc) against another candidate.
#[derive(Debug, Clone, Copy)]
struct Cand {
    priority: u32,
    install: u32,
    /// Index into the global action table.
    action: u32,
}

impl Cand {
    /// Whether this candidate beats `other` under the interpreter's rule:
    /// strictly higher priority, or same priority but installed earlier.
    #[inline]
    fn beats(&self, other: &Cand) -> bool {
        self.priority > other.priority
            || (self.priority == other.priority && self.install < other.install)
    }
}

/// The winning action between a table's exact-half and scan-half hits.
#[inline]
fn best(exact: Option<&Cand>, scan: Option<&Cand>) -> Option<u32> {
    match (exact, scan) {
        (None, None) => None,
        (Some(c), None) | (None, Some(c)) => Some(c.action),
        (Some(e), Some(s)) => Some(if s.beats(e) { s.action } else { e.action }),
    }
}

/// One lowered key pattern: `x` matches iff `x & mask == value` and
/// `x - lo <= span` (wrapping). Every [`KeyMatch`] kind lowers to this one
/// branchless test — exact and ternary patterns leave the range half
/// vacuous (`lo = 0, span = MAX`), range patterns the mask half.
#[derive(Debug, Clone, Copy)]
struct Pat {
    mask: u64,
    value: u64,
    lo: u64,
    span: u64,
}

impl Pat {
    /// Lower one pattern of a key column whose values fit `fmask`. A
    /// ternary pattern pinning a bit outside the field can never match
    /// (and `compile_table` drops entries with such an exact value), so
    /// `value` always fits `fmask` too.
    fn lower(pat: &KeyMatch, fmask: u64) -> Pat {
        let masked = |mask, value| Pat {
            mask,
            value,
            lo: 0,
            span: u64::MAX,
        };
        // `x & 0 == 1` never holds.
        let never = masked(0, 1);
        match *pat {
            KeyMatch::Exact(v) => masked(fmask, v),
            KeyMatch::Ternary { value, mask } if value & mask & !fmask == 0 => {
                masked(mask & fmask, value & mask)
            }
            KeyMatch::Ternary { .. } => never,
            KeyMatch::Any => masked(0, 0),
            KeyMatch::Range { lo, hi } if lo <= hi => Pat {
                mask: 0,
                value: 0,
                lo,
                span: hi - lo,
            },
            KeyMatch::Range { .. } => never,
        }
    }

    #[inline(always)]
    fn matches(&self, x: u64) -> bool {
        (x & self.mask == self.value) & (x.wrapping_sub(self.lo) <= self.span)
    }

    /// Whether the range half is vacuous, so `x & mask == value` alone
    /// decides.
    #[inline]
    fn mask_only(&self) -> bool {
        self.lo == 0 && self.span == u64::MAX
    }
}

/// The pre-sorted non-exact entries of one table, flat: `cands[e]` wins
/// when every pattern of row `e` of `pats` (one per key column, row-major)
/// matches, and the first matching row is the interpreter's winner.
#[derive(Debug, Clone, Default)]
struct ScanList {
    cands: Box<[Cand]>,
    pats: Box<[Pat]>,
}

impl ScanList {
    /// The patterns of entry `e` of a table with `nk` key columns.
    #[inline]
    fn row(&self, e: usize, nk: usize) -> &[Pat] {
        &self.pats[e * nk..(e + 1) * nk]
    }
}

/// One match-gate check: `vals[field] & mask == val` must hold for any
/// entry of the table to be able to match.
#[derive(Debug, Clone, Copy)]
struct GateCheck {
    field: u32,
    mask: u64,
    val: u64,
}

/// How a compiled table resolves a PHV to a candidate action.
#[derive(Debug, Clone)]
enum Matcher {
    /// Keyless table: the winner (if any entry is installed) is a
    /// compile-time constant.
    Const(Option<u32>),
    /// Single-`u64`-indexable exact table: `slots[packed key]`.
    Dense(Box<[u32]>),
    /// Exact table whose packed keys are too wide to enumerate but are
    /// *injective in their low `mask` bits*: a direct-index load on the
    /// prefix, verified against the stored full key — a perfect hash with
    /// no hashing.
    DenseKeyed {
        mask: u64,
        /// `(full packed key, action)`, [`MISS`] action = empty slot.
        slots: Box<[(u64, u32)]>,
    },
    /// Exact entries whose packed key fits one `u64`, plus (optionally)
    /// non-exact entries to scan.
    PackedHash { map: KeyMap<u64>, scan: ScanList },
    /// Exact entries over a key tuple wider than 64 bits.
    WideHash {
        map: KeyMap<Box<[u64]>>,
        scan: ScanList,
    },
    /// No exact entries at all: just the pre-sorted scan.
    Scan(ScanList),
}

/// One key column of a lowered table.
#[derive(Debug, Clone, Copy)]
struct KeyCol {
    /// PHV index of the field.
    field: u16,
    /// Field width in bits.
    bits: u32,
    /// Left-shift of the field inside the packed `u64` key (meaningful
    /// when the table's total key width is ≤ 64).
    shift: u32,
}

/// One lowered table: key columns, the match gate, the matcher, and the
/// default action.
#[derive(Debug, Clone)]
struct CompiledTable {
    keys: Box<[KeyCol]>,
    /// Total key width in bits; keys pack into one `u64` when ≤ 64.
    key_bits: u32,
    /// The match gate: per key field, the bits **every** installed entry
    /// requires exactly (computed at compile time by intersecting the
    /// entries' exact/ternary constraints; fields nothing is pinned on are
    /// absent). A packet failing `vals[field] & mask == val` on any check
    /// cannot match any entry and short-circuits to the default without
    /// touching the matcher — this is what makes op-dispatched programs
    /// cheap, where most tables only ever match one opcode.
    gate: Box<[GateCheck]>,
    matcher: Matcher,
    /// Index into the global action table run on a miss.
    default_action: Option<u32>,
    /// The table's slice of the global action table.
    actions: (u32, u32),
    /// The table's slice of [`CompiledSwitch::cols`]: `cols.0..cols.1` is
    /// every PHV field one of its actions can write (primitive destinations
    /// and SALU outputs) — the column facts a batch must forget once the
    /// table has executed — and `cols.1..cols.2` every other field they
    /// read: with the keys, the columns a divergent batch zeroes.
    cols: (u32, u32, u32),
    /// Whether any action of the table makes a stateful call.
    has_stateful: bool,
    /// Set when the table lowers to [`ShiftRows`] (see the module docs).
    rows: Option<ShiftRows>,
}

/// Widest combined *varying* key width (bits) for which
/// `CompiledTable::lookup_lanes` dispatches through a per-batch action
/// LUT instead of per-packet matching: 2^6 × u32 = 256 bytes on the
/// stack, rebuilt per batch whenever the batch has at least as many
/// lanes as the LUT has entries.
const SPLIT_LUT_BITS: u32 = 6;

/// Most entries a table keyed wider than [`DENSE_MAX_BITS`] is lowered to a
/// plain pre-sorted scan at, all-exact entries included, instead of a hash
/// of its exact half next to a scan of the rest.
const SCAN_MAX_ENTRIES: usize = 8;

/// Most varying key columns the per-lane path packs with the uniform
/// columns folded into a constant; a table with more falls back to the
/// scalar [`CompiledTable::lookup`] per lane.
const MAX_VARYING_KEYS: usize = 8;

/// What a batch knows about one PHV column over its live lanes. Filled on
/// first use by [`Cols::fact`] and forgotten for exactly the fields an
/// executed table can write. Lanes only ever leave a batch (limit
/// narrowing), so `Uniform` stays true and `Varying` stays safe — at worst
/// a column that became uniform keeps paying the per-lane path.
#[derive(Debug, Clone, Copy)]
enum Fact {
    Unknown,
    Uniform(u64),
    Varying,
}

/// The live lanes of a batch's column buffer together with its facts.
struct Cols<'a, 'f, W> {
    buf: &'a [W],
    cap: usize,
    n: usize,
    facts: &'f mut [Fact],
}

impl<W: LaneWord> Cols<'_, '_, W> {
    /// The fact for field `f`, established by one column sweep the first
    /// time a batch asks. The sweep tests a cache line of lanes at a time
    /// and stops at the first line holding a second value, so a
    /// data-dependent column costs a handful of compares.
    #[inline]
    fn fact(&mut self, f: usize) -> Fact {
        if let Fact::Unknown = self.facts[f] {
            let col = &self.buf[f * self.cap..f * self.cap + self.n];
            let v = col[0];
            let uniform = col
                .chunks(W::LANES)
                .all(|c| c.iter().fold(W::ZERO, |d, &x| d | (x ^ v)) == W::ZERO);
            self.facts[f] = if uniform {
                Fact::Uniform(v.wide())
            } else {
                Fact::Varying
            };
        }
        self.facts[f]
    }
}

/// One varying key column of the batch at hand, as `lookup_lanes` packs
/// it: where its lanes start, where it sits in the table's key tuple and
/// packed key, and where in the split-LUT index.
#[derive(Debug, Clone, Copy, Default)]
struct VaryCol {
    base: usize,
    key: usize,
    field: usize,
    bits: u32,
    key_shift: u32,
    lut_shift: u32,
}

/// Per-table, per-*batch* dispatch counts of the SoA engine (see
/// [`CompiledSwitch::dispatch_counts`]): which way Phase A resolved the
/// batch and which Phase B arm ran it. Each batch bumps at most one
/// Phase A and one Phase B counter per table, so the counts are
/// deterministic functions of the traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    /// Live lanes summed over every batch that reached the table.
    pub lanes: u64,
    /// Phase A: a gate check on a uniform column sent the whole batch to
    /// the default action.
    pub gate_decided: u64,
    /// Phase A: every key column was uniform (or the table is keyless) —
    /// one scalar lookup resolved the batch.
    pub uniform_lookup: u64,
    /// Phase A: the varying key bits were enumerated into an action LUT
    /// and each lane resolved by one indexed load.
    pub lut: u64,
    /// Phase A: each lane was matched on its own key.
    pub per_lane: u64,
    /// Phase A, among the `per_lane` batches: the table's mask/value rows
    /// were swept chunk-major over the varying key columns, instead of one
    /// probe per lane.
    pub claimed: u64,
    /// Phase A, among the `per_lane` batches: the rows were one leading-one
    /// pattern per position on one varying column, so each lane took the
    /// action at its masked leading one (no row sweep).
    pub leading: u64,
    /// Phase B: one action for the whole batch, run instruction-major.
    pub uniform: u64,
    /// Phase A and B in one: a divergent batch on a table lowered to shift
    /// rows, each lane's row gathered from its matcher slot (no Phase B arm).
    pub rows: u64,
    /// Phase B: a divergent batch run as masked per-action sweeps.
    pub masked: u64,
    /// Phase B: a divergent batch on a table with more than 64 actions,
    /// each packet walking its own tape.
    pub walk: u64,
    /// Phase C, among `lanes`: lanes whose stateful call was served from a
    /// register window (their index column ran ascending for eight lanes
    /// or more) instead of one indexed access per lane.
    pub windowed: u64,
}

impl CompiledTable {
    /// The key tuple packed into one `u64` (total key width ≤ 64 bits).
    /// `vals` is a strided value store: field `f` of the packet at hand
    /// lives at `f * stride + lane` (a scalar PHV slice is `stride == 1`,
    /// `lane == 0`, always of `u64`; a [`BatchLanes`] column buffer is
    /// `stride == cap`, `lane == i`, of the batch's lane word).
    #[inline]
    fn packed_key<V: LaneWord>(&self, vals: &[V], stride: usize, lane: usize) -> u64 {
        let mut key = 0u64;
        for k in self.keys.iter() {
            key |= vals[k.field as usize * stride + lane].wide() << k.shift;
        }
        key
    }

    /// First (= best, thanks to the pre-sort) matching scan entry.
    #[inline]
    fn scan_hit<'a, V: LaneWord>(
        &self,
        scan: &'a ScanList,
        vals: &[V],
        stride: usize,
        lane: usize,
    ) -> Option<&'a Cand> {
        let nk = self.keys.len();
        scan.cands.iter().enumerate().find_map(|(e, cand)| {
            scan.row(e, nk)
                .iter()
                .zip(self.keys.iter())
                .all(|(pat, k)| pat.matches(vals[k.field as usize * stride + lane].wide()))
                .then_some(cand)
        })
    }

    /// The interpreter's `Table::lookup`, against the lowered form.
    #[inline]
    fn lookup<V: LaneWord>(
        &self,
        vals: &[V],
        stride: usize,
        lane: usize,
        keybuf: &mut Vec<u64>,
    ) -> Option<u32> {
        for g in self.gate.iter() {
            if vals[g.field as usize * stride + lane].wide() & g.mask != g.val {
                return self.default_action;
            }
        }
        let hit = match &self.matcher {
            Matcher::Const(a) => *a,
            Matcher::Dense(slots) => {
                // The packed key is `< slots.len()` by construction: every
                // component is masked to its field width and the widths sum
                // to `slots.len().ilog2()`.
                let a = slots[self.packed_key(vals, stride, lane) as usize];
                (a != MISS).then_some(a)
            }
            Matcher::DenseKeyed { mask, slots } => {
                let key = self.packed_key(vals, stride, lane);
                let (k, a) = slots[(key & mask) as usize];
                (a != MISS && k == key).then_some(a)
            }
            Matcher::PackedHash { map, scan } => best(
                map.get(&self.packed_key(vals, stride, lane)),
                self.scan_hit(scan, vals, stride, lane),
            ),
            Matcher::WideHash { map, scan } => {
                keybuf.clear();
                keybuf.extend(
                    self.keys
                        .iter()
                        .map(|k| vals[k.field as usize * stride + lane].wide()),
                );
                best(
                    map.get(keybuf.as_slice()),
                    self.scan_hit(scan, vals, stride, lane),
                )
            }
            Matcher::Scan(scan) => self.scan_hit(scan, vals, stride, lane).map(|c| c.action),
        };
        hit.or(self.default_action)
    }

    /// Batch lookup (Phase A): resolve the action of every live lane,
    /// paying per lane only for what differs between lanes. The batch's
    /// column [`Fact`]s say which gate and key columns hold one value:
    ///
    /// * a gate check on a uniform column either fails — the whole batch
    ///   takes the default, which is what makes op-dispatched programs
    ///   cheap (an ADD batch leaves every READ-only table after one
    ///   compare) — or is settled for every lane;
    /// * all key columns uniform: one scalar [`Self::lookup`];
    /// * a few varying key bits: the combos are enumerated once through
    ///   the scalar lookup into a stack LUT and each lane resolves with
    ///   one indexed load;
    /// * otherwise each lane packs its varying columns onto the constant
    ///   the uniform ones fold into and probes the matcher; a scan table
    ///   first drops every entry the uniform columns already rule out, and
    ///   when what is left are mask/value rows it sweeps them chunk-major
    ///   over the varying columns instead ([`claim_lanes`]), or, for
    ///   leading-one rows on one column ([`leading_one_top`]), loads each
    ///   lane's winner at its leading one.
    ///
    /// Returns `Ok(a)` when the whole batch resolved to the one action
    /// `a` ([`MISS`] when neither an entry nor a default applies) —
    /// `act_of` may then be left untouched — and otherwise `Err` of how
    /// the batch diverges: the key split a [`ShiftRows`] table packs from,
    /// or, with `act_of[..n]` filled lane by lane, the batch's
    /// [distinct actions](Self::distinct_actions).
    fn lookup_lanes<W: LaneWord>(
        &self,
        buf: &mut [W],
        marks: &mut [usize],
        cap: usize,
        n: usize,
        s: &mut LaneScratch,
        counts: &mut DispatchCounts,
    ) -> Result<u32, Divergent> {
        let dflt = self.default_action.unwrap_or(MISS);
        if let Matcher::Const(a) = &self.matcher {
            counts.uniform_lookup += 1;
            return Ok(a.unwrap_or(dflt));
        }
        let LaneScratch {
            facts,
            act_of,
            keybuf,
            rowbuf,
            scanbuf,
            claims,
            claim_pats,
            vary: rows_vary,
        } = s;
        let act_of = &mut act_of[..n];
        // The gate columns are zeroed first, the other keys only once no
        // gate check on a uniform column has decided the batch.
        let gate_cols = self.gate.iter().map(|g| g.field as usize);
        zero_below(buf, cap, marks, n, gate_cols);
        let mut gate = Cols { buf, cap, n, facts };
        for g in self.gate.iter() {
            if let Fact::Uniform(v) = gate.fact(g.field as usize) {
                if v & g.mask != g.val {
                    counts.gate_decided += 1;
                    return Ok(dflt);
                }
            }
        }
        let facts = gate.facts;
        zero_below(buf, cap, marks, n, self.keys.iter().map(|k| k.field.into()));
        let buf = &*buf;
        let mut cols = Cols { buf, cap, n, facts };
        // Split the key tuple: uniform columns fold into one constant key
        // part (and seed the LUT's scratch row), varying ones are packed
        // per lane.
        let packs = self.key_bits <= 64;
        let mut kconst = 0u64;
        let mut vary = [VaryCol::default(); MAX_VARYING_KEYS];
        let (mut n_vary, mut vary_bits) = (0usize, 0u32);
        for (j, k) in self.keys.iter().enumerate() {
            let f = k.field as usize;
            match cols.fact(f) {
                Fact::Uniform(v) => {
                    rowbuf[f] = v;
                    if packs {
                        kconst |= v << k.shift;
                    }
                }
                _ => {
                    if n_vary < MAX_VARYING_KEYS {
                        vary[n_vary] = VaryCol {
                            base: f * cap,
                            key: j,
                            field: f,
                            bits: k.bits,
                            key_shift: k.shift,
                            lut_shift: vary_bits,
                        };
                    }
                    n_vary += 1;
                    vary_bits = vary_bits.saturating_add(k.bits);
                }
            }
        }
        if n_vary == 0 {
            counts.uniform_lookup += 1;
            return Ok(self.lookup(buf, cap, 0, keybuf).unwrap_or(MISS));
        }
        if self.rows.is_some() && n_vary <= MAX_VARYING_KEYS {
            counts.rows += 1;
            *rows_vary = vary;
            return Err(Divergent::Rows(kconst, n_vary));
        }
        if vary_bits <= SPLIT_LUT_BITS && n >= 1 << vary_bits {
            // Every varying column is at least one bit wide, so all of
            // them fit `vary`.
            let vary = &vary[..n_vary];
            counts.lut += 1;
            let mut lut = [MISS; 1 << SPLIT_LUT_BITS];
            let lut = &mut lut[..1 << vary_bits];
            for (combo, slot) in lut.iter_mut().enumerate() {
                for v in vary {
                    rowbuf[v.field] = (combo as u64 >> v.lut_shift) & PhvLayout::mask(v.bits);
                }
                *slot = self.lookup(rowbuf, 1, 0, keybuf).unwrap_or(MISS);
            }
            // The LUT's distinct actions bound the batch's: when it holds
            // one, no lane needs looking at.
            let distinct = self.distinct_actions(lut);
            if distinct.is_err() {
                // Each lane's LUT index, one column pass at a time.
                act_of.fill(0);
                for v in vary {
                    for (c, x) in act_of.iter_mut().zip(&buf[v.base..v.base + n]) {
                        *c |= (x.wide() as u32) << v.lut_shift;
                    }
                }
                for a in act_of.iter_mut() {
                    *a = lut[*a as usize & (lut.len() - 1)];
                }
            }
            return distinct;
        }
        counts.per_lane += 1;
        if !packs || n_vary > MAX_VARYING_KEYS {
            for (i, a) in act_of.iter_mut().enumerate() {
                *a = self.lookup(buf, cap, i, keybuf).unwrap_or(MISS);
            }
            return self.distinct_actions(act_of);
        }
        let vary = &vary[..n_vary];
        let key_at = |i: usize| {
            vary.iter().fold(kconst, |key, v| {
                key | (buf[v.base + i].wide() << v.key_shift)
            })
        };
        // Only a gate check on a varying column can still fail here.
        let gate_ok = |i: usize| {
            let mut gate = self.gate.iter();
            gate.all(|g| buf[g.field as usize * cap + i].wide() & g.mask == g.val)
        };
        match &self.matcher {
            Matcher::Const(_) | Matcher::WideHash { .. } => {
                unreachable!("keyless and wide-key tables resolved above")
            }
            // A lane failing a gate check matches no entry, so the two
            // direct-index forms miss on it without being told.
            Matcher::Dense(slots) => {
                for (i, a) in act_of.iter_mut().enumerate() {
                    let hit = slots[key_at(i) as usize];
                    *a = if hit == MISS { dflt } else { hit };
                }
            }
            Matcher::DenseKeyed { mask, slots } => {
                for (i, a) in act_of.iter_mut().enumerate() {
                    let key = key_at(i);
                    let (k, hit) = slots[(key & mask) as usize];
                    *a = if hit != MISS && k == key { hit } else { dflt };
                }
            }
            Matcher::PackedHash { map, scan } => {
                for (i, a) in act_of.iter_mut().enumerate() {
                    *a = if gate_ok(i) {
                        best(map.get(&key_at(i)), self.scan_hit(scan, buf, cap, i)).unwrap_or(dflt)
                    } else {
                        dflt
                    };
                }
            }
            Matcher::Scan(scan) => {
                // Fold the uniform key columns into the entry list once:
                // only rows they satisfy can win on any lane.
                let nk = self.keys.len();
                scanbuf.clear();
                scanbuf.extend((0..scan.cands.len() as u32).filter(|&e| {
                    let row = scan.row(e as usize, nk).iter().zip(self.keys.iter());
                    row.into_iter()
                        .all(|(pat, k)| match cols.facts[k.field as usize] {
                            Fact::Uniform(v) => pat.matches(v),
                            _ => true,
                        })
                }));
                let pat = |e: u32, v: &VaryCol| &scan.row(e as usize, nk)[v.key];
                let mut rows = scanbuf
                    .iter()
                    .flat_map(|&e| vary.iter().map(move |v| pat(e, v)));
                if rows.all(Pat::mask_only) {
                    // Mask/value rows on every varying column, lowest
                    // precedence first so the last row to claim a lane is
                    // its winner. Columns are whole cache lines of lanes.
                    claims.clear();
                    claim_pats.clear();
                    for &e in scanbuf.iter().rev() {
                        claims.push(scan.cands[e as usize].action);
                        claim_pats.extend(vary.iter().map(|v| (pat(e, v).mask, pat(e, v).value)));
                    }
                    if let (Some(top), [v]) = (leading_one_top(claim_pats), vary) {
                        // Each lane loads the winner at its masked key's bit
                        // length, as the Fig. 5 TCAM resolves it.
                        counts.leading += 1;
                        let mut at = [dflt; 65];
                        for (&a, &(_, value)) in claims.iter().zip(&*claim_pats) {
                            at[value.trailing_zeros() as usize + 1] = a;
                        }
                        for (a, x) in act_of.iter_mut().zip(&buf[v.base..v.base + n]) {
                            *a = at[(u64::BITS - (x.wide() & top).leading_zeros()) as usize];
                        }
                    } else {
                        counts.claimed += 1;
                        let lines = n.next_multiple_of(W::LANES);
                        let mut cols = [&buf[..0]; MAX_VARYING_KEYS];
                        for (col, v) in cols.iter_mut().zip(vary) {
                            *col = &buf[v.base..v.base + lines];
                        }
                        claim_lanes(&cols[..vary.len()], act_of, dflt, claims, claim_pats);
                    }
                    return self.distinct_actions(act_of);
                }
                for (i, a) in act_of.iter_mut().enumerate() {
                    let hit = |&&e: &&u32| {
                        vary.iter()
                            .all(|v| pat(e, v).matches(buf[v.base + i].wide()))
                    };
                    *a =
                        (scanbuf.iter().find(hit)).map_or(dflt, |&e| scan.cands[e as usize].action);
                }
            }
        }
        self.distinct_actions(act_of)
    }

    /// The distinct actions among `acts` (a lane-by-lane resolution, or
    /// the split-LUT that bounds one): `Ok(a)` when all are the one action
    /// `a` ([`MISS`] included), otherwise `Err` of the bitmap over
    /// table-relative action ids. Branchless per element — the bitmap is
    /// the uniformity test too. A table of more than 64 actions, which the
    /// bitmap cannot hold, stops at the first difference instead:
    /// `Err(None)`.
    fn distinct_actions(&self, acts: &[u32]) -> Result<u32, Divergent> {
        let (base, end) = self.actions;
        if end - base > 64 {
            let first = acts[0];
            return if acts.iter().all(|&a| a == first) {
                Ok(first)
            } else {
                Err(Divergent::Acts(None))
            };
        }
        // One vectorizable sweep settles the common case of no difference.
        if acts.iter().fold(0, |d, &a| d | (a ^ acts[0])) == 0 {
            return Ok(acts[0]);
        }
        let (mut seen, mut missed) = (0u64, false);
        for &a in acts {
            let rel = a.wrapping_sub(base);
            seen |= u64::from(rel < 64) << (rel & 63);
            missed |= a == MISS;
        }
        match (seen.count_ones(), missed) {
            (0, _) => Ok(MISS),
            (1, false) => Ok(base + seen.trailing_zeros()),
            _ => Err(Divergent::Acts(Some(seen))),
        }
    }
}

/// How a batch diverges (the `Err` of [`CompiledTable::lookup_lanes`]).
enum Divergent {
    /// `act_of` holds every lane's action; `Some` of the distinct-action
    /// bitmap when the table has at most 64 actions.
    Acts(Option<u64>),
    /// A [`ShiftRows`] table: the uniform key part, and how many of
    /// [`LaneScratch::vary`] are the varying key columns.
    Rows(u64, usize),
}

/// Most lanes in one chunk of any lane word ([`LaneWord::LANES`] of `u32`):
/// sizes the per-chunk side arrays that are not of the lane word itself.
const MAX_LANES: usize = 16;

/// Resolve the lanes of a batch against mask/value `rows` (one action
/// each, lowest precedence first) over the key columns `cols`, `pats`
/// holding one `(mask, value)` per row and column: lane `i` gets the action
/// of the last row whose every pattern its values satisfy, else `dflt`.
/// Chunk-major, so a chunk's winners stay in registers across the rows and
/// every compare runs a cache line of lanes wide.
fn claim_lanes<W: LaneWord>(
    cols: &[&[W]],
    act_of: &mut [u32],
    dflt: u32,
    rows: &[u32],
    pats: &[(u64, u64)],
) {
    for (chunk, acts) in act_of.chunks_mut(W::LANES).enumerate() {
        let i0 = chunk * W::LANES;
        let mut won = [dflt; MAX_LANES];
        for (&action, pats) in rows.iter().zip(pats.chunks(cols.len())) {
            let mut hit = W::ONES.splat();
            for (col, &(mask, value)) in cols.iter().zip(pats) {
                let (mask, value) = (W::narrow(mask), W::narrow(value));
                for (h, &x) in hit.as_mut().iter_mut().zip(&col[i0..i0 + W::LANES]) {
                    *h = *h & W::select(x & mask == value);
                }
            }
            for (w, &h) in won.iter_mut().zip(hit.as_ref()) {
                *w = if h == W::ZERO { *w } else { action };
            }
        }
        acts.copy_from_slice(&won[..acts.len()]);
    }
}

/// The key mask `2^(h+1) − 1` when every `(mask, value)` of `pats` is a
/// leading-one pattern — row `t` pins bit `t` set and bits `t+1..=h` clear,
/// one top bit `h` for all, and nothing below `t` — else `None`.
fn leading_one_top(pats: &[(u64, u64)]) -> Option<u64> {
    let top = u64::MAX.checked_shr(pats.first()?.0.leading_zeros())?;
    let leading = |&(m, v): &(u64, u64)| v.is_power_of_two() && m == top & !(v - 1);
    pats.iter().all(leading).then_some(top)
}

/// One lowered action: ranges into the shared primitive and stateful op
/// tapes.
#[derive(Debug, Clone, Copy)]
struct CompiledAction {
    prims: (u32, u32),
    stateful: (u32, u32),
    /// Its slice of [`CompiledSwitch::cols`]: `cols.0..cols.1` the fields
    /// it reads, `cols.1..cols.2` the primitive destinations it does not —
    /// what a batch it runs uniformly zeroes, and only marks.
    cols: (u32, u32, u32),
}

/// A pre-resolved operand: the PHV value offset plus the sign-extension
/// shift (64 − field width), so evaluation is pure slice arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompiledOperand {
    Field {
        idx: u32,
        /// `64 - width`: shifting left then arithmetically right by this
        /// sign-extends the container value.
        sx: u32,
    },
    Const(i64),
}

impl CompiledOperand {
    #[inline]
    fn raw<V: LaneWord>(&self, vals: &[V], stride: usize, lane: usize) -> u64 {
        match *self {
            CompiledOperand::Field { idx, .. } => vals[idx as usize * stride + lane].wide(),
            CompiledOperand::Const(c) => c as u64,
        }
    }

    #[inline]
    fn signed<V: LaneWord>(&self, vals: &[V], stride: usize, lane: usize) -> i64 {
        match *self {
            CompiledOperand::Field { idx, sx } => {
                vals[idx as usize * stride + lane].wide().sext(sx)
            }
            CompiledOperand::Const(c) => c,
        }
    }

    /// The sign-extension shift that recovers this operand's signed view
    /// from its raw value in lane word `W`. A constant already is its
    /// signed value bit-for-bit, so its shift is zero.
    #[inline]
    fn sx_shift<W: LaneWord>(&self) -> u32 {
        match *self {
            CompiledOperand::Field { sx, .. } => sx.saturating_sub(64 - W::BITS),
            CompiledOperand::Const(_) => 0,
        }
    }

    /// Whether this operand reads PHV field `dst` (the dead-store pass's
    /// data-dependence check; see [`drop_dead_stores`]).
    #[inline]
    fn reads(&self, dst: u32) -> bool {
        matches!(*self, CompiledOperand::Field { idx, .. } if idx == dst)
    }

    /// Whether this operand is a field, or a constant within `lo..=hi`.
    fn field_or_within(&self, lo: i64, hi: i64) -> bool {
        match *self {
            CompiledOperand::Field { .. } => true,
            CompiledOperand::Const(c) => (lo..=hi).contains(&c),
        }
    }
}

/// Bind `$f` to the ALU op `$op` as a per-lane closure over the lane word
/// `W` in scope, and evaluate `$body` — **the** definition of the ALU,
/// mirroring [`Primitive::execute`]: operands arrive raw, `$asx` / `$bsx`
/// are their sign-extension shifts in `W`, the result is unmasked. The
/// `match` sits here, outside whatever loop `$body` runs, so each arm
/// compiles its own loop around one branchless op: shift guards are masks,
/// compares are `W::select`, and an operand that is one scalar for the
/// whole sweep stays one (a uniform shift count or compare immediate is a
/// single `pslld` / `psrad` / `pcmpgtd`, not a lane-by-lane emulation).
macro_rules! with_alu {
    (@arm $f:ident, $body:expr, |$a:ident, $b:ident| $e:expr) => {{
        let $f = |$a: W, $b: W| -> W { $e };
        $body
    }};
    ($op:expr, $asx:expr, $bsx:expr, |$f:ident| $body:expr) => {{
        let (asx, bsx): (u32, u32) = ($asx, $bsx);
        let bit = |on: bool| W::select(on) & W::narrow(1);
        match $op {
            AluOp::Set => with_alu!(@arm $f, $body, |a, _b| a),
            AluOp::Add => with_alu!(@arm $f, $body, |a, b| a.add(b)),
            AluOp::Sub => with_alu!(@arm $f, $body, |a, b| a.sub(b)),
            AluOp::And => with_alu!(@arm $f, $body, |a, b| a & b),
            AluOp::Or => with_alu!(@arm $f, $body, |a, b| a | b),
            AluOp::Xor => with_alu!(@arm $f, $body, |a, b| a ^ b),
            AluOp::Shl => with_alu!(@arm $f, $body, |a, b| a.shl(b)),
            AluOp::ShrLogic => with_alu!(@arm $f, $body, |a, b| a.shr(b)),
            AluOp::ShrArith => with_alu!(@arm $f, $body, |a, b| a.sar(asx, b)),
            AluOp::CmpEq => with_alu!(@arm $f, $body, |a, b| bit(a == b)),
            AluOp::CmpNe => with_alu!(@arm $f, $body, |a, b| bit(a != b)),
            AluOp::CmpLt => with_alu!(@arm $f, $body, |a, b| bit(a.sext(asx) < b.sext(bsx))),
            AluOp::CmpLe => with_alu!(@arm $f, $body, |a, b| bit(a.sext(asx) <= b.sext(bsx))),
            AluOp::CmpGt => with_alu!(@arm $f, $body, |a, b| bit(a.sext(asx) > b.sext(bsx))),
            AluOp::CmpGe => with_alu!(@arm $f, $body, |a, b| bit(a.sext(asx) >= b.sext(bsx))),
        }
    }};
}

/// One lane through the ALU in lane word `W`. At `u64` this is the scalar
/// engine's ALU and the reference the narrow kernels are held to.
#[inline(always)]
fn alu<W: LaneWord>(op: AluOp, a: W, asx: u32, b: W, bsx: u32) -> W {
    with_alu!(op, asx, bsx, |f| f(a, b))
}

/// Whether running `p` in 32-bit lanes gives the 64-bit result truncated,
/// given that every field of the layout fits 32 bits (so a raw field value
/// is its own low half, and its signed view fits `i32`). The per-op rules
/// are the table in the module docs; shift *counts* need none, because
/// [`lower_prim`] clamps a constant count to 64 and both widths zero (or
/// sign-fill) once the count reaches their own width.
fn narrow_exact(p: &CompiledPrim) -> bool {
    const I32: (i64, i64) = (i32::MIN as i64, i32::MAX as i64);
    let both = |(lo, hi): (i64, i64)| p.a.field_or_within(lo, hi) && p.b.field_or_within(lo, hi);
    match p.op {
        // The low half of the result depends on the low halves alone.
        AluOp::Set | AluOp::Add | AluOp::Sub | AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Shl => {
            true
        }
        // A right shift pulls high bits down: the left operand's must be
        // zero (logical) and copies of bit 31 (arithmetic) at once.
        AluOp::ShrLogic | AluOp::ShrArith => p.a.field_or_within(0, I32.1),
        // Raw equality: a constant no `u32` can hold never equals a field.
        AluOp::CmpEq | AluOp::CmpNe => both((0, u32::MAX as i64)),
        AluOp::CmpLt | AluOp::CmpLe | AluOp::CmpGt | AluOp::CmpGe => both(I32),
    }
}

/// One chunk of column `base` starting at lane `i0`.
#[inline(always)]
fn load<W: LaneWord>(buf: &[W], base: usize, i0: usize) -> W::Chunk {
    let mut chunk = W::ZERO.splat();
    chunk
        .as_mut()
        .copy_from_slice(&buf[base + i0..base + i0 + W::LANES]);
    chunk
}

/// `f` lane by lane over two chunks.
#[inline(always)]
fn map2<W: LaneWord>(a: &W::Chunk, b: &W::Chunk, f: impl Fn(W, W) -> W) -> W::Chunk {
    let mut out = *a;
    for ((o, &x), &y) in out.as_mut().iter_mut().zip(a.as_ref()).zip(b.as_ref()) {
        *o = f(x, y);
    }
    out
}

/// The loop of every chunk sweep: destination column at `d0`, lanes
/// `0..n`, one cache line of lanes ([`LaneWord::LANES`]) at a time.
/// `chunk(buf, i0, keep)` computes the lanes from `i0` and may clear
/// `keep` lanes (all-ones on entry) it must not store. Every operand is
/// read into the returned array *before* the store, so a destination that
/// aliases an operand column is correct — primitives touch only their own
/// lane — and the fixed-size loops vectorize whole. Returns the first lane
/// it did not cover: the caller's scalar tail.
#[inline(always)]
fn sweep_chunks<W: LaneWord, const BLEND: bool>(
    buf: &mut [W],
    (d0, n, mask): (usize, usize, W),
    mut chunk: impl FnMut(&[W], usize, &mut W::Chunk) -> W::Chunk,
) -> usize {
    let mut i0 = 0;
    while i0 + W::LANES <= n {
        let mut keep = W::ONES.splat();
        let out = chunk(buf, i0, &mut keep);
        let dst = &mut buf[d0 + i0..d0 + i0 + W::LANES];
        for ((d, &o), &k) in dst.iter_mut().zip(out.as_ref()).zip(keep.as_ref()) {
            // A blend, so a skipped lane is arithmetic the compiler can
            // vectorize, not a branch per lane.
            *d = if BLEND {
                (o & mask & k) | (*d & !k)
            } else {
                o & mask
            };
        }
        i0 += W::LANES;
    }
    i0
}

/// One op-tape entry: [`Primitive`] with the destination offset/mask and
/// both operands pre-resolved, executing on a strided value store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompiledPrim {
    dst: u32,
    dst_mask: u64,
    op: AluOp,
    a: CompiledOperand,
    b: CompiledOperand,
    /// [`narrow_exact`] on a 32-bit layout: the chunk kernels may run this
    /// op in `u32` lanes. Otherwise a `u32` batch widens it lane by lane.
    narrow: bool,
}

impl CompiledPrim {
    /// Mirror of [`Primitive::execute`] over pre-resolved offsets, in 64
    /// bits whatever the store's word.
    #[inline]
    fn execute<V: LaneWord>(&self, vals: &mut [V], stride: usize, lane: usize) {
        let a = self.a.raw(vals, stride, lane);
        let b = self.b.raw(vals, stride, lane);
        let out = alu(
            self.op,
            a,
            self.a.sx_shift::<u64>(),
            b,
            self.b.sx_shift::<u64>(),
        );
        vals[self.dst as usize * stride + lane] = V::narrow(out & self.dst_mask);
    }

    /// Instruction-major batch execution: this one op across lanes `0..n`
    /// of a column buffer, through the chunk kernel picked — once, here —
    /// by op and operand shape (`field∘field`, `field∘const`,
    /// `const∘field`, constants alone), with a scalar tail for the last
    /// `n % LANES` lanes. `MASKED` is the sweep for one action of a
    /// divergent batch: same kernel, but the store keeps the destination
    /// wherever `act[i] != action` — lanes of other actions compute a
    /// discarded value, cheaper than a branch per lane that follows the
    /// data. An op that is not [`narrow_exact`] takes the 64-bit scalar
    /// for every lane of a `u32` batch.
    fn sweep<W: LaneWord, const MASKED: bool>(
        &self,
        buf: &mut [W],
        cap: usize,
        n: usize,
        act: &[u32],
        action: u32,
    ) {
        use CompiledOperand::{Const, Field};
        let mut tail = 0;
        if W::BITS == 64 || self.narrow {
            let dst = (self.dst as usize * cap, n, W::narrow(self.dst_mask));
            let col = |idx: u32| move |buf: &[W], i0: usize| load(buf, idx as usize * cap, i0);
            let splat = |c: i64| move |_: &[W], _: usize| W::narrow(c as u64).splat();
            tail = with_alu!(
                self.op,
                self.a.sx_shift::<W>(),
                self.b.sx_shift::<W>(),
                |f| {
                    match (self.a, self.b) {
                        (Field { idx: a, .. }, Field { idx: b, .. }) => {
                            sweep_op::<W, MASKED>(buf, dst, (act, action), col(a), col(b), f)
                        }
                        (Field { idx: a, .. }, Const(b)) => {
                            sweep_op::<W, MASKED>(buf, dst, (act, action), col(a), splat(b), f)
                        }
                        (Const(a), Field { idx: b, .. }) => {
                            sweep_op::<W, MASKED>(buf, dst, (act, action), splat(a), col(b), f)
                        }
                        (Const(a), Const(b)) => {
                            sweep_op::<W, MASKED>(buf, dst, (act, action), splat(a), splat(b), f)
                        }
                    }
                }
            );
        }
        for i in tail..n {
            // The unmasked sweep passes no `act` at all.
            if act.get(i).is_none_or(|&a| a == action) {
                self.execute(buf, cap, i);
            }
        }
    }
}

/// The chunk sweep of one [`CompiledPrim`] kernel: operands through the
/// loaders `la` / `lb`, lanes through `f`, the store blended by
/// `act[i] == action` when `MASKED`.
#[inline(always)]
fn sweep_op<W: LaneWord, const MASKED: bool>(
    buf: &mut [W],
    dst: (usize, usize, W),
    (act, action): (&[u32], u32),
    la: impl Fn(&[W], usize) -> W::Chunk,
    lb: impl Fn(&[W], usize) -> W::Chunk,
    f: impl Fn(W, W) -> W,
) -> usize {
    sweep_chunks::<W, MASKED>(buf, dst, |buf, i0, keep| {
        if MASKED {
            for (k, &a) in keep.as_mut().iter_mut().zip(&act[i0..i0 + W::LANES]) {
                *k = W::select(a == action);
            }
        }
        map2::<W>(&la(buf, i0), &lb(buf, i0), &f)
    })
}

/// A shift table as rows (see the module docs): one source, one
/// destination, and per direct-index matcher slot its full packed key next
/// to its action's [`ShiftRow`] — a slot holding no entry holds the miss
/// row, under any key.
#[derive(Debug, Clone)]
struct ShiftRows {
    dst: u32,
    dst_mask: u64,
    src: u32,
    /// `64 - width` of `src`.
    sx: u32,
    slots: Box<[(u64, ShiftRow)]>,
    /// A packed key's slot is `key & mask`.
    mask: u64,
    /// The default's row, or a keep-row.
    miss: ShiftRow,
}

/// One action as constants: the shift of `y` is `lo32(y·mlo) | hi32(y·mhi)`
/// on `u32` lanes and `(y << shl) | (y >> shr)` on `u64` ones (a count of
/// 64 shifts everything out); `flip` makes it arithmetic, and a keep-row is
/// not `live`.
#[derive(Debug, Clone, Copy, Default)]
struct ShiftRow {
    mlo: u32,
    mhi: u32,
    shl: u8,
    shr: u8,
    flip: bool,
    live: bool,
}

impl ShiftRow {
    /// The row of `dst = src ⊕ c`, `c` already clamped to 64.
    fn new(op: AluOp, c: u32) -> Self {
        let (shl, shr) = if op == AluOp::Shl { (c, 64) } else { (64, c) };
        // In 32 bits, a right shift by 0 is the left one.
        let (l, r) = if c == 0 { (0, 64) } else { (shl, shr) };
        ShiftRow {
            mlo: if l < 32 { 1 << l } else { 0 },
            mhi: if r < 32 { 1 << (32 - r) } else { 0 },
            shl: shl as u8,
            shr: shr as u8,
            flip: op == AluOp::ShrArith,
            live: true,
        }
    }
}

/// Lower one table to [`ShiftRows`], when it qualifies: no stateful call,
/// a direct-index matcher, every non-empty action one shift of a field by
/// a constant or `dst = 0`, all into one destination from one source, and
/// on a 32-bit layout every such op narrow.
fn build_rows(
    t: &CompiledTable,
    table_actions: &[CompiledAction],
    prims: &[CompiledPrim],
    lane_bits: u32,
) -> Option<ShiftRows> {
    use CompiledOperand::{Const, Field};
    if t.has_stateful {
        return None;
    }
    let (mut dst, mut src) = (None, None);
    let mut rows = Vec::with_capacity(table_actions.len());
    for a in table_actions {
        rows.push(match &prims[a.prims.0 as usize..a.prims.1 as usize] {
            [] => ShiftRow::default(),
            [p] if lane_bits == 64 || p.narrow => {
                let (op, c) = match (p.op, p.a, p.b) {
                    // `dst = 0` is a logical shift by 64, bit for bit.
                    (AluOp::Set, Const(0), _) => (AluOp::ShrLogic, 64),
                    (
                        AluOp::Shl | AluOp::ShrLogic | AluOp::ShrArith,
                        a @ Field { .. },
                        Const(c),
                    ) if *src.get_or_insert(a) == a => (p.op, c as u32),
                    _ => return None,
                };
                if *dst.get_or_insert((p.dst, p.dst_mask)) != (p.dst, p.dst_mask) {
                    return None;
                }
                ShiftRow::new(op, c)
            }
            _ => return None,
        });
    }
    let (Some((dst, dst_mask)), Some(Field { idx: src, sx })) = (dst, src) else {
        return None;
    };
    // `MISS` wraps past every row.
    let rel = |a: u32| rows.get(a.wrapping_sub(t.actions.0) as usize).copied();
    let miss = t.default_action.and_then(rel).unwrap_or_default();
    let row = |a: u32| rel(a).unwrap_or(miss);
    let (slots, mask) = match &t.matcher {
        Matcher::Dense(slots) => {
            let slots = (0..).zip(slots.iter()).map(|(k, &a)| (k, row(a)));
            (slots.collect(), (1 << t.key_bits) - 1)
        }
        Matcher::DenseKeyed { mask, slots } => {
            (slots.iter().map(|&(k, a)| (k, row(a))).collect(), *mask)
        }
        _ => return None,
    };
    Some(ShiftRows {
        dst,
        dst_mask,
        src,
        sx,
        slots,
        mask,
        miss,
    })
}

impl ShiftRows {
    /// A divergent batch of lanes `0..n` (Phase A and B in one), keys
    /// packed onto `kconst` from the columns `vary`: one and two varying
    /// columns get their own pack, more fold. Out of line: see the module
    /// docs.
    #[inline(never)]
    fn run<W: LaneWord>(&self, buf: &mut [W], cap: usize, n: usize, kconst: u64, vary: &[VaryCol]) {
        let at = |buf: &[W], v: &VaryCol, i: usize| buf[v.base + i].wide() << v.key_shift;
        match vary {
            [a] => self.sweep(buf, cap, n, |buf, i| kconst | at(buf, a, i)),
            [a, b] => self.sweep(buf, cap, n, |buf, i| kconst | at(buf, a, i) | at(buf, b, i)),
            _ => self.sweep(buf, cap, n, |buf, i| {
                vary.iter().fold(kconst, |key, v| key | at(buf, v, i))
            }),
        }
    }

    /// Per chunk: each lane's row by one scalar gather — key, slot, verify
    /// (a lane past `n` keeps) — then one vector loop computes the chunk
    /// and blend-stores it. A chunk's reads all precede its store, so a
    /// destination that is the source or a key column is safe.
    #[inline(always)]
    fn sweep<W: LaneWord>(
        &self,
        buf: &mut [W],
        cap: usize,
        n: usize,
        key_at: impl Fn(&[W], usize) -> u64,
    ) {
        let (s0, d0) = (self.src as usize * cap, self.dst as usize * cap);
        let asx = self.sx.saturating_sub(64 - W::BITS);
        let (mask, top) = (W::narrow(self.dst_mask), W::narrow(u64::from(W::BITS - 1)));
        let mut i0 = 0;
        while i0 < n {
            let (mut lo, mut hi) = (W::ZERO.splat(), W::ZERO.splat());
            let (mut flip, mut live) = (W::ZERO.splat(), W::ZERO.splat());
            for k in 0..W::LANES.min(n - i0) {
                let key = key_at(buf, i0 + k);
                let (held, row) = self.slots[(key & self.mask) as usize];
                let row = if held == key { row } else { self.miss };
                let (l, h) = if W::BITS == 32 {
                    (row.mlo, row.mhi)
                } else {
                    (row.shl.into(), row.shr.into())
                };
                (lo.as_mut()[k], hi.as_mut()[k]) = (W::narrow(l.into()), W::narrow(h.into()));
                flip.as_mut()[k] = W::select(row.flip);
                live.as_mut()[k] = W::select(row.live);
            }
            let x = load(buf, s0, i0);
            let dst = &mut buf[d0 + i0..d0 + i0 + W::LANES];
            for (j, d) in dst.iter_mut().enumerate() {
                let (x, flip, live) = (x.as_ref()[j], flip.as_ref()[j], live.as_ref()[j]);
                let (lo, hi) = (lo.as_ref()[j], hi.as_ref()[j]);
                let sign = x.sar(asx, top) & flip;
                let y = ((x.sar(asx, W::ZERO) & flip) | (x & !flip)) ^ sign;
                let shifted = if W::BITS == 32 {
                    let (y, lo, hi) = (y.wide(), lo.wide(), hi.wide());
                    W::narrow(y * lo) | W::narrow((y * hi) >> 32)
                } else {
                    y.shl(lo) | y.shr(hi)
                };
                let out = (shifted ^ sign) & mask;
                *d = (out & live) | (*d & !live);
            }
            i0 += W::LANES;
        }
    }
}

/// Compile-time op-tape statistics, reported by
/// [`CompiledSwitch::fusion_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Primitive count as authored (post-lowering, before the peephole).
    pub original_ops: usize,
    /// Tape entries after dead-store elimination.
    pub tape_ops: usize,
    /// Retired: pair fusion was removed, so this always reads 0. The
    /// field stays because the repo benchmark's ledger reports it.
    pub fused_pairs: usize,
    /// Stores dropped because the next op overwrote them unread.
    pub dead_stores: usize,
    /// Retired: the selector arm was removed (divergent batches run masked
    /// sweeps), so this always reads 0. The field stays because the repo
    /// benchmark's ledger reports it.
    pub selector_tables: usize,
    /// Width of the lane word batches of this program run at: 32 when
    /// every PHV field fits 32 bits, else 64.
    pub lane_bits: u32,
    /// Tape ops a 32-bit batch runs in `u32` lanes (zero at 64 bits).
    pub narrow_ops: usize,
    /// Tape ops a 32-bit batch has to widen to 64-bit arithmetic lane by
    /// lane, because a constant of theirs breaks the per-op rule that
    /// makes 32-bit arithmetic exact (zero at 64 bits, and zero for every
    /// generated FPISA program — a test holds them to it).
    pub widened_ops: usize,
}

/// The dead-store peephole, run per action at compile time:
/// `dst = f(..); dst = g(..)` where `g` does not read `dst` drops the
/// first op. Semantics-preserving because an op's only effect is its
/// destination store and the pair is adjacent within one action, so no
/// table lookup, stateful call, or other op can observe the dropped value.
///
/// The dependence check is syntactic, which only errs towards keeping a
/// store: an operand the ALU ignores (`Set` never reads its right input)
/// still counts as a read.
fn drop_dead_stores(prims: &[CompiledPrim], tape: &mut Vec<CompiledPrim>, stats: &mut FusionStats) {
    stats.original_ops += prims.len();
    for (i, p) in prims.iter().enumerate() {
        let dead = prims
            .get(i + 1)
            .is_some_and(|q| q.dst == p.dst && !q.a.reads(p.dst) && !q.b.reads(p.dst));
        if dead {
            stats.dead_stores += 1;
        } else {
            tape.push(*p);
        }
    }
}

/// The lanes from `lo` of a column buffer: what one block of a
/// register-window sweep ([`salu_window`]) reads its operands from.
struct Block<'a, W> {
    buf: &'a [W],
    cap: usize,
    lo: usize,
}

impl<W: LaneWord> Block<'_, W> {
    /// `f(item, operand)` down `items` (one per lane of the block) and the
    /// operand's signed values side by side — the operand's shape decided
    /// here, outside the loop.
    #[inline(always)]
    fn zip<I: Iterator>(&self, op: CompiledOperand, items: I, mut f: impl FnMut(I::Item, i64)) {
        match op {
            CompiledOperand::Field { idx, sx } => {
                let col = &self.buf[idx as usize * self.cap + self.lo..];
                items
                    .zip(col)
                    .for_each(|(item, &x)| f(item, x.wide().sext(sx)));
            }
            CompiledOperand::Const(c) => items.for_each(|item| f(item, c)),
        }
    }
}

/// Bind `$f` to the signed compare `$cmp` and evaluate `$body`: like
/// [`with_alu`], the `match` sits outside whatever loop `$body` runs.
macro_rules! with_cmp {
    (@arm $f:ident, $body:expr, $op:tt) => {{
        let $f = |a: i64, b: i64| a $op b;
        $body
    }};
    ($cmp:expr, |$f:ident| $body:expr) => {
        match $cmp {
            CmpOp::Eq => with_cmp!(@arm $f, $body, ==),
            CmpOp::Ne => with_cmp!(@arm $f, $body, !=),
            CmpOp::Lt => with_cmp!(@arm $f, $body, <),
            CmpOp::Le => with_cmp!(@arm $f, $body, <=),
            CmpOp::Gt => with_cmp!(@arm $f, $body, >),
            CmpOp::Ge => with_cmp!(@arm $f, $body, >=),
        }
    };
}

/// One leaf of a lowered SALU condition, operands pre-resolved.
#[derive(Debug, Clone, Copy)]
enum CondLeaf {
    Always,
    MetaNonZero(u32),
    RegCmp { cmp: CmpOp, rhs: CompiledOperand },
}

impl CondLeaf {
    #[inline(always)]
    fn eval<V: LaneWord>(&self, stored: i64, vals: &[V], stride: usize, lane: usize) -> bool {
        match *self {
            CondLeaf::Always => true,
            CondLeaf::MetaNonZero(f) => vals[f as usize * stride + lane] != V::ZERO,
            CondLeaf::RegCmp { cmp, rhs } => {
                with_cmp!(cmp, |f| f(stored, rhs.signed(vals, stride, lane)))
            }
        }
    }

    /// [`CondLeaf::eval`] for a whole block into `taken` (all `true` on
    /// entry): one compare sweep, against the register window `win`.
    fn sweep<W: LaneWord>(&self, win: &[i64], lanes: &Block<W>, taken: &mut [bool]) {
        match *self {
            CondLeaf::Always => {}
            CondLeaf::MetaNonZero(idx) => {
                let raw = CompiledOperand::Field { idx, sx: 0 };
                lanes.zip(raw, taken.iter_mut(), |t, x| *t = x != 0);
            }
            CondLeaf::RegCmp { cmp, rhs } => with_cmp!(cmp, |f| {
                lanes.zip(rhs, taken.iter_mut().zip(win), |(t, &stored), x| {
                    *t = f(stored, x)
                })
            }),
        }
    }
}

/// A lowered [`SaluCond`] of any depth, evaluated recursively.
#[derive(Debug, Clone)]
enum CondTree {
    Leaf(CondLeaf),
    Or(Box<(CondTree, CondTree)>),
    And(Box<(CondTree, CondTree)>),
}

impl CondTree {
    fn lower(cond: &SaluCond, layout: &PhvLayout) -> Self {
        match cond {
            SaluCond::Always => CondTree::Leaf(CondLeaf::Always),
            SaluCond::MetaNonZero(f) => CondTree::Leaf(CondLeaf::MetaNonZero(u32::from(f.0))),
            SaluCond::RegCmp { cmp, rhs } => CondTree::Leaf(CondLeaf::RegCmp {
                cmp: *cmp,
                rhs: lower_operand(*rhs, layout),
            }),
            SaluCond::Or(a, b) => {
                CondTree::Or(Box::new((Self::lower(a, layout), Self::lower(b, layout))))
            }
            SaluCond::And(a, b) => {
                CondTree::And(Box::new((Self::lower(a, layout), Self::lower(b, layout))))
            }
        }
    }

    fn eval<V: LaneWord>(&self, stored: i64, vals: &[V], stride: usize, lane: usize) -> bool {
        match self {
            CondTree::Leaf(l) => l.eval(stored, vals, stride, lane),
            CondTree::Or(p) => {
                p.0.eval(stored, vals, stride, lane) || p.1.eval(stored, vals, stride, lane)
            }
            CondTree::And(p) => {
                p.0.eval(stored, vals, stride, lane) && p.1.eval(stored, vals, stride, lane)
            }
        }
    }
}

/// A lowered SALU condition, flattened by shape: the conditions real
/// programs write are one leaf or two leaves joined by `||` / `&&`, which
/// evaluate inline with no recursion — and the uniform Phase C loop
/// dispatches on the shape once per batch, not per lane
/// ([`salu_lanes`]). Deeper trees keep the recursive form.
#[derive(Debug, Clone)]
enum CompiledCond {
    Always,
    One(CondLeaf),
    Or(CondLeaf, CondLeaf),
    And(CondLeaf, CondLeaf),
    Tree(CondTree),
}

impl CompiledCond {
    fn lower(cond: &SaluCond, layout: &PhvLayout) -> Self {
        match CondTree::lower(cond, layout) {
            CondTree::Leaf(CondLeaf::Always) => CompiledCond::Always,
            CondTree::Leaf(l) => CompiledCond::One(l),
            CondTree::Or(p) => match *p {
                (CondTree::Leaf(a), CondTree::Leaf(b)) => CompiledCond::Or(a, b),
                p => CompiledCond::Tree(CondTree::Or(Box::new(p))),
            },
            CondTree::And(p) => match *p {
                (CondTree::Leaf(a), CondTree::Leaf(b)) => CompiledCond::And(a, b),
                p => CompiledCond::Tree(CondTree::And(Box::new(p))),
            },
        }
    }

    #[inline]
    fn eval<V: LaneWord>(&self, stored: i64, vals: &[V], stride: usize, lane: usize) -> bool {
        match self {
            CompiledCond::Always => true,
            CompiledCond::One(a) => a.eval(stored, vals, stride, lane),
            CompiledCond::Or(a, b) => {
                a.eval(stored, vals, stride, lane) || b.eval(stored, vals, stride, lane)
            }
            CompiledCond::And(a, b) => {
                a.eval(stored, vals, stride, lane) && b.eval(stored, vals, stride, lane)
            }
            CompiledCond::Tree(t) => t.eval(stored, vals, stride, lane),
        }
    }
}

/// **The** definition of the SALU updates, mirroring [`SaluUpdate::apply`]:
/// evaluate `$body` once per step of update `$u`, with `$op` bound to the
/// step's operand (read signed) and `$f` to `new = f(stored, operand)`,
/// the `match` outside whatever loop `$body` runs. `Keep` has no step;
/// `ShiftRightAddSat` has two — shift the stored value, then add.
macro_rules! with_update {
    (@step $f:ident, $body:expr, $def:expr) => {{
        let $f = $def;
        $body
    }};
    ($u:expr, $meta:expr, |$op:ident, $f:ident| $body:expr) => {{
        use crate::register::truncate;
        let (width, min, max) = ($meta.width, $meta.min, $meta.max);
        // `saturating_add` then `clamp` equals saturating the exact sum: a
        // sum past `i64` is past `max`/`min` too.
        let add_sat = move |s: i64, x: i64| s.saturating_add(x).clamp(min, max);
        match $u {
            CompiledUpdate::Keep => {}
            CompiledUpdate::Write($op) => {
                with_update!(@step $f, $body, |_: i64, x: i64| truncate(x, width))
            }
            CompiledUpdate::AddSat($op) => with_update!(@step $f, $body, add_sat),
            CompiledUpdate::AddWrap($op) => {
                with_update!(@step $f, $body, |s: i64, x: i64| truncate(s.wrapping_add(x), width))
            }
            CompiledUpdate::ShiftRightAddSat { shift, addend } => {
                // The distance reads raw: a field "sign-extended" from all
                // 64 bits, a constant reinterpreted as it stands.
                let $op = match shift {
                    CompiledOperand::Field { idx, .. } => CompiledOperand::Field { idx, sx: 0 },
                    c => c,
                };
                with_update!(@step $f, $body, |s: i64, d: i64| s >> (d as u64).min(63));
                let $op = addend;
                with_update!(@step $f, $body, add_sat)
            }
            CompiledUpdate::MaxSigned($op) => {
                with_update!(@step $f, $body, |s: i64, x: i64| s.max(truncate(x, width)))
            }
            CompiledUpdate::MinSigned($op) => {
                with_update!(@step $f, $body, |s: i64, x: i64| s.min(truncate(x, width)))
            }
        }
    }};
}

/// A lowered SALU update: [`SaluUpdate`] with pre-resolved operands,
/// applied against the flat register file with precomputed width bounds.
#[derive(Debug, Clone, Copy)]
enum CompiledUpdate {
    Keep,
    Write(CompiledOperand),
    AddSat(CompiledOperand),
    AddWrap(CompiledOperand),
    ShiftRightAddSat {
        shift: CompiledOperand,
        addend: CompiledOperand,
    },
    MaxSigned(CompiledOperand),
    MinSigned(CompiledOperand),
}

impl CompiledUpdate {
    fn lower(update: &SaluUpdate, layout: &PhvLayout) -> Self {
        match update {
            SaluUpdate::Keep => CompiledUpdate::Keep,
            SaluUpdate::Write(op) => CompiledUpdate::Write(lower_operand(*op, layout)),
            SaluUpdate::AddSat(op) => CompiledUpdate::AddSat(lower_operand(*op, layout)),
            SaluUpdate::AddWrap(op) => CompiledUpdate::AddWrap(lower_operand(*op, layout)),
            SaluUpdate::ShiftRightAddSat { shift, addend } => CompiledUpdate::ShiftRightAddSat {
                shift: lower_operand(*shift, layout),
                addend: lower_operand(*addend, layout),
            },
            SaluUpdate::MaxSigned(op) => CompiledUpdate::MaxSigned(lower_operand(*op, layout)),
            SaluUpdate::MinSigned(op) => CompiledUpdate::MinSigned(lower_operand(*op, layout)),
        }
    }

    /// Mirror of [`SaluUpdate::apply`] over the lowered form.
    #[inline]
    fn apply<V: LaneWord>(
        &self,
        stored: i64,
        meta: &ArrayMeta,
        vals: &[V],
        stride: usize,
        lane: usize,
    ) -> i64 {
        let mut new = stored;
        with_update!(*self, meta, |op, f| new =
            f(new, op.signed(vals, stride, lane)));
        new
    }

    /// [`CompiledUpdate::apply`] over the register window `win` of one
    /// block: every lane, or when `MASKED` the lanes with `taken == want`
    /// — a branch that follows the data, which measured faster here than
    /// computing both updates and blending.
    fn sweep<W: LaneWord, const MASKED: bool>(
        &self,
        meta: &ArrayMeta,
        win: &mut [i64],
        lanes: &Block<W>,
        (taken, want): (&[bool], bool),
    ) {
        with_update!(*self, meta, |op, f| {
            lanes.zip(op, win.iter_mut().zip(taken), |(reg, &t), x| {
                if !MASKED || t == want {
                    *reg = f(*reg, x);
                }
            })
        });
    }
}

/// A lowered stateful call: pre-resolved array binding, index, condition,
/// updates and output.
#[derive(Debug, Clone)]
struct CompiledStateful {
    array: u32,
    index: CompiledOperand,
    cond: CompiledCond,
    on_true: CompiledUpdate,
    on_false: CompiledUpdate,
    /// `(PHV value offset, output mask, which value)`.
    output: Option<(u32, u64, SaluOutput)>,
}

/// A running compiled switch: the lowered program plus register state.
///
/// Compiled from a validated [`SwitchProgram`] by
/// [`CompiledSwitch::compile`] (an interpreter's register state moves over
/// with [`CompiledSwitch::set_register_state`]). Executes packets
/// bit-for-bit identically to [`Switch::run`](crate::Switch::run), several
/// times faster, with zero per-packet allocation;
/// [`CompiledSwitch::run_batch`] amortizes the call overhead over a PHV
/// buffer.
#[derive(Debug, Clone)]
pub struct CompiledSwitch {
    layout: PhvLayout,
    recirc_field: Option<FieldId>,
    recirc_limit: u32,
    /// Tables flattened across stages, in execution order.
    tables: Box<[CompiledTable]>,
    actions: Box<[CompiledAction]>,
    /// The contiguous primitive op tape.
    prims: Box<[CompiledPrim]>,
    /// The contiguous stateful op tape.
    stateful: Box<[CompiledStateful]>,
    /// The flat register file behind the slot-range-partitionable
    /// [`RegisterState`] (shared shape with the interpreter, so state can
    /// move between engines and shards).
    state: RegisterState,
    /// Per-pass RAW bookkeeping, reused across packets.
    touched: Vec<bool>,
    /// Whether table-major SoA execution is observably identical to
    /// packet-major execution for this program (see
    /// [`CompiledSwitch::soa_eligible`]).
    soa_simple: bool,
    /// Op-tape statistics of the lowered program.
    fusion: FusionStats,
    /// Column lists, flat like the op tapes: each table's
    /// ([`CompiledTable::cols`]) and each action's ([`CompiledAction::cols`]).
    cols: Box<[u16]>,
    /// Every PHV field any table can write: the columns a batch transposed
    /// in from PHVs has to transpose back out.
    written: Box<[usize]>,
    /// Per-table SoA dispatch counts, in table order.
    counts: Box<[DispatchCounts]>,
    /// The PHV-transpose buffer of [`CompiledSwitch::run_batch_soa`].
    lanes: BatchLanes,
    scratch: LaneScratch,
}

/// Lookup and SoA scratch, reused across packets and batches.
#[derive(Debug, Clone, Default)]
struct LaneScratch {
    /// Per PHV field: what the batch at hand knows about its column.
    facts: Vec<Fact>,
    /// Per lane: the action Phase A resolved (valid after a lane-by-lane
    /// resolution only).
    act_of: Vec<u32>,
    /// Wide hash key scratch.
    keybuf: Vec<u64>,
    /// One PHV value row: the split-LUT's enumeration row, and the
    /// gathered packet of the per-packet fallback.
    rowbuf: Vec<u64>,
    /// Scan entries surviving the batch's uniform key columns.
    scanbuf: Vec<u32>,
    /// Those entries' actions, lowest precedence first, and their
    /// `(mask, value)` on each varying column (see [`claim_lanes`]).
    claims: Vec<u32>,
    claim_pats: Vec<(u64, u64)>,
    /// The varying key columns a [`ShiftRows`] batch packs.
    vary: [VaryCol; MAX_VARYING_KEYS],
}

impl CompiledSwitch {
    /// Validate a program and lower it, with zeroed registers.
    pub fn compile(program: &SwitchProgram) -> Result<Self, ProgramError> {
        program.validate()?;
        let mut tables = Vec::new();
        let mut actions = Vec::new();
        let mut prims: Vec<CompiledPrim> = Vec::new();
        let mut stateful = Vec::new();
        let mut fusion = FusionStats {
            lane_bits: program.layout.lane_bits(),
            ..FusionStats::default()
        };
        let mut action_prims: Vec<CompiledPrim> = Vec::new();
        // SoA eligibility: no recirculation, each register array touched
        // from at most one table, at most one stateful call per action.
        // Under those rules a single pass in table-major order is
        // observably the same as packet-major order, and the dynamic RAW
        // check can never fire (each packet touches each array at most
        // once per pass).
        let mut soa_simple = program.recirc_field.is_none();
        let mut array_table: Vec<Option<usize>> = vec![None; program.arrays.len()];
        let (mut cols, mut written): (Vec<u16>, Vec<usize>) = (Vec::new(), Vec::new());
        // Append the fields of `fs` not yet in `cols[from..]`.
        let add = |cols: &mut Vec<u16>, from: usize, fs: Vec<FieldId>| {
            for f in fs {
                if !cols[from..].contains(&f.0) {
                    cols.push(f.0);
                }
            }
        };
        for stage in &program.stages {
            for table in &stage.tables {
                let t_idx = tables.len();
                let base = actions.len() as u32;
                let (w0, acts) = (cols.len(), &table.actions);
                add(&mut cols, w0, acts.iter().flat_map(action_writes).collect());
                let w1 = cols.len();
                written.extend(cols[w0..].iter().map(|&f| usize::from(f)));
                add(&mut cols, w0, acts.iter().flat_map(action_reads).collect());
                let table_cols = (w0 as u32, w1 as u32, cols.len() as u32);
                for action in &table.actions {
                    let c0 = cols.len();
                    add(&mut cols, c0, action_reads(action));
                    let c1 = cols.len();
                    let dsts = action.primitives.iter().map(|p| p.dst);
                    add(&mut cols, c0, dsts.collect());
                    let p0 = prims.len() as u32;
                    action_prims.clear();
                    action_prims.extend(
                        action
                            .primitives
                            .iter()
                            .map(|p| lower_prim(p, &program.layout)),
                    );
                    drop_dead_stores(&action_prims, &mut prims, &mut fusion);
                    let s0 = stateful.len() as u32;
                    if action.stateful.len() > 1 {
                        soa_simple = false;
                    }
                    for call in &action.stateful {
                        let a = usize::from(call.array.0);
                        match array_table[a] {
                            None => array_table[a] = Some(t_idx),
                            Some(t) if t == t_idx => {}
                            Some(_) => soa_simple = false,
                        }
                    }
                    stateful.extend(action.stateful.iter().map(|call| CompiledStateful {
                        array: u32::from(call.array.0),
                        index: lower_operand(call.index, &program.layout),
                        cond: CompiledCond::lower(&call.cond, &program.layout),
                        on_true: CompiledUpdate::lower(&call.on_true, &program.layout),
                        on_false: CompiledUpdate::lower(&call.on_false, &program.layout),
                        output: call.output.map(|(f, out)| {
                            (
                                u32::from(f.0),
                                PhvLayout::mask(program.layout.spec(f).bits),
                                out,
                            )
                        }),
                    }));
                    actions.push(CompiledAction {
                        prims: (p0, prims.len() as u32),
                        stateful: (s0, stateful.len() as u32),
                        cols: (c0 as u32, c1 as u32, cols.len() as u32),
                    });
                }
                let mut ct = compile_table(table, base, &program.layout);
                ct.actions = (base, actions.len() as u32);
                ct.cols = table_cols;
                ct.has_stateful = table.actions.iter().any(|a| !a.stateful.is_empty());
                let table_actions = &actions[base as usize..];
                ct.rows = build_rows(&ct, table_actions, &prims, fusion.lane_bits);
                tables.push(ct);
            }
        }
        fusion.tape_ops = prims.len();
        if fusion.lane_bits == 32 {
            fusion.narrow_ops = prims.iter().filter(|p| p.narrow).count();
            fusion.widened_ops = fusion.tape_ops - fusion.narrow_ops;
        }
        written.sort_unstable();
        written.dedup();
        let state = RegisterState::new(&program.arrays);
        let touched = vec![false; program.arrays.len()];
        Ok(CompiledSwitch {
            layout: program.layout.clone(),
            recirc_field: program.recirc_field,
            recirc_limit: program.caps.recirc_limit,
            counts: vec![DispatchCounts::default(); tables.len()].into_boxed_slice(),
            tables: tables.into_boxed_slice(),
            actions: actions.into_boxed_slice(),
            prims: prims.into_boxed_slice(),
            stateful: stateful.into_boxed_slice(),
            state,
            touched,
            soa_simple,
            fusion,
            cols: cols.into_boxed_slice(),
            written: written.into_boxed_slice(),
            lanes: BatchLanes::new(&program.layout, 1),
            scratch: LaneScratch::default(),
        })
    }

    /// Compile-time statistics for the lowered op tape.
    pub fn fusion_stats(&self) -> FusionStats {
        self.fusion
    }

    /// What the SoA engine did with the batches it has run so far: one
    /// [`DispatchCounts`] per table, in execution order (the order of the
    /// program's stages and their tables). Counts are bumped once per
    /// batch, never per lane, and only by the table-major engine — scalar
    /// runs and ineligible programs leave them at zero.
    pub fn dispatch_counts(&self) -> &[DispatchCounts] {
        &self.counts
    }

    /// Whether this program qualifies for table-major SoA batch execution:
    /// no recirculation, each register array touched from at most one
    /// table, and at most one stateful call per action. Primitives are
    /// packet-local and stateful updates apply in packet order within
    /// their one table, so under these rules the SoA schedule is
    /// bit-for-bit the per-packet schedule. Ineligible programs silently
    /// take the per-packet path from every batch entry point.
    pub fn soa_eligible(&self) -> bool {
        self.soa_simple
    }

    /// The PHV layout of the compiled program.
    pub fn layout(&self) -> &PhvLayout {
        &self.layout
    }

    /// A fresh PHV for the compiled program's layout.
    pub fn phv(&self) -> Phv {
        Phv::new(&self.layout)
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

    /// The live register state.
    pub fn register_state(&self) -> &RegisterState {
        &self.state
    }

    /// Replace the register state wholesale (e.g. a state copied from the
    /// interpreter). The shape must match the compiled program's arrays.
    pub fn set_register_state(&mut self, state: RegisterState) -> Result<(), RuntimeError> {
        if !self.state.same_shape(&state) {
            return Err(RuntimeError::IndexOutOfRange {
                detail: "register state shape does not match the compiled program's arrays".into(),
            });
        }
        self.state = state;
        Ok(())
    }

    /// Process one packet, exactly as [`Switch::run`](crate::Switch::run)
    /// would — same table order, same RAW enforcement, same recirculation
    /// semantics, same errors — via the pre-resolved dispatch structures.
    pub fn run(&mut self, phv: &mut Phv) -> Result<u32, RuntimeError> {
        self.run_vals(phv.values_mut())
    }

    /// The per-packet engine over a raw value row (a PHV's value slice, or
    /// one gathered lane row on the SoA fallback path).
    fn run_vals(&mut self, vals: &mut [u64]) -> Result<u32, RuntimeError> {
        let CompiledSwitch {
            tables,
            actions,
            prims,
            stateful,
            state,
            touched,
            scratch,
            recirc_field,
            recirc_limit,
            ..
        } = self;
        let keybuf = &mut scratch.keybuf;
        let (array_meta, regs) = state.parts_mut();
        let limit = (*recirc_limit).max(1);
        let recirc_idx = recirc_field.map(|rf| rf.0 as usize);
        let mut passes = 0u32;
        loop {
            let pass = passes;
            if pass >= limit {
                return Err(RuntimeError::RecircLimit { limit });
            }
            if let Some(rf) = recirc_idx {
                vals[rf] = 0;
            }
            touched.fill(false);
            for t in tables.iter() {
                let Some(ai) = t.lookup(vals, 1, 0, keybuf) else {
                    continue;
                };
                let action = actions[ai as usize];
                for p in &prims[action.prims.0 as usize..action.prims.1 as usize] {
                    p.execute(vals, 1, 0);
                }
                for cs in &stateful[action.stateful.0 as usize..action.stateful.1 as usize] {
                    let a = cs.array as usize;
                    if touched[a] {
                        return Err(RuntimeError::RawViolation {
                            array: array_meta[a].name.clone(),
                            pass,
                        });
                    }
                    touched[a] = true;
                    let meta = &array_meta[a];
                    salu_access(cs, meta, window(regs, meta), vals, 1, 0, |old, vals| {
                        cs.cond.eval(old, vals, 1, 0)
                    })
                    .map_err(|idx| oor_error(idx, meta))?;
                }
            }
            passes += 1;
            let again = recirc_idx.map(|rf| vals[rf] != 0).unwrap_or(false);
            if !again {
                return Ok(passes);
            }
        }
    }

    /// Process a buffer of packets back to back, returning the total pass
    /// count. Stops at the first faulting packet (packets before it have
    /// been applied; the faulting PHV is left as the fault found it).
    ///
    /// Batches of [`SOA_MIN`] packets or more on an
    /// [eligible](CompiledSwitch::soa_eligible) program take the SoA path
    /// ([`CompiledSwitch::run_batch_soa`]); everything else runs
    /// per-packet. Results are bit-for-bit identical either way.
    pub fn run_batch(&mut self, phvs: &mut [Phv]) -> Result<u64, RuntimeError> {
        if self.soa_simple && phvs.len() >= SOA_MIN {
            return self.run_batch_soa(phvs);
        }
        let mut total = 0u64;
        for phv in phvs.iter_mut() {
            total += u64::from(self.run(phv)?);
        }
        Ok(total)
    }

    /// Process a batch through the structure-of-arrays engine: transpose
    /// the PHVs into [`BatchLanes`] columns, execute table-major, and
    /// transpose back. Semantics are exactly [`CompiledSwitch::run_batch`]
    /// run per packet — same results, register state, pass counts and
    /// faults (packets before a faulting packet are fully applied, the
    /// faulting PHV is left as the fault found it, later packets are
    /// untouched). Programs that are not
    /// [SoA-eligible](CompiledSwitch::soa_eligible) fall back to the
    /// per-packet engine internally.
    pub fn run_batch_soa(&mut self, phvs: &mut [Phv]) -> Result<u64, RuntimeError> {
        if !self.soa_simple || phvs.is_empty() {
            return self.run_batch(phvs);
        }
        let mut lanes = std::mem::take(&mut self.lanes);
        lanes.load(phvs);
        let res = self.run_lanes_simple(&mut lanes);
        // On a fault at packet `i`, packets before it are fully applied, it
        // is left as the fault found it, and later packets' PHVs keep their
        // input values (never touched).
        let stored = res.as_ref().map_or_else(|(i, _)| i + 1, |_| phvs.len());
        lanes.store_fields(phvs, stored, self.written.iter().copied());
        self.lanes = lanes;
        res.map_err(|(_, e)| e)
    }

    /// Execute a batch held directly in [`BatchLanes`] — the zero-copy
    /// entry point for callers that fill columns natively (the pipeline's
    /// batched add/read paths) instead of transposing PHVs. Returns the
    /// total pass count.
    ///
    /// On an [eligible](CompiledSwitch::soa_eligible) program this is the
    /// table-major SoA engine; otherwise each lane row is gathered,
    /// run per-packet, and scattered back. On a fault, packets before the
    /// faulting one are fully applied, the faulting packet's lanes are
    /// left as the fault found them, and later packets' lanes are
    /// unspecified — as is whatever they wrote to registers in the tables
    /// *before* the faulting one, which table-major order had already run
    /// for them.
    pub fn run_lanes(&mut self, lanes: &mut BatchLanes) -> Result<u64, RuntimeError> {
        if lanes.is_empty() {
            return Ok(0);
        }
        if self.soa_simple {
            return self.run_lanes_simple(lanes).map_err(|(_, e)| e);
        }
        let mut row = std::mem::take(&mut self.scratch.rowbuf);
        row.resize(self.layout.len(), 0);
        let mut result = Ok(0u64);
        let mut total = 0u64;
        for i in 0..lanes.len() {
            lanes.read_row(i, &mut row);
            match self.run_vals(&mut row) {
                Ok(p) => {
                    lanes.write_row(i, &row);
                    total += u64::from(p);
                }
                Err(e) => {
                    lanes.write_row(i, &row);
                    result = Err(e);
                    break;
                }
            }
        }
        self.scratch.rowbuf = row;
        result.map(|_| total)
    }

    /// The table-major SoA engine core. Requires `soa_simple`.
    ///
    /// Fault handling is *limit narrowing*: a packet whose stateful call
    /// indexes out of range stops being live (`limit` shrinks to exclude
    /// it) while earlier packets keep executing the remaining tables, so
    /// when the loop ends every packet before the earliest fault has been
    /// fully applied — exactly the per-packet contract. Phase C applies in
    /// packet order and stops at the first out-of-range lane, which leaves
    /// exactly the lanes before it applied, so no write ever needs rolling
    /// back.
    fn run_lanes_simple(&mut self, lanes: &mut BatchLanes) -> Result<u64, (usize, RuntimeError)> {
        // The batch's lane word picks the instantiation: one source, run
        // at `u32` for a 32-bit layout and at `u64` otherwise.
        match lanes.columns_mut() {
            (ColumnsMut::Narrow(buf), marks, cap, n) => self.run_columns(buf, marks, cap, n),
            (ColumnsMut::Wide(buf), marks, cap, n) => self.run_columns(buf, marks, cap, n),
        }
    }

    /// Out of line, so each lane word keeps its own function: inlined into
    /// `run_lanes_simple`, the SwitchML workload read about 4% slower
    /// (`op_rel_p50`, 2-core x86-64 host).
    #[inline(never)]
    fn run_columns<W: LaneWord>(
        &mut self,
        buf: &mut [W],
        marks: &mut [usize],
        cap: usize,
        n: usize,
    ) -> Result<u64, (usize, RuntimeError)> {
        debug_assert!(self.soa_simple);
        let CompiledSwitch {
            layout,
            tables,
            actions,
            prims,
            stateful,
            state,
            cols,
            counts,
            scratch,
            ..
        } = self;
        let (array_meta, regs) = state.parts_mut();
        scratch.act_of.resize(n, MISS);
        scratch.rowbuf.resize(layout.len(), 0);
        scratch.facts.clear();
        scratch.facts.resize(layout.len(), Fact::Unknown);
        let tape = |a: &CompiledAction| &prims[a.prims.0 as usize..a.prims.1 as usize];
        let list = |(a, b): (u32, u32)| cols[a as usize..b as usize].iter().map(|&f| f.into());
        // soa_simple guarantees at most one stateful call per action.
        let call = |a: &CompiledAction| {
            let cs = stateful
                .get(a.stateful.0 as usize..a.stateful.1 as usize)?
                .first()?;
            Some((cs, &array_meta[cs.array as usize]))
        };
        let mut limit = n;
        let mut fault: Option<(usize, RuntimeError)> = None;
        for (t, count) in tables.iter().zip(counts.iter_mut()) {
            if limit == 0 {
                break;
            }
            count.lanes += limit as u64;
            // Phase A: resolve every live packet's action.
            let resolved = t.lookup_lanes(buf, marks, cap, limit, scratch, count);
            if matches!(resolved, Ok(MISS)) {
                continue; // no live packet runs anything in this table
            }
            if resolved.is_err() {
                // A divergent arm leaves lanes as it found them.
                zero_below(buf, cap, marks, limit, list((t.cols.0, t.cols.2)));
            }
            let act_of = &scratch.act_of[..limit];
            // Phase C stops at the first out-of-range lane: `(lane, index)`.
            let mut stopped = None;
            match resolved {
                Err(Divergent::Rows(kconst, n_vary)) => {
                    // Lookup and shift in one pass; no stateful call.
                    let rows = t.rows.as_ref().expect("only a rows table diverges to rows");
                    rows.run(buf, cap, limit, kconst, &scratch.vary[..n_vary]);
                }
                Ok(a) => {
                    // Phase B, uniform: instruction-major — each op sweeps
                    // the batch. One action for the whole batch also lets
                    // Phase C resolve its call once.
                    count.uniform += 1;
                    let action = &actions[a as usize];
                    let (c0, c1, c2) = action.cols;
                    // What it only writes, it writes in every live lane.
                    zero_below(buf, cap, marks, limit, list((c0, c1)));
                    list((c1, c2)).for_each(|f: usize| marks[f] = marks[f].max(limit));
                    for op in tape(action) {
                        op.sweep::<W, false>(buf, cap, limit, &[], MISS);
                    }
                    if let Some((cs, meta)) = call(action) {
                        let batch = (&mut *buf, cap, limit);
                        stopped = salu_lanes(cs, meta, regs, batch, &mut count.windowed)
                            .map(|at| (at, meta));
                        if let Some((f, ..)) = cs.output {
                            let done = stopped.map_or(limit, |((lane, _), _)| lane);
                            marks[f as usize] = marks[f as usize].max(done);
                        }
                    }
                }
                Err(Divergent::Acts(seen)) => {
                    // Phase B, divergent: each distinct action's tape sweeps
                    // the batch under a blend-store — primitives are
                    // lane-local, so the order of the actions is immaterial
                    // — unless the table has more actions than the bitmap
                    // holds, and each packet walks its own tape.
                    if let Some(mut seen) = seen {
                        count.masked += 1;
                        while seen != 0 {
                            let a = t.actions.0 + seen.trailing_zeros();
                            seen &= seen - 1;
                            for op in tape(&actions[a as usize]) {
                                op.sweep::<W, true>(buf, cap, limit, act_of, a);
                            }
                        }
                    } else {
                        count.walk += 1;
                        for (i, &a) in act_of.iter().enumerate() {
                            if a != MISS {
                                for op in tape(&actions[a as usize]) {
                                    op.execute(buf, cap, i);
                                }
                            }
                        }
                    }
                    // Phase C, each lane under its own action's call.
                    if t.has_stateful {
                        for (i, &a) in act_of.iter().enumerate() {
                            if a == MISS {
                                continue;
                            }
                            let Some((cs, meta)) = call(&actions[a as usize]) else {
                                continue;
                            };
                            let regs = window(regs, meta);
                            let access = salu_access(cs, meta, regs, buf, cap, i, |old, buf| {
                                cs.cond.eval(old, buf, cap, i)
                            });
                            if let Err(idx) = access {
                                stopped = Some(((i, idx), meta));
                                break;
                            }
                        }
                    }
                }
            }
            if let Some(((lane, idx), meta)) = stopped {
                // Lanes before `lane` are applied, `lane` itself is not:
                // it faults, and stops being live for the tables after.
                fault = Some((lane, oor_error(idx, meta)));
                limit = lane;
            }
            for f in list((t.cols.0, t.cols.1)) {
                scratch.facts[f] = Fact::Unknown;
            }
        }
        match fault {
            // soa_simple programs run exactly one pass per packet.
            None => Ok(n as u64),
            Some((i, e)) => Err((i, e)),
        }
    }
}

/// Smallest batch routed through the SoA engine by
/// [`CompiledSwitch::run_batch`]: below this, transpose overhead beats the
/// dispatch savings.
pub const SOA_MIN: usize = 16;

/// The register window of one array: an access is one checked index, and
/// that check *is* the out-of-range fault test.
#[inline(always)]
fn window<'a>(regs: &'a mut [i64], meta: &ArrayMeta) -> &'a mut [i64] {
    &mut regs[meta.offset..meta.offset + meta.entries]
}

/// One SALU access by the packet at `lane` of `vals`, against its array's
/// [`window`]: index, decide the condition (`taken`, given the stored value
/// and the packet), apply the taken update, and write the optional output
/// into the packet's own field. `Err(index)` when the index is out of
/// range, with nothing touched.
#[inline(always)]
fn salu_access<V: LaneWord>(
    cs: &CompiledStateful,
    meta: &ArrayMeta,
    regs: &mut [i64],
    vals: &mut [V],
    stride: usize,
    lane: usize,
    taken: impl FnOnce(i64, &[V]) -> bool,
) -> Result<(), usize> {
    let idx = cs.index.raw(vals, stride, lane) as usize;
    let reg = regs.get_mut(idx).ok_or(idx)?;
    let old = *reg;
    let taken = taken(old, vals);
    let update = if taken { &cs.on_true } else { &cs.on_false };
    let new = update.apply(old, meta, vals, stride, lane);
    *reg = new;
    if let Some((dst, mask, out)) = cs.output {
        let v = match out {
            SaluOutput::Old => old as u64,
            SaluOutput::New => new as u64,
            SaluOutput::Predicate => u64::from(taken),
        };
        vals[dst as usize * stride + lane] = V::narrow(v & mask);
    }
    Ok(())
}

/// Phase C for a batch whose lanes all make the call `cs`: lanes
/// `0..limit` in packet order, so per-slot update order (and thus every
/// register value and SALU output) is the per-packet engine's. Returns
/// `(lane, index)` of the first lane indexing out of range; the lanes
/// before it are applied, it and the lanes after it are not.
///
/// An ascending run of the index column at least [`WINDOW_MIN`] lanes
/// long takes its register window once — clipped at the array's end, which
/// *is* the fault test — and [`salu_window`] sweeps the call over it
/// (counted in `windowed`); every other lane goes through [`salu_access`],
/// which stays the definition. See the module docs.
fn salu_lanes<W: LaneWord>(
    cs: &CompiledStateful,
    meta: &ArrayMeta,
    regs: &mut [i64],
    (buf, cap, limit): (&mut [W], usize, usize),
    windowed: &mut u64,
) -> Option<(usize, usize)> {
    let regs = window(regs, meta);
    let CompiledOperand::Field { idx: field, .. } = cs.index else {
        return salu_stretch(cs, meta, regs, (buf, cap), 0..limit); // one slot: no run
    };
    let col = field as usize * cap;
    // Lanes `done..i` sit in runs too short for a window: they go lane by
    // lane, as one stretch, before the next window or at the end.
    let (mut done, mut i) = (0, 0);
    while i < limit {
        let base = buf[col + i].wide();
        let (len, run) = next_run(&buf[col + i..col + limit]);
        // A run ends where the lane word would wrap: that lane starts over
        // at slot 0, it does not extend the window.
        let len = len.min((W::ONES.wide() - base).saturating_add(1) as usize);
        if run && len >= WINDOW_MIN {
            if let Some(stop) = salu_stretch(cs, meta, regs, (buf, cap), done..i) {
                return Some(stop);
            }
            let base = base as usize;
            let fit = regs.len().saturating_sub(base).min(len);
            if fit > 0 {
                salu_window(cs, meta, &mut regs[base..base + fit], buf, cap, i);
            }
            *windowed += fit as u64;
            if fit < len {
                return Some((i + fit, base + fit));
            }
            done = i + len;
        }
        i += len;
    }
    salu_stretch(cs, meta, regs, (buf, cap), done..limit)
}

/// Lanes `lanes`, one [`salu_access`] each, in order: the definition of
/// Phase C. Returns `(lane, index)` of the first lane out of range.
///
/// The condition's shape is dispatched here, once, so each lane loop
/// evaluates its leaves inline (one loop evaluating `cs.cond` per lane
/// measured 12% slower on permuted-slot batches).
fn salu_stretch<W: LaneWord>(
    cs: &CompiledStateful,
    meta: &ArrayMeta,
    regs: &mut [i64],
    (buf, cap): (&mut [W], usize),
    lanes: std::ops::Range<usize>,
) -> Option<(usize, usize)> {
    // Generic, not `dyn`: one lane loop per shape, its condition inlined.
    #[inline(always)]
    fn each<W: LaneWord>(
        cs: &CompiledStateful,
        meta: &ArrayMeta,
        (regs, buf, cap): (&mut [i64], &mut [W], usize),
        mut lanes: std::ops::Range<usize>,
        taken: impl Fn(i64, &[W], usize) -> bool,
    ) -> Option<(usize, usize)> {
        lanes.find_map(|i| {
            let access = salu_access(cs, meta, regs, buf, cap, i, |old, buf| taken(old, buf, i));
            access.err().map(|idx| (i, idx))
        })
    }
    let batch = (regs, buf, cap);
    match &cs.cond {
        CompiledCond::Always => each(cs, meta, batch, lanes, |_, _, _| true),
        CompiledCond::One(a) => each(cs, meta, batch, lanes, |old, buf, i| {
            a.eval(old, buf, cap, i)
        }),
        CompiledCond::Or(a, b) => each(cs, meta, batch, lanes, |old, buf, i| {
            a.eval(old, buf, cap, i) || b.eval(old, buf, cap, i)
        }),
        CompiledCond::And(a, b) => each(cs, meta, batch, lanes, |old, buf, i| {
            a.eval(old, buf, cap, i) && b.eval(old, buf, cap, i)
        }),
        CompiledCond::Tree(t) => each(cs, meta, batch, lanes, |old, buf, i| {
            t.eval(old, buf, cap, i)
        }),
    }
}

/// How the non-empty index column `col` starts: `(len, false)` for `len`
/// lanes none of which steps up into the next (`col[k + 1] == col[k] + 1`)
/// — duplicate and permuted slots — or `(len, true)` for a maximal
/// ascending run of `len` lanes. Steps are tested a cache line of lanes
/// per compare sweep, lane by lane only at the ends.
fn next_run<W: LaneWord>(col: &[W]) -> (usize, bool) {
    let (one, n) = (W::narrow(1), col.len());
    let up = |j: usize| col[j] == col[j - 1].add(one);
    // Of the steps into lanes `j..j + LANES`: (OR, AND) of "ascends".
    let line = |j: usize| {
        let ups = map2::<W>(&load(col, 0, j - 1), &load(col, 0, j), |a, b| {
            W::select(a.add(one) == b)
        });
        let ups = ups.as_ref().iter();
        ups.fold((W::ZERO, W::ONES), |(any, all), &m| (any | m, all & m))
    };
    let mut j = 1;
    while j + W::LANES <= n && line(j).0 == W::ZERO {
        j += W::LANES;
    }
    // A last, partial line: test the whole line that ends the column.
    if j < n && n - j < W::LANES && n > W::LANES && line(n - W::LANES).0 == W::ZERO {
        j = n;
    }
    while j < n && !up(j) {
        j += 1;
    }
    // Lanes `0..j - 1` step nowhere; lane `j - 1` does, unless `col` ended.
    let singles = if j < n { j - 1 } else { n };
    if singles > 0 {
        return (singles, false);
    }
    while j + W::LANES <= n && line(j).1 == W::ONES {
        j += W::LANES;
    }
    while j < n && up(j) {
        j += 1;
    }
    (j, true)
}

/// Shortest run served from a register window: below it the per-run setup
/// outweighs the per-lane saving. One value for both lane words, so
/// [`DispatchCounts::windowed`] does not depend on the word.
const WINDOW_MIN: usize = 8;

/// Lanes per block of a window sweep: the condition's lane mask and the
/// saved old values live on the stack, and a block's columns stay in L1
/// from one staged sweep to the next.
const SALU_BLOCK: usize = 64;

/// The call `cs` by lanes `lo..lo + win.len()` against their register
/// window `win` (lane `lo + k` owns `win[k]`), as staged sweeps resolved
/// once per block, not per lane: a compare sweep per condition leaf into
/// the lane mask `taken`; `on_true` over the taken lanes and `on_false`
/// over the rest (a block that went all one way — a count decides — runs
/// that update unmasked); then the output store. Every PHV read precedes
/// that store, as in [`salu_access`], so an output field the call itself
/// reads is safe; `Old` values an update would overwrite are saved first.
fn salu_window<W: LaneWord>(
    cs: &CompiledStateful,
    meta: &ArrayMeta,
    win: &mut [i64],
    buf: &mut [W],
    cap: usize,
    lo: usize,
) {
    use CompiledUpdate::Keep;
    let save_old = matches!(cs.output, Some((_, _, SaluOutput::Old)))
        && !matches!((cs.on_true, cs.on_false), (Keep, Keep));
    for (b, win) in win.chunks_mut(SALU_BLOCK).enumerate() {
        let (lo, n) = (lo + b * SALU_BLOCK, win.len());
        let lanes = Block {
            buf: &*buf,
            cap,
            lo,
        };
        // What the output store will read, where that is not `win` as the
        // updates leave it: the saved `Old` values, or the predicate bits.
        let mut vals = [0i64; SALU_BLOCK];
        if save_old {
            vals[..n].copy_from_slice(win);
        }
        let (mut taken, mut other) = ([true; SALU_BLOCK], [true; SALU_BLOCK]);
        let (taken, other) = (&mut taken[..n], &mut other[..n]);
        match &cs.cond {
            CompiledCond::Always => {}
            CompiledCond::One(a) => a.sweep(win, &lanes, taken),
            CompiledCond::Or(a, b) | CompiledCond::And(a, b) => {
                a.sweep(win, &lanes, taken);
                b.sweep(win, &lanes, other);
                let or = matches!(cs.cond, CompiledCond::Or(..));
                let both = taken.iter_mut().zip(&*other);
                both.for_each(|(t, &o)| *t = if or { *t | o } else { *t & o });
            }
            CompiledCond::Tree(tree) => {
                for (k, (t, &stored)) in taken.iter_mut().zip(&*win).enumerate() {
                    *t = tree.eval(stored, lanes.buf, cap, lo + k);
                }
            }
        }
        match taken.iter().filter(|&&t| t).count() {
            0 => (cs.on_false).sweep::<W, false>(meta, win, &lanes, (taken, false)),
            hits if hits == n => (cs.on_true).sweep::<W, false>(meta, win, &lanes, (taken, true)),
            _ => {
                (cs.on_true).sweep::<W, true>(meta, win, &lanes, (taken, true));
                (cs.on_false).sweep::<W, true>(meta, win, &lanes, (taken, false));
            }
        }
        if let Some((dst, mask, kind)) = cs.output {
            if kind == SaluOutput::Predicate {
                let bits = vals.iter_mut().zip(&*taken);
                bits.for_each(|(v, &t)| *v = i64::from(t));
            }
            let own = save_old || kind == SaluOutput::Predicate;
            let vals = if own { &vals[..n] } else { &*win };
            let out = &mut buf[dst as usize * cap + lo..][..n];
            let stores = out.iter_mut().zip(vals);
            stores.for_each(|(d, &v)| *d = W::narrow(v as u64 & mask));
        }
    }
}

fn oor_error(idx: usize, meta: &ArrayMeta) -> RuntimeError {
    RuntimeError::IndexOutOfRange {
        detail: format!(
            "index {idx} out of range for register array `{}` ({} entries)",
            meta.name, meta.entries
        ),
    }
}

/// Pre-resolve one operand against the layout.
fn lower_operand(op: Operand, layout: &PhvLayout) -> CompiledOperand {
    match op {
        Operand::Field(f) => CompiledOperand::Field {
            idx: u32::from(f.0),
            sx: 64 - layout.spec(f).bits,
        },
        Operand::Const(c) => CompiledOperand::Const(c),
    }
}

/// Pre-resolve one primitive: destination offset + mask, operand offsets +
/// sign-extension shifts.
///
/// A constant shift count is clamped to 64: every count from 64 up shifts
/// everything out, and a count that fits any lane word keeps "the count
/// reached the word's width" decidable in the word itself.
fn lower_prim(p: &Primitive, layout: &PhvLayout) -> CompiledPrim {
    let shift = matches!(p.op, AluOp::Shl | AluOp::ShrLogic | AluOp::ShrArith);
    let mut prim = CompiledPrim {
        dst: u32::from(p.dst.0),
        dst_mask: PhvLayout::mask(layout.spec(p.dst).bits),
        op: p.op,
        a: lower_operand(p.a, layout),
        b: match lower_operand(p.b, layout) {
            CompiledOperand::Const(count) if shift => {
                CompiledOperand::Const((count as u64).min(64) as i64)
            }
            b => b,
        },
        narrow: false,
    };
    prim.narrow = layout.lane_bits() == 32 && narrow_exact(&prim);
    prim
}

/// Lower one table. `action_base` is the global index of the table's first
/// action.
fn compile_table(table: &Table, action_base: u32, layout: &PhvLayout) -> CompiledTable {
    // Packing shifts for a single-u64 key, lowest field first.
    let mut key_bits = 0u32;
    let keys: Box<[KeyCol]> = table
        .keys
        .iter()
        .map(|(f, _)| {
            let bits = layout.spec(*f).bits;
            let shift = key_bits;
            key_bits += bits;
            KeyCol {
                field: f.0,
                bits,
                shift,
            }
        })
        .collect();
    let default_action = table.default_action.map(|d| action_base + d as u32);

    // Split entries: all-exact tuples vs. everything else (any pattern
    // that is Ternary/Range/Any). Entries with an exact value that cannot
    // fit its field width can never match a (masked) PHV value — drop
    // them, exactly as the interpreter's scan never selects them.
    let mut exact: Vec<(Cand, &[KeyMatch])> = Vec::new();
    let mut scan: Vec<(Cand, &[KeyMatch])> = Vec::new();
    // The match gate: per key field, intersect across all live entries the
    // bits each entry constrains to an exact value (exact patterns pin
    // their whole field, ternary patterns their mask). `None` until the
    // first live entry.
    let mut gate: Option<Vec<(u64, u64)>> = None;
    'entries: for (install, e) in table.entries.iter().enumerate() {
        let cand = Cand {
            priority: e.priority,
            install: install as u32,
            action: action_base + e.action as u32,
        };
        let mut all_exact = true;
        // This entry's per-field pinned bits.
        let mut pins: Vec<(u64, u64)> = Vec::with_capacity(e.key.len());
        for (pat, k) in e.key.iter().zip(keys.iter()) {
            let fmask = PhvLayout::mask(k.bits);
            match pat {
                KeyMatch::Exact(v) => {
                    if *v & !fmask != 0 {
                        continue 'entries; // unmatchable: value exceeds field width
                    }
                    pins.push((fmask, *v));
                }
                KeyMatch::Ternary { value, mask } => {
                    all_exact = false;
                    pins.push((mask & fmask, value & mask & fmask));
                }
                KeyMatch::Range { .. } | KeyMatch::Any => {
                    all_exact = false;
                    pins.push((0, 0));
                }
            }
        }
        gate = Some(match gate {
            None => pins,
            Some(acc) => acc
                .iter()
                .zip(&pins)
                .map(|(&(gm, gv), &(em, ev))| {
                    // Keep only bits both pin, to agreeing values.
                    let m = gm & em & !(gv ^ ev);
                    (m, gv & m)
                })
                .collect(),
        });
        if all_exact {
            exact.push((cand, &e.key));
        } else {
            scan.push((cand, &e.key));
        }
    }
    // A handful of entries on a key too wide to index directly: one
    // pre-sorted scan of all of them beats a hash probe plus a scan per
    // lookup, and its rows sweep a batch chunk-major (`claim_lanes`).
    if key_bits > DENSE_MAX_BITS && exact.len() + scan.len() <= SCAN_MAX_ENTRIES {
        scan.append(&mut exact);
    }
    let gate: Box<[GateCheck]> = gate
        .unwrap_or_default()
        .into_iter()
        .zip(keys.iter())
        .filter(|((m, _), _)| *m != 0)
        .map(|((mask, val), k)| GateCheck {
            field: u32::from(k.field),
            mask,
            val,
        })
        .collect();
    // Pre-sort the scan so the first match is the interpreter's winner.
    scan.sort_by(|(a, _), (b, _)| b.priority.cmp(&a.priority).then(a.install.cmp(&b.install)));
    let scan = ScanList {
        cands: scan.iter().map(|(cand, _)| *cand).collect(),
        pats: scan
            .iter()
            .flat_map(|(_, key)| {
                key.iter()
                    .zip(keys.iter())
                    .map(|(pat, k)| Pat::lower(pat, PhvLayout::mask(k.bits)))
            })
            .collect(),
    };
    let value = |pat: &KeyMatch| match pat {
        KeyMatch::Exact(v) => *v,
        _ => unreachable!("only all-exact entries are keyed"),
    };
    let key_of = |tuple: &[KeyMatch]| {
        tuple
            .iter()
            .zip(keys.iter())
            .fold(0u64, |key, (pat, k)| key | (value(pat) << k.shift))
    };

    let matcher = if keys.is_empty() {
        // Keyless: every entry matches every packet; resolve now.
        let mut best: Option<Cand> = None;
        for (cand, _) in exact {
            // (scan is empty: zero-arity keys have all-exact — vacuous —
            // tuples.)
            if best.is_none_or(|b| cand.beats(&b)) {
                best = Some(cand);
            }
        }
        Matcher::Const(best.map(|c| c.action))
    } else if exact.is_empty() {
        Matcher::Scan(scan)
    } else if key_bits <= DENSE_MAX_BITS && scan.cands.is_empty() {
        let mut slots: Vec<u32> = vec![MISS; 1usize << key_bits];
        let mut winners: Vec<Option<Cand>> = vec![None; slots.len()];
        for (cand, tuple) in exact {
            let key = key_of(tuple) as usize;
            if winners[key].is_none_or(|w| cand.beats(&w)) {
                winners[key] = Some(cand);
                slots[key] = cand.action;
            }
        }
        Matcher::Dense(slots.into_boxed_slice())
    } else if key_bits <= 64 {
        let mut map: KeyMap<u64> = KeyMap::default();
        for (cand, tuple) in exact {
            insert_best(&mut map, key_of(tuple), cand);
        }
        match injective_prefix_bits(&map, DENSE_MAX_BITS) {
            Some(w) if scan.cands.is_empty() => {
                let mask = (1u64 << w) - 1;
                let mut slots: Vec<(u64, u32)> = vec![(0, MISS); 1usize << w];
                for (key, cand) in map {
                    slots[(key & mask) as usize] = (key, cand.action);
                }
                Matcher::DenseKeyed {
                    mask,
                    slots: slots.into_boxed_slice(),
                }
            }
            _ => Matcher::PackedHash { map, scan },
        }
    } else {
        let mut map: KeyMap<Box<[u64]>> = KeyMap::default();
        for (cand, tuple) in exact {
            insert_best(&mut map, tuple.iter().map(value).collect(), cand);
        }
        Matcher::WideHash { map, scan }
    };

    CompiledTable {
        keys,
        key_bits,
        gate,
        matcher,
        default_action,
        // Patched by `CompiledSwitch::compile`, which lowers the actions.
        actions: (action_base, action_base),
        cols: (0, 0, 0),
        has_stateful: false,
        rows: None,
    }
}

/// Smallest low-bit prefix width (≤ `max_bits`) under which the packed
/// keys are pairwise distinct, making a verify-on-load direct index
/// possible.
fn injective_prefix_bits(packed: &KeyMap<u64>, max_bits: u32) -> Option<u32> {
    let floor = packed.len().next_power_of_two().trailing_zeros().max(1);
    'widths: for w in floor..=max_bits {
        let mask = (1u64 << w) - 1;
        let mut seen = std::collections::HashSet::with_capacity(packed.len());
        for key in packed.keys() {
            if !seen.insert(key & mask) {
                continue 'widths;
            }
        }
        return Some(w);
    }
    None
}

/// Keep the winning candidate per key (duplicate exact entries resolve at
/// compile time, not per packet).
fn insert_best<K: std::hash::Hash + Eq>(map: &mut KeyMap<K>, key: K, cand: Cand) {
    map.entry(key)
        .and_modify(|cur| {
            if cand.beats(cur) {
                *cur = cand;
            }
        })
        .or_insert(cand);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, AluOp, Operand};
    use crate::register::{RegisterArraySpec, SaluCond, SaluOutput, SaluUpdate, StatefulCall};
    use crate::stage::Stage;
    use crate::switch::{Switch, SwitchCaps};
    use crate::table::MatchKind;

    fn set_const(out: FieldId, v: i64) -> Action {
        Action::nop(format!("set{v}")).prim(out, AluOp::Set, Operand::Const(v), Operand::Const(0))
    }

    /// Run the same PHV through interpreter and compiled engine, assert
    /// identical results, return the compiled PHV.
    fn run_both(program: &SwitchProgram, init: impl Fn(&mut Phv)) -> Phv {
        let mut sw = Switch::new(program.clone()).unwrap();
        let mut cs = CompiledSwitch::compile(program).unwrap();
        let mut pi = sw.phv();
        init(&mut pi);
        let mut pc = pi.clone();
        let ri = sw.run(&mut pi);
        let rc = cs.run(&mut pc);
        assert_eq!(ri, rc, "pass counts / errors diverged");
        assert_eq!(pi, pc, "PHV diverged");
        for (id, spec) in program
            .arrays
            .iter()
            .enumerate()
            .map(|(i, s)| (RegArrayId(i as u16), s))
        {
            for idx in 0..spec.entries {
                assert_eq!(
                    sw.register(id, idx),
                    cs.register(id, idx),
                    "register {}[{idx}] diverged",
                    spec.name
                );
            }
        }
        pc
    }

    #[test]
    fn dense_lowering_matches_interpreter_including_priorities() {
        let mut l = PhvLayout::new();
        let k = l.field("k", 8);
        let out = l.field("out", 8);
        // Duplicate keys with different priorities and a default.
        let t = Table::keyed(
            "t",
            vec![(k, MatchKind::Exact)],
            vec![set_const(out, 1), set_const(out, 2), set_const(out, 9)],
            Some(2),
        )
        .entry(vec![KeyMatch::Exact(5)], 1, 0)
        .entry(vec![KeyMatch::Exact(5)], 2, 1) // higher priority wins
        .entry(vec![KeyMatch::Exact(7)], 0, 0)
        .entry(vec![KeyMatch::Exact(7)], 0, 1); // tie: earlier install wins
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![Stage::new().table(t)],
            arrays: vec![],
            recirc_field: None,
        };
        let cs = CompiledSwitch::compile(&program).unwrap();
        assert!(
            matches!(cs.tables[0].matcher, Matcher::Dense(_)),
            "single 8-bit exact key must lower to a dense table"
        );
        for key in [5u64, 7, 0, 255] {
            let p = run_both(&program, |p| p.set(k, key));
            let expect = match key {
                5 => 2,
                7 => 1,
                _ => 9,
            };
            assert_eq!(p.get(out), expect, "key {key}");
        }
    }

    #[test]
    fn packed_hash_lowering_for_wide_exact_keys_with_wildcards() {
        let mut l = PhvLayout::new();
        let a = l.field("a", 32);
        let b = l.field("b", 2);
        let out = l.field("out", 8);
        // 34-bit key: too wide for dense, fits a packed u64. The Any
        // entry forces a scan half next to the hash half.
        let small = Table::keyed(
            "t",
            vec![(a, MatchKind::Exact), (b, MatchKind::Exact)],
            vec![set_const(out, 1), set_const(out, 2), set_const(out, 3)],
            None,
        )
        .entry(vec![KeyMatch::Exact(0xDEAD_BEEF), KeyMatch::Exact(3)], 1, 0)
        .entry(vec![KeyMatch::Exact(0xDEAD_BEEF), KeyMatch::Any], 2, 1)
        .entry(vec![KeyMatch::Any, KeyMatch::Exact(1)], 0, 2);
        // Exact entries nothing below looks up, to outgrow the plain scan
        // a handful of entries lowers to.
        let t = (0..SCAN_MAX_ENTRIES as u64).fold(small.clone(), |t, i| {
            t.entry(vec![KeyMatch::Exact(0x1000 + i), KeyMatch::Exact(2)], 0, 0)
        });
        let program = |t| SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l.clone(),
            stages: vec![Stage::new().table(t)],
            arrays: vec![],
            recirc_field: None,
        };
        let cs = CompiledSwitch::compile(&program(small)).unwrap();
        assert!(matches!(cs.tables[0].matcher, Matcher::Scan(_)));
        let program = program(t);
        let cs = CompiledSwitch::compile(&program).unwrap();
        assert!(matches!(cs.tables[0].matcher, Matcher::PackedHash { .. }));
        for (av, bv, expect) in [
            (0xDEAD_BEEFu64, 3u64, 2u64), // wildcard entry outranks the exact one
            (0xDEAD_BEEF, 0, 2),
            (0x1234, 1, 3),
            (0x1234, 0, 0), // miss, no default
        ] {
            let p = run_both(&program, |p| {
                p.set(a, av);
                p.set(b, bv);
            });
            assert_eq!(p.get(out), expect, "({av:#x}, {bv})");
        }
    }

    #[test]
    fn unmatchable_exact_values_are_dropped_not_misindexed() {
        let mut l = PhvLayout::new();
        let k = l.field("k", 4);
        let out = l.field("out", 8);
        // Exact(0x1F) can never match a 4-bit field; the interpreter scans
        // past it, the compiler must drop it (not index slot 31).
        let t = Table::keyed(
            "t",
            vec![(k, MatchKind::Exact)],
            vec![set_const(out, 1)],
            None,
        )
        .entry(vec![KeyMatch::Exact(0x1F)], 0, 0);
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![Stage::new().table(t)],
            arrays: vec![],
            recirc_field: None,
        };
        for key in 0..16u64 {
            let p = run_both(&program, |p| p.set(k, key));
            assert_eq!(p.get(out), 0, "key {key} must miss");
        }
    }

    #[test]
    fn match_gate_short_circuits_without_changing_semantics() {
        let mut l = PhvLayout::new();
        let op = l.field("op", 2);
        let mag = l.field("mag", 32);
        let out = l.field("out", 8);
        // Every entry pins op = 1 (an LPM-style table that only READ
        // packets hit): the compiler must gate on those bits, and packets
        // with op != 1 must still take the default.
        let mut t = Table::keyed(
            "lpm",
            vec![(op, MatchKind::Exact), (mag, MatchKind::Ternary)],
            vec![set_const(out, 1), set_const(out, 9)],
            Some(1),
        );
        for k in 0..16u32 {
            let mask = !0u64 << k & 0xFFFF_FFFF;
            t = t.entry(
                vec![
                    KeyMatch::Exact(1),
                    KeyMatch::Ternary {
                        value: 1u64 << k,
                        mask,
                    },
                ],
                k,
                0,
            );
        }
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![Stage::new().table(t)],
            arrays: vec![],
            recirc_field: None,
        };
        let cs = CompiledSwitch::compile(&program).unwrap();
        // The gate must pin at least the op field (it may legitimately
        // also pin high mag bits every ternary mask agrees on).
        let op_gate = cs.tables[0]
            .gate
            .iter()
            .find(|g| g.field == u32::from(op.0))
            .expect("op field must be gated");
        assert_eq!(op_gate.mask, 0b11);
        assert_eq!(op_gate.val, 0b01);
        for opv in 0..4u64 {
            for magv in [0u64, 1, 0x80, 0xFFFF_FFFF] {
                let p = run_both(&program, |p| {
                    p.set(op, opv);
                    p.set(mag, magv);
                });
                if opv != 1 {
                    assert_eq!(p.get(out), 9, "gated packet takes the default");
                }
            }
        }
    }

    #[test]
    fn ternary_priority_scan_matches_interpreter_lpm() {
        let mut l = PhvLayout::new();
        let k = l.field("k", 8);
        let out = l.field("out", 8);
        let t = Table::keyed(
            "lpm",
            vec![(k, MatchKind::Ternary)],
            vec![set_const(out, 1), set_const(out, 2)],
            None,
        )
        .entry(
            vec![KeyMatch::Ternary {
                value: 0x80,
                mask: 0x80,
            }],
            1,
            0,
        )
        .entry(
            vec![KeyMatch::Ternary {
                value: 0x80,
                mask: 0xC0,
            }],
            2,
            1,
        );
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![Stage::new().table(t)],
            arrays: vec![],
            recirc_field: None,
        };
        for key in 0..=255u64 {
            run_both(&program, |p| p.set(k, key));
        }
    }

    #[test]
    fn stateful_recirculation_and_raw_semantics_are_preserved() {
        // The counter program from the switch tests, plus recirculation.
        let mut l = PhvLayout::new();
        let port = l.field("port", 4);
        let count = l.field("count", 32);
        let recirc = l.field("recirc", 1);
        let bump = Action::nop("bump").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Field(port),
            cond: SaluCond::Always,
            on_true: SaluUpdate::AddSat(Operand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: Some((count, SaluOutput::New)),
        });
        let decide = Action::nop("decide").prim(
            recirc,
            AluOp::CmpLt,
            Operand::Field(count),
            Operand::Const(3),
        );
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![
                Stage::new().table(Table::always("count", bump)),
                Stage::new().table(Table::always("decide", decide)),
            ],
            arrays: vec![RegisterArraySpec {
                name: "pkt_count".into(),
                width_bits: 32,
                entries: 16,
                stage: 0,
            }],
            recirc_field: Some(recirc),
        };
        // One packet recirculates until the counter reaches 3: the
        // register array is NOT re-touched illegally because each pass
        // resets the RAW bookkeeping.
        let p = run_both(&program, |p| p.set(port, 7));
        assert_eq!(p.get(count), 3);
        // Push the recirculation past the limit: identical error.
        let mut program2 = program;
        program2.caps.recirc_limit = 2;
        run_both(&program2, |p| p.set(port, 2));
    }

    #[test]
    fn compiled_from_switch_carries_register_state() {
        let mut l = PhvLayout::new();
        let x = l.field("x", 32);
        let offer = Action::nop("offer").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Const(0),
            cond: SaluCond::Always,
            on_true: SaluUpdate::AddSat(Operand::Field(x)),
            on_false: SaluUpdate::Keep,
            output: None,
        });
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![Stage::new().table(Table::always("offer", offer))],
            arrays: vec![RegisterArraySpec {
                name: "acc".into(),
                width_bits: 32,
                entries: 2,
                stage: 0,
            }],
            recirc_field: None,
        };
        let mut sw = Switch::new(program.clone()).unwrap();
        let mut phv = sw.phv();
        phv.set(x, 41);
        sw.run(&mut phv).unwrap();
        let mut cs = CompiledSwitch::compile(&program).unwrap();
        cs.set_register_state(sw.register_state().clone()).unwrap();
        assert_eq!(cs.register(RegArrayId(0), 0), 41);
        let mut phv = cs.phv();
        phv.set(x, 1);
        cs.run(&mut phv).unwrap();
        assert_eq!(cs.register(RegArrayId(0), 0), 42);
        assert_eq!(sw.register(RegArrayId(0), 0), 41, "interpreter unaffected");
    }

    #[test]
    fn run_batch_equals_scalar_runs() {
        let mut l = PhvLayout::new();
        let port = l.field("port", 4);
        let count = l.field("count", 32);
        let bump = Action::nop("bump").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Field(port),
            cond: SaluCond::Always,
            on_true: SaluUpdate::AddSat(Operand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: Some((count, SaluOutput::New)),
        });
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![Stage::new().table(Table::always("count", bump))],
            arrays: vec![RegisterArraySpec {
                name: "pkt_count".into(),
                width_bits: 32,
                entries: 16,
                stage: 0,
            }],
            recirc_field: None,
        };
        let mut scalar = CompiledSwitch::compile(&program).unwrap();
        let mut batch = scalar.clone();
        let mut phvs: Vec<Phv> = (0..64)
            .map(|i| {
                let mut p = batch.phv();
                p.set(port, i % 16);
                p
            })
            .collect();
        let total = batch.run_batch(&mut phvs).unwrap();
        assert_eq!(total, 64);
        for i in 0..64u64 {
            let mut p = scalar.phv();
            p.set(port, i % 16);
            scalar.run(&mut p).unwrap();
            assert_eq!(p, phvs[i as usize], "packet {i}");
        }
        for idx in 0..16 {
            assert_eq!(
                batch.register(RegArrayId(0), idx),
                scalar.register(RegArrayId(0), idx)
            );
        }
    }

    /// A small op-dispatched program with divergence (per-port actions),
    /// a stateful accumulator and an op-gated READ-only table — the shape
    /// the SoA engine is built for.
    fn soa_program(entries: usize) -> (SwitchProgram, FieldId, FieldId, FieldId) {
        let mut l = PhvLayout::new();
        let op = l.field("op", 2);
        let port = l.field("port", 4);
        let val = l.field("val", 16);
        let acc = l.field("acc", 32);
        let scaled =
            Action::nop("scaled").prim(val, AluOp::Shl, Operand::Field(val), Operand::Const(1));
        let masked =
            Action::nop("masked").prim(val, AluOp::And, Operand::Field(val), Operand::Const(0xFF));
        let classify = Table::keyed(
            "classify",
            vec![(port, MatchKind::Exact)],
            vec![scaled, masked],
            Some(1),
        )
        .entry(vec![KeyMatch::Exact(3)], 0, 0)
        .entry(vec![KeyMatch::Exact(7)], 0, 0);
        let bump = Action::nop("bump").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Field(port),
            cond: SaluCond::RegCmp {
                cmp: CmpOp::Lt,
                rhs: Operand::Const(1 << 20),
            },
            on_true: SaluUpdate::AddSat(Operand::Field(val)),
            on_false: SaluUpdate::Keep,
            output: Some((acc, SaluOutput::New)),
        });
        let add_tbl = Table::keyed("add", vec![(op, MatchKind::Exact)], vec![bump], None).entry(
            vec![KeyMatch::Exact(0)],
            0,
            0,
        );
        // READ-only table: an ADD batch must gate-skip it wholesale.
        let flag =
            Action::nop("flag").prim(acc, AluOp::Set, Operand::Const(0x77), Operand::Const(0));
        let read_tbl = Table::keyed("read_flags", vec![(op, MatchKind::Exact)], vec![flag], None)
            .entry(vec![KeyMatch::Exact(1)], 0, 0);
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![
                Stage::new().table(classify),
                Stage::new().table(add_tbl),
                Stage::new().table(read_tbl),
            ],
            arrays: vec![RegisterArraySpec {
                name: "acc_reg".into(),
                width_bits: 32,
                entries,
                stage: 1,
            }],
            recirc_field: None,
        };
        (program, op, port, val)
    }

    #[test]
    fn soa_batch_matches_scalar_bit_for_bit() {
        let (program, op, port, val) = soa_program(16);
        let mut scalar = CompiledSwitch::compile(&program).unwrap();
        assert!(scalar.soa_eligible());
        let mut soa = scalar.clone();
        let mut phvs: Vec<Phv> = (0..200u64)
            .map(|i| {
                let mut p = soa.phv();
                p.set(op, i % 3 % 2); // mix ADD and READ packets
                p.set(port, i % 16);
                p.set(val, 100 + i);
                p
            })
            .collect();
        let mut expect = phvs.clone();
        let total = soa.run_batch_soa(&mut phvs).unwrap();
        assert_eq!(total, 200);
        let mut scalar_total = 0u64;
        for p in &mut expect {
            scalar_total += u64::from(scalar.run(p).unwrap());
        }
        assert_eq!(total, scalar_total);
        assert_eq!(phvs, expect, "SoA PHVs diverged from scalar");
        assert_eq!(
            soa.register_state(),
            scalar.register_state(),
            "SoA register state diverged"
        );
    }

    #[test]
    fn soa_fault_semantics_match_scalar() {
        // 8 register entries but a 4-bit port: ports 8..16 fault.
        let (program, op, port, val) = soa_program(8);
        let mut scalar = CompiledSwitch::compile(&program).unwrap();
        let mut soa = scalar.clone();
        let template = scalar.phv();
        let build = |i: u64| {
            let mut p = template.clone();
            p.set(op, 0);
            p.set(port, if i == 23 { 12 } else { i % 8 }); // packet 23 faults
            p.set(val, i);
            p
        };
        let mut phvs: Vec<Phv> = (0..64).map(build).collect();
        let mut expect: Vec<Phv> = (0..64).map(build).collect();
        let soa_err = soa.run_batch_soa(&mut phvs).unwrap_err();
        let mut scalar_err = None;
        for (i, p) in expect.iter_mut().enumerate() {
            if let Err(e) = scalar.run(p) {
                scalar_err = Some((i, e));
                break;
            }
        }
        let (fault_at, scalar_err) = scalar_err.expect("scalar must fault too");
        assert_eq!(fault_at, 23);
        assert_eq!(soa_err, scalar_err);
        // Applied packets and the faulting packet agree; later packets
        // keep their input values.
        assert_eq!(&phvs[..=fault_at], &expect[..=fault_at]);
        for (i, p) in phvs.iter().enumerate().skip(fault_at + 1) {
            assert_eq!(*p, build(i as u64), "packet {i} must be untouched");
        }
        assert_eq!(soa.register_state(), scalar.register_state());
    }

    #[test]
    fn soa_eligibility_rules() {
        let (program, ..) = soa_program(16);
        assert!(CompiledSwitch::compile(&program).unwrap().soa_eligible());

        // Recirculation disqualifies.
        let mut with_recirc = program.clone();
        let recirc = with_recirc.layout.field("recirc", 1);
        with_recirc.recirc_field = Some(recirc);
        assert!(!CompiledSwitch::compile(&with_recirc)
            .unwrap()
            .soa_eligible());

        // The same array touched from a second table disqualifies.
        let mut two_tables = program.clone();
        let bump2 = Action::nop("bump2").call(StatefulCall {
            array: RegArrayId(0),
            index: Operand::Const(0),
            cond: SaluCond::Always,
            on_true: SaluUpdate::AddSat(Operand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: None,
        });
        two_tables.stages[1] = two_tables.stages[1]
            .clone()
            .table(Table::always("again", bump2));
        assert!(!CompiledSwitch::compile(&two_tables).unwrap().soa_eligible());
    }

    #[test]
    fn dead_store_elimination_drops_overwritten_stores() {
        let mut l = PhvLayout::new();
        let v = l.field("v", 32);
        let e = l.field("e", 8);
        let x = l.field("x", 8);
        // The FPISA extract idiom e = (v >> 10) & 0x1F reads its own
        // intermediate, so both ops stay. x = 1 then x = 5 — the first
        // store is dead.
        let a = Action::nop("extract")
            .prim(e, AluOp::ShrLogic, Operand::Field(v), Operand::Const(10))
            .prim(e, AluOp::And, Operand::Field(e), Operand::Const(0x1F))
            .prim(x, AluOp::Set, Operand::Const(1), Operand::Const(0))
            .prim(x, AluOp::Set, Operand::Const(5), Operand::Const(0));
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![Stage::new().table(Table::always("t", a))],
            arrays: vec![],
            recirc_field: None,
        };
        let cs = CompiledSwitch::compile(&program).unwrap();
        let stats = cs.fusion_stats();
        assert_eq!(stats.original_ops, 4);
        assert_eq!(stats.dead_stores, 1);
        assert_eq!(stats.tape_ops, 3);
        // And the shortened tape is still bit-for-bit the interpreter.
        for vv in [0u64, 0xFFFF_FFFF, 0x0003_FC00, 0xDEAD_BEEF] {
            let p = run_both(&program, |p| p.set(v, vv));
            assert_eq!(p.get(e), (vv >> 10) & 0x1F);
            assert_eq!(p.get(x), 5);
        }
    }

    const ALU_OPS: [AluOp; 15] = [
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

    /// Both sides of every edge a narrow-eligibility rule has — the `i32`
    /// and `u32` ranges, zero — and shift counts around both lane widths.
    const EDGE_CONSTS: [i64; 14] = [
        i32::MIN as i64 - 1,
        i32::MIN as i64,
        -8,
        -1,
        0,
        5,
        31,
        32,
        63,
        64,
        i32::MAX as i64,
        i32::MAX as i64 + 1,
        u32::MAX as i64,
        u32::MAX as i64 + 1,
    ];

    /// The test's own statement of the per-op rule: whether `op` with the
    /// constant `c` as its left (or else right) operand against a field is
    /// exact in 32-bit lanes.
    fn expect_narrow(op: AluOp, c: i64, left: bool) -> bool {
        let (i32s, u32s) = (i32::MIN as i64..=i32::MAX as i64, 0..=u32::MAX as i64);
        match op {
            AluOp::ShrLogic | AluOp::ShrArith => !left || (0..=i32::MAX as i64).contains(&c),
            AluOp::CmpEq | AluOp::CmpNe => u32s.contains(&c),
            AluOp::CmpLt | AluOp::CmpLe | AluOp::CmpGt | AluOp::CmpGe => i32s.contains(&c),
            _ => true,
        }
    }

    /// How a directed narrow-rule program lays out its primitives. Every
    /// two-action shape runs a divergent batch as masked per-action sweeps.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        /// One action for every lane: the uniform sweeps.
        Uniform,
        /// Two actions of one op skeleton, differing in their constants.
        SameOps,
        /// Two actions of different lengths.
        Masked,
        /// One skeleton again, but the second action runs another op (a
        /// shift another shift).
        MixedOps,
    }

    /// `op` over every field∘constant, constant∘field and field∘field
    /// pairing of a 32-bit field `x`, a 12-bit field `z` (whose sign bit is
    /// not the word's), a second 32-bit field and an 8-bit shift count,
    /// with every [`EDGE_CONSTS`] value, each result in its own field.
    /// `widest` sizes one unused field: 33 puts the layout on `u64`.
    /// Returns the program, its input fields `[k, x, y, z, cnt]` and how
    /// many of its tape ops must take the narrow kernel.
    fn edge_program(op: AluOp, shape: Shape, widest: u32) -> (SwitchProgram, [FieldId; 5], usize) {
        let mut l = PhvLayout::new();
        let k = l.field("k", 1);
        let x = l.field("x", 32);
        let y = l.field("y", 32);
        let z = l.field("z", 12);
        let cnt = l.field("cnt", 8);
        l.field("unused", widest);
        let mut narrow = 0usize;
        // `shift` moves every constant to its neighbour in the edge list:
        // the second action of a `SameOps` pair.
        let mut action = |name: &str, op: AluOp, shift: usize, l: &mut PhvLayout| {
            let mut a = Action::nop(name);
            let mut n = 0usize;
            let mut push = |a: Action, l: &mut PhvLayout, lhs: Operand, rhs: Operand| {
                n += 1;
                // Destinations of every width class, masks included.
                let bits = [32, 9, 1][n % 3];
                let dst = l
                    .lookup(&format!("d{n}"))
                    .unwrap_or_else(|| l.field(format!("d{n}"), bits));
                a.prim(dst, op, lhs, rhs)
            };
            for fld in [x, z] {
                for i in 0..EDGE_CONSTS.len() {
                    let c = EDGE_CONSTS[(i + shift) % EDGE_CONSTS.len()];
                    a = push(a, l, Operand::Field(fld), Operand::Const(c));
                    a = push(a, l, Operand::Const(c), Operand::Field(fld));
                    narrow += usize::from(expect_narrow(op, c, false));
                    narrow += usize::from(expect_narrow(op, c, true));
                }
                a = push(a, l, Operand::Field(fld), Operand::Field(y));
                a = push(a, l, Operand::Field(fld), Operand::Field(cnt));
                a = push(a, l, Operand::Field(y), Operand::Field(fld));
                narrow += 3;
            }
            a
        };
        let first = action("first", op, 0, &mut l);
        let table = match shape {
            Shape::Uniform => Table::always("edges", first),
            Shape::SameOps | Shape::Masked | Shape::MixedOps => {
                // The next op, staying among the three shifts from a shift.
                let at = ALU_OPS.iter().position(|&o| o == op).unwrap();
                let next = match op {
                    AluOp::Shl | AluOp::ShrLogic | AluOp::ShrArith => ALU_OPS[6 + (at - 5) % 3],
                    _ => ALU_OPS[(at + 1) % ALU_OPS.len()],
                };
                let op2 = if shape == Shape::MixedOps { next } else { op };
                let mut second = action("second", op2, 1, &mut l);
                if shape == Shape::Masked {
                    second = second.prim(y, AluOp::Xor, Operand::Field(y), Operand::Const(-1));
                    narrow += 1;
                }
                Table::keyed(
                    "edges",
                    vec![(k, MatchKind::Exact)],
                    vec![first, second],
                    None,
                )
                .entry(vec![KeyMatch::Exact(0)], 0, 0)
                .entry(vec![KeyMatch::Exact(1)], 0, 1)
            }
        };
        let program = SwitchProgram {
            caps: SwitchCaps {
                phv_bits: 1 << 16,
                ..SwitchCaps::fpisa_extended()
            },
            layout: l,
            stages: vec![Stage::new().table(table)],
            arrays: vec![],
            recirc_field: None,
        };
        (program, [k, x, y, z, cnt], narrow)
    }

    /// Run a batch through the interpreter packet by packet and through
    /// `run_lanes` on columns of `lane_bits`: every field of every lane
    /// must agree. Returns the first table's dispatch counts.
    fn check_lanes(
        label: &str,
        program: &SwitchProgram,
        phvs: &[Phv],
        lane_bits: u32,
    ) -> DispatchCounts {
        let mut sw = Switch::new(program.clone()).unwrap();
        let mut want = phvs.to_vec();
        for p in &mut want {
            sw.run(p).unwrap();
        }
        let mut cs = CompiledSwitch::compile(program).unwrap();
        assert!(cs.soa_eligible());
        let mut lanes = BatchLanes::with_lane_bits(&program.layout, phvs.len(), lane_bits);
        lanes.load(phvs);
        cs.run_lanes(&mut lanes).unwrap();
        let mut got = phvs.to_vec();
        lanes.store(&mut got, phvs.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            for (id, spec) in program.layout.iter() {
                let (g, w) = (g.get(id), w.get(id));
                assert_eq!(g, w, "{label} / u{lane_bits} / lane {i} / {}", spec.name);
            }
        }
        assert_eq!(cs.register_state(), sw.register_state(), "{label}");
        cs.dispatch_counts()[0]
    }

    /// Every narrow-eligibility rule, at its edges, against the
    /// interpreter: each op × each edge constant on either side × field
    /// widths 32 and 12 × the uniform sweeps and masked sweeps over three
    /// two-action shapes × lane counts around the 16-lane chunk, on the
    /// layout's own `u32` columns, on `u64` columns forced under the same
    /// program, and on a layout a 33-bit field makes wide. The
    /// narrow/widened split and the Phase B arm are pinned too, so a rule
    /// can be neither too bold (a lane disagrees) nor too shy (the count
    /// drops).
    #[test]
    fn narrow_lane_rules_hold_at_their_edges() {
        const VALUES: [u64; 8] = [
            0,
            1,
            5,
            0x7FFF_FFFF,
            0x8000_0000,
            0x8000_0001,
            0xFFFF_FFFE,
            0xFFFF_FFFF,
        ];
        const COUNTS: [u64; 8] = [0, 1, 31, 32, 33, 63, 64, 200];
        for op in ALU_OPS {
            for shape in [
                Shape::Uniform,
                Shape::SameOps,
                Shape::Masked,
                Shape::MixedOps,
            ] {
                for widest in [32u32, 33] {
                    let (program, [k, x, y, z, cnt], narrow) = edge_program(op, shape, widest);
                    program.validate().expect("directed program must validate");
                    let cs = CompiledSwitch::compile(&program).unwrap();
                    let stats = cs.fusion_stats();
                    let label = format!("{op:?} / {shape:?} / widest field {widest}");
                    if widest == 32 {
                        assert_eq!(stats.lane_bits, 32, "{label}");
                        assert_eq!(stats.narrow_ops, narrow, "{label}");
                        assert_eq!(stats.widened_ops, stats.tape_ops - narrow, "{label}");
                    } else {
                        // Nothing to narrow, nothing to widen.
                        assert_eq!(
                            (stats.lane_bits, stats.narrow_ops, stats.widened_ops),
                            (64, 0, 0),
                            "{label}"
                        );
                    }
                    for n in [1usize, 15, 16, 17, 255] {
                        let phvs: Vec<Phv> = (0..n)
                            .map(|i| {
                                let mut p = Phv::new(&program.layout);
                                p.set(k, i as u64 % 2);
                                p.set(x, VALUES[i % 8]);
                                p.set(y, VALUES[(i / 8) % 8]);
                                p.set(z, VALUES[(i + i / 8) % 8]);
                                p.set(cnt, COUNTS[(i / 3) % 8]);
                                p
                            })
                            .collect();
                        let label = format!("{label} / {n} lanes");
                        // Phase B `(uniform, masked, walk)`: one lane has
                        // one action; more lanes alternate two.
                        let arm = if shape == Shape::Uniform || n == 1 {
                            (1, 0, 0)
                        } else {
                            (0, 1, 0)
                        };
                        for lane_bits in [stats.lane_bits, 64] {
                            let c = check_lanes(&label, &program, &phvs, lane_bits);
                            assert_eq!((c.uniform, c.masked, c.walk), arm, "{label}");
                        }
                    }
                }
            }
        }
    }

    /// `next_run` against the scalar definition of a maximal ascending
    /// run, walking whole columns on both lane words: every `(len, true)`
    /// must be exactly the maximal run at that lane, every `(len, false)`
    /// must cover only lanes that start one-lane runs.
    #[test]
    fn next_run_walks_a_column_by_its_maximal_runs() {
        fn check<W: LaneWord>(col: &[u64]) {
            let lanes: Vec<W> = col.iter().map(|&v| W::narrow(v)).collect();
            let up = |k: usize| k + 1 < col.len() && col[k] + 1 == col[k + 1];
            let mut i = 0;
            while i < lanes.len() {
                let (len, run) = next_run(&lanes[i..]);
                assert!(len >= 1 && i + len <= lanes.len(), "{col:?} at {i}");
                if run {
                    let want = 1 + (i..).take_while(|&k| up(k)).count();
                    assert_eq!(len, want, "run at lane {i} of {col:?}");
                } else {
                    assert!((i..i + len).all(|k| !up(k)), "singles at {i} of {col:?}");
                }
                i += len;
            }
        }
        // A small deterministic generator: pieces of 1..40 lanes, each an
        // ascending run, a constant, a descent or a stride-2 climb.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..400 {
            let mut col: Vec<u64> = Vec::new();
            for _ in 0..next(8) + 1 {
                let (first, len, shape) = (next(1000) + 100, next(40) + 1, next(5));
                col.extend((0..len).map(|k| match shape {
                    0 | 1 => first + k,
                    2 => first,
                    3 => first - k,
                    _ => first + 2 * k,
                }));
            }
            check::<u32>(&col);
            check::<u64>(&col);
        }
        check::<u32>(&[5]);
        check::<u64>(&(0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn compile_rejects_invalid_programs_like_the_interpreter() {
        let mut l = PhvLayout::new();
        let x = l.field("x", 32);
        let shl = Action::nop("shl").prim(x, AluOp::Shl, Operand::Field(x), Operand::Field(x));
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![Stage::new().table(Table::always("shl", shl))],
            arrays: vec![],
            recirc_field: None,
        };
        let want = program.validate().unwrap_err();
        let got = CompiledSwitch::compile(&program).unwrap_err();
        assert_eq!(got, want);
        assert!(matches!(got, ProgramError::MetadataShiftUnsupported { .. }));
    }
}
