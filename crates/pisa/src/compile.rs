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
//! for each table, resolve the action of every packet (Phase A: gates
//! evaluated batch-wide first, so a table no packet can match is skipped
//! without touching its matcher), run the primitives (Phase B), then the
//! stateful calls (Phase C). Phase B has exactly three arms:
//!
//! 1. **uniform** — the whole batch resolved to one action: the tape runs
//!    *instruction-major*, each op streaming across all lanes through the
//!    eight-wide chunk kernels ([`LANE_CHUNK`]);
//! 2. **selector** — a divergent batch on a table whose actions all share
//!    one op skeleton (the FPISA shift tables): one gathered sweep per
//!    template position, each lane fetching its own op and constants;
//! 3. **per-packet** — any other divergent batch walks each packet's tape
//!    over strided lane views — same code as the scalar engine.
//!
//! Phase C always applies in packet order, after a bounds pre-scan, so
//! per-slot update order (and thus every register value, SALU output and
//! fault) is bit-for-bit the per-packet engine's.
//!
//! The SoA mode is only entered for programs where table-major order is
//! observably identical to packet-major order (see
//! [`CompiledSwitch::soa_eligible`]): no recirculation, each register
//! array touched from at most one table, at most one stateful call per
//! action. Everything else — and every scalar entry point — takes the
//! per-packet path unchanged.
//!
//! ## Dead-store elimination
//!
//! Lowering runs one peephole pass over each action's primitive tape: a
//! store overwritten by the next op before anyone reads it is dropped.
//! An op's only effect is its destination store, so results are
//! bit-for-bit unchanged. [`CompiledSwitch::fusion_stats`] reports the
//! counts.

use crate::action::{AluOp, Operand, Primitive};
use crate::analysis::{AnalysisLevel, AnalysisReport};
use crate::phv::{BatchLanes, FieldId, Phv, PhvLayout};
use crate::register::{
    ArrayMeta, CmpOp, RegArrayId, RegisterState, SaluCond, SaluOutput, SaluUpdate,
};
use crate::switch::{ProgramError, RuntimeError, Switch, SwitchProgram};
use crate::table::{KeyMatch, Table};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// What [`CompiledSwitch::compile_with`] can reject a program for:
/// structural invalidity (the classic builder errors) or, under
/// [`AnalysisLevel::Deny`], a static-analysis report carrying errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The program failed [`SwitchProgram::validate`].
    Program(ProgramError),
    /// The analyzer found error-severity diagnostics; the full report is
    /// attached so every finding can be surfaced, not just the first.
    Analysis(Box<AnalysisReport>),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Program(e) => write!(f, "invalid program: {e}"),
            CompileError::Analysis(report) => {
                write!(f, "static analysis rejected the program: {report}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ProgramError> for CompileError {
    fn from(e: ProgramError) -> Self {
        CompileError::Program(e)
    }
}

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

/// One pre-sorted non-exact entry: patterns aligned with the table's key
/// fields.
#[derive(Debug, Clone)]
struct ScanEntry {
    cand: Cand,
    pats: Box<[KeyMatch]>,
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
    PackedHash {
        map: KeyMap<u64>,
        scan: Box<[ScanEntry]>,
    },
    /// Exact entries over a key tuple wider than 64 bits.
    WideHash {
        map: KeyMap<Box<[u64]>>,
        scan: Box<[ScanEntry]>,
    },
    /// No exact entries at all: just the pre-sorted scan.
    Scan(Box<[ScanEntry]>),
}

/// One lowered table: key fields (with pre-computed packing shifts), the
/// match gate, the matcher, and the default action.
#[derive(Debug, Clone)]
struct CompiledTable {
    /// PHV indices of the key fields.
    key_fields: Box<[u16]>,
    /// Left-shift of each key field inside the packed `u64` key (valid
    /// when the total key width ≤ 64).
    key_shifts: Box<[u32]>,
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
    /// Whether batch execution should test the key columns for
    /// uniformity before per-packet matching. Set (after the whole
    /// program is lowered) only when no action anywhere writes any of
    /// this table's key fields: such keys arrive uniform whenever the
    /// caller's batch is single-op (the common agg workload), while a
    /// key touched by any action diverges by construction and the scan
    /// would be pure overhead.
    scan_uniform: bool,
    /// Split-key LUT dispatch (see [`SplitKey`]): set when some key
    /// fields are action-written but their total width is tiny.
    split: Option<SplitKey>,
    /// Selected-constant dispatch (see [`SelectorTape`]): set when every
    /// action of this table runs the same op skeleton, with per-action
    /// ops/constants gathered at dispatch — the divergent-batch fast
    /// path for shift tables.
    selector: Option<SelectorTape>,
}

/// Widest combined varying-key width (bits) for which
/// `CompiledTable::lookup_lanes` dispatches through a per-batch action
/// LUT instead of per-packet matching: 2^6 × u32 = 256 bytes on the
/// stack, rebuilt per batch whenever the batch has at least as many
/// lanes as the LUT has entries.
const SPLIT_LUT_BITS: u32 = 6;

/// Split-key dispatch plan for a table whose key tuple mixes *stable*
/// fields (never written by any action — an opcode) with a few bits of
/// *varying* fields (computed per packet — a compare outcome, a sign).
/// When the stable columns are batch-uniform, the matcher outcome is a
/// function of just the varying bits: enumerate all `2^width` combos once
/// through the scalar lookup into a tiny action LUT, then resolve every
/// lane with one shift/or + indexed load — no gate evaluation, key
/// packing, or matcher probe in the packet loop.
#[derive(Debug, Clone)]
struct SplitKey {
    /// Key fields no action writes; checked for batch uniformity at
    /// runtime (vacuously uniform when empty).
    stable: Box<[u16]>,
    /// `(field, shift, field mask)` of each action-written key field
    /// inside the compact LUT index.
    varying: Box<[(u16, u32, u64)]>,
    /// Total varying width; LUT has `1 << width` entries
    /// (≤ [`SPLIT_LUT_BITS`]).
    width: u32,
}

impl CompiledTable {
    /// The key tuple packed into one `u64` (total key width ≤ 64 bits).
    /// `vals` is a strided value store: field `f` of the packet at hand
    /// lives at `f * stride + lane` (a scalar PHV slice is `stride == 1`,
    /// `lane == 0`; a [`BatchLanes`] column buffer is `stride == cap`,
    /// `lane == i`).
    #[inline]
    fn packed_key(&self, vals: &[u64], stride: usize, lane: usize) -> u64 {
        let mut key = 0u64;
        for (&f, &s) in self.key_fields.iter().zip(self.key_shifts.iter()) {
            key |= vals[f as usize * stride + lane] << s;
        }
        key
    }

    /// First (= best, thanks to the pre-sort) matching scan entry.
    #[inline]
    fn scan_hit<'a>(
        &self,
        scan: &'a [ScanEntry],
        vals: &[u64],
        stride: usize,
        lane: usize,
    ) -> Option<&'a Cand> {
        scan.iter()
            .find(|e| {
                e.pats
                    .iter()
                    .zip(self.key_fields.iter())
                    .all(|(pat, &f)| pat.matches(vals[f as usize * stride + lane]))
            })
            .map(|e| &e.cand)
    }

    /// The interpreter's `Table::lookup`, against the lowered form.
    #[inline]
    fn lookup(
        &self,
        vals: &[u64],
        stride: usize,
        lane: usize,
        keybuf: &mut Vec<u64>,
    ) -> Option<u32> {
        for g in self.gate.iter() {
            if vals[g.field as usize * stride + lane] & g.mask != g.val {
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
            Matcher::PackedHash { map, scan } => {
                let exact = map.get(&self.packed_key(vals, stride, lane));
                match (exact, self.scan_hit(scan, vals, stride, lane)) {
                    (None, None) => None,
                    (Some(c), None) | (None, Some(c)) => Some(c.action),
                    (Some(e), Some(s)) => Some(if s.beats(e) { s.action } else { e.action }),
                }
            }
            Matcher::WideHash { map, scan } => {
                keybuf.clear();
                keybuf.extend(
                    self.key_fields
                        .iter()
                        .map(|&f| vals[f as usize * stride + lane]),
                );
                let exact = map.get(keybuf.as_slice());
                match (exact, self.scan_hit(scan, vals, stride, lane)) {
                    (None, None) => None,
                    (Some(c), None) | (None, Some(c)) => Some(c.action),
                    (Some(e), Some(s)) => Some(if s.beats(e) { s.action } else { e.action }),
                }
            }
            Matcher::Scan(scan) => self.scan_hit(scan, vals, stride, lane).map(|c| c.action),
        };
        hit.or(self.default_action)
    }

    /// Whether every key field holds the same value in all `n` live
    /// lanes. Both the gate and the matcher read *only* key fields, so a
    /// uniform key tuple means every lane resolves identically and one
    /// scalar [`Self::lookup`] answers for the whole batch.
    #[inline]
    fn keys_uniform(&self, buf: &[u64], cap: usize, n: usize) -> bool {
        cols_uniform(buf, cap, n, &self.key_fields)
    }

    /// Batch lookup: resolve `act_of[i]` for every live lane, with the
    /// per-table work hoisted out of the packet loop — when the key
    /// columns are batch-uniform a single scalar lookup resolves every
    /// lane, otherwise gates are evaluated batch-wide first (a table no
    /// live packet can match short-circuits to the default without
    /// touching the matcher at all, which is what makes op-dispatched
    /// programs cheap in batch mode: an ADD batch skips every READ-only
    /// table in one pass over the op lane), and the matcher dispatch
    /// happens once per table instead of once per packet.
    ///
    /// `act_of[i]` is the resolved action index, or [`MISS`] when neither
    /// an entry nor a default applies. Returns `Some(a)` when the whole
    /// batch is known to have resolved to the single action `a` (`act_of`
    /// is still filled), letting the caller skip its own uniformity scan.
    #[allow(clippy::too_many_arguments)] // one call site; all are reused scratch
    fn lookup_lanes(
        &self,
        buf: &[u64],
        cap: usize,
        n: usize,
        act_of: &mut [u32],
        pass: &mut [bool],
        keybuf: &mut Vec<u64>,
        row: &mut [u64],
    ) -> Option<u32> {
        let dflt = self.default_action.unwrap_or(MISS);
        if let Matcher::Const(a) = &self.matcher {
            let a = a.unwrap_or(dflt);
            act_of[..n].fill(a);
            return Some(a);
        }
        if self.scan_uniform && self.keys_uniform(buf, cap, n) {
            let a = self.lookup(buf, cap, 0, keybuf).unwrap_or(MISS);
            act_of[..n].fill(a);
            return Some(a);
        }
        if let Some(s) = &self.split {
            let m = 1usize << s.width;
            if n >= m && cols_uniform(buf, cap, n, &s.stable) {
                // Enumerate the varying-bit combos through the scalar
                // lookup (stable fields seeded from lane 0), then resolve
                // each lane with one indexed load.
                for &f in s.stable.iter() {
                    row[f as usize] = buf[f as usize * cap];
                }
                let mut stack_lut = [MISS; 1 << SPLIT_LUT_BITS];
                let lut = &mut stack_lut[..m];
                let mut first_a = MISS;
                let mut all_same = true;
                for (combo, slot) in lut.iter_mut().enumerate() {
                    for &(f, sh, fmask) in s.varying.iter() {
                        row[f as usize] = (combo as u64 >> sh) & fmask;
                    }
                    let a = self.lookup(row, 1, 0, keybuf).unwrap_or(MISS);
                    *slot = a;
                    if combo == 0 {
                        first_a = a;
                    } else {
                        all_same &= a == first_a;
                    }
                }
                if all_same {
                    act_of[..n].fill(first_a);
                    return Some(first_a);
                }
                let idx_mask = m - 1;
                for (i, a) in act_of.iter_mut().enumerate().take(n) {
                    let mut combo = 0usize;
                    for &(f, sh, _) in s.varying.iter() {
                        combo |= (buf[f as usize * cap + i] as usize) << sh;
                    }
                    *a = lut[combo & idx_mask];
                }
                return None;
            }
        }
        let gated = !self.gate.is_empty();
        if gated {
            let mut any = false;
            for (i, p) in pass.iter_mut().enumerate().take(n) {
                let mut ok = true;
                for g in self.gate.iter() {
                    ok &= buf[g.field as usize * cap + i] & g.mask == g.val;
                }
                *p = ok;
                any |= ok;
            }
            if !any {
                act_of[..n].fill(dflt);
                return Some(dflt);
            }
        }
        match &self.matcher {
            // Unreachable (handled above), kept for match completeness.
            Matcher::Const(a) => act_of[..n].fill(a.unwrap_or(dflt)),
            Matcher::Dense(slots) => {
                for (i, a) in act_of.iter_mut().enumerate().take(n) {
                    let hit = slots[self.packed_key(buf, cap, i) as usize];
                    *a = if hit == MISS { dflt } else { hit };
                }
            }
            Matcher::DenseKeyed { mask, slots } => {
                for (i, a) in act_of.iter_mut().enumerate().take(n) {
                    if gated && !pass[i] {
                        *a = dflt;
                        continue;
                    }
                    let key = self.packed_key(buf, cap, i);
                    let (k, hit) = slots[(key & mask) as usize];
                    *a = if hit != MISS && k == key { hit } else { dflt };
                }
            }
            Matcher::PackedHash { map, scan } => {
                for (i, a) in act_of.iter_mut().enumerate().take(n) {
                    if gated && !pass[i] {
                        *a = dflt;
                        continue;
                    }
                    let exact = map.get(&self.packed_key(buf, cap, i));
                    let hit = match (exact, self.scan_hit(scan, buf, cap, i)) {
                        (None, None) => None,
                        (Some(c), None) | (None, Some(c)) => Some(c.action),
                        (Some(e), Some(s)) => Some(if s.beats(e) { s.action } else { e.action }),
                    };
                    *a = hit.unwrap_or(dflt);
                }
            }
            Matcher::WideHash { map, scan } => {
                for (i, a) in act_of.iter_mut().enumerate().take(n) {
                    if gated && !pass[i] {
                        *a = dflt;
                        continue;
                    }
                    keybuf.clear();
                    keybuf.extend(self.key_fields.iter().map(|&f| buf[f as usize * cap + i]));
                    let exact = map.get(keybuf.as_slice());
                    let hit = match (exact, self.scan_hit(scan, buf, cap, i)) {
                        (None, None) => None,
                        (Some(c), None) | (None, Some(c)) => Some(c.action),
                        (Some(e), Some(s)) => Some(if s.beats(e) { s.action } else { e.action }),
                    };
                    *a = hit.unwrap_or(dflt);
                }
            }
            Matcher::Scan(scan) => {
                for (i, a) in act_of.iter_mut().enumerate().take(n) {
                    if gated && !pass[i] {
                        *a = dflt;
                        continue;
                    }
                    *a = self
                        .scan_hit(scan, buf, cap, i)
                        .map(|c| c.action)
                        .unwrap_or(dflt);
                }
            }
        }
        None
    }
}

/// Whether every listed field's column holds one value across all `n`
/// live lanes. Lane-major with an early exit: data-dependent columns
/// diverge within the first lane or two, so a miss costs a handful of
/// compares, while a hit costs `fields × n` compares — far cheaper than
/// `n` matcher probes.
#[inline]
fn cols_uniform(buf: &[u64], cap: usize, n: usize, fields: &[u16]) -> bool {
    for i in 1..n {
        for &f in fields {
            let base = f as usize * cap;
            if buf[base + i] != buf[base] {
                return false;
            }
        }
    }
    true
}

/// One lowered action: ranges into the shared primitive and stateful op
/// tapes.
#[derive(Debug, Clone, Copy)]
struct CompiledAction {
    prims: (u32, u32),
    stateful: (u32, u32),
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
    fn raw(&self, vals: &[u64], stride: usize, lane: usize) -> u64 {
        match *self {
            CompiledOperand::Field { idx, .. } => vals[idx as usize * stride + lane],
            CompiledOperand::Const(c) => c as u64,
        }
    }

    #[inline]
    fn signed(&self, vals: &[u64], stride: usize, lane: usize) -> i64 {
        match *self {
            CompiledOperand::Field { idx, sx } => {
                ((vals[idx as usize * stride + lane] << sx) as i64) >> sx
            }
            CompiledOperand::Const(c) => c,
        }
    }

    /// Fill one [`LANE_CHUNK`]-wide chunk of raw operand values starting
    /// at lane `i0` — the load half of the chunk kernels, through a raw
    /// column-buffer pointer because a per-lane bounds check would defeat
    /// vectorization. A field operand copies a contiguous run of its
    /// column; a constant splats.
    ///
    /// # Safety
    /// `base` must point to a live column buffer of at least
    /// `layout_fields × cap` values for the layout this operand was
    /// lowered against, and `i0 + LANE_CHUNK <= cap`.
    #[inline(always)]
    unsafe fn load_chunk(&self, base: *const u64, cap: usize, i0: usize, out: &mut Chunk) {
        match *self {
            CompiledOperand::Field { idx, .. } => {
                let p = unsafe { base.add(idx as usize * cap + i0) };
                for (k, o) in out.iter_mut().enumerate() {
                    *o = unsafe { *p.add(k) };
                }
            }
            CompiledOperand::Const(c) => out.fill(c as u64),
        }
    }

    /// The sign-extension shift the chunk kernels apply to this operand's
    /// *raw* values to recover the signed view. A constant already is its
    /// signed value bit-for-bit in 64 bits, so its shift is zero.
    #[inline]
    fn sx_shift(&self) -> u32 {
        match *self {
            CompiledOperand::Field { sx, .. } => sx,
            CompiledOperand::Const(_) => 0,
        }
    }

    /// Debug-build check that this operand's column fits a buffer of
    /// `len` values laid out as `cap`-sized columns with lanes `0..n`.
    fn column_in_bounds(&self, cap: usize, n: usize, len: usize) -> bool {
        match *self {
            CompiledOperand::Field { idx, .. } => idx as usize * cap + n <= len,
            CompiledOperand::Const(_) => true,
        }
    }

    /// Whether this operand reads PHV field `dst` (the dead-store pass's
    /// data-dependence check; see [`drop_dead_stores`]).
    #[inline]
    fn reads(&self, dst: u32) -> bool {
        matches!(*self, CompiledOperand::Field { idx, .. } if idx == dst)
    }
}

/// Mirror of [`Primitive::execute`]'s ALU over already-fetched operand
/// values, raw and sign-extended views both supplied (unmasked result;
/// callers apply the destination mask).
#[inline(always)]
fn apply_alu(op: AluOp, araw: u64, asig: i64, braw: u64, bsig: i64) -> u64 {
    match op {
        AluOp::Set => araw,
        AluOp::Add => araw.wrapping_add(braw),
        AluOp::Sub => araw.wrapping_sub(braw),
        AluOp::And => araw & braw,
        AluOp::Or => araw | braw,
        AluOp::Xor => araw ^ braw,
        AluOp::Shl => {
            if braw >= 64 {
                0
            } else {
                araw << braw
            }
        }
        AluOp::ShrLogic => {
            if braw >= 64 {
                0
            } else {
                araw >> braw
            }
        }
        AluOp::ShrArith => (asig >> braw.min(63)) as u64,
        AluOp::CmpEq => (araw == braw) as u64,
        AluOp::CmpNe => (araw != braw) as u64,
        AluOp::CmpLt => (asig < bsig) as u64,
        AluOp::CmpLe => (asig <= bsig) as u64,
        AluOp::CmpGt => (asig > bsig) as u64,
        AluOp::CmpGe => (asig >= bsig) as u64,
    }
}

/// Vector width of the chunk lane kernels, in lanes. Eight u64
/// lanes are one cache line — a full AVX-512 register, two AVX2
/// registers, four SSE2 registers — so every fixed-size loop below
/// lowers to whole vector ops at any x86-64 feature level.
pub const LANE_CHUNK: usize = 8;

/// One fixed-width vector of lanes. Kept as a plain array: the kernels
/// load operands into `Chunk` locals *before* storing to the destination
/// column, which both removes the aliasing hazard (all columns share one
/// buffer, so the compiler cannot prove a plain lane loop's loads and
/// stores disjoint) and hands LLVM loops of a known constant trip count
/// it will happily unroll into vector instructions.
type Chunk = [u64; LANE_CHUNK];

/// The ALU over one chunk of already-loaded *raw* operand values — the
/// compute half of the chunk kernels. `asx`/`bsx` are the operands'
/// sign-extension shifts ([`CompiledOperand::sx_shift`]); arms that only
/// need the raw view ignore them. Every arm is branchless per lane
/// (shift guards become masks, compares become `as u64`), bit-for-bit
/// matching [`apply_alu`].
#[inline(always)]
fn alu_chunk(op: AluOp, ar: &Chunk, asx: u32, br: &Chunk, bsx: u32, out: &mut Chunk) {
    #[inline(always)]
    fn sext(raw: u64, sx: u32) -> i64 {
        ((raw << sx) as i64) >> sx
    }
    macro_rules! k {
        (|$i:ident| $e:expr) => {
            for $i in 0..LANE_CHUNK {
                out[$i] = $e;
            }
        };
    }
    match op {
        AluOp::Set => k!(|i| ar[i]),
        AluOp::Add => k!(|i| ar[i].wrapping_add(br[i])),
        AluOp::Sub => k!(|i| ar[i].wrapping_sub(br[i])),
        AluOp::And => k!(|i| ar[i] & br[i]),
        AluOp::Or => k!(|i| ar[i] | br[i]),
        AluOp::Xor => k!(|i| ar[i] ^ br[i]),
        // `d >= 64 → 0` without a branch: shift by `d & 63` (total on
        // u64), then mask the lane to zero when `d` was out of range.
        AluOp::Shl => k!(|i| {
            let d = br[i];
            (ar[i] << (d & 63)) & 0u64.wrapping_sub(u64::from(d < 64))
        }),
        AluOp::ShrLogic => k!(|i| {
            let d = br[i];
            (ar[i] >> (d & 63)) & 0u64.wrapping_sub(u64::from(d < 64))
        }),
        AluOp::ShrArith => k!(|i| (sext(ar[i], asx) >> br[i].min(63)) as u64),
        AluOp::CmpEq => k!(|i| (ar[i] == br[i]) as u64),
        AluOp::CmpNe => k!(|i| (ar[i] != br[i]) as u64),
        AluOp::CmpLt => k!(|i| (sext(ar[i], asx) < sext(br[i], bsx)) as u64),
        AluOp::CmpLe => k!(|i| (sext(ar[i], asx) <= sext(br[i], bsx)) as u64),
        AluOp::CmpGt => k!(|i| (sext(ar[i], asx) > sext(br[i], bsx)) as u64),
        AluOp::CmpGe => k!(|i| (sext(ar[i], asx) >= sext(br[i], bsx)) as u64),
    }
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
}

impl CompiledPrim {
    /// Mirror of [`Primitive::execute`] over pre-resolved offsets.
    #[inline]
    fn execute(&self, vals: &mut [u64], stride: usize, lane: usize) {
        let out = apply_alu(
            self.op,
            self.a.raw(vals, stride, lane),
            self.a.signed(vals, stride, lane),
            self.b.raw(vals, stride, lane),
            self.b.signed(vals, stride, lane),
        );
        vals[self.dst as usize * stride + lane] = out & self.dst_mask;
    }

    /// Instruction-major batch execution: this one op across `n` lanes.
    /// Both operands are loaded into [`LANE_CHUNK`]-wide locals, the ALU
    /// runs branchless over the chunk ([`alu_chunk`]), and the masked
    /// result is stored contiguously — with a scalar tail for the last
    /// `n % LANE_CHUNK` lanes. Loading a whole chunk *before* the store
    /// keeps a destination column that aliases an operand column correct:
    /// primitives read and write only their own lane, so the only hazard
    /// is within a lane, and the load always precedes the store for every
    /// lane of the chunk.
    fn execute_lanes(&self, buf: &mut [u64], cap: usize, n: usize) {
        let d0 = self.dst as usize * cap;
        debug_assert!(d0 + n <= buf.len());
        debug_assert!(n <= cap, "lane count {n} exceeds column capacity {cap}");
        debug_assert!(self.a.column_in_bounds(cap, n, buf.len()));
        debug_assert!(self.b.column_in_bounds(cap, n, buf.len()));
        let mask = self.dst_mask;
        let (asx, bsx) = (self.a.sx_shift(), self.b.sx_shift());
        let base = buf.as_mut_ptr();
        let mut ar: Chunk = [0; LANE_CHUNK];
        let mut br: Chunk = [0; LANE_CHUNK];
        let mut ov: Chunk = [0; LANE_CHUNK];
        let mut i0 = 0;
        while i0 + LANE_CHUNK <= n {
            // SAFETY: the debug-asserted column invariant above — every
            // access lands inside `buf`'s `cap`-sized columns for lanes
            // `i0..i0 + LANE_CHUNK ≤ n`.
            unsafe {
                self.a.load_chunk(base, cap, i0, &mut ar);
                self.b.load_chunk(base, cap, i0, &mut br);
                alu_chunk(self.op, &ar, asx, &br, bsx, &mut ov);
                let d = base.add(d0 + i0);
                for (k, &o) in ov.iter().enumerate() {
                    *d.add(k) = o & mask;
                }
            }
            i0 += LANE_CHUNK;
        }
        for i in i0..n {
            self.execute(buf, cap, i);
        }
    }
}

/// Selected-constant dispatch for a divergent table whose actions all run
/// the *same* op skeleton. The canonical case is a shift table — dozens
/// of actions `dst = src << k` / `dst = src >> k`, one per alignment
/// delta — where a mixed-magnitude batch resolves to many distinct
/// actions and would otherwise collapse to per-packet tape walks. When
/// every non-empty action tape in a table is the same-length sequence of
/// primitives with matching destination and mask at each position, and
/// each operand position is either one shared operand or a
/// per-action `Const`, Phase B needs exactly one sweep per template
/// position: each lane *gathers its own op and constants* from per-action
/// tables indexed by its resolved action. Lanes that missed, or whose
/// action has an empty tape (a nop/skip arm), keep their destination
/// untouched — the same observable behaviour as not running the tape.
#[derive(Debug, Clone)]
struct SelectorTape {
    /// First global action index of the owning table: `act_of` holds
    /// global indices, the per-action tables below are table-relative.
    base: u32,
    /// Per action (table-relative): whether it runs the template tape.
    /// Empty-tape actions are inactive and behave like misses in Phase B.
    active: Box<[bool]>,
    /// The template ops, instruction-major (lane-local, so running each
    /// position across all lanes before the next preserves per-lane
    /// program order exactly as the uniform tape sweep does).
    ops: Box<[SelectorOp]>,
}

/// One operand position of a [`SelectorOp`]: shared by every action, or a
/// per-action constant gathered at dispatch time.
#[derive(Debug, Clone)]
enum SelOperand {
    /// One operand for all actions (a field column, or one shared const).
    Uniform(CompiledOperand),
    /// A `Const` per table-relative action index (raw `u64` with sign
    /// shift 0; `Const` operands already are their signed value
    /// bit-for-bit in 64 bits, so the `i64 → u64 → i64` roundtrip is
    /// bit-exact). Inactive rows hold 0 and are never observable.
    PerAction(Box<[u64]>),
}

impl SelOperand {
    /// The sign-extension shift the kernels apply to this operand's raw
    /// values (mirrors [`CompiledOperand::sx_shift`]; gathered constants
    /// need none).
    #[inline]
    fn sx_shift(&self) -> u32 {
        match self {
            SelOperand::Uniform(o) => o.sx_shift(),
            SelOperand::PerAction(_) => 0,
        }
    }

    /// Raw and signed views for one lane (`rel` is the lane's
    /// table-relative action; callers only use the result for live lanes,
    /// but any in-range `rel` is safe to read).
    #[inline(always)]
    fn raw_sig(&self, buf: &[u64], cap: usize, lane: usize, rel: usize) -> (u64, i64) {
        match self {
            SelOperand::Uniform(o) => (o.raw(buf, cap, lane), o.signed(buf, cap, lane)),
            SelOperand::PerAction(v) => {
                let x = v[rel];
                (x, x as i64)
            }
        }
    }

    /// Fill one chunk of raw operand values starting at lane `i0`: a
    /// uniform operand loads/splats as in [`CompiledOperand::load_chunk`];
    /// a per-action table gathers each lane's constant via `rel` (dead
    /// lanes carry row 0 — total, and masked out at the store).
    ///
    /// # Safety
    /// As [`CompiledOperand::load_chunk`]; `rel` entries must be in range
    /// for the per-action table.
    #[inline(always)]
    unsafe fn load_chunk(
        &self,
        base: *const u64,
        cap: usize,
        i0: usize,
        rel: &[usize; LANE_CHUNK],
        out: &mut Chunk,
    ) {
        match self {
            SelOperand::Uniform(o) => unsafe { o.load_chunk(base, cap, i0, out) },
            SelOperand::PerAction(v) => {
                for (o, &r) in out.iter_mut().zip(rel.iter()) {
                    *o = v[r];
                }
            }
        }
    }

    /// Debug-build bounds check (mirrors
    /// [`CompiledOperand::column_in_bounds`]).
    fn column_in_bounds(&self, cap: usize, n: usize, len: usize) -> bool {
        match self {
            SelOperand::Uniform(o) => o.column_in_bounds(cap, n, len),
            SelOperand::PerAction(_) => true,
        }
    }
}

/// How one [`SelectorOp`] position resolves its ALU op across actions.
#[derive(Debug, Clone)]
enum SelDispatch {
    /// Every active action runs the same op: one gathered
    /// [`alu_chunk`] sweep.
    Uniform(AluOp),
    /// Per-action ops drawn only from `{Shl, ShrLogic, ShrArith}` — the
    /// alignment-table case. Codes per table-relative action
    /// (0 = `Shl`, 1 = `ShrLogic`, 2 = `ShrArith`): the chunk kernel
    /// computes all three shifts branchlessly and selects by code.
    ShiftMix(Box<[u8]>),
    /// Arbitrary per-action ops: per-lane scalar ALU with gathered
    /// operands — still one sweep per position, no tape walks.
    Mixed(Box<[AluOp]>),
}

impl SelDispatch {
    /// The op one lane with table-relative action `rel` executes.
    #[inline(always)]
    fn op_for(&self, rel: usize) -> AluOp {
        match self {
            SelDispatch::Uniform(op) => *op,
            SelDispatch::ShiftMix(codes) => match codes[rel] {
                0 => AluOp::Shl,
                1 => AluOp::ShrLogic,
                _ => AluOp::ShrArith,
            },
            SelDispatch::Mixed(ops) => ops[rel],
        }
    }
}

/// One position of a [`SelectorTape`]: the shared destination plus each
/// action's op and operands.
#[derive(Debug, Clone)]
struct SelectorOp {
    dst: u32,
    dst_mask: u64,
    dispatch: SelDispatch,
    a: SelOperand,
    b: SelOperand,
}

impl SelectorTape {
    /// Phase B for a divergent batch: one gathered sweep per template op.
    fn execute_lanes(&self, buf: &mut [u64], cap: usize, n: usize, act: &[u32]) {
        for op in self.ops.iter() {
            op.execute_lanes(buf, cap, n, act, self.base, &self.active);
        }
    }
}

impl SelectorOp {
    /// Sweep all lanes: each live lane computes its action's op with its
    /// action's operands; missed/inactive lanes keep their destination.
    fn execute_lanes(
        &self,
        buf: &mut [u64],
        cap: usize,
        n: usize,
        act: &[u32],
        base: u32,
        active: &[bool],
    ) {
        #[inline(always)]
        fn sext(raw: u64, sx: u32) -> i64 {
            ((raw << sx) as i64) >> sx
        }
        let d0 = self.dst as usize * cap;
        debug_assert!(d0 + n <= buf.len());
        debug_assert!(n <= cap, "lane count {n} exceeds column capacity {cap}");
        debug_assert!(act.len() >= n);
        debug_assert!(self.a.column_in_bounds(cap, n, buf.len()));
        debug_assert!(self.b.column_in_bounds(cap, n, buf.len()));
        let mask = self.dst_mask;
        let asx = self.a.sx_shift();
        let bsx = self.b.sx_shift();
        let base_ptr = buf.as_mut_ptr();
        let mut i0 = 0;
        let mut ar: Chunk = [0; LANE_CHUNK];
        let mut br: Chunk = [0; LANE_CHUNK];
        let mut ov: Chunk = [0; LANE_CHUNK];
        let mut keep = [false; LANE_CHUNK];
        let mut rel = [0usize; LANE_CHUNK];
        while i0 + LANE_CHUNK <= n {
            for (k, (r, on)) in rel.iter_mut().zip(keep.iter_mut()).enumerate() {
                let aid = act[i0 + k];
                let ri = aid.wrapping_sub(base) as usize;
                *on = aid != MISS && active[ri];
                // Dead lanes carry action row 0 (always in range, the
                // table has ≥ 2 actions) so every gather is total; the
                // computed garbage is masked out at the store.
                *r = if *on { ri } else { 0 };
            }
            // SAFETY: the function-level bounds preconditions above;
            // the chunk [i0, i0 + LANE_CHUNK) is within `n` lanes and
            // every `rel` row is in range.
            unsafe {
                self.a.load_chunk(base_ptr, cap, i0, &rel, &mut ar);
                self.b.load_chunk(base_ptr, cap, i0, &rel, &mut br);
            }
            match &self.dispatch {
                SelDispatch::Uniform(op) => alu_chunk(*op, &ar, asx, &br, bsx, &mut ov),
                SelDispatch::ShiftMix(codes) => {
                    for k in 0..LANE_CHUNK {
                        let a = ar[k];
                        let d = br[k];
                        let live = 0u64.wrapping_sub(u64::from(d < 64));
                        let shl = (a << (d & 63)) & live;
                        let shr = (a >> (d & 63)) & live;
                        let sar = (sext(a, asx) >> d.min(63)) as u64;
                        // Mask-merge the three shifts by code — no
                        // data-dependent branch and no stack-array
                        // round-trip per lane.
                        let c = codes[rel[k]];
                        let m0 = 0u64.wrapping_sub(u64::from(c == 0));
                        let m1 = 0u64.wrapping_sub(u64::from(c == 1));
                        ov[k] = (shl & m0) | (shr & m1) | (sar & !(m0 | m1));
                    }
                }
                SelDispatch::Mixed(ops) => {
                    for k in 0..LANE_CHUNK {
                        ov[k] = apply_alu(
                            ops[rel[k]],
                            ar[k],
                            sext(ar[k], asx),
                            br[k],
                            sext(br[k], bsx),
                        );
                    }
                }
            }
            for (k, (&o, &on)) in ov.iter().zip(keep.iter()).enumerate() {
                // SAFETY: dst column bounds checked above.
                unsafe {
                    let d = base_ptr.add(d0 + i0 + k);
                    *d = if on { o & mask } else { *d };
                }
            }
            i0 += LANE_CHUNK;
        }
        for i in i0..n {
            let aid = act[i];
            if aid == MISS {
                continue;
            }
            let rel = aid.wrapping_sub(base) as usize;
            if !active[rel] {
                continue;
            }
            let (araw, asig) = self.a.raw_sig(buf, cap, i, rel);
            let (braw, bsig) = self.b.raw_sig(buf, cap, i, rel);
            let out = apply_alu(self.dispatch.op_for(rel), araw, asig, braw, bsig);
            buf[d0 + i] = out & mask;
        }
    }
}

/// One operand position across a table's actions, being unified by
/// [`build_selector`]: either every active action so far agrees on one
/// operand, or every one is a `Const` (values may differ per action).
struct SelOperandAcc {
    /// The first active action's operand, while still a candidate for
    /// [`SelOperand::Uniform`].
    first: CompiledOperand,
    /// Whether every operand seen equals `first`.
    all_same: bool,
    /// Per-action raw constants; meaningless once a `Field` is seen
    /// (`all_const` false).
    consts: Vec<u64>,
    all_const: bool,
}

impl SelOperandAcc {
    fn new(n: usize, ai: usize, o: CompiledOperand) -> Self {
        let mut acc = SelOperandAcc {
            first: o,
            all_same: true,
            consts: vec![0u64; n],
            all_const: true,
        };
        acc.note(ai, o);
        acc.all_same = true;
        acc
    }

    fn note(&mut self, ai: usize, o: CompiledOperand) {
        self.all_same &= o == self.first;
        match o {
            CompiledOperand::Const(c) => self.consts[ai] = c as u64,
            CompiledOperand::Field { .. } => self.all_const = false,
        }
    }

    fn finish(self) -> Option<SelOperand> {
        if self.all_same {
            Some(SelOperand::Uniform(self.first))
        } else if self.all_const {
            Some(SelOperand::PerAction(self.consts.into_boxed_slice()))
        } else {
            // Different field operands (or a field/const mix) per action:
            // no gatherable representation.
            None
        }
    }
}

/// Detect the selected-constant shape over one table's actions (see
/// [`SelectorTape`]): every non-empty action tape must be the same-length
/// sequence of primitives with matching destination and mask at each
/// position; each position's op may vary per action, and each
/// operand must be one shared operand or a per-action `Const`. Requires
/// at least two actions running the template (a lone shape is the uniform
/// path's job, not dispatch).
fn build_selector(
    base: u32,
    table_actions: &[CompiledAction],
    prims: &[CompiledPrim],
) -> Option<SelectorTape> {
    let n = table_actions.len();
    if n < 2 {
        return None;
    }
    let mut active = vec![false; n];
    // Per template position, accumulated across actions.
    let mut dsts: Vec<(u32, u64)> = Vec::new();
    let mut ops: Vec<Vec<AluOp>> = Vec::new(); // [position][action]
    let mut accs_a: Vec<SelOperandAcc> = Vec::new();
    let mut accs_b: Vec<SelOperandAcc> = Vec::new();
    let mut first = true;
    for (ai, a) in table_actions.iter().enumerate() {
        let aps = &prims[a.prims.0 as usize..a.prims.1 as usize];
        if aps.is_empty() {
            continue;
        }
        if first {
            first = false;
            for p in aps {
                dsts.push((p.dst, p.dst_mask));
                let mut v = vec![AluOp::Set; n];
                v[ai] = p.op;
                ops.push(v);
                accs_a.push(SelOperandAcc::new(n, ai, p.a));
                accs_b.push(SelOperandAcc::new(n, ai, p.b));
            }
        } else {
            if aps.len() != dsts.len() {
                return None;
            }
            for (j, p) in aps.iter().enumerate() {
                if (p.dst, p.dst_mask) != dsts[j] {
                    return None;
                }
                ops[j][ai] = p.op;
                accs_a[j].note(ai, p.a);
                accs_b[j].note(ai, p.b);
            }
        }
        active[ai] = true;
    }
    if first || active.iter().filter(|&&x| x).count() < 2 {
        return None;
    }
    let mut out: Vec<SelectorOp> = Vec::with_capacity(dsts.len());
    for (((dst, dst_mask), op_by_action), (acc_a, acc_b)) in dsts
        .into_iter()
        .zip(ops)
        .zip(accs_a.into_iter().zip(accs_b))
    {
        let live: Vec<AluOp> = active
            .iter()
            .zip(&op_by_action)
            .filter_map(|(&on, &op)| on.then_some(op))
            .collect();
        let dispatch = if live.iter().all(|&op| op == live[0]) {
            SelDispatch::Uniform(live[0])
        } else if live
            .iter()
            .all(|op| matches!(op, AluOp::Shl | AluOp::ShrLogic | AluOp::ShrArith))
        {
            // Inactive rows get an arbitrary code (their match arm maps
            // `Set` to 2); dead-lane gathers read row 0, compute garbage,
            // and mask it out at the store, so the value never matters.
            SelDispatch::ShiftMix(
                op_by_action
                    .iter()
                    .map(|op| match op {
                        AluOp::Shl => 0u8,
                        AluOp::ShrLogic => 1,
                        _ => 2,
                    })
                    .collect(),
            )
        } else {
            SelDispatch::Mixed(op_by_action.into_boxed_slice())
        };
        out.push(SelectorOp {
            dst,
            dst_mask,
            dispatch,
            a: acc_a.finish()?,
            b: acc_b.finish()?,
        });
    }
    Some(SelectorTape {
        base,
        active: active.into_boxed_slice(),
        ops: out.into_boxed_slice(),
    })
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
    /// Tables compiled to selected-constant dispatch (same op shape
    /// across all actions, per-action right-hand constant): divergent
    /// batches run one gathered sweep per template op instead of
    /// per-packet tape walks.
    pub selector_tables: usize,
}

impl FusionStats {
    /// Fraction of original ops eliminated by dead-store removal:
    /// `1 − tape_ops / original_ops` (0.0 for an empty tape).
    pub fn coverage(&self) -> f64 {
        if self.original_ops == 0 {
            0.0
        } else {
            1.0 - self.tape_ops as f64 / self.original_ops as f64
        }
    }
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

/// A lowered SALU condition: [`SaluCond`] with every operand pre-resolved.
#[derive(Debug, Clone)]
enum CompiledCond {
    Always,
    MetaNonZero(u32),
    RegCmp { cmp: CmpOp, rhs: CompiledOperand },
    Or(Box<(CompiledCond, CompiledCond)>),
    And(Box<(CompiledCond, CompiledCond)>),
}

impl CompiledCond {
    fn lower(cond: &SaluCond, layout: &PhvLayout) -> Self {
        match cond {
            SaluCond::Always => CompiledCond::Always,
            SaluCond::MetaNonZero(f) => CompiledCond::MetaNonZero(u32::from(f.0)),
            SaluCond::RegCmp { cmp, rhs } => CompiledCond::RegCmp {
                cmp: *cmp,
                rhs: lower_operand(*rhs, layout),
            },
            SaluCond::Or(a, b) => {
                CompiledCond::Or(Box::new((Self::lower(a, layout), Self::lower(b, layout))))
            }
            SaluCond::And(a, b) => {
                CompiledCond::And(Box::new((Self::lower(a, layout), Self::lower(b, layout))))
            }
        }
    }

    #[inline]
    fn eval(&self, stored: i64, vals: &[u64], stride: usize, lane: usize) -> bool {
        match self {
            CompiledCond::Always => true,
            CompiledCond::MetaNonZero(f) => vals[*f as usize * stride + lane] != 0,
            CompiledCond::RegCmp { cmp, rhs } => {
                let rhs = rhs.signed(vals, stride, lane);
                match cmp {
                    CmpOp::Eq => stored == rhs,
                    CmpOp::Ne => stored != rhs,
                    CmpOp::Lt => stored < rhs,
                    CmpOp::Le => stored <= rhs,
                    CmpOp::Gt => stored > rhs,
                    CmpOp::Ge => stored >= rhs,
                }
            }
            CompiledCond::Or(p) => {
                p.0.eval(stored, vals, stride, lane) || p.1.eval(stored, vals, stride, lane)
            }
            CompiledCond::And(p) => {
                p.0.eval(stored, vals, stride, lane) && p.1.eval(stored, vals, stride, lane)
            }
        }
    }
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
    fn apply(
        &self,
        stored: i64,
        meta: &ArrayMeta,
        vals: &[u64],
        stride: usize,
        lane: usize,
    ) -> i64 {
        match *self {
            CompiledUpdate::Keep => stored,
            CompiledUpdate::Write(op) => {
                crate::register::truncate(op.signed(vals, stride, lane), meta.width)
            }
            CompiledUpdate::AddSat(op) => crate::register::saturating(
                stored as i128 + op.signed(vals, stride, lane) as i128,
                meta.min,
                meta.max,
            ),
            CompiledUpdate::AddWrap(op) => crate::register::truncate(
                stored.wrapping_add(op.signed(vals, stride, lane)),
                meta.width,
            ),
            CompiledUpdate::ShiftRightAddSat { shift, addend } => {
                let d = shift.raw(vals, stride, lane).min(63) as u32;
                let shifted = stored >> d;
                crate::register::saturating(
                    shifted as i128 + addend.signed(vals, stride, lane) as i128,
                    meta.min,
                    meta.max,
                )
            }
            CompiledUpdate::MaxSigned(op) => stored.max(crate::register::truncate(
                op.signed(vals, stride, lane),
                meta.width,
            )),
            CompiledUpdate::MinSigned(op) => stored.min(crate::register::truncate(
                op.signed(vals, stride, lane),
                meta.width,
            )),
        }
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
/// [`CompiledSwitch::compile`] (or [`Switch::compiled`], which also copies
/// the interpreter's current register state). Executes packets bit-for-bit
/// identically to [`Switch::run`], several times faster, with zero
/// per-packet allocation; [`CompiledSwitch::run_batch`] amortizes the call
/// overhead over a PHV buffer.
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
    /// Wide hash key scratch, reused across lookups.
    keybuf: Vec<u64>,
    /// Whether table-major SoA execution is observably identical to
    /// packet-major execution for this program (see
    /// [`CompiledSwitch::soa_eligible`]).
    soa_simple: bool,
    /// Op-tape statistics of the lowered program.
    fusion: FusionStats,
    /// SoA scratch, reused across batches: the lane buffer, the per-packet
    /// resolved action, the batch gate flags, and the per-packet fallback
    /// value row.
    lanes: BatchLanes,
    act_of: Vec<u32>,
    gate_pass: Vec<bool>,
    rowbuf: Vec<u64>,
    /// Phase C scratch: per-lane register indices, computed once by the
    /// bounds pre-scan.
    idxbuf: Vec<u64>,
}

impl CompiledSwitch {
    /// Validate a program and lower it, with zeroed registers.
    pub fn compile(program: &SwitchProgram) -> Result<Self, ProgramError> {
        program.validate()?;
        let mut tables = Vec::new();
        let mut actions = Vec::new();
        let mut prims: Vec<CompiledPrim> = Vec::new();
        let mut stateful = Vec::new();
        let mut fusion = FusionStats::default();
        let mut action_prims: Vec<CompiledPrim> = Vec::new();
        // SoA eligibility: no recirculation, each register array touched
        // from at most one table, at most one stateful call per action.
        // Under those rules a single pass in table-major order is
        // observably the same as packet-major order, and the dynamic RAW
        // check can never fire (each packet touches each array at most
        // once per pass).
        let mut soa_simple = program.recirc_field.is_none();
        let mut array_table: Vec<Option<usize>> = vec![None; program.arrays.len()];
        for stage in &program.stages {
            for table in &stage.tables {
                let t_idx = tables.len();
                let base = actions.len() as u32;
                for action in &table.actions {
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
                    });
                }
                let mut ct = compile_table(table, base, &program.layout);
                ct.selector = build_selector(base, &actions[base as usize..], &prims);
                if ct.selector.is_some() {
                    fusion.selector_tables += 1;
                }
                tables.push(ct);
            }
        }
        fusion.tape_ops = prims.len();
        // Uniform-key scanning pays off only for tables keyed entirely on
        // fields no action ever writes (header inputs like an opcode):
        // those columns arrive batch-uniform for single-op batches, while
        // a key any action computes diverges lane by lane. Tables mixing
        // stable fields with a few bits of computed key get the split-key
        // LUT plan instead.
        let mut written: std::collections::HashSet<u16> = std::collections::HashSet::new();
        for stage in &program.stages {
            for table in &stage.tables {
                for action in &table.actions {
                    written.extend(action.primitives.iter().map(|p| p.dst.0));
                    written.extend(
                        action
                            .stateful
                            .iter()
                            .filter_map(|c| c.output.map(|(f, _)| f.0)),
                    );
                }
            }
        }
        for t in &mut tables {
            let (varying, stable): (Vec<u16>, Vec<u16>) =
                t.key_fields.iter().partition(|f| written.contains(f));
            t.scan_uniform = varying.is_empty();
            if t.scan_uniform {
                continue;
            }
            let mut packed = Vec::with_capacity(varying.len());
            let mut width = 0u32;
            for f in varying {
                let bits = program.layout.spec(FieldId(f)).bits;
                packed.push((f, width, PhvLayout::mask(bits)));
                width += bits;
            }
            if width <= SPLIT_LUT_BITS {
                t.split = Some(SplitKey {
                    stable: stable.into_boxed_slice(),
                    varying: packed.into_boxed_slice(),
                    width,
                });
            }
        }
        let state = RegisterState::new(&program.arrays);
        let touched = vec![false; program.arrays.len()];
        Ok(CompiledSwitch {
            layout: program.layout.clone(),
            recirc_field: program.recirc_field,
            recirc_limit: program.caps.recirc_limit,
            tables: tables.into_boxed_slice(),
            actions: actions.into_boxed_slice(),
            prims: prims.into_boxed_slice(),
            stateful: stateful.into_boxed_slice(),
            state,
            touched,
            keybuf: Vec::new(),
            soa_simple,
            fusion,
            lanes: BatchLanes::new(&program.layout, 1),
            act_of: Vec::new(),
            gate_pass: Vec::new(),
            rowbuf: Vec::new(),
            idxbuf: Vec::new(),
        })
    }

    /// Validate, statically analyze, and lower a program in one step —
    /// the verify-on-compile entry point.
    ///
    /// [`AnalysisLevel::Off`] behaves exactly like
    /// [`CompiledSwitch::compile`]; [`AnalysisLevel::Warn`] runs the
    /// analyzer but only fails on [`ProgramError`]s; the default
    /// [`AnalysisLevel::Deny`] additionally rejects any program whose
    /// [`AnalysisReport`] carries errors, returning the full report so
    /// callers can print every diagnostic, not just the first.
    pub fn compile_with(
        program: &SwitchProgram,
        level: AnalysisLevel,
    ) -> Result<Self, CompileError> {
        if level != AnalysisLevel::Off {
            let report = crate::analysis::verify_program(program);
            if level == AnalysisLevel::Deny && !report.is_clean() {
                return Err(CompileError::Analysis(Box::new(report)));
            }
        }
        Self::compile(program).map_err(CompileError::Program)
    }

    /// Compile-time statistics for the lowered op tape.
    pub fn fusion_stats(&self) -> FusionStats {
        self.fusion
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

    /// The live register state.
    pub fn register_state(&self) -> &RegisterState {
        &self.state
    }

    /// Replace the register state wholesale (e.g. installing one shard of
    /// a [`RegisterState::split_ranges`] partition, or a state copied from
    /// the interpreter). The shape must match the compiled program's
    /// arrays.
    pub fn set_register_state(&mut self, state: RegisterState) -> Result<(), RuntimeError> {
        if !self.state.same_shape(&state) {
            return Err(RuntimeError::IndexOutOfRange {
                detail: "register state shape does not match the compiled program's arrays".into(),
            });
        }
        self.state = state;
        Ok(())
    }

    /// Process one packet, exactly as [`Switch::run`] would — same table
    /// order, same RAW enforcement, same recirculation semantics, same
    /// errors — via the pre-resolved dispatch structures.
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
            keybuf,
            recirc_field,
            recirc_limit,
            ..
        } = self;
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
                    let idx = cs.index.raw(vals, 1, 0) as usize;
                    if idx >= meta.entries {
                        return Err(oor_error(idx, meta));
                    }
                    let slot = meta.offset + idx;
                    let old = regs[slot];
                    let taken = cs.cond.eval(old, vals, 1, 0);
                    let update = if taken { &cs.on_true } else { &cs.on_false };
                    let new = update.apply(old, meta, vals, 1, 0);
                    regs[slot] = new;
                    if let Some((dst, mask, out)) = cs.output {
                        let v = match out {
                            SaluOutput::Old => old as u64,
                            SaluOutput::New => new as u64,
                            SaluOutput::Predicate => u64::from(taken),
                        };
                        vals[dst as usize] = v & mask;
                    }
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
        self.run_batch_indexed(phvs).map_err(|(_, e)| e)
    }

    /// [`CompiledSwitch::run_batch`], but faults carry the index of the
    /// faulting packet (the sharding layer needs it to report the earliest
    /// fault in original batch order).
    pub(crate) fn run_batch_indexed(
        &mut self,
        phvs: &mut [Phv],
    ) -> Result<u64, (usize, RuntimeError)> {
        if self.soa_simple && phvs.len() >= SOA_MIN {
            return self.run_batch_soa_indexed(phvs);
        }
        let mut total = 0u64;
        for (i, phv) in phvs.iter_mut().enumerate() {
            total += u64::from(self.run(phv).map_err(|e| (i, e))?);
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
        self.run_batch_soa_indexed(phvs).map_err(|(_, e)| e)
    }

    fn run_batch_soa_indexed(&mut self, phvs: &mut [Phv]) -> Result<u64, (usize, RuntimeError)> {
        if !self.soa_simple {
            let mut total = 0u64;
            for (i, phv) in phvs.iter_mut().enumerate() {
                total += u64::from(self.run(phv).map_err(|e| (i, e))?);
            }
            return Ok(total);
        }
        if phvs.is_empty() {
            return Ok(0);
        }
        let mut lanes = std::mem::take(&mut self.lanes);
        lanes.load(phvs);
        let res = self.run_lanes_simple(&mut lanes);
        match res {
            Ok(total) => {
                lanes.store(phvs, phvs.len());
                self.lanes = lanes;
                Ok(total)
            }
            Err((i, e)) => {
                // Packets before the fault are fully applied, the faulting
                // packet is left as the fault found it, later packets'
                // PHVs keep their input values (never touched).
                lanes.store(phvs, i + 1);
                self.lanes = lanes;
                Err((i, e))
            }
        }
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
    /// unspecified (their register state is untouched).
    pub fn run_lanes(&mut self, lanes: &mut BatchLanes) -> Result<u64, RuntimeError> {
        if lanes.is_empty() {
            return Ok(0);
        }
        if self.soa_simple {
            return self.run_lanes_simple(lanes).map_err(|(_, e)| e);
        }
        let mut row = std::mem::take(&mut self.rowbuf);
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
        self.rowbuf = row;
        result.map(|_| total)
    }

    /// The table-major SoA engine core. Requires `soa_simple`.
    ///
    /// Fault handling is *limit narrowing*: a packet whose stateful call
    /// indexes out of range stops being live (`limit` shrinks to exclude
    /// it) while earlier packets keep executing the remaining tables, so
    /// when the loop ends every packet before the earliest fault has been
    /// fully applied — exactly the per-packet contract. Bounds are
    /// pre-scanned per table before any register write (an index operand
    /// only reads its own packet's lanes, which phase C never changes for
    /// other packets), so no write ever needs rolling back.
    fn run_lanes_simple(&mut self, lanes: &mut BatchLanes) -> Result<u64, (usize, RuntimeError)> {
        debug_assert!(self.soa_simple);
        let CompiledSwitch {
            layout,
            tables,
            actions,
            prims,
            stateful,
            state,
            keybuf,
            act_of,
            gate_pass,
            rowbuf,
            idxbuf,
            ..
        } = self;
        let (array_meta, regs) = state.parts_mut();
        let (buf, cap, n) = lanes.raw_parts_mut();
        act_of.clear();
        act_of.resize(n, MISS);
        gate_pass.clear();
        gate_pass.resize(n, false);
        rowbuf.resize(layout.len(), 0);
        let mut limit = n;
        let mut fault: Option<(usize, RuntimeError)> = None;
        for t in tables.iter() {
            if limit == 0 {
                break;
            }
            // Phase A: resolve every live packet's action, batch-wide.
            // `Some(a)` means the table already proved the whole batch
            // resolved to action `a` (uniform keys / constant / gated
            // out) and the act_of scan can be skipped.
            let hint = t.lookup_lanes(buf, cap, limit, act_of, gate_pass, keybuf, rowbuf);
            let first = hint.unwrap_or(act_of[0]);
            let uniform = hint.is_some() || act_of[..limit].iter().all(|&a| a == first);
            if uniform && first == MISS {
                continue; // no live packet runs anything in this table
            }
            if uniform {
                // Phase B: instruction-major — each op sweeps the batch.
                let action = actions[first as usize];
                for op in &prims[action.prims.0 as usize..action.prims.1 as usize] {
                    op.execute_lanes(buf, cap, limit);
                }
                // Phase C: stateful updates, in packet order. One action
                // for the whole batch lets the call/array resolution be
                // hoisted out of both packet loops. The bounds pre-scan
                // runs first, so the first out-of-range packet faults and
                // narrows `limit` before anything is applied for it.
                if action.stateful.0 == action.stateful.1 {
                    continue;
                }
                let cs = &stateful[action.stateful.0 as usize];
                let meta = &array_meta[cs.array as usize];
                // The pre-scan also caches every live lane's register
                // index so the apply loop does not re-evaluate the operand.
                idxbuf.clear();
                for i in 0..limit {
                    let idx = cs.index.raw(buf, cap, i) as usize;
                    if idx >= meta.entries {
                        fault = Some((i, oor_error(idx, meta)));
                        limit = i;
                        break;
                    }
                    idxbuf.push(idx as u64);
                }
                for (i, &idx) in idxbuf[..limit].iter().enumerate() {
                    apply_stateful_lane(cs, meta, regs, buf, cap, i, idx as usize);
                }
                continue;
            }
            // Phase B, divergent. A selector-shaped table (same op
            // skeleton across all actions — the FPISA shift tables, where
            // a mixed-magnitude batch hits dozens of alignment actions)
            // collapses to one gathered sweep per template op; any other
            // table walks each packet's tape.
            if let Some(sel) = &t.selector {
                sel.execute_lanes(buf, cap, limit, act_of);
            } else {
                for (i, &a) in act_of.iter().enumerate().take(limit) {
                    if a == MISS {
                        continue;
                    }
                    let action = actions[a as usize];
                    for op in &prims[action.prims.0 as usize..action.prims.1 as usize] {
                        op.execute(buf, cap, i);
                    }
                }
            }
            // Phase C: stateful, always in packet order (soa_simple
            // guarantees at most one call per action). Pre-scan bounds
            // first: the first packet with an out-of-range index faults
            // and narrows `limit` before anything is applied for it.
            let table_has_stateful = act_of[..limit].iter().any(|&a| {
                a != MISS && {
                    let action = actions[a as usize];
                    action.stateful.0 != action.stateful.1
                }
            });
            if !table_has_stateful {
                continue;
            }
            for (i, &a) in act_of.iter().enumerate().take(limit) {
                if a == MISS {
                    continue;
                }
                let action = actions[a as usize];
                if action.stateful.0 == action.stateful.1 {
                    continue;
                }
                let cs = &stateful[action.stateful.0 as usize];
                let meta = &array_meta[cs.array as usize];
                let idx = cs.index.raw(buf, cap, i) as usize;
                if idx >= meta.entries {
                    fault = Some((i, oor_error(idx, meta)));
                    limit = i;
                    break;
                }
            }
            for (i, &a) in act_of.iter().enumerate().take(limit) {
                if a == MISS {
                    continue;
                }
                let action = actions[a as usize];
                if action.stateful.0 == action.stateful.1 {
                    continue;
                }
                let cs = &stateful[action.stateful.0 as usize];
                let meta = &array_meta[cs.array as usize];
                let idx = cs.index.raw(buf, cap, i) as usize;
                apply_stateful_lane(cs, meta, regs, buf, cap, i, idx);
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

/// The Phase C body for one lane: evaluate the condition against the
/// stored value, apply the taken update, and write the optional SALU
/// output into the lane's own column.
#[inline(always)]
fn apply_stateful_lane(
    cs: &CompiledStateful,
    meta: &ArrayMeta,
    regs: &mut [i64],
    buf: &mut [u64],
    cap: usize,
    i: usize,
    idx: usize,
) {
    let slot = meta.offset + idx;
    let old = regs[slot];
    let taken = cs.cond.eval(old, buf, cap, i);
    let update = if taken { &cs.on_true } else { &cs.on_false };
    let new = update.apply(old, meta, buf, cap, i);
    regs[slot] = new;
    if let Some((dst, mask, out)) = cs.output {
        let v = match out {
            SaluOutput::Old => old as u64,
            SaluOutput::New => new as u64,
            SaluOutput::Predicate => u64::from(taken),
        };
        buf[dst as usize * cap + i] = v & mask;
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

impl Switch {
    /// Lower this switch's program into a [`CompiledSwitch`], copying the
    /// current register state, so execution can continue on the fast path
    /// mid-stream.
    pub fn compiled(&self) -> CompiledSwitch {
        let mut c = CompiledSwitch::compile(self.program()).expect("program was validated");
        c.set_register_state(self.register_state().clone())
            .expect("same program, same state shape");
        c
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
fn lower_prim(p: &Primitive, layout: &PhvLayout) -> CompiledPrim {
    CompiledPrim {
        dst: u32::from(p.dst.0),
        dst_mask: PhvLayout::mask(layout.spec(p.dst).bits),
        op: p.op,
        a: lower_operand(p.a, layout),
        b: lower_operand(p.b, layout),
    }
}

/// Lower one table. `action_base` is the global index of the table's first
/// action.
fn compile_table(table: &Table, action_base: u32, layout: &PhvLayout) -> CompiledTable {
    let key_fields: Box<[u16]> = table.keys.iter().map(|(f, _)| f.0).collect();
    let widths: Vec<u32> = table
        .keys
        .iter()
        .map(|(f, _)| layout.spec(*f).bits)
        .collect();
    // Packing shifts for a single-u64 key, lowest field first.
    let total_bits: u32 = widths.iter().sum();
    let mut key_shifts = Vec::with_capacity(widths.len());
    let mut acc = 0u32;
    for w in &widths {
        key_shifts.push(acc);
        acc += w;
    }
    let default_action = table.default_action.map(|d| action_base + d as u32);

    // Split entries: all-exact tuples vs. everything else (any pattern
    // that is Ternary/Range/Any). Entries with an exact value that cannot
    // fit its field width can never match a (masked) PHV value — drop
    // them, exactly as the interpreter's scan never selects them.
    let mut exact: Vec<(Vec<u64>, Cand)> = Vec::new();
    let mut scan: Vec<ScanEntry> = Vec::new();
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
        for (pat, w) in e.key.iter().zip(widths.iter()) {
            let fmask = PhvLayout::mask(*w);
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
            exact.push((
                e.key
                    .iter()
                    .map(|pat| match pat {
                        KeyMatch::Exact(v) => *v,
                        _ => unreachable!("all_exact checked"),
                    })
                    .collect(),
                cand,
            ));
        } else {
            scan.push(ScanEntry {
                cand,
                pats: e.key.clone().into_boxed_slice(),
            });
        }
    }
    let gate: Box<[GateCheck]> = gate
        .unwrap_or_default()
        .into_iter()
        .zip(key_fields.iter())
        .filter(|((m, _), _)| *m != 0)
        .map(|((mask, val), &field)| GateCheck {
            field: u32::from(field),
            mask,
            val,
        })
        .collect();
    // Pre-sort the scan so the first match is the interpreter's winner.
    scan.sort_by(|a, b| {
        b.cand
            .priority
            .cmp(&a.cand.priority)
            .then(a.cand.install.cmp(&b.cand.install))
    });
    let scan = scan.into_boxed_slice();

    let matcher = if key_fields.is_empty() {
        // Keyless: every entry matches every packet; resolve now.
        let mut best: Option<Cand> = None;
        for (_, cand) in exact {
            // (scan is empty: zero-arity keys have all-exact — vacuous —
            // tuples.)
            if best.is_none_or(|b| cand.beats(&b)) {
                best = Some(cand);
            }
        }
        Matcher::Const(best.map(|c| c.action))
    } else if exact.is_empty() {
        Matcher::Scan(scan)
    } else if total_bits <= DENSE_MAX_BITS && scan.is_empty() {
        let mut slots: Vec<u32> = vec![MISS; 1usize << total_bits];
        let mut winners: Vec<Option<Cand>> = vec![None; slots.len()];
        for (tuple, cand) in exact {
            let key = tuple
                .iter()
                .zip(key_shifts.iter())
                .fold(0u64, |k, (v, s)| k | (v << s)) as usize;
            if winners[key].is_none_or(|w| cand.beats(&w)) {
                winners[key] = Some(cand);
                slots[key] = cand.action;
            }
        }
        Matcher::Dense(slots.into_boxed_slice())
    } else if total_bits <= 64 {
        let mut packed: Vec<(u64, Cand)> = Vec::with_capacity(exact.len());
        for (tuple, cand) in exact {
            let key = tuple
                .iter()
                .zip(key_shifts.iter())
                .fold(0u64, |k, (v, s)| k | (v << s));
            // Resolve duplicate keys to their winner at compile time.
            match packed.iter_mut().find(|(k, _)| *k == key) {
                Some((_, cur)) => {
                    if cand.beats(cur) {
                        *cur = cand;
                    }
                }
                None => packed.push((key, cand)),
            }
        }
        match injective_prefix_bits(&packed, DENSE_MAX_BITS) {
            Some(w) if scan.is_empty() => {
                let mask = (1u64 << w) - 1;
                let mut slots: Vec<(u64, u32)> = vec![(0, MISS); 1usize << w];
                for (key, cand) in packed {
                    slots[(key & mask) as usize] = (key, cand.action);
                }
                Matcher::DenseKeyed {
                    mask,
                    slots: slots.into_boxed_slice(),
                }
            }
            _ => {
                let mut map: KeyMap<u64> = KeyMap::default();
                for (key, cand) in packed {
                    map.insert(key, cand);
                }
                Matcher::PackedHash { map, scan }
            }
        }
    } else {
        let mut map: KeyMap<Box<[u64]>> = KeyMap::default();
        for (tuple, cand) in exact {
            insert_best(&mut map, tuple.into_boxed_slice(), cand);
        }
        Matcher::WideHash { map, scan }
    };

    // Const resolution and dense loads are already as cheap as the gate;
    // keep gates only where they skip real matching work.
    let gate = match &matcher {
        Matcher::Const(_) | Matcher::Dense(_) => Box::default(),
        _ => gate,
    };

    CompiledTable {
        key_fields,
        key_shifts: key_shifts.into_boxed_slice(),
        gate,
        matcher,
        default_action,
        // All patched by `CompiledSwitch::compile` once every action in
        // the program has been seen.
        scan_uniform: false,
        split: None,
        selector: None,
    }
}

/// Smallest low-bit prefix width (≤ `max_bits`) under which the packed
/// keys are pairwise distinct, making a verify-on-load direct index
/// possible. Duplicate keys were already resolved to one winner.
fn injective_prefix_bits(packed: &[(u64, Cand)], max_bits: u32) -> Option<u32> {
    let floor = packed.len().next_power_of_two().trailing_zeros().max(1);
    'widths: for w in floor..=max_bits {
        let mask = (1u64 << w) - 1;
        let mut seen = std::collections::HashSet::with_capacity(packed.len());
        for (key, _) in packed {
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
    use crate::switch::SwitchCaps;
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
        let t = Table::keyed(
            "t",
            vec![(a, MatchKind::Exact), (b, MatchKind::Exact)],
            vec![set_const(out, 1), set_const(out, 2), set_const(out, 3)],
            None,
        )
        .entry(vec![KeyMatch::Exact(0xDEAD_BEEF), KeyMatch::Exact(3)], 1, 0)
        .entry(vec![KeyMatch::Exact(0xDEAD_BEEF), KeyMatch::Any], 2, 1)
        .entry(vec![KeyMatch::Any, KeyMatch::Exact(1)], 0, 2);
        let program = SwitchProgram {
            caps: SwitchCaps::tofino(),
            layout: l,
            stages: vec![Stage::new().table(t)],
            arrays: vec![],
            recirc_field: None,
        };
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
        let mut sw = Switch::new(program).unwrap();
        let mut phv = sw.phv();
        phv.set(x, 41);
        sw.run(&mut phv).unwrap();
        let mut cs = sw.compiled();
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
        assert!(stats.coverage() > 0.2);
        // And the shortened tape is still bit-for-bit the interpreter.
        for vv in [0u64, 0xFFFF_FFFF, 0x0003_FC00, 0xDEAD_BEEF] {
            let p = run_both(&program, |p| p.set(v, vv));
            assert_eq!(p.get(e), (vv >> 10) & 0x1F);
            assert_eq!(p.get(x), 5);
        }
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
