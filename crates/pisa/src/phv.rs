//! The Packet Header Vector: the typed, width-checked field store a packet
//! carries through the pipeline.
//!
//! A PISA switch parses a packet into a PHV — a fixed set of containers of
//! known widths — and every match key, action operand and stateful-ALU
//! input reads from it. [`PhvLayout`] declares the fields a program uses
//! (header fields and metadata alike; the simulator does not need to
//! distinguish them) and [`Phv`] is one packet's instance of that layout.
//!
//! Field containers are at most 64 bits wide. Writes are truncated to the
//! declared width, exactly like a hardware container; reads can be raw
//! (zero-extended) or signed (sign-extended from the declared width), which
//! is how the FPISA mantissa fields get their two's-complement meaning.
//!
//! ## The lane word
//!
//! A [`Phv`] holds every field in a `u64`. A [`BatchLanes`] batch does not
//! have to: a value masked to its field's width fits any word at least
//! that wide, so the column word is chosen **per layout** by one rule —
//! every field at most 32 bits wide ⇒ `u32` columns, otherwise `u64`
//! (`PhvLayout::lane_bits`). FPISA targets a 32-bit datapath (§3.3 of the
//! paper keeps FP32/FP16 state in 16- or 32-bit registers) and the
//! generated programs declare nothing wider, so they all run narrow; the
//! compiled engine's kernels are generic over `LaneWord` and decide per
//! op whether 32-bit arithmetic is exact (see `compile`'s module docs).

use serde::{Deserialize, Serialize};

/// Index of a field within a [`PhvLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FieldId(pub u16);

/// Declaration of one PHV field.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldSpec {
    /// Diagnostic name (unique within a layout).
    pub name: String,
    /// Container width in bits (1..=64).
    pub bits: u32,
}

/// The set of fields a program's packets carry.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhvLayout {
    fields: Vec<FieldSpec>,
    /// Field indices sorted by field name — the precomputed name→id index
    /// behind [`PhvLayout::lookup`], maintained on every insertion so a
    /// lookup is a binary search instead of an O(n) string scan.
    by_name: Vec<u16>,
}

impl PhvLayout {
    /// An empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a field and return its id. Panics on duplicate names or
    /// out-of-range widths (program-construction bugs, not packet errors).
    pub fn field(&mut self, name: impl Into<String>, bits: u32) -> FieldId {
        let name = name.into();
        assert!(
            (1..=64).contains(&bits),
            "field `{name}`: width {bits} out of range"
        );
        assert!(self.fields.len() < u16::MAX as usize, "too many PHV fields");
        let slot = match self
            .by_name
            .binary_search_by(|&i| self.fields[i as usize].name.as_str().cmp(&name))
        {
            Ok(_) => panic!("duplicate PHV field name `{name}`"),
            Err(slot) => slot,
        };
        self.fields.push(FieldSpec { name, bits });
        let id = self.fields.len() as u16 - 1;
        self.by_name.insert(slot, id);
        FieldId(id)
    }

    /// Specification of a field.
    pub fn spec(&self, id: FieldId) -> &FieldSpec {
        &self.fields[id.0 as usize]
    }

    /// Look a field up by name (binary search over the precomputed name
    /// index).
    pub fn lookup(&self, name: &str) -> Option<FieldId> {
        self.by_name
            .binary_search_by(|&i| self.fields[i as usize].name.as_str().cmp(name))
            .ok()
            .map(|slot| FieldId(self.by_name[slot]))
    }

    /// Number of declared fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether no fields are declared.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Total PHV width in bits — the "PHV bits" line of the resource report.
    pub fn total_bits(&self) -> u64 {
        self.fields.iter().map(|f| f.bits as u64).sum()
    }

    /// Iterate over `(id, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &FieldSpec)> {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, f)| (FieldId(i as u16), f))
    }

    /// Width of the lane word a batch over this layout is stored and swept
    /// in ([`BatchLanes`]): 32 bits when every field fits, else 64. This is
    /// the whole rule — a single field of 33 bits or more puts every
    /// column on `u64`.
    pub(crate) fn lane_bits(&self) -> u32 {
        if self.fields.iter().all(|f| f.bits <= 32) {
            32
        } else {
            64
        }
    }

    /// Bit mask covering a width-`bits` container.
    pub(crate) fn mask(bits: u32) -> u64 {
        if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }
}

/// One packet's header vector: a value per layout field.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Phv {
    values: Vec<u64>,
    widths: Vec<u32>,
}

impl Default for Phv {
    /// An empty PHV of zero fields — a placeholder that lets buffers move
    /// packets out without cloning (`std::mem::take`). Not runnable; build
    /// real packets with [`Phv::new`].
    fn default() -> Self {
        Phv {
            values: Vec::new(),
            widths: Vec::new(),
        }
    }
}

impl Phv {
    /// A zeroed PHV for a layout.
    pub fn new(layout: &PhvLayout) -> Self {
        Phv {
            values: vec![0; layout.len()],
            widths: layout.fields.iter().map(|f| f.bits).collect(),
        }
    }

    /// Raw (zero-extended) value of a field.
    #[inline]
    pub fn get(&self, id: FieldId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Value of a field sign-extended from its declared width.
    #[inline]
    pub fn get_signed(&self, id: FieldId) -> i64 {
        let w = self.widths[id.0 as usize];
        sign_extend(self.values[id.0 as usize], w)
    }

    /// Write a field, truncating to its declared width.
    #[inline]
    pub fn set(&mut self, id: FieldId, value: u64) {
        let w = self.widths[id.0 as usize];
        self.values[id.0 as usize] = value & PhvLayout::mask(w);
    }

    /// Write a signed value (two's-complement truncation to the width).
    #[inline]
    pub fn set_signed(&mut self, id: FieldId, value: i64) {
        self.set(id, value as u64);
    }

    /// Declared width of a field, in bits.
    #[inline]
    pub fn width(&self, id: FieldId) -> u32 {
        self.widths[id.0 as usize]
    }

    /// Reset every field to zero, keeping the layout. Lets a hot loop
    /// reuse one PHV per packet instead of allocating a fresh one — a
    /// freshly cleared PHV is indistinguishable from [`Phv::new`].
    #[inline]
    pub fn clear(&mut self) {
        self.values.fill(0);
    }

    /// Raw container values, for the compiled engine's op tape (which has
    /// pre-resolved every width and mask at compile time).
    #[inline]
    pub(crate) fn values_mut(&mut self) -> &mut [u64] {
        &mut self.values
    }
}

/// The unsigned word one lane of a [`BatchLanes`] column is stored in — and
/// the word the compiled engine's sweep kernels compute in. `u32` for a
/// layout whose every field fits 32 bits ([`PhvLayout::lane_bits`]), `u64`
/// otherwise; everything that touches a column is generic over it, so both
/// widths run the same source.
pub(crate) trait LaneWord:
    Copy
    + Eq
    + std::fmt::Debug
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Not<Output = Self>
{
    const BITS: u32;
    /// Lanes per 64-byte cache line: the chunk width of the sweep kernels.
    const LANES: usize;
    const ZERO: Self;
    const ONES: Self;
    /// The two's-complement view compares are made in.
    type Signed: Copy + Ord;
    /// One cache line of lanes, `[Self; Self::LANES]`.
    type Chunk: Copy + AsRef<[Self]> + AsMut<[Self]>;
    fn splat(self) -> Self::Chunk;
    /// The low `BITS` bits of `x`.
    fn narrow(x: u64) -> Self;
    /// Zero-extended.
    fn wide(self) -> u64;
    /// `ONES` when `on`, else `ZERO`.
    fn select(on: bool) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    /// `self << d`, zero once `d` reaches `BITS` — branchless.
    fn shl(self, d: Self) -> Self;
    /// `self >> d` (logical), zero once `d` reaches `BITS`.
    fn shr(self, d: Self) -> Self;
    /// Sign-extend from `BITS - sx` bits.
    fn sext(self, sx: u32) -> Self::Signed;
    /// `sext(sx) >> d` (arithmetic), `d` clamped to `BITS - 1`.
    fn sar(self, sx: u32, d: Self) -> Self;
}

macro_rules! lane_word {
    ($u:ty, $i:ty) => {
        impl LaneWord for $u {
            const BITS: u32 = <$u>::BITS;
            const LANES: usize = 64 / std::mem::size_of::<$u>();
            const ZERO: Self = 0;
            const ONES: Self = <$u>::MAX;
            type Signed = $i;
            type Chunk = [$u; 64 / std::mem::size_of::<$u>()];
            #[inline(always)]
            fn splat(self) -> Self::Chunk {
                [self; 64 / std::mem::size_of::<$u>()]
            }
            #[inline(always)]
            fn narrow(x: u64) -> Self {
                x as $u
            }
            #[inline(always)]
            fn wide(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn select(on: bool) -> Self {
                (0 as $u).wrapping_sub(on as $u)
            }
            #[inline(always)]
            fn add(self, o: Self) -> Self {
                self.wrapping_add(o)
            }
            #[inline(always)]
            fn sub(self, o: Self) -> Self {
                self.wrapping_sub(o)
            }
            #[inline(always)]
            fn shl(self, d: Self) -> Self {
                (self << (d & (<$u>::BITS as $u - 1))) & Self::select(d < <$u>::BITS as $u)
            }
            #[inline(always)]
            fn shr(self, d: Self) -> Self {
                (self >> (d & (<$u>::BITS as $u - 1))) & Self::select(d < <$u>::BITS as $u)
            }
            #[inline(always)]
            fn sext(self, sx: u32) -> $i {
                ((self << sx) as $i) >> sx
            }
            #[inline(always)]
            fn sar(self, sx: u32, d: Self) -> Self {
                (self.sext(sx) >> d.min(<$u>::BITS as $u - 1)) as $u
            }
        }
    };
}
lane_word!(u32, i32);
lane_word!(u64, i64);

/// A zeroed buffer of lane words whose first element sits on a 64-byte
/// boundary: a `Vec` allocated one cache line long and entered at the
/// aligned offset, so no `unsafe` view is needed. (A moved `Vec` keeps its
/// heap pointer; a clone re-derives the offset.)
#[derive(Debug)]
struct Aligned<W> {
    words: Vec<W>,
    /// Index of the first live word; `words[off..]` is the buffer.
    off: usize,
}

impl<W> Default for Aligned<W> {
    fn default() -> Self {
        Aligned {
            words: Vec::new(),
            off: 0,
        }
    }
}

impl<W: LaneWord> Aligned<W> {
    fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Aligned::default(); // no allocation: `mem::take` is free
        }
        let mut words = vec![W::ZERO; len + W::LANES];
        // A `W`-aligned pointer reaches a 64-byte boundary within one line
        // of lanes; the `min` only guards the offset the API may decline
        // to compute.
        let off = words.as_ptr().align_offset(64).min(W::LANES);
        words.truncate(off + len);
        Aligned { words, off }
    }

    #[inline]
    fn buf(&self) -> &[W] {
        &self.words[self.off..]
    }

    #[inline]
    fn buf_mut(&mut self) -> &mut [W] {
        &mut self.words[self.off..]
    }
}

impl<W: LaneWord> Clone for Aligned<W> {
    fn clone(&self) -> Self {
        let mut c = Self::zeroed(self.buf().len());
        c.buf_mut().copy_from_slice(self.buf());
        c
    }
}

/// A [`BatchLanes`] column buffer at the layout's lane word.
#[derive(Debug, Clone)]
enum Columns {
    Narrow(Aligned<u32>),
    Wide(Aligned<u64>),
}

/// The mutable column buffer of a [`BatchLanes`], for the compiled engine
/// to pick its lane word from.
pub(crate) enum ColumnsMut<'a> {
    Narrow(&'a mut [u32]),
    Wide(&'a mut [u64]),
}

/// Zero lanes `marks[f]..n` of each column `f` of `fields` that is defined
/// only below lane `n`, and mark it defined through `n`: how a writer
/// starting at lane `n` (or the compiled engine, before it reads lanes
/// `..n`) makes the lanes past a column's mark read as the zeros they
/// stand for. See [`BatchLanes`].
pub(crate) fn zero_below<W: LaneWord>(
    buf: &mut [W],
    cap: usize,
    marks: &mut [usize],
    n: usize,
    fields: impl IntoIterator<Item = usize>,
) {
    for f in fields {
        if marks[f] < n {
            buf[f * cap + marks[f]..f * cap + n].fill(W::ZERO);
            marks[f] = n;
        }
    }
}

/// Run `$body` with `$c` bound to the [`Aligned`] buffer of either width.
macro_rules! each_word {
    ($cols:expr, $c:ident => $body:expr) => {
        match $cols {
            Columns::Narrow($c) => $body,
            Columns::Wide($c) => $body,
        }
    };
}

/// A structure-of-arrays batch of packets: one flat column (lane) per PHV
/// field, so the compiled engine's batch mode can execute one instruction
/// across every packet in a tight inner loop instead of walking one packet
/// through the whole pipeline at a time.
///
/// The layout is column-major: field `f`'s value for packet `i` lives at
/// `buf[f * cap + i]`. A batch is either filled directly — `begin`, then
/// `set` per packet or the column writers `fill` / `fill_iota` /
/// `fill_slice` per lane range, the zero-copy paths `fpisa-pipeline` uses —
/// or transposed from existing [`Phv`]s at the batch boundary (`load` /
/// `store`).
///
/// **A fresh lane is zero without being cleared.** Each column keeps a
/// *mark*: the lanes below it hold defined values, the lanes from it up
/// hold whatever an earlier batch left there and stand for zeros. `begin`
/// resets every mark and `extend_to` moves none, so neither touches a
/// lane; every reader (`get`, `extend_from_column`, `store`) reads a lane
/// past its column's mark as 0, and every writer (`set`, `fill`,
/// `fill_iota`, `fill_slice`) first zeroes the gap between the mark and
/// the lanes it writes. Through these accessors a begun batch is
/// indistinguishable from fresh [`Phv::new`] packets, yet a column the
/// program never reads is never zeroed: the compiled engine zeroes a
/// column only before it reads one (see `compile`'s module docs).
///
/// **The lane word is a property of the layout** (`PhvLayout::lane_bits`):
/// when every field is at most 32 bits wide the columns are `u32` — 16
/// lanes to a cache line, half the bytes to zero, fill and sweep — and
/// `u64` otherwise. No caller chooses it and none can observe it: `set`
/// and `get` speak `u64` either way.
///
/// The buffer starts on a 64-byte boundary and `cap` is always a whole
/// number of cache lines of lanes, so **every column starts on a 64-byte
/// boundary**: the compiled engine's chunk kernels sweep whole aligned
/// lines and a vector load never straddles two.
#[derive(Debug, Clone)]
pub struct BatchLanes {
    cols: Columns,
    /// Per-field container mask, in layout order.
    masks: Vec<u64>,
    /// Lane stride: the allocated packet capacity (a multiple of the lane
    /// word's [`LaneWord::LANES`]).
    cap: usize,
    /// Live packet count (`<= cap`).
    len: usize,
    /// Per field: lanes `..marks[f]` of its column are defined, the rest
    /// read as 0 (`marks[f] <= len`).
    marks: Vec<usize>,
}

impl Default for BatchLanes {
    /// A buffer of no fields and no capacity — a placeholder to build the
    /// real one over ([`BatchLanes::new`]) once the layout is known.
    fn default() -> Self {
        BatchLanes {
            cols: Columns::Narrow(Aligned::default()),
            masks: Vec::new(),
            cap: 0,
            len: 0,
            marks: Vec::new(),
        }
    }
}

impl BatchLanes {
    /// A lanes buffer for `layout` with room for `cap` packets. The buffer
    /// grows on demand, so `cap` is only a pre-allocation hint.
    pub fn new(layout: &PhvLayout, cap: usize) -> Self {
        Self::with_lane_bits(layout, cap.max(1), layout.lane_bits())
    }

    /// [`BatchLanes::new`] at a forced lane word — the test seam that runs
    /// a narrow layout on `u64` columns, so both instantiations of the
    /// engine can be held against each other on one program.
    pub(crate) fn with_lane_bits(layout: &PhvLayout, cap: usize, lane_bits: u32) -> Self {
        let masks: Vec<u64> = layout
            .fields
            .iter()
            .map(|f| PhvLayout::mask(f.bits))
            .collect();
        let mut lanes = BatchLanes {
            cols: if lane_bits == 32 {
                Columns::Narrow(Aligned::default())
            } else {
                Columns::Wide(Aligned::default())
            },
            marks: vec![0; masks.len()],
            masks,
            cap: 0,
            len: 0,
        };
        lanes.alloc(cap);
        lanes
    }

    /// Round the column stride up to whole cache lines, and keep large
    /// strides off the L1 way size. A 32 KiB 8-way L1 holds 4 KiB per
    /// way, so columns a multiple of 4 KiB apart map lane `i` of *every*
    /// column to one set, and the per-packet walks (transpose, lane fill,
    /// divergent tape fallback) thrash its 8 ways with a few dozen
    /// columns. The test is on the column's size in **bytes** — 1024
    /// `u32` lanes alias exactly as 512 `u64` lanes do — and one extra
    /// cache line of padding staggers consecutive columns across sets
    /// while keeping every column 64-byte aligned.
    fn pad_cap<W: LaneWord>(cap: usize) -> usize {
        const WAY_BYTES: usize = 4096;
        let cap = cap.div_ceil(W::LANES) * W::LANES;
        if cap * std::mem::size_of::<W>() >= WAY_BYTES {
            cap + W::LANES
        } else {
            cap
        }
    }

    /// Replace the buffer with one of at least `cap` lanes per column,
    /// copying the live lanes over (the marks stay as they are).
    fn alloc(&mut self, cap: usize) {
        fn grow<W: LaneWord>(
            c: &mut Aligned<W>,
            fields: usize,
            old: usize,
            live: usize,
            cap: usize,
        ) -> usize {
            let cap = BatchLanes::pad_cap::<W>(cap);
            let mut grown = Aligned::zeroed(fields * cap);
            if live > 0 {
                let cols = grown
                    .buf_mut()
                    .chunks_exact_mut(cap)
                    .zip(c.buf().chunks_exact(old));
                for (to, from) in cols {
                    to[..live].copy_from_slice(&from[..live]);
                }
            }
            *c = grown;
            cap
        }
        let (fields, old, live) = (self.masks.len(), self.cap, self.len);
        self.cap = each_word!(&mut self.cols, c => grow(c, fields, old, live, cap));
    }

    fn ensure_cap(&mut self, len: usize) {
        if len > self.cap {
            self.alloc(len.next_power_of_two());
        }
    }

    /// Start a fresh batch of `len` packets whose every field reads 0, as
    /// `len` fresh [`Phv::new`] packets would: the column marks are reset,
    /// no lane is cleared.
    pub fn begin(&mut self, len: usize) {
        self.len = 0;
        self.marks.fill(0);
        self.extend_to(len);
    }

    /// Grow the batch to `len` packets: the packets already in it keep
    /// every field, and the new ones `self.len()..len` read 0 in every
    /// field, since they lie past every column's mark — a batch filled over
    /// several calls. Panics if `len` is below the live count.
    pub fn extend_to(&mut self, len: usize) {
        assert!(len >= self.len, "extending a batch cannot drop packets");
        self.ensure_cap(len);
        self.len = len;
    }

    /// Zero the gap below lane `at` of field `f` (see [`zero_below`]) and
    /// mark the column defined through lane `end`, ahead of a write of
    /// lanes `at..end`. Writers fill a column in lane order, so the gap is
    /// nearly always empty and its zeroing stays out of line. The mark is
    /// stored as `end` under a branch rather than as a `max` of the mark
    /// just loaded, so per-lane `set`s of one column do not chain their
    /// stores through that load.
    #[inline]
    fn define(&mut self, f: usize, at: usize, end: usize) {
        let mark = self.marks[f];
        if mark < end {
            if mark < at {
                self.zero_gap(f, at);
            }
            self.marks[f] = end;
        }
    }

    #[cold]
    fn zero_gap(&mut self, f: usize, at: usize) {
        let (cap, marks) = (self.cap, &mut self.marks[..]);
        each_word!(&mut self.cols, c => zero_below(c.buf_mut(), cap, marks, at, [f]));
    }

    /// Transpose a batch of PHVs in (every field of every packet is
    /// overwritten; no prior clear needed).
    ///
    /// This is half the fixed cost of SoA execution over a PHV buffer, so
    /// the walk is packet-major — one strided pass over the columns per
    /// packet, whose cache lines stay L1-resident across consecutive
    /// packets — with nothing per packet but one slice of its values (an
    /// iterator per column doubled the cost on a four-field program).
    pub fn load(&mut self, phvs: &[Phv]) {
        self.len = 0; // every lane is overwritten: nothing to carry over
        self.ensure_cap(phvs.len());
        self.len = phvs.len();
        self.marks.fill(self.len);
        let (cap, fields) = (self.cap, self.masks.len());
        each_word!(&mut self.cols, c => {
            let buf = c.buf_mut();
            for (i, p) in phvs.iter().enumerate() {
                let mut at = i;
                for &v in &p.values[..fields] {
                    buf[at] = LaneWord::narrow(v);
                    at += cap;
                }
            }
        });
    }

    /// Transpose the first `upto` packets back out into PHVs.
    pub fn store(&self, phvs: &mut [Phv], upto: usize) {
        self.store_fields(phvs, upto, 0..self.masks.len());
    }

    /// [`BatchLanes::store`] for the columns `fields` alone — all a batch
    /// loaded from these very PHVs needs back when nothing else can have
    /// been written.
    pub(crate) fn store_fields(
        &self,
        phvs: &mut [Phv],
        upto: usize,
        fields: impl Iterator<Item = usize> + Clone,
    ) {
        for (i, p) in phvs[..upto].iter_mut().enumerate() {
            for f in fields.clone() {
                p.values[f] = self.lane(f, i);
            }
        }
    }

    /// Lane `i` of field `f`'s column, 0 past the column's mark.
    #[inline]
    fn lane(&self, f: usize, i: usize) -> u64 {
        if i >= self.marks[f] {
            return 0;
        }
        let at = f * self.cap + i;
        each_word!(&self.cols, c => c.words[c.off + at].wide())
    }

    /// Live packet count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated packet capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Raw (zero-extended) value of a field for packet `i`.
    #[inline]
    pub fn get(&self, id: FieldId, i: usize) -> u64 {
        debug_assert!(i < self.len);
        self.lane(id.0 as usize, i)
    }

    /// Write a field for packet `i`, truncating to its declared width.
    #[inline]
    pub fn set(&mut self, id: FieldId, i: usize, value: u64) {
        debug_assert!(i < self.len);
        let f = id.0 as usize;
        self.define(f, i, i + 1);
        let at = f * self.cap + i;
        let v = value & self.masks[f];
        each_word!(&mut self.cols, c => c.words[c.off + at] = LaneWord::narrow(v));
    }

    /// The column writer behind [`BatchLanes::fill`], [`BatchLanes::fill_iota`],
    /// [`BatchLanes::fill_slice`] and `run_pairs`' scattered columns: lanes
    /// `at..at + values.len()` of one field in a single pass, each value
    /// truncated to the declared width like [`BatchLanes::set`]. Panics if
    /// the lanes are not all live.
    #[inline]
    pub(crate) fn write_column(
        &mut self,
        id: FieldId,
        at: usize,
        values: impl ExactSizeIterator<Item = u64>,
    ) {
        let f = id.0 as usize;
        let (mask, end) = (self.masks[f], at + values.len());
        assert!(end <= self.len, "column write past the live lanes");
        self.define(f, at, end);
        let base = f * self.cap;
        each_word!(&mut self.cols, c => {
            for (lane, v) in c.buf_mut()[base + at..base + end].iter_mut().zip(values) {
                *lane = LaneWord::narrow(v & mask);
            }
        });
    }

    /// Write one value into a field of live packets `at..` — a batch's
    /// constant column (an opcode) in one pass instead of one
    /// [`BatchLanes::set`] per packet.
    pub fn fill(&mut self, id: FieldId, at: usize, value: u64) {
        let len = self.len.saturating_sub(at);
        self.write_column(id, at, std::iter::repeat_n(value, len));
    }

    /// Write `first, first + 1, …` into a field of packets
    /// `at..at + len`: consecutive slots, the shape of every packet that
    /// carries a contiguous range of elements.
    pub fn fill_iota(&mut self, id: FieldId, at: usize, len: usize, first: u64) {
        self.write_column(id, at, (0..len).map(|k| first.wrapping_add(k as u64)));
    }

    /// Write `values` into a field of packets `at..at + values.len()`.
    pub fn fill_slice(&mut self, id: FieldId, at: usize, values: &[u64]) {
        self.write_column(id, at, values.iter().copied());
    }

    /// Append a field's value for every live packet, in packet order, to
    /// `out` — a result column drained in one pass instead of one
    /// [`BatchLanes::get`] per packet.
    pub fn extend_from_column(&self, id: FieldId, out: &mut Vec<u64>) {
        let f = id.0 as usize;
        let (base, defined) = (f * self.cap, self.marks[f]);
        each_word!(&self.cols, c => {
            out.extend(c.buf()[base..base + defined].iter().map(|w| w.wide()));
        });
        out.resize(out.len() + self.len - defined, 0);
    }

    /// Copy packet `i` into a flat value row (compiled-engine fallback).
    #[inline]
    pub(crate) fn read_row(&self, i: usize, row: &mut [u64]) {
        for (f, v) in row.iter_mut().enumerate() {
            *v = self.lane(f, i);
        }
    }

    /// Copy a flat value row back into packet `i`.
    #[inline]
    pub(crate) fn write_row(&mut self, i: usize, row: &[u64]) {
        for (f, &v) in row.iter().enumerate() {
            self.define(f, i, i + 1);
            let at = f * self.cap + i;
            each_word!(&mut self.cols, c => c.words[c.off + at] = LaneWord::narrow(v));
        }
    }

    /// The raw column buffer at its lane word, the column marks, the
    /// stride and the live lane count, for the compiled engine's batch
    /// execution (which pre-resolves every field offset and mask, and
    /// zeroes a column past its mark with [`zero_below`] before reading
    /// it).
    #[inline]
    pub(crate) fn columns_mut(&mut self) -> (ColumnsMut<'_>, &mut [usize], usize, usize) {
        let cols = match &mut self.cols {
            Columns::Narrow(c) => ColumnsMut::Narrow(c.buf_mut()),
            Columns::Wide(c) => ColumnsMut::Wide(c.buf_mut()),
        };
        (cols, &mut self.marks, self.cap, self.len)
    }
}

/// Sign-extend the low `bits` bits of `value` into an `i64`.
#[inline]
pub fn sign_extend(value: u64, bits: u32) -> i64 {
    if bits >= 64 {
        return value as i64;
    }
    let shift = 64 - bits;
    ((value << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_allocates_and_counts_bits() {
        let mut l = PhvLayout::new();
        let a = l.field("a", 32);
        let b = l.field("b", 9);
        assert_eq!(l.total_bits(), 41);
        assert_eq!(l.spec(a).name, "a");
        assert_eq!(l.lookup("b"), Some(b));
        assert_eq!(l.lookup("c"), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_field_names_panic() {
        let mut l = PhvLayout::new();
        l.field("x", 8);
        l.field("x", 8);
    }

    #[test]
    #[should_panic(expected = "duplicate PHV field name `m5`")]
    fn duplicate_rejection_survives_the_name_index() {
        // Regression test for the precomputed name→id index: duplicates
        // must still be rejected at build time, wherever they land in the
        // sorted order.
        let mut l = PhvLayout::new();
        for i in 0..10 {
            l.field(format!("m{i}"), 8);
        }
        l.field("m5", 8);
    }

    #[test]
    fn name_index_resolves_every_field_in_a_large_layout() {
        let mut l = PhvLayout::new();
        // Deliberately unsorted insertion order.
        let ids: Vec<(String, FieldId)> = [7, 3, 9, 0, 12, 5, 1, 8, 2, 11]
            .iter()
            .map(|i| {
                let name = format!("field_{i}");
                let id = l.field(&name, 16);
                (name, id)
            })
            .collect();
        for (name, id) in &ids {
            assert_eq!(l.lookup(name), Some(*id), "{name}");
        }
        assert_eq!(l.lookup("field_4"), None);
        assert_eq!(l.lookup(""), None);
    }

    #[test]
    fn clear_resets_values_like_a_fresh_phv() {
        let mut l = PhvLayout::new();
        let a = l.field("a", 8);
        let b = l.field("b", 32);
        let mut p = Phv::new(&l);
        p.set(a, 0xAB);
        p.set(b, 0xDEAD_BEEF);
        p.clear();
        assert_eq!(p, Phv::new(&l));
        assert_eq!(p.get(a), 0);
        assert_eq!(p.get(b), 0);
        assert_eq!(p.width(b), 32, "layout survives clear");
    }

    #[test]
    fn writes_truncate_to_width() {
        let mut l = PhvLayout::new();
        let f = l.field("f", 8);
        let mut p = Phv::new(&l);
        p.set(f, 0x1FF);
        assert_eq!(p.get(f), 0xFF);
    }

    #[test]
    fn signed_reads_sign_extend_from_width() {
        let mut l = PhvLayout::new();
        let f = l.field("f", 8);
        let g = l.field("g", 32);
        let mut p = Phv::new(&l);
        p.set(f, 0xFF);
        assert_eq!(p.get_signed(f), -1);
        p.set_signed(g, -5);
        assert_eq!(p.get(g), 0xFFFF_FFFB);
        assert_eq!(p.get_signed(g), -5);
    }

    #[test]
    fn sign_extend_edge_widths() {
        assert_eq!(sign_extend(1, 1), -1);
        assert_eq!(sign_extend(0, 1), 0);
        assert_eq!(sign_extend(u64::MAX, 64), -1);
        assert_eq!(sign_extend(0x8000_0000, 32), i32::MIN as i64);
    }

    #[test]
    fn batch_lanes_transpose_roundtrip_and_masking() {
        let mut l = PhvLayout::new();
        let a = l.field("a", 8);
        let b = l.field("b", 32);
        let mut phvs: Vec<Phv> = (0..10)
            .map(|i| {
                let mut p = Phv::new(&l);
                p.set(a, i as u64);
                p.set(b, 0x1000 + i as u64);
                p
            })
            .collect();
        let mut lanes = BatchLanes::new(&l, 4); // smaller than the batch: must grow
        lanes.load(&phvs);
        assert_eq!(lanes.len(), 10);
        assert!(lanes.capacity() >= 10);
        for i in 0..10 {
            assert_eq!(lanes.get(a, i), i as u64);
            assert_eq!(lanes.get(b, i), 0x1000 + i as u64);
        }
        // Writes truncate to field width, exactly like Phv::set.
        lanes.set(a, 3, 0x1FF);
        assert_eq!(lanes.get(a, 3), 0xFF);
        lanes.store(&mut phvs, 10);
        assert_eq!(phvs[3].get(a), 0xFF);
        assert_eq!(phvs[9].get(b), 0x1009);

        // A begun batch is indistinguishable from fresh PHVs.
        lanes.begin(6);
        assert_eq!(lanes.len(), 6);
        for i in 0..6 {
            assert_eq!(lanes.get(a, i), 0);
            assert_eq!(lanes.get(b, i), 0);
        }
    }

    #[test]
    fn column_writers_equal_per_lane_sets_on_both_lane_words() {
        let mut l = PhvLayout::new();
        let op = l.field("op", 2);
        let slot = l.field("slot", 9);
        let value = l.field("value", 16);
        let untouched = l.field("untouched", 32);
        for lane_bits in [32, 64] {
            for n in [1usize, 15, 16, 17, 100, 256] {
                let mut by_column = BatchLanes::with_lane_bits(&l, n, lane_bits);
                let mut by_lane = BatchLanes::with_lane_bits(&l, n, lane_bits);
                by_column.begin(n);
                by_lane.begin(n);
                // Values wider than their fields: every writer truncates
                // like `set`. The slot column is two iota pieces, the
                // value column two slices, the second of each mid-batch.
                let words: Vec<u64> = (0..n as u64).map(|i| i * 0x1_0101 + 0xFFFF_0000).collect();
                let cut = n / 3;
                by_column.fill(op, 0, 7);
                by_column.fill_iota(slot, 0, cut, 500);
                by_column.fill_iota(slot, cut, n - cut, 3);
                by_column.fill_slice(value, 0, &words[..cut]);
                by_column.fill_slice(value, cut, &words[cut..]);
                by_column.fill_slice(value, n, &[]); // empty, at the end
                for (i, &word) in words.iter().enumerate() {
                    by_lane.set(op, i, 7);
                    let first = if i < cut { 500 + i } else { 3 + i - cut };
                    by_lane.set(slot, i, first as u64);
                    by_lane.set(value, i, word);
                }
                for f in [op, slot, value, untouched] {
                    let (mut got, mut want) = (vec![99], vec![99]);
                    by_column.extend_from_column(f, &mut got);
                    want.extend((0..n).map(|i| by_lane.get(f, i)));
                    assert_eq!(got, want, "{lane_bits}-bit lanes / {n} packets / {f:?}");
                }
                assert_eq!(by_column.get(op, n - 1), 3, "masked to two bits");
            }
        }
    }

    #[test]
    fn column_writers_fill_a_batch_extended_in_place_on_both_lane_words() {
        let mut l = PhvLayout::new();
        let op = l.field("op", 2);
        let slot = l.field("slot", 16);
        let value = l.field("value", 32);
        for lane_bits in [32, 64] {
            // Room for 16 lanes: the last extension must grow the columns.
            let mut lanes = BatchLanes::with_lane_bits(&l, 16, lane_bits);
            lanes.begin(16);
            lanes.fill(value, 0, 0xAB); // stale past the batch below
            lanes.begin(10);
            lanes.fill(op, 0, 1);
            lanes.fill_iota(slot, 0, 10, 100);
            for (to, first) in [(16usize, 200u64), (300, 300), (300, 0)] {
                let from = lanes.len();
                lanes.extend_to(to);
                for f in [op, slot, value] {
                    for i in from..to {
                        assert_eq!(lanes.get(f, i), 0, "{lane_bits}-bit lanes: new lane {i}");
                    }
                }
                lanes.fill(op, from, 2);
                lanes.fill_iota(slot, from, to - from, first);
            }
            let mut ops = Vec::new();
            lanes.extend_from_column(op, &mut ops);
            let want: Vec<u64> = (0..300).map(|i| if i < 10 { 1 } else { 2 }).collect();
            assert_eq!(ops, want, "{lane_bits}-bit lanes");
            let slots: Vec<u64> = (0..300).map(|i| lanes.get(slot, i)).collect();
            let want: Vec<u64> = (0..300u64)
                .map(|i| match i {
                    0..10 => 100 + i,
                    10..16 => 200 + i - 10,
                    _ => 300 + i - 16,
                })
                .collect();
            assert_eq!(slots, want, "{lane_bits}-bit lanes");
            assert!(
                (0..300).all(|i| lanes.get(value, i) == 0),
                "{lane_bits}-bit lanes"
            );
        }
    }

    /// Every reader of `lanes`' first `n` packets against `want(field,
    /// lane)`: `get`, `extend_from_column`, `store` and `read_row`.
    fn assert_reads(
        lanes: &BatchLanes,
        l: &PhvLayout,
        n: usize,
        want: impl Fn(FieldId, usize) -> u64,
    ) {
        let mut phvs = vec![Phv::new(l); n];
        lanes.store(&mut phvs, n);
        let mut row = vec![99; l.len()];
        for (f, _) in l.iter() {
            let want: Vec<u64> = (0..n).map(|i| want(f, i)).collect();
            let mut col = vec![];
            lanes.extend_from_column(f, &mut col);
            assert_eq!(col, want, "{f:?}: extend_from_column");
            for i in 0..n {
                assert_eq!(lanes.get(f, i), want[i], "{f:?} lane {i}: get");
                assert_eq!(phvs[i].get(f), want[i], "{f:?} lane {i}: store");
                lanes.read_row(i, &mut row);
                assert_eq!(row[f.0 as usize], want[i], "{f:?} lane {i}: read_row");
            }
        }
    }

    #[test]
    fn lanes_past_a_column_mark_read_zero_on_both_lane_words() {
        let mut l = PhvLayout::new();
        let a = l.field("a", 8);
        let b = l.field("b", 32);
        let c = l.field("c", 16);
        for lane_bits in [32, 64] {
            let mut lanes = BatchLanes::with_lane_bits(&l, 32, lane_bits);
            // A batch that leaves every lane of every column non-zero.
            lanes.begin(32);
            for f in [a, b, c] {
                lanes.fill(f, 0, u64::MAX);
            }
            // A fresh batch over the stale lanes: `set` and `fill_slice`
            // start past their columns' marks, `c` is never written.
            lanes.begin(20);
            lanes.set(a, 5, 7);
            lanes.fill_slice(b, 10, &[1, 2, 3]);
            let want = |f: FieldId, i: usize| match (f.0, i) {
                (0, 5) => 7,
                (1, 10..13) => i as u64 - 9,
                _ => 0,
            };
            assert_reads(&lanes, &l, 20, want);
            assert_reads(&lanes.clone(), &l, 20, want);
            // Growth copies the live lanes, stale ones included, and keeps
            // the marks: the stale lanes and the new ones still read 0.
            lanes.extend_to(300);
            assert!(lanes.capacity() >= 300);
            assert_reads(&lanes, &l, 300, want);
            // A write past the mark after growth zeroes the copied gap.
            lanes.set(a, 250, 9);
            lanes.fill_slice(c, 19, &[4]);
            let want = |f: FieldId, i: usize| match (f.0, i) {
                (0, 250) => 9,
                (2, 19) => 4,
                _ => want(f, i),
            };
            assert_reads(&lanes, &l, 300, want);
            assert_reads(&lanes.clone(), &l, 300, want);
            let (_, marks, _, len) = lanes.columns_mut();
            assert_eq!(
                (marks.to_vec(), len),
                (vec![251, 13, 20], 300),
                "{lane_bits}-bit lanes"
            );
        }
    }

    #[test]
    #[should_panic(expected = "past the live lanes")]
    fn a_column_write_past_the_live_lanes_panics() {
        let mut l = PhvLayout::new();
        let f = l.field("f", 8);
        let mut lanes = BatchLanes::new(&l, 64);
        lanes.begin(10);
        // Within the allocation, but not within the batch.
        lanes.fill_iota(f, 8, 3, 0);
    }

    /// The address and element size of a batch's column buffer.
    fn base_and_word(lanes: &mut BatchLanes) -> (usize, usize) {
        match lanes.columns_mut().0 {
            ColumnsMut::Narrow(buf) => (buf.as_ptr() as usize, 4),
            ColumnsMut::Wide(buf) => (buf.as_ptr() as usize, 8),
        }
    }

    #[test]
    fn batch_lanes_columns_are_cache_line_aligned() {
        // Both lane words: five 32-bit fields run narrow, a 33-bit one
        // puts the same shape on `u64` columns.
        for widest in [32u32, 33] {
            let mut l = PhvLayout::new();
            let fields: Vec<FieldId> = (0..5)
                .map(|i| l.field(format!("f{i}"), if i == 0 { widest } else { 32 }))
                .collect();
            // Batch sizes deliberately off every power-of-two and
            // whole-line boundary, including the staggered region, through
            // a clone (which must re-derive its own aligned offset).
            for n in [1usize, 3, 7, 13, 100, 250, 511, 517, 1000, 1024, 4096] {
                let mut lanes = BatchLanes::new(&l, n).clone();
                lanes.begin(n);
                let cap = lanes.capacity();
                assert!(cap >= n, "capacity {cap} below batch size {n}");
                let (base, word) = base_and_word(&mut lanes);
                assert_eq!(word * 8, l.lane_bits() as usize);
                assert_eq!(cap * word % 64, 0, "stride {cap} not whole lines");
                assert_eq!(base % 64, 0, "buffer base not 64-byte aligned");
                for f in &fields {
                    assert_eq!(
                        (base + f.0 as usize * cap * word) % 64,
                        0,
                        "column {f:?} misaligned at batch size {n}"
                    );
                }
                // The set-aliasing stagger is a rule about bytes: no
                // column of 4 KiB or more is a whole number of L1 ways.
                if cap * word >= 4096 {
                    assert_ne!(cap * word % 4096, 0, "{n} lanes of {word} bytes alias");
                }
            }
        }
    }

    #[test]
    fn batch_lanes_stride_rounding_keeps_indexing_correct() {
        // `cap` rounds up to whole cache lines: `vals[field * cap + lane]`
        // must keep addressing distinct cells for every (field, lane)
        // pair at non-multiple-of-8 batch sizes.
        let mut l = PhvLayout::new();
        let a = l.field("a", 64);
        let b = l.field("b", 64);
        let c = l.field("c", 16);
        for n in [5usize, 13, 100, 517] {
            let mut lanes = BatchLanes::new(&l, 1); // must grow + re-pad
            lanes.begin(n);
            for i in 0..n {
                lanes.set(a, i, 0xA000 + i as u64);
                lanes.set(b, i, 0xB000 + i as u64);
                lanes.set(c, i, i as u64);
            }
            for i in 0..n {
                assert_eq!(lanes.get(a, i), 0xA000 + i as u64, "n={n} lane {i}");
                assert_eq!(lanes.get(b, i), 0xB000 + i as u64, "n={n} lane {i}");
                assert_eq!(lanes.get(c, i), i as u64 & 0xFFFF, "n={n} lane {i}");
            }
            // The same invariant through the raw strided view the
            // compiled engine uses.
            let (ColumnsMut::Wide(buf), _, cap, len) = lanes.columns_mut() else {
                panic!("64-bit fields must take `u64` columns");
            };
            assert_eq!(len, n);
            for i in 0..n {
                assert_eq!(buf[cap + i], 0xB000 + i as u64);
            }
        }
    }
}
