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

/// A structure-of-arrays batch of packets: one flat column (lane) per PHV
/// field, so the compiled engine's batch mode can execute one instruction
/// across every packet in a tight inner loop instead of walking one packet
/// through the whole pipeline at a time.
///
/// The layout is column-major: field `f`'s value for packet `i` lives at
/// `buf[f * cap + i]`. A batch is either filled directly (`begin` + `set`,
/// the zero-copy path `fpisa-pipeline` uses) or transposed from existing
/// [`Phv`]s at the batch boundary (`load` / `store`).
///
/// The backing store is allocated in 64-byte cache-line units and `cap`
/// is always a multiple of 8 lanes, so **every column starts on a
/// 64-byte boundary**: the compiled engine's eight-wide chunk kernels
/// sweep whole aligned lines and a vector load never straddles two.
#[derive(Debug, Clone, Default)]
pub struct BatchLanes {
    /// The column buffer, in 64-byte-aligned cache-line cells; viewed as
    /// a flat `[u64]` through [`BatchLanes::buf`] / [`BatchLanes::buf_mut`].
    cells: Vec<CacheLine>,
    /// Per-field container mask, in layout order.
    masks: Vec<u64>,
    /// Lane stride: the allocated packet capacity (multiple of
    /// [`LANES_PER_LINE`]).
    cap: usize,
    /// Live packet count (`<= cap`).
    len: usize,
}

/// One 64-byte-aligned allocation unit of a [`BatchLanes`] buffer.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct CacheLine([u64; LANES_PER_LINE]);

/// `u64` lanes per 64-byte cache line.
const LANES_PER_LINE: usize = 8;

impl BatchLanes {
    /// A lanes buffer for `layout` with room for `cap` packets. The buffer
    /// grows on demand, so `cap` is only a pre-allocation hint.
    pub fn new(layout: &PhvLayout, cap: usize) -> Self {
        let masks: Vec<u64> = layout
            .fields
            .iter()
            .map(|f| PhvLayout::mask(f.bits))
            .collect();
        let cap = Self::pad_cap(cap.max(1));
        BatchLanes {
            cells: Self::alloc(masks.len(), cap),
            masks,
            cap,
            len: 0,
        }
    }

    /// Round the column stride up to whole cache lines, and keep large
    /// strides off powers of two: at 4096 packets a column is exactly
    /// 32 KiB, so *every* column of a packet maps to the same L1 set and
    /// the per-packet walks (transpose, divergent tape fallback) thrash
    /// an 8-way set with ~50 lines. One extra cache line of padding
    /// staggers consecutive columns across sets — and, being exactly
    /// [`LANES_PER_LINE`] lanes, keeps the stride a multiple of 8 so
    /// every column stays 64-byte aligned.
    fn pad_cap(cap: usize) -> usize {
        let cap = cap.div_ceil(LANES_PER_LINE) * LANES_PER_LINE;
        if cap >= 512 {
            cap + LANES_PER_LINE
        } else {
            cap
        }
    }

    /// A zeroed cache-line-aligned buffer of `fields` columns of `cap`
    /// lanes. `cap` is a multiple of [`LANES_PER_LINE`] (the `pad_cap`
    /// invariant), so the columns tile the cells exactly.
    fn alloc(fields: usize, cap: usize) -> Vec<CacheLine> {
        debug_assert_eq!(cap % LANES_PER_LINE, 0);
        vec![CacheLine([0; LANES_PER_LINE]); fields * cap / LANES_PER_LINE]
    }

    /// The flat column view: field `f`, lane `i` at `f * cap + i`.
    #[inline]
    fn buf(&self) -> &[u64] {
        // SAFETY: `CacheLine` is `repr(C)` over `[u64; LANES_PER_LINE]`,
        // so `cells` is exactly `cells.len() * LANES_PER_LINE` contiguous
        // initialized `u64`s (alignment 64 ≥ 8).
        unsafe {
            std::slice::from_raw_parts(
                self.cells.as_ptr().cast::<u64>(),
                self.cells.len() * LANES_PER_LINE,
            )
        }
    }

    /// Mutable [`BatchLanes::buf`].
    #[inline]
    fn buf_mut(&mut self) -> &mut [u64] {
        // SAFETY: as in `buf`.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.cells.as_mut_ptr().cast::<u64>(),
                self.cells.len() * LANES_PER_LINE,
            )
        }
    }

    fn ensure_cap(&mut self, len: usize) {
        if len > self.cap {
            // Discard and reallocate: callers overwrite (load) or zero
            // (begin) the active region anyway.
            self.cap = Self::pad_cap(len.next_power_of_two());
            self.cells = Self::alloc(self.masks.len(), self.cap);
        }
    }

    /// Start a fresh batch of `len` zeroed packets (a cleared lane batch is
    /// indistinguishable from `len` fresh [`Phv::new`] packets).
    pub fn begin(&mut self, len: usize) {
        self.ensure_cap(len);
        self.len = len;
        let (fields, cap) = (self.masks.len(), self.cap);
        let buf = self.buf_mut();
        for f in 0..fields {
            let base = f * cap;
            buf[base..base + len].fill(0);
        }
    }

    /// Transpose a batch of PHVs in (every field of every packet is
    /// overwritten; no prior clear needed).
    ///
    /// This is half the fixed cost of SoA execution over a PHV buffer, so
    /// the inner walk is a single strided pointer chase per packet — the
    /// ~50 column cache lines it touches stay L1-resident across
    /// consecutive packets (8 packets share each line).
    pub fn load(&mut self, phvs: &[Phv]) {
        self.ensure_cap(phvs.len());
        self.len = phvs.len();
        let cap = self.cap;
        let base = self.cells.as_mut_ptr().cast::<u64>();
        for (i, p) in phvs.iter().enumerate() {
            debug_assert_eq!(p.values.len(), self.masks.len(), "PHV layout mismatch");
            let n = self.masks.len().min(p.values.len());
            for f in 0..n {
                // SAFETY: `f < masks.len()` and `i < len <= cap`, and
                // `buf.len() == masks.len() * cap`.
                unsafe { *base.add(f * cap + i) = *p.values.get_unchecked(f) };
            }
        }
    }

    /// Transpose the first `upto` packets back out into PHVs.
    pub fn store(&self, phvs: &mut [Phv], upto: usize) {
        let cap = self.cap;
        let base = self.cells.as_ptr().cast::<u64>();
        for (i, p) in phvs[..upto].iter_mut().enumerate() {
            debug_assert_eq!(p.values.len(), self.masks.len(), "PHV layout mismatch");
            let n = self.masks.len().min(p.values.len());
            for f in 0..n {
                // SAFETY: as in `load`; `upto <= len <= cap` is the
                // caller's contract, checked by the slice above.
                unsafe { *p.values.get_unchecked_mut(f) = *base.add(f * cap + i) };
            }
        }
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
        self.buf()[id.0 as usize * self.cap + i]
    }

    /// Write a field for packet `i`, truncating to its declared width.
    #[inline]
    pub fn set(&mut self, id: FieldId, i: usize, value: u64) {
        debug_assert!(i < self.len);
        let f = id.0 as usize;
        let off = f * self.cap + i;
        let v = value & self.masks[f];
        self.buf_mut()[off] = v;
    }

    /// Copy packet `i` into a flat value row (compiled-engine fallback).
    #[inline]
    pub(crate) fn read_row(&self, i: usize, row: &mut [u64]) {
        let (cap, buf) = (self.cap, self.buf());
        for (f, v) in row.iter_mut().enumerate() {
            *v = buf[f * cap + i];
        }
    }

    /// Copy a flat value row back into packet `i`.
    #[inline]
    pub(crate) fn write_row(&mut self, i: usize, row: &[u64]) {
        let cap = self.cap;
        let buf = self.buf_mut();
        for (f, &v) in row.iter().enumerate() {
            buf[f * cap + i] = v;
        }
    }

    /// The raw column buffer and its stride, for the compiled engine's
    /// batch execution (which pre-resolves every field offset and mask).
    #[inline]
    pub(crate) fn raw_parts_mut(&mut self) -> (&mut [u64], usize, usize) {
        let (cap, len) = (self.cap, self.len);
        (self.buf_mut(), cap, len)
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
    fn batch_lanes_columns_are_cache_line_aligned() {
        let mut l = PhvLayout::new();
        let fields: Vec<FieldId> = (0..5).map(|i| l.field(format!("f{i}"), 32)).collect();
        // Batch sizes deliberately off every power-of-two and
        // multiple-of-8 boundary, including the ≥512 stagger region.
        for n in [1usize, 3, 7, 13, 100, 250, 511, 517, 1000, 4096] {
            let mut lanes = BatchLanes::new(&l, n);
            lanes.begin(n);
            let cap = lanes.capacity();
            assert_eq!(cap % LANES_PER_LINE, 0, "stride {cap} not whole lines");
            assert!(cap >= n, "capacity {cap} below batch size {n}");
            let base = lanes.cells.as_ptr() as usize;
            assert_eq!(base % 64, 0, "buffer base not 64-byte aligned");
            for f in &fields {
                // Column start address = base + field * cap * 8 bytes.
                assert_eq!(
                    (base + f.0 as usize * cap * 8) % 64,
                    0,
                    "column {f:?} misaligned at batch size {n}"
                );
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
            let (buf, cap, len) = lanes.raw_parts_mut();
            assert_eq!(len, n);
            for i in 0..n {
                assert_eq!(buf[cap + i], 0xB000 + i as u64);
            }
        }
    }
}
