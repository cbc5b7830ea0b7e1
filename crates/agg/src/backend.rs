//! The pluggable aggregation backend interface and the exact reference.
//!
//! A backend owns the switch-side aggregation state for a range of slots
//! and defines both halves of the data path:
//!
//! * **host side** — [`Aggregator::encode`] turns a gradient element into
//!   the backend's *wire word* (packed IEEE bits for FPISA, a scaled
//!   two's-complement integer for SwitchML), accounting any clipping;
//! * **switch side** — [`Aggregator::add_wire`] folds wire words into
//!   consecutive slots and [`Aggregator::read_range`] renormalizes them
//!   back out. The two production backends
//!   ([`crate::FpisaAggregator`], [`crate::SwitchMlFixedPoint`]) run these
//!   through compiled `fpisa-pisa` switch programs; [`ExactF64`] is the
//!   host-side ground truth the Fig. 10 experiment measures against.

use fpisa_core::AddStats;
use fpisa_pisa::RuntimeError;
use serde::{Deserialize, Serialize};

/// Why an aggregation operation failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AggError {
    /// A slot range does not fit the backend's slot pool.
    RangeOutOfBounds {
        /// First slot of the range.
        start: usize,
        /// Range length.
        len: usize,
        /// Slots the backend provides.
        slots: usize,
    },
    /// A switch program faulted (surfaced from `fpisa-pisa`).
    Switch(RuntimeError),
    /// A wire word decoded to a non-finite value the backend cannot fold.
    NonFinite {
        /// Slot the word was destined for.
        slot: usize,
    },
    /// A job or backend configuration is internally inconsistent.
    BadSpec {
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for AggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggError::RangeOutOfBounds { start, len, slots } => {
                write!(f, "slot range {start}+{len} outside pool of {slots} slots")
            }
            AggError::Switch(e) => write!(f, "switch fault: {e}"),
            AggError::NonFinite { slot } => {
                write!(f, "non-finite wire word for slot {slot}")
            }
            AggError::BadSpec { detail } => write!(f, "bad specification: {detail}"),
        }
    }
}

impl std::error::Error for AggError {}

impl From<RuntimeError> for AggError {
    fn from(e: RuntimeError) -> Self {
        AggError::Switch(e)
    }
}

/// Cumulative numeric accounting of one backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AggStats {
    /// Per-element addition events, merged across every slot
    /// ([`fpisa_core::AddStats::merge`]): rounding, overwrites, left
    /// shifts, register overflows.
    pub add: AddStats,
    /// Host-side encode clamps: values beyond the format's finite range
    /// (FPISA) or beyond the fixed-point quantization range (SwitchML).
    pub clipped: u64,
}

/// A pluggable aggregation backend over a pool of slots.
pub trait Aggregator {
    /// Human-readable backend label for reports.
    fn label(&self) -> String;

    /// Number of aggregation slots the backend holds.
    fn slots(&self) -> usize;

    /// Bytes one wire word occupies in a packet frame
    /// (see [`crate::protocol::encode_packet`]).
    fn word_bytes(&self) -> u8;

    /// Host side: encode one gradient element into a wire word, clamping
    /// to the representable range and accounting the clip.
    fn encode(&mut self, x: f64) -> u64;

    /// Switch side: fold one wire word per consecutive slot, starting at
    /// `start`. The range is validated before any state changes.
    ///
    /// A fold may be **deferred**: a backend may hold the words in a
    /// partly filled batch and run it with later calls' words (the FPISA
    /// backend does, through [`fpisa_pipeline::FpisaPipeline::add_ranges`],
    /// and so does [`crate::SwitchMlFixedPoint`]).
    /// Folds still apply in call order, and each takes effect no later
    /// than the backend's next `read_range` or `clear_range`, so every
    /// read-out is the one folding at once would give. A call that fails
    /// validation returns before anything is held.
    fn add_wire(&mut self, start: usize, words: &[u64]) -> Result<(), AggError>;

    /// Switch side, many chunks at once: fold several `(start, words)`
    /// payloads in one call. The compiled backends fill one lane batch
    /// from the whole set here.
    ///
    /// **Contract: all-or-nothing.** Implementations must validate every
    /// chunk — ranges and word validity — *before* folding anything, so
    /// a rejected call leaves the backend untouched.
    /// [`crate::AggregationSwitch::ingest_batch`] depends on this: it
    /// commits pool contributions only after this call succeeds, and a
    /// partial fold would double-count on retransmission. There is
    /// deliberately no chunk-by-chunk default implementation, because it
    /// could not honor the contract.
    fn add_wire_multi(&mut self, chunks: &[(usize, &[u64])]) -> Result<(), AggError>;

    /// Read `len` slots starting at `start` back as `f64` values.
    /// Reading must not modify any slot. The switch-backed
    /// implementations push the whole contiguous range through their
    /// engine's batch path, so chunked read-outs cost the same per slot
    /// as batched ingest.
    fn read_range(&mut self, start: usize, len: usize) -> Result<Vec<f64>, AggError>;

    /// Control-plane reset of a slot range for round reuse.
    fn clear_range(&mut self, start: usize, len: usize) -> Result<(), AggError>;

    /// Numeric accounting so far.
    fn stats(&self) -> AggStats;

    /// Validate a slot range against the pool (helper for implementors).
    fn check_range(&self, start: usize, len: usize) -> Result<(), AggError> {
        let ok = start
            .checked_add(len)
            .map(|end| end <= self.slots())
            .unwrap_or(false);
        if ok {
            Ok(())
        } else {
            Err(AggError::RangeOutOfBounds {
                start,
                len,
                slots: self.slots(),
            })
        }
    }
}

impl<T: Aggregator + ?Sized> Aggregator for Box<T> {
    fn label(&self) -> String {
        (**self).label()
    }
    fn slots(&self) -> usize {
        (**self).slots()
    }
    fn word_bytes(&self) -> u8 {
        (**self).word_bytes()
    }
    fn encode(&mut self, x: f64) -> u64 {
        (**self).encode(x)
    }
    fn add_wire(&mut self, start: usize, words: &[u64]) -> Result<(), AggError> {
        (**self).add_wire(start, words)
    }
    fn add_wire_multi(&mut self, chunks: &[(usize, &[u64])]) -> Result<(), AggError> {
        (**self).add_wire_multi(chunks)
    }
    fn read_range(&mut self, start: usize, len: usize) -> Result<Vec<f64>, AggError> {
        (**self).read_range(start, len)
    }
    fn clear_range(&mut self, start: usize, len: usize) -> Result<(), AggError> {
        (**self).clear_range(start, len)
    }
    fn stats(&self) -> AggStats {
        (**self).stats()
    }
}

/// The ground-truth reference backend: exact `f64` accumulation per slot,
/// `f64` bit patterns on the wire. Host-side by construction — it is what
/// the switch-side backends are measured against, not a deployable design.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExactF64 {
    sums: Vec<f64>,
    additions: u64,
}

impl ExactF64 {
    /// A zeroed reference pool of `slots` slots.
    pub fn new(slots: usize) -> Self {
        ExactF64 {
            sums: vec![0.0; slots],
            additions: 0,
        }
    }
}

impl Aggregator for ExactF64 {
    fn label(&self) -> String {
        "exact f64 (reference)".into()
    }

    fn slots(&self) -> usize {
        self.sums.len()
    }

    fn word_bytes(&self) -> u8 {
        8
    }

    fn encode(&mut self, x: f64) -> u64 {
        x.to_bits()
    }

    fn add_wire(&mut self, start: usize, words: &[u64]) -> Result<(), AggError> {
        self.add_wire_multi(&[(start, words)])
    }

    fn add_wire_multi(&mut self, chunks: &[(usize, &[u64])]) -> Result<(), AggError> {
        // Reject bad ranges and non-finite words before folding anything,
        // so a rejected batch leaves no partial state — same contract as
        // the switch backends.
        for &(start, words) in chunks {
            self.check_range(start, words.len())?;
            for (i, &w) in words.iter().enumerate() {
                if !f64::from_bits(w).is_finite() {
                    return Err(AggError::NonFinite { slot: start + i });
                }
            }
        }
        for &(start, words) in chunks {
            for (i, &w) in words.iter().enumerate() {
                self.sums[start + i] += f64::from_bits(w);
                self.additions += 1;
            }
        }
        Ok(())
    }

    fn read_range(&mut self, start: usize, len: usize) -> Result<Vec<f64>, AggError> {
        self.check_range(start, len)?;
        Ok(self.sums[start..start + len].to_vec())
    }

    fn clear_range(&mut self, start: usize, len: usize) -> Result<(), AggError> {
        self.check_range(start, len)?;
        self.sums[start..start + len].fill(0.0);
        Ok(())
    }

    fn stats(&self) -> AggStats {
        AggStats {
            add: AddStats {
                additions: self.additions,
                exact: self.additions,
                ..AddStats::default()
            },
            clipped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_reference_sums_and_clears() {
        let mut e = ExactF64::new(4);
        let words: Vec<u64> = [1.5f64, -0.25, 3.0]
            .iter()
            .map(|&x| Aggregator::encode(&mut e, x))
            .collect();
        e.add_wire(1, &words).unwrap();
        e.add_wire(1, &words).unwrap();
        assert_eq!(e.read_range(0, 4).unwrap(), vec![0.0, 3.0, -0.5, 6.0]);
        assert_eq!(e.stats().add.additions, 6);
        assert_eq!(e.stats().add.exact, 6);
        e.clear_range(1, 2).unwrap();
        assert_eq!(e.read_range(0, 4).unwrap(), vec![0.0, 0.0, 0.0, 6.0]);
    }

    #[test]
    fn exact_reference_validates_ranges_and_words() {
        let mut e = ExactF64::new(2);
        assert!(matches!(
            e.add_wire(1, &[0, 0]),
            Err(AggError::RangeOutOfBounds { .. })
        ));
        assert!(matches!(
            e.read_range(usize::MAX, 2),
            Err(AggError::RangeOutOfBounds { .. })
        ));
        assert_eq!(
            e.add_wire(0, &[f64::INFINITY.to_bits()]),
            Err(AggError::NonFinite { slot: 0 })
        );
        // A rejected batch folds nothing, even its finite words — same
        // all-or-nothing contract as the switch backends.
        assert_eq!(
            e.add_wire(0, &[1.0f64.to_bits(), f64::NAN.to_bits()]),
            Err(AggError::NonFinite { slot: 1 })
        );
        assert_eq!(e.read_range(0, 2).unwrap(), vec![0.0, 0.0]);
        assert_eq!(e.stats().add.additions, 0);
    }
}
