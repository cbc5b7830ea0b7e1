//! The harness's arithmetic: percentiles, medians, spreads, the result
//! hash and the seed mixer. Everything here is pure and unit-tested, so
//! a reported number can be traced to a stated rule.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// index `ceil(p · n) − 1` (clamped to the sample). `p = 0.5` of
/// `[1, 2, 3, 4]` is `2`; `p = 0.9` of ten samples is the ninth.
/// Panics on an empty sample.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile
/// `p` — the guide's rule is to report the highest percentile with at
/// least ten samples beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of a sample (mean of the two middle values for even sizes).
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method — the rule
/// Python's `statistics.quantiles(values, n=4)` applies, which is what
/// the acceptance driver uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, linearly interpolated
        // and clamped to the sample.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0): the run-to-run spread the driver compares against a bound.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// FNV-1a over the little-endian bytes of each word: the result hash of
/// a read-out (`f64::to_bits` of every element, in order).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Result hash of a read-out vector.
pub fn hash_values(values: &[f64]) -> u64 {
    fnv1a(values.iter().map(|v| v.to_bits()))
}

/// SplitMix64 finalizer: spreads nearby `--seed` values over the whole
/// seed space, so seeds `n` and `n + 1` share no gradient set.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_nearest_rank_rule() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 0.5), 5);
        assert_eq!(percentile(&s, 0.9), 9);
        assert_eq!(percentile(&s, 0.99), 10);
        assert_eq!(percentile(&s, 1.0), 10);
        assert_eq!(percentile(&s, 0.0), 1, "rank clamps to the first sample");
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[0.5, 1.5, 2.5], 0.9), 2.5);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1, 0.5), 0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert_eq!((q1, q3), (2.75, 8.25));
        assert_eq!(spread(&v), 5.5 / 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn fnv_hash_matches_the_reference_vectors_and_sees_every_bit() {
        // FNV-1a 64 of the empty input is the offset basis; of the single
        // byte 'a' it is 0xaf63dc4c8601ec8c — here the byte rides in the
        // low lane of one word followed by seven zero bytes, so check the
        // word form against a byte-wise fold instead.
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in 0x0102_0304_0506_0708u64.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(fnv1a([0x0102_0304_0506_0708]), h);
        let a = hash_values(&[1.0, 2.0, 3.0]);
        assert_eq!(a, hash_values(&[1.0, 2.0, 3.0]));
        assert_ne!(a, hash_values(&[1.0, 2.0, 3.0000000000000004]));
        assert_ne!(a, hash_values(&[2.0, 1.0, 3.0]), "order matters");
        assert_ne!(hash_values(&[0.0]), hash_values(&[-0.0]), "bitwise");
    }

    #[test]
    fn splitmix_separates_adjacent_seeds() {
        assert_ne!(splitmix64(1), splitmix64(2));
        assert!(splitmix64(1).abs_diff(splitmix64(2)) > 1 << 20);
        assert_eq!(splitmix64(7), splitmix64(7));
    }
}
