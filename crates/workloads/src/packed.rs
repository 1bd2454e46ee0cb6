//! Packed buffer primitives for memoised reference streams.
//!
//! The L2-visible event stream of a benchmark (see `cpu_model::replay`)
//! is long but extremely regular: block addresses move by small strides,
//! instruction indices are monotonic, and the read/writeback flag is one
//! bit. These building blocks — zigzag signed deltas stored as LEB128
//! varints ([`DeltaSeq`]) and a bit vector ([`BitSeq`]) — pack such a
//! stream into a few bytes per event, structure-of-arrays style, so a
//! whole suite of captured streams fits comfortably in a process-wide
//! cache.

/// Appends `v` to `out` as an unsigned LEB128 varint (1–10 bytes).
fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag-maps a signed delta onto the unsigned varint domain so small
/// negative strides stay short: `0, -1, 1, -2, 2, ...` → `0, 1, 2, 3,
/// 4, ...`.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A delta-encoded sequence of `u64` values: each element is stored as
/// the zigzag varint of its (wrapping) signed difference from the
/// previous element. Ideal for block addresses (small strides) and for
/// monotonic counters (deltas fit one or two bytes).
#[derive(Debug, Clone, Default)]
pub struct DeltaSeq {
    bytes: Vec<u8>,
    len: usize,
    prev: u64,
}

impl DeltaSeq {
    /// Appends `v`, encoding it relative to the previous element.
    pub fn push(&mut self, v: u64) {
        let delta = v.wrapping_sub(self.prev) as i64;
        write_uvarint(&mut self.bytes, zigzag(delta));
        self.prev = v;
        self.len += 1;
    }

    /// Number of encoded elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size in bytes (excluding the fixed-size header fields).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Iterates over the decoded values.
    pub fn iter(&self) -> DeltaIter<'_> {
        DeltaIter {
            bytes: &self.bytes,
            pos: 0,
            prev: 0,
            remaining: self.len,
        }
    }
}

/// Decoding iterator over a [`DeltaSeq`].
#[derive(Debug, Clone)]
pub struct DeltaIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev: u64,
    remaining: usize,
}

impl Iterator for DeltaIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // The bytes were written by `DeltaSeq::push`: every varint is
        // complete and at most 10 bytes long, so this loop needs neither
        // checks nor an error path.
        let mut byte = self.bytes[self.pos];
        self.pos += 1;
        let mut raw = u64::from(byte & 0x7F);
        let mut shift = 0;
        while byte & 0x80 != 0 {
            byte = self.bytes[self.pos];
            self.pos += 1;
            shift += 7;
            raw |= u64::from(byte & 0x7F) << shift;
        }
        self.prev = self.prev.wrapping_add(unzigzag(raw) as u64);
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// A packed bit vector (one bit per flag, LSB-first within each byte).
#[derive(Debug, Clone, Default)]
pub struct BitSeq {
    bytes: Vec<u8>,
    len: usize,
}

impl BitSeq {
    /// Appends one flag.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.len() - 1;
            self.bytes[last] |= 1 << (self.len % 8);
        }
        self.len += 1;
    }

    /// Packed size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The packed flag bytes, LSB first within each byte.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked reference decoder [`DeltaIter`] is compared against:
    /// reads one unsigned LEB128 varint from `bytes` at `*pos`, advancing
    /// `*pos`. Returns `None` on truncated input or a varint longer than
    /// 10 bytes (which cannot encode a `u64`).
    fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *bytes.get(*pos)?;
            *pos += 1;
            if shift >= 63 && b > 1 {
                return None; // overflows u64
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    #[test]
    fn uvarint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 300, 1 << 21, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_uvarint(&[0x80], &mut pos), None, "truncated");
        let mut pos = 0;
        let over = [0xFF; 11];
        assert_eq!(read_uvarint(&over, &mut pos), None, "too long for u64");
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, -1, 1, -2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    /// Decodes `seq` through the checked [`read_uvarint`].
    fn checked_decode(seq: &DeltaSeq) -> Vec<u64> {
        let (bytes, mut pos, mut prev) = (&seq.bytes[..], 0, 0u64);
        let vals = (0..seq.len())
            .map(|_| {
                let raw = read_uvarint(bytes, &mut pos).expect("pushed bytes decode");
                prev = prev.wrapping_add(unzigzag(raw) as u64);
                prev
            })
            .collect();
        assert_eq!(pos, bytes.len(), "no bytes left over");
        vals
    }

    #[test]
    fn delta_seq_round_trips_including_wraparound() {
        use rand::{Rng, SeedableRng};
        let fixed = vec![0u64, 64, 128, 64, u64::MAX, 3, 1 << 40, 0];
        // A delta of −2^63 zigzags to `u64::MAX`, the longest (10-byte)
        // varint; the other deltas wrap around zero.
        let wrapping = vec![1 << 63, 0, u64::MAX, 0, 1 << 63, (1 << 63) - 1, 0];
        let mut longest = DeltaSeq::default();
        longest.push(wrapping[0]);
        longest.push(wrapping[1]);
        assert_eq!(longest.byte_len(), 20, "two 10-byte varints");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let random: Vec<u64> = (0..20_000).map(|_| rng.gen()).collect();
        // Random values of random width, so the deltas' varints take
        // many lengths.
        let mixed: Vec<u64> = (0..20_000)
            .map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32))
            .collect();
        for vals in [fixed, wrapping, random, mixed] {
            let mut seq = DeltaSeq::default();
            for &v in &vals {
                seq.push(v);
            }
            assert_eq!(seq.len(), vals.len());
            let back: Vec<u64> = seq.iter().collect();
            assert_eq!(back, vals);
            assert_eq!(checked_decode(&seq), vals);
        }
    }

    #[test]
    fn delta_seq_packs_strides_tightly() {
        let mut seq = DeltaSeq::default();
        for i in 0..10_000u64 {
            seq.push(0x40_0000 + i * 64);
        }
        // Constant stride 64 zigzags to 128: two bytes per element after
        // the first.
        assert!(seq.byte_len() <= 2 * 10_000 + 8, "{}", seq.byte_len());
        assert_eq!(seq.iter().nth(9_999), Some(0x40_0000 + 9_999 * 64));
    }

    #[test]
    fn bit_seq_round_trips() {
        let mut bits = BitSeq::default();
        let vals: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        for &b in &vals {
            bits.push(b);
        }
        assert_eq!(bits.byte_len(), 13);
        let bytes = bits.as_bytes();
        let back: Vec<bool> = (0..vals.len())
            .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
            .collect();
        assert_eq!(back, vals);
        assert_eq!(bytes[12] >> 4, 0, "padding bits stay clear");
    }
}
