//! Packed buffer primitives for memoised reference streams.
//!
//! The L2-visible event stream of a benchmark (see `cpu_model::replay`)
//! is long but extremely regular: block addresses move by small strides,
//! instruction indices are monotonic, and the read/writeback flag is one
//! bit. These three building blocks — LEB128 varints, zigzag signed
//! deltas and a bit vector — pack such a stream into a few bytes per
//! event, structure-of-arrays style, so a whole suite of captured
//! streams fits comfortably in a process-wide cache.
//!
//! For streams that leave the process (the on-disk replay store, the
//! `.actr` trace format) the module also provides **checksummed
//! framing**: [`crc32`] (IEEE, the zlib/PNG polynomial) and
//! [`write_frame`]/[`read_frame`], a `length ‖ crc32 ‖ payload` section
//! container whose reader validates the declared length against the
//! available input *before* touching the payload and the checksum before
//! handing it out — a torn write, truncation or bit flip surfaces as a
//! typed [`FrameError`], never as silently-wrong decoded data.

/// The IEEE CRC-32 lookup table (reflected polynomial `0xEDB88320`),
/// built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/PNG/gzip checksum) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues an IEEE CRC-32 computation: `crc32_update(crc32(a), b) ==
/// crc32(a ‖ b)`. Feed `0` to start.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Why a checksummed frame could not be read. Every variant means the
/// input cannot be trusted; none of them yields partial payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The input ended before the 12-byte frame header.
    TruncatedHeader,
    /// The header declares more payload than the input holds (torn
    /// write, truncation, or a hostile length — rejected before any
    /// allocation or payload access).
    TruncatedPayload {
        /// Payload bytes the header declares.
        declared: u64,
        /// Payload bytes actually available.
        available: u64,
    },
    /// The payload does not match its recorded checksum.
    Checksum {
        /// CRC recorded in the frame header.
        expected: u32,
        /// CRC of the payload as read.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TruncatedHeader => write!(f, "input ends inside a frame header"),
            FrameError::TruncatedPayload {
                declared,
                available,
            } => write!(
                f,
                "frame declares {declared} payload bytes but only {available} are available"
            ),
            FrameError::Checksum { expected, actual } => write!(
                f,
                "frame checksum mismatch (recorded {expected:#010x}, computed {actual:#010x})"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one checksummed frame — `u64 payload-length ‖ u32 crc32 ‖
/// payload`, little-endian — to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Reads one checksummed frame from `bytes` at `*pos`, advancing `*pos`
/// past it. The declared length is validated against the remaining input
/// before the payload is touched and the checksum before it is returned,
/// so corrupt input can never yield payload bytes.
pub fn read_frame<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], FrameError> {
    let header = bytes
        .get(*pos..*pos + 12)
        .ok_or(FrameError::TruncatedHeader)?;
    let declared = u64::from_le_bytes(header[..8].try_into().expect("12-byte slice"));
    let expected = u32::from_le_bytes(header[8..12].try_into().expect("12-byte slice"));
    let available = (bytes.len() - (*pos + 12)) as u64;
    if declared > available {
        return Err(FrameError::TruncatedPayload {
            declared,
            available,
        });
    }
    let start = *pos + 12;
    let payload = &bytes[start..start + declared as usize];
    let actual = crc32(payload);
    if actual != expected {
        return Err(FrameError::Checksum { expected, actual });
    }
    *pos = start + declared as usize;
    Ok(payload)
}

/// Appends `v` to `out` as an unsigned LEB128 varint (1–10 bytes).
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one unsigned LEB128 varint from `bytes` at `*pos`, advancing
/// `*pos`. Returns `None` on truncated input or a varint longer than 10
/// bytes (which cannot encode a `u64`).
pub fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
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

/// Zigzag-maps a signed delta onto the unsigned varint domain so small
/// negative strides stay short: `0, -1, 1, -2, 2, ...` → `0, 1, 2, 3,
/// 4, ...`.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A delta-encoded sequence of `u64` values: each element is stored as
/// the zigzag varint of its (wrapping) signed difference from the
/// previous element. Ideal for block addresses (small strides) and for
/// monotonic counters (deltas fit one or two bytes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSeq {
    bytes: Vec<u8>,
    len: usize,
    prev: u64,
}

impl DeltaSeq {
    /// An empty sequence.
    pub fn new() -> DeltaSeq {
        DeltaSeq::default()
    }

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

    /// The packed delta bytes (for persisting the sequence).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The last value pushed (0 for an empty sequence) — persisted next
    /// to the bytes so a reconstructed sequence can be cross-checked.
    pub fn final_value(&self) -> u64 {
        self.prev
    }

    /// Rebuilds a sequence from persisted parts, validating that `bytes`
    /// decodes to exactly `len` values whose last is `final_value` (and
    /// with no trailing garbage). Returns `None` on any inconsistency —
    /// a checksum-passing but internally contradictory section is still
    /// rejected.
    pub fn from_parts(bytes: Vec<u8>, len: usize, final_value: u64) -> Option<DeltaSeq> {
        let mut pos = 0usize;
        let mut prev = 0u64;
        for _ in 0..len {
            let raw = read_uvarint(&bytes, &mut pos)?;
            prev = prev.wrapping_add(unzigzag(raw) as u64);
        }
        if pos != bytes.len() || prev != final_value {
            return None;
        }
        Some(DeltaSeq { bytes, len, prev })
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
        // The bytes were written by `DeltaSeq::push` or accepted by
        // `DeltaSeq::from_parts`, which decodes them with the checked
        // `read_uvarint`: every varint is complete and at most 10 bytes
        // long, so this loop needs neither checks nor an error path.
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSeq {
    bytes: Vec<u8>,
    len: usize,
}

impl BitSeq {
    /// An empty bit sequence.
    pub fn new() -> BitSeq {
        BitSeq::default()
    }

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

    /// The flag at `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<bool> {
        if i >= self.len {
            return None;
        }
        Some(self.bytes[i / 8] & (1 << (i % 8)) != 0)
    }

    /// Number of stored flags.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Packed size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Iterates over the stored flags.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.bytes[i / 8] & (1 << (i % 8)) != 0)
    }

    /// The packed flag bytes (for persisting the sequence).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rebuilds a bit sequence from persisted parts, validating the byte
    /// length against `len` and that the padding bits of the final byte
    /// are zero (as the writer always leaves them). Returns `None` on
    /// any inconsistency.
    pub fn from_parts(bytes: Vec<u8>, len: usize) -> Option<BitSeq> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        if !len.is_multiple_of(8) {
            let padding = bytes.last().copied().unwrap_or(0) >> (len % 8);
            if padding != 0 {
                return None;
            }
        }
        Some(BitSeq { bytes, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Decodes `seq` through the checked [`read_uvarint`], the way
    /// `from_parts` validates persisted bytes.
    fn checked_decode(seq: &DeltaSeq) -> Vec<u64> {
        let (bytes, mut pos, mut prev) = (seq.as_bytes(), 0, 0u64);
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
        let mut longest = DeltaSeq::new();
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
            let mut seq = DeltaSeq::new();
            for &v in &vals {
                seq.push(v);
            }
            assert_eq!(seq.len(), vals.len());
            let back: Vec<u64> = seq.iter().collect();
            assert_eq!(back, vals);
            assert_eq!(checked_decode(&seq), vals);
            let rebuilt =
                DeltaSeq::from_parts(seq.as_bytes().to_vec(), seq.len(), seq.final_value())
                    .expect("faithful parts reconstruct");
            assert_eq!(rebuilt.iter().collect::<Vec<_>>(), vals);
        }
    }

    #[test]
    fn delta_seq_packs_strides_tightly() {
        let mut seq = DeltaSeq::new();
        for i in 0..10_000u64 {
            seq.push(0x40_0000 + i * 64);
        }
        // Constant stride 64 zigzags to 128: two bytes per element after
        // the first.
        assert!(seq.byte_len() <= 2 * 10_000 + 8, "{}", seq.byte_len());
        assert_eq!(seq.iter().nth(9_999), Some(0x40_0000 + 9_999 * 64));
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental == one-shot.
        assert_eq!(crc32_update(crc32(b"1234"), b"56789"), crc32(b"123456789"));
    }

    #[test]
    fn frame_round_trips() {
        let mut out = Vec::new();
        write_frame(&mut out, b"hello");
        write_frame(&mut out, b"");
        write_frame(&mut out, &[0xFFu8; 300]);
        let mut pos = 0;
        assert_eq!(read_frame(&out, &mut pos).unwrap(), b"hello");
        assert_eq!(read_frame(&out, &mut pos).unwrap(), b"");
        assert_eq!(read_frame(&out, &mut pos).unwrap(), &[0xFFu8; 300][..]);
        assert_eq!(pos, out.len());
    }

    #[test]
    fn frame_rejects_truncation_and_corruption() {
        let mut out = Vec::new();
        write_frame(&mut out, b"payload");
        // Header cut.
        let mut pos = 0;
        assert_eq!(
            read_frame(&out[..6], &mut pos),
            Err(FrameError::TruncatedHeader)
        );
        // Payload cut (torn write): rejected from the length alone.
        let mut pos = 0;
        assert!(matches!(
            read_frame(&out[..out.len() - 2], &mut pos),
            Err(FrameError::TruncatedPayload { declared: 7, .. })
        ));
        // A hostile length never reads past the input.
        let mut hostile = out.clone();
        hostile[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut pos = 0;
        assert!(matches!(
            read_frame(&hostile, &mut pos),
            Err(FrameError::TruncatedPayload { .. })
        ));
        // Every single-byte flip anywhere in the frame is detected.
        for i in 0..out.len() {
            let mut bad = out.clone();
            bad[i] ^= 0x10;
            let mut pos = 0;
            assert!(read_frame(&bad, &mut pos).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn delta_seq_parts_round_trip_and_validate() {
        let mut seq = DeltaSeq::new();
        for v in [5u64, 3, 1000, u64::MAX, 7] {
            seq.push(v);
        }
        let rebuilt = DeltaSeq::from_parts(seq.as_bytes().to_vec(), seq.len(), seq.final_value())
            .expect("faithful parts reconstruct");
        assert_eq!(rebuilt, seq);
        // Wrong count, wrong final value, trailing garbage: all rejected.
        assert!(DeltaSeq::from_parts(seq.as_bytes().to_vec(), seq.len() - 1, 7).is_none());
        assert!(DeltaSeq::from_parts(seq.as_bytes().to_vec(), seq.len(), 8).is_none());
        let mut padded = seq.as_bytes().to_vec();
        padded.push(0);
        assert!(DeltaSeq::from_parts(padded, seq.len(), 7).is_none());
        // Truncated bytes cannot decode the declared count.
        let cut = seq.as_bytes()[..seq.byte_len() - 1].to_vec();
        assert!(DeltaSeq::from_parts(cut, seq.len(), 7).is_none());
    }

    #[test]
    fn bit_seq_parts_round_trip_and_validate() {
        let mut bits = BitSeq::new();
        for i in 0..11 {
            bits.push(i % 2 == 0);
        }
        let rebuilt =
            BitSeq::from_parts(bits.as_bytes().to_vec(), bits.len()).expect("faithful parts");
        assert_eq!(rebuilt, bits);
        assert!(
            BitSeq::from_parts(bits.as_bytes().to_vec(), 20).is_none(),
            "wrong byte length"
        );
        let mut dirty = bits.as_bytes().to_vec();
        *dirty.last_mut().unwrap() |= 0x80; // padding bit set
        assert!(BitSeq::from_parts(dirty, bits.len()).is_none());
        assert!(BitSeq::from_parts(Vec::new(), 0).is_some());
    }

    #[test]
    fn bit_seq_round_trips() {
        let mut bits = BitSeq::new();
        let vals: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        for &b in &vals {
            bits.push(b);
        }
        assert_eq!(bits.len(), 100);
        assert_eq!(bits.byte_len(), 13);
        let back: Vec<bool> = bits.iter().collect();
        assert_eq!(back, vals);
        assert_eq!(bits.get(99), Some(vals[99]));
        assert_eq!(bits.get(100), None);
    }
}
