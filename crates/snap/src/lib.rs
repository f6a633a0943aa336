//! Binary snapshot codec for engine checkpoint/restore.
//!
//! The simulator's checkpoint format is a flat little-endian byte stream
//! wrapped in a versioned, checksummed envelope. This crate owns the
//! three pieces every serializing crate shares:
//!
//! - [`Writer`] / [`Reader`]: primitive framing (LE integers, lengths,
//!   `Vec`/`VecDeque`/`Option` combinators). The reader is bounds-checked
//!   and returns [`SnapError`] instead of panicking on truncated or
//!   corrupt input.
//! - [`seal`] / [`open`]: the envelope — magic, format version, payload
//!   length, and an FNV-1a checksum over the payload. Snapshots are
//!   **build-internal**: the version is bumped on any layout change and
//!   `open` rejects mismatches, so a snapshot never silently deserializes
//!   under a different layout.
//!
//! The codec is deliberately schema-less: each struct serializes its
//! fields in declaration order with no tags. The envelope version is the
//! only compatibility gate, which keeps snapshots compact and the codec
//! dependency-free.

#![warn(missing_docs)]

use std::collections::VecDeque;

/// Error produced by [`Reader`] operations and [`open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the expected field.
    Truncated {
        /// What the decoder was trying to read.
        what: &'static str,
    },
    /// The envelope magic did not match.
    BadMagic,
    /// The envelope version did not match the expected version.
    VersionMismatch {
        /// Version stored in the snapshot.
        found: u32,
        /// Version this build expects.
        want: u32,
    },
    /// The payload checksum did not match the envelope.
    ChecksumMismatch,
    /// A decoded discriminant or count was out of range.
    Corrupt {
        /// What was being decoded when the value went out of range.
        what: &'static str,
    },
    /// Bytes remained after the last expected field.
    TrailingBytes {
        /// Number of unread bytes.
        remaining: usize,
    },
}

impl From<SnapError> for String {
    fn from(e: SnapError) -> String {
        e.to_string()
    }
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { what } => write!(f, "snapshot truncated while reading {what}"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::VersionMismatch { found, want } => {
                write!(f, "snapshot version {found} but this build expects {want}")
            }
            SnapError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapError::Corrupt { what } => write!(f, "snapshot corrupt: invalid {what}"),
            SnapError::TrailingBytes { remaining } => {
                write!(f, "snapshot has {remaining} trailing bytes")
            }
        }
    }
}

/// Append-only byte sink with little-endian primitive framing.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consume the writer and return the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64` little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64` little-endian.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a length-prefixed slice, serializing each element with `f`.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Writer, &T)) {
        self.usize(items.len());
        for it in items {
            f(self, it);
        }
    }

    /// Append a length-prefixed `VecDeque`, front to back.
    pub fn deque<T>(&mut self, items: &VecDeque<T>, mut f: impl FnMut(&mut Writer, &T)) {
        self.usize(items.len());
        for it in items {
            f(self, it);
        }
    }

    /// Append an `Option` as a presence byte plus the value if present.
    pub fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Writer, &T)) {
        match v {
            None => self.bool(false),
            Some(x) => {
                self.bool(true);
                f(self, x);
            }
        }
    }

    /// Append a `Vec<u64>` with a length prefix.
    pub fn u64s(&mut self, items: &[u64]) {
        self.seq(items, |w, v| w.u64(*v));
    }
}

/// Bounds-checked cursor over snapshot bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Unread bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a bool (one byte; values other than 0/1 are corrupt).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt { what: "bool" }),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    /// Read a `usize` stored as `u64`; errors if it overflows the host.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt { what: "usize" })
    }

    /// Read a length-prefixed sequence, decoding each element with `f`.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.usize()?;
        // Guard against absurd counts from corrupt input: each element
        // consumes at least one byte in every encoding this codec emits.
        if n > self.remaining() {
            return Err(SnapError::Corrupt { what: "seq length" });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Read a length-prefixed sequence into a `VecDeque`.
    pub fn deque<T>(
        &mut self,
        f: impl FnMut(&mut Reader<'a>) -> Result<T, SnapError>,
    ) -> Result<VecDeque<T>, SnapError> {
        Ok(VecDeque::from(self.seq(f)?))
    }

    /// Read an `Option` written by [`Writer::opt`].
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Reader<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Read a length-prefixed `Vec<u64>`.
    pub fn u64s(&mut self) -> Result<Vec<u64>, SnapError> {
        self.seq(|r| r.u64())
    }
}

/// FNV-1a over a byte slice (the workspace's standard content hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Envelope magic: `b"SSSNAP\0\0"` little-endian.
const MAGIC: u64 = u64::from_le_bytes(*b"SSSNAP\0\0");

/// Wrap `payload` in the versioned envelope:
/// `magic(u64) | version(u32) | len(u64) | fnv1a(u64) | payload`.
pub fn seal(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate an envelope produced by [`seal`] and return its payload.
///
/// Checks magic, exact version match, length, and checksum — a snapshot
/// from a different build layout fails here rather than misdecoding.
pub fn open(bytes: &[u8], want_version: u32) -> Result<&[u8], SnapError> {
    let mut r = Reader::new(bytes);
    let magic = r.u64().map_err(|_| SnapError::BadMagic)?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.u32()?;
    if version != want_version {
        return Err(SnapError::VersionMismatch {
            found: version,
            want: want_version,
        });
    }
    let len = r.usize()?;
    let sum = r.u64()?;
    if r.remaining() != len {
        return Err(SnapError::Truncated { what: "payload" });
    }
    let payload = &bytes[bytes.len() - len..];
    if fnv1a(payload) != sum {
        return Err(SnapError::ChecksumMismatch);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.usize(12345);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 12345);
        r.expect_end().unwrap();
    }

    #[test]
    fn containers_round_trip() {
        let mut w = Writer::new();
        w.seq(&[1u64, 2, 3], |w, v| w.u64(*v));
        let dq: VecDeque<i64> = VecDeque::from(vec![-1, 0, 9]);
        w.deque(&dq, |w, v| w.i64(*v));
        w.opt(&Some(5u64), |w, v| w.u64(*v));
        w.opt(&None::<u64>, |w, v| w.u64(*v));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.seq(|r| r.u64()).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.deque(|r| r.i64()).unwrap(), dq);
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(5));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(matches!(r.u64(), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn corrupt_seq_length_rejected() {
        let mut w = Writer::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.seq(|r| r.u8()).is_err());
    }

    #[test]
    fn envelope_round_trip_and_rejection() {
        let payload = b"engine state".to_vec();
        let sealed = seal(3, &payload);
        assert_eq!(open(&sealed, 3).unwrap(), payload.as_slice());
        assert!(matches!(
            open(&sealed, 4),
            Err(SnapError::VersionMismatch { found: 3, want: 4 })
        ));
        let mut flipped = sealed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(open(&flipped, 3), Err(SnapError::ChecksumMismatch));
        assert_eq!(open(b"notasnap", 3), Err(SnapError::BadMagic));
        let mut short = sealed.clone();
        short.truncate(sealed.len() - 1);
        assert!(open(&short, 3).is_err());
    }
}
