//! Deterministic binary encoding for signed payloads.
//!
//! The protocols in this workspace sign message payloads (`⟨UPDATE, …⟩_σ`,
//! `⟨FOLLOWERS, …⟩_σ`, XPaxos `PREPARE`/`COMMIT`). Signatures are computed
//! over a canonical byte encoding so that "two different signed payloads"
//! (equivocation) is a well-defined notion. The encoding is intentionally
//! simple and hand-rolled: fixed-width little-endian integers with
//! length-prefixed sequences, written into a [`bytes::BufMut`].
//!
//! [`Decode`] is the inverse: it reads a value back out of a byte slice and
//! rejects malformed input — truncated integers, length prefixes that claim
//! more elements than the remaining bytes could hold, invalid UTF-8 —
//! instead of panicking or silently mis-framing. Every `Decode` impl is the
//! exact inverse of the matching `Encode` impl, a property the wire
//! round-trip tests in `qsel-xpaxos` exercise over arbitrary payloads.
//!
//! # Example
//!
//! ```
//! use qsel_types::encode::{Encode, encode_to_vec};
//!
//! #[derive(Debug)]
//! struct Pair(u32, u64);
//! impl Encode for Pair {
//!     fn encode(&self, buf: &mut Vec<u8>) {
//!         self.0.encode(buf);
//!         self.1.encode(buf);
//!     }
//! }
//!
//! let bytes = encode_to_vec(&Pair(1, 2));
//! assert_eq!(bytes.len(), 12);
//! ```

use bytes::BufMut;

use crate::{Epoch, ProcessId, ProcessSet};

/// A type with a canonical, deterministic byte encoding.
///
/// Implementations must be *injective* for the message space they are used
/// on: distinct values encode to distinct byte strings. All provided
/// implementations achieve this with fixed-width integers and explicit
/// length prefixes.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
}

/// Encodes `value` into a fresh vector.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    value.encode(&mut buf);
    buf
}

thread_local! {
    /// The buffer [`with_encoded`] encodes into, kept between calls.
    static ENCODE_BUF: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Calls `f` on the canonical encoding of `value`, written into a
/// per-thread buffer reused across calls — for digests and signature
/// tags, which read the bytes once and keep none. A nested call (an
/// `encode` that itself hashes) finds the buffer taken and starts empty.
pub fn with_encoded<T: Encode + ?Sized, R>(value: &T, f: impl FnOnce(&[u8]) -> R) -> R {
    let mut buf = ENCODE_BUF.take();
    buf.clear();
    value.encode(&mut buf);
    let out = f(&buf);
    ENCODE_BUF.set(buf);
    out
}

/// Decoding failure: the input is not a canonical encoding of the target
/// type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEnd,
    /// A length prefix claims more elements than the remaining input could
    /// possibly hold (each element takes at least one byte), so the frame
    /// is corrupt — rejected before any allocation proportional to the
    /// claimed length.
    BadLength {
        /// Elements (or bytes) the prefix claims.
        claimed: u64,
        /// Bytes actually remaining in the input.
        remaining: u64,
    },
    /// An enum discriminant byte is not a known variant.
    BadTag(u8),
    /// A boolean byte was neither 0 nor 1.
    BadBool(u8),
    /// A length-prefixed string is not valid UTF-8.
    BadUtf8,
    /// The value decoded, but this many input bytes were left over
    /// (returned only by [`decode_from_slice`], which demands an exact
    /// frame).
    TrailingBytes(u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "input truncated"),
            DecodeError::BadLength { claimed, remaining } => write!(
                f,
                "length prefix claims {claimed} elements but only {remaining} bytes remain"
            ),
            DecodeError::BadTag(t) => write!(f, "unknown variant tag {t}"),
            DecodeError::BadBool(b) => write!(f, "invalid boolean byte {b}"),
            DecodeError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over an input byte slice, consumed left to right by [`Decode`]
/// implementations.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a `u64` length prefix and checks it against the remaining
    /// input, given that each of the claimed elements occupies at least
    /// `min_elem_size` bytes. This is the guard that turns a corrupt
    /// length prefix into an error instead of a huge allocation or a
    /// mis-framed tail.
    pub fn length_prefix(&mut self, min_elem_size: usize) -> Result<usize, DecodeError> {
        let claimed = u64::decode(self)?;
        let remaining = self.remaining() as u64;
        let need = claimed.checked_mul(min_elem_size.max(1) as u64);
        match need {
            Some(n) if n <= remaining => Ok(claimed as usize),
            _ => Err(DecodeError::BadLength { claimed, remaining }),
        }
    }
}

/// A type that can be read back out of its canonical [`Encode`] form.
///
/// `decode` must be the exact inverse of `encode`: for every value `v`,
/// `decode(encode(v)) == v`, and `decode` consumes exactly the bytes
/// `encode` produced.
pub trait Decode: Sized {
    /// Reads one value from `r`, consuming exactly its encoding.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Decodes a value that must occupy the whole of `bytes`.
///
/// # Errors
///
/// Propagates the inner [`DecodeError`], or returns
/// [`DecodeError::TrailingBytes`] if input remains after the value.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(r.remaining() as u64));
    }
    Ok(value)
}

impl Encode for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(*self);
    }
}

impl Encode for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32_le(*self);
    }
}

impl Encode for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(*self);
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(u8::from(*self));
    }
}

impl Encode for ProcessId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Encode for Epoch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Encode for ProcessSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        let members: Vec<ProcessId> = self.iter().collect();
        members.as_slice().encode(buf);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_slice().encode(buf);
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl Encode for str {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.put_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_str().encode(buf);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.take(1)?[0])
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let b = r.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let b = r.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadBool(b)),
        }
    }
}

impl Decode for ProcessId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ProcessId(u32::decode(r)?))
    }
}

impl Decode for Epoch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Epoch(u64::decode(r)?))
    }
}

impl Decode for ProcessSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let members = Vec::<ProcessId>::decode(r)?;
        Ok(members.into_iter().collect())
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Every element encoding is at least one byte, which is enough to
        // bound the claimed length by the remaining input.
        let len = r.length_prefix(1)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.length_prefix(1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_fixed_width() {
        assert_eq!(encode_to_vec(&7u8).len(), 1);
        assert_eq!(encode_to_vec(&7u32).len(), 4);
        assert_eq!(encode_to_vec(&7u64).len(), 8);
    }

    #[test]
    fn sequences_are_length_prefixed() {
        let v = vec![1u32, 2, 3];
        let bytes = encode_to_vec(&v);
        assert_eq!(bytes.len(), 8 + 3 * 4);
        // Distinct splits encode differently: [1,2] vs [1],[2] concatenated.
        let a = encode_to_vec(&vec![1u32, 2]);
        let mut b = encode_to_vec(&vec![1u32]);
        b.extend(encode_to_vec(&vec![2u32]));
        assert_ne!(a, b);
    }

    #[test]
    fn process_set_encodes_sorted_members() {
        let s: ProcessSet = [3, 1].into_iter().map(ProcessId).collect();
        let t: ProcessSet = [1, 3].into_iter().map(ProcessId).collect();
        assert_eq!(encode_to_vec(&s), encode_to_vec(&t));
    }

    #[test]
    fn strings_roundtrip_distinctly() {
        assert_ne!(encode_to_vec("ab"), encode_to_vec("ba"));
        assert_ne!(encode_to_vec(""), encode_to_vec("a"));
    }

    #[test]
    fn tuples_concatenate() {
        let bytes = encode_to_vec(&(1u32, 2u64));
        assert_eq!(bytes.len(), 12);
    }

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        assert_eq!(decode_from_slice::<T>(&bytes), Ok(value));
    }

    #[test]
    fn decode_inverts_encode() {
        roundtrip(0u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(ProcessId(7));
        roundtrip(Epoch(9));
        roundtrip(Vec::<u32>::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((ProcessId(1), 99u64));
        roundtrip("héllo".to_string());
        let s: ProcessSet = [3, 1, 4].into_iter().map(ProcessId).collect();
        roundtrip(s);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = encode_to_vec(&vec![1u32, 2, 3]);
        for cut in 0..bytes.len() {
            assert!(
                decode_from_slice::<Vec<u32>>(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        // A prefix claiming u64::MAX elements must fail fast on the length
        // check, not attempt a huge Vec::with_capacity.
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        assert!(matches!(
            decode_from_slice::<Vec<u64>>(&bytes),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0);
        assert_eq!(
            decode_from_slice::<u32>(&bytes),
            Err(DecodeError::TrailingBytes(1))
        );
    }

    #[test]
    fn invalid_bool_and_utf8_are_rejected() {
        assert_eq!(decode_from_slice::<bool>(&[2]), Err(DecodeError::BadBool(2)));
        let mut bytes = Vec::new();
        2u64.encode(&mut bytes);
        bytes.extend([0xff, 0xfe]);
        assert_eq!(decode_from_slice::<String>(&bytes), Err(DecodeError::BadUtf8));
    }
}
