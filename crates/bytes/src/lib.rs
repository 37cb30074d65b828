//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no network access and no vendored registry,
//! so the workspace provides the minimal [`BufMut`] surface that
//! `qsel-types::encode` actually uses: appending fixed-width little-endian
//! integers and raw slices to a growable buffer. The method names and
//! semantics match the real crate so the shim can be swapped back out.

/// A buffer that bytes can be appended to.
///
/// Matches the subset of `bytes::BufMut` used for canonical message
/// encoding: unsigned little-endian integers and raw slices.
pub trait BufMut {
    /// Appends a single byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u16` in little-endian order.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a `u32` in little-endian order.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a `u64` in little-endian order.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a raw byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_u8(&mut self, v: u8) {
        (**self).put_u8(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        (**self).put_u16_le(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        (**self).put_u32_le(v);
    }

    fn put_u64_le(&mut self, v: u64) {
        (**self).put_u64_le(v);
    }

    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_layout() {
        let mut buf = Vec::new();
        buf.put_u8(0xAB);
        buf.put_u32_le(0x0102_0304);
        buf.put_u64_le(1);
        buf.put_slice(b"xy");
        assert_eq!(
            buf,
            [0xAB, 0x04, 0x03, 0x02, 0x01, 1, 0, 0, 0, 0, 0, 0, 0, b'x', b'y']
        );
    }

    #[test]
    fn works_through_mut_reference() {
        let mut buf = Vec::new();
        fn write(b: &mut impl BufMut) {
            b.put_u16_le(0x0201);
        }
        write(&mut buf);
        assert_eq!(buf, [0x01, 0x02]);
    }
}
