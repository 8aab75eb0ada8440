//! The `Packet` type: the sole payload allowed across host/device and
//! inter-application port boundaries (paper §III-C).
//!
//! Biscuit's host-to-device and inter-application ports carry only `Packet`s;
//! richer types must be explicitly serialized. We reproduce that rule: the
//! typed inter-SSDlet ports in `biscuit-core` move native Rust values, while
//! boundary ports insist on [`Packet`] and the [`crate::wire::Wire`] codec.
//!
//! A packet's payload is a [`Buf`] — a shared, sliceable window — so
//! cloning a packet, slicing a blob out of one (`PacketReader::get_blob_buf`),
//! or decoding a nested [`Packet`]/[`Buf`] shares the underlying allocation
//! instead of copying it.

use crate::buf::Buf;

/// An immutable, cheaply-cloneable byte payload.
///
/// # Examples
///
/// ```
/// use biscuit_proto::packet::{Packet, PacketBuilder};
///
/// let mut b = PacketBuilder::new();
/// b.put_u32(7);
/// b.put_str("hello");
/// let pkt = b.build();
/// let mut r = pkt.reader();
/// assert_eq!(r.get_u32().unwrap(), 7);
/// assert_eq!(r.get_str().unwrap(), "hello");
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default, Hash)]
pub struct Packet {
    data: Buf,
}

impl Packet {
    /// Wraps an existing shared buffer without copying it.
    pub(crate) fn from_buf(data: Buf) -> Self {
        Packet { data }
    }

    /// Copies a byte slice into a packet.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Packet {
            data: Buf::copy_from_slice(data),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the payload.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Borrow the payload as its shared buffer.
    pub(crate) fn as_buf(&self) -> &Buf {
        &self.data
    }

    /// Extracts the underlying buffer (no copy).
    pub fn into_buf(self) -> Buf {
        self.data
    }

    /// Starts sequential reads from the front of the payload.
    pub fn reader(&self) -> PacketReader<'_> {
        PacketReader {
            buf: &self.data,
            pos: 0,
        }
    }
}

impl From<Vec<u8>> for Packet {
    fn from(v: Vec<u8>) -> Self {
        Packet {
            data: Buf::from_vec(v),
        }
    }
}

impl From<Buf> for Packet {
    fn from(data: Buf) -> Self {
        Packet { data }
    }
}

impl AsRef<[u8]> for Packet {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Error produced when decoding a malformed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes remained than the read required.
    UnexpectedEnd,
    /// A string field contained invalid UTF-8.
    InvalidUtf8,
    /// An enum tag byte had no corresponding variant.
    InvalidTag(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => f.write_str("unexpected end of packet"),
            DecodeError::InvalidUtf8 => f.write_str("invalid UTF-8 in packet string"),
            DecodeError::InvalidTag(t) => write!(f, "invalid tag byte {t} in packet"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Incremental little-endian reader over a packet payload.
#[derive(Debug)]
pub struct PacketReader<'a> {
    buf: &'a Buf,
    pos: usize,
}

impl<'a> PacketReader<'a> {
    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if all bytes were consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let head = &self.buf.as_slice()[self.pos..self.pos + n];
        self.pos += n;
        Ok(head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if the packet is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("exactly 4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("exactly 8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if fewer than 8 bytes remain.
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("exactly 8 bytes"),
        ))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] if fewer than 8 bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("exactly 8 bytes"),
        ))
    }

    /// Reads a length-prefixed byte run, borrowing it.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] on truncation.
    pub(crate) fn get_blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed byte run as a shared window into the
    /// packet's own buffer — no copy, the packet's allocation stays
    /// alive for as long as the returned [`Buf`] does.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] on truncation.
    pub(crate) fn get_blob_buf(&mut self) -> Result<Buf, DecodeError> {
        let len = self.get_u32()? as usize;
        if self.remaining() < len {
            return Err(DecodeError::UnexpectedEnd);
        }
        let blob = self.buf.slice(self.pos..self.pos + len);
        self.pos += len;
        Ok(blob)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] on truncation, or
    /// [`DecodeError::InvalidUtf8`] if the bytes are not valid UTF-8.
    pub fn get_str(&mut self) -> Result<&'a str, DecodeError> {
        let blob = self.get_blob()?;
        std::str::from_utf8(blob).map_err(|_| DecodeError::InvalidUtf8)
    }
}

/// Growable little-endian writer that produces a [`Packet`].
#[derive(Debug, Default)]
pub struct PacketBuilder {
    buf: Vec<u8>,
}

impl PacketBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte run.
    ///
    /// # Panics
    ///
    /// Panics if `v` exceeds `u32::MAX` bytes.
    pub(crate) fn put_blob(&mut self, v: &[u8]) -> &mut Self {
        let len = u32::try_from(v.len()).expect("blob too large for packet");
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_blob(v.as_bytes())
    }

    /// Finalizes into an immutable [`Packet`] (moves the allocation, no
    /// copy).
    pub fn build(self) -> Packet {
        Packet {
            data: Buf::from_vec(self.buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut b = PacketBuilder::new();
        b.put_u8(1).put_u32(2).put_u64(3).put_i64(-4).put_f64(2.5);
        let p = b.build();
        let mut r = p.reader();
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u32().unwrap(), 2);
        assert_eq!(r.get_u64().unwrap(), 3);
        assert_eq!(r.get_i64().unwrap(), -4);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert!(r.is_empty());
    }

    #[test]
    fn blob_and_str() {
        let mut b = PacketBuilder::new();
        b.put_blob(&[9, 8, 7]).put_str("biscuit");
        let p = b.build();
        let mut r = p.reader();
        assert_eq!(r.get_blob().unwrap(), &[9, 8, 7]);
        assert_eq!(r.get_str().unwrap(), "biscuit");
    }

    #[test]
    fn blob_buf_shares_the_packet_allocation() {
        let mut b = PacketBuilder::new();
        b.put_blob(&[5, 6, 7, 8]).put_u8(0xAA);
        let p = b.build();
        let mut r = p.reader();
        let blob = r.get_blob_buf().unwrap();
        assert_eq!(&blob[..], &[5, 6, 7, 8]);
        assert_eq!(r.get_u8().unwrap(), 0xAA);
        // Window into the packet's own buffer, not a copy.
        assert_eq!(p.as_buf().ref_count(), 2);
    }

    #[test]
    fn truncated_read_errors() {
        let p = Packet::copy_from_slice(&[1, 2]);
        let mut r = p.reader();
        assert_eq!(r.get_u32(), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn truncated_blob_errors() {
        let mut b = PacketBuilder::new();
        b.put_u32(100); // claims 100 bytes follow
        let p = b.build();
        assert_eq!(p.reader().get_blob(), Err(DecodeError::UnexpectedEnd));
        assert_eq!(p.reader().get_blob_buf(), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut b = PacketBuilder::new();
        b.put_blob(&[0xff, 0xfe]);
        let p = b.build();
        assert_eq!(p.reader().get_str(), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn packet_clone_is_cheap_and_equal() {
        let p = Packet::copy_from_slice(b"data");
        let q = p.clone();
        assert_eq!(p, q);
        assert_eq!(q.len(), 4);
        // Clone shares, not copies.
        assert_eq!(p.as_buf().ref_count(), 2);
    }

    #[test]
    fn empty_packet_properties() {
        let p = Packet::default();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(p.reader().is_empty());
    }
}
