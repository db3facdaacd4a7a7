//! The workspace's one wire codec.
//!
//! Everything that crosses the gateway↔cloud trust boundary, lands in a WAL
//! or snapshot, or travels over a socket is written by [`Writer`] and read
//! by [`Reader`], and everything that needs integrity framing uses the one
//! `len ‖ covered ‖ crc32(covered)` frame of [`encode_frame`] /
//! [`split_frame`].
//!
//! Cursor rules, true for every decoder built on [`Reader`]:
//!
//! * all integers are big-endian; byte strings and text carry a `u32`
//!   length prefix;
//! * a read past the end is [`Malformed`], never a panic — the slice split
//!   is the only length check, there is no index arithmetic;
//! * reads borrow from the input (`&'a [u8]` / `&'a str`); callers copy only
//!   what they keep;
//! * an element count is rejected when it exceeds the bytes left
//!   ([`Reader::count`]), so a hostile count cannot drive an allocation;
//! * [`Reader::finish`] rejects trailing bytes; [`decode`] wraps a whole-
//!   buffer decoder in it, so such a decoder accepts exactly one encoding
//!   per value.
//!
//! The cursor methods are `#[inline]`: each is one slice split or one
//! `extend_from_slice`, and every decoder that calls them lives in another
//! crate, where without the hint they would be real calls (measured on
//! `encode_document`: 256 ns without, 211 ns with — the parent's number).

#![deny(unsafe_code)]

mod frame;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul;

/// No folding tier off x86-64: the witness cannot exist, `detect` says so,
/// and the method behind it is unreachable.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    #[derive(Clone, Copy)]
    pub(crate) enum Clmul {}

    impl Clmul {
        pub(crate) fn detect() -> Option<Self> {
            None
        }
        pub(crate) fn crc32_update(self, _: u32, _: &[u8]) -> u32 {
            match self {}
        }
    }
}

pub use frame::{crc32, crc_backend, encode_frame, encode_frame_into, split_frame, Split};

/// The portable CRC tier by name, for `tests/crc_differential.rs`. Not a
/// configuration surface: nothing in the product calls it, and no argument
/// or variable switches a tier.
#[doc(hidden)]
pub mod portable {
    /// [`crate::crc32`] by slicing-by-8, whatever the CPU.
    pub fn crc32(data: &[u8]) -> u32 {
        crate::frame::crc32_update_portable(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }
}

/// A decode failure: truncated, oversized, trailing or otherwise malformed
/// input. Carries a static label naming what was being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed(pub &'static str);

impl std::fmt::Display for Malformed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed {}", self.0)
    }
}

impl std::error::Error for Malformed {}

/// Decodes exactly one value from `buf`: runs `read` over a cursor, then
/// rejects trailing bytes. Every whole-buffer decoder goes through here, so
/// none can forget the check.
///
/// # Errors
///
/// Whatever `read` returns, or [`Malformed`] if it left bytes unread.
pub fn decode<'a, T, E: From<Malformed>>(
    buf: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
) -> Result<T, E> {
    let mut r = Reader::new(buf);
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Incremental writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// Continues an existing buffer (and hands it back from [`Writer::finish`]).
impl From<Vec<u8>> for Writer {
    fn from(buf: Vec<u8>) -> Self {
        Writer { buf }
    }
}

impl Writer {
    /// Creates an empty writer.
    #[inline]
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends a single byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a raw u16.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.raw(&v.to_be_bytes())
    }

    /// Appends a raw u32.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_be_bytes())
    }

    /// Appends a raw u64.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_be_bytes())
    }

    /// Appends bytes verbatim, with no length prefix.
    #[inline]
    pub fn raw(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends a length-prefixed byte field.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32).raw(b)
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Appends a list of byte fields (count-prefixed).
    #[inline]
    pub fn list<B: AsRef<[u8]>>(&mut self, items: &[B]) -> &mut Self {
        self.u32(items.len() as u32);
        for item in items {
            self.bytes(item.as_ref());
        }
        self
    }

    /// Appends a count-prefixed list whose byte fields `put` encodes in
    /// place, one per item: the same bytes as [`Writer::list`] over the
    /// items' separate encodings, without a buffer per item or knowing the
    /// count up front. Each prefix is reserved, then patched once the field
    /// (or the list) is complete.
    #[inline]
    pub fn list_with<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut put: impl FnMut(T, &mut Writer),
    ) -> &mut Self {
        let count_at = self.buf.len();
        self.u32(0);
        let mut count = 0u32;
        for item in items {
            let len_at = self.buf.len();
            self.u32(0);
            put(item, self);
            let len = (self.buf.len() - len_at - 4) as u32;
            self.buf[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
            count += 1;
        }
        self.buf[count_at..count_at + 4].copy_from_slice(&count.to_be_bytes());
        self
    }

    /// Finishes, returning the encoded buffer.
    #[inline]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Incremental reader matching [`Writer`]. Every read borrows from the
/// wrapped buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Reads `N` bytes verbatim.
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation.
    #[inline]
    pub fn raw<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        let (head, rest) = self.buf.split_first_chunk::<N>().ok_or(Malformed("truncated field"))?;
        self.buf = rest;
        Ok(*head)
    }

    /// Reads `len` bytes verbatim.
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation.
    #[inline]
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], Malformed> {
        let (head, rest) = self.buf.split_at_checked(len).ok_or(Malformed("truncated byte field"))?;
        self.buf = rest;
        Ok(head)
    }

    /// Takes everything left (an unframed tail field).
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// Reads a single byte.
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Malformed> {
        Ok(self.raw::<1>()?[0])
    }

    /// Reads a raw u16.
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Malformed> {
        Ok(u16::from_be_bytes(self.raw()?))
    }

    /// Reads a raw u32.
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Malformed> {
        Ok(u32::from_be_bytes(self.raw()?))
    }

    /// Reads a raw u64.
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Malformed> {
        Ok(u64::from_be_bytes(self.raw()?))
    }

    /// Reads a length-prefixed byte field.
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], Malformed> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation or invalid UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, Malformed> {
        std::str::from_utf8(self.bytes()?).map_err(|_| Malformed("utf8"))
    }

    /// Reads a length-prefixed field that must be exactly `N` bytes.
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation or wrong length.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        self.bytes()?.try_into().map_err(|_| Malformed("wrong-length array field"))
    }

    /// Reads a count that bounds further per-item reads: rejects counts
    /// larger than the remaining buffer (so hostile counts cannot drive
    /// huge preallocations).
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation or absurd counts.
    #[inline]
    pub fn count(&mut self) -> Result<usize, Malformed> {
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return Err(Malformed("count exceeds remaining bytes"));
        }
        Ok(n)
    }

    /// Reads a count-prefixed list of byte fields.
    ///
    /// # Errors
    ///
    /// [`Malformed`] on truncation.
    #[inline]
    pub fn list(&mut self) -> Result<Vec<&'a [u8]>, Malformed> {
        (0..self.count()?).map(|_| self.bytes()).collect()
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// [`Malformed`] if bytes remain.
    #[inline]
    pub fn finish(self) -> Result<(), Malformed> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut w = Writer::new();
        w.u8(7)
            .u16(513)
            .u32(42)
            .u64(1 << 40)
            .bytes(b"hello")
            .str("héllo")
            .raw(&[9, 8])
            .list(&[b"a".to_vec(), b"bb".to_vec()]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 42);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.raw::<2>().unwrap(), [9, 8]);
        assert_eq!(r.list().unwrap(), vec![b"a".as_slice(), b"bb".as_slice()]);
        r.finish().unwrap();
    }

    #[test]
    fn list_with_writes_the_bytes_of_list_over_separate_encodings() {
        let items: [&[u8]; 4] = [b"a", b"", b"ccc", &[0xFF; 300]];
        let mut separate = Writer::new();
        separate.u8(9).list(&items).u8(7);
        let mut in_place = Writer::new();
        in_place
            .u8(9)
            .list_with(items, |item, w| {
                w.raw(item);
            })
            .u8(7);
        assert_eq!(in_place.finish(), separate.finish());
        let mut empty = Writer::new();
        empty.list_with(std::iter::empty::<&[u8]>(), |item, w| {
            w.raw(item);
        });
        assert_eq!(empty.finish(), [0, 0, 0, 0]);
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.bytes(b"hello");
        let buf = w.finish();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.bytes().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(Malformed("trailing bytes")));
    }

    #[test]
    fn absurd_counts_rejected() {
        let buf = u32::MAX.to_be_bytes();
        assert!(Reader::new(&buf).list().is_err());
        assert!(Reader::new(&buf).count().is_err());
        assert!(Reader::new(&buf).bytes().is_err());
    }

    #[test]
    fn array_length_enforced() {
        let mut w = Writer::new();
        w.bytes(&[1, 2, 3]);
        let buf = w.finish();
        assert!(Reader::new(&buf).array::<16>().is_err());
        assert_eq!(Reader::new(&buf).array::<3>().unwrap(), [1, 2, 3]);
    }

    #[test]
    fn rest_takes_the_tail_and_non_utf8_is_malformed() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.rest(), &[2, 3]);
        r.finish().unwrap();
        assert_eq!(Reader::new(&[0, 0, 0, 1, 0xFF]).str(), Err(Malformed("utf8")));
    }
}
