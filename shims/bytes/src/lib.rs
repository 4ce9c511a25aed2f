#![allow(clippy::all)]
//! Offline stand-in for the `bytes` crate: a cheaply cloneable,
//! sliceable, immutable byte buffer.
//!
//! Matches the upstream `Bytes` semantics the workspace relies on —
//! shared ownership via `Arc`, zero-copy `slice`, deref to `[u8]` — for
//! the PDU payloads threaded through the RLC/PDCP/MAC codecs.
//!
//! # Allocations
//!
//! Shared storage is one `Arc<[u8]>`: header and bytes in a single
//! allocation. [`BytesMut`] builds into that allocation directly, so a PDU
//! assembled with `with_capacity` / `put_*` / [`BytesMut::freeze`] costs one
//! allocation and no copy; [`Bytes::copy_from_slice`] likewise. Only
//! `From<Vec<u8>>` pays twice (the `Vec`, then the copy into the `Arc`).
//! [`Bytes::new`] and [`Bytes::from_static`] borrow and never allocate.
//! [`Bytes::try_into_mut`] hands a buffer nobody else holds back for
//! writing in place — how a receiver deciphers a block it reassembled
//! itself without copying it again. [`Bytes::try_prepend`] writes a header
//! into the spare bytes in front of a view nobody else holds, as an skb
//! push does — how a GTP-U tunnel end turns the buffer a packet already
//! lives in into the tunnel packet without copying it.
//! [`Bytes::try_reclaim`] hands the whole storage of a buffer nobody else
//! holds back emptied, whatever part of it the handle views — how a buffer
//! slot builds its next PDU where the previous one lay instead of
//! allocating. A reclaimed [`BytesMut`] still exposes only the bytes
//! written into it since, so a reused buffer shows the same bytes a fresh
//! one would.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, Index, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of shared bytes.
#[derive(Clone)]
pub struct Bytes(Repr);

/// A static buffer is narrowed by re-slicing the reference; only shared
/// storage carries a view. (rustc lays the reference over `start`/`end` and
/// tells the variants apart by the `Arc`'s null niche, so a `Bytes` is the
/// 32 bytes the shared variant needs.)
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared { data: Arc<[u8]>, start: usize, end: usize },
}

impl Bytes {
    /// Creates an empty buffer without allocating.
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Creates a buffer that borrows a static byte slice (no allocation).
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes(Repr::Static(bytes))
    }

    /// Creates a buffer that copies `data` exactly once, into a single
    /// allocation; clones and slices share it from then on.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from_shared(Arc::from(data), data.len())
    }

    fn from_shared(data: Arc<[u8]>, end: usize) -> Bytes {
        Bytes(Repr::Shared { data, start: 0, end })
    }

    /// Number of bytes in view.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a sub-view without copying the underlying storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds, matching upstream.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of range for {}", self.len());
        Bytes(match &self.0 {
            Repr::Static(s) => Repr::Static(&s[lo..hi]),
            Repr::Shared { data, start, .. } => {
                Repr::Shared { data: Arc::clone(data), start: start + lo, end: start + hi }
            }
        })
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared { data, start, end } => &data[*start..*end],
        }
    }

    /// Turns the buffer back into a [`BytesMut`] without copying, when this
    /// is the only handle on its storage and views it from the first byte;
    /// otherwise returns it unchanged. The view's bytes are the written
    /// part, the rest of the storage its spare capacity. Upstream converts
    /// any unique view; this stand-in keeps `BytesMut` offset-free.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        match self.0 {
            Repr::Shared { mut data, start: 0, end } => match Arc::get_mut(&mut data) {
                Some(_) => Ok(BytesMut { data, len: end }),
                None => Err(Bytes(Repr::Shared { data, start: 0, end })),
            },
            repr => Err(Bytes(repr)),
        }
    }

    /// Turns the buffer back into an empty [`BytesMut`] over its whole
    /// storage (`len` 0, the full capacity), without copying or
    /// allocating, when this is the only handle on the storage, at any view
    /// offset; otherwise returns it unchanged. The old bytes stay out of
    /// view until written over. Upstream's nearest is
    /// `BytesMut::try_reclaim`, which reclaims into a handle already
    /// mutable.
    pub fn try_reclaim(self) -> Result<BytesMut, Bytes> {
        match self.0 {
            Repr::Shared { mut data, start, end } => match Arc::get_mut(&mut data) {
                Some(_) => Ok(BytesMut { data, len: 0 }),
                None => Err(Bytes(Repr::Shared { data, start, end })),
            },
            repr => Err(Bytes(repr)),
        }
    }

    /// Widens the view by `head.len()` bytes at the front and writes `head`
    /// there, without copying the view: the spare bytes in front of it (a
    /// header a lower layer has already read, a reserve the builder left)
    /// become the new first bytes. Done only when this is the only handle
    /// on its storage and that many bytes lie in front of the view;
    /// otherwise the buffer comes back unchanged and nothing is written.
    /// Upstream has no equivalent (its `Bytes` never writes).
    pub fn try_prepend(self, head: &[u8]) -> Result<Bytes, Bytes> {
        match self.0 {
            Repr::Shared { mut data, start, end } if start >= head.len() => {
                let at = start - head.len();
                match Arc::get_mut(&mut data) {
                    Some(storage) => {
                        storage[at..start].copy_from_slice(head);
                        Ok(Bytes(Repr::Shared { data, start: at, end }))
                    }
                    None => Err(Bytes(Repr::Shared { data, start, end })),
                }
            }
            repr => Err(Bytes(repr)),
        }
    }
}

/// The write half of the upstream `bytes::BufMut` trait, as far as the PDU
/// builders use it. Integers are written big-endian (network order).
pub trait BufMut {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize);

    /// Appends one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, n: u16) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }
}

/// A uniquely owned, growable byte buffer that [`freeze`](Self::freeze)s
/// into a [`Bytes`] without copying: it fills the `Arc<[u8]>` the `Bytes`
/// will share. The storage is allocated zeroed (safe code cannot hand out
/// uninitialised bytes) and `len` tracks how much of it has been written;
/// storage taken back by [`Bytes::try_reclaim`] holds old bytes past
/// `len`, which no method exposes until they are written over.
pub struct BytesMut {
    data: Arc<[u8]>,
    len: usize,
}

impl BytesMut {
    /// Creates an empty buffer with room for `capacity` bytes: the one
    /// allocation of a PDU whose size is known up front.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        // `Take<Repeat>` is `TrustedLen`, so the collect allocates exactly once.
        BytesMut { data: std::iter::repeat(0u8).take(capacity).collect(), len: 0 }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the buffer holds before it must reallocate.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Converts into an immutable [`Bytes`] sharing this storage.
    pub fn freeze(self) -> Bytes {
        Bytes::from_shared(self.data, self.len)
    }

    /// The whole storage, written or not. A `BytesMut` never shares its
    /// `Arc` before `freeze` consumes it.
    fn storage(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.data).expect("a BytesMut owns its storage uniquely")
    }

    /// Makes room for `additional` more bytes, moving to a larger
    /// allocation (at least doubling) when the current one is too small.
    fn reserve(&mut self, additional: usize) {
        let needed = self.len + additional;
        if needed > self.capacity() {
            let mut grown = BytesMut::with_capacity(needed.max(2 * self.capacity()));
            grown.put_slice(self);
            *self = grown;
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.reserve(src.len());
        let at = self.len;
        self.storage()[at..at + src.len()].copy_from_slice(src);
        self.len += src.len();
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.reserve(cnt);
        let at = self.len;
        self.storage()[at..at + cnt].fill(val);
        self.len += cnt;
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[..self.len]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let len = self.len;
        &mut self.storage()[..len]
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Bytes {
        Bytes::from_static(b)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(b: &'static [u8; N]) -> Bytes {
        Bytes::from_static(b)
    }
}

impl<I: std::slice::SliceIndex<[u8]>> Index<I> for Bytes {
    type Output = I::Output;
    fn index(&self, i: I) -> &I::Output {
        &self.as_slice()[i]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    /// Upstream prints `b"..."`-style escapes; keep that for readable
    /// test failures.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                0x20..=0x7E => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        let data: Arc<[u8]> = iter.into_iter().collect();
        let end = data.len();
        Bytes::from_shared(data, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_storage_and_bounds_check() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let tail = s.slice(2..);
        assert_eq!(&tail[..], &[4]);
        assert_eq!(b.slice(..), b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slice_panics() {
        Bytes::from(vec![1u8]).slice(0..5);
    }

    #[test]
    fn frozen_builder_shares_its_storage_with_later_slices() {
        let mut b = BytesMut::with_capacity(6);
        b.put_u8(0xAA);
        b.put_u16(0x0102);
        b.put_slice(&[7, 8]);
        b[0] = 0xAB; // headers patched after the fact, as the PDCP cipher does
        assert_eq!((b.len(), b.capacity()), (5, 6));
        let frozen = b.freeze();
        assert_eq!(&frozen[..], &[0xAB, 1, 2, 7, 8], "capacity slack stays out of view");
        let tail = frozen.slice(3..);
        assert_eq!(tail.as_ptr(), frozen[3..].as_ptr(), "slice is a view, not a copy");
        assert_eq!(frozen.clone().as_ptr(), frozen.as_ptr());
    }

    #[test]
    fn builder_grows_past_its_capacity_and_pads() {
        let mut b = BytesMut::with_capacity(2);
        b.put_u32(0xDEAD_BEEF);
        b.put_bytes(0, 3);
        b.put_slice(b"xy");
        assert!(!b.is_empty() && b.capacity() >= 9);
        assert_eq!(&b.freeze()[..], b"\xde\xad\xbe\xef\0\0\0xy");
        assert!(BytesMut::with_capacity(0).freeze().is_empty());
    }

    #[test]
    fn a_sole_handle_thaws_in_place_and_a_shared_one_does_not() {
        let mut b = BytesMut::with_capacity(8);
        b.put_slice(b"abcdef");
        let frozen = b.freeze();
        let at = frozen.as_ptr();
        let mut thawed = frozen.try_into_mut().expect("the only handle");
        assert_eq!((thawed.len(), thawed.capacity(), thawed.as_ptr()), (6, 8, at));
        thawed[0] = b'A';
        let frozen = thawed.freeze();
        assert_eq!(&frozen[..], b"Abcdef");

        let other = frozen.clone();
        let frozen = frozen.try_into_mut().err().expect("a clone shares the storage");
        drop(other);
        let tail = frozen.slice(1..);
        drop(frozen);
        let tail = tail.try_into_mut().err().expect("views from an offset stay shared");
        assert_eq!(tail, b"bcdef"[..]);
        assert!(Bytes::from_static(b"x").try_into_mut().is_err(), "static bytes are borrowed");
    }

    #[test]
    fn a_sole_handle_takes_a_header_in_front_and_a_shared_one_does_not() {
        let mut b = BytesMut::with_capacity(7);
        b.put_slice(b"..hdrpay");
        let payload = b.freeze().slice(5..);
        let at = payload.as_ptr();
        let packet = payload.try_prepend(b"HDR").expect("the only handle, with room");
        assert_eq!(&packet[..], b"HDRpay");
        assert_eq!(packet[3..].as_ptr(), at, "the payload stays where it was");
        let packet = packet.try_prepend(b"no room").err().expect("two spare bytes are too few");
        assert_eq!(&packet[..], b"HDRpay");

        // A held clone, or a static buffer, is never written.
        let tail = packet.slice(3..);
        let tail = tail.try_prepend(b"X").err().expect("the storage is shared");
        assert_eq!(&packet[..], b"HDRpay");
        drop(packet);
        assert_eq!(&tail.try_prepend(b"XYZ").unwrap()[..], b"XYZpay");
        assert!(Bytes::from_static(b"x").slice(1..).try_prepend(b"").is_err());
        assert_eq!(&Bytes::copy_from_slice(b"ab").try_prepend(b"").unwrap()[..], b"ab");
    }

    #[test]
    fn a_sole_handle_is_reclaimed_whole_and_a_shared_one_is_not() {
        let mut b = BytesMut::with_capacity(8);
        b.put_slice(b"hdrpayld");
        let frozen = b.freeze();
        let at = frozen.as_ptr();
        let view = frozen.slice(3..6);
        let held = frozen.clone();
        drop(frozen);
        let view = view.try_reclaim().err().expect("a clone shares the storage");
        assert_eq!(&view[..], b"pay");
        assert_eq!(&held[..], b"hdrpayld", "a failed reclaim writes nothing");
        drop(held);
        // From an offset too, the whole storage comes back, emptied.
        let mut reclaimed = view.try_reclaim().expect("the only handle");
        assert_eq!((reclaimed.len(), reclaimed.capacity(), reclaimed.as_ptr()), (0, 8, at));
        reclaimed.put_slice(b"new");
        let reused = reclaimed.freeze();
        assert_eq!((&reused[..], reused.as_ptr()), (&b"new"[..], at), "old bytes stay out of view");
        assert!(Bytes::from_static(b"x").try_reclaim().is_err(), "static bytes are borrowed");
        assert!(Bytes::new().try_reclaim().is_err());
    }

    #[test]
    fn static_and_vec_buffers_round_trip() {
        static WIRE: [u8; 4] = [9, 8, 7, 6];
        let s = Bytes::from_static(&WIRE);
        assert_eq!(s.as_ptr(), WIRE.as_ptr(), "from_static borrows");
        assert_eq!(s.slice(1..3), Bytes::from(vec![8u8, 7]));
        assert_eq!(Bytes::from(WIRE.to_vec()), s);
        assert_eq!(Bytes::copy_from_slice(&WIRE), s);
        assert_eq!(WIRE.iter().copied().collect::<Bytes>(), s);
        assert_eq!(Bytes::new(), Bytes::default());
        assert_eq!(Bytes::new().slice(..).len(), 0);
    }

    #[test]
    fn equality_and_debug() {
        let a = Bytes::from_static(b"ab\"\x01");
        assert_eq!(a, Bytes::from(vec![b'a', b'b', b'"', 1]));
        assert_eq!(format!("{a:?}"), "b\"ab\\\"\\x01\"");
    }
}
