//! The lies a corrupted or hostile peer tells in a valid GTP-U packet, for
//! the `hostile` proptests of the N3 (`upf`) and Xn-U (`xn`) receivers.

use bytes::Bytes;

/// `pkt` with one lie told in it. The kind picks the lie: 0 a bit flip
/// anywhere, 1 a truncation, 2 a length-field lie (any value, or what the
/// bytes after the mandatory header would allow), 3 any combination of the
/// E, S and PN flags, 4 bytes past the declared length, 5 another TEID,
/// 6 another message type. Any other kind leaves the packet alone.
pub(crate) fn mutate(pkt: &Bytes, (kind, at, value): (u8, usize, u16)) -> Bytes {
    let mut b = pkt.to_vec();
    let n = b.len();
    match kind {
        0 if n > 0 => b[at % n] ^= 1 << (value % 8),
        1 => b.truncate(at % (n + 1)),
        2 if n >= 4 => {
            let lie = if value & 1 == 0 { value } else { n.saturating_sub(8) as u16 };
            b[2..4].copy_from_slice(&lie.to_be_bytes());
        }
        3 if n > 0 => b[0] = (b[0] & !0b111) | (value as u8 & 0b111),
        4 => b.resize(n + at % 8, value as u8),
        5 if n >= 8 => b[4..8].copy_from_slice(&u32::from(value).to_be_bytes()),
        6 if n >= 2 => b[1] = value as u8,
        _ => {}
    }
    Bytes::from(b)
}
