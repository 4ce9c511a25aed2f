//! The lies a corrupted or hostile sender tells in a valid PDU, for the
//! receive codecs' `hostile` proptests: the mutator of `stack::node`'s MAC
//! walk test, for PDUs with no MAC around them. Duplicated and reordered
//! PDUs are the tests' own business: they change the sequence, not a PDU.

use std::ops::Range;

/// The mutation strategy's values: a kind (0 a bit flip, 1 a truncation,
/// 2 a field lie; any other kind leaves the PDU alone), a position and a
/// value.
pub(crate) type Mutation = (u8, usize, u32);

/// `pdu` with one lie told in it: a bit flip anywhere, a truncation, or a
/// lie in the big-endian field at `field` (an SN, an SO, a COUNT), which
/// gets the low bytes of the value.
pub(crate) fn mutate(pdu: &[u8], field: Range<usize>, (kind, at, value): Mutation) -> Vec<u8> {
    let mut b = pdu.to_vec();
    let n = b.len();
    match kind {
        0 if n > 0 => b[at % n] ^= 1 << (value % 8),
        1 => b.truncate(at % (n + 1)),
        2 if field.end <= n && field.len() <= 4 => {
            let width = field.len();
            b[field].copy_from_slice(&value.to_be_bytes()[4 - width..]);
        }
        _ => {}
    }
    b
}
