//! LEB128 varints and ZigZag transforms, byte-compatible with Protocol
//! Buffers' base-128 varint encoding.

use crate::error::WireError;

/// Appends `value` to `out` as a base-128 varint (1–10 bytes).
pub fn encode_varint(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Runs `body`, which appends to `out`, and prefixes what it appended with
/// its length as a varint — in place, so a nested message needs no buffer of
/// its own. One length byte is reserved up front (bodies under 128 bytes, the
/// common case); a longer body is shifted to make room.
pub(crate) fn length_prefixed(
    out: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let at = out.len();
    out.push(0);
    body(out)?;
    let len = out.len() - at - 1;
    if len < 0x80 {
        out[at] = len as u8;
    } else {
        // varint(len) is its low seven bits, flagged, then varint(len >> 7):
        // the first byte takes the reserved slot, the rest are appended and
        // rotated in behind it.
        out[at] = (len & 0x7f) as u8 | 0x80;
        let end = out.len();
        encode_varint((len >> 7) as u64, out);
        let extra = out.len() - end;
        out[at + 1..].rotate_right(extra);
    }
    Ok(())
}

/// Decodes a varint from the front of `input`, returning `(value, consumed)`.
pub fn decode_varint(input: &[u8]) -> Result<(u64, usize), WireError> {
    let mut value: u64 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i == 10 {
            return Err(WireError::VarintOverflow);
        }
        // The 10th byte may only contribute the final bit.
        if i == 9 && byte & 0xfe != 0 {
            return Err(WireError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
    }
    Err(WireError::Truncated)
}

/// ZigZag-encodes a signed value so small magnitudes stay small.
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverts [`zigzag_encode`].
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors_match_protobuf() {
        // From the protobuf encoding documentation.
        let mut out = Vec::new();
        encode_varint(1, &mut out);
        assert_eq!(out, vec![0x01]);
        out.clear();
        encode_varint(300, &mut out);
        assert_eq!(out, vec![0xac, 0x02]);
        out.clear();
        encode_varint(u64::MAX, &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn decode_reports_truncation() {
        assert_eq!(decode_varint(&[0x80]), Err(WireError::Truncated));
        assert_eq!(decode_varint(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn decode_rejects_overlong() {
        let overlong = [
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
        ];
        assert_eq!(decode_varint(&overlong), Err(WireError::VarintOverflow));
    }

    #[test]
    fn zigzag_known_vectors() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_decode(4294967294), 2147483647);
    }

    proptest! {
        #[test]
        fn varint_roundtrip(v in any::<u64>()) {
            let mut out = Vec::new();
            encode_varint(v, &mut out);
            let (decoded, used) = decode_varint(&out).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(used, out.len());
        }

        #[test]
        fn varint_decode_ignores_trailing(v in any::<u64>(), trail in proptest::collection::vec(any::<u8>(), 0..8)) {
            let mut out = Vec::new();
            encode_varint(v, &mut out);
            let len = out.len();
            out.extend_from_slice(&trail);
            let (decoded, used) = decode_varint(&out).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(used, len);
        }

        #[test]
        fn zigzag_roundtrip(v in any::<i64>()) {
            prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }

        #[test]
        fn zigzag_small_magnitude_stays_small(v in -1000i64..1000) {
            prop_assert!(zigzag_encode(v) <= 2000);
        }
    }
}
