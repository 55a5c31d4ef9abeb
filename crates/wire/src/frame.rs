//! Versioned message frames.
//!
//! The paper's good-practice list (§4.1.2) recommends inserting a version
//! identifier in *all* data written to storage or sent over the network, and
//! checking it in every deserialization function. [`Frame`] is that
//! discipline packaged: a magic, a protocol-version identifier, a message
//! kind, and the body. The mini systems use it for their network messages —
//! and the *bugs* seeded in them are precisely the places where a version
//! either is not checked (KAFKA-10173), has no room for intermediates
//! (CASSANDRA-5102), or is learned through a side channel instead of the
//! frame (CASSANDRA-6678).

use crate::error::WireError;
use crate::varint::{decode_varint, encode_varint};
use bytes::Bytes;
use std::borrow::Cow;

const MAGIC: u16 = 0xD0_5E;

/// A framed message: protocol version + kind tag + opaque body.
///
/// A frame borrows what it can: [`Frame::decode`] returns views into the
/// input, and [`Frame::new`] takes the body owned or borrowed, so a handler
/// that only inspects a frame copies nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Protocol version identifier of the sender.
    pub version: u32,
    /// Message kind (system-defined discriminator, e.g. `"gossip"`).
    pub kind: &'a str,
    /// Serialized body (typically `proto::encode` output).
    pub body: Cow<'a, [u8]>,
}

impl<'a> Frame<'a> {
    /// Creates a frame.
    pub fn new(version: u32, kind: &'a str, body: impl Into<Cow<'a, [u8]>>) -> Self {
        Frame {
            version,
            kind,
            body: body.into(),
        }
    }

    /// Serializes the frame. The result is a shared handle: a broadcast
    /// encodes once and clones it per peer.
    pub fn encode(&self) -> Bytes {
        Bytes::from(self.encode_to_vec())
    }

    /// Serializes the frame into a plain buffer, for storage.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + self.kind.len() + 12);
        Frame::header(self.version, self.kind, &mut out);
        out.extend_from_slice(&self.body);
        out
    }

    /// Appends everything of a frame but its body — magic, version, kind —
    /// to `out`. The frame carries no body length, so a sender that appends
    /// the body next has the whole frame in one buffer.
    pub fn header(version: u32, kind: &str, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC.to_be_bytes());
        encode_varint(u64::from(version), out);
        encode_varint(kind.len() as u64, out);
        out.extend_from_slice(kind.as_bytes());
    }

    /// Parses a frame.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, WireError> {
        if bytes.len() < 2 {
            return Err(WireError::Truncated);
        }
        let magic = u16::from_be_bytes([bytes[0], bytes[1]]);
        if magic != MAGIC {
            return Err(WireError::TypeMismatch {
                message: "Frame".to_string(),
                field: "magic".to_string(),
                detail: format!("bad magic {magic:#06x}"),
            });
        }
        let mut pos = 2;
        let (version, used) = decode_varint(&bytes[pos..])?;
        pos += used;
        let version = u32::try_from(version).map_err(|_| WireError::VarintOverflow)?;
        let (kind_len, used) = decode_varint(&bytes[pos..])?;
        pos += used;
        let kind_len = usize::try_from(kind_len).map_err(|_| WireError::Truncated)?;
        if bytes.len() - pos < kind_len {
            return Err(WireError::Truncated);
        }
        let kind = std::str::from_utf8(&bytes[pos..pos + kind_len]).map_err(|_| {
            WireError::TypeMismatch {
                message: "Frame".to_string(),
                field: "kind".to_string(),
                detail: "invalid UTF-8".to_string(),
            }
        })?;
        pos += kind_len;
        Ok(Frame {
            version,
            kind,
            body: Cow::Borrowed(&bytes[pos..]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let f = Frame::new(12, "gossip", &b"payload"[..]);
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
        assert_eq!(f.encode_to_vec(), &bytes[..]);
    }

    #[test]
    fn a_body_appended_to_a_header_is_the_encoded_frame() {
        for (version, kind, body) in [
            (12, "gossip", &b"payload"[..]),
            (0, "", &b""[..]),
            (u32::MAX, "schema_push", &[0xD0, 0x5E, 0x00][..]),
        ] {
            let mut out = Vec::new();
            Frame::header(version, kind, &mut out);
            out.extend_from_slice(body);
            let frame = Frame::new(version, kind, body);
            assert_eq!(out, frame.encode_to_vec());
            assert_eq!(out, &frame.encode()[..]);
            assert_eq!(Frame::decode(&out).unwrap(), frame);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Frame::decode(&[0x00, 0x01, 0x02]).unwrap_err();
        assert!(matches!(err, WireError::TypeMismatch { .. }));
    }

    #[test]
    fn truncated_rejected() {
        let f = Frame::new(3, "req", &b""[..]);
        let bytes = f.encode();
        assert!(Frame::decode(&bytes[..1]).is_err());
        assert!(Frame::decode(&bytes[..3]).is_err());
    }

    #[test]
    fn empty_body_ok() {
        let f = Frame::new(0, "ping", Vec::new());
        let bytes = f.encode();
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back.body.len(), 0);
        assert_eq!(back.kind, "ping");
    }

    proptest! {
        #[test]
        fn frame_roundtrip(version in any::<u32>(), kind in "[a-z]{0,16}", body in proptest::collection::vec(any::<u8>(), 0..64)) {
            let f = Frame::new(version, &kind, body);
            prop_assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
        }
    }
}
