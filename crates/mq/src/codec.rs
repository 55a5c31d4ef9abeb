//! Version-specific formats of the mini message queue.
//!
//! - **Offsets file**: before 2.3 the on-disk offset record *requires* an
//!   expiry timestamp; 2.3 made it optional. Broker 2.1.0 sits in the gap:
//!   it adopted the "DEFAULT retention ⇒ no expiry" semantics of KAFKA-7403
//!   while still writing the old record — the encode fails.
//! - **Replica batch**: 2.4 changed the wire layout of inter-broker replica
//!   pushes (varint offset + checksum) but **kept the same frame version
//!   id** — the KAFKA-10173 mistake. Old and new brokers misparse each
//!   other's batches.

use dup_core::VersionId;
use dup_wire::proto::{Reader, ValueRef, Writer};
use dup_wire::{
    decode_varint, encode_varint, FieldDescriptor, FieldType, MessageDescriptor, Schema, WireError,
};
use std::sync::OnceLock;

/// The inter-broker protocol id. Deliberately NOT bumped between 2.3 and
/// 2.4 — that is the KAFKA-10173 bug.
pub fn inter_broker_proto(v: VersionId) -> u32 {
    match (v.major, v.minor) {
        (0, 11) => 3,
        (1, 0) => 4,
        (2, 1) => 6,
        _ => 7, // 2.3 AND 2.4 — the format changed, the id did not.
    }
}

/// `true` if `v` writes offset records with an *optional* expiry (2.3+).
pub fn offsets_expiry_optional(v: VersionId) -> bool {
    v >= VersionId::new(2, 3, 0)
}

/// The on-disk offset record schema of `v`, built once per distinct shape.
pub fn offsets_schema(v: VersionId) -> &'static Schema {
    static SHAPES: [OnceLock<Schema>; 2] = [const { OnceLock::new() }; 2];
    let shape = usize::from(offsets_expiry_optional(v));
    SHAPES[shape].get_or_init(|| build_offsets_schema(v))
}

fn build_offsets_schema(v: VersionId) -> Schema {
    let expire = if offsets_expiry_optional(v) {
        FieldDescriptor::optional(4, "expire_ts", FieldType::Uint64)
    } else {
        FieldDescriptor::required(4, "expire_ts", FieldType::Uint64)
    };
    Schema::new().with_message(
        MessageDescriptor::new("OffsetRecord")
            .with(FieldDescriptor::required(1, "group", FieldType::Str))
            .with(FieldDescriptor::required(2, "topic", FieldType::Str))
            .with(FieldDescriptor::required(3, "offset", FieldType::Uint64))
            .with(expire),
    )
}

/// Serializes one committed offset as `v` writes it.
pub fn encode_offset_record(
    v: VersionId,
    group: &str,
    topic: &str,
    offset: u64,
    expire_ts: Option<u64>,
) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(group.len() + topic.len() + 24);
    let mut rec = Writer::new(offsets_schema(v), "OffsetRecord", &mut out)?;
    rec.put("group", ValueRef::Str(group))?;
    rec.put("topic", ValueRef::Str(topic))?;
    rec.put("offset", ValueRef::U64(offset))?;
    if let Some(e) = expire_ts {
        rec.put("expire_ts", ValueRef::U64(e))?;
    }
    rec.finish()?;
    Ok(out)
}

/// Reads one committed offset as `v` reads it.
pub fn decode_offset_record(v: VersionId, bytes: &[u8]) -> Result<(u64, Option<u64>), WireError> {
    let mut rec = Reader::new(offsets_schema(v), "OffsetRecord", bytes)?;
    let (mut offset, mut expire) = (0, None);
    while let Some((field, value)) = rec.next()? {
        match (field.name.as_str(), value) {
            ("offset", ValueRef::U64(v)) => offset = v,
            ("expire_ts", ValueRef::U64(v)) => expire = Some(v),
            _ => {}
        }
    }
    Ok((offset, expire))
}

/// A replica batch as pushed between brokers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaBatch {
    /// Topic name.
    pub topic: String,
    /// Record index within the topic.
    pub offset: u64,
    /// Record payload.
    pub payload: Vec<u8>,
}

/// Largest plausible record index; anything above this is a misparse.
const OFFSET_SANITY: u64 = 1 << 40;

fn checksum(data: &[u8]) -> u32 {
    data.iter().fold(0u32, |acc, &b| {
        acc.wrapping_mul(31).wrapping_add(u32::from(b))
    })
}

/// Encodes a replica batch in `v`'s layout.
///
/// ≤2.3: `[topic len varint][topic][offset u64 BE][payload]`.
/// 2.4+: `[topic len varint][topic][offset varint][crc u32 BE][payload]` —
/// same frame version id (see [`inter_broker_proto`]).
pub fn encode_replica_batch(v: VersionId, batch: &ReplicaBatch) -> Vec<u8> {
    let mut out = Vec::new();
    encode_varint(batch.topic.len() as u64, &mut out);
    out.extend_from_slice(batch.topic.as_bytes());
    if v >= VersionId::new(2, 4, 0) {
        encode_varint(batch.offset, &mut out);
        out.extend_from_slice(&checksum(&batch.payload).to_be_bytes());
        out.extend_from_slice(&batch.payload);
    } else {
        out.extend_from_slice(&batch.offset.to_be_bytes());
        out.extend_from_slice(&batch.payload);
    }
    out
}

/// Errors decoding a replica batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// Truncated input.
    Truncated,
    /// The offset field is implausible — the layout was misparsed.
    InsaneOffset(u64),
    /// The checksum does not match — the layout was misparsed.
    BadChecksum {
        /// Expected (from the wire).
        expected: u32,
        /// Computed over the payload.
        computed: u32,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Truncated => write!(f, "replica batch truncated"),
            BatchError::InsaneOffset(o) => write!(f, "implausible record offset {o}"),
            BatchError::BadChecksum { expected, computed } => {
                write!(f, "record batch checksum mismatch: wire {expected:#010x} != computed {computed:#010x}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Decodes a replica batch with `v`'s reader.
pub fn decode_replica_batch(v: VersionId, bytes: &[u8]) -> Result<ReplicaBatch, BatchError> {
    let (tlen, used) = decode_varint(bytes).map_err(|_| BatchError::Truncated)?;
    let mut pos = used;
    let tlen = tlen as usize;
    if bytes.len() < pos + tlen {
        return Err(BatchError::Truncated);
    }
    let topic = String::from_utf8_lossy(&bytes[pos..pos + tlen]).into_owned();
    pos += tlen;
    if v >= VersionId::new(2, 4, 0) {
        let (offset, used) = decode_varint(&bytes[pos..]).map_err(|_| BatchError::Truncated)?;
        pos += used;
        if bytes.len() < pos + 4 {
            return Err(BatchError::Truncated);
        }
        let expected = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("len checked"));
        pos += 4;
        let payload = bytes[pos..].to_vec();
        let computed = checksum(&payload);
        if expected != computed {
            return Err(BatchError::BadChecksum { expected, computed });
        }
        Ok(ReplicaBatch {
            topic,
            offset,
            payload,
        })
    } else {
        if bytes.len() < pos + 8 {
            return Err(BatchError::Truncated);
        }
        let offset = u64::from_be_bytes(bytes[pos..pos + 8].try_into().expect("len checked"));
        pos += 8;
        if offset > OFFSET_SANITY {
            return Err(BatchError::InsaneOffset(offset));
        }
        Ok(ReplicaBatch {
            topic,
            offset,
            payload: bytes[pos..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_wire::{proto, MessageValue, Value};

    fn v(s: &str) -> VersionId {
        s.parse().unwrap()
    }

    /// The offset record as it was built before the streaming writer: a
    /// value tree handed to `proto::encode`. Kept as the oracle.
    fn tree_offset_record(
        v: VersionId,
        group: &str,
        topic: &str,
        offset: u64,
        expire_ts: Option<u64>,
    ) -> Result<Vec<u8>, WireError> {
        let mut rec = MessageValue::new("OffsetRecord")
            .set("group", Value::Str(group.to_string()))
            .set("topic", Value::Str(topic.to_string()))
            .set("offset", Value::U64(offset));
        if let Some(e) = expire_ts {
            rec.put("expire_ts", Value::U64(e));
        }
        proto::encode(offsets_schema(v), &rec)
    }

    #[test]
    fn streamed_offset_records_equal_the_tree_encoders() {
        let long = "g".repeat(300);
        for v in crate::MqSystem::release_history() {
            for (group, topic) in [("g", "t"), ("", ""), (long.as_str(), "events")] {
                for offset in [0, 42, u64::MAX] {
                    for expire in [None, Some(0), Some(1 << 50)] {
                        // Errors too: a missing `required` expiry (KAFKA-7403).
                        assert_eq!(
                            encode_offset_record(v, group, topic, offset, expire),
                            tree_offset_record(v, group, topic, offset, expire),
                            "release {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn static_schemas_equal_freshly_built_ones() {
        for v in crate::MqSystem::release_history() {
            assert_eq!(*offsets_schema(v), build_offsets_schema(v), "{v}");
        }
    }

    #[test]
    fn kafka_10173_proto_id_not_bumped() {
        assert_eq!(
            inter_broker_proto(v("2.3.0")),
            inter_broker_proto(v("2.4.0"))
        );
        assert!(inter_broker_proto(v("2.1.0")) < inter_broker_proto(v("2.3.0")));
    }

    #[test]
    fn offset_record_roundtrip() {
        for ver in ["0.11.0", "2.1.0", "2.3.0"] {
            let ver = v(ver);
            let bytes = encode_offset_record(ver, "g", "t", 42, Some(100)).unwrap();
            assert_eq!(decode_offset_record(ver, &bytes).unwrap(), (42, Some(100)));
        }
    }

    #[test]
    fn kafka_7403_no_expiry_fails_old_record_format() {
        // 2.1.0's new semantics (DEFAULT retention ⇒ no expiry) meet the old
        // on-disk record (required expire_ts): the write fails.
        let err = encode_offset_record(v("2.1.0"), "g", "t", 42, None).unwrap_err();
        assert!(matches!(err, WireError::MissingRequired { field, .. } if field == "expire_ts"));
        // 2.3 made the field optional; the same write succeeds.
        let bytes = encode_offset_record(v("2.3.0"), "g", "t", 42, None).unwrap();
        assert_eq!(
            decode_offset_record(v("2.3.0"), &bytes).unwrap(),
            (42, None)
        );
    }

    #[test]
    fn replica_batch_roundtrip_same_version() {
        for ver in ["2.3.0", "2.4.0"] {
            let ver = v(ver);
            let batch = ReplicaBatch {
                topic: "events".into(),
                offset: 7,
                payload: b"msg".to_vec(),
            };
            let bytes = encode_replica_batch(ver, &batch);
            assert_eq!(
                decode_replica_batch(ver, &bytes).unwrap(),
                batch,
                "version {ver}"
            );
        }
    }

    #[test]
    fn kafka_10173_cross_version_batches_misparse() {
        let batch = ReplicaBatch {
            topic: "events".into(),
            offset: 3,
            payload: b"hello".to_vec(),
        };
        // New batch, old reader: the varint offset + crc parse as a huge BE u64.
        let new_bytes = encode_replica_batch(v("2.4.0"), &batch);
        let err = decode_replica_batch(v("2.3.0"), &new_bytes).unwrap_err();
        assert!(
            matches!(err, BatchError::InsaneOffset(_) | BatchError::Truncated),
            "got {err:?}"
        );
        // Old batch, new reader: crc check fails.
        let old_bytes = encode_replica_batch(v("2.3.0"), &batch);
        let err = decode_replica_batch(v("2.4.0"), &old_bytes).unwrap_err();
        assert!(
            matches!(err, BatchError::BadChecksum { .. } | BatchError::Truncated),
            "got {err:?}"
        );
    }

    #[test]
    fn truncated_batches_are_detected() {
        let batch = ReplicaBatch {
            topic: "t".into(),
            offset: 1,
            payload: b"x".to_vec(),
        };
        let bytes = encode_replica_batch(v("2.3.0"), &batch);
        assert_eq!(
            decode_replica_batch(v("2.3.0"), &bytes[..3]),
            Err(BatchError::Truncated)
        );
        assert_eq!(
            decode_replica_batch(v("2.3.0"), &[]),
            Err(BatchError::Truncated)
        );
    }
}
