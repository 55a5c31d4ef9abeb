//! Protobuf-compatible encoder/decoder, driven by a runtime [`Schema`].
//!
//! Behaviour mirrors proto2 where it matters for upgrade failures:
//!
//! - **required** fields are enforced at both encode and decode time; a new
//!   version that adds a `required` field therefore fails to decode data
//!   written by an old version (HDFS-14726, HBASE-25238);
//! - **unknown tags are skipped**, so *adding an optional field* is
//!   backward/forward compatible — the good practice the paper recommends;
//! - **changed tag numbers** make old payloads decode into the wrong field
//!   or fail a type check (DUPChecker category 1);
//! - **enum values are validated against the descriptor**, so an enum member
//!   inserted mid-enum (shifting later indices, HDFS-15624) surfaces as
//!   [`WireError::UnknownEnumValue`]. (Real proto2 relegates unknown enum
//!   values to the unknown-field set; we fail loudly because the studied
//!   systems' hand-written `valueOf(int)` lookups threw — and that is the
//!   mechanism under study.)

use crate::error::{WireError, MAX_NESTING_DEPTH};
use crate::schema::{FieldDescriptor, FieldType, MessageDescriptor, Schema};
use crate::slots::{encode_fields, Decoding};
use crate::value::{MessageValue, Value};
use crate::varint::{decode_varint, encode_varint, length_prefixed};

const WIRE_VARINT: u8 = 0;
const WIRE_FIXED64: u8 = 1;
const WIRE_LEN: u8 = 2;
const WIRE_FIXED32: u8 = 5;

/// Encodes `value` according to `schema`.
///
/// Fields are written in descriptor (declaration) order. Fails if a required
/// field is absent, a singular field has multiple values, a field value's
/// type contradicts its declaration, or the value carries undeclared fields.
pub fn encode(schema: &Schema, value: &MessageValue) -> Result<Vec<u8>, WireError> {
    let desc = schema
        .message(value.type_name())
        .ok_or_else(|| WireError::UnknownMessage(value.type_name().to_string()))?;
    let mut out = Vec::with_capacity(value.encoded_size_hint());
    encode_into(schema, desc, value, &mut out)?;
    Ok(out)
}

fn encode_into(
    schema: &Schema,
    desc: &MessageDescriptor,
    value: &MessageValue,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    encode_fields(desc, value, |field, values| {
        values
            .iter()
            .try_for_each(|v| encode_field(schema, desc, field, v, out))
    })
}

fn key(tag: u32, wire_type: u8) -> u64 {
    (u64::from(tag) << 3) | u64::from(wire_type)
}

// Inlined into its one caller's per-value loop: out of line, a repeated
// field of many scalars pays a call per value.
#[inline]
fn encode_field(
    schema: &Schema,
    desc: &MessageDescriptor,
    field: &FieldDescriptor,
    value: &Value,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let bad = || WireError::ValueType {
        message: desc.name.clone(),
        field: field.name.clone(),
    };
    match (&field.field_type, value) {
        (FieldType::Int32, Value::I32(v)) => {
            encode_varint(key(field.tag, WIRE_VARINT), out);
            encode_varint(*v as i64 as u64, out);
        }
        (FieldType::Int64, Value::I64(v)) => {
            encode_varint(key(field.tag, WIRE_VARINT), out);
            encode_varint(*v as u64, out);
        }
        (FieldType::Uint32, Value::U32(v)) => {
            encode_varint(key(field.tag, WIRE_VARINT), out);
            encode_varint(u64::from(*v), out);
        }
        (FieldType::Uint64, Value::U64(v)) => {
            encode_varint(key(field.tag, WIRE_VARINT), out);
            encode_varint(*v, out);
        }
        (FieldType::Bool, Value::Bool(v)) => {
            encode_varint(key(field.tag, WIRE_VARINT), out);
            encode_varint(u64::from(*v), out);
        }
        (FieldType::Str, Value::Str(v)) => {
            encode_varint(key(field.tag, WIRE_LEN), out);
            encode_varint(v.len() as u64, out);
            out.extend_from_slice(v.as_bytes());
        }
        (FieldType::BytesType, Value::Bytes(v)) => {
            encode_varint(key(field.tag, WIRE_LEN), out);
            encode_varint(v.len() as u64, out);
            out.extend_from_slice(v);
        }
        (FieldType::Enum(enum_name), Value::Enum(v)) => {
            let e = schema
                .enum_desc(enum_name)
                .ok_or_else(|| WireError::UnknownType(enum_name.clone()))?;
            if !e.contains_number(*v) {
                return Err(WireError::UnknownEnumValue {
                    enum_name: enum_name.clone(),
                    value: *v,
                });
            }
            encode_varint(key(field.tag, WIRE_VARINT), out);
            encode_varint(*v as i64 as u64, out);
        }
        (FieldType::Message(msg_name), Value::Msg(v)) => {
            let inner_desc = schema
                .message(msg_name)
                .ok_or_else(|| WireError::UnknownType(msg_name.clone()))?;
            encode_varint(key(field.tag, WIRE_LEN), out);
            length_prefixed(out, |out| encode_into(schema, inner_desc, v, out))?;
        }
        _ => return Err(bad()),
    }
    Ok(())
}

/// Decodes `bytes` as message type `message_name` according to `schema`.
///
/// Unknown tags are skipped; required-field presence is verified after the
/// payload is consumed; enum values must be members of their enum.
pub fn decode(
    schema: &Schema,
    message_name: &str,
    bytes: &[u8],
) -> Result<MessageValue, WireError> {
    let desc = schema
        .message(message_name)
        .ok_or_else(|| WireError::UnknownMessage(message_name.to_string()))?;
    decode_inner(schema, desc, bytes, 1)
}

/// `depth` counts the message being decoded, the outermost being 1.
fn decode_inner(
    schema: &Schema,
    desc: &MessageDescriptor,
    bytes: &[u8],
    depth: usize,
) -> Result<MessageValue, WireError> {
    if depth > MAX_NESTING_DEPTH {
        return Err(WireError::NestingTooDeep);
    }
    let mut fields = Decoding::new(desc);
    let mut pos = 0usize;
    while pos < bytes.len() {
        let (k, used) = decode_varint(&bytes[pos..])?;
        pos += used;
        // A tag too large for any declared field must not alias one by
        // losing its high bits: it is skipped like any other unknown tag
        // (and reported, with a wire type that cannot be skipped, as the
        // largest tag there is).
        let tag = u32::try_from(k >> 3).ok();
        let wire_type = (k & 7) as u8;
        match tag.and_then(|tag| desc.index_of_tag(tag)) {
            Some(index) => {
                let field = &desc.fields[index];
                let v = decode_field(schema, desc, field, wire_type, bytes, &mut pos, depth)?;
                fields.add(index, v);
            }
            None => skip_field(wire_type, tag.unwrap_or(u32::MAX), bytes, &mut pos)?,
        }
    }
    // Presence is checked once the payload is consumed. proto2 tolerates
    // duplicates of a singular field with last-wins; we follow that.
    fields.finish()
}

fn decode_field(
    schema: &Schema,
    desc: &MessageDescriptor,
    field: &FieldDescriptor,
    wire_type: u8,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<Value, WireError> {
    let mismatch = |detail: String| WireError::TypeMismatch {
        message: desc.name.clone(),
        field: field.name.clone(),
        detail,
    };
    let expect_wire = match field.field_type {
        FieldType::Int32
        | FieldType::Int64
        | FieldType::Uint32
        | FieldType::Uint64
        | FieldType::Bool
        | FieldType::Enum(_) => WIRE_VARINT,
        FieldType::Str | FieldType::BytesType | FieldType::Message(_) => WIRE_LEN,
    };
    if wire_type != expect_wire {
        return Err(mismatch(format!(
            "expected wire type {expect_wire}, found {wire_type}"
        )));
    }
    match &field.field_type {
        FieldType::Int32 => {
            let (v, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            Ok(Value::I32(v as i64 as i32))
        }
        FieldType::Int64 => {
            let (v, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            Ok(Value::I64(v as i64))
        }
        FieldType::Uint32 => {
            let (v, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            u32::try_from(v)
                .map(Value::U32)
                .map_err(|_| mismatch(format!("value {v} overflows uint32")))
        }
        FieldType::Uint64 => {
            let (v, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            Ok(Value::U64(v))
        }
        FieldType::Bool => {
            let (v, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            Ok(Value::Bool(v != 0))
        }
        FieldType::Enum(enum_name) => {
            let (v, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            let number = v as i64 as i32;
            let e = schema
                .enum_desc(enum_name)
                .ok_or_else(|| WireError::UnknownType(enum_name.clone()))?;
            if !e.contains_number(number) {
                return Err(WireError::UnknownEnumValue {
                    enum_name: enum_name.clone(),
                    value: number,
                });
            }
            Ok(Value::Enum(number))
        }
        FieldType::Str => {
            let slice = read_len_delimited(bytes, pos)?;
            let s = std::str::from_utf8(slice)
                .map_err(|_| mismatch("invalid UTF-8 in string field".to_string()))?;
            Ok(Value::Str(s.to_string()))
        }
        FieldType::BytesType => {
            let slice = read_len_delimited(bytes, pos)?;
            Ok(Value::Bytes(slice.to_vec()))
        }
        FieldType::Message(msg_name) => {
            let slice = read_len_delimited(bytes, pos)?;
            let inner_desc = schema
                .message(msg_name)
                .ok_or_else(|| WireError::UnknownType(msg_name.clone()))?;
            Ok(Value::Msg(decode_inner(
                schema,
                inner_desc,
                slice,
                depth + 1,
            )?))
        }
    }
}

fn read_len_delimited<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], WireError> {
    let (len, used) = decode_varint(&bytes[*pos..])?;
    *pos += used;
    let len = len as usize;
    if bytes.len() - *pos < len {
        return Err(WireError::Truncated);
    }
    let slice = &bytes[*pos..*pos + len];
    *pos += len;
    Ok(slice)
}

fn skip_field(wire_type: u8, tag: u32, bytes: &[u8], pos: &mut usize) -> Result<(), WireError> {
    match wire_type {
        WIRE_VARINT => {
            let (_, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
        }
        WIRE_FIXED64 => {
            if bytes.len() - *pos < 8 {
                return Err(WireError::Truncated);
            }
            *pos += 8;
        }
        WIRE_LEN => {
            read_len_delimited(bytes, pos)?;
        }
        WIRE_FIXED32 => {
            if bytes.len() - *pos < 4 {
                return Err(WireError::Truncated);
            }
            *pos += 4;
        }
        other => {
            return Err(WireError::BadWireType {
                wire_type: other,
                tag,
            })
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::EnumDescriptor;

    fn schema_v1() -> Schema {
        Schema::new()
            .with_message(
                MessageDescriptor::new("ReplicationLoadSink")
                    .with(FieldDescriptor::required(
                        1,
                        "ageOfLastAppliedOp",
                        FieldType::Uint64,
                    ))
                    .with(FieldDescriptor::optional(2, "note", FieldType::Str)),
            )
            .with_enum(EnumDescriptor::new(
                "StorageType",
                &[("DISK", 0), ("SSD", 1), ("ARCHIVE", 2)],
            ))
    }

    /// HBase 2.3.3's view: a new `required` field with tag 3 (paper Fig. 2).
    fn schema_v2() -> Schema {
        Schema::new().with_message(
            MessageDescriptor::new("ReplicationLoadSink")
                .with(FieldDescriptor::required(
                    1,
                    "ageOfLastAppliedOp",
                    FieldType::Uint64,
                ))
                .with(FieldDescriptor::optional(2, "note", FieldType::Str))
                .with(FieldDescriptor::required(
                    3,
                    "timestampStarted",
                    FieldType::Uint64,
                )),
        )
    }

    fn sink(age: u64) -> MessageValue {
        MessageValue::new("ReplicationLoadSink").set("ageOfLastAppliedOp", Value::U64(age))
    }

    #[test]
    fn roundtrip_same_schema() {
        let s = schema_v1();
        let m = sink(7).set("note", Value::Str("ok".into()));
        let bytes = encode(&s, &m).unwrap();
        let back = decode(&s, "ReplicationLoadSink", &bytes).unwrap();
        assert_eq!(back.get_u64("ageOfLastAppliedOp").unwrap(), 7);
        assert_eq!(back.get_str("note").unwrap(), "ok");
    }

    #[test]
    fn hbase_25238_new_required_field_breaks_decode() {
        // Old node encodes with v1; upgraded node decodes with v2 and fails,
        // reproducing the InvalidProtocolBufferException of HBASE-25238.
        let old = schema_v1();
        let new = schema_v2();
        let bytes = encode(&old, &sink(3)).unwrap();
        let err = decode(&new, "ReplicationLoadSink", &bytes).unwrap_err();
        assert_eq!(
            err,
            WireError::MissingRequired {
                message: "ReplicationLoadSink".into(),
                field: "timestampStarted".into()
            }
        );
        // The text flows into failure signatures, and so into report digests.
        assert_eq!(
            err.to_string(),
            "message ReplicationLoadSink is missing required field 'timestampStarted'"
        );
    }

    /// `N { optional N next = 1; }` — what any recursive `.proto` message
    /// lowers to.
    fn self_referential_schema() -> Schema {
        Schema::new().with_message(MessageDescriptor::new("N").with(FieldDescriptor::optional(
            1,
            "next",
            FieldType::Message("N".into()),
        )))
    }

    /// The encoding of `levels` nested `N`s, built outside in from the
    /// lengths (a value that deep could not even be dropped safely).
    fn nested_payload(levels: usize) -> Vec<u8> {
        let mut lens = vec![0usize];
        for _ in 1..levels {
            let inner = *lens.last().unwrap();
            let mut prefix = Vec::new();
            encode_varint(inner as u64, &mut prefix);
            lens.push(1 + prefix.len() + inner);
        }
        let mut out = Vec::new();
        for inner in lens.iter().rev().skip(1) {
            encode_varint(key(1, WIRE_LEN), &mut out);
            encode_varint(*inner as u64, &mut out);
        }
        assert_eq!(out.len(), *lens.last().unwrap());
        out
    }

    #[test]
    fn decode_recursion_is_bounded() {
        let s = self_referential_schema();
        // Unbounded, this depth overflows the stack and aborts the process.
        let err = decode(&s, "N", &nested_payload(100_000)).unwrap_err();
        assert_eq!(err, WireError::NestingTooDeep);
        assert_eq!(err.to_string(), "messages nested deeper than 64 levels");
        let err = decode(&s, "N", &nested_payload(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert_eq!(err, WireError::NestingTooDeep);

        // The limit itself still round-trips.
        let deepest = decode(&s, "N", &nested_payload(MAX_NESTING_DEPTH)).unwrap();
        let mut levels = 1;
        let mut at = &deepest;
        while let Ok(next) = at.get_msg("next") {
            levels += 1;
            at = next;
        }
        assert_eq!(levels, MAX_NESTING_DEPTH);
        assert_eq!(
            encode(&s, &deepest).unwrap(),
            nested_payload(MAX_NESTING_DEPTH)
        );
    }

    #[test]
    fn long_nested_messages_get_a_multi_byte_length() {
        // The in-place length prefix reserves one byte; a body of 128 bytes
        // or more has to be shifted to fit a longer one.
        let s = Schema::new()
            .with_message(
                MessageDescriptor::new("Inner").with(FieldDescriptor::required(
                    1,
                    "blob",
                    FieldType::BytesType,
                )),
            )
            .with_message(
                MessageDescriptor::new("Outer")
                    .with(FieldDescriptor::repeated(
                        1,
                        "inner",
                        FieldType::Message("Inner".into()),
                    ))
                    .with(FieldDescriptor::required(2, "tail", FieldType::Uint64)),
            );
        for len in [0usize, 124, 125, 126, 300, 20_000] {
            let blob: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let m = MessageValue::new("Outer")
                .push(
                    "inner",
                    Value::Msg(MessageValue::new("Inner").set("blob", Value::Bytes(blob.clone()))),
                )
                .push(
                    "inner",
                    Value::Msg(MessageValue::new("Inner").set("blob", Value::Bytes(vec![7]))),
                )
                .set("tail", Value::U64(9));
            let back = decode(&s, "Outer", &encode(&s, &m).unwrap()).unwrap();
            assert_eq!(back, m, "blob of {len} bytes");
        }
    }

    #[test]
    fn new_optional_field_is_backward_and_forward_compatible() {
        let old = schema_v1();
        let new = Schema::new().with_message(
            MessageDescriptor::new("ReplicationLoadSink")
                .with(FieldDescriptor::required(
                    1,
                    "ageOfLastAppliedOp",
                    FieldType::Uint64,
                ))
                .with(FieldDescriptor::optional(2, "note", FieldType::Str))
                .with(FieldDescriptor::optional(
                    3,
                    "timestampStarted",
                    FieldType::Uint64,
                )),
        );
        // old → new: absent optional is fine.
        let bytes = encode(&old, &sink(3)).unwrap();
        assert!(decode(&new, "ReplicationLoadSink", &bytes).is_ok());
        // new → old: the unknown tag 3 is skipped.
        let m = sink(3).set("timestampStarted", Value::U64(99));
        let bytes = encode(&new, &m).unwrap();
        let back = decode(&old, "ReplicationLoadSink", &bytes).unwrap();
        assert!(!back.has("timestampStarted"));
        assert_eq!(back.get_u64("ageOfLastAppliedOp").unwrap(), 3);
    }

    #[test]
    fn changed_tag_number_breaks_decode() {
        // DUPChecker category 1: same field, different tag.
        let old = schema_v1();
        let moved = Schema::new().with_message(MessageDescriptor::new("ReplicationLoadSink").with(
            FieldDescriptor::required(5, "ageOfLastAppliedOp", FieldType::Uint64),
        ));
        let bytes = encode(&old, &sink(3)).unwrap();
        let err = decode(&moved, "ReplicationLoadSink", &bytes).unwrap_err();
        assert!(matches!(err, WireError::MissingRequired { .. }));
    }

    #[test]
    fn enum_member_insertion_shifts_indices_and_fails() {
        // HDFS-15624: NVDIMM inserted mid-enum; a value encoded as ARCHIVE=2
        // under the old numbering is not ARCHIVE anymore — and values past
        // the end fail outright.
        let old = schema_v1();
        let s = Schema::new()
            .with_message(
                MessageDescriptor::new("Report").with(FieldDescriptor::required(
                    1,
                    "type",
                    FieldType::Enum("StorageType".into()),
                )),
            )
            .with_enum(old.enum_desc("StorageType").unwrap().clone());
        let m = MessageValue::new("Report").set("type", Value::Enum(2));
        let bytes = encode(&s, &m).unwrap();

        // New version truncated the enum (member deleted): decode fails.
        let new = Schema::new()
            .with_message(s.message("Report").unwrap().clone())
            .with_enum(EnumDescriptor::new(
                "StorageType",
                &[("DISK", 0), ("SSD", 1)],
            ));
        let err = decode(&new, "Report", &bytes).unwrap_err();
        assert_eq!(
            err,
            WireError::UnknownEnumValue {
                enum_name: "StorageType".into(),
                value: 2
            }
        );
    }

    #[test]
    fn encode_enforces_required_and_singularity() {
        let s = schema_v1();
        let err = encode(&s, &MessageValue::new("ReplicationLoadSink")).unwrap_err();
        assert!(matches!(err, WireError::MissingRequired { .. }));

        let m = sink(1)
            .push("note", Value::Str("a".into()))
            .push("note", Value::Str("b".into()));
        let err = encode(&s, &m).unwrap_err();
        assert!(matches!(err, WireError::TooManyValues { .. }));
    }

    #[test]
    fn encode_rejects_undeclared_fields_and_unknown_messages() {
        let s = schema_v1();
        let m = sink(1).set("bogus", Value::Bool(true));
        assert!(matches!(
            encode(&s, &m).unwrap_err(),
            WireError::UnknownField { .. }
        ));
        let err = encode(&s, &MessageValue::new("Nope")).unwrap_err();
        assert_eq!(err, WireError::UnknownMessage("Nope".into()));
    }

    #[test]
    fn nested_messages_roundtrip() {
        let s = Schema::new()
            .with_message(
                MessageDescriptor::new("Inner").with(FieldDescriptor::required(
                    1,
                    "x",
                    FieldType::Int64,
                )),
            )
            .with_message(
                MessageDescriptor::new("Outer")
                    .with(FieldDescriptor::required(
                        1,
                        "inner",
                        FieldType::Message("Inner".into()),
                    ))
                    .with(FieldDescriptor::repeated(2, "tags", FieldType::Str)),
            );
        let m = MessageValue::new("Outer")
            .set(
                "inner",
                Value::Msg(MessageValue::new("Inner").set("x", Value::I64(-5))),
            )
            .push("tags", Value::Str("a".into()))
            .push("tags", Value::Str("b".into()));
        let bytes = encode(&s, &m).unwrap();
        let back = decode(&s, "Outer", &bytes).unwrap();
        assert_eq!(back.get_msg("inner").unwrap().get_i64("x").unwrap(), -5);
        assert_eq!(back.get_all("tags").len(), 2);
    }

    #[test]
    fn negative_int32_roundtrips_via_64bit_varint() {
        let s = Schema::new().with_message(
            MessageDescriptor::new("M").with(FieldDescriptor::required(1, "v", FieldType::Int32)),
        );
        let m = MessageValue::new("M").set("v", Value::I32(-1));
        let bytes = encode(&s, &m).unwrap();
        // proto2 encodes negative int32 as a 10-byte varint.
        assert_eq!(bytes.len(), 1 + 10);
        let back = decode(&s, "M", &bytes).unwrap();
        assert_eq!(back.get_i32("v").unwrap(), -1);
    }

    #[test]
    fn truncated_payload_is_detected() {
        let s = schema_v1();
        let bytes = encode(&s, &sink(300)).unwrap();
        let err = decode(&s, "ReplicationLoadSink", &bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(err, WireError::Truncated);
    }

    #[test]
    fn a_tag_beyond_u32_does_not_alias_a_declared_field() {
        let s = Schema::new().with_message(
            MessageDescriptor::new("M").with(FieldDescriptor::required(1, "a", FieldType::Uint64)),
        );
        // Tag 2^32 + 1 has the low 32 bits of tag 1.
        let mut bytes = Vec::new();
        encode_varint(((1u64 << 32) + 1) << 3 | u64::from(WIRE_VARINT), &mut bytes);
        encode_varint(7, &mut bytes);
        let err = decode(&s, "M", &bytes).unwrap_err();
        assert!(matches!(err, WireError::MissingRequired { .. }), "{err:?}");
        // It is skipped by its wire type, like any other undeclared tag.
        encode_varint(key(1, WIRE_VARINT), &mut bytes);
        encode_varint(9, &mut bytes);
        let m = decode(&s, "M", &bytes).unwrap();
        assert_eq!(m.get_all("a"), [Value::U64(9)]);
    }

    #[test]
    fn wire_type_mismatch_is_detected() {
        // Encode a string under tag 1, decode with a schema that says tag 1
        // is a varint: the decoder must not misparse silently.
        let writer = Schema::new().with_message(
            MessageDescriptor::new("M").with(FieldDescriptor::required(1, "v", FieldType::Str)),
        );
        let reader = Schema::new().with_message(
            MessageDescriptor::new("M").with(FieldDescriptor::required(1, "v", FieldType::Uint64)),
        );
        let bytes = encode(
            &writer,
            &MessageValue::new("M").set("v", Value::Str("hello".into())),
        )
        .unwrap();
        let err = decode(&reader, "M", &bytes).unwrap_err();
        assert!(matches!(err, WireError::TypeMismatch { .. }));
    }
}
