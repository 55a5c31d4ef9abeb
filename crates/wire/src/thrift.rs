//! A Thrift-like binary format driven by the same runtime [`Schema`].
//!
//! The studied systems Accumulo and Impala use Apache Thrift rather than
//! Protocol Buffers (paper §6.2, Table 6). The layout here follows Thrift's
//! binary protocol in spirit — a type byte and a 16-bit field id per field,
//! terminated by a stop byte — which is enough to reproduce the same four
//! categories of cross-version incompatibility over a second serialization
//! library, as DUPChecker requires.
//!
//! Layout per field: `[type: u8][field id: u16 BE][payload]`; a message ends
//! with `T_STOP` (0x00). Integers are varints, strings/bytes/messages are
//! length-prefixed with a varint.

use crate::error::{WireError, MAX_NESTING_DEPTH};
use crate::schema::{FieldDescriptor, FieldType, MessageDescriptor, Schema};
use crate::slots::{encode_fields, Decoding};
use crate::value::{MessageValue, Value};
use crate::varint::{decode_varint, encode_varint, length_prefixed};

const T_STOP: u8 = 0x00;
const T_BOOL: u8 = 0x02;
const T_I32: u8 = 0x08;
const T_I64: u8 = 0x0a;
const T_STRING: u8 = 0x0b;
const T_STRUCT: u8 = 0x0c;

fn type_code(ft: &FieldType) -> u8 {
    match ft {
        FieldType::Bool => T_BOOL,
        FieldType::Int32 | FieldType::Uint32 | FieldType::Enum(_) => T_I32,
        FieldType::Int64 | FieldType::Uint64 => T_I64,
        FieldType::Str | FieldType::BytesType => T_STRING,
        FieldType::Message(_) => T_STRUCT,
    }
}

/// Encodes `value` in the Thrift-like layout according to `schema`.
///
/// Enforces the same presence rules as [`crate::proto::encode`].
pub fn encode(schema: &Schema, value: &MessageValue) -> Result<Vec<u8>, WireError> {
    let desc = schema
        .message(value.type_name())
        .ok_or_else(|| WireError::UnknownMessage(value.type_name().to_string()))?;
    let mut out = Vec::with_capacity(value.encoded_size_hint());
    encode_struct(schema, desc, value, &mut out)?;
    Ok(out)
}

fn encode_struct(
    schema: &Schema,
    desc: &MessageDescriptor,
    value: &MessageValue,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    encode_fields(desc, value, |field, values| {
        values
            .iter()
            .try_for_each(|v| encode_field(schema, desc, field, v, out))
    })?;
    out.push(T_STOP);
    Ok(())
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
    let id = u16::try_from(field.tag).map_err(|_| bad())?;
    out.push(type_code(&field.field_type));
    out.extend_from_slice(&id.to_be_bytes());
    match (&field.field_type, value) {
        (FieldType::Bool, Value::Bool(v)) => out.push(u8::from(*v)),
        (FieldType::Int32, Value::I32(v)) => encode_varint(*v as i64 as u64, out),
        (FieldType::Uint32, Value::U32(v)) => encode_varint(u64::from(*v), out),
        (FieldType::Int64, Value::I64(v)) => encode_varint(*v as u64, out),
        (FieldType::Uint64, Value::U64(v)) => encode_varint(*v, out),
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
            encode_varint(*v as i64 as u64, out);
        }
        (FieldType::Str, Value::Str(v)) => {
            encode_varint(v.len() as u64, out);
            out.extend_from_slice(v.as_bytes());
        }
        (FieldType::BytesType, Value::Bytes(v)) => {
            encode_varint(v.len() as u64, out);
            out.extend_from_slice(v);
        }
        (FieldType::Message(msg_name), Value::Msg(v)) => {
            let inner_desc = schema
                .message(msg_name)
                .ok_or_else(|| WireError::UnknownType(msg_name.clone()))?;
            length_prefixed(out, |out| encode_struct(schema, inner_desc, v, out))?;
        }
        _ => return Err(bad()),
    }
    Ok(())
}

/// Decodes `bytes` as message type `message_name` in the Thrift-like layout.
///
/// Unknown field ids are skipped using the type byte; required fields are
/// verified after the stop byte.
pub fn decode(
    schema: &Schema,
    message_name: &str,
    bytes: &[u8],
) -> Result<MessageValue, WireError> {
    let desc = schema
        .message(message_name)
        .ok_or_else(|| WireError::UnknownMessage(message_name.to_string()))?;
    decode_struct(schema, desc, bytes, &mut 0, 1)
}

/// `depth` counts the struct being decoded, the outermost being 1.
fn decode_struct(
    schema: &Schema,
    desc: &MessageDescriptor,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<MessageValue, WireError> {
    if depth > MAX_NESTING_DEPTH {
        return Err(WireError::NestingTooDeep);
    }
    let mut fields = Decoding::new(desc);
    loop {
        let t = *bytes.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        if t == T_STOP {
            break;
        }
        if bytes.len() - *pos < 2 {
            return Err(WireError::Truncated);
        }
        let id = u16::from_be_bytes([bytes[*pos], bytes[*pos + 1]]);
        *pos += 2;
        match desc.index_of_tag(u32::from(id)) {
            Some(index) => {
                let field = &desc.fields[index];
                let expected = type_code(&field.field_type);
                if t != expected {
                    return Err(WireError::TypeMismatch {
                        message: desc.name.clone(),
                        field: field.name.clone(),
                        detail: format!("expected type code {expected:#x}, found {t:#x}"),
                    });
                }
                fields.add(
                    index,
                    decode_payload(schema, desc, field, bytes, pos, depth)?,
                );
            }
            None => skip_payload(t, id, bytes, pos)?,
        }
    }
    fields.finish()
}

fn decode_payload(
    schema: &Schema,
    desc: &MessageDescriptor,
    field: &FieldDescriptor,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<Value, WireError> {
    match &field.field_type {
        FieldType::Bool => {
            let b = *bytes.get(*pos).ok_or(WireError::Truncated)?;
            *pos += 1;
            Ok(Value::Bool(b != 0))
        }
        FieldType::Int32 => {
            let (v, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            Ok(Value::I32(v as i64 as i32))
        }
        FieldType::Uint32 => {
            let (v, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            u32::try_from(v)
                .map(Value::U32)
                .map_err(|_| WireError::TypeMismatch {
                    message: desc.name.clone(),
                    field: field.name.clone(),
                    detail: format!("value {v} overflows uint32"),
                })
        }
        FieldType::Int64 => {
            let (v, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            Ok(Value::I64(v as i64))
        }
        FieldType::Uint64 => {
            let (v, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            Ok(Value::U64(v))
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
            let slice = read_blob(bytes, pos)?;
            let s = std::str::from_utf8(slice).map_err(|_| WireError::TypeMismatch {
                message: desc.name.clone(),
                field: field.name.clone(),
                detail: "invalid UTF-8".to_string(),
            })?;
            Ok(Value::Str(s.to_string()))
        }
        FieldType::BytesType => Ok(Value::Bytes(read_blob(bytes, pos)?.to_vec())),
        FieldType::Message(msg_name) => {
            let slice = read_blob(bytes, pos)?;
            let inner_desc = schema
                .message(msg_name)
                .ok_or_else(|| WireError::UnknownType(msg_name.clone()))?;
            decode_struct(schema, inner_desc, slice, &mut 0, depth + 1).map(Value::Msg)
        }
    }
}

fn read_blob<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], WireError> {
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

fn skip_payload(t: u8, id: u16, bytes: &[u8], pos: &mut usize) -> Result<(), WireError> {
    match t {
        T_BOOL => {
            if *pos >= bytes.len() {
                return Err(WireError::Truncated);
            }
            *pos += 1;
            Ok(())
        }
        T_I32 | T_I64 => {
            let (_, used) = decode_varint(&bytes[*pos..])?;
            *pos += used;
            Ok(())
        }
        T_STRING | T_STRUCT => {
            read_blob(bytes, pos)?;
            Ok(())
        }
        other => Err(WireError::BadWireType {
            wire_type: other,
            tag: u32::from(id),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::EnumDescriptor;

    fn scan_schema(extra_required: bool) -> Schema {
        let mut m = MessageDescriptor::new("ScanRequest")
            .with(FieldDescriptor::required(1, "table", FieldType::Str))
            .with(FieldDescriptor::optional(2, "limit", FieldType::Int32))
            .with(FieldDescriptor::repeated(3, "columns", FieldType::Str));
        if extra_required {
            m = m.with(FieldDescriptor::required(
                4,
                "authToken",
                FieldType::BytesType,
            ));
        }
        Schema::new().with_message(m).with_enum(EnumDescriptor::new(
            "Durability",
            &[("NONE", 0), ("SYNC", 1)],
        ))
    }

    fn scan() -> MessageValue {
        MessageValue::new("ScanRequest")
            .set("table", Value::Str("t1".into()))
            .set("limit", Value::I32(10))
            .push("columns", Value::Str("a".into()))
            .push("columns", Value::Str("b".into()))
    }

    #[test]
    fn roundtrip() {
        let s = scan_schema(false);
        let bytes = encode(&s, &scan()).unwrap();
        let back = decode(&s, "ScanRequest", &bytes).unwrap();
        assert_eq!(back.get_str("table").unwrap(), "t1");
        assert_eq!(back.get_i32("limit").unwrap(), 10);
        assert_eq!(back.get_all("columns").len(), 2);
    }

    #[test]
    fn decode_recursion_is_bounded() {
        // `N { optional N next = 1; }`, nested `levels` deep, built outside in
        // from the lengths: per level a struct header and the length of what
        // it holds, then every level's stop byte.
        let s = Schema::new().with_message(MessageDescriptor::new("N").with(
            FieldDescriptor::optional(1, "next", FieldType::Message("N".into())),
        ));
        let nested_payload = |levels: usize| {
            let mut lens = vec![1usize];
            for _ in 1..levels {
                let inner = *lens.last().unwrap();
                let mut prefix = Vec::new();
                encode_varint(inner as u64, &mut prefix);
                lens.push(3 + prefix.len() + inner + 1);
            }
            let mut out = Vec::new();
            for inner in lens.iter().rev().skip(1) {
                out.extend_from_slice(&[T_STRUCT, 0, 1]);
                encode_varint(*inner as u64, &mut out);
            }
            out.resize(out.len() + levels, T_STOP);
            assert_eq!(out.len(), *lens.last().unwrap());
            out
        };
        // Unbounded, this depth overflows the stack and aborts the process.
        let err = decode(&s, "N", &nested_payload(100_000)).unwrap_err();
        assert_eq!(err, WireError::NestingTooDeep);
        let err = decode(&s, "N", &nested_payload(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert_eq!(err, WireError::NestingTooDeep);
        // The limit itself still round-trips.
        let deepest = decode(&s, "N", &nested_payload(MAX_NESTING_DEPTH)).unwrap();
        assert_eq!(
            encode(&s, &deepest).unwrap(),
            nested_payload(MAX_NESTING_DEPTH)
        );
    }

    #[test]
    fn added_required_field_breaks_cross_version_decode() {
        let old = scan_schema(false);
        let new = scan_schema(true);
        let bytes = encode(&old, &scan()).unwrap();
        let err = decode(&new, "ScanRequest", &bytes).unwrap_err();
        assert!(matches!(err, WireError::MissingRequired { field, .. } if field == "authToken"));
    }

    #[test]
    fn unknown_fields_are_skipped_by_old_decoder() {
        let old = scan_schema(false);
        let mut with_opt = scan_schema(false);
        // Simulate a new version that added an *optional* field.
        with_opt = Schema::new()
            .with_message(
                with_opt
                    .message("ScanRequest")
                    .unwrap()
                    .clone()
                    .with(FieldDescriptor::optional(9, "traceId", FieldType::Uint64)),
            )
            .with_enum(with_opt.enum_desc("Durability").unwrap().clone());
        let m = scan().set("traceId", Value::U64(77));
        let bytes = encode(&with_opt, &m).unwrap();
        let back = decode(&old, "ScanRequest", &bytes).unwrap();
        assert!(!back.has("traceId"));
        assert_eq!(back.get_str("table").unwrap(), "t1");
    }

    #[test]
    fn nested_struct_and_enum_roundtrip() {
        let s = Schema::new()
            .with_message(
                MessageDescriptor::new("Mutation")
                    .with(FieldDescriptor::required(
                        1,
                        "durability",
                        FieldType::Enum("Durability".into()),
                    ))
                    .with(FieldDescriptor::optional(
                        2,
                        "inner",
                        FieldType::Message("Cell".into()),
                    )),
            )
            .with_message(
                MessageDescriptor::new("Cell").with(FieldDescriptor::required(
                    1,
                    "value",
                    FieldType::BytesType,
                )),
            )
            .with_enum(EnumDescriptor::new(
                "Durability",
                &[("NONE", 0), ("SYNC", 1)],
            ));
        let m = MessageValue::new("Mutation")
            .set("durability", Value::Enum(1))
            .set(
                "inner",
                Value::Msg(MessageValue::new("Cell").set("value", Value::Bytes(vec![9]))),
            );
        let bytes = encode(&s, &m).unwrap();
        let back = decode(&s, "Mutation", &bytes).unwrap();
        assert_eq!(back.get_enum("durability").unwrap(), 1);
        assert_eq!(
            back.get_msg("inner").unwrap().get_bytes("value").unwrap(),
            &[9]
        );
    }

    #[test]
    fn enum_out_of_range_fails() {
        let s = Schema::new()
            .with_message(MessageDescriptor::new("M").with(FieldDescriptor::required(
                1,
                "d",
                FieldType::Enum("Durability".into()),
            )))
            .with_enum(EnumDescriptor::new(
                "Durability",
                &[("NONE", 0), ("SYNC", 1), ("FSYNC", 2)],
            ));
        let m = MessageValue::new("M").set("d", Value::Enum(2));
        let bytes = encode(&s, &m).unwrap();
        let truncated_enum = Schema::new()
            .with_message(s.message("M").unwrap().clone())
            .with_enum(EnumDescriptor::new(
                "Durability",
                &[("NONE", 0), ("SYNC", 1)],
            ));
        let err = decode(&truncated_enum, "M", &bytes).unwrap_err();
        assert!(matches!(err, WireError::UnknownEnumValue { value: 2, .. }));
    }

    #[test]
    fn truncation_detected() {
        let s = scan_schema(false);
        let bytes = encode(&s, &scan()).unwrap();
        for cut in [1usize, 3, bytes.len() - 1] {
            assert!(
                decode(&s, "ScanRequest", &bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn type_code_mismatch_detected() {
        let writer = Schema::new().with_message(
            MessageDescriptor::new("M").with(FieldDescriptor::required(1, "v", FieldType::Str)),
        );
        let reader = Schema::new().with_message(
            MessageDescriptor::new("M").with(FieldDescriptor::required(1, "v", FieldType::Int64)),
        );
        let bytes = encode(
            &writer,
            &MessageValue::new("M").set("v", Value::Str("x".into())),
        )
        .unwrap();
        let err = decode(&reader, "M", &bytes).unwrap_err();
        assert!(matches!(err, WireError::TypeMismatch { .. }));
    }
}
