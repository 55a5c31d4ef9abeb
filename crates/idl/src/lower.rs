//! Lowering parsed IDL to runtime [`dup_wire::Schema`] descriptors.
//!
//! This is how a protocol file becomes an executable codec: parse it, lower
//! it, and use the resulting schema with [`dup_wire::proto`] or
//! [`dup_wire::thrift`]. Today only tests, benches and examples do; the mini
//! systems still build their per-version schemas in code.

use crate::ast::{FieldLabel, IdlFile};
use crate::lexer::{ParseError, Span};
use dup_wire::{EnumDescriptor, FieldDescriptor, FieldType, Label, MessageDescriptor, Schema};

/// Converts a parsed file into a runtime schema.
///
/// Scalar type names from both grammars are recognized (`uint64`, `int32`,
/// `string`, `bytes`, `bool`, thrift's `i32`/`i64`/`binary`, …); any other
/// type name must resolve to a message or enum declared in the same file.
pub fn lower(file: &IdlFile) -> Result<Schema, ParseError> {
    let mut schema = Schema::new();
    for e in &file.enums {
        let values: Vec<(&str, i32)> = e
            .values
            .iter()
            .map(|v| (v.name.as_str(), v.number))
            .collect();
        schema = schema.with_enum(EnumDescriptor::new(&e.name, &values));
    }
    for m in &file.messages {
        let mut desc = MessageDescriptor::new(&m.name);
        for f in &m.fields {
            let label = match f.label {
                FieldLabel::Required => Label::Required,
                FieldLabel::Optional => Label::Optional,
                FieldLabel::Repeated => Label::Repeated,
            };
            let field_type = resolve_type(&f.type_name, file, f.span)?;
            desc = desc.with(FieldDescriptor::new(f.tag, &f.name, label, field_type));
        }
        schema = schema.with_message(desc);
    }
    Ok(schema)
}

fn resolve_type(name: &str, file: &IdlFile, span: Span) -> Result<FieldType, ParseError> {
    let ft = match name {
        "int32" | "i32" | "sint32" | "sfixed32" => FieldType::Int32,
        "int64" | "i64" | "sint64" | "sfixed64" => FieldType::Int64,
        "uint32" | "fixed32" => FieldType::Uint32,
        "uint64" | "fixed64" => FieldType::Uint64,
        "bool" => FieldType::Bool,
        "string" => FieldType::Str,
        "bytes" | "binary" => FieldType::BytesType,
        // Thrift's small ints and doubles are carried as the nearest variant.
        "byte" | "i8" | "i16" => FieldType::Int32,
        other => {
            // Resolve user types: exact name, or unqualified suffix match for
            // nested types referenced without their prefix.
            let is_enum = file
                .enums
                .iter()
                .any(|e| e.name == other || e.name.rsplit('.').next() == Some(other));
            let is_msg = file
                .messages
                .iter()
                .any(|m| m.name == other || m.name.rsplit('.').next() == Some(other));
            if is_enum {
                let full = file
                    .enums
                    .iter()
                    .find(|e| e.name == other || e.name.rsplit('.').next() == Some(other))
                    .expect("checked above");
                FieldType::Enum(full.name.clone())
            } else if is_msg {
                let full = file
                    .messages
                    .iter()
                    .find(|m| m.name == other || m.name.rsplit('.').next() == Some(other))
                    .expect("checked above");
                FieldType::Message(full.name.clone())
            } else if other.starts_with("map<") {
                // Thrift maps are carried as opaque repeated bytes; the mini
                // systems do not exchange maps, but corpora may declare them.
                FieldType::BytesType
            } else {
                return Err(ParseError::new(span, format!("unresolved type '{other}'")));
            }
        }
    };
    Ok(ft)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto_parser::parse_proto;
    use crate::thrift_parser::parse_thrift;
    use dup_wire::{proto, MessageValue, Value};

    #[test]
    fn lowered_proto_schema_encodes() {
        let src = r#"
            message Heartbeat {
                required uint64 term = 1;
                optional string node = 2;
                repeated Peer peers = 3;
                optional Role role = 4;
            }
            message Peer { required string host = 1; }
            enum Role { FOLLOWER = 0; LEADER = 1; }
        "#;
        let schema = lower(&parse_proto(src).unwrap()).unwrap();
        let v = MessageValue::new("Heartbeat")
            .set("term", Value::U64(9))
            .set("role", Value::Enum(1))
            .push(
                "peers",
                Value::Msg(MessageValue::new("Peer").set("host", Value::Str("a".into()))),
            );
        let bytes = proto::encode(&schema, &v).unwrap();
        let back = proto::decode(&schema, "Heartbeat", &bytes).unwrap();
        assert_eq!(back.get_u64("term").unwrap(), 9);
        assert_eq!(back.get_enum("role").unwrap(), 1);
    }

    #[test]
    fn lowered_thrift_schema_encodes() {
        let src = r#"
            struct Entry { 1: required i64 key, 2: binary payload }
        "#;
        let schema = lower(&parse_thrift(src).unwrap()).unwrap();
        let v = MessageValue::new("Entry")
            .set("key", Value::I64(-4))
            .set("payload", Value::Bytes(vec![1, 2, 3]));
        let bytes = dup_wire::thrift::encode(&schema, &v).unwrap();
        let back = dup_wire::thrift::decode(&schema, "Entry", &bytes).unwrap();
        assert_eq!(back.get_i64("key").unwrap(), -4);
        assert_eq!(back.get_bytes("payload").unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn nested_type_references_resolve_by_suffix() {
        let src = r#"
            message Outer {
                optional Inner inner = 1;
                message Inner { required bool ok = 1; }
            }
        "#;
        let schema = lower(&parse_proto(src).unwrap()).unwrap();
        let outer = schema.message("Outer").unwrap();
        assert_eq!(
            outer.field_by_name("inner").unwrap().field_type,
            dup_wire::FieldType::Message("Outer.Inner".into())
        );
    }

    #[test]
    fn unresolved_type_is_an_error() {
        let src = "message M { optional Ghost g = 1; }";
        let err = lower(&parse_proto(src).unwrap()).unwrap_err();
        assert!(err.message.contains("Ghost"));
    }

    #[test]
    fn thrift_small_ints_widen() {
        let src = "struct M { 1: i16 small, 2: byte tiny }";
        let schema = lower(&parse_thrift(src).unwrap()).unwrap();
        let m = schema.message("M").unwrap();
        assert_eq!(
            m.field_by_name("small").unwrap().field_type,
            dup_wire::FieldType::Int32
        );
        assert_eq!(
            m.field_by_name("tiny").unwrap().field_type,
            dup_wire::FieldType::Int32
        );
    }
}
