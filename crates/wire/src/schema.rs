//! Runtime schema descriptors.
//!
//! A [`Schema`] is the runtime form of one serialization-library protocol
//! file: a set of message descriptors and enum descriptors. Version-specific
//! codecs in the miniature systems each carry their own `Schema`, so two
//! versions of a system can disagree about a format exactly the way
//! HBase 2.2.0 and 2.3.3 disagreed about `ReplicationLoadSink` (paper Fig. 2).

use crate::value::Name;
use std::collections::BTreeMap;

/// Presence discipline of a field, as in proto2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Must appear exactly once; decoders reject payloads without it.
    Required,
    /// May appear at most once.
    Optional,
    /// May appear any number of times.
    Repeated,
}

impl Label {
    /// Returns the IDL keyword for this label.
    pub fn keyword(self) -> &'static str {
        match self {
            Label::Required => "required",
            Label::Optional => "optional",
            Label::Repeated => "repeated",
        }
    }
}

/// Declared type of a field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// 32-bit signed integer (varint on the wire).
    Int32,
    /// 64-bit signed integer (varint on the wire).
    Int64,
    /// 32-bit unsigned integer (varint on the wire).
    Uint32,
    /// 64-bit unsigned integer (varint on the wire).
    Uint64,
    /// Boolean (varint 0/1 on the wire).
    Bool,
    /// UTF-8 string (length-delimited).
    Str,
    /// Opaque bytes (length-delimited).
    BytesType,
    /// A named enum; the value is the member's number (varint).
    Enum(String),
    /// A nested message (length-delimited).
    Message(String),
}

impl FieldType {
    /// Returns the IDL spelling of this type.
    pub fn idl_name(&self) -> String {
        match self {
            FieldType::Int32 => "int32".to_string(),
            FieldType::Int64 => "int64".to_string(),
            FieldType::Uint32 => "uint32".to_string(),
            FieldType::Uint64 => "uint64".to_string(),
            FieldType::Bool => "bool".to_string(),
            FieldType::Str => "string".to_string(),
            FieldType::BytesType => "bytes".to_string(),
            FieldType::Enum(n) | FieldType::Message(n) => n.clone(),
        }
    }
}

/// One declared field of a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDescriptor {
    /// Wire tag number (unique within the message).
    pub tag: u32,
    /// Field name (unique within the message).
    pub name: String,
    /// Presence discipline.
    pub label: Label,
    /// Declared type.
    pub field_type: FieldType,
    /// `name` in the form a [`crate::MessageValue`] stores, built once here
    /// so that a decoder adds the field to a value without building a name.
    pub(crate) key: Name,
}

impl FieldDescriptor {
    /// Creates a field descriptor.
    pub fn new(tag: u32, name: &str, label: Label, field_type: FieldType) -> Self {
        FieldDescriptor {
            tag,
            name: name.to_string(),
            label,
            field_type,
            key: Name::new(name),
        }
    }

    /// Shorthand for a `required` field.
    pub fn required(tag: u32, name: &str, field_type: FieldType) -> Self {
        Self::new(tag, name, Label::Required, field_type)
    }

    /// Shorthand for an `optional` field.
    pub fn optional(tag: u32, name: &str, field_type: FieldType) -> Self {
        Self::new(tag, name, Label::Optional, field_type)
    }

    /// Shorthand for a `repeated` field.
    pub fn repeated(tag: u32, name: &str, field_type: FieldType) -> Self {
        Self::new(tag, name, Label::Repeated, field_type)
    }
}

/// A message type: an ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageDescriptor {
    /// Type name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<FieldDescriptor>,
    /// `name` as a decoded [`crate::MessageValue`] stores its type name.
    pub(crate) key: Name,
}

impl MessageDescriptor {
    /// Creates an empty message descriptor named `name`.
    pub fn new(name: &str) -> Self {
        MessageDescriptor {
            name: name.to_string(),
            fields: Vec::new(),
            key: Name::new(name),
        }
    }

    /// Adds a field and returns `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if the tag or name duplicates an existing field — that is a
    /// programming error in the schema definition, not a runtime condition.
    pub fn with(mut self, field: FieldDescriptor) -> Self {
        assert!(
            self.field_by_tag(field.tag).is_none(),
            "duplicate tag {} in message {}",
            field.tag,
            self.name
        );
        assert!(
            self.field_by_name(&field.name).is_none(),
            "duplicate field name {} in message {}",
            field.name,
            self.name
        );
        self.fields.push(field);
        self
    }

    /// Looks up a field by wire tag.
    pub fn field_by_tag(&self, tag: u32) -> Option<&FieldDescriptor> {
        self.index_of_tag(tag).map(|index| &self.fields[index])
    }

    /// Index in `fields` of the field with wire tag `tag`.
    pub(crate) fn index_of_tag(&self, tag: u32) -> Option<usize> {
        self.fields.iter().position(|f| f.tag == tag)
    }

    /// Looks up a field by name.
    pub fn field_by_name(&self, name: &str) -> Option<&FieldDescriptor> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// An enum type: named members with explicit numbers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EnumDescriptor {
    /// Type name.
    pub name: String,
    /// Members as `(name, number)` pairs in declaration order.
    pub values: Vec<(String, i32)>,
}

impl EnumDescriptor {
    /// Creates an enum descriptor from `(name, number)` pairs.
    pub fn new(name: &str, values: &[(&str, i32)]) -> Self {
        EnumDescriptor {
            name: name.to_string(),
            values: values.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    /// Returns `true` if `number` is a declared member.
    pub fn contains_number(&self, number: i32) -> bool {
        self.values.iter().any(|(_, v)| *v == number)
    }

    /// Returns the number of the member named `name`.
    pub fn number_of(&self, name: &str) -> Option<i32> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Returns the name of the member with `number`.
    pub fn name_of(&self, number: i32) -> Option<&str> {
        self.values
            .iter()
            .find(|(_, v)| *v == number)
            .map(|(n, _)| n.as_str())
    }

    /// Returns `true` if some member has number 0 (the proto3 safety rule
    /// DUPChecker's category-4 warning checks).
    pub fn has_zero(&self) -> bool {
        self.contains_number(0)
    }
}

/// A complete protocol file at runtime: messages and enums by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    messages: BTreeMap<String, MessageDescriptor>,
    enums: BTreeMap<String, EnumDescriptor>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a message descriptor; returns `self` for chaining.
    pub fn with_message(mut self, message: MessageDescriptor) -> Self {
        self.messages.insert(message.name.clone(), message);
        self
    }

    /// Adds (or replaces) an enum descriptor; returns `self` for chaining.
    pub fn with_enum(mut self, enum_desc: EnumDescriptor) -> Self {
        self.enums.insert(enum_desc.name.clone(), enum_desc);
        self
    }

    /// Looks up a message descriptor.
    pub fn message(&self, name: &str) -> Option<&MessageDescriptor> {
        self.messages.get(name)
    }

    /// Looks up an enum descriptor.
    pub fn enum_desc(&self, name: &str) -> Option<&EnumDescriptor> {
        self.enums.get(name)
    }

    /// Iterates message descriptors in name order.
    pub fn messages(&self) -> impl Iterator<Item = &MessageDescriptor> {
        self.messages.values()
    }

    /// Iterates enum descriptors in name order.
    pub fn enums(&self) -> impl Iterator<Item = &EnumDescriptor> {
        self.enums.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_v1() -> MessageDescriptor {
        MessageDescriptor::new("ReplicationLoadSink")
            .with(FieldDescriptor::required(
                1,
                "ageOfLastAppliedOp",
                FieldType::Uint64,
            ))
            .with(FieldDescriptor::optional(2, "note", FieldType::Str))
    }

    #[test]
    fn field_lookup_by_tag_and_name() {
        let m = sink_v1();
        assert_eq!(m.field_by_tag(1).unwrap().name, "ageOfLastAppliedOp");
        assert_eq!(m.field_by_name("note").unwrap().tag, 2);
        assert!(m.field_by_tag(9).is_none());
        assert!(m.field_by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate tag")]
    fn duplicate_tag_panics() {
        let _ = sink_v1().with(FieldDescriptor::optional(1, "dup", FieldType::Bool));
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_name_panics() {
        let _ = sink_v1().with(FieldDescriptor::optional(3, "note", FieldType::Bool));
    }

    #[test]
    fn enum_lookups() {
        let e = EnumDescriptor::new("StorageType", &[("DISK", 0), ("SSD", 1), ("RAM_DISK", 2)]);
        assert!(e.contains_number(1));
        assert!(!e.contains_number(7));
        assert_eq!(e.number_of("SSD"), Some(1));
        assert_eq!(e.name_of(2), Some("RAM_DISK"));
        assert!(e.has_zero());
        let no_zero = EnumDescriptor::new("E", &[("A", 1)]);
        assert!(!no_zero.has_zero());
    }

    #[test]
    fn schema_registry() {
        let s = Schema::new()
            .with_message(sink_v1())
            .with_enum(EnumDescriptor::new("StorageType", &[("DISK", 0)]));
        assert!(s.message("ReplicationLoadSink").is_some());
        assert!(s.enum_desc("StorageType").is_some());
        assert!(s.message("Nope").is_none());
        assert_eq!(s.messages().count(), 1);
        assert_eq!(s.enums().count(), 1);
    }

    #[test]
    fn labels_and_types_render_idl_spellings() {
        assert_eq!(Label::Required.keyword(), "required");
        assert_eq!(FieldType::Uint64.idl_name(), "uint64");
        assert_eq!(FieldType::Enum("E".into()).idl_name(), "E");
        assert_eq!(FieldType::Str.idl_name(), "string");
    }
}
