//! Dynamic values carried by the wire formats.
//!
//! Systems under test construct [`MessageValue`]s by name and hand them to a
//! version-specific codec; the codec's [`crate::Schema`] decides how — and
//! whether — they serialize. Keeping values dynamic (rather than generated
//! structs) is what lets two *different* schemas interpret the same bytes,
//! which is the essence of a cross-version incompatibility.

use crate::error::WireError;
use std::fmt;

/// Longest name [`Name`] stores without a heap allocation. Every message
/// and field name of the four mini systems fits.
const INLINE_NAME: usize = 22;

/// A message-type or field name owned by a [`MessageValue`].
///
/// Values are built and decoded once per simulated message, so a `String`
/// per name was the codec's dominant allocation; names are short, so they
/// are stored inline instead and only an unusually long one is boxed. The
/// bytes always come from a `&str`, and which variant holds a name depends
/// only on its length, so comparing the variants' bytes compares the names.
#[derive(Clone)]
pub(crate) enum Name {
    Inline { len: u8, bytes: [u8; INLINE_NAME] },
    Boxed(Box<str>),
}

impl Name {
    pub(crate) fn new(name: &str) -> Self {
        if name.len() <= INLINE_NAME {
            let mut bytes = [0; INLINE_NAME];
            bytes[..name.len()].copy_from_slice(name.as_bytes());
            Name::Inline {
                len: name.len() as u8,
                bytes,
            }
        } else {
            Name::Boxed(name.into())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Name::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Name::Boxed(name) => name.as_bytes(),
        }
    }

    pub(crate) fn as_str(&self) -> &str {
        match self {
            Name::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("a name is copied from a str")
            }
            Name::Boxed(name) => name,
        }
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::new("")
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        same_bytes(self.as_bytes(), other.as_bytes())
    }
}

/// Slice equality, length first and then byte by byte. Names are a handful
/// of bytes and a lookup compares several, so a call into libc's `memcmp`
/// per comparison costs more than the bytes it compares.
fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

impl Eq for Name {}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A single field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// 32-bit signed integer.
    I32(i32),
    /// 64-bit signed integer.
    I64(i64),
    /// 32-bit unsigned integer.
    U32(u32),
    /// 64-bit unsigned integer.
    U64(u64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
    /// Opaque bytes.
    Bytes(Vec<u8>),
    /// Enum member, by number.
    Enum(i32),
    /// Nested message.
    Msg(MessageValue),
}

/// The values of one field: a singular field holds its value in place, and
/// only a field given a second value pays for a `Vec`. Never empty.
#[derive(Debug, Clone)]
enum Values {
    One(Value),
    Many(Vec<Value>),
}

impl Values {
    fn as_slice(&self) -> &[Value] {
        match self {
            Values::One(value) => std::slice::from_ref(value),
            Values::Many(values) => values,
        }
    }

    fn push(&mut self, value: Value) {
        match self {
            Values::Many(values) => values.push(value),
            Values::One(first) => {
                let first = std::mem::replace(first, Value::Bool(false));
                *self = Values::Many(vec![first, value]);
            }
        }
    }
}

impl PartialEq for Values {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Values {}

/// A dynamic message: a type name plus named field values.
#[derive(Debug, Clone, Default)]
pub struct MessageValue {
    type_name: Name,
    /// In insertion order, one entry per field that has a value. A message
    /// carries a handful of fields, so finding one is a scan for an equal
    /// name and adding one is a push.
    fields: Vec<(Name, Values)>,
}

/// Equal when the same fields hold the same values, in whatever order the
/// fields were inserted.
impl PartialEq for MessageValue {
    fn eq(&self, other: &Self) -> bool {
        self.type_name == other.type_name
            && self.fields.len() == other.fields.len()
            && self.fields.iter().all(|(name, values)| {
                let theirs = other.position(name.as_bytes());
                theirs.is_some_and(|at| other.fields[at].1 == *values)
            })
    }
}

impl Eq for MessageValue {}

impl MessageValue {
    /// Creates an empty value of message type `type_name`.
    pub fn new(type_name: &str) -> Self {
        MessageValue {
            type_name: Name::new(type_name),
            fields: Vec::new(),
        }
    }

    /// Creates an empty value of the type named by `type_name`, with room
    /// for `fields` distinct fields.
    pub(crate) fn with_capacity(type_name: &Name, fields: usize) -> Self {
        MessageValue {
            type_name: type_name.clone(),
            fields: Vec::with_capacity(fields),
        }
    }

    /// The message type this value claims to be.
    pub fn type_name(&self) -> &str {
        self.type_name.as_str()
    }

    /// Slot of `field`'s entry.
    pub(crate) fn position(&self, field: &[u8]) -> Option<usize> {
        self.fields
            .iter()
            .position(|(name, _)| same_bytes(name.as_bytes(), field))
    }

    /// Sets a singular field (replacing any existing values); chains.
    pub fn set(mut self, field: &str, value: Value) -> Self {
        self.put(field, value);
        self
    }

    /// Sets a singular field in place.
    pub fn put(&mut self, field: &str, value: Value) {
        match self.position(field.as_bytes()) {
            Some(at) => self.fields[at].1 = Values::One(value),
            None => self.fields.push((Name::new(field), Values::One(value))),
        }
    }

    /// Appends a value to a repeated field; chains.
    pub fn push(mut self, field: &str, value: Value) -> Self {
        self.push_mut(field, value);
        self
    }

    /// Appends a value to a repeated field in place.
    pub fn push_mut(&mut self, field: &str, value: Value) {
        match self.position(field.as_bytes()) {
            Some(at) => self.fields[at].1.push(value),
            None => self.fields.push((Name::new(field), Values::One(value))),
        }
    }

    /// Adds the first value of a field the caller knows is absent, and
    /// returns its slot: valid for [`push_slot`](Self::push_slot) and
    /// [`values_at`](Self::values_at) until a field is removed.
    pub(crate) fn push_new(&mut self, field: &Name, value: Value) -> usize {
        self.fields.push((field.clone(), Values::One(value)));
        self.fields.len() - 1
    }

    /// Appends to the field in `slot` without looking its name up.
    pub(crate) fn push_slot(&mut self, slot: usize, value: Value) {
        self.fields[slot].1.push(value);
    }

    /// The values of the field in `slot`.
    pub(crate) fn values_at(&self, slot: usize) -> &[Value] {
        self.fields[slot].1.as_slice()
    }

    /// Removes a field entirely; returns `true` if it was present.
    pub fn clear_field(&mut self, field: &str) -> bool {
        match self.position(field.as_bytes()) {
            Some(at) => {
                self.fields.remove(at);
                true
            }
            None => false,
        }
    }

    /// Returns `true` if the field has at least one value.
    pub fn has(&self, field: &str) -> bool {
        self.position(field.as_bytes()).is_some()
    }

    /// Returns the last value of `field` (proto2 "last wins" semantics).
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.get_all(field).last()
    }

    /// Returns all values of `field` (empty slice if absent).
    pub fn get_all(&self, field: &str) -> &[Value] {
        match self.position(field.as_bytes()) {
            Some(at) => self.values_at(at),
            None => &[],
        }
    }

    /// Iterates `(field name, values)` pairs in name order, sorting on each
    /// call: for reporting and tests, not for a per-message path.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &[Value])> {
        let mut fields: Vec<_> = (self.fields.iter())
            .map(|(name, values)| (name.as_str(), values.as_slice()))
            .collect();
        fields.sort_unstable_by_key(|(name, _)| *name);
        fields.into_iter()
    }

    /// Number of distinct fields with at least one value.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// A cheap estimate of this value's encoded size in either wire format,
    /// generous for typical scalars, so an encoder's output buffer is
    /// allocated once instead of grown.
    pub(crate) fn encoded_size_hint(&self) -> usize {
        let mut hint = 1;
        for (_, values) in &self.fields {
            for value in values.as_slice() {
                hint += match value {
                    Value::Str(s) => 4 + s.len(),
                    Value::Bytes(b) => 4 + b.len(),
                    Value::Msg(m) => 4 + m.encoded_size_hint(),
                    _ => 8,
                };
            }
        }
        hint
    }

    // ----- typed getters (used pervasively by the mini systems) -----------

    /// Returns `field` as `u64`, accepting any unsigned integer variant.
    pub fn get_u64(&self, field: &str) -> Result<u64, WireError> {
        match self.get(field) {
            Some(Value::U64(v)) => Ok(*v),
            Some(Value::U32(v)) => Ok(u64::from(*v)),
            _ => Err(self.value_type_error(field)),
        }
    }

    /// Returns `field` as `i64`, accepting any signed integer variant.
    pub fn get_i64(&self, field: &str) -> Result<i64, WireError> {
        match self.get(field) {
            Some(Value::I64(v)) => Ok(*v),
            Some(Value::I32(v)) => Ok(i64::from(*v)),
            _ => Err(self.value_type_error(field)),
        }
    }

    /// Returns `field` as `i32`.
    pub fn get_i32(&self, field: &str) -> Result<i32, WireError> {
        match self.get(field) {
            Some(Value::I32(v)) => Ok(*v),
            _ => Err(self.value_type_error(field)),
        }
    }

    /// Returns `field` as `bool`.
    pub fn get_bool(&self, field: &str) -> Result<bool, WireError> {
        match self.get(field) {
            Some(Value::Bool(v)) => Ok(*v),
            _ => Err(self.value_type_error(field)),
        }
    }

    /// Returns `field` as `&str`.
    pub fn get_str(&self, field: &str) -> Result<&str, WireError> {
        match self.get(field) {
            Some(Value::Str(v)) => Ok(v.as_str()),
            _ => Err(self.value_type_error(field)),
        }
    }

    /// Returns `field` as bytes.
    pub fn get_bytes(&self, field: &str) -> Result<&[u8], WireError> {
        match self.get(field) {
            Some(Value::Bytes(v)) => Ok(v.as_slice()),
            _ => Err(self.value_type_error(field)),
        }
    }

    /// Returns `field` as an enum number.
    pub fn get_enum(&self, field: &str) -> Result<i32, WireError> {
        match self.get(field) {
            Some(Value::Enum(v)) => Ok(*v),
            _ => Err(self.value_type_error(field)),
        }
    }

    /// Returns `field` as a nested message.
    pub fn get_msg(&self, field: &str) -> Result<&MessageValue, WireError> {
        match self.get(field) {
            Some(Value::Msg(v)) => Ok(v),
            _ => Err(self.value_type_error(field)),
        }
    }

    fn value_type_error(&self, field: &str) -> WireError {
        if self.has(field) {
            WireError::ValueType {
                message: self.type_name().to_string(),
                field: field.to_string(),
            }
        } else {
            WireError::MissingRequired {
                message: self.type_name().to_string(),
                field: field.to_string(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_typed_getters() {
        let m = MessageValue::new("OffsetCommitRequest")
            .set("topic", Value::Str("events".into()))
            .set("offset", Value::U64(42))
            .set("retentionTime", Value::I64(-1))
            .set("sync", Value::Bool(true))
            .set("code", Value::I32(-7))
            .set("blob", Value::Bytes(vec![1, 2]))
            .set("kind", Value::Enum(2));
        assert_eq!(m.get_str("topic").unwrap(), "events");
        assert_eq!(m.get_u64("offset").unwrap(), 42);
        assert_eq!(m.get_i64("retentionTime").unwrap(), -1);
        assert!(m.get_bool("sync").unwrap());
        assert_eq!(m.get_i32("code").unwrap(), -7);
        assert_eq!(m.get_bytes("blob").unwrap(), &[1, 2]);
        assert_eq!(m.get_enum("kind").unwrap(), 2);
    }

    #[test]
    fn missing_field_reports_missing_required() {
        let m = MessageValue::new("M");
        let err = m.get_u64("absent").unwrap_err();
        assert!(matches!(err, WireError::MissingRequired { .. }));
    }

    #[test]
    fn wrong_type_reports_value_type() {
        let m = MessageValue::new("M").set("f", Value::Str("x".into()));
        let err = m.get_u64("f").unwrap_err();
        assert!(matches!(err, WireError::ValueType { .. }));
    }

    #[test]
    fn repeated_fields_accumulate() {
        let m = MessageValue::new("M")
            .push("xs", Value::U32(1))
            .push("xs", Value::U32(2))
            .push("xs", Value::U32(3));
        assert_eq!(m.get_all("xs").len(), 3);
        // get() follows proto2 last-wins.
        assert_eq!(m.get("xs"), Some(&Value::U32(3)));
    }

    #[test]
    fn widening_getters_accept_narrow_variants() {
        let m = MessageValue::new("M")
            .set("a", Value::U32(7))
            .set("b", Value::I32(-7));
        assert_eq!(m.get_u64("a").unwrap(), 7);
        assert_eq!(m.get_i64("b").unwrap(), -7);
    }

    #[test]
    fn clear_and_field_count() {
        let mut m = MessageValue::new("M").set("a", Value::Bool(true));
        assert_eq!(m.field_count(), 1);
        assert!(m.clear_field("a"));
        assert!(!m.clear_field("a"));
        assert_eq!(m.field_count(), 0);
        assert!(!m.has("a"));
    }

    #[test]
    fn nested_messages() {
        let inner = MessageValue::new("Inner").set("x", Value::U64(1));
        let outer = MessageValue::new("Outer").set("inner", Value::Msg(inner.clone()));
        assert_eq!(outer.get_msg("inner").unwrap(), &inner);
    }
}
