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
use crate::schema::{FieldDescriptor, FieldType, Label, MessageDescriptor, Schema};
use crate::slots::{check_required, encode_fields, Decoding};
use crate::value::{MessageValue, Value};
use crate::varint::{decode_varint, encode_varint, length_prefixed};

const WIRE_VARINT: u8 = 0;
const WIRE_FIXED64: u8 = 1;
const WIRE_LEN: u8 = 2;
const WIRE_FIXED32: u8 = 5;

/// One field value as it sits in a payload: scalars by value, strings and
/// bytes borrowed from the payload, a nested message as a [`Reader`] over
/// its bytes. It is what a [`Reader`] yields and what a [`Writer`] takes.
#[derive(Debug, Clone)]
pub enum ValueRef<'a> {
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
    Str(&'a str),
    /// Opaque bytes.
    Bytes(&'a [u8]),
    /// Enum member, by number.
    Enum(i32),
    /// Nested message, already walked to its end: reading it cannot fail.
    Msg(Reader<'a>),
}

/// What a decoded field value is handed over as: borrowed from the payload
/// for a streaming consumer, owned for the tree. The field decoder makes a
/// [`ValueRef`] of a variant it knows and converts it in place, so once
/// inlined the conversion's `match` folds away and the tree's values are
/// built as directly as the reader's.
trait FromWire<'a>: Sized {
    fn from_wire(value: ValueRef<'a>) -> Result<Self, WireError>;
}

impl<'a> FromWire<'a> for ValueRef<'a> {
    #[inline]
    fn from_wire(value: ValueRef<'a>) -> Result<Self, WireError> {
        Ok(value)
    }
}

/// Descends into a nested message at once.
impl FromWire<'_> for Value {
    // Always inlined, like `next_field`: with either out of line a decoded
    // `Value` makes one more trip through memory, and between them the
    // 128-value heartbeat decodes 25 % slower.
    #[inline(always)]
    fn from_wire(value: ValueRef<'_>) -> Result<Self, WireError> {
        Ok(match value {
            ValueRef::I32(v) => Value::I32(v),
            ValueRef::I64(v) => Value::I64(v),
            ValueRef::U32(v) => Value::U32(v),
            ValueRef::U64(v) => Value::U64(v),
            ValueRef::Bool(v) => Value::Bool(v),
            ValueRef::Str(v) => Value::Str(v.to_string()),
            ValueRef::Bytes(v) => Value::Bytes(v.to_vec()),
            ValueRef::Enum(v) => Value::Enum(v),
            ValueRef::Msg(inner) => Value::Msg(decode_tree(inner)?),
        })
    }
}

/// Which of a descriptor's fields a payload has had so far, by index.
#[derive(Debug, Clone)]
struct Seen {
    low: u64,
    /// Fields 64 and up, for the rare descriptor that wide.
    high: Option<Box<[bool]>>,
}

impl Seen {
    fn new(fields: usize) -> Self {
        Seen {
            low: 0,
            high: (fields > 64).then(|| vec![false; fields - 64].into()),
        }
    }

    fn mark(&mut self, index: usize) {
        if index < 64 {
            self.low |= 1 << index;
        } else if let Some(high) = &mut self.high {
            high[index - 64] = true;
        }
    }

    fn has(&self, index: usize) -> bool {
        if index < 64 {
            self.low >> index & 1 == 1
        } else {
            self.high.as_ref().is_some_and(|high| high[index - 64])
        }
    }
}

/// Reads a payload field by field, in wire order, without building a
/// [`MessageValue`]: the streaming form of [`decode`], which is a client of
/// it. Every check [`decode`] makes is made here, and in the same order.
///
/// Unknown tags are skipped; required-field presence is verified once the
/// payload is consumed, so a consumer must call [`next`](Self::next) until
/// it returns `None` to have read a valid message. A nested message is
/// walked to its end *before* it is handed out: its first error is reported
/// where [`decode`] reports it, whether or not the consumer descends.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    schema: &'a Schema,
    desc: &'a MessageDescriptor,
    bytes: &'a [u8],
    pos: usize,
    /// The outermost message is 1.
    depth: usize,
    /// Walk nested messages before handing them out. Off where that would
    /// be a second walk: in a nested reader that was itself walked, and in
    /// [`decode`], which descends into every nested message at once.
    prewalk: bool,
    seen: Seen,
}

impl<'a> Reader<'a> {
    /// A reader of `bytes` as message type `message_name` of `schema`.
    pub fn new(schema: &'a Schema, message_name: &str, bytes: &'a [u8]) -> Result<Self, WireError> {
        let desc = schema
            .message(message_name)
            .ok_or_else(|| WireError::UnknownMessage(message_name.to_string()))?;
        Ok(Reader::over(schema, desc, bytes, 1))
    }

    fn over(
        schema: &'a Schema,
        desc: &'a MessageDescriptor,
        bytes: &'a [u8],
        depth: usize,
    ) -> Self {
        Reader {
            schema,
            desc,
            bytes,
            pos: 0,
            depth,
            prewalk: true,
            seen: Seen::new(desc.fields.len()),
        }
    }

    /// The next declared field of the payload and its value, or `None` once
    /// the payload is consumed and every `required` field has been seen.
    /// proto2 tolerates duplicates of a singular field with last-wins; a
    /// consumer that overwrites its local on each occurrence follows that.
    // Not `Iterator`: a `Result<Option<_>>` reads better under `?` in a
    // `while let` than an `Option<Result<_>>` does. Inlined into the
    // consumer's loop, whose `match` on the value then meets the decoder's
    // on the field type: out of line, a field is handed over as a 96-byte
    // `Result` through memory and costs 34 ns instead of 7.
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn next(&mut self) -> Result<Option<(&'a FieldDescriptor, ValueRef<'a>)>, WireError> {
        let Some((index, wire_type)) = self.next_field()? else {
            return Ok(None);
        };
        let value = self.decode_field(index, wire_type)?;
        Ok(Some((&self.desc.fields[index], value)))
    }

    /// Advances to the next declared field: its descriptor index and the
    /// wire type its value arrives with.
    #[inline(always)]
    fn next_field(&mut self) -> Result<Option<(usize, u8)>, WireError> {
        let desc = self.desc;
        while self.pos < self.bytes.len() {
            let k = read_varint(self.bytes, &mut self.pos)?;
            // A tag too large for any declared field must not alias one by
            // losing its high bits: it is skipped like any other unknown tag
            // (and reported, with a wire type that cannot be skipped, as the
            // largest tag there is).
            let tag = u32::try_from(k >> 3).ok();
            let wire_type = (k & 7) as u8;
            match tag.and_then(|tag| desc.index_of_tag(tag)) {
                Some(index) => return Ok(Some((index, wire_type))),
                None => skip_field(
                    wire_type,
                    tag.unwrap_or(u32::MAX),
                    self.bytes,
                    &mut self.pos,
                )?,
            }
        }
        // Presence is checked once the payload is consumed.
        check_required(desc, 0..desc.fields.len(), |i| self.seen.has(i))?;
        Ok(None)
    }

    /// Reads a copy of this reader to the end of the payload, for its
    /// errors: what comes back is a reader that cannot fail. For a handler
    /// that applies fields as it reads them, and must apply none of a
    /// message that does not parse.
    pub fn checked(mut self) -> Result<Self, WireError> {
        let mut walk = self.clone();
        while let Some((index, wire_type)) = walk.next_field()? {
            walk.decode_field::<ValueRef<'a>>(index, wire_type)?;
        }
        self.prewalk = false;
        Ok(self)
    }

    /// Decodes the value of the descriptor's field `index`.
    #[inline(always)]
    fn decode_field<T: FromWire<'a>>(
        &mut self,
        index: usize,
        wire_type: u8,
    ) -> Result<T, WireError> {
        self.seen.mark(index);
        let (desc, bytes, pos) = (self.desc, self.bytes, &mut self.pos);
        let field = &desc.fields[index];
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
        let mut varint = || read_varint(bytes, pos);
        match &field.field_type {
            FieldType::Int32 => T::from_wire(ValueRef::I32(varint()? as i64 as i32)),
            FieldType::Int64 => T::from_wire(ValueRef::I64(varint()? as i64)),
            FieldType::Uint32 => {
                let v = varint()?;
                match u32::try_from(v) {
                    Ok(v) => T::from_wire(ValueRef::U32(v)),
                    Err(_) => Err(mismatch(format!("value {v} overflows uint32"))),
                }
            }
            FieldType::Uint64 => T::from_wire(ValueRef::U64(varint()?)),
            FieldType::Bool => T::from_wire(ValueRef::Bool(varint()? != 0)),
            FieldType::Enum(enum_name) => {
                let number = varint()? as i64 as i32;
                check_enum_member(self.schema, enum_name, number)?;
                T::from_wire(ValueRef::Enum(number))
            }
            FieldType::Str => match std::str::from_utf8(read_len_delimited(bytes, pos)?) {
                Ok(v) => T::from_wire(ValueRef::Str(v)),
                Err(_) => Err(mismatch("invalid UTF-8 in string field".to_string())),
            },
            FieldType::BytesType => T::from_wire(ValueRef::Bytes(read_len_delimited(bytes, pos)?)),
            FieldType::Message(msg_name) => {
                let slice = read_len_delimited(bytes, pos)?;
                let inner_desc = message_type(self.schema, msg_name)?;
                if self.depth >= MAX_NESTING_DEPTH {
                    return Err(WireError::NestingTooDeep);
                }
                let mut inner = Reader::over(self.schema, inner_desc, slice, self.depth + 1);
                if self.prewalk {
                    inner = inner.checked()?;
                }
                inner.prewalk = false;
                T::from_wire(ValueRef::Msg(inner))
            }
        }
    }
}

fn message_type<'a>(schema: &'a Schema, name: &str) -> Result<&'a MessageDescriptor, WireError> {
    schema
        .message(name)
        .ok_or_else(|| WireError::UnknownType(name.to_string()))
}

fn check_enum_member(schema: &Schema, enum_name: &str, number: i32) -> Result<(), WireError> {
    let e = schema
        .enum_desc(enum_name)
        .ok_or_else(|| WireError::UnknownType(enum_name.to_string()))?;
    if e.contains_number(number) {
        Ok(())
    } else {
        Err(WireError::UnknownEnumValue {
            enum_name: enum_name.to_string(),
            value: number,
        })
    }
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    // One byte — a key with a tag under 16, most lengths — needs no call.
    if let Some(&byte) = bytes.get(*pos).filter(|&&byte| byte < 0x80) {
        *pos += 1;
        return Ok(u64::from(byte));
    }
    let (v, used) = decode_varint(&bytes[*pos..])?;
    *pos += used;
    Ok(v)
}

fn read_len_delimited<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], WireError> {
    let len = read_varint(bytes, pos)? as usize;
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
            read_varint(bytes, pos)?;
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

/// Decodes `bytes` as message type `message_name` according to `schema`.
///
/// Unknown tags are skipped; required-field presence is verified after the
/// payload is consumed; enum values must be members of their enum.
pub fn decode(
    schema: &Schema,
    message_name: &str,
    bytes: &[u8],
) -> Result<MessageValue, WireError> {
    let mut reader = Reader::new(schema, message_name, bytes)?;
    reader.prewalk = false;
    decode_tree(reader)
}

/// Drains `reader` into a value.
fn decode_tree(mut reader: Reader<'_>) -> Result<MessageValue, WireError> {
    let mut fields = Decoding::new(reader.desc);
    while let Some((index, wire_type)) = reader.next_field()? {
        fields.add(index, reader.decode_field(index, wire_type)?);
    }
    // The reader has checked presence.
    Ok(fields.into_value())
}

/// Writes a message field by field straight into a buffer, without a
/// [`MessageValue`]: the streaming form of [`encode`], with its checks — a
/// declared field, a value of the declared type, an enum member, one value
/// for a singular field, every `required` field written.
///
/// Fields are written in declaration order, as [`encode`] emits them, and
/// [`finish`](Self::finish) must be called. After an error the buffer holds
/// a partial message and is good for nothing.
#[must_use = "a message is complete only once `finish` has checked it"]
pub struct Writer<'a> {
    schema: &'a Schema,
    desc: &'a MessageDescriptor,
    out: &'a mut Vec<u8>,
    /// Index of the first field that may still be written, and whether it
    /// has a value already. Everything before it is settled: written, or
    /// absent and not `required`.
    cursor: usize,
    cursor_written: bool,
}

impl<'a> Writer<'a> {
    /// A writer that appends one `message_name` of `schema` to `out`.
    pub fn new(
        schema: &'a Schema,
        message_name: &str,
        out: &'a mut Vec<u8>,
    ) -> Result<Self, WireError> {
        let desc = schema
            .message(message_name)
            .ok_or_else(|| WireError::UnknownMessage(message_name.to_string()))?;
        Ok(Writer::over(schema, desc, out))
    }

    fn over(schema: &'a Schema, desc: &'a MessageDescriptor, out: &'a mut Vec<u8>) -> Self {
        Writer {
            schema,
            desc,
            out,
            cursor: 0,
            cursor_written: false,
        }
    }

    /// Appends one value of the scalar field `name`. A nested message is
    /// written with [`message`](Self::message); a [`ValueRef::Msg`] here is
    /// a value of the wrong type.
    ///
    /// # Panics
    ///
    /// Panics if `name` is declared before a field already written — a
    /// programming error in the caller, not a runtime condition.
    pub fn put(&mut self, name: &str, value: ValueRef<'_>) -> Result<(), WireError> {
        let field = self.advance_to(name)?;
        encode_field(self.schema, self.desc, field, value, self.out)
    }

    /// Appends one value of the message field `name`, written by `body`.
    ///
    /// # Panics
    ///
    /// As [`put`](Self::put).
    pub fn message(
        &mut self,
        name: &str,
        body: impl FnOnce(&mut Writer<'_>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        let field = self.advance_to(name)?;
        let schema = self.schema;
        encode_nested(schema, self.desc, field, self.out, |inner_desc, out| {
            let mut inner = Writer::over(schema, inner_desc, out);
            body(&mut inner)?;
            inner.finish()
        })
    }

    /// Moves the cursor to the field `name` for one more value.
    fn advance_to(&mut self, name: &str) -> Result<&'a FieldDescriptor, WireError> {
        let desc = self.desc;
        let mut ahead = desc.fields[self.cursor..].iter();
        let Some(index) = ahead.position(|f| f.name == name).map(|i| self.cursor + i) else {
            assert!(
                desc.field_by_name(name).is_none(),
                "{}.{name} written out of declaration order",
                desc.name
            );
            return Err(WireError::UnknownField {
                message: desc.name.clone(),
                field: name.to_string(),
            });
        };
        let field = &desc.fields[index];
        if index > self.cursor {
            // The fields stepped over can no longer be written.
            let skipped = self.cursor + usize::from(self.cursor_written)..index;
            check_required(desc, skipped, |_| false)?;
            self.cursor = index;
        } else if self.cursor_written && field.label != Label::Repeated {
            return Err(WireError::TooManyValues {
                message: desc.name.clone(),
                field: field.name.clone(),
            });
        }
        self.cursor_written = true;
        Ok(field)
    }

    /// Ends the message: every `required` field must have been written.
    pub fn finish(self) -> Result<(), WireError> {
        let unwritten = self.cursor + usize::from(self.cursor_written)..self.desc.fields.len();
        check_required(self.desc, unwritten, |_| false)
    }
}

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
        values.iter().try_for_each(|value| {
            let value = match value {
                Value::I32(v) => ValueRef::I32(*v),
                Value::I64(v) => ValueRef::I64(*v),
                Value::U32(v) => ValueRef::U32(*v),
                Value::U64(v) => ValueRef::U64(*v),
                Value::Bool(v) => ValueRef::Bool(*v),
                Value::Str(v) => ValueRef::Str(v),
                Value::Bytes(v) => ValueRef::Bytes(v),
                Value::Enum(v) => ValueRef::Enum(*v),
                Value::Msg(v) => {
                    return encode_nested(schema, desc, field, out, |inner_desc, out| {
                        encode_into(schema, inner_desc, v, out)
                    })
                }
            };
            encode_field(schema, desc, field, value, out)
        })
    })
}

fn key(tag: u32, wire_type: u8) -> u64 {
    (u64::from(tag) << 3) | u64::from(wire_type)
}

fn value_type_error(desc: &MessageDescriptor, field: &FieldDescriptor) -> WireError {
    WireError::ValueType {
        message: desc.name.clone(),
        field: field.name.clone(),
    }
}

/// Appends one scalar value of `field`.
// Inlined into its callers' per-value loops: out of line, a repeated field
// of many scalars pays a call per value.
#[inline]
fn encode_field(
    schema: &Schema,
    desc: &MessageDescriptor,
    field: &FieldDescriptor,
    value: ValueRef<'_>,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    // The value leads the match: a caller that has just made it knows its
    // variant, and inlined here is left with one test of the field's type.
    let varint = match (value, &field.field_type) {
        (ValueRef::I32(v), FieldType::Int32) => v as i64 as u64,
        (ValueRef::I64(v), FieldType::Int64) => v as u64,
        (ValueRef::U32(v), FieldType::Uint32) => u64::from(v),
        (ValueRef::U64(v), FieldType::Uint64) => v,
        (ValueRef::Bool(v), FieldType::Bool) => u64::from(v),
        (ValueRef::Enum(v), FieldType::Enum(enum_name)) => {
            check_enum_member(schema, enum_name, v)?;
            v as i64 as u64
        }
        (ValueRef::Str(v), FieldType::Str) => {
            encode_varint(key(field.tag, WIRE_LEN), out);
            encode_varint(v.len() as u64, out);
            out.extend_from_slice(v.as_bytes());
            return Ok(());
        }
        (ValueRef::Bytes(v), FieldType::BytesType) => {
            encode_varint(key(field.tag, WIRE_LEN), out);
            encode_varint(v.len() as u64, out);
            out.extend_from_slice(v);
            return Ok(());
        }
        _ => return Err(value_type_error(desc, field)),
    };
    encode_varint(key(field.tag, WIRE_VARINT), out);
    encode_varint(varint, out);
    Ok(())
}

/// Appends one value of the message field `field`: `body` writes it, as the
/// type the field declares, and its length is patched in behind it.
fn encode_nested(
    schema: &Schema,
    desc: &MessageDescriptor,
    field: &FieldDescriptor,
    out: &mut Vec<u8>,
    body: impl FnOnce(&MessageDescriptor, &mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let FieldType::Message(msg_name) = &field.field_type else {
        return Err(value_type_error(desc, field));
    };
    let inner_desc = message_type(schema, msg_name)?;
    encode_varint(key(field.tag, WIRE_LEN), out);
    length_prefixed(out, |out| body(inner_desc, out))
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
    fn a_reader_and_a_writer_stream_what_the_tree_codec_builds() {
        let s = schema_v1();
        let mut bytes = vec![0xAA];
        let mut w = Writer::new(&s, "ReplicationLoadSink", &mut bytes).unwrap();
        w.put("ageOfLastAppliedOp", ValueRef::U64(7)).unwrap();
        w.put("note", ValueRef::Str("ok")).unwrap();
        w.finish().unwrap();
        // Appended behind what the buffer held, the tree encoder's bytes.
        let m = sink(7).set("note", Value::Str("ok".into()));
        assert_eq!(bytes[1..], encode(&s, &m).unwrap()[..]);

        let mut r = Reader::new(&s, "ReplicationLoadSink", &bytes[1..]).unwrap();
        let (mut age, mut note) = (0, "");
        while let Some((field, value)) = r.next().unwrap() {
            match (field.name.as_str(), value) {
                ("ageOfLastAppliedOp", ValueRef::U64(v)) => age = v,
                ("note", ValueRef::Str(v)) => note = v,
                (name, value) => panic!("{name} = {value:?}"),
            }
        }
        assert_eq!((age, note), (7, "ok"));
        assert!(matches!(
            Writer::new(&s, "Nope", &mut Vec::new()),
            Err(WireError::UnknownMessage(_))
        ));
    }

    #[test]
    fn a_checked_reader_has_reported_its_errors_up_front() {
        // v2 requires a field the v1 payload lacks: seen only at the end of
        // the payload, so a handler applying fields as it goes checks first.
        let bytes = encode(&schema_v1(), &sink(3)).unwrap();
        let v2 = schema_v2();
        let unchecked = Reader::new(&v2, "ReplicationLoadSink", &bytes).unwrap();
        let mut reader = unchecked.clone();
        assert!(matches!(reader.next(), Ok(Some(_))));
        assert!(matches!(
            reader.next(),
            Err(WireError::MissingRequired { .. })
        ));
        assert!(matches!(
            unchecked.checked(),
            Err(WireError::MissingRequired { .. })
        ));
        let v1 = schema_v1();
        let mut reader = Reader::new(&v1, "ReplicationLoadSink", &bytes)
            .and_then(Reader::checked)
            .unwrap();
        assert!(matches!(reader.next(), Ok(Some((_, ValueRef::U64(3))))));
        assert!(matches!(reader.next(), Ok(None)));
    }

    #[test]
    #[should_panic(expected = "written out of declaration order")]
    fn a_writer_fed_out_of_declaration_order_panics() {
        let s = Schema::new().with_message(
            MessageDescriptor::new("M")
                .with(FieldDescriptor::optional(1, "a", FieldType::Uint64))
                .with(FieldDescriptor::optional(2, "b", FieldType::Uint64)),
        );
        let mut bytes = Vec::new();
        let mut w = Writer::new(&s, "M", &mut bytes).unwrap();
        w.put("b", ValueRef::U64(2)).unwrap();
        let _ = w.put("a", ValueRef::U64(1));
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
