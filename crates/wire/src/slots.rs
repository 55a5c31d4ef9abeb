//! What the two wire formats share besides the byte layout: which of a
//! descriptor's fields a message has, and where each one's values sit in
//! the [`MessageValue`].
//!
//! A field is identified by its index in the descriptor and its entry in
//! the value by a slot, so per message a name is looked up once per declared
//! field when encoding and not at all when decoding.

use crate::error::WireError;
use crate::schema::{FieldDescriptor, Label, MessageDescriptor};
use crate::value::{MessageValue, Value};
use std::ops::Range;

/// Descriptor fields the slot table has room for. A wider descriptor (the
/// mini systems' widest has 9) is resolved by name on every access instead.
const TABLE: usize = 64;

/// The slot in one value of each field of `desc` that has an entry there.
struct Slots<'d> {
    desc: &'d MessageDescriptor,
    tabled: bool,
    seen: u64,
    at: [u8; TABLE],
}

impl<'d> Slots<'d> {
    /// `value` may gain entries for fields of `desc` afterwards, and no
    /// others: tabled, it never has more than `TABLE` of them.
    fn new(desc: &'d MessageDescriptor, value: &MessageValue) -> Self {
        Slots {
            desc,
            tabled: desc.fields.len().max(value.field_count()) <= TABLE,
            seen: 0,
            at: [0; TABLE],
        }
    }

    fn set(&mut self, index: usize, slot: usize) {
        if self.tabled {
            self.seen |= 1 << index;
            self.at[index] = u8::try_from(slot).expect("a tabled value has at most TABLE fields");
        }
    }

    fn get(&self, value: &MessageValue, index: usize) -> Option<usize> {
        if self.tabled {
            (self.seen >> index & 1 == 1).then(|| usize::from(self.at[index]))
        } else {
            value.position(self.desc.fields[index].name.as_bytes())
        }
    }
}

/// A message of type `desc` being decoded: fields arrive in wire order, by
/// descriptor index.
pub(crate) struct Decoding<'d> {
    value: MessageValue,
    slots: Slots<'d>,
}

impl<'d> Decoding<'d> {
    pub(crate) fn new(desc: &'d MessageDescriptor) -> Self {
        let value = MessageValue::with_capacity(&desc.key, desc.fields.len());
        let slots = Slots::new(desc, &value);
        Decoding { value, slots }
    }

    /// Appends a decoded value of the descriptor's field `index`. A singular
    /// field sent twice keeps both; readers take the last (proto2). Inlined:
    /// it runs once per decoded value.
    #[inline]
    pub(crate) fn add(&mut self, index: usize, v: Value) {
        match self.slots.get(&self.value, index) {
            Some(slot) => self.value.push_slot(slot, v),
            None => {
                let desc = self.slots.desc;
                let slot = self.value.push_new(&desc.fields[index].key, v);
                self.slots.set(index, slot);
            }
        }
    }

    /// The decoded value, once every `required` field has arrived.
    pub(crate) fn finish(self) -> Result<MessageValue, WireError> {
        let desc = self.slots.desc;
        check_required(desc, 0..desc.fields.len(), |index| {
            self.slots.get(&self.value, index).is_some()
        })?;
        Ok(self.value)
    }

    /// The decoded value, for a caller that has checked presence itself.
    pub(crate) fn into_value(self) -> MessageValue {
        self.value
    }
}

/// Fails with `MissingRequired` for the first `required` field among
/// `desc.fields[range]` that `present` denies.
pub(crate) fn check_required(
    desc: &MessageDescriptor,
    range: Range<usize>,
    present: impl Fn(usize) -> bool,
) -> Result<(), WireError> {
    for index in range {
        let field = &desc.fields[index];
        if field.label == Label::Required && !present(index) {
            return Err(WireError::MissingRequired {
                message: desc.name.clone(),
                field: field.name.clone(),
            });
        }
    }
    Ok(())
}

/// Hands `emit` the values of each declared field that `value` has, in
/// declaration order, after checking what both formats require of a value:
/// no undeclared field, every `required` field present, one value at most
/// for a singular field.
pub(crate) fn encode_fields(
    desc: &MessageDescriptor,
    value: &MessageValue,
    mut emit: impl FnMut(&FieldDescriptor, &[Value]) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let mut slots = Slots::new(desc, value);
    let mut matched = 0;
    for (index, field) in desc.fields.iter().enumerate() {
        if let Some(slot) = value.position(field.name.as_bytes()) {
            slots.set(index, slot);
            matched += 1;
        }
    }
    // Reject undeclared fields: writing a field the schema does not know is a
    // programming error in the system under test, not a compatibility event.
    if matched < value.field_count() {
        let (undeclared, _) = (value.fields())
            .find(|(name, _)| desc.field_by_name(name).is_none())
            .expect("fewer declared fields matched than the value has");
        return Err(WireError::UnknownField {
            message: desc.name.clone(),
            field: undeclared.to_string(),
        });
    }
    for (index, field) in desc.fields.iter().enumerate() {
        let Some(slot) = slots.get(value, index) else {
            if field.label == Label::Required {
                return Err(WireError::MissingRequired {
                    message: desc.name.clone(),
                    field: field.name.clone(),
                });
            }
            continue;
        };
        let values = value.values_at(slot);
        if field.label != Label::Repeated && values.len() > 1 {
            return Err(WireError::TooManyValues {
                message: desc.name.clone(),
                field: field.name.clone(),
            });
        }
        emit(field, values)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::schema::{FieldDescriptor, FieldType, Label, MessageDescriptor, Schema};
    use crate::value::{MessageValue, Value};
    use crate::{proto, thrift, WireError};

    type Encode = fn(&Schema, &MessageValue) -> Result<Vec<u8>, WireError>;
    type Decode = fn(&Schema, &str, &[u8]) -> Result<MessageValue, WireError>;
    const FORMATS: [(&str, Encode, Decode); 2] = [
        ("proto", proto::encode, proto::decode),
        ("thrift", thrift::encode, thrift::decode),
    ];

    fn unknown_field(field: &str) -> WireError {
        WireError::UnknownField {
            message: "M".into(),
            field: field.into(),
        }
    }

    #[test]
    fn encode_reports_an_undeclared_field_first_and_by_name_order() {
        let schema = Schema::new().with_message(
            MessageDescriptor::new("M")
                .with(FieldDescriptor::required(1, "need", FieldType::Uint64))
                .with(FieldDescriptor::optional(2, "one", FieldType::Uint64)),
        );
        for (format, encode, _) in FORMATS {
            // `need` is missing and `one` has two values, but the undeclared
            // field is what gets reported.
            let m = MessageValue::new("M")
                .push("one", Value::U64(1))
                .push("one", Value::U64(2))
                .set("bogus", Value::Bool(true));
            assert_eq!(encode(&schema, &m), Err(unknown_field("bogus")), "{format}");
            // Of two undeclared fields the first in name order is named,
            // whichever was inserted first.
            let m = MessageValue::new("M")
                .set("zz", Value::Bool(true))
                .set("need", Value::U64(1))
                .set("aa", Value::Bool(true));
            assert_eq!(encode(&schema, &m), Err(unknown_field("aa")), "{format}");
            let m = MessageValue::new("M").set("one", Value::U64(1));
            assert_eq!(
                encode(&schema, &m),
                Err(WireError::MissingRequired {
                    message: "M".into(),
                    field: "need".into()
                }),
                "{format}"
            );
        }
    }

    /// 70 `uint64` fields `f0`..`f69` with tags 1..=70, all optional but the
    /// last: wider than the slot table, so walked by name.
    fn wide_schema(last: Label) -> Schema {
        let mut desc = MessageDescriptor::new("M");
        for i in 0..70u32 {
            let label = if i == 69 { last } else { Label::Optional };
            desc = desc.with(FieldDescriptor::new(
                i + 1,
                &format!("f{i}"),
                label,
                FieldType::Uint64,
            ));
        }
        Schema::new().with_message(desc)
    }

    #[test]
    fn a_descriptor_wider_than_the_slot_table_still_checks_presence() {
        let mut full = MessageValue::new("M");
        // Reverse insertion order, so no slot equals its descriptor index.
        for i in (0..70u64).rev() {
            full.put(&format!("f{i}"), Value::U64(i));
        }
        let mut without_last = full.clone();
        without_last.clear_field("f69");
        let mut three_last = full.clone();
        three_last.push_mut("f69", Value::U64(70));
        three_last.push_mut("f69", Value::U64(71));
        let missing = WireError::MissingRequired {
            message: "M".into(),
            field: "f69".into(),
        };
        for (format, encode, decode) in FORMATS {
            let required = wide_schema(Label::Required);
            let bytes = encode(&required, &full).unwrap();
            assert_eq!(decode(&required, "M", &bytes).unwrap(), full, "{format}");
            assert_eq!(
                encode(&required, &without_last),
                Err(missing.clone()),
                "{format}"
            );
            let bytes = encode(&wide_schema(Label::Optional), &without_last).unwrap();
            assert_eq!(
                decode(&required, "M", &bytes),
                Err(missing.clone()),
                "{format}"
            );
            assert!(matches!(
                encode(&required, &three_last),
                Err(WireError::TooManyValues { .. })
            ));

            let repeated = wide_schema(Label::Repeated);
            let bytes = encode(&repeated, &three_last).unwrap();
            let back = decode(&repeated, "M", &bytes).unwrap();
            assert_eq!(back, three_last, "{format}");
            assert_eq!(back.get_all("f69").len(), 3, "{format}");
            // The same bytes read as a singular field: all kept, last wins.
            let back = decode(&required, "M", &bytes).unwrap();
            assert_eq!(back.get_u64("f69").unwrap(), 71, "{format}");
        }
    }

    #[test]
    fn a_singular_field_sent_twice_around_another_is_last_wins() {
        let schema = Schema::new().with_message(
            MessageDescriptor::new("M")
                .with(FieldDescriptor::required(1, "a", FieldType::Uint64))
                .with(FieldDescriptor::optional(2, "b", FieldType::Uint64)),
        );
        // a = 1, b = 5, a = 9 — the two `a`s are not a run.
        let proto_bytes = [0x08, 1, 0x10, 5, 0x08, 9];
        let thrift_bytes = [0x0a, 0, 1, 1, 0x0a, 0, 2, 5, 0x0a, 0, 1, 9, 0x00];
        for (bytes, (format, _, decode)) in [&proto_bytes[..], &thrift_bytes[..]]
            .into_iter()
            .zip(FORMATS)
        {
            let m = decode(&schema, "M", bytes).unwrap();
            assert_eq!(m.get_u64("a").unwrap(), 9, "{format}");
            assert_eq!(m.get_all("a"), [Value::U64(1), Value::U64(9)], "{format}");
            assert_eq!(m.get_u64("b").unwrap(), 5, "{format}");
            assert_eq!(m.field_count(), 2, "{format}");
        }
    }
}
