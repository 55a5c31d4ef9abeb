//! Property tests over *generated* schemas: every value a schema admits
//! must round-trip through both wire formats, and decoding under a
//! different (cross-version) schema — or from garbage — must never panic.
//!
//! The checking logic lives in plain helper functions so it is exercised
//! both by the proptest properties and by the deterministic seeded sweeps
//! below (which double as quick regression tests).

use dup_wire::proto::{Reader, ValueRef, Writer};
use dup_wire::{
    proto, thrift, EnumDescriptor, FieldDescriptor, FieldType, Frame, Label, MessageDescriptor,
    MessageValue, Schema, Value, WireError, MAX_NESTING_DEPTH,
};
use proptest::prelude::*;

/// One generated field: a type choice (0..7) and a label choice (0..3).
/// Tags are assigned positionally (1-based), names derive from the tag.
type FieldSpec = (u8, u8);

fn field_type_of(choice: u8) -> FieldType {
    match choice % 7 {
        0 => FieldType::Int32,
        1 => FieldType::Int64,
        2 => FieldType::Uint32,
        3 => FieldType::Uint64,
        4 => FieldType::Bool,
        5 => FieldType::Str,
        _ => FieldType::BytesType,
    }
}

fn label_of(choice: u8) -> Label {
    match choice % 3 {
        0 => Label::Required,
        1 => Label::Optional,
        _ => Label::Repeated,
    }
}

/// Builds a one-message schema from generated field specs.
fn schema_from_spec(spec: &[FieldSpec]) -> Schema {
    let mut msg = MessageDescriptor::new("Gen");
    for (i, &(ty, label)) in spec.iter().enumerate() {
        let tag = i as u32 + 1;
        msg = msg.with(FieldDescriptor::new(
            tag,
            &format!("f{tag}"),
            label_of(label),
            field_type_of(ty),
        ));
    }
    Schema::new().with_message(msg)
}

/// A deterministic value for field `tag` of type `choice`, varied by `salt`.
fn value_for(choice: u8, salt: u64) -> Value {
    match choice % 7 {
        0 => Value::I32(salt as i32),
        1 => Value::I64(salt as i64),
        2 => Value::U32(salt as u32),
        3 => Value::U64(salt),
        4 => Value::Bool(salt.is_multiple_of(2)),
        5 => Value::Str(format!("s{}", salt % 1000)),
        _ => Value::Bytes(salt.to_le_bytes()[..(salt % 9) as usize].to_vec()),
    }
}

/// A message that populates every declared field of `spec` (one value for
/// required/optional, `salt % 3` extra values for repeated).
fn message_from_spec(spec: &[FieldSpec], salt: u64) -> MessageValue {
    let mut value = MessageValue::new("Gen");
    for (i, &(ty, label)) in spec.iter().enumerate() {
        let tag = i as u32 + 1;
        let name = format!("f{tag}");
        let per_field_salt = salt.wrapping_add(u64::from(tag) * 0x9E37);
        value.put(&name, value_for(ty, per_field_salt));
        if label_of(label) == Label::Repeated {
            for extra in 0..per_field_salt % 3 {
                value.push_mut(&name, value_for(ty, per_field_salt.wrapping_add(extra)));
            }
        }
    }
    value
}

/// Asserts encode→decode is the identity for `value` under `schema`, in
/// both wire formats. Returns an error message instead of panicking so the
/// proptest properties can report the failing spec.
fn check_roundtrip(schema: &Schema, value: &MessageValue) -> Result<(), String> {
    let bytes = proto::encode(schema, value).map_err(|e| format!("proto encode: {e}"))?;
    let back = proto::decode(schema, "Gen", &bytes).map_err(|e| format!("proto decode: {e}"))?;
    if &back != value {
        return Err(format!("proto roundtrip mismatch: {value:?} -> {back:?}"));
    }
    let bytes = thrift::encode(schema, value).map_err(|e| format!("thrift encode: {e}"))?;
    let back = thrift::decode(schema, "Gen", &bytes).map_err(|e| format!("thrift decode: {e}"))?;
    if &back != value {
        return Err(format!("thrift roundtrip mismatch: {value:?} -> {back:?}"));
    }
    Ok(())
}

/// Encodes under `writer` and decodes under `reader` (a *different* schema
/// generation), asserting only that decoding returns — Ok or Err — without
/// panicking. This is the cross-version path every upgrade exercises.
fn check_cross_decode(writer: &Schema, reader: &Schema, value: &MessageValue) {
    if let Ok(bytes) = proto::encode(writer, value) {
        let _ = proto::decode(reader, "Gen", &bytes);
        let _ = thrift::decode(reader, "Gen", &bytes);
    }
    if let Ok(bytes) = thrift::encode(writer, value) {
        let _ = thrift::decode(reader, "Gen", &bytes);
        let _ = proto::decode(reader, "Gen", &bytes);
    }
}

/// Decodes every truncation of `value`'s encoding, asserting only that no
/// prefix panics a decoder. This is the torn-tail shape a mid-crash append
/// stream leaves behind (`Durability::Torn` in the simulator): a recovering
/// node reads a *prefix* of a record it wrote and must surface an error,
/// not a crash.
fn check_torn_prefixes(schema: &Schema, value: &MessageValue) {
    if let Ok(bytes) = proto::encode(schema, value) {
        for cut in 0..bytes.len() {
            let _ = proto::decode(schema, "Gen", &bytes[..cut]);
            let _ = thrift::decode(schema, "Gen", &bytes[..cut]);
        }
    }
    if let Ok(bytes) = thrift::encode(schema, value) {
        for cut in 0..bytes.len() {
            let _ = thrift::decode(schema, "Gen", &bytes[..cut]);
        }
    }
}

/// Field names for the storage-model check: short ones (stored inline in
/// the value), one past the inline limit, and prefixes of each other.
const MODEL_NAMES: [&str; 6] = [
    "a",
    "ab",
    "b",
    "blocks",
    "committedTxnId",
    "a_field_name_longer_than_the_inline_limit",
];

/// Replays `ops` — `(name choice, operation choice, payload)` — against a
/// `MessageValue` and against the obvious model, a name-ordered map of
/// append-ordered lists, and checks every reader agrees with the model:
/// `fields()` iterates in name order, `get` is last-wins, `get_all` keeps
/// append order. Then rebuilds the value field by field in *reverse* name
/// order and checks `==` does not see the difference.
fn check_value_storage_model(ops: &[(u8, u8, u64)]) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut value = MessageValue::new("Model");
    let mut model: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
    for &(name, op, payload) in ops {
        let name = MODEL_NAMES[usize::from(name) % MODEL_NAMES.len()];
        let v = Value::U64(payload);
        match op % 4 {
            0 => {
                value.put(name, v.clone());
                model.insert(name, vec![v]);
            }
            1 | 2 => {
                value.push_mut(name, v.clone());
                model.entry(name).or_default().push(v);
            }
            _ => {
                let had = model.remove(name).is_some();
                if value.clear_field(name) != had {
                    return Err(format!("clear_field({name}) disagrees with the model"));
                }
            }
        }
    }
    let seen: Vec<(&str, &[Value])> = value.fields().collect();
    let expected: Vec<(&str, &[Value])> = model.iter().map(|(k, v)| (*k, v.as_slice())).collect();
    if seen != expected {
        return Err(format!("fields() {seen:?} != model {expected:?}"));
    }
    if value.field_count() != model.len() {
        return Err(format!(
            "field_count {} != {}",
            value.field_count(),
            model.len()
        ));
    }
    for name in MODEL_NAMES {
        let values = model.get(name).map(Vec::as_slice).unwrap_or(&[]);
        if value.get_all(name) != values
            || value.get(name) != values.last()
            || value.has(name) == values.is_empty()
        {
            return Err(format!("readers of '{name}' disagree with the model"));
        }
    }
    let mut reversed = MessageValue::new("Model");
    for (name, values) in model.iter().rev() {
        for v in values {
            reversed.push_mut(name, v.clone());
        }
    }
    if reversed != value {
        return Err(format!(
            "insertion order leaked into ==: {value:?} vs {reversed:?}"
        ));
    }
    Ok(())
}

/// Builds `message_from_spec(spec, salt)` again with its fields inserted in
/// the order `order` sorts them into, and checks that neither format sees
/// the difference: same bytes as the in-order build, and decoding them gives
/// a value equal to both builds.
fn check_insertion_order_is_invisible(
    spec: &[FieldSpec],
    salt: u64,
    order: &[u64],
) -> Result<(), String> {
    let schema = schema_from_spec(spec);
    let in_order = message_from_spec(spec, salt);
    let mut tags: Vec<usize> = (1..=spec.len()).collect();
    tags.sort_by_key(|tag| order.get(tag - 1));
    let names: Vec<String> = tags.iter().map(|tag| format!("f{tag}")).collect();
    let mut shuffled = MessageValue::new("Gen");
    for name in &names {
        for v in in_order.get_all(name) {
            shuffled.push_mut(name, v.clone());
        }
    }
    if shuffled != in_order {
        return Err(format!("{shuffled:?} != {in_order:?}"));
    }
    check_roundtrip(&schema, &shuffled)?;
    if proto::encode(&schema, &shuffled) != proto::encode(&schema, &in_order) {
        return Err(format!("proto bytes depend on insertion order {names:?}"));
    }
    if thrift::encode(&schema, &shuffled) != thrift::encode(&schema, &in_order) {
        return Err(format!("thrift bytes depend on insertion order {names:?}"));
    }
    Ok(())
}

/// A proto payload made of `extra` — `(tag bits above u32, low 32 tag bits,
/// value)` varint fields whose tags do not fit `u32` — followed by field 1
/// of `Gen { required uint64 f1 = 1 }` holding `own`: every oversized tag is
/// skipped, whatever declared tag its low bits spell.
fn check_oversized_tags_are_skipped(extra: &[(u32, u32, u64)], own: u64) -> Result<(), String> {
    let schema = schema_from_spec(&[(3, 0)]);
    let mut bytes = Vec::new();
    for &(high, low, value) in extra {
        // At most 61 bits, so that the key (tag and three wire-type bits)
        // fits a varint; at least 33.
        let tag = u64::from(high % (1 << 29)).max(1) << 32 | u64::from(low);
        dup_wire::encode_varint(tag << 3, &mut bytes);
        dup_wire::encode_varint(value, &mut bytes);
    }
    if proto::decode(&schema, "Gen", &bytes).is_ok() {
        return Err("an oversized tag satisfied the required field".to_string());
    }
    dup_wire::encode_varint(1 << 3, &mut bytes);
    dup_wire::encode_varint(own, &mut bytes);
    let back = proto::decode(&schema, "Gen", &bytes).map_err(|e| format!("decode: {e}"))?;
    if back.get_all("f1") != [Value::U64(own)] {
        return Err(format!("an oversized tag landed in f1: {back:?}"));
    }
    Ok(())
}

// ----- the streaming reader and writer against the tree codec -------------

/// `Gen` from `spec` plus a message around it with what `Gen` lacks: nested
/// and self-nested messages, an enum, `required` fields either side of them.
fn stream_schema(spec: &[FieldSpec]) -> Schema {
    let gen = schema_from_spec(spec).message("Gen").unwrap().clone();
    Schema::new()
        .with_message(gen)
        .with_message(
            MessageDescriptor::new("Outer")
                .with(FieldDescriptor::required(1, "head", FieldType::Uint64))
                .with(FieldDescriptor::repeated(
                    2,
                    "items",
                    FieldType::Message("Gen".into()),
                ))
                .with(FieldDescriptor::optional(
                    3,
                    "kind",
                    FieldType::Enum("Kind".into()),
                ))
                .with(FieldDescriptor::optional(
                    4,
                    "next",
                    FieldType::Message("Outer".into()),
                ))
                .with(FieldDescriptor::required(5, "tail", FieldType::Str)),
        )
        .with_enum(EnumDescriptor::new("Kind", &[("A", 0), ("B", 1), ("C", 5)]))
}

/// An `Outer` holding `salt % 3` generated `Gen`s, `levels` further `Outer`s
/// deep.
fn outer_from_spec(spec: &[FieldSpec], salt: u64, levels: u32) -> MessageValue {
    let mut outer = MessageValue::new("Outer").set("head", Value::U64(salt));
    for i in 0..salt % 3 {
        let item = message_from_spec(spec, salt.wrapping_add(i));
        outer.push_mut("items", Value::Msg(item));
    }
    if !salt.is_multiple_of(4) {
        outer.put("kind", Value::Enum([0, 1, 5][(salt % 3) as usize]));
    }
    if levels > 0 {
        let next = outer_from_spec(spec, salt.rotate_left(7), levels - 1);
        outer.put("next", Value::Msg(next));
    }
    outer.set("tail", Value::Str(format!("t{}", salt % 100)))
}

/// Rebuilds the value tree from a reader, descending into every nested
/// message.
fn tree_from_reader(mut reader: Reader<'_>, type_name: &str) -> Result<MessageValue, WireError> {
    let mut value = MessageValue::new(type_name);
    while let Some((field, v)) = reader.next()? {
        let v = match v {
            ValueRef::I32(v) => Value::I32(v),
            ValueRef::I64(v) => Value::I64(v),
            ValueRef::U32(v) => Value::U32(v),
            ValueRef::U64(v) => Value::U64(v),
            ValueRef::Bool(v) => Value::Bool(v),
            ValueRef::Str(v) => Value::Str(v.to_string()),
            ValueRef::Bytes(v) => Value::Bytes(v.to_vec()),
            ValueRef::Enum(v) => Value::Enum(v),
            ValueRef::Msg(inner) => {
                let FieldType::Message(inner_type) = &field.field_type else {
                    panic!("{} yielded a message", field.name);
                };
                Value::Msg(tree_from_reader(inner, inner_type)?)
            }
        };
        value.push_mut(&field.name, v);
    }
    Ok(value)
}

/// Reads `bytes` to the end *without* descending into nested messages.
fn drain_shallow(schema: &Schema, name: &str, bytes: &[u8]) -> Result<(), WireError> {
    let mut reader = Reader::new(schema, name, bytes)?;
    while reader.next()?.is_some() {}
    Ok(())
}

/// On any bytes at all: a reader drained without descending returns exactly
/// the error `proto::decode` returns, and one drained into a tree returns
/// exactly its value.
fn check_reader_agrees_with_decode(
    schema: &Schema,
    name: &str,
    bytes: &[u8],
) -> Result<(), String> {
    let decoded = proto::decode(schema, name, bytes);
    let shallow = drain_shallow(schema, name, bytes);
    if shallow.as_ref().err() != decoded.as_ref().err() {
        return Err(format!("shallow drain {shallow:?} vs decode {decoded:?}"));
    }
    let rebuilt = Reader::new(schema, name, bytes).and_then(|r| tree_from_reader(r, name));
    if rebuilt != decoded {
        return Err(format!("rebuilt {rebuilt:?} vs decode {decoded:?}"));
    }
    Ok(())
}

/// [`check_reader_agrees_with_decode`] on `value`'s encoding, on every
/// truncation of it, and on it with the bit `flip` picks inverted.
fn check_reader_on_damaged_payloads(
    schema: &Schema,
    value: &MessageValue,
    flip: u64,
) -> Result<(), String> {
    let name = value.type_name();
    let bytes = proto::encode(schema, value).map_err(|e| format!("encode: {e}"))?;
    check_reader_agrees_with_decode(schema, name, &bytes)?;
    for cut in 0..bytes.len() {
        check_reader_agrees_with_decode(schema, name, &bytes[..cut])
            .map_err(|e| format!("cut at {cut}: {e}"))?;
    }
    if !bytes.is_empty() {
        let mut flipped = bytes.clone();
        let bit = flip as usize % (bytes.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        check_reader_agrees_with_decode(schema, name, &flipped)
            .map_err(|e| format!("bit {bit} flipped: {e}"))?;
    }
    Ok(())
}

/// Feeds `value` to `writer` as a handler would: declared fields in
/// declaration order, whatever else the value carries after them.
fn write_fields(
    writer: &mut Writer<'_>,
    schema: &Schema,
    value: &MessageValue,
) -> Result<(), WireError> {
    let declared: Vec<&str> = schema
        .message(value.type_name())
        .map(|desc| desc.fields.iter().map(|f| f.name.as_str()).collect())
        .unwrap_or_default();
    let undeclared = value.fields().map(|(name, _)| name);
    let undeclared: Vec<&str> = undeclared.filter(|n| !declared.contains(n)).collect();
    for name in declared.into_iter().chain(undeclared) {
        for v in value.get_all(name) {
            let v = match v {
                Value::I32(v) => ValueRef::I32(*v),
                Value::I64(v) => ValueRef::I64(*v),
                Value::U32(v) => ValueRef::U32(*v),
                Value::U64(v) => ValueRef::U64(*v),
                Value::Bool(v) => ValueRef::Bool(*v),
                Value::Str(v) => ValueRef::Str(v),
                Value::Bytes(v) => ValueRef::Bytes(v),
                Value::Enum(v) => ValueRef::Enum(*v),
                Value::Msg(m) => {
                    writer.message(name, |inner| write_fields(inner, schema, m))?;
                    continue;
                }
            };
            writer.put(name, v)?;
        }
    }
    Ok(())
}

fn stream_encode(schema: &Schema, value: &MessageValue) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    let mut writer = Writer::new(schema, value.type_name(), &mut out)?;
    write_fields(&mut writer, schema, value)?;
    writer.finish()?;
    Ok(out)
}

/// Gives a `Gen` value of `spec` at most one defect, chosen by `defect`:
/// a `required` field missing, a singular field given a second value, a
/// value of the wrong type, an undeclared field — or, where `spec` has no
/// field the defect applies to, none.
fn damage_gen(spec: &[FieldSpec], value: &mut MessageValue, defect: u8, salt: u64) {
    let pick = |wanted: &dyn Fn(Label) -> bool| {
        let fits: Vec<usize> = (0..spec.len())
            .filter(|&i| wanted(label_of(spec[i].1)))
            .collect();
        (!fits.is_empty()).then(|| fits[salt as usize % fits.len()])
    };
    match defect % 4 {
        0 => {
            if let Some(i) = pick(&|label| label == Label::Required) {
                value.clear_field(&format!("f{}", i + 1));
            }
        }
        1 => {
            if let Some(i) = pick(&|label| label != Label::Repeated) {
                value.push_mut(&format!("f{}", i + 1), value_for(spec[i].0, salt));
            }
        }
        2 => {
            if let Some(i) = pick(&|_| true) {
                value.put(&format!("f{}", i + 1), value_for(spec[i].0 + 1, salt));
            }
        }
        _ => value.put("bogus", Value::Bool(true)),
    }
}

/// The writer, fed a value's fields in declaration order, yields
/// `proto::encode`'s bytes — and for a value with one defect its error.
fn check_writer_agrees_with_encode(
    spec: &[FieldSpec],
    salt: u64,
    defect: u8,
) -> Result<(), String> {
    let schema = stream_schema(spec);
    let agree = |value: &MessageValue| {
        let (streamed, tree) = (stream_encode(&schema, value), proto::encode(&schema, value));
        if streamed == tree {
            Ok(())
        } else {
            Err(format!("{value:?}: writer {streamed:?} vs encode {tree:?}"))
        }
    };
    agree(&message_from_spec(spec, salt))?;
    agree(&outer_from_spec(spec, salt, 2))?;

    // The defect in a top-level message, then in a nested one.
    let mut gen = message_from_spec(spec, salt);
    damage_gen(spec, &mut gen, defect, salt);
    agree(&gen)?;
    let mut outer = outer_from_spec(spec, salt, 0);
    outer.put("items", Value::Msg(gen));
    agree(&outer)?;
    // An enum number that is no member, a scalar where a message goes, a
    // message where a scalar goes.
    let sound = outer_from_spec(spec, salt, 1);
    agree(&sound.clone().set("kind", Value::Enum(3)))?;
    agree(&sound.clone().set("next", Value::U64(salt)))?;
    agree(
        &sound
            .clone()
            .set("head", Value::Msg(MessageValue::new("Gen"))),
    )?;
    let unknown = MessageValue::new("Nope").set("head", Value::U64(salt));
    agree(&unknown)
}

/// `levels` nested `N { optional N next = 1 }`s, written by the streaming
/// writer.
fn write_nested(writer: &mut Writer<'_>, levels: usize) -> Result<(), WireError> {
    if levels > 1 {
        writer.message("next", |inner| write_nested(inner, levels - 1))?;
    }
    Ok(())
}

#[test]
fn a_wide_descriptor_and_a_deep_nesting_go_through_reader_and_writer() {
    // 70 fields: wider than either side's 64-field presence mask.
    let wide = |last: Label| {
        let mut desc = MessageDescriptor::new("Gen");
        for i in 1..=70u32 {
            let label = if i == 70 { last } else { Label::Optional };
            let ty = field_type_of(i as u8);
            desc = desc.with(FieldDescriptor::new(i, &format!("f{i}"), label, ty));
        }
        Schema::new().with_message(desc)
    };
    let spec: Vec<FieldSpec> = (1..=70).map(|i| (i as u8, 1)).collect();
    let required = wide(Label::Required);
    let full = message_from_spec(&spec, 0xD1FF);
    let mut without_last = full.clone();
    without_last.clear_field("f70");
    for value in [&full, &without_last] {
        assert_eq!(
            stream_encode(&required, value),
            proto::encode(&required, value)
        );
        let bytes = proto::encode(&wide(Label::Optional), value).unwrap();
        check_reader_agrees_with_decode(&required, "Gen", &bytes).unwrap();
    }
    let missing = WireError::MissingRequired {
        message: "Gen".into(),
        field: "f70".into(),
    };
    assert_eq!(stream_encode(&required, &without_last), Err(missing));

    // 65 levels: one more than a decoder follows.
    let recursive = Schema::new().with_message(MessageDescriptor::new("N").with(
        FieldDescriptor::optional(1, "next", FieldType::Message("N".into())),
    ));
    for levels in [MAX_NESTING_DEPTH, MAX_NESTING_DEPTH + 1] {
        let mut bytes = Vec::new();
        let mut writer = Writer::new(&recursive, "N", &mut bytes).unwrap();
        write_nested(&mut writer, levels).unwrap();
        writer.finish().unwrap();
        check_reader_agrees_with_decode(&recursive, "N", &bytes).unwrap();
        let shallow = drain_shallow(&recursive, "N", &bytes);
        if levels > MAX_NESTING_DEPTH {
            assert_eq!(shallow, Err(WireError::NestingTooDeep));
        } else {
            assert_eq!(shallow, Ok(()));
            let decoded = proto::decode(&recursive, "N", &bytes).unwrap();
            assert_eq!(proto::encode(&recursive, &decoded).unwrap(), bytes);
        }
    }
}

#[test]
fn seeded_readers_agree_with_decode_on_sound_damaged_and_arbitrary_payloads() {
    let mut gen = Gen(0x57EA);
    for round in 0..120 {
        let spec = gen.spec((round % 9) as usize);
        let schema = stream_schema(&spec);
        let salt = gen.next();
        for value in [
            message_from_spec(&spec, salt),
            outer_from_spec(&spec, salt, (round % 3) as u32),
        ] {
            if let Err(e) = check_reader_on_damaged_payloads(&schema, &value, gen.next()) {
                panic!("round {round} spec {spec:?}: {e}");
            }
        }
        let len = (gen.next() % 64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| gen.next() as u8).collect();
        for name in ["Gen", "Outer", "Nope"] {
            if let Err(e) = check_reader_agrees_with_decode(&schema, name, &bytes) {
                panic!("round {round} spec {spec:?} garbage {bytes:?} as {name}: {e}");
            }
        }
    }
}

#[test]
fn seeded_writers_agree_with_encode_on_sound_and_defective_values() {
    let mut gen = Gen(0x3217E);
    for round in 0..300 {
        let spec = gen.spec((round % 9) as usize);
        if let Err(e) = check_writer_agrees_with_encode(&spec, gen.next(), round as u8) {
            panic!("round {round} spec {spec:?}: {e}");
        }
    }
}

/// Tiny deterministic generator (SplitMix64) for the seeded plain-test
/// sweeps, so the helper logic runs even where proptest is unavailable.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn spec(&mut self, fields: usize) -> Vec<FieldSpec> {
        (0..fields)
            .map(|_| ((self.next() % 7) as u8, (self.next() % 3) as u8))
            .collect()
    }
}

#[test]
fn seeded_specs_roundtrip_in_both_formats() {
    let mut gen = Gen(0xD5B7);
    for round in 0..200 {
        let spec = gen.spec((round % 9) as usize);
        let schema = schema_from_spec(&spec);
        let value = message_from_spec(&spec, gen.next());
        if let Err(e) = check_roundtrip(&schema, &value) {
            panic!("round {round} spec {spec:?}: {e}");
        }
    }
}

#[test]
fn seeded_value_storage_matches_the_model() {
    let mut gen = Gen(0x5702A6E);
    for round in 0..300 {
        let ops: Vec<(u8, u8, u64)> = (0..gen.next() % 24)
            .map(|_| (gen.next() as u8, gen.next() as u8, gen.next() % 5))
            .collect();
        if let Err(e) = check_value_storage_model(&ops) {
            panic!("round {round} ops {ops:?}: {e}");
        }
    }
}

#[test]
fn seeded_insertion_orders_are_invisible_to_the_codecs() {
    let mut gen = Gen(0x0DE2);
    for round in 0..200 {
        let spec = gen.spec((round % 9) as usize);
        let order: Vec<u64> = spec.iter().map(|_| gen.next()).collect();
        if let Err(e) = check_insertion_order_is_invisible(&spec, gen.next(), &order) {
            panic!("round {round} spec {spec:?}: {e}");
        }
    }
}

#[test]
fn seeded_oversized_tags_never_land_in_a_declared_field() {
    let mut gen = Gen(0x7A6);
    for round in 0..200 {
        let extra: Vec<(u32, u32, u64)> = (0..gen.next() % 4)
            .map(|i| (gen.next() as u32, (i % 2) as u32, gen.next()))
            .collect();
        if let Err(e) = check_oversized_tags_are_skipped(&extra, gen.next()) {
            panic!("round {round} extra {extra:?}: {e}");
        }
    }
}

#[test]
fn seeded_cross_version_decode_never_panics() {
    let mut gen = Gen(0xC0DE);
    for round in 0..200 {
        // Writer and reader disagree: the reader drops trailing fields and
        // re-types one surviving field — the classic upgrade skew.
        let writer_spec = gen.spec(2 + (round % 6) as usize);
        let mut reader_spec = writer_spec.clone();
        reader_spec.truncate(1 + reader_spec.len() / 2);
        reader_spec[0].0 = reader_spec[0].0.wrapping_add(1);
        let writer = schema_from_spec(&writer_spec);
        let reader = schema_from_spec(&reader_spec);
        let value = message_from_spec(&writer_spec, gen.next());
        check_cross_decode(&writer, &reader, &value);
        check_cross_decode(
            &reader,
            &writer,
            &message_from_spec(&reader_spec, gen.next()),
        );
    }
}

#[test]
fn seeded_garbage_decode_never_panics() {
    let mut gen = Gen(0xBAD5EED);
    let schema = schema_from_spec(&[(0, 0), (5, 1), (6, 2), (3, 2)]);
    for _ in 0..300 {
        let len = (gen.next() % 64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| gen.next() as u8).collect();
        let _ = proto::decode(&schema, "Gen", &bytes);
        let _ = thrift::decode(&schema, "Gen", &bytes);
        let _ = dup_wire::decode_varint(&bytes);
    }
}

#[test]
fn seeded_torn_prefixes_never_panic_any_decoder() {
    let mut gen = Gen(0x70A2);
    for round in 0..100 {
        let spec = gen.spec(1 + (round % 6) as usize);
        let schema = schema_from_spec(&spec);
        check_torn_prefixes(&schema, &message_from_spec(&spec, gen.next()));
        // Framed records tear too. Frames carry no body length, so a cut
        // past the header decodes to a body *prefix*; a cut inside the
        // header must be an error — either way, never a panic.
        let body: Vec<u8> = (0..gen.next() % 48).map(|_| gen.next() as u8).collect();
        let frame = Frame::new(gen.next() as u32, "rec", body);
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            if let Ok(torn) = Frame::decode(&bytes[..cut]) {
                assert_eq!(torn.version, frame.version, "round {round} cut {cut}");
                assert_eq!(torn.kind, frame.kind, "round {round} cut {cut}");
                assert!(
                    frame.body.starts_with(&torn.body),
                    "round {round} cut {cut}: torn body is not a prefix"
                );
            }
        }
    }
}

proptest! {
    /// Varint encoding is a bijection on u64 (and zigzag on i64).
    #[test]
    fn varint_roundtrip(v in any::<u64>(), s in any::<i64>()) {
        let mut buf = Vec::new();
        dup_wire::encode_varint(v, &mut buf);
        let (back, used) = dup_wire::decode_varint(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(dup_wire::zigzag_decode(dup_wire::zigzag_encode(s)), s);
    }

    /// Every value admitted by a generated schema round-trips through both
    /// wire formats.
    #[test]
    fn generated_schema_roundtrip(
        spec in proptest::collection::vec((0u8..7, 0u8..3), 0..9),
        salt in any::<u64>(),
    ) {
        let schema = schema_from_spec(&spec);
        let value = message_from_spec(&spec, salt);
        if let Err(e) = check_roundtrip(&schema, &value) {
            prop_assert!(false, "spec {:?}: {}", spec, e);
        }
    }

    /// `MessageValue` storage behaves as a name-ordered map of append-ordered
    /// lists, whatever order its fields were given in.
    #[test]
    fn value_storage_matches_the_model(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u64..5), 0..24),
    ) {
        if let Err(e) = check_value_storage_model(&ops) {
            prop_assert!(false, "ops {:?}: {}", ops, e);
        }
    }

    /// The order a value's fields were inserted in changes neither its
    /// encoding nor what decodes from it, in either format.
    #[test]
    fn insertion_order_is_invisible_to_the_codecs(
        spec in proptest::collection::vec((0u8..7, 0u8..3), 0..9),
        salt in any::<u64>(),
        order in proptest::collection::vec(any::<u64>(), 9..10),
    ) {
        if let Err(e) = check_insertion_order_is_invisible(&spec, salt, &order) {
            prop_assert!(false, "spec {:?}: {}", spec, e);
        }
    }

    /// No proto key above `u32::MAX << 3` lands in a declared field.
    #[test]
    fn oversized_tags_never_land_in_a_declared_field(
        extra in proptest::collection::vec((any::<u32>(), 0u32..3, any::<u64>()), 0..4),
        own in any::<u64>(),
    ) {
        if let Err(e) = check_oversized_tags_are_skipped(&extra, own) {
            prop_assert!(false, "extra {:?}: {}", extra, e);
        }
    }

    /// A streaming reader — drained shallowly for its error, deeply for its
    /// value — agrees with `proto::decode` on sound, truncated, bit-flipped
    /// and arbitrary payloads.
    #[test]
    fn readers_agree_with_decode(
        spec in proptest::collection::vec((0u8..7, 0u8..3), 0..9),
        salt in any::<u64>(),
        levels in 0u32..3,
        flip in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let schema = stream_schema(&spec);
        for value in [message_from_spec(&spec, salt), outer_from_spec(&spec, salt, levels)] {
            if let Err(e) = check_reader_on_damaged_payloads(&schema, &value, flip) {
                prop_assert!(false, "spec {:?}: {}", spec, e);
            }
        }
        for name in ["Gen", "Outer"] {
            if let Err(e) = check_reader_agrees_with_decode(&schema, name, &garbage) {
                prop_assert!(false, "spec {:?} as {}: {}", spec, name, e);
            }
        }
    }

    /// A streaming writer fed in declaration order agrees with
    /// `proto::encode`: same bytes, and for one defect the same error.
    #[test]
    fn writers_agree_with_encode(
        spec in proptest::collection::vec((0u8..7, 0u8..3), 0..9),
        salt in any::<u64>(),
        defect in any::<u8>(),
    ) {
        if let Err(e) = check_writer_agrees_with_encode(&spec, salt, defect) {
            prop_assert!(false, "spec {:?}: {}", spec, e);
        }
    }

    /// Cross-version decode (writer and reader schemas disagree) never
    /// panics, in either direction or format.
    #[test]
    fn cross_version_decode_is_panic_free(
        spec in proptest::collection::vec((0u8..7, 0u8..3), 2..9),
        retype in 0u8..7,
        salt in any::<u64>(),
    ) {
        let mut reader_spec = spec.clone();
        reader_spec.truncate(1 + reader_spec.len() / 2);
        reader_spec[0].0 = retype;
        let writer = schema_from_spec(&spec);
        let reader = schema_from_spec(&reader_spec);
        check_cross_decode(&writer, &reader, &message_from_spec(&spec, salt));
        check_cross_decode(&reader, &writer, &message_from_spec(&reader_spec, salt));
    }

    /// Arbitrary bytes never panic any decoder.
    #[test]
    fn garbage_decode_is_panic_free(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        spec in proptest::collection::vec((0u8..7, 0u8..3), 0..6),
    ) {
        let schema = schema_from_spec(&spec);
        let _ = proto::decode(&schema, "Gen", &bytes);
        let _ = thrift::decode(&schema, "Gen", &bytes);
        let _ = dup_wire::decode_varint(&bytes);
    }

    /// Every truncation of a valid encoding — the shape a `Durability::Torn`
    /// crash leaves at the end of an append stream — decodes to an error or
    /// a strict prefix, never a panic.
    #[test]
    fn torn_prefix_decode_is_panic_free(
        spec in proptest::collection::vec((0u8..7, 0u8..3), 1..7),
        salt in any::<u64>(),
        version in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let schema = schema_from_spec(&spec);
        check_torn_prefixes(&schema, &message_from_spec(&spec, salt));
        let frame = Frame::new(version, "rec", body);
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            if let Ok(torn) = Frame::decode(&bytes[..cut]) {
                prop_assert_eq!(torn.version, frame.version);
                prop_assert_eq!(&torn.kind, &frame.kind);
                prop_assert!(frame.body.starts_with(&torn.body), "cut {}", cut);
            }
        }
    }
}
