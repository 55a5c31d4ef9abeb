//! Property tests over *generated* schemas: every value a schema admits
//! must round-trip through both wire formats, and decoding under a
//! different (cross-version) schema — or from garbage — must never panic.
//!
//! The checking logic lives in plain helper functions so it is exercised
//! both by the proptest properties and by the deterministic seeded sweeps
//! below (which double as quick regression tests).

use dup_wire::{
    proto, thrift, FieldDescriptor, FieldType, Frame, Label, MessageDescriptor, MessageValue,
    Schema, Value,
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
