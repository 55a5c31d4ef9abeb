//! Criterion microbenchmarks of the wire-format substrate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dup_wire::{
    proto, thrift, EnumDescriptor, FieldDescriptor, FieldType, Frame, MessageDescriptor,
    MessageValue, Schema, Value,
};

fn schema() -> Schema {
    Schema::new()
        .with_message(
            MessageDescriptor::new("Heartbeat")
                .with(FieldDescriptor::required(1, "node", FieldType::Uint32))
                .with(FieldDescriptor::repeated(2, "blocks", FieldType::Uint64))
                .with(FieldDescriptor::repeated(
                    3,
                    "storages",
                    FieldType::Enum("StorageType".into()),
                ))
                .with(FieldDescriptor::required(
                    4,
                    "committedTxnId",
                    FieldType::Uint64,
                ))
                .with(FieldDescriptor::optional(5, "note", FieldType::Str)),
        )
        .with_enum(EnumDescriptor::new(
            "StorageType",
            &[("DISK", 0), ("SSD", 1), ("ARCHIVE", 2)],
        ))
}

fn heartbeat(blocks: usize) -> MessageValue {
    let mut m = MessageValue::new("Heartbeat")
        .set("node", Value::U32(7))
        .set("committedTxnId", Value::U64(123456))
        .set("note", Value::Str("steady-state heartbeat".into()));
    for i in 0..blocks {
        m.push_mut("blocks", Value::U64(1_000_000 + i as u64));
    }
    m.push_mut("storages", Value::Enum(0));
    m.push_mut("storages", Value::Enum(2));
    m
}

fn bench_wire(c: &mut Criterion) {
    let schema = schema();
    for blocks in [8usize, 128] {
        let value = heartbeat(blocks);
        let proto_bytes = proto::encode(&schema, &value).expect("encodes");
        let thrift_bytes = thrift::encode(&schema, &value).expect("encodes");

        let mut group = c.benchmark_group(format!("wire/{blocks}blocks"));
        group.throughput(Throughput::Bytes(proto_bytes.len() as u64));
        group.bench_function("proto_encode", |b| {
            b.iter(|| proto::encode(&schema, &value).expect("encodes"))
        });
        group.bench_function("proto_decode", |b| {
            b.iter(|| proto::decode(&schema, "Heartbeat", &proto_bytes).expect("decodes"))
        });
        group.bench_function("thrift_encode", |b| {
            b.iter(|| thrift::encode(&schema, &value).expect("encodes"))
        });
        group.bench_function("thrift_decode", |b| {
            b.iter(|| thrift::decode(&schema, "Heartbeat", &thrift_bytes).expect("decodes"))
        });
        group.bench_function("frame_roundtrip", |b| {
            b.iter_batched(
                || proto_bytes.clone(),
                |bytes| {
                    let encoded = Frame::new(12, "heartbeat", bytes).encode();
                    Frame::decode(&encoded).expect("decodes").version
                },
                BatchSize::SmallInput,
            )
        });
        group.finish();
    }
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
