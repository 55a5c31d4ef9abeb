//! Version-specific wire formats of the mini key-value store.
//!
//! Every release carries its own gossip, schema-file, and data-file formats;
//! the *differences* between consecutive formats are the studied Cassandra
//! upgrade bugs re-implemented byte-for-byte in mechanism:
//!
//! - 1.1 → 1.2 changes the gossip `schema_id` from a numeric id to a string
//!   UUID **under the same tag** — the CASSANDRA-4195 incompatibility;
//! - 1.2 → 2.0 restructures the schema payload (keyspace `name` moves to a
//!   new tag and gains a required `strategy`) — the pull-schema payload an
//!   old node cannot parse (CASSANDRA-6678's consequence);
//! - 2.0 → 2.1 starts framing data files; 2.1 ships **no legacy reader**, so
//!   rows written by 2.0 read back as corrupt (the CASSANDRA-16257 shape);
//! - 4.0 bumps the commit-log format to 40, which 3.x cannot read — the
//!   mechanism that blocks downgrade in CASSANDRA-15794.

use dup_core::VersionId;
use dup_idl::SchemaHistory;
use dup_wire::proto::{Reader, ValueRef, Writer};
use dup_wire::{Frame, WireError};

/// Messaging protocol identifiers per release (the CASSANDRA-5102 lesson:
/// these were allocated densely, leaving no room between 1.2 and 2.0).
///
/// 3.0 and 3.11 deliberately share messaging version 10, as the real
/// releases do — that sharing is what lets schema migrations flow between
/// them and makes the CASSANDRA-13441 storm possible.
pub fn proto_version(v: VersionId) -> u32 {
    match (v.major, v.minor) {
        (1, 1) => 5,
        (1, 2) => 6,
        (2, 0) => 7,
        (2, 1) => 8,
        (3, _) => 10,
        _ => 12, // 4.0
    }
}

/// A distinct identifier per *release* (unlike [`proto_version`], which two
/// releases may share). Used to stamp storage files with their writer.
pub fn release_id(v: VersionId) -> u32 {
    v.major * 10_000 + v.minor * 100 + v.patch
}

/// Recovers the messaging protocol version from a [`release_id`].
pub fn proto_from_release(release: u32) -> u32 {
    proto_version(VersionId::new(
        release / 10_000,
        (release / 100) % 100,
        release % 100,
    ))
}

/// Schema-file/pull format id: format A (`1`) before 2.0, format B (`2`) after.
pub fn schema_format(v: VersionId) -> u32 {
    if v < V2_0 {
        1
    } else {
        2
    }
}

/// Commit-log segment format id.
pub fn commitlog_format(v: VersionId) -> u32 {
    match v.major {
        1 => 12,
        2 => 21,
        3 => 31,
        _ => 40,
    }
}

/// Data-row file format: raw bytes before 2.1, framed from 2.1 on.
pub fn data_rows_framed(v: VersionId) -> bool {
    v >= V2_1
}

const V1_1: VersionId = VersionId::new(1, 1, 0);
const V1_2: VersionId = VersionId::new(1, 2, 0);
const V2_0: VersionId = VersionId::new(2, 0, 0);
const V2_1: VersionId = VersionId::new(2, 1, 0);

/// The gossip digest each release sends and reads.
pub static GOSSIP: SchemaHistory<VersionId, 3> = SchemaHistory::new([
    (V1_1, include_str!("../proto/gossip-1.1.0.proto")),
    (V1_2, include_str!("../proto/gossip-1.2.0.proto")),
    (V2_1, include_str!("../proto/gossip-2.1.0.proto")),
]);

/// The connection handshake (one shape in every release).
pub static HANDSHAKE: SchemaHistory<VersionId, 1> =
    SchemaHistory::new([(V1_1, include_str!("../proto/handshake-1.1.0.proto"))]);

/// The schema file and schema-pull payload: format A before 2.0, format B
/// from 2.0 on.
pub static SCHEMA_FILE: SchemaHistory<VersionId, 2> = SchemaHistory::new([
    (V1_1, include_str!("../proto/schema_file-1.1.0.proto")),
    (V2_0, include_str!("../proto/schema_file-2.0.0.proto")),
]);

/// `{:08x}-{:04x}` of a schema timestamp's hash and a protocol version,
/// rendered without a heap allocation: a digest carries one, and a storm
/// sends tens of thousands of digests.
struct SchemaUuid {
    /// 16 hex digits at most, a dash, 8 at most.
    text: [u8; 25],
    len: usize,
}

impl SchemaUuid {
    fn new(timestamp: u64, proto: u32) -> Self {
        let mut uuid = SchemaUuid {
            text: [0; 25],
            len: 0,
        };
        uuid.push_hex(timestamp.wrapping_mul(0x9e37), 8);
        uuid.text[uuid.len] = b'-';
        uuid.len += 1;
        uuid.push_hex(u64::from(proto), 4);
        uuid
    }

    /// Appends `value` in lower-case hex, zero-padded to `min_width` digits.
    fn push_hex(&mut self, value: u64, min_width: usize) {
        let significant = (16 - value.leading_zeros() as usize / 4).max(min_width);
        for digit in (0..significant).rev() {
            let nibble = (value >> (4 * digit) & 0xf) as usize;
            self.text[self.len] = b"0123456789abcdef"[nibble];
            self.len += 1;
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.text[..self.len]).expect("hex digits and a dash are ASCII")
    }
}

/// Appends the gossip digest release `v` sends for boot `generation` and
/// schema timestamp `schema_ts` to `out`.
pub fn write_gossip(
    v: VersionId,
    generation: u64,
    schema_ts: u64,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let proto = proto_version(v);
    let mut digest = Writer::new(GOSSIP.at(v), "GossipDigest", out)?;
    digest.put("generation", ValueRef::U64(generation))?;
    digest.put("schema_ts", ValueRef::U64(schema_ts))?;
    if v.major == 1 && v.minor == 1 {
        digest.put("schema_id", ValueRef::U64(schema_ts))?;
    } else {
        let uuid = SchemaUuid::new(schema_ts, proto);
        digest.put("schema_uuid", ValueRef::Str(uuid.as_str()))?;
    }
    if proto >= 8 {
        digest.put("proto_version", ValueRef::U32(proto))?;
    }
    digest.finish()
}

/// What a node reads out of a peer's gossip digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerDigest {
    /// The peer's schema timestamp.
    pub schema_ts: u64,
    /// The protocol version the peer announces, if its digest carries one.
    pub proto_version: Option<u32>,
}

/// Reads a gossip digest with release `v`'s descriptor.
pub fn decode_gossip(v: VersionId, body: &[u8]) -> Result<PeerDigest, WireError> {
    let mut fields = Reader::new(GOSSIP.at(v), "GossipDigest", body)?;
    let mut digest = PeerDigest {
        schema_ts: 0,
        proto_version: None,
    };
    while let Some((field, value)) = fields.next()? {
        match (field.name.as_str(), value) {
            ("schema_ts", ValueRef::U64(ts)) => digest.schema_ts = ts,
            ("proto_version", ValueRef::U32(pv)) => digest.proto_version = Some(pv),
            _ => {}
        }
    }
    Ok(digest)
}

/// Appends release `v`'s handshake to `out`.
pub fn write_handshake(v: VersionId, out: &mut Vec<u8>) -> Result<(), WireError> {
    let mut hs = Writer::new(HANDSHAKE.at(v), "Handshake", out)?;
    hs.put("proto_version", ValueRef::U32(proto_version(v)))?;
    hs.finish()
}

/// The protocol version a handshake announces, read as release `v` reads it.
pub fn decode_handshake(v: VersionId, body: &[u8]) -> Result<Option<u32>, WireError> {
    let mut hs = Reader::new(HANDSHAKE.at(v), "Handshake", body)?;
    let mut announced = None;
    while let Some((field, value)) = hs.next()? {
        if let ("proto_version", ValueRef::U32(pv)) = (field.name.as_str(), value) {
            announced = Some(pv);
        }
    }
    Ok(announced)
}

/// In-memory schema state shared by all versions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemaState {
    /// Monotonic schema timestamp (drives migrations).
    pub timestamp: u64,
    /// Keyspaces by name.
    pub keyspaces: Vec<KeyspaceDef>,
}

/// One keyspace definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyspaceDef {
    /// Keyspace name.
    pub name: String,
    /// Replication strategy class name.
    pub strategy: String,
    /// `true` if dropped (format-B tombstone).
    pub dropped: bool,
    /// Tables: `(name, compact_storage)`.
    pub tables: Vec<(String, bool)>,
}

impl SchemaState {
    /// Looks up a keyspace.
    pub fn keyspace(&self, name: &str) -> Option<&KeyspaceDef> {
        self.keyspaces.iter().find(|k| k.name == name)
    }

    /// Looks up a keyspace mutably.
    pub fn keyspace_mut(&mut self, name: &str) -> Option<&mut KeyspaceDef> {
        self.keyspaces.iter_mut().find(|k| k.name == name)
    }

    /// Returns `true` if `ks.table` exists and is not dropped.
    pub fn has_table(&self, ks: &str, table: &str) -> bool {
        self.keyspace(ks)
            .is_some_and(|k| !k.dropped && k.tables.iter().any(|(t, _)| t == table))
    }
}

/// Serializes `state` in `v`'s schema-file format, wrapped in a [`Frame`]
/// whose version field records the *writer's* protocol version.
pub fn encode_schema_state(v: VersionId, state: &SchemaState) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(64);
    write_schema_state(v, state, &mut out)?;
    Ok(out)
}

/// Appends what [`encode_schema_state`] returns to `out`.
pub fn write_schema_state(
    v: VersionId,
    state: &SchemaState,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let fmt = schema_format(v);
    Frame::header(release_id(v), "schema_file", out);
    let mut file = Writer::new(SCHEMA_FILE.at(v), "SchemaFile", out)?;
    file.put("timestamp", ValueRef::U64(state.timestamp))?;
    for ks in &state.keyspaces {
        // Format A has nowhere to put tombstones; dropped keyspaces are
        // simply omitted (which is why 1.x never tripped the tombstone bug).
        if ks.dropped && fmt == 1 {
            continue;
        }
        file.message("keyspaces", |kv| {
            if fmt == 2 {
                kv.put("strategy", ValueRef::Str(&ks.strategy))?;
            }
            kv.put("name", ValueRef::Str(&ks.name))?;
            if fmt == 2 && ks.dropped {
                kv.put("dropped", ValueRef::Bool(true))?;
            }
            for (t, compact) in &ks.tables {
                kv.message("tables", |tv| {
                    tv.put("name", ValueRef::Str(t))?;
                    if fmt == 2 && *compact {
                        tv.put("compact", ValueRef::Bool(true))?;
                    }
                    Ok(())
                })?;
            }
            Ok(())
        })?;
    }
    file.finish()
}

/// Result of decoding a schema file: the state plus the writer's release
/// (so a reader can tell it was written by an older version).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedSchema {
    /// The decoded state.
    pub state: SchemaState,
    /// [`release_id`] of the writer.
    pub writer_release: u32,
}

impl DecodedSchema {
    /// Messaging protocol version of the writer.
    pub fn writer_proto(&self) -> u32 {
        proto_from_release(self.writer_release)
    }
}

/// Decodes a schema file with `v`'s own format, falling back to the legacy
/// format-A reader if `v` has one (2.0+ ships a converter; 1.x does not
/// understand format B and errors out).
pub fn decode_schema_state(v: VersionId, bytes: &[u8]) -> Result<DecodedSchema, WireError> {
    let frame = Frame::decode(bytes)?;
    let writer_release = frame.version;
    // Releases before 2.0.0 wrote format A; 2.0.0 and later wrote format B.
    // A format-A file is read with format A's descriptor: 2.0+'s legacy
    // converter, which defaults the strategy. Otherwise `v` reads with its
    // own, so a format-A reader fed format-B bytes fails the way 1.x
    // actually failed — no version check, just a parse error (paper §4.1.1,
    // "missing deserialization functions").
    let schema = if writer_release < release_id(V2_0) {
        SCHEMA_FILE.at(V1_1)
    } else {
        SCHEMA_FILE.at(v)
    };
    let mut file = Reader::new(schema, "SchemaFile", &frame.body)?;
    let mut state = SchemaState::default();
    while let Some((field, value)) = file.next()? {
        match (field.name.as_str(), value) {
            ("timestamp", ValueRef::U64(timestamp)) => state.timestamp = timestamp,
            ("keyspaces", ValueRef::Msg(ks)) => state.keyspaces.push(read_keyspace(ks)?),
            _ => {}
        }
    }
    Ok(DecodedSchema {
        state,
        writer_release,
    })
}

fn read_keyspace(mut ks: Reader<'_>) -> Result<KeyspaceDef, WireError> {
    let (mut name, mut strategy, mut dropped) = ("", "SimpleStrategy", false);
    let mut tables = Vec::new();
    while let Some((field, value)) = ks.next()? {
        match (field.name.as_str(), value) {
            ("name", ValueRef::Str(v)) => name = v,
            ("strategy", ValueRef::Str(v)) => strategy = v,
            ("dropped", ValueRef::Bool(v)) => dropped = v,
            ("tables", ValueRef::Msg(table)) => tables.push(read_table(table)?),
            _ => {}
        }
    }
    Ok(KeyspaceDef {
        name: name.to_string(),
        strategy: strategy.to_string(),
        dropped,
        tables,
    })
}

fn read_table(mut table: Reader<'_>) -> Result<(String, bool), WireError> {
    let (mut name, mut compact) = ("", false);
    while let Some((field, value)) = table.next()? {
        match (field.name.as_str(), value) {
            ("name", ValueRef::Str(v)) => name = v,
            ("compact", ValueRef::Bool(v)) => compact = v,
            _ => {}
        }
    }
    Ok((name.to_string(), compact))
}

/// Encodes a data row in `v`'s format (raw before 2.1, framed after).
pub fn encode_row(v: VersionId, value: &str) -> Vec<u8> {
    if data_rows_framed(v) {
        Frame::new(proto_version(v), "row", value.as_bytes()).encode_to_vec()
    } else {
        value.as_bytes().to_vec()
    }
}

/// Decodes a data row with `v`'s reader.
///
/// 2.1+ **requires** the frame — it shipped without a raw-row fallback, so
/// rows written by ≤2.0 fail to read after the upgrade.
pub fn decode_row(v: VersionId, bytes: &[u8]) -> Result<String, WireError> {
    if data_rows_framed(v) {
        let frame = Frame::decode(bytes)?;
        Ok(String::from_utf8_lossy(&frame.body).into_owned())
    } else {
        Ok(String::from_utf8_lossy(bytes).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_wire::{proto, MessageValue, Value};

    /// The schema file as it was built before the streaming writer: a value
    /// tree handed to `proto::encode`. Kept as the oracle for the bytes.
    fn tree_schema_state(v: VersionId, state: &SchemaState) -> Vec<u8> {
        let fmt = schema_format(v);
        let mut file =
            MessageValue::new("SchemaFile").set("timestamp", Value::U64(state.timestamp));
        for ks in &state.keyspaces {
            if ks.dropped && fmt == 1 {
                continue;
            }
            let mut kv = MessageValue::new("Keyspace").set("name", Value::Str(ks.name.clone()));
            if fmt == 2 {
                kv.put("strategy", Value::Str(ks.strategy.clone()));
                if ks.dropped {
                    kv.put("dropped", Value::Bool(true));
                }
            }
            for (t, compact) in &ks.tables {
                let mut tv = MessageValue::new("Table").set("name", Value::Str(t.clone()));
                if fmt == 2 && *compact {
                    tv.put("compact", Value::Bool(true));
                }
                kv.push_mut("tables", Value::Msg(tv));
            }
            file.push_mut("keyspaces", Value::Msg(kv));
        }
        let body = proto::encode(SCHEMA_FILE.at(v), &file).unwrap();
        Frame::new(release_id(v), "schema_file", body).encode_to_vec()
    }

    /// The gossip digest as it was built before the streaming writer: a
    /// value tree with a `format!`-ed uuid. Kept as the oracle for the bytes.
    fn tree_gossip(v: VersionId, generation: u64, schema_ts: u64) -> Vec<u8> {
        let proto = proto_version(v);
        let mut digest = MessageValue::new("GossipDigest")
            .set("generation", Value::U64(generation))
            .set("schema_ts", Value::U64(schema_ts));
        if v.major == 1 && v.minor == 1 {
            digest.put("schema_id", Value::U64(schema_ts));
        } else {
            let uuid = format!("{:08x}-{:04x}", schema_ts.wrapping_mul(0x9e37), proto);
            digest.put("schema_uuid", Value::Str(uuid));
        }
        if proto >= 8 {
            digest.put("proto_version", Value::U32(proto));
        }
        proto::encode(GOSSIP.at(v), &digest).unwrap()
    }

    /// Timestamps whose hash is short, fills eight digits, and wraps.
    const TIMESTAMPS: [u64; 7] = [0, 1, 9, 0x1_0000, 1 << 40, u64::MAX / 3, u64::MAX];

    #[test]
    fn schema_uuid_renders_what_format_did() {
        for ts in TIMESTAMPS {
            for proto in [0, 5, 12, 0xffff, 0x1_0000, u32::MAX] {
                assert_eq!(
                    SchemaUuid::new(ts, proto).as_str(),
                    format!("{:08x}-{:04x}", ts.wrapping_mul(0x9e37), proto)
                );
            }
        }
    }

    #[test]
    fn streamed_gossip_and_handshake_equal_the_tree_encoders() {
        for v in crate::KvStoreSystem::release_history() {
            let proto = proto_version(v);
            for (generation, ts) in TIMESTAMPS.into_iter().enumerate() {
                let mut digest = Vec::new();
                write_gossip(v, generation as u64, ts, &mut digest).unwrap();
                assert_eq!(digest, tree_gossip(v, generation as u64, ts), "{v}");
                // It reads back: a release announces its version from 2.1 on.
                let read = PeerDigest {
                    schema_ts: ts,
                    proto_version: (proto >= 8).then_some(proto),
                };
                assert_eq!(decode_gossip(v, &digest), Ok(read), "{v}");
            }
            let mut hs = Vec::new();
            write_handshake(v, &mut hs).unwrap();
            let tree = MessageValue::new("Handshake").set("proto_version", Value::U32(proto));
            assert_eq!(hs, proto::encode(HANDSHAKE.at(v), &tree).unwrap());
            assert_eq!(decode_handshake(v, &hs), Ok(Some(proto)));
        }
    }

    #[test]
    fn streamed_schema_files_equal_the_tree_encoders() {
        let mut busy = sample_state();
        busy.timestamp = u64::MAX;
        busy.keyspaces[0].tables.push(("compacted".into(), true));
        busy.keyspaces.push(KeyspaceDef {
            name: "ghost".into(),
            strategy: "OldNetworkTopologyStrategy".into(),
            dropped: true,
            tables: vec![],
        });
        busy.keyspaces.push(KeyspaceDef {
            name: "k".repeat(200),
            strategy: "NetworkTopologyStrategy".into(),
            dropped: false,
            tables: (0..40).map(|t| (format!("t{t}"), t % 3 == 0)).collect(),
        });
        for v in crate::KvStoreSystem::release_history() {
            for state in [SchemaState::default(), sample_state(), busy.clone()] {
                let streamed = encode_schema_state(v, &state).unwrap();
                assert_eq!(streamed, tree_schema_state(v, &state), "release {v}");
                // Appended behind something else, it is the same bytes.
                let mut out = b"push".to_vec();
                write_schema_state(v, &state, &mut out).unwrap();
                assert_eq!(out[4..], streamed[..], "release {v}");
            }
        }
    }

    const V11: VersionId = VersionId::new(1, 1, 0);
    const V12: VersionId = VersionId::new(1, 2, 0);
    const V20: VersionId = VersionId::new(2, 0, 0);
    const V21: VersionId = VersionId::new(2, 1, 0);
    const V40: VersionId = VersionId::new(4, 0, 0);

    fn sample_state() -> SchemaState {
        SchemaState {
            timestamp: 9,
            keyspaces: vec![KeyspaceDef {
                name: "stress".into(),
                strategy: "SimpleStrategy".into(),
                dropped: false,
                tables: vec![("standard1".into(), false)],
            }],
        }
    }

    #[test]
    fn proto_versions_are_nondecreasing_and_3x_shares_10() {
        let vs = [
            V11,
            V12,
            V20,
            V21,
            VersionId::new(3, 0, 0),
            VersionId::new(3, 11, 0),
            V40,
        ];
        for w in vs.windows(2) {
            assert!(
                proto_version(w[0]) <= proto_version(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        // As in real Cassandra, 3.0 and 3.11 share a messaging version.
        assert_eq!(
            proto_version(VersionId::new(3, 0, 0)),
            proto_version(VersionId::new(3, 11, 0))
        );
        // Release ids are strictly distinct.
        let mut ids: Vec<u32> = vs.iter().map(|v| release_id(*v)).collect();
        ids.dedup();
        assert_eq!(ids.len(), vs.len());
        assert_eq!(proto_from_release(release_id(V21)), 8);
    }

    #[test]
    fn gossip_digest_incompatible_between_1_1_and_1_2() {
        // CASSANDRA-4195: 1.2 writes a string UUID at tag 3; 1.1 expects a
        // varint there and fails with a wire-type mismatch.
        let new = GOSSIP.at(V12);
        let digest = MessageValue::new("GossipDigest")
            .set("generation", Value::U64(1))
            .set("schema_ts", Value::U64(5))
            .set("schema_uuid", Value::Str("3f0c-11".into()));
        let bytes = proto::encode(new, &digest).unwrap();
        let old = GOSSIP.at(V11);
        let err = proto::decode(old, "GossipDigest", &bytes).unwrap_err();
        assert!(matches!(err, WireError::TypeMismatch { .. }));
        // A 1.1 handler reading a 1.2 node's digest meets the same error.
        let mut sent = Vec::new();
        write_gossip(V12, 1, 5, &mut sent).unwrap();
        assert_eq!(decode_gossip(V11, &sent), Err(err.clone()));
        // The text flows into failure signatures, and so into report digests.
        assert_eq!(
            err.to_string(),
            "type mismatch decoding GossipDigest.schema_id: expected wire type 0, found 2"
        );
    }

    #[test]
    fn gossip_carries_version_only_from_2_1() {
        assert!(GOSSIP
            .at(V20)
            .message("GossipDigest")
            .unwrap()
            .field_by_name("proto_version")
            .is_none());
        assert!(GOSSIP
            .at(V21)
            .message("GossipDigest")
            .unwrap()
            .field_by_name("proto_version")
            .is_some());
    }

    #[test]
    fn schema_file_roundtrip_same_version() {
        for v in [V11, V20, V40] {
            let bytes = encode_schema_state(v, &sample_state()).unwrap();
            let back = decode_schema_state(v, &bytes).unwrap();
            assert_eq!(back.state, sample_state(), "version {v}");
            assert_eq!(back.writer_release, release_id(v));
            assert_eq!(back.writer_proto(), proto_version(v));
        }
    }

    #[test]
    fn format_b_reader_converts_format_a() {
        let bytes = encode_schema_state(V12, &sample_state()).unwrap();
        let back = decode_schema_state(V20, &bytes).unwrap();
        assert_eq!(back.state.keyspaces[0].strategy, "SimpleStrategy");
        assert_eq!(back.writer_release, 10_200);
    }

    #[test]
    fn format_a_reader_chokes_on_format_b() {
        // The 1.2-node-pulls-2.0-schema failure path (CASSANDRA-6678 aftermath).
        let bytes = encode_schema_state(V20, &sample_state()).unwrap();
        let err = decode_schema_state(V12, &bytes).unwrap_err();
        // `name` moved to tag 2; tag 1 is now the strategy string, so the
        // old reader misreads the strategy as the name and then tries to
        // parse the name string as a nested Table message — a garbage parse.
        assert!(
            matches!(
                err,
                WireError::TypeMismatch { .. }
                    | WireError::MissingRequired { .. }
                    | WireError::BadWireType { .. }
                    | WireError::Truncated
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn compact_and_tombstone_survive_format_b() {
        let mut state = sample_state();
        state.keyspaces[0].tables[0].1 = true;
        state.keyspaces.push(KeyspaceDef {
            name: "ghost".into(),
            strategy: "SimpleStrategy".into(),
            dropped: true,
            tables: vec![],
        });
        let bytes = encode_schema_state(V40, &state).unwrap();
        let back = decode_schema_state(V40, &bytes).unwrap().state;
        assert!(back.keyspaces[0].tables[0].1);
        assert!(back.keyspace("ghost").unwrap().dropped);
    }

    #[test]
    fn dropped_keyspaces_are_omitted_by_format_a_writers() {
        let mut state = sample_state();
        state.keyspaces[0].dropped = true;
        let bytes = encode_schema_state(V11, &state).unwrap();
        let back = decode_schema_state(V11, &bytes).unwrap().state;
        assert!(back.keyspaces.is_empty());
    }

    #[test]
    fn row_format_breaks_at_2_1() {
        // 2.0 writes raw rows; 2.1 requires frames (CASSANDRA-16257 shape).
        let raw = encode_row(V20, "hello");
        assert!(decode_row(V21, &raw).is_err());
        assert_eq!(decode_row(V20, &raw).unwrap(), "hello");
        let framed = encode_row(V21, "hello");
        assert_eq!(decode_row(V21, &framed).unwrap(), "hello");
        assert_eq!(decode_row(V40, &framed).unwrap(), "hello");
    }

    #[test]
    fn commitlog_formats() {
        assert_eq!(commitlog_format(V12), 12);
        assert_eq!(commitlog_format(V21), 21);
        assert_eq!(commitlog_format(VersionId::new(3, 11, 0)), 31);
        assert_eq!(commitlog_format(V40), 40);
    }

    #[test]
    fn schema_state_lookups() {
        let s = sample_state();
        assert!(s.has_table("stress", "standard1"));
        assert!(!s.has_table("stress", "other"));
        assert!(!s.has_table("nope", "standard1"));
    }
}
