//! Version-specific formats of the mini HDFS: the fsimage checkpoint and the
//! DataNode heartbeat/block-report message.
//!
//! The format history re-creates the studied HDFS bugs:
//!
//! - **HDFS-1936**: release 0.20 stamps its fsimage with LayoutVersion 31 —
//!   a version that implies compression — but writes it uncompressed. Its
//!   own feature-unaware reader doesn't care; every later reader does.
//! - **HDFS-5988**: LayoutVersion ≥ 40 images carry inode ids. Release 2.0
//!   loads older images *without* populating the inode map, checkpoints in
//!   its own format (silently inode-less), and can never load the result.
//! - **HDFS-14726**: release 3.2 adds a `required committedTxnId` to the
//!   heartbeat — old heartbeats stop parsing.
//! - **HDFS-15624**: release 3.3 inserts `NVDIMM` mid-enum, shifting
//!   `ARCHIVE` from 2 to 3; a 3.2 DataNode's `ARCHIVE` report reads as
//!   `NVDIMM` on a 3.3 NameNode.

use dup_core::VersionId;
use dup_wire::{
    proto, EnumDescriptor, FieldDescriptor, FieldType, Frame, MessageDescriptor, MessageValue,
    Schema, Value, WireError,
};
use std::sync::{LazyLock, OnceLock};

/// Marker byte prefixed to compressed fsimage bodies.
pub const COMPRESSION_MARKER: u8 = 0xC0;
/// LayoutVersions at or above this are expected to be compressed (HDFS-1936).
pub const COMPRESSED_SINCE_LV: u32 = 24;
/// LayoutVersions at or above this carry inode ids (HDFS-5988).
pub const INODES_SINCE_LV: u32 = 40;

/// The LayoutVersion each release writes.
///
/// 0.20's value is the HDFS-1936 bug: it was bumped to 31 (a
/// compression-implying version) without implementing compression.
pub fn layout_version(v: VersionId) -> u32 {
    match (v.major, v.minor) {
        (0, 20) => 31,
        (1, 0) => 32,
        (2, 0) => 40,
        (2, 6) => 60,
        (2, 7) => 61,
        (2, 8) => 62,
        (3, 1) => 64,
        (3, 2) => 65,
        _ => 66, // 3.3
    }
}

/// One file in the namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Absolute path.
    pub path: String,
    /// Block ids (one block per file in the mini system).
    pub blocks: Vec<u64>,
    /// Inode id; 0 means "not populated" — the HDFS-5988 hole.
    pub inode: u64,
}

/// The NameNode namespace as checkpointed in an fsimage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Namespace {
    /// Files by declaration order.
    pub files: Vec<FileEntry>,
    /// Next inode id to assign.
    pub next_inode: u64,
    /// Next block id to assign.
    pub next_block: u64,
}

/// The fsimage body schema (all versions), built once.
fn fsimage_schema() -> &'static Schema {
    static SCHEMA: LazyLock<Schema> = LazyLock::new(build_fsimage_schema);
    &SCHEMA
}

fn build_fsimage_schema() -> Schema {
    Schema::new()
        .with_message(
            MessageDescriptor::new("FsImage")
                .with(FieldDescriptor::repeated(
                    1,
                    "files",
                    FieldType::Message("FileEntry".into()),
                ))
                .with(FieldDescriptor::required(
                    2,
                    "next_inode",
                    FieldType::Uint64,
                ))
                .with(FieldDescriptor::required(
                    3,
                    "next_block",
                    FieldType::Uint64,
                )),
        )
        .with_message(
            MessageDescriptor::new("FileEntry")
                .with(FieldDescriptor::required(1, "path", FieldType::Str))
                .with(FieldDescriptor::repeated(2, "blocks", FieldType::Uint64))
                .with(FieldDescriptor::optional(3, "inode", FieldType::Uint64)),
        )
}

/// Serializes `ns` as release `v` would: stamped with `v`'s LayoutVersion,
/// compressed iff the release actually implements compression, inodes
/// written only when populated.
pub fn encode_fsimage(v: VersionId, ns: &Namespace) -> Result<Vec<u8>, WireError> {
    let lv = layout_version(v);
    let schema = fsimage_schema();
    let mut img = MessageValue::new("FsImage")
        .set("next_inode", Value::U64(ns.next_inode.max(1)))
        .set("next_block", Value::U64(ns.next_block.max(1)));
    for f in &ns.files {
        let mut e = MessageValue::new("FileEntry").set("path", Value::Str(f.path.clone()));
        for b in &f.blocks {
            e.push_mut("blocks", Value::U64(*b));
        }
        if lv >= INODES_SINCE_LV && f.inode != 0 {
            e.put("inode", Value::U64(f.inode));
        }
        img.push_mut("files", Value::Msg(e));
    }
    let mut body = proto::encode(schema, &img)?;
    // HDFS-1936: 0.20 claims LayoutVersion 31 but never compresses.
    let implements_compression = lv >= COMPRESSED_SINCE_LV && !(v.major == 0 && v.minor == 20);
    if implements_compression {
        body.insert(0, COMPRESSION_MARKER);
    }
    Ok(Frame::new(lv, "fsimage", body).encode_to_vec())
}

/// Errors loading an fsimage; each variant is a distinct studied failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsImageError {
    /// The LayoutVersion promises compression the body lacks (HDFS-1936).
    ExpectedCompression {
        /// The offending LayoutVersion.
        layout: u32,
    },
    /// A LayoutVersion ≥ 40 image contains a file without an inode (HDFS-5988).
    MissingInode {
        /// The path with no inode.
        path: String,
    },
    /// Underlying wire error.
    Wire(WireError),
}

impl std::fmt::Display for FsImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsImageError::ExpectedCompression { layout } => {
                write!(
                    f,
                    "fsimage with LayoutVersion {layout} must be compressed but is not"
                )
            }
            FsImageError::MissingInode { path } => {
                write!(f, "fsimage corrupt: no inode found for file {path}")
            }
            FsImageError::Wire(e) => write!(f, "fsimage parse error: {e}"),
        }
    }
}

impl std::error::Error for FsImageError {}

/// A decoded fsimage plus its writer's LayoutVersion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedImage {
    /// The namespace.
    pub namespace: Namespace,
    /// LayoutVersion the image was written with.
    pub layout: u32,
}

/// Loads an fsimage as release `v` would.
///
/// Version-specific behaviour:
/// - 0.20's reader is feature-unaware and never expects compression;
/// - readers ≥ 1.0 enforce the compression feature implied by the layout;
/// - a reader with inode support loading an *older* (< 40) image either
///   skips the inode map (2.0 — the HDFS-5988 bug) or assigns fresh inodes
///   (2.6+ — the fix);
/// - a reader with inode support loading a ≥ 40 image requires every file to
///   carry an inode.
pub fn decode_fsimage(v: VersionId, bytes: &[u8]) -> Result<DecodedImage, FsImageError> {
    let frame = Frame::decode(bytes).map_err(FsImageError::Wire)?;
    let layout = frame.version;
    let own_lv = layout_version(v);
    let feature_aware = !(v.major == 0 && v.minor == 20);
    let mut body: &[u8] = &frame.body;
    if layout >= COMPRESSED_SINCE_LV && feature_aware {
        match body.first() {
            Some(&COMPRESSION_MARKER) => body = &body[1..],
            _ => return Err(FsImageError::ExpectedCompression { layout }),
        }
    } else if body.first() == Some(&COMPRESSION_MARKER) {
        body = &body[1..];
    }
    let schema = fsimage_schema();
    let img = proto::decode(schema, "FsImage", body).map_err(FsImageError::Wire)?;
    let mut ns = Namespace {
        files: Vec::new(),
        next_inode: img.get_u64("next_inode").map_err(FsImageError::Wire)?,
        next_block: img.get_u64("next_block").map_err(FsImageError::Wire)?,
    };
    for fv in img.get_all("files") {
        let Value::Msg(fv) = fv else { continue };
        let path = fv.get_str("path").map_err(FsImageError::Wire)?.to_string();
        let blocks = fv
            .get_all("blocks")
            .iter()
            .filter_map(|b| {
                if let Value::U64(v) = b {
                    Some(*v)
                } else {
                    None
                }
            })
            .collect();
        // Matched on `get`: `get_u64` builds an error, two `String`s, for an
        // inode that is merely absent.
        let inode = match fv.get("inode") {
            Some(Value::U64(inode)) => *inode,
            Some(Value::U32(inode)) => u64::from(*inode),
            _ => 0,
        };
        ns.files.push(FileEntry {
            path,
            blocks,
            inode,
        });
    }
    if own_lv >= INODES_SINCE_LV {
        if layout >= INODES_SINCE_LV {
            // Same-era image: inodes are mandatory.
            if let Some(f) = ns.files.iter().find(|f| f.inode == 0) {
                return Err(FsImageError::MissingInode {
                    path: f.path.clone(),
                });
            }
        } else if v.major == 2 && v.minor == 0 {
            // HDFS-5988: 2.0 "proceeds to load and parse the fsimage ...
            // except that it skips populating the inode map".
        } else {
            // The fix (2.6+): assign fresh inodes while converting.
            for f in &mut ns.files {
                if f.inode == 0 {
                    f.inode = ns.next_inode;
                    ns.next_inode += 1;
                }
            }
        }
    }
    Ok(DecodedImage {
        namespace: ns,
        layout,
    })
}

/// The StorageType enum as release `v` declares it.
///
/// 3.3 inserts `NVDIMM` in the middle (HDFS-15624).
pub fn storage_type_enum(v: VersionId) -> &'static EnumDescriptor {
    heartbeat_schema(v)
        .enum_desc("StorageType")
        .expect("every heartbeat schema declares StorageType")
}

fn build_storage_type_enum(v: VersionId) -> EnumDescriptor {
    if v.major > 3 || (v.major == 3 && v.minor >= 3) {
        EnumDescriptor::new(
            "StorageType",
            &[
                ("DISK", 0),
                ("SSD", 1),
                ("NVDIMM", 2),
                ("ARCHIVE", 3),
                ("PROVIDED", 4),
            ],
        )
    } else {
        EnumDescriptor::new(
            "StorageType",
            &[("DISK", 0), ("SSD", 1), ("ARCHIVE", 2), ("PROVIDED", 3)],
        )
    }
}

/// The ARCHIVE member's number in `v`'s enum.
pub fn archive_number(v: VersionId) -> i32 {
    storage_type_enum(v)
        .number_of("ARCHIVE")
        .expect("every release declares ARCHIVE")
}

/// The heartbeat/block-report schema of release `v`, built once per
/// distinct shape.
pub fn heartbeat_schema(v: VersionId) -> &'static Schema {
    static SHAPES: [OnceLock<Schema>; 4] = [const { OnceLock::new() }; 4];
    let shape = match (v.major, v.minor) {
        (..=2, _) => 0,
        (3, ..=1) => 1,
        (3, 2) => 2,
        _ => 3, // 3.3 and later
    };
    SHAPES[shape].get_or_init(|| build_heartbeat_schema(v))
}

fn build_heartbeat_schema(v: VersionId) -> Schema {
    let mut m = MessageDescriptor::new("Heartbeat")
        .with(FieldDescriptor::required(1, "node", FieldType::Uint32))
        .with(FieldDescriptor::repeated(2, "blocks", FieldType::Uint64));
    if v.major >= 3 {
        m = m.with(FieldDescriptor::repeated(
            3,
            "storages",
            FieldType::Enum("StorageType".into()),
        ));
    }
    if v.major > 3 || (v.major == 3 && v.minor >= 2) {
        // HDFS-14726: a *required* member added to a live message.
        m = m.with(FieldDescriptor::required(
            4,
            "committedTxnId",
            FieldType::Uint64,
        ));
    }
    Schema::new()
        .with_message(m)
        .with_enum(build_storage_type_enum(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> VersionId {
        s.parse().unwrap()
    }

    fn ns_with(inode: u64) -> Namespace {
        Namespace {
            files: vec![FileEntry {
                path: "/a".into(),
                blocks: vec![7],
                inode,
            }],
            next_inode: 5,
            next_block: 9,
        }
    }

    #[test]
    fn layout_versions_are_nondecreasing_from_1_0() {
        let vs = [
            "1.0.0", "2.0.0", "2.6.0", "2.7.0", "2.8.0", "3.1.0", "3.2.0", "3.3.0",
        ];
        for w in vs.windows(2) {
            assert!(layout_version(v(w[0])) < layout_version(v(w[1])));
        }
        // 0.20's bogus 31 is *within* the compressed range — the bug.
        assert!(layout_version(v("0.20.0")) >= COMPRESSED_SINCE_LV);
    }

    #[test]
    fn fsimage_roundtrip_same_version() {
        for ver in ["0.20.0", "1.0.0", "2.0.0", "3.3.0"] {
            let ver = v(ver);
            let bytes = encode_fsimage(ver, &ns_with(3)).unwrap();
            let back = decode_fsimage(ver, &bytes).unwrap();
            assert_eq!(back.namespace.files[0].path, "/a");
            assert_eq!(back.layout, layout_version(ver));
        }
    }

    #[test]
    fn hdfs_1936_uncompressed_image_with_compressed_layout() {
        let bytes = encode_fsimage(v("0.20.0"), &ns_with(0)).unwrap();
        // 0.20 can read its own image (feature-unaware reader)...
        assert!(decode_fsimage(v("0.20.0"), &bytes).is_ok());
        // ...but 1.0 trusts the LayoutVersion and demands compression.
        let err = decode_fsimage(v("1.0.0"), &bytes).unwrap_err();
        assert_eq!(err, FsImageError::ExpectedCompression { layout: 31 });
    }

    #[test]
    fn hdfs_5988_inode_skip_then_unreadable_checkpoint() {
        // 1.0 writes an image without inodes (layout 32 < 40).
        let old = encode_fsimage(v("1.0.0"), &ns_with(0)).unwrap();
        // 2.0 loads it but skips the inode map...
        let loaded = decode_fsimage(v("2.0.0"), &old).unwrap();
        assert_eq!(loaded.namespace.files[0].inode, 0);
        // ...checkpoints in its own format...
        let checkpoint = encode_fsimage(v("2.0.0"), &loaded.namespace).unwrap();
        // ...and can never load the result: all files are lost.
        let err = decode_fsimage(v("2.0.0"), &checkpoint).unwrap_err();
        assert_eq!(err, FsImageError::MissingInode { path: "/a".into() });
    }

    #[test]
    fn the_fix_assigns_fresh_inodes() {
        let old = encode_fsimage(v("1.0.0"), &ns_with(0)).unwrap();
        let loaded = decode_fsimage(v("2.6.0"), &old).unwrap();
        assert_ne!(loaded.namespace.files[0].inode, 0);
        let checkpoint = encode_fsimage(v("2.6.0"), &loaded.namespace).unwrap();
        assert!(decode_fsimage(v("2.6.0"), &checkpoint).is_ok());
    }

    #[test]
    fn hdfs_14726_required_txn_id_breaks_old_heartbeats() {
        let old = heartbeat_schema(v("3.1.0"));
        let hb = MessageValue::new("Heartbeat")
            .set("node", Value::U32(1))
            .push("storages", Value::Enum(0));
        let bytes = proto::encode(old, &hb).unwrap();
        let new = heartbeat_schema(v("3.2.0"));
        let err = proto::decode(new, "Heartbeat", &bytes).unwrap_err();
        // The text flows into failure signatures, and so into report digests.
        assert_eq!(
            err.to_string(),
            "message Heartbeat is missing required field 'committedTxnId'"
        );
        assert!(
            matches!(err, WireError::MissingRequired { field, .. } if field == "committedTxnId")
        );
    }

    #[test]
    fn static_schemas_equal_freshly_built_ones() {
        for v in crate::DfsSystem::release_history() {
            assert_eq!(*heartbeat_schema(v), build_heartbeat_schema(v), "{v}");
            assert_eq!(*storage_type_enum(v), build_storage_type_enum(v), "{v}");
        }
        assert_eq!(*fsimage_schema(), build_fsimage_schema());
    }

    #[test]
    fn hdfs_15624_archive_shifts_to_nvdimm() {
        assert_eq!(archive_number(v("3.2.0")), 2);
        assert_eq!(archive_number(v("3.3.0")), 3);
        // A 3.2 ARCHIVE report decodes on 3.3 — as NVDIMM.
        let old = heartbeat_schema(v("3.2.0"));
        let hb = MessageValue::new("Heartbeat")
            .set("node", Value::U32(1))
            .set("committedTxnId", Value::U64(1))
            .push("storages", Value::Enum(archive_number(v("3.2.0"))));
        let bytes = proto::encode(old, &hb).unwrap();
        let new = heartbeat_schema(v("3.3.0"));
        let decoded = proto::decode(new, "Heartbeat", &bytes).unwrap();
        let got = decoded.get_all("storages")[0].clone();
        assert_eq!(got, Value::Enum(2));
        assert_eq!(storage_type_enum(v("3.3.0")).name_of(2), Some("NVDIMM"));
        // The other direction fails outright: 3.3's PROVIDED (4) is past the
        // end of 3.2's enum. The text flows into failure signatures.
        let hb = MessageValue::new("Heartbeat")
            .set("node", Value::U32(1))
            .set("committedTxnId", Value::U64(1))
            .push("storages", Value::Enum(4));
        let bytes = proto::encode(new, &hb).unwrap();
        let err = proto::decode(old, "Heartbeat", &bytes).unwrap_err();
        assert_eq!(
            err.to_string(),
            "value 4 is not a member of enum StorageType"
        );
    }

    #[test]
    fn pre_3_heartbeats_have_no_storages() {
        let s = heartbeat_schema(v("2.7.0"));
        assert!(s
            .message("Heartbeat")
            .unwrap()
            .field_by_name("storages")
            .is_none());
    }
}
