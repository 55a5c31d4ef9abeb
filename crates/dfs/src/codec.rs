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
use dup_idl::SchemaHistory;
use dup_wire::proto::{Reader, ValueRef, Writer};
use dup_wire::{Frame, WireError};

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

/// The fsimage checkpoint body (one shape in every release).
pub static FSIMAGE: SchemaHistory<VersionId, 1> =
    SchemaHistory::new([(V0_20, include_str!("../proto/fsimage-0.20.0.proto"))]);

/// The DataNode heartbeat and block report, with the StorageType enum it
/// carries.
pub static HEARTBEAT: SchemaHistory<VersionId, 4> = SchemaHistory::new([
    (V0_20, include_str!("../proto/heartbeat-0.20.0.proto")),
    (V3_0, include_str!("../proto/heartbeat-3.1.0.proto")),
    (V3_2, include_str!("../proto/heartbeat-3.2.0.proto")),
    (V3_3, include_str!("../proto/heartbeat-3.3.0.proto")),
]);

const V0_20: VersionId = VersionId::new(0, 20, 0);
const V3_0: VersionId = VersionId::new(3, 0, 0);
const V3_2: VersionId = VersionId::new(3, 2, 0);
const V3_3: VersionId = VersionId::new(3, 3, 0);

/// Serializes `ns` as release `v` would: stamped with `v`'s LayoutVersion,
/// compressed iff the release actually implements compression, inodes
/// written only when populated.
pub fn encode_fsimage(v: VersionId, ns: &Namespace) -> Result<Vec<u8>, WireError> {
    let lv = layout_version(v);
    let mut out = Vec::with_capacity(64);
    Frame::header(lv, "fsimage", &mut out);
    // HDFS-1936: 0.20 claims LayoutVersion 31 but never compresses.
    let implements_compression = lv >= COMPRESSED_SINCE_LV && !(v.major == 0 && v.minor == 20);
    if implements_compression {
        out.push(COMPRESSION_MARKER);
    }
    let mut img = Writer::new(FSIMAGE.at(v), "FsImage", &mut out)?;
    for f in &ns.files {
        img.message("files", |e| {
            e.put("path", ValueRef::Str(&f.path))?;
            for b in &f.blocks {
                e.put("blocks", ValueRef::U64(*b))?;
            }
            if lv >= INODES_SINCE_LV && f.inode != 0 {
                e.put("inode", ValueRef::U64(f.inode))?;
            }
            Ok(())
        })?;
    }
    img.put("next_inode", ValueRef::U64(ns.next_inode.max(1)))?;
    img.put("next_block", ValueRef::U64(ns.next_block.max(1)))?;
    img.finish()?;
    Ok(out)
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
    let mut ns = read_fsimage(v, body).map_err(FsImageError::Wire)?;
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

fn read_fsimage(v: VersionId, body: &[u8]) -> Result<Namespace, WireError> {
    let mut img = Reader::new(FSIMAGE.at(v), "FsImage", body)?;
    let mut ns = Namespace::default();
    while let Some((field, value)) = img.next()? {
        match (field.name.as_str(), value) {
            ("files", ValueRef::Msg(file)) => ns.files.push(read_file_entry(file)?),
            ("next_inode", ValueRef::U64(next)) => ns.next_inode = next,
            ("next_block", ValueRef::U64(next)) => ns.next_block = next,
            _ => {}
        }
    }
    Ok(ns)
}

fn read_file_entry(mut file: Reader<'_>) -> Result<FileEntry, WireError> {
    // Inode 0 is "not populated": what an image without the field reads as.
    let (mut path, mut blocks, mut inode) = ("", Vec::new(), 0);
    while let Some((field, value)) = file.next()? {
        match (field.name.as_str(), value) {
            ("path", ValueRef::Str(v)) => path = v,
            ("blocks", ValueRef::U64(block)) => blocks.push(block),
            ("inode", ValueRef::U64(v)) => inode = v,
            _ => {}
        }
    }
    Ok(FileEntry {
        path: path.to_string(),
        blocks,
        inode,
    })
}

/// The ARCHIVE member's number in `v`'s StorageType enum.
pub fn archive_number(v: VersionId) -> i32 {
    HEARTBEAT
        .at(v)
        .enum_desc("StorageType")
        .and_then(|storage| storage.number_of("ARCHIVE"))
        .expect("every release declares StorageType.ARCHIVE")
}

/// Appends the heartbeat DataNode `node` of release `v` sends — its block
/// report, its storage types, and from 3.2 its `committed_txn` — to `out`.
pub fn write_heartbeat(
    v: VersionId,
    node: u32,
    blocks: impl Iterator<Item = u64>,
    committed_txn: u64,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let mut hb = Writer::new(HEARTBEAT.at(v), "Heartbeat", out)?;
    hb.put("node", ValueRef::U32(node))?;
    for id in blocks {
        hb.put("blocks", ValueRef::U64(id))?;
    }
    if v >= V3_0 {
        hb.put("storages", ValueRef::Enum(0))?; // DISK
        hb.put("storages", ValueRef::Enum(archive_number(v)))?;
    }
    if v >= V3_2 {
        hb.put("committedTxnId", ValueRef::U64(committed_txn))?;
    }
    hb.finish()
}

/// A received heartbeat that parsed to its end. Its fields are read from
/// the payload when asked for: nothing is copied out of it.
#[derive(Debug, Clone)]
pub struct Heartbeat<'a>(Reader<'a>);

/// One thing a heartbeat reports, of those a NameNode acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reported {
    /// A block id.
    Block(u64),
    /// A storage type, by number in the *reader's* enum.
    Storage(i32),
}

/// Parses a heartbeat as release `v` would. A NameNode applies nothing of a
/// heartbeat it cannot parse to the end, so the whole payload is walked
/// here, before the caller reads a field.
pub fn decode_heartbeat(v: VersionId, body: &[u8]) -> Result<Heartbeat<'_>, WireError> {
    let fields = Reader::new(HEARTBEAT.at(v), "Heartbeat", body)?;
    Ok(Heartbeat(fields.checked()?))
}

impl Heartbeat<'_> {
    /// Hands `each` the reported blocks and storage types, in wire order.
    // A loop around `Reader::next`, not an iterator over it: an item handed
    // out of an iterator goes through memory, which costs more than reading
    // the field does.
    pub fn for_each(&self, mut each: impl FnMut(Reported)) {
        let mut fields = self.0.clone();
        // A checked reader cannot fail.
        while let Ok(Some((field, value))) = fields.next() {
            match (field.name.as_str(), value) {
                ("blocks", ValueRef::U64(block)) => each(Reported::Block(block)),
                ("storages", ValueRef::Enum(storage)) => each(Reported::Storage(storage)),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_wire::{proto, MessageValue, Value};

    fn v(s: &str) -> VersionId {
        s.parse().unwrap()
    }

    /// The fsimage as it was built before the streaming writer: a value
    /// tree handed to `proto::encode`. Kept as the oracle for the bytes.
    fn tree_fsimage(v: VersionId, ns: &Namespace) -> Vec<u8> {
        let lv = layout_version(v);
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
        let mut body = proto::encode(FSIMAGE.at(v), &img).unwrap();
        if lv >= COMPRESSED_SINCE_LV && !(v.major == 0 && v.minor == 20) {
            body.insert(0, COMPRESSION_MARKER);
        }
        Frame::new(lv, "fsimage", body).encode_to_vec()
    }

    /// The heartbeat as it was built before the streaming writer: a value
    /// tree handed to `proto::encode`. Kept as the oracle for the bytes.
    fn tree_heartbeat(v: VersionId, node: u32, blocks: &[u64], txn: u64) -> Vec<u8> {
        let mut hb = MessageValue::new("Heartbeat").set("node", Value::U32(node));
        for id in blocks {
            hb.push_mut("blocks", Value::U64(*id));
        }
        if v.major >= 3 {
            hb.push_mut("storages", Value::Enum(0));
            hb.push_mut("storages", Value::Enum(archive_number(v)));
        }
        if v >= VersionId::new(3, 2, 0) {
            hb.put("committedTxnId", Value::U64(txn));
        }
        proto::encode(HEARTBEAT.at(v), &hb).unwrap()
    }

    fn streamed_heartbeat(v: VersionId, node: u32, blocks: &[u64], txn: u64) -> Vec<u8> {
        let mut out = Vec::new();
        write_heartbeat(v, node, blocks.iter().copied(), txn, &mut out).unwrap();
        out
    }

    #[test]
    fn streamed_heartbeats_equal_the_tree_encoders() {
        let many: Vec<u64> = (0..300).map(|b| b * 1_000_003).collect();
        for v in crate::DfsSystem::release_history() {
            for (sent, blocks) in [&[][..], &[7], &many].into_iter().enumerate() {
                let txn = sent as u64 * 1_000;
                let body = streamed_heartbeat(v, 2, blocks, txn);
                assert_eq!(body, tree_heartbeat(v, 2, blocks, txn), "{v}");
                let mut read = Vec::new();
                let hb = decode_heartbeat(v, &body).unwrap();
                hb.for_each(|reported| read.push(reported));
                let mut sent: Vec<_> = blocks.iter().map(|b| Reported::Block(*b)).collect();
                if v.major >= 3 {
                    sent.push(Reported::Storage(0));
                    sent.push(Reported::Storage(archive_number(v)));
                }
                assert_eq!(read, sent, "{v}");
            }
        }
    }

    #[test]
    fn streamed_fsimages_equal_the_tree_encoders() {
        let busy = Namespace {
            files: (0..60u64)
                .map(|i| FileEntry {
                    path: format!("/dir-{}/{}", i % 7, "f".repeat(i as usize * 5)),
                    blocks: (0..i % 4).map(|b| i * 100 + b).collect(),
                    inode: if i % 5 == 0 { 0 } else { 1_000 + i },
                })
                .collect(),
            next_inode: 2_000,
            next_block: u64::MAX,
        };
        for v in crate::DfsSystem::release_history() {
            for ns in [Namespace::default(), ns_with(0), ns_with(3), busy.clone()] {
                let streamed = encode_fsimage(v, &ns).unwrap();
                assert_eq!(streamed, tree_fsimage(v, &ns), "release {v}");
            }
        }
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
        let old = HEARTBEAT.at(v("3.1.0"));
        let hb = MessageValue::new("Heartbeat")
            .set("node", Value::U32(1))
            .push("storages", Value::Enum(0));
        let bytes = proto::encode(old, &hb).unwrap();
        let new = HEARTBEAT.at(v("3.2.0"));
        let err = proto::decode(new, "Heartbeat", &bytes).unwrap_err();
        // The text flows into failure signatures, and so into report digests.
        assert_eq!(
            err.to_string(),
            "message Heartbeat is missing required field 'committedTxnId'"
        );
        // A 3.2 NameNode parsing a 3.1 DataNode's heartbeat meets it too.
        let sent = streamed_heartbeat(v("3.1.0"), 1, &[4, 5], 0);
        assert_eq!(decode_heartbeat(v("3.2.0"), &sent).unwrap_err(), err);
        assert!(
            matches!(err, WireError::MissingRequired { field, .. } if field == "committedTxnId")
        );
    }

    #[test]
    fn hdfs_15624_archive_shifts_to_nvdimm() {
        assert_eq!(archive_number(v("3.2.0")), 2);
        assert_eq!(archive_number(v("3.3.0")), 3);
        // A 3.2 ARCHIVE report decodes on 3.3 — as NVDIMM.
        let old = HEARTBEAT.at(v("3.2.0"));
        let hb = MessageValue::new("Heartbeat")
            .set("node", Value::U32(1))
            .set("committedTxnId", Value::U64(1))
            .push("storages", Value::Enum(archive_number(v("3.2.0"))));
        let bytes = proto::encode(old, &hb).unwrap();
        let new = HEARTBEAT.at(v("3.3.0"));
        let decoded = proto::decode(new, "Heartbeat", &bytes).unwrap();
        let got = decoded.get_all("storages")[0].clone();
        assert_eq!(got, Value::Enum(2));
        assert_eq!(
            HEARTBEAT
                .at(v("3.3.0"))
                .enum_desc("StorageType")
                .unwrap()
                .name_of(2),
            Some("NVDIMM")
        );
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
        assert_eq!(decode_heartbeat(v("3.2.0"), &bytes).unwrap_err(), err);
    }

    #[test]
    fn pre_3_heartbeats_have_no_storages() {
        let s = HEARTBEAT.at(v("2.7.0"));
        assert!(s
            .message("Heartbeat")
            .unwrap()
            .field_by_name("storages")
            .is_none());
    }
}
