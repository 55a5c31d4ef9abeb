//! NameNode and DataNode processes of the mini HDFS.
//!
//! Node 0 is the NameNode; all other indices are DataNodes. Clients talk to
//! the NameNode with text commands (`WRITE`, `READ`, `DELETE`, `CHECK`, …);
//! NameNode ↔ DataNode traffic uses framed proto messages, and the fsimage
//! checkpoint uses the versioned format in [`crate::codec`].

use crate::codec::{self, layout_version, FileEntry, Namespace, Reported};
use bytes::Bytes;
use dup_core::{format_reply, split_words, NodeSetup, VersionId};
use dup_simnet::{restore_clone, Ctx, Endpoint, Fatal, Process, SimDuration, SimTime, StepResult};
use dup_wire::Frame;
use std::collections::{BTreeMap, BTreeSet};

const TOKEN_HEARTBEAT: u64 = 1;
const TOKEN_DEAD_CHECK: u64 = 2;
const TOKEN_WRITE_BASE: u64 = 1_000_000;

/// DataNode heartbeat interval.
pub const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// How long the NameNode waits before declaring a silent DataNode dead.
pub const DEAD_TIMEOUT: SimDuration = SimDuration::from_secs(60);
/// How long a restarting DataNode is tolerated before the HDFS-11856-buggy
/// NameNode marks it bad permanently (the paper's "30 seconds", scaled).
pub const RESTART_TOLERANCE: SimDuration = SimDuration::from_secs(3);
/// Synchronous trash-purge cost per trashed block (HDFS-8676).
pub const TRASH_PURGE_PER_BLOCK: SimDuration = SimDuration::from_secs(15);
/// How long the NameNode waits for pipeline acks before answering the client.
const WRITE_ACK_DEADLINE: SimDuration = SimDuration::from_secs(2);
/// Re-replication retry backoff.
const COPY_RETRY: SimDuration = SimDuration::from_secs(5);

fn has_restart_notice(v: VersionId) -> bool {
    v >= VersionId::new(2, 7, 0)
}

/// HDFS-11856 lives in the 2.7/2.8 NameNodes; 3.1 fixed it.
fn marks_bad_permanently(v: VersionId) -> bool {
    v.major == 2 && (v.minor == 7 || v.minor == 8)
}

/// HDFS-8676: 2.7 purges trash synchronously at upgrade finalization.
fn purges_trash_synchronously(v: VersionId) -> bool {
    v.major == 2 && v.minor == 7
}

#[derive(Debug, Default, Clone)]
struct DnInfo {
    last_heartbeat: Option<SimTime>,
    dead: bool,
    permanently_bad: bool,
    restarting_since: Option<SimTime>,
    storages_ok: bool,
}

#[derive(Clone)]
struct PendingWrite {
    client: Endpoint,
    path: String,
    expected: Vec<u32>,
    acks: BTreeSet<u32>,
}

/// The master. Holds the namespace, tracks DataNodes, coordinates writes.
#[derive(Clone)]
pub struct NameNode {
    version: VersionId,
    setup: NodeSetup,
    namespace: Namespace,
    block_locations: BTreeMap<u64, BTreeSet<u32>>,
    dn: BTreeMap<u32, DnInfo>,
    pending_writes: BTreeMap<u64, PendingWrite>,
    pending_reads: BTreeMap<u64, Endpoint>,
    copy_inflight: BTreeMap<u64, SimTime>,
    started_at: SimTime,
}

impl NameNode {
    /// Creates the NameNode process for `version`.
    pub fn new(version: VersionId, setup: NodeSetup) -> Self {
        NameNode {
            version,
            setup,
            namespace: Namespace::default(),
            block_locations: BTreeMap::new(),
            dn: BTreeMap::new(),
            pending_writes: BTreeMap::new(),
            pending_reads: BTreeMap::new(),
            copy_inflight: BTreeMap::new(),
            started_at: SimTime::ZERO,
        }
    }

    fn checkpoint(&mut self, ctx: &mut Ctx<'_>) -> Result<(), Fatal> {
        let bytes = codec::encode_fsimage(self.version, &self.namespace)
            .map_err(|e| Fatal::new(format!("cannot write fsimage: {e}")))?;
        ctx.storage().write("fsimage", bytes);
        // The checkpoint is only a checkpoint once it is on disk.
        ctx.flush("fsimage");
        Ok(())
    }

    fn candidates(&mut self, ctx: &mut Ctx<'_>) -> Vec<u32> {
        let now = ctx.now();
        let mut out = Vec::new();
        let mark_bad = marks_bad_permanently(self.version);
        let mut newly_bad = Vec::new();
        for (&id, info) in &mut self.dn {
            if info.dead || info.permanently_bad || !info.storages_ok {
                continue;
            }
            if let Some(since) = info.restarting_since {
                if now.since(since) > RESTART_TOLERANCE {
                    if mark_bad {
                        // HDFS-11856: the restart outlived the tolerance
                        // window, so the DataNode is marked bad *forever*.
                        info.permanently_bad = true;
                        newly_bad.push(id);
                    }
                    continue;
                }
                continue; // Restarting but within tolerance: skip politely.
            }
            out.push(id);
        }
        for id in newly_bad {
            ctx.error(format!(
                "marking DataNode dn-{id} bad permanently: restart exceeded {RESTART_TOLERANCE}"
            ));
        }
        out
    }

    fn live_replicas(&self, block: u64) -> Vec<u32> {
        self.block_locations
            .get(&block)
            .map(|set| {
                set.iter()
                    .copied()
                    .filter(|dn| {
                        self.dn
                            .get(dn)
                            .is_some_and(|i| !i.dead && !i.permanently_bad)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    fn replication_target(&self) -> usize {
        2.min(self.dn.len())
    }

    fn handle_client(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, text: &str) {
        let mut words = [""; 3];
        let reply = match split_words(text, &mut words) {
            ["HEALTH"] => Some(Bytes::from_static(b"OK healthy")),
            ["LS"] => {
                let names: Vec<&str> = self
                    .namespace
                    .files
                    .iter()
                    .map(|f| f.path.as_str())
                    .collect();
                Some(format_reply(format_args!("OK {}", names.join(","))))
            }
            ["WRITE", path, data] => self.cmd_write(ctx, from, path, data),
            ["READ", path] => self.cmd_read(ctx, from, path),
            ["DELETE", path] => Some(self.cmd_delete(ctx, path)),
            ["CHECK", path] => Some(self.cmd_check(path)),
            _ => Some(format_reply(format_args!("ERR unknown command '{text}'"))),
        };
        if let Some(reply) = reply {
            ctx.send(from, reply);
        }
    }

    fn cmd_write(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: Endpoint,
        path: &str,
        data: &str,
    ) -> Option<Bytes> {
        let targets = self.candidates(ctx);
        let targets: Vec<u32> = targets.into_iter().take(2).collect();
        if targets.is_empty() {
            ctx.error(format!("no usable DataNodes for write of {path}"));
            return Some(Bytes::from_static(b"ERR no usable DataNodes"));
        }
        let block = self.namespace.next_block.max(1);
        self.namespace.next_block = block + 1;
        let inode = self.namespace.next_inode.max(1);
        self.namespace.next_inode = inode + 1;
        self.namespace.files.retain(|f| f.path != path);
        self.namespace.files.push(FileEntry {
            path: path.to_string(),
            blocks: vec![block],
            inode,
        });
        // Block writes use a hand-rolled body: the block id, then the data.
        let mut body = block.to_be_bytes().to_vec();
        body.extend_from_slice(data.as_bytes());
        let frame = Frame::new(layout_version(self.version), "block_write", body).encode();
        for &dn in &targets {
            ctx.send(Endpoint::Node(dn), frame.clone());
        }
        if targets.len() < self.replication_target() {
            ctx.warn(format!("block {block} for {path} starts under-replicated"));
        }
        self.pending_writes.insert(
            block,
            PendingWrite {
                client: from,
                path: path.to_string(),
                expected: targets,
                acks: BTreeSet::new(),
            },
        );
        ctx.set_timer(WRITE_ACK_DEADLINE, TOKEN_WRITE_BASE + block);
        None // Reply deferred until acks arrive.
    }

    fn cmd_read(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, path: &str) -> Option<Bytes> {
        let Some(file) = self.namespace.files.iter().find(|f| f.path == path) else {
            return Some(Bytes::from_static(b"ERR not found"));
        };
        let Some(&block) = file.blocks.first() else {
            return Some(Bytes::from_static(b"OK "));
        };
        let replicas = self.live_replicas(block);
        let Some(&dn) = replicas.first() else {
            ctx.error(format!("no live replica of block {block} for {path}"));
            return Some(Bytes::from_static(b"ERR no live replica"));
        };
        self.pending_reads.insert(block, from);
        ctx.send(
            Endpoint::Node(dn),
            Frame::new(
                layout_version(self.version),
                "block_read",
                &block.to_be_bytes()[..],
            )
            .encode(),
        );
        None
    }

    fn cmd_delete(&mut self, ctx: &mut Ctx<'_>, path: &str) -> Bytes {
        let Some(pos) = self.namespace.files.iter().position(|f| f.path == path) else {
            return Bytes::from_static(b"ERR not found");
        };
        let file = self.namespace.files.remove(pos);
        for block in file.blocks {
            if let Some(holders) = self.block_locations.remove(&block) {
                let frame = Frame::new(
                    layout_version(self.version),
                    "block_trash",
                    &block.to_be_bytes()[..],
                )
                .encode();
                for dn in holders {
                    ctx.send(Endpoint::Node(dn), frame.clone());
                }
            }
        }
        Bytes::from_static(b"OK")
    }

    fn cmd_check(&self, path: &str) -> Bytes {
        let Some(file) = self.namespace.files.iter().find(|f| f.path == path) else {
            return Bytes::from_static(b"ERR not found");
        };
        let target = self.replication_target();
        for &block in &file.blocks {
            let n = self.live_replicas(block).len();
            if n < target {
                return format_reply(format_args!(
                    "ERR under-replicated {path} replication={n} expected={target}"
                ));
            }
        }
        format_reply(format_args!("OK replication={target}"))
    }

    fn handle_heartbeat(&mut self, ctx: &mut Ctx<'_>, from: u32, frame: &Frame<'_>) -> StepResult {
        let hb = match codec::decode_heartbeat(self.version, &frame.body) {
            Ok(hb) => hb,
            Err(e) => {
                if self.version >= VersionId::new(3, 2, 0) {
                    // HDFS-14726: the new decoder's required field makes old
                    // heartbeats fatal.
                    return Err(Fatal::new(format!(
                        "InvalidProtocolBufferException while parsing heartbeat from dn-{from}: {e}"
                    )));
                }
                ctx.warn(format!("ignoring malformed heartbeat from dn-{from}: {e}"));
                return Ok(());
            }
        };
        let info = self.dn.entry(from).or_insert_with(|| DnInfo {
            storages_ok: true,
            ..DnInfo::default()
        });
        if info.permanently_bad {
            // The HDFS-11856 damage: a bad DataNode's re-registration is
            // ignored forever.
            return Ok(());
        }
        let was_gone = info.dead || info.restarting_since.is_some();
        info.last_heartbeat = Some(ctx.now());
        info.dead = false;
        info.restarting_since = None;

        // HDFS-15624: a 3.3 NameNode sees a 3.2 DataNode's ARCHIVE (=2) as
        // NVDIMM (=2) and refuses to place blocks on it.
        let nvdimm = (self.version >= VersionId::new(3, 3, 0)).then_some(2);
        let mut storages_ok = true;
        hb.for_each(|reported| match reported {
            Reported::Storage(storage) => storages_ok &= Some(storage) != nvdimm,
            Reported::Block(block) => {
                self.block_locations.entry(block).or_default().insert(from);
            }
        });
        let flipped = info.storages_ok && !storages_ok;
        info.storages_ok = storages_ok;
        if flipped {
            ctx.error(format!(
                "DataNode dn-{from} reports storage type NVDIMM, which is not supported for \
                 block placement; excluding it"
            ));
        }
        if was_gone {
            ctx.info(format!("DataNode dn-{from} re-registered"));
        }
        Ok(())
    }

    fn rereplicate(&mut self, ctx: &mut Ctx<'_>) {
        let target = self.replication_target();
        let now = ctx.now();
        let alive: Vec<u32> = self
            .dn
            .iter()
            .filter(|(_, i)| !i.dead && !i.permanently_bad && i.restarting_since.is_none())
            .map(|(&id, _)| id)
            .collect();
        let blocks: Vec<u64> = self.block_locations.keys().copied().collect();
        for block in blocks {
            let replicas = self.live_replicas(block);
            if replicas.len() >= target || replicas.is_empty() {
                continue;
            }
            if self
                .copy_inflight
                .get(&block)
                .is_some_and(|t| now.since(*t) < COPY_RETRY)
            {
                continue;
            }
            let Some(&dest) = alive.iter().find(|d| !replicas.contains(d)) else {
                continue;
            };
            let holder = replicas[0];
            self.copy_inflight.insert(block, now);
            let mut body = [0; 12];
            body[..8].copy_from_slice(&block.to_be_bytes());
            body[8..].copy_from_slice(&dest.to_be_bytes());
            ctx.send(
                Endpoint::Node(holder),
                Frame::new(layout_version(self.version), "block_copy", &body[..]).encode(),
            );
        }
    }
}

impl Process for NameNode {
    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.clone()))
    }

    fn restore_from(&mut self, src: &dyn Process) -> bool {
        restore_clone(self, src)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        self.started_at = ctx.now();
        let own_lv = layout_version(self.version);
        if let Some(bytes) = ctx.storage_ref().read("fsimage") {
            let decoded = codec::decode_fsimage(self.version, bytes)
                .map_err(|e| Fatal::new(e.to_string()))?;
            self.namespace = decoded.namespace;
            if decoded.layout < own_lv {
                ctx.info(format!(
                    "upgrading fsimage from LayoutVersion {} to {own_lv}",
                    decoded.layout
                ));
                // Upgrade checkpoint + verification reload: this is where
                // HDFS-5988 loses the filesystem.
                self.checkpoint(ctx)?;
                let bytes = ctx.storage_ref().read("fsimage").expect("just written");
                let verified = codec::decode_fsimage(self.version, bytes)
                    .map_err(|e| Fatal::new(format!("upgraded fsimage is unreadable: {e}")))?;
                self.namespace = verified.namespace;
            }
        }
        for peer in self.setup.peers() {
            self.dn.insert(
                peer,
                DnInfo {
                    last_heartbeat: Some(ctx.now()),
                    storages_ok: true,
                    ..DnInfo::default()
                },
            );
        }
        ctx.info(format!(
            "NameNode {} started (LayoutVersion {own_lv})",
            self.version
        ));
        ctx.set_timer(SimDuration::from_secs(1), TOKEN_DEAD_CHECK);
        Ok(())
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, payload: &[u8]) -> StepResult {
        match from {
            Endpoint::Client(_) => {
                self.handle_client(ctx, from, &String::from_utf8_lossy(payload));
                Ok(())
            }
            Endpoint::Node(n) => {
                let frame = match Frame::decode(payload) {
                    Ok(f) => f,
                    Err(e) => {
                        ctx.warn(format!("unparseable frame from dn-{n}: {e}"));
                        return Ok(());
                    }
                };
                match frame.kind {
                    "heartbeat" => self.handle_heartbeat(ctx, n, &frame),
                    "restart_notice" => {
                        if let Some(info) = self.dn.get_mut(&n) {
                            if !info.permanently_bad {
                                info.restarting_since = Some(ctx.now());
                                ctx.info(format!("DataNode dn-{n} announced a restart"));
                            }
                        }
                        Ok(())
                    }
                    "block_ack" => {
                        if frame.body.len() >= 8 {
                            let block = u64::from_be_bytes(
                                frame.body[..8].try_into().expect("len checked"),
                            );
                            self.block_locations.entry(block).or_default().insert(n);
                            self.copy_inflight.remove(&block);
                            if let Some(p) = self.pending_writes.get_mut(&block) {
                                p.acks.insert(n);
                                if p.acks.len() >= p.expected.len() {
                                    let p = self.pending_writes.remove(&block).expect("present");
                                    ctx.send(p.client, Bytes::from_static(b"OK"));
                                }
                            }
                        }
                        Ok(())
                    }
                    "block_data" => {
                        if frame.body.len() >= 8 {
                            let block = u64::from_be_bytes(
                                frame.body[..8].try_into().expect("len checked"),
                            );
                            if let Some(client) = self.pending_reads.remove(&block) {
                                let mut reply = b"OK ".to_vec();
                                reply.extend_from_slice(&frame.body[8..]);
                                ctx.send(client, reply.into());
                            }
                        }
                        Ok(())
                    }
                    "block_missing" => {
                        if frame.body.len() >= 8 {
                            let block = u64::from_be_bytes(
                                frame.body[..8].try_into().expect("len checked"),
                            );
                            if let Some(set) = self.block_locations.get_mut(&block) {
                                set.remove(&n);
                            }
                            if let Some(client) = self.pending_reads.remove(&block) {
                                ctx.send(client, Bytes::from_static(b"ERR replica lost"));
                            }
                        }
                        Ok(())
                    }
                    other => {
                        ctx.warn(format!("unknown message kind '{other}' from dn-{n}"));
                        Ok(())
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> StepResult {
        if token == TOKEN_DEAD_CHECK {
            let now = ctx.now();
            let mut newly_dead = Vec::new();
            for (&id, info) in &mut self.dn {
                if info.dead || info.permanently_bad {
                    continue;
                }
                let last = info.last_heartbeat.unwrap_or(self.started_at);
                if now.since(last) > DEAD_TIMEOUT {
                    info.dead = true;
                    newly_dead.push(id);
                }
            }
            for id in newly_dead {
                ctx.error(format!(
                    "DataNode dn-{id} marked dead: no heartbeat for {DEAD_TIMEOUT}"
                ));
            }
            self.rereplicate(ctx);
            ctx.set_timer(SimDuration::from_secs(1), TOKEN_DEAD_CHECK);
            return Ok(());
        }
        if token >= TOKEN_WRITE_BASE {
            let block = token - TOKEN_WRITE_BASE;
            if let Some(p) = self.pending_writes.remove(&block) {
                if p.acks.is_empty() {
                    ctx.error(format!(
                        "write of {} failed: no DataNode acked block {block}",
                        p.path
                    ));
                    ctx.send(p.client, Bytes::from_static(b"ERR write failed"));
                } else {
                    ctx.warn(format!(
                        "block {block} for {} acked by {}/{} DataNodes",
                        p.path,
                        p.acks.len(),
                        p.expected.len()
                    ));
                    ctx.send(p.client, Bytes::from_static(b"OK"));
                }
            }
        }
        Ok(())
    }

    fn on_shutdown(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        self.checkpoint(ctx)?;
        ctx.info("NameNode checkpointed and shut down");
        Ok(())
    }
}

/// A worker: stores blocks, heartbeats, serves reads and replication copies.
#[derive(Clone)]
pub struct DataNode {
    version: VersionId,
    setup: NodeSetup,
    busy_until: SimTime,
    heartbeats_sent: u64,
}

impl DataNode {
    /// Creates the DataNode process for `version`.
    pub fn new(version: VersionId, setup: NodeSetup) -> Self {
        DataNode {
            version,
            setup,
            busy_until: SimTime::ZERO,
            heartbeats_sent: 0,
        }
    }

    fn namenode(&self) -> Endpoint {
        Endpoint::Node(0)
    }

    fn send_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        self.heartbeats_sent += 1;
        let mut frame = Vec::with_capacity(64);
        Frame::header(layout_version(self.version), "heartbeat", &mut frame);
        let blocks = ctx.storage_ref().paths("blocks/").filter_map(|path| {
            path.strip_prefix("blocks/")
                .and_then(|s| s.parse::<u64>().ok())
        });
        let (node, txn) = (self.setup.index, self.heartbeats_sent);
        codec::write_heartbeat(self.version, node, blocks, txn, &mut frame)
            .expect("own heartbeat always encodes");
        ctx.send(self.namenode(), frame.into());
    }
}

impl Process for DataNode {
    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.clone()))
    }

    fn restore_from(&mut self, src: &dyn Process) -> bool {
        restore_clone(self, src)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        let marker = ctx
            .storage_ref()
            .read("dn_version")
            .map(|b| String::from_utf8_lossy(b).into_owned());
        let own = self.version.to_string();
        let upgraded = marker.as_deref().is_some_and(|m| m != own);
        let trash = ctx.storage_ref().paths("trash/").count();
        let mut first_heartbeat = SimDuration::from_millis(50);
        if upgraded && trash > 0 {
            if purges_trash_synchronously(self.version) {
                // HDFS-8676: the finalize step deletes the trash directory
                // synchronously; heartbeats stall for the whole purge.
                let purge = TRASH_PURGE_PER_BLOCK.saturating_mul(trash as u64);
                ctx.info(format!(
                    "upgrade finalized: deleting {trash} trashed blocks synchronously ({purge})"
                ));
                self.busy_until = ctx.now() + purge;
                first_heartbeat = purge;
            } else {
                ctx.info(format!(
                    "upgrade finalized: deleting {trash} trashed blocks in the background"
                ));
            }
            let n = ctx.storage().delete_prefix("trash/");
            debug_assert_eq!(n, trash);
        }
        ctx.storage().write("dn_version", own.into_bytes());
        ctx.flush("dn_version");
        ctx.info(format!(
            "DataNode {} (dn-{}) started",
            self.version, self.setup.index
        ));
        ctx.set_timer(first_heartbeat, TOKEN_HEARTBEAT);
        Ok(())
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, payload: &[u8]) -> StepResult {
        if ctx.now() < self.busy_until {
            // Blocked in the synchronous trash purge: requests are dropped,
            // exactly like a thread stuck in a long filesystem call.
            return Ok(());
        }
        if let Endpoint::Client(_) = from {
            let reply: &'static [u8] = if String::from_utf8_lossy(payload).trim() == "HEALTH" {
                b"OK healthy"
            } else {
                b"ERR not the NameNode"
            };
            ctx.send(from, Bytes::from_static(reply));
            return Ok(());
        }
        let frame = match Frame::decode(payload) {
            Ok(f) => f,
            Err(e) => {
                ctx.warn(format!("unparseable frame: {e}"));
                return Ok(());
            }
        };
        let lv = layout_version(self.version);
        match frame.kind {
            "block_write" if frame.body.len() >= 8 => {
                let block = u64::from_be_bytes(frame.body[..8].try_into().expect("len checked"));
                let data = &frame.body[8..];
                ctx.storage()
                    .write(&format!("blocks/{block}"), data.to_vec());
                // Flush before acking: an acked replica the NameNode counts
                // on must survive a crash, or replica accounting would blame
                // the upgrade for an injected-crash artifact.
                ctx.flush(&format!("blocks/{block}"));
                ctx.send(
                    self.namenode(),
                    Frame::new(lv, "block_ack", &block.to_be_bytes()[..]).encode(),
                );
            }
            "block_read" if frame.body.len() >= 8 => {
                let block = u64::from_be_bytes(frame.body[..8].try_into().expect("len checked"));
                match ctx
                    .storage_ref()
                    .read(&format!("blocks/{block}"))
                    .map(<[u8]>::to_vec)
                {
                    Some(data) => {
                        let mut body = block.to_be_bytes().to_vec();
                        body.extend_from_slice(&data);
                        ctx.send(self.namenode(), Frame::new(lv, "block_data", body).encode());
                    }
                    None => {
                        ctx.send(
                            self.namenode(),
                            Frame::new(lv, "block_missing", &block.to_be_bytes()[..]).encode(),
                        );
                    }
                }
            }
            "block_trash" if frame.body.len() >= 8 => {
                let block = u64::from_be_bytes(frame.body[..8].try_into().expect("len checked"));
                if let Some(data) = ctx
                    .storage_ref()
                    .read(&format!("blocks/{block}"))
                    .map(<[u8]>::to_vec)
                {
                    ctx.storage().write(&format!("trash/{block}"), data);
                    // Trash must be durable before the live replica goes
                    // away, or a crash in between loses the block entirely.
                    ctx.flush(&format!("trash/{block}"));
                    ctx.storage().delete(&format!("blocks/{block}"));
                }
            }
            "block_copy" if frame.body.len() >= 12 => {
                let block = u64::from_be_bytes(frame.body[..8].try_into().expect("len checked"));
                let dest = u32::from_be_bytes(frame.body[8..12].try_into().expect("len checked"));
                if let Some(data) = ctx
                    .storage_ref()
                    .read(&format!("blocks/{block}"))
                    .map(<[u8]>::to_vec)
                {
                    let mut body = block.to_be_bytes().to_vec();
                    body.extend_from_slice(&data);
                    ctx.send(
                        Endpoint::Node(dest),
                        Frame::new(lv, "block_write", body).encode(),
                    );
                }
            }
            other => {
                ctx.warn(format!("unknown message kind '{other}'"));
            }
        }
        Ok(())
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> StepResult {
        if token == TOKEN_HEARTBEAT {
            self.send_heartbeat(ctx);
            ctx.set_timer(HEARTBEAT_INTERVAL, TOKEN_HEARTBEAT);
        }
        Ok(())
    }

    fn on_shutdown(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        if has_restart_notice(self.version) {
            ctx.send(
                self.namenode(),
                Frame::new(layout_version(self.version), "restart_notice", Vec::new()).encode(),
            );
        }
        ctx.info("DataNode shut down");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_simnet::Sim;

    fn v(s: &str) -> VersionId {
        s.parse().unwrap()
    }

    fn boot(sim: &mut Sim, version: VersionId, n: u32) -> Vec<u32> {
        let mut ids = Vec::new();
        for i in 0..n {
            let setup = NodeSetup::new(i, n);
            let proc: Box<dyn Process> = if i == 0 {
                Box::new(NameNode::new(version, setup))
            } else {
                Box::new(DataNode::new(version, setup))
            };
            let id = sim.add_node(&format!("dfs-host-{i}"), &version.to_string(), proc);
            sim.start_node(id).unwrap();
            ids.push(id);
        }
        sim.run_for(SimDuration::from_secs(1));
        ids
    }

    fn cmd(sim: &mut Sim, node: u32, text: &str) -> String {
        sim.rpc(
            node,
            text.as_bytes().to_vec().into(),
            SimDuration::from_secs(5),
        )
        .map(|b| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_else(|| "TIMEOUT".to_string())
    }

    fn upgrade(sim: &mut Sim, node_idx: u32, to: VersionId, n: u32) {
        sim.stop_node(node_idx).unwrap();
        let setup = NodeSetup::new(node_idx, n);
        let proc: Box<dyn Process> = if node_idx == 0 {
            Box::new(NameNode::new(to, setup))
        } else {
            Box::new(DataNode::new(to, setup))
        };
        sim.install(node_idx, &to.to_string(), proc).unwrap();
        sim.start_node(node_idx).unwrap();
    }

    /// Sends each `(node, command, reply)` row in order and demands the
    /// reply's exact bytes.
    fn assert_replies(sim: &mut Sim, table: &[(u32, &[u8], &str)]) {
        for &(node, command, reply) in table {
            let got = sim.rpc(
                node,
                bytes::Bytes::copy_from_slice(command),
                SimDuration::from_secs(5),
            );
            assert!(
                got.as_deref() == Some(reply.as_bytes()),
                "node {node} <- {:?}: got {:?}, want {reply:?}",
                String::from_utf8_lossy(command),
                got.as_deref().map(String::from_utf8_lossy)
            );
        }
    }

    /// Every command shape the NameNode and a DataNode answer, with its
    /// exact reply, and the files those commands leave behind.
    #[test]
    fn client_replies_are_pinned() {
        let mut sim = Sim::new(11);
        assert_eq!(boot(&mut sim, v("3.3.0"), 3), [0, 1, 2]);
        let unknown = |c: &str| format!("ERR unknown command '{c}'");
        let too_many = "WRITE /a b c d e f";
        let table: &[(u32, &[u8], &str)] = &[
            (0, b"HEALTH", "OK healthy"),
            (0, b"  HEALTH\t", "OK healthy"),
            (0, "HEALTH\u{3000}".as_bytes(), "OK healthy"),
            (0, b"HEALTH now", &unknown("HEALTH now")),
            (0, b"", &unknown("")),
            (0, b"HEA\xffLTH", &unknown("HEA\u{fffd}LTH")),
            (0, b"LS", "OK "),
            (0, b"LS /", &unknown("LS /")),
            (0, b"WRITE", &unknown("WRITE")),
            (0, b"WRITE /a", &unknown("WRITE /a")),
            (0, b"WRITE /a hello", "OK"),
            (0, "WRITE\u{3000}/b\t\tbye".as_bytes(), "OK"),
            (0, b"WRITE /a b c", &unknown("WRITE /a b c")),
            (0, too_many.as_bytes(), &unknown(too_many)),
            (0, b"LS", "OK /a,/b"),
            (0, b"READ /a", "OK hello"),
            (0, b"READ  /b", "OK bye"),
            (0, b"READ /zz", "ERR not found"),
            (0, b"READ /a\xff", "ERR not found"),
            (0, b"READ", &unknown("READ")),
            (0, b"READ /a b", &unknown("READ /a b")),
            (0, b"CHECK /a", "OK replication=2"),
            (0, b"CHECK /zz", "ERR not found"),
            (0, b"CHECK", &unknown("CHECK")),
            (0, b"CHECK /a /b", &unknown("CHECK /a /b")),
            (0, b"DELETE /b", "OK"),
            (0, b"DELETE /b", "ERR not found"),
            (0, b"DELETE", &unknown("DELETE")),
            (0, b"DELETE /a /b", &unknown("DELETE /a /b")),
            (0, b"LS", "OK /a"),
            (1, b"HEALTH", "OK healthy"),
            (1, b" HEALTH\t", "OK healthy"),
            (2, "HEALTH\u{3000}".as_bytes(), "OK healthy"),
            (1, b"HEALTH now", "ERR not the NameNode"),
            (1, b"LS", "ERR not the NameNode"),
            (1, b"", "ERR not the NameNode"),
        ];
        assert_replies(&mut sim, table);
        sim.run_for(SimDuration::from_secs(1));
        let mut files = Vec::new();
        for i in 0..3 {
            let host = sim.host_id(&format!("dfs-host-{i}"));
            files.push(sim.host_storage_by_id(host).list(""));
        }
        let datanode = ["blocks/1", "dn_version", "trash/2"];
        assert_eq!(files, [&[][..], &datanode, &datanode]);
    }

    #[test]
    fn write_read_delete_roundtrip() {
        let mut sim = Sim::new(1);
        let ids = boot(&mut sim, v("3.3.0"), 3);
        assert_eq!(cmd(&mut sim, ids[0], "WRITE /a hello"), "OK");
        assert_eq!(cmd(&mut sim, ids[0], "READ /a"), "OK hello");
        assert_eq!(cmd(&mut sim, ids[0], "CHECK /a"), "OK replication=2");
        assert_eq!(cmd(&mut sim, ids[0], "DELETE /a"), "OK");
        assert_eq!(cmd(&mut sim, ids[0], "READ /a"), "ERR not found");
        assert_eq!(cmd(&mut sim, ids[0], "LS"), "OK ");
    }

    #[test]
    fn namespace_survives_clean_upgrade() {
        let mut sim = Sim::new(2);
        let ids = boot(&mut sim, v("2.6.0"), 3);
        assert_eq!(cmd(&mut sim, ids[0], "WRITE /f data1"), "OK");
        for &id in ids.iter().rev() {
            sim.stop_node(id).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            upgrade(&mut sim, id, v("2.7.0"), 3);
            let _ = i;
        }
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(cmd(&mut sim, ids[0], "READ /f"), "OK data1");
        assert!(sim.crashed_nodes().is_empty());
    }

    #[test]
    fn hdfs_5988_upgrade_to_2_0_loses_the_filesystem() {
        let mut sim = Sim::new(3);
        let ids = boot(&mut sim, v("1.0.0"), 2);
        assert_eq!(cmd(&mut sim, ids[0], "WRITE /precious data"), "OK");
        sim.stop_node(ids[0]).unwrap();
        upgrade(&mut sim, ids[0], v("2.0.0"), 2);
        sim.run_for(SimDuration::from_secs(1));
        let reason = sim.crash_reason(ids[0]).unwrap();
        assert!(
            reason.contains("no inode found for file /precious"),
            "got: {reason}"
        );
    }

    #[test]
    fn hdfs_1936_layout_bump_without_compression() {
        let mut sim = Sim::new(4);
        let ids = boot(&mut sim, v("0.20.0"), 2);
        assert_eq!(cmd(&mut sim, ids[0], "WRITE /f x"), "OK");
        sim.stop_node(ids[0]).unwrap();
        upgrade(&mut sim, ids[0], v("1.0.0"), 2);
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim
            .crash_reason(ids[0])
            .unwrap()
            .contains("must be compressed"));
    }

    #[test]
    fn hdfs_14726_old_heartbeat_crashes_3_2_namenode() {
        let mut sim = Sim::new(5);
        let ids = boot(&mut sim, v("3.1.0"), 3);
        // Rolling upgrade: NameNode first.
        upgrade(&mut sim, ids[0], v("3.2.0"), 3);
        sim.run_for(SimDuration::from_secs(2));
        let reason = sim.crash_reason(ids[0]).unwrap();
        assert!(
            reason.contains("InvalidProtocolBufferException"),
            "got: {reason}"
        );
        assert!(reason.contains("committedTxnId"));
    }

    #[test]
    fn hdfs_15624_archive_reads_as_nvdimm_on_3_3() {
        let mut sim = Sim::new(6);
        let ids = boot(&mut sim, v("3.2.0"), 3);
        upgrade(&mut sim, ids[0], v("3.3.0"), 3);
        sim.run_for(SimDuration::from_secs(2));
        // Both old DataNodes are excluded: writes have nowhere to go.
        assert_eq!(
            cmd(&mut sim, ids[0], "WRITE /new data"),
            "ERR no usable DataNodes"
        );
        assert!(sim.logs().matching("storage type NVDIMM").count() >= 2);
        // Finishing the rolling upgrade heals the cluster.
        upgrade(&mut sim, ids[1], v("3.3.0"), 3);
        upgrade(&mut sim, ids[2], v("3.3.0"), 3);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(cmd(&mut sim, ids[0], "WRITE /new data"), "OK");
    }

    #[test]
    fn hdfs_8676_trash_purge_stalls_heartbeats_until_dead() {
        let mut sim = Sim::new(7);
        let ids = boot(&mut sim, v("2.6.0"), 3);
        // Create and delete files so DataNode trash fills up.
        for i in 0..6 {
            assert_eq!(cmd(&mut sim, ids[0], &format!("WRITE /t{i} d{i}")), "OK");
        }
        for i in 0..6 {
            assert_eq!(cmd(&mut sim, ids[0], &format!("DELETE /t{i}")), "OK");
        }
        sim.run_for(SimDuration::from_secs(1));
        // Full-stop upgrade to 2.7.
        for &id in ids.iter().rev() {
            sim.stop_node(id).unwrap();
        }
        for &id in &ids {
            upgrade(&mut sim, id, v("2.7.0"), 3);
        }
        // Each DataNode trashed ~6 blocks → purge ≈ 90 s > 60 s dead timeout.
        sim.run_for(SimDuration::from_secs(70));
        assert!(
            sim.logs().matching("marked dead").count() >= 1,
            "no dead-marking observed"
        );
        // After the purge completes the DataNodes come back.
        sim.run_for(SimDuration::from_secs(60));
        assert!(sim.logs().matching("re-registered").count() >= 1);
    }

    #[test]
    fn hdfs_11856_restarting_datanode_marked_bad_permanently() {
        let mut sim = Sim::new(8);
        let ids = boot(&mut sim, v("2.7.0"), 3);
        assert_eq!(cmd(&mut sim, ids[0], "WRITE /base d"), "OK");
        // Rolling upgrade 2.7 → 2.8: NameNode first (quick), then dn-1.
        upgrade(&mut sim, ids[0], v("2.8.0"), 3);
        sim.run_for(SimDuration::from_secs(1));
        // dn-1 announces its restart and stays down past the tolerance.
        sim.stop_node(ids[1]).unwrap();
        sim.run_for(SimDuration::from_millis(3500));
        // A write arrives while dn-1 has been restarting > 3 s.
        assert_eq!(cmd(&mut sim, ids[0], "WRITE /during d2"), "OK");
        assert!(sim.logs().matching("bad permanently").count() >= 1);
        // dn-1 finishes its upgrade and heartbeats again — but is ignored.
        upgrade(&mut sim, ids[1], v("2.8.0"), 3);
        sim.run_for(SimDuration::from_secs(8));
        let resp = cmd(&mut sim, ids[0], "CHECK /during");
        assert!(resp.starts_with("ERR under-replicated"), "got {resp}");
    }

    #[test]
    fn restart_tolerance_is_forgiven_after_the_fix() {
        let mut sim = Sim::new(9);
        let ids = boot(&mut sim, v("3.1.0"), 3);
        assert_eq!(cmd(&mut sim, ids[0], "WRITE /base d"), "OK");
        sim.stop_node(ids[1]).unwrap();
        sim.run_for(SimDuration::from_millis(3500));
        assert_eq!(cmd(&mut sim, ids[0], "WRITE /during d2"), "OK");
        upgrade(&mut sim, ids[1], v("3.1.0"), 3);
        sim.run_for(SimDuration::from_secs(8));
        assert_eq!(sim.logs().matching("bad permanently").count(), 0);
        let resp = cmd(&mut sim, ids[0], "CHECK /during");
        assert!(resp.starts_with("OK"), "got {resp}");
    }
}
