//! The versioned coordination-service node (ZooKeeper-like).
//!
//! Three releases:
//!
//! - **3.4.0** — baseline; election votes carry `peerEpoch = currentEpoch`.
//! - **3.5.0** — votes carry a *proposed* epoch (`currentEpoch + 1`), and the
//!   election tally gained a strict epoch-consistency check. The combination
//!   is the ZOOKEEPER-1805 shape: a node restarting mid-rolling-upgrade
//!   receives different `peerEpoch` values from a 3.4 peer and a 3.5 peer
//!   and wedges in leader election. It takes all **three** nodes to trigger
//!   — the only 3-node case in the study (Finding 10).
//! - **3.6.0** — tolerant tally (the fix), but the snapshot gains a
//!   `required checkpoint_id` field, so checkpoints written by 3.5 fail to
//!   load (the MESOS-3834 mechanism transplanted).

use bytes::Bytes;
use dup_core::{format_reply, split_words, NodeSetup, VersionId};
use dup_idl::SchemaHistory;
use dup_simnet::{restore_clone, Ctx, Endpoint, Fatal, Process, SimDuration, SimTime, StepResult};
use dup_wire::proto::{Reader, ValueRef, Writer};
use dup_wire::{Frame, Schema, WireError};
use std::collections::BTreeMap;

const TOKEN_ELECTION: u64 = 1;
const TOKEN_LEADER_PING: u64 = 2;
const TOKEN_PING_CHECK: u64 = 3;
const ELECTION_TICK: SimDuration = SimDuration::from_millis(500);
const PING_INTERVAL: SimDuration = SimDuration::from_millis(500);
const PING_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// The leader-election vote (one shape in every release).
pub static VOTE: SchemaHistory<VersionId, 1> =
    SchemaHistory::new([(V3_4, include_str!("../proto/vote-3.4.0.proto"))]);

/// The snapshot checkpoint: 3.6 adds a required `checkpoint_id`.
pub static SNAPSHOT: SchemaHistory<VersionId, 2> = SchemaHistory::new([
    (V3_4, include_str!("../proto/snapshot-3.4.0.proto")),
    (V3_6, include_str!("../proto/snapshot-3.6.0.proto")),
]);

const V3_4: VersionId = VersionId::new(3, 4, 0);
const V3_6: VersionId = VersionId::new(3, 6, 0);

/// A checkpoint's epoch, zxid and entries.
type Checkpoint = (u64, u64, Vec<(String, String)>);

fn read_snapshot(schema: &Schema, body: &[u8]) -> Result<Checkpoint, WireError> {
    let mut snap = Reader::new(schema, "Snapshot", body)?;
    let (mut epoch, mut zxid, mut entries) = (0, 0, Vec::new());
    while let Some((field, value)) = snap.next()? {
        match (field.name.as_str(), value) {
            ("epoch", ValueRef::U64(v)) => epoch = v,
            ("zxid", ValueRef::U64(v)) => zxid = v,
            ("entries", ValueRef::Msg(mut entry)) => {
                let (mut key, mut val) = ("", "");
                while let Some((field, value)) = entry.next()? {
                    match (field.name.as_str(), value) {
                        ("key", ValueRef::Str(v)) => key = v,
                        ("value", ValueRef::Str(v)) => val = v,
                        _ => {}
                    }
                }
                entries.push((key.to_string(), val.to_string()));
            }
            _ => {}
        }
    }
    Ok((epoch, zxid, entries))
}

/// The `(peer_epoch, zxid, node)` a vote carries.
fn read_vote(v: VersionId, body: &[u8]) -> Result<(u64, u64, u32), WireError> {
    let mut vote = Reader::new(VOTE.at(v), "Vote", body)?;
    let mut v = (0, 0, 0);
    while let Some((field, value)) = vote.next()? {
        match (field.name.as_str(), value) {
            ("peer_epoch", ValueRef::U64(epoch)) => v.0 = epoch,
            ("zxid", ValueRef::U64(zxid)) => v.1 = zxid,
            ("node", ValueRef::U32(node)) => v.2 = node,
            _ => {}
        }
    }
    Ok(v)
}

fn sends_proposed_epoch(v: VersionId) -> bool {
    v >= VersionId::new(3, 5, 0)
}

/// The strict epoch-consistency tally exists only in 3.5.0.
fn strict_epoch_check(v: VersionId) -> bool {
    v.major == 3 && v.minor == 5
}

/// A coordination-service node.
#[derive(Clone)]
pub struct CoordNode {
    version: VersionId,
    setup: NodeSetup,
    epoch: u64,
    zxid: u64,
    data: BTreeMap<String, String>,
    leader: Option<u32>,
    in_election: bool,
    wedged: Option<String>,
    peer_votes: BTreeMap<u32, (u64, u64, u32)>,
    /// This node's vote, fixed at the start of the current election round.
    round_vote: (u64, u64, u32),
    last_leader_ping: SimTime,
}

impl CoordNode {
    /// Creates a node of `version`.
    pub fn new(version: VersionId, setup: NodeSetup) -> Self {
        CoordNode {
            version,
            setup,
            epoch: 1,
            zxid: 0,
            data: BTreeMap::new(),
            leader: None,
            in_election: false,
            wedged: None,
            peer_votes: BTreeMap::new(),
            round_vote: (0, 0, 0),
            last_leader_ping: SimTime::ZERO,
        }
    }

    fn my_vote(&self) -> (u64, u64, u32) {
        let peer_epoch = if sends_proposed_epoch(self.version) {
            self.epoch + 1
        } else {
            self.epoch
        };
        (peer_epoch, self.zxid, self.setup.index)
    }

    /// A `vote` frame carrying this node's vote.
    fn vote_frame(&self) -> Bytes {
        let mut frame = Vec::with_capacity(32);
        Frame::header(1, "vote", &mut frame);
        self.write_vote(&mut frame)
            .expect("own vote always encodes");
        Bytes::from(frame)
    }

    /// While electing, a node campaigns with its round vote; settled (or
    /// wedged) nodes echo their current view.
    fn cast_vote(&self) -> (u64, u64, u32) {
        if self.in_election {
            self.round_vote
        } else {
            self.my_vote()
        }
    }

    fn write_vote(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let (e, z, n) = self.cast_vote();
        let mut vote = Writer::new(VOTE.at(self.version), "Vote", out)?;
        vote.put("node", ValueRef::U32(n))?;
        vote.put("peer_epoch", ValueRef::U64(e))?;
        vote.put("zxid", ValueRef::U64(z))?;
        vote.finish()
    }

    /// Sends one encoded frame to every peer.
    fn broadcast(&self, ctx: &mut Ctx<'_>, frame: Bytes) {
        for peer in self.setup.peers() {
            ctx.send(Endpoint::Node(peer), frame.clone());
        }
    }

    fn start_election(&mut self, ctx: &mut Ctx<'_>) {
        self.in_election = true;
        self.leader = None;
        self.peer_votes.clear();
        self.round_vote = self.my_vote();
        self.broadcast(ctx, self.vote_frame());
        ctx.set_timer(ELECTION_TICK, TOKEN_ELECTION);
    }

    fn evaluate_election(&mut self, ctx: &mut Ctx<'_>) {
        if strict_epoch_check(self.version) && self.peer_votes.len() >= 2 {
            // ZOOKEEPER-1805: two peers proposed different epochs (a 3.4
            // peer and a 3.5 peer); the strict check can never succeed.
            let mut epochs: Vec<u64> = self.peer_votes.values().map(|v| v.0).collect();
            epochs.sort_unstable();
            epochs.dedup();
            if epochs.len() > 1 {
                let reason = format!("inconsistent peerEpoch values {epochs:?} in leader election");
                ctx.error(format!("leader election failed: {reason}"));
                self.wedged = Some(reason);
                self.peer_votes.clear();
                return;
            }
        }
        let mut best = self.round_vote;
        for v in self.peer_votes.values() {
            if (v.0, v.1, v.2) > best {
                best = *v;
            }
        }
        let leader = best.2;
        self.leader = Some(leader);
        self.in_election = false;
        ctx.info(format!(
            "elected node-{leader} as leader (epoch {})",
            self.epoch
        ));
        self.last_leader_ping = ctx.now();
        if leader == self.setup.index {
            ctx.set_timer(PING_INTERVAL, TOKEN_LEADER_PING);
        } else {
            ctx.set_timer(PING_TIMEOUT, TOKEN_PING_CHECK);
        }
    }

    fn snapshot(&self, ctx: &mut Ctx<'_>) -> Result<(), Fatal> {
        let mut file = Vec::with_capacity(64);
        Frame::header(1, "snapshot", &mut file);
        self.write_snapshot(&mut file)
            .map_err(|e| Fatal::new(format!("cannot write snapshot: {e}")))?;
        ctx.storage().write("snapshot", file);
        // Snapshots are fsynced before they count (ZooKeeper syncs the
        // snapshot file before updating the epoch).
        ctx.flush("snapshot");
        Ok(())
    }

    fn write_snapshot(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let mut snap = Writer::new(SNAPSHOT.at(self.version), "Snapshot", out)?;
        snap.put("epoch", ValueRef::U64(self.epoch))?;
        snap.put("zxid", ValueRef::U64(self.zxid))?;
        for (k, v) in &self.data {
            snap.message("entries", |entry| {
                entry.put("key", ValueRef::Str(k))?;
                entry.put("value", ValueRef::Str(v))?;
                Ok(())
            })?;
        }
        if self.version >= V3_6 {
            snap.put("checkpoint_id", ValueRef::U64(self.zxid + 1))?;
        }
        snap.finish()
    }

    fn load_snapshot(&mut self, ctx: &mut Ctx<'_>) -> Result<(), Fatal> {
        let Some(bytes) = ctx.storage_ref().read("snapshot") else {
            return Ok(());
        };
        let frame = Frame::decode(bytes)
            .map_err(|e| Fatal::new(format!("corrupt snapshot container: {e}")))?;
        // MESOS-3834 shape: the new version assumes every checkpoint has the
        // id field; old checkpoints do not.
        let (epoch, zxid, entries) = read_snapshot(SNAPSHOT.at(self.version), &frame.body)
            .map_err(|e| Fatal::new(format!("cannot load checkpoint: {e}")))?;
        self.epoch = epoch;
        self.zxid = zxid;
        self.data.extend(entries);
        Ok(())
    }

    fn handle_client(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, text: &str) {
        const NO_LEADER: Bytes = Bytes::from_static(b"ERR no leader elected");
        let reply = if let Some(reason) = &self.wedged {
            format_reply(format_args!("ERR leader election failed: {reason}"))
        } else {
            let mut words = [""; 3];
            match split_words(text, &mut words) {
                ["HEALTH"] => match self.leader {
                    Some(_) => Bytes::from_static(b"OK healthy"),
                    None => NO_LEADER,
                },
                ["STAT"] => {
                    let leader: &dyn std::fmt::Display = match &self.leader {
                        Some(l) => l,
                        None => &"none",
                    };
                    let (epoch, zxid) = (self.epoch, self.zxid);
                    format_reply(format_args!("OK leader={leader} epoch={epoch} zxid={zxid}"))
                }
                ["SET", k, v] => {
                    if self.leader.is_none() {
                        NO_LEADER
                    } else {
                        self.zxid += 1;
                        self.data.insert(k.to_string(), v.to_string());
                        Bytes::from_static(b"OK")
                    }
                }
                ["GET", k] => match self.data.get(*k) {
                    Some(v) => format_reply(format_args!("OK {v}")),
                    None => Bytes::from_static(b"ERR not found"),
                },
                _ => format_reply(format_args!("ERR unknown command '{text}'")),
            }
        };
        ctx.send(from, reply);
    }
}

impl Process for CoordNode {
    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.clone()))
    }

    fn restore_from(&mut self, src: &dyn Process) -> bool {
        restore_clone(self, src)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        self.load_snapshot(ctx)?;
        ctx.info(format!(
            "coord node {} started (epoch {})",
            self.version, self.epoch
        ));
        self.start_election(ctx);
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
                        ctx.warn(format!("unparseable frame from node-{n}: {e}"));
                        return Ok(());
                    }
                };
                match frame.kind {
                    "vote" => {
                        let Ok(v) = read_vote(self.version, &frame.body) else {
                            ctx.warn(format!("malformed vote from node-{n}"));
                            return Ok(());
                        };
                        if self.in_election && self.wedged.is_none() {
                            self.peer_votes.insert(n, v);
                            if self.peer_votes.len() >= self.setup.peers().count() {
                                self.evaluate_election(ctx);
                            }
                        } else {
                            // Settled (or wedged) nodes echo their vote so a
                            // restarting peer can tally.
                            ctx.send(Endpoint::Node(n), self.vote_frame());
                        }
                        Ok(())
                    }
                    "ping" => {
                        self.last_leader_ping = ctx.now();
                        Ok(())
                    }
                    other => {
                        ctx.warn(format!("unknown message kind '{other}' from node-{n}"));
                        Ok(())
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> StepResult {
        match token {
            TOKEN_ELECTION => {
                if let Some(reason) = self.wedged.clone() {
                    ctx.error(format!("leader election still failing: {reason}"));
                    // Keep retrying — and keep failing while the cluster is
                    // mixed-version, like the real bug. Once every peer runs
                    // the same release the echoes agree and the retry
                    // finally succeeds.
                    self.wedged = None;
                    self.start_election(ctx);
                } else if self.in_election {
                    if !self.peer_votes.is_empty() {
                        self.evaluate_election(ctx);
                        if self.in_election || self.wedged.is_some() {
                            ctx.set_timer(ELECTION_TICK, TOKEN_ELECTION);
                        }
                    } else {
                        self.broadcast(ctx, self.vote_frame());
                        ctx.set_timer(ELECTION_TICK, TOKEN_ELECTION);
                    }
                }
            }
            TOKEN_LEADER_PING if self.leader == Some(self.setup.index) => {
                self.broadcast(ctx, Frame::new(1, "ping", Vec::new()).encode());
                ctx.set_timer(PING_INTERVAL, TOKEN_LEADER_PING);
            }
            TOKEN_PING_CHECK => {
                if let Some(leader) = self.leader {
                    if leader != self.setup.index
                        && ctx.now().since(self.last_leader_ping) > PING_TIMEOUT
                    {
                        ctx.warn(format!("leader node-{leader} unreachable; re-electing"));
                        self.start_election(ctx);
                        return Ok(());
                    }
                    ctx.set_timer(PING_TIMEOUT, TOKEN_PING_CHECK);
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn on_shutdown(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        self.snapshot(ctx)?;
        ctx.info("coord node snapshotted and shut down");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_simnet::{FaultKind, FaultPlan, Sim};
    use dup_wire::{proto, MessageValue, Value};

    fn v(s: &str) -> VersionId {
        s.parse().unwrap()
    }

    /// The vote and the snapshot as they were built before the streaming
    /// writer: value trees handed to `proto::encode`. Kept as the oracles
    /// for the bytes.
    fn tree_vote(node: &CoordNode) -> Vec<u8> {
        let (e, z, n) = node.cast_vote();
        let vote = MessageValue::new("Vote")
            .set("node", Value::U32(n))
            .set("peer_epoch", Value::U64(e))
            .set("zxid", Value::U64(z));
        proto::encode(VOTE.at(node.version), &vote).unwrap()
    }

    fn tree_snapshot(node: &CoordNode) -> Vec<u8> {
        let mut snap = MessageValue::new("Snapshot")
            .set("epoch", Value::U64(node.epoch))
            .set("zxid", Value::U64(node.zxid));
        if node.version >= VersionId::new(3, 6, 0) {
            snap.put("checkpoint_id", Value::U64(node.zxid + 1));
        }
        for (k, v) in &node.data {
            let entry = MessageValue::new("Entry")
                .set("key", Value::Str(k.clone()))
                .set("value", Value::Str(v.clone()));
            snap.push_mut("entries", Value::Msg(entry));
        }
        proto::encode(SNAPSHOT.at(node.version), &snap).unwrap()
    }

    #[test]
    fn streamed_votes_and_snapshots_equal_the_tree_encoders() {
        for version in crate::CoordSystem::release_history() {
            let mut node = CoordNode::new(version, NodeSetup::new(2, 3));
            for entries in [0, 1, 50] {
                node.epoch = 3 + entries;
                node.zxid = entries * 1_000_000;
                node.in_election = entries == 1;
                node.round_vote = (9, 8, 1);
                node.data = (0..entries)
                    .map(|i| (format!("/k{i}"), "v".repeat(i as usize * 7)))
                    .collect();

                let vote = node.vote_frame();
                let body = tree_vote(&node);
                assert_eq!(vote[..], Frame::new(1, "vote", &body[..]).encode()[..]);
                assert_eq!(read_vote(version, &body), Ok(node.cast_vote()));

                let mut snapshot = Vec::new();
                node.write_snapshot(&mut snapshot).unwrap();
                assert_eq!(snapshot, tree_snapshot(&node), "{version}");
                let (epoch, zxid, read) = read_snapshot(SNAPSHOT.at(version), &snapshot).unwrap();
                assert_eq!((epoch, zxid), (node.epoch, node.zxid));
                assert_eq!(read, node.data.clone().into_iter().collect::<Vec<_>>());
            }
        }
    }

    fn boot(sim: &mut Sim, version: VersionId, n: u32) -> Vec<u32> {
        let mut ids = Vec::new();
        for i in 0..n {
            let id = sim.add_node(
                &format!("coord-host-{i}"),
                &version.to_string(),
                Box::new(CoordNode::new(version, NodeSetup::new(i, n))),
            );
            sim.start_node(id).unwrap();
            ids.push(id);
        }
        sim.run_for(SimDuration::from_secs(2));
        ids
    }

    fn cmd(sim: &mut Sim, node: u32, text: &str) -> String {
        sim.rpc(
            node,
            text.as_bytes().to_vec().into(),
            SimDuration::from_secs(2),
        )
        .map(|b| String::from_utf8_lossy(&b).into_owned())
        .unwrap_or_else(|| "TIMEOUT".to_string())
    }

    fn upgrade(sim: &mut Sim, idx: u32, to: &str, n: u32) {
        sim.stop_node(idx).unwrap();
        sim.install(
            idx,
            to,
            Box::new(CoordNode::new(v(to), NodeSetup::new(idx, n))),
        )
        .unwrap();
        sim.start_node(idx).unwrap();
    }

    /// Sends each `(node, command, reply)` row in order and demands the
    /// reply's exact bytes.
    fn assert_replies(sim: &mut Sim, table: &[(u32, &[u8], &str)]) {
        for &(node, command, reply) in table {
            let got = sim.rpc(
                node,
                Bytes::copy_from_slice(command),
                SimDuration::from_secs(2),
            );
            assert!(
                got.as_deref() == Some(reply.as_bytes()),
                "node {node} <- {:?}: got {:?}, want {reply:?}",
                String::from_utf8_lossy(command),
                got.as_deref().map(String::from_utf8_lossy)
            );
        }
    }

    /// Every command shape a node answers, with its exact reply — with a
    /// leader elected and without one — and the files they leave behind.
    #[test]
    fn client_replies_are_pinned() {
        let unknown = |c: &str| format!("ERR unknown command '{c}'");
        let too_many = "SET k v a b c d";
        let mut sim = Sim::new(11);
        assert_eq!(boot(&mut sim, v("3.6.0"), 3), [0, 1, 2]);
        let table: &[(u32, &[u8], &str)] = &[
            (0, b"HEALTH", "OK healthy"),
            (1, b"  HEALTH\t", "OK healthy"),
            (2, "HEALTH\u{3000}".as_bytes(), "OK healthy"),
            (0, b"HEALTH now", &unknown("HEALTH now")),
            (0, b"", &unknown("")),
            (0, b"HEA\xffLTH", &unknown("HEA\u{fffd}LTH")),
            (0, b"STAT", "OK leader=2 epoch=1 zxid=0"),
            (0, b"STAT now", &unknown("STAT now")),
            (0, b"SET", &unknown("SET")),
            (0, b"SET k", &unknown("SET k")),
            (0, b"SET k v", "OK"),
            (0, "SET\u{3000}k2\t\tv2".as_bytes(), "OK"),
            (0, b"SET k\xff v3", "OK"),
            (0, b"SET k v w", &unknown("SET k v w")),
            (0, too_many.as_bytes(), &unknown(too_many)),
            (0, b"GET k", "OK v"),
            (0, b" GET  k2 ", "OK v2"),
            (0, b"GET k\xff", "OK v3"),
            (0, b"GET nope", "ERR not found"),
            (0, b"GET", &unknown("GET")),
            (0, b"GET k v", &unknown("GET k v")),
            (0, b"STAT", "OK leader=2 epoch=1 zxid=3"),
            (1, b"GET k", "ERR not found"),
        ];
        assert_replies(&mut sim, table);
        let host = sim.host_id("coord-host-0");
        assert!(sim.host_storage_by_id(host).list("").is_empty());

        // A lone node never completes an election.
        let mut sim = Sim::new(12);
        assert_eq!(boot(&mut sim, v("3.6.0"), 1), [0]);
        let table: &[(u32, &[u8], &str)] = &[
            (0, b"STAT", "OK leader=none epoch=1 zxid=0"),
            (0, b"HEALTH", "ERR no leader elected"),
            (0, b"SET k v", "ERR no leader elected"),
            (0, b"GET k", "ERR not found"),
            (0, b"STAT now", &unknown("STAT now")),
        ];
        assert_replies(&mut sim, table);
        let host = sim.host_id("coord-host-0");
        assert!(sim.host_storage_by_id(host).list("").is_empty());
    }

    #[test]
    fn cluster_elects_a_leader_and_serves() {
        let mut sim = Sim::new(1);
        let ids = boot(&mut sim, v("3.4.0"), 3);
        assert_eq!(cmd(&mut sim, ids[0], "HEALTH"), "OK healthy");
        assert_eq!(cmd(&mut sim, ids[1], "SET k v"), "OK");
        assert_eq!(cmd(&mut sim, ids[1], "GET k"), "OK v");
        // All nodes agree on the same leader.
        let stat0 = cmd(&mut sim, ids[0], "STAT");
        let stat2 = cmd(&mut sim, ids[2], "STAT");
        assert_eq!(
            stat0.split_whitespace().nth(1),
            stat2.split_whitespace().nth(1),
            "{stat0} vs {stat2}"
        );
    }

    #[test]
    fn zookeeper_1805_mid_upgrade_node_wedges_on_mixed_epochs() {
        let mut sim = Sim::new(2);
        let ids = boot(&mut sim, v("3.4.0"), 3);
        // Rolling upgrade: node 0 first — it tallies echoes from two 3.4
        // peers (consistent) and settles.
        upgrade(&mut sim, ids[0], "3.5.0", 3);
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(cmd(&mut sim, ids[0], "HEALTH"), "OK healthy");
        // Node 1 next: it receives peerEpoch e+1 from node 0 (3.5) and
        // peerEpoch e from node 2 (3.4) — the strict check wedges it.
        upgrade(&mut sim, ids[1], "3.5.0", 3);
        sim.run_for(SimDuration::from_secs(3));
        // The node oscillates between "wedged" and "retrying the election";
        // either way it cannot serve.
        let resp = cmd(&mut sim, ids[1], "HEALTH");
        assert!(resp.starts_with("ERR"), "got {resp}");
        assert!(sim.logs().matching("inconsistent peerEpoch").count() >= 1);
        // Finishing the rolling upgrade heals the cluster: once node 2 runs
        // 3.5 too, the wedged node's retry sees consistent peerEpochs.
        upgrade(&mut sim, ids[2], "3.5.0", 3);
        sim.run_for(SimDuration::from_secs(4));
        assert_eq!(cmd(&mut sim, ids[1], "HEALTH"), "OK healthy");
    }

    #[test]
    fn full_stop_3_4_to_3_5_is_clean() {
        let mut sim = Sim::new(3);
        let ids = boot(&mut sim, v("3.4.0"), 3);
        cmd(&mut sim, ids[0], "SET a 1");
        for &id in &ids {
            sim.stop_node(id).unwrap();
        }
        for &id in &ids {
            upgrade(&mut sim, id, "3.5.0", 3);
        }
        sim.run_for(SimDuration::from_secs(3));
        for &id in &ids {
            assert_eq!(cmd(&mut sim, id, "HEALTH"), "OK healthy");
        }
        assert_eq!(cmd(&mut sim, ids[0], "GET a"), "OK 1");
    }

    #[test]
    fn mesos_3834_shape_checkpoint_missing_id_crashes_3_6() {
        let mut sim = Sim::new(4);
        let ids = boot(&mut sim, v("3.5.0"), 3);
        cmd(&mut sim, ids[0], "SET a 1");
        for &id in &ids {
            sim.stop_node(id).unwrap();
        }
        for &id in &ids {
            upgrade(&mut sim, id, "3.6.0", 3);
        }
        sim.run_for(SimDuration::from_secs(1));
        // Every node crashes: the checkpoint has no checkpoint_id.
        assert_eq!(sim.crashed_nodes().len(), 3);
        assert!(sim.crash_reason(ids[0]).unwrap().contains("checkpoint_id"));
    }

    #[test]
    fn fresh_3_6_cluster_is_fine() {
        let mut sim = Sim::new(5);
        let ids = boot(&mut sim, v("3.6.0"), 3);
        assert_eq!(cmd(&mut sim, ids[0], "HEALTH"), "OK healthy");
        // And a 3.6 restart reads its own checkpoint fine.
        upgrade(&mut sim, ids[0], "3.6.0", 3);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(cmd(&mut sim, ids[0], "HEALTH"), "OK healthy");
    }

    #[test]
    fn leader_failover_after_kill() {
        let mut sim = Sim::new(6);
        let ids = boot(&mut sim, v("3.6.0"), 3);
        let stat = cmd(&mut sim, ids[0], "STAT");
        let leader: u32 = stat
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.strip_prefix("leader="))
            .and_then(|s| s.parse().ok())
            .unwrap();
        sim.install_fault_plan(FaultPlan::new(6).schedule(sim.now(), FaultKind::Crash(leader)));
        sim.run_for(SimDuration::from_secs(5));
        assert!(sim.is_fault_crashed(leader));
        let other = ids.iter().copied().find(|&i| i != leader).unwrap();
        assert_eq!(cmd(&mut sim, other, "HEALTH"), "OK healthy");
    }
}
