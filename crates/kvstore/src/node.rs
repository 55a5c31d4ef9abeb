//! The versioned key-value store node.
//!
//! One `KvNode` type implements every release; behaviour differences between
//! releases — including the seeded upgrade bugs — branch on the version,
//! mirroring how the real bugs live in version-to-version diffs. See the
//! crate docs for the bug catalog.

use crate::codec::{self, commitlog_format, proto_version, release_id, KeyspaceDef, SchemaState};
use bytes::Bytes;
use dup_core::{format_reply, split_words, NodeSetup, VersionId};
use dup_simnet::{restore_clone, Ctx, Endpoint, Fatal, LogLevel, Process, SimDuration, StepResult};
use dup_wire::Frame;
use std::collections::BTreeMap;

const TOKEN_GOSSIP: u64 = 1;
const TOKEN_STUCK_RETRY: u64 = 2;
const GOSSIP_INTERVAL: SimDuration = SimDuration::from_millis(500);
const STUCK_RETRY_INTERVAL: SimDuration = SimDuration::from_millis(300);

/// Replication strategies each release understands (4.0 dropped
/// `OldNetworkTopologyStrategy` — the CASSANDRA-16301 mechanism).
fn known_strategies(v: VersionId) -> &'static [&'static str] {
    if v.major >= 4 {
        &["SimpleStrategy", "NetworkTopologyStrategy"]
    } else {
        &[
            "SimpleStrategy",
            "NetworkTopologyStrategy",
            "OldNetworkTopologyStrategy",
        ]
    }
}

/// A node of the mini Cassandra-like store.
#[derive(Clone)]
pub struct KvNode {
    version: VersionId,
    proto: u32,
    setup: NodeSetup,
    state: SchemaState,
    peer_versions: BTreeMap<u32, u32>,
    stuck: Option<String>,
    /// 3.11 only: system tables were regenerated at upgrade; serving a
    /// schema pull re-regenerates them with a fresh timestamp — the
    /// CASSANDRA-13441 migration-storm bug.
    system_tables_dirty: bool,
    /// Set while a schema pull is outstanding; migrations are debounced so a
    /// node has at most one pull in flight (as real Cassandra does — the
    /// 13441 storm is a *sustained* flood, not an exponential one).
    pull_inflight_since: Option<dup_simnet::SimTime>,
    boot_counter: u64,
    /// `commitlog/seg-b{boot_counter}`: the segment this boot appends to.
    commitlog: String,
}

impl KvNode {
    /// Creates a node of `version`.
    pub fn new(version: VersionId, setup: NodeSetup) -> Self {
        KvNode {
            version,
            proto: proto_version(version),
            setup,
            state: SchemaState::default(),
            peer_versions: BTreeMap::new(),
            stuck: None,
            system_tables_dirty: false,
            pull_inflight_since: None,
            boot_counter: 0,
            commitlog: String::new(),
        }
    }

    fn is_storm_buggy(&self) -> bool {
        self.version.major == 3 && self.version.minor == 11
    }

    fn checks_version_before_pull(&self) -> bool {
        self.proto >= 8 // Fixed in 2.1 by putting the version in the gossip.
    }

    /// Starts an outgoing frame of `kind`; the body is appended in place.
    fn frame(&self, kind: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        Frame::header(self.proto, kind, &mut out);
        out
    }

    /// Sends one encoded frame to every peer.
    fn broadcast(&self, ctx: &mut Ctx<'_>, frame: Vec<u8>) {
        let bytes = Bytes::from(frame);
        for peer in self.setup.peers() {
            ctx.send(Endpoint::Node(peer), bytes.clone());
        }
    }

    fn broadcast_gossip(&self, ctx: &mut Ctx<'_>) {
        let mut frame = self.frame("gossip");
        codec::write_gossip(
            self.version,
            self.boot_counter,
            self.state.timestamp,
            &mut frame,
        )
        .expect("own gossip digest always encodes");
        self.broadcast(ctx, frame);
    }

    fn persist_schema(&self, ctx: &mut Ctx<'_>) {
        let bytes = codec::encode_schema_state(self.version, &self.state)
            .expect("own schema state always encodes");
        ctx.storage().write("schema", bytes);
        // Schema commits are fsynced: losing one to a crash would fake a
        // data-loss bug no real release has.
        ctx.flush("schema");
    }

    fn wedge(&mut self, ctx: &mut Ctx<'_>, reason: String) {
        ctx.error(format!("schema migration wedged: {reason}"));
        if self.stuck.is_none() {
            ctx.set_timer(STUCK_RETRY_INTERVAL, TOKEN_STUCK_RETRY);
        }
        self.stuck = Some(reason);
    }

    fn validate_loaded_schema(&self) -> Result<(), Fatal> {
        // CASSANDRA-16292 shape: 3.11+ cannot load keyspace tombstones
        // written by 3.0's DROP KEYSPACE.
        if release_id(self.version) >= 31_100 {
            if let Some(ks) = self.state.keyspaces.iter().find(|k| k.dropped) {
                return Err(Fatal::new(format!(
                    "unexpected tombstone for dropped keyspace '{}' in schema; \
                     prepared-statement cache is missing",
                    ks.name
                )));
            }
        }
        // CASSANDRA-16301: 4.0 removed OldNetworkTopologyStrategy.
        if let Some(ks) = self
            .state
            .keyspaces
            .iter()
            .find(|k| !known_strategies(self.version).contains(&k.strategy.as_str()))
        {
            return Err(Fatal::new(format!(
                "unable to find replication strategy class '{}' for keyspace '{}'",
                ks.strategy, ks.name
            )));
        }
        Ok(())
    }

    fn handle_gossip(&mut self, ctx: &mut Ctx<'_>, from: u32, frame: &Frame<'_>) -> StepResult {
        let decoded = codec::decode_gossip(self.version, &frame.body).or_else(|e| {
            if frame.version < self.proto {
                // Newer releases ship a legacy deserializer for older gossip.
                codec::decode_gossip(VersionId::new(1, 1, 0), &frame.body)
            } else {
                Err(e)
            }
        });
        let digest = match decoded {
            Ok(d) => d,
            Err(e) => {
                // CASSANDRA-4195: the old node cannot parse the new node's
                // ApplicationState and wedges in schema migration.
                self.wedge(
                    ctx,
                    format!("cannot deserialize gossip ApplicationState from node-{from}: {e}"),
                );
                return Ok(());
            }
        };
        if let Some(pv) = digest.proto_version {
            self.peer_versions.insert(from, pv);
        }
        if digest.schema_ts > self.state.timestamp && self.stuck.is_none() {
            let peer_proto = self.peer_versions.get(&from).copied();
            let should_pull = if self.checks_version_before_pull() {
                // Fixed behaviour: only pull from same-version peers, and the
                // version is always known because gossip carries it.
                peer_proto == Some(self.proto)
            } else {
                // Buggy behaviour (≤2.0): check the MessagingService-learned
                // version, but *assume same version when unknown* — the
                // CASSANDRA-6678 race.
                match peer_proto {
                    Some(pv) => pv == self.proto,
                    None => true,
                }
            };
            let debounced = self
                .pull_inflight_since
                .is_some_and(|since| ctx.now().since(since) < SimDuration::from_millis(500));
            if should_pull && !debounced {
                self.pull_inflight_since = Some(ctx.now());
                ctx.send(
                    Endpoint::Node(from),
                    Frame::new(self.proto, "schema_pull", Vec::new()).encode(),
                );
            } else if !should_pull {
                ctx.log(
                    LogLevel::Debug,
                    format!("skipping schema pull from node-{from} (different version)"),
                );
            }
        }
        Ok(())
    }

    fn handle_schema_push(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: u32,
        frame: &Frame<'_>,
    ) -> StepResult {
        self.pull_inflight_since = None;
        let decoded = codec::decode_schema_state(self.version, &frame.body);
        let decoded = match decoded {
            Ok(d) => d,
            Err(e) => {
                // The 1.2-pulled-2.0-schema aftermath of CASSANDRA-6678.
                self.wedge(
                    ctx,
                    format!("cannot apply schema migrated from node-{from}: {e}"),
                );
                return Ok(());
            }
        };
        if decoded.writer_proto() > self.proto && self.checks_version_before_pull() {
            ctx.warn(format!(
                "ignoring schema push from newer-version node-{from}"
            ));
            return Ok(());
        }
        self.state = decoded.state;
        // 3.11+ tombstone intolerance also fires on migration apply.
        self.validate_loaded_schema()?;
        self.persist_schema(ctx);
        ctx.info(format!(
            "applied schema migration from node-{from} (ts {})",
            self.state.timestamp
        ));
        self.broadcast_gossip(ctx);
        Ok(())
    }

    fn execute_command(&mut self, ctx: &mut Ctx<'_>, text: &str) -> Bytes {
        if let Some(reason) = &self.stuck {
            return format_reply(format_args!("ERR node wedged: {reason}"));
        }
        let mut words = [""; 4];
        match split_words(text, &mut words) {
            ["HEALTH"] => Bytes::from_static(b"OK healthy"),
            ["PUT", table, key, value] => self.cmd_put(ctx, table, key, value),
            ["GET", table, key] => self.cmd_get(ctx, table, key),
            ["CREATE_KS", name] => self.cmd_create_ks(ctx, name, "SimpleStrategy"),
            ["CREATE_KS", name, strategy] => self.cmd_create_ks(ctx, name, strategy),
            ["CREATE_TABLE", table] => self.cmd_create_table(ctx, table, false),
            ["CREATE_TABLE", table, "COMPACT"] => self.cmd_create_table(ctx, table, true),
            ["DROP_KS", name] => self.cmd_drop_ks(ctx, name),
            ["TRACE", "ON"] => {
                let r = self.cmd_create_ks(ctx, "system_traces", "SimpleStrategy");
                if r.starts_with(b"ERR") {
                    return r;
                }
                self.cmd_create_table(ctx, "system_traces.events", false)
            }
            _ => format_reply(format_args!("ERR unknown command '{text}'")),
        }
    }

    fn split_table(name: &str) -> Option<(&str, &str)> {
        name.split_once('.')
    }

    fn cmd_put(&mut self, ctx: &mut Ctx<'_>, table: &str, key: &str, value: &str) -> Bytes {
        let Some((ks, t)) = Self::split_table(table) else {
            return format_reply(format_args!("ERR bad table name '{table}'"));
        };
        if !self.state.has_table(ks, t) {
            return format_reply(format_args!("ERR unknown table {table}"));
        }
        let row = codec::encode_row(self.version, value);
        ctx.storage().write(&format!("data/{table}/{key}"), row);
        ctx.storage().append(&self.commitlog, value.as_bytes());
        Bytes::from_static(b"OK")
    }

    fn cmd_get(&mut self, ctx: &mut Ctx<'_>, table: &str, key: &str) -> Bytes {
        let Some((ks, t)) = Self::split_table(table) else {
            return format_reply(format_args!("ERR bad table name '{table}'"));
        };
        if !self.state.has_table(ks, t) {
            return format_reply(format_args!("ERR unknown table {table}"));
        }
        let Some(bytes) = ctx.storage_ref().read(&format!("data/{table}/{key}")) else {
            return Bytes::from_static(b"ERR not found");
        };
        match codec::decode_row(self.version, bytes) {
            Ok(v) => format_reply(format_args!("OK {v}")),
            Err(e) => {
                // CASSANDRA-16257 shape: 2.1+ cannot read pre-2.1 rows.
                ctx.error(format!("corrupt sstable row for {table}/{key}: {e}"));
                format_reply(format_args!("ERR corrupt sstable row: {e}"))
            }
        }
    }

    fn cmd_create_ks(&mut self, ctx: &mut Ctx<'_>, name: &str, strategy: &str) -> Bytes {
        if !known_strategies(self.version).contains(&strategy) {
            return format_reply(format_args!(
                "ERR unknown replication strategy '{strategy}'"
            ));
        }
        if let Some(ks) = self.state.keyspace_mut(name) {
            if ks.dropped {
                ks.dropped = false;
                ks.tables.clear();
            }
            return Bytes::from_static(b"OK");
        }
        self.state.keyspaces.push(KeyspaceDef {
            name: name.to_string(),
            strategy: strategy.to_string(),
            dropped: false,
            tables: Vec::new(),
        });
        self.schema_changed(ctx);
        Bytes::from_static(b"OK")
    }

    fn cmd_create_table(&mut self, ctx: &mut Ctx<'_>, table: &str, compact: bool) -> Bytes {
        let Some((ks, t)) = Self::split_table(table) else {
            return format_reply(format_args!("ERR bad table name '{table}'"));
        };
        let Some(def) = self.state.keyspace_mut(ks) else {
            return format_reply(format_args!("ERR unknown keyspace {ks}"));
        };
        if def.dropped {
            return format_reply(format_args!("ERR keyspace {ks} was dropped"));
        }
        if !def.tables.iter().any(|(name, _)| name == t) {
            def.tables.push((t.to_string(), compact));
            self.schema_changed(ctx);
        }
        Bytes::from_static(b"OK")
    }

    fn cmd_drop_ks(&mut self, ctx: &mut Ctx<'_>, name: &str) -> Bytes {
        let tombstones = self.proto >= 10; // 3.0 introduced schema tombstones.
        match self.state.keyspace_mut(name) {
            Some(ks) if tombstones => {
                ks.dropped = true;
                ks.tables.clear();
            }
            Some(_) => {
                self.state.keyspaces.retain(|k| k.name != name);
            }
            None => return format_reply(format_args!("ERR unknown keyspace {name}")),
        }
        self.schema_changed(ctx);
        Bytes::from_static(b"OK")
    }

    fn schema_changed(&mut self, ctx: &mut Ctx<'_>) {
        self.state.timestamp += 1;
        self.persist_schema(ctx);
        self.broadcast_gossip(ctx);
    }
}

impl Process for KvNode {
    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.clone()))
    }

    fn restore_from(&mut self, src: &dyn Process) -> bool {
        restore_clone(self, src)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        // 1. Replay the commit log; segments from a *newer* format are fatal
        //    (this is what stops the CASSANDRA-15794 downgrade).
        let own_cl = commitlog_format(self.version);
        // Storage is borrowed while the segments are walked, so what the
        // walk wants logged is emitted after it, in the same order.
        let mut torn = Vec::new();
        let mut unreadable = None;
        let mut segments = 0;
        let storage = ctx.storage_ref();
        for seg in storage.paths("commitlog/") {
            segments += 1;
            let bytes = storage.read(seg).expect("listed file exists");
            let seg_fmt: u32 = match Frame::decode(bytes) {
                Ok(header) => header.kind.parse().unwrap_or(0),
                Err(e) => {
                    // A torn tail from a mid-write crash is expected under
                    // buffered durability; real commit log replay skips the
                    // truncated remainder rather than refusing to boot.
                    torn.push(format!("skipping torn commit log segment {seg}: {e}"));
                    continue;
                }
            };
            if seg_fmt > own_cl {
                unreadable = Some(Fatal::new(format!(
                    "cannot replay commit log segment {seg}: unknown format {seg_fmt} \
                     (this node supports up to {own_cl})"
                )));
                break;
            }
        }
        for warning in torn {
            ctx.warn(warning);
        }
        if let Some(fatal) = unreadable {
            return Err(fatal);
        }
        self.boot_counter = segments + 1;
        self.commitlog = format!("commitlog/seg-b{}", self.boot_counter);

        // 2. CASSANDRA-15794's trap: 4.0 writes its new-format commit log
        //    header *before* validating the schema, poisoning downgrades.
        if self.version.major >= 4 {
            ctx.storage().write(
                &self.commitlog,
                Frame::new(self.proto, &own_cl.to_string(), Vec::new()).encode_to_vec(),
            );
            // The header hits disk immediately — that is what poisons the
            // downgrade even when the boot aborts a moment later.
            ctx.flush(&self.commitlog);
        }

        // 3. Load the schema file left by the previous generation.
        match ctx.storage_ref().read("schema") {
            Some(bytes) => {
                let own_release = release_id(self.version);
                let decoded = codec::decode_schema_state(self.version, bytes)
                    .map_err(|e| Fatal::new(format!("cannot load schema file: {e}")))?;
                let writer_release = decoded.writer_release;
                self.state = decoded.state;
                if writer_release < own_release {
                    ctx.info(format!(
                        "upgrading schema written by release {writer_release} to {own_release}"
                    ));
                    if self.proto >= 7 {
                        // 2.0+ regenerate system tables on upgrade, bumping
                        // the schema timestamp (feeds 6678 and 13441).
                        self.state.timestamp += 1;
                    }
                    if self.is_storm_buggy() {
                        self.system_tables_dirty = true;
                    }
                }
            }
            None => {
                self.state = SchemaState {
                    timestamp: 1,
                    keyspaces: Vec::new(),
                };
            }
        }
        self.validate_loaded_schema()?;

        // CASSANDRA-15794 proper: 4.0 refuses COMPACT STORAGE tables — after
        // having already written its commit log header above.
        if self.version.major >= 4 {
            if let Some((ks, t)) = self.state.keyspaces.iter().find_map(|k| {
                k.tables
                    .iter()
                    .find(|(_, c)| *c)
                    .map(|(t, _)| (k.name.clone(), t.clone()))
            }) {
                return Err(Fatal::new(format!(
                    "Compact Tables are not allowed in Cassandra starting with 4.0: {ks}.{t}"
                )));
            }
        }

        // 4. Pre-4.0 releases write their commit log marker after validation.
        if self.version.major < 4 {
            ctx.storage().write(
                &self.commitlog,
                Frame::new(self.proto, &own_cl.to_string(), Vec::new()).encode_to_vec(),
            );
            ctx.flush(&self.commitlog);
        }

        self.persist_schema(ctx);
        ctx.info(format!(
            "kvstore {} started (proto {})",
            self.version, self.proto
        ));

        // 5. Handshake + immediate gossip. Both go out in the same tick, so
        //    their arrival order at each peer depends on network jitter —
        //    the CASSANDRA-6678 race window.
        let mut hs = self.frame("handshake");
        codec::write_handshake(self.version, &mut hs).expect("handshake always encodes");
        self.broadcast(ctx, hs);
        self.broadcast_gossip(ctx);
        ctx.set_timer(GOSSIP_INTERVAL, TOKEN_GOSSIP);
        Ok(())
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, payload: &[u8]) -> StepResult {
        match from {
            Endpoint::Client(_) => {
                let reply = self.execute_command(ctx, &String::from_utf8_lossy(payload));
                ctx.send(from, reply);
                Ok(())
            }
            Endpoint::Node(n) => {
                let frame = match Frame::decode(payload) {
                    Ok(f) => f,
                    Err(e) => {
                        ctx.warn(format!("dropping unparseable frame from node-{n}: {e}"));
                        return Ok(());
                    }
                };
                match frame.kind {
                    "handshake" => {
                        if let Ok(Some(pv)) = codec::decode_handshake(&frame.body) {
                            self.peer_versions.insert(n, pv);
                        }
                        Ok(())
                    }
                    "gossip" => self.handle_gossip(ctx, n, &frame),
                    "schema_pull" => {
                        let mut push = self.frame("schema_push");
                        codec::write_schema_state(self.version, &self.state, &mut push)
                            .expect("own schema always encodes");
                        ctx.send(Endpoint::Node(n), Bytes::from(push));
                        if self.system_tables_dirty {
                            // CASSANDRA-13441: serving a pull re-regenerates
                            // the upgraded system tables with a *fresh*
                            // timestamp — newer than what was just pushed —
                            // so the migration never converges.
                            self.state.timestamp += 1;
                            self.persist_schema(ctx);
                            self.broadcast_gossip(ctx);
                        }
                        Ok(())
                    }
                    "schema_push" => self.handle_schema_push(ctx, n, &frame),
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
            TOKEN_GOSSIP => {
                if self.stuck.is_none() {
                    self.broadcast_gossip(ctx);
                }
                // Periodic-sync commit log: everything buffered since the
                // last tick becomes durable here, so only the most recent
                // appends are exposed to torn-tail crashes.
                ctx.flush_all();
                ctx.set_timer(GOSSIP_INTERVAL, TOKEN_GOSSIP);
            }
            TOKEN_STUCK_RETRY => {
                if let Some(reason) = self.stuck.clone() {
                    ctx.error(format!("schema migration still pending: {reason}"));
                    ctx.set_timer(STUCK_RETRY_INTERVAL, TOKEN_STUCK_RETRY);
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn on_shutdown(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        self.persist_schema(ctx);
        ctx.info("kvstore shutting down cleanly");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_simnet::{Sim, SimDuration};

    fn v(s: &str) -> VersionId {
        s.parse().unwrap()
    }

    fn boot_cluster(sim: &mut Sim, version: VersionId, n: u32) -> Vec<u32> {
        let mut ids = Vec::new();
        for i in 0..n {
            let node = KvNode::new(version, NodeSetup::new(i, n));
            let id = sim.add_node(
                &format!("kv-host-{i}"),
                &version.to_string(),
                Box::new(node),
            );
            sim.start_node(id).unwrap();
            ids.push(id);
        }
        sim.run_for(SimDuration::from_millis(100));
        ids
    }

    fn cmd(sim: &mut Sim, node: u32, text: &str) -> String {
        let resp = sim
            .rpc(
                node,
                text.as_bytes().to_vec().into(),
                SimDuration::from_secs(2),
            )
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .unwrap_or_else(|| "TIMEOUT".to_string());
        resp
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

    /// Every command shape a node answers, with its exact reply, and the
    /// files those commands leave behind.
    #[test]
    fn client_replies_are_pinned() {
        let mut sim = Sim::new(11);
        assert_eq!(boot_cluster(&mut sim, v("4.0.0"), 1), [0]);
        let unknown = |c: &str| format!("ERR unknown command '{c}'");
        let too_many = "PUT ks.t k v w x y";
        let table: &[(u32, &[u8], &str)] = &[
            (0, b"HEALTH", "OK healthy"),
            (0, b"  HEALTH\t", "OK healthy"),
            (0, "HEALTH\u{3000}".as_bytes(), "OK healthy"),
            (0, b"HEALTH now", &unknown("HEALTH now")),
            (0, b"", &unknown("")),
            (0, b"HEA\xffLTH", &unknown("HEA\u{fffd}LTH")),
            (0, b"CREATE_KS", &unknown("CREATE_KS")),
            (0, b"CREATE_KS ks", "OK"),
            (0, b"CREATE_KS\tks2  SimpleStrategy", "OK"),
            (
                0,
                b"CREATE_KS ks3 Bogus",
                "ERR unknown replication strategy 'Bogus'",
            ),
            (0, b"CREATE_KS a b c", &unknown("CREATE_KS a b c")),
            (0, b"CREATE_TABLE", &unknown("CREATE_TABLE")),
            (0, "CREATE_TABLE\u{3000}ks.t".as_bytes(), "OK"),
            (0, b"CREATE_TABLE ks.c COMPACT", "OK"),
            (
                0,
                b"CREATE_TABLE ks.c FOO",
                &unknown("CREATE_TABLE ks.c FOO"),
            ),
            (
                0,
                b"CREATE_TABLE ks.c COMPACT x",
                &unknown("CREATE_TABLE ks.c COMPACT x"),
            ),
            (0, b"CREATE_TABLE nodot", "ERR bad table name 'nodot'"),
            (0, b"CREATE_TABLE nope.t", "ERR unknown keyspace nope"),
            (0, b"PUT ks.t k v", "OK"),
            (0, b"PUT ks.t k2  v2", "OK"),
            (0, b"PUT ks.t k", &unknown("PUT ks.t k")),
            (0, too_many.as_bytes(), &unknown(too_many)),
            (0, b"PUT bad k v", "ERR bad table name 'bad'"),
            (0, b"PUT ks.x k v", "ERR unknown table ks.x"),
            (0, b"GET ks.t k", "OK v"),
            (0, b"GET\tks.t\tk2", "OK v2"),
            (0, b"GET ks.t missing", "ERR not found"),
            (0, b"GET ks.t k\xff", "ERR not found"),
            (0, b"GET ks.t", &unknown("GET ks.t")),
            (0, b"GET ks.t k z", &unknown("GET ks.t k z")),
            (0, b"GET bad k", "ERR bad table name 'bad'"),
            (0, b"DROP_KS ks2", "OK"),
            (0, b"CREATE_TABLE ks2.t", "ERR keyspace ks2 was dropped"),
            (0, b"DROP_KS nope", "ERR unknown keyspace nope"),
            (0, b"DROP_KS", &unknown("DROP_KS")),
            (0, b"DROP_KS a b", &unknown("DROP_KS a b")),
            (0, b"TRACE ON", "OK"),
            (0, b"TRACE", &unknown("TRACE")),
            (0, b"TRACE OFF", &unknown("TRACE OFF")),
            (0, b"TRACE ON now", &unknown("TRACE ON now")),
        ];
        assert_replies(&mut sim, table);
        let host = sim.host_id("kv-host-0");
        assert_eq!(
            sim.host_storage_by_id(host).list(""),
            ["commitlog/seg-b1", "data/ks.t/k", "data/ks.t/k2", "schema"]
        );
    }

    #[test]
    fn single_version_cluster_serves_reads_and_writes() {
        let mut sim = Sim::new(1);
        let ids = boot_cluster(&mut sim, v("3.0.0"), 3);
        assert_eq!(cmd(&mut sim, ids[0], "CREATE_KS stress"), "OK");
        assert_eq!(cmd(&mut sim, ids[0], "CREATE_TABLE stress.standard1"), "OK");
        assert_eq!(cmd(&mut sim, ids[0], "PUT stress.standard1 k1 v1"), "OK");
        assert_eq!(cmd(&mut sim, ids[0], "GET stress.standard1 k1"), "OK v1");
        assert_eq!(
            cmd(&mut sim, ids[0], "GET stress.standard1 nope"),
            "ERR not found"
        );
        assert_eq!(cmd(&mut sim, ids[1], "HEALTH"), "OK healthy");
    }

    #[test]
    fn schema_changes_propagate_via_gossip() {
        let mut sim = Sim::new(2);
        let ids = boot_cluster(&mut sim, v("3.0.0"), 3);
        cmd(&mut sim, ids[0], "CREATE_KS stress");
        cmd(&mut sim, ids[0], "CREATE_TABLE stress.standard1");
        sim.run_for(SimDuration::from_secs(3));
        // The other nodes learn the table through schema migration. (Data
        // itself is not replicated — each node is its own partition — so the
        // read goes to the node that took the write.)
        assert_eq!(cmd(&mut sim, ids[2], "PUT stress.standard1 k v"), "OK");
        assert_eq!(cmd(&mut sim, ids[2], "GET stress.standard1 k"), "OK v");
        assert_eq!(cmd(&mut sim, ids[1], "PUT stress.standard1 k2 v2"), "OK");
    }

    #[test]
    fn cassandra_4195_old_node_wedges_on_new_gossip() {
        // Rolling upgrade 1.1 → 1.2: the upgraded node's gossip carries a
        // string UUID the 1.1 nodes cannot parse; they wedge in migration.
        let mut sim = Sim::new(3);
        let ids = boot_cluster(&mut sim, v("1.1.0"), 2);
        sim.stop_node(ids[1]).unwrap();
        sim.install(
            ids[1],
            "1.2.0",
            Box::new(KvNode::new(v("1.2.0"), NodeSetup::new(1, 2))),
        )
        .unwrap();
        sim.start_node(ids[1]).unwrap();
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(
            cmd(&mut sim, ids[0], "HEALTH").split(':').next().unwrap(),
            "ERR node wedged"
        );
        assert!(
            sim.logs()
                .matching("cannot deserialize gossip ApplicationState")
                .count()
                >= 1
        );
        // The upgraded node itself is healthy — its legacy reader handles old gossip.
        assert_eq!(cmd(&mut sim, ids[1], "HEALTH"), "OK healthy");
    }

    #[test]
    fn cassandra_15794_compact_table_blocks_upgrade_and_downgrade() {
        let mut sim = Sim::new(4);
        let ids = boot_cluster(&mut sim, v("3.11.0"), 1);
        cmd(&mut sim, ids[0], "CREATE_KS legacy");
        assert_eq!(
            cmd(&mut sim, ids[0], "CREATE_TABLE legacy.cf COMPACT"),
            "OK"
        );
        sim.stop_node(ids[0]).unwrap();
        sim.install(
            ids[0],
            "4.0.0",
            Box::new(KvNode::new(v("4.0.0"), NodeSetup::new(0, 1))),
        )
        .unwrap();
        sim.start_node(ids[0]).unwrap();
        sim.run_for(SimDuration::from_millis(50));
        assert!(sim
            .crash_reason(ids[0])
            .unwrap()
            .contains("Compact Tables are not allowed"));
        // Downgrade attempt: 3.11 cannot replay the format-40 commit log 4.0
        // wrote before it died.
        sim.install(
            ids[0],
            "3.11.0",
            Box::new(KvNode::new(v("3.11.0"), NodeSetup::new(0, 1))),
        )
        .unwrap();
        sim.start_node(ids[0]).unwrap();
        sim.run_for(SimDuration::from_millis(50));
        assert!(sim
            .crash_reason(ids[0])
            .unwrap()
            .contains("unknown format 40"));
    }

    #[test]
    fn cassandra_16301_removed_strategy_crashes_4_0() {
        let mut sim = Sim::new(5);
        let ids = boot_cluster(&mut sim, v("3.11.0"), 1);
        assert_eq!(
            cmd(
                &mut sim,
                ids[0],
                "CREATE_KS old_ks OldNetworkTopologyStrategy"
            ),
            "OK"
        );
        sim.stop_node(ids[0]).unwrap();
        sim.install(
            ids[0],
            "4.0.0",
            Box::new(KvNode::new(v("4.0.0"), NodeSetup::new(0, 1))),
        )
        .unwrap();
        sim.start_node(ids[0]).unwrap();
        sim.run_for(SimDuration::from_millis(50));
        assert!(sim
            .crash_reason(ids[0])
            .unwrap()
            .contains("unable to find replication strategy class 'OldNetworkTopologyStrategy'"));
    }

    #[test]
    fn cassandra_16292_tombstone_crashes_3_11() {
        let mut sim = Sim::new(6);
        let ids = boot_cluster(&mut sim, v("3.0.0"), 1);
        cmd(&mut sim, ids[0], "CREATE_KS ks2");
        assert_eq!(cmd(&mut sim, ids[0], "DROP_KS ks2"), "OK");
        sim.stop_node(ids[0]).unwrap();
        sim.install(
            ids[0],
            "3.11.0",
            Box::new(KvNode::new(v("3.11.0"), NodeSetup::new(0, 1))),
        )
        .unwrap();
        sim.start_node(ids[0]).unwrap();
        sim.run_for(SimDuration::from_millis(50));
        assert!(sim
            .crash_reason(ids[0])
            .unwrap()
            .contains("tombstone for dropped keyspace 'ks2'"));
    }

    #[test]
    fn row_format_bug_corrupts_reads_after_2_1_upgrade() {
        let mut sim = Sim::new(7);
        let ids = boot_cluster(&mut sim, v("2.0.0"), 1);
        cmd(&mut sim, ids[0], "CREATE_KS stress");
        cmd(&mut sim, ids[0], "CREATE_TABLE stress.standard1");
        assert_eq!(cmd(&mut sim, ids[0], "PUT stress.standard1 k1 v1"), "OK");
        sim.stop_node(ids[0]).unwrap();
        sim.install(
            ids[0],
            "2.1.0",
            Box::new(KvNode::new(v("2.1.0"), NodeSetup::new(0, 1))),
        )
        .unwrap();
        sim.start_node(ids[0]).unwrap();
        sim.run_for(SimDuration::from_millis(50));
        let resp = cmd(&mut sim, ids[0], "GET stress.standard1 k1");
        assert!(resp.starts_with("ERR corrupt sstable row"), "got {resp}");
    }

    #[test]
    fn cassandra_13441_migration_storm_after_3_11_upgrade() {
        let mut sim = Sim::new(8);
        let ids = boot_cluster(&mut sim, v("3.0.0"), 3);
        cmd(&mut sim, ids[0], "CREATE_KS stress");
        sim.run_for(SimDuration::from_secs(2));
        let baseline = sim.messages_delivered();
        // Upgrade one node to 3.11 (rolling step).
        sim.stop_node(ids[0]).unwrap();
        sim.install(
            ids[0],
            "3.11.0",
            Box::new(KvNode::new(v("3.11.0"), NodeSetup::new(0, 3))),
        )
        .unwrap();
        sim.start_node(ids[0]).unwrap();
        sim.run_for(SimDuration::from_secs(10));
        let during = sim.messages_delivered() - baseline;
        // The storm floods the cluster far beyond gossip's steady state
        // (~12 messages/sec for 3 nodes).
        assert!(during > 2000, "only {during} messages during storm window");
        // Yet no node crashed and data still serves: pure perf degradation.
        assert!(sim.crashed_nodes().is_empty());
    }

    #[test]
    fn no_storm_without_upgrade_in_3_11() {
        // The storm must be an *upgrade* failure: a fresh 3.11 cluster with
        // schema churn stays calm.
        let mut sim = Sim::new(9);
        let ids = boot_cluster(&mut sim, v("3.11.0"), 3);
        cmd(&mut sim, ids[0], "CREATE_KS stress");
        cmd(&mut sim, ids[0], "CREATE_TABLE stress.standard1");
        let baseline = sim.messages_delivered();
        sim.run_for(SimDuration::from_secs(10));
        let during = sim.messages_delivered() - baseline;
        assert!(during < 500, "{during} messages in a healthy cluster");
    }

    #[test]
    fn full_stop_upgrade_2_1_to_3_0_is_clean() {
        // Control pair: data written on 2.1 reads back fine on 3.0.
        let mut sim = Sim::new(10);
        let ids = boot_cluster(&mut sim, v("2.1.0"), 2);
        cmd(&mut sim, ids[0], "CREATE_KS stress");
        cmd(&mut sim, ids[0], "CREATE_TABLE stress.standard1");
        cmd(&mut sim, ids[0], "PUT stress.standard1 k1 v1");
        sim.run_for(SimDuration::from_secs(1));
        for &id in &ids {
            sim.stop_node(id).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            sim.install(
                id,
                "3.0.0",
                Box::new(KvNode::new(v("3.0.0"), NodeSetup::new(i as u32, 2))),
            )
            .unwrap();
            sim.start_node(id).unwrap();
        }
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(cmd(&mut sim, ids[0], "GET stress.standard1 k1"), "OK v1");
        assert!(sim.crashed_nodes().is_empty());
    }
}
