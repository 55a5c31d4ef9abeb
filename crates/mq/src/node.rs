//! The versioned broker of the mini message queue.
//!
//! Every broker holds every topic (replication factor = cluster size):
//! a `PRODUCE` appends locally and pushes replica batches to all peers.

use crate::codec::{self, inter_broker_proto, ReplicaBatch};
use bytes::Bytes;
use dup_core::{format_reply, split_words, NodeSetup, VersionId};
use dup_simnet::{Ctx, Endpoint, Fatal, HostStorage, Process, StepResult};
use dup_wire::Frame;

/// Default offset retention when a client passes `-1` (DEFAULT).
const DEFAULT_RETENTION_MS: u64 = 86_400_000;

/// A broker node.
#[derive(Clone)]
pub struct Broker {
    version: VersionId,
    setup: NodeSetup,
    next_offsets: NextOffsets,
}

/// Per topic, the number of files under `log/{topic}/`: the index the
/// topic's next `PRODUCE` takes. A topic is counted with a walk of its log
/// on its first `PRODUCE` after the process starts, then kept: a write adds
/// one only when it creates a new path, so an overwrite or a replica batch
/// landing past a gap counts exactly as the walk would. A snapshot carries
/// it with the storage it describes.
///
/// The topics are kept sorted, beside their counts, so that restoring a
/// snapshot copies into the strings already held instead of allocating.
#[derive(Clone, Default)]
struct NextOffsets {
    topics: Vec<String>,
    counts: Vec<u64>,
}

impl NextOffsets {
    fn find(&self, topic: &str) -> Result<usize, usize> {
        self.topics.binary_search_by(|t| t.as_str().cmp(topic))
    }

    /// `topic`'s next offset; a topic not kept yet is counted by walking
    /// `storage` under `prefix`, its log's.
    fn get_or_walk(&mut self, topic: &str, storage: &HostStorage, prefix: &str) -> u64 {
        match self.find(topic) {
            Ok(i) => self.counts[i],
            Err(i) => {
                let count = storage.paths(prefix).count() as u64;
                self.topics.insert(i, topic.to_string());
                self.counts.insert(i, count);
                count
            }
        }
    }

    /// Counts one more file under `log/{topic}/`, if `topic` is kept.
    fn count_new_file(&mut self, topic: &str) {
        if let Ok(i) = self.find(topic) {
            self.counts[i] += 1;
        }
    }

    /// Becomes a copy of `src`, reusing this one's buffers.
    fn copy_from(&mut self, src: &NextOffsets) {
        self.topics.clone_from(&src.topics);
        self.counts.clone_from(&src.counts);
    }
}

impl Broker {
    /// Creates a broker of `version`.
    pub fn new(version: VersionId, setup: NodeSetup) -> Self {
        Broker {
            version,
            setup,
            next_offsets: NextOffsets::default(),
        }
    }

    fn handle_client(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, text: &str) {
        let mut words = [""; 5];
        let reply = match split_words(text, &mut words) {
            ["HEALTH"] => Bytes::from_static(b"OK healthy"),
            ["PRODUCE", topic, _]
            | ["FETCH", topic, _]
            | ["COMMIT", _, topic, _, _]
            | ["OFFSET_GET", _, topic]
                if !is_legal_topic(topic) =>
            {
                format_reply(format_args!("ERR invalid topic '{topic}'"))
            }
            ["PRODUCE", topic, value] => self.cmd_produce(ctx, topic, value),
            ["FETCH", topic, idx] => self.cmd_fetch(ctx, topic, idx),
            ["COMMIT", group, topic, offset, retention] => {
                self.cmd_commit(ctx, group, topic, offset, retention)
            }
            ["OFFSET_GET", group, topic] => self.cmd_offset_get(ctx, group, topic),
            _ => format_reply(format_args!("ERR unknown command '{text}'")),
        };
        ctx.send(from, reply);
    }

    fn cmd_produce(&mut self, ctx: &mut Ctx<'_>, topic: &str, value: &str) -> Bytes {
        // The topic's log prefix, extended into the next record's path: one
        // path built per produce.
        let mut path = log_prefix(topic);
        let idx = self
            .next_offsets
            .get_or_walk(topic, ctx.storage_ref(), &path);
        push_record_index(&mut path, idx);
        self.write_record(ctx.storage(), topic, &path, value.as_bytes());
        // Durable-on-ack: the produce reply below promises the record.
        ctx.flush(&path);
        let batch = ReplicaBatch {
            topic: topic.to_string(),
            offset: idx,
            payload: value.as_bytes().to_vec(),
        };
        let body = codec::encode_replica_batch(self.version, &batch);
        let frame = Frame::new(inter_broker_proto(self.version), "replica", body).encode();
        for peer in self.setup.peers() {
            ctx.send(Endpoint::Node(peer), frame.clone());
        }
        format_reply(format_args!("OK {idx}"))
    }

    /// Writes record `path` of `topic`'s log, counting it in the topic's
    /// next offset if it is a new file.
    fn write_record(
        &mut self,
        storage: &mut HostStorage,
        topic: &str,
        path: &str,
        contents: impl Into<Vec<u8>>,
    ) {
        if storage.write(path, contents) {
            // A path is counted under every prefix it extends: a topic
            // holding a `/` (never legal, but a peer's batch is not checked)
            // lands in the log of the topic its first segment names.
            let owner = topic.split_once('/').map_or(topic, |(owner, _)| owner);
            self.next_offsets.count_new_file(owner);
        }
    }

    fn cmd_fetch(&mut self, ctx: &mut Ctx<'_>, topic: &str, idx: &str) -> Bytes {
        let Ok(idx) = idx.parse::<u64>() else {
            return format_reply(format_args!("ERR bad index '{idx}'"));
        };
        match ctx.storage_ref().read(&record_path(topic, idx)) {
            Some(bytes) => format_reply(format_args!("OK {}", String::from_utf8_lossy(bytes))),
            None => Bytes::from_static(b"ERR no record"),
        }
    }

    fn cmd_commit(
        &mut self,
        ctx: &mut Ctx<'_>,
        group: &str,
        topic: &str,
        offset: &str,
        retention: &str,
    ) -> Bytes {
        let (Ok(offset), Ok(retention)) = (offset.parse::<u64>(), retention.parse::<i64>()) else {
            return Bytes::from_static(b"ERR bad commit arguments");
        };
        // Semantics drift (KAFKA-7403): old brokers translate DEFAULT (-1)
        // retention into "now + default"; 2.1.0 translates it into *no*
        // expiry — an assumption the rest of the broker does not share.
        let expire_ts = if retention < 0 {
            if self.version >= VersionId::new(2, 1, 0) {
                None
            } else {
                Some(ctx.now().as_millis() + DEFAULT_RETENTION_MS)
            }
        } else {
            Some(ctx.now().as_millis() + retention as u64)
        };
        match codec::encode_offset_record(self.version, group, topic, offset, expire_ts) {
            Ok(bytes) => {
                let path = offsets_path(group, topic);
                ctx.storage().write(&path, bytes);
                ctx.flush(&path);
                Bytes::from_static(b"OK")
            }
            Err(e) => {
                // 2.1.0 with an old client: expire_ts is None but the
                // on-disk record still requires it.
                ctx.error(format!(
                    "failed to persist offset commit for {group}/{topic}: {e}"
                ));
                Bytes::from_static(b"ERR offset commit failed")
            }
        }
    }

    fn cmd_offset_get(&mut self, ctx: &mut Ctx<'_>, group: &str, topic: &str) -> Bytes {
        match ctx.storage_ref().read(&offsets_path(group, topic)) {
            Some(bytes) => match codec::decode_offset_record(self.version, bytes) {
                Ok((offset, _)) => format_reply(format_args!("OK {offset}")),
                Err(e) => {
                    ctx.error(format!("corrupt offset record for {group}/{topic}: {e}"));
                    format_reply(format_args!("ERR corrupt offset record: {e}"))
                }
            },
            None => Bytes::from_static(b"ERR no committed offset"),
        }
    }
}

/// Kafka's legal topic names: 1–249 ASCII alphanumerics, `.`, `_` and `-`.
/// A name is a segment of its record paths, so a `/` in it would alias
/// another topic's log.
fn is_legal_topic(topic: &str) -> bool {
    topic.len() <= 249
        && topic
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// `log/{topic}/`, with room for a record index.
fn log_prefix(topic: &str) -> String {
    let mut path = String::with_capacity(topic.len() + 25);
    path.push_str("log/");
    path.push_str(topic);
    path.push('/');
    path
}

/// Appends `idx` zero-padded to 12 digits (`{idx:012}`, written without
/// the padding formatter).
fn push_record_index(path: &mut String, idx: u64) {
    let mut digits = [b'0'; 20];
    let mut rest = idx;
    let mut start = digits.len();
    while rest > 0 {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    let start = start.min(digits.len() - 12);
    path.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// `log/{topic}/{idx:012}`: where record `idx` of `topic` is stored.
fn record_path(topic: &str, idx: u64) -> String {
    let mut path = log_prefix(topic);
    push_record_index(&mut path, idx);
    path
}

/// `offsets/{group}.{topic}`: where a group's committed offset is stored.
fn offsets_path(group: &str, topic: &str) -> String {
    format!("offsets/{group}.{topic}")
}

impl Process for Broker {
    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.clone()))
    }

    fn restore_from(&mut self, src: &dyn Process) -> bool {
        let any: &dyn std::any::Any = src;
        match any.downcast_ref::<Self>() {
            Some(other) => {
                // Field by field: the kept offsets reuse their buffers.
                self.version = other.version;
                self.setup.clone_from(&other.setup);
                self.next_offsets.copy_from(&other.next_offsets);
                true
            }
            None => false,
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        // KAFKA-6238: a `message.version` pinned by an old config file is
        // rejected by the upgraded broker.
        if let Some(pinned) = self.setup.config.get("message.version") {
            let pinned_v: VersionId = pinned
                .parse()
                .map_err(|_| Fatal::new(format!("invalid message.version '{pinned}'")))?;
            if self.version >= VersionId::new(1, 0, 0) && pinned_v < VersionId::new(1, 0, 0) {
                return Err(Fatal::new(format!(
                    "message.version {pinned} is not compatible with broker {}: \
                     inter-broker messages would be unreadable",
                    self.version
                )));
            }
        }
        ctx.info(format!(
            "broker {} started (inter-broker protocol {})",
            self.version,
            inter_broker_proto(self.version)
        ));
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
                        ctx.warn(format!("unparseable frame from broker-{n}: {e}"));
                        return Ok(());
                    }
                };
                if frame.kind == "replica" {
                    // KAFKA-10173: the frame version matches (it was never
                    // bumped), so the broker has no way to know the layout
                    // changed — it just misparses.
                    match codec::decode_replica_batch(self.version, &frame.body) {
                        Ok(batch) => {
                            let path = record_path(&batch.topic, batch.offset);
                            self.write_record(ctx.storage(), &batch.topic, &path, batch.payload);
                            ctx.flush(&path);
                        }
                        Err(e) => {
                            ctx.error(format!("corrupt replica batch from broker-{n}: {e}"));
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) -> StepResult {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_core::Config;
    use dup_simnet::{Durability, FaultKind, FaultPlan, Sim, SimDuration, SimSnapshot};

    fn v(s: &str) -> VersionId {
        s.parse().unwrap()
    }

    fn boot(sim: &mut Sim, version: VersionId, n: u32, config: &Config) -> Vec<u32> {
        let mut ids = Vec::new();
        for i in 0..n {
            let mut setup = NodeSetup::new(i, n);
            setup.config = config.clone();
            let id = sim.add_node(
                &format!("mq-host-{i}"),
                &version.to_string(),
                Box::new(Broker::new(version, setup)),
            );
            sim.start_node(id).unwrap();
            ids.push(id);
        }
        sim.run_for(SimDuration::from_millis(100));
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

    /// Sends each `(node, command, reply)` row in order and demands the
    /// reply's exact bytes.
    fn assert_replies(sim: &mut Sim, table: &[(u32, &[u8], &str)]) {
        for &(node, command, reply) in table {
            let got = sim.rpc(
                node,
                bytes::Bytes::copy_from_slice(command),
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

    fn paths(sim: &mut Sim, host: &str) -> Vec<String> {
        let id = sim.host_id(host);
        sim.host_storage_by_id(id).list("")
    }

    /// Every command shape a broker answers, with its exact reply, and the
    /// files those commands leave behind.
    #[test]
    fn client_replies_are_pinned() {
        let mut sim = Sim::new(11);
        assert_eq!(boot(&mut sim, v("2.4.0"), 2, &Config::new()), [0, 1]);
        // One record inside the 12-digit pad of a record path, one past it.
        let host = sim.host_id("mq-host-0");
        let storage = sim.host_storage_by_id(host);
        storage.write("log/big/000000000007", b"seven".to_vec());
        storage.write("log/big/1234567890123", b"far".to_vec());
        let unknown = |c: &str| format!("ERR unknown command '{c}'");
        let too_many = "PRODUCE events a b c d e f";
        let long = "x".repeat(249);
        let (legal, too_long) = (format!("PRODUCE {long} v"), format!("PRODUCE {long}x v"));
        let table: &[(u32, &[u8], &str)] = &[
            (0, b"HEALTH", "OK healthy"),
            (1, b"  HEALTH\t", "OK healthy"),
            (0, "HEALTH\u{3000}".as_bytes(), "OK healthy"),
            (0, b"HEALTH now", &unknown("HEALTH now")),
            (0, b"health", &unknown("health")),
            (0, b"", &unknown("")),
            (0, b" \t ", &unknown(" \t ")),
            (0, b"HEA\xffLTH", &unknown("HEA\u{fffd}LTH")),
            (0, b"PRODUCE", &unknown("PRODUCE")),
            (0, b"PRODUCE events", &unknown("PRODUCE events")),
            (0, b"PRODUCE events a", "OK 0"),
            (0, b"PRODUCE\tevents  b", "OK 1"),
            (0, "PRODUCE\u{3000}events\u{3000}c".as_bytes(), "OK 2"),
            (0, b"PRODUCE events a b", &unknown("PRODUCE events a b")),
            (0, too_many.as_bytes(), &unknown(too_many)),
            (0, b"FETCH events 0", "OK a"),
            (1, b"FETCH events 2", "OK c"),
            (0, b"FETCH events 00", "OK a"),
            (0, b"FETCH events +1", "OK b"),
            (0, b"FETCH events 3", "ERR no record"),
            (0, b"FETCH events -1", "ERR bad index '-1'"),
            (0, b"FETCH events x", "ERR bad index 'x'"),
            (0, b"FETCH events", &unknown("FETCH events")),
            (0, b"FETCH events 0 1", &unknown("FETCH events 0 1")),
            (0, b"FETCH big 7", "OK seven"),
            (0, b"FETCH big 1234567890123", "OK far"),
            (0, b"FETCH big 0", "ERR no record"),
            (0, b"FETCH nothing 0", "ERR no record"),
            (0, b"COMMIT g events 5 -1", "OK"),
            (0, b"COMMIT g events 5 60000", "OK"),
            (0, b"COMMIT g events x -1", "ERR bad commit arguments"),
            (0, b"COMMIT g events 5 soon", "ERR bad commit arguments"),
            (0, b"COMMIT g events 5", &unknown("COMMIT g events 5")),
            (
                0,
                b"COMMIT g events 5 -1 x",
                &unknown("COMMIT g events 5 -1 x"),
            ),
            (0, b"OFFSET_GET g events", "OK 5"),
            (0, b"OFFSET_GET h events", "ERR no committed offset"),
            (0, b"OFFSET_GET g", &unknown("OFFSET_GET g")),
            (
                0,
                b"OFFSET_GET g events 1",
                &unknown("OFFSET_GET g events 1"),
            ),
            // Topic names outside Kafka's legal set.
            (0, b"PRODUCE a/b x", "ERR invalid topic 'a/b'"),
            (
                0,
                b"FETCH ev\xffents 0",
                "ERR invalid topic 'ev\u{fffd}ents'",
            ),
            (0, b"COMMIT g a/b 5 -1", "ERR invalid topic 'a/b'"),
            (0, b"COMMIT g a/b x -1", "ERR invalid topic 'a/b'"),
            (0, b"OFFSET_GET g a:b", "ERR invalid topic 'a:b'"),
            (0, b"PRODUCE Ev.en_t-s9 x", "OK 0"),
            (0, legal.as_bytes(), "OK 0"),
            (
                0,
                too_long.as_bytes(),
                &format!("ERR invalid topic '{}x'", long),
            ),
        ];
        assert_replies(&mut sim, table);
        sim.run_for(SimDuration::from_millis(100));
        let mut replicated = vec![
            "log/Ev.en_t-s9/000000000000".to_string(),
            "log/events/000000000000".to_string(),
            "log/events/000000000001".to_string(),
            "log/events/000000000002".to_string(),
            format!("log/{long}/000000000000"),
        ];
        assert_eq!(paths(&mut sim, "mq-host-1"), replicated);
        replicated.extend(
            [
                "log/big/000000000007",
                "log/big/1234567890123",
                "offsets/g.events",
            ]
            .map(String::from),
        );
        replicated.sort();
        assert_eq!(paths(&mut sim, "mq-host-0"), replicated);
    }

    /// A topic's name is a segment of its record paths, so a name holding a
    /// `/` would read and extend another topic's log; Kafka's legal names
    /// keep every topic's log its own.
    #[test]
    fn a_topic_cannot_alias_another_topics_log() {
        let mut sim = Sim::new(12);
        boot(&mut sim, v("2.4.0"), 1, &Config::new());
        assert_replies(
            &mut sim,
            &[
                (0, b"PRODUCE a/b x", "ERR invalid topic 'a/b'"),
                (0, b"PRODUCE a y", "OK 0"),
                (0, b"FETCH a 0", "OK y"),
            ],
        );
        assert_eq!(paths(&mut sim, "mq-host-0"), ["log/a/000000000000"]);
    }

    #[test]
    fn produce_replicates_to_peers() {
        let mut sim = Sim::new(1);
        let ids = boot(&mut sim, v("2.3.0"), 3, &Config::new());
        assert_eq!(cmd(&mut sim, ids[0], "PRODUCE events hello"), "OK 0");
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(cmd(&mut sim, ids[1], "FETCH events 0"), "OK hello");
        assert_eq!(cmd(&mut sim, ids[2], "FETCH events 0"), "OK hello");
    }

    #[test]
    fn commit_and_read_offsets() {
        let mut sim = Sim::new(2);
        let ids = boot(&mut sim, v("1.0.0"), 1, &Config::new());
        assert_eq!(cmd(&mut sim, ids[0], "COMMIT g1 events 5 -1"), "OK");
        assert_eq!(cmd(&mut sim, ids[0], "OFFSET_GET g1 events"), "OK 5");
    }

    #[test]
    fn kafka_7403_default_retention_fails_on_2_1() {
        let mut sim = Sim::new(3);
        let ids = boot(&mut sim, v("2.1.0"), 1, &Config::new());
        // An old client passes retention=-1 (DEFAULT).
        assert_eq!(
            cmd(&mut sim, ids[0], "COMMIT g1 events 5 -1"),
            "ERR offset commit failed"
        );
        assert!(
            sim.logs()
                .matching("failed to persist offset commit")
                .count()
                >= 1
        );
        // A new client passing an explicit retention is fine.
        assert_eq!(cmd(&mut sim, ids[0], "COMMIT g1 events 5 60000"), "OK");
        // And 2.3 fixed the record format.
        let mut sim = Sim::new(4);
        let ids = boot(&mut sim, v("2.3.0"), 1, &Config::new());
        assert_eq!(cmd(&mut sim, ids[0], "COMMIT g1 events 5 -1"), "OK");
    }

    #[test]
    fn kafka_6238_stale_message_version_config_crashes_upgraded_broker() {
        let mut config = Config::new();
        config.insert("message.version".to_string(), "0.11.0".to_string());
        let mut sim = Sim::new(5);
        // Works on 0.11 …
        let ids = boot(&mut sim, v("0.11.0"), 1, &config);
        assert_eq!(cmd(&mut sim, ids[0], "HEALTH"), "OK healthy");
        // … crashes 1.0 started with the same config file.
        sim.stop_node(ids[0]).unwrap();
        let mut setup = NodeSetup::new(0, 1);
        setup.config = config;
        sim.install(ids[0], "1.0.0", Box::new(Broker::new(v("1.0.0"), setup)))
            .unwrap();
        sim.start_node(ids[0]).unwrap();
        sim.run_for(SimDuration::from_millis(50));
        assert!(sim
            .crash_reason(ids[0])
            .unwrap()
            .contains("message.version"));
    }

    #[test]
    fn kafka_10173_mixed_brokers_drop_replicas() {
        let mut sim = Sim::new(6);
        let ids = boot(&mut sim, v("2.3.0"), 2, &Config::new());
        // Rolling upgrade of broker 0 to 2.4.
        sim.stop_node(ids[0]).unwrap();
        sim.install(
            ids[0],
            "2.4.0",
            Box::new(Broker::new(v("2.4.0"), NodeSetup::new(0, 2))),
        )
        .unwrap();
        sim.start_node(ids[0]).unwrap();
        sim.run_for(SimDuration::from_millis(100));
        // Produce on the new broker: the old broker cannot parse the batch.
        assert_eq!(cmd(&mut sim, ids[0], "PRODUCE events hello"), "OK 0");
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(cmd(&mut sim, ids[1], "FETCH events 0"), "ERR no record");
        assert!(sim.logs().matching("corrupt replica batch").count() >= 1);
        // Produce on the old broker: the new broker cannot parse it either.
        assert_eq!(cmd(&mut sim, ids[1], "PRODUCE events world"), "OK 0");
        sim.run_for(SimDuration::from_millis(100));
        assert!(sim.logs().matching("corrupt replica batch").count() >= 2);
    }

    #[test]
    fn clean_pair_2_1_to_2_3_replicates_fine() {
        let mut sim = Sim::new(7);
        let ids = boot(&mut sim, v("2.1.0"), 2, &Config::new());
        assert_eq!(cmd(&mut sim, ids[0], "PRODUCE events a"), "OK 0");
        sim.run_for(SimDuration::from_millis(100));
        sim.stop_node(ids[0]).unwrap();
        sim.install(
            ids[0],
            "2.3.0",
            Box::new(Broker::new(v("2.3.0"), NodeSetup::new(0, 2))),
        )
        .unwrap();
        sim.start_node(ids[0]).unwrap();
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(cmd(&mut sim, ids[1], "PRODUCE events b"), "OK 1");
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(cmd(&mut sim, ids[0], "FETCH events 1"), "OK b");
        assert!(sim.logs().matching("corrupt replica batch").count() == 0);
        assert!(sim.crashed_nodes().is_empty());
    }

    // ---- the kept next offset against the walk ------------------------------

    thread_local! {
        /// Kept next offsets [`Checked`] has compared with a walk on this
        /// thread.
        static COMPARED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A broker that compares each kept next offset with a walk of its
    /// topic's log before and after every callback. A client may also send
    /// it `REPLICA <topic> <offset> <value>`: the broker then receives that
    /// replica batch as if a peer had sent it, so a test can land a batch
    /// past the end of a log or onto a record that exists.
    #[derive(Clone)]
    struct Checked(Broker);

    impl Checked {
        fn spawn(node: u32) -> Box<dyn Process> {
            Box::new(Checked(Broker::new(v("2.4.0"), NodeSetup::new(node, 2))))
        }

        fn check(&self, ctx: &Ctx<'_>, when: &str) {
            let kept = &self.0.next_offsets;
            for (topic, &next) in kept.topics.iter().zip(&kept.counts) {
                let walked = ctx.storage_ref().paths(&log_prefix(topic)).count() as u64;
                assert_eq!(next, walked, "{when}: kept next offset of {topic:?}");
                COMPARED.with(|c| c.set(c.get() + 1));
            }
        }
    }

    impl Process for Checked {
        fn fork(&self) -> Option<Box<dyn Process>> {
            Some(Box::new(self.clone()))
        }

        fn restore_from(&mut self, src: &dyn Process) -> bool {
            let any: &dyn std::any::Any = src;
            any.downcast_ref::<Self>()
                .is_some_and(|other| self.0.restore_from(&other.0))
        }

        fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
            self.0.on_start(ctx)?;
            self.check(ctx, "after start");
            Ok(())
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, payload: &[u8]) -> StepResult {
            self.check(ctx, "before a message");
            let text = String::from_utf8_lossy(payload);
            let mut words = [""; 4];
            if let ["REPLICA", topic, offset, value] = split_words(&text, &mut words) {
                let batch = ReplicaBatch {
                    topic: topic.to_string(),
                    offset: offset.parse().expect("a record index"),
                    payload: value.as_bytes().to_vec(),
                };
                let body = codec::encode_replica_batch(self.0.version, &batch);
                let proto = inter_broker_proto(self.0.version);
                let frame = Frame::new(proto, "replica", body).encode();
                self.0.on_message(ctx, Endpoint::Node(9), &frame)?;
                ctx.send(from, Bytes::from_static(b"OK"));
            } else {
                self.0.on_message(ctx, from, payload)?;
            }
            self.check(ctx, "after a message");
            Ok(())
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> StepResult {
            self.0.on_timer(ctx, token)
        }
    }

    /// Two checked 2.4.0 brokers on torn storage.
    fn checked_cluster(seed: u64) -> Sim {
        let mut sim = Sim::new(seed);
        for i in 0..2 {
            let host = format!("mq-host-{i}");
            let id = sim.add_node(&host, "2.4.0", Checked::spawn(i));
            let host = sim.host_id(&host);
            let storage = sim.host_storage_by_id(host);
            storage.set_durability(dup_simnet::Durability::Torn);
            sim.start_node(id).unwrap();
        }
        sim
    }

    /// One step of an exactness run. A `PRODUCE` on one broker also sends
    /// replica batches to the other, which land on offsets it may already
    /// hold.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Produce {
            node: u32,
            topic: usize,
        },
        Replica {
            node: u32,
            topic: usize,
            offset: u64,
        },
        /// Kill the node and start a fresh process on its storage.
        Crash {
            node: u32,
        },
        Snapshot,
        /// Back to the last snapshot, storage and brokers together.
        Restore,
    }

    /// `a/b` is no legal topic: a client cannot produce to it, but a replica
    /// batch naming it lands inside `a`'s log.
    const TOPICS: [&str; 4] = ["events", "audit", "a", "a/b"];

    fn op_of((kind, node, topic, offset): (u64, u64, u64, u64)) -> Op {
        let (node, topic) = (node as u32 % 2, topic as usize % TOPICS.len());
        match kind % 6 {
            0 | 1 => Op::Produce { node, topic },
            2 => Op::Replica {
                node,
                topic,
                offset: offset % 12,
            },
            3 => Op::Crash { node },
            4 => Op::Snapshot,
            _ => Op::Restore,
        }
    }

    /// Runs `ops` on a checked cluster: every callback of either broker
    /// compares its kept next offsets with the walk.
    fn run_checked(seed: u64, ops: &[Op]) {
        let mut sim = checked_cluster(seed);
        let mut snapshot = None;
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Produce { node, topic } => {
                    cmd(&mut sim, node, &format!("PRODUCE {} p{i}", TOPICS[topic]));
                }
                Op::Replica {
                    node,
                    topic,
                    offset,
                } => {
                    let text = format!("REPLICA {} {offset} r{i}", TOPICS[topic]);
                    assert_eq!(cmd(&mut sim, node, &text), "OK", "{ops:?}");
                }
                Op::Crash { node } => {
                    // A one-action plan crashes the broker now, keeping the
                    // cluster's torn durability.
                    let mut plan = FaultPlan::new(seed).schedule(sim.now(), FaultKind::Crash(node));
                    plan.durability = Durability::Torn;
                    sim.install_fault_plan(plan);
                    sim.run_for(SimDuration::ZERO);
                    assert!(sim.is_fault_crashed(node), "{ops:?}");
                    sim.install(node, "2.4.0", Checked::spawn(node)).unwrap();
                    sim.start_node(node).unwrap();
                }
                Op::Snapshot => {
                    let mut snap = SimSnapshot::new();
                    snapshot = sim.snapshot_into(&mut snap).then_some(snap);
                }
                Op::Restore => {
                    if let Some(snapshot) = &snapshot {
                        sim.restore(snapshot);
                    }
                }
            }
        }
        // Let the last replica batches land, then check both brokers once
        // more.
        sim.run_for(SimDuration::from_millis(100));
        for node in 0..2 {
            assert_eq!(cmd(&mut sim, node, "HEALTH"), "OK healthy", "{ops:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn kept_next_offsets_equal_the_walk(
            ops in proptest::collection::vec((0u64..6, 0u64..2, 0u64..4, 0u64..12), 1..40),
            seed in 0u64..1_000,
        ) {
            let ops: Vec<Op> = ops.into_iter().map(op_of).collect();
            run_checked(seed, &ops);
        }
    }

    #[test]
    fn kept_next_offsets_equal_the_walk_on_seeded_runs() {
        let mut rng = dup_simnet::SimRng::new(29);
        let before = COMPARED.with(std::cell::Cell::get);
        for seed in 0..200 {
            let len = 1 + rng.next_below(60);
            let ops: Vec<Op> = (0..len)
                .map(|_| {
                    op_of((
                        rng.next_u64(),
                        rng.next_u64(),
                        rng.next_u64(),
                        rng.next_u64(),
                    ))
                })
                .collect();
            run_checked(seed, &ops);
        }
        let compared = COMPARED.with(std::cell::Cell::get) - before;
        assert!(
            compared > 5_000,
            "only {compared} kept offsets were compared"
        );
    }

    /// A replica batch past the end of a log leaves a gap. The log then holds
    /// fewer records than its last index + 1, and the next `PRODUCE` takes the
    /// record count, as the walk always did. A batch onto an existing record
    /// changes no count, and one naming `a/b` counts in `a`'s log.
    #[test]
    fn kept_next_offsets_follow_gaps_and_overwrites() {
        let mut sim = checked_cluster(31);
        let table: &[(u32, &str, &str)] = &[
            (0, "PRODUCE events a", "OK 0"),
            (0, "PRODUCE events b", "OK 1"),
            // Broker 1 holds 0 and 1; a batch at 7 leaves a gap.
            (1, "REPLICA events 7 x", "OK"),
            (1, "PRODUCE events c", "OK 3"),
            // An overwrite of record 3 does not move the count.
            (1, "REPLICA events 3 y", "OK"),
            (1, "PRODUCE events d", "OK 4"),
            (1, "FETCH events 7", "OK x"),
            (1, "FETCH events 3", "OK y"),
            // Broker 0 holds 0, 1, and broker 1's 3 and 4. Its count, 4,
            // names a record it holds, which the produce overwrites.
            (0, "PRODUCE events e", "OK 4"),
            (0, "PRODUCE events f", "OK 4"),
            (0, "PRODUCE a p", "OK 0"),
            (0, "REPLICA a/b 0 z", "OK"),
            (0, "PRODUCE a q", "OK 2"),
        ];
        for &(node, command, reply) in table {
            assert_eq!(
                cmd(&mut sim, node, command),
                reply,
                "node {node} <- {command}"
            );
            sim.run_for(SimDuration::from_millis(50));
        }
    }
}
