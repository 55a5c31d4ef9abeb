//! The versioned broker of the mini message queue.
//!
//! Every broker holds every topic (replication factor = cluster size):
//! a `PRODUCE` appends locally and pushes replica batches to all peers.

use crate::codec::{self, inter_broker_proto, ReplicaBatch};
use dup_core::{NodeSetup, VersionId};
use dup_simnet::{Ctx, Endpoint, Fatal, Process, StepResult};
use dup_wire::Frame;

/// Default offset retention when a client passes `-1` (DEFAULT).
const DEFAULT_RETENTION_MS: u64 = 86_400_000;

/// A broker node.
#[derive(Clone)]
pub struct Broker {
    version: VersionId,
    setup: NodeSetup,
}

impl Broker {
    /// Creates a broker of `version`.
    pub fn new(version: VersionId, setup: NodeSetup) -> Self {
        Broker { version, setup }
    }

    fn record_path(topic: &str, idx: u64) -> String {
        format!("log/{topic}/{idx:012}")
    }

    fn next_index(&self, ctx: &Ctx<'_>, topic: &str) -> u64 {
        ctx.storage_ref().paths(&format!("log/{topic}/")).count() as u64
    }

    fn handle_client(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, text: &str) {
        let parts: Vec<&str> = text.split_whitespace().collect();
        let reply = match parts.as_slice() {
            ["HEALTH"] => "OK healthy".to_string(),
            ["PRODUCE", topic, value] => self.cmd_produce(ctx, topic, value),
            ["FETCH", topic, idx] => self.cmd_fetch(ctx, topic, idx),
            ["COMMIT", group, topic, offset, retention] => {
                self.cmd_commit(ctx, group, topic, offset, retention)
            }
            ["OFFSET_GET", group, topic] => self.cmd_offset_get(ctx, group, topic),
            _ => format!("ERR unknown command '{text}'"),
        };
        ctx.send(from, reply.into_bytes().into());
    }

    fn cmd_produce(&mut self, ctx: &mut Ctx<'_>, topic: &str, value: &str) -> String {
        let idx = self.next_index(ctx, topic);
        ctx.storage()
            .write(&Self::record_path(topic, idx), value.as_bytes().to_vec());
        // Durable-on-ack: the produce reply below promises the record.
        ctx.flush(&Self::record_path(topic, idx));
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
        format!("OK {idx}")
    }

    fn cmd_fetch(&mut self, ctx: &mut Ctx<'_>, topic: &str, idx: &str) -> String {
        let Ok(idx) = idx.parse::<u64>() else {
            return format!("ERR bad index '{idx}'");
        };
        match ctx.storage_ref().read(&Self::record_path(topic, idx)) {
            Some(bytes) => format!("OK {}", String::from_utf8_lossy(bytes)),
            None => "ERR no record".to_string(),
        }
    }

    fn cmd_commit(
        &mut self,
        ctx: &mut Ctx<'_>,
        group: &str,
        topic: &str,
        offset: &str,
        retention: &str,
    ) -> String {
        let (Ok(offset), Ok(retention)) = (offset.parse::<u64>(), retention.parse::<i64>()) else {
            return "ERR bad commit arguments".to_string();
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
                ctx.storage()
                    .write(&format!("offsets/{group}.{topic}"), bytes);
                ctx.flush(&format!("offsets/{group}.{topic}"));
                "OK".to_string()
            }
            Err(e) => {
                // 2.1.0 with an old client: expire_ts is None but the
                // on-disk record still requires it.
                ctx.error(format!(
                    "failed to persist offset commit for {group}/{topic}: {e}"
                ));
                "ERR offset commit failed".to_string()
            }
        }
    }

    fn cmd_offset_get(&mut self, ctx: &mut Ctx<'_>, group: &str, topic: &str) -> String {
        match ctx.storage_ref().read(&format!("offsets/{group}.{topic}")) {
            Some(bytes) => match codec::decode_offset_record(self.version, bytes) {
                Ok((offset, _)) => format!("OK {offset}"),
                Err(e) => {
                    ctx.error(format!("corrupt offset record for {group}/{topic}: {e}"));
                    format!("ERR corrupt offset record: {e}")
                }
            },
            None => "ERR no committed offset".to_string(),
        }
    }
}

impl Process for Broker {
    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.clone()))
    }

    fn restore_from(&mut self, src: &dyn Process) -> bool {
        let any: &dyn std::any::Any = src;
        match any.downcast_ref::<Self>() {
            Some(other) => {
                self.clone_from(other);
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
                let text = String::from_utf8_lossy(payload).into_owned();
                self.handle_client(ctx, from, &text);
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
                            ctx.storage().write(
                                &Self::record_path(&batch.topic, batch.offset),
                                batch.payload,
                            );
                            ctx.flush(&Self::record_path(&batch.topic, batch.offset));
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
    use dup_simnet::{Sim, SimDuration};

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
}
