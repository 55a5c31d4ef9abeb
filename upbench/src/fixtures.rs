//! The simulator and codec inputs of the layer micro-timings: the shapes the
//! criterion benches `perf_simnet` and `perf_wire` time. They are copies —
//! those benches keep their fixtures private, and the change that defines
//! the benchmark may edit nothing outside `upbench/`. The IDL, source-model
//! and checker rows need none: they time `static_check`'s own inputs.

use bytes::Bytes;
use dup_simnet::{Ctx, Endpoint, Process, Sim, SimDuration, StepResult};
use dup_wire::{
    EnumDescriptor, FieldDescriptor, FieldType, MessageDescriptor, MessageValue, Schema, Value,
};

/// Answers every message with `ping` until `remaining` runs out
/// (`perf_simnet`'s `Pinger`).
pub struct Pinger {
    pub peer: u32,
    pub remaining: u32,
}

impl Process for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
        ctx.send(Endpoint::Node(self.peer), Bytes::from_static(b"ping"));
        Ok(())
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, _p: &[u8]) -> StepResult {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(from, Bytes::from_static(b"ping"));
        }
        Ok(())
    }
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) -> StepResult {
        Ok(())
    }
}

/// Ticks a 10 ms timer and gossips to its right-hand neighbour on every
/// tick (`perf_simnet`'s `StormNode`). Forkable, so a warm storm world can
/// be snapshotted.
#[derive(Clone)]
pub struct StormNode {
    pub peers: u32,
    pub me: u32,
    pub ticks: u32,
}

impl Process for StormNode {
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
        ctx.set_timer(SimDuration::from_millis(10), 0);
        Ok(())
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Endpoint, _p: &[u8]) -> StepResult {
        Ok(())
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> StepResult {
        if self.ticks > 0 {
            self.ticks -= 1;
            let next = (self.me + 1) % self.peers;
            ctx.send(Endpoint::Node(next), Bytes::from_static(b"gossip"));
            ctx.set_timer(SimDuration::from_millis(10), token);
        }
        Ok(())
    }
}

/// Eight started storm nodes with `ticks` timer rounds each.
pub fn storm_world(seed: u64, ticks: u32) -> Sim {
    let mut sim = Sim::new(seed);
    let peers = 8u32;
    for me in 0..peers {
        let id = sim.add_node(
            &format!("storm-{me}"),
            "v",
            Box::new(StormNode { peers, me, ticks }),
        );
        sim.start_node(id).expect("a fresh node starts");
    }
    sim
}

/// `perf_wire`'s heartbeat schema.
pub fn heartbeat_schema() -> Schema {
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

/// `perf_wire`'s heartbeat value with `blocks` block ids.
pub fn heartbeat(blocks: usize) -> MessageValue {
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
