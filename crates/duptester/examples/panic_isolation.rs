//! Demonstrates (and smoke-tests, in CI) the self-protecting executor: a
//! deliberately panicking SUT adapter costs exactly one case, which is
//! isolated into a `Panicked` failure report with a repro string, while the
//! sibling cases complete — and the process exits 0.
//!
//! ```sh
//! cargo run -p dup-tester --example panic_isolation
//! ```

use dup_core::{ClientOp, NodeSetup, SystemUnderTest, VersionId, WorkloadPhase};
use dup_simnet::{Ctx, Endpoint, Process, StepResult};
use dup_tester::{Campaign, Scenario};

/// Replies `OK` to every client command; otherwise inert.
struct Echo;

impl Process for Echo {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) -> StepResult {
        Ok(())
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, _payload: &[u8]) -> StepResult {
        ctx.send(from, bytes::Bytes::from_static(b"OK"));
        Ok(())
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _id: u64) -> StepResult {
        Ok(())
    }
}

/// A buggy SUT adapter: workload generation panics for seed 2. The panic
/// triggers on the during-upgrade phase because pre-upgrade ops belong to
/// the seed-independent case prefix (they draw from the group's derived
/// prefix seed, never from an individual case's seed).
struct PanickySut;

impl SystemUnderTest for PanickySut {
    fn name(&self) -> &'static str {
        "panicky-toy"
    }
    fn versions(&self) -> Vec<VersionId> {
        vec!["1.0.0".parse().unwrap(), "2.0.0".parse().unwrap()]
    }
    fn cluster_size(&self) -> u32 {
        1
    }
    fn spawn(&self, _version: VersionId, _setup: &NodeSetup) -> Box<dyn Process> {
        Box::new(Echo)
    }
    fn stress_ops(
        &self,
        seed: u64,
        phase: WorkloadPhase,
        _client_version: VersionId,
        emit: &mut dyn FnMut(ClientOp),
    ) {
        if seed == 2 && phase == WorkloadPhase::DuringUpgrade {
            panic!("deliberate example panic for seed 2");
        }
        emit(ClientOp::new(0, "HEALTH"));
    }
}

fn main() {
    let report = Campaign::builder(&PanickySut)
        .seeds([1, 2, 3])
        .scenarios([Scenario::FullStop])
        .unit_tests(false)
        .run();

    let table = report.render_table();
    print!("{table}");

    let panicked = report.metrics.per_scenario[&Scenario::FullStop].panicked;
    assert_eq!(panicked, 1, "exactly one case must be reported Panicked");
    assert_eq!(report.cases_passed, 2, "sibling cases must still pass");
    assert!(
        table.contains("Harness Panic"),
        "report must carry the panic cause"
    );
    println!(
        "panic isolated: 1 case Panicked, {} passed, exit 0",
        report.cases_passed
    );
}
