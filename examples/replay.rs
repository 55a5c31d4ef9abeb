//! Replays one reported failure from its `repro:` line: runs the case traced
//! and prints its outcome, its dedup key (the first symptom) and variant key
//! (the whole evidence set), the rollout plan it compiles to (before and
//! after its nudge) and the causal trace slice.
//!
//! ```text
//! cargo run --release --example replay -- hdfs-mini "repro: 2.8.0->3.1.0 \
//!     scenario=rolling workload=stress seed=1 faults=light durability=strict nudge=ff2ee4e6002b8dea1"
//! ```

use ds_upgrade::core::SystemUnderTest;
use ds_upgrade::tester::{
    dedup_key, variant_key, CaseOutcome, CaseRunner, CaseSpec, RolloutPlan, TraceConfig,
};
use ds_upgrade::{coord, dfs, kvstore, mq};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let systems: [&dyn SystemUnderTest; 4] = [
        &kvstore::KvStoreSystem,
        &dfs::DfsSystem,
        &mq::MqSystem,
        &coord::CoordSystem,
    ];
    let Some(sut) = (args.first()).and_then(|name| systems.into_iter().find(|s| s.name() == name))
    else {
        let names: Vec<_> = systems.iter().map(|s| s.name()).collect();
        eprintln!("usage: replay <{}> <repro line>", names.join("|"));
        exit(2);
    };
    let spec: CaseSpec = args[1..].join(" ").parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    });
    let case = &spec.case;
    let mut plan = RolloutPlan::new();
    let (versions, n) = (sut.versions(), sut.cluster_size());
    plan.compile(case.scenario, case.from, case.to, &versions, n, case.seed);
    println!("compiled plan: {plan}");
    plan.nudge(&spec.nudge);
    println!("nudged plan:   {plan}");
    let result = spec.run_in(&mut CaseRunner::with_trace(
        sut,
        Some(TraceConfig::default()),
    ));
    match &result.outcome {
        CaseOutcome::Fail(observations) => {
            println!("outcome: fail");
            for o in observations {
                println!("  {o}");
            }
            println!("dedup: {}", dedup_key(observations));
            println!("variant: {}", variant_key(observations));
        }
        other => println!("outcome: {other:?}"),
    }
    if let Some(slice) = &result.slice {
        print!("{}", slice.render_timeline());
    }
}
