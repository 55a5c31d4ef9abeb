//! Cross-crate integration: the full pipeline from IDL text through the
//! wire runtime through the simulator, and tools cross-checking each other.

use ds_upgrade::checker::{compare_files, Severity};
use ds_upgrade::core::VersionId;
use ds_upgrade::idl::{lower, parse_proto};
use ds_upgrade::prelude::{CaseOutcome, Scenario, TestCase, WorkloadSpec};
use ds_upgrade::simnet::{Sim, SimDuration};
use ds_upgrade::tester::catalog::seeded_bugs;
use ds_upgrade::wire::{proto, MessageValue, Value, WireError};

fn v(s: &str) -> VersionId {
    s.parse().unwrap()
}

/// The violation DUPChecker reports statically is exactly the decode error
/// the wire runtime produces dynamically: the two tools agree.
#[test]
fn checker_prediction_matches_runtime_behaviour() {
    let old_src = "message Checkpoint { required uint64 term = 1; }";
    let new_src = "message Checkpoint { required uint64 term = 1; required uint64 id = 2; }";
    let old_idl = parse_proto(old_src).unwrap();
    let new_idl = parse_proto(new_src).unwrap();

    // Statically: one error-severity violation.
    let violations = compare_files(&old_idl, &new_idl);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].severity(), Severity::Error);

    // Dynamically: bytes written under the old schema fail to decode under
    // the new one, with the matching error.
    let old_schema = lower(&old_idl).unwrap();
    let new_schema = lower(&new_idl).unwrap();
    let bytes = proto::encode(
        &old_schema,
        &MessageValue::new("Checkpoint").set("term", Value::U64(3)),
    )
    .unwrap();
    let err = proto::decode(&new_schema, "Checkpoint", &bytes).unwrap_err();
    assert!(matches!(err, WireError::MissingRequired { field, .. } if field == "id"));
}

/// DUPChecker run over the `.proto` text the mini systems execute, on every
/// consecutive release pair, predicts exactly the seeded bugs whose
/// mechanism is a declared-format change: every ERROR sits on a pair with a
/// seeded bug, and the one WARN is on a pair DUPTester reports clean.
#[test]
fn checker_agrees_with_the_catalog_on_the_executed_formats() {
    use ds_upgrade::coord::{CoordSystem, SNAPSHOT, VOTE};
    use ds_upgrade::dfs::{codec as dfs, DfsSystem};
    use ds_upgrade::kvstore::{codec as kv, KvStoreSystem};
    use ds_upgrade::mq::{codec as mq, MqSystem};
    type Source = fn(VersionId) -> &'static str;
    let systems: [(&str, Vec<VersionId>, &[Source]); 4] = [
        (
            "cassandra-mini",
            KvStoreSystem::release_history(),
            &[
                |v| kv::GOSSIP.source_at(v),
                |v| kv::HANDSHAKE.source_at(v),
                |v| kv::SCHEMA_FILE.source_at(v),
            ],
        ),
        (
            "hdfs-mini",
            DfsSystem::release_history(),
            &[
                |v| dfs::FSIMAGE.source_at(v),
                |v| dfs::HEARTBEAT.source_at(v),
            ],
        ),
        (
            "kafka-mini",
            MqSystem::release_history(),
            &[|v| mq::OFFSETS.source_at(v)],
        ),
        (
            "zookeeper-mini",
            CoordSystem::release_history(),
            &[|v| VOTE.source_at(v), |v| SNAPSHOT.source_at(v)],
        ),
    ];
    let mut found = Vec::new();
    for (system, releases, families) in &systems {
        for pair in releases.windows(2) {
            for source in *families {
                let old = parse_proto(source(pair[0])).unwrap();
                let new = parse_proto(source(pair[1])).unwrap();
                for violation in compare_files(&old, &new) {
                    found.push((*system, pair[0], pair[1], violation));
                }
            }
        }
    }
    let rendered: Vec<String> = found
        .iter()
        .map(|(system, from, to, violation)| format!("{system} {from}->{to} {violation}"))
        .collect();
    assert_eq!(
        rendered,
        [
            "cassandra-mini 1.1.0->1.2.0 ERROR GossipDigest.schema_id: required member removed",
            "cassandra-mini 1.1.0->1.2.0 ERROR GossipDigest.schema_uuid: required member added",
            "cassandra-mini 1.2.0->2.0.0 ERROR Keyspace.name: tag changed 1 -> 2",
            "cassandra-mini 1.2.0->2.0.0 ERROR Keyspace.tables: tag changed 2 -> 4",
            "cassandra-mini 1.2.0->2.0.0 ERROR Keyspace.strategy: required member added",
            "hdfs-mini 3.1.0->3.2.0 ERROR Heartbeat.committedTxnId: required member added",
            "hdfs-mini 3.2.0->3.3.0 ERROR enum StorageType.ARCHIVE: number changed 2 -> 3",
            "hdfs-mini 3.2.0->3.3.0 ERROR enum StorageType.PROVIDED: number changed 3 -> 4",
            "kafka-mini 2.1.0->2.3.0 WARN  OffsetRecord.expire_ts: required changed to non-required",
            "zookeeper-mini 3.5.0->3.6.0 ERROR Snapshot.checkpoint_id: required member added",
        ]
    );
    // The seeded bugs (on the paper's scenarios) of a system's release pair.
    let bugs = seeded_bugs();
    let tickets_on = |system: &str, from: VersionId, to: VersionId| -> Vec<&str> {
        bugs.iter()
            .filter(|b| b.scenario.is_none() && b.system == system)
            .filter(|b| (b.from_version(), b.to_version()) == (from, to))
            .map(|b| b.ticket)
            .collect()
    };
    let mut predicted = Vec::new();
    for (system, from, to, violation) in &found {
        let tickets = tickets_on(system, *from, *to);
        match violation.severity() {
            Severity::Error => {
                assert!(
                    !tickets.is_empty(),
                    "ERROR on a pair without a seeded bug: {violation}"
                );
                predicted.extend(tickets);
            }
            // A WARN sits on a pair with no seeded bug: a control pair.
            Severity::Warning => assert_eq!(tickets, Vec::<&str>::new(), "{violation}"),
        }
    }
    predicted.dedup();
    assert_eq!(
        predicted,
        [
            "CASSANDRA-4195",
            "CASSANDRA-6678",
            "HDFS-14726",
            "HDFS-15624",
            "MESOS-3834 (shape)"
        ]
    );
}

/// Finding 9 in action: the consecutive-pair strategy finds a bug that a
/// same-version "upgrade" (the control) does not exhibit.
#[test]
fn consecutive_pair_strategy_vs_no_op_upgrade() {
    let buggy = TestCase {
        from: v("3.11.0"),
        to: v("4.0.0"),
        scenario: Scenario::FullStop,
        workload: WorkloadSpec::TranslatedUnit("testCompactTables".into()),
        seed: 1,
        faults: Default::default(),
        durability: Default::default(),
    };
    assert!(buggy.run(&ds_upgrade::kvstore::KvStoreSystem).is_failure());

    let no_op = TestCase {
        to: v("3.11.0"),
        ..buggy
    };
    assert!(!no_op.run(&ds_upgrade::kvstore::KvStoreSystem).is_failure());
}

/// The unit-test translator exposes a failure the stress workload cannot
/// (the CASSANDRA-16292 discovery path): DROP KEYSPACE is not a stress op.
#[test]
fn translated_unit_test_beats_stress_on_tombstone_bug() {
    let base = TestCase {
        from: v("3.0.0"),
        to: v("3.11.0"),
        scenario: Scenario::FullStop,
        workload: WorkloadSpec::Stress,
        seed: 1,
        faults: Default::default(),
        durability: Default::default(),
    };
    let stress = base.run(&ds_upgrade::kvstore::KvStoreSystem);
    let tombstone_in = |outcome: &CaseOutcome| match outcome {
        CaseOutcome::Fail(obs) => obs.iter().any(|o| o.to_string().contains("tombstone")),
        _ => false,
    };
    assert!(
        !tombstone_in(&stress),
        "stress should not trigger the tombstone bug"
    );

    let translated = TestCase {
        workload: WorkloadSpec::TranslatedUnit("testCachedPreparedStatements".into()),
        ..base
    };
    let outcome = translated.run(&ds_upgrade::kvstore::KvStoreSystem);
    assert!(
        tombstone_in(&outcome),
        "translated unit test must trigger it: {outcome:?}"
    );
}

/// The in-place unit-statement scheme (§6.1.2) exposes CASSANDRA-16301,
/// which needs internal APIs no client command reaches.
#[test]
fn unit_state_handoff_exposes_removed_strategy() {
    let case = TestCase {
        from: v("3.11.0"),
        to: v("4.0.0"),
        scenario: Scenario::FullStop,
        workload: WorkloadSpec::UnitStateHandoff("testUpdateKeyspace".into()),
        seed: 1,
        faults: Default::default(),
        durability: Default::default(),
    };
    match case.run(&ds_upgrade::kvstore::KvStoreSystem) {
        CaseOutcome::Fail(obs) => {
            assert!(obs
                .iter()
                .any(|o| o.to_string().contains("replication strategy")));
        }
        other => panic!("expected failure, got {other:?}"),
    }
}

/// Determinism across the whole stack (the property behind Finding 11):
/// identical seeds give identical campaign evidence.
#[test]
fn full_case_runs_are_deterministic() {
    let case = TestCase {
        from: v("1.1.0"),
        to: v("1.2.0"),
        scenario: Scenario::Rolling,
        workload: WorkloadSpec::Stress,
        seed: 9,
        faults: Default::default(),
        durability: Default::default(),
    };
    let a = case.run(&ds_upgrade::kvstore::KvStoreSystem);
    let b = case.run(&ds_upgrade::kvstore::KvStoreSystem);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// The study's Finding 10 holds for the mini systems too: every seeded bug
/// reproduces with at most 3 nodes (the cluster sizes the SUTs declare).
#[test]
fn mini_systems_respect_the_three_node_bound() {
    use ds_upgrade::prelude::SystemUnderTest;
    assert!(ds_upgrade::kvstore::KvStoreSystem.cluster_size() <= 3);
    assert!(ds_upgrade::dfs::DfsSystem.cluster_size() <= 3);
    assert!(ds_upgrade::mq::MqSystem.cluster_size() <= 3);
    assert_eq!(ds_upgrade::coord::CoordSystem.cluster_size(), 3);
}

/// Smoke test of the umbrella crate's re-exports: a tiny simulation built
/// purely through `ds_upgrade::` paths.
#[test]
fn umbrella_reexports_work() {
    let mut sim = Sim::new(1);
    let node = sim.add_node(
        "host",
        "3.6.0",
        Box::new(ds_upgrade::coord::CoordNode::new(
            v("3.6.0"),
            ds_upgrade::core::NodeSetup::new(0, 1),
        )),
    );
    sim.start_node(node).unwrap();
    sim.run_for(SimDuration::from_secs(3));
    let resp = sim.rpc(node, b"STAT".to_vec().into(), SimDuration::from_secs(1));
    assert!(resp.is_some());
}
