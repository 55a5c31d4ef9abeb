//! Cross-crate property-based tests (proptest) over the core invariants.

use ds_upgrade::coord::CoordSystem;
use ds_upgrade::core::{upgrade_pairs, SystemUnderTest, VersionGap, VersionId};
use ds_upgrade::dfs::{codec as dfs_codec, DfsSystem};
use ds_upgrade::idl::{lower, parse_proto, parse_thrift};
use ds_upgrade::kvstore::{codec as kv_codec, KvStoreSystem};
use ds_upgrade::mq::{codec as mq_codec, MqSystem};
use ds_upgrade::simnet::{FaultKind, HostStorage, SimRng, SimTime};
use ds_upgrade::srcmodel::parse_java;
use ds_upgrade::tester::{
    apply_nudge, fault_plan_for, mutate, CaseOutcome, CaseRunner, CaseSpec, Corpus, CorpusEntry,
    Durability, FaultIntensity, MutationOp, OpenLoopSpec, PlanNudge, RolloutPlan, Scenario,
    SearchInput, WorkloadPlan, WorkloadSpec, MAX_NUDGE_SHIFT_MS, MAX_SETTLE_SHIFT_MS,
    PLAN_WINDOW_MS,
};
use ds_upgrade::wire::{proto, Frame, MessageValue, Value};
use proptest::prelude::*;

fn arb_version() -> impl Strategy<Value = VersionId> {
    (0u32..10, 0u32..25, 0u32..10).prop_map(|(ma, mi, p)| VersionId::new(ma, mi, p))
}

/// Text no grammar was written for: raw Latin-1 characters (controls, NBSP,
/// accents), lone quotes, comments that never close, wide characters, and
/// the openers of all three front ends repeated past every nesting bound.
fn arb_hostile_source() -> impl Strategy<Value = String> {
    const WORDS: &[&str] = &[
        "message A { ",
        "optional int32 x = 1 [",
        "reserved 0 to 4294967295;",
        "struct S { 1: ",
        "list<",
        "map<i32,",
        "enum E { A = 2147483647, B",
        "class A { ",
        "void m() { ",
        "x = f(",
        "y.a",
        "{",
        "<",
        "(",
        "}",
        "/*",
        "//",
        "\"",
        "'",
        "\n",
        "日本",
    ];
    let fragment = prop_oneof![
        any::<u8>().prop_map(|b| char::from(b).to_string()),
        (0..WORDS.len()).prop_map(|i| WORDS[i].to_string()),
        (0..WORDS.len(), 2usize..300).prop_map(|(i, n)| WORDS[i].repeat(n)),
    ];
    proptest::collection::vec(fragment, 0..24).prop_map(|parts| parts.concat())
}

/// Text near the case-input grammars, drawn from `rng`: either fragments
/// alone, or a valid repro line, nudge, rollout plan or workload spec with a
/// few runs of digits replaced by (or fragments inserted as) grammar tokens,
/// repro-line keys, empty and repeated separators, numbers past every
/// integer width, and non-ASCII characters where a step kind or a field tag
/// belongs. Edited numbers keep many of the
/// valid inputs valid, so the round trip is exercised, not only rejection.
fn case_input(rng: &mut SimRng) -> String {
    const VALID: &[&str] = &[
        "stress",
        "unit:testCompactTables",
        "state:testUpdateKeyspace",
        "open:c1000,r100,b2,x3,k64,z120,m60",
        "c1000000,r500,b2,x3,k64,z120,m10",
        "[1.0.0>2.0.0>3.0.0]s0,w500,u0:2,w1000,t0/6,p0,g0,j3:1,l3,d0:0",
        "[3.11.0]",
        "repro: 3.0.0->3.11.0 scenario=multi-hop workload=unit:testA seed=9 \
         faults=light durability=torn",
        "2.1.0->3.0.0 scenario=rolling workload=open:c10,r500,b2,x3,k64,z120,m90 seed=1001 \
         faults=off durability=strict nudge=a-4200,c7,f9e37,s-300,w2b,b11,k1,h5",
        "a-4200,c20000,f9e37,s-2000,w2b,b11,kff,h5",
    ];
    const WORDS: &[&str] = &[
        "[", "]", ">", ",", ",,", ":", "/", ".", "1.0.0", "s", "u", "d", "j", "l", "w", "t", "p",
        "g", "open:", "unit:", "state:", "stress", "c", "r", "b", "x", "k", "z", "m", "0", "100",
        "101", "255", "256", "1000000", "1000001", "-1", "+2", "é", "日本", "\u{3000}", " ", "a",
        "f", "h", "ffff", "20001", "-2000", "rolling", "heavy", "buffered",
    ];
    const KEYS: [&str; 6] = [
        "->",
        "repro: ",
        "scenario=",
        "faults=",
        "durability=",
        "nudge=",
    ];
    let mut text = String::new();
    let edits = if rng.chance(0.5) {
        text.push_str(VALID[rng.next_below(VALID.len() as u64) as usize]);
        rng.next_below(4)
    } else {
        1 + rng.next_below(24)
    };
    for _ in 0..edits {
        let fragment = match rng.next_below(4) {
            0 => WORDS[rng.next_below(WORDS.len() as u64) as usize].to_string(),
            1 => KEYS[rng.next_below(KEYS.len() as u64) as usize].to_string(),
            // Up to 66 bits: past `u8`, `u32` and `u64` alike.
            2 => (u128::from(rng.next_u64()) << 2 >> rng.next_below(67)).to_string(),
            _ => char::from(rng.next_below(256) as u8).to_string(),
        };
        let mut at = rng.next_below(text.len() as u64 + 1) as usize;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let digits = text[at..].bytes().take_while(u8::is_ascii_digit).count();
        text.replace_range(at..at + digits, &fragment);
    }
    text
}

/// Feeds `text` to the five case-input parsers: each returns, and every
/// value one accepts renders back to text that parses to the same value.
/// Returns which of them accepted it.
fn case_input_parses_and_round_trips(text: &str) -> [bool; 5] {
    let workload = WorkloadSpec::parse(text);
    if let Some(spec) = &workload {
        assert_eq!(
            WorkloadSpec::parse(&spec.to_string()).as_ref(),
            Some(spec),
            "{text:?}"
        );
    }
    let open_loop = OpenLoopSpec::parse(text);
    if let Some(spec) = &open_loop {
        assert_eq!(
            OpenLoopSpec::parse(&spec.to_string()).as_ref(),
            Some(spec),
            "{text:?}"
        );
    }
    let plan = RolloutPlan::parse(text);
    if let Ok(plan) = &plan {
        assert_eq!(
            RolloutPlan::parse(&plan.render()).as_ref(),
            Ok(plan),
            "{text:?}"
        );
    }
    let spec = text.parse::<CaseSpec>();
    if let Ok(spec) = &spec {
        assert_eq!(spec.to_string().parse().as_ref(), Ok(spec), "{text:?}");
    }
    let nudge = text.parse::<PlanNudge>();
    if let Ok(nudge) = &nudge {
        assert_eq!(nudge.to_string().parse().as_ref(), Ok(nudge), "{text:?}");
    }
    [
        workload.is_some(),
        open_loop.is_some(),
        plan.is_ok(),
        spec.is_ok(),
        nudge.is_ok(),
    ]
}

/// The seeded twin of `case_input_parsers_return_and_round_trip`: many more
/// inputs than a proptest run draws, and each parser must have accepted a
/// share of them.
#[test]
fn case_input_parsers_return_and_round_trip_on_seeded_text() {
    let mut rng = SimRng::new(41);
    let mut accepted = [0; 5];
    for _ in 0..20_000 {
        let flags = case_input_parses_and_round_trips(&case_input(&mut rng));
        for (count, flag) in accepted.iter_mut().zip(flags) {
            *count += usize::from(flag);
        }
    }
    println!("accepted (workload, open-loop, plan, repro line, nudge): {accepted:?} of 20 000");
    assert!(accepted.iter().all(|&n| n >= 200), "{accepted:?}");
}

/// Every repro line that parses runs to an outcome and never panics the
/// harness: two catalog versions in either order or equal, any scenario,
/// stress, a real and an unknown unit test (translated or handed off) or an
/// open loop, any fault intensity and durability. A reversed pair is
/// refused as `InvalidWorkload`. Eight seeded lines per system keep the
/// debug suite fast.
#[test]
fn every_parsed_repro_line_runs_to_an_outcome() {
    let systems: [&dyn SystemUnderTest; 4] = [&KvStoreSystem, &DfsSystem, &MqSystem, &CoordSystem];
    let mut rng = SimRng::new(35);
    for sut in systems {
        let versions = sut.versions();
        let real = sut.unit_tests().first().map(|t| t.name.clone());
        let real = real.unwrap_or_else(|| "none".to_string());
        let workloads = [
            "stress".to_string(),
            format!("unit:{real}"),
            "unit:noSuchTest".to_string(),
            format!("state:{real}"),
            "state:noSuchTest".to_string(),
            format!("open:{}", OpenLoopSpec::small()),
        ];
        let mut runner = CaseRunner::new(sut);
        for i in 0..8 {
            let a = *rng.pick(&versions).unwrap();
            let b = *rng.pick(&versions).unwrap();
            let (from, to) = match i % 4 {
                // Reversed whenever the draw gives two versions.
                0 => (a.max(b), a.min(b)),
                1 => (a, a),
                _ => (a, b),
            };
            let line = format!(
                "repro: {from}->{to} scenario={} workload={} seed={} faults={} durability={}",
                rng.pick(&Scenario::extended()).unwrap(),
                rng.pick(&workloads).unwrap(),
                rng.next_below(3),
                rng.pick(&FaultIntensity::ALL).unwrap(),
                rng.pick(&Durability::ALL).unwrap(),
            );
            let spec: CaseSpec = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
            let outcome = spec.run_in(&mut runner).outcome;
            if to < from {
                assert!(
                    matches!(outcome, CaseOutcome::InvalidWorkload(_)),
                    "{line}: {outcome:?}"
                );
            }
        }
    }
}

proptest! {
    /// The repro-line, nudge, rollout-plan, open-loop and workload parsers
    /// return on any text near their grammars, and round-trip every value
    /// they accept.
    #[test]
    fn case_input_parsers_return_and_round_trip(seed in any::<u64>()) {
        case_input_parses_and_round_trips(&case_input(&mut SimRng::new(seed)));
    }

    /// The three front ends DUPChecker reads with return on any text: a
    /// hostile schema or source file is an `Err`, never a panic, a stack
    /// overflow or an allocation sized by a number in the input.
    #[test]
    fn front_ends_return_on_hostile_text(text in arb_hostile_source()) {
        let _ = parse_proto(&text);
        let _ = parse_thrift(&text);
        let _ = parse_java(&text);
    }

    /// Version parsing round-trips through Display.
    #[test]
    fn version_display_parse_roundtrip(v in arb_version()) {
        let parsed: VersionId = v.to_string().parse().unwrap();
        prop_assert_eq!(parsed, v);
    }

    /// Gap classification is symmetric in magnitude and `Same` iff equal.
    #[test]
    fn gap_classification_properties(a in arb_version(), b in arb_version()) {
        let ab = a.gap_to(&b);
        let ba = b.gap_to(&a);
        prop_assert_eq!(ab == VersionGap::Same, a == b);
        // Magnitudes agree in both directions.
        match (ab, ba) {
            (VersionGap::Major(x), VersionGap::Major(y)) => prop_assert_eq!(x, y),
            (VersionGap::Minor(x), VersionGap::Minor(y)) => prop_assert_eq!(x, y),
            (VersionGap::BugFixOnly, VersionGap::BugFixOnly) => {}
            (VersionGap::Same, VersionGap::Same) => {}
            other => prop_assert!(false, "asymmetric gaps {:?}", other),
        }
    }

    /// Consecutive-pair enumeration yields only gap-1 (or bug-fix) pairs and
    /// is ordered old -> new.
    #[test]
    fn upgrade_pairs_are_ordered_and_adjacent(
        versions in proptest::collection::vec(arb_version(), 2..8)
    ) {
        for (from, to) in upgrade_pairs(&versions, false) {
            prop_assert!(from < to);
        }
        // With gap-2 pairs included, the set only grows.
        let base = upgrade_pairs(&versions, false).len();
        let extended = upgrade_pairs(&versions, true).len();
        prop_assert!(extended >= base);
    }

    /// Frames round-trip arbitrary bodies.
    #[test]
    fn frame_roundtrip(version in any::<u32>(), kind in "[a-z_]{1,12}",
                       body in proptest::collection::vec(any::<u8>(), 0..256)) {
        let f = Frame::new(version, &kind, body);
        prop_assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    /// A dynamically built message round-trips through a schema lowered
    /// from IDL text — the full text -> AST -> schema -> bytes pipeline.
    #[test]
    fn idl_to_wire_roundtrip(id in any::<u64>(), name in "[a-zA-Z0-9_]{0,24}",
                             tags in proptest::collection::vec(any::<u64>(), 0..12)) {
        let file = parse_proto(r#"
            message Record {
                required uint64 id = 1;
                optional string name = 2;
                repeated uint64 tags = 3;
            }
        "#).unwrap();
        let schema = lower(&file).unwrap();
        let mut value = MessageValue::new("Record")
            .set("id", Value::U64(id))
            .set("name", Value::Str(name.clone()));
        for t in &tags {
            value.push_mut("tags", Value::U64(*t));
        }
        let bytes = proto::encode(&schema, &value).unwrap();
        let back = proto::decode(&schema, "Record", &bytes).unwrap();
        prop_assert_eq!(back.get_u64("id").unwrap(), id);
        prop_assert_eq!(back.get_str("name").unwrap(), name.as_str());
        prop_assert_eq!(back.get_all("tags").len(), tags.len());
    }

    /// Decoding never panics on arbitrary bytes (malformed cross-version
    /// data must surface as errors, not crashes).
    #[test]
    fn decode_is_panic_free_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let file = parse_proto(r#"
            message Record {
                required uint64 id = 1;
                optional string name = 2;
                optional Inner inner = 3;
            }
            message Inner { required bool flag = 1; }
        "#).unwrap();
        let schema = lower(&file).unwrap();
        let _ = proto::decode(&schema, "Record", &bytes);
        let _ = ds_upgrade::wire::thrift::decode(&schema, "Record", &bytes);
        let _ = Frame::decode(&bytes);
    }

    /// No mini-system decoder panics on arbitrary bytes at any release: a
    /// torn or hostile peer frame or storage file surfaces as an error. The
    /// bytes also go in behind a well-formed frame header, so that the body
    /// decoders see them, and beside a replica batch whose topic length is
    /// 2^64 - 1, which random bytes all but never hit.
    #[test]
    fn mini_system_decoders_return_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        stamp in prop_oneof![0u32..80, 10_000u32..45_000],
    ) {
        let framed = Frame::new(stamp, "garbage", &bytes[..]).encode_to_vec();
        let hostile_batch = [&[0xff; 9][..], &[0x01], &[0; 16]].concat();
        for input in [&bytes[..], &framed[..], &hostile_batch[..]] {
            for v in KvStoreSystem::release_history() {
                let _ = kv_codec::decode_gossip(v, input);
                let _ = kv_codec::decode_handshake(v, input);
                let _ = kv_codec::decode_schema_state(v, input);
                let _ = kv_codec::decode_row(v, input);
            }
            for v in DfsSystem::release_history() {
                let _ = dfs_codec::decode_fsimage(v, input);
                if let Ok(heartbeat) = dfs_codec::decode_heartbeat(v, input) {
                    heartbeat.for_each(|_| {});
                }
            }
            for v in MqSystem::release_history() {
                let _ = mq_codec::decode_offset_record(v, input);
                let _ = mq_codec::decode_replica_batch(v, input);
            }
        }
    }

    /// Host storage behaves like a map with prefix listing.
    #[test]
    fn storage_model(ops in proptest::collection::vec(
        (prop_oneof![Just(0u8), Just(1), Just(2)], "[a-c]/[a-z]{1,4}",
         proptest::collection::vec(any::<u8>(), 0..16)), 0..32)) {
        let mut real = HostStorage::new();
        let mut model = std::collections::BTreeMap::<String, Vec<u8>>::new();
        for (op, path, data) in ops {
            match op {
                0 => {
                    real.write(&path, data.clone());
                    model.insert(path.clone(), data);
                }
                1 => {
                    real.append(&path, &data);
                    model.entry(path.clone()).or_default().extend_from_slice(&data);
                }
                _ => {
                    let a = real.delete(&path);
                    let b = model.remove(&path).is_some();
                    prop_assert_eq!(a, b);
                }
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(real.read(k), Some(v.as_slice()));
        }
        prop_assert_eq!(real.file_count(), model.len());
        let listed = real.list("a/");
        let expected: Vec<&String> = model.keys().filter(|k| k.starts_with("a/")).collect();
        prop_assert_eq!(listed.len(), expected.len());
    }

    /// Crash-durability invariant 1: bytes flushed before a crash survive
    /// byte-identical, and whatever survives of an append stream is a prefix
    /// of what was written — a torn tail only ever shortens the unflushed
    /// suffix, whatever the seed or mode.
    #[test]
    fn flushed_bytes_survive_any_crash(
        seed in any::<u64>(),
        head in proptest::collection::vec(any::<u8>(), 0..48),
        tail in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        for mode in [Durability::Buffered, Durability::Torn] {
            let mut s = HostStorage::new();
            s.set_durability(mode);
            s.append("wal", &head);
            s.flush("wal");
            s.append("wal", &tail);
            s.crash_materialize(&mut SimRng::new(seed));
            let bytes = s.read("wal").expect("flushed file must survive");
            prop_assert!(bytes.starts_with(&head), "{mode}: durable prefix corrupted");
            let mut written = head.clone();
            written.extend_from_slice(&tail);
            prop_assert!(written.starts_with(bytes), "{mode}: survivor is not a prefix");
            if mode == Durability::Buffered {
                // All-or-nothing: no partial tails in buffered mode.
                prop_assert!(
                    bytes.len() == head.len() || bytes.len() == written.len(),
                    "buffered crash left a partial tail"
                );
            }
        }
    }

    /// Crash-durability invariant 2: materialization is a pure function of
    /// (storage state, RNG seed) — same inputs, byte-identical recovery
    /// image, whatever mix of writes, appends, and flushes preceded it.
    #[test]
    fn crash_materializer_is_pure(
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            (prop_oneof![Just(0u8), Just(1), Just(2)], "[a-b]/[a-z]{1,3}",
             proptest::collection::vec(any::<u8>(), 0..12)), 0..24),
    ) {
        let build = || {
            let mut s = HostStorage::new();
            s.set_durability(Durability::Torn);
            for (op, path, data) in &ops {
                match op {
                    0 => {
                        s.write(path, data.clone());
                    }
                    1 => s.append(path, data),
                    _ => s.flush(path),
                }
            }
            s
        };
        let mut a = build();
        let mut b = build();
        a.crash_materialize(&mut SimRng::new(seed));
        b.crash_materialize(&mut SimRng::new(seed));
        prop_assert_eq!(a.list(""), b.list(""));
        for path in a.list("") {
            prop_assert_eq!(a.read(&path), b.read(&path), "{}", path);
        }
    }

    /// Deterministic RNG streams: same seed, same draws; bounded draws stay
    /// in range.
    #[test]
    fn rng_determinism(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            let x = a.next_below(bound);
            prop_assert_eq!(x, b.next_below(bound));
            prop_assert!(x < bound);
        }
    }

    /// The study dataset never violates Finding 10's bound regardless of
    /// which slice you look at (exhaustive, but phrased as a property over
    /// random subsets to exercise the accessor paths).
    #[test]
    fn study_slices_respect_node_bound(start in 0usize..123, len in 0usize..123) {
        let ds = ds_upgrade::study::dataset();
        let end = (start + len).min(ds.len());
        for r in &ds[start..end] {
            prop_assert!(r.nodes_required <= 3);
        }
    }

    /// Fault plans are pure functions of (intensity, seed, cluster size):
    /// same inputs, byte-identical plan — the repro-string contract.
    #[test]
    fn fault_plans_are_pure(seed in any::<u64>(), nodes in 1u32..6) {
        for intensity in [FaultIntensity::Light, FaultIntensity::Heavy] {
            let a = fault_plan_for(intensity, Durability::Strict, seed, nodes, SimTime::ZERO).unwrap();
            let b = fault_plan_for(intensity, Durability::Strict, seed, nodes, SimTime::ZERO).unwrap();
            prop_assert_eq!(a.seed(), b.seed());
            prop_assert_eq!(a.actions(), b.actions());
            prop_assert_eq!(a.describe(), b.describe());
        }
        prop_assert!(fault_plan_for(FaultIntensity::Off, Durability::Strict, seed, nodes, SimTime::ZERO).is_none());
    }

    /// Every scheduled fault targets the booted cluster, partitions pair
    /// distinct nodes, and action times stay inside the harness's workload
    /// window — whatever the seed.
    #[test]
    fn fault_plan_targets_and_times_are_bounded(seed in any::<u64>(), nodes in 1u32..6) {
        let plan = fault_plan_for(FaultIntensity::Heavy, Durability::Strict, seed, nodes, SimTime::ZERO).unwrap();
        for action in plan.actions() {
            match action.kind {
                FaultKind::Partition(a, b) | FaultKind::Heal(a, b) => {
                    prop_assert!(a < nodes && b < nodes);
                    prop_assert_ne!(a, b);
                }
                FaultKind::Crash(x) | FaultKind::Restart(x) => prop_assert!(x < nodes),
            }
            prop_assert!(action.at.as_millis() <= 58_000);
        }
    }

    /// A faulted simulation trace is deterministic in (sim seed, plan):
    /// identical runs agree on every global counter.
    #[test]
    fn faulted_sim_counters_are_deterministic(seed in any::<u64>()) {
        use ds_upgrade::simnet::{Ctx, Endpoint, Process, Sim, SimDuration, StepResult};
        use bytes::Bytes;

        struct Pinger(u32);
        impl Process for Pinger {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) -> StepResult {
                ctx.set_timer(SimDuration::from_millis(20), 1);
                Ok(())
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Endpoint, _p: &[u8]) -> StepResult {
                Ok(())
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: u64) -> StepResult {
                ctx.send(Endpoint::Node(self.0), Bytes::from_static(b"ping"));
                ctx.set_timer(SimDuration::from_millis(20), 1);
                Ok(())
            }
        }

        let run = || {
            let mut sim = Sim::new(seed);
            let a = sim.add_node("host-a", "v1", Box::new(Pinger(1)));
            let b = sim.add_node("host-b", "v1", Box::new(Pinger(0)));
            sim.start_node(a).unwrap();
            sim.start_node(b).unwrap();
            sim.install_fault_plan(fault_plan_for(FaultIntensity::Heavy, Durability::Strict, seed, 2, SimTime::ZERO).unwrap());
            sim.run_for(SimDuration::from_millis(800));
            (sim.events_processed(), sim.messages_delivered(), sim.faults_injected())
        };
        prop_assert_eq!(run(), run());
    }

    /// Mutation operators are pure functions of `(input, rng state)`: the
    /// same derivation yields the same mutant, the mutant keeps the parent's
    /// seed (mutants never reseed), and every shift stays within the nudge
    /// bound.
    #[test]
    fn search_mutations_are_pure_seeded_and_bounded(
        rng_seed in any::<u64>(),
        streams in proptest::collection::vec(any::<u64>(), 1..4),
        parent_seed in any::<u64>(),
    ) {
        let parent = SearchInput::from_seed(parent_seed);
        for op in MutationOp::ALL {
            let derive = || {
                let mut rng = SimRng::new(rng_seed);
                for s in &streams {
                    rng = rng.split(*s);
                }
                rng
            };
            let a = mutate(&parent, op, &mut derive());
            let b = mutate(&parent, op, &mut derive());
            prop_assert_eq!(a, b, "same derivation must yield the same mutant");
            prop_assert_eq!(a.seed, parent.seed, "mutants never change the seed");
            let bound = MAX_NUDGE_SHIFT_MS as i64;
            prop_assert!(a.nudge.action_shift_ms.abs() <= bound);
            prop_assert!(a.nudge.crash_shift_ms.abs() <= bound);
            prop_assert!(a.nudge.settle_shift_ms.abs() <= MAX_SETTLE_SHIFT_MS as i64);
            prop_assert!(a.nudge.burst_shift_ms.abs() <= bound);
            if op == MutationOp::SwapReorderFates {
                prop_assert_ne!(a.nudge.fate_salt, 0, "fate swap must re-roll");
            }
            if op == MutationOp::NudgeRolloutPlan {
                prop_assert_ne!(a.nudge.step_swap_salt, 0, "plan nudge must swap");
            }
            if op == MutationOp::ReRankHotKeys {
                prop_assert_ne!(a.nudge.key_rank_salt, 0, "re-rank must re-roll");
            }
            if op == MutationOp::MoveArrivalChurn {
                prop_assert_ne!(a.nudge.arrival_churn_salt, 0, "churn must re-roll");
            }
        }
    }

    /// However extreme the nudge, every action and crash point of the
    /// nudged plan stays inside `[base, base + PLAN_WINDOW_MS]`, and the
    /// relative order of actions is preserved.
    #[test]
    fn nudged_plan_times_stay_in_window_and_ordered(
        seed in any::<u64>(),
        action_shift_ms in -200_000i64..200_000,
        crash_shift_ms in -200_000i64..200_000,
        fate_salt in any::<u64>(),
        base_ms in 0u64..60_000,
    ) {
        let base = SimTime::from_millis(base_ms);
        let plan = fault_plan_for(FaultIntensity::Heavy, Durability::Buffered, seed, 4, base)
            .expect("heavy+buffered always yields a plan");
        let nudge = PlanNudge {
            action_shift_ms,
            crash_shift_ms,
            fate_salt,
            ..PlanNudge::default()
        };
        let nudged = apply_nudge(&plan, &nudge, base);

        let lo = base.as_millis();
        let hi = lo + PLAN_WINDOW_MS;
        for action in nudged.actions() {
            prop_assert!(action.at.as_millis() >= lo && action.at.as_millis() <= hi);
        }
        for point in nudged.crash_points() {
            prop_assert!(point.after.as_millis() >= lo && point.after.as_millis() <= hi);
            prop_assert!(point.not_after.as_millis() >= lo && point.not_after.as_millis() <= hi);
            prop_assert!(point.after <= point.not_after);
        }
        let before = plan.actions();
        let after = nudged.actions();
        prop_assert_eq!(before.len(), after.len());
        for i in 0..before.len() {
            for j in 0..before.len() {
                if before[i].at <= before[j].at {
                    prop_assert!(after[i].at <= after[j].at, "uniform shift must preserve order");
                }
            }
        }
    }

    /// Every (scenario, cluster size, version pair, seed) in range compiles
    /// to a rollout plan that passes validation and round-trips through its
    /// rendered form.
    #[test]
    fn compiled_rollout_plans_are_valid_and_round_trip(
        seed in any::<u64>(),
        n in 1u32..6,
        a in arb_version(),
        b in arb_version(),
        mid in arb_version(),
    ) {
        let (from, to) = if a < b {
            (a, b)
        } else if b < a {
            (b, a)
        } else {
            // Equal draws: synthesize a strictly newer `to`.
            (a, VersionId::new(a.major + 1, 0, 0))
        };
        let mut catalog = vec![from, mid, to];
        catalog.sort();
        catalog.dedup();
        let mut plan = RolloutPlan::new();
        for scenario in Scenario::extended() {
            plan.compile(scenario, from, to, &catalog, n, seed);
            prop_assert!(
                plan.validate(n).is_ok(),
                "{}: {:?} for plan {}", scenario, plan.validate(n), plan.render()
            );
            let parsed = RolloutPlan::parse(&plan.render()).expect("rendered plans parse");
            prop_assert_eq!(&parsed, &plan, "{} round trip", scenario);
        }
    }

    /// `NudgeRolloutPlan`'s effect ([`RolloutPlan::nudge`]) is pure and
    /// validity-preserving for arbitrary — even wildly out-of-range —
    /// nudges, on every scenario's compiled plan.
    #[test]
    fn plan_nudges_preserve_validity(
        seed in any::<u64>(),
        n in 1u32..6,
        settle_shift_ms in -200_000i64..200_000,
        step_swap_salt in any::<u64>(),
    ) {
        let from: VersionId = "1.0.0".parse().unwrap();
        let mid: VersionId = "2.0.0".parse().unwrap();
        let to: VersionId = "3.0.0".parse().unwrap();
        let catalog = [from, mid, to];
        let nudge = PlanNudge {
            settle_shift_ms,
            step_swap_salt,
            ..PlanNudge::default()
        };
        for scenario in Scenario::extended() {
            let mut plan = RolloutPlan::new();
            plan.compile(scenario, from, to, &catalog, n, seed);
            let mut twin = plan.clone();
            plan.nudge(&nudge);
            twin.nudge(&nudge);
            prop_assert_eq!(&plan, &twin, "{}: nudge must be pure", scenario);
            prop_assert!(
                plan.validate(n).is_ok(),
                "{}: nudged plan invalid: {:?}", scenario, plan.validate(n)
            );
        }
    }

    /// Corpus insertion is commutative: the retained set is a pure function
    /// of the observation *set*, not the order observations arrive in.
    #[test]
    fn corpus_insertion_is_permutation_stable(
        raw in proptest::collection::vec((0u64..6, any::<u64>(), -30_000i64..30_000), 1..24),
    ) {
        // Payload fields derive from (digest, input) — as in the real search,
        // where an identical input folds an identical signature.
        let entries: Vec<CorpusEntry> = raw
            .iter()
            .map(|&(digest, seed, shift)| CorpusEntry {
                input: SearchInput {
                    seed,
                    nudge: PlanNudge { action_shift_ms: shift, ..PlanNudge::default() },
                },
                digest,
                new_bits: (digest as u32) ^ (seed as u32),
                bits_set: seed as u32 & 0xFF,
            })
            .collect();

        let fill = |order: &[CorpusEntry]| {
            let mut corpus = Corpus::new();
            for e in order {
                corpus.insert(*e);
            }
            corpus
        };
        let forward = fill(&entries);
        let mut reversed_order = entries.clone();
        reversed_order.reverse();
        let mut rotated_order = entries.clone();
        rotated_order.rotate_left(entries.len() / 2);
        prop_assert_eq!(&forward, &fill(&reversed_order));
        prop_assert_eq!(&forward, &fill(&rotated_order));
        prop_assert!(forward.len() <= entries.len());
        for e in forward.entries() {
            prop_assert!(forward.contains(e.digest));
        }
    }
}

fn arb_open_loop_spec() -> impl Strategy<Value = OpenLoopSpec> {
    (
        (1u64..5_000, 1u32..300, 0u8..5, 1u8..8),
        (1u32..400, 0u16..300, 0u8..101),
    )
        .prop_map(
            |(
                (clients, rate_per_sec, bursts, burst_factor),
                (keys, zipf_s_hundredths, read_pct),
            )| {
                OpenLoopSpec {
                    clients,
                    rate_per_sec,
                    bursts,
                    burst_factor,
                    keys,
                    zipf_s_hundredths,
                    read_pct,
                }
            },
        )
}

proptest! {
    /// The arrival process is a pure function of `(spec, seed, window)`:
    /// recompiling — even into a plan previously holding a different spec —
    /// replays the identical arrival stream, arrival times stay inside the
    /// window and never decrease, and indices are dense from zero.
    #[test]
    fn open_loop_arrival_process_is_pure(
        spec in arb_open_loop_spec(),
        other in arb_open_loop_spec(),
        seed in any::<u64>(),
        window_ms in 50u64..2_000,
    ) {
        let mut plan = WorkloadPlan::new();
        plan.compile(&spec, seed, window_ms);
        prop_assert!(plan.validate().is_ok(), "{:?}", plan.validate());
        let first: Vec<_> = plan
            .arrivals()
            .map(|a| (a.at_us, a.index, a.client, a.key, a.read))
            .collect();
        // Dirty the plan with an unrelated compile, then recompile.
        plan.compile(&other, seed ^ 1, window_ms / 2 + 1);
        plan.compile(&spec, seed, window_ms);
        let second: Vec<_> = plan
            .arrivals()
            .map(|a| (a.at_us, a.index, a.client, a.key, a.read))
            .collect();
        prop_assert_eq!(&first, &second, "recompile must replay the stream");

        let mut last = 0u64;
        for (i, &(at_us, index, client, key, _)) in first.iter().enumerate() {
            prop_assert_eq!(index, i as u64, "indices must be dense");
            prop_assert!(at_us < plan.window_us(), "arrival past the window");
            prop_assert!(at_us >= last, "arrival times must be monotone");
            prop_assert!(client < spec.clients, "client id out of range");
            prop_assert!(key < u64::from(spec.keys), "key out of range");
            last = at_us;
        }
    }

    /// With no burst segments, every interarrival gap is bounded: the
    /// integer exponential sampler caps its variate at ~22.2 times the
    /// mean, so consecutive arrivals are never more than `mean * 23 + 1`
    /// microseconds apart.
    #[test]
    fn open_loop_interarrivals_are_bounded(
        clients in 1u64..100_000,
        rate in 1u32..500,
        seed in any::<u64>(),
    ) {
        let spec = OpenLoopSpec { bursts: 0, clients, rate_per_sec: rate, ..OpenLoopSpec::small() };
        let mut plan = WorkloadPlan::new();
        plan.compile(&spec, seed, 2_000);
        let mean = 1_000_000u64 / u64::from(rate);
        let bound = mean * 23 + 1;
        let mut last = 0u64;
        for a in plan.arrivals() {
            prop_assert!(
                a.at_us - last <= bound,
                "gap {} exceeds bound {bound} (mean {mean})",
                a.at_us - last
            );
            last = a.at_us;
        }
    }

    /// The rank→key map is a seeded permutation: over the full rank range
    /// every key appears exactly once, and the permutation is stable in
    /// `(spec, seed)`.
    #[test]
    fn open_loop_rank_permutation_is_bijective(
        keys in 1u32..600,
        seed in any::<u64>(),
    ) {
        let spec = OpenLoopSpec { keys, ..OpenLoopSpec::small() };
        let mut plan = WorkloadPlan::new();
        plan.compile(&spec, seed, 100);
        let mut seen = vec![false; keys as usize];
        for rank in 0..u64::from(keys) {
            let key = plan.key_of_rank(rank);
            prop_assert!(key < u64::from(keys), "key {key} out of domain");
            prop_assert!(!seen[key as usize], "key {key} hit twice");
            seen[key as usize] = true;
        }
        let mut again = WorkloadPlan::new();
        again.compile(&spec, seed, 100);
        for rank in 0..u64::from(keys) {
            prop_assert_eq!(plan.key_of_rank(rank), again.key_of_rank(rank));
        }
    }
}
