//! The failure oracle (paper §6.1.1).
//!
//! "DUPTester treats error log messages, exceptions, and crashes as
//! indication for upgrade failures." The oracle also watches for message
//! storms (the CASSANDRA-13441 class, which crashes nothing) and for
//! unresponsive nodes after the upgrade.

use dup_simnet::{LogLevel, LogMark, NodeStatus, Sim};
use std::fmt;

/// One piece of evidence that the upgrade failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// A node crashed (fatal error or panic).
    NodeCrash {
        /// The crashed node.
        node: u32,
        /// Its version label at crash time.
        version: String,
        /// The crash reason.
        reason: String,
    },
    /// ERROR/FATAL records were logged during or after the upgrade.
    ErrorLogs {
        /// How many.
        count: usize,
        /// A representative message.
        sample: String,
    },
    /// A client operation received an error response.
    FailedOp {
        /// The command.
        command: String,
        /// The error response.
        response: String,
    },
    /// A client operation after the upgrade received no response at all.
    Unresponsive {
        /// The command.
        command: String,
    },
    /// Cluster traffic — node-to-node messages; client requests and
    /// replies are not counted — exploded relative to the pre-upgrade
    /// baseline.
    MessageStorm {
        /// Cluster messages observed in the upgrade window.
        messages: u64,
        /// Cluster messages expected in a window that long at the
        /// pre-upgrade rate.
        baseline: u64,
    },
    /// The harness itself panicked while executing the case (a bug in the
    /// system-under-test adapter or the harness, not in the upgrade). The
    /// campaign executor contains the panic and isolates it here so the
    /// remaining cases still run.
    HarnessPanic {
        /// The panic payload, as text.
        message: String,
    },
    /// The case exceeded its simulator event budget and was cut off: the
    /// run never terminated on its own (livelock, restart storm, timer
    /// loop).
    CaseHung {
        /// Events the simulator had processed when the watchdog fired.
        events: u64,
    },
}

impl Observation {
    /// A short, version-number-free signature used for deduplication.
    pub fn signature(&self) -> String {
        let raw = match self {
            Observation::NodeCrash { reason, .. } => format!("crash:{reason}"),
            Observation::ErrorLogs { sample, .. } => format!("errlog:{sample}"),
            Observation::FailedOp { command, response } => {
                let verb = command.split_whitespace().next().unwrap_or("");
                format!("op:{verb}:{response}")
            }
            Observation::Unresponsive { command } => {
                let verb = command.split_whitespace().next().unwrap_or("");
                format!("timeout:{verb}")
            }
            Observation::MessageStorm { .. } => "storm".to_string(),
            Observation::HarnessPanic { message } => format!("panic:{message}"),
            Observation::CaseHung { .. } => "hung".to_string(),
        };
        // Strip digits so differing ids/epochs/offsets collapse together.
        let cleaned: String = raw
            .chars()
            .filter(|c| !c.is_ascii_digit())
            .take(72)
            .collect();
        cleaned
    }

    /// Heuristic root-cause label in Table 5's vocabulary, keyed on the
    /// diagnostic text the mini systems (like the real ones) emit.
    pub fn classify(&self) -> &'static str {
        let text = match self {
            Observation::NodeCrash { reason, .. } => reason.as_str(),
            Observation::ErrorLogs { sample, .. } => sample.as_str(),
            Observation::FailedOp { response, .. } => response.as_str(),
            Observation::Unresponsive { .. } => return "Node Unresponsive",
            Observation::MessageStorm { .. } => return "Perf. Degradation",
            Observation::HarnessPanic { .. } => return "Harness Panic",
            Observation::CaseHung { .. } => return "Non-termination",
        };
        let syntax_markers = [
            "deserialize",
            "missing required",
            "InvalidProtocolBuffer",
            "cannot load",
            "corrupt",
            "unknown format",
            "must be compressed",
            "parse",
            "tombstone",
            "no inode",
            "Compact Tables",
        ];
        // Checked first: a semantics bug often *surfaces* as a parse error
        // downstream (KAFKA-7403's required-expiry encode failure,
        // CASSANDRA-6678's unparseable pulled schema), so the more specific
        // semantic context wins over generic parse-failure text.
        let semantics_markers = [
            "NVDIMM",
            "offset commit",
            "expire",
            "peerEpoch",
            "replication strategy",
            "cannot apply schema",
            "no leader",
            "election",
        ];
        let upgrade_op_markers = [
            "bad permanently",
            "marked dead",
            "under-replicated",
            "trash",
        ];
        let config_markers = ["message.version", "configuration"];
        let lower = text.to_lowercase();
        if config_markers
            .iter()
            .any(|m| lower.contains(&m.to_lowercase()))
        {
            return "Misconfiguration";
        }
        if upgrade_op_markers
            .iter()
            .any(|m| lower.contains(&m.to_lowercase()))
        {
            return "Broken Upgrade Op.";
        }
        if semantics_markers
            .iter()
            .any(|m| lower.contains(&m.to_lowercase()))
        {
            return "Data-semantics Incomp.";
        }
        if syntax_markers
            .iter()
            .any(|m| lower.contains(&m.to_lowercase()))
        {
            return "Data-syntax Incomp.";
        }
        "Unclassified"
    }
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observation::NodeCrash {
                node,
                version,
                reason,
            } => {
                write!(f, "node {node} (v{version}) crashed: {reason}")
            }
            Observation::ErrorLogs { count, sample } => {
                write!(f, "{count} error/fatal log records, e.g. \"{sample}\"")
            }
            Observation::FailedOp { command, response } => {
                write!(f, "operation '{command}' failed: {response}")
            }
            Observation::Unresponsive { command } => {
                write!(f, "operation '{command}' got no response after the upgrade")
            }
            Observation::MessageStorm { messages, baseline } => {
                write!(
                    f,
                    "message storm: {messages} messages vs {baseline} baseline"
                )
            }
            Observation::HarnessPanic { message } => {
                write!(f, "harness panicked while running the case: {message}")
            }
            Observation::CaseHung { events } => {
                write!(f, "case did not terminate within {events} simulator events")
            }
        }
    }
}

/// The result of one client operation, as recorded by the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// The command issued.
    pub command: String,
    /// The target node.
    pub node: u32,
    /// `None` on timeout.
    pub response: Option<String>,
    /// Whether the op ran before, during, or after the upgrade.
    pub after_upgrade_started: bool,
    /// Whether the op ran in the post-upgrade verification phase.
    pub in_after_phase: bool,
}

/// Responses that signal a *miss*, not a malfunction. Workload gaps are
/// expected when some operations timed out against a node that was down for
/// its upgrade step; the paper's oracle likewise keys on crashes, exceptions
/// and error logs rather than semantic result checking (§6.1.1, Finding 3).
fn is_benign_miss(response: &[u8]) -> bool {
    let misses: [&[u8]; 3] = [
        b"ERR not found",
        b"ERR no record",
        b"ERR no committed offset",
    ];
    misses.iter().any(|b| response.starts_with(b))
}

/// A reply that says the cluster is between leaders. Mid-rollout it is
/// expected, like a timeout: a restarted node, or a crash the fault plan
/// injected, starts an election, and ops sent during it are refused. Once
/// the rollout is over, a cluster still without a leader is evidence.
const NO_LEADER: &[u8] = b"ERR no leader elected";

/// Whether an op can be evidence to [`evaluate`]: once the upgrade started,
/// an `ERR…` reply that is not a benign miss — nor, before the post-upgrade
/// verification phase, a [`NO_LEADER`] refusal — or no reply at all in that
/// phase. `response` is the raw reply (`None` on timeout). The harness
/// records only such ops; `evaluate` ignores the rest.
pub(crate) fn can_be_evidence(
    after_upgrade_started: bool,
    in_after_phase: bool,
    response: Option<&[u8]>,
) -> bool {
    after_upgrade_started
        && match response {
            Some(resp) => {
                resp.starts_with(b"ERR")
                    && !is_benign_miss(resp)
                    && (in_after_phase || !resp.starts_with(NO_LEADER))
            }
            None => in_after_phase,
        }
}

/// Storm thresholds: the window must both exceed an absolute floor and be a
/// large multiple of the pre-upgrade baseline.
const STORM_FLOOR: u64 = 2_000;
const STORM_FACTOR: u64 = 10;

/// The storm rule: `window_msgs` messages in the upgrade window against
/// `baseline_msgs` expected for a window that long at the pre-upgrade rate.
pub(crate) fn is_storm(window_msgs: u64, baseline_msgs: u64) -> bool {
    window_msgs > STORM_FLOOR && window_msgs > baseline_msgs.saturating_mul(STORM_FACTOR)
}

/// Projects a measured baseline message count onto a window of a different
/// length: `baseline_msgs` messages observed over `baseline_len_ms` scale to
/// the expected count for `window_ms` at the same rate. Non-decreasing in
/// `window_ms`, which the decided-verdict cut leans on.
pub(crate) fn project_baseline(baseline_msgs: u64, baseline_len_ms: u64, window_ms: u64) -> u64 {
    let rate_per_ms = baseline_msgs as f64 / baseline_len_ms.max(1) as f64;
    (rate_per_ms * window_ms as f64) as u64
}

/// The window message count above which [`is_storm`] holds against every
/// baseline up to `max_baseline_msgs` — the baseline projected onto the
/// longest window a case can still end with. A window's count never falls,
/// so once it passes this level no later event can un-meet the rule.
pub(crate) fn storm_decided_above(max_baseline_msgs: u64) -> u64 {
    max_baseline_msgs
        .saturating_mul(STORM_FACTOR)
        .max(STORM_FLOOR)
}

/// Evaluates everything the harness recorded and returns the observations.
///
/// `log_mark` is a [`LogMark`] taken at upgrade start; `baseline_msgs` and
/// `window_msgs` are message counts for equal-length windows before and
/// after that point. A crash the tester injected itself — a fault-plan
/// crash, recognised by its crash reason — is not evidence.
pub fn evaluate(
    sim: &Sim,
    log_mark: LogMark,
    baseline_msgs: u64,
    window_msgs: u64,
    ops: &[OpResult],
) -> Vec<Observation> {
    let mut out = Vec::new();
    for node in sim.crashed_nodes() {
        let reason = sim.crash_reason(node).unwrap_or("unknown").to_string();
        if reason == dup_simnet::FAULT_CRASH_REASON {
            // The fault plan's crashes are the tester's own; only crashes
            // the system caused are upgrade failure evidence.
            continue;
        }
        out.push(Observation::NodeCrash {
            node,
            version: sim.node_version(node).to_string(),
            reason,
        });
    }
    // Group error records by digit-stripped prefix so every *distinct*
    // failure pattern surfaces as its own observation (a run often has a
    // cascade: the root error plus its knock-on effects). The per-level
    // count snapshot in the mark makes the common no-errors case O(1):
    // no scan at all unless something at ERROR+ was appended since.
    let mut groups: Vec<(String, usize, String)> = Vec::new();
    let scan: &[_] = if sim.logs().has_at_or_above_since(LogLevel::Error, log_mark) {
        sim.logs().records_since(log_mark)
    } else {
        &[]
    };
    for r in scan {
        if r.level < LogLevel::Error {
            continue;
        }
        let key: String = r
            .message
            .chars()
            .filter(|c| !c.is_ascii_digit())
            .take(48)
            .collect();
        match groups.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, count, _)) => *count += 1,
            None => groups.push((key, 1, r.message.clone())),
        }
    }
    for (_, count, sample) in groups.into_iter().take(10) {
        out.push(Observation::ErrorLogs { count, sample });
    }
    let evidence = ops.iter().filter(|op| {
        let response = op.response.as_deref().map(str::as_bytes);
        can_be_evidence(op.after_upgrade_started, op.in_after_phase, response)
    });
    for op in evidence {
        match &op.response {
            Some(resp) => out.push(Observation::FailedOp {
                command: op.command.clone(),
                response: resp.clone(),
            }),
            // Mid-rolling timeouts are expected (the target is down);
            // post-upgrade timeouts against a running target are not.
            None if sim.node_status(op.node) == NodeStatus::Running => {
                out.push(Observation::Unresponsive {
                    command: op.command.clone(),
                });
            }
            None => {}
        }
    }
    if is_storm(window_msgs, baseline_msgs) {
        out.push(Observation::MessageStorm {
            messages: window_msgs,
            baseline: baseline_msgs,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dup_simnet::{Ctx, Endpoint, Process, SimDuration, SimRng, StepResult};
    use proptest::prelude::*;

    /// Replies an op log can hold: successes, the three benign misses, a
    /// leaderless refusal, other errors, and (`None`) timeouts.
    const REPLIES: [Option<&str>; 9] = [
        Some("OK"),
        Some("OK healthy"),
        Some("ERR not found"),
        Some("ERR no record"),
        Some("ERR no committed offset"),
        Some("ERR no leader elected"),
        Some("ERR corrupt sstable row: input truncated"),
        Some("ERR unknown command 'X'"),
        None,
    ];

    struct Idle;

    impl Process for Idle {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) -> StepResult {
            Ok(())
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: Endpoint, _p: &[u8]) -> StepResult {
            Ok(())
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) -> StepResult {
            Ok(())
        }
    }

    /// Ops target nodes 0..4: 0 and 2 run, 1 is stopped, 3 does not exist.
    fn cluster() -> Sim {
        let mut sim = Sim::new(1);
        for i in 0..3 {
            let id = sim.add_node(&format!("host-{i}"), "1.0.0", Box::new(Idle));
            sim.start_node(id).unwrap();
        }
        sim.run_for(SimDuration::from_millis(10));
        sim.stop_node(1).unwrap();
        sim
    }

    fn op(reply: usize, node: u32, after_upgrade_started: bool, in_after_phase: bool) -> OpResult {
        OpResult {
            command: format!("GET k{reply}"),
            node,
            response: REPLIES[reply].map(str::to_string),
            after_upgrade_started,
            in_after_phase,
        }
    }

    /// The op rule as `evaluate` applied it to every op of a log before the
    /// harness kept only evidence: the reference the filter is held to.
    fn reference_op_rule(sim: &Sim, log: &[OpResult]) -> Vec<Observation> {
        let benign = ["ERR not found", "ERR no record", "ERR no committed offset"];
        let mut out = Vec::new();
        for op in log.iter().filter(|op| op.after_upgrade_started) {
            match &op.response {
                Some(resp) if resp == "ERR no leader elected" && !op.in_after_phase => {}
                Some(resp)
                    if resp.starts_with("ERR") && !benign.iter().any(|b| resp.starts_with(b)) =>
                {
                    out.push(Observation::FailedOp {
                        command: op.command.clone(),
                        response: resp.clone(),
                    });
                }
                None if op.in_after_phase && sim.node_status(op.node) == NodeStatus::Running => {
                    out.push(Observation::Unresponsive {
                        command: op.command.clone(),
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// The theorem the harness's evidence-only op log rests on: `evaluate`
    /// over a whole log equals `evaluate` over the ops [`can_be_evidence`]
    /// admits — and the reference rule over the whole log — observation for
    /// observation and in order. Returns the observations.
    fn check_evidence_filter(sim: &Sim, log: &[OpResult]) -> Vec<Observation> {
        let evidence: Vec<OpResult> = log
            .iter()
            .filter(|op| {
                let response = op.response.as_deref().map(str::as_bytes);
                can_be_evidence(op.after_upgrade_started, op.in_after_phase, response)
            })
            .cloned()
            .collect();
        let full = evaluate(sim, LogMark::default(), 0, 0, log);
        assert_eq!(
            full,
            evaluate(sim, LogMark::default(), 0, 0, &evidence),
            "{log:?}"
        );
        assert_eq!(full, reference_op_rule(sim, log), "{log:?}");
        full
    }

    #[test]
    fn evidence_filter_is_sound_on_seeded_logs() {
        let sim = cluster();
        let mut rng = SimRng::new(25);
        let (mut failed, mut unresponsive) = (0, 0);
        for _ in 0..2_000 {
            let log: Vec<OpResult> = (0..rng.next_below(40))
                .map(|_| {
                    let reply = rng.next_below(REPLIES.len() as u64) as usize;
                    op(
                        reply,
                        rng.next_below(4) as u32,
                        rng.chance(0.5),
                        rng.chance(0.5),
                    )
                })
                .collect();
            for o in check_evidence_filter(&sim, &log) {
                match o {
                    Observation::FailedOp { .. } => failed += 1,
                    Observation::Unresponsive { .. } => unresponsive += 1,
                    other => panic!("{other:?}"),
                }
            }
        }
        // Not vacuous: both kinds of op evidence were produced.
        assert!(failed > 0 && unresponsive > 0, "{failed} {unresponsive}");
    }

    proptest! {
        #[test]
        fn evidence_filter_is_sound(
            ops in proptest::collection::vec(
                (0..REPLIES.len(), 0u32..4, any::<bool>(), any::<bool>()),
                0..40,
            ),
        ) {
            let log: Vec<OpResult> = ops.into_iter().map(|(r, n, a, p)| op(r, n, a, p)).collect();
            check_evidence_filter(&cluster(), &log);
        }
    }

    #[test]
    fn signatures_strip_numbers() {
        let a = Observation::NodeCrash {
            node: 1,
            version: "4.0.0".into(),
            reason: "cannot replay commit log segment seg-b3: unknown format 40".into(),
        };
        let b = Observation::NodeCrash {
            node: 2,
            version: "4.0.0".into(),
            reason: "cannot replay commit log segment seg-b7: unknown format 40".into(),
        };
        assert_eq!(a.signature(), b.signature());
        assert!(!a.signature().contains('4'));
    }

    #[test]
    fn classification_keywords() {
        let crash = |reason: &str| Observation::NodeCrash {
            node: 0,
            version: String::new(),
            reason: reason.to_string(),
        };
        assert_eq!(
            crash("InvalidProtocolBufferException: x").classify(),
            "Data-syntax Incomp."
        );
        assert_eq!(
            crash("message.version 0.11.0 is not compatible").classify(),
            "Misconfiguration"
        );
        assert_eq!(
            crash("unable to find replication strategy class 'X'").classify(),
            "Data-semantics Incomp."
        );
        let log = Observation::ErrorLogs {
            count: 3,
            sample: "marking DataNode dn-1 bad permanently".into(),
        };
        assert_eq!(log.classify(), "Broken Upgrade Op.");
        let storm = Observation::MessageStorm {
            messages: 9000,
            baseline: 10,
        };
        assert_eq!(storm.classify(), "Perf. Degradation");
    }

    #[test]
    fn failed_op_signature_uses_verb_and_response() {
        let a = Observation::FailedOp {
            command: "GET stress.standard1 key3".into(),
            response: "ERR corrupt sstable row: input truncated".into(),
        };
        let b = Observation::FailedOp {
            command: "GET stress.standard1 key7".into(),
            response: "ERR corrupt sstable row: input truncated".into(),
        };
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn panic_and_hang_observations_classify_and_sign() {
        let p = Observation::HarnessPanic {
            message: "index out of bounds: the len is 3 but the index is 7".into(),
        };
        assert_eq!(p.classify(), "Harness Panic");
        assert!(p.signature().starts_with("panic:"));
        assert!(!p.signature().contains('7'), "digits are stripped");
        let h = Observation::CaseHung { events: 2_000_000 };
        assert_eq!(h.classify(), "Non-termination");
        assert_eq!(h.signature(), "hung");
        assert!(h.to_string().contains("did not terminate"));
    }

    #[test]
    fn baseline_projection_excludes_settle_idle() {
        // 1000 messages over the 1000 ms the workload actually ran project
        // to 5000 messages for a 5000 ms upgrade window.
        assert_eq!(project_baseline(1000, 1000, 5000), 5000);
        // Regression: the old formula divided by the whole pre-upgrade time
        // including the 2 s boot SETTLE, deflating the baseline to a third
        // of the true rate — enough to turn healthy traffic into a false
        // "storm". The fixed projection must beat that deflated figure.
        let deflated = project_baseline(1000, 3000, 5000);
        assert!(deflated < 2000);
        assert!(project_baseline(1000, 1000, 5000) > deflated * 2);
        // Degenerate windows stay finite.
        assert_eq!(project_baseline(0, 0, 100), 0);
        assert_eq!(project_baseline(7, 0, 0), 0);
    }

    #[test]
    fn display_is_informative() {
        let o = Observation::MessageStorm {
            messages: 5000,
            baseline: 12,
        };
        assert!(o.to_string().contains("5000"));
    }
}
