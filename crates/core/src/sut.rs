//! The system-under-test interface DUPTester drives.
//!
//! A [`SystemUnderTest`] packages everything DUPTester needs from a target
//! system (paper §6.1): factories for version-specific node processes,
//! the client-visible stress workload, the unit-test corpus, and the
//! translation table that maps internal unit-test calls to client commands
//! (§6.1.3).
//!
//! Client traffic is *textual* by convention — requests are UTF-8 command
//! strings and responses start with `OK` or `ERR` — mirroring how DUPTester
//! drives real systems through client-side scripts (cqlsh-style shells).
//! Inter-node messages and storage files, in contrast, use real wire
//! formats from `dup-wire`, because that is where the studied
//! incompatibilities live.

use crate::version::VersionId;
use dup_simnet::{HostStorage, Process};
use std::collections::BTreeMap;

/// Key-value configuration handed to every node (and preserved across
/// upgrades, which is itself the trigger of config-type failures like
/// KAFKA-6238).
pub type Config = BTreeMap<String, String>;

/// Everything a node process factory needs to know about its place in the
/// cluster.
#[derive(Debug, Clone)]
pub struct NodeSetup {
    /// This node's index (== its `dup_simnet` node id under DUPTester).
    pub index: u32,
    /// Total nodes in the cluster at spawn time.
    pub cluster_size: u32,
    /// Configuration in effect.
    pub config: Config,
}

impl NodeSetup {
    /// Creates a setup with the given index/size and empty configuration.
    pub fn new(index: u32, cluster_size: u32) -> Self {
        NodeSetup {
            index,
            cluster_size,
            config: Config::new(),
        }
    }

    /// Iterates the ids of all peer nodes (everyone but `self.index`), in
    /// ascending order.
    pub fn peers(&self) -> impl Iterator<Item = u32> {
        let index = self.index;
        (0..self.cluster_size).filter(move |&i| i != index)
    }
}

/// One client-side operation: a textual command sent to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOp {
    /// Target node index.
    pub node: u32,
    /// Command text (system-specific, e.g. `"PUT k v"` or `"CREATE TABLE t"`).
    pub command: String,
}

impl ClientOp {
    /// Creates an operation.
    pub fn new(node: u32, command: impl Into<String>) -> Self {
        ClientOp {
            node,
            command: command.into(),
        }
    }
}

/// When in the upgrade scenario a workload batch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadPhase {
    /// On the old-version cluster, before any node is upgraded.
    BeforeUpgrade,
    /// While versions are mixed (rolling upgrade / new-node-join).
    DuringUpgrade,
    /// After every node runs the new version (reads back pre-upgrade data —
    /// the probe that catches persistent-data loss like HDFS-5988).
    AfterUpgrade,
}

/// One statement of a unit test, in the internal-call DSL (§6.1.3).
///
/// `let snapshot = createSnapshot(ks1)` becomes
/// `UnitStatement { var: Some("snapshot"), call: "createSnapshot", args: ["$ks1"] }`.
/// Arguments beginning with `$` reference variables bound by earlier
/// statements; the translator uses this for dependency-aware omission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitStatement {
    /// Variable bound by this statement, if any.
    pub var: Option<String>,
    /// Internal function or test-harness method invoked.
    pub call: String,
    /// Arguments; `$name` references a variable.
    pub args: Vec<String>,
}

impl UnitStatement {
    /// Creates a statement with no bound variable.
    pub fn call(call: &str, args: &[&str]) -> Self {
        UnitStatement {
            var: None,
            call: call.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Creates a statement binding `var`.
    pub fn bind(var: &str, call: &str, args: &[&str]) -> Self {
        UnitStatement {
            var: Some(var.to_string()),
            ..Self::call(call, args)
        }
    }

    /// Names of variables this statement reads.
    pub fn uses(&self) -> impl Iterator<Item = &str> {
        self.args.iter().filter_map(|a| a.strip_prefix('$'))
    }
}

/// A unit test: a named statement list plus the configuration it runs under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitTest {
    /// Test name (e.g. `"testCachedPreparedStatements"`).
    pub name: String,
    /// Statements in order.
    pub statements: Vec<UnitStatement>,
    /// Non-default configuration the test sets, if any (Finding 13's lever).
    pub config: Config,
}

impl UnitTest {
    /// Creates a unit test with default configuration.
    pub fn new(name: &str, statements: Vec<UnitStatement>) -> Self {
        UnitTest {
            name: name.to_string(),
            statements,
            config: Config::new(),
        }
    }

    /// Sets a configuration key; chains.
    pub fn with_config(mut self, key: &str, value: &str) -> Self {
        self.config.insert(key.to_string(), value.to_string());
        self
    }
}

/// A translation rule: how one internal call maps to a client command.
///
/// The template may contain `{0}`, `{1}`, … argument placeholders. A call
/// with no rule is untranslatable; the DUPTester translator omits it *and
/// every statement depending on it* (§6.1.3).
#[derive(Debug, Clone, Default)]
pub struct TranslationTable {
    rules: BTreeMap<String, String>,
}

impl TranslationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule mapping `call` to a client-command `template`; chains.
    pub fn rule(mut self, call: &str, template: &str) -> Self {
        self.rules.insert(call.to_string(), template.to_string());
        self
    }

    /// Returns the template for `call`, if one exists.
    pub fn template(&self, call: &str) -> Option<&str> {
        self.rules.get(call).map(String::as_str)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// A distributed system DUPTester can exercise.
///
/// `Sync` is a supertrait so campaign engines can fan test cases out across
/// worker threads sharing one `&dyn SystemUnderTest`; implementations are
/// expected to be stateless descriptions of the system (all four bundled
/// SUTs are unit structs), with per-run state living in the spawned
/// [`Process`]es.
pub trait SystemUnderTest: Sync {
    /// System name (`"cassandra-mini"`, …).
    fn name(&self) -> &'static str;

    /// Released versions, oldest first.
    fn versions(&self) -> Vec<VersionId>;

    /// Cluster size to simulate (Finding 10: ≤3 suffices).
    fn cluster_size(&self) -> u32 {
        3
    }

    /// Default configuration.
    fn default_config(&self) -> Config {
        Config::new()
    }

    /// Builds the node process for `version`.
    fn spawn(&self, version: VersionId, setup: &NodeSetup) -> Box<dyn Process>;

    /// Streams the stress-test workload for the given phase, seeded
    /// deterministically, into `emit` — one op at a time, so callers drive
    /// traffic from pooled buffers (or none at all) instead of receiving a
    /// freshly allocated `Vec` per phase.
    ///
    /// `client_version` is the version of the *client library* issuing the
    /// ops (usually the old version during upgrades — the Kafka-7403 shape).
    fn stress_ops(
        &self,
        seed: u64,
        phase: WorkloadPhase,
        client_version: VersionId,
        emit: &mut dyn FnMut(ClientOp),
    );

    /// Renders one open-loop arrival as a client command: `key` is the
    /// Zipf-drawn key, `client` the logical client id, and `read` the op
    /// kind. The default routes a health probe by key so systems without an
    /// override still accept open-loop traffic.
    fn open_loop_op(
        &self,
        key: u64,
        _client: u64,
        _read: bool,
        _client_version: VersionId,
    ) -> ClientOp {
        ClientOp::new(
            (key % u64::from(self.cluster_size().max(1))) as u32,
            "HEALTH",
        )
    }

    /// Unit-test corpus (may be empty).
    fn unit_tests(&self) -> Vec<UnitTest> {
        Vec::new()
    }

    /// Translation table for the unit-test translator (may be empty).
    fn translation(&self) -> TranslationTable {
        TranslationTable::new()
    }

    /// Executes one unit-test statement *in place* against a node's storage,
    /// as the original in-JVM unit test would (DUPTester's second unit-test
    /// scheme, §6.1.2). Returns `Err` if this system does not support the
    /// call.
    fn run_unit_statement(
        &self,
        _version: VersionId,
        _statement: &UnitStatement,
        _storage: &mut HostStorage,
    ) -> Result<(), String> {
        Err("in-place unit execution not supported".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_setup_peers() {
        let s = NodeSetup::new(1, 3);
        assert_eq!(s.peers().collect::<Vec<_>>(), vec![0, 2]);
        let solo = NodeSetup::new(0, 1);
        assert_eq!(solo.peers().count(), 0);
    }

    #[test]
    fn unit_statement_variable_uses() {
        let s = UnitStatement::bind("t", "createTable", &["$ks", "name"]);
        assert_eq!(s.var.as_deref(), Some("t"));
        let uses: Vec<_> = s.uses().collect();
        assert_eq!(uses, vec!["ks"]);
    }

    #[test]
    fn unit_test_config_chaining() {
        let t = UnitTest::new("t", vec![]).with_config("strategy", "OldNetworkTopologyStrategy");
        assert_eq!(
            t.config.get("strategy").map(String::as_str),
            Some("OldNetworkTopologyStrategy")
        );
    }

    #[test]
    fn translation_table_lookup() {
        let t = TranslationTable::new().rule("execute", "CQL {0}");
        assert_eq!(t.template("execute"), Some("CQL {0}"));
        assert_eq!(t.template("internalOnly"), None);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(TranslationTable::new().is_empty());
    }

    #[test]
    fn client_op_construction() {
        let op = ClientOp::new(2, "PUT k v");
        assert_eq!(op.node, 2);
        assert_eq!(op.command, "PUT k v");
    }
}
