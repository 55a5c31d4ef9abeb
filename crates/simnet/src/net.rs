//! Network model: latency, loss, and partitions.
//!
//! The model is intentionally simple — a base latency plus deterministic
//! jitter, an optional message-loss probability, and a set of partitioned
//! node pairs — because the studied upgrade failures (Finding 11: ~89%
//! deterministic) rarely depend on exotic network behaviour. The pieces that
//! *do* (e.g. the CASSANDRA-6678 handshake race) are expressed through
//! message ordering, which latency jitter perturbs deterministically.

use crate::process::{Endpoint, NodeId};
use crate::rng::SimRng;
use crate::time::SimDuration;

/// Configuration and state of the simulated network.
#[derive(Debug)]
pub struct Network {
    /// Minimum one-way delivery latency.
    pub base_latency: SimDuration,
    /// Maximum extra latency added per message (uniform jitter).
    pub jitter: SimDuration,
    /// Probability that a node-to-node message is silently dropped.
    pub drop_probability: f64,
    /// Partitioned pairs, stored sorted-pair in a `Vec`: clusters hold a
    /// handful of links at most, a linear scan beats a tree, and re-adding a
    /// partition after a heal reuses capacity — fault plans can cycle
    /// partitions in steady state without touching the allocator.
    partitions: Vec<(NodeId, NodeId)>,
}

impl Default for Network {
    fn default() -> Self {
        Network {
            base_latency: SimDuration::from_millis(1),
            jitter: SimDuration::from_millis(4),
            drop_probability: 0.0,
            partitions: Vec::new(),
        }
    }
}

impl Network {
    /// Creates the default network model (1–5 ms latency, no loss).
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes this model a copy of `src`, reusing the partition vec's
    /// capacity.
    pub(crate) fn copy_from(&mut self, src: &Network) {
        self.base_latency = src.base_latency;
        self.jitter = src.jitter;
        self.drop_probability = src.drop_probability;
        self.partitions.clone_from(&src.partitions);
    }

    /// Partitions `a` from `b` (both directions). Idempotent.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        let key = Self::key(a, b);
        if !self.partitions.contains(&key) {
            self.partitions.push(key);
        }
    }

    /// Heals the partition between `a` and `b`.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        let key = Self::key(a, b);
        if let Some(i) = self.partitions.iter().position(|&p| p == key) {
            self.partitions.swap_remove(i);
        }
    }

    /// Heals all partitions.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
    }

    /// Returns `true` if `a` and `b` are partitioned from each other.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.contains(&Self::key(a, b))
    }

    /// Decides the fate of a message from `from` to `to`: `Some(latency)` to
    /// deliver after that latency, `None` to drop.
    ///
    /// Client traffic is never dropped or partitioned: the harness plays the
    /// role of a co-located test driver, exactly like DUPTester's host-side
    /// client scripts.
    pub fn route(&self, from: Endpoint, to: Endpoint, rng: &mut SimRng) -> Option<SimDuration> {
        if let (Endpoint::Node(a), Endpoint::Node(b)) = (from, to) {
            if self.is_partitioned(a, b) {
                return None;
            }
            if self.drop_probability > 0.0 && rng.chance(self.drop_probability) {
                return None;
            }
        }
        let jitter_ms = if self.jitter.as_millis() == 0 {
            0
        } else {
            rng.next_below(self.jitter.as_millis() + 1)
        };
        Some(self.base_latency + SimDuration::from_millis(jitter_ms))
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_symmetric() {
        let mut net = Network::new();
        net.partition(1, 2);
        assert!(net.is_partitioned(1, 2));
        assert!(net.is_partitioned(2, 1));
        net.heal(2, 1);
        assert!(!net.is_partitioned(1, 2));
    }

    #[test]
    fn partitioned_pairs_get_no_route() {
        let mut net = Network::new();
        net.partition(0, 1);
        let mut rng = SimRng::new(1);
        assert!(net
            .route(Endpoint::Node(0), Endpoint::Node(1), &mut rng)
            .is_none());
        assert!(net
            .route(Endpoint::Node(0), Endpoint::Node(2), &mut rng)
            .is_some());
    }

    #[test]
    fn client_traffic_survives_loss_and_partitions() {
        let mut net = Network::new();
        net.drop_probability = 1.0;
        net.partition(0, 1);
        let mut rng = SimRng::new(1);
        // Client <-> node traffic is exempt from both loss and partitions.
        assert!(net
            .route(Endpoint::Client(7), Endpoint::Node(0), &mut rng)
            .is_some());
        assert!(net
            .route(Endpoint::Node(0), Endpoint::Client(7), &mut rng)
            .is_some());
        // Node <-> node traffic is dropped.
        assert!(net
            .route(Endpoint::Node(2), Endpoint::Node(3), &mut rng)
            .is_none());
    }

    #[test]
    fn latency_within_configured_bounds() {
        let net = Network::new();
        let mut rng = SimRng::new(9);
        for _ in 0..100 {
            let d = net
                .route(Endpoint::Node(0), Endpoint::Node(1), &mut rng)
                .unwrap();
            assert!((1..=5).contains(&d.as_millis()), "latency {d}");
        }
    }

    #[test]
    fn heal_all_clears_everything() {
        let mut net = Network::new();
        net.partition(1, 2);
        net.partition(3, 4);
        net.heal_all();
        assert!(!net.is_partitioned(1, 2));
        assert!(!net.is_partitioned(3, 4));
    }
}
