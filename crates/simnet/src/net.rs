//! Network model: latency and partitions.
//!
//! The model is intentionally simple — a base latency plus deterministic
//! jitter, and a set of partitioned node pairs — because the studied upgrade
//! failures (Finding 11: ~89% deterministic) rarely depend on exotic network
//! behaviour. The pieces that *do* (e.g. the CASSANDRA-6678 handshake race)
//! are expressed through message ordering, which latency jitter perturbs
//! deterministically. Loss and partitions come only from the installed
//! [`crate::FaultPlan`].

use crate::process::{Endpoint, NodeId};
use crate::rng::SimRng;
use crate::time::SimDuration;

/// Minimum one-way delivery latency.
const BASE_LATENCY: SimDuration = SimDuration::from_millis(1);

/// Maximum extra latency added per message (uniform jitter), in ms.
const JITTER_MS: u64 = 4;

/// The partitions of the simulated network.
#[derive(Debug, Default)]
pub(crate) struct Network {
    /// Partitioned pairs, stored sorted-pair in a `Vec`: clusters hold a
    /// handful of links at most, a linear scan beats a tree, and re-adding a
    /// partition after a heal reuses capacity — fault plans can cycle
    /// partitions in steady state without touching the allocator.
    partitions: Vec<(NodeId, NodeId)>,
}

impl Network {
    /// Makes this model a copy of `src`, reusing the partition vec's
    /// capacity.
    pub(crate) fn copy_from(&mut self, src: &Network) {
        self.partitions.clone_from(&src.partitions);
    }

    /// Partitions `a` from `b` (both directions). Idempotent.
    pub(crate) fn partition(&mut self, a: NodeId, b: NodeId) {
        let key = Self::key(a, b);
        if !self.partitions.contains(&key) {
            self.partitions.push(key);
        }
    }

    /// Heals the partition between `a` and `b`.
    pub(crate) fn heal(&mut self, a: NodeId, b: NodeId) {
        let key = Self::key(a, b);
        if let Some(i) = self.partitions.iter().position(|&p| p == key) {
            self.partitions.swap_remove(i);
        }
    }

    /// Returns `true` if `a` and `b` are partitioned from each other.
    pub(crate) fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.contains(&Self::key(a, b))
    }

    /// Decides the fate of a message from `from` to `to`: `Some(latency)` to
    /// deliver after that latency, `None` to drop.
    ///
    /// Client traffic is never partitioned: the harness plays the role of a
    /// co-located test driver, exactly like DUPTester's host-side client
    /// scripts.
    pub(crate) fn route(
        &self,
        from: Endpoint,
        to: Endpoint,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        if let (Endpoint::Node(a), Endpoint::Node(b)) = (from, to) {
            if self.is_partitioned(a, b) {
                return None;
            }
        }
        Some(BASE_LATENCY + SimDuration::from_millis(rng.next_below(JITTER_MS + 1)))
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
        let mut net = Network::default();
        net.partition(1, 2);
        assert!(net.is_partitioned(1, 2));
        assert!(net.is_partitioned(2, 1));
        net.heal(2, 1);
        assert!(!net.is_partitioned(1, 2));
    }

    #[test]
    fn partitioned_pairs_get_no_route() {
        let mut net = Network::default();
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
    fn client_traffic_survives_partitions() {
        let mut net = Network::default();
        net.partition(0, 1);
        let mut rng = SimRng::new(1);
        // Client <-> node traffic is exempt from partitions.
        assert!(net
            .route(Endpoint::Client(7), Endpoint::Node(0), &mut rng)
            .is_some());
        assert!(net
            .route(Endpoint::Node(0), Endpoint::Client(7), &mut rng)
            .is_some());
    }

    #[test]
    fn latency_within_configured_bounds() {
        let net = Network::default();
        let mut rng = SimRng::new(9);
        for _ in 0..100 {
            let d = net
                .route(Endpoint::Node(0), Endpoint::Node(1), &mut rng)
                .unwrap();
            assert!((1..=5).contains(&d.as_millis()), "latency {d}");
        }
    }
}
