//! The physical topology: node positions plus a latency model.
//!
//! [`PhysicalTopology`] answers two questions the simulation asks constantly:
//!
//! 1. *What is the one-way latency / RTT between nodes `u` and `v`?* — used for
//!    message delivery timing, download-distance measurement and RTT probing.
//! 2. *Where is node `u`?* — used by the landmark subsystem to compute RTTs to
//!    landmark positions.
//!
//! Latency is computed on demand from the two endpoints' coordinates (no O(N²)
//! matrix): a base propagation delay proportional to distance, mapped into the
//! configured `[min_latency, max_latency]` range, plus a small deterministic
//! per-pair jitter so that distinct pairs at the same distance do not collide on
//! exactly the same value. The jitter is a pure function of the pair and the
//! topology seed, so lookups are reproducible and symmetric.

use locaware_sim::Duration;

use crate::coordinates::Point;

/// Identifies a node (peer) in the physical topology.
///
/// The same integer is used as the peer id at the overlay layer, so crossing
/// layers never needs a translation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Latency-model parameters shared by every pair of nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// One-way latency of two co-located nodes, in milliseconds.
    pub min_latency_ms: f64,
    /// One-way latency of two maximally distant nodes, in milliseconds.
    pub max_latency_ms: f64,
    /// Relative magnitude of deterministic per-pair jitter (0.05 = ±5 %).
    pub jitter_fraction: f64,
    /// Seed mixed into the per-pair jitter so distinct topologies differ.
    pub jitter_seed: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // The paper: "assigns latencies between 10 and 500 ms".
        LatencyModel {
            min_latency_ms: 10.0,
            max_latency_ms: 500.0,
            jitter_fraction: 0.05,
            jitter_seed: 0,
        }
    }
}

impl LatencyModel {
    /// One-way latency in milliseconds for two nodes at `normalized_distance`
    /// (in `[0, 1]`), identified by `a` and `b` for jitter purposes.
    fn latency_ms(&self, a: NodeId, b: NodeId, normalized_distance: f64) -> f64 {
        let span = self.max_latency_ms - self.min_latency_ms;
        let base = self.min_latency_ms + span * normalized_distance.clamp(0.0, 1.0);
        let jitter = self.pair_jitter(a, b);
        (base * (1.0 + jitter)).clamp(self.min_latency_ms, self.max_latency_ms)
    }

    /// Deterministic, symmetric jitter in `[-jitter_fraction, +jitter_fraction]`.
    fn pair_jitter(&self, a: NodeId, b: NodeId) -> f64 {
        if self.jitter_fraction == 0.0 {
            return 0.0;
        }
        // Order the pair so that jitter(a, b) == jitter(b, a).
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        let mut z = (u64::from(lo) << 32 | u64::from(hi)) ^ self.jitter_seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (unit * 2.0 - 1.0) * self.jitter_fraction
    }
}

/// Positions of all nodes plus the latency model.
#[derive(Debug, Clone)]
pub struct PhysicalTopology {
    positions: Vec<Point>,
    model: LatencyModel,
}

impl PhysicalTopology {
    /// Builds a topology from explicit positions and a latency model.
    pub fn new(positions: Vec<Point>, model: LatencyModel) -> Self {
        PhysicalTopology { positions, model }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// Position of node `n`.
    ///
    /// # Panics
    /// Panics if `n` is out of range.
    pub fn position(&self, n: NodeId) -> Point {
        self.positions[n.index()]
    }

    /// One-way latency between two nodes.
    pub fn latency(&self, a: NodeId, b: NodeId) -> Duration {
        if a == b {
            return Duration::ZERO;
        }
        let d = self.positions[a.index()].normalized_distance(&self.positions[b.index()]);
        Duration::from_millis_f64(self.model.latency_ms(a, b, d))
    }

    /// Round-trip time between two nodes (twice the one-way latency).
    pub fn rtt(&self, a: NodeId, b: NodeId) -> Duration {
        self.latency(a, b).saturating_mul(2)
    }

    /// One-way latency between a node and an arbitrary point (used for
    /// landmarks, which are not peers). No jitter is applied because the
    /// landmark is not a `NodeId`; the mapping is still monotone in distance.
    pub fn latency_to_point(&self, a: NodeId, p: &Point) -> Duration {
        let d = self.positions[a.index()].normalized_distance(p);
        let span = self.model.max_latency_ms - self.model.min_latency_ms;
        Duration::from_millis_f64(self.model.min_latency_ms + span * d)
    }

    /// Round-trip time between a node and an arbitrary point.
    pub fn rtt_to_point(&self, a: NodeId, p: &Point) -> Duration {
        self.latency_to_point(a, p).saturating_mul(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_topology() -> PhysicalTopology {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.01),
            Point::new(0.5, 0.5),
        ];
        PhysicalTopology::new(positions, LatencyModel::default())
    }

    #[test]
    fn self_latency_is_zero() {
        let t = grid_topology();
        assert_eq!(t.latency(NodeId(0), NodeId(0)), Duration::ZERO);
    }

    #[test]
    fn latency_is_symmetric() {
        let t = grid_topology();
        for a in t.nodes() {
            for b in t.nodes() {
                assert_eq!(t.latency(a, b), t.latency(b, a), "pair {a} {b}");
            }
        }
    }

    #[test]
    fn latency_respects_configured_bounds() {
        let t = grid_topology();
        for a in t.nodes() {
            for b in t.nodes() {
                if a == b {
                    continue;
                }
                let l = t.latency(a, b).as_millis_f64();
                assert!((10.0..=500.0).contains(&l), "latency {l} out of bounds");
            }
        }
    }

    #[test]
    fn close_nodes_have_lower_latency_than_distant_nodes() {
        let t = grid_topology();
        let near = t.latency(NodeId(0), NodeId(2));
        let far = t.latency(NodeId(0), NodeId(1));
        assert!(near < far, "near={near} far={far}");
    }

    #[test]
    fn rtt_is_twice_one_way() {
        let t = grid_topology();
        let l = t.latency(NodeId(0), NodeId(3));
        assert_eq!(t.rtt(NodeId(0), NodeId(3)).as_micros(), l.as_micros() * 2);
    }

    #[test]
    fn latency_to_point_is_monotone_in_distance() {
        let t = grid_topology();
        let near = t.latency_to_point(NodeId(0), &Point::new(0.1, 0.1));
        let far = t.latency_to_point(NodeId(0), &Point::new(0.9, 0.9));
        assert!(near < far);
    }

    #[test]
    fn zero_jitter_model_is_exactly_linear() {
        let model = LatencyModel {
            jitter_fraction: 0.0,
            ..LatencyModel::default()
        };
        let positions = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let t = PhysicalTopology::new(positions, model);
        let l = t.latency(NodeId(0), NodeId(1)).as_millis_f64();
        assert!((l - 500.0).abs() < 1e-6, "max-distance pair should hit max latency, got {l}");
    }

    #[test]
    fn jitter_is_deterministic() {
        let t1 = grid_topology();
        let t2 = grid_topology();
        assert_eq!(t1.latency(NodeId(0), NodeId(3)), t2.latency(NodeId(0), NodeId(3)));
    }
}
