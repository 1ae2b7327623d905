//! Landmarks and RTT measurement vectors.
//!
//! §4.1.1: *"we assume that participant peers can be grouped based on their
//! physical locations. [...] a set of well-known machines spread across the
//! Internet, called landmarks. A peer n can estimate its distance, i.e., its
//! round-trip time (RTT) to each landmark."*
//!
//! [`LandmarkSet`] holds the landmark positions (placed to cover the plane —
//! a poorly spread landmark set would collapse many localities onto the same
//! ordering) and computes, for any peer of a [`PhysicalTopology`], its RTT
//! vector and the resulting [`LocId`].

use locaware_sim::Duration;
use rand::Rng;

use crate::coordinates::Point;
use crate::locid::LocId;
use crate::topology::{NodeId, PhysicalTopology};

/// The per-peer vector of measured RTTs to each landmark, in landmark order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RttVector(pub Vec<Duration>);

impl RttVector {
    /// The ordering of landmark indices by increasing RTT.
    ///
    /// Ties are broken by landmark index so the ordering is always a valid,
    /// deterministic permutation.
    pub fn ordering(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.0.len()).collect();
        idx.sort_by_key(|&i| (self.0[i], i));
        idx
    }

    /// The locId corresponding to this RTT vector.
    pub fn loc_id(&self) -> LocId {
        LocId::from_ordering(&self.ordering())
    }

    /// RTT to landmark `i`.
    pub fn rtt(&self, i: usize) -> Duration {
        self.0[i]
    }

    /// Number of landmarks measured.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A set of landmark machines at fixed positions.
#[derive(Debug, Clone)]
pub struct LandmarkSet {
    positions: Vec<Point>,
}

impl LandmarkSet {
    /// Creates a landmark set from explicit positions.
    ///
    /// # Panics
    /// Panics if `positions` is empty.
    pub fn new(positions: Vec<Point>) -> Self {
        assert!(!positions.is_empty(), "landmark set must not be empty");
        LandmarkSet { positions }
    }

    /// Places `count` landmarks deterministically on a spread-out grid pattern.
    ///
    /// Landmarks are laid out on the corners/edges of the unit square so that
    /// RTT orderings partition the plane into meaningful regions. For the
    /// paper's `count = 4`, the landmarks sit at the four corners.
    pub fn spread(count: usize) -> Self {
        assert!(count > 0, "landmark set must not be empty");
        let corners = [
            Point::new(0.05, 0.05),
            Point::new(0.95, 0.95),
            Point::new(0.05, 0.95),
            Point::new(0.95, 0.05),
            Point::new(0.5, 0.05),
            Point::new(0.5, 0.95),
            Point::new(0.05, 0.5),
            Point::new(0.95, 0.5),
        ];
        let positions = (0..count)
            .map(|i| {
                if i < corners.len() {
                    corners[i]
                } else {
                    // Beyond 8 landmarks, fall back to a deterministic spiral.
                    let t = i as f64 / count as f64;
                    let angle = t * std::f64::consts::TAU * 2.0;
                    Point::new(0.5 + 0.4 * t * angle.cos(), 0.5 + 0.4 * t * angle.sin())
                }
            })
            .collect();
        LandmarkSet { positions }
    }

    /// Places `count` landmarks uniformly at random (for sensitivity studies).
    pub fn random<R: Rng + ?Sized>(count: usize, rng: &mut R) -> Self {
        assert!(count > 0, "landmark set must not be empty");
        LandmarkSet {
            positions: (0..count)
                .map(|_| Point::new(rng.gen(), rng.gen()))
                .collect(),
        }
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of landmark `i`.
    pub fn position(&self, i: usize) -> Point {
        self.positions[i]
    }

    /// Measures the RTT vector of peer `n` on `topology`.
    pub fn measure(&self, topology: &PhysicalTopology, n: NodeId) -> RttVector {
        RttVector(
            self.positions
                .iter()
                .map(|p| topology.rtt_to_point(n, p))
                .collect(),
        )
    }

    /// Convenience: the locId of peer `n` on `topology`.
    pub fn loc_id_of(&self, topology: &PhysicalTopology, n: NodeId) -> LocId {
        self.measure(topology, n).loc_id()
    }

    /// Computes the locId of every node, indexed by `NodeId`.
    pub fn assign_all(&self, topology: &PhysicalTopology) -> Vec<LocId> {
        (0..topology.len()).map(|i| self.loc_id_of(topology, NodeId(i as u32))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brite::{BriteConfig, BriteGenerator, PlacementModel};
    use crate::topology::LatencyModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_topology() -> PhysicalTopology {
        PhysicalTopology::new(
            vec![
                Point::new(0.10, 0.30),
                Point::new(0.12, 0.28),
                Point::new(0.90, 0.90),
            ],
            LatencyModel::default(),
        )
    }

    #[test]
    fn spread_four_landmarks_cover_the_corners() {
        let lm = LandmarkSet::spread(4);
        assert_eq!(lm.len(), 4);
        assert_eq!((1..=lm.len() as u32).product::<u32>(), 24, "4! locIds");
    }

    #[test]
    fn close_peers_share_a_loc_id_distant_peers_do_not() {
        let topo = small_topology();
        let lm = LandmarkSet::spread(4);
        let a = lm.loc_id_of(&topo, NodeId(0));
        let b = lm.loc_id_of(&topo, NodeId(1));
        let c = lm.loc_id_of(&topo, NodeId(2));
        assert_eq!(a, b, "co-located peers must share their locId");
        assert_ne!(a, c, "opposite-corner peers must differ");
    }

    #[test]
    fn rtt_vector_ordering_is_a_permutation() {
        let topo = small_topology();
        let lm = LandmarkSet::spread(4);
        let v = lm.measure(&topo, NodeId(0));
        let mut ord = v.ordering();
        ord.sort_unstable();
        assert_eq!(ord, vec![0, 1, 2, 3]);
    }

    #[test]
    fn assign_all_covers_every_node() {
        let gen = BriteGenerator::new(BriteConfig {
            nodes: 100,
            placement: PlacementModel {
                clusters: 8,
                sigma: 0.02,
            },
            ..BriteConfig::default()
        });
        let topo = gen.generate(&mut StdRng::seed_from_u64(5));
        let lm = LandmarkSet::spread(4);
        let ids = lm.assign_all(&topo);
        assert_eq!(ids.len(), 100);
        for id in &ids {
            assert!(id.value() < 24);
        }
        // With 8 clusters we expect a handful of distinct localities, not 1.
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() > 1, "expected multiple localities");
    }

    #[test]
    fn paper_argument_more_landmarks_scatter_peers() {
        // §5.1: with 5 landmarks (120 locIds) the same population scatters into
        // many more localities than with 4 landmarks (24 locIds).
        let gen = BriteGenerator::new(BriteConfig {
            nodes: 200,
            ..BriteConfig::default()
        });
        let topo = gen.generate(&mut StdRng::seed_from_u64(11));
        let four = LandmarkSet::spread(4).assign_all(&topo);
        let five = LandmarkSet::spread(5).assign_all(&topo);
        let distinct4: std::collections::HashSet<_> = four.iter().collect();
        let distinct5: std::collections::HashSet<_> = five.iter().collect();
        assert!(
            distinct5.len() >= distinct4.len(),
            "5 landmarks should produce at least as many localities ({} vs {})",
            distinct5.len(),
            distinct4.len()
        );
    }

    #[test]
    fn random_landmarks_are_reproducible() {
        let a = LandmarkSet::random(4, &mut StdRng::seed_from_u64(3));
        let b = LandmarkSet::random(4, &mut StdRng::seed_from_u64(3));
        for i in 0..4 {
            assert_eq!(a.position(i).x, b.position(i).x);
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_landmark_set_is_rejected() {
        let _ = LandmarkSet::new(vec![]);
    }
}
