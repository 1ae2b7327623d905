//! Overlay graph generators.
//!
//! The paper's setup: "we generate an unstructured P2P topology of 1000 peers
//! with an average connectivity degree of 3" (§5.1). [`GraphModel::Random`]
//! reproduces that: it wires a random spanning structure first (so the overlay
//! is connected and no query is unreachable by construction) and then adds
//! random extra edges until the target average degree is met.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::OverlayGraph;
use crate::PeerId;

/// Which random-graph family to generate: the paper's random graph is the
/// only one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphModel {
    /// Connected random graph with a target average degree (paper default).
    Random,
}

/// Configuration of the overlay generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Number of peers.
    pub peers: usize,
    /// Target average degree (the paper uses 3).
    pub average_degree: f64,
    /// Graph family.
    pub model: GraphModel,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            peers: 1000,
            average_degree: 3.0,
            model: GraphModel::Random,
        }
    }
}

impl GeneratorConfig {
    /// Generates an overlay graph using the supplied RNG.
    ///
    /// # Panics
    /// Panics if `peers == 0` or the average degree is not positive, or if the
    /// requested degree is unachievable (≥ peers).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> OverlayGraph {
        assert!(self.peers > 0, "overlay must contain at least one peer");
        assert!(
            self.average_degree > 0.0,
            "average degree must be positive"
        );
        assert!(
            (self.average_degree as usize) < self.peers,
            "average degree must be smaller than the number of peers"
        );
        generate_random(self.peers, self.average_degree, rng)
    }
}

/// [`OverlayGraph::add_edge`] on plain rows: rejects self-loops and
/// duplicates, keeps both rows sorted, and returns true if the edge is new.
fn add_edge(rows: &mut [Vec<PeerId>], a: PeerId, b: PeerId) -> bool {
    if a == b {
        return false;
    }
    let Err(ia) = rows[a.index()].binary_search(&b) else { return false };
    rows[a.index()].insert(ia, b);
    let ib = rows[b.index()].partition_point(|&n| n < a);
    rows[b.index()].insert(ib, a);
    true
}

/// Connected random graph: random spanning tree + random extra edges until the
/// target number of edges (`peers * average_degree / 2`) is reached. Edges
/// go into plain rows, which become the CSR graph in one step.
fn generate_random<R: Rng + ?Sized>(peers: usize, average_degree: f64, rng: &mut R) -> OverlayGraph {
    let mut rows: Vec<Vec<PeerId>> = vec![Vec::new(); peers];

    // Random spanning tree via a random permutation: peer i attaches to a
    // uniformly random earlier peer in the permutation order. This yields a
    // uniformly random labelled tree shape family good enough for connectivity.
    let mut order: Vec<u32> = (0..peers as u32).collect();
    order.shuffle(rng);
    let mut edges = 0usize;
    for i in 1..peers {
        let parent = order[rng.gen_range(0..i)];
        edges += usize::from(add_edge(&mut rows, PeerId(order[i]), PeerId(parent)));
    }

    let target_edges = ((peers as f64 * average_degree) / 2.0).round() as usize;
    let mut guard = 0usize;
    let guard_limit = target_edges * 50 + 1000;
    while edges < target_edges && guard < guard_limit {
        guard += 1;
        let a = PeerId(rng.gen_range(0..peers as u32));
        let b = PeerId(rng.gen_range(0..peers as u32));
        edges += usize::from(add_edge(&mut rows, a, b));
    }
    OverlayGraph::from_rows(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference model: the same draws in the same order, each edge wired
    /// through `OverlayGraph::add_edge` and its copy-on-write rows.
    fn add_edge_model<R: Rng + ?Sized>(peers: usize, average_degree: f64, rng: &mut R) -> OverlayGraph {
        let mut graph = OverlayGraph::new(peers);
        if peers == 1 {
            return graph;
        }
        let mut order: Vec<u32> = (0..peers as u32).collect();
        order.shuffle(rng);
        for i in 1..peers {
            let parent = order[rng.gen_range(0..i)];
            graph.add_edge(PeerId(order[i]), PeerId(parent));
        }
        let target_edges = ((peers as f64 * average_degree) / 2.0).round() as usize;
        let mut guard = 0usize;
        let guard_limit = target_edges * 50 + 1000;
        while graph.edge_count() < target_edges && guard < guard_limit {
            guard += 1;
            let a = PeerId(rng.gen_range(0..peers as u32));
            let b = PeerId(rng.gen_range(0..peers as u32));
            graph.add_edge(a, b);
        }
        graph
    }

    #[test]
    fn generated_rows_match_the_add_edge_model() {
        for peers in [2usize, 3, 60, 1000] {
            // A 3-peer graph can hold at most average degree 2.
            let average_degree = 3.0f64.min(peers as f64 - 1.0);
            let cfg = GeneratorConfig {
                peers,
                average_degree,
                model: GraphModel::Random,
            };
            for seed in 0..5 {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = cfg.generate(&mut rng);
                let mut model_rng = StdRng::seed_from_u64(seed);
                let model = add_edge_model(peers, average_degree, &mut model_rng);
                assert_eq!(g.edge_count(), model.edge_count(), "peers {peers}, seed {seed}");
                for i in 0..peers as u32 {
                    assert_eq!(
                        g.neighbors(PeerId(i)),
                        model.neighbors(PeerId(i)),
                        "row {i}, peers {peers}, seed {seed}"
                    );
                }
                // Both consumed the same draws, so the streams continue alike.
                assert_eq!(rng.gen::<u64>(), model_rng.gen::<u64>());
            }
        }
    }

    #[test]
    fn random_graph_matches_paper_setup() {
        let cfg = GeneratorConfig::default();
        let g = cfg.generate(&mut StdRng::seed_from_u64(1));
        assert_eq!(g.len(), 1000);
        assert!(g.is_connected(), "generated overlay must be connected");
        let avg = g.average_degree();
        assert!(
            (2.7..=3.3).contains(&avg),
            "average degree should be close to 3, got {avg}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::default();
        let a = cfg.generate(&mut StdRng::seed_from_u64(7));
        let b = cfg.generate(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GeneratorConfig {
            peers: 100,
            ..GeneratorConfig::default()
        };
        let a = cfg.generate(&mut StdRng::seed_from_u64(1));
        let b = cfg.generate(&mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
    }

    #[test]
    fn single_peer_graph_is_fine() {
        let cfg = GeneratorConfig {
            peers: 1,
            average_degree: 0.5,
            model: GraphModel::Random,
        };
        let g = cfg.generate(&mut StdRng::seed_from_u64(4));
        assert_eq!(g.len(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn small_graphs_are_connected_across_seeds() {
        for seed in 0..20 {
            let cfg = GeneratorConfig {
                peers: 30,
                average_degree: 3.0,
                model: GraphModel::Random,
            };
            let g = cfg.generate(&mut StdRng::seed_from_u64(seed));
            assert!(g.is_connected(), "seed {seed} produced a disconnected overlay");
        }
    }

    #[test]
    #[should_panic(expected = "smaller than the number of peers")]
    fn impossible_degree_is_rejected() {
        let cfg = GeneratorConfig {
            peers: 3,
            average_degree: 5.0,
            model: GraphModel::Random,
        };
        let _ = cfg.generate(&mut StdRng::seed_from_u64(0));
    }
}
