//! BRITE-inspired underlay generation.
//!
//! BRITE (Boston university Representative Internet Topology gEnerator) places
//! nodes on a plane — uniformly or in heavy-tailed clusters — and derives link
//! delays from geometric distance. The Locaware paper only borrows the
//! delay model: "we generate an underlying topology of peers connected with
//! links of variable latencies; the model inspired by BRITE assigns latencies
//! between 10 and 500 ms" (§5.1).
//!
//! [`BriteGenerator`] reproduces that: it places peers in the unit square,
//! grouped into a configurable number of clusters to mimic the Internet's
//! regional structure (clustering is what makes landmark binning meaningful;
//! every run uses it, so uniform placement is not offered), and wraps the
//! result in a [`PhysicalTopology`] whose latencies fall in the configured
//! range.

use rand::Rng;

use crate::coordinates::Point;
use crate::topology::{LatencyModel, PhysicalTopology};

/// How peers are spread over the plane: grouped around `clusters`
/// uniformly-placed cluster centres with Gaussian spread `sigma` (BRITE
/// "heavy-tailed"/hierarchical flavour). This mimics regional Internet
/// structure: peers in the same cluster see each other with low latency and
/// produce identical landmark orderings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementModel {
    /// Number of cluster centres.
    pub clusters: usize,
    /// Standard deviation of the per-coordinate offset around a centre.
    pub sigma: f64,
}

/// Configuration of the BRITE-inspired generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BriteConfig {
    /// Number of peers to place.
    pub nodes: usize,
    /// Placement model.
    pub placement: PlacementModel,
    /// Minimum one-way latency in milliseconds (paper: 10 ms).
    pub min_latency_ms: f64,
    /// Maximum one-way latency in milliseconds (paper: 500 ms).
    pub max_latency_ms: f64,
    /// Relative per-pair latency jitter.
    pub jitter_fraction: f64,
}

impl Default for BriteConfig {
    fn default() -> Self {
        BriteConfig {
            nodes: 1000,
            placement: PlacementModel {
                clusters: 24,
                sigma: 0.03,
            },
            min_latency_ms: 10.0,
            max_latency_ms: 500.0,
            jitter_fraction: 0.05,
        }
    }
}

/// Generates [`PhysicalTopology`] instances from a [`BriteConfig`].
#[derive(Debug, Clone)]
pub struct BriteGenerator {
    config: BriteConfig,
}

impl BriteGenerator {
    /// Creates a generator for the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is internally inconsistent (zero nodes,
    /// inverted latency range, or a placement with zero clusters).
    pub fn new(config: BriteConfig) -> Self {
        assert!(config.nodes > 0, "topology must contain at least one node");
        assert!(
            config.min_latency_ms > 0.0 && config.max_latency_ms >= config.min_latency_ms,
            "latency range must satisfy 0 < min <= max"
        );
        assert!(
            config.placement.clusters > 0,
            "clustered placement needs at least one cluster"
        );
        BriteGenerator { config }
    }

    /// The configuration this generator uses.
    pub fn config(&self) -> &BriteConfig {
        &self.config
    }

    /// Generates a topology using the supplied RNG (typically the
    /// `StreamId::PhysicalTopology` stream).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> PhysicalTopology {
        let positions = self.place_clustered(rng);
        let model = LatencyModel {
            min_latency_ms: self.config.min_latency_ms,
            max_latency_ms: self.config.max_latency_ms,
            jitter_fraction: self.config.jitter_fraction,
            jitter_seed: rng.gen(),
        };
        PhysicalTopology::new(positions, model)
    }

    fn place_clustered<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Point> {
        let PlacementModel { clusters, sigma } = self.config.placement;
        let centres: Vec<Point> = (0..clusters)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        (0..self.config.nodes)
            .map(|_| {
                let centre = centres[rng.gen_range(0..clusters)];
                let dx = gaussian(rng) * sigma;
                let dy = gaussian(rng) * sigma;
                Point::new(centre.x + dx, centre.y + dy)
            })
            .collect()
    }
}

/// Standard normal sample via the Box–Muller transform (avoids depending on
/// `rand_distr`, which is outside the allowed dependency set).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_number_of_nodes() {
        let gen = BriteGenerator::new(BriteConfig {
            nodes: 137,
            ..BriteConfig::default()
        });
        let topo = gen.generate(&mut StdRng::seed_from_u64(1));
        assert_eq!(topo.len(), 137);
    }

    #[test]
    fn latencies_fall_in_configured_range() {
        let gen = BriteGenerator::new(BriteConfig {
            nodes: 60,
            ..BriteConfig::default()
        });
        let topo = gen.generate(&mut StdRng::seed_from_u64(2));
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a == b {
                    continue;
                }
                let l = topo.latency(a, b).as_millis_f64();
                assert!((10.0..=500.0).contains(&l), "latency {l} out of range");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let gen = BriteGenerator::new(BriteConfig::default());
        let t1 = gen.generate(&mut StdRng::seed_from_u64(99));
        let t2 = gen.generate(&mut StdRng::seed_from_u64(99));
        for n in t1.nodes() {
            assert_eq!(t1.position(n).x, t2.position(n).x);
            assert_eq!(t1.position(n).y, t2.position(n).y);
        }
        assert_eq!(
            t1.latency(NodeId(0), NodeId(1)),
            t2.latency(NodeId(0), NodeId(1))
        );
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let gen = BriteGenerator::new(BriteConfig::default());
        let t1 = gen.generate(&mut StdRng::seed_from_u64(1));
        let t2 = gen.generate(&mut StdRng::seed_from_u64(2));
        let same = t1
            .nodes()
            .filter(|&n| t1.position(n).x == t2.position(n).x)
            .count();
        assert!(same < t1.len() / 10, "layouts should differ almost everywhere");
    }

    #[test]
    fn clustered_placement_produces_locality() {
        // With clustering, the average latency of the closest 1% of pairs
        // should be far below the global average.
        let gen = BriteGenerator::new(BriteConfig {
            nodes: 200,
            placement: PlacementModel {
                clusters: 10,
                sigma: 0.02,
            },
            ..BriteConfig::default()
        });
        let topo = gen.generate(&mut StdRng::seed_from_u64(7));
        let mut latencies: Vec<f64> = Vec::new();
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a < b {
                    latencies.push(topo.latency(a, b).as_millis_f64());
                }
            }
        }
        latencies.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let closest: f64 =
            latencies[..latencies.len() / 100].iter().sum::<f64>() / (latencies.len() / 100) as f64;
        let avg: f64 = latencies.iter().sum::<f64>() / latencies.len() as f64;
        assert!(
            closest * 3.0 < avg,
            "clustered topology should have pronounced locality (closest={closest:.1}ms avg={avg:.1}ms)"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_is_rejected() {
        let _ = BriteGenerator::new(BriteConfig {
            nodes: 0,
            ..BriteConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "latency range")]
    fn inverted_latency_range_is_rejected() {
        let _ = BriteGenerator::new(BriteConfig {
            min_latency_ms: 100.0,
            max_latency_ms: 10.0,
            ..BriteConfig::default()
        });
    }

    #[test]
    fn gaussian_has_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
