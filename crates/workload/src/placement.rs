//! Initial placement of shared files on peers.
//!
//! §5.1: *"each peer initially shares 3 files, randomly chosen from a pool of
//! 3000"*. The placement is the system's starting replica distribution; natural
//! replication (requestors keeping downloaded files) then grows it during the
//! run, which is exactly the effect Locaware exploits.
//!
//! ## Weighted clusters
//!
//! [`ClusterWeights`] partitions the peer index space into contiguous
//! clusters and attaches a positive weight to each. With
//! [`PlacementConfig::cluster_weights`] set, the *total* share budget
//! (`peers × files_per_peer`) is redistributed across clusters proportionally
//! to weight (largest-remainder apportionment, then an even split inside each
//! cluster), so a hot cluster holds correspondingly more initial replicas.
//! The same weights drive query-origin attribution in
//! [`ArrivalConfig::origin_weights`](crate::arrival::ArrivalConfig), which is
//! what lets hotspot regimes concentrate storage *and* load on the same peers
//! (the simulation layer maps cluster slots onto locality-sorted peer ids, so
//! "the hot cluster" is a physically co-located region). `None` reproduces
//! the paper's uniform placement draw-for-draw.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::catalog::FileId;

/// Why a [`ClusterWeights`] is invalid.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterWeightsError {
    /// No clusters at all.
    Empty,
    /// A weight is not positive and finite.
    InvalidWeight {
        /// Index of the offending cluster.
        index: usize,
        /// The offending weight.
        weight: f64,
    },
}

impl std::fmt::Display for ClusterWeightsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterWeightsError::Empty => write!(f, "cluster weights must not be empty"),
            ClusterWeightsError::InvalidWeight { index, weight } => write!(
                f,
                "cluster weights must be positive and finite: cluster {index} has {weight}"
            ),
        }
    }
}

impl std::error::Error for ClusterWeightsError {}

/// Positive per-cluster weights over a contiguous partition of the peer
/// index space.
///
/// Cluster `c` of `k` over a population of `n` peers owns the index range
/// `[c·n/k, (c+1)·n/k)` (integer division), so every cluster is non-empty
/// whenever `k ≤ n`. Weights are relative: `[8, 1, 1]` gives the first
/// cluster 80% of whatever mass is being apportioned (initial file copies,
/// query origins).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterWeights {
    weights: Vec<f64>,
    /// Sum of `weights`, fixed at construction so per-arrival cluster
    /// sampling never re-adds the whole vector.
    total: f64,
}

impl ClusterWeights {
    /// Validates and wraps per-cluster weights: at least one cluster, every
    /// weight positive and finite. Whether the clusters fit a population is
    /// the simulation layer's check (`SimulationConfig::validate`).
    pub fn new(weights: Vec<f64>) -> Result<Self, ClusterWeightsError> {
        if weights.is_empty() {
            return Err(ClusterWeightsError::Empty);
        }
        for (index, &weight) in weights.iter().enumerate() {
            if !weight.is_finite() || weight <= 0.0 {
                return Err(ClusterWeightsError::InvalidWeight { index, weight });
            }
        }
        let total = weights.iter().sum();
        Ok(ClusterWeights { weights, total })
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.weights.len()
    }

    /// The raw weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The contiguous peer index range owned by `cluster` in a population of
    /// `peers`.
    pub fn peer_range(&self, cluster: usize, peers: usize) -> std::ops::Range<usize> {
        // `c·n/k ≤ n`, so only the product needs the wider type.
        let start = |c: usize| (c as u128 * peers as u128 / self.weights.len() as u128) as usize;
        start(cluster)..start(cluster + 1)
    }

    /// Draws a cluster index proportionally to weight (one uniform draw;
    /// the subtractive scan keeps the draw → cluster mapping bit-stable
    /// against the precomputed total).
    pub fn sample_cluster<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut target = rng.gen::<f64>() * self.total;
        for (index, &weight) in self.weights.iter().enumerate() {
            if target < weight {
                return index;
            }
            target -= weight;
        }
        self.weights.len() - 1
    }

    /// Apportions `total` indivisible units across the clusters
    /// proportionally to weight, by the largest-remainder method (exact sum,
    /// deterministic, ties broken by cluster index).
    pub fn apportion(&self, total: usize) -> Vec<usize> {
        // Every count is at most `total`, so it narrows back losslessly.
        self.apportion_wide(total as u128).into_iter().map(|count| count as usize).collect()
    }

    /// [`ClusterWeights::apportion`] of a `u128` total, so a budget of
    /// `peers × files_per_peer` copies cannot overflow.
    fn apportion_wide(&self, total: u128) -> Vec<u128> {
        let weight_sum = self.total;
        let quotas: Vec<f64> = self
            .weights
            .iter()
            .map(|w| total as f64 * w / weight_sum)
            .collect();
        let mut counts: Vec<u128> = quotas.iter().map(|q| q.floor() as u128).collect();
        let assigned: u128 = counts.iter().sum();
        // Hand the leftover units to the largest fractional remainders. They
        // are finite and in [0, 1) (never -0.0), where `total_cmp` is the
        // numeric order.
        let mut order: Vec<usize> = (0..self.weights.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = quotas[a] - quotas[a].floor();
            let rb = quotas[b] - quotas[b].floor();
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        // Fewer units than clusters are left over; past 2⁵³ units the float
        // quotas are inexact, and the clamp keeps the count in range.
        let leftover = total.saturating_sub(assigned).min(order.len() as u128) as usize;
        for &cluster in order.iter().take(leftover) {
            counts[cluster] += 1;
        }
        counts
    }

    /// Per-peer share counts for a population of `peers` with a total budget
    /// of `peers × files_per_peer` file copies: the budget is apportioned
    /// across clusters by weight, then split as evenly as possible inside
    /// each cluster (the first peers of a cluster absorb the remainder).
    pub fn share_counts(&self, peers: usize, files_per_peer: usize) -> Vec<usize> {
        let per_cluster = self.apportion(peers * files_per_peer);
        let mut counts = vec![0usize; peers];
        for (cluster, &quota) in per_cluster.iter().enumerate() {
            let range = self.peer_range(cluster, peers);
            let n = range.len();
            if n == 0 {
                continue;
            }
            let base = quota / n;
            let extra = quota % n;
            for (offset, peer) in range.enumerate() {
                counts[peer] = base + usize::from(offset < extra);
            }
        }
        counts
    }

    /// The largest per-peer share count [`ClusterWeights::share_counts`]
    /// would produce — what the configuration layer checks against the file
    /// pool (no peer can share more distinct files than exist). It takes
    /// O(clusters) time and memory, and is wide enough for any population:
    /// the most a cluster puts on one peer is its quota over its peer range,
    /// rounded up.
    pub fn max_share_count(&self, peers: usize, files_per_peer: usize) -> u128 {
        let quotas = self.apportion_wide(peers as u128 * files_per_peer as u128);
        (quotas.into_iter().enumerate())
            .filter_map(|(cluster, quota)| {
                let n = self.peer_range(cluster, peers).len() as u128;
                (n > 0).then(|| quota.div_ceil(n))
            })
            .max()
            .unwrap_or(0)
    }
}

/// Configuration of the initial placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementConfig {
    /// Number of peers.
    pub peers: usize,
    /// Number of files each peer initially shares (paper: 3); under
    /// [`PlacementConfig::cluster_weights`] this is the population *average*,
    /// redistributed by weight.
    pub files_per_peer: usize,
    /// Size of the file pool to draw from (paper: 3000).
    pub file_pool: usize,
    /// Optional weighted-cluster redistribution of the share budget; `None`
    /// reproduces the paper's uniform placement exactly.
    pub cluster_weights: Option<ClusterWeights>,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            peers: 1000,
            files_per_peer: crate::PAPER_FILES_PER_PEER,
            file_pool: crate::PAPER_FILE_POOL,
            cluster_weights: None,
        }
    }
}

/// The initial assignment of files to peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialPlacement {
    /// `shared[p]` = the files peer `p` initially shares (sorted, distinct).
    shared: Vec<Vec<FileId>>,
}

impl InitialPlacement {
    /// Generates a placement according to `config`, drawing from `rng`
    /// (typically the `StreamId::FilePlacement` stream).
    ///
    /// # Panics
    /// Panics if a peer is asked to share more files than the pool contains
    /// (for weighted clusters: if the heaviest cluster's per-peer allotment
    /// exceeds the pool). The simulation configuration layer validates both
    /// bounds fallibly before substrates are built.
    pub fn generate<R: Rng + ?Sized>(config: PlacementConfig, rng: &mut R) -> Self {
        let counts: Option<Vec<usize>> = config
            .cluster_weights
            .as_ref()
            .map(|w| w.share_counts(config.peers, config.files_per_peer));
        let max_count = counts
            .as_ref()
            .map(|c| c.iter().copied().max().unwrap_or(0))
            .unwrap_or(config.files_per_peer);
        assert!(
            max_count <= config.file_pool,
            "cannot share more distinct files than the pool contains"
        );
        let all_files: Vec<FileId> = (0..config.file_pool as u32).map(FileId).collect();
        let shared = (0..config.peers)
            .map(|peer| {
                let count = counts.as_ref().map_or(config.files_per_peer, |c| c[peer]);
                let mut files: Vec<FileId> = all_files
                    .choose_multiple(rng, count)
                    .copied()
                    .collect();
                files.sort_unstable();
                files
            })
            .collect();
        InitialPlacement { shared }
    }

    /// Number of peers covered by the placement.
    pub fn peers(&self) -> usize {
        self.shared.len()
    }

    /// Files initially shared by peer `p`.
    pub fn files_of(&self, peer: usize) -> &[FileId] {
        &self.shared[peer]
    }

    /// Iterator over `(peer index, shared files)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[FileId])> {
        self.shared.iter().enumerate().map(|(i, v)| (i, v.as_slice()))
    }

    /// Number of initial replicas of `file` across all peers.
    pub fn replica_count(&self, file: FileId) -> usize {
        self.shared
            .iter()
            .filter(|files| files.binary_search(&file).is_ok())
            .count()
    }

    /// Total number of (peer, file) share relationships.
    pub fn total_shared(&self) -> usize {
        self.shared.iter().map(|v| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_defaults_give_three_distinct_files_per_peer() {
        let p = InitialPlacement::generate(PlacementConfig::default(), &mut StdRng::seed_from_u64(1));
        assert_eq!(p.peers(), 1000);
        assert_eq!(p.total_shared(), 3000);
        for (peer, files) in p.iter() {
            assert_eq!(files.len(), 3, "peer {peer} should share 3 files");
            let mut dedup = files.to_vec();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "peer {peer} files must be distinct");
            for f in files {
                assert!(f.index() < 3000);
            }
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let a = InitialPlacement::generate(PlacementConfig::default(), &mut StdRng::seed_from_u64(3));
        let b = InitialPlacement::generate(PlacementConfig::default(), &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = InitialPlacement::generate(PlacementConfig::default(), &mut StdRng::seed_from_u64(1));
        let b = InitialPlacement::generate(PlacementConfig::default(), &mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
    }

    #[test]
    fn replica_counts_add_up() {
        let cfg = PlacementConfig {
            peers: 200,
            files_per_peer: 3,
            file_pool: 50,
            cluster_weights: None,
        };
        let p = InitialPlacement::generate(cfg, &mut StdRng::seed_from_u64(4));
        let total: usize = (0..50).map(|f| p.replica_count(FileId(f))).sum();
        assert_eq!(total, p.total_shared());
        // With 600 shares over 50 files, every file is very likely replicated.
        let unreplicated = (0..50).filter(|&f| p.replica_count(FileId(f)) == 0).count();
        assert!(unreplicated <= 2);
    }

    #[test]
    #[should_panic(expected = "more distinct files")]
    fn oversized_share_request_is_rejected() {
        let cfg = PlacementConfig {
            peers: 2,
            files_per_peer: 10,
            file_pool: 5,
            cluster_weights: None,
        };
        let _ = InitialPlacement::generate(cfg, &mut StdRng::seed_from_u64(0));
    }

    // ------------------------------------------------------- cluster weights

    #[test]
    fn cluster_weights_validate_their_shape() {
        assert_eq!(ClusterWeights::new(vec![]).unwrap_err(), ClusterWeightsError::Empty);
        assert!(matches!(
            ClusterWeights::new(vec![1.0, 0.0]).unwrap_err(),
            ClusterWeightsError::InvalidWeight { index: 1, .. }
        ));
        assert!(matches!(
            ClusterWeights::new(vec![f64::NAN]).unwrap_err(),
            ClusterWeightsError::InvalidWeight { index: 0, .. }
        ));
        assert!(matches!(
            ClusterWeights::new(vec![2.0, f64::INFINITY]).unwrap_err(),
            ClusterWeightsError::InvalidWeight { index: 1, .. }
        ));
        assert_eq!(ClusterWeights::new(vec![3.0, 1.0]).unwrap().clusters(), 2);
    }

    #[test]
    fn peer_ranges_partition_the_population() {
        let w = ClusterWeights::new(vec![1.0, 1.0, 1.0]).unwrap();
        for peers in [3usize, 7, 30, 100] {
            let mut covered = 0usize;
            for c in 0..w.clusters() {
                let range = w.peer_range(c, peers);
                assert_eq!(range.start, covered, "ranges must be contiguous");
                assert!(!range.is_empty(), "k <= n keeps every cluster non-empty");
                covered = range.end;
            }
            assert_eq!(covered, peers, "ranges must cover every peer");
        }
    }

    #[test]
    fn apportionment_is_exact_and_proportional() {
        let w = ClusterWeights::new(vec![8.0, 1.0, 1.0]).unwrap();
        let counts = w.apportion(1000);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert_eq!(counts, vec![800, 100, 100]);
        // Remainders distribute deterministically.
        let odd = w.apportion(7);
        assert_eq!(odd.iter().sum::<usize>(), 7);
        assert!(odd[0] >= 5, "the heavy cluster takes the bulk: {odd:?}");
    }

    #[test]
    fn weighted_share_counts_conserve_the_budget() {
        let w = ClusterWeights::new(vec![6.0, 1.0, 1.0]).unwrap();
        let counts = w.share_counts(90, 3);
        assert_eq!(counts.len(), 90);
        assert_eq!(counts.iter().sum::<usize>(), 270, "total budget conserved");
        let hot: usize = counts[..30].iter().sum();
        assert!(
            (195..=210).contains(&hot),
            "hot cluster holds ~75% of the copies, got {hot}"
        );
        // Within a cluster the split is even to within one file.
        for cluster in 0..3 {
            let range = w.peer_range(cluster, 90);
            let slice = &counts[range];
            let min = slice.iter().min().unwrap();
            let max = slice.iter().max().unwrap();
            assert!(max - min <= 1, "cluster {cluster}: uneven split {slice:?}");
        }
    }

    proptest::proptest! {
        /// One to six clusters of weights from 0.1 to 10 over 1–400 peers
        /// (fewer peers than clusters too, which leaves clusters empty) and
        /// 0–12 files per peer: the O(clusters) maximum equals the maximum of
        /// the per-peer counts.
        #[test]
        fn max_share_count_matches_the_per_peer_counts(
            weights in proptest::collection::vec(1u32..100, 1..7),
            peers in 1usize..401,
            files_per_peer in 0usize..13,
        ) {
            let w = ClusterWeights::new(weights.iter().map(|&w| f64::from(w) / 10.0).collect()).unwrap();
            let counts = w.share_counts(peers, files_per_peer);
            proptest::prop_assert_eq!(w.max_share_count(peers, files_per_peer), *counts.iter().max().unwrap() as u128);
        }
    }

    #[test]
    fn weighted_placement_concentrates_replicas() {
        let weights = ClusterWeights::new(vec![6.0, 1.0, 1.0]).unwrap();
        let cfg = PlacementConfig {
            peers: 90,
            files_per_peer: 3,
            file_pool: 300,
            cluster_weights: Some(weights),
        };
        let p = InitialPlacement::generate(cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(p.total_shared(), 270, "weighting conserves the total budget");
        let hot: usize = (0..30).map(|peer| p.files_of(peer).len()).sum();
        assert!(hot >= 195, "hot cluster must hold most copies, got {hot}");
        for (peer, files) in p.iter() {
            let mut dedup = files.to_vec();
            dedup.dedup();
            assert_eq!(dedup.len(), files.len(), "peer {peer} files must be distinct");
        }
    }

    #[test]
    fn cluster_sampling_tracks_the_weights() {
        let w = ClusterWeights::new(vec![8.0, 1.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[w.sample_cluster(&mut rng)] += 1;
        }
        let share = counts[0] as f64 / 10_000.0;
        assert!((0.77..0.83).contains(&share), "cluster 0 share {share}");
        assert!(counts[1] > 0 && counts[2] > 0);
    }
}
