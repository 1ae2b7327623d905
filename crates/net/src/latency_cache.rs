//! Per-link latency cache: compute each link's latency once per topology.
//!
//! [`PhysicalTopology::latency`] is a pure function of the two endpoints
//! (distance, range mapping, deterministic jitter hash) — cheap, but the
//! simulation engine evaluates it on **every message delivery**, and messages
//! overwhelmingly travel along overlay links (queries fan out over neighbour
//! edges; responses retrace the same edges in reverse). A simulation therefore
//! recomputes the same few thousand link latencies millions of times.
//!
//! [`LinkLatencyCache`] precomputes the latency of every overlay link once per
//! substrate into one compressed-sparse-row arena: every node's cached links
//! sit in one id-sorted run of a single `(peer, latency)` vector, found
//! through an offsets vector, so a lookup loads two adjacent offsets and
//! binary-searches a short run (the average overlay degree is ~4) with no
//! per-node row header in between. The arena is built by counting each
//! node's links, placing every directed link at its row's next slot and
//! sorting each short row, with no sort of the whole directed link list.
//! Pairs outside the cached link set (churn-added edges,
//! requestor→provider download distances, RTT probes to arbitrary providers)
//! fall back to computing from the topology, so a cached lookup **always**
//! returns exactly `topology.latency(a, b)` and substituting the cache can
//! never change simulation results.

use locaware_sim::Duration;

use crate::topology::{NodeId, PhysicalTopology};

/// Precomputed one-way latencies for a fixed set of (undirected) links.
#[derive(Debug, Clone, Default)]
pub struct LinkLatencyCache {
    /// Node `a`'s cached links are `links[offsets[a]..offsets[a + 1]]`;
    /// `nodes + 1` entries, non-decreasing, the last equal to `links.len()`.
    offsets: Vec<u32>,
    /// Every node's cached neighbours in one vector, node by node, each
    /// node's run sorted by neighbour id with the precomputed one-way latency
    /// to it. Symmetric: `b` is in `a`'s run iff `a` is in `b`'s (with the
    /// same value, as topology latency is symmetric).
    links: Vec<(u32, Duration)>,
}

impl LinkLatencyCache {
    /// An empty cache over `nodes` slots: every lookup falls back to the
    /// topology.
    pub fn empty(nodes: usize) -> Self {
        LinkLatencyCache {
            offsets: vec![0; nodes + 1],
            links: Vec::new(),
        }
    }

    /// Precomputes the latency of every link in `edges` on `topology`.
    ///
    /// `edges` may list each undirected edge once (either orientation) or
    /// twice; duplicates and self-edges are ignored. Endpoints must be valid
    /// topology nodes.
    ///
    /// # Panics
    /// Panics if `edges` lists `u32::MAX / 2` links or more besides
    /// self-edges.
    pub fn build(
        topology: &PhysicalTopology,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        let edges: Vec<(NodeId, NodeId)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        assert!(edges.len() < (u32::MAX / 2) as usize, "too many links for u32 offsets");
        // Count each node's directed links; the prefix sum makes the counts
        // each row's start.
        let mut offsets = vec![0u32; topology.len() + 1];
        for &(a, b) in &edges {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Place both orientations of every link at its rows' next free slot.
        let mut next = offsets.clone();
        let mut links = vec![(0u32, Duration::ZERO); 2 * edges.len()];
        for (a, b) in edges {
            let latency = topology.latency(a, b);
            for (from, to) in [(a, b), (b, a)] {
                let slot = &mut next[from.index()];
                links[*slot as usize] = (to.0, latency);
                *slot += 1;
            }
        }
        // Sort each short row and drop its repeats, compacting the arena
        // leftwards. Latency is a function of the pair alone, so which repeat
        // the unstable sort keeps does not matter.
        let mut kept = 0;
        for node in 0..topology.len() {
            let (start, end) = (offsets[node] as usize, offsets[node + 1] as usize);
            let row = &mut links[start..end];
            row.sort_unstable_by_key(|&(to, _)| to);
            offsets[node] = kept as u32;
            for i in start..end {
                if i == start || links[i].0 != links[i - 1].0 {
                    links[kept] = links[i];
                    kept += 1;
                }
            }
        }
        offsets[topology.len()] = kept as u32;
        links.truncate(kept);
        links.shrink_to_fit();
        LinkLatencyCache { offsets, links }
    }

    /// Node `a`'s cached links, empty for a node outside the cache.
    fn row(&self, a: usize) -> &[(u32, Duration)] {
        match (self.offsets.get(a), self.offsets.get(a + 1)) {
            (Some(&lo), Some(&hi)) => &self.links[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Number of directed link entries held (twice the undirected link count).
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if no link is cached.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// One-way latency between `a` and `b`: a cached-link lookup for
    /// links, `topology.latency(a, b)` for everything else. Always equal to
    /// the direct computation.
    pub fn latency(&self, topology: &PhysicalTopology, a: NodeId, b: NodeId) -> Duration {
        let row = self.row(a.index());
        match row.binary_search_by_key(&b.0, |&(n, _)| n) {
            Ok(pos) => row[pos].1,
            Err(_) => topology.latency(a, b),
        }
    }

    /// Round-trip time between `a` and `b` (twice the one-way latency).
    pub fn rtt(&self, topology: &PhysicalTopology, a: NodeId, b: NodeId) -> Duration {
        self.latency(topology, a, b).saturating_mul(2)
    }

    /// Iterates every cached **directed** link as `(from, to, latency)`.
    /// Each undirected link appears twice (once per orientation).
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, Duration)> + '_ {
        (0..self.offsets.len().saturating_sub(1)).flat_map(move |from| {
            self.row(from)
                .iter()
                .map(move |&(to, latency)| (NodeId(from as u32), NodeId(to), latency))
        })
    }

    /// Per-(src, dst)-cell channel minima of the cached link set under
    /// `assignment` (node index → cell in `0..cells`): `matrix[src][dst]` is
    /// the smallest latency of any cached link from a node in `src` to a node
    /// in `dst`, or `None` when no such link exists. Diagonal entries carry
    /// the intra-cell minima.
    ///
    /// This is the CMB-style per-channel lookahead table of a conservative
    /// parallel simulator: a message from shard `j` to shard `i` sent at time
    /// `t` cannot arrive before `t + matrix[j][i]`, so shard `i` may safely
    /// advance to `min over incoming j of (frontier + matrix[j][i])` — a
    /// per-destination bound that is never tighter, and usually much looser,
    /// than the smallest latency of any cell-crossing link.
    pub fn channel_mins(&self, assignment: &[u32], cells: usize) -> Vec<Vec<Option<Duration>>> {
        let mut matrix = vec![vec![None; cells]; cells];
        let cell_of = |n: NodeId| assignment.get(n.index()).copied().unwrap_or(0);
        for (from, to, latency) in self.links() {
            let (src, dst) = (cell_of(from) as usize, cell_of(to) as usize);
            if src >= cells || dst >= cells {
                continue;
            }
            let entry = &mut matrix[src][dst];
            *entry = Some(entry.map_or(latency, |m: Duration| m.min(latency)));
        }
        matrix
    }

    /// Per-destination-cell lookahead: for each cell, the minimum of
    /// [`LinkLatencyCache::channel_mins`] over its *incoming* cross-cell
    /// channels. `None` means no cached link enters the cell from outside —
    /// unbounded lookahead for that cell.
    pub fn incoming_channel_mins(&self, assignment: &[u32], cells: usize) -> Vec<Option<Duration>> {
        let matrix = self.channel_mins(assignment, cells);
        (0..cells)
            .map(|dst| {
                (0..cells)
                    .filter(|&src| src != dst)
                    .filter_map(|src| matrix[src][dst])
                    .min()
            })
            .collect()
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::brite::{BriteConfig, BriteGenerator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topology_of(nodes: usize, seed: u64) -> PhysicalTopology {
        BriteGenerator::new(BriteConfig {
            nodes,
            ..BriteConfig::default()
        })
        .generate(&mut StdRng::seed_from_u64(seed))
    }

    fn topology() -> PhysicalTopology {
        topology_of(40, 3)
    }

    /// One node's row of the model: its cached neighbours, sorted by id.
    type Row = Vec<(u32, Duration)>;

    /// The reference model: one sorted `Row` per node, filled by one
    /// binary-search insert per directed link.
    struct NestedRows {
        links: Vec<Row>,
    }

    impl NestedRows {
        fn build(topology: &PhysicalTopology, edges: &[(NodeId, NodeId)]) -> Self {
            let mut rows = NestedRows {
                links: vec![Vec::new(); topology.len()],
            };
            for &(a, b) in edges {
                if a != b {
                    let latency = topology.latency(a, b);
                    rows.insert_directed(a, b, latency);
                    rows.insert_directed(b, a, latency);
                }
            }
            rows
        }

        fn insert_directed(&mut self, from: NodeId, to: NodeId, latency: Duration) {
            let row = &mut self.links[from.index()];
            if let Err(pos) = row.binary_search_by_key(&to.0, |&(n, _)| n) {
                row.insert(pos, (to.0, latency));
            }
        }

        fn len(&self) -> usize {
            self.links.iter().map(Vec::len).sum()
        }

        fn latency(&self, topology: &PhysicalTopology, a: NodeId, b: NodeId) -> Duration {
            if let Some(row) = self.links.get(a.index()) {
                if let Ok(pos) = row.binary_search_by_key(&b.0, |&(n, _)| n) {
                    return row[pos].1;
                }
            }
            topology.latency(a, b)
        }

        fn links(&self) -> Vec<(NodeId, NodeId, Duration)> {
            let mut out = Vec::new();
            for (from, row) in self.links.iter().enumerate() {
                for &(to, latency) in row {
                    out.push((NodeId(from as u32), NodeId(to), latency));
                }
            }
            out
        }

        fn channel_mins(&self, assignment: &[u32], cells: usize) -> Vec<Vec<Option<Duration>>> {
            let mut matrix = vec![vec![None; cells]; cells];
            for (from, to, latency) in self.links() {
                let (src, dst) = (assignment[from.index()] as usize, assignment[to.index()] as usize);
                if src < cells && dst < cells {
                    let entry = &mut matrix[src][dst];
                    *entry = Some(entry.map_or(latency, |m: Duration| m.min(latency)));
                }
            }
            matrix
        }
    }

    proptest! {
        /// Over random topologies of 1–48 nodes and edge lists drawn from a
        /// small id range (so duplicates, both orientations and self-edges
        /// are common), the arena agrees with the nested-rows model on every
        /// node pair's latency (cached and fallback), the link count, the
        /// whole `links()` sequence and the channel minima under a random
        /// cell assignment that leaves some nodes outside every cell.
        #[test]
        fn arena_matches_the_nested_rows_model(
            nodes in 1usize..48,
            seed in any::<u64>(),
            raw_edges in proptest::collection::vec((0u32..48, 0u32..48), 0..160),
            cells in 1usize..5,
            raw_cells in proptest::collection::vec(0u32..6, 48),
        ) {
            let topo = topology_of(nodes, seed);
            let n = nodes as u32;
            let edges: Vec<(NodeId, NodeId)> =
                raw_edges.iter().map(|&(a, b)| (NodeId(a % n), NodeId(b % n))).collect();
            let cache = LinkLatencyCache::build(&topo, edges.iter().copied());
            let model = NestedRows::build(&topo, &edges);

            prop_assert_eq!(cache.len(), model.len());
            prop_assert_eq!(cache.is_empty(), model.len() == 0);
            prop_assert_eq!(cache.links().collect::<Vec<_>>(), model.links());
            for a in topo.nodes() {
                for b in topo.nodes() {
                    prop_assert_eq!(cache.latency(&topo, a, b), model.latency(&topo, a, b), "{:?}→{:?}", a, b);
                    prop_assert_eq!(cache.latency(&topo, a, b), topo.latency(a, b));
                }
            }
            let assignment = &raw_cells[..nodes];
            prop_assert_eq!(cache.channel_mins(assignment, cells), model.channel_mins(assignment, cells));
        }
    }

    /// The build the counted arena replaced: both orientations of every
    /// link in one list, sorted by `(from, to)` and deduplicated.
    fn sorted_directed_list(topology: &PhysicalTopology, edges: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId, Duration)> {
        let mut directed = Vec::new();
        for &(a, b) in edges {
            if a != b {
                let latency = topology.latency(a, b);
                directed.extend([(a, b, latency), (b, a, latency)]);
            }
        }
        directed.sort_unstable_by_key(|&(from, to, _)| (from, to));
        directed.dedup_by_key(|&mut (from, to, _)| (from, to));
        directed
    }

    proptest! {
        /// Whether an edge list names a link once, in both orientations or
        /// twice, and wherever self-edges sit in it, the counted arena holds
        /// exactly the sorted directed list: the same `links()` sequence,
        /// and the same `latency()` for every node pair, cached or not.
        #[test]
        fn counted_csr_matches_the_sorted_directed_list(
            nodes in 1usize..48,
            seed in any::<u64>(),
            links in proptest::collection::vec((0u32..48, 0u32..48, 0u8..4), 0..80),
            self_edges in proptest::collection::vec((0u32..48, 0usize..160), 0..8),
        ) {
            let topo = topology_of(nodes, seed);
            let n = nodes as u32;
            let mut edges = Vec::new();
            for &(a, b, form) in &links {
                let (a, b) = (NodeId(a % n), NodeId(b % n));
                match form {
                    0 => edges.push((a, b)),
                    1 => edges.extend([(a, b), (b, a)]),
                    2 => edges.extend([(a, b), (a, b)]),
                    _ => edges.extend([(b, a), (a, b), (b, a), (a, b)]),
                }
            }
            for &(node, at) in &self_edges {
                let node = NodeId(node % n);
                edges.insert(at % (edges.len() + 1), (node, node));
            }
            let cache = LinkLatencyCache::build(&topo, edges.iter().copied());
            let model = sorted_directed_list(&topo, &edges);

            prop_assert_eq!(cache.links().collect::<Vec<_>>(), model.clone());
            for a in topo.nodes() {
                for b in topo.nodes() {
                    let expected = match model.binary_search_by_key(&(a, b), |&(from, to, _)| (from, to)) {
                        Ok(pos) => model[pos].2,
                        Err(_) => topo.latency(a, b),
                    };
                    prop_assert_eq!(cache.latency(&topo, a, b), expected, "{:?}→{:?}", a, b);
                }
            }
        }
    }

    #[test]
    fn cached_links_agree_with_the_topology() {
        let topo = topology();
        let edges: Vec<(NodeId, NodeId)> = (0..20u32)
            .map(|i| (NodeId(i), NodeId((i + 7) % 40)))
            .collect();
        let cache = LinkLatencyCache::build(&topo, edges.iter().copied());
        for &(a, b) in &edges {
            assert_eq!(cache.latency(&topo, a, b), topo.latency(a, b));
            assert_eq!(cache.latency(&topo, b, a), topo.latency(b, a), "symmetric");
            assert_eq!(cache.rtt(&topo, a, b), topo.rtt(a, b));
        }
    }

    #[test]
    fn uncached_pairs_fall_back_to_the_topology() {
        let topo = topology();
        let cache = LinkLatencyCache::build(&topo, [(NodeId(0), NodeId(1))]);
        assert_eq!(cache.latency(&topo, NodeId(5), NodeId(9)), topo.latency(NodeId(5), NodeId(9)));
        let empty = LinkLatencyCache::empty(topo.len());
        assert!(empty.is_empty());
        assert_eq!(empty.latency(&topo, NodeId(2), NodeId(3)), topo.latency(NodeId(2), NodeId(3)));
    }

    #[test]
    fn channel_mins_match_per_link_minima() {
        let topo = topology();
        // Cells: [0, 20) = 0, [20, 40) = 1. Two links crossing 0→1, one
        // intra-cell link in cell 0, none in cell 1.
        let edges = [
            (NodeId(0), NodeId(1)),
            (NodeId(2), NodeId(20)),
            (NodeId(3), NodeId(21)),
        ];
        let cache = LinkLatencyCache::build(&topo, edges);
        let assignment: Vec<u32> = (0..40).map(|i| u32::from(i >= 20)).collect();

        let matrix = cache.channel_mins(&assignment, 2);
        let cross = topo
            .latency(NodeId(2), NodeId(20))
            .min(topo.latency(NodeId(3), NodeId(21)));
        assert_eq!(matrix[0][1], Some(cross));
        assert_eq!(matrix[1][0], Some(cross), "links are symmetric");
        assert_eq!(matrix[0][0], Some(topo.latency(NodeId(0), NodeId(1))));
        assert_eq!(matrix[1][1], None, "no intra-cell link in cell 1");

        // Incoming mins agree with the matrix.
        let incoming = cache.incoming_channel_mins(&assignment, 2);
        assert_eq!(incoming, vec![Some(cross), Some(cross)]);
    }

    #[test]
    fn incoming_channel_mins_can_exceed_the_global_floor() {
        let topo = topology();
        // Three cells; find two cross links with different latencies so one
        // destination's incoming minimum sits above the global floor.
        let assignment: Vec<u32> = (0..40u32).map(|i| i / 14).collect(); // cells 0,1,2
        let edges = [
            (NodeId(0), NodeId(15)),  // 0 ↔ 1
            (NodeId(1), NodeId(30)),  // 0 ↔ 2
        ];
        let cache = LinkLatencyCache::build(&topo, edges);
        let l01 = topo.latency(NodeId(0), NodeId(15));
        let l02 = topo.latency(NodeId(1), NodeId(30));
        let incoming = cache.incoming_channel_mins(&assignment, 3);
        assert_eq!(incoming[1], Some(l01), "cell 1 only hears from cell 0");
        assert_eq!(incoming[2], Some(l02), "cell 2 only hears from cell 0");
        let global = l01.min(l02);
        assert_eq!(incoming[0], Some(global));
        // The looser of the two incoming bounds strictly beats the global
        // floor whenever the two link latencies differ.
        if l01 != l02 {
            assert!(incoming[1].unwrap().max(incoming[2].unwrap()) > global);
        }
    }

    #[test]
    fn single_cell_partitions_have_no_cross_links() {
        let topo = topology();
        let cache = LinkLatencyCache::build(&topo, [(NodeId(0), NodeId(1))]);
        let assignment = vec![0u32; 40];
        assert_eq!(cache.incoming_channel_mins(&assignment, 1), vec![None]);
        let intra = topo.latency(NodeId(0), NodeId(1));
        assert_eq!(cache.channel_mins(&assignment, 1), vec![vec![Some(intra)]]);
    }

    #[test]
    fn duplicate_and_self_edges_are_ignored() {
        let topo = topology();
        let cache = LinkLatencyCache::build(
            &topo,
            [
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(0)),
                (NodeId(0), NodeId(1)),
                (NodeId(4), NodeId(4)),
            ],
        );
        assert_eq!(cache.len(), 2, "one undirected link = two directed entries");
        assert_eq!(cache.latency(&topo, NodeId(4), NodeId(4)), Duration::ZERO);
    }
}
