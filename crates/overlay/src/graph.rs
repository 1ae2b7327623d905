//! The overlay graph: who is a logical neighbour of whom.
//!
//! The graph is undirected. Peers keep their neighbour lists sorted so that
//! iteration order — and therefore every downstream decision that iterates over
//! neighbours — is deterministic.
//!
//! Storage is CSR (one offsets vector into one shared edge arena, built once
//! from the generator's rows) with a copy-on-write overlay for rows mutated
//! after that: a quiescent graph costs 8 bytes per peer plus 4 bytes per directed edge,
//! instead of a heap-allocated `Vec` per peer, and cloning it — which every
//! protocol run does once — is two `memcpy`s. The first mutation (churn
//! rewiring) gives the overlay one slot per peer, and each mutation lifts
//! just the touched rows into it; reads always see the merged view, so the
//! representation change is invisible to callers.

use std::collections::VecDeque;

use crate::PeerId;

/// The CSR edge arena stores bare [`PeerId`]s: growing this type grows the
/// graph's dominant allocation linearly, so pin it.
const _: () = assert!(std::mem::size_of::<PeerId>() == 4, "CSR edge record grew");

/// An undirected overlay graph over peers `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayGraph {
    /// CSR row offsets: peer `p`'s base row is `arena[offsets[p]..offsets[p+1]]`.
    offsets: Vec<usize>,
    /// All base neighbour lists, concatenated; each row sorted, duplicate-free.
    arena: Vec<PeerId>,
    /// Copy-on-write rows mutated since the CSR base was built, by peer
    /// index; a present row overrides the base row entirely. Empty until the
    /// first mutation, then one slot per peer, so a read is one indexed load
    /// either way.
    lifted: Vec<Option<Vec<PeerId>>>,
    /// One bit per peer, set while the peer is in the overlay (ids are never
    /// reused): bit `i % 64` of word `i / 64`.
    online: Vec<u64>,
    edges: usize,
}

impl OverlayGraph {
    /// Creates an edgeless graph over `peers` peers.
    pub fn new(peers: usize) -> Self {
        Self::from_rows(&vec![Vec::new(); peers])
    }

    /// The CSR graph whose peer `i` has neighbours `rows[i]`: rows sorted,
    /// duplicate-free, loop-free and symmetric, as `add_edge` keeps them.
    pub(crate) fn from_rows(rows: &[Vec<PeerId>]) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut arena = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        offsets.push(0);
        for row in rows {
            arena.extend_from_slice(row);
            offsets.push(arena.len());
        }
        let mut online = vec![u64::MAX; rows.len().div_ceil(64)];
        if let Some(last) = online.last_mut() {
            *last >>= (64 - rows.len() % 64) % 64;
        }
        OverlayGraph {
            offsets,
            edges: arena.len() / 2,
            arena,
            lifted: Vec::new(),
            online,
        }
    }

    /// Number of peer slots (including departed peers).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the graph has no peers at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The merged (base or copy-on-write) row of peer index `i`.
    fn row(&self, i: usize) -> &[PeerId] {
        match self.lifted.get(i) {
            Some(Some(row)) => row,
            _ => &self.arena[self.offsets[i]..self.offsets[i + 1]],
        }
    }

    /// The mutable row of peer index `i`, lifted into the copy-on-write
    /// overlay on first touch.
    fn row_mut(&mut self, i: usize) -> &mut Vec<PeerId> {
        if self.lifted.is_empty() {
            self.lifted.resize(self.len(), None);
        }
        let base = &self.arena[self.offsets[i]..self.offsets[i + 1]];
        self.lifted[i].get_or_insert_with(|| base.to_vec())
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Average degree over *active* peers.
    pub fn average_degree(&self) -> f64 {
        let active = self.active_count();
        if active == 0 {
            0.0
        } else {
            2.0 * self.edges as f64 / active as f64
        }
    }

    /// Number of peers currently in the overlay.
    pub fn active_count(&self) -> usize {
        self.online.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Iterator over all active peers, in id order.
    pub fn active_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.len()).map(|i| PeerId(i as u32)).filter(|&p| self.is_active(p))
    }

    /// The `n`-th active peer in id order (0-based), if there are that many:
    /// one popcount per 64 peers skipped, no list built.
    pub fn nth_active(&self, mut n: usize) -> Option<PeerId> {
        for (w, &word) in self.online.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if n < ones {
                let mut word = word;
                for _ in 0..n {
                    word &= word - 1; // clear the lowest set bit
                }
                return Some(PeerId((w * 64) as u32 + word.trailing_zeros()));
            }
            n -= ones;
        }
        None
    }

    /// True if `p` is currently part of the overlay.
    pub fn is_active(&self, p: PeerId) -> bool {
        self.online[p.index() / 64] >> (p.index() % 64) & 1 == 1
    }

    /// The sorted neighbour list of `p`.
    pub fn neighbors(&self, p: PeerId) -> &[PeerId] {
        self.row(p.index())
    }

    /// Degree of `p`.
    pub fn degree(&self, p: PeerId) -> usize {
        self.row(p.index()).len()
    }

    /// Iterator over every undirected edge, each reported once as `(a, b)`
    /// with `a < b`, in id order.
    pub fn edges(&self) -> impl Iterator<Item = (PeerId, PeerId)> + '_ {
        (0..self.len()).flat_map(move |i| {
            let a = PeerId(i as u32);
            self.row(i)
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// True if `a` and `b` are directly connected.
    pub fn are_neighbors(&self, a: PeerId, b: PeerId) -> bool {
        self.row(a.index()).binary_search(&b).is_ok()
    }

    /// Adds an undirected edge. Self-loops and duplicates are ignored.
    /// Returns true if an edge was actually added.
    pub fn add_edge(&mut self, a: PeerId, b: PeerId) -> bool {
        if a == b || self.are_neighbors(a, b) {
            return false;
        }
        assert!(
            a.index() < self.len() && b.index() < self.len(),
            "peer id out of range"
        );
        // Rows are symmetric, so neither holds the other peer: it goes before
        // the first larger id.
        let row = self.row_mut(a.index());
        let ia = row.partition_point(|&n| n < b);
        row.insert(ia, b);
        let row = self.row_mut(b.index());
        let ib = row.partition_point(|&n| n < a);
        row.insert(ib, a);
        self.edges += 1;
        true
    }

    /// Removes an undirected edge. Returns true if the edge existed.
    pub fn remove_edge(&mut self, a: PeerId, b: PeerId) -> bool {
        if !self.are_neighbors(a, b) {
            return false;
        }
        let row = self.row_mut(a.index());
        if let Ok(ia) = row.binary_search(&b) {
            row.remove(ia);
        }
        let row = self.row_mut(b.index());
        if let Ok(ib) = row.binary_search(&a) {
            row.remove(ib);
        }
        self.edges -= 1;
        true
    }

    /// Disconnects `p` from all its neighbours and marks it departed.
    /// Returns the neighbours it had (churn drops the state held across
    /// those links).
    pub fn depart(&mut self, p: PeerId) -> Vec<PeerId> {
        let neighbors = std::mem::take(self.row_mut(p.index()));
        for &n in &neighbors {
            let row = self.row_mut(n.index());
            if let Ok(i) = row.binary_search(&p) {
                row.remove(i);
            }
        }
        self.edges -= neighbors.len();
        self.online[p.index() / 64] &= !(1 << (p.index() % 64));
        neighbors
    }

    /// Marks a departed peer as active again (without edges; the caller wires it).
    pub fn rejoin(&mut self, p: PeerId) {
        self.online[p.index() / 64] |= 1 << (p.index() % 64);
    }

    /// Peers reachable from `start` (breadth-first), including `start` itself.
    pub fn reachable_from(&self, start: PeerId) -> Vec<PeerId> {
        let mut visited = vec![false; self.len()];
        let mut queue = VecDeque::new();
        let mut out = Vec::new();
        if !self.is_active(start) {
            return out;
        }
        visited[start.index()] = true;
        queue.push_back(start);
        while let Some(p) = queue.pop_front() {
            out.push(p);
            for &n in self.neighbors(p) {
                if !visited[n.index()] && self.is_active(n) {
                    visited[n.index()] = true;
                    queue.push_back(n);
                }
            }
        }
        out
    }

    /// True if every active peer can reach every other active peer.
    pub fn is_connected(&self) -> bool {
        let active = self.active_count();
        if active <= 1 {
            return true;
        }
        let start = match self.active_peers().next() {
            Some(p) => p,
            None => return true,
        };
        self.reachable_from(start).len() == active
    }

    /// Peers within `ttl` overlay hops of `origin` (excluding `origin`).
    ///
    /// This is the maximum scope a TTL-bounded flood can reach; used by tests
    /// and by the ground-truth success-rate analysis.
    pub fn peers_within(&self, origin: PeerId, ttl: u32) -> Vec<PeerId> {
        let mut dist = vec![u32::MAX; self.len()];
        let mut queue = VecDeque::new();
        dist[origin.index()] = 0;
        queue.push_back(origin);
        let mut out = Vec::new();
        while let Some(p) = queue.pop_front() {
            if dist[p.index()] >= ttl {
                continue;
            }
            for &n in self.neighbors(p) {
                if self.is_active(n) && dist[n.index()] == u32::MAX {
                    dist[n.index()] = dist[p.index()] + 1;
                    out.push(n);
                    queue.push_back(n);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> OverlayGraph {
        let mut g = OverlayGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(PeerId(i as u32), PeerId(i as u32 + 1));
        }
        g
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = OverlayGraph::new(4);
        assert!(g.add_edge(PeerId(0), PeerId(1)));
        assert!(!g.add_edge(PeerId(0), PeerId(1)), "duplicate edges are ignored");
        assert!(!g.add_edge(PeerId(2), PeerId(2)), "self loops are ignored");
        assert!(g.are_neighbors(PeerId(0), PeerId(1)));
        assert!(g.are_neighbors(PeerId(1), PeerId(0)));
        assert_eq!(g.edge_count(), 1);
        assert!(g.remove_edge(PeerId(0), PeerId(1)));
        assert!(!g.remove_edge(PeerId(0), PeerId(1)));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn neighbor_lists_stay_sorted() {
        let mut g = OverlayGraph::new(5);
        g.add_edge(PeerId(2), PeerId(4));
        g.add_edge(PeerId(2), PeerId(0));
        g.add_edge(PeerId(2), PeerId(3));
        assert_eq!(g.neighbors(PeerId(2)), &[PeerId(0), PeerId(3), PeerId(4)]);
        assert_eq!(g.degree(PeerId(2)), 3);
    }

    /// The online bitset across word boundaries: counts, id-order iteration
    /// and `nth_active` agree, for sizes on and off a multiple of 64.
    #[test]
    fn online_peers_are_counted_and_selected_in_id_order() {
        for peers in [0, 1, 63, 64, 65, 130] {
            let mut g = OverlayGraph::new(peers);
            for p in (0..peers as u32).filter(|p| p % 3 == 0 || p % 64 == 63) {
                g.depart(PeerId(p));
            }
            let online: Vec<PeerId> = (0..peers as u32)
                .filter(|p| !(p % 3 == 0 || p % 64 == 63))
                .map(PeerId)
                .collect();
            assert_eq!(g.active_peers().collect::<Vec<_>>(), online, "{peers} peers");
            assert_eq!(g.active_count(), online.len());
            for (n, &p) in online.iter().enumerate() {
                assert_eq!(g.nth_active(n), Some(p));
                assert!(g.is_active(p));
            }
            assert_eq!(g.nth_active(online.len()), None);
            if let Some(&first) = online.first() {
                g.depart(first);
                g.rejoin(first);
                assert_eq!(g.active_peers().collect::<Vec<_>>(), online, "a rejoin restores the bit");
            }
        }
    }

    #[test]
    fn connectivity_detection() {
        let mut g = path_graph(5);
        assert!(g.is_connected());
        g.remove_edge(PeerId(2), PeerId(3));
        assert!(!g.is_connected());
    }

    #[test]
    fn reachability_and_ttl_scope() {
        let g = path_graph(10);
        assert_eq!(g.reachable_from(PeerId(0)).len(), 10);
        // From one end of a path, TTL 3 reaches exactly 3 peers.
        let within = g.peers_within(PeerId(0), 3);
        assert_eq!(within.len(), 3);
        assert!(within.contains(&PeerId(1)));
        assert!(within.contains(&PeerId(3)));
        assert!(!within.contains(&PeerId(4)));
        // TTL 0 reaches nobody.
        assert!(g.peers_within(PeerId(0), 0).is_empty());
    }

    #[test]
    fn departure_and_rejoin() {
        let mut g = path_graph(4);
        let old_neighbors = g.depart(PeerId(1));
        assert_eq!(old_neighbors, vec![PeerId(0), PeerId(2)]);
        assert!(!g.is_active(PeerId(1)));
        assert_eq!(g.active_count(), 3);
        assert_eq!(g.degree(PeerId(0)), 0);
        assert!(!g.is_connected(), "path breaks without the departed peer");

        g.rejoin(PeerId(1));
        g.add_edge(PeerId(1), PeerId(0));
        g.add_edge(PeerId(1), PeerId(2));
        assert!(g.is_connected());
    }

    #[test]
    fn average_degree_and_histogram() {
        let g = path_graph(4); // degrees 1,2,2,1
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
        let degrees: Vec<usize> = g.active_peers().map(|p| g.degree(p)).collect();
        assert_eq!(degrees, vec![1, 2, 2, 1]);
    }

    #[test]
    fn generated_graph_takes_later_mutations() {
        use crate::generator::GeneratorConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let cfg = GeneratorConfig {
            peers: 60,
            ..GeneratorConfig::default()
        };
        let mut g = cfg.generate(&mut StdRng::seed_from_u64(3));
        let edges = g.edge_count();
        assert_eq!(g.edges().count(), edges);
        // The first peer not yet wired to peer 0 gets an edge to it.
        let p = PeerId(0);
        let q = (1..60).map(PeerId).find(|&q| !g.are_neighbors(p, q)).unwrap();
        assert!(g.add_edge(p, q));
        assert!(!g.add_edge(q, p), "the reverse edge is the same edge");
        assert!(g.are_neighbors(q, p));
        assert_eq!(g.edge_count(), edges + 1);
        assert!(g.neighbors(p).windows(2).all(|w| w[0] < w[1]), "rows stay sorted");
        // Departure empties the row and removes the peer from its neighbours'.
        let before = g.neighbors(p).to_vec();
        assert_eq!(g.depart(p), before);
        assert_eq!(g.degree(p), 0);
        assert!(before.iter().all(|&n| !g.are_neighbors(n, p)));
        assert_eq!(g.edge_count(), edges + 1 - before.len());
        assert_eq!(g.edges().count(), g.edge_count());
    }

    #[test]
    fn empty_and_single_peer_graphs_are_connected() {
        assert!(OverlayGraph::new(0).is_connected());
        assert!(OverlayGraph::new(1).is_connected());
        let g = OverlayGraph::new(2);
        assert!(!g.is_connected(), "two isolated peers are not connected");
    }
}
