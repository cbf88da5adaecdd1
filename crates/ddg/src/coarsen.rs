//! Multilevel graph coarsening — the substrate of the RHOP baseline.
//!
//! RHOP [Chu, Fan, Mahlke, PLDI'03] applies a multilevel graph-partitioning
//! scheme [Karypis & Kumar] to cluster assignment: a **coarsening** phase
//! repeatedly merges strongly-related node pairs (heavy-edge matching over
//! slack-derived weights) until roughly one coarse node per cluster remains,
//! and a **refinement** phase walks back down the hierarchy improving the
//! partition with boundary moves. This module provides the weighted graph,
//! the matching-based coarsener and the partition projection; the RHOP pass
//! in `virtclust-compiler` adds the weights and the refinement heuristic.

use crate::graph::{Ddg, DdgEdge};

/// An undirected weighted graph with node weights; parallel edges are merged
/// by summing their weights.
#[derive(Debug, Clone, PartialEq)]
pub struct WGraph {
    node_w: Vec<f64>,
    adj: Vec<Vec<(u32, f64)>>,
}

impl WGraph {
    /// Create a graph with the given node weights and no edges.
    pub fn new(node_w: Vec<f64>) -> Self {
        let n = node_w.len();
        WGraph {
            node_w,
            adj: vec![Vec::new(); n],
        }
    }

    /// Build the undirected weighted view of a DDG. `edge_w` maps each DDG
    /// edge to a weight; weights of parallel/opposite edges accumulate.
    pub fn from_ddg(ddg: &Ddg, node_w: Vec<f64>, mut edge_w: impl FnMut(&DdgEdge) -> f64) -> Self {
        assert_eq!(node_w.len(), ddg.n());
        let mut g = WGraph::new(node_w);
        for e in ddg.edges() {
            g.add_edge(e.from, e.to, edge_w(e));
        }
        g
    }

    /// Add (or accumulate onto) the undirected edge `a — b`.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, a: u32, b: u32, w: f64) {
        assert_ne!(a, b, "self-loops are not allowed");
        assert!((a as usize) < self.n() && (b as usize) < self.n());
        for &mut (ref t, ref mut ew) in &mut self.adj[a as usize] {
            if *t == b {
                *ew += w;
                for &mut (t2, ref mut ew2) in &mut self.adj[b as usize] {
                    if t2 == a {
                        *ew2 += w;
                        return;
                    }
                }
                unreachable!("asymmetric adjacency");
            }
        }
        self.adj[a as usize].push((b, w));
        self.adj[b as usize].push((a, w));
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.node_w.len()
    }

    /// Weight of node `i`.
    #[inline]
    pub fn node_weight(&self, i: u32) -> f64 {
        self.node_w[i as usize]
    }

    /// Neighbours of `i` with edge weights.
    #[inline]
    pub fn neighbors(&self, i: u32) -> &[(u32, f64)] {
        &self.adj[i as usize]
    }

    /// Sum of all node weights.
    pub fn total_node_weight(&self) -> f64 {
        self.node_w.iter().sum()
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> f64 {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(i, ns)| ns.iter().filter(move |(t, _)| (*t as usize) > i))
            .map(|&(_, w)| w)
            .sum()
    }

    /// Weight of the edge `a — b`, or 0.0 if absent.
    pub fn edge_weight(&self, a: u32, b: u32) -> f64 {
        self.adj[a as usize]
            .iter()
            .find(|&&(t, _)| t == b)
            .map_or(0.0, |&(_, w)| w)
    }

    /// Weighted edge cut of an assignment `parts` (cross-part undirected
    /// edges, each counted once).
    pub fn cut(&self, parts: &[u32]) -> f64 {
        assert_eq!(parts.len(), self.n());
        let mut cut = 0.0;
        for (i, ns) in self.adj.iter().enumerate() {
            for &(t, w) in ns {
                if (t as usize) > i && parts[i] != parts[t as usize] {
                    cut += w;
                }
            }
        }
        cut
    }
}

/// One coarsening step: the coarse graph plus the fine→coarse node map.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarser graph.
    pub graph: WGraph,
    /// `map[fine] = coarse` node index.
    pub map: Vec<u32>,
}

/// Coarsen `g` once by heavy-edge matching.
///
/// Nodes are visited in ascending index order (deterministic); each
/// unmatched node is merged with its unmatched neighbour of maximum edge
/// weight (ties broken towards the smaller index). Returns `None` when no
/// pair could be matched (the graph cannot shrink further).
pub fn coarsen_once(g: &WGraph) -> Option<CoarseLevel> {
    let n = g.n();
    let mut mate: Vec<Option<u32>> = vec![None; n];
    let mut matched_any = false;

    for i in 0..n as u32 {
        if mate[i as usize].is_some() {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for &(t, w) in g.neighbors(i) {
            if mate[t as usize].is_some() || t == i {
                continue;
            }
            let better = match best {
                None => true,
                Some((bt, bw)) => w > bw || (w == bw && t < bt),
            };
            if better {
                best = Some((t, w));
            }
        }
        if let Some((t, _)) = best {
            mate[i as usize] = Some(t);
            mate[t as usize] = Some(i);
            matched_any = true;
        }
    }

    if !matched_any {
        return None;
    }

    // Assign coarse ids: pairs get one id (at the smaller endpoint's visit),
    // singletons keep their own.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for i in 0..n as u32 {
        if map[i as usize] != u32::MAX {
            continue;
        }
        map[i as usize] = next;
        if let Some(m) = mate[i as usize] {
            map[m as usize] = next;
        }
        next += 1;
    }

    // Build the coarse graph.
    let coarse_n = next as usize;
    let mut node_w = vec![0.0; coarse_n];
    for i in 0..n {
        node_w[map[i] as usize] += g.node_weight(i as u32);
    }
    let mut coarse = WGraph::new(node_w);
    for i in 0..n as u32 {
        for &(t, w) in g.neighbors(i) {
            if t <= i {
                continue; // visit each undirected edge once
            }
            let (ci, ct) = (map[i as usize], map[t as usize]);
            if ci != ct {
                coarse.add_edge(ci, ct, w);
            }
        }
    }

    Some(CoarseLevel { graph: coarse, map })
}

/// A full coarsening hierarchy. `graphs[0]` is the original graph;
/// `maps[l]` maps nodes of `graphs[l]` to nodes of `graphs[l + 1]`.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    graphs: Vec<WGraph>,
    maps: Vec<Vec<u32>>,
}

impl Hierarchy {
    /// Number of levels (≥ 1; level 0 is the original graph).
    pub fn num_levels(&self) -> usize {
        self.graphs.len()
    }

    /// Graph at `level`.
    pub fn graph(&self, level: usize) -> &WGraph {
        &self.graphs[level]
    }

    /// The coarsest graph.
    pub fn coarsest(&self) -> &WGraph {
        self.graphs
            .last()
            .expect("hierarchy has at least one level")
    }

    /// The fine→coarse map from `level` to `level + 1`.
    pub fn map(&self, level: usize) -> &[u32] {
        &self.maps[level]
    }

    /// Project a partition of `graphs[level + 1]` down to `graphs[level]`.
    pub fn project(&self, level: usize, coarse_parts: &[u32]) -> Vec<u32> {
        assert_eq!(coarse_parts.len(), self.graphs[level + 1].n());
        self.maps[level]
            .iter()
            .map(|&c| coarse_parts[c as usize])
            .collect()
    }

    /// Project a partition of the coarsest graph all the way to level 0.
    pub fn project_to_finest(&self, mut parts: Vec<u32>) -> Vec<u32> {
        assert_eq!(parts.len(), self.coarsest().n());
        for level in (0..self.maps.len()).rev() {
            parts = self.project(level, &parts);
        }
        parts
    }
}

/// Coarsen `g` until at most `target_nodes` remain (or no further matching
/// is possible). The paper: "the coarsening stage … stops coarsening
/// instructions when the number of coarse nodes equals the number of
/// clusters in the machine."
pub fn coarsen_until(g: WGraph, target_nodes: usize) -> Hierarchy {
    let target = target_nodes.max(1);
    let mut graphs = vec![g];
    let mut maps = Vec::new();
    while graphs.last().expect("non-empty").n() > target {
        match coarsen_once(graphs.last().expect("non-empty")) {
            Some(CoarseLevel { graph, map }) => {
                maps.push(map);
                graphs.push(graph);
            }
            None => break,
        }
    }
    Hierarchy { graphs, maps }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path graph 0—1—2—3 with heavier middle edge.
    fn path4() -> WGraph {
        let mut g = WGraph::new(vec![1.0; 4]);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 5.0);
        g.add_edge(2, 3, 1.0);
        g
    }

    #[test]
    fn add_edge_merges_parallel() {
        let mut g = WGraph::new(vec![1.0; 2]);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 0, 2.5);
        assert_eq!(g.edge_weight(0, 1), 3.5);
        assert_eq!(g.neighbors(0).len(), 1);
        assert_eq!(g.total_edge_weight(), 3.5);
    }

    #[test]
    fn heavy_edge_matching_prefers_heavy_pair() {
        let g = path4();
        let level = coarsen_once(&g).expect("must match");
        // node 0 is visited first; its only unmatched neighbor is 1 -> (0,1)
        // matched; then 2 matches 3.
        assert_eq!(level.map, vec![0, 0, 1, 1]);
        assert_eq!(level.graph.n(), 2);
        assert_eq!(level.graph.node_weight(0), 2.0);
        // the surviving coarse edge carries the 1-2 weight
        assert_eq!(level.graph.edge_weight(0, 1), 5.0);
    }

    #[test]
    fn coarsen_preserves_total_node_weight() {
        let g = path4();
        let total = g.total_node_weight();
        let h = coarsen_until(g, 1);
        for l in 0..h.num_levels() {
            assert!((h.graph(l).total_node_weight() - total).abs() < 1e-9);
        }
        assert!(h.coarsest().n() <= 2);
    }

    #[test]
    fn isolated_nodes_stop_coarsening() {
        let g = WGraph::new(vec![1.0; 3]); // no edges at all
        assert!(coarsen_once(&g).is_none());
        let h = coarsen_until(g, 1);
        assert_eq!(h.num_levels(), 1);
        assert_eq!(h.coarsest().n(), 3);
    }

    #[test]
    fn projection_roundtrip() {
        let g = path4();
        let h = coarsen_until(g, 2);
        let coarse_parts: Vec<u32> = (0..h.coarsest().n() as u32).collect();
        let fine = h.project_to_finest(coarse_parts);
        assert_eq!(fine.len(), 4);
        // Nodes merged together must share a part.
        let mut level0_map = [0u32; 4];
        let mut cur: Vec<u32> = (0..4).collect();
        for l in 0..h.num_levels() - 1 {
            for v in cur.iter_mut() {
                *v = h.map(l)[*v as usize];
            }
            if l == h.num_levels() - 2 {
                level0_map.copy_from_slice(&cur);
            }
        }
        for i in 0..4 {
            for j in 0..4 {
                if level0_map[i] == level0_map[j] {
                    assert_eq!(fine[i], fine[j]);
                }
            }
        }
    }

    #[test]
    fn cut_counts_cross_part_weight_once() {
        let g = path4();
        assert_eq!(g.cut(&[0, 0, 1, 1]), 5.0);
        assert_eq!(g.cut(&[0, 0, 0, 0]), 0.0);
        assert_eq!(g.cut(&[0, 1, 0, 1]), 7.0);
    }

    #[test]
    fn coarsen_until_respects_target() {
        let mut g = WGraph::new(vec![1.0; 8]);
        for i in 0..7u32 {
            g.add_edge(i, i + 1, 1.0);
        }
        let h = coarsen_until(g, 2);
        assert!(h.coarsest().n() <= 4, "halving each level: 8 -> 4 -> 2");
        assert!(h.coarsest().n() >= 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = WGraph::new(vec![1.0; 2]);
        g.add_edge(1, 1, 1.0);
    }
}
