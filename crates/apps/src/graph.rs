//! The SSCA2 substrate: R-MAT small-world graph generation and Brandes
//! betweenness centrality (BC).
//!
//! SSCA2's kernel 4 computes betweenness centrality on an R-MAT graph; the
//! paper modifies it "to evaluate betweenness centrality (BC) in real-world
//! graphs" and approximates "the floating-point pair-wise dependencies that
//! is used for centrality calculation" (§5.1). The approximate run therefore
//! passes each source's dependency vector through the transport before
//! accumulation, and the error metric is the pair-wise BC difference (§5.4).

use anoc_core::rng::{Pcg32, Stream};

use crate::transport::BlockTransport;

/// An undirected graph in adjacency-list form.
#[derive(Debug, Clone)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
}

impl Graph {
    /// Builds a graph with `nodes` vertices and no edges.
    pub fn new(nodes: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); nodes],
        }
    }

    /// Generates an R-MAT graph (the SSCA2 generator): `nodes` must be a
    /// power of two; `edges` undirected edges are inserted with the classic
    /// skewed quadrant probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05),
    /// producing a scale-free, small-world structure.
    pub fn rmat(nodes: usize, edges: usize, seed: u64) -> Self {
        assert!(nodes.is_power_of_two(), "R-MAT needs a power-of-two size");
        let mut g = Graph::new(nodes);
        let mut rng = Pcg32::on(seed, Stream::RMAT);
        let bits = nodes.trailing_zeros();
        let mut inserted = 0usize;
        while inserted < edges {
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..bits {
                let r = rng.f64();
                let (du, dv) = if r < 0.57 {
                    (0, 0)
                } else if r < 0.76 {
                    (0, 1)
                } else if r < 0.95 {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            if u == v {
                continue;
            }
            if g.adj[u].contains(&(v as u32)) {
                continue;
            }
            g.adj[u].push(v as u32);
            g.adj[v].push(u as u32);
            inserted += 1;
        }
        g
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Neighbours of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }
}

/// Betweenness centrality via Brandes' algorithm, with the per-source
/// pair-wise dependency vectors optionally routed through an approximate
/// transport (`None` = exact accumulation).
///
/// `sources` bounds the number of BFS sources (SSCA2 samples sources on
/// large graphs); pass `usize::MAX` for the exact full computation.
pub fn betweenness_centrality(
    graph: &Graph,
    sources: usize,
    transport: Option<&mut dyn BlockTransport>,
) -> Vec<f64> {
    let n = graph.len();
    let mut bc = vec![0f64; n];
    let mut transport = transport;
    let source_count = sources.min(n);
    for s in 0..source_count {
        // Brandes forward phase: BFS computing sigma (path counts) and the
        // predecessor DAG.
        let mut sigma = vec![0f64; n];
        let mut dist = vec![i64::MAX; n];
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut order = Vec::with_capacity(n);
        sigma[s] = 1.0;
        dist[s] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in graph.neighbors(v) {
                let w = w as usize;
                if dist[w] == i64::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                    preds[w].push(v as u32);
                }
            }
        }
        // Backward phase: accumulate pair-wise dependencies.
        let mut delta = vec![0f64; n];
        for &v in order.iter().rev() {
            for &p in &preds[v] {
                let p = p as usize;
                delta[p] += sigma[p] / sigma[v] * (1.0 + delta[v]);
            }
        }
        // The dependency vector is what SSCA2 communicates between the
        // BFS workers and the accumulation step; approximate it in flight.
        if let Some(t) = transport.as_deref_mut() {
            let as_f32: Vec<f32> = delta.iter().map(|d| *d as f32).collect();
            let rx = t.transmit_f32(&as_f32);
            for (d, r) in delta.iter_mut().zip(rx) {
                *d = r as f64;
            }
        }
        for v in 0..n {
            if v != s {
                bc[v] += delta[v];
            }
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ApproxTransport;
    use anoc_core::threshold::ErrorThreshold;

    /// A path graph 0-1-2-3-4: interior nodes have known BC.
    fn path_graph() -> Graph {
        let mut g = Graph::new(5);
        for i in 0..4u32 {
            g.adj[i as usize].push(i + 1);
            g.adj[(i + 1) as usize].push(i);
        }
        g
    }

    #[test]
    fn path_graph_centrality_is_exact() {
        let g = path_graph();
        let bc = betweenness_centrality(&g, usize::MAX, None);
        // For a path of 5 nodes (directed-pairs convention of Brandes with
        // all sources): node 2 lies on 0-3,0-4,1-3,1-4,3-0... => BC counts
        // each ordered pair, so node 2 has 4*2 = 8... compute: pairs through
        // node 2: (0,3),(0,4),(1,3),(1,4) and reverses = 8.
        assert_eq!(bc[2], 8.0);
        assert_eq!(bc[1], 6.0); // (0,2),(0,3),(0,4) and reverses
        assert_eq!(bc[0], 0.0);
        assert_eq!(bc[4], 0.0);
    }

    #[test]
    fn star_graph_centrality() {
        // Star: node 0 is the hub of 4 leaves; all leaf pairs pass via hub.
        let mut g = Graph::new(5);
        for leaf in 1..5u32 {
            g.adj[0].push(leaf);
            g.adj[leaf as usize].push(0);
        }
        let bc = betweenness_centrality(&g, usize::MAX, None);
        assert_eq!(bc[0], 12.0); // 4*3 ordered leaf pairs
        for score in bc.iter().skip(1) {
            assert_eq!(*score, 0.0);
        }
    }

    #[test]
    fn rmat_generates_requested_size() {
        let g = Graph::rmat(64, 192, 5);
        assert_eq!(g.len(), 64);
        assert_eq!(g.num_edges(), 192);
        assert!(!g.is_empty());
        // Scale-free tendency: max degree well above mean degree.
        let max_deg = (0..64).map(|v| g.degree(v)).max().unwrap();
        let mean_deg = 2.0 * 192.0 / 64.0;
        assert!(max_deg as f64 > mean_deg * 1.5, "max {max_deg}");
    }

    #[test]
    fn rmat_is_deterministic() {
        let a = Graph::rmat(32, 64, 9);
        let b = Graph::rmat(32, 64, 9);
        for v in 0..32 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rmat_rejects_non_power_of_two() {
        let _ = Graph::rmat(20, 40, 1);
    }

    #[test]
    fn approximate_bc_stays_close() {
        let g = Graph::rmat(64, 256, 11);
        let exact = betweenness_centrality(&g, usize::MAX, None);
        let mut t = ApproxTransport::fp_vaxx(ErrorThreshold::from_percent(10).unwrap());
        let approx = betweenness_centrality(&g, usize::MAX, Some(&mut t));
        let err = anoc_core::metrics::mean_relative_error(&exact, &approx, 1.0);
        assert!(err < 0.10, "pair-wise BC error {err}");
        // And it isn't trivially identical everywhere (approximation happened)
        // unless every dependency was exactly representable.
        assert_eq!(exact.len(), approx.len());
    }

    #[test]
    fn sampled_sources_bound_work() {
        let g = Graph::rmat(64, 256, 13);
        let full = betweenness_centrality(&g, usize::MAX, None);
        let sampled = betweenness_centrality(&g, 16, None);
        // Sampled BC is a partial sum, never exceeding the full score.
        for (s, f) in sampled.iter().zip(&full) {
            assert!(s <= f || (f - s).abs() < 1e-9);
        }
    }
}
