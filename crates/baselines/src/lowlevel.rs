//! Low-level graph-engine baselines: hand-coded kernels over CSR, the way
//! Galois / PowerGraph / Snap-R implement them (paper §5.1.2, App. C.1).

use eh_graph::{Csr, Graph};
use std::collections::HashSet;

/// Triangle counting with scalar sorted-merge intersections — Snap-R's
/// approach (App. C.1: "a custom scalar intersection over the sets").
/// Expects a pruned (src > dst) graph so each triangle counts once.
pub fn triangle_count_merge(csr: &Csr) -> u64 {
    let mut count = 0u64;
    for v in 0..csr.num_nodes() as u32 {
        let nv = csr.neighbors(v);
        for &w in nv {
            let nw = csr.neighbors(w);
            count += merge_count(nv, nw);
        }
    }
    count
}

fn merge_count(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            n += 1;
            i += 1;
            j += 1;
        } else if x < y {
            i += 1;
        } else {
            j += 1;
        }
    }
    n
}

/// Triangle counting with per-node hash sets for high-degree nodes —
/// PowerGraph's layout (App. C.1: "a hash set (with a cuckoo hash) if the
/// degree is larger than 64 and otherwise a vector of sorted node IDs").
pub fn triangle_count_hash(csr: &Csr) -> u64 {
    const HASH_THRESHOLD: usize = 64;
    let n = csr.num_nodes();
    let hashes: Vec<Option<HashSet<u32>>> = (0..n)
        .map(|v| {
            let nb = csr.neighbors(v as u32);
            (nb.len() > HASH_THRESHOLD).then(|| nb.iter().copied().collect())
        })
        .collect();
    let mut count = 0u64;
    for v in 0..n as u32 {
        let nv = csr.neighbors(v);
        for &w in nv {
            let nw = csr.neighbors(w);
            // Probe the smaller side into the larger side's hash if any.
            count += match (&hashes[v as usize], &hashes[w as usize]) {
                (Some(hv), _) if nw.len() <= nv.len() => {
                    nw.iter().filter(|x| hv.contains(x)).count() as u64
                }
                (_, Some(hw)) => nv.iter().filter(|x| hw.contains(x)).count() as u64,
                (Some(hv), None) => nw.iter().filter(|x| hv.contains(x)).count() as u64,
                (None, None) => merge_count(nv, nw),
            };
        }
    }
    count
}

/// PageRank, pull-based with damping 0.85 — the Galois-style baseline
/// (paper Table 6 runs 5 iterations on the undirected graph).
pub fn pagerank(g: &Graph, iterations: usize) -> Vec<f64> {
    let n = g.num_nodes as usize;
    if n == 0 {
        return Vec::new();
    }
    // In-neighbour view = out-neighbours of the transpose; for an
    // undirected (symmetrized) graph they coincide.
    let csr = g.to_csr();
    let deg = g.degrees();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        for v in 0..n {
            let mut sum = 0.0;
            for &u in csr.neighbors(v as u32) {
                let d = deg[u as usize].max(1) as f64;
                sum += rank[u as usize] / d;
            }
            next[v] = 0.15 + 0.85 * sum;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Unweighted SSSP via frontier BFS — distances in hops from `src`
/// (`u32::MAX` = unreachable). This is the tuned low-level strategy for
/// unit weights (Galois-class).
pub fn sssp_bfs(g: &Graph, src: u32) -> Vec<u32> {
    let n = g.num_nodes as usize;
    let csr = g.to_csr();
    let mut dist = vec![u32::MAX; n];
    if n == 0 {
        return dist;
    }
    dist[src as usize] = 0;
    let mut frontier = vec![src];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in csr.neighbors(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = depth;
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// SSSP via Bellman-Ford-style full relaxations — the unoptimized strategy
/// a vertex-program engine (PowerGraph-class) effectively executes; same
/// answers as [`sssp_bfs`], more work per round.
pub fn sssp_bellman_ford(g: &Graph, src: u32) -> Vec<u32> {
    let n = g.num_nodes as usize;
    let mut dist = vec![u32::MAX; n];
    if n == 0 {
        return dist;
    }
    dist[src as usize] = 0;
    loop {
        let mut changed = false;
        for &(u, v) in &g.edges {
            let du = dist[u as usize];
            if du != u32::MAX && du + 1 < dist[v as usize] {
                dist[v as usize] = du + 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_graph::gen;

    #[test]
    fn k5_triangles() {
        // K5 pruned: C(5,3) = 10 triangles.
        let g = gen::complete(5).prune_by_degree();
        let csr = g.to_csr();
        assert_eq!(triangle_count_merge(&csr), 10);
        assert_eq!(triangle_count_hash(&csr), 10);
    }

    #[test]
    fn hash_path_engages_on_hubs() {
        // Star + clique forces degree > 64 on the hub.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for i in 1..100u32 {
            edges.push((0, i));
            edges.push((i, 0));
        }
        for a in 1..20u32 {
            for b in 1..20u32 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let g = eh_graph::Graph::from_dense(100, edges).prune_by_degree();
        let csr = g.to_csr();
        assert_eq!(triangle_count_hash(&csr), triangle_count_merge(&csr));
    }

    #[test]
    fn pagerank_sums_to_n_scaled() {
        let g = gen::erdos_renyi(100, 600, 4).symmetrize();
        let pr = pagerank(&g, 5);
        assert_eq!(pr.len(), 100);
        assert!(pr.iter().all(|&v| v > 0.0));
        // Starting from 1/N (the paper's base rule), mass grows toward n
        // under the 0.15 + 0.85·SUM update; after 5 iterations it is well
        // on its way but not yet at its fixed point.
        let total: f64 = pr.iter().sum();
        assert!(total > 20.0 && total < 110.0, "total {total}");
        let pr10 = pagerank(&g, 50);
        let total10: f64 = pr10.iter().sum();
        assert!(total10 > total, "mass grows with iterations");
    }

    #[test]
    fn pagerank_hub_ranks_higher() {
        // Star: hub collects mass from all leaves.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for i in 1..20u32 {
            edges.push((0, i));
            edges.push((i, 0));
        }
        let g = eh_graph::Graph::from_dense(20, edges);
        let pr = pagerank(&g, 5);
        assert!(pr[0] > pr[1] * 2.0);
    }

    #[test]
    fn sssp_variants_agree() {
        let g = gen::power_law(300, 1500, 2.3, 6);
        let src = g.max_degree_node();
        let a = sssp_bfs(&g, src);
        let b = sssp_bellman_ford(&g, src);
        assert_eq!(a, b);
        assert_eq!(a[src as usize], 0);
    }

    #[test]
    fn sssp_unreachable_stays_max() {
        // Two disconnected edges.
        let g = eh_graph::Graph::from_dense(4, vec![(0, 1), (1, 0), (2, 3), (3, 2)]);
        let d = sssp_bfs(&g, 0);
        assert_eq!(d, vec![0, 1, u32::MAX, u32::MAX]);
    }
}
