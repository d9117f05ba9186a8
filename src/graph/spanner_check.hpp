// Spanner verification — the oracle that tests and benches use to certify
// the paper's Theorem 9 (stretch) and Lemma 10 (size).
//
// A subgraph H = (V, S) of connected G is an α-spanner iff for every edge
// (u, v) of G, dist_H(u, v) <= α (the footnote-1 equivalent definition);
// exact verification therefore needs dist_H for every G-edge. We provide an
// exact checker for test-sized graphs and a sampled checker for bench-sized
// ones. Both run one BFS on H per source that stops once its targets are
// settled, on buffers allocated once per check. The exact checker's BFS from
// u ends when u's higher-id G-neighbours are settled — a radius-<=α ball when
// H is an α-spanner; only an unreachable neighbour costs the whole component
// (O(n + |S|) per source in the worst case). The sampled checker's BFS also
// stops at its depth cap. Both modes verify connectivity in O(n + m).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace fl::graph {

struct StretchReport {
  bool connected = false;         ///< H preserves G's connectivity (both modes)
  double max_edge_stretch = 0.0;  ///< max over checked G-edges of dist_H(u,v)
  double mean_edge_stretch = 0.0;
  std::size_t edges_checked = 0;
  std::size_t violations = 0;     ///< edges with dist_H > alpha (when given)
};

/// Exact stretch over *all* edges of G. If `alpha` > 0, also counts
/// violations of dist_H(u,v) <= alpha.
StretchReport check_spanner_exact(const Graph& g,
                                  std::span<const EdgeId> spanner,
                                  double alpha = 0.0);

/// Stretch over a uniform sample of G's edges (BFS on H bounded at
/// `depth_cap`, treating deeper as stretch = depth_cap + 1).
StretchReport check_spanner_sampled(const Graph& g,
                                    std::span<const EdgeId> spanner,
                                    std::size_t sample_edges,
                                    std::uint32_t depth_cap,
                                    util::Xoshiro256& rng,
                                    double alpha = 0.0);

/// Max over sampled node pairs of dist_H(u,v)/dist_G(u,v) — the direct
/// (pairwise) stretch definition; used by bench E4 for reporting.
double sampled_pairwise_stretch(const Graph& g, std::span<const EdgeId> spanner,
                                std::size_t sample_sources,
                                util::Xoshiro256& rng);

/// True iff `spanner` contains no duplicate edge ids and every id is valid.
bool is_valid_edge_subset(const Graph& g, std::span<const EdgeId> spanner);

}  // namespace fl::graph
