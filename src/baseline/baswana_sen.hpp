// Baswana–Sen (2k−1)-spanner [Random Struct. Alg. 2007], unweighted
// specialization — the classic recursive-clustering baseline the paper's
// Sampler is inspired by (Section 1.3) and contrasts against.
//
// Two forms:
//   * build_baswana_sen()            — centralized reference.
//   * run_distributed_baswana_sen()  — the standard distributed realization
//     in O(k) rounds where every node announces its cluster membership to
//     ALL neighbours each iteration. This is exactly the Ω(m)-message
//     behaviour the paper's message-reduction result eliminates; bench E7
//     plots it against the Sampler.
//
// Guarantees: stretch 2k−1 (deterministic for every handled edge),
// E[|S|] = O(k · n^{1+1/k}).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/metrics.hpp"

namespace fl::baseline {

struct BaswanaSenResult {
  std::vector<graph::EdgeId> edges;  ///< S, ascending edge ids
  unsigned k = 0;
  double stretch_bound() const { return 2.0 * k - 1.0; }
};

/// Centralized Baswana–Sen with parameter k >= 1 (k = 1 keeps all edges).
BaswanaSenResult build_baswana_sen(const graph::Graph& g, unsigned k,
                                   std::uint64_t seed);

struct DistributedBaswanaSenRun {
  BaswanaSenResult result;
  sim::RunStats stats;     ///< rounds and (Ω(m)) message count
  sim::Metrics metrics;
};

/// Distributed Baswana–Sen on the LOCAL simulator (KT1-style announcements
/// realized over unique edge IDs; cluster coins are keyed by center id so
/// members agree without extra rounds).
DistributedBaswanaSenRun run_distributed_baswana_sen(const graph::Graph& g,
                                                     unsigned k,
                                                     std::uint64_t seed);

}  // namespace fl::baseline
