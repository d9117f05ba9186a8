// Full-topology-collection baseline: the "collect everything at a leader"
// strategy that the LOCAL model makes possible (unbounded messages) and
// that papers like [9, 12] refine. A BFS wave builds a tree from node 0,
// incidence lists are convergecast to the root, the root computes a spanner
// centrally (we use Baswana–Sen), and membership is broadcast back.
//
// Costs: Θ(m) messages for the wave + child/decline handshake and O(n) for
// the cast sessions — the Ω(m) term the paper eliminates — and Θ(D) rounds,
// which destroys round-preservation on high-diameter graphs. Bench E7 uses
// it as the second Ω(m) baseline next to distributed Baswana–Sen.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/metrics.hpp"

namespace fl::baseline {

struct TopologyCollectRun {
  std::vector<graph::EdgeId> edges;  ///< the spanner chosen by the leader
  unsigned k = 0;                    ///< Baswana–Sen parameter used centrally
  sim::RunStats stats;
  sim::Metrics metrics;
  double stretch_bound() const { return 2.0 * k - 1.0; }
};

/// Run the collect-at-leader pipeline on the LOCAL simulator. `k` is the
/// parameter of the centrally computed Baswana–Sen spanner.
TopologyCollectRun run_topology_collect(const graph::Graph& g, unsigned k,
                                        std::uint64_t seed);

}  // namespace fl::baseline
