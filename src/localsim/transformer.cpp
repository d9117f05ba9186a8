#include "localsim/transformer.hpp"

#include <algorithm>
#include <cmath>

#include "core/distributed_sampler.hpp"
#include "graph/algorithms.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "util/assert.hpp"

namespace fl::localsim {

using graph::Graph;
using graph::kUnreachable;
using graph::NodeId;

namespace {

/// BFS from `center` bounded at `radius`, restricted to nodes whose mask
/// epoch matches — i.e. the subgraph induced by the collected origin set.
/// When the collected set covers B_G(center, radius) this equals the true
/// ball (shortest paths of length <= radius stay inside the ball); when
/// coverage is violated the computed outputs may differ from the reference,
/// which is exactly how a broken spanner manifests and what tests detect.
/// The search stops as soon as all `members` collected origins are settled.
/// It writes into `dist` (kUnreachable everywhere on entry) and leaves in
/// `order` every node it set, so the caller resets exactly those entries.
void restricted_bfs(const Graph& g, NodeId center, unsigned radius,
                    const std::vector<unsigned>& mask, unsigned epoch,
                    std::size_t members, std::vector<std::uint32_t>& dist,
                    std::vector<NodeId>& order) {
  order.clear();
  if (mask[center] != epoch) return;
  dist[center] = 0;
  order.push_back(center);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    if (order.size() == members || dist[v] == radius) return;
    for (const auto& inc : g.incident(v)) {
      if (mask[inc.to] != epoch || dist[inc.to] != kUnreachable) continue;
      dist[inc.to] = dist[v] + 1;
      order.push_back(inc.to);
    }
  }
}

/// Evaluate the algorithm at every node from its collected origin set. One
/// distance buffer serves every centre.
std::vector<std::uint64_t> evaluate_from_collections(
    const Graph& g, const LocalAlgorithm& alg, unsigned t,
    const std::vector<std::vector<NodeId>>& reached) {
  std::vector<std::uint64_t> out(g.num_nodes());
  std::vector<unsigned> mask(g.num_nodes(), 0);
  std::vector<NodeId> order;
  BallView ball;
  ball.g = &g;
  ball.radius = t;
  ball.dist.assign(g.num_nodes(), kUnreachable);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const unsigned epoch = v + 1;
    for (const NodeId u : reached[v]) mask[u] = epoch;
    ball.center = v;
    restricted_bfs(g, v, t, mask, epoch, reached[v].size(), ball.dist, order);
    out[v] = alg.compute(ball);
    for (const NodeId u : order) ball.dist[u] = kUnreachable;
  }
  return out;
}

}  // namespace

ExecutionReport run_native(const Graph& g, const LocalAlgorithm& alg,
                           std::uint64_t seed,
                           std::optional<sim::CongestConfig> congest) {
  const unsigned t = alg.radius(g);
  const auto broadcast = run_tlocal_broadcast(g, all_edges(g), t, seed, congest);
  ExecutionReport rep;
  rep.outputs = evaluate_from_collections(g, alg, t, broadcast.reached);
  rep.rounds = broadcast.stats.rounds;
  rep.messages = broadcast.stats.messages;
  rep.deferrals = broadcast.metrics.deferrals_total;
  rep.broadcast_messages = broadcast.stats.messages;
  rep.broadcast_rounds = broadcast.stats.rounds;
  rep.spanner_edges = g.num_edges();
  return rep;
}

ExecutionReport run_over_spanner(const Graph& g, const LocalAlgorithm& alg,
                                 const std::vector<graph::EdgeId>& spanner,
                                 double alpha, std::uint64_t seed,
                                 std::optional<sim::CongestConfig> congest) {
  FL_REQUIRE(alpha >= 1.0, "stretch must be >= 1");
  const unsigned t = alg.radius(g);
  const auto radius = static_cast<unsigned>(
      std::ceil(alpha * static_cast<double>(t)));
  const auto broadcast = run_tlocal_broadcast(g, spanner, radius, seed, congest);
  ExecutionReport rep;
  rep.outputs = evaluate_from_collections(g, alg, t, broadcast.reached);
  rep.rounds = broadcast.stats.rounds;
  rep.messages = broadcast.stats.messages;
  rep.deferrals = broadcast.metrics.deferrals_total;
  rep.broadcast_messages = broadcast.stats.messages;
  rep.broadcast_rounds = broadcast.stats.rounds;
  rep.spanner_edges = spanner.size();
  rep.alpha = alpha;
  return rep;
}

ExecutionReport run_simulated(const Graph& g, const LocalAlgorithm& alg,
                              const core::SamplerConfig& sampler,
                              std::optional<sim::CongestConfig> congest) {
  const auto spanner_run = core::run_distributed_sampler(g, sampler);
  ExecutionReport rep = run_over_spanner(
      g, alg, spanner_run.edges, spanner_run.stretch_bound, sampler.seed,
      congest);
  rep.spanner_messages = spanner_run.stats.messages;
  rep.spanner_rounds = spanner_run.stats.rounds;
  rep.rounds += spanner_run.stats.rounds;
  rep.messages += spanner_run.stats.messages;
  return rep;
}

}  // namespace fl::localsim
