// Tests for t-local broadcast (paper Section 6, Lemma 12).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/config.hpp"
#include "core/sampler.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "util/rng.hpp"

namespace fl {
namespace {

using graph::Graph;
using graph::NodeId;

/// Ground truth: sorted members of B_H(v, R) where H is the edge subset.
std::vector<NodeId> ball_members(const Graph& g,
                                 const std::vector<graph::EdgeId>& edges,
                                 NodeId v, unsigned radius) {
  const graph::SubgraphView h(g, edges);
  const auto dist = h.bfs_distances_bounded(v, radius);
  std::vector<NodeId> out;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    if (dist[u] != graph::kUnreachable) out.push_back(u);
  return out;
}

TEST(TLocalBroadcast, CollectsExactlyTheBall) {
  util::Xoshiro256 rng(3);
  const Graph g = graph::erdos_renyi_gnm(120, 500, rng);
  for (unsigned t : {0u, 1u, 2u, 3u}) {
    const auto run =
        localsim::run_tlocal_broadcast(g, localsim::all_edges(g), t, 7);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_EQ(run.reached[v], ball_members(g, localsim::all_edges(g), v, t))
          << "t=" << t << " v=" << v;
  }
}

TEST(TLocalBroadcast, CollectsBallOfSubgraph) {
  util::Xoshiro256 rng(5);
  const Graph g = graph::erdos_renyi_gnm(150, 900, rng);
  // Use a spanning forest as the subgraph: distances stretch, the flood
  // must follow only forest edges.
  const auto forest = graph::spanning_forest(g);
  for (unsigned t : {1u, 3u, 5u}) {
    const auto run = localsim::run_tlocal_broadcast(g, forest, t, 11);
    for (NodeId v = 0; v < g.num_nodes(); v += 13)
      EXPECT_EQ(run.reached[v], ball_members(g, forest, v, t));
  }
}

TEST(TLocalBroadcast, MessageCountBoundedByEdgesTimesRounds) {
  // Lemma 12's accounting: bundled flooding sends at most one message per
  // direction per subgraph edge per round. That is LOCAL accounting, so the
  // run pins LOCAL: under a binding CONGEST budget the re-forwards of
  // improved hop budgets legitimately exceed it.
  util::Xoshiro256 rng(7);
  const Graph g = graph::erdos_renyi_gnm(200, 1500, rng);
  const unsigned t = 4;
  const auto run = localsim::run_tlocal_broadcast(
      g, localsim::all_edges(g), t, 13, sim::CongestConfig{});
  EXPECT_LE(run.stats.messages, 2ull * g.num_edges() * t);
}

TEST(TLocalBroadcast, SpannerBroadcastCoversGBall) {
  // The Lemma 12 construction: flooding radius alpha*t over an
  // alpha-spanner must cover B_G(v, t).
  util::Xoshiro256 rng(11);
  const Graph g = graph::erdos_renyi_gnm(200, 1600, rng);
  const auto cfg = core::SamplerConfig::paper_faithful(1, 2, 17);
  const auto spanner = core::build_spanner(g, cfg);
  const unsigned t = 2;
  const auto radius = static_cast<unsigned>(cfg.stretch_bound()) * t;
  const auto run = localsim::run_tlocal_broadcast(g, spanner.edges, radius, 19);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto need = ball_members(g, localsim::all_edges(g), v, t);
    const auto& have = run.reached[v];
    EXPECT_TRUE(std::includes(have.begin(), have.end(), need.begin(),
                              need.end()))
        << "node " << v;
  }
}

TEST(TLocalBroadcast, SpannerBroadcastCheaperThanNativeOnDenseGraphs) {
  const Graph g = graph::complete(256);
  const auto cfg = core::SamplerConfig::bench_profile(2, 3, 23);
  const auto spanner = core::build_spanner(g, cfg);
  const unsigned t = 3;
  const auto native =
      localsim::run_tlocal_broadcast(g, localsim::all_edges(g), t, 29);
  const auto radius = static_cast<unsigned>(cfg.stretch_bound()) * t;
  const auto reduced =
      localsim::run_tlocal_broadcast(g, spanner.edges, radius, 29);
  EXPECT_LT(reduced.stats.messages, native.stats.messages);
}

TEST(TLocalBroadcast, ZeroRoundsReachesOnlySelf) {
  const Graph g = graph::ring(20);
  const auto run =
      localsim::run_tlocal_broadcast(g, localsim::all_edges(g), 0, 31);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(run.reached[v].size(), 1u);
    EXPECT_EQ(run.reached[v][0], v);
  }
}

TEST(TLocalBroadcast, RingDistancesExact) {
  const Graph g = graph::ring(30);
  const auto run =
      localsim::run_tlocal_broadcast(g, localsim::all_edges(g), 5, 37);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_EQ(run.reached[v].size(), 11u);  // 5 left + 5 right + self
}

}  // namespace
}  // namespace fl
