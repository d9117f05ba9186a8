// Tests for t-local broadcast (paper Section 6, Lemma 12).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/config.hpp"
#include "core/sampler.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "sim/congest.hpp"
#include "trace_hash.hpp"
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

TEST(TLocalBroadcast, AccountingPinned) {
  // Every count the flood reports, pinned before any change to how a
  // bundle's origins are stored or merged: messages, words, rounds,
  // deferrals and a hash of every reached set. Each budget is passed
  // explicitly, so an FL_SIM_CONGEST environment cannot move the values.
  // ring(130) has n not a multiple of 64; the ER graph at t=3 carries
  // bundles large and small, and the Defer budgets take the hop-budget
  // improvement path with and without the re-forward dedup.
  struct Budget {
    sim::CongestConfig congest;
    bool dedup;
  };
  const Budget budgets[] = {
      {sim::CongestConfig{}, true},
      {sim::CongestConfig{1, sim::CongestPolicy::Defer}, true},
      {sim::CongestConfig{1, sim::CongestPolicy::Defer}, false},
      {sim::CongestConfig{4, sim::CongestPolicy::Defer}, true},
      {sim::CongestConfig{4, sim::CongestPolicy::Defer}, false},
  };
  struct Pinned {
    std::uint64_t messages, words, rounds, deferrals, reached_hash;
  };
  const Pinned pinned[] = {
      // erdos_renyi_gnm(120, 500), t = 3
      {3000, 62325, 4, 0, 0x38e4541caee4b0e6ull},
      {8584, 62226, 94, 211767, 0x38e4541caee4b0e6ull},
      {7995, 62325, 94, 186375, 0x38e4541caee4b0e6ull},
      {5122, 62308, 25, 27050, 0x38e4541caee4b0e6ull},
      {4975, 62325, 25, 25673, 0x38e4541caee4b0e6ull},
      // ring(130), t = 6
      {1560, 2860, 7, 0, 0xbdcda17716eeee44ull},
      {1560, 2860, 12, 1300, 0xbdcda17716eeee44ull},
      {1560, 2860, 12, 1300, 0xbdcda17716eeee44ull},
      {1560, 2860, 7, 0, 0xbdcda17716eeee44ull},
      {1560, 2860, 7, 0, 0xbdcda17716eeee44ull},
  };
  util::Xoshiro256 rng(3);
  const Graph er = graph::erdos_renyi_gnm(120, 500, rng);
  const Graph ring = graph::ring(130);
  struct Input {
    const Graph* g;
    unsigned t;
  };
  const Input inputs[] = {{&er, 3}, {&ring, 6}};
  std::size_t row = 0;
  for (const Input& in : inputs) {
    for (const Budget& b : budgets) {
      const auto run = localsim::run_tlocal_broadcast(
          *in.g, localsim::all_edges(*in.g), in.t, 41, b.congest, b.dedup);
      testing::TraceHash h;
      for (const auto& set : run.reached) {
        h.u64(set.size());
        for (const NodeId u : set) h.u64(u);
      }
      const Pinned& want = pinned[row++];
      SCOPED_TRACE(in.g->summary() + " budget " +
                   std::to_string(b.congest.words_per_edge_per_round) +
                   (b.dedup ? " dedup" : " no-dedup"));
      EXPECT_EQ(run.stats.messages, want.messages);
      EXPECT_EQ(run.metrics.words_total, want.words);
      EXPECT_EQ(run.stats.rounds, want.rounds);
      EXPECT_EQ(run.metrics.deferrals_total, want.deferrals);
      EXPECT_EQ(h.value(), want.reached_hash);
    }
  }
}

}  // namespace
}  // namespace fl
