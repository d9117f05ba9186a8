// Tests for the spanner verification oracle itself (the checker must be
// trustworthy before it can certify Theorem 9).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "util/rng.hpp"

namespace fl::graph {
namespace {

// Reference checkers: the straightforward algorithms the library's targeted
// BFS replaced, kept here only as oracles. Connectivity is the
// per-component definition (every G-component reachable in H from one of
// its members); stretch runs a full BFS on H from every source, or a
// depth-capped one per sampled edge.
bool reference_connected(const Graph& g, const SubgraphView& h) {
  const Components base = connected_components(g);
  std::vector<bool> seen_comp(base.count, false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId c = base.label[v];
    if (seen_comp[c]) continue;
    seen_comp[c] = true;
    const auto dist = h.bfs_distances(v);
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      if (base.label[u] == c && dist[u] == kUnreachable) return false;
  }
  return true;
}

StretchReport reference_exact(const Graph& g, std::span<const EdgeId> spanner,
                              double alpha) {
  const SubgraphView h(g, spanner);
  StretchReport rep;
  rep.connected = reference_connected(g, h);
  double sum = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = h.bfs_distances(u);
    for (const Incidence& inc : g.incident(u)) {
      if (inc.to <= u) continue;
      const bool unreachable = dist[inc.to] == kUnreachable;
      const double d = unreachable ? static_cast<double>(g.num_nodes())
                                   : static_cast<double>(dist[inc.to]);
      rep.max_edge_stretch = std::max(rep.max_edge_stretch, d);
      sum += d;
      ++rep.edges_checked;
      if (alpha > 0.0 && (unreachable || d > alpha)) ++rep.violations;
    }
  }
  rep.mean_edge_stretch = rep.edges_checked
                              ? sum / static_cast<double>(rep.edges_checked)
                              : 0.0;
  return rep;
}

StretchReport reference_sampled(const Graph& g,
                                std::span<const EdgeId> spanner,
                                std::size_t sample_edges,
                                std::uint32_t depth_cap, util::Xoshiro256& rng,
                                double alpha) {
  const SubgraphView h(g, spanner);
  StretchReport rep;
  rep.connected = reference_connected(g, h);
  const auto picks = util::sample_without_replacement(
      g.num_edges(), std::min<std::size_t>(sample_edges, g.num_edges()), rng);
  double sum = 0.0;
  for (const std::size_t e : picks) {
    const Endpoints ep = g.endpoints(static_cast<EdgeId>(e));
    const auto dist = h.bfs_distances_bounded(ep.u, depth_cap);
    const double d = dist[ep.v] == kUnreachable
                         ? static_cast<double>(depth_cap) + 1.0
                         : static_cast<double>(dist[ep.v]);
    rep.max_edge_stretch = std::max(rep.max_edge_stretch, d);
    sum += d;
    ++rep.edges_checked;
    if (alpha > 0.0 && d > alpha) ++rep.violations;
  }
  rep.mean_edge_stretch = rep.edges_checked
                              ? sum / static_cast<double>(rep.edges_checked)
                              : 0.0;
  return rep;
}

/// Every field, doubles compared exactly: the summation order is shared.
void expect_same_report(const StretchReport& got, const StretchReport& want,
                        const std::string& where) {
  EXPECT_EQ(got.connected, want.connected) << where;
  EXPECT_EQ(got.max_edge_stretch, want.max_edge_stretch) << where;
  EXPECT_EQ(got.mean_edge_stretch, want.mean_edge_stretch) << where;
  EXPECT_EQ(got.edges_checked, want.edges_checked) << where;
  EXPECT_EQ(got.violations, want.violations) << where;
}

/// G plus `extra` isolated nodes appended after its own.
Graph with_isolated_nodes(const Graph& g, NodeId extra) {
  Graph::Builder b(g.num_nodes() + extra);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Endpoints ep = g.endpoints(e);
    b.add_edge(ep.u, ep.v);
  }
  return std::move(b).build();
}

std::vector<EdgeId> all_edges_of(const Graph& g) {
  std::vector<EdgeId> all(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
  return all;
}

/// Perfect matching on 2k nodes: k components of one edge each.
Graph matching(NodeId k) {
  Graph::Builder b(2 * k);
  for (NodeId i = 0; i < k; ++i) b.add_edge(2 * i, 2 * i + 1);
  return std::move(b).build();
}

TEST(SpannerCheck, FullGraphIsOneSpanner) {
  util::Xoshiro256 rng(3);
  const Graph g = erdos_renyi_gnm(60, 200, rng);
  const auto rep = check_spanner_exact(g, all_edges_of(g), 1.0);
  EXPECT_TRUE(rep.connected);
  EXPECT_DOUBLE_EQ(rep.max_edge_stretch, 1.0);
  EXPECT_DOUBLE_EQ(rep.mean_edge_stretch, 1.0);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_EQ(rep.edges_checked, g.num_edges());
}

TEST(SpannerCheck, RingMinusOneEdge) {
  // C_n minus one edge: that edge's endpoints are n-1 apart in H.
  const NodeId n = 10;
  const Graph g = ring(n);
  std::vector<EdgeId> edges;
  for (EdgeId e = 1; e < g.num_edges(); ++e) edges.push_back(e);
  const auto rep = check_spanner_exact(g, edges, static_cast<double>(n - 2));
  EXPECT_TRUE(rep.connected);
  EXPECT_DOUBLE_EQ(rep.max_edge_stretch, static_cast<double>(n - 1));
  EXPECT_EQ(rep.violations, 1u);
}

TEST(SpannerCheck, DisconnectedSpannerFlagged) {
  const Graph g = ring(8);
  const std::vector<EdgeId> half{0, 1, 2};
  const auto rep = check_spanner_exact(g, half, 100.0);
  EXPECT_FALSE(rep.connected);
  EXPECT_GT(rep.violations, 0u);  // missing edges read as dist n
}

TEST(SpannerCheck, SampledCheckVerifiesConnectivity) {
  const Graph g = ring(8);
  const std::vector<EdgeId> half{0, 1, 2, 3};
  util::Xoshiro256 rng(17);
  const auto rep = check_spanner_sampled(g, half, g.num_edges(), 8, rng);
  EXPECT_FALSE(rep.connected);
  util::Xoshiro256 rng2(17);
  EXPECT_TRUE(check_spanner_sampled(g, all_edges_of(g), 3, 8, rng2).connected);
}

TEST(SpannerCheck, ConnectivityMatchesPerComponentDefinition) {
  struct Case {
    const char* name;
    Graph g;
    std::vector<EdgeId> h;
  };
  const Graph m = matching(50);
  std::vector<EdgeId> all_but_last = all_edges_of(m);
  all_but_last.pop_back();
  // Path 0-1-2-3 (edges 0, 1, 2) and triangle 4-5-6 (edges 3, 4, 5).
  Graph::Builder split(7);
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{0, 1}, {1, 2}, {2, 3},
                            {4, 5}, {5, 6}, {4, 6}})
    split.add_edge(u, v);
  const Graph path_and_triangle = std::move(split).build();
  const Graph isolated = with_isolated_nodes(path(4), 5);
  std::vector<Case> cases;
  cases.push_back({"matching, every edge", m, all_edges_of(m)});
  cases.push_back({"matching, one edge dropped", m, all_but_last});
  cases.push_back({"matching, no edge", m, {}});
  cases.push_back({"isolated nodes only", Graph::Builder(6).build(), {}});
  cases.push_back({"path plus isolated nodes, every edge", isolated,
                   all_edges_of(isolated)});
  cases.push_back({"path plus isolated nodes, no edge", isolated, {}});
  cases.push_back({"split path", path_and_triangle, {0, 2, 3, 4}});
  cases.push_back({"triangle loses a chord", path_and_triangle, {0, 1, 2, 3, 4}});
  cases.push_back({"split triangle", path_and_triangle, {0, 1, 2, 3}});
  const bool want[] = {true, false, false, true, true, false, false, true, false};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SubgraphView h(cases[i].g, cases[i].h);
    EXPECT_EQ(h.preserves_connectivity(), want[i]) << cases[i].name;
    EXPECT_EQ(h.preserves_connectivity(),
              reference_connected(cases[i].g, h))
        << cases[i].name;
  }
}

TEST(SpannerCheck, DifferentialFuzzAgainstFullBfs) {
  // Small seeded inputs over every family, with edge subsets from empty to
  // complete (spanning forests, random and node-isolating subsets), some
  // inputs padded with isolated nodes. Each is checked exactly at every
  // alpha and sampled at every depth cap; all fields must match the
  // full-BFS references bit for bit.
  const auto families = all_families();
  util::Xoshiro256 rng(20240611);
  constexpr int kCases = 1200;
  for (int i = 0; i < kCases; ++i) {
    const Family family = families[static_cast<std::size_t>(i) % families.size()];
    const auto n0 = static_cast<NodeId>(rng.uniform_int(2, 24));
    Graph g = make_family(family, n0, 0.0, rng);
    if (i % 7 == 3)
      g = with_isolated_nodes(g, static_cast<NodeId>(rng.uniform_int(1, 3)));
    const NodeId n = g.num_nodes();

    std::vector<EdgeId> h;
    switch ((i / static_cast<int>(families.size())) % 5) {
      case 0:
        break;  // empty
      case 1:
        h = spanning_forest(g);
        break;
      case 2:
        h = all_edges_of(g);
        break;
      case 3: {  // random subset, usually disconnected
        const double p = rng.uniform01();
        for (EdgeId e = 0; e < g.num_edges(); ++e)
          if (rng.bernoulli(p)) h.push_back(e);
        break;
      }
      default: {  // spanning forest minus every edge at one node
        const auto cut = static_cast<NodeId>(rng.index(n));
        for (const EdgeId e : spanning_forest(g)) {
          const Endpoints ep = g.endpoints(e);
          if (ep.u != cut && ep.v != cut) h.push_back(e);
        }
        for (EdgeId e = 0; e < g.num_edges(); ++e)
          if (rng.bernoulli(0.3) && std::find(h.begin(), h.end(), e) == h.end())
            h.push_back(e);
        break;
      }
    }
    std::ostringstream where;
    where << "case " << i << " " << family_name(family) << " n=" << n
          << " m=" << g.num_edges() << " |H|=" << h.size();

    const double alphas[] = {0.0, 1.0, 3.0, static_cast<double>(n)};
    for (const double alpha : alphas)
      expect_same_report(check_spanner_exact(g, h, alpha),
                         reference_exact(g, h, alpha),
                         where.str() + " exact alpha=" + std::to_string(alpha));
    const std::uint32_t caps[] = {1, 2, 3, n};
    for (std::size_t c = 0; c < 4; ++c) {
      const std::size_t samples = rng.index(g.num_edges() + 3);
      const std::uint64_t seed = rng();
      util::Xoshiro256 got_rng(seed);
      util::Xoshiro256 want_rng(seed);
      expect_same_report(
          check_spanner_sampled(g, h, samples, caps[c], got_rng, alphas[c]),
          reference_sampled(g, h, samples, caps[c], want_rng, alphas[c]),
          where.str() + " sampled cap=" + std::to_string(caps[c]));
    }
    if (HasFailure()) break;  // one input's report is enough to debug
  }
}

TEST(SpannerCheck, SpanningTreeStretchOnGrid) {
  const Graph g = grid(5, 5);
  const auto tree = spanning_forest(g);
  const auto rep = check_spanner_exact(g, tree, 0.0);
  EXPECT_TRUE(rep.connected);
  // BFS-tree stretch of a grid edge is odd and small; just sanity-check
  // bounds: at least 1, at most 2*diameter.
  EXPECT_GE(rep.max_edge_stretch, 2.0);
  EXPECT_LE(rep.max_edge_stretch, 2.0 * diameter_exact(g) + 1);
}

TEST(SpannerCheck, SampledAgreesWithExactOnMax) {
  util::Xoshiro256 rng(5);
  const Graph g = erdos_renyi_gnm(80, 240, rng);
  const auto tree = spanning_forest(g);
  const auto exact = check_spanner_exact(g, tree, 0.0);
  util::Xoshiro256 rng2(7);
  // Sampling ALL edges with a deep cap must reproduce the exact max.
  const auto sampled = check_spanner_sampled(g, tree, g.num_edges(),
                                             g.num_nodes(), rng2, 0.0);
  EXPECT_DOUBLE_EQ(sampled.max_edge_stretch, exact.max_edge_stretch);
  EXPECT_EQ(sampled.edges_checked, exact.edges_checked);
}

TEST(SpannerCheck, SampledDepthCapSaturates) {
  const NodeId n = 12;
  const Graph g = ring(n);
  std::vector<EdgeId> edges;
  for (EdgeId e = 1; e < g.num_edges(); ++e) edges.push_back(e);
  util::Xoshiro256 rng(11);
  const auto rep = check_spanner_sampled(g, edges, g.num_edges(), 3, rng, 0.0);
  // The removed edge's endpoints are 11 apart; the cap reports cap+1 = 4.
  EXPECT_DOUBLE_EQ(rep.max_edge_stretch, 4.0);
}

TEST(SpannerCheck, PairwiseStretchSaneOnTree) {
  const Graph g = star(20);
  util::Xoshiro256 rng(13);
  EXPECT_DOUBLE_EQ(sampled_pairwise_stretch(g, all_edges_of(g), 5, rng), 1.0);
}

TEST(SpannerCheck, ValidatesEdgeSubset) {
  const Graph g = complete(5);
  EXPECT_TRUE(is_valid_edge_subset(g, std::vector<EdgeId>{0, 3, 9}));
  EXPECT_FALSE(is_valid_edge_subset(g, std::vector<EdgeId>{0, 0}));
  EXPECT_FALSE(is_valid_edge_subset(g, std::vector<EdgeId>{10}));
  EXPECT_THROW(check_spanner_exact(g, std::vector<EdgeId>{0, 0}),
               util::ContractViolation);
}

}  // namespace
}  // namespace fl::graph
