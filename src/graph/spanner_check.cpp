#include "graph/spanner_check.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "util/assert.hpp"

namespace fl::graph {

namespace {

/// BFS over H that stops as soon as its targets are settled. The buffers are
/// allocated once per check and stamped with a per-search epoch, so a search
/// costs the ball it visits rather than a length-n reset. Nodes are settled
/// in plain BFS order, so every distance it reports equals the full BFS's.
class TargetedBfs {
 public:
  explicit TargetedBfs(const SubgraphView& h)
      : h_(h), dist_(h.num_nodes()), seen_(h.num_nodes(), 0),
        wanted_(h.num_nodes(), 0) {
    queue_.reserve(h.num_nodes());
  }

  /// Searches from `source` until every node of `targets` is settled, the
  /// frontier empties, or the nodes at `max_depth` are reached (they are
  /// settled but not expanded). Forgets the previous search.
  void run(NodeId source, std::span<const NodeId> targets,
           std::uint32_t max_depth) {
    ++epoch_;
    std::size_t pending = 0;
    for (const NodeId t : targets)
      if (wanted_[t] != epoch_) {
        wanted_[t] = epoch_;
        ++pending;
      }
    queue_.clear();
    auto settle = [&](NodeId v, std::uint32_t d) {
      seen_[v] = epoch_;
      dist_[v] = d;
      queue_.push_back(v);
      if (wanted_[v] == epoch_) --pending;
    };
    settle(source, 0);
    for (std::size_t head = 0; pending > 0 && head < queue_.size(); ++head) {
      const NodeId v = queue_[head];
      const std::uint32_t d = dist_[v];
      if (d >= max_depth) break;  // the queue is ordered by distance
      for (const Incidence& inc : h_.incident(v)) {
        if (seen_[inc.to] == epoch_) continue;
        settle(inc.to, d + 1);
        if (pending == 0) return;
      }
    }
  }

  /// dist_H(source, v) of the last search; kUnreachable if it did not
  /// settle `v`.
  std::uint32_t dist(NodeId v) const {
    return seen_[v] == epoch_ ? dist_[v] : kUnreachable;
  }

 private:
  const SubgraphView& h_;
  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> seen_;    ///< epoch of the search that settled v
  std::vector<std::uint32_t> wanted_;  ///< epoch of the search targeting v
  std::vector<NodeId> queue_;
  // A check runs one search per source node or sampled edge, and both ids
  // are 32-bit, so the epoch never wraps back to the buffers' initial 0.
  std::uint32_t epoch_ = 0;
};

}  // namespace

bool is_valid_edge_subset(const Graph& g, std::span<const EdgeId> spanner) {
  std::vector<bool> seen(g.num_edges(), false);
  for (const EdgeId e : spanner) {
    if (e >= g.num_edges()) return false;
    if (seen[e]) return false;
    seen[e] = true;
  }
  return true;
}

StretchReport check_spanner_exact(const Graph& g,
                                  std::span<const EdgeId> spanner,
                                  double alpha) {
  FL_REQUIRE(is_valid_edge_subset(g, spanner), "invalid spanner edge set");
  const SubgraphView h(g, spanner);
  StretchReport rep;
  rep.connected = h.preserves_connectivity();

  // dist_H(u, v) for every G-edge: one BFS on H per node covers all edges
  // whose lower endpoint is that node, and it ends once those higher-id
  // neighbours are settled.
  TargetedBfs bfs(h);
  std::vector<NodeId> targets;
  double sum = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    targets.clear();
    for (const Incidence& inc : g.incident(u))
      if (inc.to > u) targets.push_back(inc.to);  // each edge counted once
    if (targets.empty()) continue;
    bfs.run(u, targets, kUnreachable);
    for (const NodeId v : targets) {
      const std::uint32_t dh = bfs.dist(v);
      const bool unreachable = dh == kUnreachable;
      const double d = unreachable ? static_cast<double>(g.num_nodes())
                                   : static_cast<double>(dh);
      rep.max_edge_stretch = std::max(rep.max_edge_stretch, d);
      sum += d;
      ++rep.edges_checked;
      // An endpoint pair disconnected in H violates every finite stretch.
      if (alpha > 0.0 && (unreachable || d > alpha)) ++rep.violations;
    }
  }
  rep.mean_edge_stretch = rep.edges_checked
                              ? sum / static_cast<double>(rep.edges_checked)
                              : 0.0;
  return rep;
}

StretchReport check_spanner_sampled(const Graph& g,
                                    std::span<const EdgeId> spanner,
                                    std::size_t sample_edges,
                                    std::uint32_t depth_cap,
                                    util::Xoshiro256& rng,
                                    double alpha) {
  FL_REQUIRE(is_valid_edge_subset(g, spanner), "invalid spanner edge set");
  FL_REQUIRE(depth_cap > 0, "depth cap must be positive");
  const SubgraphView h(g, spanner);
  StretchReport rep;
  rep.connected = h.preserves_connectivity();

  const auto picks = util::sample_without_replacement(
      g.num_edges(), std::min<std::size_t>(sample_edges, g.num_edges()), rng);
  TargetedBfs bfs(h);
  double sum = 0.0;
  for (const std::size_t e : picks) {
    const Endpoints ep = g.endpoints(static_cast<EdgeId>(e));
    bfs.run(ep.u, std::span(&ep.v, 1), depth_cap);
    const std::uint32_t dh = bfs.dist(ep.v);
    const double d = dh == kUnreachable ? static_cast<double>(depth_cap) + 1.0
                                        : static_cast<double>(dh);
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

double sampled_pairwise_stretch(const Graph& g,
                                std::span<const EdgeId> spanner,
                                std::size_t sample_sources,
                                util::Xoshiro256& rng) {
  FL_REQUIRE(is_valid_edge_subset(g, spanner), "invalid spanner edge set");
  const SubgraphView h(g, spanner);
  const auto sources = util::sample_without_replacement(
      g.num_nodes(), std::min<std::size_t>(sample_sources, g.num_nodes()),
      rng);
  double worst = 1.0;
  for (const std::size_t sv : sources) {
    const auto s = static_cast<NodeId>(sv);
    const auto dg = bfs_distances(g, s);
    const auto dh = h.bfs_distances(s);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == s || dg[v] == kUnreachable) continue;
      const double ratio =
          dh[v] == kUnreachable
              ? static_cast<double>(g.num_nodes())
              : static_cast<double>(dh[v]) / static_cast<double>(dg[v]);
      worst = std::max(worst, ratio);
    }
  }
  return worst;
}

}  // namespace fl::graph
