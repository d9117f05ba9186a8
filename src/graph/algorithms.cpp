#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>

#include "util/assert.hpp"

namespace fl::graph {

namespace {

/// Shared BFS core parameterized on an incidence accessor.
template <typename IncidentFn>
std::vector<std::uint32_t> bfs_core(NodeId n, NodeId source,
                                    std::uint32_t max_depth,
                                    IncidentFn&& incident) {
  FL_REQUIRE(source < n, "BFS source out of range");
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::vector<NodeId> frontier{source};
  dist[source] = 0;
  std::uint32_t depth = 0;
  std::vector<NodeId> next;
  while (!frontier.empty() && depth < max_depth) {
    next.clear();
    for (const NodeId v : frontier) {
      for (const Incidence& inc : incident(v)) {
        if (dist[inc.to] == kUnreachable) {
          dist[inc.to] = depth + 1;
          next.push_back(inc.to);
        }
      }
    }
    frontier.swap(next);
    ++depth;
  }
  return dist;
}

/// Component labelling parameterized on an incidence accessor.
template <typename IncidentFn>
Components label_components(NodeId n, IncidentFn&& incident) {
  Components out;
  out.label.assign(n, kInvalidNode);
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (out.label[s] != kInvalidNode) continue;
    const auto c = static_cast<NodeId>(out.count++);
    out.label[s] = c;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const Incidence& inc : incident(v)) {
        if (out.label[inc.to] == kInvalidNode) {
          out.label[inc.to] = c;
          stack.push_back(inc.to);
        }
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  return bfs_core(g.num_nodes(), source, kUnreachable,
                  [&](NodeId v) { return g.incident(v); });
}

std::vector<std::uint32_t> bfs_distances_bounded(const Graph& g, NodeId source,
                                                 std::uint32_t max_depth) {
  return bfs_core(g.num_nodes(), source, max_depth,
                  [&](NodeId v) { return g.incident(v); });
}

SubgraphView::SubgraphView(const Graph& g, std::span<const EdgeId> edges)
    : g_(&g), edge_count_(edges.size()) {
  const NodeId n = g.num_nodes();
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const EdgeId e : edges) {
    const Endpoints ep = g.endpoints(e);
    ++offsets_[ep.u + 1];
    ++offsets_[ep.v + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i)
    offsets_[i] += offsets_[i - 1];
  incidence_.resize(2 * edges.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const EdgeId e : edges) {
    const Endpoints ep = g.endpoints(e);
    incidence_[cursor[ep.u]++] = Incidence{ep.v, e};
    incidence_[cursor[ep.v]++] = Incidence{ep.u, e};
  }
}

std::span<const Incidence> SubgraphView::incident(NodeId v) const {
  FL_REQUIRE(v < num_nodes(), "node id out of range");
  return {incidence_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::vector<std::uint32_t> SubgraphView::bfs_distances(NodeId source) const {
  return bfs_core(num_nodes(), source, kUnreachable,
                  [&](NodeId v) { return incident(v); });
}

std::vector<std::uint32_t> SubgraphView::bfs_distances_bounded(
    NodeId source, std::uint32_t max_depth) const {
  return bfs_core(num_nodes(), source, max_depth,
                  [&](NodeId v) { return incident(v); });
}

bool SubgraphView::preserves_connectivity() const {
  // H ⊆ G on the same nodes, so every H-component lies inside one
  // G-component: the counts agree exactly when no G-component splits.
  const auto in_h = label_components(num_nodes(),
                                     [&](NodeId v) { return incident(v); });
  return in_h.count == connected_components(*g_).count;
}

Components connected_components(const Graph& g) {
  return label_components(g.num_nodes(),
                          [&](NodeId v) { return g.incident(v); });
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  return connected_components(g).count == 1;
}

std::uint32_t diameter_exact(const Graph& g) {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto dist = bfs_distances(g, v);
    for (const auto d : dist)
      if (d != kUnreachable) best = std::max(best, d);
  }
  return best;
}

std::uint32_t diameter_double_sweep(const Graph& g) {
  if (g.num_nodes() == 0) return 0;
  auto farthest = [&](NodeId s) {
    const auto dist = bfs_distances(g, s);
    NodeId arg = s;
    std::uint32_t best = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (dist[v] != kUnreachable && dist[v] > best) {
        best = dist[v];
        arg = v;
      }
    return std::pair{arg, best};
  };
  const auto [far1, d1] = farthest(0);
  const auto [far2, d2] = farthest(far1);
  (void)far2;
  return std::max(d1, d2);
}

std::vector<EdgeId> spanning_forest(const Graph& g) {
  std::vector<EdgeId> tree;
  std::vector<bool> visited(g.num_nodes(), false);
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (visited[s]) continue;
    visited[s] = true;
    queue.push_back(s);
    std::size_t head = 0;
    while (head < queue.size()) {
      const NodeId v = queue[head++];
      for (const Incidence& inc : g.incident(v)) {
        if (!visited[inc.to]) {
          visited[inc.to] = true;
          tree.push_back(inc.edge);
          queue.push_back(inc.to);
        }
      }
    }
    queue.clear();
  }
  return tree;
}

std::uint32_t eccentricity(const Graph& g, NodeId v) {
  const auto dist = bfs_distances(g, v);
  std::uint32_t best = 0;
  for (const auto d : dist)
    if (d != kUnreachable) best = std::max(best, d);
  return best;
}

}  // namespace fl::graph
