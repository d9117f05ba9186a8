#include "graph/graph.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "util/assert.hpp"

namespace fl::graph {

namespace {
std::uint64_t pack(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}
}  // namespace

EdgeId Graph::Builder::add_edge(NodeId u, NodeId v) {
  FL_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
  FL_REQUIRE(u != v, "self-loops are not allowed in a simple graph");
  const auto [it, fresh] = seen_.insert(pack(u, v));
  (void)it;
  FL_REQUIRE(fresh, "duplicate edge in a simple graph");
  if (u > v) std::swap(u, v);
  edges_.push_back(Endpoints{u, v});
  return static_cast<EdgeId>(edges_.size() - 1);
}

bool Graph::Builder::has_edge(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_ || u == v) return false;
  return seen_.count(pack(u, v)) > 0;
}

Graph Graph::Builder::build() && {
  Graph g;
  g.n_ = n_;
  g.edges_ = std::move(edges_);
  finalize_csr(g);
  return g;
}

EdgeId Graph::StreamBuilder::add_edge(NodeId u, NodeId v) {
  FL_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
  FL_REQUIRE(u != v, "self-loops are not allowed in a simple graph");
  if (u > v) std::swap(u, v);
  edges_.push_back(Endpoints{u, v});
  return static_cast<EdgeId>(edges_.size() - 1);
}

Graph Graph::StreamBuilder::build() && {
  Graph g;
  g.n_ = n_;
  g.edges_ = std::move(edges_);
  finalize_csr(g);
  // No hash set on this path, so duplicates are caught here instead: each
  // node's incidence slice is neighbour-sorted, so a repeated edge shows up
  // as two adjacent slots with the same `to`. O(m), no extra memory.
  for (NodeId v = 0; v < g.n_; ++v) {
    for (std::size_t i = g.offsets_[v] + 1; i < g.offsets_[v + 1]; ++i) {
      FL_REQUIRE(g.incidence_[i].to != g.incidence_[i - 1].to,
                 "duplicate edge {" + std::to_string(v) + ", " +
                     std::to_string(g.incidence_[i].to) +
                     "} in a simple graph");
    }
  }
  return g;
}

void Graph::finalize_csr(Graph& g) {
  // Counting sort into CSR form.
  g.offsets_.assign(static_cast<std::size_t>(g.n_) + 1, 0);
  for (const auto& e : g.edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i)
    g.offsets_[i] += g.offsets_[i - 1];

  g.incidence_.resize(2 * g.edges_.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId id = 0; id < g.edges_.size(); ++id) {
    const auto& e = g.edges_[id];
    g.incidence_[cursor[e.u]++] = Incidence{e.v, id};
    g.incidence_[cursor[e.v]++] = Incidence{e.u, id};
  }
  // Sort each node's incidence by neighbour id to enable binary search.
  for (NodeId v = 0; v < g.n_; ++v) {
    auto begin = g.incidence_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]);
    auto end = g.incidence_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v + 1]);
    std::sort(begin, end, [](const Incidence& a, const Incidence& b) {
      return a.to < b.to;
    });
  }
}

Endpoints Graph::endpoints(EdgeId e) const {
  FL_REQUIRE(e < edges_.size(), "edge id out of range");
  return edges_[e];
}

NodeId Graph::other_endpoint(EdgeId e, NodeId v) const {
  const Endpoints ep = endpoints(e);
  FL_REQUIRE(ep.u == v || ep.v == v, "node is not an endpoint of this edge");
  return ep.u == v ? ep.v : ep.u;
}

NodeId Graph::degree(NodeId v) const {
  FL_REQUIRE(v < n_, "node id out of range");
  return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
}

std::span<const Incidence> Graph::incident(NodeId v) const {
  FL_REQUIRE(v < n_, "node id out of range");
  return {incidence_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  return find_edge(u, v) != kInvalidEdge;
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) return kInvalidEdge;
  const auto inc = incident(u);
  const auto it = std::lower_bound(
      inc.begin(), inc.end(), v,
      [](const Incidence& a, NodeId b) { return a.to < b; });
  if (it != inc.end() && it->to == v) return it->edge;
  return kInvalidEdge;
}

double Graph::average_degree() const {
  if (n_ == 0) return 0.0;
  return 2.0 * static_cast<double>(edges_.size()) / static_cast<double>(n_);
}

std::string Graph::summary() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "n=%u m=%zu avg_deg=%.2f", n_, edges_.size(),
                average_degree());
  return buf;
}

}  // namespace fl::graph
