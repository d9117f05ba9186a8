// Immutable simple undirected graph with unique edge IDs.
//
// Storage is CSR-style: a flat incidence array indexed by per-node offsets.
// Graphs are built once through Builder and never mutated afterwards; all
// algorithms treat them as values. Self-loops are rejected; duplicate edges
// are rejected (use Multigraph for parallel edges — cluster graphs need
// them, physical communication graphs do not).
#pragma once

#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/ids.hpp"

namespace fl::graph {

class Graph {
 public:
  /// Incremental construction; O(m α(m)) overall with the duplicate check.
  class Builder {
   public:
    explicit Builder(NodeId num_nodes) : n_(num_nodes) {}

    /// Add an undirected edge {u, v}. Returns the id it will carry.
    /// Duplicate {u,v} pairs and self-loops are contract violations.
    EdgeId add_edge(NodeId u, NodeId v);

    /// Returns true iff {u, v} was already added (either orientation).
    bool has_edge(NodeId u, NodeId v) const;

    NodeId num_nodes() const { return n_; }
    EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

    Graph build() &&;

   private:
    NodeId n_;
    std::vector<Endpoints> edges_;
    // Hash set of packed (min,max) pairs for O(1) duplicate detection.
    std::unordered_set<std::uint64_t> seen_;
  };

  /// Large-scale construction: like Builder but without the duplicate-edge
  /// hash set, whose ~16 bytes/edge would dominate the footprint of an
  /// n=10M sparse load. Range and self-loop checks run per edge (O(1));
  /// duplicates are rejected by build(), which scans the finished,
  /// neighbour-sorted incidence lists once. Endpoints append straight into
  /// the final edge array — peak memory is the finished graph plus the
  /// CSR scratch, never an intermediate copy.
  class StreamBuilder {
   public:
    explicit StreamBuilder(NodeId num_nodes) : n_(num_nodes) {}

    /// Pre-size the edge array when the source announces its edge count,
    /// sparing the append path its doubling re-moves.
    void reserve_edges(std::size_t m) { edges_.reserve(m); }

    /// Add an undirected edge {u, v}. Returns its id. A duplicate is not
    /// caught here but by build().
    EdgeId add_edge(NodeId u, NodeId v);

    NodeId num_nodes() const { return n_; }
    EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

    /// Throws ContractViolation naming the endpoints of any duplicate edge.
    Graph build() &&;

   private:
    NodeId n_;
    std::vector<Endpoints> edges_;
  };

  Graph() = default;

  NodeId num_nodes() const { return n_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  /// Endpoints of edge `e` (normalized so u <= v).
  Endpoints endpoints(EdgeId e) const;

  /// Given an edge id and one endpoint, returns the other endpoint.
  NodeId other_endpoint(EdgeId e, NodeId v) const;

  NodeId degree(NodeId v) const;

  /// The incidence list of `v`: (neighbour, edge id) pairs, neighbour-sorted.
  std::span<const Incidence> incident(NodeId v) const;

  /// True iff {u, v} is an edge; O(log deg(u)).
  bool has_edge(NodeId u, NodeId v) const;

  /// Edge id of {u, v}, or kInvalidEdge when absent; O(log deg(u)).
  EdgeId find_edge(NodeId u, NodeId v) const;

  /// All edges by id (id == position).
  std::span<const Endpoints> edges() const { return edges_; }

  /// Average degree 2m/n; 0 for the empty graph.
  double average_degree() const;

  /// Human-readable one-line summary ("n=1024 m=8192 avg_deg=16.0").
  std::string summary() const;

 private:
  friend class Builder;
  friend class StreamBuilder;

  /// Shared tail of both builders: counting-sort g.edges_ into the CSR
  /// incidence array and neighbour-sort each node's slice.
  static void finalize_csr(Graph& g);

  NodeId n_ = 0;
  std::vector<Endpoints> edges_;
  std::vector<std::size_t> offsets_;    // n_ + 1 entries
  std::vector<Incidence> incidence_;    // 2m entries, sorted per node
};

}  // namespace fl::graph
