// Data model of the Sampler cluster hierarchy (paper Sections 3–4).
//
// The algorithm builds virtual graphs G_0, ..., G_k; each virtual node of
// G_j is a cluster of physical nodes with a representative (its center
// lineage root). HierarchyTrace records what happened at every level — node
// counts (Lemma 4), light/heavy outcomes (Lemma 6), query volumes (Theorem
// 11) and the physical-node-to-cluster maps needed to verify the cluster
// diameter bound of Lemma 8.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/ids.hpp"

namespace fl::core {

/// Terminal sampling status of a virtual node in one run of Cluster_j.
enum class NodeStatus : std::uint8_t {
  Light,    ///< queried every distinct neighbour (N̂ = N)
  Heavy,    ///< reached the budget with neighbours left unqueried
  Neither,  ///< the whp-failure event: budget missed AND edges left
};

/// Everything recorded about one level of the hierarchy.
struct LevelTrace {
  unsigned level = 0;

  // Virtual-graph shape at the *start* of the level (this is G_j).
  graph::NodeId virtual_nodes = 0;
  std::size_t virtual_edges = 0;

  // Cluster_j outcomes.
  std::size_t light = 0;
  std::size_t heavy = 0;
  std::size_t neither = 0;
  std::size_t centers = 0;
  std::size_t clustered = 0;    ///< non-center virtual nodes merged somewhere
  std::size_t unclustered = 0;  ///< virtual nodes dropped from G_{j+1}

  // Work accounting (drives the message bound of Theorem 11).
  std::uint64_t query_edges = 0;   ///< distinct query edges over all trials
  std::uint64_t spanner_added = 0; ///< |F| contributed by this level
  std::uint64_t trials_run_total = 0;  ///< Σ_v trials executed by v

  /// cluster_of[v] = id of v's cluster in G_{j+1}, or kInvalidNode when v
  /// was unclustered (only meaningful when level < k).
  std::vector<graph::NodeId> cluster_of;

  /// representative[v] = *physical* node id of v's lineage root in G_j.
  std::vector<graph::NodeId> representative;

  std::string summary() const;
};

/// Full-run trace plus the final physical-node partition (used by the
/// stretch analysis of Theorem 9 and by the distributed implementation to
/// build cluster trees).
struct HierarchyTrace {
  std::vector<LevelTrace> levels;

  /// phys_cluster_at[j][p] = virtual node of G_j containing physical node p,
  /// or kInvalidNode once p's cluster was dropped. phys_cluster_at[0] is the
  /// identity.
  std::vector<std::vector<graph::NodeId>> phys_cluster_at;

  std::size_t total_query_edges() const;
};

}  // namespace fl::core
