// t-local broadcast (paper Section 6, Lemma 12).
//
// Task: every node v must deliver its message M_v to all nodes of
// B_{G,t}(v). Implementation: bundled flooding for R rounds over a subgraph
// H = (V, S): each round, every node packs all origins it learned last
// round into ONE message per incident H-edge. Because LOCAL does not bound
// message size, the message count is at most 2|S| per round, i.e.
// O(R · |S|) total — with H an α-spanner and R = αt this is the
// Õ(t · n^{1+ε}) of Lemma 12; with H = G and R = t it is the Θ(t·m)
// baseline.
//
// A bundle's origin set travels in one of two forms, chosen by its own
// size: a bitmap over [0, n) when count · 32 >= n (never larger than the
// list), else the id list. Either way a message's words are its origin
// count, so the accounting is the same as an id list's; a node merges a
// dense bundle 64 origins at a time against its known-origin bitmap.
//
// Under an enforced CONGEST budget (sim/congest.hpp) the same protocol
// runs with per-hop budgets instead of the round counter: every origin
// travels at most R hops, bundles are grouped by remaining hop budget, and
// stragglers keep being recorded and re-forwarded after the local send
// schedule ends. Coverage is therefore still exactly B_{H,R}(v) — the
// budget stretches RunStats.rounds (multi-word bundles crawl through
// B-word edges) without shrinking what anyone learns.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sim/congest.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"

namespace fl::localsim {

struct BroadcastRun {
  /// reached[v] = origins known to v after the run (ascending node ids).
  std::vector<std::vector<graph::NodeId>> reached;
  sim::RunStats stats;
  sim::Metrics metrics;
};

/// Flood origin ids for `rounds` rounds over the subgraph given by `edges`
/// (pass all edge ids for G itself). Every node is an origin. `congest`
/// overrides the network's bandwidth budget (default: the FL_SIM_CONGEST
/// environment probe, else unlimited); with a finite Defer budget the run
/// takes more rounds but reaches the same sets.
///
/// `dedup_reforward` controls the budget-improvement optimisation: a batch
/// re-forwarded because a binding budget delivered a better hop count is
/// not sent back over its arrival edge (the sender provably already holds
/// those origins with a larger budget). Improvements never happen in LOCAL
/// mode or under a non-binding budget — first arrival takes the BFS
/// shortest path, so it already carries the maximal budget — hence LOCAL
/// words, traces and reached sets are identical in both modes; under a
/// binding budget the reached sets stay the same while words_total drops.
/// The opt-out exists for A/B accounting, not for production use.
BroadcastRun run_tlocal_broadcast(
    const graph::Graph& g, const std::vector<graph::EdgeId>& edges,
    unsigned rounds, std::uint64_t seed,
    std::optional<sim::CongestConfig> congest = std::nullopt,
    bool dedup_reforward = true);

/// Convenience: all edges of g (the native Θ(t·m) variant).
std::vector<graph::EdgeId> all_edges(const graph::Graph& g);

}  // namespace fl::localsim
