// CONGEST bandwidth budgets for the round engine.
//
// The LOCAL model the simulator speaks natively places no bound on message
// size; the paper's message-reduction theorems are nevertheless stated
// against CONGEST-style comparisons, where every edge carries at most B
// words per round. A CongestConfig turns that comparison from advisory
// (words were only *recorded* per message) into an enforced property of
// the execution: at the merge barrier the engine tallies words per
// *directed* edge per round and applies the configured policy.
//
//   * Defer — the faithful CONGEST semantics. Each directed edge is a
//     FIFO channel with a bandwidth of B words per round: messages that
//     do not fit spill into a carry queue and re-enter delivery on later
//     rounds, stretching RunStats.rounds exactly the way a real CONGEST
//     execution would. While an edge stays backlogged its unused capacity
//     banks up, so one K-word message crosses in ceil(K / B) rounds and a
//     pipelined backlog drains at B words per round. Messages are atomic:
//     a message is delivered in the round its last word arrives.
//   * Strict — a compliance check. The first round in which any directed
//     edge would exceed its budget throws a CongestViolation naming the
//     edge, round, endpoints, word tally, and the offending payload type,
//     so a protocol claiming CONGEST compliance fails fast and loudly.
//
// Enforcement happens after the (unchanged) deterministic shard merge, in
// a pass that is chunk-parallel over the destination shards: a directed
// edge delivers to exactly one node, so every per-edge budget tally and
// carry queue is owned by exactly one shard — parallel stepping stays
// contention-free and admission order is bit-identical for every thread
// count, just like delivery itself.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/ids.hpp"

namespace fl::sim {

/// What to do with a round's over-budget words on a directed edge.
enum class CongestPolicy : std::uint8_t {
  /// Spill into a per-edge FIFO carry queue; delivery resumes on later
  /// rounds (rounds stretch, nothing is lost).
  Defer,
  /// Throw CongestViolation at the first over-budget edge-round.
  Strict,
};

/// Per-edge bandwidth budget threaded through sim::Network. The default
/// (kUnlimited) is the plain LOCAL model: no tally, no admission pass, no
/// overhead — bit-for-bit the unbudgeted engine.
struct CongestConfig {
  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

  /// Words each directed edge may deliver per round; >= 1 when finite.
  std::uint64_t words_per_edge_per_round = kUnlimited;
  CongestPolicy policy = CongestPolicy::Defer;

  bool enforced() const { return words_per_edge_per_round != kUnlimited; }
};

/// CongestConfig{} unless FL_SIM_CONGEST is set. Accepted forms:
/// "<words>" (Defer) or "<words>:defer" / "<words>:strict"; words must be a
/// positive integer. Mirrors default_parallel_config(): the environment
/// seeds every Network's default, callers may still override per run.
CongestConfig default_congest_config();

/// Thrown by CongestPolicy::Strict when a directed edge's word tally for
/// one round exceeds the budget. Derives from std::runtime_error (not
/// ContractViolation: the *protocol traffic* is over budget, no API
/// contract is broken) and carries the offending coordinates for tests
/// and tooling.
class CongestViolation : public std::runtime_error {
 public:
  CongestViolation(std::string what, graph::EdgeId edge, graph::NodeId from,
                   graph::NodeId to, std::size_t round, std::uint64_t words,
                   std::uint64_t budget)
      : std::runtime_error(std::move(what)), edge(edge), from(from), to(to),
        round(round), words(words), budget(budget) {}

  graph::EdgeId edge;    ///< physical edge that overflowed
  graph::NodeId from;    ///< sending endpoint (the directed side)
  graph::NodeId to;      ///< receiving endpoint
  std::size_t round;     ///< round whose tally overflowed
  std::uint64_t words;   ///< tally including the rejected message
  std::uint64_t budget;  ///< words_per_edge_per_round
};

}  // namespace fl::sim
