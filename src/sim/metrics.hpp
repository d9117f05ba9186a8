// Message/round accounting — the quantities Theorems 2, 3 and 11 bound.
//
// The network updates these counters as it routes; protocols never touch
// them. `messages_total` counts every message delivered (the paper's
// message complexity); `words_total` additionally weights by the protocol's
// size hints — every message costs at least one word (enqueue clamps a
// zero hint up), so word complexity can never be under-reported by an
// enqueue path that forgot to self-report a size.
//
// Under an enforced CongestConfig (congest.hpp) delivery may lag sending:
// `messages_per_round`/`messages_total` count *deliveries* (so a budgeted
// run shows its stretched schedule), `words_total` and `messages_per_node`
// count at *send* time (they are delivery-schedule invariant), and
// `deferrals_total` counts how many times a message was bumped to a later
// round by a full edge (one message deferred for k rounds counts k).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/ids.hpp"

namespace fl::sim {

struct Metrics {
  std::size_t rounds = 0;
  std::uint64_t messages_total = 0;
  std::uint64_t words_total = 0;
  std::uint64_t deferrals_total = 0;  ///< congest-mode message-round delays
  /// Largest total carry-queue occupancy (messages parked across every
  /// per-edge FIFO) seen after any admission pass — how deep the budget
  /// backlog ever got. 0 in LOCAL mode and whenever the budget never
  /// binds; a model field (bit-identical across thread counts), surfaced
  /// in the bench JSON next to deferrals.
  std::uint64_t carry_peak = 0;
  /// Largest single self-reported message size seen so far — the smallest
  /// per-edge budget under which no message is individually oversized
  /// (CongestPolicy::Strict's floor).
  std::uint64_t max_message_words = 0;
  std::vector<std::uint64_t> messages_per_round;
  std::vector<std::uint64_t> messages_per_node;  ///< sent, indexed by node

  std::uint64_t max_messages_in_a_round() const {
    std::uint64_t best = 0;
    for (const auto v : messages_per_round)
      if (v > best) best = v;
    return best;
  }
};

/// Result of Network::run().
struct RunStats {
  bool terminated = false;  ///< all programs done and no in-flight messages
  std::size_t rounds = 0;
  std::uint64_t messages = 0;
};

}  // namespace fl::sim
