// Node-program interface for the synchronous LOCAL simulator.
//
// A protocol is a class derived from NodeProgram, instantiated once per
// node. Each round the network calls on_round() with the node's inbox; the
// program reacts and sends messages through the Context. The model
// assumptions of the paper (Section 1.1) are encoded in Context:
//   * nodes know an O(1)-approximate upper bound on log n  -> log_n_bound();
//   * unique edge IDs known to both endpoints              -> incident_edges();
//   * (optionally, KT1) neighbour IDs                      -> neighbor() —
//     only legal when the network was built with Knowledge::KT1.
// Nodes have NO other a-priori topology knowledge; programs must not touch
// the Graph directly (the simulator owns it).
#pragma once

#include <cstdint>
#include <span>

#include "graph/ids.hpp"
#include "sim/message.hpp"
#include "util/rng.hpp"

namespace fl::sim {

/// How much a node initially knows about its incident edges.
enum class Knowledge {
  KT0,      ///< degree + local port numbers only
  EdgeIds,  ///< the paper's model: unique edge IDs, known at both endpoints
  KT1,      ///< edge IDs + the ID of the other endpoint of every edge
};

class Network;
struct SendLane;

/// Per-node view of the network handed to programs each round.
///
/// A Context is bound to the execution lane stepping the node this round:
/// sends land in that lane's private outbox, so parallel shard stepping
/// (see exec.hpp) never contends on shared send state. The two-argument
/// form resolves the network's lane 0 at each send (never caching the
/// lane), so it stays valid across the lane re-partition at run start.
class Context {
 public:
  Context(Network& net, graph::NodeId self)
      : net_(&net), self_(self), lane_(nullptr) {}
  Context(Network& net, graph::NodeId self, SendLane& lane)
      : net_(&net), self_(self), lane_(&lane) {}

  graph::NodeId self() const { return self_; }
  std::size_t degree() const;

  /// Unique IDs of this node's incident edges (requires EdgeIds or KT1).
  std::span<const graph::EdgeId> incident_edges() const;

  /// Edge id of the port-th incident edge (any knowledge level; ports are
  /// the node's private local numbering 0..deg-1).
  graph::EdgeId edge_at_port(std::size_t port) const;

  /// ID of the other endpoint of `edge` (requires KT1).
  graph::NodeId neighbor(graph::EdgeId edge) const;

  /// Send `payload` over `edge` this round; delivered next round — unless
  /// the network enforces a CONGEST budget (sim/congest.hpp), in which
  /// case delivery may slip to a later round once the edge's words-per-
  /// round limit fills (order per edge stays FIFO). `size_hint_words` is
  /// the message's logical size against that budget and the words metric;
  /// it is clamped to at least 1 (a message is never free). Any movable
  /// value converts to Payload; small trivially-copyable structs travel
  /// allocation-free (see payload.hpp).
  void send(graph::EdgeId edge, Payload payload,
            std::uint32_t size_hint_words = 1);

  /// Current round number (0-based).
  std::size_t round() const;

  /// The promised O(1)-approximate upper bound on log2 n.
  double log_n_bound() const;

  /// Poly(n) upper bound on n implied by log_n_bound().
  double n_bound() const;

  /// This node's private random stream (deterministic per run seed).
  util::Xoshiro256& rng();

  /// Event-driven barrier fact (Network::round_silent): true when the last
  /// merge delivered nothing and no message is parked in a congest carry
  /// queue — i.e. all traffic sent so far has drained. A merge-barrier
  /// output, identical for every node in the round and bit-identical at
  /// any thread count or CONGEST budget; stable for the whole step phase.
  /// The distributed Sampler advances its phase on silence under an
  /// enforced CONGEST budget instead of counting its timetable's rounds.
  bool network_silent() const;

 private:
  Network* net_;
  graph::NodeId self_;
  SendLane* lane_;  ///< stepping lane; null = resolve lane 0 per send
};

/// Base class for protocols. One instance per node.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once, before the first round. May send messages.
  virtual void on_start(Context& ctx) = 0;

  /// Called once per round with all messages delivered this round. The
  /// inbox is a zipped view into the delivery arena's header/payload
  /// planes (message.hpp); views and payload references obtained from it
  /// are valid only until on_round returns.
  virtual void on_round(Context& ctx, InboxView inbox) = 0;

  /// A network halts when every program reports done() and no messages are
  /// in flight. Programs may keep receiving messages after done() turns
  /// true (e.g. stragglers); they simply go back to not-done if needed.
  ///
  /// Contract: the engine re-reads done() exactly once per step, right
  /// after on_start/on_round returns — the only moments done-state may
  /// change — and tracks transitions in per-shard counters (so the
  /// quiesce check does no per-node work). done() must therefore be a
  /// cheap, side-effect-free predicate of the program's state, and that
  /// state must not be mutated from outside the simulation while a run
  /// may still continue.
  virtual bool done() const = 0;

  /// Minimum knowledge this protocol needs; the network enforces it.
  virtual Knowledge required_knowledge() const { return Knowledge::EdgeIds; }
};

}  // namespace fl::sim
