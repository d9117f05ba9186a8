// FL_SIM_CHECK — the logical ownership / phase checker for the round engine.
//
// The engine's determinism rests on two structural contracts that TSan can
// only police when the scheduler actually interleaves the racing accesses
// (hopeless on a single-core box):
//
//   * ownership — every node's mutable state (program, RNG stream,
//     done-state byte, messages_per_node slot) is touched only by the lane
//     whose shard owns the node, and only during the step phase;
//   * phasing — the merge-barrier structures are mutated only in their
//     designated phase: SendLane counts/cursors and the arena in the merge
//     phase, per-directed-edge budget tallies and the congest carry queues
//     in the admission phase.
//
// OwnershipChecker turns both contracts into *logical* assertions: each
// engine phase binds (checker, lane, phase) into a thread-local scope, and
// every instrumented touch verifies the binding against the node→lane
// ownership map. A violation throws CheckViolation naming the node, the
// owning lane, the touching lane, the phase, and the round — raised
// deterministically on the first wrong touch, on one core as reliably as
// on sixty-four, because no data race needs to manifest.
//
// Touches outside any bound scope (pre-run sends through a two-argument
// Context, post-run result extraction via program_as) are deliberately
// unchecked: the engine is not running, so there is no stepping lane to
// mismatch.
//
// Opt-in and zero-cost when off: Network holds a null checker unless
// FL_SIM_CHECK=1 (or set_check(true)) — every instrumentation site is one
// predictable `if (check_)` branch off the hot path, so LOCAL-mode golden
// traces, metrics, and throughput are untouched with checking off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/ids.hpp"
#include "sim/exec.hpp"
#include "util/assert.hpp"

namespace fl::sim {

/// The round pipeline's phases, as the checker names them in diagnostics.
enum class EnginePhase : std::uint8_t {
  Step,   ///< lanes step their shards' nodes (sends happen here)
  Merge,  ///< lane outboxes relocate into the delivery arena
  Admit,  ///< CONGEST admission: budget tallies + carry queues
};

const char* phase_name(EnginePhase phase);

/// Thrown on the first contract-violating touch. Derives from
/// ContractViolation — an ownership or phase violation is engine/test code
/// being broken, exactly the class of failure FL_REQUIRE reports — and
/// carries the coordinates so tests can assert on them.
class CheckViolation : public util::ContractViolation {
 public:
  CheckViolation(const std::string& what, graph::NodeId node,
                 unsigned owner_lane, unsigned touch_lane, EnginePhase phase,
                 std::size_t round)
      : util::ContractViolation(what), node(node), owner_lane(owner_lane),
        touch_lane(touch_lane), phase(phase), round(round) {}

  graph::NodeId node;    ///< node whose state was touched (kInvalidNode
                         ///< for per-lane / per-chunk structures)
  unsigned owner_lane;   ///< lane that owns the touched state
  unsigned touch_lane;   ///< lane that performed the touch
  EnginePhase phase;     ///< phase the touch happened in
  std::size_t round;     ///< round the touch happened in
};

class OwnershipChecker {
 public:
  /// Record the shard→lane ownership map (owner of node v = index of the
  /// shard containing v). Called by the network when the execution plan is
  /// finalized, and again if it ever re-partitions.
  void bind_shards(const std::vector<ShardRange>& shards, graph::NodeId n);

  /// Advance the round stamp used in diagnostics. Called between phases on
  /// the main thread (workers only read it inside their scopes).
  void set_round(std::size_t round) { round_ = round; }

  unsigned owner_of(graph::NodeId v) const { return owner_[v]; }

  /// Assert the calling thread's bound lane owns node v and is in the step
  /// phase. `what` names the state class for the diagnostic ("program
  /// state", "rng stream", "send-path state", ...). No-op outside a scope.
  void touch_node(graph::NodeId v, const char* what) const;

  /// Assert the calling thread is bound to exactly `lane` in phase
  /// `expected` before mutating that lane's private structures (outbox
  /// scatter, done-counter). No-op outside a scope.
  void touch_lane(unsigned lane, EnginePhase expected, const char* what) const;

  /// Assert the calling thread's bound chunk owns destination v and is in
  /// the merge phase (per-destination offsets/cursors writes). No-op
  /// outside a scope.
  void touch_merge_dest(graph::NodeId v, const char* what) const;

  /// Assert the calling thread's bound chunk owns destination v and is in
  /// the admission phase (per-directed-edge budget tallies, carry queues,
  /// admitted buffers). No-op outside a scope.
  void touch_admit_dest(graph::NodeId v, const char* what) const;

  /// Assert the calling thread is bound to chunk `chunk` in the admission
  /// phase before mutating its carry queue. No-op outside a scope.
  void touch_carry(unsigned chunk, const char* what) const;

 private:
  friend class LaneScope;
  struct Binding {
    const OwnershipChecker* checker;
    unsigned lane;
    EnginePhase phase;
    Binding* prev;
  };
  static thread_local Binding* tl_binding_;

  // Out-of-line push/pop of the thread-local binding stack (check.cpp):
  // the binding object itself lives in the LaneScope on the caller's
  // stack; the RAII pop strictly precedes its destruction.
  static void push(Binding* b);
  static void pop(Binding* b);

  /// The innermost binding of *this* checker on the calling thread, or
  /// null when the engine is not running a phase here (pre-run sends,
  /// post-run extraction, a different network's scope).
  const Binding* current() const;

  [[noreturn]] void fail(const std::string& what, graph::NodeId node,
                         unsigned owner_lane, const Binding& b) const;

  std::vector<std::uint32_t> owner_;  // node → owning lane/chunk index
  std::size_t round_ = 0;
};

/// RAII thread-local binding of (checker, lane, phase). The engine opens
/// one around every per-lane job (step, merge, admit) — sequential paths
/// included, so the checks fire identically at every thread count. A null
/// checker makes the scope a no-op, which is how every site stays one
/// branch when checking is off.
class LaneScope {
 public:
  LaneScope(const OwnershipChecker* checker, unsigned lane, EnginePhase phase)
      : bound_(checker != nullptr) {
    if (!bound_) return;
    binding_ = {checker, lane, phase, nullptr};
    OwnershipChecker::push(&binding_);
  }

  ~LaneScope() {
    if (bound_) OwnershipChecker::pop(&binding_);
  }

  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  bool bound_;
  OwnershipChecker::Binding binding_{};
};

/// True when FL_SIM_CHECK asks for the checker (FL_SIM_CHECK=1; unset,
/// empty or 0 = off; anything else is a contract violation). Mirrors
/// default_parallel_config(): the environment seeds every Network's
/// default, callers may still override per run via set_check.
bool default_check_enabled();

}  // namespace fl::sim
