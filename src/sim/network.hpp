// The synchronous LOCAL-model network simulator.
//
// Faithful to the fully synchronous LOCAL model of [Linial 92; Peleg 00]:
// computation proceeds in lockstep rounds; a message sent in round r is
// delivered at the start of round r+1; message size is unbounded; local
// computation is free. The simulator meters rounds and message counts —
// the two complexities the paper's theorems bound — and enforces the
// declared knowledge level (KT0 / unique-edge-IDs / KT1).
//
// Each round is an explicit three-phase pipeline (see Network::run):
//
//   quiesce check -> step shards -> merge lanes
//
//   * quiesce: O(S) over the S execution lanes — delivered-message count
//     from the last merge plus the lanes' done-counters; no per-node work;
//   * step: every lane steps its shard's nodes against a private SendLane
//     (exec.hpp), concurrently when parallelism > 1;
//   * merge: the lanes' outboxes become next round's inboxes — one
//     contiguous arena, counting-sorted by destination with CSR-style
//     per-node offsets (counts maintained incrementally by the send path),
//     bit-identical to sequential delivery for every lane count.
//
// With an enforced CongestConfig (congest.hpp) the merge grows a fourth
// step: an admission pass over the freshly merged arena that meters words
// per directed edge per round and defers (or, under Strict, rejects) the
// overflow. The pass is chunk-parallel over the destination shards — a
// directed edge delivers to exactly one node, so its budget tally and
// carry queue belong to exactly one chunk — and preserves the engine's
// bit-determinism across thread counts.
//
// One class owns the whole round: the pipeline, the send path and the
// delivery arena. The merge and admission passes are private methods
// defined in merge.cpp; network.cpp holds everything else.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "sim/check.hpp"
#include "sim/congest.hpp"
#include "sim/exec.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

namespace fl::sim {

class Network {
 public:
  /// `graph` must outlive the network. `knowledge` is what nodes may query;
  /// installing a program that requires more is a contract violation.
  Network(const graph::Graph& graph, Knowledge knowledge, std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Out of line: finalizes the trace artifact when tracing is on (a
  /// no-op — not even a branch worth naming — otherwise).
  ~Network();

  /// Install one program per node from a factory.
  void install(
      const std::function<std::unique_ptr<NodeProgram>(graph::NodeId)>& factory);

  /// Typed convenience: installs P(node_id, args...) on every node.
  template <typename P, typename... Args>
  void install_all(Args&&... args) {
    install([&](graph::NodeId v) {
      return std::make_unique<P>(v, args...);
    });
  }

  /// Run until global termination or `max_rounds`, whichever first.
  RunStats run(std::size_t max_rounds);

  /// Run exactly `rounds` more rounds (no termination check) — used by
  /// layered protocols that interleave phases.
  void step(std::size_t rounds);

  /// Run until global termination, with no guessed round cap: delivery
  /// rounds (traffic moved or carry queues busy) are uncapped — each one
  /// consumes finite pending work for a terminating protocol — and only
  /// *stall* rounds (round_silent() yet some program not done) count
  /// against `stall_cap`. A protocol that advances at least one logical
  /// step per silent round therefore needs a cap of (logical steps + a
  /// small constant), independent of any CONGEST stretch factor. Two sharp
  /// diagnostics replace the old doubling heuristic's hard cap: exceeding
  /// `stall_cap` throws ContractViolation naming rounds/stalls/carry/done
  /// counts (a wedged protocol), and an engine invariant bounds
  /// consecutive zero-delivery rounds with carry parked by the banking
  /// bound ceil(max carried words / budget) + 1 (a wedged admission pass).
  RunStats run_until_drained(std::size_t stall_cap);

  const graph::Graph& graph() const { return *graph_; }
  Knowledge knowledge() const { return knowledge_; }
  const Metrics& metrics() const { return metrics_; }
  std::size_t round() const { return round_; }
  double log_n_bound() const { return log_n_bound_; }

  /// Override the advertised log n bound (tests exercise the approximation
  /// slack the model allows).
  void set_log_n_bound(double bound);

  /// Execution parallelism (defaults to FL_SIM_THREADS, else sequential);
  /// only legal before the first round. Results are bit-identical for
  /// every thread count — the deterministic shard-merge contract
  /// (exec.hpp) — so this is purely a wall-clock knob.
  void set_parallelism(ParallelConfig par);
  ParallelConfig parallelism() const { return par_; }

  /// CONGEST bandwidth budget (defaults to FL_SIM_CONGEST, else unlimited
  /// = plain LOCAL); only legal before the first round. With a finite
  /// budget, Defer stretches the round schedule (carry queues at the merge
  /// barrier) and Strict throws CongestViolation on the first over-budget
  /// edge-round. Results stay bit-identical across thread counts for any
  /// fixed config.
  void set_congest(CongestConfig congest);
  CongestConfig congest() const { return congest_; }

  /// Messages held back by the budget and not yet delivered. Zero in LOCAL
  /// mode; a budgeted run is quiescent only once this drains.
  std::uint64_t carried_messages() const { return carry_total_; }

  /// The deterministic silence predicate for event-driven phase barriers:
  /// the last merge delivered nothing and no message is parked in a carry
  /// queue — i.e. every message sent so far has been fully delivered *and*
  /// handled (any reaction it provoked would itself be in flight). Both
  /// facts are merge-barrier outputs, so the predicate is bit-identical at
  /// every FL_SIM_THREADS and any FL_SIM_CONGEST value,
  /// and is stable for the whole step phase (it only mutates at the next
  /// merge). Programs read it through Context::network_silent().
  bool round_silent() const {
    return delivered_last_round_ == 0 && carry_total_ == 0;
  }

  /// Logical ownership / phase checking (sim/check.hpp; defaults to the
  /// FL_SIM_CHECK env probe, else off); only legal before the first round.
  /// With checking on, every instrumented touch of node state or of a
  /// merge-barrier structure asserts the stepping lane owns it and the
  /// engine is in the right phase — violations throw CheckViolation naming
  /// node, lane, phase and round. Purely observational: results are
  /// bit-identical with checking on or off.
  void set_check(bool enabled);
  bool check_enabled() const { return check_ != nullptr; }

  /// Tracing / profiling (obs/trace.hpp; defaults to the FL_SIM_TRACE env
  /// probe, else off); only legal before the first round. Observational
  /// by contract (docs/CONTRACTS.md C12): golden traces, Metrics and
  /// RunStats are bit-identical with tracing on or off at any thread
  /// count — timing flows out of the engine, never back in. With tracing
  /// off every instrumented site is one `if (trace_)` branch, exactly the
  /// FL_SIM_CHECK cost model.
  void set_trace(obs::TraceConfig cfg);
  bool trace_enabled() const { return trace_ != nullptr; }

  /// The live tracer (null when tracing is off). Protocol runners open
  /// named obs::ProtocolScope spans through it.
  obs::Tracer* tracer() { return trace_.get(); }
  const obs::Tracer* tracer() const { return trace_.get(); }

  /// One RoundProfile per completed round (empty when tracing is off).
  /// Model fields are bit-identical across thread counts; `_ns` fields
  /// and the imbalance ratio are advisory wall-clock data.
  std::span<const obs::RoundProfile> profile() const {
    if (trace_ == nullptr) return {};
    return {trace_->profiles().data(), trace_->profiles().size()};
  }

  /// Test-only: a probe invoked from inside every shard's step scope, after
  /// the shard's nodes were stepped, so tests can seed contract-violating
  /// touches from a running lane (see tests/test_check.cpp).
  void set_check_probe(std::function<void(Network&, unsigned)> probe);

  /// Test-only: touch node v's state from a synthetic step-phase scope
  /// bound to `as_lane` — the seeded cross-shard write.
  void debug_touch_node(graph::NodeId v, unsigned as_lane);

  /// Test-only: perform a (guarded, otherwise harmless) mutation of chunk's
  /// congest carry queue — out of the admission phase this must throw.
  void debug_mutate_carry(unsigned chunk);

  /// Messages delivered to `v` this round — a zipped view into the
  /// delivery arena's header/payload planes, valid until the next round
  /// advances. Exposed for tests; programs receive it via on_round.
  InboxView inbox_span(graph::NodeId v) const;

  /// Test-only: total capacity-growth events across every message plane
  /// the engine owns (both arena buffers, all lane outboxes, all congest
  /// carry/admitted buffers). Steady-state rounds must not move this —
  /// the zero-allocation regression tests pin it.
  std::uint64_t debug_plane_allocations() const;

  NodeProgram& program(graph::NodeId v);
  const NodeProgram& program(graph::NodeId v) const;

  /// Typed accessor for result extraction after a run.
  ///
  /// Done-state contract: the engine re-reads done() only when it steps a
  /// node (quiescence is tracked by transition counters, not by scanning),
  /// so external mutation through this accessor must not change what
  /// done() returns while a run may still continue. Extraction after the
  /// final run — including mutating extraction like flush_final_records —
  /// is fine.
  template <typename P>
  P& program_as(graph::NodeId v) {
    return dynamic_cast<P&>(program(v));
  }

 private:
  friend class Context;

  void enqueue(SendLane& lane, graph::NodeId from, graph::EdgeId edge,
               Payload payload, std::uint32_t size_hint_words);
  void begin_if_needed();
  // The per-round phases, in execution order. merge_lanes and
  // congest_admit are defined in merge.cpp.
  bool quiescent() const;
  void phase_step(bool starting);
  void phase_merge();
  void merge_lanes(std::uint64_t total);
  std::uint64_t congest_admit();  // budget pass over the merged arena
  bool all_done() const;  // O(S) sum of the lanes' done-counters
  std::uint64_t max_carried_words() const;  // scan of the carry queues

  const graph::Graph* graph_;
  Knowledge knowledge_;
  util::StreamFactory streams_;
  double log_n_bound_;

  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<util::Xoshiro256> node_rngs_;
  std::vector<std::vector<graph::EdgeId>> incident_edges_;  // per node

  // Parallel execution (exec.hpp): nodes are split into contiguous shards,
  // one SendLane per shard; lane 0 doubles as the sequential outbox. The
  // pool exists only when the effective shard count exceeds 1. Shards and
  // lanes are finalized by begin_if_needed() from par_ (cuts at equal
  // deg(v) + 1 weight).
  ParallelConfig par_;
  std::vector<ShardRange> shards_;
  std::vector<SendLane> lanes_;
  std::unique_ptr<ExecPool> pool_;

  // Done-state cache, one byte per node, written only by the owning
  // shard's lane. phase_step re-reads program->done() once right after
  // stepping a node (done-state can only change inside on_start/on_round)
  // and bumps the lane's done-counter on transitions, so the quiesce
  // phase never re-scans programs: all_done() sums S counters.
  std::vector<std::uint8_t> done_state_;

  // Delivery storage: this round's messages, counting-sorted by
  // destination, held as structure-of-arrays planes (message.hpp). Node
  // v's inbox is the arena's element range [arena_offsets_[v],
  // arena_offsets_[v + 1]) — one offsets table indexes both planes. The
  // merge's offsets walk and the congest metering read only the 16-byte
  // header plane; payloads move once, at the scatter. Rebuilt in place
  // each round with sticky capacity (steady-state rounds perform zero
  // plane allocations — debug_plane_allocations() pins it);
  // per-destination counts are maintained incrementally by enqueue() in
  // the sending lane (SendLane::dest_counts), so the merge needs no
  // counting pass over the outboxes — offsets arithmetic plus one
  // relocation pass. 32-bit offsets keep the randomly accessed side
  // arrays half the size; a round is capped below 2^32 messages, which
  // merge_lanes enforces with an explicit overflow guard (the n=10M path
  // must fail loudly, never wrap). With a pool, the offsets arithmetic
  // itself runs chunk-parallel over the node shards (merge_lanes).
  //
  // arena_next_ is the persistent second buffer of the double-buffered
  // arena: the admission pass relocates into it and the two swap, so both
  // buffers' capacities survive across rounds and the engine never holds
  // more than the current + next frontier (never the run).
  MessagePlanes arena_;
  MessagePlanes arena_next_;
  std::vector<std::uint32_t> arena_offsets_;   // size n + 1
  std::vector<std::uint64_t> chunk_weight_;    // offsets scratch, size S

  // CONGEST bandwidth budget (congest.hpp). When enforced, the merge ends
  // with an admission pass over the fresh arena: per directed edge the
  // pass meters words against `congest_.words_per_edge_per_round`,
  // admitting in FIFO order (this chunk's carry from earlier rounds, then
  // this round's arrivals) and spilling the overflow back into the
  // chunk's carry. All admission state is destination-owned: a directed
  // edge (edge id + direction) delivers to exactly one node, so chunk c —
  // the destination shard shards_[c] — is the only writer of its edges'
  // budget tallies and of its carry queues, and the pass parallelizes
  // over chunks with no shared writes, exactly like the offsets pass.
  CongestConfig congest_;
  struct EdgeBudgetState {
    std::uint64_t remaining = 0;  ///< capacity left in the stamped round;
                                  ///< banks across rounds while blocked
    std::uint64_t stamp = 0;      ///< round_ + 1 of the last touch
    bool blocked = false;         ///< a message deferred in stamped round
  };
  std::vector<EdgeBudgetState> congest_edges_;  // size 2m: 2e + (to>from)
  // All three per-chunk buffers are MessagePlanes with arena-style sticky
  // capacity: clear() + swap() between rounds, never reallocation, so a
  // steady-state budgeted round is as allocation-free as a LOCAL one.
  struct CongestChunk {
    MessagePlanes carry;       // deferred; destination-ascending,
                               // FIFO within each directed edge
    MessagePlanes carry_next;  // double buffer for the next round
    MessagePlanes admitted;    // this round, destination-ascending
    std::uint64_t deferred_events = 0;
  };
  std::vector<CongestChunk> congest_chunks_;   // one per shard
  std::vector<std::uint32_t> congest_counts_;  // admitted per node, size n
  std::uint64_t carry_total_ = 0;  // messages across all carry queues

  // Logical ownership / phase checker (check.hpp). Null unless FL_SIM_CHECK
  // (or set_check) opted in — every instrumentation site below is a single
  // `if (check_)` branch, so the hot path is untouched with checking off.
  std::unique_ptr<OwnershipChecker> check_;
  std::function<void(Network&, unsigned)> check_probe_;  // test-only

  // Tracer (obs/trace.hpp). Null unless FL_SIM_TRACE (or set_trace) opted
  // in — the same null-pointer cost model as check_: one predictable
  // branch per instrumented site when tracing is off. Strictly
  // write-only from the engine's perspective (C12): the engine opens
  // scopes and reports model counters; it never reads a timing back.
  std::unique_ptr<obs::Tracer> trace_;

  // Messages moved into the arena by the last merge — the O(1) half of
  // the quiesce check.
  std::uint64_t delivered_last_round_ = 0;
  std::size_t round_ = 0;
  bool started_ = false;
  Metrics metrics_;
};

}  // namespace fl::sim
