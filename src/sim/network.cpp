#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace fl::sim {

using graph::EdgeId;
using graph::NodeId;

// ---------------------------------------------------------------- Context

std::size_t Context::degree() const {
  return net_->graph().degree(self_);
}

std::span<const EdgeId> Context::incident_edges() const {
  FL_REQUIRE(net_->knowledge() != Knowledge::KT0,
             "incident edge IDs are not available under KT0");
  return net_->incident_edges_[self_];
}

EdgeId Context::edge_at_port(std::size_t port) const {
  const auto& edges = net_->incident_edges_[self_];
  FL_REQUIRE(port < edges.size(), "port out of range");
  return edges[port];
}

NodeId Context::neighbor(EdgeId edge) const {
  FL_REQUIRE(net_->knowledge() == Knowledge::KT1,
             "neighbour IDs are only available under KT1");
  return net_->graph().other_endpoint(edge, self_);
}

void Context::send(EdgeId edge, Payload payload,
                   std::uint32_t size_hint_words) {
  net_->enqueue(lane_ != nullptr ? *lane_ : net_->lanes_.front(), self_,
                edge, std::move(payload), size_hint_words);
}

std::size_t Context::round() const { return net_->round(); }

double Context::log_n_bound() const { return net_->log_n_bound(); }

double Context::n_bound() const {
  return std::exp2(net_->log_n_bound());
}

bool Context::network_silent() const { return net_->round_silent(); }

util::Xoshiro256& Context::rng() {
  // The per-node RNG stream is mutable node state: drawing from another
  // shard's stream would silently change that node's randomness (and the
  // run's determinism across thread counts).
  if (net_->check_) net_->check_->touch_node(self_, "rng stream");
  return net_->node_rngs_[self_];
}

// ---------------------------------------------------------------- Network

Network::Network(const graph::Graph& graph, Knowledge knowledge,
                 std::uint64_t seed)
    : graph_(&graph), knowledge_(knowledge), streams_(seed),
      par_(default_parallel_config()), congest_(default_congest_config()) {
  if (default_check_enabled()) check_ = std::make_unique<OwnershipChecker>();
  {
    obs::TraceConfig tcfg = obs::default_trace_config();
    if (tcfg.enabled) trace_ = std::make_unique<obs::Tracer>(std::move(tcfg));
  }
  const NodeId n = graph.num_nodes();
  FL_REQUIRE(n >= 1, "network needs at least one node");
  log_n_bound_ = std::log2(std::max<double>(2.0, n));

  incident_edges_.resize(n);
  done_state_.assign(n, 0);
  arena_offsets_.assign(n + 1, 0);
  // Lane 0 exists (fully sized) from construction so sends through a
  // pre-run Context land correctly; begin_if_needed may add more lanes.
  lanes_.resize(1);
  lanes_[0].dest_counts.assign(n, 0);
  lanes_[0].cursors.assign(n, 0);
  node_rngs_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto inc = graph.incident(v);
    incident_edges_[v].reserve(inc.size());
    for (const auto& i : inc) incident_edges_[v].push_back(i.edge);
    node_rngs_.push_back(streams_.node_stream(v));
  }
  metrics_.messages_per_node.assign(n, 0);
}

Network::~Network() {
  if (trace_ == nullptr) return;
  // The per-node send totals only stop moving when the runs do; fold them
  // into the sends histogram at teardown, then write the artifacts.
  // finalize() never throws (a destructor must not), and with an empty
  // path it only marks the tracer closed.
  if (started_) {
    for (const auto sends : metrics_.messages_per_node)
      trace_->node_sends_hist().add(sends);
  }
  trace_->finalize();
}

void Network::set_trace(obs::TraceConfig cfg) {
  FL_REQUIRE(!started_, "cannot change tracing after the run started");
  if (cfg.enabled) {
    trace_ = std::make_unique<obs::Tracer>(std::move(cfg));
  } else {
    trace_.reset();
  }
}

void Network::set_log_n_bound(double bound) {
  FL_REQUIRE(bound >= std::log2(std::max<double>(2.0, graph_->num_nodes())),
             "log n bound must be an upper bound");
  log_n_bound_ = bound;
}

void Network::set_parallelism(ParallelConfig par) {
  FL_REQUIRE(!started_, "cannot change parallelism after the run started");
  FL_REQUIRE(par.threads >= 1, "parallelism needs at least one thread");
  // Every lane is a real OS thread; cap well above any sane machine so a
  // wrapped or garbage thread count fails loudly instead of fork-bombing.
  FL_REQUIRE(par.threads <= 1024, "parallelism capped at 1024 threads");
  par_ = par;
}

void Network::set_check(bool enabled) {
  FL_REQUIRE(!started_, "cannot change checking after the run started");
  if (enabled && check_ == nullptr) {
    check_ = std::make_unique<OwnershipChecker>();
  } else if (!enabled) {
    check_.reset();
  }
}

void Network::set_check_probe(std::function<void(Network&, unsigned)> probe) {
  check_probe_ = std::move(probe);
}

void Network::debug_touch_node(graph::NodeId v, unsigned as_lane) {
  FL_REQUIRE(check_ != nullptr, "debug_touch_node needs checking enabled");
  FL_REQUIRE(started_, "debug_touch_node needs a started run (no ownership "
                       "map exists before the execution plan is finalized)");
  FL_REQUIRE(v < graph_->num_nodes(), "node id out of range");
  LaneScope scope(check_.get(), as_lane, EnginePhase::Step);
  check_->touch_node(v, "debug-probe state");
}

void Network::debug_mutate_carry(unsigned chunk) {
  FL_REQUIRE(chunk < congest_chunks_.size(), "carry chunk out of range");
  if (check_) check_->touch_carry(chunk, "carry queue");
  // Harmless when legally reached: the queue's contents are untouched.
  auto& q = congest_chunks_[chunk].carry_next;
  q.reserve(q.size());
}

void Network::set_congest(CongestConfig congest) {
  FL_REQUIRE(!started_, "cannot change the congest budget after the run started");
  // A 0-word budget could never admit anything: Defer would carry forever
  // and Strict would reject the first send. kUnlimited means LOCAL.
  FL_REQUIRE(congest.words_per_edge_per_round >= 1,
             "congest budget must be at least 1 word per edge per round");
  congest_ = congest;
}

InboxView Network::inbox_span(NodeId v) const {
  FL_REQUIRE(v < graph_->num_nodes(), "node id out of range");
  return arena_.range(arena_offsets_[v], arena_offsets_[v + 1]);
}

std::uint64_t Network::debug_plane_allocations() const {
  std::uint64_t total = arena_.allocations() + arena_next_.allocations();
  for (const auto& lane : lanes_) total += lane.outbox.allocations();
  for (const auto& chunk : congest_chunks_) {
    total += chunk.carry.allocations() + chunk.carry_next.allocations() +
             chunk.admitted.allocations();
  }
  return total;
}

void Network::install(
    const std::function<std::unique_ptr<NodeProgram>(NodeId)>& factory) {
  FL_REQUIRE(!started_, "cannot install programs after the run started");
  const NodeId n = graph_->num_nodes();
  programs_.clear();
  programs_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    auto p = factory(v);
    FL_REQUIRE(p != nullptr, "program factory returned null");
    FL_REQUIRE(static_cast<int>(p->required_knowledge()) <=
                   static_cast<int>(knowledge_),
               "program requires more knowledge than the network provides");
    programs_.push_back(std::move(p));
  }
}

void Network::enqueue(SendLane& lane, NodeId from, EdgeId edge,
                      Payload payload, std::uint32_t size_hint_words) {
  if (check_) {
    // The send path mutates sender-owned state (messages_per_node) and the
    // lane's private outbox/counts: both must belong to the stepping lane.
    // Pre-run sends (no bound scope) are legal and unchecked by design.
    check_->touch_node(from, "send-path state");
    check_->touch_lane(static_cast<unsigned>(&lane - lanes_.data()),
                       EnginePhase::Step, "send outbox");
  }
  // Resolve `to` from the endpoints array and prove incidence.
  FL_REQUIRE(edge < graph_->num_edges(), "send over unknown edge");
  const auto ep = graph_->endpoints(edge);
  FL_REQUIRE(ep.u == from || ep.v == from,
             "a node may only send over its incident edges");
  MessageHeader h;
  h.edge = edge;
  h.from = from;
  h.to = (ep.u == from) ? ep.v : ep.u;
  // A message costs at least one word no matter what the sender reports:
  // a computed-zero hint would free-ride on words_total (and, in congest
  // mode, on the per-edge budget), making an O(n)-message protocol look
  // word-free. Clamp at the single choke point every send goes through.
  h.size_hint_words = size_hint_words == 0 ? 1 : size_hint_words;
  // Per-message accounting happens here rather than at delivery — every
  // enqueued message is delivered exactly once next round, so the totals
  // are identical and the merge stays a pure data-movement pass. All of it
  // is lane- or sender-local (the sender belongs to the stepping shard),
  // so parallel stepping never contends: words go to the lane, counts to
  // the lane's per-destination array, and messages_per_node is indexed by
  // the sender.
  lane.words += h.size_hint_words;
  if (h.size_hint_words > lane.max_words) lane.max_words = h.size_hint_words;
  ++metrics_.messages_per_node[h.from];
  ++lane.dest_counts[h.to];
  lane.outbox.push_back(h, std::move(payload));
}

void Network::begin_if_needed() {
  // Shared run()/step() preamble: finalize the execution plan from par_,
  // run every node's on_start, deliver round 0's sends.
  if (started_) return;
  started_ = true;
  const NodeId n = graph_->num_nodes();
  if (par_.threads > 1) {
    // Degree-weighted cuts: a node's per-round cost is dominated by its
    // sends and inbox, both proportional to its degree; + 1 so isolated
    // nodes still count as one program step.
    std::vector<std::uint64_t> weights(n);
    for (NodeId v = 0; v < n; ++v) weights[v] = graph_->degree(v) + 1;
    shards_ = partition_nodes(n, par_.threads, weights);
  } else {
    shards_ = {{0, n}};
  }
  lanes_.resize(shards_.size());
  chunk_weight_.assign(shards_.size(), 0);
  // One flood over every edge (in both directions) is the canonical LOCAL
  // round; reserving that footprint up front spares the first big round
  // ~20 doubling reallocations, each of which re-moves the whole outbox.
  // Reserve commits address space only — pages a lighter protocol never
  // touches cost nothing.
  const std::size_t flood = 2 * static_cast<std::size_t>(graph_->num_edges());
  for (auto& lane : lanes_) {
    lane.outbox.reserve(flood / lanes_.size() + 16);
    // Lane 0 is already sized — and may hold counts from pre-run sends,
    // which must survive into the first merge.
    if (lane.dest_counts.size() != n) {
      lane.dest_counts.assign(n, 0);
      lane.cursors.assign(n, 0);
    }
  }
  if (lanes_.size() > 1) pool_ = std::make_unique<ExecPool>(
      static_cast<unsigned>(lanes_.size()));
  if (check_) check_->bind_shards(shards_, n);
  if (trace_) trace_->bind_lanes(lanes_.size());
  if (congest_.enforced()) {
    // Budget state is per *directed* edge (index 2e + direction); carry
    // queues and admitted buffers are per destination shard. None of it
    // exists in LOCAL mode, which keeps the unbudgeted engine untouched.
    congest_edges_.assign(2 * static_cast<std::size_t>(graph_->num_edges()),
                          EdgeBudgetState{});
    congest_chunks_.resize(shards_.size());
    congest_counts_.assign(n, 0);
  }
  phase_step(/*starting=*/true);
  phase_merge();
}

void Network::phase_step(bool starting) {
  // Phase 1 — step shards. Each lane steps its shard's nodes in ascending
  // id order against its private SendLane. Everything a step touches is
  // either shard-owned (program, RNG stream, messages_per_node[self],
  // done_state_[self]) or read-only this phase (graph, arena + offsets), so lanes run concurrently without
  // locks. The done() re-read happens here, immediately after the step —
  // the only place done-state can change — keeping the quiesce phase free
  // of any per-node work.
  if (check_) check_->set_round(round_);
  // Phase span on the engine track; per-lane busy spans on the lane
  // tracks. Both are one null-check when tracing is off, and the lane
  // span's duration is what RoundProfile::lane_busy_ns accumulates — the
  // imbalance signal the adaptive-sharding ROADMAP item wants.
  const obs::SpanScope phase_span(trace_.get(), obs::SpanKind::StepPhase, 0,
                                  round_);
  auto step_shard = [&](unsigned s) {
    // With checking on, this scope is what every instrumented touch is
    // verified against: lane s, step phase. Opened on the sequential path
    // too, so the checks fire identically at every thread count.
    LaneScope scope(check_.get(), s, EnginePhase::Step);
    const obs::SpanScope span(trace_.get(), obs::SpanKind::StepLane, s, round_);
    const ShardRange range = shards_[s];
    SendLane& lane = lanes_[s];
    for (NodeId v = range.begin; v < range.end; ++v) {
      if (check_) check_->touch_node(v, "program state");
      Context ctx(*this, v, lane);
      if (starting) {
        programs_[v]->on_start(ctx);
      } else {
        // v is in range by construction, so the inbox comes straight off
        // the arena; inbox_span's range check is for outside callers.
        programs_[v]->on_round(
            ctx, arena_.range(arena_offsets_[v], arena_offsets_[v + 1]));
      }
      const std::uint8_t now = programs_[v]->done() ? 1 : 0;
      lane.done_count += static_cast<int>(now) - static_cast<int>(done_state_[v]);
      done_state_[v] = now;
    }
    if (check_probe_) check_probe_(*this, s);
  };
  if (pool_) {
    pool_->run(step_shard);
  } else {
    step_shard(0);
  }
}

void Network::phase_merge() {
  // Phase 2 — merge lanes: this round's sends become next round's inboxes.
  std::uint64_t count = 0;
  for (const auto& lane : lanes_) count += lane.outbox.size();
  {
    const obs::SpanScope span(trace_.get(), obs::SpanKind::MergePhase, 0,
                              round_);
    merge_lanes(count);
  }
  // Phase 2b — congest admission: the merged arena is the canonical
  // (thread-count-invariant) candidate order, so metering it — rather
  // than the per-lane outboxes — keeps budgeted delivery bit-identical
  // across lane counts for free. `count` becomes what was *delivered*.
  if (congest_.enforced()) {
    const obs::SpanScope span(trace_.get(), obs::SpanKind::AdmitPhase, 0,
                              round_);
    count = congest_admit();
  }
  metrics_.messages_total += count;
  metrics_.messages_per_round.push_back(count);
  delivered_last_round_ = count;
  if (trace_) {
    // Delivered-message word sizes: an O(delivered) scan of the 16-byte
    // header plane, paid only with tracing on. Post-admission, so under a
    // budget a deferred message is counted once, in the round its words
    // actually crossed.
    for (std::size_t i = 0; i < arena_.size(); ++i)
      trace_->message_words_hist().add(arena_.header(i).size_hint_words);
    // Close the round's profile. The engine hands over model counters and
    // never reads anything back (C12) — deltas and imbalance are computed
    // on the tracer's side of the fence.
    trace_->end_round(round_, count, metrics_.words_total,
                      metrics_.deferrals_total, carry_total_,
                      debug_plane_allocations());
  }
  ++round_;
  metrics_.rounds = round_;
}

bool Network::all_done() const {
  // O(S): the step phase maintained each lane's done-counter by
  // transition, so no per-node (let alone virtual) work happens here.
  std::int64_t done = 0;
  for (const auto& lane : lanes_) done += lane.done_count;
  return done == static_cast<std::int64_t>(graph_->num_nodes());
}

bool Network::quiescent() const {
  // Phase 0 — quiesce check: no messages in flight (the last merge counted
  // what it moved, O(1)), nothing parked in a congest carry queue (O(1),
  // summed at the admission pass), and every program done (O(S) sum).
  return delivered_last_round_ == 0 && carry_total_ == 0 && all_done();
}

RunStats Network::run(std::size_t max_rounds) {
  FL_REQUIRE(!programs_.empty(), "install programs before running");
  begin_if_needed();
  RunStats stats;
  // The round pipeline: quiesce check -> step shards -> merge lanes.
  while (round_ <= max_rounds) {
    bool quiet;
    {
      const obs::SpanScope span(trace_.get(), obs::SpanKind::Quiesce, 0,
                                round_);
      quiet = quiescent();
    }
    if (quiet) {
      stats.terminated = true;
      break;
    }
    phase_step(/*starting=*/false);
    phase_merge();
  }
  stats.rounds = round_;
  stats.messages = metrics_.messages_total;
  return stats;
}

std::uint64_t Network::max_carried_words() const {
  std::uint64_t max_words = 0;
  for (const auto& chunk : congest_chunks_)
    for (std::size_t i = 0; i < chunk.carry.size(); ++i)
      max_words = std::max<std::uint64_t>(
          max_words, chunk.carry.header(i).size_hint_words);
  return max_words;
}

RunStats Network::run_until_drained(std::size_t stall_cap) {
  FL_REQUIRE(!programs_.empty(), "install programs before running");
  begin_if_needed();
  RunStats stats;
  // Delivery rounds are uncapped: for a terminating protocol each one
  // retires pending traffic (a merge delivered messages, or the admission
  // pass banked budget toward a parked message), so only two failure modes
  // need caps, and each gets a sharp diagnostic instead of the old
  // cap * 64 + 4096 guess:
  //   * stall rounds — round_silent() yet some program not done. A live
  //     protocol must advance at least one logical step per silent round
  //     (the event-driven barrier contract), so the cumulative count is
  //     bounded by the protocol's own step count, independent of any
  //     CONGEST stretch.
  //   * carry wedge — consecutive zero-delivery rounds with messages
  //     parked. Banking admits a K-word head message within ceil(K / B)
  //     rounds, so exceeding that bound (+1 slack) is an engine bug.
  std::size_t stalls = 0;
  std::size_t carry_wait = 0;
  while (true) {
    bool quiet;
    {
      const obs::SpanScope span(trace_.get(), obs::SpanKind::Quiesce, 0,
                                round_);
      quiet = quiescent();
    }
    if (quiet) {
      stats.terminated = true;
      break;
    }
    if (delivered_last_round_ > 0) {
      carry_wait = 0;
    } else if (carry_total_ > 0) {
      ++carry_wait;
      const std::uint64_t budget = congest_.words_per_edge_per_round;
      const std::uint64_t bound =
          (max_carried_words() + budget - 1) / budget + 1;
      FL_ENSURE(carry_wait <= bound,
                "carry queues wedged: " + std::to_string(carry_wait) +
                    " consecutive zero-delivery rounds with " +
                    std::to_string(carry_total_) +
                    " messages parked exceeds the banking bound " +
                    std::to_string(bound) + " at round " +
                    std::to_string(round_) + " — admission-pass engine bug");
    } else {
      carry_wait = 0;
      ++stalls;
      FL_REQUIRE(stalls <= stall_cap,
                 "protocol wedged: " + std::to_string(stalls) +
                     " silent rounds (nothing delivered, nothing carried) " +
                     "exceed the stall cap " + std::to_string(stall_cap) +
                     " at round " + std::to_string(round_) +
                     " with programs still not done — a phase failed to "
                     "advance on its barrier");
    }
    phase_step(/*starting=*/false);
    phase_merge();
  }
  stats.rounds = round_;
  stats.messages = metrics_.messages_total;
  return stats;
}

void Network::step(std::size_t rounds) {
  FL_REQUIRE(!programs_.empty(), "install programs before running");
  if (!started_) {
    begin_if_needed();
    if (rounds > 0) --rounds;
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    phase_step(/*starting=*/false);
    phase_merge();
  }
}

NodeProgram& Network::program(NodeId v) {
  FL_REQUIRE(v < programs_.size(), "node id out of range");
  return *programs_[v];
}

const NodeProgram& Network::program(NodeId v) const {
  FL_REQUIRE(v < programs_.size(), "node id out of range");
  return *programs_[v];
}

}  // namespace fl::sim
