#include "localsim/tlocal_broadcast.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/network.hpp"
#include "util/assert.hpp"

namespace fl::localsim {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {

struct MsgOrigins {
  std::shared_ptr<const std::vector<NodeId>> origins;
  /// How many further hops this bundle's origins may still travel. In
  /// LOCAL mode a bundle arriving in round r always carries R - r (rounds
  /// and hops coincide), so the field is redundant there; under a CONGEST
  /// budget it is what keeps the flood hop-limited when delivery lags.
  std::uint32_t hops_left = 0;
};

// One MsgOrigins per subset edge per round is the transformer's hot path;
// the shared list head must stay in the payload's inline buffer.
static_assert(sim::Payload::stores_inline<MsgOrigins>);

/// Per-node flooding program over a fixed incident edge subset. Each round
/// a node bundles everything it learned last round into one message per
/// subset edge — the LOCAL-model accounting of Lemma 12. Forwarding is
/// governed by per-origin hop budgets, which equals the seed's
/// round-counter cutoff in LOCAL mode (first arrival is the BFS-shortest
/// path, so it always carries the maximal budget) but stays correct when a
/// CONGEST budget delays bundles: a copy arriving later with a *larger*
/// remaining budget is re-forwarded, so coverage is exactly B_{H,R}(v)
/// under any delivery schedule.
class FloodNode final : public sim::NodeProgram {
 public:
  FloodNode(NodeId self, std::shared_ptr<const std::vector<bool>> edge_in,
            unsigned rounds, NodeId n, bool dedup_reforward)
      : self_(self), edge_in_(std::move(edge_in)), rounds_(rounds), n_(n),
        dedup_reforward_(dedup_reforward) {}

  /// The origins this node has heard of, ascending: read off `best_hops_`,
  /// whose known entries are exactly those >= 0.
  std::vector<NodeId> known_sorted() const {
    std::vector<NodeId> out;
    for (NodeId u = 0; u < best_hops_.size(); ++u)
      if (best_hops_[u] >= 0) out.push_back(u);
    return out;
  }

  void on_start(sim::Context& ctx) override {
    best_hops_.assign(n_, -1);
    best_hops_[self_] = static_cast<std::int32_t>(rounds_);
    if (rounds_ == 0) {
      finished_ = true;
      return;
    }
    auto batch = std::make_shared<const std::vector<NodeId>>(1, self_);
    send_over_subset(ctx, batch, rounds_ - 1);
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    // Record and regroup everything heard — even after the local send
    // schedule ended, because under a finite bandwidth budget bundles
    // straggle in late and must still be learned and forwarded. Groups
    // live in a flat vector keyed by (remaining budget, skipped edge): in
    // LOCAL mode every arrival of a round carries the same hop budget and
    // no skip (exactly one group, found without a tree in the
    // transformer's hot path), and under a budget the handful of distinct
    // keys keeps the linear scan trivial.
    //
    // The skip key is the re-forward dedup: when an origin arrives as an
    // *improvement* (already known, larger remaining budget — which only
    // happens when a binding budget delayed the shorter path), the sender
    // of that bundle provably holds the origin with budget >= hops + 1, so
    // shipping it back over the arrival edge is pure waste. First arrivals
    // keep the full subset fan-out: skipping their arrival edge too would
    // change LOCAL-mode words, and every golden trace with it.
    struct Group {
      std::uint32_t hops;
      EdgeId skip;
      std::vector<NodeId> ids;
    };
    std::vector<Group> fresh;
    auto bucket = [&](std::uint32_t h, EdgeId skip) -> std::vector<NodeId>& {
      for (auto& grp : fresh)
        if (grp.hops == h && grp.skip == skip) return grp.ids;
      return fresh.emplace_back(Group{h, skip, {}}).ids;
    };
    for (const auto& m : inbox) {
      const auto& o = sim::payload_as<MsgOrigins>(m);
      const auto hops = static_cast<std::int32_t>(o.hops_left);
      for (const NodeId id : *o.origins) {
        if (hops <= best_hops_[id]) continue;
        const bool improvement = best_hops_[id] >= 0;
        best_hops_[id] = hops;
        if (hops >= 1)
          bucket(static_cast<std::uint32_t>(hops - 1),
                 improvement && dedup_reforward_ ? m.edge()
                                                 : graph::kInvalidEdge)
              .push_back(id);
      }
    }
    // The done-state schedule is untouched by congestion: after `rounds_`
    // steps this node's own sending duty is over (hop budgets gate any
    // residual forwarding), which keeps LOCAL-mode termination — and every
    // pinned golden trace — bit-identical to the seed behaviour.
    if (!finished_) {
      ++send_round_;
      if (send_round_ >= rounds_) finished_ = true;
    }
    // Largest remaining budget first, ties broken by skipped-edge id — a
    // fixed, lane-independent order ((hops, skip) keys are unique, so the
    // sort is deterministic).
    std::sort(fresh.begin(), fresh.end(), [](const Group& a, const Group& b) {
      return a.hops != b.hops ? a.hops > b.hops : a.skip < b.skip;
    });
    for (auto& grp : fresh) {
      auto batch =
          std::make_shared<const std::vector<NodeId>>(std::move(grp.ids));
      send_over_subset(ctx, batch, grp.hops, grp.skip);
    }
  }

  bool done() const override { return finished_; }

  sim::Knowledge required_knowledge() const override {
    return sim::Knowledge::EdgeIds;
  }

 private:
  void send_over_subset(sim::Context& ctx,
                        const std::shared_ptr<const std::vector<NodeId>>& batch,
                        std::uint32_t hops_left,
                        EdgeId skip = graph::kInvalidEdge) {
    for (const EdgeId e : ctx.incident_edges()) {
      if (e == skip || !(*edge_in_)[e]) continue;
      ctx.send(e, MsgOrigins{batch, hops_left},
               static_cast<std::uint32_t>(batch->size()));
    }
  }

  NodeId self_;
  std::shared_ptr<const std::vector<bool>> edge_in_;
  unsigned rounds_;
  NodeId n_;
  bool dedup_reforward_;
  unsigned send_round_ = 0;
  bool finished_ = false;
  // best_hops_[u] = largest remaining hop budget this node has seen for
  // origin u (-1 = never heard). In LOCAL mode it only ever improves once.
  // It is also the node's reached set: known_sorted() scans it.
  std::vector<std::int32_t> best_hops_;
};

}  // namespace

std::vector<EdgeId> all_edges(const Graph& g) {
  std::vector<EdgeId> out(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) out[e] = e;
  return out;
}

BroadcastRun run_tlocal_broadcast(const Graph& g,
                                  const std::vector<EdgeId>& edges,
                                  unsigned rounds, std::uint64_t seed,
                                  std::optional<sim::CongestConfig> congest,
                                  bool dedup_reforward) {
  auto edge_in = std::make_shared<std::vector<bool>>(g.num_edges(), false);
  for (const EdgeId e : edges) {
    FL_REQUIRE(e < g.num_edges(), "broadcast edge id out of range");
    (*edge_in)[e] = true;
  }
  sim::Network net(g, sim::Knowledge::EdgeIds, seed);
  // No override: keep the constructor's default (the FL_SIM_CONGEST probe).
  if (congest.has_value()) net.set_congest(*congest);
  net.install([&](NodeId v) {
    return std::make_unique<FloodNode>(v, edge_in, rounds, g.num_nodes(),
                                       dedup_reforward);
  });

  BroadcastRun run;
  // Event-driven drain: delivery rounds are uncapped (a budget stretches
  // the flood by whatever it actually costs), and the hop-budgeted flood
  // never idles while alive, so the stall cap only covers framing rounds.
  const std::size_t stall_cap = static_cast<std::size_t>(rounds) + 4;
  {
    // Named protocol span on the engine track (no-op when tracing is off)
    // so a trace of a composed run shows which protocol owns which rounds.
    const obs::ProtocolScope span(net.tracer(), "tlocal_broadcast");
    run.stats = net.run_until_drained(stall_cap);
  }
  FL_REQUIRE(run.stats.terminated, "broadcast did not terminate");
  run.metrics = net.metrics();
  run.reached.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    run.reached.push_back(net.program_as<FloodNode>(v).known_sorted());
  return run;
}

}  // namespace fl::localsim
