#include "localsim/tlocal_broadcast.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <utility>

#include "sim/network.hpp"
#include "util/assert.hpp"

namespace fl::localsim {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

namespace {

void set_bit(std::vector<std::uint64_t>& bits, NodeId id) {
  bits[id / 64] |= std::uint64_t{1} << (id % 64);
}

/// The id of the lowest set bit of word `x`, the w-th word of a bitmap.
NodeId lowest_id(std::size_t w, std::uint64_t x) {
  return static_cast<NodeId>(w * 64 + std::countr_zero(x));
}

/// One round's worth of origins a node forwards, shared by every subset
/// edge it goes out on. It takes one of two forms, chosen by its own size
/// alone: a dense bitmap over [0, n) once count · 32 >= n (so the bitmap is
/// never larger than the id list it replaces), otherwise the id list. The
/// order of ids inside a bundle is not observable: a receiver treats each
/// id on its own, and words count origins in either form.
struct Bundle {
  std::uint32_t count = 0;
  std::vector<NodeId> ids;          ///< sparse form (empty when dense)
  std::vector<std::uint64_t> bits;  ///< dense form (empty when sparse)

  template <typename F>
  void for_each(F&& f) const {
    if (bits.empty()) {
      for (const NodeId id : ids) f(id);
      return;
    }
    for (std::size_t w = 0; w < bits.size(); ++w)
      for (std::uint64_t x = bits[w]; x != 0; x &= x - 1)
        f(lowest_id(w, x));
  }
};

std::shared_ptr<const Bundle> make_bundle(std::vector<NodeId> ids, NodeId n) {
  auto b = std::make_shared<Bundle>();
  b->count = static_cast<std::uint32_t>(ids.size());
  if (std::uint64_t{b->count} * 32 >= n) {
    b->bits.assign((n + 63) / 64, 0);
    for (const NodeId id : ids) set_bit(b->bits, id);
  } else {
    b->ids = std::move(ids);
  }
  return b;
}

struct MsgOrigins {
  std::shared_ptr<const Bundle> bundle;
  /// How many further hops this bundle's origins may still travel. In
  /// LOCAL mode a bundle arriving in round r always carries R - r (rounds
  /// and hops coincide), so the field is redundant there; under a CONGEST
  /// budget it is what keeps the flood hop-limited when delivery lags.
  std::uint32_t hops_left = 0;
};

// One MsgOrigins per subset edge per round is the transformer's hot path;
// the shared bundle head must stay in the payload's inline buffer.
static_assert(sim::Payload::stores_inline<MsgOrigins>);

/// Per-node flooding program over a fixed incident edge subset. Each round
/// a node bundles everything it learned last round into one message per
/// subset edge — the LOCAL-model accounting of Lemma 12 — as a bitmap or an
/// id list by the bundle's size (see Bundle); a message's words are its
/// origin count either way. Forwarding is governed by per-origin hop
/// budgets, which equals the seed's round-counter cutoff in LOCAL mode
/// (first arrival is the BFS-shortest path, so it always carries the
/// maximal budget) but stays correct when a CONGEST budget delays bundles:
/// a copy arriving later with a *larger* remaining budget is re-forwarded,
/// so coverage is exactly B_{H,R}(v) under any delivery schedule.
///
/// Merging is set arithmetic on the `known_` bitmap: a bundle whose budget
/// does not exceed the smallest budget the node has recorded cannot improve
/// any known origin, so only its unknown origins count (a dense bundle is
/// merged 64 origins at a time, `bits & ~known_`). Only a larger budget —
/// the improvement path of a binding CONGEST budget, never taken in LOCAL
/// mode — compares hop budgets origin by origin.
class FloodNode final : public sim::NodeProgram {
 public:
  FloodNode(NodeId self, std::shared_ptr<const std::vector<bool>> edge_in,
            unsigned rounds, NodeId n, bool dedup_reforward)
      : self_(self), edge_in_(std::move(edge_in)), rounds_(rounds), n_(n),
        dedup_reforward_(dedup_reforward) {}

  /// The origins this node has heard of, ascending: read off `known_`.
  std::vector<NodeId> known_sorted() const {
    std::vector<NodeId> out;
    for (std::size_t w = 0; w < known_.size(); ++w)
      for (std::uint64_t x = known_[w]; x != 0; x &= x - 1)
        out.push_back(lowest_id(w, x));
    return out;
  }

  void on_start(sim::Context& ctx) override {
    known_.assign((n_ + 63) / 64, 0);
    best_hops_.assign(n_, -1);
    record(self_, static_cast<std::int32_t>(rounds_));
    if (rounds_ == 0) {
      finished_ = true;
      return;
    }
    send_over_subset(ctx, make_bundle({self_}, n_), rounds_ - 1);
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    // Record and regroup everything heard — even after the local send
    // schedule ended, because under a finite bandwidth budget bundles
    // straggle in late and must still be learned and forwarded. Groups
    // live in a flat vector keyed by (remaining budget, skipped edge): in
    // LOCAL mode every arrival of a round carries the same hop budget and
    // no skip (exactly one group, found without a tree in the
    // transformer's hot path), and under a budget the handful of distinct
    // keys keeps the linear scan trivial. A group is created by its first
    // id, so no empty bundle is ever sent.
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
      const Bundle& b = *o.bundle;
      const auto hops = static_cast<std::int32_t>(o.hops_left);
      auto take = [&](NodeId id, bool improvement) {
        record(id, hops);
        if (hops >= 1)
          bucket(static_cast<std::uint32_t>(hops - 1),
                 improvement && dedup_reforward_ ? m.edge()
                                                 : graph::kInvalidEdge)
              .push_back(id);
      };
      if (hops > min_hops_) {
        // Some known origin may gain budget: compare origin by origin.
        b.for_each([&](NodeId id) {
          const bool improvement = is_known(id);
          if (!improvement || hops > best_hops_[id]) take(id, improvement);
        });
      } else if (b.bits.empty()) {
        for (const NodeId id : b.ids)
          if (!is_known(id)) take(id, false);
      } else {
        for (std::size_t w = 0; w < b.bits.size(); ++w)
          for (std::uint64_t x = b.bits[w] & ~known_[w]; x != 0; x &= x - 1)
            take(lowest_id(w, x), false);
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
    // sort is deterministic). It fixes each edge's FIFO order under a
    // budget.
    std::sort(fresh.begin(), fresh.end(), [](const Group& a, const Group& b) {
      return a.hops != b.hops ? a.hops > b.hops : a.skip < b.skip;
    });
    for (auto& grp : fresh)
      send_over_subset(ctx, make_bundle(std::move(grp.ids), n_), grp.hops,
                       grp.skip);
  }

  bool done() const override { return finished_; }

  sim::Knowledge required_knowledge() const override {
    return sim::Knowledge::EdgeIds;
  }

 private:
  bool is_known(NodeId id) const {
    return (known_[id / 64] >> (id % 64)) & 1;
  }

  void record(NodeId id, std::int32_t hops) {
    set_bit(known_, id);
    best_hops_[id] = hops;
    min_hops_ = std::min(min_hops_, hops);
  }

  void send_over_subset(sim::Context& ctx,
                        const std::shared_ptr<const Bundle>& bundle,
                        std::uint32_t hops_left,
                        EdgeId skip = graph::kInvalidEdge) {
    for (const EdgeId e : ctx.incident_edges()) {
      if (e == skip || !(*edge_in_)[e]) continue;
      ctx.send(e, MsgOrigins{bundle, hops_left}, bundle->count);
    }
  }

  NodeId self_;
  std::shared_ptr<const std::vector<bool>> edge_in_;
  unsigned rounds_;
  NodeId n_;
  bool dedup_reforward_;
  unsigned send_round_ = 0;
  bool finished_ = false;
  // known_ = the origins this node has heard of, one bit each; it is the
  // node's reached set (known_sorted() scans it).
  std::vector<std::uint64_t> known_;
  // best_hops_[u] = largest remaining hop budget this node has seen for
  // origin u; meaningful where known_ is set. In LOCAL mode it only ever
  // improves once.
  std::vector<std::int32_t> best_hops_;
  // The smallest budget ever recorded in best_hops_: a bundle carrying no
  // more than this cannot improve any known origin.
  std::int32_t min_hops_ = std::numeric_limits<std::int32_t>::max();
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
