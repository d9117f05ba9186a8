#include "baseline/baswana_sen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

#include "sim/network.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fl::baseline {

using graph::EdgeId;
using graph::Graph;
using graph::kInvalidEdge;
using graph::kInvalidNode;
using graph::NodeId;

namespace {

/// Cluster-sampling coin shared by all members of a cluster: keyed by the
/// cluster center's id and the iteration, so it needs no communication.
bool cluster_sampled(std::uint64_t seed, NodeId center, unsigned iteration,
                     double p) {
  auto rng = util::StreamFactory(seed).trial_stream(center, iteration,
                                                    0x42424242ULL);
  return rng.bernoulli(p);
}

}  // namespace

// ------------------------------------------------------------ centralized

BaswanaSenResult build_baswana_sen(const Graph& g, unsigned k,
                                   std::uint64_t seed) {
  FL_REQUIRE(k >= 1, "Baswana–Sen needs k >= 1");
  const NodeId n = g.num_nodes();
  BaswanaSenResult result;
  result.k = k;
  if (n == 0) return result;

  const double p = std::pow(static_cast<double>(std::max<NodeId>(n, 2)),
                            -1.0 / static_cast<double>(k));

  std::vector<bool> in_spanner(g.num_edges(), false);
  std::vector<bool> discarded(n, false);
  std::vector<NodeId> cluster(n);  // center id of v's cluster
  for (NodeId v = 0; v < n; ++v) cluster[v] = v;

  auto add_edge = [&](EdgeId e) { in_spanner[e] = true; };

  for (unsigned i = 1; i < k; ++i) {
    // All decisions in an iteration are simultaneous (they mirror one
    // announcement round of the distributed version), so reads go to the
    // iteration-start snapshot and writes to the `next_*` copies.
    std::vector<NodeId> next_cluster = cluster;
    std::vector<bool> next_discarded = discarded;
    for (NodeId v = 0; v < n; ++v) {
      if (discarded[v]) continue;
      if (cluster_sampled(seed, cluster[v], i, p)) continue;  // stays put
      // v's cluster is not sampled: find a neighbour in a sampled cluster
      // (smallest edge id, deterministic tie-break).
      EdgeId join_edge = kInvalidEdge;
      NodeId join_center = kInvalidNode;
      // Otherwise: one (least-id) edge per adjacent cluster, then discard.
      std::unordered_map<NodeId, EdgeId> per_cluster;
      for (const auto& inc : g.incident(v)) {
        if (discarded[inc.to]) continue;
        const NodeId c = cluster[inc.to];
        if (cluster_sampled(seed, c, i, p)) {
          if (join_edge == kInvalidEdge || inc.edge < join_edge) {
            join_edge = inc.edge;
            join_center = c;
          }
        }
        auto [it, fresh] = per_cluster.try_emplace(c, inc.edge);
        if (!fresh && inc.edge < it->second) it->second = inc.edge;
      }
      if (join_edge != kInvalidEdge) {
        add_edge(join_edge);
        next_cluster[v] = join_center;
      } else {
        for (const auto& [c, e] : per_cluster) add_edge(e);
        next_discarded[v] = true;
        next_cluster[v] = kInvalidNode;
      }
    }
    cluster = std::move(next_cluster);
    discarded = std::move(next_discarded);
  }

  // Phase 2: every surviving vertex connects to each adjacent cluster.
  for (NodeId v = 0; v < n; ++v) {
    if (discarded[v]) continue;
    std::unordered_map<NodeId, EdgeId> per_cluster;
    for (const auto& inc : g.incident(v)) {
      if (discarded[inc.to]) continue;
      const NodeId c = cluster[inc.to];
      if (c == cluster[v]) {
        // Intra-cluster edges to the center path: Baswana–Sen keeps the
        // joining edges, which we added when v joined. Edges between two
        // members of one cluster are covered through the center.
        continue;
      }
      auto [it, fresh] = per_cluster.try_emplace(c, inc.edge);
      if (!fresh && inc.edge < it->second) it->second = inc.edge;
    }
    for (const auto& [c, e] : per_cluster) add_edge(e);
  }

  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (in_spanner[e]) result.edges.push_back(e);
  return result;
}

// ------------------------------------------------------------ distributed

namespace {

struct MsgAnnounce {
  NodeId cluster = kInvalidNode;  ///< kInvalidNode means "discarded"
  bool sampled = false;
};

// Θ(m) announces per iteration — the whole point of this baseline — so the
// payload must relocate with the arena's memcpy fast path.
static_assert(sim::Payload::stores_inline<MsgAnnounce> &&
              sim::Payload::trivially_relocatable<MsgAnnounce>);

/// One announce-and-decide super-iteration occupies 2 rounds: (A) everyone
/// announces over all incident edges, (B) everyone decides locally from the
/// received announcements. The final phase-2 iteration reuses (A).
class BaswanaSenNode final : public sim::NodeProgram {
 public:
  BaswanaSenNode(NodeId self, unsigned k, std::uint64_t seed, double p)
      : self_(self), k_(k), seed_(seed), p_(p) {}

  std::vector<EdgeId> spanner_edges(const Graph& g) const {
    std::vector<EdgeId> out;
    for (const auto& [e, flag] : spanner_)
      if (flag) out.push_back(e);
    (void)g;
    return out;
  }

  void on_start(sim::Context& ctx) override {
    cluster_ = self_;
    announce(ctx, 1);
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    // Odd logical steps: decide from announcements; even: announce next.
    const unsigned iteration = static_cast<unsigned>(ctx.round() / 2) + 1;
    const bool decide_step = (ctx.round() % 2) == 1;
    if (!decide_step) {
      if (iteration <= k_) announce(ctx, iteration);
      return;
    }
    if (done_) return;
    if (iteration < k_) {
      decide_iteration(inbox, iteration);
    } else {
      decide_phase2(inbox);
      done_ = true;
    }
  }

  bool done() const override { return done_; }

  sim::Knowledge required_knowledge() const override {
    return sim::Knowledge::EdgeIds;
  }

 private:
  void announce(sim::Context& ctx, unsigned iteration) {
    if (discarded_) return;
    MsgAnnounce msg;
    msg.cluster = cluster_;
    msg.sampled = iteration < k_ &&
                  cluster_sampled(seed_, cluster_, iteration, p_);
    for (const EdgeId e : ctx.incident_edges()) ctx.send(e, msg, 2);
  }

  void decide_iteration(sim::InboxView inbox,
                        unsigned iteration) {
    if (discarded_) return;
    if (cluster_sampled(seed_, cluster_, iteration, p_)) return;  // stays
    EdgeId join_edge = kInvalidEdge;
    NodeId join_center = kInvalidNode;
    std::unordered_map<NodeId, EdgeId> per_cluster;
    for (const auto& m : inbox) {
      const auto& a = sim::payload_as<MsgAnnounce>(m);
      if (a.cluster == kInvalidNode) continue;  // discarded neighbour
      if (a.sampled &&
          (join_edge == kInvalidEdge || m.edge() < join_edge)) {
        join_edge = m.edge();
        join_center = a.cluster;
      }
      auto [it, fresh] = per_cluster.try_emplace(a.cluster, m.edge());
      if (!fresh && m.edge() < it->second) it->second = m.edge();
    }
    if (join_edge != kInvalidEdge) {
      spanner_[join_edge] = true;
      cluster_ = join_center;
    } else {
      for (const auto& [c, e] : per_cluster) spanner_[e] = true;
      discarded_ = true;
      cluster_ = kInvalidNode;
    }
  }

  void decide_phase2(sim::InboxView inbox) {
    if (discarded_) return;
    std::unordered_map<NodeId, EdgeId> per_cluster;
    for (const auto& m : inbox) {
      const auto& a = sim::payload_as<MsgAnnounce>(m);
      if (a.cluster == kInvalidNode || a.cluster == cluster_) continue;
      auto [it, fresh] = per_cluster.try_emplace(a.cluster, m.edge());
      if (!fresh && m.edge() < it->second) it->second = m.edge();
    }
    for (const auto& [c, e] : per_cluster) spanner_[e] = true;
  }

  NodeId self_;
  unsigned k_;
  std::uint64_t seed_;
  double p_;
  NodeId cluster_ = kInvalidNode;
  bool discarded_ = false;
  bool done_ = false;
  std::unordered_map<EdgeId, bool> spanner_;
};

}  // namespace

DistributedBaswanaSenRun run_distributed_baswana_sen(const Graph& g,
                                                     unsigned k,
                                                     std::uint64_t seed) {
  FL_REQUIRE(k >= 1, "Baswana–Sen needs k >= 1");
  const double p =
      std::pow(static_cast<double>(std::max<NodeId>(g.num_nodes(), 2)),
               -1.0 / static_cast<double>(k));
  sim::Network net(g, sim::Knowledge::EdgeIds, seed);
  net.install([&](NodeId v) {
    return std::make_unique<BaswanaSenNode>(v, k, seed, p);
  });

  DistributedBaswanaSenRun run;
  run.result.k = k;
  run.stats = net.run(2 * k + 4);
  FL_REQUIRE(run.stats.terminated, "Baswana–Sen did not terminate");
  run.metrics = net.metrics();

  std::vector<bool> in_spanner(g.num_edges(), false);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (const EdgeId e :
         net.program_as<BaswanaSenNode>(v).spanner_edges(g))
      in_spanner[e] = true;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (in_spanner[e]) run.result.edges.push_back(e);
  return run;
}

}  // namespace fl::baseline
