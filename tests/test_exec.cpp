// Tests for the parallel round-execution engine (sim/exec.hpp): weighted
// shard partitioning, the worker pool, and — the load-bearing contract —
// bit determinism of RunStats, Metrics and protocol outputs across thread
// counts and graph families (dense, sparse, skewed), anchored by a pinned
// golden trace.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "env_guard.hpp"
#include "graph/generators.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "sim/exec.hpp"
#include "sim/network.hpp"
#include "trace_hash.hpp"
#include "util/assert.hpp"

namespace fl::sim {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;
using testing::EnvGuard;

// ------------------------------------------------------- partition_nodes

/// Contiguous, non-empty, ascending cover of [0, n) — the structural
/// invariants every weighted cut must preserve.
void expect_partition_invariants(const std::vector<ShardRange>& shards,
                                 NodeId n, unsigned requested) {
  ASSERT_FALSE(shards.empty());
  EXPECT_LE(shards.size(), std::min<std::size_t>(requested, n));
  NodeId expect_begin = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.begin, expect_begin);
    EXPECT_GT(s.end, s.begin);
    expect_begin = s.end;
  }
  EXPECT_EQ(expect_begin, n);
}

std::vector<ShardRange> partition_unit(NodeId n, unsigned shards) {
  const std::vector<std::uint64_t> w(n, 1);
  return partition_nodes(n, shards, w);
}

TEST(PartitionNodes, BalancedContiguousCover) {
  const auto shards = partition_unit(10, 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0], (ShardRange{0, 3}));  // cut at floor(10 / 3)
  EXPECT_EQ(shards[1], (ShardRange{3, 6}));  // cut at floor(20 / 3)
  EXPECT_EQ(shards[2], (ShardRange{6, 10}));
}

TEST(PartitionNodes, EvenSplit) {
  const auto shards = partition_unit(8, 4);
  ASSERT_EQ(shards.size(), 4u);
  for (unsigned s = 0; s < 4; ++s)
    EXPECT_EQ(shards[s], (ShardRange{2 * s, 2 * s + 2}));
}

TEST(PartitionNodes, FewerNodesThanShards) {
  // Never more than one shard per node: n < threads collapses to n
  // singleton shards, all non-empty.
  const auto shards = partition_unit(3, 8);
  ASSERT_EQ(shards.size(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(shards[v], (ShardRange{v, v + 1}));
}

TEST(PartitionNodes, SingleNodeAndSingleShard) {
  EXPECT_EQ(partition_unit(1, 8), (std::vector<ShardRange>{{0, 1}}));
  EXPECT_EQ(partition_unit(5, 1), (std::vector<ShardRange>{{0, 5}}));
  // A zero shard request clamps to one.
  EXPECT_EQ(partition_unit(5, 0), (std::vector<ShardRange>{{0, 5}}));
}

TEST(PartitionNodes, CoversEveryNodeExactlyOnce) {
  for (const NodeId n : {1u, 2u, 7u, 64u, 1001u}) {
    for (const unsigned t : {1u, 2u, 3u, 8u, 64u}) {
      const auto shards = partition_unit(n, t);
      expect_partition_invariants(shards, n, t);
      EXPECT_EQ(shards.size(), std::min<std::size_t>(t, n));
      // Balanced: with unit weights, sizes differ by at most one.
      NodeId lo = n, hi = 0;
      for (const auto& s : shards) {
        lo = std::min(lo, s.size());
        hi = std::max(hi, s.size());
      }
      EXPECT_LE(hi - lo, 1u);
    }
  }
}

// ------------------------------------- partition_nodes (skewed weights)

TEST(PartitionNodesWeighted, StarHubGetsASingletonShard) {
  // Star on 12 nodes, hub first: weights deg + 1 = {12, 2, 2, ...}. The
  // hub alone carries more than 1/4 of the total weight, so with 4 shards
  // the first cut must isolate it; the leaves split the rest.
  const NodeId n = 12;
  std::vector<std::uint64_t> w(n, 2);
  w[0] = 12;
  const auto shards = partition_nodes(n, 4, w);
  expect_partition_invariants(shards, n, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0], (ShardRange{0, 1}));  // the hub, alone
  // No leaf shard is grossly imbalanced (total leaf weight 22 over 3
  // shards → 3..4 leaves each).
  for (unsigned s = 1; s < 4; ++s) {
    EXPECT_GE(shards[s].size(), 3u);
    EXPECT_LE(shards[s].size(), 4u);
  }
}

TEST(PartitionNodesWeighted, UniformWeightsMatchUniformCuts) {
  const NodeId n = 64;
  const std::vector<std::uint64_t> w(n, 5);
  EXPECT_EQ(partition_nodes(n, 8, w), partition_unit(n, 8));
}

TEST(PartitionNodesWeighted, FewerNodesThanShards) {
  const std::vector<std::uint64_t> w{7, 1, 3};
  const auto shards = partition_nodes(3, 8, w);
  expect_partition_invariants(shards, 3, 8);
  EXPECT_EQ(shards.size(), 3u);  // one singleton shard per node
}

TEST(PartitionNodesWeighted, AllWeightOnOneNodeStillCoversEveryNode) {
  // One node holds all the weight: it gets a singleton shard and the
  // remaining (weightless) nodes are still spread over non-empty shards —
  // the clamp never starves a trailing shard.
  for (const NodeId heavy : {NodeId{0}, NodeId{5}, NodeId{9}}) {
    std::vector<std::uint64_t> w(10, 0);
    w[heavy] = 1000;
    const auto shards = partition_nodes(10, 4, w);
    expect_partition_invariants(shards, 10, 4);
    ASSERT_EQ(shards.size(), 4u);
  }
}

TEST(PartitionNodesWeighted, CutsTrackThePrefixMarks) {
  // Ascending weights: early nodes are cheap, so early shards must take
  // more nodes than late ones; every shard's weight stays within one
  // max-weight of the ideal total/k slice.
  const NodeId n = 100;
  std::vector<std::uint64_t> w(n);
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    w[v] = v + 1;
    total += w[v];
  }
  const unsigned k = 5;
  const auto shards = partition_nodes(n, k, w);
  expect_partition_invariants(shards, n, k);
  ASSERT_EQ(shards.size(), k);
  EXPECT_GT(shards.front().size(), shards.back().size());
  for (const auto& s : shards) {
    std::uint64_t weight = 0;
    for (NodeId v = s.begin; v < s.end; ++v) weight += w[v];
    EXPECT_LT(weight, total / k + n + 1);  // ideal slice + one max weight
  }
}

// --------------------------------------------------------------- ExecPool

TEST(ExecPool, RunsEveryLaneOncePerCall) {
  ExecPool pool(4);
  EXPECT_EQ(pool.lanes(), 4u);
  std::vector<std::atomic<int>> hits(4);
  for (int call = 0; call < 3; ++call)
    pool.run([&](unsigned lane) { ++hits[lane]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}

TEST(ExecPool, BarriersBeforeReturning) {
  // Every lane's side effect must be visible when run() returns.
  ExecPool pool(8);
  std::vector<int> out(8, 0);
  pool.run([&](unsigned lane) { out[lane] = static_cast<int>(lane) + 1; });
  for (unsigned lane = 0; lane < 8; ++lane)
    EXPECT_EQ(out[lane], static_cast<int>(lane) + 1);
}

TEST(ExecPool, PropagatesWorkerExceptions) {
  ExecPool pool(4);
  EXPECT_THROW(pool.run([](unsigned lane) {
                 if (lane == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool stays usable after a throwing job.
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](unsigned lane) { ++hits[lane]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecPool, SingleLaneRunsInline) {
  ExecPool pool(1);
  int x = 0;
  pool.run([&](unsigned) { ++x; });
  EXPECT_EQ(x, 1);
  EXPECT_THROW(pool.run([](unsigned) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

// ------------------------------------------------- network determinism

/// Chatty deterministic workload: every node records its full delivery log
/// (round, from, edge, payload) and keeps sending pseudo-random values over
/// pseudo-randomly skipped edges — exercising the send path, the per-node
/// RNG streams, and rounds where many inboxes are empty.
class ChatterProbe final : public NodeProgram {
 public:
  ChatterProbe(NodeId self, unsigned active) : self_(self), active_(active) {}

  std::vector<std::tuple<std::size_t, NodeId, EdgeId, std::uint64_t>> heard;

  void on_start(Context& ctx) override { maybe_send(ctx); }

  void on_round(Context& ctx, InboxView inbox) override {
    for (const auto& m : inbox) {
      EXPECT_EQ(m.to(), self_);
      heard.emplace_back(ctx.round(), m.from(), m.edge(),
                         payload_as<std::uint64_t>(m));
    }
    maybe_send(ctx);
  }

  bool done() const override { return true; }  // quiesce on silence

 private:
  void maybe_send(Context& ctx) {
    if (ctx.round() >= active_) return;
    for (const EdgeId e : ctx.incident_edges()) {
      if (ctx.rng().bernoulli(0.25)) continue;  // skip → cursor misses too
      ctx.send(e, ctx.rng()());
    }
  }

  NodeId self_;
  unsigned active_;
};

struct ChatterResult {
  RunStats stats;
  Metrics metrics;
  std::vector<std::vector<std::tuple<std::size_t, NodeId, EdgeId,
                                     std::uint64_t>>> logs;
};

ChatterResult run_chatter(const Graph& g, ParallelConfig par) {
  Network net(g, Knowledge::EdgeIds, 7);
  net.set_parallelism(par);
  net.install_all<ChatterProbe>(8u);
  ChatterResult res;
  res.stats = net.run(60);
  EXPECT_TRUE(res.stats.terminated);
  res.metrics = net.metrics();
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    res.logs.push_back(net.program_as<ChatterProbe>(v).heard);
  return res;
}

void expect_identical(const ChatterResult& a, const ChatterResult& b) {
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.terminated, b.stats.terminated);
  EXPECT_EQ(a.metrics.messages_total, b.metrics.messages_total);
  EXPECT_EQ(a.metrics.words_total, b.metrics.words_total);
  EXPECT_EQ(a.metrics.messages_per_round, b.metrics.messages_per_round);
  EXPECT_EQ(a.metrics.messages_per_node, b.metrics.messages_per_node);
  EXPECT_EQ(a.logs, b.logs);
}

TEST(ParallelNetwork, BitIdenticalAcrossThreadCountsOnEveryFamily) {
  // The determinism suite: dense (ER), sparse (tree) and skewed
  // (power-law) families, each run at 1, 2 and 8 lanes — RunStats, Metrics
  // and every per-node delivery log must be bit-identical throughout.
  util::Xoshiro256 dense_rng(123), sparse_rng(124), skew_rng(125);
  const Graph dense = graph::erdos_renyi_gnm(97, 400, dense_rng);  // odd n
  const Graph sparse = graph::random_tree(101, sparse_rng);
  const Graph skewed = graph::barabasi_albert(90, 6, skew_rng);
  for (const Graph* g : {&dense, &sparse, &skewed}) {
    const auto seq = run_chatter(*g, {1});
    EXPECT_GT(seq.stats.messages, 0u);
    for (const unsigned threads : {2u, 8u})
      expect_identical(seq, run_chatter(*g, {threads}));
  }
}

TEST(ParallelNetwork, ChatterMatchesPinnedGoldenTrace) {
  // Golden-trace anchor (formerly the flat-vs-legacy A/B): the sequential
  // chatter run on the dense graph, hashed event by event. The thread-
  // count matrix above proves every configuration equals the sequential
  // run; this hash pins the sequential run itself to the behaviour the
  // deleted legacy engine certified.
  util::Xoshiro256 rng(123);
  const Graph g = graph::erdos_renyi_gnm(97, 400, rng);
  const auto seq = run_chatter(g, {1});
  testing::TraceHash h;
  h.u64(seq.stats.rounds).u64(seq.stats.messages);
  h.u64(seq.metrics.words_total);
  for (const auto c : seq.metrics.messages_per_round) h.u64(c);
  for (const auto c : seq.metrics.messages_per_node) h.u64(c);
  for (const auto& log : seq.logs) {
    h.u64(log.size());
    for (const auto& [round, from, edge, payload] : log)
      h.u64(round).u64(from).u64(edge).u64(payload);
  }
  EXPECT_EQ(h.value(), 0xb76783e3caeb7eb4ull)
      << "chatter golden trace moved: 0x" << std::hex << h.value();
}

TEST(ParallelNetwork, MoreThreadsThanNodes) {
  const Graph g = graph::ring(5);
  const auto seq = run_chatter(g, {1});
  const auto par = run_chatter(g, {8});
  expect_identical(seq, par);
}

/// A program that never sends: every round is an empty round.
class Silent final : public NodeProgram {
 public:
  explicit Silent(NodeId) {}
  void on_start(Context&) override {}
  void on_round(Context&, InboxView) override {}
  bool done() const override { return true; }
};

TEST(ParallelNetwork, EmptyRoundsTerminateUnderEveryThreadCount) {
  const Graph g = graph::ring(12);
  for (const unsigned threads : {1u, 2u, 8u}) {
    Network net(g, Knowledge::EdgeIds, 1);
    net.set_parallelism({threads});
    net.install_all<Silent>();
    const RunStats stats = net.run(10);
    EXPECT_TRUE(stats.terminated);
    EXPECT_EQ(stats.messages, 0u);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_TRUE(net.inbox_span(v).empty());
  }
}

/// Node 0 sends four numbered payloads over the single edge in round 0.
class Burst final : public NodeProgram {
 public:
  explicit Burst(NodeId self) : self_(self) {}
  std::vector<unsigned> got;

  void on_start(Context& ctx) override {
    if (self_ == 0)
      for (unsigned i = 1; i <= 4; ++i) ctx.send(ctx.incident_edges()[0], i);
  }
  void on_round(Context&, InboxView inbox) override {
    for (const auto& m : inbox) got.push_back(payload_as<unsigned>(m));
  }
  bool done() const override { return true; }

 private:
  NodeId self_;
};

TEST(ParallelNetwork, PreRunSendsSurviveLaneRepartition) {
  // A Context constructed before the run (two-argument form) must keep
  // working: its sends land in lane 0 and are delivered in the first
  // round together with the on_start sends, under any thread count.
  const Graph g = graph::path(2);
  for (const unsigned threads : {1u, 8u}) {
    Network net(g, Knowledge::EdgeIds, 1);
    net.set_parallelism({threads});
    net.install_all<Burst>();  // node 0 sends 1..4 in on_start
    Context pre(net, 1);
    pre.send(pre.incident_edges()[0], unsigned{99});
    const RunStats stats = net.run(5);
    EXPECT_TRUE(stats.terminated);
    EXPECT_EQ(stats.messages, 5u);
    EXPECT_EQ(net.program_as<Burst>(0).got, (std::vector<unsigned>{99}));
    EXPECT_EQ(net.program_as<Burst>(1).got,
              (std::vector<unsigned>{1, 2, 3, 4}));
  }
}

TEST(ParallelNetwork, ParallelismLockedOnceStarted) {
  const Graph g = graph::ring(4);
  Network net(g, Knowledge::EdgeIds, 1);
  net.set_parallelism({4});
  net.install_all<Silent>();
  net.run(5);
  EXPECT_THROW(net.set_parallelism({2}), util::ContractViolation);
}

TEST(ParallelNetwork, ContractViolationsSurfaceFromWorkerLanes) {
  // A program that sends over a foreign edge must throw out of run() even
  // when the offending node is stepped on a worker thread.
  Graph::Builder b(8);
  for (NodeId v = 0; v + 1 < 8; ++v) b.add_edge(v, v + 1);
  const EdgeId far = 0;  // edge 0-1; node 7 is not an endpoint
  const Graph g = std::move(b).build();
  Network net(g, Knowledge::EdgeIds, 1);
  net.set_parallelism({8});
  net.install([far](NodeId v) {
    class P final : public NodeProgram {
     public:
      P(NodeId self, EdgeId e) : self_(self), e_(e) {}
      void on_start(Context& ctx) override {
        if (self_ == 7) ctx.send(e_, 1);
      }
      void on_round(Context&, InboxView) override {}
      bool done() const override { return true; }

     private:
      NodeId self_;
      EdgeId e_;
    };
    return std::make_unique<P>(v, far);
  });
  EXPECT_THROW(net.run(5), util::ContractViolation);
}

// ------------------------------------- protocol outputs across threads

TEST(ParallelProtocols, SpannerEdgesInvariantUnderThreads) {
  util::Xoshiro256 rng(5);
  const Graph g = graph::erdos_renyi_gnm(120, 600, rng);
  const auto cfg = core::SamplerConfig::bench_profile(2, 2, 7);

  auto run_with_threads = [&](unsigned threads) {
    // run_distributed_sampler builds its Network internally; the engine
    // picks up FL_SIM_THREADS at construction, so thread the knob through
    // the environment exactly as a user would.
    const EnvGuard env("FL_SIM_THREADS", std::to_string(threads));
    return core::run_distributed_sampler(g, cfg);
  };

  const auto seq = run_with_threads(1);
  EXPECT_FALSE(seq.edges.empty());
  for (const unsigned threads : {2u, 8u}) {
    const auto par = run_with_threads(threads);
    EXPECT_EQ(seq.edges, par.edges);
    EXPECT_EQ(seq.stats.rounds, par.stats.rounds);
    EXPECT_EQ(seq.stats.messages, par.stats.messages);
    EXPECT_EQ(seq.metrics.messages_per_node, par.metrics.messages_per_node);
    EXPECT_EQ(seq.breakdown.total(), par.breakdown.total());
  }
}

TEST(ParallelProtocols, BroadcastResultsInvariantUnderThreads) {
  util::Xoshiro256 rng(17);
  const Graph g = graph::erdos_renyi_gnm(80, 240, rng);
  const auto edges = localsim::all_edges(g);

  auto run_with_threads = [&](unsigned threads) {
    const EnvGuard env("FL_SIM_THREADS", std::to_string(threads));
    return localsim::run_tlocal_broadcast(g, edges, 3, 9);
  };

  const auto seq = run_with_threads(1);
  for (const unsigned threads : {2u, 8u}) {
    const auto par = run_with_threads(threads);
    EXPECT_EQ(seq.reached, par.reached);
    EXPECT_EQ(seq.stats.rounds, par.stats.rounds);
    EXPECT_EQ(seq.stats.messages, par.stats.messages);
  }
}

TEST(ParallelNetwork, StepInterleavingMatchesSequential) {
  // Layered protocols drive the network through step(); the parallel
  // engine must keep partial-run state identical too.
  util::Xoshiro256 rng(31);
  const Graph g = graph::erdos_renyi_gnm(50, 150, rng);

  auto run_stepped = [&](unsigned threads) {
    Network net(g, Knowledge::EdgeIds, 3);
    net.set_parallelism({threads});
    net.install_all<ChatterProbe>(6u);
    net.step(4);
    net.step(4);
    const auto rounds_mid = net.round();
    net.run(60);
    std::vector<std::vector<std::tuple<std::size_t, NodeId, EdgeId,
                                       std::uint64_t>>> logs;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      logs.push_back(net.program_as<ChatterProbe>(v).heard);
    return std::tuple{rounds_mid, net.metrics().messages_total,
                      std::move(logs)};
  };

  EXPECT_EQ(run_stepped(1), run_stepped(8));
}

}  // namespace
}  // namespace fl::sim
