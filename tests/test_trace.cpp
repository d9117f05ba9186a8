// Tests for the fl::obs tracing / profiling layer and its cardinal
// contract (docs/CONTRACTS.md C12): tracing is observational. The pinned
// golden delivery hash from test_sim.cpp is recomputed here with span
// recording live — any value drift means a timing readback leaked into
// the model. Also covered: RoundProfile model fields across thread counts
// and congest modes, SpanRing overflow, LogHistogram bucket geometry, the
// FL_SIM_TRACE probe, and both export formats.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "env_guard.hpp"
#include "graph/generators.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "trace_hash.hpp"
#include "util/assert.hpp"
#include "util/histogram.hpp"

namespace fl::obs {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::NodeId;
using sim::Context;
using sim::InboxView;
using sim::Knowledge;
using sim::Metrics;
using sim::Network;
using sim::NodeProgram;
using sim::RunStats;
using testing::EnvGuard;

/// Collect-only tracing: spans and profiles stay queryable in memory,
/// finalize() writes nothing (empty path).
TraceConfig collect_only(TraceLevel level = TraceLevel::Spans) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.level = level;
  return cfg;
}

/// The exact probe from test_sim.cpp's NetworkGoldenTrace scenario, so
/// this file can recompute the same pinned hash with tracing on.
class PartitionProbe final : public NodeProgram {
 public:
  PartitionProbe(NodeId self, unsigned active) : self_(self), active_(active) {}

  std::vector<std::tuple<std::size_t, NodeId, EdgeId>> heard;

  void on_start(Context& ctx) override { maybe_send(ctx); }

  void on_round(Context& ctx, InboxView inbox) override {
    for (const auto& m : inbox) heard.emplace_back(ctx.round(), m.from(), m.edge());
    maybe_send(ctx);
  }

  bool done() const override { return true; }

 private:
  void maybe_send(Context& ctx) {
    if (ctx.round() >= active_) return;
    if ((ctx.round() + self_) % 3 != 0) return;
    for (const EdgeId e : ctx.incident_edges()) ctx.send(e, self_);
  }

  NodeId self_;
  unsigned active_;
};

Graph golden_graph() {
  util::Xoshiro256 rng(99);
  return graph::erdos_renyi_gnm(40, 120, rng);
}

std::uint64_t golden_hash(Network& net, const Graph& g, const RunStats& stats) {
  const Metrics& m = net.metrics();
  testing::TraceHash h;
  h.u64(stats.rounds).u64(stats.messages).u64(m.words_total);
  for (const auto c : m.messages_per_round) h.u64(c);
  for (const auto c : m.messages_per_node) h.u64(c);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& heard = net.program_as<PartitionProbe>(v).heard;
    h.u64(heard.size());
    for (const auto& [round, from, edge] : heard)
      h.u64(round).u64(from).u64(edge);
  }
  return h.value();
}

/// The same pinned value test_sim.cpp anchors the untraced engine to.
constexpr std::uint64_t kGoldenDeliveryHash = 0x6e95c71d1844b722ull;

// ------------------------------------------------------------ neutrality

TEST(TraceNeutrality, GoldenTraceUnchangedWithSpansLive) {
  const Graph g = golden_graph();
  for (const unsigned threads : {1u, 8u}) {
    Network net(g, Knowledge::EdgeIds, 5);
    net.set_parallelism({threads});
    net.set_trace(collect_only(TraceLevel::Spans));
    net.install_all<PartitionProbe>(6u);
    const RunStats stats = net.run(50);
    EXPECT_TRUE(stats.terminated);
    EXPECT_EQ(golden_hash(net, g, stats), kGoldenDeliveryHash)
        << "tracing changed the delivery golden trace at " << threads
        << " lanes — C12 is broken";
    // The spans really were recorded — this is not a vacuous pass.
    ASSERT_NE(net.tracer(), nullptr);
    EXPECT_EQ(net.tracer()->ring_count(), std::size_t{1} + threads);
    std::uint64_t lane_spans = 0;
    for (std::size_t t = 1; t < net.tracer()->ring_count(); ++t)
      lane_spans += net.tracer()->ring(t).total();
    EXPECT_GT(lane_spans, 0u);
  }
}

TEST(TraceNeutrality, PlaneAllocationsUnchanged) {
  const Graph g = golden_graph();
  std::uint64_t allocations_off = 0;
  {
    Network net(g, Knowledge::EdgeIds, 5);
    net.set_parallelism({2});
    net.install_all<PartitionProbe>(6u);
    (void)net.run(50);
    allocations_off = net.debug_plane_allocations();
  }
  Network net(g, Knowledge::EdgeIds, 5);
  net.set_parallelism({2});
  net.set_trace(collect_only());
  net.install_all<PartitionProbe>(6u);
  (void)net.run(50);
  EXPECT_EQ(net.debug_plane_allocations(), allocations_off)
      << "tracing changed the engine's allocation schedule";
}

/// Model fields of the RoundProfile timeline are part of the simulation,
/// not of the wall clock: identical across thread counts, trace levels,
/// and (for this never-binding budget) congest on/off.
TEST(TraceNeutrality, ProfileModelFieldsThreadInvariant) {
  const Graph g = golden_graph();
  using ModelRow =
      std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
                 std::uint64_t>;
  auto run_model = [&](unsigned threads, TraceLevel level,
                       bool congest) -> std::vector<ModelRow> {
    Network net(g, Knowledge::EdgeIds, 5);
    net.set_parallelism({threads});
    if (congest)
      net.set_congest({.words_per_edge_per_round = 2,
                       .policy = sim::CongestPolicy::Defer});
    net.set_trace(collect_only(level));
    net.install_all<PartitionProbe>(6u);
    (void)net.run(200);
    std::vector<ModelRow> rows;
    for (const RoundProfile& p : net.profile())
      rows.emplace_back(p.round, p.messages, p.words, p.deferrals,
                        p.carry_depth);
    return rows;
  };
  for (const bool congest : {false, true}) {
    const auto base = run_model(1, TraceLevel::Spans, congest);
    ASSERT_FALSE(base.empty());
    EXPECT_EQ(run_model(2, TraceLevel::Spans, congest), base);
    EXPECT_EQ(run_model(8, TraceLevel::Spans, congest), base);
    EXPECT_EQ(run_model(8, TraceLevel::Profile, congest), base);
  }
}

TEST(TraceProfile, LaneBusyAndPhaseDataPresent) {
  const Graph g = golden_graph();
  Network net(g, Knowledge::EdgeIds, 5);
  net.set_parallelism({4});
  net.set_trace(collect_only());
  net.install_all<PartitionProbe>(6u);
  const RunStats stats = net.run(50);
  const auto profiles = net.profile();
  ASSERT_EQ(profiles.size(), stats.rounds);
  std::uint64_t total_busy = 0;
  for (const RoundProfile& p : profiles) {
    EXPECT_EQ(p.lane_busy_ns.size(), 4u);
    for (const std::uint64_t b : p.lane_busy_ns) total_busy += b;
    if (p.messages > 0) {
      EXPECT_GE(p.max_over_avg_busy, 1.0);
    }
  }
  EXPECT_GT(total_busy, 0u);
  // Histograms fill from the same run: one words-hist sample per message.
  ASSERT_NE(net.tracer(), nullptr);
  EXPECT_EQ(net.tracer()->message_words_hist().count(), stats.messages);
}

TEST(TraceProfile, ProfileLevelSkipsRingPushes) {
  const Graph g = golden_graph();
  Network net(g, Knowledge::EdgeIds, 5);
  net.set_parallelism({2});
  net.set_trace(collect_only(TraceLevel::Profile));
  net.install_all<PartitionProbe>(6u);
  (void)net.run(50);
  ASSERT_NE(net.tracer(), nullptr);
  for (std::size_t t = 0; t < net.tracer()->ring_count(); ++t)
    EXPECT_EQ(net.tracer()->ring(t).total(), 0u);
  EXPECT_FALSE(net.profile().empty());
}

// ------------------------------------------------------------ span ring

TEST(SpanRing, OverflowDropsOldestAndCounts) {
  SpanRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    SpanEvent e;
    e.begin_ns = i;
    e.end_ns = i + 1;
    ring.push(e);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<std::uint64_t> begins;
  ring.for_each([&](const SpanEvent& e) { begins.push_back(e.begin_ns); });
  EXPECT_EQ(begins, (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST(SpanRing, NoDropsBelowCapacity) {
  SpanRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) ring.push({});
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

// ------------------------------------------------------------ histogram

TEST(LogHistogram, BucketGeometry) {
  using H = util::LogHistogram;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(7), 3u);
  EXPECT_EQ(H::bucket_of(8), 4u);
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), H::kBuckets - 1);
  for (std::size_t b = 1; b + 1 < H::kBuckets; ++b) {
    EXPECT_EQ(H::bucket_of(H::bucket_lo(b)), b);
    EXPECT_EQ(H::bucket_of(H::bucket_hi(b)), b);
    EXPECT_EQ(H::bucket_hi(b) + 1, H::bucket_lo(b + 1));
  }
}

TEST(LogHistogram, CountsSumsAndExtrema) {
  util::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  h.add(5);
  h.add(0);
  h.add(1000, 3);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 5u + 0u + 3000u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket_count(util::LogHistogram::bucket_of(1000)), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 3005.0 / 5.0);
}

TEST(LogHistogram, MergeMatchesSequentialAdds) {
  util::LogHistogram a;
  util::LogHistogram b;
  util::LogHistogram both;
  for (const std::uint64_t v : {1u, 2u, 3u}) {
    a.add(v);
    both.add(v);
  }
  for (const std::uint64_t v : {100u, 200u}) {
    b.add(v);
    both.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  for (std::size_t bkt = 0; bkt < util::LogHistogram::kBuckets; ++bkt)
    EXPECT_EQ(a.bucket_count(bkt), both.bucket_count(bkt));
}

TEST(LogHistogram, QuantileBoundsAreBucketResolution) {
  util::LogHistogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.quantile_bound(0.0), util::LogHistogram::bucket_hi(
                                       util::LogHistogram::bucket_of(1)));
  // The p50 sample (rank 50) lives in bucket_of(50) = [32, 63].
  EXPECT_EQ(h.quantile_bound(0.5), 63u);
  EXPECT_EQ(h.quantile_bound(1.0), util::LogHistogram::bucket_hi(
                                       util::LogHistogram::bucket_of(100)));
  EXPECT_EQ(h.used_buckets(), util::LogHistogram::bucket_of(100) + 1);
}

// ------------------------------------------------------------ env probe

TEST(TraceConfigProbe, ParsesPathAndLevel) {
  const EnvGuard guard("FL_SIM_TRACE", "");
  unsetenv("FL_SIM_TRACE");
  EXPECT_FALSE(default_trace_config().enabled);

  setenv("FL_SIM_TRACE", "/tmp/t.json", 1);
  TraceConfig cfg = default_trace_config();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.path, "/tmp/t.json");
  EXPECT_EQ(cfg.level, TraceLevel::Spans);

  setenv("FL_SIM_TRACE", "/tmp/t.json:profile", 1);
  cfg = default_trace_config();
  EXPECT_EQ(cfg.path, "/tmp/t.json");
  EXPECT_EQ(cfg.level, TraceLevel::Profile);

  setenv("FL_SIM_TRACE", "/tmp/t.json:spans", 1);
  EXPECT_EQ(default_trace_config().level, TraceLevel::Spans);

  setenv("FL_SIM_TRACE", "/tmp/t.json:fast", 1);
  EXPECT_THROW(default_trace_config(), util::ContractViolation);
  setenv("FL_SIM_TRACE", ":spans", 1);
  EXPECT_THROW(default_trace_config(), util::ContractViolation);
}

// ------------------------------------------------------------ exporters

TEST(TraceExport, ChromeTraceAndProfileJsonlWellFormed) {
  const Graph g = golden_graph();
  const std::string path = ::testing::TempDir() + "fl_trace_export.json";
  RunStats stats;
  {
    Network net(g, Knowledge::EdgeIds, 5);
    net.set_parallelism({2});
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.path = path;
    net.set_trace(std::move(cfg));
    net.install_all<PartitionProbe>(6u);
    stats = net.run(50);
  }  // ~Network finalizes both artifacts

  std::ifstream chrome(path);
  ASSERT_TRUE(chrome.good()) << "Chrome trace artifact missing: " << path;
  std::stringstream buf;
  buf << chrome.rdbuf();
  const std::string text = buf.str();
  EXPECT_EQ(text.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);   // metadata
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);   // spans
  // Per-lane step spans: at least one in every round the run took.
  ASSERT_GT(stats.rounds, 0u);
  std::size_t step_lane_spans = 0;
  for (std::size_t at = text.find("\"step:lane\""); at != std::string::npos;
       at = text.find("\"step:lane\"", at + 1))
    ++step_lane_spans;
  EXPECT_GE(step_lane_spans, stats.rounds);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_EQ(text.back(), '\n');

  std::ifstream jsonl(path + ".jsonl");
  ASSERT_TRUE(jsonl.good()) << "profile JSONL artifact missing";
  std::size_t round_lines = 0;
  std::size_t hist_lines = 0;
  for (std::string line; std::getline(jsonl, line);) {
    if (line.rfind("{\"round\":", 0) == 0) ++round_lines;
    if (line.rfind("{\"histogram\":", 0) == 0) ++hist_lines;
  }
  EXPECT_GT(round_lines, 0u);
  EXPECT_EQ(hist_lines, 3u);  // message_words, edge_carry, node_sends

  std::remove(path.c_str());
  std::remove((path + ".jsonl").c_str());
}

TEST(TraceExport, CollectOnlyWritesNothingAndFinalizeIsIdempotent) {
  const Graph g = golden_graph();
  Network net(g, Knowledge::EdgeIds, 5);
  net.set_trace(collect_only());
  net.install_all<PartitionProbe>(6u);
  (void)net.run(50);
  ASSERT_NE(net.tracer(), nullptr);
  net.tracer()->finalize();
  EXPECT_TRUE(net.tracer()->finalized());
  net.tracer()->finalize();  // second call is a no-op, not a crash
  // The in-memory views survive finalize.
  EXPECT_FALSE(net.profile().empty());
}

/// A protocol driver opened through the public entry point shows up as a
/// named span on the engine track of the written trace.
TEST(TraceExport, ProtocolSpanLandsInArtifact) {
  const std::string path = ::testing::TempDir() + "fl_trace_protocol.json";
  {
    const EnvGuard guard("FL_SIM_TRACE", path);
    util::Xoshiro256 rng(7);
    const Graph g = graph::erdos_renyi_gnm(24, 60, rng);
    (void)localsim::run_tlocal_broadcast(g, localsim::all_edges(g), 3, 11);
  }  // the driver's Network died here and finalized the artifact

  std::ifstream chrome(path);
  ASSERT_TRUE(chrome.good());
  std::stringstream buf;
  buf << chrome.rdbuf();
  EXPECT_NE(buf.str().find("\"tlocal_broadcast\""), std::string::npos)
      << "protocol scope missing from the engine track";
  std::remove(path.c_str());
  std::remove((path + ".jsonl").c_str());
}

}  // namespace
}  // namespace fl::obs
