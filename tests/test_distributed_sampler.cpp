// Tests for the distributed Sampler (paper Section 5).
//
// The distributed run must (a) produce a spanner with the Theorem 9 / Lemma
// 10 guarantees, (b) finish within its precomputed O(3^k h) schedule, and
// (c) send Õ(n^{1+δ+ε}) messages independent of |E| — all verified against
// the simulator's own metering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "core/sampler.hpp"
#include "env_guard.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "sim/congest.hpp"
#include "trace_hash.hpp"
#include "util/rng.hpp"

namespace fl {
namespace {

using core::SamplerConfig;
using core::Schedule;
using graph::Graph;
using testing::EnvGuard;

TEST(Schedule, RoundBoundMatchesTheorem11) {
  // Schedule length must be O(3^k · h): concretely it is
  // sum_j [3W_j + 2h(3W_j + 2) + (4W_j + 4)] with W_j = 3^j − 1.
  for (unsigned k = 1; k <= 4; ++k) {
    for (unsigned h = 1; h <= 6; ++h) {
      const auto cfg = SamplerConfig::bench_profile(k, h, 1);
      const auto sched = Schedule::build(cfg);
      const double bound = 40.0 * SamplerConfig::pow3(k) * h;
      EXPECT_LE(static_cast<double>(sched.total_rounds), bound)
          << "k=" << k << " h=" << h;
      EXPECT_FALSE(sched.phases.empty());
      // Phases tile the timeline without gaps or overlaps.
      std::size_t cursor = 0;
      for (const auto& p : sched.phases) {
        EXPECT_EQ(p.start, cursor);
        cursor += p.length;
      }
      EXPECT_EQ(cursor, sched.total_rounds);
    }
  }
}

TEST(DistributedSampler, TerminatesWithinSchedule) {
  util::Xoshiro256 rng(3);
  const Graph g = graph::erdos_renyi_gnm(200, 1200, rng);
  auto cfg = SamplerConfig::paper_faithful(2, 2, 17);
  // This test is about the *fixed timetable's* round bound; pin plain
  // LOCAL delivery so an ambient FL_SIM_CONGEST cannot flip the run to
  // event-driven barriers (whose round count is graph-dependent).
  cfg.congest = sim::CongestConfig{};
  const auto run = core::run_distributed_sampler(g, cfg);
  EXPECT_TRUE(run.stats.terminated);
  const auto sched = Schedule::build(cfg);
  EXPECT_LE(run.stats.rounds, sched.total_rounds + 4);
}

TEST(DistributedSampler, SpannerValidAndConnected) {
  util::Xoshiro256 rng(5);
  const Graph g = graph::erdos_renyi_gnm(250, 2000, rng);
  const auto run =
      core::run_distributed_sampler(g, SamplerConfig::paper_faithful(2, 2, 23));
  EXPECT_TRUE(graph::is_valid_edge_subset(g, run.edges));
  const graph::SubgraphView h(g, run.edges);
  EXPECT_TRUE(h.preserves_connectivity());
}

TEST(DistributedSampler, StretchWithinTheorem9Bound) {
  util::Xoshiro256 rng(7);
  for (unsigned k = 1; k <= 2; ++k) {
    const Graph g = graph::erdos_renyi_gnm(180, 1400, rng);
    const auto cfg = SamplerConfig::paper_faithful(k, 2, 31 + k);
    const auto run = core::run_distributed_sampler(g, cfg);
    const auto rep =
        graph::check_spanner_exact(g, run.edges, cfg.stretch_bound());
    EXPECT_TRUE(rep.connected) << "k=" << k;
    EXPECT_EQ(rep.violations, 0u)
        << "k=" << k << " max " << rep.max_edge_stretch;
  }
}

TEST(DistributedSampler, StretchOnStructuredTopologies) {
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 41);
  for (const Graph& g : {graph::grid(12, 12), graph::hypercube(7),
                         graph::torus(10, 10), graph::dumbbell(100, 8)}) {
    const auto run = core::run_distributed_sampler(g, cfg);
    const auto rep =
        graph::check_spanner_exact(g, run.edges, cfg.stretch_bound());
    EXPECT_TRUE(rep.connected) << g.summary();
    EXPECT_EQ(rep.violations, 0u) << g.summary();
  }
}

TEST(DistributedSampler, AgreesWithCentralizedOnGuarantees) {
  // Not bit-identical (sampling is distributed-binomial vs multinomial) but
  // both must deliver the same guarantees and similar sizes.
  util::Xoshiro256 rng(11);
  const Graph g = graph::erdos_renyi_gnm(300, 2500, rng);
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 53);
  const auto central = core::build_spanner(g, cfg);
  const auto dist = core::run_distributed_sampler(g, cfg);
  const double ratio = static_cast<double>(dist.edges.size()) /
                       static_cast<double>(central.edges.size());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(DistributedSampler, DeterministicGivenSeed) {
  util::Xoshiro256 rng(13);
  const Graph g = graph::erdos_renyi_gnm(150, 900, rng);
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 61);
  const auto a = core::run_distributed_sampler(g, cfg);
  const auto b = core::run_distributed_sampler(g, cfg);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

TEST(DistributedSampler, MessageCountSublinearInDensity) {
  // The headline free-lunch property, now with *real* messages: density
  // x32 must not cost anywhere near x32 messages.
  util::Xoshiro256 rng(17);
  const graph::NodeId n = 512;
  const Graph sparse = graph::erdos_renyi_gnm(n, 8 * n, rng);
  const Graph dense = graph::complete(n);
  const auto cfg = SamplerConfig::bench_profile(2, 3, 71);
  const auto rs = core::run_distributed_sampler(sparse, cfg);
  const auto rd = core::run_distributed_sampler(dense, cfg);
  const double density_ratio = static_cast<double>(dense.num_edges()) /
                               static_cast<double>(sparse.num_edges());
  const double msg_ratio = static_cast<double>(rd.stats.messages) /
                           static_cast<double>(rs.stats.messages);
  EXPECT_LT(msg_ratio, 0.5 * density_ratio);
}

TEST(DistributedSampler, RoundsIndependentOfGraph) {
  // Round complexity depends only on (k, h) — identical schedules, so
  // near-identical round counts across very different graphs. A fixed-
  // timetable property: pin LOCAL delivery (under a budget the adaptive
  // barrier makes rounds a function of actual traffic, hence the graph).
  auto cfg = SamplerConfig::paper_faithful(2, 2, 73);
  cfg.congest = sim::CongestConfig{};
  util::Xoshiro256 rng(19);
  const auto r1 = core::run_distributed_sampler(graph::ring(100), cfg);
  const auto r2 = core::run_distributed_sampler(graph::complete(100), cfg);
  const auto r3 = core::run_distributed_sampler(
      graph::erdos_renyi_gnm(100, 2000, rng), cfg);
  EXPECT_LE(r1.stats.rounds, r2.stats.rounds + 4);
  EXPECT_GE(r1.stats.rounds + 4, r2.stats.rounds);
  EXPECT_LE(r2.stats.rounds, r3.stats.rounds + 4);
  EXPECT_GE(r2.stats.rounds + 4, r3.stats.rounds);
}

TEST(DistributedSampler, BreakdownAccountsForEveryMessage) {
  util::Xoshiro256 rng(101);
  const Graph g = graph::erdos_renyi_gnm(200, 1600, rng);
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 103);
  const auto run = core::run_distributed_sampler(g, cfg);
  EXPECT_EQ(run.breakdown.total(), run.stats.messages);
  EXPECT_GT(run.breakdown.queries, 0u);
  EXPECT_GT(run.breakdown.tree_sessions, 0u);
}

TEST(DistributedSampler, LevelDiagnosticsConsistent) {
  util::Xoshiro256 rng(23);
  const Graph g = graph::erdos_renyi_gnm(300, 3000, rng);
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 83);
  const auto run = core::run_distributed_sampler(g, cfg);
  ASSERT_EQ(run.levels.size(), cfg.k + 1);
  EXPECT_EQ(run.levels[0].virtual_nodes, g.num_nodes());
  for (unsigned j = 0; j + 1 <= cfg.k; ++j) {
    const auto& lt = run.levels[j];
    EXPECT_EQ(lt.light + lt.heavy + lt.neither, lt.virtual_nodes)
        << "level " << j;
    EXPECT_EQ(run.levels[j + 1].virtual_nodes, lt.centers) << "level " << j;
  }
}

TEST(DistributedSampler, PaperConstantsLeaveNoNeitherNode) {
  // With the paper's constants on a clique, every trial's sampling rate
  // makes each cluster Light or Heavy. A Neither node here means an edge
  // never left the querier's pool: a reply whose boundary list lacks the
  // edge it arrived over (the responder had already peeled it) must still
  // take that edge out of the querier's pool, or it is queried again in
  // every trial and the pool never empties.
  const Graph g = graph::complete(64);
  for (const unsigned k : {1u, 2u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      auto cfg = SamplerConfig::paper_faithful(k, 2, seed);
      cfg.congest = sim::CongestConfig{};  // LOCAL, whatever the env says
      const auto run = core::run_distributed_sampler(g, cfg);
      for (const auto& lt : run.levels)
        EXPECT_EQ(lt.neither, 0u)
            << "k=" << k << " seed=" << seed << " level " << lt.level;
    }
  }
}

TEST(DistributedSampler, WorksOnTrees) {
  util::Xoshiro256 rng(29);
  const Graph g = graph::random_tree(120, rng);
  const auto cfg = SamplerConfig::paper_faithful(2, 2, 89);
  const auto run = core::run_distributed_sampler(g, cfg);
  // A tree's only spanner preserving connectivity is the tree itself.
  EXPECT_EQ(run.edges.size(), g.num_edges());
}

class DistributedFamilySweep : public ::testing::TestWithParam<graph::Family> {};

TEST_P(DistributedFamilySweep, GuaranteesHoldPerFamily) {
  util::Xoshiro256 rng(733);
  const Graph g = graph::make_family(GetParam(), 130, 0.0, rng);
  const auto cfg = SamplerConfig::paper_faithful(1, 2, 737);
  const auto run = core::run_distributed_sampler(g, cfg);
  EXPECT_TRUE(run.stats.terminated);
  ASSERT_TRUE(graph::is_valid_edge_subset(g, run.edges));
  const auto rep = graph::check_spanner_exact(g, run.edges, run.stretch_bound);
  EXPECT_TRUE(rep.connected) << graph::family_name(GetParam());
  EXPECT_EQ(rep.violations, 0u) << graph::family_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributedFamilySweep,
    ::testing::ValuesIn(graph::all_families()),
    [](const ::testing::TestParamInfo<graph::Family>& info) {
      return graph::family_name(info.param);
    });

/// FNV-1a over everything a distributed run reports as a model field: the
/// spanner, rounds/messages/words, the role breakdown and the per-level
/// diagnostics.
std::uint64_t run_fingerprint(const core::DistributedSpannerRun& run) {
  testing::TraceHash h;
  h.u64(run.edges.size());
  for (const auto e : run.edges) h.u64(e);
  h.u64(run.stats.terminated ? 1 : 0)
      .u64(run.stats.rounds)
      .u64(run.stats.messages)
      .u64(run.metrics.words_total);
  h.u64(run.breakdown.queries)
      .u64(run.breakdown.tree_sessions)
      .u64(run.breakdown.center)
      .u64(run.breakdown.control);
  h.u64(run.levels.size());
  for (const auto& lt : run.levels) {
    h.u64(lt.level)
        .u64(lt.virtual_nodes)
        .u64(lt.virtual_edges)
        .u64(lt.light)
        .u64(lt.heavy)
        .u64(lt.neither)
        .u64(lt.centers)
        .u64(lt.clustered)
        .u64(lt.unclustered)
        .u64(lt.query_edges)
        .u64(lt.spanner_added)
        .u64(lt.trials_run_total);
    h.u64(lt.cluster_of.size());
    for (const auto c : lt.cluster_of) h.u64(c);
    h.u64(lt.representative.size());
    for (const auto r : lt.representative) h.u64(r);
  }
  return h.value();
}

TEST(DistributedSampler, OutputFingerprintPinned) {
  // Bit-for-bit anchor of the Sampler's observable output. Speed-ups of
  // the protocol's step code (peeling, tree bookkeeping) must leave every
  // value below unchanged; a moved hash means the protocol now builds a
  // different spanner or sends different traffic. Each constant folds one
  // (graph, budget) row over k×h and lane count; the lane count must not
  // matter, so 1 and 4 lanes fold the same value twice. The budget picks
  // the phase barrier: LOCAL runs the fixed timetable, budgets 2 and 8 run
  // event-driven barriers.
  util::Xoshiro256 rng(211);
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"K_40", graph::complete(40)},
      {"ER_120", graph::erdos_renyi_gnm(120, 900, rng)},
      {"tree_90", graph::random_tree(90, rng)},
      {"path_2", graph::path(2)},
      {"ring_3", graph::ring(3)},
  };
  // 0 = plain LOCAL (pinned, so an ambient FL_SIM_CONGEST cannot leak in).
  const std::uint64_t budgets[] = {0, 2, 8};
  const std::vector<std::pair<unsigned, unsigned>> kh = {{1, 2}, {2, 2}};
  // Graphs this small admit only k = h = 1 (k <= log log n, h <= log n).
  const std::vector<std::pair<unsigned, unsigned>> kh_tiny = {{1, 1}};
  // Rows follow `graphs`; columns are the budgets LOCAL, 2 and 8 words.
  const std::uint64_t want[5][3] = {
      {0xc170e52459bb8029ull, 0xd73d3b87158dab55ull, 0x3b318c2c1735b48dull},
      {0x8c382dd0970d751dull, 0x8d0979ea3996d5f5ull, 0xf557f873ac502d49ull},
      {0xa0815743a97ac4b9ull, 0x993837c1fcd0571dull, 0xcd750454c111dca1ull},
      {0xb8fe8e8dd57dff01ull, 0xe4e84377a9e1a715ull, 0x49d9319d179fb8e1ull},
      {0x5f930029372fc9a9ull, 0x4a4656ace343d281ull, 0x38600917aa02bf15ull},
  };
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const auto& [name, g] = graphs[gi];
    for (std::size_t bi = 0; bi < 3; ++bi) {
      const std::uint64_t budget = budgets[bi];
      testing::TraceHash row;
      for (const auto& [k, h] : g.num_nodes() < 8 ? kh_tiny : kh) {
        auto cfg = SamplerConfig::bench_profile(k, h, 1000 + 10 * k + h);
        cfg.congest =
            budget == 0
                ? sim::CongestConfig{}
                : sim::CongestConfig{budget, sim::CongestPolicy::Defer};
        std::optional<std::uint64_t> first;
        for (const unsigned lanes : {1u, 4u}) {
          const EnvGuard env("FL_SIM_THREADS", std::to_string(lanes));
          const auto run = core::run_distributed_sampler(g, cfg);
          const std::uint64_t fp = run_fingerprint(run);
          const std::string at =
              name + " budget=" + std::to_string(budget) +
              " k=" + std::to_string(k) + " h=" + std::to_string(h) +
              " lanes=" + std::to_string(lanes);
          ASSERT_TRUE(run.stats.terminated) << at;
          if (first) {
            EXPECT_EQ(fp, *first) << at;
          } else {
            first = fp;
          }
          row.u64(fp);
        }
      }
      EXPECT_EQ(row.value(), want[gi][bi])
          << name << " budget=" << budget << " got 0x" << std::hex
          << row.value();
    }
  }
}

TEST(DistributedSampler, WorksOnTinyGraphs) {
  const auto cfg = SamplerConfig::paper_faithful(1, 1, 97);
  const Graph g = graph::path(2);
  const auto run = core::run_distributed_sampler(g, cfg);
  EXPECT_EQ(run.edges.size(), 1u);
  const Graph tri = graph::ring(3);
  const auto run3 = core::run_distributed_sampler(tri, cfg);
  EXPECT_GE(run3.edges.size(), 2u);
}

// --------------------------------------------------- peel kernel fuzzing

using core::detail::kNoSlot;
using graph::EdgeId;

/// The per-list-element member peel the kernel replaced: look every listed
/// edge up among the incident edges and swap-remove its slot.
void reference_peel(const std::vector<EdgeId>& inc,
                    std::vector<std::size_t>& pool,
                    std::vector<std::size_t>& pool_pos,
                    const std::vector<EdgeId>& list) {
  for (const EdgeId e : list) {
    const auto it = std::lower_bound(inc.begin(), inc.end(), e);
    if (it == inc.end() || *it != e) continue;
    const auto s = static_cast<std::size_t>(it - inc.begin());
    const std::size_t p = pool_pos[s];
    if (p == kNoSlot) continue;
    const std::size_t last = pool.back();
    pool[p] = last;
    pool_pos[last] = p;
    pool.pop_back();
    pool_pos[s] = kNoSlot;
  }
}

/// Sorted, duplicate-free sample of `universe`, each element kept with
/// probability `p`.
std::vector<EdgeId> sorted_sample(const std::vector<EdgeId>& universe,
                                  double p, util::Xoshiro256& rng) {
  std::vector<EdgeId> out;
  for (const EdgeId e : universe)
    if (rng.bernoulli(p)) out.push_back(e);
  return out;
}

struct PeelCase {
  std::vector<EdgeId> inc;
  std::vector<std::size_t> pool;
  std::vector<std::size_t> pool_pos;
  std::vector<EdgeId> list;
};

/// A node's `deg` incident edges drawn from 0..4·deg, a pool shuffled by a
/// random history of swap-removes (as the protocol leaves it), and a list
/// mixing incident and foreign edges at the given densities.
PeelCase random_case(std::size_t deg, double keep, double list_inc,
                     double list_foreign, util::Xoshiro256& rng) {
  std::vector<EdgeId> universe(4 * deg + 1);
  for (std::size_t i = 0; i < universe.size(); ++i)
    universe[i] = static_cast<EdgeId>(i);
  PeelCase c;
  while (c.inc.size() < deg) c.inc = sorted_sample(universe, 0.25, rng);
  c.inc.resize(deg);
  c.pool_pos.assign(deg, kNoSlot);
  for (std::size_t s = 0; s < deg; ++s) {
    c.pool_pos[s] = c.pool.size();
    c.pool.push_back(s);
  }
  std::vector<EdgeId> drop;
  for (const EdgeId e : c.inc)
    if (!rng.bernoulli(keep)) drop.push_back(e);
  util::shuffle(drop, rng);
  for (const EdgeId e : drop) reference_peel(c.inc, c.pool, c.pool_pos, {e});
  std::vector<EdgeId> foreign;
  std::set_difference(universe.begin(), universe.end(), c.inc.begin(),
                      c.inc.end(), std::back_inserter(foreign));
  const auto a = sorted_sample(c.inc, list_inc, rng);
  const auto b = sorted_sample(foreign, list_foreign, rng);
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(c.list));
  return c;
}

void expect_peel_matches_reference(const PeelCase& c, const std::string& at) {
  auto want = c;
  reference_peel(want.inc, want.pool, want.pool_pos, want.list);
  auto got = c;
  core::detail::peel_sorted(got.inc, got.pool, got.pool_pos, got.list);
  // Element for element, in order: query sampling indexes the pool by
  // position, so the same set in another order is a different protocol.
  EXPECT_EQ(got.pool, want.pool) << at;
  EXPECT_EQ(got.pool_pos, want.pool_pos) << at;
}

void expect_erase_matches_set_difference(const std::vector<EdgeId>& pool,
                                         const std::vector<EdgeId>& list,
                                         const std::string& at) {
  std::vector<EdgeId> want;
  std::set_difference(pool.begin(), pool.end(), list.begin(), list.end(),
                      std::back_inserter(want));
  auto got = pool;
  core::detail::erase_sorted(got, list);
  EXPECT_EQ(got, want) << at;
}

TEST(PeelKernel, MemberPeelMatchesPerElementLoop) {
  util::Xoshiro256 rng(4049);
  // (deg, pool keep rate, listed share of incident edges, foreign density)
  // spanning list << pool, list ~ pool and list >> pool.
  const struct {
    std::size_t deg;
    double keep, list_inc, list_foreign;
  } shapes[] = {
      {1, 1.0, 1.0, 0.0},    {2, 0.5, 0.5, 0.5},   {16, 1.0, 0.1, 0.0},
      {16, 0.2, 0.9, 1.0},   {64, 0.9, 0.5, 0.05}, {64, 0.05, 0.5, 0.9},
      {200, 0.5, 0.02, 0.0}, {200, 0.02, 1.0, 1.0}, {500, 0.7, 0.3, 0.3},
  };
  for (int rep = 0; rep < 40; ++rep) {
    for (const auto& sh : shapes) {
      const auto c =
          random_case(sh.deg, sh.keep, sh.list_inc, sh.list_foreign, rng);
      expect_peel_matches_reference(
          c, "deg=" + std::to_string(sh.deg) + " rep=" + std::to_string(rep) +
                 " pool=" + std::to_string(c.pool.size()) +
                 " list=" + std::to_string(c.list.size()));
    }
  }
}

TEST(PeelKernel, MemberPeelEdgeCases) {
  util::Xoshiro256 rng(4051);
  auto c = random_case(50, 0.6, 0.0, 0.0, rng);
  // Empty list; empty pool; identical (list = every incident edge); list
  // disjoint from the incident edges, shorter and longer than the pool.
  expect_peel_matches_reference(c, "empty list");
  auto empty_pool = c;
  empty_pool.pool.clear();
  std::fill(empty_pool.pool_pos.begin(), empty_pool.pool_pos.end(), kNoSlot);
  empty_pool.list = empty_pool.inc;
  expect_peel_matches_reference(empty_pool, "empty pool");
  auto identical = c;
  identical.list = identical.inc;
  expect_peel_matches_reference(identical, "identical");
  for (const std::size_t len : {std::size_t{3}, std::size_t{1000}}) {
    auto disjoint = c;
    for (std::size_t i = 0; i < len; ++i)
      disjoint.list.push_back(static_cast<EdgeId>(10'000 + 2 * i));
    expect_peel_matches_reference(disjoint,
                                  "disjoint len=" + std::to_string(len));
  }
  // Only the smallest and only the largest incident edge.
  for (const EdgeId e : {c.inc.front(), c.inc.back()}) {
    auto one = c;
    one.list = {e};
    expect_peel_matches_reference(one, "single edge " + std::to_string(e));
  }
}

TEST(PeelKernel, RootEraseMatchesSetDifference) {
  util::Xoshiro256 rng(4057);
  std::vector<EdgeId> universe(3000);
  for (std::size_t i = 0; i < universe.size(); ++i)
    universe[i] = static_cast<EdgeId>(i);
  const double densities[] = {0.0, 0.001, 0.01, 0.1, 0.5, 1.0};
  for (int rep = 0; rep < 10; ++rep) {
    for (const double pd : densities) {
      for (const double ld : densities) {
        const auto pool = sorted_sample(universe, pd, rng);
        const auto list = sorted_sample(universe, ld, rng);
        expect_erase_matches_set_difference(
            pool, list,
            "pool=" + std::to_string(pool.size()) +
                " list=" + std::to_string(list.size()));
        // A list that is a subset of the pool, and the pool itself.
        expect_erase_matches_set_difference(
            pool, sorted_sample(pool, 0.3, rng), "subset");
        expect_erase_matches_set_difference(pool, pool, "identical");
      }
    }
  }
  expect_erase_matches_set_difference({}, {1, 2}, "empty pool");
  expect_erase_matches_set_difference({1, 2}, {}, "empty list");
  expect_erase_matches_set_difference({1, 2}, {0, 3}, "disjoint, outside");
  expect_erase_matches_set_difference({1, 5}, {2, 3, 4}, "disjoint, inside");
  expect_erase_matches_set_difference({1, 2, 3}, {1}, "first");
  expect_erase_matches_set_difference({1, 2, 3}, {3}, "last");
}

}  // namespace
}  // namespace fl
