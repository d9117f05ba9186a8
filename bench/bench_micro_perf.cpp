// Micro timing benchmarks: wall-clock throughput of the main building
// blocks. These measure *our implementation's* speed, not the paper's model
// quantities — the model quantities live in bench_e1..e10.
//
// Two sections:
//   * a delivery-throughput sweep over the simulator's round engine —
//     sequential vs `--threads N` execution lanes, across dense, sparse
//     and skewed (power-law) graph families — run when any of the common
//     bench flags (--delivery, --json, --csv, --quick, --seed) is present;
//     --json emits the machine-readable record that the BENCH_*.json
//     trajectory tracking consumes;
//   * the google-benchmark suite of building-block timings, run otherwise
//     (all --benchmark_* flags pass through).
#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/baswana_sen.hpp"
#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "core/sampler.hpp"
#include "graph/algorithms.hpp"
#include "graph/spanner_check.hpp"
#include "graph/generators.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fl;

graph::Graph make_er(graph::NodeId n, std::size_t deg) {
  util::Xoshiro256 rng(42 + n);
  return graph::erdos_renyi_gnm(n, deg * n / 2, rng);
}

void BM_GraphBuild(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_er(n, 16));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n) * 8);
}
BENCHMARK(BM_GraphBuild)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Bfs(benchmark::State& state) {
  const auto g = make_er(static_cast<graph::NodeId>(state.range(0)), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_distances(g, 0));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Bfs)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SamplerCentralized(benchmark::State& state) {
  const auto g = make_er(static_cast<graph::NodeId>(state.range(0)), 16);
  const auto cfg = core::SamplerConfig::bench_profile(2, 3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_spanner(g, cfg));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_SamplerCentralized)->Arg(1024)->Arg(4096);

void BM_SamplerDistributed(benchmark::State& state) {
  const auto g = make_er(static_cast<graph::NodeId>(state.range(0)), 16);
  const auto cfg = core::SamplerConfig::bench_profile(2, 2, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_distributed_sampler(g, cfg));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_SamplerDistributed)->Arg(512)->Arg(1024);

void BM_BaswanaSenCentralized(benchmark::State& state) {
  const auto g = make_er(static_cast<graph::NodeId>(state.range(0)), 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::build_baswana_sen(g, 3, 11));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_BaswanaSenCentralized)->Arg(1024)->Arg(4096);

void BM_TLocalBroadcast(benchmark::State& state) {
  const auto g = make_er(1024, 16);
  const auto edges = localsim::all_edges(g);
  const auto t = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(localsim::run_tlocal_broadcast(g, edges, t, 13));
  }
}
BENCHMARK(BM_TLocalBroadcast)->Arg(1)->Arg(2)->Arg(4);

void BM_SpannerCheckExact(benchmark::State& state) {
  const auto g = make_er(static_cast<graph::NodeId>(state.range(0)), 16);
  const auto cfg = core::SamplerConfig::bench_profile(2, 3, 17);
  const auto res = core::build_spanner(g, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::check_spanner_exact(g, res.edges));
  }
}
BENCHMARK(BM_SpannerCheckExact)->Arg(512)->Arg(1024);

// ------------------------------------------------- delivery throughput

/// Traffic driver: every node re-broadcasts a word over every incident edge
/// for `rounds` rounds, so each round delivers exactly 2m messages. The
/// per-round work is dominated by the simulator's enqueue + delivery path —
/// the quantity this sweep measures. `words` sets the self-reported message
/// size (default 1): the congest sweep sends multi-word messages so a
/// finite per-edge budget actually binds.
class FloodRounds final : public sim::NodeProgram {
 public:
  FloodRounds(graph::NodeId self, unsigned rounds, std::uint32_t words = 1)
      : self_(self), rounds_(rounds), words_(words) {}

  void on_start(sim::Context& ctx) override {
    send_all(ctx);
    sent_ = 1;
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    for (const auto& m : inbox) checksum_ += sim::payload_as<graph::NodeId>(m);
    if (sent_ < rounds_) {
      send_all(ctx);
      ++sent_;
    }
  }

  bool done() const override { return sent_ >= rounds_; }

  std::uint64_t checksum() const { return checksum_; }

 private:
  void send_all(sim::Context& ctx) {
    for (const graph::EdgeId e : ctx.incident_edges())
      ctx.send(e, self_, words_);
  }

  graph::NodeId self_;
  unsigned rounds_;
  std::uint32_t words_ = 1;
  unsigned sent_ = 0;
  std::uint64_t checksum_ = 0;
};

struct DeliveryResult {
  sim::RunStats stats;
  std::uint64_t checksum = 0;
  double seconds = 0.0;

  double msgs_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(stats.messages) / seconds : 0.0;
  }
};

DeliveryResult run_delivery(const graph::Graph& g, unsigned rounds,
                            std::uint64_t seed, unsigned threads = 1) {
  sim::Network net(g, sim::Knowledge::EdgeIds, seed);
  net.set_parallelism({threads});
  net.install_all<FloodRounds>(rounds);
  // Timed region = net.run() only: the full phase pipeline (step shards,
  // merge lanes, quiesce checks) including any storage growth inside the
  // run. Network construction and program install are identical across
  // configurations and excluded.
  DeliveryResult res;
  util::Timer timer;
  res.stats = net.run(static_cast<std::size_t>(rounds) + 4);
  res.seconds = timer.seconds();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    res.checksum += net.program_as<FloodRounds>(v).checksum();
  return res;
}

struct SweepRow {
  graph::NodeId n = 0;
  std::string family;
  std::uint64_t edges = 0;
  unsigned threads = 1;   ///< thread count of the parallel (flat_mt) column
  DeliveryResult flat;    ///< sequential (1 lane)
  DeliveryResult flat_mt; ///< `threads` execution lanes

  bool stats_match() const {
    return flat.stats.rounds == flat_mt.stats.rounds &&
           flat.stats.messages == flat_mt.stats.messages &&
           flat.stats.terminated == flat_mt.stats.terminated &&
           flat.checksum == flat_mt.checksum;
  }
  double parallel_speedup() const {
    return flat.msgs_per_sec() > 0.0
               ? flat_mt.msgs_per_sec() / flat.msgs_per_sec()
               : 0.0;
  }
};

/// Best-of-`reps` timing for both configurations, interleaving the runs so
/// machine drift hits every side equally.
void best_of_pair(const graph::Graph& g, unsigned rounds, std::uint64_t seed,
                  SweepRow& row) {
  const int reps = 7;
  for (int r = 0; r < reps; ++r) {
    DeliveryResult flat = run_delivery(g, rounds, seed);
    DeliveryResult flat_mt = run_delivery(g, rounds, seed, row.threads);
    if (r == 0 || flat.seconds < row.flat.seconds) row.flat = flat;
    if (r == 0 || flat_mt.seconds < row.flat_mt.seconds) row.flat_mt = flat_mt;
  }
}

std::vector<SweepRow> run_delivery_sweep(const bench::Env& env,
                                         unsigned threads) {
  // Two send-rounds per run matches the repo's workloads: tlocal_broadcast
  // (E8 sweeps t ∈ {1, 2, 4}) builds a fresh Network per short protocol
  // run, so first-round storage growth is not amortized over a long run —
  // that churn is part of what delivery throughput means here.
  //
  // Three families: dense (ER, avg degree 16), sparse (random tree), and
  // skewed (Barabási–Albert, avg degree ≈ 16 with power-law hubs) — the
  // skewed rows exercise the degree-weighted shard balancing that uniform
  // families cannot distinguish from ShardBalance::Uniform.
  const unsigned rounds = 2;
  std::vector<graph::NodeId> sizes{1000, 10000, 100000};
  if (env.quick) sizes = {1000, 10000};

  std::vector<SweepRow> rows;
  for (const graph::NodeId n : sizes) {
    for (const char* family : {"dense", "sparse", "skewed"}) {
      const bool dense = std::string(family) == "dense";
      const bool skewed = std::string(family) == "skewed";
      util::Xoshiro256 rng(env.seed + n + (dense ? 1 : 0) + (skewed ? 2 : 0));
      const graph::Graph g =
          dense    ? graph::erdos_renyi_gnm(n, 8ull * n, rng)
          : skewed ? graph::barabasi_albert(n, 8, rng)
                   : graph::random_tree(n, rng);
      SweepRow row;
      row.n = n;
      row.family = family;
      row.edges = g.num_edges();
      row.threads = threads;
      best_of_pair(g, rounds, env.seed, row);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

void emit_delivery_json(const std::vector<SweepRow>& rows,
                        const bench::Env& env) {
  std::printf("{\n  \"bench\": \"delivery_throughput\",\n");
  std::printf("  \"seed\": %llu,\n  \"quick\": %s,\n",
              static_cast<unsigned long long>(env.seed),
              env.quick ? "true" : "false");
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::printf(
        "    {\"n\": %u, \"family\": \"%s\", \"edges\": %llu, "
        "\"rounds\": %zu, \"messages\": %llu, \"threads\": %u, "
        "\"flat_msgs_per_sec\": %.0f, \"flat_mt_msgs_per_sec\": %.0f, "
        "\"mt_over_flat\": %.3f, "
        "\"stats_match\": %s}%s\n",
        r.n, r.family.c_str(), static_cast<unsigned long long>(r.edges),
        r.flat.stats.rounds,
        static_cast<unsigned long long>(r.flat.stats.messages), r.threads,
        r.flat.msgs_per_sec(), r.flat_mt.msgs_per_sec(), r.parallel_speedup(),
        r.stats_match() ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

// ------------------------------------------------- CONGEST budget sweep

struct CongestRow {
  graph::NodeId n = 0;
  std::string family;
  std::uint64_t edges = 0;
  std::uint32_t words = 0;   ///< words per message
  std::uint64_t budget = 0;  ///< words per edge per round
  sim::RunStats local;
  sim::RunStats congest;
  std::uint64_t deferrals = 0;
  std::uint64_t carry_peak = 0;  ///< deepest total carry backlog seen
  double congest_seconds = 0.0;
};

/// LOCAL vs budgeted rounds for the flood driver: every edge carries
/// `words`-word messages against a `budget`-word budget, so the Defer
/// engine must stretch the schedule by about words/budget while delivering
/// exactly the same messages. This is the model-quantity record for the
/// budget engine (the stretch is deterministic); the wall-clock column
/// meters the admission pass's overhead on top of delivery.
std::vector<CongestRow> run_congest_sweep(const bench::Env& env) {
  const unsigned rounds = 2;
  const std::uint32_t words = 8;
  const std::uint64_t budget = 4;
  std::vector<graph::NodeId> sizes{1000, 10000};
  if (env.quick) sizes = {1000};

  std::vector<CongestRow> rows;
  for (const graph::NodeId n : sizes) {
    for (const char* family : {"dense", "sparse"}) {
      const bool dense = std::string(family) == "dense";
      util::Xoshiro256 rng(env.seed + n + (dense ? 1 : 0));
      const graph::Graph g = dense
                                 ? graph::erdos_renyi_gnm(n, 8ull * n, rng)
                                 : graph::random_tree(n, rng);
      CongestRow row;
      row.n = n;
      row.family = family;
      row.edges = g.num_edges();
      row.words = words;
      row.budget = budget;
      {
        sim::Network net(g, sim::Knowledge::EdgeIds, env.seed);
        net.install_all<FloodRounds>(rounds, words);
        row.local = net.run(static_cast<std::size_t>(rounds) + 4);
      }
      {
        sim::Network net(g, sim::Knowledge::EdgeIds, env.seed);
        net.set_congest({budget, sim::CongestPolicy::Defer});
        net.install_all<FloodRounds>(rounds, words);
        util::Timer timer;
        row.congest = net.run(64 * (static_cast<std::size_t>(rounds) + 4));
        row.congest_seconds = timer.seconds();
        row.deferrals = net.metrics().deferrals_total;
        row.carry_peak = net.metrics().carry_peak;
      }
      FL_REQUIRE(row.local.terminated && row.congest.terminated,
                 "congest sweep run did not terminate");
      FL_REQUIRE(row.congest.messages == row.local.messages,
                 "Defer must deliver every message eventually");
      rows.push_back(std::move(row));
    }
  }
  // One Sampler row: the protocol that switches to event-driven phase
  // barriers under a budget, so its budgeted run must finish below the
  // LOCAL run's fixed timetable (the flood rows have no timetable). LOCAL
  // baseline pinned env-immune.
  {
    util::Xoshiro256 rng(env.seed + 7);
    const graph::Graph g = graph::erdos_renyi_gnm(256, 1024, rng);
    auto cfg = core::SamplerConfig::bench_profile(2, 2, env.seed);
    cfg.congest = sim::CongestConfig{};
    const auto local = core::run_distributed_sampler(g, cfg);
    cfg.congest = sim::CongestConfig{8, sim::CongestPolicy::Defer};
    util::Timer timer;
    const auto budgeted = core::run_distributed_sampler(g, cfg);
    CongestRow row;
    row.n = g.num_nodes();
    row.family = "sampler";
    row.edges = g.num_edges();
    row.words = static_cast<std::uint32_t>(local.metrics.max_message_words);
    row.budget = 8;
    row.local = local.stats;
    row.congest = budgeted.stats;
    row.congest_seconds = timer.seconds();
    row.deferrals = budgeted.metrics.deferrals_total;
    row.carry_peak = budgeted.metrics.carry_peak;
    FL_REQUIRE(row.congest.messages == row.local.messages,
               "budgeted sampler must deliver exactly the LOCAL messages");
    FL_REQUIRE(row.congest.rounds < row.local.rounds,
               "budgeted sampler did not finish below LOCAL's fixed "
               "timetable — the event-driven barrier is not engaging");
    rows.push_back(std::move(row));
  }
  return rows;
}

void emit_congest_json(const std::vector<CongestRow>& rows,
                       const bench::Env& env) {
  std::printf("{\n  \"bench\": \"congest_stretch\",\n");
  std::printf("  \"seed\": %llu,\n  \"quick\": %s,\n",
              static_cast<unsigned long long>(env.seed),
              env.quick ? "true" : "false");
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CongestRow& r = rows[i];
    std::printf(
        "    {\"n\": %u, \"family\": \"%s\", \"edges\": %llu, "
        "\"words_per_msg\": %u, \"budget\": %llu, "
        "\"local_rounds\": %zu, \"congest_rounds\": %zu, "
        "\"messages\": %llu, \"deferrals\": %llu, \"carry_peak\": %llu, "
        "\"congest_msgs_per_sec\": %.0f}%s\n",
        r.n, r.family.c_str(), static_cast<unsigned long long>(r.edges),
        r.words, static_cast<unsigned long long>(r.budget), r.local.rounds,
        r.congest.rounds, static_cast<unsigned long long>(r.congest.messages),
        static_cast<unsigned long long>(r.deferrals),
        static_cast<unsigned long long>(r.carry_peak),
        r.congest_seconds > 0.0
            ? static_cast<double>(r.congest.messages) / r.congest_seconds
            : 0.0,
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

int run_congest_bench(const bench::Env& env) {
  const auto rows = run_congest_sweep(env);
  if (env.json) {
    emit_congest_json(rows, env);
  } else {
    util::Table table({"n", "family", "edges", "words/msg", "budget",
                       "LOCAL rounds", "budgeted rounds", "stretch",
                       "deferrals", "carry peak", "congest Mmsg/s"});
    for (const CongestRow& r : rows) {
      table.add(static_cast<std::size_t>(r.n), r.family,
                static_cast<unsigned long long>(r.edges), r.words,
                static_cast<unsigned long long>(r.budget), r.local.rounds,
                r.congest.rounds,
                util::fixed(static_cast<double>(r.congest.rounds) /
                                static_cast<double>(r.local.rounds),
                            2),
                static_cast<unsigned long long>(r.deferrals),
                static_cast<unsigned long long>(r.carry_peak),
                util::fixed(r.congest_seconds > 0.0
                                ? static_cast<double>(r.congest.messages) /
                                      r.congest_seconds / 1e6
                                : 0.0,
                            2));
    }
    env.emit(table, "CONGEST budget: LOCAL vs budgeted rounds (Defer)");
  }
  for (const CongestRow& r : rows) {
    // The flood rows must stretch (fixed send schedule, binding budget).
    // The sampler row is exempt: its event-driven barriers can finish in
    // *fewer* rounds than the LOCAL timetable when the phases drain early
    // — finishing below it is its bind check (FL_REQUIRE'd in the sweep).
    if (r.family != "sampler" &&
        r.congest.rounds <= r.local.rounds) {  // the budget must bind
      std::fprintf(stderr,
                   "congest sweep: budget failed to stretch rounds at n=%u "
                   "%s (local %zu, budgeted %zu)\n",
                   r.n, r.family.c_str(), r.local.rounds, r.congest.rounds);
      return 1;
    }
  }
  return 0;
}

// ------------------------------------------------- capacity (n=1M–10M)

/// Peak resident set of this process so far, in MiB. ru_maxrss is
/// process-monotone (a high-water mark), so capacity rows run in
/// ascending-n order and each row's reading is attributed to the largest
/// run so far — which is exactly that row.
double peak_rss_mb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Physical RAM in MiB (0 when the sysconf probe is unavailable).
double physical_ram_mb() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page = sysconf(_SC_PAGE_SIZE);
  if (pages <= 0 || page <= 0) return 0.0;
  return static_cast<double>(pages) / 1024.0 *
         (static_cast<double>(page) / 1024.0);
}

struct CapacityRow {
  graph::NodeId n = 0;
  std::string family;
  std::uint64_t edges = 0;
  std::size_t rounds = 0;
  std::uint64_t messages = 0;
  unsigned threads = 1;
  double msgs_per_sec = 0.0;
  double peak_rss_mb = 0.0;
  double rss_ceiling_mb = 0.0;
  bool rss_within_ceiling = false;
};

/// The scale rows the SoA/streamed engine exists for: a tree flood at
/// n=1M (and, with RAM to spare and no --quick, n=10M), 8 send-rounds
/// each. The peak-RSS ceiling is the frontier-scaling proof: the engine's
/// steady footprint at n=1M sparse is ~440 MiB (graph + per-node state +
/// two arena buffers + outboxes), and the ceiling of 672 MiB per million
/// nodes leaves headroom for allocator slack but NOT for materializing
/// the run — eight rounds of retained deliveries (~700 MiB more) blow it.
std::vector<CapacityRow> run_capacity_sweep(const bench::Env& env,
                                            unsigned threads) {
  constexpr double kCeilingMbPerMillionNodes = 672.0;
  const unsigned rounds = 8;
  std::vector<graph::NodeId> sizes{1000000};
  // The n=10M row needs ~4.5 GiB steady; ask for comfortable headroom so
  // the full sweep never swaps a CI box to death.
  if (!env.quick && physical_ram_mb() >= 12288.0) sizes.push_back(10000000);

  std::vector<CapacityRow> rows;  // ascending n — see peak_rss_mb()
  for (const graph::NodeId n : sizes) {
    util::Xoshiro256 rng(env.seed + n);
    const graph::Graph g = graph::random_tree(n, rng);
    CapacityRow row;
    row.n = n;
    row.family = "sparse";
    row.edges = g.num_edges();
    row.threads = threads;
    // Best of 3: the first run pays the cold page faults for the whole
    // footprint inside the timed region; the repeats measure the engine.
    // Peak RSS is unaffected (same footprint each run, monotone reading).
    DeliveryResult res = run_delivery(g, rounds, env.seed, threads);
    for (int rep = 1; rep < 3; ++rep) {
      DeliveryResult again = run_delivery(g, rounds, env.seed, threads);
      FL_REQUIRE(again.stats.messages == res.stats.messages &&
                     again.checksum == res.checksum,
                 "capacity repeats must reproduce the run exactly");
      if (again.seconds < res.seconds) res = again;
    }
    row.rounds = res.stats.rounds;
    row.messages = res.stats.messages;
    row.msgs_per_sec = res.msgs_per_sec();
    row.peak_rss_mb = peak_rss_mb();
    row.rss_ceiling_mb =
        kCeilingMbPerMillionNodes * static_cast<double>(n) / 1e6;
    row.rss_within_ceiling = row.peak_rss_mb <= row.rss_ceiling_mb;
    rows.push_back(std::move(row));
  }
  return rows;
}

void emit_capacity_json(const std::vector<CapacityRow>& rows,
                        const bench::Env& env) {
  std::printf("{\n  \"bench\": \"capacity\",\n");
  std::printf("  \"seed\": %llu,\n  \"quick\": %s,\n",
              static_cast<unsigned long long>(env.seed),
              env.quick ? "true" : "false");
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CapacityRow& r = rows[i];
    std::printf(
        "    {\"n\": %u, \"family\": \"%s\", \"edges\": %llu, "
        "\"rounds\": %zu, \"messages\": %llu, \"threads\": %u, "
        "\"msgs_per_sec\": %.0f, \"peak_rss_mb\": %.1f, "
        "\"rss_ceiling_mb\": %.1f, \"rss_within_ceiling\": %s}%s\n",
        r.n, r.family.c_str(), static_cast<unsigned long long>(r.edges),
        r.rounds, static_cast<unsigned long long>(r.messages), r.threads,
        r.msgs_per_sec, r.peak_rss_mb, r.rss_ceiling_mb,
        r.rss_within_ceiling ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

int run_capacity_bench(const bench::Env& env, unsigned threads) {
  const auto rows = run_capacity_sweep(env, threads);
  if (env.json) {
    emit_capacity_json(rows, env);
  } else {
    util::Table table({"n", "family", "edges", "rounds", "messages",
                       "threads", "Mmsg/s", "peak RSS MiB", "ceiling MiB",
                       "within?"});
    for (const CapacityRow& r : rows) {
      table.add(static_cast<std::size_t>(r.n), r.family,
                static_cast<unsigned long long>(r.edges), r.rounds,
                static_cast<unsigned long long>(r.messages), r.threads,
                util::fixed(r.msgs_per_sec / 1e6, 2),
                util::fixed(r.peak_rss_mb, 1),
                util::fixed(r.rss_ceiling_mb, 1), r.rss_within_ceiling);
    }
    env.emit(table, "Capacity: tree flood at n=1M-10M, peak-RSS ceiling");
  }
  for (const CapacityRow& r : rows) {
    if (!r.rss_within_ceiling) {
      std::fprintf(stderr,
                   "capacity: peak RSS %.1f MiB exceeds the %.1f MiB "
                   "ceiling at n=%u — the engine materialized more than "
                   "the current+next frontier\n",
                   r.peak_rss_mb, r.rss_ceiling_mb, r.n);
      return 1;
    }
  }
  return 0;
}

// ------------------------------------------------- round profile (tracing on)

/// One report row per engine round, read back from the tracer's
/// RoundProfile timeline after a traced flood. Model columns (messages,
/// words, deferrals, carry depth) are bit-identical across thread counts;
/// the *_ns columns are wall-clock advisory data and never diffed.
struct ProfileRow {
  std::size_t round = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t carry_depth = 0;
  std::size_t lanes = 0;
  std::uint64_t quiesce_ns = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t merge_ns = 0;
  std::uint64_t admit_ns = 0;
  std::uint64_t busy_max_ns = 0;
  std::uint64_t busy_avg_ns = 0;
  double max_over_avg_busy = 0.0;
  std::uint64_t rss_kb = 0;
};

void emit_profile_json(const std::vector<ProfileRow>& rows,
                       const bench::Env& env, unsigned threads,
                       const char* trace_path) {
  std::printf("{\n  \"bench\": \"round_profile\",\n");
  std::printf("  \"seed\": %llu,\n  \"quick\": %s,\n",
              static_cast<unsigned long long>(env.seed),
              env.quick ? "true" : "false");
  std::printf("  \"threads\": %u,\n  \"trace\": \"%s\",\n", threads,
              trace_path);
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ProfileRow& r = rows[i];
    std::printf(
        "    {\"round\": %zu, \"messages\": %llu, \"words\": %llu, "
        "\"deferrals\": %llu, \"carry_depth\": %llu, \"lanes\": %zu, "
        "\"quiesce_ns\": %llu, \"step_ns\": %llu, \"merge_ns\": %llu, "
        "\"admit_ns\": %llu, \"busy_max_ns\": %llu, \"busy_avg_ns\": %llu, "
        "\"max_over_avg_busy\": %.4f, \"rss_kb\": %llu}%s\n",
        r.round, static_cast<unsigned long long>(r.messages),
        static_cast<unsigned long long>(r.words),
        static_cast<unsigned long long>(r.deferrals),
        static_cast<unsigned long long>(r.carry_depth), r.lanes,
        static_cast<unsigned long long>(r.quiesce_ns),
        static_cast<unsigned long long>(r.step_ns),
        static_cast<unsigned long long>(r.merge_ns),
        static_cast<unsigned long long>(r.admit_ns),
        static_cast<unsigned long long>(r.busy_max_ns),
        static_cast<unsigned long long>(r.busy_avg_ns), r.max_over_avg_busy,
        static_cast<unsigned long long>(r.rss_kb),
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

/// Traced flood: run the delivery driver with tracing ON, report the
/// per-round phase/lane timeline, and leave the Chrome-trace artifact (plus
/// its .jsonl profile dump) in the working directory for Perfetto. Exits
/// nonzero if the artifact is missing/empty or the per-lane data the
/// acceptance contract promises (step:lane spans, busy times) is absent.
int run_profile_bench(const bench::Env& env, unsigned threads) {
  const graph::NodeId n = env.quick ? 10000 : 100000;
  const unsigned rounds = 4;
  const char* trace_path = "TRACE_micro_perf.json";
  util::Xoshiro256 rng(env.seed + n + 1);
  const graph::Graph g = graph::erdos_renyi_gnm(n, 8ull * n, rng);

  std::vector<ProfileRow> rows;
  std::uint64_t step_lane_spans = 0;
  std::uint64_t dropped = 0;
  {
    sim::Network net(g, sim::Knowledge::EdgeIds, env.seed);
    net.set_parallelism({threads});
    obs::TraceConfig tcfg;
    tcfg.enabled = true;
    tcfg.path = trace_path;
    tcfg.level = obs::TraceLevel::Spans;
    net.set_trace(std::move(tcfg));
    net.install_all<FloodRounds>(rounds);
    const sim::RunStats stats = net.run(static_cast<std::size_t>(rounds) + 4);
    FL_REQUIRE(stats.terminated, "profile flood did not terminate");
    for (const obs::RoundProfile& p : net.profile()) {
      ProfileRow row;
      row.round = p.round;
      row.messages = p.messages;
      row.words = p.words;
      row.deferrals = p.deferrals;
      row.carry_depth = p.carry_depth;
      row.lanes = p.lane_busy_ns.size();
      row.quiesce_ns = p.quiesce_ns;
      row.step_ns = p.step_ns;
      row.merge_ns = p.merge_ns;
      row.admit_ns = p.admit_ns;
      std::uint64_t busy_max = 0;
      std::uint64_t busy_sum = 0;
      for (const std::uint64_t b : p.lane_busy_ns) {
        if (b > busy_max) busy_max = b;
        busy_sum += b;
      }
      row.busy_max_ns = busy_max;
      row.busy_avg_ns =
          p.lane_busy_ns.empty() ? 0 : busy_sum / p.lane_busy_ns.size();
      row.max_over_avg_busy = p.max_over_avg_busy;
      row.rss_kb = p.rss_kb;
      rows.push_back(row);
    }
    for (std::size_t t = 0; t < net.tracer()->ring_count(); ++t)
      net.tracer()->ring(t).for_each([&](const obs::SpanEvent& ev) {
        if (ev.kind == obs::SpanKind::StepLane) ++step_lane_spans;
      });
    dropped = net.tracer()->dropped_spans();
  }  // ~Network finalizes trace_path and trace_path.jsonl

  if (env.json) {
    emit_profile_json(rows, env, threads, trace_path);
  } else {
    util::Table table({"round", "messages", "words", "carry", "lanes",
                       "quiesce us", "step us", "merge us", "admit us",
                       "busy max/avg", "RSS MiB"});
    for (const ProfileRow& r : rows) {
      table.add(r.round, static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.words),
                static_cast<unsigned long long>(r.carry_depth), r.lanes,
                util::fixed(static_cast<double>(r.quiesce_ns) / 1e3, 1),
                util::fixed(static_cast<double>(r.step_ns) / 1e3, 1),
                util::fixed(static_cast<double>(r.merge_ns) / 1e3, 1),
                util::fixed(static_cast<double>(r.admit_ns) / 1e3, 1),
                util::fixed(r.max_over_avg_busy, 2),
                util::fixed(static_cast<double>(r.rss_kb) / 1024.0, 1));
    }
    env.emit(table, "Round profile: traced flood at n=" + std::to_string(n) +
                        ", " + std::to_string(threads) + " lanes (trace: " +
                        trace_path + ")");
    if (dropped > 0)
      std::fprintf(stderr, "profile: %llu spans dropped to ring overflow\n",
                   static_cast<unsigned long long>(dropped));
  }

  // Artifact checks: the acceptance contract is a Perfetto-loadable trace
  // with per-lane step spans and per-round phase timings.
  if (rows.empty()) {
    std::fprintf(stderr, "profile: tracer produced no round profiles\n");
    return 1;
  }
  for (const ProfileRow& r : rows) {
    if (r.lanes != threads) {
      std::fprintf(stderr,
                   "profile: round %zu reports %zu lane busy slots, "
                   "expected %u\n",
                   r.round, r.lanes, threads);
      return 1;
    }
  }
  if (step_lane_spans < rows.size()) {
    std::fprintf(stderr,
                 "profile: only %llu step:lane spans recorded over %zu "
                 "rounds\n",
                 static_cast<unsigned long long>(step_lane_spans),
                 rows.size());
    return 1;
  }
  std::FILE* f = std::fopen(trace_path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "profile: trace artifact %s was not written\n",
                 trace_path);
    return 1;
  }
  std::fseek(f, 0, SEEK_END);
  const long bytes = std::ftell(f);
  std::fclose(f);
  if (bytes <= 0) {
    std::fprintf(stderr, "profile: trace artifact %s is empty\n", trace_path);
    return 1;
  }
  return 0;
}

int run_delivery_bench(const bench::Env& env, unsigned threads) {
  const auto rows = run_delivery_sweep(env, threads);
  if (env.json) {
    emit_delivery_json(rows, env);
  } else {
    util::Table table({"n", "family", "edges", "rounds", "messages",
                       "flat Mmsg/s", "flat@T Mmsg/s", "T/1",
                       "stats match?"});
    for (const SweepRow& r : rows) {
      table.add(static_cast<std::size_t>(r.n), r.family,
                static_cast<unsigned long long>(r.edges), r.flat.stats.rounds,
                static_cast<unsigned long long>(r.flat.stats.messages),
                util::fixed(r.flat.msgs_per_sec() / 1e6, 2),
                util::fixed(r.flat_mt.msgs_per_sec() / 1e6, 2),
                util::fixed(r.parallel_speedup(), 3), r.stats_match());
    }
    env.emit(table, "Delivery throughput: flat arena at 1 and " +
                        std::to_string(threads) + " execution lanes");
  }
  // Identical counts are part of the contract, not just a report column.
  for (const SweepRow& r : rows)
    if (!r.stats_match()) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto has_flag = [&](const char* flag) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == flag || a.rfind(std::string(flag) + "=", 0) == 0) return true;
    }
    return false;
  };
  const bool sweep_section = [&] {
    for (const char* flag :
         {"--delivery", "--json", "--csv", "--quick", "--seed", "--threads",
          "--congest", "--capacity", "--profile"})
      if (has_flag(flag)) return true;
    return false;
  }();
  if (sweep_section) {
    // --threads N sets the parallel column's lane count (default 8); the
    // sequential flat column always runs single-threaded. --congest adds
    // the CONGEST budget sweep (LOCAL vs budgeted rounds) after the
    // delivery sweep. --capacity runs the n=1M–10M capacity rows *instead*
    // of the delivery sweep (peak RSS is a process-monotone high-water
    // mark, so the capacity rows must be the only large runs in the
    // process); pass --delivery explicitly to get both, capacity first.
    // --profile runs a traced flood instead of the delivery sweep (same
    // instead-of rule: its report includes RSS readings) and drops the
    // Chrome-trace artifact next to the report.
    const fl::util::Options opt(argc, argv);
    const std::int64_t threads = opt.get_int("threads", 8);
    FL_REQUIRE(threads >= 1 && threads <= 1024,
               "--threads must be in [1, 1024]");
    const auto env = fl::bench::Env::parse(argc, argv);
    const bool capacity = has_flag("--capacity");
    const bool profile = has_flag("--profile");
    int rc = 0;
    if (capacity)
      rc = run_capacity_bench(env, static_cast<unsigned>(threads));
    if (profile) {
      const int profile_rc =
          run_profile_bench(env, static_cast<unsigned>(threads));
      if (rc == 0) rc = profile_rc;
    }
    if ((!capacity && !profile) || has_flag("--delivery")) {
      const int delivery_rc =
          run_delivery_bench(env, static_cast<unsigned>(threads));
      if (rc == 0) rc = delivery_rc;
    }
    if (opt.get_bool("congest", false)) {
      const int congest_rc = run_congest_bench(env);
      if (rc == 0) rc = congest_rc;
    }
    return rc;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
