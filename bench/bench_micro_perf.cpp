// Micro timing benchmarks: wall-clock throughput of the simulator's round
// engine. These measure *our implementation's* speed, not the paper's model
// quantities — the model quantities live in bench_e1..e10.
//
// Two modes:
//   * the delivery-throughput sweep (default) — sequential vs `--threads N`
//     execution lanes, across dense, sparse and skewed (power-law) graph
//     families; --json emits the machine-readable record that the
//     BENCH_*.json trajectory tracking consumes;
//   * `--capacity` — the n=1M–10M tree-flood rows with a peak-RSS ceiling
//     the binary itself enforces.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "sim/network.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fl;

// ------------------------------------------------- delivery throughput

/// Traffic driver: every node re-broadcasts a word over every incident edge
/// for `rounds` rounds, so each round delivers exactly 2m messages. The
/// per-round work is dominated by the simulator's enqueue + delivery path —
/// the quantity this sweep measures.
class FloodRounds final : public sim::NodeProgram {
 public:
  FloodRounds(graph::NodeId self, unsigned rounds)
      : self_(self), rounds_(rounds) {}

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
      ctx.send(e, self_);
  }

  graph::NodeId self_;
  unsigned rounds_;
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
  // skewed rows exercise the degree-weighted shard cuts, which uniform
  // families cannot tell from equal node counts.
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

int fl_main(int argc, char** argv) {
  // --threads N sets the parallel column's lane count (default 8); the
  // sequential flat column always runs single-threaded. --capacity runs
  // the capacity rows *instead* of the delivery sweep: peak RSS is a
  // process-monotone high-water mark, so the capacity rows must be the only
  // large runs in the process.
  const fl::util::Options opt(argc, argv);
  const auto env = fl::bench::Env::parse(opt, {"threads", "capacity"});
  const auto threads = static_cast<unsigned>(opt.get_uint("threads", 8, 1024));
  FL_REQUIRE(threads >= 1, "--threads must be in [1, 1024]");
  return opt.get_bool("capacity", false) ? run_capacity_bench(env, threads)
                                         : run_delivery_bench(env, threads);
}
