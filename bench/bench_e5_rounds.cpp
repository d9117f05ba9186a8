// E5 — Theorem 11 (rounds): the distributed Sampler runs in O(3^k · h)
// rounds, independent of the graph.
//
// Measured: actual simulator rounds across (k, h) and across families at
// fixed (k, h); predicted: the precomputed schedule length and the 3^k·h
// scaling (we fit measured rounds against 3^k·h and report the constant).
#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const auto env = bench::Env::parse(util::Options(argc, argv));
  const graph::NodeId n = env.quick ? 256 : 512;

  util::Table table({"k", "h", "3^k·h", "schedule rounds", "measured rounds",
                     "rounds / (3^k·h)"});
  util::Xoshiro256 rng(env.seed);
  const auto g = graph::erdos_renyi_gnm(n, 8ull * n, rng);
  for (unsigned k = 1; k <= 3; ++k) {
    for (unsigned h = 1; h <= (env.quick ? 3u : 4u); ++h) {
      auto cfg = core::SamplerConfig::paper_faithful(k, h, env.seed);
      // E5 measures the LOCAL timetable — pin it so an FL_SIM_CONGEST env
      // probe cannot swap in event-driven barriers and shrink the rounds.
      cfg.congest = sim::CongestConfig{};
      const auto sched = core::Schedule::build(cfg);
      const auto run = core::run_distributed_sampler(g, cfg);
      const double scale = core::SamplerConfig::pow3(k) * h;
      table.add(k, h, scale, sched.total_rounds, run.stats.rounds,
                util::fixed(static_cast<double>(run.stats.rounds) / scale, 3));
    }
  }
  env.emit(table, "E5 / Theorem 11 — rounds vs O(3^k·h)");

  // Graph independence at fixed parameters.
  util::Table indep({"family", "n", "m", "measured rounds"});
  auto cfg = core::SamplerConfig::paper_faithful(2, 2, env.seed);
  cfg.congest = sim::CongestConfig{};  // LOCAL pin, as above
  for (const auto family :
       {graph::Family::Ring, graph::Family::ErdosRenyi,
        graph::Family::Complete, graph::Family::Grid,
        graph::Family::Hypercube}) {
    util::Xoshiro256 rng2(env.seed + 1);
    const graph::NodeId nn =
        family == graph::Family::Complete ? 256 : n;
    const auto gg = graph::make_family(family, nn, 8.0, rng2);
    const auto run = core::run_distributed_sampler(gg, cfg);
    indep.add(graph::family_name(family), static_cast<std::size_t>(gg.num_nodes()),
              static_cast<std::size_t>(gg.num_edges()), run.stats.rounds);
  }
  env.emit(indep, "E5 — round count is graph-independent at fixed (k=2, h=2)");
  return 0;
}
