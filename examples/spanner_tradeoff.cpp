// Spanner tradeoff explorer: sweep the hierarchy depth k and chart the
// stretch/size/messages tradeoff of Theorem 2, next to Baswana–Sen.
//
//   ./spanner_tradeoff [--n 800] [--deg 24] [--seed 1]
//
// Shows how δ = 1/(2^{k+1}−1) trades a (2·3^k−1) stretch bound against
// Õ(n^{1+δ}) edges, and what each choice costs in real messages when run
// distributed.
#include <iostream>
#include <limits>

#include "baseline/baswana_sen.hpp"
#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const util::Options opt(argc, argv);
  opt.require_known({"n", "deg", "seed"});
  const auto n = static_cast<graph::NodeId>(
      opt.get_uint("n", 800, std::numeric_limits<graph::NodeId>::max()));
  const auto deg = static_cast<std::size_t>(opt.get_uint("deg", 24));
  const auto seed = opt.get_uint("seed", 1);

  util::Xoshiro256 rng(seed);
  const auto g = graph::erdos_renyi_gnm(n, deg * n / 2, rng);
  std::cout << "graph: " << g.summary() << "\n\n";

  util::Table table({"construction", "stretch bound", "measured max", "|S|",
                     "|S|/m", "messages", "rounds"});

  for (unsigned k = 1; k <= 3; ++k) {
    const auto cfg = core::SamplerConfig::bench_profile(k, 3, seed);
    const auto run = core::run_distributed_sampler(g, cfg);
    const auto rep =
        graph::check_spanner_exact(g, run.edges, run.stretch_bound);
    table.add("Sampler k=" + std::to_string(k), run.stretch_bound,
              rep.max_edge_stretch, run.edges.size(),
              util::fixed(static_cast<double>(run.edges.size()) /
                              static_cast<double>(g.num_edges()),
                          3),
              run.stats.messages, run.stats.rounds);
  }
  for (unsigned k : {2u, 3u, 4u}) {
    const auto bs = baseline::run_distributed_baswana_sen(g, k, seed);
    const auto rep = graph::check_spanner_exact(g, bs.result.edges,
                                                bs.result.stretch_bound());
    table.add("Baswana-Sen k=" + std::to_string(k),
              bs.result.stretch_bound(), rep.max_edge_stretch,
              bs.result.edges.size(),
              util::fixed(static_cast<double>(bs.result.edges.size()) /
                              static_cast<double>(g.num_edges()),
                          3),
              bs.stats.messages, bs.stats.rounds);
  }
  table.print(std::cout, "stretch / size / messages tradeoff");
  std::cout << "\nNote how Baswana-Sen offers tighter stretch-per-edge but "
               "pays Ω(m) messages,\nwhile Sampler's message bill is "
               "density-independent (the paper's free lunch).\n";
  return 0;
}
