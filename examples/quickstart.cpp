// Quickstart: build a constant-stretch spanner with Õ(n^{1+ε}) messages.
//
//   ./quickstart [--n 1000] [--deg 16] [--k 2] [--h 3] [--seed 1]
//
// Builds a random communication graph, runs the *distributed* Sampler on
// the LOCAL-model simulator, verifies the spanner and prints the costs —
// the 60-second tour of the library's public API.
#include <iostream>
#include <limits>

#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/rng.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const util::Options opt(argc, argv);
  opt.require_known({"n", "deg", "k", "h", "seed"});
  const auto n = static_cast<graph::NodeId>(
      opt.get_uint("n", 1000, std::numeric_limits<graph::NodeId>::max()));
  const auto deg = static_cast<std::size_t>(opt.get_uint("deg", 16));
  const auto k = static_cast<unsigned>(
      opt.get_uint("k", 2, std::numeric_limits<unsigned>::max()));
  const auto h = static_cast<unsigned>(
      opt.get_uint("h", 3, std::numeric_limits<unsigned>::max()));
  const auto seed = opt.get_uint("seed", 1);

  // 1. A communication graph (any connected simple graph works).
  util::Xoshiro256 rng(seed);
  const auto g = graph::erdos_renyi_gnm(n, deg * n / 2, rng);
  std::cout << "communication graph: " << g.summary() << "\n";

  // 2. Configure the Sampler. paper_faithful() uses the constants of the
  //    paper's proofs; bench_profile() scales them down so asymptotic
  //    behaviour is visible at small n.
  const auto cfg = core::SamplerConfig::paper_faithful(k, h, seed);
  std::cout << "config: " << cfg.describe() << "\n\n";

  // 3. Run the distributed algorithm on the LOCAL simulator.
  const auto run = core::run_distributed_sampler(g, cfg);

  // 4. Verify the guarantees with the built-in oracle.
  const auto rep = graph::check_spanner_exact(g, run.edges, run.stretch_bound);

  util::Table table({"quantity", "value"});
  table.add("spanner edges |S|", run.edges.size());
  table.add("input edges m", static_cast<std::size_t>(g.num_edges()));
  table.add("|S| / m", util::fixed(static_cast<double>(run.edges.size()) /
                                       static_cast<double>(g.num_edges()),
                                   3));
  table.add("stretch bound (Thm 9)", run.stretch_bound);
  table.add("measured max stretch", rep.max_edge_stretch);
  table.add("stretch violations", rep.violations);
  table.add("connected", rep.connected);
  table.add("rounds used", run.stats.rounds);
  table.add("messages sent", run.stats.messages);
  table.add("messages / m", util::fixed(static_cast<double>(run.stats.messages) /
                                            static_cast<double>(g.num_edges()),
                                        3));
  table.print(std::cout, "distributed Sampler results");

  std::cout << "\nper-level summary:\n";
  for (const auto& lt : run.levels) std::cout << "  " << lt.summary() << "\n";
  return 0;
}
