// Distance-oracle style application (the paper cites distance oracles and
// routing as classic spanner uses): build the spanner once, answer distance
// queries from the sparse structure, and chart the empirical stretch
// distribution against the Theorem 9 worst-case bound.
//
//   ./distance_oracle [--n 1200] [--deg 48] [--k 2] [--queries 2000]
#include <iostream>
#include <limits>
#include <vector>

#include "core/config.hpp"
#include "core/sampler.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const util::Options opt(argc, argv);
  opt.require_known({"n", "deg", "k", "queries", "seed"});
  const auto n = static_cast<graph::NodeId>(
      opt.get_uint("n", 1200, std::numeric_limits<graph::NodeId>::max()));
  const auto deg = static_cast<std::size_t>(opt.get_uint("deg", 48));
  const auto k = static_cast<unsigned>(
      opt.get_uint("k", 2, std::numeric_limits<unsigned>::max()));
  const auto queries = static_cast<std::size_t>(opt.get_uint("queries", 2000));
  const auto seed = opt.get_uint("seed", 1);

  util::Xoshiro256 rng(seed);
  const auto g = graph::erdos_renyi_gnm(n, deg * n / 2, rng);
  std::cout << "graph: " << g.summary() << "\n";

  const auto cfg = core::SamplerConfig::bench_profile(k, 3, seed);
  const auto res = core::build_spanner(g, cfg);
  const graph::SubgraphView h(g, res.edges);
  std::cout << "spanner: " << res.edges.size() << " edges ("
            << util::fixed(100.0 * static_cast<double>(res.edges.size()) /
                               static_cast<double>(g.num_edges()),
                           1)
            << "% of m), stretch bound " << res.stretch_bound << "\n\n";

  // Answer random s-t queries from H and compare with G's truth.
  std::vector<double> stretches;
  util::Accumulator acc;
  std::size_t done = 0;
  while (done < queries) {
    const auto s = static_cast<graph::NodeId>(rng.index(n));
    const auto dist_g = graph::bfs_distances(g, s);
    const auto dist_h = h.bfs_distances(s);
    // Batch: reuse one BFS pair for many targets.
    for (std::size_t i = 0; i < 64 && done < queries; ++i) {
      const auto t = static_cast<graph::NodeId>(rng.index(n));
      if (t == s || dist_g[t] == graph::kUnreachable) continue;
      const double ratio = static_cast<double>(dist_h[t]) /
                           static_cast<double>(dist_g[t]);
      stretches.push_back(ratio);
      acc.add(ratio);
      ++done;
    }
  }

  util::Table table({"percentile", "stretch"});
  for (const double q : {50.0, 90.0, 99.0, 100.0})
    table.add(q, util::fixed(util::percentile(stretches, q), 3));
  table.print(std::cout, "query stretch distribution (dist_H / dist_G)");
  std::cout << "\nmean stretch " << util::fixed(acc.mean(), 3)
            << ", worst observed " << util::fixed(acc.max(), 3)
            << ", theorem bound " << res.stretch_bound << "\n";
  return acc.max() <= res.stretch_bound ? 0 : 1;
}
