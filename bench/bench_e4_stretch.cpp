// E4 — Theorem 9: the stretch of H is at most 2·3^k − 1 whp.
//
// For each family and k we report the *measured* maximum edge stretch
// (exact over all G-edges on small instances, sampled on larger ones)
// against the theorem's bound, plus the violation count — the paper
// predicts zero violations whp.
#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "util/rng.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const auto env = bench::Env::parse(util::Options(argc, argv));
  const graph::NodeId n = env.quick ? 300 : 800;

  util::Table table({"family", "k", "bound 2·3^k-1", "max stretch",
                     "mean stretch", "violations", "|S|/m"});

  const std::vector<graph::Family> families{
      graph::Family::ErdosRenyi,     graph::Family::Complete,
      graph::Family::Grid,           graph::Family::Hypercube,
      graph::Family::BarabasiAlbert, graph::Family::RandomGeometric,
      graph::Family::Dumbbell,       graph::Family::Torus};
  for (const auto family : families) {
    const graph::NodeId nn =
        family == graph::Family::Complete ? std::min<graph::NodeId>(n, 400) : n;
    util::Xoshiro256 rng(env.seed);
    // Dense parameters: sparsification (and hence non-trivial stretch) only
    // happens where the input exceeds the spanner budget, so ER/BA/RGG get
    // a high density dial; grids/tori stay sparse and show stretch 1.
    const auto g = graph::make_family(family, nn, 48.0, rng);
    for (unsigned k = 1; k <= 2; ++k) {
      // The bench profile keeps budgets below the dense degrees; paper
      // constants at this n would query everything and report stretch 1.
      const auto cfg = core::SamplerConfig::bench_profile(k, 3, env.seed + k);
      const auto res = core::build_spanner(g, cfg);
      const auto rep =
          graph::check_spanner_exact(g, res.edges, cfg.stretch_bound());
      table.add(graph::family_name(family), k, cfg.stretch_bound(),
                rep.max_edge_stretch, util::fixed(rep.mean_edge_stretch, 3),
                rep.violations,
                util::fixed(static_cast<double>(res.edges.size()) /
                                static_cast<double>(g.num_edges()),
                            3));
    }
  }
  env.emit(table, "E4 / Theorem 9 — measured stretch vs 2·3^k−1 "
                  "(violations predicted 0)");
  return 0;
}
