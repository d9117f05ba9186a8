// E1 — Lemma 4: level sizes of the Sampler hierarchy.
//
// Predicted: n_j ≈ n · p̂_{j−1} = n^{1 − (2^j − 1)δ}, within factor 3/2 whp.
// Measured: virtual node counts recorded by the centralized Sampler trace,
// across graph families and hierarchy depths.
#include <cmath>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const auto env = bench::Env::parse(util::Options(argc, argv));
  const graph::NodeId n = env.quick ? 1024 : 4096;

  util::Table table({"family", "k", "level", "n_j predicted", "n_j measured",
                     "ratio", "within 3/2?"});

  const std::vector<graph::Family> families{
      graph::Family::ErdosRenyi, graph::Family::Complete,
      graph::Family::RandomGeometric};
  std::uint64_t family_salt = 0;
  for (const auto family : families) {
    ++family_salt;
    // Complete graphs get expensive fast; cap their size.
    const graph::NodeId nn =
        family == graph::Family::Complete ? std::min<graph::NodeId>(n, 2048) : n;
    util::Xoshiro256 rng(env.seed);
    const auto g = graph::make_family(family, nn, 16.0, rng);
    for (unsigned k = 1; k <= 3; ++k) {
      // Salt the seed per family: Lemma 4's prediction is graph-independent
      // and the center coins are keyed by node id, so an unsalted seed
      // would (correctly but confusingly) repeat the same counts.
      const auto cfg = core::SamplerConfig::paper_faithful(
          k, 2, env.seed + 1000 * family_salt);
      const auto res = core::build_spanner(g, cfg);
      const double delta = cfg.delta();
      for (unsigned j = 1; j <= k; ++j) {
        const double predicted =
            std::pow(static_cast<double>(g.num_nodes()),
                     1.0 - (std::exp2(static_cast<double>(j)) - 1.0) * delta);
        const double measured = res.trace.levels[j].virtual_nodes;
        const double ratio = measured / predicted;
        table.add(graph::family_name(family), k, j, predicted, measured,
                  util::fixed(ratio, 3),
                  (ratio >= 2.0 / 3.0 && ratio <= 1.5) ? "yes" : "no");
      }
    }
  }
  env.emit(table, "E1 / Lemma 4 — hierarchy level sizes n_j vs n^{1-(2^j-1)δ}");
  return 0;
}
