// E3 — Lemma 10 / Theorem 2: spanner size |S| = Õ(n^{1+δ}).
//
// The bound only binds when the input has MORE than Õ(n^{1+δ}) edges, so
// the sweep runs on complete graphs (m = n(n−1)/2): we fit the log-log
// slope of |S| vs n per k and compare against the predicted exponent
// 1 + δ = 1 + 1/(2^{k+1}−1) (a +o(1) from the log n factor in the budget is
// expected). A second table shows dense-ER inputs at a fixed n with growing
// degree: once deg crosses the budget, |S| detaches from m and flattens.
// Uses the bench profile so the polynomial part is visible at laptop scale
// (DESIGN.md §2).
#include <cmath>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const auto env = bench::Env::parse(util::Options(argc, argv));

  // (a) n sweep on K_n.
  std::vector<graph::NodeId> sizes{181, 256, 362, 512, 724, 1024, 1448};
  if (!env.quick) sizes.push_back(2048);

  util::Table table({"k", "n", "m", "|S|", "|S|/m"});
  util::Table fits({"k", "δ", "predicted exponent 1+δ", "raw slope",
                    "log-corrected slope", "R²", "corrected-pred"});
  for (unsigned k = 1; k <= 3; ++k) {
    const auto cfg0 = core::SamplerConfig::bench_profile(k, 3, env.seed);
    std::vector<double> xs, ys, ys_corr;
    for (const auto n : sizes) {
      const auto g = graph::complete(n);
      auto cfg = cfg0;
      cfg.seed = env.seed + n;
      const auto res = core::build_spanner(g, cfg);
      xs.push_back(static_cast<double>(n));
      ys.push_back(static_cast<double>(res.edges.size()));
      // The bench-profile budget is c·n^{2^jδ}·log n, so Õ hides exactly
      // one log n factor; dividing it out isolates the polynomial exponent.
      ys_corr.push_back(ys.back() / std::log2(static_cast<double>(n)));
      table.add(k, static_cast<std::size_t>(n),
                static_cast<std::size_t>(g.num_edges()), res.edges.size(),
                util::fixed(static_cast<double>(res.edges.size()) /
                                static_cast<double>(g.num_edges()),
                            3));
    }
    const auto raw = util::fit_loglog(xs, ys);
    const auto corr = util::fit_loglog(xs, ys_corr);
    fits.add(k, util::fixed(cfg0.delta(), 4),
             util::fixed(1.0 + cfg0.delta(), 4), util::fixed(raw.slope, 4),
             util::fixed(corr.slope, 4), util::fixed(corr.r_squared, 4),
             util::fixed(corr.slope - 1.0 - cfg0.delta(), 4));
  }
  env.emit(table, "E3 / Lemma 10 — spanner size on K_n (bound binds)");
  env.emit(fits,
           "E3 — fitted growth exponents vs predicted 1+δ (Õ hides one "
           "log n: the corrected column divides it out)");

  // (b) density sweep at fixed n: |S| must detach from m.
  {
    const graph::NodeId n = env.quick ? 512 : 1024;
    const auto cfg0 = core::SamplerConfig::bench_profile(2, 3, env.seed);
    util::Table detach({"avg deg", "m", "|S|", "|S|/m"});
    std::vector<double> degs{8, 16, 32, 64, 128, 256};
    for (const double deg : degs) {
      util::Xoshiro256 rng(env.seed);
      const auto g = graph::erdos_renyi_gnm(
          n, static_cast<std::size_t>(deg * n / 2), rng);
      const auto res = core::build_spanner(g, cfg0);
      detach.add(deg, static_cast<std::size_t>(g.num_edges()),
                 res.edges.size(),
                 util::fixed(static_cast<double>(res.edges.size()) /
                                 static_cast<double>(g.num_edges()),
                             3));
    }
    env.emit(detach,
             "E3b — |S| vs density at fixed n: flat once deg exceeds the "
             "budget (the spanner cap binds)");
  }
  return 0;
}
