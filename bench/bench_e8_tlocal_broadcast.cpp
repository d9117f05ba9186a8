// E8 — Lemma 12: t-local broadcast complexities.
//
// First branch of the lemma: for parameter γ, t-local broadcast costs
// Õ(t·n^{1+2/(2^{γ+1}−1)}) messages and O(3^γ·t + 6^γ) rounds. We sweep t
// and γ, measure the broadcast stage over the Sampler spanner (with
// k = γ, h = 2^{γ+1}−1 as the proof of Lemma 12 sets them), and compare
// against native flooding over G.
#include <cmath>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "util/rng.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const auto env = bench::Env::parse(util::Options(argc, argv));
  const graph::NodeId n = env.quick ? 512 : 1024;

  util::Xoshiro256 rng(env.seed);
  const auto g = graph::erdos_renyi_gnm(n, 32ull * n, rng);

  // Lemma 12 states O(3^γ·t + 6^γ) rounds; the concrete constant of the
  // construction is α·t + (spanner rounds), α = 2·3^γ − 1.
  util::Table table({"γ", "t", "α=2·3^γ-1", "round bound α·t+6^γ",
                     "bcast rounds", "bcast msgs", "bcast words", "native msgs",
                     "bcast/native"});

  for (unsigned gamma = 1; gamma <= 2; ++gamma) {
    const unsigned h = (1u << (gamma + 1)) - 1;  // per Lemma 12's setting
    auto cfg = core::SamplerConfig::bench_profile(gamma, h, env.seed);
    const auto spanner = core::run_distributed_sampler(g, cfg);
    for (unsigned t : {1u, 2u, 4u, 8u}) {
      const auto radius =
          static_cast<unsigned>(spanner.stretch_bound) * t;
      const auto reduced =
          localsim::run_tlocal_broadcast(g, spanner.edges, radius, env.seed);
      const auto native =
          localsim::run_tlocal_broadcast(g, localsim::all_edges(g), t, env.seed);
      const double round_bound =
          spanner.stretch_bound * t + std::pow(6.0, gamma);
      table.add(gamma, t, spanner.stretch_bound, round_bound,
                reduced.stats.rounds, reduced.stats.messages,
                reduced.metrics.words_total, native.stats.messages,
                util::fixed(static_cast<double>(reduced.stats.messages) /
                                static_cast<double>(native.stats.messages),
                            3));
    }
  }
  env.emit(table,
           "E8 / Lemma 12 — t-local broadcast over the Sampler spanner vs "
           "native flooding (dense ER, deg 64)");
  return 0;
}
