// E10 — Section 6 two-stage scheme (Theorem 3, second branch).
//
// Stage 1: Sampler spanner H (stretch α1, size s1). Stage 2: simulate an
// off-the-shelf LOCAL spanner algorithm over H — our Voronoi nearly-
// additive stage (DESIGN.md records the substitution for Derbel et al.) —
// yielding H' with a different stretch/size tradeoff. Payload broadcasts
// then run over H' instead of H. For large payload radii t the smaller
// per-round edge budget of H' wins even though its stretch is worse than
// native G: we chart messages vs t for one-stage and two-stage delivery.
#include "baseline/nearly_additive.hpp"
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

  // Stage 1: Sampler spanner H1.
  auto cfg = core::SamplerConfig::bench_profile(1, 3, env.seed);
  // The setup table records LOCAL construction rounds — pin them env-immune.
  cfg.congest = sim::CongestConfig{};
  const auto h1 = core::run_distributed_sampler(g, cfg);

  // Stage 2: the (2r+1)-stretch Voronoi spanner H2, built by a (r+1)-round
  // LOCAL algorithm. Its construction is simulated over H1: the messages
  // for that simulation are a broadcast of radius α1·(r+1) over H1.
  const unsigned r = 2;
  const auto h2 = baseline::build_nearly_additive(g, r, env.seed + 1);
  const auto stage2_radius =
      static_cast<unsigned>(h1.stretch_bound) * (r + 1);
  const auto stage2_sim =
      localsim::run_tlocal_broadcast(g, h1.edges, stage2_radius, env.seed);

  util::Table setup({"stage", "edges", "stretch", "construction msgs",
                     "construction rounds"});
  setup.add("H1 (Sampler k=1)", h1.edges.size(), h1.stretch_bound,
            h1.stats.messages, h1.stats.rounds);
  setup.add("H2 (Voronoi r=2, simulated over H1)", h2.edges.size(),
            h2.stretch_bound(),
            h1.stats.messages + stage2_sim.stats.messages,
            h1.stats.rounds + stage2_sim.stats.rounds);
  env.emit(setup, "E10 — two-stage setup costs");

  // Payload delivery: t-local broadcast via H1 directly vs via H2.
  util::Table table({"t", "native msgs", "via H1 msgs", "via H2 msgs",
                     "H1 rounds", "H2 rounds", "two-stage wins?"});
  for (unsigned t : {1u, 2u, 4u, 8u, 16u}) {
    const auto native =
        localsim::run_tlocal_broadcast(g, localsim::all_edges(g), t, env.seed);
    const auto via_h1 = localsim::run_tlocal_broadcast(
        g, h1.edges, static_cast<unsigned>(h1.stretch_bound) * t, env.seed);
    const auto via_h2 = localsim::run_tlocal_broadcast(
        g, h2.edges, static_cast<unsigned>(h2.stretch_bound()) * t, env.seed);
    table.add(t, native.stats.messages, via_h1.stats.messages,
              via_h2.stats.messages, via_h1.stats.rounds, via_h2.stats.rounds,
              via_h2.stats.messages < via_h1.stats.messages);
  }
  env.emit(table,
           "E10 — payload broadcast: one-stage (H1) vs two-stage (H2) vs "
           "native, t sweep");
  return 0;
}
