// E6 — Theorem 11 (messages): the distributed Sampler sends
// Õ(n^{1+δ+ε}) messages whp, *independent of |E|*.
//
// Two sweeps:
//   (a) density sweep at fixed n — message count must flatten out while
//       m grows by orders of magnitude (the "free lunch" headline);
//   (b) n sweep at fixed density — log-log slope vs predicted 1+δ+ε.
#include <cmath>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const util::Options opt(argc, argv);
  const auto env = bench::Env::parse(opt, {"congest"});
  const bool congest_section = opt.get_bool("congest", false);

  // (a) density sweep.
  {
    const graph::NodeId n = env.quick ? 512 : 1024;
    // The "words" column meters logical message sizes: Sampler responses
    // carry whole boundary-edge lists, which is free in LOCAL but shows why
    // the result does NOT transfer to CONGEST as-is.
    util::Table table({"n", "avg deg", "m", "messages", "msgs/m",
                       "msgs/n^{1+δ+ε}", "words"});
    const auto cfg = core::SamplerConfig::bench_profile(2, 3, env.seed);
    std::vector<double> degs{4, 8, 16, 32, 64};
    if (!env.quick) {
      degs.push_back(128);
      degs.push_back(256);
    }
    for (const double deg : degs) {
      util::Xoshiro256 rng(env.seed);
      const auto m = static_cast<std::size_t>(deg * n / 2);
      const auto g = graph::erdos_renyi_gnm(n, m, rng);
      const auto run = core::run_distributed_sampler(g, cfg);
      const double pred = std::pow(static_cast<double>(n),
                                   cfg.message_exponent());
      table.add(static_cast<std::size_t>(n), deg,
                static_cast<std::size_t>(g.num_edges()), run.stats.messages,
                util::fixed(static_cast<double>(run.stats.messages) /
                                static_cast<double>(g.num_edges()),
                            3),
                util::fixed(static_cast<double>(run.stats.messages) / pred, 3),
                run.metrics.words_total);
    }
    // The complete graph as the extreme point.
    {
      const graph::NodeId nc = env.quick ? 512 : 1024;
      const auto g = graph::complete(nc);
      const auto run = core::run_distributed_sampler(g, cfg);
      const double pred =
          std::pow(static_cast<double>(nc), cfg.message_exponent());
      table.add(static_cast<std::size_t>(nc), "complete",
                static_cast<std::size_t>(g.num_edges()), run.stats.messages,
                util::fixed(static_cast<double>(run.stats.messages) /
                                static_cast<double>(g.num_edges()),
                            3),
                util::fixed(static_cast<double>(run.stats.messages) / pred, 3),
                run.metrics.words_total);
    }
    env.emit(table,
             "E6a / Theorem 11 — messages vs density at fixed n: msgs/m "
             "falls toward 0 and msgs plateau at the Õ(n^{1+δ+ε}) cap "
             "(visible once deg exceeds the trial size Õ(n^{δ+ε}))");

    // Theorem 11's accounting, by protocol role.
    {
      const graph::NodeId nb = env.quick ? 512 : 1024;
      util::Xoshiro256 rng(env.seed + 3);
      const auto g = graph::erdos_renyi_gnm(nb, 32ull * nb, rng);
      const auto run = core::run_distributed_sampler(g, cfg);
      util::Table roles({"role", "messages", "share"});
      const double total = static_cast<double>(run.breakdown.total());
      auto share = [&](std::uint64_t v) {
        return util::fixed(100.0 * static_cast<double>(v) / total, 1) + "%";
      };
      roles.add("queries + replies (Õ(n^{1+δ+ε}) term)",
                run.breakdown.queries, share(run.breakdown.queries));
      roles.add("cluster-tree flood/echo (O(n)/session term)",
                run.breakdown.tree_sessions, share(run.breakdown.tree_sessions));
      roles.add("center queries + replies", run.breakdown.center,
                share(run.breakdown.center));
      roles.add("attach + death control", run.breakdown.control,
                share(run.breakdown.control));
      env.emit(roles, "E6c — message breakdown by protocol role (deg-64 ER)");
    }
  }

  // (b) n sweep in the regime where the cap binds: complete graphs
  // (m = n(n−1)/2 exceeds n^{1+δ+ε} at every size), so the fitted exponent
  // measures the theorem's bound rather than the m-bound regime.
  {
    util::Table table({"k", "h", "n", "m", "messages"});
    util::Table fits({"k", "h", "predicted exponent 1+δ+ε", "raw slope",
                      "log-corrected slope", "R²"});
    std::vector<graph::NodeId> sizes{181, 256, 362, 512, 724, 1024};
    if (!env.quick) sizes.push_back(1448);
    for (const auto& [k, h] : {std::pair<unsigned, unsigned>{1, 2},
                              std::pair<unsigned, unsigned>{2, 3},
                              std::pair<unsigned, unsigned>{3, 3}}) {
      const auto cfg0 = core::SamplerConfig::bench_profile(k, h, env.seed);
      std::vector<double> xs, ys, ys_corr;
      for (const auto n : sizes) {
        const auto g = graph::complete(n);
        auto cfg = cfg0;
        cfg.seed = env.seed + n;
        const auto run = core::run_distributed_sampler(g, cfg);
        xs.push_back(static_cast<double>(n));
        ys.push_back(static_cast<double>(run.stats.messages));
        // The bench-profile trial size carries one log n (Õ factor).
        ys_corr.push_back(ys.back() / std::log2(static_cast<double>(n)));
        table.add(k, h, static_cast<std::size_t>(n),
                  static_cast<std::size_t>(g.num_edges()),
                  run.stats.messages);
      }
      const auto raw = util::fit_loglog(xs, ys);
      const auto corr = util::fit_loglog(xs, ys_corr);
      fits.add(k, h, util::fixed(cfg0.message_exponent(), 4),
               util::fixed(raw.slope, 4), util::fixed(corr.slope, 4),
               util::fixed(corr.r_squared, 4));
    }
    env.emit(table, "E6b — message counts, n sweep on K_n (cap binds)");
    env.emit(fits, "E6b — fitted message exponents vs predicted 1+δ+ε");
  }

  // (d) --congest: the same Sampler under an enforced per-edge word budget
  // (sim/congest.hpp), against its LOCAL run. The budget switches the
  // Sampler to event-driven phase barriers: a phase advances the merge
  // round its traffic drains, so the run pays only what the deferrals
  // actually cost. Message counts and the spanner must match the LOCAL run
  // exactly: a budget delays traffic, it never drops or reorders a decision
  // (core's root handlers canonicalise their accumulation order). At degree
  // <= 8 the budgeted run must also finish in fewer rounds than LOCAL's
  // fixed timetable, which no timetable-bound run can do — proof that the
  // barrier engages.
  if (congest_section) {
    const std::uint64_t budget = 8;
    util::Table table({"n", "avg deg", "budget", "max msg words",
                       "local rounds", "budgeted rounds", "stretch",
                       "deferrals", "messages", "words",
                       "spanner == local?"});
    for (const double deg : {4.0, 8.0, 16.0, 32.0}) {
      const graph::NodeId n = env.quick ? 256 : 512;
      util::Xoshiro256 rng(env.seed);
      const auto m = static_cast<std::size_t>(deg * n / 2);
      const auto g = graph::erdos_renyi_gnm(n, m, rng);
      auto cfg = core::SamplerConfig::bench_profile(2, 2, env.seed);
      // Pin the baseline LOCAL explicitly so an FL_SIM_CONGEST env probe
      // cannot budget it out from under the comparison.
      cfg.congest = sim::CongestConfig{};
      const auto local = core::run_distributed_sampler(g, cfg);

      cfg.congest = sim::CongestConfig{budget, sim::CongestPolicy::Defer};
      const auto budgeted = core::run_distributed_sampler(g, cfg);
      FL_REQUIRE(budgeted.stats.messages == local.stats.messages,
                 "budgeted sampler sent a different message count than "
                 "LOCAL — the budget must delay, never drop");
      FL_REQUIRE(budgeted.edges == local.edges,
                 "budgeted sampler built a different spanner than LOCAL — "
                 "a root handler is delivery-order dependent");
      if (deg <= 8.0) {
        FL_REQUIRE(budgeted.stats.rounds < local.stats.rounds,
                   "budgeted sampler did not finish below LOCAL's fixed "
                   "timetable — the event-driven barrier did not engage");
      }
      table.add(static_cast<std::size_t>(n), deg, budget,
                local.metrics.max_message_words, local.stats.rounds,
                budgeted.stats.rounds,
                util::fixed(static_cast<double>(budgeted.stats.rounds) /
                                static_cast<double>(local.stats.rounds),
                            2),
                budgeted.metrics.deferrals_total, budgeted.stats.messages,
                budgeted.metrics.words_total, budgeted.edges == local.edges);
    }
    env.emit(table,
             "E6d — Sampler under a CONGEST word budget: LOCAL fixed "
             "timetable vs budgeted event-driven phase barriers (Defer, "
             "message counts and spanner pinned to LOCAL)");
  }
  return 0;
}
