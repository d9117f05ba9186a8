// E9 — Theorem 3 end-to-end: transform concrete LOCAL algorithms.
//
// For each payload (Luby MIS, coloring, BFS layers, leader election) on a
// dense graph we report native vs transformed message/round costs, verify
// output equality, and chart the amortization: how many payload executions
// until the one-time Sampler preprocessing is paid back.
#include <memory>

#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "localsim/algorithms.hpp"
#include "localsim/transformer.hpp"
#include "util/rng.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const util::Options opt(argc, argv);
  const auto env = bench::Env::parse(opt, {"congest"});
  const bool congest_section = opt.get_bool("congest", false);
  const graph::NodeId n = env.quick ? 512 : 1024;

  const auto g = graph::complete(n);
  const auto cfg = core::SamplerConfig::bench_profile(2, 3, env.seed);
  const auto spanner = core::run_distributed_sampler(g, cfg);

  std::vector<std::unique_ptr<localsim::LocalAlgorithm>> payloads;
  payloads.push_back(std::make_unique<localsim::LubyMis>(env.seed + 1, 6));
  payloads.push_back(
      std::make_unique<localsim::GreedyColoring>(env.seed + 2, 5));
  payloads.push_back(std::make_unique<localsim::BfsLayers>(4));
  payloads.push_back(std::make_unique<localsim::LeaderElection>(3));
  payloads.push_back(std::make_unique<localsim::LocalMin>(3));

  util::Table table({"payload", "t", "native msgs", "reduced msgs (bcast)",
                     "native rounds", "reduced rounds (bcast)",
                     "outputs equal?", "bcast/native msgs"});

  std::uint64_t native_total = 0, reduced_total = 0;
  // Kept for the --congest section, which reuses these LOCAL runs as the
  // baseline instead of re-flooding K_n per payload.
  std::vector<localsim::ExecutionReport> native_local, reduced_local;
  for (const auto& alg : payloads) {
    auto native = localsim::run_native(g, *alg, env.seed);
    auto reduced = localsim::run_over_spanner(
        g, *alg, spanner.edges, spanner.stretch_bound, env.seed);
    native_total += native.messages;
    reduced_total += reduced.messages;
    table.add(alg->name(), alg->radius(g), native.messages, reduced.messages,
              native.rounds, reduced.rounds,
              reduced.outputs == native.outputs,
              util::fixed(static_cast<double>(reduced.messages) /
                              static_cast<double>(native.messages),
                          3));
    native_local.push_back(std::move(native));
    reduced_local.push_back(std::move(reduced));
  }
  env.emit(table, "E9 / Theorem 3 — payload transformations on K_n");

  util::Table amort({"quantity", "value"});
  amort.add("sampler preprocessing msgs", spanner.stats.messages);
  amort.add("sampler preprocessing rounds", spanner.stats.rounds);
  amort.add("spanner edges |S|", spanner.edges.size());
  amort.add("graph edges m", static_cast<std::size_t>(g.num_edges()));
  const double avg_native = static_cast<double>(native_total) /
                            static_cast<double>(payloads.size());
  const double avg_reduced = static_cast<double>(reduced_total) /
                             static_cast<double>(payloads.size());
  amort.add("avg native msgs / payload", avg_native);
  amort.add("avg reduced msgs / payload", avg_reduced);
  const double saving = avg_native - avg_reduced;
  amort.add("payloads to amortize preprocessing",
            saving > 0
                ? util::fixed(
                      static_cast<double>(spanner.stats.messages) / saving, 2)
                : std::string("never (native cheaper)"));
  const double one_shot = static_cast<double>(spanner.stats.messages) +
                          avg_reduced;
  amort.add("one-shot reduced total (pre + 1 payload)", one_shot);
  amort.add("one-shot reduced/native", util::fixed(one_shot / avg_native, 3));
  env.emit(amort, "E9 — preprocessing amortization on K_n");

  // --congest: the transformed executions under an enforced per-edge word
  // budget. Bundled flooding ships whole origin batches in one message —
  // free in LOCAL, but through B-word edges every bundle pays
  // ceil(words/B) rounds. Both paths must still compute the native
  // outputs (the hop-budgeted flood reaches exactly B_H(v, R) under any
  // delivery schedule); what the budget changes is the round bill, and
  // the spanner path pays it on 2|S| edge-channels instead of 2m.
  if (congest_section) {
    const sim::CongestConfig budget{8, sim::CongestPolicy::Defer};
    util::Table table({"payload", "t", "native rounds (LOCAL)",
                       "native rounds (budget)", "reduced rounds (LOCAL)",
                       "reduced rounds (budget)", "native deferrals",
                       "reduced deferrals", "outputs equal?"});
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      const auto& alg = payloads[i];
      const auto native_budget =
          localsim::run_native(g, *alg, env.seed, budget);
      const auto reduced_budget = localsim::run_over_spanner(
          g, *alg, spanner.edges, spanner.stretch_bound, env.seed, budget);
      table.add(alg->name(), alg->radius(g), native_local[i].rounds,
                native_budget.rounds, reduced_local[i].rounds,
                reduced_budget.rounds, native_budget.deferrals,
                reduced_budget.deferrals,
                native_budget.outputs == native_local[i].outputs &&
                    reduced_budget.outputs == native_local[i].outputs);
    }
    env.emit(table,
             "E9c — payload broadcasts under a CONGEST word budget "
             "(Defer, 8 words/edge/round): LOCAL vs budgeted rounds");
  }
  return 0;
}
