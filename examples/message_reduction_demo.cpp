// Message-reduction demo: transform a t-round LOCAL algorithm (Luby's MIS)
// into a message-efficient execution (paper Theorem 3).
//
//   ./message_reduction_demo [--n 600] [--dense] [--t 6] [--seed 1]
//
// Runs the payload natively (t rounds of flooding over G, Θ(t·m) messages)
// and through the transformer (Sampler spanner + αt-radius flooding),
// checks that the outputs are bit-identical, and prints the cost ledger.
#include <iostream>
#include <limits>

#include "core/config.hpp"
#include "graph/generators.hpp"
#include "localsim/algorithms.hpp"
#include "localsim/transformer.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const util::Options opt(argc, argv);
  opt.require_known({"n", "dense", "t", "seed"});
  const auto n = static_cast<graph::NodeId>(
      opt.get_uint("n", 600, std::numeric_limits<graph::NodeId>::max()));
  const bool dense = opt.get_bool("dense", true);
  const auto t = static_cast<unsigned>(
      opt.get_uint("t", 6, std::numeric_limits<unsigned>::max()));
  const auto seed = opt.get_uint("seed", 1);

  util::Xoshiro256 rng(seed);
  const auto g = dense ? graph::complete(n)
                       : graph::erdos_renyi_gnm(n, 16ull * n, rng);
  std::cout << "graph: " << g.summary() << "\n";

  const localsim::LubyMis mis(seed + 1, t);
  std::cout << "payload: " << mis.name() << " with t = " << mis.radius(g)
            << " rounds\n\n";

  const auto native = localsim::run_native(g, mis, seed);
  const auto cfg = core::SamplerConfig::bench_profile(2, 3, seed);
  const auto reduced = localsim::run_simulated(g, mis, cfg);

  util::Table table({"execution", "messages", "rounds", "notes"});
  table.add("native (flood over G)", native.messages, native.rounds,
            "Θ(t·m) messages");
  table.add("reduced: spanner stage", reduced.spanner_messages,
            reduced.spanner_rounds,
            "one-time, Õ(n^{1+δ+ε}), density-independent");
  table.add("reduced: broadcast stage", reduced.broadcast_messages,
            reduced.broadcast_rounds, "Õ(αt·|S|) per payload");
  table.add("reduced: total", reduced.messages, reduced.rounds, "");
  table.print(std::cout, "cost ledger");

  const bool equal = native.outputs == reduced.outputs;
  std::cout << "\noutputs identical: " << (equal ? "YES" : "NO") << "\n";
  std::size_t in_mis = 0;
  for (const auto o : native.outputs)
    if (o == 1) ++in_mis;
  std::cout << "MIS size: " << in_mis << " of " << g.num_nodes() << " nodes\n";
  std::cout << "steady-state message ratio (broadcast/native): "
            << util::fixed(static_cast<double>(reduced.broadcast_messages) /
                               static_cast<double>(native.messages),
                           3)
            << "\n";
  return equal ? 0 : 1;
}
