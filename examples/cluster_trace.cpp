// Figure 1 reproduction: narrate one run of Procedure Cluster_j on a small
// graph — query edges, F construction, center selection, clustering, and
// the contracted next-level multigraph — and emit DOT files for rendering.
//
//   ./cluster_trace [--n 24] [--seed 3] [--dot-dir /tmp]
//
// The DOT output draws G with the spanner edges highlighted; `dot -Tpng`
// turns it into a figure mirroring the paper's panels (a)-(f).
#include <fstream>
#include <iostream>
#include <limits>

#include "core/config.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/multigraph.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

int fl_main(int argc, char** argv) {
  using namespace fl;
  const util::Options opt(argc, argv);
  opt.require_known({"n", "seed", "dot-dir"});
  const auto n = static_cast<graph::NodeId>(
      opt.get_uint("n", 24, std::numeric_limits<graph::NodeId>::max()));
  const auto seed = opt.get_uint("seed", 3);
  const std::string dot_dir = opt.get_string("dot-dir", "");

  util::Xoshiro256 rng(seed);
  const auto g = graph::erdos_renyi_gnm(n, 3ull * n, rng);
  std::cout << "=== Figure 1 walk-through on " << g.summary() << " ===\n\n";

  const auto cfg = core::SamplerConfig::paper_faithful(2, 2, seed);
  std::cout << "(a) G_0 = G: " << g.summary() << "\n";

  // Run the sampling step of Cluster_0 by hand to show the internals.
  const auto m0 = graph::Multigraph::from_graph(g);
  std::vector<graph::NodeId> rep(n);
  for (graph::NodeId v = 0; v < n; ++v) rep[v] = v;
  const auto outcomes = core::run_sampling_step(m0, cfg, n, 0, rep);

  std::cout << "(b)-(c) query edges and F_v per node (level 0):\n";
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto& out = outcomes[v];
    std::cout << "  node " << v << ": queried " << out.f_edges.size()
              << " neighbours over " << out.distinct_query_edges
              << " query edges in " << out.trials_run << " trial(s), status="
              << (out.status == core::NodeStatus::Light
                      ? "light"
                      : out.status == core::NodeStatus::Heavy ? "heavy"
                                                              : "neither")
              << "\n";
  }

  // Full run for the remaining panels.
  const auto res = core::build_spanner(g, cfg);
  const auto& lv0 = res.trace.levels[0];
  std::cout << "\n(d) center selection: " << lv0.centers
            << " centers at level 0 (p_0 = "
            << cfg.center_prob(n, 0) << ")\n";
  std::cout << "(e) clustering: " << lv0.clustered << " nodes merged, "
            << lv0.unclustered << " unclustered\n";
  if (res.trace.levels.size() > 1) {
    const auto& lv1 = res.trace.levels[1];
    std::cout << "(f) G_1: " << lv1.virtual_nodes << " virtual nodes, "
              << lv1.virtual_edges
              << " virtual edges (parallel edges from contraction)\n";
  }
  std::cout << "\nfinal spanner: " << res.edges.size() << " of "
            << g.num_edges() << " edges, stretch bound "
            << res.stretch_bound << "\n";

  if (!dot_dir.empty()) {
    const std::string path = dot_dir + "/cluster_trace.dot";
    std::ofstream os(path);
    graph::write_dot(os, g, res.edges, "FreeLunch");
    std::cout << "DOT written to " << path
              << "  (render: dot -Tpng -o figure.png " << path << ")\n";
  } else {
    std::cout << "\n(pass --dot-dir DIR to emit a Graphviz rendering)\n";
  }
  return 0;
}
