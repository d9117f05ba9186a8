// Shared helpers for the experiment harness binaries.
//
// Every bench prints aligned predicted-vs-measured tables (fl::util::Table)
// and accepts --quick (smaller sweeps) plus --csv / --json (machine-readable
// dumps) and --seed. The experiment ids (E1..E10) are indexed in
// docs/EXPERIMENTS.md; the binaries themselves live in bench/.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fl::bench {

struct Env {
  bool quick = false;
  bool csv = false;
  bool json = false;
  std::uint64_t seed = 1;

  /// Read the common flags. `extra` names the bench's own flags; any other
  /// option on the command line is an error, so a typo never silently runs
  /// a different sweep.
  static Env parse(const util::Options& opt,
                   std::vector<std::string> extra = {}) {
    extra.insert(extra.end(), {"quick", "csv", "json", "seed"});
    opt.require_known(extra);
    Env env;
    env.quick = opt.get_bool("quick", false);
    env.csv = opt.get_bool("csv", false);
    env.json = opt.get_bool("json", false);
    env.seed = opt.get_uint("seed", 1);
    return env;
  }

  /// Render one result table in the selected format. With --json each
  /// table becomes one JSON object on stdout (concatenated JSON /
  /// JSON-lines style when a bench emits several tables), keyed by its
  /// title — the machine-readable record the per-PR BENCH_*.json
  /// trajectory snapshots consume; E1–E10 all route through here.
  void emit(const util::Table& table, const std::string& title) const {
    if (json) {
      table.print_json(std::cout, title);
    } else if (csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout, title);
      std::cout << '\n';
    }
  }
};

inline std::string ratio_cell(double measured, double predicted) {
  if (predicted <= 0.0) return "-";
  return util::fixed(measured / predicted, 3);
}

}  // namespace fl::bench
