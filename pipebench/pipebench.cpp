// pipebench — the paper's pipeline, end to end, on one named workload:
//
//   graph build -> core::run_distributed_sampler -> graph::check_spanner_*
//               -> localsim::run_over_spanner
//
// One process runs one workload. From --seed it draws a set of instances
// (input graph plus Sampler and payload coins), builds their graphs (set-up,
// repeated before every pass), evaluates the payload natively and by
// reference once per instance, runs one untimed pass per instance, then
// cycles timed passes through the instances until --seconds have elapsed.
// Each instance's first pass fixes its model fields; every later pass, and
// one pass at another lane count, must reproduce them exactly. A host gauge
// timed after every timed pass scales the timings to a fixed host speed.
// With --trace 1 the window is split: untraced passes first (the overhead
// baseline), then passes traced through FL_SIM_TRACE, whose RoundProfile
// JSONL run.py turns into the sim.* layer metrics.
//
// Every layer is timed from outside, by spans around the calls into its
// public functions. The last stdout line is one JSON object for run.py.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <malloc.h>

#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "graph/generators.hpp"
#include "graph/spanner_check.hpp"
#include "localsim/algorithms.hpp"
#include "localsim/tlocal_broadcast.hpp"
#include "localsim/transformer.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace fl;
using Clock = std::chrono::steady_clock;

// README.md records why each workload exists and how its size was chosen.
struct Workload {
  const char* name;
  bool complete;                ///< K_n; otherwise Erdős–Rényi G(n, n*deg/2)
  graph::NodeId n;
  graph::NodeId tiny_n;         ///< --tiny: smoke-test size
  unsigned avg_degree;          ///< Erdős–Rényi only
  unsigned lanes;               ///< FL_SIM_THREADS, capped at nproc
  std::size_t check_samples;    ///< 0 = exact stretch check
  unsigned payload_t;           ///< LubyMis rounds; 0 = no reduced broadcast
  std::uint64_t congest_words;  ///< Defer budget per edge and round; 0 = LOCAL
  std::size_t instances;        ///< inputs drawn from one --seed
};

constexpr Workload kWorkloads[] = {
    {"kn_dense", true, 192, 64, 0, 1, 0, 6, 0, 24},
    {"er_sparse", false, 2500, 1000, 8, 1, 400, 0, 0, 16},
    {"er_payload", false, 1000, 300, 16, 1, 0, 1, 0, 8},
    {"kn_congest", true, 128, 32, 0, 1, 0, 2, 8, 64},
};

// pipeline_s_tail is the p90 of the timed passes. A fixed percentile keeps
// it comparable between runs whose hosts ran at different speeds; 100 passes
// put at least 10 beyond it.
constexpr std::size_t kMinTimedPasses = 100;
// The host gauge's time on a host running at its usual unloaded speed. The
// timed metrics are scaled to it (see HostGauge).
constexpr double kGaugeReference_s = 0.003;
constexpr std::size_t kMaxTracedPasses = 8;  // bounds the artifacts to lint
constexpr std::size_t kMaxFailureNotes = 20;

enum class Fault { None, DropEdges, PerturbOutput };

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name;
  int parent;  ///< index of the enclosing `setup` / `pass` span; -1 for roots
  double begin_s;
  double end_s;
  double seconds() const { return end_s - begin_s; }
};

/// Benchmark-side spans, kept in memory and written once at exit.
class SpanLog {
 public:
  int open(const char* name, int parent) {
    const double now = seconds_between(t0_, Clock::now());
    spans_.push_back({name, parent, now, now});
    return static_cast<int>(spans_.size() - 1);
  }
  double close(int id) {
    spans_[id].end_s = seconds_between(t0_, Clock::now());
    return spans_[id].seconds();
  }
  double seconds(int id) const { return id < 0 ? 0.0 : spans_[id].seconds(); }
  void write(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                    "\"begin_s\":%.9f,\"end_s\":%.9f}\n",
                    i ? "," : "", i, spans_[i].name, spans_[i].parent,
                    spans_[i].begin_s, spans_[i].end_s);
      os << buf;
    }
    os << "]\n";
  }

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// A fixed piece of work that calls none of the repository's code: sorting
/// the same 32K pseudo-random words. The host is shared with other tenants,
/// and for seconds to minutes at a time it runs everything up to ~1.5x
/// slower; over a whole run that moved the median pass by ±20% between
/// runs of the same code. Timed right after every timed pass, the gauge
/// shows how fast the host ran over the run, and the timed metrics are
/// scaled by kGaugeReference_s / its median time. The program's own speed
/// is untouched by the scaling, because the gauge does not run it.
class HostGauge {
 public:
  HostGauge() {
    util::Xoshiro256 rng(0x9a0e5eedULL);
    src_.resize(std::size_t{1} << 15);
    for (auto& x : src_) x = static_cast<std::uint32_t>(rng());
  }
  double seconds() {
    const auto t = Clock::now();
    buf_ = src_;
    std::sort(buf_.begin(), buf_.end());
    // Keep the sort inside the timed interval.
    asm volatile("" : : "r"(buf_.data()) : "memory");
    return seconds_between(t, Clock::now());
  }

 private:
  std::vector<std::uint32_t> src_, buf_;
};

/// 0 for a layer the run did not measure (no traced pass, no payload).
double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : util::median(v);
}

std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10);
  return 0;
}

/// Return freed heap to the kernel and restart VmHWM from the current
/// resident set, so that the next VmHWM read is the peak of what ran since.
void restart_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

void set_env(const char* name, const std::string& value) {
  if (value.empty()) {
    ::unsetenv(name);
  } else {
    ::setenv(name, value.c_str(), 1);
  }
}

/// Everything one pass produced that is a model field: identical across
/// passes, lane counts and trace levels, or the pass fails.
struct ModelFields {
  std::vector<graph::EdgeId> spanner;
  std::uint64_t sampler_msgs = 0, sampler_words = 0, sampler_rounds = 0;
  double max_stretch = 0.0;
  std::size_t check_edges = 0, violations = 0;
  std::uint64_t transform_msgs = 0, transform_rounds = 0;
  bool operator==(const ModelFields&) const = default;
};

/// The counts a detailed pass reports, as plain numbers.
struct Counts {
  double sampler_msgs = 0, sampler_words = 0, sampler_rounds = 0;
  double queries = 0, tree = 0, center = 0, control = 0;
  double max_message_words = 0, neither = 0, query_edges = 0, spanner_added = 0;
  double deferrals = 0, carry_peak = 0;
  double spanner_edges = 0, check_edges = 0, violations = 0, max_stretch = 0;
  double bcast_msgs = 0, bcast_words = 0, bcast_rounds = 0, reached_ids = 0;
};

struct PassResult {
  ModelFields model;
  Counts counts;
  bool ok = true;
  double pipeline_s = 0.0;  ///< sampler + check + transform, wall
  double peak_rss_mb = 0.0; ///< VmHWM right after the timed part
  int sampler_span = -1, check_span = -1, transform_span = -1, bcast_span = -1;
};

/// One input of the workload. Passes cycle through the instances, so a run
/// measures a sample of inputs rather than one draw of the Sampler's coins.
struct Instance {
  std::uint64_t seed;
  graph::Graph g;
  core::SamplerConfig cfg;
  localsim::LubyMis alg;
  std::vector<std::uint64_t> reference;
  std::optional<localsim::ExecutionReport> native;
  std::optional<ModelFields> model;  ///< fixed by the instance's first pass
  Counts counts;
  std::vector<double> pass_s;        ///< untraced passes
  std::vector<double> build_s;       ///< graph builds
};

struct Bench {
  const Workload& w;
  Fault fault;
  sim::CongestConfig congest;
  std::string trace_dir;
  SpanLog spans;
  std::vector<std::string> artifacts;
  std::vector<std::string> sampler_profiles, bcast_profiles;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> notes;

  bool note(bool ok, const std::string& what) {
    if (!ok && notes.size() < kMaxFailureNotes &&
        std::find(notes.begin(), notes.end(), what) == notes.end())
      notes.push_back(what);
    return ok;
  }

  /// Point FL_SIM_TRACE at a fresh artifact for the next Network, or clear
  /// it. Unique paths matter: finalize() truncates.
  void trace_next(bool traced, const std::string& label, std::size_t pass,
                  std::vector<std::string>* profiles) {
    if (!traced) {
      set_env("FL_SIM_TRACE", "");
      return;
    }
    const std::string path =
        trace_dir + "/" + label + "-" + std::to_string(pass) + ".json";
    // Spans level: the profile level writes a Chrome trace without the
    // per-lane spans that scripts/trace_lint.py requires.
    set_env("FL_SIM_TRACE", path + ":spans");
    artifacts.push_back(path);
    artifacts.push_back(path + ".jsonl");
    if (profiles != nullptr) profiles->push_back(path + ".jsonl");
  }

  /// Sampler -> stretch check -> transformed payload. A detailed pass then
  /// runs the broadcast on its own, outside the timed pipeline, for its
  /// words, reach and engine profile.
  PassResult run_pass(const Instance& in, std::size_t index, unsigned lanes,
                      bool detailed, bool traced) {
    set_env("FL_SIM_THREADS", std::to_string(lanes));
    PassResult r;
    const int pass = spans.open("pass", -1);
    const auto t0 = Clock::now();

    trace_next(traced, "sampler", index, &sampler_profiles);
    r.sampler_span = spans.open("core.sampler", pass);
    auto sampler = core::run_distributed_sampler(in.g, in.cfg);
    spans.close(r.sampler_span);
    auto& edges = sampler.edges;
    if (fault == Fault::DropEdges) {
      // Cut every even-numbered node out of the spanner: most G-edges lose
      // their H-path, so even the sampled check must see violations.
      std::erase_if(edges, [&](graph::EdgeId e) {
        const auto ep = in.g.endpoints(e);
        return ep.u % 2 == 0 || ep.v % 2 == 0;
      });
    }

    const double alpha = in.cfg.stretch_bound();
    r.check_span = spans.open("graph.check", pass);
    const bool valid = graph::is_valid_edge_subset(in.g, edges);
    graph::StretchReport check;
    if (w.check_samples == 0) {
      check = graph::check_spanner_exact(in.g, edges, alpha);
    } else {
      util::Xoshiro256 rng(in.seed ^ 0x5eedc0de5eedc0deULL);
      check = graph::check_spanner_sampled(
          in.g, edges, w.check_samples,
          static_cast<std::uint32_t>(std::ceil(alpha)), rng, alpha);
    }
    spans.close(r.check_span);
    r.ok &= note(valid, "spanner is not a valid edge subset");
    r.ok &= note(check.connected, "spanner disconnects G");
    r.ok &= note(check.violations == 0,
                 std::to_string(check.violations) + " stretch violations at alpha");

    std::optional<localsim::ExecutionReport> transform;
    if (w.payload_t > 0) {
      trace_next(traced, "transform", index, nullptr);
      r.transform_span = spans.open("localsim.transform", pass);
      transform = localsim::run_over_spanner(in.g, in.alg, edges, alpha,
                                             in.seed, congest);
      spans.close(r.transform_span);
      if (fault == Fault::PerturbOutput) transform->outputs[0] ^= 1;
      r.ok &= note(transform->outputs == in.reference,
                   "transformed outputs differ from run_reference");
    }
    r.pipeline_s = seconds_between(t0, Clock::now());
    r.peak_rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;

    Counts& c = r.counts;
    if (w.payload_t > 0 && detailed) {
      trace_next(traced, "bcast", index, &bcast_profiles);
      const auto radius = static_cast<unsigned>(
          std::ceil(alpha * static_cast<double>(in.alg.radius(in.g))));
      r.bcast_span = spans.open("localsim.bcast", pass);
      const auto bcast =
          localsim::run_tlocal_broadcast(in.g, edges, radius, in.seed, congest);
      spans.close(r.bcast_span);
      r.ok &= note(bcast.stats.messages == transform->messages &&
                       bcast.stats.rounds == transform->rounds,
                   "standalone broadcast differs from run_over_spanner's");
      for (const auto& reached : bcast.reached)
        c.reached_ids += static_cast<double>(reached.size());
      c.bcast_words = static_cast<double>(bcast.metrics.words_total);
      c.deferrals += static_cast<double>(bcast.metrics.deferrals_total);
      c.carry_peak = static_cast<double>(bcast.metrics.carry_peak);
    }
    trace_next(false, "", 0, nullptr);
    spans.close(pass);

    const auto& sm = sampler.metrics;
    r.model = {edges, sm.messages_total, sm.words_total, sm.rounds,
               check.max_edge_stretch, check.edges_checked, check.violations,
               transform ? transform->messages : 0,
               transform ? transform->rounds : 0};
    c.sampler_msgs = static_cast<double>(sm.messages_total);
    c.sampler_words = static_cast<double>(sm.words_total);
    c.sampler_rounds = static_cast<double>(sm.rounds);
    c.queries = static_cast<double>(sampler.breakdown.queries);
    c.tree = static_cast<double>(sampler.breakdown.tree_sessions);
    c.center = static_cast<double>(sampler.breakdown.center);
    c.control = static_cast<double>(sampler.breakdown.control);
    c.max_message_words = static_cast<double>(sm.max_message_words);
    for (const auto& lt : sampler.levels) {
      c.neither += static_cast<double>(lt.neither);
      c.query_edges += static_cast<double>(lt.query_edges);
      c.spanner_added += static_cast<double>(lt.spanner_added);
    }
    c.deferrals += static_cast<double>(sm.deferrals_total);
    c.carry_peak = std::max(c.carry_peak, static_cast<double>(sm.carry_peak));
    c.spanner_edges = static_cast<double>(edges.size());
    c.check_edges = static_cast<double>(check.edges_checked);
    c.violations = static_cast<double>(check.violations);
    c.max_stretch = check.max_edge_stretch;
    if (transform) {
      c.bcast_msgs = static_cast<double>(transform->messages);
      c.bcast_rounds = static_cast<double>(transform->rounds);
    }
    return r;
  }

  /// One counted pass. An exception or a failed check fails it, and so do
  /// model fields that differ from the instance's first pass.
  std::optional<PassResult> attempt(Instance& in, std::size_t index,
                                    unsigned lanes, bool detailed, bool traced) {
    ++attempted;
    try {
      PassResult r = run_pass(in, index, lanes, detailed, traced);
      if (in.model) {
        r.ok &= note(r.model == *in.model,
                     "model fields differ from the instance's first pass (" +
                         std::to_string(lanes) + " lanes)");
      } else {
        in.model = r.model;
        in.counts = r.counts;
      }
      if (!r.ok) ++failed;
      return r;
    } catch (const std::exception& e) {
      ++failed;
      note(false, std::string("pass threw: ") + e.what());
      return std::nullopt;
    }
  }
};

struct Json {
  std::string out = "{";
  void key(const std::string& k) {
    if (out.size() > 1) out += ",";
    out += "\"" + k + "\":";
  }
  static std::string quote(const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return q + "\"";
  }
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    key(k);
    out += buf;
  }
  void str(const std::string& k, const std::string& v) {
    key(k);
    out += quote(v);
  }
  void strs(const std::string& k, const std::vector<std::string>& vs) {
    key(k);
    out += "[";
    for (std::size_t i = 0; i < vs.size(); ++i) out += (i ? "," : "") + quote(vs[i]);
    out += "]";
  }
  void obj(const std::string& k, const Json& inner) {
    key(k);
    out += inner.out + "}";
  }
};

bool optimised_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || !defined(NDEBUG)
  return false;
#else
  return std::string_view(PIPEBENCH_BUILD_TYPE) == "Release" &&
         std::string_view(PIPEBENCH_CXX_FLAGS).find("-fsanitize") ==
             std::string_view::npos;
#endif
}

int run(int argc, char** argv) {
  const util::Options opt(argc, argv);
  const std::string name = opt.get_string("workload", "");
  const Workload* wp = nullptr;
  for (const auto& w : kWorkloads)
    if (name == w.name) wp = &w;
  if (wp == nullptr) {
    std::cerr << "pipebench: unknown --workload '" << name << "'\n";
    return 2;
  }
  const Workload& w = *wp;
  // The window counts from here, so that set-up on a slow host cannot
  // stretch the run.
  const auto start = Clock::now();
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const double seconds = opt.get_double("seconds", 25.0);
  const bool trace = opt.get_int("trace", 0) != 0;
  const bool tiny = opt.get_bool("tiny", false);
  const std::string fault_name = opt.get_string("fault", "none");
  const std::string trace_dir = opt.get_string("trace-dir", "");
  if (seconds <= 0.0 || (trace && trace_dir.empty())) {
    std::cerr << "pipebench: need --seconds > 0, and --trace-dir with --trace 1\n";
    return 2;
  }
  const Fault fault = fault_name == "drop-edges"       ? Fault::DropEdges
                      : fault_name == "perturb-output" ? Fault::PerturbOutput
                                                       : Fault::None;
  if ((fault == Fault::None && fault_name != "none") ||
      (fault == Fault::PerturbOutput && w.payload_t == 0)) {
    std::cerr << "pipebench: --fault must be none, drop-edges or "
                 "perturb-output (the last needs a payload workload)\n";
    return 2;
  }
  if (!optimised_build()) {
    std::cerr << "pipebench: refusing to measure a " << PIPEBENCH_BUILD_TYPE
              << " / sanitizer / assert-enabled build; build Release\n";
    return 3;
  }
  // The environment must not reshape the run: lanes and tracing are set per
  // call, budgets only through the explicit configs.
  for (const char* var : {"FL_SIM_CONGEST", "FL_SIM_BACKEND", "FL_SIM_CHECK",
                          "FL_SIM_TRACE", "FL_SIM_BALANCE", "FL_SIM_THREADS"})
    ::unsetenv(var);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned lanes = std::min(w.lanes, nproc);
  const unsigned cross_lanes = lanes == 1 ? std::min(2u, nproc) : 1;
  const graph::NodeId n = tiny ? w.tiny_n : w.n;

  // LOCAL gets an explicit unlimited config too, so that no FL_SIM_CONGEST
  // value can reach the run.
  Bench b{w, fault, sim::CongestConfig{}, trace_dir, {}, {}, {}, {}, 0, 0, {}};
  if (w.congest_words > 0)
    b.congest = sim::CongestConfig{w.congest_words, sim::CongestPolicy::Defer};

  std::vector<Instance> inst;
  for (std::size_t i = 0; i < w.instances; ++i) {
    const std::uint64_t s = seed * w.instances + i;
    inst.push_back({s, {}, core::SamplerConfig::bench_profile(2, 3, s),
                    localsim::LubyMis(s + 1, w.payload_t), {}, {}, {}, {}, {}, {}});
    inst.back().cfg.congest = b.congest;
  }

  // Set-up: every instance's graph is built here and rebuilt before each of
  // its passes, so setup_s samples the whole run rather than its first
  // second. It is the mean over instances of each one's median build: on
  // Erdős–Rényi inputs one graph can take 40% longer to build than another
  // of the same size, and a median over all builds flips between the two.
  const auto build_graph = [&](Instance& in) {
    const int setup = b.spans.open("setup", -1);
    const int id = b.spans.open("graph.build", setup);
    if (w.complete) {
      in.g = graph::complete(n);
    } else {
      util::Xoshiro256 rng(in.seed);
      in.g = graph::erdos_renyi_gnm(
          n, static_cast<std::size_t>(n) * w.avg_degree / 2, rng);
    }
    in.build_s.push_back(b.spans.close(id));
    b.spans.close(setup);
  };
  for (auto& in : inst) build_graph(in);

  // Once per instance: the payload by reference and natively over G.
  std::vector<double> reference_s, native_s;
  const int setup = b.spans.open("setup", -1);
  if (w.payload_t > 0) {
    set_env("FL_SIM_THREADS", std::to_string(lanes));
    for (auto& in : inst) {
      int id = b.spans.open("localsim.reference", setup);
      in.reference = localsim::run_reference(in.g, in.alg);
      reference_s.push_back(b.spans.close(id));
      id = b.spans.open("localsim.native", setup);
      in.native = localsim::run_native(in.g, in.alg, in.seed, b.congest);
      native_s.push_back(b.spans.close(id));
      ++b.attempted;
      if (!b.note(in.native->outputs == in.reference,
                  "native outputs differ from run_reference"))
        ++b.failed;
    }
  }
  b.spans.close(setup);

  // The first cycle is detailed and untimed: it fixes each instance's model
  // fields and counts, warms the caches, and measures each pass's memory
  // peak from a trimmed heap. Timed passes then cycle through the
  // instances until the window is over and the tail percentile has enough
  // passes beyond it; the run may stop mid-cycle.
  std::vector<double> untraced_s, gauge_s, pass_rss_mb;
  HostGauge gauge;
  const double untraced_window = trace ? seconds / 2 : seconds;
  std::size_t index = 0;
  for (auto& in : inst) {
    build_graph(in);
    restart_peak_rss();
    const auto r = b.attempt(in, index++, lanes, true, false);
    if (r) pass_rss_mb.push_back(r->peak_rss_mb);
  }
  while (untraced_s.size() < kMinTimedPasses ||
         seconds_between(start, Clock::now()) < untraced_window) {
    auto& in = inst[index % inst.size()];
    build_graph(in);
    const auto r = b.attempt(in, index++, lanes, false, false);
    if (!r) break;  // the run has failed already
    untraced_s.push_back(r->pipeline_s);
    in.pass_s.push_back(r->pipeline_s);
    gauge_s.push_back(gauge.seconds());
  }
  const bool have_models = std::all_of(
      inst.begin(), inst.end(), [](const Instance& in) { return in.model.has_value(); });
  // Determinism across lane counts: instance 0 once more, untimed.
  b.attempt(inst[0], index++, cross_lanes, false, false);

  std::vector<double> sampler_s, check_s, transform_s, bcast_s, eval_s,
      unattributed, overhead;
  if (trace) {
    for (auto& in : inst) {
      if (!sampler_s.empty() && (sampler_s.size() == kMaxTracedPasses ||
                                 seconds_between(start, Clock::now()) >= seconds))
        break;
      const auto r = b.attempt(in, index++, lanes, true, true);
      if (!r) continue;
      const double s = b.spans.seconds(r->sampler_span);
      const double c = b.spans.seconds(r->check_span);
      const double x = b.spans.seconds(r->transform_span);
      sampler_s.push_back(s);
      check_s.push_back(c);
      transform_s.push_back(x);
      bcast_s.push_back(b.spans.seconds(r->bcast_span));
      eval_s.push_back(r->bcast_span >= 0 ? x - bcast_s.back() : 0.0);
      unattributed.push_back((r->pipeline_s - s - c - x) / r->pipeline_s);
      overhead.push_back(r->pipeline_s / median(in.pass_s) - 1.0);
    }
    b.spans.write(trace_dir + "/spans.json");
  }

  // ---- results: model quantities are means over the instances ----------
  Json e2e, layer, build;
  if (have_models && !untraced_s.empty()) {
    const auto mean = [&](auto f) {
      double sum = 0.0;
      for (const auto& in : inst) sum += f(in);
      return sum / static_cast<double>(inst.size());
    };
    const auto avg = [&](double Counts::*field) {
      return mean([&](const Instance& in) { return in.counts.*field; });
    };
    const auto total = [&](double Counts::*field) {
      return avg(field) * static_cast<double>(inst.size());
    };
    const auto edges = [](const Instance& in) {
      return static_cast<double>(in.g.num_edges());
    };
    double max_stretch = 0.0, carry_peak = 0.0;
    for (const auto& in : inst) {
      max_stretch = std::max(max_stretch, in.counts.max_stretch);
      carry_peak = std::max(carry_peak, in.counts.carry_peak);
    }

    // Timings at the gauge's reference speed; the raw ones go alongside.
    const double scale = kGaugeReference_s / median(gauge_s);
    std::vector<double> sorted = untraced_s;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t beyond = sorted.size() / 10;
    e2e.num("pipeline_s", median(untraced_s) * scale);
    e2e.num("pipeline_s_tail", sorted[sorted.size() - 1 - beyond] * scale);
    e2e.num("pipeline_passes", static_cast<double>(sorted.size()));
    const double build_s =
        mean([](const Instance& in) { return median(in.build_s); });
    e2e.num("setup_s", build_s * scale);
    e2e.num("raw_pipeline_s", median(untraced_s));
    e2e.num("raw_setup_s", build_s);
    e2e.num("gauge_s", median(gauge_s));
    e2e.num("peak_rss_mb", median(pass_rss_mb));
    e2e.num("messages", avg(&Counts::sampler_msgs) + avg(&Counts::bcast_msgs));
    e2e.num("words", avg(&Counts::sampler_words) + avg(&Counts::bcast_words));
    e2e.num("rounds", avg(&Counts::sampler_rounds) + avg(&Counts::bcast_rounds));
    e2e.num("spanner_edges", avg(&Counts::spanner_edges));
    e2e.num("sampler_msgs_per_edge", mean([&](const Instance& in) {
              return in.counts.sampler_msgs / edges(in);
            }));
    // Without a payload the native side is one round of flooding over G:
    // one message per directed edge, 2m.
    e2e.num("msg_ratio", mean([&](const Instance& in) {
              return (in.counts.sampler_msgs + in.counts.bcast_msgs) /
                     (in.native ? static_cast<double>(in.native->messages)
                                : 2.0 * edges(in));
            }));
    e2e.num("max_stretch", max_stretch);

    const double queries = total(&Counts::query_edges);
    const double reached = total(&Counts::reached_ids);
    layer.num("graph.build_s", build_s);
    layer.num("graph.edges", mean(edges));
    layer.num("graph.check_s", median(check_s));
    layer.num("graph.check_edges", avg(&Counts::check_edges));
    layer.num("graph.check_violations", avg(&Counts::violations));
    layer.num("core.sampler_s", median(sampler_s));
    layer.num("core.sampler_msgs", avg(&Counts::sampler_msgs));
    layer.num("core.sampler_words", avg(&Counts::sampler_words));
    layer.num("core.sampler_rounds", avg(&Counts::sampler_rounds));
    layer.num("core.msgs_queries", avg(&Counts::queries));
    layer.num("core.msgs_tree", avg(&Counts::tree));
    layer.num("core.msgs_center", avg(&Counts::center));
    layer.num("core.msgs_control", avg(&Counts::control));
    layer.num("core.max_message_words", avg(&Counts::max_message_words));
    layer.num("core.neither", avg(&Counts::neither));
    layer.num("core.query_yield",
              queries > 0 ? total(&Counts::spanner_added) / queries : 0.0);
    layer.num("sim.deferrals", avg(&Counts::deferrals));
    layer.num("sim.carry_peak", carry_peak);
    layer.num("localsim.transform_s", median(transform_s));
    layer.num("localsim.bcast_s", median(bcast_s));
    layer.num("localsim.eval_s", median(eval_s));
    layer.num("localsim.bcast_msgs", avg(&Counts::bcast_msgs));
    layer.num("localsim.bcast_words", avg(&Counts::bcast_words));
    layer.num("localsim.bcast_rounds", avg(&Counts::bcast_rounds));
    layer.num("localsim.reached_ids", avg(&Counts::reached_ids));
    layer.num("localsim.words_per_reached",
              reached > 0 ? total(&Counts::bcast_words) / reached : 0.0);
    layer.num("localsim.native_s", median(native_s));
    layer.num("localsim.native_msgs", mean([](const Instance& in) {
                return in.native ? static_cast<double>(in.native->messages) : 0.0;
              }));
    layer.num("localsim.reference_s", median(reference_s));
    layer.num("obs.overhead_frac", median(overhead));
    layer.num("obs.unattributed_frac", median(unattributed));
  }
  build.str("build_type", PIPEBENCH_BUILD_TYPE);
  build.str("compiler", PIPEBENCH_COMPILER);

  Json out;
  out.str("workload", w.name);
  out.num("n", static_cast<double>(n));
  out.num("instances", static_cast<double>(inst.size()));
  out.num("lanes", lanes);
  out.num("cross_lanes", cross_lanes);
  out.num("attempted", static_cast<double>(b.attempted));
  out.num("failed", static_cast<double>(b.failed));
  out.strs("failures", b.notes);
  out.obj("build", build);
  out.obj("e2e", e2e);
  out.obj("layer", layer);
  out.strs("sampler_profiles", b.sampler_profiles);
  out.strs("bcast_profiles", b.bcast_profiles);
  out.strs("artifacts", b.artifacts);
  std::cout << out.out << "}\n";
  return b.failed == 0 && have_models ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pipebench: " << e.what() << "\n";
    return 2;
  }
}
