// fl::obs — the zero-cost-off tracing / profiling layer for the round
// engine.
//
// The engine's determinism contracts (docs/CONTRACTS.md) make it a black
// box at runtime: Metrics is a handful of counters, and the ROADMAP items
// that want to *react* to heterogeneity (adaptive shard re-balancing,
// latency-aware serving) are blocked on data nobody records. This layer
// records it:
//
//   * spans — per-lane, per-phase timed scopes (quiesce / step / merge /
//     admit, plus named protocol scopes) pushed into per-lane ring
//     buffers. Each ring is written only by the thread that owns its lane
//     (exec.hpp binds job s to thread s), so recording is lock-free and
//     allocation-free after bind_lanes;
//   * RoundProfile — one structured record per round: phase durations,
//     per-lane busy time and the max/avg imbalance ratio, plus the round's
//     model quantities (messages, words, deferrals, carry depth, plane
//     allocations) and an RSS sample. Queryable as Network::profile(),
//     dumped as JSONL next to the trace;
//   * histograms — log-bucketed (util/histogram.hpp) message words,
//     per-directed-edge carry occupancy, per-node send counts;
//   * export — Chrome-trace-event JSON, so a run opens directly in
//     ui.perfetto.dev / chrome://tracing.
//
// Cardinal contract (CONTRACTS.md C12): tracing is *observational*.
// Golden trace hashes, Metrics, and RunStats are byte-identical with
// tracing on or off, at any thread count, because no timing value ever
// flows back into a protocol or scheduling decision. Two fences hold the
// line: every engine site is one `if (trace_)` branch off a null pointer
// (the FL_SIM_CHECK idiom — zero-cost off), and fl_lint splits the
// wall-clock ban into FL002 (only fl::obs may read steady_clock, via
// obs/clock.hpp) and FL009 (no code under src/{sim,core,baseline,
// localsim} may consume an obs timing value).
//
// RoundProfile fields come in two classes, and the split is load-bearing
// for tooling: *model* fields (round, messages, words, deferrals,
// carry_depth) are bit-identical across thread counts and trace levels —
// tests/test_trace.cpp pins them; *advisory* fields (every `_ns`
// duration, `max_over_avg_busy`, `rss_kb`) are wall-clock artifacts that
// differ run to run — tooling must never gate on them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "util/histogram.hpp"

namespace fl::obs {

/// How much the tracer records. Profile keeps the per-round timeline and
/// histograms but skips the per-event ring pushes (cheapest); Spans adds
/// the full per-lane span stream for the Perfetto timeline.
enum class TraceLevel : std::uint8_t {
  Profile,
  Spans,
};

struct TraceConfig {
  bool enabled = false;
  /// Artifact base path: the Chrome trace JSON lands at `path`, the
  /// RoundProfile JSONL at `path` + ".jsonl". Empty = collect only (the
  /// in-memory spans/profiles stay queryable; nothing is written) — the
  /// mode tests use.
  std::string path;
  TraceLevel level = TraceLevel::Spans;
  /// Span events retained per track (engine + one per lane). Overflow
  /// drops the oldest events and counts them (SpanRing::dropped) — a
  /// bounded trace of an unbounded run, never an unbounded allocation.
  std::size_t ring_capacity = std::size_t{1} << 14;
};

/// TraceConfig{} (disabled) unless FL_SIM_TRACE is set. Accepted forms:
/// "<path>" or "<path>:<level>" with level in {spans, profile} (colons in
/// the path itself are not supported — the last ':' is reserved for the
/// level suffix). Mirrors default_congest_config(): the environment seeds
/// every Network's default, callers may still override via set_trace.
TraceConfig default_trace_config();

/// Span taxonomy. Engine-track kinds time one whole phase across all
/// lanes; lane-track kinds time one lane's slice of it.
enum class SpanKind : std::uint8_t {
  Quiesce,     ///< engine: the O(S) quiescence check
  StepPhase,   ///< engine: the whole step phase (all lanes)
  MergePhase,  ///< engine: the whole merge phase (offsets + scatter)
  AdmitPhase,  ///< engine: the whole CONGEST admission pass
  StepLane,    ///< lane: stepping its shard's nodes (busy time)
  MergeLane,   ///< lane: its offsets chunk + outbox scatter
  AdmitLane,   ///< lane: its admission chunk (decide + relocate)
  Protocol,    ///< engine: a named protocol scope (run_tlocal_broadcast...)
};

const char* span_name(SpanKind kind);

struct SpanEvent {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t round = 0;
  SpanKind kind = SpanKind::Quiesce;
  std::uint16_t lane = 0;    ///< lane index for lane kinds, else 0
  const char* name = nullptr;  ///< Protocol spans: static-lifetime label
};

/// Fixed-capacity single-writer ring. Overflow policy: overwrite the
/// oldest event and count the loss — recent rounds matter more than early
/// ones, and the writer (a stepping lane) must never block or allocate.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity) : capacity_(capacity) {
    events_.reserve(capacity_);
  }

  void push(const SpanEvent& e) {
    if (events_.size() < capacity_) {
      events_.push_back(e);
    } else {
      events_[total_ % capacity_] = e;
    }
    ++total_;
  }

  std::size_t size() const { return events_.size(); }
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > events_.size() ? total_ - events_.size() : 0;
  }

  /// Visit retained events oldest-first (push order survives overwrite).
  template <typename F>
  void for_each(F&& f) const {
    if (total_ <= capacity_) {
      for (const auto& e : events_) f(e);
      return;
    }
    const std::size_t head = static_cast<std::size_t>(total_ % capacity_);
    for (std::size_t i = head; i < capacity_; ++i) f(events_[i]);
    for (std::size_t i = 0; i < head; ++i) f(events_[i]);
  }

 private:
  std::vector<SpanEvent> events_;
  std::size_t capacity_;
  std::uint64_t total_ = 0;
};

/// One round of the engine, as a structured record.
struct RoundProfile {
  // -- model fields: bit-identical across thread counts and trace levels
  //    (pinned by tests/test_trace.cpp).
  std::uint64_t round = 0;
  std::uint64_t messages = 0;     ///< delivered this round
  std::uint64_t words = 0;        ///< words sent this round
  std::uint64_t deferrals = 0;    ///< congest deferral events this round
  std::uint64_t carry_depth = 0;  ///< carried messages after admission

  // -- engine diagnostics: deterministic for a fixed configuration but
  //    lane-count-dependent (outbox planes scale with lanes).
  std::uint64_t allocations = 0;  ///< cumulative plane-growth events

  // -- advisory wall-clock fields: never compared, never decided on.
  std::uint64_t quiesce_ns = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t merge_ns = 0;
  std::uint64_t admit_ns = 0;
  std::uint64_t end_ns = 0;   ///< Clock stamp when the round closed
  std::uint64_t rss_kb = 0;   ///< ru_maxrss sample (0 where unsupported)
  std::vector<std::uint64_t> lane_busy_ns;  ///< per-lane step busy time
  /// Imbalance ratio: max(lane_busy) / avg(lane_busy); 1.0 is a perfectly
  /// balanced step phase. The signal the adaptive-sharding ROADMAP item
  /// needs — and, per C12, a signal nothing in src/sim may consume yet.
  double max_over_avg_busy = 0.0;
};

/// The collector. One per Network, owned behind a null-unless-enabled
/// pointer exactly like the ownership checker: every engine site costs a
/// single predictable branch when tracing is off.
///
/// Threading: ring 0 (engine track) and the profile/histogram state are
/// touched only by the driving thread, between or around pool barriers;
/// ring 1+s is written only by the thread running lane s's jobs. Reads
/// (profiles(), export) happen after runs, from the driving thread.
class Tracer {
 public:
  explicit Tracer(TraceConfig cfg);

  const TraceConfig& config() const { return cfg_; }

  /// Size the per-lane rings once the execution plan is final (engine
  /// track exists from construction so pre-run protocol scopes work).
  void bind_lanes(std::size_t lanes);

  /// Record a closed span (SpanScope's destructor calls this; engine code
  /// never touches timestamps directly).
  void record(SpanKind kind, unsigned lane, std::size_t round,
              std::uint64_t begin_ns, std::uint64_t end_ns);
  void record_named(const char* name, std::size_t round,
                    std::uint64_t begin_ns, std::uint64_t end_ns);

  /// Close round `round`: snapshot the phase scratch accumulated by the
  /// engine spans into a RoundProfile. The cumulative counters are the
  /// engine's own (words_total, deferrals_total); the tracer differences
  /// them so the profile carries per-round deltas.
  void end_round(std::size_t round, std::uint64_t delivered,
                 std::uint64_t words_cum, std::uint64_t deferrals_cum,
                 std::uint64_t carry_depth, std::uint64_t allocations);

  // Histogram surfaces. The engine fills them only under `if (trace_)`;
  // adds are order-independent, so chunk iteration order never shows.
  util::LogHistogram& message_words_hist() { return words_hist_; }
  util::LogHistogram& edge_carry_hist() { return carry_hist_; }
  util::LogHistogram& node_sends_hist() { return sends_hist_; }
  const util::LogHistogram& message_words_hist() const { return words_hist_; }
  const util::LogHistogram& edge_carry_hist() const { return carry_hist_; }
  const util::LogHistogram& node_sends_hist() const { return sends_hist_; }

  const std::vector<RoundProfile>& profiles() const { return profiles_; }
  std::size_t ring_count() const { return rings_.size(); }
  const SpanRing& ring(std::size_t i) const { return rings_[i]; }
  std::uint64_t dropped_spans() const;

  /// Write the Chrome trace to `path` and the profile JSONL to
  /// `path.jsonl`. Idempotent; a no-op when path is empty; never throws
  /// (an unwritable path is reported to stderr — observability must not
  /// take the run down with it). Network's destructor calls this.
  void finalize();
  bool finalized() const { return finalized_; }

  // Exporters, usable directly against any stream (tests do).
  void write_chrome_trace(std::ostream& os) const;
  void write_profile_jsonl(std::ostream& os) const;

 private:
  TraceConfig cfg_;
  std::vector<SpanRing> rings_;  // [0] engine, [1 + s] lane s
  std::vector<RoundProfile> profiles_;
  std::vector<std::uint64_t> lane_busy_scratch_;  // slot s: lane s only
  struct PhaseScratch {
    std::uint64_t quiesce_ns = 0;
    std::uint64_t step_ns = 0;
    std::uint64_t merge_ns = 0;
    std::uint64_t admit_ns = 0;
  } scratch_;
  util::LogHistogram words_hist_;
  util::LogHistogram carry_hist_;
  util::LogHistogram sends_hist_;
  std::uint64_t prev_words_cum_ = 0;
  std::uint64_t prev_deferrals_cum_ = 0;
  bool finalized_ = false;
};

/// RAII timed span. A null tracer makes construction and destruction
/// no-ops — the one-branch-per-site contract. The clock is read only
/// here, only when tracing is on, and the result flows only into the
/// tracer: the engine code opening the scope cannot see the timestamps.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanKind kind, unsigned lane, std::size_t round)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    kind_ = kind;
    lane_ = lane;
    round_ = round;
    begin_ns_ = Clock::now_ns();
  }

  ~SpanScope() {
    if (tracer_ != nullptr)
      tracer_->record(kind_, lane_, round_, begin_ns_, Clock::now_ns());
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  SpanKind kind_ = SpanKind::Quiesce;
  unsigned lane_ = 0;
  std::size_t round_ = 0;
  std::uint64_t begin_ns_ = 0;
};

/// RAII named protocol scope ("tlocal_broadcast", ...). `name` must have
/// static lifetime — the ring stores the pointer, not a copy.
class ProtocolScope {
 public:
  ProtocolScope(Tracer* tracer, const char* name, std::size_t round = 0)
      : tracer_(tracer), name_(name) {
    if (tracer_ == nullptr) return;
    round_ = round;
    begin_ns_ = Clock::now_ns();
  }

  ~ProtocolScope() {
    if (tracer_ != nullptr)
      tracer_->record_named(name_, round_, begin_ns_, Clock::now_ns());
  }

  ProtocolScope(const ProtocolScope&) = delete;
  ProtocolScope& operator=(const ProtocolScope&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::size_t round_ = 0;
  std::uint64_t begin_ns_ = 0;
};

}  // namespace fl::obs
