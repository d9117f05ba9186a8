#include "core/distributed_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>
#include <utility>

#include "util/assert.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace fl::core {

using graph::EdgeId;
using graph::kInvalidEdge;
using graph::kInvalidNode;
using graph::NodeId;
using detail::kNoSlot;

// ------------------------------------------------------------ peel kernels

namespace {

void pool_swap_remove(std::vector<std::size_t>& pool,
                      std::vector<std::size_t>& pool_pos, std::size_t s) {
  const std::size_t p = pool_pos[s];
  if (p == kNoSlot) return;
  const std::size_t last = pool.back();
  pool[p] = last;
  pool_pos[last] = p;
  pool.pop_back();
  pool_pos[s] = kNoSlot;
}

/// Membership in a sorted vector without data-dependent branches: the
/// probes of independent lookups overlap instead of stalling on
/// mispredicted compares.
bool sorted_contains(const std::vector<EdgeId>& v, EdgeId x) {
  if (v.empty()) return false;
  const EdgeId* base = v.data();
  for (std::size_t n = v.size(); n > 1;) {
    const std::size_t half = n / 2;
    base = base[half] <= x ? base + half : base;
    n -= half;
  }
  return *base == x;
}

}  // namespace

void detail::peel_sorted(const std::vector<EdgeId>& inc,
                         std::vector<std::size_t>& pool,
                         std::vector<std::size_t>& pool_pos,
                         const std::vector<EdgeId>& list) {
  if (pool.empty()) return;
  if (list.size() <= pool.size()) {
    // Short list: look each listed edge up among the incident edges. Both
    // are sorted, so the hit slots come out ascending.
    auto from = inc.begin();
    for (const EdgeId e : list) {
      from = std::lower_bound(from, inc.end(), e);
      if (from == inc.end()) return;
      if (*from == e)
        pool_swap_remove(pool, pool_pos,
                         static_cast<std::size_t>(from - inc.begin()));
    }
    return;
  }
  // Long list: look each pooled edge up in the list instead, then remove
  // the hits in the same ascending slot order as the short-list loop. The
  // hit buffer is reused across calls on the same lane.
  thread_local std::vector<std::size_t> hits;
  hits.clear();
  for (const std::size_t s : pool)
    if (sorted_contains(list, inc[s])) hits.push_back(s);
  std::sort(hits.begin(), hits.end());
  for (const std::size_t s : hits) pool_swap_remove(pool, pool_pos, s);
}

void detail::erase_sorted(std::vector<EdgeId>& pool,
                          const std::vector<EdgeId>& list) {
  // One pass over the pool, a lower_bound cursor moving forward through
  // the list.
  auto out = pool.begin();
  auto from = list.begin();
  for (const EdgeId e : pool) {
    from = std::lower_bound(from, list.end(), e);
    if (from == list.end() || *from != e) *out++ = e;
  }
  pool.erase(out, pool.end());
}

namespace {

constexpr std::uint64_t kCenterCoinLabel = 1'000'000'000ULL;
constexpr std::size_t kExhaustiveFactor = 16;

// ------------------------------------------------------------- payloads

/// A cluster's boundary edge-ID list. Every list is sorted ascending when
/// it is created (on_start, finish_gather) and is shared immutably from
/// then on, so the peels can intersect it without re-sorting.
using EdgeList = std::shared_ptr<const std::vector<EdgeId>>;

struct MsgSetup {};  // FloodSetup: establishes the per-level tree parent

struct MsgGatherUp {  // echo: concatenated candidate lists of a subtree
  std::shared_ptr<std::vector<EdgeId>> candidates;
};

struct MsgBoundary {  // flood: the final E_j(v) list
  EdgeList boundary;
};

struct MsgTrialRate {  // flood: per-trial sampling directive
  std::uint64_t trial_size = 0;
  std::uint64_t pool_total = 0;
  bool skip = false;
};

struct MsgQuery {};  // over a sampled boundary edge

struct MsgQueryReply {
  bool alive = true;
  NodeId cluster = kInvalidNode;
  EdgeList boundary;  ///< responder cluster's full incident edge-ID list,
                      ///< sorted ascending and shared immutably
};

struct Found {  // one discovered neighbour cluster
  NodeId cluster = kInvalidNode;
  bool alive = true;
  EdgeId via = kInvalidEdge;
  EdgeList list;  ///< its boundary, sorted ascending and shared immutably
};

struct MsgCollectUp {  // echo: discovered neighbours of a subtree
  std::shared_ptr<std::vector<Found>> found;
};

struct MsgApply {  // flood: root's dedup'd decisions for the trial
  std::shared_ptr<const std::vector<Found>> entries;
};

struct MsgCenterFlood {
  bool is_center = false;
};

struct MsgCenterQuery {};

struct MsgCenterReply {
  bool is_center = false;
  NodeId cluster = kInvalidNode;
};

struct CenterFound {
  NodeId cluster = kInvalidNode;
  EdgeId via = kInvalidEdge;
};

struct MsgCenterUp {
  std::shared_ptr<std::vector<CenterFound>> found;
};

enum class JoinDecision : std::uint8_t { Stay, Join, Die };

struct MsgJoin {
  JoinDecision decision = JoinDecision::Die;
  NodeId new_cluster = kInvalidNode;
  EdgeId attach_edge = kInvalidEdge;
};

struct MsgAttach {};  // marks the attach edge as a tree edge on the far side

struct MsgDeath {  // dying cluster announces over its F_v edges
  EdgeList boundary;  ///< sorted ascending and shared immutably
};

// The sampler's whole message budget rides on these structs: queries and
// replies are the Õ(n^{1+δ+ε}) term, the rest are tree sessions. All of
// them must fit the payload's inline buffer (list-carrying messages ship a
// shared_ptr head, never the list), and the pure-control messages must hit
// the memcpy relocation fast path.
static_assert(sim::Payload::stores_inline<MsgSetup>);
static_assert(sim::Payload::stores_inline<MsgGatherUp>);
static_assert(sim::Payload::stores_inline<MsgBoundary>);
static_assert(sim::Payload::stores_inline<MsgTrialRate> &&
              sim::Payload::trivially_relocatable<MsgTrialRate>);
static_assert(sim::Payload::stores_inline<MsgQuery> &&
              sim::Payload::trivially_relocatable<MsgQuery>);
static_assert(sim::Payload::stores_inline<MsgQueryReply>);
static_assert(sim::Payload::stores_inline<MsgCollectUp>);
static_assert(sim::Payload::stores_inline<MsgApply>);
static_assert(sim::Payload::stores_inline<MsgCenterFlood> &&
              sim::Payload::trivially_relocatable<MsgCenterFlood>);
static_assert(sim::Payload::stores_inline<MsgCenterQuery> &&
              sim::Payload::trivially_relocatable<MsgCenterQuery>);
static_assert(sim::Payload::stores_inline<MsgCenterReply> &&
              sim::Payload::trivially_relocatable<MsgCenterReply>);
static_assert(sim::Payload::stores_inline<MsgCenterUp>);
static_assert(sim::Payload::stores_inline<MsgJoin> &&
              sim::Payload::trivially_relocatable<MsgJoin>);
static_assert(sim::Payload::stores_inline<MsgAttach> &&
              sim::Payload::trivially_relocatable<MsgAttach>);
static_assert(sim::Payload::stores_inline<MsgDeath>);

// ------------------------------------------------------ helper routines

using util::binomial_draw;

/// Root-side diagnostics for one level this node led.
struct RootLevelRecord {
  unsigned level = 0;
  NodeStatus status = NodeStatus::Neither;
  std::size_t boundary_size = 0;
  std::size_t distinct_neighbors_found = 0;
  std::size_t f_count = 0;
  bool was_center = false;
  bool died = false;
  bool joined = false;
};

// --------------------------------------------------------- the program

class SamplerNode final : public sim::NodeProgram {
 public:
  /// `adaptive` selects the phase barrier (the driver sets it iff the
  /// network enforces a CONGEST budget): false = the fixed
  /// PhaseSpec::start/length timetable, true = event-driven barriers
  /// (advance on Context::network_silent()).
  SamplerNode(NodeId self, std::shared_ptr<const Schedule> schedule,
              const SamplerConfig& cfg, double n0, bool adaptive)
      : self_(self),
        schedule_(std::move(schedule)),
        cfg_(cfg),
        n0_(n0),
        adaptive_(adaptive),
        streams_(cfg.seed) {}

  // -- extraction hooks used by the driver after the run ----------------
  std::vector<EdgeId> spanner_edges() const {
    std::vector<EdgeId> out;
    for (std::size_t s = 0; s < inc_.size(); ++s)
      if (flag_spanner_[s]) out.push_back(inc_[s]);
    return out;
  }
  const std::vector<RootLevelRecord>& root_records() const {
    return root_records_;
  }
  const std::vector<std::uint64_t>& queries_per_level() const {
    return queries_per_level_;
  }

  // -- NodeProgram -------------------------------------------------------
  void on_start(sim::Context& ctx) override {
    const auto edges = ctx.incident_edges();
    inc_.assign(edges.begin(), edges.end());
    std::sort(inc_.begin(), inc_.end());
    const std::size_t deg = inc_.size();
    flag_spanner_.assign(deg, false);
    tree_slots_.clear();
    flag_f_edge_.assign(deg, false);
    pool_pos_.assign(deg, kNoSlot);
    pool_.clear();
    pool_.reserve(deg);
    for (std::size_t s = 0; s < deg; ++s) {
      pool_pos_[s] = pool_.size();
      pool_.push_back(s);
    }
    cluster_id_ = self_;
    is_root_ = true;
    alive_ = true;
    queries_per_level_.assign(cfg_.k + 1, 0);
    // Level 0 boundary: all incident edges (a simple graph has no intra).
    boundary_ = std::make_shared<const std::vector<EdgeId>>(inc_);
    FL_ENSURE(std::is_sorted(boundary_->begin(), boundary_->end()),
              "boundary lists are sorted (the peels rely on it)");
    rebuild_root_pool();
  }

  void on_round(sim::Context& ctx, sim::InboxView inbox) override {
    // Step 1: react to messages.
    for (const auto& msg : inbox) handle(ctx, msg);
    // Step 2: execute phase-start actions that are due.
    if (adaptive_) {
      // Event-driven barrier: a phase ends on the first *silent* round —
      // nothing delivered, nothing parked in a carry queue. Every send in
      // this protocol is either a phase-start action or an immediate
      // reaction to a delivery, so a phase's traffic is a chain of
      // consecutive delivery rounds and silence proves the chain (and
      // every earlier phase's) has fully drained. The predicate is a
      // merge-barrier fact, identical at every node, so all nodes consume
      // the same phase in the same round — the timetable's lockstep
      // without its provisioned windows.
      if (ctx.network_silent() && phase_idx_ < schedule_->phases.size()) {
        start_phase(ctx, schedule_->phases[phase_idx_]);
        ++phase_idx_;
        // Reactive-only phases send nothing at start — their work happens
        // in handle() while the *previous* phase's traffic is in flight —
        // so waiting a silent round for each would buy nothing. Consume
        // them together with the phase whose traffic they answer.
        while (phase_idx_ < schedule_->phases.size() &&
               reactive_only(schedule_->phases[phase_idx_].kind)) {
          start_phase(ctx, schedule_->phases[phase_idx_]);
          ++phase_idx_;
        }
      }
      ++logical_round_;
      return;
    }
    // Fixed timetable: phases start at their provisioned rounds.
    while (phase_idx_ < schedule_->phases.size() &&
           schedule_->phases[phase_idx_].start == logical_round_) {
      start_phase(ctx, schedule_->phases[phase_idx_]);
      ++phase_idx_;
    }
    ++logical_round_;
  }

  bool done() const override {
    return phase_idx_ >= schedule_->phases.size();
  }

  sim::Knowledge required_knowledge() const override {
    return sim::Knowledge::EdgeIds;
  }

 private:
  // ------------------------------------------------------- edge slots
  std::size_t slot_of(EdgeId e) const {
    const auto it = std::lower_bound(inc_.begin(), inc_.end(), e);
    if (it == inc_.end() || *it != e) return kNoSlot;
    return static_cast<std::size_t>(it - inc_.begin());
  }

  /// Remove every own pool edge that appears in the sorted `list`.
  void peel_list(const std::vector<EdgeId>& list) {
    detail::peel_sorted(inc_, pool_, pool_pos_, list);
  }

  /// Mark slot `s` as a cluster-tree edge, keeping tree_slots_ ascending.
  void mark_tree_slot(std::size_t s) {
    const auto it =
        std::lower_bound(tree_slots_.begin(), tree_slots_.end(), s);
    if (it == tree_slots_.end() || *it != s) tree_slots_.insert(it, s);
  }

  // ---------------------------------------------------- root pool model
  void rebuild_root_pool() {
    root_pool_.clear();
    if (!is_root_ || boundary_ == nullptr) return;
    root_pool_.assign(boundary_->begin(), boundary_->end());
  }

  // --------------------------------------------------------- messaging
  /// Payloads are move-only, so flooding sends one copy of the (cheaply
  /// copyable) payload struct per child edge, in ascending slot order.
  template <typename Msg>
  void flood_to_children(sim::Context& ctx, const Msg& payload,
                         std::uint32_t words) {
    for (const std::size_t s : tree_slots_)
      if (inc_[s] != parent_edge_) {
        ctx.send(inc_[s], payload, words);
        ++sent_.tree_sessions;
      }
  }

  void send_up_or_finalize(sim::Context& ctx) {
    switch (echo_kind_) {
      case EchoKind::Gather: finish_gather(ctx); break;
      case EchoKind::Collect: finish_collect(ctx); break;
      case EchoKind::Center: finish_center(ctx); break;
      case EchoKind::None: FL_ENSURE(false, "echo finalize without session");
    }
  }

  void finish_gather(sim::Context& ctx) {
    if (!is_root_) {
      ctx.send(parent_edge_, MsgGatherUp{gather_acc_},
               static_cast<std::uint32_t>(gather_acc_->size() + 1));
      ++sent_.tree_sessions;
      gather_acc_.reset();
      echo_kind_ = EchoKind::None;
      return;
    }
    // Root: edges reported twice are intra-cluster; keep the once-reported.
    auto& all = *gather_acc_;
    std::sort(all.begin(), all.end());
    auto out = std::make_shared<std::vector<EdgeId>>();
    for (std::size_t i = 0; i < all.size();) {
      std::size_t j = i + 1;
      while (j < all.size() && all[j] == all[i]) ++j;
      if (j - i == 1) out->push_back(all[i]);
      FL_ENSURE(j - i <= 2, "an edge has at most two endpoints in a cluster");
      i = j;
    }
    FL_ENSURE(std::is_sorted(out->begin(), out->end()),
              "boundary lists are sorted (the peels rely on it)");
    boundary_ = std::move(out);
    gather_acc_.reset();
    echo_kind_ = EchoKind::None;
    rebuild_root_pool();
  }

  void finish_collect(sim::Context& ctx) {
    if (!is_root_) {
      ctx.send(parent_edge_, MsgCollectUp{collect_acc_},
               static_cast<std::uint32_t>(collect_acc_->size() + 1));
      ++sent_.tree_sessions;
      collect_acc_.reset();
      echo_kind_ = EchoKind::None;
      return;
    }
    // Root: process this trial's discoveries. F_v growth is capped at the
    // budget (see sampler.cpp run_trial: Lemma 10's accounting requires it);
    // blocks skipped by the cap stay unqueried and unpeeled.
    //
    // Canonical order first: the echo concatenates subtree reports in
    // arrival order, which a bandwidth budget regroups across rounds. The
    // first-seen-cluster F_v selection below (and its cap) must be a
    // function of the report *set*, not of the delivery schedule, or a
    // budgeted run would build a different spanner than the LOCAL run.
    // (cluster, via) is unique per entry — one query per boundary edge per
    // trial — so the sort is a total order and fully deterministic.
    std::sort(collect_acc_->begin(), collect_acc_->end(),
              [](const Found& a, const Found& b) {
                return a.cluster != b.cluster ? a.cluster < b.cluster
                                              : a.via < b.via;
              });
    const std::size_t budget = cfg_.budget(n0_, level_);
    auto apply = std::make_shared<std::vector<Found>>();
    for (const Found& f : *collect_acc_) {
      if (known_neighbors_.count(f.cluster)) continue;
      Found decision = f;
      if (f.alive) {
        if (f_entries_.size() >= budget) continue;  // capped: ignore
        known_neighbors_.insert(f.cluster);
        f_entries_.push_back({f.cluster, f.via});
        ++record_.distinct_neighbors_found;
      } else {
        known_neighbors_.insert(f.cluster);
        decision.via = kInvalidEdge;  // dead: peel only, no F_v edge
      }
      if (decision.list) detail::erase_sorted(root_pool_, *decision.list);
      apply->push_back(std::move(decision));
    }
    // Every queried edge leaves the pool, whatever its reply decided: the
    // responder's list lacks the edge when its side peeled it first.
    std::vector<EdgeId> vias;
    vias.reserve(collect_acc_->size());
    for (const Found& f : *collect_acc_) vias.push_back(f.via);
    std::sort(vias.begin(), vias.end());
    detail::erase_sorted(root_pool_, vias);
    collect_acc_.reset();
    echo_kind_ = EchoKind::None;
    pending_apply_ = std::move(apply);
  }

  void finish_center(sim::Context& ctx) {
    if (!is_root_) {
      ctx.send(parent_edge_, MsgCenterUp{center_acc_},
               static_cast<std::uint32_t>(center_acc_->size() + 1));
      ++sent_.tree_sessions;
      center_acc_.reset();
      echo_kind_ = EchoKind::None;
      return;
    }
    // Root: pick the smallest-id center neighbour (deterministic arbitrary).
    chosen_center_ = kInvalidNode;
    chosen_attach_ = kInvalidEdge;
    for (const CenterFound& cf : *center_acc_) {
      if (chosen_center_ == kInvalidNode || cf.cluster < chosen_center_) {
        chosen_center_ = cf.cluster;
        chosen_attach_ = cf.via;
      }
    }
    center_acc_.reset();
    echo_kind_ = EchoKind::None;
  }

  void child_report_received(sim::Context& ctx) {
    FL_ENSURE(echo_waiting_ > 0, "unexpected echo report");
    --echo_waiting_;
    if (echo_waiting_ == 0) send_up_or_finalize(ctx);
  }

  // ------------------------------------------------------ phase starts
  /// Phases whose start is a no-op: all their work happens reactively in
  /// handle() while the preceding phase's traffic is in flight, so an
  /// event-driven barrier consumes them with that phase instead of
  /// spending a silent round on each.
  static bool reactive_only(PhaseSpec::Kind kind) {
    using K = PhaseSpec::Kind;
    return kind == K::QueryRespond || kind == K::CenterRespond ||
           kind == K::TrialGatherEcho;
  }

  void start_phase(sim::Context& ctx, const PhaseSpec& spec) {
    using K = PhaseSpec::Kind;
    switch (spec.kind) {
      case K::FloodSetup: phase_flood_setup(ctx, spec); break;
      case K::GatherEcho: phase_gather(ctx, spec); break;
      case K::FloodBoundary: phase_flood_boundary(ctx, spec); break;
      case K::TrialRateFlood: phase_trial_rate(ctx, spec); break;
      case K::QuerySend: phase_query_send(ctx, spec); break;
      case K::QueryRespond: /* reactive only */ break;
      case K::TrialCollectEcho: phase_collect(ctx, spec); break;
      case K::TrialApplyFlood: phase_apply(ctx, spec); break;
      case K::CenterFlood: phase_center_flood(ctx, spec); break;
      case K::CenterQuery: phase_center_query(ctx, spec); break;
      case K::CenterRespond: /* reactive only */ break;
      case K::CenterCollectEcho: phase_center_collect(ctx, spec); break;
      case K::JoinFlood: phase_join(ctx, spec); break;
      case K::AttachNotify: phase_attach(ctx, spec); break;
      case K::DeathAnnounce: phase_death(ctx, spec); break;
      case K::TrialGatherEcho: /* unused (root tracks the pool) */ break;
    }
  }

  void phase_flood_setup(sim::Context& ctx, const PhaseSpec& spec) {
    level_ = spec.level;
    // Reset per-level state (alive and dead alike keep answering queries).
    parent_edge_ = kInvalidEdge;
    std::fill(flag_f_edge_.begin(), flag_f_edge_.end(), false);
    if (!alive_) return;
    if (is_root_) {
      known_neighbors_.clear();
      f_entries_.clear();
      record_ = RootLevelRecord{};
      record_.level = level_;
      chosen_center_ = kInvalidNode;
      chosen_attach_ = kInvalidEdge;
      is_center_cluster_ = false;
      if (spec.length > 0) flood_to_children(ctx, MsgSetup{}, 1);
    }
  }

  void phase_gather(sim::Context& ctx, const PhaseSpec& spec) {
    if (!alive_) return;
    (void)spec;
    echo_kind_ = EchoKind::Gather;
    gather_acc_ = std::make_shared<std::vector<EdgeId>>();
    for (const std::size_t s : pool_) gather_acc_->push_back(inc_[s]);
    echo_waiting_ = children_count();
    if (echo_waiting_ == 0) send_up_or_finalize(ctx);
  }

  void phase_flood_boundary(sim::Context& ctx, const PhaseSpec& spec) {
    if (!alive_ || !is_root_) return;
    record_.boundary_size = boundary_->size();
    if (spec.length > 0)
      flood_to_children(
          ctx, MsgBoundary{boundary_},
          static_cast<std::uint32_t>(boundary_->size() + 1));
    apply_boundary(*boundary_);
  }

  void phase_trial_rate(sim::Context& ctx, const PhaseSpec& spec) {
    if (!alive_) return;
    if (is_root_) {
      MsgTrialRate rate;
      rate.trial_size = cfg_.trial_size(n0_, level_);
      rate.pool_total = root_pool_.size();
      const std::size_t budget = cfg_.budget(n0_, level_);
      rate.skip = root_pool_.empty() || f_entries_.size() >= budget;
      current_rate_ = rate;
      if (spec.length > 0) flood_to_children(ctx, rate, 3);
    }
  }

  void phase_query_send(sim::Context& ctx, const PhaseSpec& spec) {
    if (!alive_ || current_rate_.skip || current_rate_.pool_total == 0 ||
        pool_.empty())
      return;
    auto rng = streams_.trial_stream(self_, level_,
                                     static_cast<std::uint64_t>(spec.trial));
    const double share = static_cast<double>(pool_.size()) /
                         static_cast<double>(current_rate_.pool_total);
    const std::uint64_t count =
        binomial_draw(current_rate_.trial_size, share, rng);
    if (count == 0) return;

    std::uint64_t sent = 0;
    if (count >= kExhaustiveFactor * pool_.size()) {
      for (const std::size_t s : pool_) {
        ctx.send(inc_[s], MsgQuery{}, 1);
        ++sent;
        ++sent_.queries;
      }
    } else {
      // Draw with replacement against the frozen pool; dedupe the sends.
      query_mark_.resize(inc_.size(), 0);
      ++query_epoch_;
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::size_t s = pool_[rng.index(pool_.size())];
        if (query_mark_[s] == query_epoch_) continue;
        query_mark_[s] = query_epoch_;
        ctx.send(inc_[s], MsgQuery{}, 1);
        ++sent;
        ++sent_.queries;
      }
    }
    queries_per_level_[level_] += sent;
  }

  void phase_collect(sim::Context& ctx, const PhaseSpec& spec) {
    if (!alive_) return;
    (void)spec;
    echo_kind_ = EchoKind::Collect;
    collect_acc_ = std::make_shared<std::vector<Found>>(std::move(found_buffer_));
    found_buffer_.clear();
    echo_waiting_ = children_count();
    if (echo_waiting_ == 0) send_up_or_finalize(ctx);
  }

  void phase_apply(sim::Context& ctx, const PhaseSpec& spec) {
    if (!alive_ || !is_root_) return;
    if (!pending_apply_) return;
    auto entries = std::shared_ptr<const std::vector<Found>>(pending_apply_);
    pending_apply_.reset();
    if (spec.length > 0) {
      std::uint32_t words = 1;
      for (const auto& f : *entries)
        words += static_cast<std::uint32_t>(f.list ? f.list->size() + 2 : 2);
      flood_to_children(ctx, MsgApply{entries}, words);
    }
    apply_trial_entries(*entries);
  }

  void phase_center_flood(sim::Context& ctx, const PhaseSpec& spec) {
    if (!alive_) return;
    if (is_root_) {
      auto coin = streams_.trial_stream(self_, level_, kCenterCoinLabel);
      is_center_cluster_ = coin.bernoulli(cfg_.center_prob(n0_, level_));
      record_.was_center = is_center_cluster_;
      if (spec.length > 0)
        flood_to_children(ctx, MsgCenterFlood{is_center_cluster_}, 1);
    }
  }

  void phase_center_query(sim::Context& ctx, const PhaseSpec& spec) {
    (void)spec;
    if (!alive_) return;
    for (std::size_t s = 0; s < inc_.size(); ++s)
      if (flag_f_edge_[s]) {
        ctx.send(inc_[s], MsgCenterQuery{}, 1);
        ++sent_.center;
      }
  }

  void phase_center_collect(sim::Context& ctx, const PhaseSpec& spec) {
    if (!alive_) return;
    (void)spec;
    echo_kind_ = EchoKind::Center;
    center_acc_ =
        std::make_shared<std::vector<CenterFound>>(std::move(center_buffer_));
    center_buffer_.clear();
    echo_waiting_ = children_count();
    if (echo_waiting_ == 0) send_up_or_finalize(ctx);
  }

  void phase_join(sim::Context& ctx, const PhaseSpec& spec) {
    if (!alive_ || !is_root_) return;
    MsgJoin join;
    if (is_center_cluster_) {
      join.decision = JoinDecision::Stay;
    } else if (chosen_center_ != kInvalidNode) {
      join.decision = JoinDecision::Join;
      join.new_cluster = chosen_center_;
      join.attach_edge = chosen_attach_;
    } else {
      join.decision = JoinDecision::Die;
    }
    finalize_level_record(join.decision);
    if (spec.length > 0) flood_to_children(ctx, join, 3);
    apply_join(join);
  }

  void phase_attach(sim::Context& ctx, const PhaseSpec& spec) {
    (void)spec;
    if (!alive_ || attach_to_send_ == kInvalidEdge) return;
    const std::size_t s = slot_of(attach_to_send_);
    FL_ENSURE(s != kNoSlot, "attach edge must be incident");
    mark_tree_slot(s);
    ctx.send(attach_to_send_, MsgAttach{}, 1);
    ++sent_.control;
    attach_to_send_ = kInvalidEdge;
  }

  void phase_death(sim::Context& ctx, const PhaseSpec& spec) {
    (void)spec;
    if (!dying_) return;
    dying_ = false;
    alive_ = false;
    // Light whp => F_v covers every neighbour; announce over those edges.
    for (std::size_t s = 0; s < inc_.size(); ++s) {
      if (flag_f_edge_[s]) {
        ctx.send(inc_[s], MsgDeath{boundary_},
                 static_cast<std::uint32_t>(boundary_->size() + 1));
        ++sent_.control;
      }
    }
  }

  // ----------------------------------------------------- phase helpers
  std::size_t children_count() const {
    return tree_slots_.size() - (parent_edge_ != kInvalidEdge ? 1 : 0);
  }

  void apply_boundary(const std::vector<EdgeId>& boundary) {
    // Drop own candidates that are not in the cluster's boundary (they are
    // intra-cluster edges discovered by the duplicate count at the root).
    for (std::size_t i = 0; i < pool_.size();) {
      const std::size_t s = pool_[i];
      if (!sorted_contains(boundary, inc_[s])) {
        pool_swap_remove(pool_, pool_pos_, s);  // re-examine index i
      } else {
        ++i;
      }
    }
  }

  void apply_trial_entries(const std::vector<Found>& entries) {
    for (const Found& f : entries) {
      if (f.via != kInvalidEdge) {
        const std::size_t s = slot_of(f.via);
        if (s != kNoSlot) {
          flag_spanner_[s] = true;
          flag_f_edge_[s] = true;
        }
      }
      if (f.list) peel_list(*f.list);
    }
    // Then the edges this member's replies came over (the root erased
    // them from its pool model too), ascending so the pool order is a
    // function of the reply set.
    std::sort(replied_slots_.begin(), replied_slots_.end());
    for (const std::size_t s : replied_slots_)
      pool_swap_remove(pool_, pool_pos_, s);
    replied_slots_.clear();
  }

  void finalize_level_record(JoinDecision decision) {
    const std::size_t budget = cfg_.budget(n0_, level_);
    if (root_pool_.empty())
      record_.status = NodeStatus::Light;
    else if (f_entries_.size() >= budget)
      record_.status = NodeStatus::Heavy;
    else
      record_.status = NodeStatus::Neither;
    record_.f_count = f_entries_.size();
    record_.died = decision == JoinDecision::Die;
    record_.joined = decision == JoinDecision::Join;
    root_records_.push_back(record_);
  }

  void apply_join(const MsgJoin& join) {
    switch (join.decision) {
      case JoinDecision::Stay:
        break;
      case JoinDecision::Join:
        cluster_id_ = join.new_cluster;
        if (is_root_) is_root_ = false;
        if (slot_of(join.attach_edge) != kNoSlot)
          attach_to_send_ = join.attach_edge;
        break;
      case JoinDecision::Die:
        dying_ = true;  // effective at DeathAnnounce
        if (is_root_) is_root_ = false;
        break;
    }
  }

  /// Record the final level's root status (level k has no JoinFlood).
  void finalize_last_level_if_needed() {
    if (alive_ && is_root_ && record_.level == cfg_.k &&
        (root_records_.empty() || root_records_.back().level != cfg_.k)) {
      finalize_level_record(JoinDecision::Die);
      root_records_.back().died = false;  // level k nodes are "unclustered"
    }
  }

 public:
  /// Called by the driver after the run to flush level-k root records.
  void flush_final_records() { finalize_last_level_if_needed(); }

 private:
  // ------------------------------------------------------- msg handler
  void handle(sim::Context& ctx, sim::MessageView msg) {
    if (const auto* q = sim::payload_if<MsgQuery>(msg)) {
      (void)q;
      MsgQueryReply reply;
      reply.alive = alive_ && !dying_;
      reply.cluster = cluster_id_;
      reply.boundary = boundary_;
      ctx.send(msg.edge(), reply,
               static_cast<std::uint32_t>(
                   (boundary_ ? boundary_->size() : 0) + 2));
      ++sent_.queries;
      return;
    }
    if (const auto* r = sim::payload_if<MsgQueryReply>(msg)) {
      Found f;
      f.cluster = r->cluster;
      f.alive = r->alive;
      f.via = msg.edge();
      f.list = r->boundary;
      found_buffer_.push_back(std::move(f));
      replied_slots_.push_back(slot_of(msg.edge()));
      return;
    }
    if (sim::payload_if<MsgCenterQuery>(msg) != nullptr) {
      ctx.send(msg.edge(), MsgCenterReply{is_center_cluster_, cluster_id_}, 2);
      ++sent_.center;
      return;
    }
    if (const auto* r = sim::payload_if<MsgCenterReply>(msg)) {
      if (r->is_center) center_buffer_.push_back({r->cluster, msg.edge()});
      return;
    }
    if (sim::payload_if<MsgSetup>(msg) != nullptr) {
      if (!alive_) return;
      parent_edge_ = msg.edge();
      flood_to_children(ctx, MsgSetup{}, 1);
      return;
    }
    if (const auto* b = sim::payload_if<MsgBoundary>(msg)) {
      if (!alive_) return;
      boundary_ = b->boundary;
      flood_to_children(ctx, *b,
                        static_cast<std::uint32_t>(b->boundary->size() + 1));
      apply_boundary(*b->boundary);
      return;
    }
    if (const auto* t = sim::payload_if<MsgTrialRate>(msg)) {
      if (!alive_) return;
      current_rate_ = *t;
      flood_to_children(ctx, *t, 3);
      return;
    }
    if (const auto* a = sim::payload_if<MsgApply>(msg)) {
      if (!alive_) return;
      std::uint32_t words = 1;
      for (const auto& f : *a->entries)
        words += static_cast<std::uint32_t>(f.list ? f.list->size() + 2 : 2);
      flood_to_children(ctx, *a, words);
      apply_trial_entries(*a->entries);
      return;
    }
    if (const auto* cf = sim::payload_if<MsgCenterFlood>(msg)) {
      if (!alive_) return;
      is_center_cluster_ = cf->is_center;
      flood_to_children(ctx, *cf, 1);
      return;
    }
    if (const auto* j = sim::payload_if<MsgJoin>(msg)) {
      if (!alive_) return;
      flood_to_children(ctx, *j, 3);
      apply_join(*j);
      return;
    }
    if (sim::payload_if<MsgAttach>(msg) != nullptr) {
      const std::size_t s = slot_of(msg.edge());
      FL_ENSURE(s != kNoSlot, "attach over non-incident edge");
      mark_tree_slot(s);
      return;
    }
    if (const auto* d = sim::payload_if<MsgDeath>(msg)) {
      if (!alive_) return;
      if (d->boundary) peel_list(*d->boundary);
      return;
    }
    if (const auto* g = sim::payload_if<MsgGatherUp>(msg)) {
      if (!alive_ || echo_kind_ != EchoKind::Gather) return;
      gather_acc_->insert(gather_acc_->end(), g->candidates->begin(),
                          g->candidates->end());
      child_report_received(ctx);
      return;
    }
    if (const auto* c = sim::payload_if<MsgCollectUp>(msg)) {
      if (!alive_ || echo_kind_ != EchoKind::Collect) return;
      collect_acc_->insert(collect_acc_->end(), c->found->begin(),
                           c->found->end());
      child_report_received(ctx);
      return;
    }
    if (const auto* c = sim::payload_if<MsgCenterUp>(msg)) {
      if (!alive_ || echo_kind_ != EchoKind::Center) return;
      center_acc_->insert(center_acc_->end(), c->found->begin(),
                          c->found->end());
      child_report_received(ctx);
      return;
    }
    FL_ENSURE(false, "unknown message payload");
  }

  // ----------------------------------------------------------- members
  NodeId self_;
  std::shared_ptr<const Schedule> schedule_;
  SamplerConfig cfg_;
  double n0_;
  bool adaptive_ = false;  ///< event-driven barriers vs fixed timetable
  util::StreamFactory streams_;

  std::size_t logical_round_ = 0;
  std::size_t phase_idx_ = 0;
  unsigned level_ = 0;

  // cluster membership
  bool alive_ = true;
  bool dying_ = false;
  bool is_root_ = true;
  bool is_center_cluster_ = false;
  NodeId cluster_id_ = kInvalidNode;
  EdgeId parent_edge_ = kInvalidEdge;
  EdgeId attach_to_send_ = kInvalidEdge;

  // incident-edge slots
  std::vector<EdgeId> inc_;  // sorted
  std::vector<bool> flag_spanner_;
  std::vector<std::size_t> tree_slots_;  // cluster-tree edges, ascending
  std::vector<bool> flag_f_edge_;
  std::vector<std::size_t> pool_pos_;
  std::vector<std::size_t> pool_;
  std::vector<unsigned> query_mark_;
  unsigned query_epoch_ = 0;

  // level-shared knowledge
  EdgeList boundary_;
  MsgTrialRate current_rate_;

  // echo sessions
  enum class EchoKind : std::uint8_t { None, Gather, Collect, Center };
  EchoKind echo_kind_ = EchoKind::None;
  std::size_t echo_waiting_ = 0;
  std::shared_ptr<std::vector<EdgeId>> gather_acc_;
  std::shared_ptr<std::vector<Found>> collect_acc_;
  std::shared_ptr<std::vector<CenterFound>> center_acc_;

  // trial buffers
  std::vector<Found> found_buffer_;
  std::vector<std::size_t> replied_slots_;  // slots replies arrived over
  std::vector<CenterFound> center_buffer_;
  std::shared_ptr<std::vector<Found>> pending_apply_;

  // root bookkeeping
  std::vector<EdgeId> root_pool_;  // sorted; only size()/empty() are read
  std::unordered_set<NodeId> known_neighbors_;
  std::vector<std::pair<NodeId, EdgeId>> f_entries_;
  NodeId chosen_center_ = kInvalidNode;
  EdgeId chosen_attach_ = kInvalidEdge;
  RootLevelRecord record_;
  std::vector<RootLevelRecord> root_records_;
  std::vector<std::uint64_t> queries_per_level_;
  MessageBreakdown sent_;

 public:
  const MessageBreakdown& breakdown() const { return sent_; }
};

}  // namespace

// -------------------------------------------------------------- Schedule

Schedule Schedule::build(const SamplerConfig& cfg) {
  Schedule sched;
  std::size_t round = 0;
  // Zero-length windows (level 0 runs locally) take no rounds.
  auto push = [&](PhaseSpec::Kind kind, unsigned level, int trial,
                  std::size_t len) {
    sched.phases.push_back(PhaseSpec{kind, level, trial, round, len});
    round += len;
  };
  for (unsigned j = 0; j <= cfg.k; ++j) {
    const auto w = static_cast<std::size_t>(SamplerConfig::pow3(j)) - 1;
    using K = PhaseSpec::Kind;
    push(K::FloodSetup, j, -1, w);
    push(K::GatherEcho, j, -1, w);
    push(K::FloodBoundary, j, -1, w);
    for (unsigned t = 0; t < cfg.trials_per_level(); ++t) {
      push(K::TrialRateFlood, j, static_cast<int>(t), w);
      push(K::QuerySend, j, static_cast<int>(t), 1);
      push(K::QueryRespond, j, static_cast<int>(t), 1);
      push(K::TrialCollectEcho, j, static_cast<int>(t), w);
      push(K::TrialApplyFlood, j, static_cast<int>(t), w);
    }
    if (j < cfg.k) {
      push(K::CenterFlood, j, -1, w);
      push(K::CenterQuery, j, -1, 1);
      push(K::CenterRespond, j, -1, 1);
      push(K::CenterCollectEcho, j, -1, w);
      push(K::JoinFlood, j, -1, w);
      push(K::AttachNotify, j, -1, 1);
      push(K::DeathAnnounce, j, -1, 1);
    }
  }
  sched.total_rounds = round;
  return sched;
}

// ---------------------------------------------------------------- driver

DistributedSpannerRun run_distributed_sampler(const graph::Graph& g,
                                              const SamplerConfig& cfg) {
  cfg.validate(g.num_nodes());
  const auto schedule = std::make_shared<const Schedule>(Schedule::build(cfg));
  const double n0 = g.num_nodes();

  sim::Network net(g, sim::Knowledge::EdgeIds, cfg.seed);
  if (cfg.congest.has_value()) net.set_congest(*cfg.congest);
  // The network's *effective* CONGEST config — cfg.congest when set, else
  // the FL_SIM_CONGEST env probe — picks the phase barrier: event-driven
  // under an enforced budget, so the sampler is correct at any budget the
  // environment imposes, while plain LOCAL runs keep the paper's timetable
  // (and their golden round counts) byte-stable.
  const bool adaptive = net.congest().enforced();
  net.install([&](NodeId v) {
    return std::make_unique<SamplerNode>(v, schedule, cfg, n0, adaptive);
  });

  DistributedSpannerRun run;
  run.stretch_bound = cfg.stretch_bound();
  // Principled stall caps for the event-driven drain (run_until_drained
  // leaves delivery rounds uncapped and meters only *silent* rounds):
  //   * adaptive — every silent round consumes at least one phase, so the
  //     run stalls at most once per phase;
  //   * fixed timetable — logical rounds advance one per round and every
  //     silent round is a timetable round, so the timetable length bounds
  //     them.
  // The +4 covers run start/finish framing (the on_start round, the final
  // quiesce probe).
  const std::size_t stall_cap = adaptive ? schedule->phases.size() + 4
                                         : schedule->total_rounds + 4;
  {
    // Named protocol span on the engine track (no-op when tracing is off).
    const obs::ProtocolScope span(net.tracer(), "distributed_sampler");
    run.stats = net.run_until_drained(stall_cap);
  }
  FL_REQUIRE(run.stats.terminated,
             "distributed sampler did not terminate within its schedule");
  run.metrics = net.metrics();

  // Extract the spanner (union of per-node marks) and per-level records.
  std::vector<bool> in_spanner(g.num_edges(), false);
  run.levels.assign(cfg.k + 1, LevelTrace{});
  for (unsigned j = 0; j <= cfg.k; ++j) run.levels[j].level = j;

  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& prog = net.program_as<SamplerNode>(v);
    prog.flush_final_records();
    for (const EdgeId e : prog.spanner_edges()) in_spanner[e] = true;
    for (const auto& rec : prog.root_records()) {
      LevelTrace& lt = run.levels[rec.level];
      ++lt.virtual_nodes;
      lt.virtual_edges += rec.boundary_size;  // halved below
      switch (rec.status) {
        case NodeStatus::Light: ++lt.light; break;
        case NodeStatus::Heavy: ++lt.heavy; break;
        case NodeStatus::Neither: ++lt.neither; break;
      }
      if (rec.was_center) ++lt.centers;
      if (rec.joined) ++lt.clustered;
      if (rec.died) ++lt.unclustered;
      lt.spanner_added += rec.f_count;
    }
    const auto& q = prog.queries_per_level();
    for (unsigned j = 0; j <= cfg.k; ++j) run.levels[j].query_edges += q[j];
    const auto& bd = prog.breakdown();
    run.breakdown.queries += bd.queries;
    run.breakdown.tree_sessions += bd.tree_sessions;
    run.breakdown.center += bd.center;
    run.breakdown.control += bd.control;
  }
  for (auto& lt : run.levels) lt.virtual_edges /= 2;
  run.levels.back().unclustered = run.levels.back().virtual_nodes;

  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (in_spanner[e]) run.edges.push_back(e);
  return run;
}

}  // namespace fl::core
