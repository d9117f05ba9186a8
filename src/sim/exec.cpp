#include "sim/exec.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/assert.hpp"

namespace fl::sim {

ParallelConfig default_parallel_config() {
  ParallelConfig cfg;
  const char* env = std::getenv("FL_SIM_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    FL_REQUIRE(end != nullptr && *end == '\0' && v >= 1,
               "FL_SIM_THREADS must be a positive integer");
    FL_REQUIRE(v <= 1024, "FL_SIM_THREADS capped at 1024");
    cfg.threads = static_cast<unsigned>(v);
  }
  return cfg;
}

std::vector<ShardRange> partition_nodes(graph::NodeId n, unsigned shards,
                                        std::span<const std::uint64_t> weights) {
  FL_REQUIRE(n >= 1, "cannot partition an empty node set");
  FL_REQUIRE(weights.size() == n, "one weight per node");
  if (shards < 1) shards = 1;
  const auto k = static_cast<graph::NodeId>(shards < n ? shards : n);
  if (k == 1) return {{0, n}};
  // prefix[i] = total weight of nodes [0, i). Total weight is bounded by
  // n + 2m (the engine's degree weighting), far below the overflow point of
  // the target multiplication below.
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(n) + 1, 0);
  for (graph::NodeId v = 0; v < n; ++v) prefix[v + 1] = prefix[v] + weights[v];
  const std::uint64_t total = prefix[n];

  std::vector<ShardRange> ranges(k);
  graph::NodeId begin = 0;
  for (graph::NodeId s = 0; s < k; ++s) {
    graph::NodeId end = n;
    if (s + 1 < k) {
      // Ideal cut: the first index whose covered weight reaches the
      // (s+1)/k mark, clamped so this shard takes at least one node and
      // leaves at least one per remaining shard.
      const std::uint64_t target = total * (s + 1) / k;
      const auto it = std::lower_bound(prefix.begin() + begin + 1,
                                       prefix.begin() + n, target);
      end = static_cast<graph::NodeId>(it - prefix.begin());
      end = std::min(end, n - (k - 1 - s));
      end = std::max(end, begin + 1);
    }
    ranges[s] = {begin, end};
    begin = end;
  }
  return ranges;
}

// ------------------------------------------------------------- ExecPool

ExecPool::ExecPool(unsigned lanes) : lanes_(lanes < 1 ? 1 : lanes) {
  errors_.resize(lanes_);
  workers_.reserve(lanes_ - 1);
  for (unsigned lane = 1; lane < lanes_; ++lane)
    workers_.emplace_back([this, lane] { worker_loop(lane); });
}

ExecPool::~ExecPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ExecPool::run(const std::function<void(unsigned)>& job) {
  if (lanes_ > 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      pending_ = lanes_ - 1;
      ++generation_;
    }
    start_cv_.notify_all();
  }
  try {
    job(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  if (lanes_ > 1) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    job_ = nullptr;
  }
  for (auto& e : errors_) {
    if (e) {
      const std::exception_ptr first = e;
      for (auto& other : errors_) other = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void ExecPool::worker_loop(unsigned lane) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    try {
      (*job)(lane);
    } catch (...) {
      errors_[lane] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace fl::sim
