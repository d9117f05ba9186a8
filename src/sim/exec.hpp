// Parallel round execution: sharded node stepping with a deterministic
// shard-merge delivery barrier.
//
// Within a synchronous round every node's step is independent — the model
// itself says so (a message sent in round r is visible only in round r+1).
// The engine exploits exactly that independence and nothing more:
//
//   * nodes are partitioned into contiguous id ranges (shards), one per
//     execution lane; a persistent ExecPool steps all shards of a round
//     concurrently and barriers before delivery;
//   * each lane appends its sends to a private SendLane outbox and keeps
//     per-destination counts incrementally at enqueue, so the merge at the
//     barrier is offsets arithmetic over the per-lane counts plus a single
//     relocation pass into the shared flat arena — no extra message pass
//     (a two-pass bucketed scatter measured ~25% slower on the bench box);
//   * per-node state (RNG stream, program) is only ever touched by the
//     lane whose shard owns the node.
//
// Determinism contract: delivery order is bit-identical to sequential
// execution. Sequential order is "node 0's sends, then node 1's, ...";
// contiguous ascending shards concatenated in shard order reproduce it, and
// the merge assigns lane s's messages for destination v the arena range
// after all lanes < s — a stable counting sort across lanes. RunStats,
// Metrics and every protocol's output are therefore invariant under
// FL_SIM_THREADS.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "graph/ids.hpp"
#include "sim/message.hpp"

namespace fl::sim {

/// Execution-parallelism knob threaded through Network. threads == 1 is
/// plain sequential stepping (no pool, no extra barriers).
struct ParallelConfig {
  unsigned threads = 1;
};

/// ParallelConfig{FL_SIM_THREADS} when the environment variable is set to a
/// positive integer; ParallelConfig{1} otherwise.
ParallelConfig default_parallel_config();

/// A contiguous node-id range [begin, end) owned by one execution lane.
struct ShardRange {
  graph::NodeId begin = 0;
  graph::NodeId end = 0;

  graph::NodeId size() const { return end - begin; }
  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// Split [0, n) into k = min(shards, n) contiguous ranges covering every
/// node in ascending order, each carrying roughly total_weight / k.
/// `weights` holds one non-negative weight per node (the engine passes
/// deg(v) + 1: a node's per-round cost is dominated by its sends and inbox,
/// both proportional to its degree, so skewed graphs get balanced lanes).
/// Cuts sit where the weight prefix sum crosses the s/k marks, clamped so
/// every shard keeps at least one node (a single huge-weight node gets a
/// singleton shard; trailing shards are never starved below one node
/// each). A zero shard request clamps to one.
std::vector<ShardRange> partition_nodes(graph::NodeId n, unsigned shards,
                                        std::span<const std::uint64_t> weights);

/// Per-lane execution state. During a round each lane appends sends to its
/// own outbox (a MessagePlanes, so the merge's header-only passes never
/// touch payload bytes), counts messages per destination, and accumulates
/// the words metric, so stepping touches no shared counters. At the merge
/// the offsets walk converts counts into the lane's scatter cursors
/// (zeroing the counts in the same pass, so delivery adds no extra O(n)
/// sweep). `done_count` is the number of currently-done nodes in the
/// lane's shard, maintained by transition (±1 when a node's done() answer
/// flips) as nodes are stepped — the engine's quiesce check sums S of
/// these instead of scanning n programs.
struct SendLane {
  MessagePlanes outbox;
  std::vector<std::uint32_t> dest_counts;  // size n
  std::vector<std::uint32_t> cursors;      // size n
  std::uint64_t words = 0;
  std::uint64_t max_words = 0;  // largest single size hint, monotone
  std::int64_t done_count = 0;
};

/// Persistent worker pool executing one job per lane with a barrier.
///
/// Pool of `lanes - 1` worker threads plus the calling thread (which always
/// runs lane 0): run(job) invokes job(lane) for every lane in [0, lanes)
/// concurrently and returns when all have finished. A job that throws has
/// its exception captured and rethrown from run() on the calling thread
/// (lowest lane index wins when several throw), so contract violations
/// inside node programs surface exactly as they do sequentially.
class ExecPool {
 public:
  explicit ExecPool(unsigned lanes);
  ~ExecPool();

  ExecPool(const ExecPool&) = delete;
  ExecPool& operator=(const ExecPool&) = delete;

  unsigned lanes() const { return lanes_; }

  void run(const std::function<void(unsigned)>& job);

 private:
  void worker_loop(unsigned lane);

  unsigned lanes_;
  std::vector<std::thread> workers_;
  std::vector<std::exception_ptr> errors_;  // one slot per lane

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* job_ = nullptr;  // guarded by mu_
  std::uint64_t generation_ = 0;                        // guarded by mu_
  unsigned pending_ = 0;                                // guarded by mu_
  bool stop_ = false;                                   // guarded by mu_
};

}  // namespace fl::sim
