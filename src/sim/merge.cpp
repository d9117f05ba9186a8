// The merge barrier of Network's round pipeline: the lane outboxes
// become next round's inboxes (merge_lanes), and under an enforced
// CongestConfig the admission pass meters the merged arena per directed
// edge (congest_admit). Both are private Network methods; they live here
// so network.cpp stays about the pipeline and the send path.
#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "util/assert.hpp"

namespace fl::sim {

using graph::NodeId;

void Network::merge_lanes(std::uint64_t total) {
  // Deterministic shard merge into the flat arena, in two steps that touch
  // each message exactly once (PR 2 measured an extra message pass at
  // ~25% end-to-end, so the merge must stay offsets-arithmetic + one
  // relocation):
  //
  //   1. Offsets: walk destinations in order; within a destination, give
  //      lane s the slot range after lanes < s (counts were kept by
  //      enqueue). The same walk writes each lane's private scatter
  //      cursors, zeroes its counts for the next round, and leaves
  //      arena_offsets_ as the final CSR table directly. With a pool the
  //      walk runs chunk-parallel over the node shards: each chunk totals
  //      its counts, a sequential O(S) exclusive prefix over the chunk
  //      totals seeds each chunk's base offset, and a second chunked pass
  //      lays out offsets + cursors from those bases — the resulting
  //      arithmetic is identical to the sequential walk.
  //   2. Relocation: every lane scatters its own outbox in send order.
  //      Cursor ranges are disjoint per (lane, destination), so lanes
  //      relocate concurrently with no shared writes.
  //
  // Send order within a lane is sequential order within its contiguous
  // shard, and step 1 ordered lanes ascending within each destination, so
  // per-destination arrival order is bit-identical to the sequential run
  // — the counting sort is stable across the shard concatenation.
  // arena_offsets_ is deliberately 32-bit (half the randomly accessed side
  // array); a round with >= 2^32 - 1 messages would silently wrap it, so
  // the large-n path must die here with a message naming the cure.
  FL_REQUIRE(total < std::numeric_limits<std::uint32_t>::max(),
             "round message count overflows the 32-bit arena offsets "
             "(>= 2^32 - 1 messages in one round); split the round or "
             "promote arena_offsets_ to uint64_t");
  const NodeId n = graph_->num_nodes();
  if (!pool_) {
    LaneScope scope(check_.get(), 0, EnginePhase::Merge);
    std::uint32_t sum = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (check_) check_->touch_merge_dest(v, "per-destination offsets");
      arena_offsets_[v] = sum;
      for (auto& lane : lanes_) {
        const std::uint32_t c = lane.dest_counts[v];
        lane.dest_counts[v] = 0;  // ready for next round's enqueues
        lane.cursors[v] = sum;
        sum += c;
      }
    }
    arena_offsets_[n] = sum;
  } else {
    // Chunk c owns destination range shards_[c]; it only touches
    // dest_counts/cursors entries inside that range (across all lanes),
    // so the two chunked passes share no writable state between chunks.
    pool_->run([&](unsigned c) {
      LaneScope scope(check_.get(), c, EnginePhase::Merge);
      const ShardRange range = shards_[c];
      std::uint64_t w = 0;
      for (NodeId v = range.begin; v < range.end; ++v)
        for (const auto& lane : lanes_) w += lane.dest_counts[v];
      chunk_weight_[c] = w;
    });
    std::uint64_t base = 0;
    for (auto& w : chunk_weight_) {
      const std::uint64_t c = w;
      w = base;
      base += c;
    }
    pool_->run([&](unsigned c) {
      LaneScope scope(check_.get(), c, EnginePhase::Merge);
      const ShardRange range = shards_[c];
      auto sum = static_cast<std::uint32_t>(chunk_weight_[c]);
      for (NodeId v = range.begin; v < range.end; ++v) {
        if (check_) check_->touch_merge_dest(v, "per-destination offsets");
        arena_offsets_[v] = sum;
        for (auto& lane : lanes_) {
          const std::uint32_t cnt = lane.dest_counts[v];
          lane.dest_counts[v] = 0;
          lane.cursors[v] = sum;
          sum += cnt;
        }
      }
    });
    arena_offsets_[n] = static_cast<std::uint32_t>(total);
  }
  arena_.resize(static_cast<std::size_t>(total));
  auto scatter = [&](unsigned s) {
    LaneScope scope(check_.get(), s, EnginePhase::Merge);
    const obs::SpanScope span(trace_.get(), obs::SpanKind::MergeLane, s,
                              round_);
    // The scatter writes arena slots for *foreign* destinations — that is
    // the merge contract (cursor ranges are disjoint per lane) — but it
    // may only drain its own outbox and cursors. Headers relocate with a
    // plain 16-byte assignment; payloads move once, here.
    if (check_) check_->touch_lane(s, EnginePhase::Merge, "outbox scatter");
    SendLane& lane = lanes_[s];
    for (std::size_t i = 0; i < lane.outbox.size(); ++i) {
      const MessageHeader& h = lane.outbox.header(i);
      const std::uint32_t slot = lane.cursors[h.to]++;
      arena_.header(slot) = h;
      arena_.payload(slot) = std::move(lane.outbox.payload(i));
    }
    lane.outbox.clear();
  };
  if (pool_) {
    pool_->run(scatter);
  } else {
    scatter(0);
  }
  for (auto& lane : lanes_) {
    metrics_.words_total += lane.words;
    lane.words = 0;
    if (lane.max_words > metrics_.max_message_words)
      metrics_.max_message_words = lane.max_words;  // lane max is monotone
  }
}

std::uint64_t Network::congest_admit() {
  // The CONGEST admission pass (congest.hpp). Candidates for node v this
  // round are its chunk's carried messages for v (FIFO, from earlier
  // rounds) followed by v's freshly merged arena segment; both orders are
  // bit-identical across thread counts, so admission is too. Per directed
  // edge the rule is a B-words-per-round FIFO channel:
  //
  //   * on the edge's first touch of a round its capacity is B, plus the
  //     capacity it banked while blocked in the immediately preceding
  //     round(s) — that is what lets one K-word message cross in
  //     ceil(K / B) rounds instead of livelocking;
  //   * a message is admitted iff the edge still has capacity >= its
  //     words and no earlier message was deferred this round (FIFO: once
  //     one message on the edge waits, everything behind it waits);
  //   * under Strict nothing ever waits — the first overflow throws.
  //
  // Three steps mirror the offsets pass: decide (chunk-parallel, all
  // state destination-owned), prefix chunk totals (sequential O(S)),
  // relocate into a fresh arena + rewrite offsets (chunk-parallel).
  const std::uint64_t budget = congest_.words_per_edge_per_round;
  const bool strict = congest_.policy == CongestPolicy::Strict;
  const std::uint64_t stamp = round_ + 1;  // this round; never the 0 init
  auto decide = [&](unsigned c) {
    LaneScope scope(check_.get(), c, EnginePhase::Admit);
    const obs::SpanScope span(trace_.get(), obs::SpanKind::AdmitLane, c,
                              round_);
    const ShardRange range = shards_[c];
    CongestChunk& chunk = congest_chunks_[c];
    if (check_) check_->touch_carry(c, "carry queue");
    chunk.admitted.clear();
    chunk.carry_next.clear();
    // The budget decision reads only the 16-byte header; the payload is
    // moved once, wherever the message lands (admitted or carried). The
    // Strict throw reads the payload type, but that path never returns.
    auto consider = [&](const MessageHeader& h, Payload& p) {
      const std::size_t key = 2 * static_cast<std::size_t>(h.edge) +
                              (h.to > h.from ? 1 : 0);
      // A directed edge delivers to exactly one node, so its budget state
      // belongs to the destination's chunk — the property that lets the
      // admission pass parallelize with no shared writes.
      if (check_) check_->touch_admit_dest(h.to, "per-edge budget tally");
      EdgeBudgetState& st = congest_edges_[key];
      if (st.stamp != stamp) {
        const bool backlogged = st.blocked && st.stamp + 1 == stamp;
        st.remaining = (backlogged ? st.remaining : 0) + budget;
        st.blocked = false;
        st.stamp = stamp;
      }
      const std::uint64_t w = h.size_hint_words;
      if (!st.blocked && st.remaining >= w) {
        st.remaining -= w;
        chunk.admitted.push_back(h, std::move(p));
        return;
      }
      if (strict) {
        const std::type_info* held = p.type();
        throw CongestViolation(
            "CONGEST budget exceeded: edge " + std::to_string(h.edge) +
                " (" + std::to_string(h.from) + " -> " +
                std::to_string(h.to) + ") would carry " +
                std::to_string(budget - st.remaining + w) + " words in round " +
                std::to_string(round_) + " (budget " + std::to_string(budget) +
                " words/edge/round); offending payload: " +
                (held == nullptr ? std::string("<empty>")
                                 : detail::type_name(*held)),
            h.edge, h.from, h.to, round_, budget - st.remaining + w, budget);
      }
      st.blocked = true;
      ++chunk.deferred_events;
      if (check_) check_->touch_carry(c, "carry queue");
      chunk.carry_next.push_back(h, std::move(p));
    };
    std::size_t cursor = 0;
    for (NodeId v = range.begin; v < range.end; ++v) {
      const std::size_t before = chunk.admitted.size();
      for (; cursor < chunk.carry.size() && chunk.carry.header(cursor).to == v;
           ++cursor)
        consider(chunk.carry.header(cursor), chunk.carry.payload(cursor));
      for (std::uint32_t i = arena_offsets_[v]; i < arena_offsets_[v + 1]; ++i)
        consider(arena_.header(i), arena_.payload(i));
      congest_counts_[v] =
          static_cast<std::uint32_t>(chunk.admitted.size() - before);
    }
    chunk_weight_[c] = chunk.admitted.size();
  };
  if (pool_) {
    pool_->run(decide);
  } else {
    decide(0);
  }
  std::uint64_t admitted_total = 0;
  carry_total_ = 0;
  for (unsigned c = 0; c < congest_chunks_.size(); ++c) {
    CongestChunk& chunk = congest_chunks_[c];
    chunk.carry.swap(chunk.carry_next);
    carry_total_ += chunk.carry.size();
    metrics_.deferrals_total += chunk.deferred_events;
    chunk.deferred_events = 0;
    const std::uint64_t w = chunk_weight_[c];
    chunk_weight_[c] = admitted_total;  // becomes the chunk's arena base
    admitted_total += w;
  }
  if (carry_total_ > metrics_.carry_peak) metrics_.carry_peak = carry_total_;
  if (trace_ && carry_total_ > 0) {
    // Per-directed-edge carry occupancy: within a chunk's carry the same
    // directed edge's messages need not be contiguous (arrival order
    // interleaves edges sharing a destination), so count runs over the
    // sorted key list. Adds are order-independent, the sort makes the
    // walk deterministic anyway, and the O(c log c) cost exists only with
    // tracing on.
    std::vector<std::uint64_t> keys;
    keys.reserve(static_cast<std::size_t>(carry_total_));
    for (const auto& chunk : congest_chunks_) {
      for (std::size_t i = 0; i < chunk.carry.size(); ++i) {
        const MessageHeader& h = chunk.carry.header(i);
        keys.push_back(2 * static_cast<std::uint64_t>(h.edge) +
                       (h.to > h.from ? 1 : 0));
      }
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 0; i < keys.size();) {
      std::size_t j = i;
      while (j < keys.size() && keys[j] == keys[i]) ++j;
      trace_->edge_carry_hist().add(j - i);
      i = j;
    }
  }
  FL_REQUIRE(admitted_total < std::numeric_limits<std::uint32_t>::max(),
             "admitted message count overflows the 32-bit arena offsets "
             "(>= 2^32 - 1 messages admitted in one round); split the round "
             "or promote arena_offsets_ to uint64_t");
  arena_next_.resize(static_cast<std::size_t>(admitted_total));
  auto relocate = [&](unsigned c) {
    LaneScope scope(check_.get(), c, EnginePhase::Admit);
    const obs::SpanScope span(trace_.get(), obs::SpanKind::AdmitLane, c,
                              round_);
    const ShardRange range = shards_[c];
    CongestChunk& chunk = congest_chunks_[c];
    auto base = static_cast<std::uint32_t>(chunk_weight_[c]);
    for (std::size_t i = 0; i < chunk.admitted.size(); ++i) {
      arena_next_.header(base + i) = chunk.admitted.header(i);
      arena_next_.payload(base + i) = std::move(chunk.admitted.payload(i));
    }
    for (NodeId v = range.begin; v < range.end; ++v) {
      if (check_) check_->touch_admit_dest(v, "admitted offsets");
      arena_offsets_[v] = base;
      base += congest_counts_[v];
    }
  };
  if (pool_) {
    pool_->run(relocate);
  } else {
    relocate(0);
  }
  arena_offsets_[graph_->num_nodes()] =
      static_cast<std::uint32_t>(admitted_total);
  arena_.swap(arena_next_);
  return admitted_total;
}

}  // namespace fl::sim
