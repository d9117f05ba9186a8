// Fine-grained tests for the distributed Sampler's phase schedule — the
// deterministic timetable that realizes Theorem 11's round bound — plus the
// timer utility surface.
#include <gtest/gtest.h>

#include <map>

#include "core/config.hpp"
#include "core/distributed_sampler.hpp"
#include "util/timer.hpp"

namespace fl {
namespace {

using core::PhaseSpec;
using core::SamplerConfig;
using core::Schedule;
using Kind = core::PhaseSpec::Kind;

TEST(Schedule, LevelStructureComplete) {
  const auto cfg = SamplerConfig::bench_profile(2, 3, 1);
  const auto sched = Schedule::build(cfg);
  // Per level: 3 init phases + 5 per trial; post-level block (7 phases) on
  // all but the last level.
  std::map<unsigned, std::size_t> per_level;
  for (const auto& p : sched.phases) ++per_level[p.level];
  ASSERT_EQ(per_level.size(), cfg.k + 1u);
  const std::size_t trials = cfg.trials_per_level();
  for (unsigned j = 0; j <= cfg.k; ++j) {
    const std::size_t expected = 3 + 5 * trials + (j < cfg.k ? 7 : 0);
    EXPECT_EQ(per_level[j], expected) << "level " << j;
  }
}

TEST(Schedule, PhaseOrderWithinTrial) {
  const auto cfg = SamplerConfig::bench_profile(1, 2, 1);
  const auto sched = Schedule::build(cfg);
  // Every QuerySend is immediately followed by QueryRespond, then collect,
  // then apply — the causality chain queries -> replies -> decisions.
  for (std::size_t i = 0; i + 3 < sched.phases.size(); ++i) {
    if (sched.phases[i].kind != Kind::QuerySend) continue;
    EXPECT_EQ(sched.phases[i + 1].kind, Kind::QueryRespond);
    EXPECT_EQ(sched.phases[i + 2].kind, Kind::TrialCollectEcho);
    EXPECT_EQ(sched.phases[i + 3].kind, Kind::TrialApplyFlood);
    EXPECT_EQ(sched.phases[i].length, 1u);
    EXPECT_EQ(sched.phases[i + 1].length, 1u);
  }
}

TEST(Schedule, WindowsMatchClusterDiameterBound) {
  // Flood/echo phases at level j are allotted W_j = 3^j − 1 rounds — the
  // Lemma 8 cluster-tree height bound.
  const auto cfg = SamplerConfig::bench_profile(3, 2, 1);
  const auto sched = Schedule::build(cfg);
  for (const auto& p : sched.phases) {
    const auto w = static_cast<std::size_t>(
        SamplerConfig::pow3(p.level)) - 1;
    switch (p.kind) {
      case Kind::FloodSetup:
      case Kind::GatherEcho:
      case Kind::FloodBoundary:
      case Kind::TrialRateFlood:
      case Kind::TrialCollectEcho:
      case Kind::TrialApplyFlood:
      case Kind::CenterFlood:
      case Kind::CenterCollectEcho:
      case Kind::JoinFlood:
        EXPECT_EQ(p.length, w) << "level " << p.level;
        break;
      case Kind::QuerySend:
      case Kind::QueryRespond:
      case Kind::CenterQuery:
      case Kind::CenterRespond:
      case Kind::AttachNotify:
      case Kind::DeathAnnounce:
        EXPECT_EQ(p.length, 1u);
        break;
      case Kind::TrialGatherEcho:
        break;  // unused by the current protocol
    }
  }
}

TEST(Schedule, TrialIndicesSequential) {
  const auto cfg = SamplerConfig::bench_profile(2, 4, 1);
  const auto sched = Schedule::build(cfg);
  std::map<unsigned, int> next_trial;  // expected next index per level
  for (const auto& p : sched.phases) {
    if (p.kind != Kind::TrialRateFlood) continue;
    EXPECT_EQ(p.trial, next_trial[p.level]) << "level " << p.level;
    ++next_trial[p.level];
  }
  for (unsigned j = 0; j <= cfg.k; ++j)
    EXPECT_EQ(next_trial[j], static_cast<int>(cfg.trials_per_level()));
}

TEST(Schedule, GrowsGeometricallyWithK) {
  std::size_t prev = 0;
  for (unsigned k = 1; k <= 4; ++k) {
    const auto sched = Schedule::build(SamplerConfig::bench_profile(k, 2, 1));
    EXPECT_GT(sched.total_rounds, prev);
    prev = sched.total_rounds;
  }
}

TEST(Timer, MeasuresElapsedTime) {
  util::Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), t.seconds());  // millis = seconds * 1000
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace fl
