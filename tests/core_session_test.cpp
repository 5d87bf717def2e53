#include "core/session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace cbma::core {
namespace {

SystemConfig fast_config(std::size_t max_tags) {
  SystemConfig cfg;
  cfg.max_tags = max_tags;
  cfg.payload_bytes = 4;
  return cfg;
}

SessionConfig quick_session() {
  SessionConfig cfg;
  cfg.packets_per_round = 15;
  cfg.max_rounds = 4;
  cfg.final_packets = 30;
  return cfg;
}

rfsim::Deployment healthy_population(std::size_t n) {
  auto dep = rfsim::Deployment::paper_frame();
  for (std::size_t k = 0; k < n; ++k) {
    const double angle = 2.0 * units::kPi * static_cast<double>(k) /
                         static_cast<double>(n);
    dep.add_tag({0.3 * std::cos(angle), 0.75 + 0.3 * std::sin(angle)});
  }
  return dep;
}

TEST(AdaptiveSession, RejectsBadConfig) {
  CbmaSystem sys(fast_config(2), healthy_population(2));
  SessionConfig cfg = quick_session();
  cfg.packets_per_round = 0;
  EXPECT_THROW(AdaptiveSession(sys, cfg), std::invalid_argument);
  cfg = quick_session();
  cfg.max_rounds = 0;
  EXPECT_THROW(AdaptiveSession(sys, cfg), std::invalid_argument);
  cfg = quick_session();
  cfg.final_packets = 0;
  EXPECT_THROW(AdaptiveSession(sys, cfg), std::invalid_argument);
}

TEST(AdaptiveSession, HealthyGroupConvergesInOneRound) {
  CbmaSystem sys(fast_config(3), healthy_population(3));
  AdaptiveSession session(sys, quick_session());
  Rng rng(1);
  const auto result = session.run(rng);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds_to_converge, 1u);
  ASSERT_EQ(result.history.size(), 1u);
  EXPECT_FALSE(result.history.front().reselected);
  EXPECT_LE(result.final_fer, 0.1);
}

TEST(AdaptiveSession, HistoryRecordsGroupsAndRatios) {
  CbmaSystem sys(fast_config(3), healthy_population(3));
  AdaptiveSession session(sys, quick_session());
  Rng rng(2);
  const auto result = session.run(rng);
  for (const auto& round : result.history) {
    EXPECT_EQ(round.group.size(), 3u);
    EXPECT_EQ(round.ack_ratios.size(), 3u);
    EXPECT_GE(round.fer, 0.0);
    EXPECT_LE(round.fer, 1.0);
  }
}

TEST(AdaptiveSession, HopelessTagTriggersReselection) {
  // Population: 3 healthy + 1 unreachable; the group starts with the
  // unreachable tag and must swap it out.
  auto dep = healthy_population(3);
  dep.add_tag({40.0, 60.0});  // far outside the cell
  CbmaSystem sys(fast_config(3), dep);
  sys.set_active_group({0, 1, 3});  // slot 2 is the unreachable tag

  AdaptiveSession session(sys, quick_session());
  Rng rng(3);
  const auto result = session.run(rng);
  // The dead tag must have been replaced at some point...
  bool saw_reselect = false;
  for (const auto& r : result.history) saw_reselect |= r.reselected;
  EXPECT_TRUE(saw_reselect);
  // ...and the final group should not contain it.
  const auto& group = sys.active_group();
  EXPECT_EQ(std::count(group.begin(), group.end(), 3u), 0);
  EXPECT_LE(result.final_fer, 0.15);
}

TEST(AdaptiveSession, StepsReproduceTheRoundsOfRun) {
  // run() is step() until a healthy round: a caller stepping by hand sees
  // the same rounds (Algorithm 1 first, then the §V-C round count).
  auto dep = healthy_population(3);
  dep.add_tag({40.0, 60.0});
  CbmaSystem by_run(fast_config(3), dep);
  CbmaSystem by_step(fast_config(3), dep);
  by_run.set_active_group({0, 1, 3});
  by_step.set_active_group({0, 1, 3});

  Rng run_rng(3);
  const auto result = AdaptiveSession(by_run, quick_session()).run(run_rng);
  Rng step_rng(3);
  AdaptiveSession session(by_step, quick_session());
  for (const auto& expected : result.history) {
    const auto round = session.step(step_rng);
    EXPECT_EQ(round.round, expected.round);
    EXPECT_EQ(round.group, expected.group);
    EXPECT_DOUBLE_EQ(round.fer, expected.fer);
    EXPECT_EQ(round.healthy, expected.healthy);
    EXPECT_EQ(round.reselected, expected.reselected);
    EXPECT_EQ(round.pc_adjustments, expected.pc_adjustments);
  }
  EXPECT_EQ(by_step.active_group(), by_run.active_group());
}

TEST(AdaptiveSession, NonConvergenceReportsMaxRounds) {
  // Every population member is unreachable: nothing to converge to.
  auto dep = rfsim::Deployment::paper_frame();
  dep.add_tag({30.0, 40.0});
  dep.add_tag({-35.0, 45.0});
  CbmaSystem sys(fast_config(2), dep);
  SessionConfig cfg = quick_session();
  cfg.max_rounds = 2;
  AdaptiveSession session(sys, cfg);
  Rng rng(4);
  const auto result = session.run(rng);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.rounds_to_converge, 2u);
  EXPECT_GE(result.final_fer, 0.9);
}

TEST(AdaptiveSession, DeterministicPerSeed) {
  auto run_once = [&] {
    CbmaSystem sys(fast_config(3), healthy_population(5));
    AdaptiveSession session(sys, quick_session());
    Rng rng(42);
    return session.run(rng).final_fer;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace cbma::core
