#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace cbma::core {
namespace {

SystemConfig fast_config() {
  SystemConfig cfg;
  cfg.max_tags = 5;
  cfg.payload_bytes = 4;
  return cfg;
}

TEST(MeasureFer, CleanPairHasLowFer) {
  auto dep = rfsim::Deployment::paper_frame();
  dep.add_tag({0.0, 0.5});
  dep.add_tag({0.0, -0.5});
  const auto point = measure_fer(fast_config(), dep, 40, 1);
  EXPECT_LE(point.fer, 0.1);
  EXPECT_EQ(point.stats.sent[0], 40u);
  ASSERT_EQ(point.snr_db.size(), 2u);
  EXPECT_GT(point.snr_db[0], 5.0);
}

TEST(MeasureFer, Deterministic) {
  auto dep = rfsim::Deployment::paper_frame();
  dep.add_tag({0.0, 0.6});
  dep.add_tag({0.3, -0.7});
  const auto a = measure_fer(fast_config(), dep, 30, 77);
  const auto b = measure_fer(fast_config(), dep, 30, 77);
  EXPECT_DOUBLE_EQ(a.fer, b.fer);
  EXPECT_EQ(a.stats.acked, b.stats.acked);
}

TEST(MeasureFer, RejectsZeroPackets) {
  auto dep = rfsim::Deployment::paper_frame();
  dep.add_tag({0.0, 0.5});
  EXPECT_THROW(measure_fer(fast_config(), dep, 0, 1), std::invalid_argument);
}

TEST(MeasureFer, FarTagsFail) {
  auto dep = rfsim::Deployment::paper_frame();
  dep.add_tag({30.0, 40.0});
  const auto point = measure_fer(fast_config(), dep, 20, 2);
  EXPECT_GT(point.fer, 0.9);
}

TEST(Scheme, Names) {
  EXPECT_EQ(to_string(Scheme::kBaseline), "none");
  EXPECT_EQ(to_string(Scheme::kPowerControl), "power-control");
  EXPECT_EQ(to_string(Scheme::kPowerControlAndSelection),
            "power-control+selection");
}

TEST(SchemeTrial, ValidatesConfig) {
  SchemeRunConfig run;
  run.population = 2;
  run.group_size = 5;
  EXPECT_THROW(run_scheme_trial(fast_config(), run, Scheme::kBaseline, 1),
               std::invalid_argument);
}

TEST(SchemeTrial, ReturnsErrorRateInRange) {
  SchemeRunConfig run;
  run.population = 8;
  run.group_size = 3;
  run.session.packets_per_round = 10;
  run.session.final_packets = 20;
  run.session.max_rounds = 2;
  for (const auto scheme : {Scheme::kBaseline, Scheme::kPowerControl,
                            Scheme::kPowerControlAndSelection}) {
    const double er = run_scheme_trial(fast_config(), run, scheme, 5);
    EXPECT_GE(er, 0.0);
    EXPECT_LE(er, 1.0);
  }
}

TEST(SchemeTrial, DeterministicPerSeed) {
  SchemeRunConfig run;
  run.population = 6;
  run.group_size = 2;
  run.session.packets_per_round = 10;
  run.session.final_packets = 20;
  const double a = run_scheme_trial(fast_config(), run, Scheme::kPowerControl, 9);
  const double b = run_scheme_trial(fast_config(), run, Scheme::kPowerControl, 9);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(SchemeTrial, SelectionArmKeepsItsDrawOrder) {
  // Pins the Algorithm 1 + §V-C draw order (PC once, then per round:
  // measure, stop if healthy, reselect, re-run PC only on a changed group;
  // final batch last) to the values the hand-written loop this arm replaced
  // returned. Seed 3 converges after one reselection; seed 11 exhausts
  // max_rounds.
  SchemeRunConfig run;
  run.population = 10;
  run.group_size = 4;
  run.session.packets_per_round = 10;
  run.session.final_packets = 20;
  run.session.max_rounds = 3;
  const auto trial = [&](std::uint64_t seed) {
    return run_scheme_trial(fast_config(), run, Scheme::kPowerControlAndSelection, seed);
  };
  EXPECT_DOUBLE_EQ(trial(3), 0.074999999999999956);
  EXPECT_DOUBLE_EQ(trial(11), 0.099999999999999978);
  // No idle tags: every reselection keeps the group, so Algorithm 1 must
  // not run again.
  run.population = 4;
  EXPECT_DOUBLE_EQ(trial(12), 0.33750000000000002);
}

TEST(SchemeErrorRates, AdaptationHelpsOnAverage) {
  // Macro-benchmark sanity: with a spread-out population, power control
  // must not be worse than no control on average (Fig. 10's ordering).
  SchemeRunConfig run;
  run.population = 10;
  run.group_size = 4;
  run.session.packets_per_round = 15;
  run.session.final_packets = 30;
  run.room = rfsim::Room{3.0, 3.0};
  constexpr std::uint64_t kTrials = 6;
  double sum_base = 0.0;
  double sum_pc = 0.0;
  for (std::uint64_t seed = 21; seed < 21 + kTrials; ++seed) {
    sum_base += run_scheme_trial(fast_config(), run, Scheme::kBaseline, seed);
    sum_pc += run_scheme_trial(fast_config(), run, Scheme::kPowerControl, seed);
  }
  EXPECT_LE(sum_pc / kTrials, sum_base / kTrials + 0.05);
}

}  // namespace
}  // namespace cbma::core
