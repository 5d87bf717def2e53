#include "rx/frame_sync.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.h"

namespace cbma::rx {
namespace {

FrameSyncConfig small_config() {
  FrameSyncConfig cfg;
  cfg.window = 32;
  cfg.head_average = 4;
  return cfg;
}

std::vector<double> step_signal(std::size_t n, std::size_t step_at, double lo,
                                double hi) {
  std::vector<double> v(n, lo);
  for (std::size_t i = step_at; i < n; ++i) v[i] = hi;
  return v;
}

TEST(FrameSync, RejectsBadConfig) {
  FrameSyncConfig cfg = small_config();
  cfg.window = 1;
  EXPECT_THROW(FrameSynchronizer{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.head_average = 0;
  EXPECT_THROW(FrameSynchronizer{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.threshold_db = 0.0;
  EXPECT_THROW(FrameSynchronizer{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.min_baseline = 0.0;
  EXPECT_THROW(FrameSynchronizer{cfg}, std::invalid_argument);
}

TEST(FrameSync, DetectsCleanStep) {
  const FrameSynchronizer sync(small_config());
  const auto sig = step_signal(200, 100, 0.01, 1.0);
  const auto hit = sync.detect(sig);
  ASSERT_TRUE(hit.has_value());
  // Trigger within head_average of the true edge.
  EXPECT_GE(*hit, 100u - small_config().head_average);
  EXPECT_LE(*hit, 101u);
}

TEST(FrameSync, SilentChannelNoDetection) {
  const FrameSynchronizer sync(small_config());
  const std::vector<double> sig(300, 0.02);
  EXPECT_FALSE(sync.detect(sig).has_value());
}

TEST(FrameSync, TooShortWindowNoDetection) {
  const FrameSynchronizer sync(small_config());
  const std::vector<double> sig(20, 1.0);
  EXPECT_FALSE(sync.detect(sig).has_value());
}

TEST(FrameSync, ThresholdIsThreeDbOnPower) {
  FrameSyncConfig cfg = small_config();
  cfg.threshold_db = 3.0;
  const FrameSynchronizer sync(cfg);
  // A power step just below 3 dB must NOT trigger; just above must.
  // (3 dB is the ratio 10^0.3 ≈ 1.995, slightly below a ×2 power step.)
  const auto no = step_signal(200, 100, 1.0, std::sqrt(2.0) * 0.997);
  EXPECT_FALSE(sync.detect(no).has_value());
  const auto yes = step_signal(200, 100, 1.0, std::sqrt(2.0) * 1.05);
  EXPECT_TRUE(sync.detect(yes).has_value());
}

TEST(FrameSync, BeginParameterSkipsEarlierEnergy) {
  const FrameSynchronizer sync(small_config());
  auto sig = step_signal(400, 100, 0.01, 1.0);
  // Second quiet region then a second step.
  for (std::size_t i = 150; i < 300; ++i) sig[i] = 0.01;
  for (std::size_t i = 300; i < 400; ++i) sig[i] = 1.0;
  const auto second = sync.detect(sig, 200);
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(*second, 290u);
  EXPECT_LE(*second, 301u);
}

TEST(FrameSync, DetectFromBeginFindsEachFrame) {
  const FrameSynchronizer sync(small_config());
  std::vector<double> sig(600, 0.01);
  for (std::size_t i = 100; i < 140; ++i) sig[i] = 1.0;
  for (std::size_t i = 400; i < 440; ++i) sig[i] = 1.0;
  const auto first = sync.detect(sig);
  ASSERT_TRUE(first.has_value());
  EXPECT_NEAR(static_cast<double>(*first), 100.0, 5.0);
  // Re-arm past the first frame, as the receiver does after each frame.
  const auto second = sync.detect(sig, *first + 100);
  ASSERT_TRUE(second.has_value());
  EXPECT_NEAR(static_cast<double>(*second), 400.0, 5.0);
  EXPECT_FALSE(sync.detect(sig, *second + 100).has_value());
}

TEST(FrameSync, RobustToGaussianNoiseFloor) {
  // With a realistic noise floor the detector must fire in the frame
  // region, not wildly early.
  cbma::Rng rng(42);
  FrameSyncConfig cfg;
  cfg.window = 128;
  cfg.head_average = 16;
  const FrameSynchronizer sync(cfg);
  int fired = 0;
  int fired_near_edge = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> sig(600);
    for (std::size_t i = 0; i < sig.size(); ++i) {
      const double noise = std::abs(rng.gaussian(0.0, 0.1));
      sig[i] = (i >= 300) ? 1.0 + noise : noise;
    }
    const auto hit = sync.detect(sig);
    if (hit) {
      ++fired;
      // Never later than the edge plus the head window; noise spikes may
      // fire earlier (the receiver's wide correlation search absorbs that).
      EXPECT_LE(*hit, 305u);
      if (*hit >= 280) ++fired_near_edge;
    }
  }
  EXPECT_EQ(fired, 50);
  EXPECT_GE(fired_near_edge, 20);
}

TEST(FrameSync, GradualRampStillTriggers) {
  const FrameSynchronizer sync(small_config());
  std::vector<double> sig(300, 0.01);
  for (std::size_t i = 100; i < 300; ++i) {
    sig[i] = 0.01 + 0.05 * static_cast<double>(i - 100);
  }
  EXPECT_TRUE(sync.detect(sig).has_value());
}

}  // namespace
}  // namespace cbma::rx
