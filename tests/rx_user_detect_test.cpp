#include "rx/user_detect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "phy/tag.h"
#include "pn/code.h"
#include "rfsim/channel.h"
#include "synthesize.h"

namespace cbma::rx {
namespace {

constexpr std::size_t kSpc = 4;
constexpr std::size_t kPreambleBits = 8;

std::vector<pn::PnCode> group_codes(std::size_t n) {
  return pn::make_code_set(pn::CodeFamily::kTwoNC, n, 20);
}

phy::Tag make_tag(std::size_t index, const std::vector<pn::PnCode>& codes) {
  phy::TagConfig cfg;
  cfg.id = static_cast<std::uint32_t>(index);
  cfg.code = codes[index];
  cfg.preamble_bits = kPreambleBits;
  return phy::Tag(cfg);
}

/// detect() through the unified DetectionInput entry point (the tests keep
/// interleaved IQ; the detector API takes split views).
std::vector<DetectedUser> detect_iq(const UserDetector& det,
                                    std::span<const std::complex<double>> iq,
                                    std::size_t coarse_start) {
  std::vector<double> re, im;
  pn::split_iq(iq, re, im);
  UserDetector::Scratch scratch;
  return det.detect(DetectionInput{re, im, coarse_start}, scratch);
}

rfsim::Channel quiet_channel() {
  rfsim::ChannelConfig cfg;
  cfg.samples_per_chip = kSpc;
  cfg.chip_rate_hz = 32e6;
  cfg.noise_power_w = 0.0;
  return rfsim::Channel(cfg);
}

/// Synthesize the IQ window of a set of (tag, amplitude, delay) tuples.
std::vector<std::complex<double>> synthesize(
    const std::vector<pn::PnCode>& codes,
    const std::vector<std::tuple<std::size_t, double, double>>& active,
    cbma::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> chips;
  std::vector<rfsim::TagTransmission> txs;
  const std::vector<std::uint8_t> payload{0x42, 0x99};
  for (const auto& [idx, amp, delay] : active) {
    chips.push_back(make_tag(idx, codes).chip_sequence(payload));
  }
  std::size_t k = 0;
  for (const auto& [idx, amp, delay] : active) {
    rfsim::TagTransmission tx;
    tx.chips = chips[k++];
    tx.amplitude = amp;
    tx.phase = rng.phase();
    tx.delay_chips = 16.0 + delay;
    txs.push_back(tx);
  }
  return test::synthesize(quiet_channel(), txs, rng);
}

TEST(UserDetector, RejectsBadConfig) {
  const auto codes = group_codes(2);
  UserDetectConfig cfg;
  cfg.threshold = 0.0;
  EXPECT_THROW(UserDetector(cfg, codes, kPreambleBits, kSpc), std::invalid_argument);
  cfg = UserDetectConfig{};
  cfg.relative_threshold = 1.5;
  EXPECT_THROW(UserDetector(cfg, codes, kPreambleBits, kSpc), std::invalid_argument);
  EXPECT_THROW(UserDetector(UserDetectConfig{}, {}, kPreambleBits, kSpc),
               std::invalid_argument);
  EXPECT_THROW(UserDetector(UserDetectConfig{}, codes, kPreambleBits, 0),
               std::invalid_argument);
}

TEST(UserDetector, SingleUserDetectedAtExactOffset) {
  const auto codes = group_codes(4);
  cbma::Rng rng(1);
  const auto iq = synthesize(codes, {{1, 1.0, 0.0}}, rng);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const auto hits = detect_iq(det, iq, 16 * kSpc);
  // The transmitting code must be present, at the exact offset, and be the
  // strongest hit by a clear margin. (Asynchronous sidelobes of other
  // codes may clear the raw threshold — the decode+id stage rejects them.)
  ASSERT_FALSE(hits.empty());
  const auto best = *std::max_element(
      hits.begin(), hits.end(),
      [](const auto& a, const auto& b) { return a.correlation < b.correlation; });
  EXPECT_EQ(best.tag_index, 1u);
  EXPECT_EQ(best.offset_samples, 16u * kSpc);
  EXPECT_GT(best.correlation, 0.9);
  for (const auto& h : hits) {
    if (h.tag_index != 1) {
      EXPECT_LT(h.correlation, 0.6 * best.correlation);
    }
  }
}

TEST(UserDetector, RecoversCarrierPhase) {
  const auto codes = group_codes(2);
  cbma::Rng rng(2);
  // Fixed phase via direct channel call.
  const auto tag = make_tag(0, codes);
  const std::vector<std::uint8_t> pl{1, 2, 3};
  const auto chips = tag.chip_sequence(pl);
  rfsim::TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.phase = 0.8;
  tx.delay_chips = 16.0;
  const auto iq = test::synthesize(quiet_channel(), std::span(&tx, 1), rng);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const auto hit = det.probe(iq, 16 * kSpc, 0);
  EXPECT_NEAR(hit.phase, 0.8, 0.05);
}

TEST(UserDetector, TwoConcurrentUsersBothDetected) {
  const auto codes = group_codes(4);
  cbma::Rng rng(3);
  const auto iq = synthesize(codes, {{0, 1.0, 0.3}, {2, 1.0, 0.9}}, rng);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const auto hits = detect_iq(det, iq, 16 * kSpc);
  bool has0 = false, has2 = false;
  for (const auto& h : hits) {
    has0 |= (h.tag_index == 0 && h.correlation > 0.4);
    has2 |= (h.tag_index == 2 && h.correlation > 0.4);
  }
  EXPECT_TRUE(has0);
  EXPECT_TRUE(has2);
}

TEST(UserDetector, AbsentCodesPeakWellBelowActiveOnes) {
  // Asynchronous sidelobes of absent codes are bounded away from the
  // aligned peaks of the transmitting codes — the separation the
  // decode+id stage relies on.
  const auto codes = group_codes(10);
  cbma::Rng rng(4);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  for (int trial = 0; trial < 10; ++trial) {
    const auto iq = synthesize(codes, {{3, 1.0, 0.0}, {7, 1.0, 0.5}}, rng);
    const double active = std::min(det.probe(iq, 16 * kSpc, 3).correlation,
                                   det.probe(iq, 16 * kSpc, 7).correlation);
    EXPECT_GT(active, 0.55);
    for (const std::size_t absent : {0u, 1u, 2u, 4u, 5u, 6u, 8u, 9u}) {
      EXPECT_LT(det.probe(iq, 16 * kSpc, absent).correlation, 0.8 * active)
          << "absent code " << absent << " trial " << trial;
    }
  }
}

TEST(UserDetector, AsynchronousOffsetsRecovered) {
  const auto codes = group_codes(4);
  cbma::Rng rng(5);
  // Tag 1 delayed 2.0 chips after tag 0.
  const auto iq = synthesize(codes, {{0, 1.0, 0.0}, {1, 1.0, 2.0}}, rng);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const auto h0 = det.probe(iq, 16 * kSpc, 0);
  const auto h1 = det.probe(iq, 16 * kSpc, 1);
  EXPECT_EQ(h1.offset_samples - h0.offset_samples, 2u * kSpc);
}

TEST(UserDetector, WeakUserSuppressedByRelativeThreshold) {
  const auto codes = group_codes(4);
  cbma::Rng rng(6);
  UserDetectConfig cfg;
  cfg.relative_threshold = 0.9;  // aggressive: only near-equal peaks pass
  // 12 dB weaker second user.
  const auto iq = synthesize(codes, {{0, 1.0, 0.0}, {1, 0.25, 0.5}}, rng);
  const UserDetector det(cfg, codes, kPreambleBits, kSpc);
  const auto hits = detect_iq(det, iq, 16 * kSpc);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].tag_index, 0u);
}

TEST(UserDetector, ProbeValidatesIndex) {
  const auto codes = group_codes(2);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const std::vector<std::complex<double>> iq(100);
  EXPECT_THROW(det.probe(iq, 0, 2), std::invalid_argument);
}

TEST(UserDetector, GroupSizeReported) {
  const auto codes = group_codes(7);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  EXPECT_EQ(det.group_size(), 7u);
}

TEST(UserDetector, GoldCodesAlsoDetect) {
  const auto codes = pn::make_code_set(pn::CodeFamily::kGold, 4, 31);
  cbma::Rng rng(7);
  std::vector<std::vector<std::uint8_t>> chips;
  std::vector<rfsim::TagTransmission> txs;
  phy::TagConfig tc;
  tc.id = 2;
  tc.code = codes[2];
  tc.preamble_bits = kPreambleBits;
  const phy::Tag tag(tc);
  const std::vector<std::uint8_t> pl{9};
  const auto seq = tag.chip_sequence(pl);
  rfsim::TagTransmission tx;
  tx.chips = seq;
  tx.amplitude = 1.0;
  tx.phase = rng.phase();
  tx.delay_chips = 16.0;
  const auto iq = test::synthesize(quiet_channel(), std::span(&tx, 1), rng);
  const UserDetector det(UserDetectConfig{}, codes, kPreambleBits, kSpc);
  const auto hits = detect_iq(det, iq, 16 * kSpc);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].tag_index, 2u);
}

}  // namespace
}  // namespace cbma::rx
