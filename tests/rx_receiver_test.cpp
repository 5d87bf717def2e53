#include "rx/receiver.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "phy/tag.h"
#include "rfsim/channel.h"
#include "util/rng.h"
#include "synthesize.h"

namespace cbma::rx {
namespace {

constexpr std::size_t kSpc = 4;
constexpr std::size_t kPreambleBits = 8;
constexpr double kLeadChips = 64.0;

ReceiverConfig rx_config() {
  ReceiverConfig cfg;
  cfg.samples_per_chip = kSpc;
  cfg.preamble_bits = kPreambleBits;
  return cfg;
}

std::vector<pn::PnCode> group_codes(std::size_t n) {
  return pn::make_code_set(pn::CodeFamily::kTwoNC, n, 20);
}

rfsim::Channel channel(double noise) {
  rfsim::ChannelConfig cfg;
  cfg.samples_per_chip = kSpc;
  cfg.chip_rate_hz = 32e6;
  cfg.noise_power_w = noise;
  return rfsim::Channel(cfg);
}

struct ActiveTag {
  std::size_t index;
  double amplitude;
  double delay_chips;
  std::vector<std::uint8_t> payload;
};

std::vector<std::complex<double>> make_window(const std::vector<pn::PnCode>& codes,
                                              const std::vector<ActiveTag>& active,
                                              cbma::Rng& rng, double noise) {
  std::vector<std::vector<std::uint8_t>> chips;
  for (const auto& a : active) {
    phy::TagConfig tc;
    tc.id = static_cast<std::uint32_t>(a.index);
    tc.code = codes[a.index];
    tc.preamble_bits = kPreambleBits;
    chips.push_back(phy::Tag(tc).chip_sequence(a.payload));
  }
  std::vector<rfsim::TagTransmission> txs;
  for (std::size_t k = 0; k < active.size(); ++k) {
    rfsim::TagTransmission tx;
    tx.chips = chips[k];
    tx.amplitude = active[k].amplitude;
    tx.phase = rng.phase();
    tx.delay_chips = kLeadChips + active[k].delay_chips;
    txs.push_back(tx);
  }
  return test::synthesize(channel(noise), txs, rng);
}

TEST(Receiver, RejectsEmptyGroup) {
  EXPECT_THROW(Receiver(rx_config(), {}), std::invalid_argument);
}

TEST(Receiver, ExposesCodes) {
  const Receiver rx(rx_config(), group_codes(3));
  EXPECT_EQ(rx.group_size(), 3u);
  EXPECT_NO_THROW(rx.code(2));
  EXPECT_THROW(rx.code(3), std::invalid_argument);
}

TEST(Receiver, SilentWindowReportsNothing) {
  const Receiver rx(rx_config(), group_codes(3));
  cbma::Rng rng(1);
  std::vector<std::complex<double>> iq(4000, {0.0, 0.0});
  rfsim::AwgnSource(1e-6).add_to(iq, rng);
  const auto report = rx.process_iq(iq);
  EXPECT_EQ(report.decoded_count(), 0u);
  for (const auto& r : report.results) EXPECT_FALSE(r.crc_ok);
}

TEST(Receiver, SingleTagEndToEnd) {
  const auto codes = group_codes(4);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(2);
  const std::vector<std::uint8_t> payload{0xCA, 0xFE};
  const auto iq = make_window(codes, {{2, 1.0, 0.0, payload}}, rng, 1e-4);
  const auto report = rx.process_iq(iq);
  ASSERT_TRUE(report.frame_start.has_value());
  ASSERT_EQ(report.decoded_count(), 1u);
  EXPECT_TRUE(report.ack.contains(2));
  EXPECT_EQ(report.for_tag(2).payload, payload);
  EXPECT_FALSE(report.ack.contains(0));
}

TEST(Receiver, ThreeConcurrentTagsAllDecoded) {
  const auto codes = group_codes(6);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(3);
  int all_three = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto iq = make_window(codes,
                                {{0, 1.0, 0.2, {1, 1}},
                                 {3, 1.0, 0.7, {2, 2}},
                                 {5, 1.0, 0.4, {3, 3}}},
                                rng, 1e-4);
    const auto report = rx.process_iq(iq);
    if (report.ack.contains(0) && report.ack.contains(3) && report.ack.contains(5)) {
      ++all_three;
    }
  }
  EXPECT_GE(all_three, 9);
}

TEST(Receiver, PayloadsAttributedToCorrectTags) {
  const auto codes = group_codes(4);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(4);
  const std::vector<std::uint8_t> pa{0xAA};
  const std::vector<std::uint8_t> pb{0xBB};
  const auto iq = make_window(codes, {{1, 1.0, 0.0, pa}, {2, 1.0, 0.8, pb}}, rng, 1e-4);
  const auto report = rx.process_iq(iq);
  ASSERT_EQ(report.decoded_count(), 2u);
  EXPECT_EQ(report.for_tag(1).payload, pa);
  EXPECT_EQ(report.for_tag(2).payload, pb);
}

TEST(Receiver, NearFarWeakTagSuffers) {
  // The §IV benchmark in miniature: a tag near the receiver floor fails
  // most of the time next to a strong tag while the strong tag still
  // decodes (power difference → missing packets).
  const auto codes = group_codes(4);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(5);
  int strong_ok = 0, weak_ok = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto iq = make_window(
        codes, {{0, 1.0, 0.0, {1, 2, 3, 4}}, {1, 0.10, 0.5, {5, 6, 7, 8}}}, rng,
        0.02);
    const auto report = rx.process_iq(iq);
    strong_ok += report.ack.contains(0);
    weak_ok += report.ack.contains(1);
  }
  EXPECT_GE(strong_ok, 27);
  EXPECT_LT(weak_ok, strong_ok - 5);
}

TEST(Receiver, AckListMatchesResults) {
  const auto codes = group_codes(5);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(6);
  const auto iq =
      make_window(codes, {{0, 1.0, 0.0, {9}}, {4, 1.0, 0.3, {8}}}, rng, 1e-4);
  const auto report = rx.process_iq(iq);
  for (const auto& r : report.results) {
    EXPECT_EQ(r.crc_ok, report.ack.contains(r.tag_index));
  }
}

TEST(Receiver, ForTagValidatesIndex) {
  const Receiver rx(rx_config(), group_codes(2));
  RxReport report;
  report.results.resize(2);
  EXPECT_THROW(report.for_tag(2), std::invalid_argument);
}

TEST(Receiver, ForTagFailureNamesTheMissingIndex) {
  RxReport report;
  report.results.resize(3);
  try {
    report.for_tag(7);
    FAIL() << "for_tag(7) on a 3-code report must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tag index 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3 group codes"), std::string::npos) << msg;
  }
}

TEST(Receiver, GoldCodeGroupWorksToo) {
  const auto codes = pn::make_code_set(pn::CodeFamily::kGold, 4, 31);
  ReceiverConfig cfg = rx_config();
  const Receiver rx(cfg, codes);
  cbma::Rng rng(7);

  std::vector<std::vector<std::uint8_t>> chips;
  phy::TagConfig tc;
  tc.id = 1;
  tc.code = codes[1];
  tc.preamble_bits = kPreambleBits;
  const std::vector<std::uint8_t> pl{0x33, 0x44};
  const auto seq = phy::Tag(tc).chip_sequence(pl);
  rfsim::TagTransmission tx;
  tx.chips = seq;
  tx.amplitude = 1.0;
  tx.phase = rng.phase();
  tx.delay_chips = kLeadChips;

  rfsim::ChannelConfig cc;
  cc.samples_per_chip = kSpc;
  cc.chip_rate_hz = 31e6;
  cc.noise_power_w = 1e-4;
  const auto iq = test::synthesize(rfsim::Channel(cc), std::span(&tx, 1), rng);
  const auto report = rx.process_iq(iq);
  ASSERT_EQ(report.decoded_count(), 1u);
  EXPECT_TRUE(report.ack.contains(1));
}

TEST(Receiver, AsynchronousStartsWithinJitterDecoded) {
  const auto codes = group_codes(3);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(8);
  int both = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const double d1 = rng.uniform(0.0, 1.0);
    const double d2 = rng.uniform(0.0, 1.0);
    const auto iq =
        make_window(codes, {{0, 1.0, d1, {1}}, {1, 1.0, d2, {2}}}, rng, 1e-4);
    const auto report = rx.process_iq(iq);
    if (report.ack.contains(0) && report.ack.contains(1)) ++both;
  }
  EXPECT_GE(both, 9);
}

}  // namespace
}  // namespace cbma::rx
