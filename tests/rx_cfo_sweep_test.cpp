// Parameterized sweeps of the receiver against carrier-frequency offset and
// payload size — the impairments a real deployment varies continuously.
#include <gtest/gtest.h>

#include <tuple>

#include "phy/tag.h"
#include "rfsim/channel.h"
#include "rx/receiver.h"
#include "util/rng.h"
#include "synthesize.h"

namespace cbma::rx {
namespace {

constexpr std::size_t kSpc = 4;
constexpr double kLead = 64.0;

ReceiverConfig rx_config() {
  ReceiverConfig cfg;
  cfg.samples_per_chip = kSpc;
  cfg.preamble_bits = 8;
  return cfg;
}

std::vector<std::complex<double>> one_tag_window(const pn::PnCode& code,
                                                 const std::vector<std::uint8_t>& payload,
                                                 double cfo_hz, cbma::Rng& rng) {
  phy::TagConfig tc;
  tc.id = 0;
  tc.code = code;
  tc.preamble_bits = 8;
  const auto chips = phy::Tag(tc).chip_sequence(payload);
  rfsim::TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.phase = rng.phase();
  tx.delay_chips = kLead + rng.uniform(0.0, 1.0);
  tx.freq_offset_hz = cfo_hz;
  rfsim::ChannelConfig cc;
  cc.samples_per_chip = kSpc;
  cc.chip_rate_hz = 32e6;
  cc.noise_power_w = 1e-4;
  return test::synthesize(rfsim::Channel(cc), std::span(&tx, 1), rng);
}

class CfoSweepTest : public ::testing::TestWithParam<double> {};

// The phase tracker must hold lock across the realistic CFO range (the
// subcarrier oscillator tolerance band).
TEST_P(CfoSweepTest, SingleTagDecodesAcrossCfoRange) {
  const double cfo = GetParam();
  const auto codes = pn::make_code_set(pn::CodeFamily::kTwoNC, 2, 20);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(static_cast<std::uint64_t>(std::abs(cfo)) + 7);
  int ok = 0;
  const std::vector<std::uint8_t> payload(16, 0x3C);
  for (int trial = 0; trial < 10; ++trial) {
    const auto iq = one_tag_window(codes[0], payload, cfo, rng);
    ok += rx.process_iq(iq).ack.contains(0);
  }
  EXPECT_GE(ok, 9) << "cfo " << cfo;
}

INSTANTIATE_TEST_SUITE_P(OffsetsHz, CfoSweepTest,
                         ::testing::Values(-6000.0, -3000.0, -1500.0, 0.0, 1500.0,
                                           3000.0, 6000.0));

class PayloadSweepTest : public ::testing::TestWithParam<std::size_t> {};

// Longer frames stress the tracker (more bits of drift) and the CRC span.
TEST_P(PayloadSweepTest, FullRangeOfPayloadsDecode) {
  const std::size_t bytes = GetParam();
  const auto codes = pn::make_code_set(pn::CodeFamily::kTwoNC, 2, 20);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(bytes * 31 + 1);
  std::vector<std::uint8_t> payload(bytes);
  for (std::size_t i = 0; i < bytes; ++i) payload[i] = static_cast<std::uint8_t>(i);
  int ok = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto iq = one_tag_window(codes[0], payload, 1500.0, rng);
    const auto report = rx.process_iq(iq);
    if (report.ack.contains(0)) {
      EXPECT_EQ(report.for_tag(0).payload, payload);
      ++ok;
    }
  }
  EXPECT_GE(ok, 4) << "payload " << bytes;
}

INSTANTIATE_TEST_SUITE_P(Bytes, PayloadSweepTest,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{8}, std::size_t{32},
                                           std::size_t{126}));

}  // namespace
}  // namespace cbma::rx
