// Graceful degradation end to end: degraded or garbage input must come back
// as reported failure outcomes — never as a throw out of the decode
// pipeline — the ARQ layer must account a total outage exactly, and an
// impairment-heavy sweep must serialize byte-identically regardless of the
// worker count that ran it.
#include <gtest/gtest.h>

#include <complex>
#include <string>
#include <vector>

#include "core/recorder.h"
#include "core/sweep.h"
#include "core/system.h"
#include "mac/arq.h"
#include "phy/tag.h"
#include "rfsim/channel.h"
#include "rx/decoder.h"
#include "rx/receiver.h"
#include "util/rng.h"
#include "synthesize.h"

namespace cbma {
namespace {

constexpr std::size_t kSpc = 4;
constexpr std::size_t kPreambleBits = 8;

std::vector<pn::PnCode> group_codes(std::size_t n) {
  return pn::make_code_set(pn::CodeFamily::kTwoNC, n, 20);
}

TEST(FailurePath, DecoderOnGarbageWindowReportsTruncated) {
  const auto codes = group_codes(1);
  const rx::Decoder decoder(codes[0], kPreambleBits, kSpc);
  // A window far too short for even the length byte: expected input under
  // deep excitation dropout. Must report, not throw.
  std::vector<std::complex<double>> tiny(100, {0.1, -0.1});
  const auto decoded = decoder.decode(tiny, 0, 0.0);
  EXPECT_TRUE(decoded.truncated);
  EXPECT_FALSE(decoded.crc_ok);
}

TEST(FailurePath, DecoderOnTruncatedRealFrameReportsTruncated) {
  const auto codes = group_codes(1);
  phy::TagConfig tc;
  tc.id = 0;
  tc.code = codes[0];
  tc.preamble_bits = kPreambleBits;
  const phy::Tag tag(tc);
  const std::vector<std::uint8_t> payload{0xAB, 0xCD, 0xEF};
  const auto chips = tag.chip_sequence(payload);

  rfsim::ChannelConfig ch_cfg;
  ch_cfg.samples_per_chip = kSpc;
  ch_cfg.chip_rate_hz = 32e6;
  ch_cfg.noise_power_w = 0.0;
  rfsim::TagTransmission tx;
  tx.chips = chips;
  tx.amplitude = 1.0;
  tx.delay_chips = 8.0;
  Rng rng(1);
  const auto iq = test::synthesize(rfsim::Channel(ch_cfg), std::span(&tx, 1), rng);

  const rx::Decoder decoder(codes[0], kPreambleBits, kSpc);
  const std::size_t preamble_offset = 8 * kSpc;
  // The full window decodes; the same window cut mid-body must degrade to
  // `truncated` (the receiver maps it to DecodeOutcome::kTruncated).
  const auto whole = decoder.decode(iq, preamble_offset, 0.0);
  EXPECT_TRUE(whole.crc_ok);
  const auto cut = decoder.decode(
      std::span(iq).first(preamble_offset + iq.size() / 2), preamble_offset,
      0.0);
  EXPECT_TRUE(cut.truncated);
  EXPECT_FALSE(cut.crc_ok);
}

TEST(FailurePath, ReceiverOnNoiseReportsOutcomesForEveryCode) {
  rx::ReceiverConfig cfg;
  cfg.samples_per_chip = kSpc;
  cfg.preamble_bits = kPreambleBits;
  const rx::Receiver receiver(cfg, group_codes(3));
  Rng rng(7);
  std::vector<std::complex<double>> noise(20000);
  for (auto& s : noise) s = {rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0)};
  const auto report = receiver.process_iq(noise);  // must not throw
  EXPECT_EQ(report.decoded_count(), 0u);
  std::size_t accounted = 0;
  for (const auto outcome :
       {rx::DecodeOutcome::kOk, rx::DecodeOutcome::kNoFrameSync,
        rx::DecodeOutcome::kNotDetected, rx::DecodeOutcome::kTruncated,
        rx::DecodeOutcome::kBadCrc, rx::DecodeOutcome::kIdMismatch}) {
    accounted += report.outcome_count(outcome);
  }
  EXPECT_EQ(accounted, 3u);  // every code's fate is reported, none decoded
  for (const auto& r : report.results) {
    EXPECT_NE(r.outcome, rx::DecodeOutcome::kOk);
    EXPECT_NE(std::string(rx::to_string(r.outcome)), "unknown");
  }
}

TEST(FailurePath, ArqAccountsATotalOutageExactly) {
  // 100 % loss: no ACK ever arrives. Every offered message must burn
  // exactly max_attempts transmissions and then be dropped — the budget
  // bounds the energy a dead link can waste.
  constexpr std::size_t kSlots = 3;
  constexpr std::size_t kMaxAttempts = 4;
  mac::ArqTracker arq({kMaxAttempts}, kSlots);
  const rx::AckMessage silence;  // empty ACK round after round
  for (std::size_t round = 0; round < 2 * kMaxAttempts; ++round) {
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      if (!arq.pending(slot)) arq.offer(slot);
    }
    arq.on_round(silence, arq.due());
  }
  const auto& stats = arq.stats();
  EXPECT_EQ(stats.offered, 2 * kSlots);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dropped, 2 * kSlots);
  EXPECT_EQ(stats.transmissions, 2 * kSlots * kMaxAttempts);
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 0.0);
}

TEST(FailurePath, ImpairedSweepJsonIsWorkerCountInvariant) {
  // The determinism contract extends to fault injection: all impairment
  // randomness flows from the per-point seed, so the recorded document must
  // be byte-identical whether the sweep ran on 1 worker or 4.
  core::SystemConfig cfg;
  cfg.max_tags = 2;
  cfg.impairments.dropout.enabled = true;
  cfg.impairments.dropout.duty = 0.6;
  cfg.impairments.drift.enabled = true;
  cfg.impairments.drift.max_static_ppm = 100.0;
  cfg.impairments.drift.wander_ppm = 25.0;
  cfg.impairments.switching.enabled = true;
  cfg.impairments.switching.jitter_chips = 0.5;
  cfg.impairments.switching.settle_chips = 0.25;
  cfg.impairments.impulsive.enabled = true;
  cfg.impairments.impulsive.events_per_s = 1e5;
  cfg.impairments.impulsive.amplitude = 1e-6;
  cfg.impairments.adc.enabled = true;
  cfg.impairments.adc.full_scale = 1e-4;

  auto dep = rfsim::Deployment::paper_frame();
  dep.add_tag({0.3, 0.8});
  dep.add_tag({-0.2, 0.6});

  core::SweepSpec spec;
  spec.name = "impairment_determinism";
  spec.axes = {core::Axis::numeric("duty", {0.5, 0.9})};
  spec.trials = 6;
  spec.base_seed = 20190707;

  const auto run_with = [&](std::size_t workers) {
    core::RunRecorder recorder(spec, cfg);
    core::SweepRunner(spec).run(
        [&](const core::SweepPoint& point) {
          core::SystemConfig point_cfg = cfg;
          point_cfg.impairments.dropout.duty = point.value(0);
          core::CbmaSystem sys(point_cfg, dep);
          Rng rng(point.seed());
          const auto stats = sys.run_packets(spec.trials, rng);
          recorder.record(point.flat(), "fer", stats.frame_error_rate());
        },
        workers);
    return recorder.json();
  };
  EXPECT_EQ(run_with(1), run_with(4));
}

}  // namespace
}  // namespace cbma
