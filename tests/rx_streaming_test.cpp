// Batch-vs-streaming equivalence (DESIGN.md §9): the chunked
// StreamingReceiver must produce byte-identical RxReports to the batch
// process_iq wrapper at every chunk size, including when a frame straddles
// a chunk boundary, and must hold O(window) ring memory on streams of
// unbounded length.
#include "rx/streaming_receiver.h"

#include <gtest/gtest.h>

#include <complex>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/system.h"
#include "phy/tag.h"
#include "rfsim/channel.h"
#include "rx/frame_sync.h"
#include "util/rng.h"
#include "util/obs.h"

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
  // TagTransmission::chips is a non-owning span — the chip storage must
  // outlive the receive() call, so it lives in its own vector.
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
  return channel(noise).receive(txs, rng);
}

std::map<std::string, std::uint64_t> counter_map() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : telemetry::snapshot().counters) out[c.name] = c.value;
  return out;
}

TEST(StreamingReceiver, ChunkedFeedMatchesBatchByteForByte) {
  const auto codes = group_codes(4);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(11);
  const auto iq = make_window(
      codes, {{0, 1.0, 0.2, {0xAA, 0x01}}, {2, 0.9, 0.6, {0xBB, 0x02, 0x03}}},
      rng, 1e-4);

  const RxReport batch = rx.process_iq(iq);
  ASSERT_TRUE(batch.frame_start.has_value());
  ASSERT_EQ(batch.decoded_count(), 2u);

  StreamingReceiver session(rx);
  const std::size_t chunk_sizes[] = {1, 7, kSpc, 4096, iq.size()};
  for (const std::size_t chunk : chunk_sizes) {
    const RxReport streamed = session.process(iq, chunk);
    EXPECT_EQ(streamed, batch) << "chunk_samples=" << chunk;
  }
}

TEST(StreamingReceiver, FrameStraddlingAChunkBoundaryIsUnchanged) {
  const auto codes = group_codes(3);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(12);
  const std::vector<std::uint8_t> payload{0xDE, 0xAD};
  const auto iq = make_window(codes, {{1, 1.0, 0.3, payload}}, rng, 1e-4);

  const RxReport batch = rx.process_iq(iq);
  ASSERT_TRUE(batch.frame_start.has_value());
  ASSERT_TRUE(batch.ack.contains(1));

  // Cut the stream mid-frame (just past the sync trigger, inside the
  // preamble) so the comparator state and the detection window both have to
  // survive a chunk boundary.
  const std::span<const std::complex<double>> span(iq);
  for (const std::size_t cut :
       {*batch.frame_start + 1, *batch.frame_start + 257, iq.size() / 2}) {
    ASSERT_LT(cut, iq.size());
    StreamingReceiver session(rx);
    session.feed(span.first(cut));
    session.feed(span.subspan(cut));
    session.flush();
    RxReport streamed;
    ASSERT_TRUE(session.take_report(streamed)) << "cut=" << cut;
    EXPECT_EQ(streamed, batch) << "cut=" << cut;
    EXPECT_FALSE(session.take_report(streamed));
  }
}

TEST(StreamingReceiver, TelemetryCountersMatchBatch) {
  const auto codes = group_codes(4);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(13);
  const auto iq =
      make_window(codes, {{0, 1.0, 0.1, {7, 7}}, {3, 1.0, 0.5, {8, 8}}}, rng, 1e-4);

  obs::set(obs::kTelemetry, true);
  obs::reset();
  const RxReport batch = rx.process_iq(iq);
  const auto batch_counters = counter_map();

  StreamingReceiver session(rx);
  for (const std::size_t chunk : {std::size_t{7}, std::size_t{4096}}) {
    obs::reset();
    const RxReport streamed = session.process(iq, chunk);
    const auto streamed_counters = counter_map();
    EXPECT_EQ(streamed, batch);
    EXPECT_EQ(streamed_counters, batch_counters) << "chunk_samples=" << chunk;
  }
  obs::set(obs::kTelemetry, false);

  ASSERT_TRUE(batch_counters.contains("rx.outcome.ok"));
  EXPECT_EQ(batch_counters.at("rx.outcome.ok"), 2u);
}

TEST(StreamingReceiver, SilentStreamFlushEmitsTheBatchEmptyReport) {
  const Receiver rx(rx_config(), group_codes(3));
  cbma::Rng rng(14);
  std::vector<std::complex<double>> iq(4000, {0.0, 0.0});
  rfsim::AwgnSource(1e-6).add_to(iq, rng);

  const RxReport batch = rx.process_iq(iq);
  EXPECT_EQ(batch.decoded_count(), 0u);

  std::vector<RxReport> seen;
  StreamingReceiver session(rx, [&](RxReport r) { seen.push_back(std::move(r)); });
  session.feed(iq);
  EXPECT_TRUE(seen.empty());  // nothing fires mid-stream on noise
  session.flush();
  ASSERT_EQ(seen.size(), 1u);  // the silent-window contract
  EXPECT_EQ(seen.front(), batch);
  EXPECT_FALSE(batch.frame_start.has_value());
}

TEST(StreamingReceiver, SessionReuseIsDeterministic) {
  const auto codes = group_codes(4);
  const Receiver rx(rx_config(), codes);
  cbma::Rng rng(15);
  const auto iq = make_window(codes, {{2, 1.0, 0.4, {1, 2, 3, 4}}}, rng, 1e-4);

  StreamingReceiver session(rx);
  const RxReport first = session.process(iq, 997);
  const RxReport second = session.process(iq, 997);  // same warm session
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, rx.process_iq(iq));
}

// The O(window) guarantee: a session fed an unbounded concatenation of
// rounds emits one decoded report per round while its ring footprint stays
// exactly flat — memory is a function of the configured lookahead, not of
// how many samples the stream has carried.
TEST(StreamingReceiver, ContinuousStreamDecodesEveryRoundAtFlatMemory) {
  ReceiverConfig cfg = rx_config();
  cfg.max_payload_bytes = 4;  // tight lookahead: rounds finalize back to back
  const auto codes = group_codes(2);
  const Receiver rx(cfg, codes);
  cbma::Rng rng(16);
  const std::vector<std::uint8_t> payload{0x5A, 0xC3, 0x3C};

  // One unit = a decodable round followed by a noise-only gap at the same
  // noise floor (so the only power step the comparator sees is the frame).
  const auto round = make_window(codes, {{0, 1.0, 0.3, payload}}, rng, 1e-4);
  std::vector<std::complex<double>> gap(3000, {0.0, 0.0});
  rfsim::AwgnSource(1e-4).add_to(gap, rng);

  constexpr std::size_t kRounds = 20;
  std::vector<RxReport> seen;
  StreamingReceiver session(rx, [&](RxReport r) { seen.push_back(std::move(r)); });

  std::vector<std::complex<double>> unit = round;
  unit.insert(unit.end(), gap.begin(), gap.end());
  const std::span<const std::complex<double>> unit_span(unit);

  std::size_t ring_high_water = 0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    for (std::size_t off = 0; off < unit_span.size(); off += 4096) {
      session.feed(unit_span.subspan(off, std::min<std::size_t>(4096, unit_span.size() - off)));
    }
    if (k == 2) ring_high_water = session.ring_bytes();  // warmed up
  }

  // Every round emitted and decoded during the feed — no flush needed.
  ASSERT_EQ(seen.size(), kRounds);
  std::size_t last_start = 0;
  for (std::size_t k = 0; k < kRounds; ++k) {
    ASSERT_TRUE(seen[k].frame_start.has_value()) << "round " << k;
    ASSERT_TRUE(seen[k].ack.contains(0)) << "round " << k;
    EXPECT_EQ(seen[k].for_tag(0).payload, payload);
    if (k > 0) {
      EXPECT_GT(*seen[k].frame_start, last_start);  // absolute positions
    }
    last_start = *seen[k].frame_start;
  }

  // Flat footprint: 17 further rounds grew the rings by nothing, and the
  // resident state is a small fraction of the samples consumed.
  EXPECT_EQ(session.ring_bytes(), ring_high_water);
  EXPECT_EQ(session.samples_consumed(), kRounds * unit.size());
  EXPECT_LT(session.resident_bytes(),
            kRounds * unit.size() * sizeof(std::complex<double>) / 4);
}

// FrameSynchronizer::Stream fires at exactly the positions the batch
// detect() walk returns, however the envelope pushes are chunked.
TEST(FrameSyncStream, FiresWhereBatchDetectFires) {
  FrameSyncConfig cfg;
  const FrameSynchronizer sync(cfg);

  std::vector<double> mag(4000, 0.01);
  for (std::size_t i = 1500; i < 1620; ++i) mag[i] = 1.0;
  for (std::size_t i = 2600; i < 2720; ++i) mag[i] = 0.8;

  std::vector<std::size_t> batch_triggers;
  std::size_t begin = 0;
  while (auto t = sync.detect(mag, begin)) {
    batch_triggers.push_back(*t);
    begin = *t + cfg.window;
    if (batch_triggers.size() >= 8) break;
  }
  ASSERT_GE(batch_triggers.size(), 2u);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{64}, mag.size()}) {
    FrameSynchronizer::Stream stream(sync);
    std::vector<std::uint64_t> stream_triggers;
    for (std::size_t off = 0; off < mag.size(); off += chunk) {
      const std::size_t n = std::min(chunk, mag.size() - off);
      for (std::size_t i = 0; i < n; ++i) stream.push(mag[off + i]);
      while (auto t = stream.scan()) {
        stream_triggers.push_back(*t);
        stream.rearm(*t + cfg.window);
        if (stream_triggers.size() >= 8) break;
      }
      if (stream_triggers.size() >= 8) break;
    }
    ASSERT_EQ(stream_triggers.size(), batch_triggers.size()) << "chunk=" << chunk;
    for (std::size_t k = 0; k < batch_triggers.size(); ++k) {
      EXPECT_EQ(stream_triggers[k], batch_triggers[k]) << "chunk=" << chunk;
    }
  }
}

// System-level chunked mode: rx_chunk_samples only changes how the receiver
// ingests the round window, so identically-seeded systems produce identical
// reports whether the session feeds whole rounds or 997-sample chunks.
TEST(StreamingSystem, ChunkedTransmitMatchesWholeRoundFeeds) {
  core::SystemConfig base;
  base.max_tags = 3;
  base.payload_bytes = 4;
  auto deployment = rfsim::Deployment::paper_frame();
  deployment.add_tag({0.0, 0.5});
  deployment.add_tag({0.0, -0.5});

  core::SystemConfig chunked = base;
  chunked.rx_chunk_samples = 997;
  const core::CbmaSystem whole(base, deployment);
  const core::CbmaSystem streamed(chunked, deployment);

  cbma::Rng rng_a(42);
  cbma::Rng rng_b(42);
  core::TransmitScratch scratch_a;
  core::TransmitScratch scratch_b;
  for (int round = 0; round < 5; ++round) {
    const auto ra = whole.transmit({}, rng_a, scratch_a);
    const auto rb = streamed.transmit({}, rng_b, scratch_b);
    EXPECT_EQ(ra, rb) << "round " << round;
  }
}

TEST(StreamingSystem, RejectsAbsurdChunkSize) {
  core::SystemConfig cfg;
  cfg.rx_chunk_samples = (std::size_t{1} << 26) + 1;
  auto deployment = rfsim::Deployment::paper_frame();
  deployment.add_tag({0.0, 0.5});
  EXPECT_THROW(core::CbmaSystem(cfg, deployment), std::invalid_argument);
}

}  // namespace
}  // namespace cbma::rx
