#include "rx/receiver.h"

#include <algorithm>
#include <string>

#include "phy/frame.h"
#include "rx/streaming_receiver.h"
#include "util/expect.h"

namespace cbma::rx {

const char* to_string(DecodeOutcome outcome) {
  switch (outcome) {
    case DecodeOutcome::kOk: return "ok";
    case DecodeOutcome::kNoFrameSync: return "no-frame-sync";
    case DecodeOutcome::kNotDetected: return "not-detected";
    case DecodeOutcome::kTruncated: return "truncated";
    case DecodeOutcome::kBadCrc: return "bad-crc";
    case DecodeOutcome::kIdMismatch: return "id-mismatch";
  }
  return "unknown";
}

bool AckMessage::contains(std::size_t tag_index) const {
  return std::find(decoded_tags.begin(), decoded_tags.end(), tag_index) !=
         decoded_tags.end();
}

const TagDecodeResult& RxReport::for_tag(std::size_t tag_index) const {
  CBMA_REQUIRE(tag_index < results.size(),
               "tag index " + std::to_string(tag_index) +
                   " outside report covering " + std::to_string(results.size()) +
                   " group codes");
  return results[tag_index];
}

std::size_t RxReport::outcome_count(DecodeOutcome outcome) const {
  std::size_t n = 0;
  for (const auto& r : results) n += r.outcome == outcome ? 1 : 0;
  return n;
}

Receiver::Receiver(ReceiverConfig config, std::vector<pn::PnCode> group_codes)
    : config_(config),
      codes_(std::move(group_codes)),
      sync_(config.sync),
      detector_(config.detect, codes_, config.preamble_bits, config.samples_per_chip) {
  CBMA_REQUIRE(!codes_.empty(), "receiver needs a tag group");
  CBMA_REQUIRE(config_.max_payload_bytes >= 1 &&
                   config_.max_payload_bytes <= phy::kMaxPayloadBytes,
               "max_payload_bytes outside the frame format's [1, 126]");
  decoders_.reserve(codes_.size());
  for (const auto& c : codes_) {
    decoders_.emplace_back(c, config_.preamble_bits, config_.samples_per_chip,
                           config_.phase_tracking_gain);
  }
}

const pn::PnCode& Receiver::code(std::size_t i) const {
  CBMA_REQUIRE(i < codes_.size(), "code index out of group");
  return codes_[i];
}

RxReport Receiver::process_iq(std::span<const std::complex<double>> iq) const {
  // One whole-buffer feed through the streaming core (DESIGN.md §9). The
  // pipeline itself — envelope sync walk, detection, decoding, telemetry
  // and probe taps — lives in StreamingReceiver; chunk invariance makes
  // this wrapper behaviorally identical to any chunked replay.
  StreamingReceiver session(*this);
  return session.process(iq);
}

}  // namespace cbma::rx
