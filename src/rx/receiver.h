// The complete CBMA receiver pipeline (§III-B): energy-envelope frame
// synchronization → complex-correlation user detection → coherent per-user
// decoding → acknowledgement. One Receiver instance serves a tag group; it
// holds the group's PN codes and precomputed templates.
#pragma once

#include <complex>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "pn/code.h"
#include "rx/decoder.h"
#include "rx/frame_sync.h"
#include "rx/link_quality.h"
#include "rx/user_detect.h"

namespace cbma::rx {

struct ReceiverConfig {
  FrameSyncConfig sync;
  UserDetectConfig detect;
  std::size_t samples_per_chip = 4;
  std::size_t preamble_bits = 8;
  double phase_tracking_gain = 0.25;  ///< decoder's decision-directed loop gain
  /// Longest payload the decoder will chase before a streaming session
  /// finalizes a detection window. The default (the frame-format limit)
  /// preserves exact batch semantics; a continuous-stream deployment that
  /// knows its payload sizes tightens it to shrink the per-trigger
  /// lookahead — and with it latency and ring memory (DESIGN.md §9).
  std::size_t max_payload_bytes = phy::kMaxPayloadBytes;
};

/// Why a tag's frame did or did not come through this round. The receiver
/// never throws on degraded input — every failure mode is reported here, in
/// pipeline order (the first stage that gave up).
enum class DecodeOutcome {
  kOk = 0,       ///< frame decoded, CRC and in-frame id verified
  kNoFrameSync,  ///< the energy comparator never fired on this window
  kNotDetected,  ///< frame sync fired but this code's correlation stayed low
  kTruncated,    ///< decoding ran off the window / impossible length byte
  kBadCrc,       ///< full frame decoded but CRC (or framing) failed
  kIdMismatch,   ///< CRC passed but the in-frame id names another tag's code
};

/// Stable diagnostic label ("ok", "no-frame-sync", ...).
const char* to_string(DecodeOutcome outcome);

struct TagDecodeResult {
  std::size_t tag_index = 0;
  bool detected = false;         ///< user detection fired for this code
  bool crc_ok = false;           ///< frame decoded, CRC and in-frame id verified
  DecodeOutcome outcome = DecodeOutcome::kNoFrameSync;  ///< failure reason
  double correlation = 0.0;      ///< preamble correlation peak
  /// Peak minus the runner-up code's peak in the same detection round —
  /// how decisively this code won. 0 when not detected (or unopposed).
  double correlation_margin = 0.0;
  std::size_t offset_samples = 0;
  std::vector<std::uint8_t> payload;  ///< valid only when crc_ok

  bool operator==(const TagDecodeResult&) const = default;
};

/// The acknowledgement the receiver broadcasts: IDs (group indices) of the
/// tags whose frames decoded successfully (§III-B "Acknowledgement").
struct AckMessage {
  std::vector<std::size_t> decoded_tags;

  bool contains(std::size_t tag_index) const;
  bool operator==(const AckMessage&) const = default;
};

struct RxReport {
  std::optional<std::size_t> frame_start;  ///< frame-sync trigger, if any
  std::vector<TagDecodeResult> results;    ///< one entry per group code
  AckMessage ack;
  /// Per-code link-quality reports (same indexing as `results`), populated
  /// only while signal probing or the metrics plane is enabled — empty
  /// otherwise, so the observability-off hot path performs zero extra
  /// allocations (DESIGN.md §7).
  std::vector<LinkQualityReport> link_quality;

  /// Result for one group code; throws std::invalid_argument naming the
  /// offending index when `tag_index` is outside the report.
  const TagDecodeResult& for_tag(std::size_t tag_index) const;
  std::size_t decoded_count() const { return ack.decoded_tags.size(); }
  /// How many of this round's codes ended in the given outcome — the
  /// per-frame failure accounting the robustness benches aggregate.
  std::size_t outcome_count(DecodeOutcome outcome) const;

  /// Field-wise equality — what the batch-vs-streaming equivalence suite
  /// means by "byte-identical reports" (doubles compare exactly).
  bool operator==(const RxReport&) const = default;
};

class StreamingReceiver;

class Receiver {
 public:
  Receiver(ReceiverConfig config, std::vector<pn::PnCode> group_codes);

  const ReceiverConfig& config() const { return config_; }
  std::size_t group_size() const { return codes_.size(); }
  const pn::PnCode& code(std::size_t i) const;

  /// Full pipeline on a complex-baseband window. Frame sync runs on the
  /// magnitude envelope P(t) = √(I²+Q²) (the paper's §V-B quantity);
  /// detection and decoding are coherent. This is the batch entry: it feeds
  /// the whole window through a streaming session (DESIGN.md §9), so a
  /// chunked replay of the same window is byte-identical. Callers that
  /// process many windows should hold a rx::StreamingReceiver instead —
  /// the session keeps its rings and scratch warm across rounds.
  RxReport process_iq(std::span<const std::complex<double>> iq) const;

 private:
  friend class StreamingReceiver;  ///< the session drives the stages directly

  ReceiverConfig config_;
  std::vector<pn::PnCode> codes_;
  FrameSynchronizer sync_;
  UserDetector detector_;
  std::vector<Decoder> decoders_;
};

}  // namespace cbma::rx
