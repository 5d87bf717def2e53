// Correlation-based user detection (§III-B, §V):
// every group code's spread preamble is slid over the head of the detected
// frame in the complex baseband; a normalized-|correlation| peak above the
// threshold declares that user present and yields its per-user timing
// offset *and* carrier-phase estimate. Searching over offsets is what makes
// the detector robust to the tags' asynchronous starts — the paper's answer
// to the "asynchronous signal" challenge — and the complex correlation is
// invariant to each tag's unknown carrier phase.
//
// Detection is successive: the strongest code is found first, its estimated
// preamble contribution is subtracted from a residual copy, and the search
// repeats for the remaining codes inside the group window around the
// anchor. Without this interference cancellation a weak user's aligned
// peak is regularly beaten by the *sum* of the other users' correlation
// sidelobes at a nearby lag once several tags collide.
//
// The batched peak search itself runs on a pluggable CorrelationEngine
// (DESIGN.md §8): naive sliding dots, an overlap-save FFT fast path sharing
// forward transforms across all codes, or a cost-model auto pick — selected
// via UserDetectConfig::engine.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "phy/tag.h"
#include "pn/code.h"
#include "rx/correlation_engine.h"

namespace cbma::rx {

struct UserDetectConfig {
  double threshold = 0.20;           ///< absolute normalized-correlation threshold
  /// A code is also rejected when its peak is below this fraction of the
  /// strongest peak in the window — shifted-lag sidelobes of a present code
  /// sit well below the aligned peaks of the actual transmitters.
  double relative_threshold = 0.40;
  /// Search window around the coarse start. The spike-proof energy
  /// comparator fires within ~2 head-windows of the true frame edge, so a
  /// tight window suffices — and a tight window is essential: distant lags
  /// expose the detector to other users' correlation sidelobes.
  double search_back_chips = 10.0;
  double search_ahead_chips = 8.0;
  /// Group-window constraint: tags of a group start within a small mutual
  /// offset (the excitation triggers them together; Fig. 11 studies the
  /// residual delays). After the strongest code's peak anchors the frame,
  /// every other code is searched only within ± this window of the anchor,
  /// which keeps weak users from locking onto interference sidelobes at
  /// distant lags. Widen it when deliberately delaying tags by more.
  double group_window_chips = 2.0;
  /// Successive interference cancellation during detection (DESIGN.md
  /// §4.4). Disable only for ablation studies: without it the sum of other
  /// users' sidelobes regularly beats a weak user's aligned peak.
  bool enable_sic = true;
  /// Which correlation engine runs the batched peak search (DESIGN.md §8.2).
  /// kNaive is the bit-exact reference and the default; kFft shares forward
  /// transforms across all codes (equivalent up to the §8.3 tolerance);
  /// kAuto picks per call from the crossover cost model.
  DetectEngine engine = DetectEngine::kNaive;
};

struct DetectedUser {
  std::size_t tag_index = 0;
  std::size_t offset_samples = 0;  ///< start of the user's preamble in the window
  double correlation = 0.0;        ///< normalized |correlation| at the peak
  double phase = 0.0;              ///< carrier-phase estimate (radians)
  /// Best peak among the *other* still-unassigned codes in the same
  /// detection round — the runner-up this code had to beat. 0 when no other
  /// code was in contention. correlation − runner_up is the detection
  /// margin the flight recorder and link-quality reports consume.
  double runner_up = 0.0;
};

/// The detector's view of one frame: the split-re/im window and the frame
/// synchronizer's coarse trigger the anchor search centres on. A view only —
/// the caller keeps the arrays alive through the detect() call.
struct DetectionInput {
  std::span<const double> re;
  std::span<const double> im;
  std::size_t coarse_start = 0;
};

class UserDetector {
 public:
  /// Reusable successive-cancellation buffers (the residual copy of the
  /// window, its per-chip folded sums, the per-round engine batch, and the
  /// engine's own work buffers); sized once per window length and reused
  /// across packets — detect() is allocation-free in steady state.
  struct Scratch {
    std::vector<double> residual_re;
    std::vector<double> residual_im;
    std::vector<double> fold_re;  ///< pn::fold_chip_sums of residual_re
    std::vector<double> fold_im;  ///< pn::fold_chip_sums of residual_im
    std::vector<std::size_t> code_idx;  ///< untaken codes of the round
    std::vector<pn::ComplexCorrelationPeak> peaks;  ///< engine batch output
    std::unique_ptr<CorrelationEngine::Scratch> engine;  ///< lazily created
  };

  /// `codes`: the group's PN codes (receiver knows all of them);
  /// `preamble_bits` and `samples_per_chip` must match the tags' config.
  UserDetector(UserDetectConfig config, std::span<const pn::PnCode> codes,
               std::size_t preamble_bits, std::size_t samples_per_chip);

  const UserDetectConfig& config() const { return config_; }
  std::size_t group_size() const { return templates_.size(); }
  /// The configured correlation engine (crossover introspection for tests
  /// and the watchdog bench).
  const CorrelationEngine& engine() const { return *engine_; }

  /// Detect users around `input.coarse_start` (the frame synchronizer's
  /// trigger). Returns every code whose correlation peak clears both
  /// thresholds. The zero-allocation hot path: `scratch` is caller-owned
  /// and reused across packets.
  std::vector<DetectedUser> detect(const DetectionInput& input,
                                   Scratch& scratch) const;

  /// Peak correlation (offset + phase) for one specific code, with no
  /// thresholding — used by tests and calibration.
  DetectedUser probe(std::span<const std::complex<double>> iq,
                     std::size_t coarse_start, std::size_t tag_index) const;

 private:
  UserDetectConfig config_;
  std::size_t samples_per_chip_;
  std::vector<std::vector<double>> templates_;  ///< per-bit mean-removed preambles
  /// Chip-level (not upsampled) counterparts of templates_ — the sliding
  /// search runs on these against per-chip folded window sums, cutting each
  /// lag's dot product by samples_per_chip×.
  std::vector<std::vector<double>> chip_templates_;
  std::vector<double> tmpl_norm2_;              ///< template energies (gain fits)
  std::unique_ptr<CorrelationEngine> engine_;   ///< immutable after ctor
};

}  // namespace cbma::rx
