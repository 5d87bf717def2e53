#include "rx/user_detect.h"

#include <algorithm>
#include <utility>

#include "phy/frame.h"
#include "pn/correlation.h"
#include "util/expect.h"
#include "util/obs.h"

namespace cbma::rx {
namespace {

const UserDetectConfig& checked(const UserDetectConfig& config) {
  CBMA_REQUIRE(config.threshold > 0.0 && config.threshold < 1.0,
               "threshold must be in (0,1)");
  CBMA_REQUIRE(config.relative_threshold >= 0.0 && config.relative_threshold <= 1.0,
               "relative threshold must be in [0,1]");
  CBMA_REQUIRE(config.search_back_chips >= 0.0 && config.search_ahead_chips >= 0.0,
               "search window must be non-negative");
  CBMA_REQUIRE(config.group_window_chips >= 0.0,
               "group window must be non-negative");
  return config;
}

/// Chip-rate template of a code's spread preamble, built per bit period
/// from the *per-code-period* mean-removed bipolar code (sign flipped for
/// '0' bits). Removing the mean per code period — rather than over the
/// whole preamble — is essential: with the footnote-2 negation convention
/// the dense '0'-bit chips are nearly identical across users, and a
/// whole-preamble mean removal would leave every code correlating with
/// every frame. The mean is taken at chip rate, so the sample-rate template
/// is exactly each value repeated samples_per_chip times.
std::vector<double> preamble_template(const pn::PnCode& code, std::size_t preamble_bits) {
  const auto bits = phy::alternating_preamble(preamble_bits);
  const auto bit_template = pn::mean_removed_template(code, 1);
  std::vector<double> tmpl;
  tmpl.reserve(bits.size() * bit_template.size());
  for (const auto bit : bits) {
    for (const double v : bit_template) tmpl.push_back(bit ? v : -v);
  }
  return tmpl;
}

PeakSearch make_search(const UserDetectConfig& config,
                       std::span<const pn::PnCode> codes,
                       std::size_t preamble_bits, std::size_t samples_per_chip) {
  CBMA_REQUIRE(!codes.empty(), "detector needs at least one code");
  CBMA_REQUIRE(samples_per_chip >= 1, "samples_per_chip must be positive");
  std::vector<std::vector<double>> chip_templates;
  chip_templates.reserve(codes.size());
  for (const auto& code : codes) {
    chip_templates.push_back(preamble_template(code, preamble_bits));
  }
  // The FFT path sizes its overlap-save plan for the anchor round's search
  // window — the wide all-codes batch where it pays off.
  const auto spc = static_cast<double>(samples_per_chip);
  const auto anchor_lags = static_cast<std::size_t>(
      (config.search_back_chips + config.search_ahead_chips) * spc) + 1;
  return PeakSearch(std::move(chip_templates), samples_per_chip, anchor_lags);
}

}  // namespace

UserDetector::UserDetector(UserDetectConfig config, std::span<const pn::PnCode> codes,
                           std::size_t preamble_bits, std::size_t samples_per_chip)
    : config_(checked(config)),
      samples_per_chip_(samples_per_chip),
      search_(make_search(config_, codes, preamble_bits, samples_per_chip)) {
  tmpl_norm2_.reserve(codes.size());
  for (std::size_t c = 0; c < search_.size(); ++c) {
    double e = 0.0;
    for (const double v : search_.chip_template(c)) {
      for (std::size_t s = 0; s < samples_per_chip_; ++s) e += v * v;
    }
    tmpl_norm2_.push_back(e);
  }
}

DetectedUser UserDetector::probe(std::span<const std::complex<double>> iq,
                                 std::size_t coarse_start, std::size_t tag_index) const {
  CBMA_REQUIRE(tag_index < search_.size(), "tag index out of group");
  std::vector<double> tmpl;
  for (const double v : search_.chip_template(tag_index)) {
    tmpl.insert(tmpl.end(), samples_per_chip_, v);
  }
  const auto spc = static_cast<double>(samples_per_chip_);
  const auto back = static_cast<std::size_t>(config_.search_back_chips * spc);
  const auto ahead = static_cast<std::size_t>(config_.search_ahead_chips * spc);
  const std::size_t begin = coarse_start > back ? coarse_start - back : 0;
  const std::size_t end = coarse_start + ahead + 1;
  const auto peak = pn::sliding_complex_peak(iq, tmpl, begin, end);
  return DetectedUser{tag_index, peak.offset, peak.value, peak.phase};
}

std::vector<DetectedUser> UserDetector::detect(const DetectionInput& input,
                                               Scratch& scratch) const {
  const auto re = input.re;
  const auto im = input.im;
  const std::size_t coarse_start = input.coarse_start;
  CBMA_REQUIRE(re.size() == im.size(), "split window components disagree");
  // Successive detection with interference cancellation on a residual copy.
  scratch.residual_re.assign(re.begin(), re.end());
  scratch.residual_im.assign(im.begin(), im.end());
  pn::fold_chip_sums(scratch.residual_re, samples_per_chip_, scratch.fold_re);
  pn::fold_chip_sums(scratch.residual_im, samples_per_chip_, scratch.fold_im);
  std::span<const double> res_re = scratch.residual_re;
  std::span<const double> res_im = scratch.residual_im;
  const std::size_t n_codes = search_.size();
  scratch.taken.assign(n_codes, false);

  const auto spc = static_cast<double>(samples_per_chip_);
  const auto group_span =
      static_cast<std::size_t>(config_.group_window_chips * spc);

  // Signal-probe tap: every code's |correlation| across the anchor search
  // window, on the window *before* any cancellation — the per-code profile
  // a human compares against the thresholds when a detection goes wrong.
  // Strictly probe-gated: the hot path neither allocates nor computes this.
  // Computed from the exact folded dot, so the profile does not depend on
  // which path the peak search takes.
  if (probe::enabled()) {
    const auto back = static_cast<std::size_t>(config_.search_back_chips * spc);
    const auto ahead = static_cast<std::size_t>(config_.search_ahead_chips * spc);
    const std::size_t pbegin = coarse_start > back ? coarse_start - back : 0;
    const std::size_t pend = coarse_start + ahead + 1;
    std::vector<double> profile;
    profile.reserve(pend - pbegin);
    for (std::size_t i = 0; i < n_codes; ++i) {
      profile.clear();
      for (std::size_t off = pbegin; off < pend; ++off) {
        profile.push_back(std::abs(pn::complex_correlate_folded_at(
            scratch.fold_re, scratch.fold_im, search_.chip_template(i),
            samples_per_chip_, off)));
      }
      probe::record_tap(probe::Tap::kCorrelationProfile,
                        static_cast<std::uint32_t>(i), profile);
    }
  }

  std::vector<DetectedUser> out;
  double anchor_correlation = 0.0;
  for (std::size_t round = 0; round < n_codes; ++round) {
    // Search window: free around the coarse trigger for the anchor, the
    // group window around the anchor afterwards.
    std::size_t begin, end;
    if (out.empty()) {
      const auto back = static_cast<std::size_t>(config_.search_back_chips * spc);
      const auto ahead = static_cast<std::size_t>(config_.search_ahead_chips * spc);
      begin = coarse_start > back ? coarse_start - back : 0;
      end = coarse_start + ahead + 1;
    } else {
      const std::size_t anchor = out.front().offset_samples;
      begin = anchor > group_span ? anchor - group_span : 0;
      end = anchor + group_span + 1;
    }

    // One peak batch per round: every still-unassigned code over the
    // round's window, against the current residual.
    scratch.code_idx.clear();
    for (std::size_t i = 0; i < n_codes; ++i) {
      if (!scratch.taken[i]) scratch.code_idx.push_back(i);
    }
    scratch.peaks.resize(scratch.code_idx.size());
    const CorrelationWindow window{res_re, res_im, scratch.fold_re,
                                   scratch.fold_im, samples_per_chip_};
    search_.peaks(window, scratch.code_idx, begin, end, scratch.peaks,
                  scratch.search);

    DetectedUser best;
    for (std::size_t k = 0; k < scratch.code_idx.size(); ++k) {
      const std::size_t i = scratch.code_idx[k];
      const auto& peak = scratch.peaks[k];
      if (peak.value > best.correlation) {
        // The displaced leader becomes the runner-up this code had to beat.
        const double displaced = best.correlation;
        best = DetectedUser{i, peak.offset, peak.value, peak.phase, displaced};
      } else if (peak.value > best.runner_up) {
        best.runner_up = peak.value;
      }
    }
    if (best.correlation < config_.threshold) break;
    if (out.empty()) {
      anchor_correlation = best.correlation;
    } else if (best.correlation < config_.relative_threshold * anchor_correlation) {
      break;
    }
    scratch.taken[best.tag_index] = true;
    out.push_back(best);

    if (!config_.enable_sic) continue;
    // Cancel the detected user's preamble contribution: the complex gain is
    // the least-squares fit of the template at the detected offset.
    const auto& chip = search_.chip_template(best.tag_index);
    const auto corr = pn::complex_correlate_folded_at(
        scratch.fold_re, scratch.fold_im, chip, samples_per_chip_,
        best.offset_samples);
    const double gain_re = corr.real() / tmpl_norm2_[best.tag_index];
    const double gain_im = corr.imag() / tmpl_norm2_[best.tag_index];
    std::size_t cancel_end = best.offset_samples;
    for (std::size_t k = 0; k < chip.size() * samples_per_chip_; ++k) {
      const std::size_t s = best.offset_samples + k;
      if (s >= scratch.residual_re.size()) break;
      const double t = chip[k / samples_per_chip_];
      scratch.residual_re[s] -= gain_re * t;
      scratch.residual_im[s] -= gain_im * t;
      cancel_end = s + 1;
    }
    // The residual changed over [offset, cancel_end): refresh the folded
    // sums whose chip window overlaps that span.
    const std::size_t refold_begin = best.offset_samples >= samples_per_chip_ - 1
                                         ? best.offset_samples - (samples_per_chip_ - 1)
                                         : 0;
    pn::refold_chip_sums(scratch.residual_re, samples_per_chip_, refold_begin,
                         cancel_end, scratch.fold_re);
    pn::refold_chip_sums(scratch.residual_im, samples_per_chip_, refold_begin,
                         cancel_end, scratch.fold_im);
  }
  return out;
}

}  // namespace cbma::rx
