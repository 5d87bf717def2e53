// Per-tag link-quality estimation (signal-probe subsystem, DESIGN.md §7):
// the receiver already computes everything the paper's evaluation reasons
// about — correlation peaks, soft decision values, window power — and then
// discards it. When probing is enabled, compute_link_quality condenses
// those into one report per detected tag: the numbers that explain *why* a
// frame lived or died, not just that it did.
#pragma once

#include <cstddef>
#include <span>

namespace cbma::rx {

/// Signal-domain health of one tag's frame in one receive window. Valid
/// only when `valid` is set (the tag was detected and decoding produced
/// soft values); every field is derived deterministically from the window —
/// no RNG, no clock.
struct LinkQualityReport {
  bool valid = false;
  /// Post-despreading SNR estimate from the soft decision statistics:
  /// 10·log10(mean²/var) over |soft| — the M2M4-style moment estimator.
  double snr_db = 0.0;
  /// Error-vector magnitude over the decoded bits: RMS deviation of
  /// |soft|/mean(|soft|) from the unit decision point (0 = noiseless).
  double evm = 0.0;
  /// Weakest bit relative to the average: min|soft| / mean|soft| in [0,1].
  /// A healthy frame sits near 1; a value near 0 names the bit that almost
  /// flipped.
  double soft_margin = 0.0;
  /// Detection-peak separation: peak correlation / runner-up code's peak
  /// (capped; large when no other code came close).
  double margin_ratio = 0.0;
  /// Mean despread amplitude normalized by the window RMS — the tag's
  /// backscatter strength relative to everything else on the air.
  double power_norm = 0.0;
  /// The detection correlation peak the ratios are anchored on.
  double correlation = 0.0;

  bool operator==(const LinkQualityReport&) const = default;
};

/// Cap applied to margin_ratio when the runner-up correlation is ~0.
inline constexpr double kMaxMarginRatio = 1e6;

/// Build a report from one decoded frame's soft values plus the detector's
/// peak/runner-up correlations and the receive window's RMS amplitude.
/// Returns an invalid report when `soft` is empty.
LinkQualityReport compute_link_quality(std::span<const double> soft,
                                       double correlation, double runner_up,
                                       double window_rms);

/// Running aggregate of LinkQualityReports — how the metrics plane rolls
/// per-tag quality up into per-cell series (core::RoundStats carries one;
/// net::Network scopes it per cell). Plain sums so merge() is exact and
/// deterministic; means report 0 over zero frames.
struct LinkQualityRollup {
  std::size_t frames = 0;  ///< valid reports accumulated
  double snr_db_sum = 0.0;
  double evm_sum = 0.0;
  double soft_margin_sum = 0.0;
  double margin_ratio_sum = 0.0;
  double power_norm_sum = 0.0;
  double correlation_sum = 0.0;

  void add(const LinkQualityReport& report);
  void merge(const LinkQualityRollup& other);

  double snr_db_mean() const;
  double evm_mean() const;
  double soft_margin_mean() const;
  double margin_ratio_mean() const;
  double power_norm_mean() const;
  double correlation_mean() const;
};

}  // namespace cbma::rx
