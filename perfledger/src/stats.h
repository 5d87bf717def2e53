// Order statistics for the ledger's timings.
//
// A whole-run tail percentile swings with whatever else the machine did
// during the run, so timings are reported as *blocked* statistics: the run's
// samples are split, in the order they were taken, into kBlocks contiguous
// blocks; each block yields its own percentile (or rate), and the reported
// figure is the median across blocks. A burst of load then spoils one or two
// blocks instead of the whole tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfledger {

inline constexpr std::size_t kBlocks = 10;
/// A percentile is reported only when at least this many samples lie
/// strictly beyond it, summed over the blocks.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (q in [0, 1]): the smallest sample with at least
/// q·n samples at or below it (cbma::EmpiricalCdf::quantile). Empty input
/// gives 0.
double nearest_rank(std::span<const double> values, double q);

/// Median; the mean of the two middle values for an even count. Empty gives 0.
double median(std::span<const double> values);

/// Mean. Empty gives 0.
double mean(std::span<const double> values);

/// Split [0, n) into `blocks` contiguous ranges of near-equal size (the
/// first n % blocks ranges one longer). Returns blocks + 1 boundaries.
std::vector<std::size_t> block_bounds(std::size_t n, std::size_t blocks);

struct BlockedPercentile {
  double value = 0.0;      ///< median across blocks of each block's percentile
  std::size_t n = 0;       ///< samples used
  std::size_t beyond = 0;  ///< samples strictly above their block's percentile
  /// True when `beyond` reaches kMinBeyond — otherwise the percentile has
  /// too few samples behind it to be reported.
  bool reportable() const { return beyond >= kMinBeyond; }
};

BlockedPercentile blocked_percentile(std::span<const double> samples, double q,
                                     std::size_t blocks = kBlocks);

/// Median across blocks of Σnumerator / Σdenominator — a blocked rate, e.g.
/// operations (numerator 1 each) per second of busy time (denominator).
double blocked_rate(std::span<const double> numerator,
                    std::span<const double> denominator,
                    std::size_t blocks = kBlocks);

}  // namespace perfledger
