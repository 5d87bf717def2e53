#include "stats.h"

#include <algorithm>
#include <numeric>

#include "util/stats.h"

namespace perfledger {

double nearest_rank(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  return cbma::EmpiricalCdf(std::vector<double>(values.begin(), values.end())).quantile(q);
}

double median(std::span<const double> values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 ? sorted[mid] : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<std::size_t> block_bounds(std::size_t n, std::size_t blocks) {
  blocks = std::max<std::size_t>(1, std::min(blocks, std::max<std::size_t>(n, 1)));
  std::vector<std::size_t> bounds(blocks + 1, 0);
  const std::size_t base = n / blocks;
  const std::size_t extra = n % blocks;
  for (std::size_t b = 0; b < blocks; ++b) {
    bounds[b + 1] = bounds[b] + base + (b < extra ? 1 : 0);
  }
  return bounds;
}

BlockedPercentile blocked_percentile(std::span<const double> samples, double q,
                                     std::size_t blocks) {
  BlockedPercentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  const auto bounds = block_bounds(samples.size(), blocks);
  std::vector<double> per_block;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const auto block = samples.subspan(bounds[b], bounds[b + 1] - bounds[b]);
    const double p = nearest_rank(block, q);
    per_block.push_back(p);
    out.beyond += static_cast<std::size_t>(
        std::count_if(block.begin(), block.end(), [p](double v) { return v > p; }));
  }
  out.value = median(per_block);
  return out;
}

double blocked_rate(std::span<const double> numerator,
                    std::span<const double> denominator, std::size_t blocks) {
  const std::size_t n = std::min(numerator.size(), denominator.size());
  if (n == 0) return 0.0;
  const auto bounds = block_bounds(n, blocks);
  std::vector<double> rates;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    double num = 0.0, den = 0.0;
    for (std::size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
      num += numerator[i];
      den += denominator[i];
    }
    if (den > 0.0) rates.push_back(num / den);
  }
  return median(rates);
}

}  // namespace perfledger
