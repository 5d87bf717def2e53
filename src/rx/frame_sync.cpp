#include "rx/frame_sync.h"

#include <algorithm>
#include <vector>

#include "util/expect.h"
#include "util/units.h"

namespace cbma::rx {

FrameSynchronizer::FrameSynchronizer(FrameSyncConfig config) : config_(config) {
  CBMA_REQUIRE(config_.window >= 2, "baseline window too small");
  CBMA_REQUIRE(config_.head_average >= 1, "head average must be positive");
  CBMA_REQUIRE(config_.threshold_db > 0.0, "threshold must be positive dB");
  CBMA_REQUIRE(config_.min_baseline > 0.0, "baseline floor must be positive");
}

std::optional<std::size_t> FrameSynchronizer::detect(std::span<const double> magnitude,
                                                     std::size_t begin) const {
  const std::size_t w = config_.window;
  const std::size_t h = config_.head_average;
  if (magnitude.size() < begin + w + 2 * h) return std::nullopt;
  const double ratio = units::from_db(config_.threshold_db);

  // Power (energy) domain: the 3 dB comparison is on power levels.
  // Prefix sums keep the sliding baseline/head averages O(1) per sample.
  const std::size_t n = magnitude.size();
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + magnitude[i] * magnitude[i];
  }
  const auto avg = [&](std::size_t lo, std::size_t hi) {
    return (prefix[hi] - prefix[lo]) / static_cast<double>(hi - lo);
  };

  // Trailing baseline over [s-w, s); the "current" level is the minimum of
  // the two consecutive head windows [s, s+h) and [s+h, s+2h) — a real
  // frame keeps the power up, an isolated spike cannot.
  for (std::size_t s = begin + w; s + 2 * h <= n; ++s) {
    const double base_avg = std::max(avg(s - w, s), config_.min_baseline);
    const double head1 = avg(s, s + h);
    const double head2 = avg(s + h, s + 2 * h);
    if (std::min(head1, head2) > ratio * base_avg) return s;
  }
  return std::nullopt;
}

FrameSynchronizer::Stream::Stream(const FrameSynchronizer& sync)
    : sync_(&sync), ratio_(units::from_db(sync.config().threshold_db)) {
  reset();
}

void FrameSynchronizer::Stream::reset() {
  prefix_.clear();
  prefix_.push(0.0);  // P(0)
  acc_ = 0.0;
  pushed_ = 0;
  cursor_ = sync_->config().window;
}

void FrameSynchronizer::Stream::push(double magnitude) {
  // Same arithmetic as detect()'s prefix loop: acc_ holds prefix[i], the
  // push appends prefix[i+1] = prefix[i] + m².
  acc_ += magnitude * magnitude;
  prefix_.push(acc_);
  ++pushed_;
}

void FrameSynchronizer::Stream::rearm(std::uint64_t begin) {
  cursor_ = begin + sync_->config().window;
}

std::optional<std::uint64_t> FrameSynchronizer::Stream::scan() {
  const std::size_t w = sync_->config().window;
  const std::size_t h = sync_->config().head_average;
  const double floor = sync_->config().min_baseline;
  const auto avg = [&](std::uint64_t lo, std::uint64_t hi) {
    return (prefix_[hi] - prefix_[lo]) / static_cast<double>(hi - lo);
  };
  while (cursor_ + 2 * h <= pushed_) {
    const double base_avg = std::max(avg(cursor_ - w, cursor_), floor);
    const double head1 = avg(cursor_, cursor_ + h);
    const double head2 = avg(cursor_ + h, cursor_ + 2 * h);
    if (std::min(head1, head2) > ratio_ * base_avg) return cursor_;
    ++cursor_;
    prefix_.release(cursor_ - w);
  }
  return std::nullopt;
}

}  // namespace cbma::rx
