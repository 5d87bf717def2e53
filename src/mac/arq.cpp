#include "mac/arq.h"

#include <algorithm>

#include "util/expect.h"
#include "util/obs.h"

namespace cbma::mac {

double ArqStats::delivery_ratio() const {
  const std::size_t resolved = delivered + dropped;
  if (resolved == 0) return 0.0;
  return static_cast<double>(delivered) / static_cast<double>(resolved);
}

double ArqStats::mean_attempts() const {
  if (delivered == 0) return 0.0;
  double total = 0.0;
  for (std::size_t k = 0; k < attempts_histogram.size(); ++k) {
    total += static_cast<double>(attempts_histogram[k]) * static_cast<double>(k + 1);
  }
  return total / static_cast<double>(delivered);
}

ArqTracker::ArqTracker(ArqConfig config, std::size_t group_size)
    : config_(config), attempts_(group_size, 0), pending_(group_size, false) {
  CBMA_REQUIRE(group_size >= 1, "tracker needs at least one slot");
  CBMA_REQUIRE(config_.max_attempts >= 1, "need at least one attempt");
  stats_.attempts_histogram.assign(config_.max_attempts, 0);
}

bool ArqTracker::offer(std::size_t slot) {
  CBMA_REQUIRE(slot < pending_.size(), "slot out of range");
  if (pending_[slot]) return false;
  pending_[slot] = true;
  attempts_[slot] = 0;
  ++stats_.offered;
  telemetry::count(telemetry::Counter::kArqOffered);
  return true;
}

std::vector<std::size_t> ArqTracker::due() const {
  std::vector<std::size_t> out;
  for (std::size_t slot = 0; slot < pending_.size(); ++slot) {
    if (pending_[slot]) out.push_back(slot);
  }
  return out;
}

bool ArqTracker::pending(std::size_t slot) const {
  CBMA_REQUIRE(slot < pending_.size(), "slot out of range");
  return pending_[slot];
}

void ArqTracker::on_round(const rx::AckMessage& ack,
                          std::span<const std::size_t> transmitted) {
  for (const auto slot : transmitted) {
    CBMA_REQUIRE(slot < pending_.size(), "slot out of range");
    CBMA_REQUIRE(pending_[slot], "slot transmitted without a pending message");
    ++attempts_[slot];
    ++stats_.transmissions;
    telemetry::count(telemetry::Counter::kArqTransmissions);
    if (ack.contains(slot)) {
      pending_[slot] = false;
      ++stats_.delivered;
      ++stats_.attempts_histogram[attempts_[slot] - 1];
      telemetry::count(telemetry::Counter::kArqDelivered);
    } else if (attempts_[slot] >= config_.max_attempts) {
      pending_[slot] = false;
      ++stats_.dropped;
      telemetry::count(telemetry::Counter::kArqDropped);
    }
  }
}

}  // namespace cbma::mac
