#include "net/cell.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "mac/throughput.h"
#include "util/expect.h"
#include "util/obs.h"
#include "util/units.h"

namespace cbma::net {
namespace {

/// Payload bits per on-air frame bit for this config's framing (preamble +
/// 2-byte header + payload + 2-byte CRC — the accounting mac::CbmaRate uses).
mac::CbmaRate rate_for(const core::SystemConfig& cfg, std::size_t n_tags,
                       double fer) {
  mac::CbmaRate rate;
  rate.per_tag_bitrate_bps = cfg.bitrate_bps;
  rate.n_tags = n_tags;
  rate.frame_bits = cfg.preamble_bits + 8 * (2 + cfg.payload_bytes + 2);
  rate.payload_bits = 8 * cfg.payload_bytes;
  rate.frame_error_rate = fer;
  return rate;
}

}  // namespace

void Cell::set_members(std::vector<std::size_t> members) {
  if (members == members_) return;
  members_ = std::move(members);
  dirty_ = true;
}

void Cell::ensure_system(const core::SystemConfig& base, const Gateway& gateway,
                         const std::vector<rfsim::Point>& tag_positions,
                         const rfsim::ObstacleMap& obstacles,
                         const std::vector<ForeignLeakage>& leaks) {
  CBMA_REQUIRE(gateway.id == gateway_id_, "gateway/cell id mismatch");
  CBMA_REQUIRE(gateway.code_count >= 1,
               "gateway has no code slice — run CodeReuseScheduler::assign first");
  served_ = std::min(members_.size(), gateway.code_count);
  if (served_ == 0) {
    system_.reset();
    dirty_ = true;  // the next non-empty membership must build fresh
    return;
  }
  for (const std::size_t id : members_) {
    CBMA_REQUIRE(id < tag_positions.size(), "member tag id out of range");
  }

  if (!dirty_ && system_) {
    // Membership unchanged: only positions may have moved (mobility pass).
    for (std::size_t k = 0; k < served_; ++k) {
      system_->population().set_tag(k, tag_positions[members_[k]]);
    }
    return;
  }

  core::SystemConfig cfg = base;
  cfg.code_offset = gateway.code_offset;
  cfg.max_tags = served_;  // slot k ⇒ family code code_offset + k
  rfsim::Deployment dep(gateway.es, gateway.rx);
  for (std::size_t k = 0; k < served_; ++k) {
    dep.add_tag(tag_positions[members_[k]]);
  }
  system_ = std::make_unique<core::CbmaSystem>(std::move(cfg), std::move(dep));
  system_->set_obstacles(obstacles);
  interference_w_ = 0.0;
  for (const auto& leak : leaks) {
    if (leak.power_w <= 0.0) continue;
    interference_w_ += leak.power_w;
    system_->add_interferer(std::make_unique<rfsim::CarrierLeakageInterferer>(
        leak.power_w, leak.freq_offset_hz, "gw" + std::to_string(leak.gateway_id)));
    telemetry::count(telemetry::Counter::kNetIntercellInterferers);
  }
  std::vector<std::size_t> group(served_);
  std::iota(group.begin(), group.end(), std::size_t{0});
  system_->set_active_group(std::move(group));
  dirty_ = false;
}

CellRoundResult Cell::run_round(MacScheme scheme, std::size_t packets,
                                const mac::FsaConfig& fsa, Rng& rng) const {
  CellRoundResult result;
  result.gateway_id = gateway_id_;
  result.members = members_;
  result.tags_total = members_.size();
  result.tags_served = served_;
  if (served_ == 0) return result;
  CBMA_REQUIRE(system_ != nullptr, "run_round before ensure_system");
  telemetry::count(telemetry::Counter::kNetCellRounds);
  const core::SystemConfig& cfg = system_->config();
  if (interference_w_ > 0.0) {
    result.interference_dbm = units::watts_to_dbm(interference_w_);
  }

  if (scheme == MacScheme::kFsa) {
    // MAC-only baseline: one shared medium per cell, so the cell's rate is
    // a single tag's bit rate discounted by slot efficiency and framing.
    result.fsa = mac::FsaSimulator(fsa).run_saturated(served_, packets, rng);
    const auto rate = rate_for(cfg, 1, 0.0);
    const double payload_fraction = static_cast<double>(rate.payload_bits) /
                                    static_cast<double>(rate.frame_bits);
    result.goodput_bps =
        result.fsa.efficiency() * cfg.bitrate_bps * payload_fraction;
    result.per_tag_goodput_bps.assign(
        served_, result.goodput_bps / static_cast<double>(served_));
    return result;
  }

  result.stats = system_->run_packets(packets, rng);
  const auto report =
      mac::cbma_throughput(rate_for(cfg, served_, result.stats.frame_error_rate()));
  result.goodput_bps = report.aggregate_goodput_bps;
  const auto rate = rate_for(cfg, 1, 0.0);
  const double per_tag_peak = cfg.bitrate_bps *
                              static_cast<double>(rate.payload_bits) /
                              static_cast<double>(rate.frame_bits);
  result.per_tag_goodput_bps.resize(served_);
  const auto ratios = result.stats.ack_ratios();
  for (std::size_t k = 0; k < served_; ++k) {
    result.per_tag_goodput_bps[k] = per_tag_peak * ratios[k];
  }
  return result;
}

}  // namespace cbma::net
