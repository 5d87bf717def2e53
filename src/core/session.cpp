#include "core/session.h"

#include <algorithm>

#include "util/expect.h"

namespace cbma::core {

std::vector<std::size_t> random_group(std::size_t population, std::size_t group_size,
                                      Rng& rng) {
  CBMA_REQUIRE(group_size <= population, "population smaller than group");
  std::vector<std::size_t> order(population);
  for (std::size_t i = 0; i < population; ++i) order[i] = i;
  rng.shuffle(order);
  order.resize(group_size);
  return order;
}

AdaptiveSession::AdaptiveSession(CbmaSystem& system, SessionConfig config)
    : system_(system), config_(config), selector_(config.ns, system.link_budget()) {
  CBMA_REQUIRE(config_.packets_per_round >= 1, "need at least one packet per round");
  CBMA_REQUIRE(config_.max_rounds >= 1, "need at least one round");
  CBMA_REQUIRE(config_.final_packets >= 1, "need a final measurement batch");
}

SessionRound AdaptiveSession::step(Rng& rng) {
  SessionRound entry;
  entry.round = round_++;
  // Algorithm 1 equalizes the starting group before its first batch.
  if (entry.round == 0) {
    entry.pc_adjustments =
        system_.run_power_control(config_.pc, config_.packets_per_round, rng).rounds;
  }
  entry.group = system_.active_group();

  const auto stats = system_.run_packets(config_.packets_per_round, rng);
  entry.fer = stats.frame_error_rate();
  entry.ack_ratios = stats.ack_ratios();
  entry.healthy = std::all_of(entry.ack_ratios.begin(), entry.ack_ratios.end(),
                              [&](double r) { return r >= config_.ns.bad_ack_ratio; });
  if (entry.healthy) return entry;

  // §V-C: replace members that stayed under the bar.
  auto next = selector_.reselect(system_.population(), entry.group, entry.ack_ratios,
                                 entry.round, rng);
  entry.reselected = (next != entry.group);
  if (entry.reselected) {
    system_.set_active_group(std::move(next));
    // Newly drafted tags keep their last impedance level; re-run Algorithm 1
    // so the refreshed group re-equalizes.
    entry.pc_adjustments +=
        system_.run_power_control(config_.pc, config_.packets_per_round, rng).rounds;
  }
  return entry;
}

SessionResult AdaptiveSession::run(Rng& rng) {
  SessionResult result;
  for (std::size_t round = 0; round < config_.max_rounds; ++round) {
    result.history.push_back(step(rng));
    if (result.history.back().healthy) {
      result.converged = true;
      result.rounds_to_converge = round + 1;
      break;
    }
  }
  if (!result.converged) result.rounds_to_converge = config_.max_rounds;

  result.final_fer = system_.run_packets(config_.final_packets, rng).frame_error_rate();
  return result;
}

}  // namespace cbma::core
