#include "mac/node_selection.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"
#include "util/obs.h"
#include "util/units.h"

namespace cbma::mac {

NodeSelector::NodeSelector(NodeSelectionConfig config, rfsim::LinkBudget budget)
    : config_(config), budget_(budget) {
  CBMA_REQUIRE(config_.bad_ack_ratio >= 0.0 && config_.bad_ack_ratio <= 1.0,
               "bad ACK ratio out of range");
  CBMA_REQUIRE(config_.initial_acceptance >= 0.0 && config_.initial_acceptance <= 1.0,
               "acceptance out of range");
  CBMA_REQUIRE(config_.cooling_rounds > 0.0, "cooling must be positive");
  CBMA_REQUIRE(config_.candidate_attempts >= 1, "need at least one attempt");
}

double NodeSelector::exclusion_radius() const {
  if (config_.exclusion_radius_m > 0.0) return config_.exclusion_radius_m;
  return budget_.wavelength() / 2.0;
}

double NodeSelector::predicted_dbm(const rfsim::Deployment& population,
                                   std::size_t i) const {
  return units::watts_to_dbm(budget_.received_power(population, i));
}

double NodeSelector::acceptance_probability(std::size_t round) const {
  return config_.initial_acceptance *
         std::exp(-static_cast<double>(round) / config_.cooling_rounds);
}

bool NodeSelector::violates_exclusion(const rfsim::Deployment& population,
                                      std::span<const std::size_t> group,
                                      std::size_t candidate,
                                      std::size_t replacing_slot) const {
  const double radius = exclusion_radius();
  for (std::size_t slot = 0; slot < group.size(); ++slot) {
    if (slot == replacing_slot) continue;
    if (population.tag_to_tag(group[slot], candidate) < radius) return true;
  }
  return false;
}

std::vector<std::size_t> NodeSelector::reselect(const rfsim::Deployment& population,
                                                std::vector<std::size_t> group,
                                                std::span<const double> ack_ratios,
                                                std::size_t round, Rng& rng) const {
  CBMA_REQUIRE(ack_ratios.size() == group.size(), "ACK ratio arity mismatch");
  CBMA_REQUIRE(population.tag_count() >= group.size(), "population smaller than group");

  // Idle pool: population members not currently in the group.
  std::vector<bool> in_group(population.tag_count(), false);
  for (const auto idx : group) {
    CBMA_REQUIRE(idx < population.tag_count(), "group index out of population");
    in_group[idx] = true;
  }
  std::vector<std::size_t> idle;
  for (std::size_t i = 0; i < population.tag_count(); ++i) {
    if (!in_group[i]) idle.push_back(i);
  }

  for (std::size_t slot = 0; slot < group.size(); ++slot) {
    if (ack_ratios[slot] >= config_.bad_ack_ratio) continue;  // tag is fine
    telemetry::count(telemetry::Counter::kNodeSelectAbandoned);
    if (idle.empty()) break;  // §V-C: no spare tags — would need to move them

    const double old_dbm = predicted_dbm(population, group[slot]);
    for (std::size_t attempt = 0; attempt < config_.candidate_attempts; ++attempt) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(idle.size()) - 1));
      const std::size_t candidate = idle[pick];
      if (violates_exclusion(population, group, candidate, slot)) continue;

      const double new_dbm = predicted_dbm(population, candidate);
      const bool improves = new_dbm > old_dbm;
      if (improves || rng.bernoulli(acceptance_probability(round))) {
        // Swap: the abandoned tag returns to the idle pool.
        idle[pick] = group[slot];
        group[slot] = candidate;
        telemetry::count(telemetry::Counter::kNodeSelectReplaced);
        if (!improves) {
          telemetry::count(telemetry::Counter::kNodeSelectAnnealed);
        }
        break;
      }
    }
  }
  return group;
}

}  // namespace cbma::mac
