#include "core/experiment.h"

#include "util/expect.h"

namespace cbma::core {

FerPoint measure_fer(const SystemConfig& config, const rfsim::Deployment& deployment,
                     std::size_t n_packets, std::uint64_t seed) {
  CBMA_REQUIRE(n_packets >= 1, "need at least one packet");
  Rng rng(seed);
  CbmaSystem system(config, deployment);
  FerPoint point;
  point.stats = system.run_packets(n_packets, rng);
  point.fer = point.stats.frame_error_rate();
  point.snr_db.reserve(system.group_size());
  for (const auto idx : system.active_group()) {
    point.snr_db.push_back(system.snr_db(idx));
  }
  return point;
}

std::string to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kBaseline: return "none";
    case Scheme::kPowerControl: return "power-control";
    case Scheme::kPowerControlAndSelection: return "power-control+selection";
  }
  return "?";
}

double run_scheme_trial(const SystemConfig& config, const SchemeRunConfig& run,
                        Scheme scheme, std::uint64_t seed) {
  CBMA_REQUIRE(run.population >= run.group_size, "population smaller than group");
  CBMA_REQUIRE(run.group_size >= 1, "group must be non-empty");
  Rng rng(seed);

  auto deployment = rfsim::Deployment::paper_frame();
  deployment.place_random_tags(run.population, run.room, rng, run.min_separation_m);
  CbmaSystem system(config, deployment);
  system.set_active_group(random_group(run.population, run.group_size, rng));

  // Uncontrolled starting state: every tag at an arbitrary impedance level
  // (see the Scheme enum's documentation).
  for (std::size_t i = 0; i < system.population().tag_count(); ++i) {
    system.set_impedance_level(
        i, static_cast<std::size_t>(rng.uniform_int(
               0, static_cast<int>(system.impedance_level_count()) - 1)));
  }

  if (scheme == Scheme::kPowerControlAndSelection) {
    return AdaptiveSession(system, run.session).run(rng).final_fer;
  }
  if (scheme == Scheme::kPowerControl) {
    system.run_power_control(run.session.pc, run.session.packets_per_round, rng);
  }
  return system.run_packets(run.session.final_packets, rng).frame_error_rate();
}

}  // namespace cbma::core
