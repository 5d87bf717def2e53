// Reusable experiment drivers shared by the benches and examples: FER
// measurement over a fixed deployment, and the macro-benchmark scheme
// comparison (none / power control / power control + node selection) used
// by Figs. 9(c) and 10.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/session.h"
#include "core/system.h"

namespace cbma::core {

struct FerPoint {
  double fer = 1.0;
  RoundStats stats{0};
  std::vector<double> snr_db;  ///< per active tag, at its impedance level
};

/// Measure FER of `n_packets` collided packets over a fixed deployment with
/// every tag at the strongest impedance level.
FerPoint measure_fer(const SystemConfig& config, const rfsim::Deployment& deployment,
                     std::size_t n_packets, std::uint64_t seed);

/// The three macro-benchmark scheme levels (Fig. 10). The baseline ("no
/// control") leaves every tag at an arbitrary impedance state — without a
/// control loop a tag's reflection level is whatever its antenna detuning
/// happens to give, so some tags sit at weak levels below the receiver's
/// floor. Power control ramps each tag to a working level (Algorithm 1);
/// node selection additionally replaces tags that fail at every level.
enum class Scheme { kBaseline, kPowerControl, kPowerControlAndSelection };

std::string to_string(Scheme scheme);

struct SchemeRunConfig {
  std::size_t population = 20;        ///< tags deployed in the room
  std::size_t group_size = 5;
  double min_separation_m = 0.05;
  rfsim::Room room{4.0, 6.0};         ///< the paper's office footprint
  /// The adaptation: packets_per_round per Algorithm 1 / measurement round,
  /// max_rounds §V-C reselection rounds, final_packets measured after.
  SessionConfig session{.packets_per_round = 40, .max_rounds = 6, .final_packets = 200};
};

/// One macro-benchmark trial: deploy a random population, pick a random
/// initial group, run the scheme's adaptation, and return the error rate
/// of the final measurement batch. kPowerControlAndSelection is one
/// AdaptiveSession run.
double run_scheme_trial(const SystemConfig& config, const SchemeRunConfig& run,
                        Scheme scheme, std::uint64_t seed);

}  // namespace cbma::core
