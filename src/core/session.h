// AdaptiveSession — the paper's complete control workflow as one object,
// and the only driver of it: Algorithm 1 power control equalizes the
// starting group once, then each round measures a batch, stops when every
// member clears the ACK bar, and otherwise runs §V-C node selection,
// re-running Algorithm 1 only when the group changed. Keeps a per-round
// history so applications (and the macro benches) can inspect how the cell
// converged; step() exposes one round for callers that drive a fixed number
// of rounds themselves.
#pragma once

#include <cstddef>
#include <vector>

#include "core/system.h"
#include "mac/node_selection.h"
#include "mac/power_control.h"

namespace cbma::core {

struct SessionConfig {
  mac::PowerControlConfig pc{};
  mac::NodeSelectionConfig ns{};
  std::size_t packets_per_round = 40;   ///< measurement batch per round
  std::size_t max_rounds = 8;           ///< adaptation rounds before settling
  std::size_t final_packets = 100;      ///< steady-state measurement
};

struct SessionRound {
  std::size_t round = 0;
  std::vector<std::size_t> group;       ///< active group during the round
  double fer = 1.0;                     ///< batch FER
  std::vector<double> ack_ratios;       ///< per-slot
  bool healthy = false;                 ///< every member cleared the ACK bar
  bool reselected = false;              ///< §V-C changed the group
  /// Algorithm 1 rounds consumed in this round: the initial equalization
  /// (first round only) plus the re-equalization after a reselection.
  std::size_t pc_adjustments = 0;
};

struct SessionResult {
  std::vector<SessionRound> history;
  double final_fer = 1.0;               ///< steady-state measurement
  std::size_t rounds_to_converge = 0;   ///< first round with all tags healthy
  bool converged = false;               ///< every member ≥ the ACK bar
};

/// The random initial group §V-C starts from: the first `group_size`
/// entries of a shuffled 0..population−1.
std::vector<std::size_t> random_group(std::size_t population, std::size_t group_size,
                                      Rng& rng);

class AdaptiveSession {
 public:
  AdaptiveSession(CbmaSystem& system, SessionConfig config);

  /// Up to max_rounds step()s — stopping at the first healthy round — then
  /// the final steady-state measurement.
  SessionResult run(Rng& rng);

  /// One adaptation round: measure packets_per_round packets; unless every
  /// member is healthy, reselect and re-equalize a changed group. The
  /// session's first step runs Algorithm 1 on the starting group before
  /// measuring.
  SessionRound step(Rng& rng);

  const SessionConfig& config() const { return config_; }
  const mac::NodeSelector& selector() const { return selector_; }

 private:
  CbmaSystem& system_;
  SessionConfig config_;
  mac::NodeSelector selector_;
  std::size_t round_ = 0;  ///< rounds stepped so far (the §V-C round T)
};

}  // namespace cbma::core
