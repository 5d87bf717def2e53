// Office-floor scenario: the paper's "challenging indoor" setting made
// concrete. An open-plan office with interior walls (obstacle shadowing),
// rich multipath, a busy WiFi AP and Bluetooth peripherals; 16 asset tags
// are deployed and the AdaptiveSession runs the paper's complete workflow —
// power control on the starting group, node selection when a member stays
// unhealthy, power control again on each changed group — until the
// concurrent group converges.
#include <cstdio>
#include <memory>

#include "core/session.h"
#include "util/table.h"
#include "util/units.h"

using namespace cbma;

int main() {
  core::SystemConfig config;
  config.max_tags = 6;           // code space for six concurrent tags
  config.multipath.enabled = true;
  config.tx_power_dbm = 30.0;    // 1 W EIRP — an AP-class excitation source

  // Reader at the room centre; 16 tags across a 3 m x 3.5 m office bay
  // (backscatter range caps the practical cell size — see Table I).
  rfsim::Deployment deployment(rfsim::Point{-0.4, 0.0}, rfsim::Point{0.4, 0.0});
  Rng rng(31337);
  deployment.place_random_tags(16, rfsim::Room{3.0, 3.5}, rng, 0.25, 0.4);
  core::CbmaSystem office(config, deployment);

  // Interior walls: a meeting-room corner and a long partition.
  rfsim::ObstacleMap walls;
  walls.add({{-1.5, 1.1}, {0.4, 1.1}, 8.0});    // drywall partition
  walls.add({{0.4, 1.1}, {0.4, 1.75}, 8.0});    // meeting-corner side wall
  walls.add({{-0.8, -1.2}, {1.5, -1.2}, 5.0});  // glass wall, lighter loss
  office.set_obstacles(walls);

  // Ambient radios sharing the band.
  office.add_interferer(
      std::make_unique<rfsim::WifiInterferer>(units::dbm_to_watts(-58.0)));
  office.add_interferer(
      std::make_unique<rfsim::BluetoothInterferer>(units::dbm_to_watts(-55.0)));

  std::printf("office floor: 16 tags, 3 walls, WiFi+BT interference, multipath\n\n");
  std::printf("predicted (theory) vs shadowed strength of the first tags:\n");
  for (std::size_t i = 0; i < 6; ++i) {
    std::printf("  tag %zu: Eq.1 %.1f dBm, with walls %.1f dBm\n", i,
                office.predicted_power_dbm(i), office.received_power_dbm(i));
  }

  // Start with an arbitrary group of six and let the session converge.
  office.set_active_group({0, 1, 2, 3, 4, 5});
  core::SessionConfig session_cfg;
  session_cfg.packets_per_round = 30;
  session_cfg.max_rounds = 8;
  session_cfg.final_packets = 100;

  core::AdaptiveSession session(office, session_cfg);
  const auto result = session.run(rng);

  Table table({"round", "group FER", "reselected", "PC adjustments"});
  for (const auto& round : result.history) {
    table.add_row({std::to_string(round.round + 1), Table::percent(round.fer, 1),
                   round.reselected ? "yes" : "no",
                   std::to_string(round.pc_adjustments)});
  }
  std::printf("\n%s\n", table.render().c_str());

  std::printf("converged: %s (after %zu round%s)\n",
              result.converged ? "yes" : "no", result.rounds_to_converge,
              result.rounds_to_converge == 1 ? "" : "s");
  std::printf("steady-state FER of the working group: %.1f%%\n",
              100.0 * result.final_fer);
  std::printf("final group:");
  for (const auto idx : office.active_group()) std::printf(" %zu", idx);
  std::printf("\n\nthe session keeps the cell delivering despite walls and "
              "interference —\nthe paper's 'challenging indoor' claim, end to end.\n");
  return 0;
}
