// Dense-deployment scenario: thirty tags populate a warehouse bay but the
// code space serves ten concurrent transmitters at a time. The §V-C node
// selector drafts a group, abandons members whose ACK ratio stays under
// 70 % after power control, and replaces them from the idle pool using
// Eq. 1 predictions with the λ/2 exclusion rule.
#include <algorithm>
#include <cstdio>

#include "core/session.h"
#include "util/table.h"

using namespace cbma;

int main() {
  core::SystemConfig config;
  config.max_tags = 10;

  rfsim::Deployment deployment = rfsim::Deployment::paper_frame();
  Rng rng(555);
  deployment.place_random_tags(30, rfsim::Room{4.0, 6.0}, rng, 0.15, 0.3);
  core::CbmaSystem cell(config, deployment);

  std::printf("dense deployment: population 30 tags, concurrent group of 10\n\n");

  // Initial group: a random draw, as §V-C starts from. The session's
  // defaults are the paper's workflow: 70 % ACK bar, up to 8 rounds.
  cell.set_active_group(core::random_group(30, 10, rng));
  core::AdaptiveSession session(cell, {});
  std::printf("exclusion radius (lambda/2): %.3f m\n\n",
              session.selector().exclusion_radius());
  const auto result = session.run(rng);

  Table table({"round", "group FER", "bad tags (<70% ACK)", "replacements"});
  for (std::size_t r = 0; r < result.history.size(); ++r) {
    const auto& round = result.history[r];
    const auto bad = std::count_if(
        round.ack_ratios.begin(), round.ack_ratios.end(),
        [&](double ratio) { return ratio < session.config().ns.bad_ack_ratio; });
    const auto& next = r + 1 < result.history.size() ? result.history[r + 1].group
                                                     : cell.active_group();
    int replaced = 0;
    for (std::size_t slot = 0; slot < next.size(); ++slot) {
      if (next[slot] != round.group[slot]) ++replaced;
    }
    table.add_row({std::to_string(round.round + 1), Table::percent(round.fer, 1),
                   std::to_string(bad), std::to_string(replaced)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("final group FER: %.1f%%\n", 100.0 * result.final_fer);
  std::printf("final group members (population index : predicted P_r):\n");
  for (const auto idx : cell.active_group()) {
    std::printf("  tag %2zu : %.1f dBm\n", idx, cell.predicted_power_dbm(idx));
  }
  return 0;
}
