// Fig. 10 — CDFs of the 5-tag error rate for three scheme levels:
// no control / power control / power control + node selection. The paper's
// macro benchmark deploys tags at random positions in the office; with
// power control alone only ~60 % of deployments reach error < 5 %, and
// adding tag selection dominates both.
#include <cstdio>

#include "common.h"
#include "core/experiment.h"
#include "util/stats.h"
#include "util/table.h"

using namespace cbma;

int main() {
  core::SystemConfig cfg;
  cfg.max_tags = 5;

  core::SchemeRunConfig run;
  run.population = 20;
  run.group_size = 5;
  run.session.packets_per_round = 40;
  run.session.final_packets = 100;
  run.session.max_rounds = 6;
  run.room = rfsim::Room{2.5, 3.0};

  const std::size_t n_trials = bench::trials(50);
  const core::Scheme schemes[] = {core::Scheme::kBaseline, core::Scheme::kPowerControl,
                                  core::Scheme::kPowerControlAndSelection};
  std::vector<double> trial_axis(n_trials);
  for (std::size_t t = 0; t < n_trials; ++t) trial_axis[t] = static_cast<double>(t);

  const auto spec = bench::spec(
      "fig10_cdf", "Fig. 10 — CDFs of error rate (5-tag deployments)",
      "§VII-C1 macro benchmark: none / PC / PC + node selection",
      {core::Axis::categorical("scheme",
                               {"none", "power-control", "power-control+selection"}),
       core::Axis::numeric("trial", trial_axis)},
      n_trials);
  core::RunRecorder recorder(spec, cfg);
  recorder.print_header();

  core::SweepRunner(spec).run([&](const core::SweepPoint& point) {
    // Same deployment seed across schemes: paired comparison per trial.
    recorder.record(point.flat(), "error_rate",
                    core::run_scheme_trial(cfg, run, schemes[point.index(0)],
                                           bench::point_seed(point.index(1))));
  });

  const auto samples_of = [&](std::size_t s) {
    std::vector<double> out(n_trials);
    for (std::size_t t = 0; t < n_trials; ++t) {
      out[t] = recorder.metric(s * n_trials + t, "error_rate");
    }
    return out;
  };
  EmpiricalCdf none(samples_of(0)), pc(samples_of(1)), pcsel(samples_of(2));

  Table table({"error rate", "CDF none", "CDF power-control", "CDF PC+selection"});
  for (const double x : {0.0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40,
                         0.50, 0.70, 1.0}) {
    table.add_row({Table::percent(x, 0), Table::num(none.at(x), 2),
                   Table::num(pc.at(x), 2), Table::num(pcsel.at(x), 2)});
  }
  recorder.print_table(table);

  std::printf("median error: none %.3f, PC %.3f, PC+selection %.3f\n",
              none.median(), pc.median(), pcsel.median());
  std::printf("P(error < 5%%): none %.2f, PC %.2f (paper ~0.6), PC+selection %.2f\n",
              none.at(0.05), pc.at(0.05), pcsel.at(0.05));
  std::printf("ordering PC+selection >= PC >= none at the 5%% mark: %s\n",
              recorder.check("ordering PC+selection >= PC >= none at 5% mark",
                             pcsel.at(0.05) + 1e-9 >= pc.at(0.05) &&
                                 pc.at(0.05) + 1e-9 >= none.at(0.05))
                  ? "HOLDS"
                  : "VIOLATED");
  return recorder.finish();
}
