// Ablation — starvation behaviour of the §V-C node-selection scheme.
//
// §VIII-D acknowledges the concern: a converged group keeps its healthy
// members, so idle tags may never be scheduled. The paper argues the
// problem "can be probably solved by selecting different groups". This
// bench quantifies both sides: the pure §V-C policy (converged group
// persists — service concentrates) and the rotation policy the paper
// sketches (re-draw the group every epoch and re-adapt — fair, at an
// adaptation cost).
#include <cstdio>
#include <optional>

#include "common.h"
#include "core/session.h"
#include "util/stats.h"
#include "util/table.h"

using namespace cbma;

namespace {

struct PolicyStats {
  std::size_t never_scheduled = 0;
  double jain = 0.0;
  double mean_fer = 0.0;
};

PolicyStats run_policy(bool rotate, std::size_t population, std::size_t rounds,
                       std::uint64_t seed) {
  core::SystemConfig cfg;
  cfg.max_tags = 5;
  Rng rng(seed);
  auto dep = rfsim::Deployment::paper_frame();
  dep.place_random_tags(population, rfsim::Room{3.0, 4.0}, rng, 0.15, 0.3);
  core::CbmaSystem cell(cfg, dep);
  cell.set_active_group(core::random_group(population, 5, rng));

  core::SessionConfig session_cfg;
  session_cfg.packets_per_round = 30;
  std::optional<core::AdaptiveSession> session;
  std::vector<std::size_t> service(population, 0);
  RunningStats fer;
  constexpr std::size_t kEpoch = 5;  // rotation period in rounds

  for (std::size_t round = 0; round < rounds; ++round) {
    // Every epoch starts a fresh session (Algorithm 1 re-equalizes, the §V-C
    // round count restarts); rotation also re-draws the group from the
    // whole population.
    if (round % kEpoch == 0) {
      if (rotate && round > 0) {
        cell.set_active_group(core::random_group(population, 5, rng));
      }
      session.emplace(cell, session_cfg);
    }
    const auto entry = session->step(rng);
    fer.add(entry.fer);
    for (const auto idx : entry.group) service[idx] += session_cfg.packets_per_round;
  }

  PolicyStats out;
  double sum = 0.0, sumsq = 0.0;
  for (std::size_t i = 0; i < population; ++i) {
    if (service[i] == 0) ++out.never_scheduled;
    const auto s = static_cast<double>(service[i]);
    sum += s;
    sumsq += s * s;
  }
  out.jain = (sum * sum) / (static_cast<double>(population) * sumsq);
  out.mean_fer = fer.mean();
  return out;
}

}  // namespace

int main() {
  core::SystemConfig header_cfg;
  header_cfg.max_tags = 5;

  const std::size_t population = 20;
  const std::size_t rounds = bench::trials(40);

  const auto spec = bench::spec(
      "ablation_starvation", "Ablation — node-selection starvation (§VIII-D)",
      "20-tag population, groups of 5; pure §V-C vs epoch rotation",
      {core::Axis::categorical("policy", {"pure", "epoch-rotation"})}, rounds);
  core::RunRecorder recorder(spec, header_cfg);
  recorder.print_header();

  core::SweepRunner(spec).run([&](const core::SweepPoint& point) {
    // Same seed for both arms: the comparison is paired on deployment and
    // RNG stream, only the rotation policy differs.
    const auto stats = run_policy(point.flat() == 1, population, rounds,
                                  bench::point_seed(0));
    recorder.record(point.flat(), "never_scheduled",
                    static_cast<double>(stats.never_scheduled));
    recorder.record(point.flat(), "jain_fairness", stats.jain);
    recorder.record(point.flat(), "mean_fer", stats.mean_fer);
  });

  PolicyStats pure{static_cast<std::size_t>(recorder.metric(0, "never_scheduled")),
                   recorder.metric(0, "jain_fairness"),
                   recorder.metric(0, "mean_fer")};
  PolicyStats rotated{
      static_cast<std::size_t>(recorder.metric(1, "never_scheduled")),
      recorder.metric(1, "jain_fairness"), recorder.metric(1, "mean_fer")};

  Table table({"policy", "tags never scheduled", "Jain fairness", "mean FER"});
  table.add_row({"pure §V-C (converged group persists)",
                 std::to_string(pure.never_scheduled), Table::num(pure.jain, 2),
                 Table::percent(pure.mean_fer, 1)});
  table.add_row({"epoch rotation (paper's suggestion)",
                 std::to_string(rotated.never_scheduled),
                 Table::num(rotated.jain, 2), Table::percent(rotated.mean_fer, 1)});
  recorder.print_table(table);

  std::printf("pure §V-C concentrates service (the starvation §VIII-D worries "
              "about): %s\n",
              recorder.check("pure policy concentrates service",
                             pure.never_scheduled > 0)
                  ? "OBSERVED"
                  : "not observed");
  std::printf("rotation spreads service across the population: %s "
              "(Jain %.2f -> %.2f, never-scheduled %zu -> %zu)\n",
              recorder.check("rotation spreads service across the population",
                             rotated.jain > pure.jain &&
                                 rotated.never_scheduled < pure.never_scheduled)
                  ? "HOLDS"
                  : "VIOLATED",
              pure.jain, rotated.jain, pure.never_scheduled,
              rotated.never_scheduled);
  std::printf("fairness costs some error rate (re-adaptation overhead): "
              "%.1f%% vs %.1f%%\n",
              100.0 * rotated.mean_fer, 100.0 * pure.mean_fer);
  return recorder.finish();
}
