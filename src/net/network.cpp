#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/obs.h"
#include "rx/receiver.h"
#include "util/expect.h"
#include "util/parallel.h"
#include "util/units.h"

namespace cbma::net {
namespace {

/// Residual carrier offset between two free-running gateway oscillators —
/// a small deterministic per-gateway spread so foreign tones don't add
/// perfectly coherently.
double leak_freq_offset_hz(std::size_t from_gateway) {
  return 40.0 * static_cast<double>(from_gateway + 1);
}

double jain_index(const std::vector<double>& x) {
  double sum = 0.0, sumsq = 0.0;
  for (const double v : x) {
    sum += v;
    sumsq += v * v;
  }
  if (!(sumsq > 0.0) || x.empty()) return 1.0;  // all equal (all zero)
  return (sum * sum) / (static_cast<double>(x.size()) * sumsq);
}

}  // namespace

Network::Network(NetworkConfig config, rfsim::Room floor,
                 std::vector<Gateway> gateways)
    : config_(std::move(config)),
      floor_(floor),
      gateways_(std::move(gateways)),
      scheduler_(config_.reuse) {
  CBMA_REQUIRE(!gateways_.empty(), "network needs at least one gateway");
  CBMA_REQUIRE(config_.cell.max_tags >= 1,
               "cell template needs max_tags >= 1 (codes per cell)");
  CBMA_REQUIRE(config_.packets_per_round >= 1,
               "packets_per_round must be at least 1");
  for (std::size_t i = 0; i < gateways_.size(); ++i) gateways_[i].id = i;

  // Every cell slices the same shared family; the scheduler below hands
  // out the per-cell offsets.
  config_.cell.code_family_size = config_.reuse.family_size;
  config_.cell.code_offset = 0;

  budget_.tx_power_w = units::dbm_to_watts(config_.cell.tx_power_dbm);
  budget_.tx_gain = budget_.tag_gain = budget_.rx_gain = config_.cell.antenna_gain;
  budget_.carrier_hz = config_.cell.carrier_hz;
  budget_.alpha = config_.cell.alpha;
  budget_.delta_gamma = 1.0;
  budget_.min_separation_m = config_.cell.min_node_separation_m;

  cells_.reserve(gateways_.size());
  for (std::size_t i = 0; i < gateways_.size(); ++i) cells_.emplace_back(i);
  assign_codes();
}

Network Network::grid(NetworkConfig config, double floor_w, double floor_h,
                      std::size_t nx, std::size_t ny) {
  CBMA_REQUIRE(nx >= 1 && ny >= 1, "grid needs at least one bay per axis");
  CBMA_REQUIRE(floor_w > 0.0 && floor_h > 0.0, "floor extents must be positive");
  const double bay_w = floor_w / static_cast<double>(nx);
  const double bay_h = floor_h / static_cast<double>(ny);
  const double offset = config.gateway_es_rx_offset_m;
  CBMA_REQUIRE(offset > 0.0 && 2.0 * offset < bay_w,
               "gateway ES/RX pair must fit inside one bay");
  std::vector<Gateway> gws;
  gws.reserve(nx * ny);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double cx = -floor_w / 2.0 + (static_cast<double>(i) + 0.5) * bay_w;
      const double cy = -floor_h / 2.0 + (static_cast<double>(j) + 0.5) * bay_h;
      Gateway g;
      g.es = rfsim::Point{cx - offset, cy};
      g.rx = rfsim::Point{cx + offset, cy};
      gws.push_back(g);
    }
  }
  return Network(std::move(config), rfsim::Room{floor_w, floor_h}, std::move(gws));
}

void Network::place_random_tags(std::size_t count, Rng& rng,
                                double min_to_gateway) {
  for (std::size_t t = 0; t < count; ++t) {
    rfsim::Point p;
    bool placed = false;
    for (int attempt = 0; attempt < 1000 && !placed; ++attempt) {
      p = floor_.random_point(rng);
      placed = true;
      for (const auto& g : gateways_) {
        if (rfsim::distance(p, g.es) < min_to_gateway ||
            rfsim::distance(p, g.rx) < min_to_gateway) {
          placed = false;
          break;
        }
      }
    }
    CBMA_REQUIRE(placed, "could not place a tag clear of the gateways");
    add_tag(p);
  }
}

void Network::add_tag(rfsim::Point p) {
  tags_.push_back(p);
  serving_.push_back(kUnassociated);
  associated_ = false;  // the next round re-runs the full association
}

void Network::move_tag(std::size_t i, rfsim::Point p) {
  CBMA_REQUIRE(i < tags_.size(), "move_tag: tag index out of range");
  tags_[i] = p;
}

void Network::set_obstacles(rfsim::ObstacleMap obstacles) {
  obstacles_ = std::move(obstacles);
  // Shadowing changes both the interference graph and every cell's links.
  assign_codes();
}

void Network::assign_codes() {
  colors_used_ =
      scheduler_.assign(gateways_, budget_, obstacles_, config_.cell.max_tags);
  for (auto& cell : cells_) cell.invalidate();
}

double Network::link_budget_dbm(std::size_t tag, std::size_t gw) const {
  CBMA_REQUIRE(tag < tags_.size(), "tag id out of range");
  CBMA_REQUIRE(gw < gateways_.size(), "gateway id out of range");
  const Gateway& g = gateways_[gw];
  const rfsim::Point& p = tags_[tag];
  const double d1 =
      std::max(rfsim::distance(g.es, p), budget_.min_separation_m);
  const double d2 =
      std::max(rfsim::distance(p, g.rx), budget_.min_separation_m);
  const double loss_db =
      obstacles_.path_loss_db(g.es, p) + obstacles_.path_loss_db(p, g.rx);
  return units::watts_to_dbm(budget_.received_power(d1, d2) *
                             units::from_db(-loss_db));
}

std::size_t Network::best_gateway(std::size_t tag, double& best_dbm) const {
  std::size_t best = 0;
  best_dbm = link_budget_dbm(tag, 0);
  for (std::size_t g = 1; g < gateways_.size(); ++g) {
    const double dbm = link_budget_dbm(tag, g);
    if (dbm > best_dbm) {  // strict: exact ties keep the lowest id
      best_dbm = dbm;
      best = g;
    }
  }
  return best;
}

void Network::associate() {
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    double dbm = 0.0;
    serving_[t] = best_gateway(t, dbm);
  }
  associated_ = true;
}

std::size_t Network::roam() {
  CBMA_REQUIRE(associated_, "roam before associate");
  std::size_t moved = 0;
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    const double serving_dbm = link_budget_dbm(t, serving_[t]);
    double best_dbm = 0.0;
    const std::size_t best = best_gateway(t, best_dbm);
    if (best != serving_[t] &&
        best_dbm > serving_dbm + config_.roaming_hysteresis_db) {
      const std::size_t from = serving_[t];
      serving_[t] = best;
      ++moved;
      telemetry::count(telemetry::Counter::kNetTagRoams);
      if (metrics::enabled()) {
        metrics::push_event(
            metrics::Severity::kInfo, "roam", "cell=" + std::to_string(best),
            static_cast<double>(t),
            "tag " + std::to_string(t) + " roamed cell " +
                std::to_string(from) + " -> cell " + std::to_string(best) +
                " (+" + std::to_string(best_dbm - serving_dbm) + " dB)");
      }
    }
  }
  return moved;
}

std::vector<ForeignLeakage> Network::leaks_at(std::size_t gw) const {
  std::vector<ForeignLeakage> leaks;
  leaks.reserve(gateways_.size() - 1);
  const Gateway& here = gateways_[gw];
  for (const Gateway& other : gateways_) {
    if (other.id == gw) continue;
    const double d =
        std::max(rfsim::distance(other.es, here.rx), budget_.min_separation_m);
    const double loss_db = config_.reuse.leakage_rejection_db +
                           obstacles_.path_loss_db(other.es, here.rx);
    ForeignLeakage leak;
    leak.gateway_id = other.id;
    leak.power_w = budget_.one_hop_power(d) * units::from_db(-loss_db);
    leak.freq_offset_hz = leak_freq_offset_hz(other.id);
    leaks.push_back(leak);
  }
  return leaks;
}

NetworkRoundResult Network::run_round(std::uint64_t seed,
                                      std::size_t max_workers) {
  // Root of the round's attribution tree: everything below — association,
  // the per-cell parallel pass, aggregation — nests under net/round.
  const telemetry::ScopedSpan span_round(telemetry::Span::kNetRound);
  telemetry::count(telemetry::Counter::kNetRoundsRun);
  const std::size_t n_cells = gateways_.size();

  // 1. Mobility walk — sequential and on its own seed stream (cell streams
  //    use indices [0, n_cells), so the walk stream sits past them).
  if (config_.tag_step_m > 0.0 && !tags_.empty()) {
    Rng walk(util::point_seed(seed, n_cells + 1));
    const double hw = floor_.width / 2.0;
    const double hh = floor_.height / 2.0;
    for (auto& p : tags_) {
      const double angle = walk.phase();
      const double step = walk.uniform(0.0, config_.tag_step_m);
      p.x = std::clamp(p.x + step * std::cos(angle), -hw, hw);
      p.y = std::clamp(p.y + step * std::sin(angle), -hh, hh);
    }
  }

  // 2. Association (first round) or hysteresis roaming (steady state).
  NetworkRoundResult result;
  {
    const telemetry::ScopedSpan span_assoc(telemetry::Span::kNetAssociate);
    if (!associated_) {
      associate();
    } else {
      result.roamed = roam();
    }
  }

  // 3. Membership refresh: tags ascending, so every member list is sorted
  //    and a cell rebuilds only when its membership actually changed.
  std::vector<std::vector<std::size_t>> members(n_cells);
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    members[serving_[t]].push_back(t);
  }
  for (std::size_t c = 0; c < n_cells; ++c) {
    cells_[c].set_members(std::move(members[c]));
  }

  // 4. Per-cell MAC rounds — each cell owns its result slot and a seed
  //    derived from its id, so results are worker-count independent.
  result.cells.resize(n_cells);
  util::ParallelStats stats;
  util::parallel_for(
      n_cells,
      [&](std::size_t c) {
        const telemetry::ScopedSpan span_cell(telemetry::Span::kNetCellRound);
        cells_[c].ensure_system(config_.cell, gateways_[c], tags_, obstacles_,
                                leaks_at(c));
        Rng rng(util::point_seed(seed, c));
        result.cells[c] = cells_[c].run_round(
            config_.scheme, config_.packets_per_round, config_.fsa, rng);
      },
      max_workers, &stats);
  // Worker utilization of the cell pass (profiler only; the pool joined,
  // so this runs in the sequential context record_parallel requires).
  if (stats.collected) profiler::record_parallel("net/round", stats);

  // 5. Aggregate: network goodput and Jain fairness over every tag
  //    (unserved tags score zero — fairness sees the capacity shortfall).
  std::vector<double> per_tag(tags_.size(), 0.0);
  for (const auto& cell : result.cells) {
    result.aggregate_goodput_bps += cell.goodput_bps;
    result.tags_served += cell.tags_served;
    for (std::size_t k = 0; k < cell.tags_served; ++k) {
      per_tag[cell.members[k]] = cell.per_tag_goodput_bps[k];
    }
  }
  result.tags_total = tags_.size();
  result.jain_fairness = jain_index(per_tag);

  // 6. Metrics-plane attribution (strict no-op when the plane is off) —
  //    sequential by construction: the parallel cell pass above joined.
  if (metrics::enabled()) publish_round(result);
  return result;
}

void Network::publish_round(const NetworkRoundResult& result) {
  for (const auto& cell : result.cells) {
    obs::CellSample sample;
    sample.cell_id = cell.gateway_id;
    sample.goodput_bps = cell.goodput_bps;
    sample.frame_error_rate = cell.stats.frame_error_rate();
    sample.tags_served = cell.tags_served;
    sample.tags_total = cell.tags_total;
    sample.sent = cell.stats.total_sent();
    sample.acked = cell.stats.total_acked();
    sample.outcomes = cell.stats.outcomes;
    sample.quality = cell.stats.quality;
    obs::record_cell(sample);

    const std::string scope = "cell=" + std::to_string(cell.gateway_id);
    if (cell.tags_total > cell.tags_served) {
      // More members than the cell's code-slice can serve: the capacity
      // shortfall the paper's reuse scheduler exists to avoid.
      metrics::push_event(
          metrics::Severity::kWarning, "code_slice_overflow", scope,
          static_cast<double>(cell.tags_total - cell.tags_served),
          std::to_string(cell.tags_total) + " members for " +
              std::to_string(cell.tags_served) + " served slots");
    }
    for (std::size_t o = 0; o < cell.stats.outcomes.size(); ++o) {
      const auto outcome = static_cast<rx::DecodeOutcome>(o);
      if (outcome == rx::DecodeOutcome::kOk || cell.stats.outcomes[o] == 0) {
        continue;
      }
      metrics::push_event(
          metrics::Severity::kInfo, "decode_failure", scope,
          static_cast<double>(cell.stats.outcomes[o]), rx::to_string(outcome));
    }
  }
  metrics::push("net.goodput_bps", {}, result.aggregate_goodput_bps, "bps");
  metrics::push("net.jain_fairness", {}, result.jain_fairness);
  metrics::push("net.tags_served", {}, static_cast<double>(result.tags_served));
  metrics::push("net.tags_total", {}, static_cast<double>(result.tags_total));
  metrics::push("net.roamed", {}, static_cast<double>(result.roamed));
  obs::tick();
}

}  // namespace cbma::net
