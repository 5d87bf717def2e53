#include "core/recorder.h"

#include <cstdio>
#include <cstdlib>

#include "core/obs.h"
#include "util/expect.h"
#include "util/json.h"

namespace cbma::core {

namespace {

/// FNV-1a 64-bit over the config summary: a stable fingerprint that ties a
/// JSON document to the exact configuration that produced it.
std::uint64_t fingerprint(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

RunRecorder::RunRecorder(SweepSpec spec, const SystemConfig& config)
    : spec_(std::move(spec)),
      config_summary_(config.summary()),
      config_fingerprint_(fingerprint(config_summary_)),
      points_(spec_.point_count()) {
  CBMA_REQUIRE(!spec_.name.empty(), "SweepSpec needs a bench name");
}

void RunRecorder::print_header() const {
  std::printf("=== %s ===\n", spec_.title.c_str());
  std::printf("reproduces : %s\n", spec_.paper_ref.c_str());
  std::printf("config     : %s\n", config_summary_.c_str());
  std::printf("trials/pt  : %zu (CBMA_TRIALS to change)  seed: %llu\n\n",
              spec_.trials, static_cast<unsigned long long>(spec_.base_seed));
}

void RunRecorder::record(std::size_t flat, const std::string& metric,
                         double value) {
  CBMA_REQUIRE(flat < points_.size(), "point index out of range");
  points_[flat].emplace_back(metric, value);
}

double RunRecorder::metric(std::size_t flat, const std::string& name) const {
  CBMA_REQUIRE(flat < points_.size(), "point index out of range");
  for (const auto& [k, v] : points_[flat]) {
    if (k == name) return v;
  }
  CBMA_REQUIRE(false, "no metric '" + name + "' recorded for point " +
                          std::to_string(flat));
  return 0.0;
}

void RunRecorder::print_table(const Table& table) {
  std::printf("%s\n", table.render().c_str());
  tables_.push_back({table.headers(), table.row_data()});
}

bool RunRecorder::check(const std::string& name, bool holds,
                        std::string detail) {
  checks_.push_back({name, holds, std::move(detail)});
  return holds;
}

void RunRecorder::note(std::string text) { notes_.push_back(std::move(text)); }

std::size_t RunRecorder::run_watchdog(const std::vector<WatchdogRule>& rules) {
  warnings_ = scan_sweep_anomalies(
      spec_,
      [this](std::size_t flat, const std::string& name) {
        return metric(flat, name);
      },
      rules);
  for (const auto& warning : warnings_) {
    std::fprintf(stderr, "watchdog: %s\n", warning.detail.c_str());
    // Watchdog firings double as structured events on the metrics plane
    // (no-op when it is off).
    metrics::push_event(metrics::Severity::kWarning, "watchdog",
                        "metric=" + warning.metric, warning.value,
                        warning.detail);
  }
  return warnings_.size();
}

std::string RunRecorder::json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(kBenchJsonSchemaVersion);
  w.key("bench").value(spec_.name);
  w.key("title").value(spec_.title);
  w.key("paper_ref").value(spec_.paper_ref);

  w.key("config").begin_object();
  w.key("summary").value(config_summary_);
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(config_fingerprint_));
  w.key("fingerprint").value(fp);
  w.end_object();

  w.key("base_seed").value(static_cast<std::uint64_t>(spec_.base_seed));
  w.key("trials_per_point").value(spec_.trials);
  // Provenance: CI exports CBMA_GIT_SHA=$GITHUB_SHA; local runs may not
  // have it, and the field stays deterministic either way.
  if (const char* sha = std::getenv("CBMA_GIT_SHA")) {
    w.key("git_sha").value(sha);
  }

  w.key("axes").begin_array();
  for (const auto& axis : spec_.axes) {
    w.begin_object();
    w.key("name").value(axis.name);
    if (axis.is_numeric()) {
      if (!axis.unit.empty()) w.key("unit").value(axis.unit);
      w.key("values").begin_array();
      for (const double v : axis.values) w.value(v);
      w.end_array();
    } else {
      w.key("labels").begin_array();
      for (const auto& l : axis.labels) w.value(l);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();

  w.key("points").begin_array();
  for (std::size_t flat = 0; flat < points_.size(); ++flat) {
    w.begin_object();
    const SweepPoint point(spec_, flat);
    w.key("index").begin_array();
    for (std::size_t a = 0; a < spec_.axes.size(); ++a) w.value(point.index(a));
    w.end_array();
    w.key("metrics").begin_object();
    for (const auto& [k, v] : points_[flat]) w.key(k).value(v);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.key("tables").begin_array();
  for (const auto& table : tables_) {
    w.begin_object();
    w.key("headers").begin_array();
    for (const auto& h : table.headers) w.value(h);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : table.rows) {
      w.begin_array();
      for (const auto& cell : row) w.value(cell);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("checks").begin_array();
  for (const auto& check : checks_) {
    w.begin_object();
    w.key("name").value(check.name);
    w.key("holds").value(check.holds);
    if (!check.detail.empty()) w.key("detail").value(check.detail);
    w.end_object();
  }
  w.end_array();

  w.key("notes").begin_array();
  for (const auto& n : notes_) w.value(n);
  w.end_array();

  // Observability sections: each present only while its layer is live, so
  // the default document stays byte-identical (DESIGN.md §7). Span timings
  // are wall-clock; counters, tree shape and counts are deterministic.
  // None of it enters the config fingerprint above.
  obs::write_json_sections(w);
  // "watchdog" rides along while probing, or whenever a rule fired.
  if (!warnings_.empty() || probe::enabled()) {
    w.key("watchdog").begin_array();
    for (const auto& warning : warnings_) {
      w.begin_object();
      w.key("metric").value(warning.metric);
      w.key("point").value(warning.flat);
      w.key("kind").value(warning.kind);
      w.key("value").value(warning.value);
      w.key("reference").value(warning.reference);
      w.key("detail").value(warning.detail);
      w.end_object();
    }
    w.end_array();
  }

  w.end_object();
  return w.str();
}

int RunRecorder::finish() const {
  std::string path = "BENCH_" + spec_.name + ".json";
  if (const char* dir = std::getenv("CBMA_BENCH_DIR")) {
    if (*dir != '\0') path = std::string(dir) + "/" + path;
  }
  if (!obs::write_file_atomic(path, json() + '\n')) return 1;
  // CBMA_TRACE / CBMA_PROBE / CBMA_METRICS / CBMA_PROFILE files.
  return obs::write_exports() ? 0 : 1;
}

}  // namespace cbma::core
