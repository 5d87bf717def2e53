#include "core/obs.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <system_error>

#include "rx/receiver.h"
#include "util/json.h"

namespace cbma::obs {

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create directory '%s' for %s: %s\n",
                   target.parent_path().string().c_str(), path.c_str(),
                   ec.message().c_str());
      return false;
    }
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", tmp.c_str());
    return false;
  }
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "error: failed writing %s\n", tmp.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "error: cannot rename %s over %s\n", tmp.c_str(),
                 path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

namespace {

// --- telemetry -------------------------------------------------------------

void write_telemetry_section(util::JsonWriter& w) {
  const auto snap = telemetry::snapshot();
  w.key("telemetry").begin_object();
  w.key("threads").value(static_cast<std::uint64_t>(snap.threads));

  w.key("spans").begin_array();
  for (const auto& s : snap.spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("count").value(s.count);
    w.key("total_ns").value(s.total_ns);
    w.key("min_ns").value(s.min_ns);
    w.key("max_ns").value(s.max_ns);
    w.key("mean_ns").value(s.mean_ns);
    w.key("p50_ns").value(s.p50_ns);
    w.key("p90_ns").value(s.p90_ns);
    w.key("p99_ns").value(s.p99_ns);
    w.end_object();
  }
  w.end_array();

  w.key("counters").begin_object();
  for (const auto& c : snap.counters) w.key(c.name).value(c.value);
  w.end_object();

  w.key("flight_recorder").begin_array();
  for (const auto& f : snap.frames) {
    w.begin_object();
    w.key("seq").value(f.seq);
    w.key("ts_ns").value(f.ts_ns);
    w.key("tag").value(static_cast<std::uint64_t>(f.tag_id));
    w.key("code_length").value(static_cast<std::uint64_t>(f.pn_code_length));
    w.key("correlation").value(f.correlation);
    w.key("margin").value(f.margin);
    w.key("cfo_hz").value(f.cfo_hz);
    w.key("power_dbm").value(f.power_dbm);
    w.key("impedance_level")
        .value(static_cast<std::uint64_t>(f.impedance_level));
    w.key("outcome").value(
        rx::to_string(static_cast<rx::DecodeOutcome>(f.outcome)));
    w.key("impairment_gates")
        .value(static_cast<std::uint64_t>(f.impairment_gates));
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

// --- probe -----------------------------------------------------------------

constexpr char kMagic[8] = {'C', 'B', 'P', 'R', 'O', 'B', 'E', '1'};
constexpr std::size_t kRecordHeaderBytes = 8 + 4 + 4 + 8 + 4 + 4;

/// Explicit little-endian encoding: the dump is a cross-machine artifact,
/// so the writer pins the byte order instead of inheriting the host's.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// Per-tag aggregate of the captured link-quality rows.
struct TagAggregate {
  std::size_t frames = 0;
  std::size_t decoded = 0;
  double snr_db = 0.0;
  double evm = 0.0;
  double soft_margin = 0.0;
  double margin_ratio = 0.0;
  double power_norm = 0.0;
  double correlation = 0.0;
};

void write_link_quality_section(util::JsonWriter& w) {
  const auto capture = probe::snapshot();
  // Ascending tag order keeps the section deterministic.
  std::map<std::uint32_t, TagAggregate> tags;
  for (const auto& s : capture.link) {
    auto& agg = tags[s.tag];
    ++agg.frames;
    agg.decoded += s.decoded ? 1 : 0;
    agg.snr_db += s.snr_db;
    agg.evm += s.evm;
    agg.soft_margin += s.soft_margin;
    agg.margin_ratio += s.margin_ratio;
    agg.power_norm += s.power_norm;
    agg.correlation += s.correlation;
  }

  w.key("link_quality").begin_object();
  w.key("samples").value(static_cast<std::uint64_t>(capture.link.size()));
  w.key("dropped").value(static_cast<std::uint64_t>(capture.dropped_link));
  w.key("tags").begin_array();
  for (const auto& [tag, agg] : tags) {
    const auto n = static_cast<double>(agg.frames);
    w.begin_object();
    w.key("tag").value(static_cast<std::uint64_t>(tag));
    w.key("frames").value(static_cast<std::uint64_t>(agg.frames));
    w.key("decoded").value(static_cast<std::uint64_t>(agg.decoded));
    w.key("snr_db_mean").value(agg.snr_db / n);
    w.key("evm_mean").value(agg.evm / n);
    w.key("soft_margin_mean").value(agg.soft_margin / n);
    w.key("margin_ratio_mean").value(agg.margin_ratio / n);
    w.key("power_norm_mean").value(agg.power_norm / n);
    w.key("correlation_mean").value(agg.correlation / n);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// The CBPROBE1 dump (schema_version 1, little-endian):
///   file   = "CBPROBE1" then records back-to-back
///   record = u64 seq | u32 tap | u32 context | u64 point | u32 iq(0/1)
///            | u32 n_doubles | n_doubles × f64
/// plus a <path>.json manifest repeating every record header with its byte
/// offset, so a reader can cross-check the binary's own framing.
bool write_probe_dump(const std::string& path) {
  const auto capture = probe::snapshot();
  std::string blob(kMagic, sizeof kMagic);
  std::vector<std::size_t> offsets;
  offsets.reserve(capture.taps.size());
  for (const auto& r : capture.taps) {
    offsets.push_back(blob.size());
    put_u64(blob, r.seq);
    put_u32(blob, static_cast<std::uint32_t>(r.tap));
    put_u32(blob, r.context);
    put_u64(blob, r.point);
    put_u32(blob, r.complex_iq ? 1u : 0u);
    put_u32(blob, static_cast<std::uint32_t>(r.data.size()));
    for (const double v : r.data) put_f64(blob, v);
  }
  if (!write_file_atomic(path, blob)) return false;

  util::JsonWriter w;
  w.begin_object();
  w.key("magic").value("CBPROBE1");
  w.key("schema_version").value(kProbeDumpSchemaVersion);
  w.key("dump").value(std::filesystem::path(path).filename().string());
  w.key("dump_bytes").value(static_cast<std::uint64_t>(blob.size()));
  w.key("records").value(static_cast<std::uint64_t>(capture.taps.size()));
  w.key("dropped_taps").value(static_cast<std::uint64_t>(capture.dropped_taps));
  w.key("dropped_link").value(static_cast<std::uint64_t>(capture.dropped_link));
  w.key("taps").begin_array();
  for (std::size_t i = 0; i < capture.taps.size(); ++i) {
    const auto& r = capture.taps[i];
    w.begin_object();
    w.key("seq").value(r.seq);
    w.key("tap").value(probe::tap_name(r.tap));
    w.key("context").value(static_cast<std::uint64_t>(r.context));
    w.key("point").value(r.point);
    w.key("iq").value(r.complex_iq);
    w.key("doubles").value(static_cast<std::uint64_t>(r.data.size()));
    w.key("samples").value(static_cast<std::uint64_t>(
        r.complex_iq ? r.data.size() / 2 : r.data.size()));
    w.key("offset").value(static_cast<std::uint64_t>(offsets[i]));
    w.key("payload_offset")
        .value(static_cast<std::uint64_t>(offsets[i] + kRecordHeaderBytes));
    w.end_object();
  }
  w.end_array();
  w.key("link_quality").begin_array();
  for (const auto& s : capture.link) {
    w.begin_object();
    w.key("seq").value(s.seq);
    w.key("point").value(s.point);
    w.key("tag").value(static_cast<std::uint64_t>(s.tag));
    w.key("detected").value(s.detected);
    w.key("decoded").value(s.decoded);
    w.key("snr_db").value(s.snr_db);
    w.key("evm").value(s.evm);
    w.key("soft_margin").value(s.soft_margin);
    w.key("margin_ratio").value(s.margin_ratio);
    w.key("power_norm").value(s.power_norm);
    w.key("correlation").value(s.correlation);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return write_file_atomic(path + ".json", w.str() + '\n');
}

// --- metrics ---------------------------------------------------------------

void write_metrics_sections(util::JsonWriter& w) {
  const metrics::Snapshot snap = metrics::snapshot();

  w.key("timeseries").begin_object();
  w.key("windows").value(snap.windows);
  w.key("window_capacity")
      .value(static_cast<std::uint64_t>(metrics::kWindowCapacity));
  w.key("dropped").begin_object();
  w.key("points").value(snap.dropped_points);
  w.key("series").value(snap.dropped_series);
  w.key("events").value(snap.dropped_events);
  w.end_object();
  w.key("series").begin_array();
  for (const auto& series : snap.series) {
    w.begin_object();
    w.key("name").value(series.name);
    w.key("scope").value(series.scope);
    if (!series.unit.empty()) w.key("unit").value(series.unit);
    w.key("points").begin_array();
    for (const auto& p : series.points) {
      w.begin_array();
      w.value(p.window);
      w.value(p.value);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("events").begin_array();
  for (const auto& e : snap.events) {
    w.begin_object();
    w.key("seq").value(e.seq);
    w.key("window").value(e.window);
    w.key("severity").value(metrics::severity_name(e.severity));
    w.key("type").value(e.type);
    if (!e.scope.empty()) w.key("scope").value(e.scope);
    w.key("value").value(e.value);
    if (!e.detail.empty()) w.key("detail").value(e.detail);
    w.end_object();
  }
  w.end_array();
}

bool is_metric_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Prometheus metric charset: [a-zA-Z0-9_]; everything else (dots,
/// slashes) becomes '_', behind a "cbma_" prefix.
std::string sanitize_metric_name(const std::string& name) {
  std::string out = "cbma_";
  for (const char c : name) out.push_back(is_metric_char(c) ? c : '_');
  return out;
}

/// "cell=3" → {cell="3"}; "" → no labels; a scope without '=' becomes a
/// generic {scope="..."} label so malformed scopes stay parseable.
std::string scope_labels(const std::string& scope) {
  if (scope.empty()) return {};
  const auto eq = scope.find('=');
  std::string key = eq == std::string::npos ? "scope" : scope.substr(0, eq);
  const std::string value =
      eq == std::string::npos ? scope : scope.substr(eq + 1);
  for (auto& c : key) {
    if (!is_metric_char(c)) c = '_';
  }
  std::string escaped;
  for (const char c : value) {
    if (c == '\\' || c == '"') escaped.push_back('\\');
    if (c == '\n') {
      escaped += "\\n";
      continue;
    }
    escaped.push_back(c);
  }
  return "{" + key + "=\"" + escaped + "\"}";
}

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

// --- profile ---------------------------------------------------------------

/// Depth-first flatten of the merged tree into ";"-joined caller-path rows
/// (outermost frame first). Span names use "/" internally, so ";" is an
/// unambiguous frame separator.
void flatten(const profiler::MergedNode& node, const std::string& prefix,
             std::vector<ProfileRow>& out) {
  ProfileRow row;
  row.path = prefix.empty() ? std::string(telemetry::span_name(node.span))
                            : prefix + ";" + telemetry::span_name(node.span);
  row.count = node.count;
  row.incl_ns = node.incl_ns;
  row.excl_ns = node.excl_ns();
  for (const auto& child : node.children) flatten(child, row.path, out);
  out.push_back(std::move(row));
}

std::vector<ProfileRow> flatten_tree() {
  std::vector<ProfileRow> rows;
  for (const auto& root : profiler::merged_tree().roots) flatten(root, "", rows);
  return rows;
}

void write_node(util::JsonWriter& w, const profiler::MergedNode& node) {
  w.begin_object();
  w.key("span").value(telemetry::span_name(node.span));
  w.key("count").value(node.count);
  w.key("incl_ns").value(node.incl_ns);
  w.key("excl_ns").value(node.excl_ns());
  w.key("child_ns").value(node.child_ns);
  w.key("children").begin_array();
  for (const auto& child : node.children) write_node(w, child);
  w.end_array();
  w.end_object();
}

void write_profile_section(util::JsonWriter& w) {
  const profiler::TreeSnapshot snap = profiler::merged_tree();
  w.key("profile").begin_object();
  w.key("threads").value(static_cast<std::uint64_t>(snap.threads));
  w.key("dropped").value(snap.dropped);
  w.key("tree").begin_array();
  for (const auto& root : snap.roots) write_node(w, root);
  w.end_array();
  w.key("parallel").begin_array();
  for (const auto& site : profiler::parallel_stats()) {
    w.begin_object();
    w.key("site").value(site.site);
    w.key("calls").value(site.calls);
    w.key("items").value(site.items);
    w.key("wall_ns").value(site.wall_ns);
    w.key("busy_ns").value(site.busy_ns);
    w.key("imbalance").value(site.worst_imbalance);
    w.key("workers").begin_array();
    for (std::size_t slot = 0; slot < site.worker_busy_ns.size(); ++slot) {
      w.begin_object();
      w.key("busy_ns").value(site.worker_busy_ns[slot]);
      w.key("items").value(site.worker_items[slot]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// Write `text` to the layer's path when the layer is live and has one.
bool export_if_requested(Layer layer, const auto& render) {
  if (!on(layer)) return true;
  const std::string target = path(layer);
  return target.empty() || write_file_atomic(target, render());
}

}  // namespace

void write_json_sections(util::JsonWriter& w) {
  const std::uint32_t bits = layers();
  if ((bits & kSpanRecording) != 0) write_telemetry_section(w);
  if ((bits & kProbe) != 0) write_link_quality_section(w);
  if ((bits & kMetrics) != 0) write_metrics_sections(w);
  if ((bits & kProfile) != 0) write_profile_section(w);
}

bool write_exports() {
  bool ok = true;
  // A set CBMA_TRACE owes a file even when nothing was recorded: the
  // export is a valid (possibly empty) trace, not a missing one.
  if (const std::string trace = path(kTrace); !trace.empty()) {
    const auto snap = telemetry::snapshot();
    ok &= write_file_atomic(trace, chrome_trace_json(snap.events, snap.frames) + '\n');
  }
  if (on(kProbe) && !path(kProbe).empty()) ok &= write_probe_dump(path(kProbe));
  ok &= export_if_requested(kMetrics,
                            [] { return prometheus_text(metrics::snapshot()); });
  ok &= export_if_requested(kProfile, [] { return collapsed(); });
  return ok;
}

void record_cell(const CellSample& sample) {
  if (!metrics::enabled()) return;
  const std::string scope = "cell=" + std::to_string(sample.cell_id);
  metrics::push("net.cell.goodput_bps", scope, sample.goodput_bps, "bps");
  metrics::push("net.cell.fer", scope, sample.frame_error_rate);
  metrics::push("net.cell.tags_served", scope,
                static_cast<double>(sample.tags_served));
  metrics::push("net.cell.tags_total", scope,
                static_cast<double>(sample.tags_total));
  metrics::push("net.cell.sent", scope, static_cast<double>(sample.sent));
  metrics::push("net.cell.acked", scope, static_cast<double>(sample.acked));
  for (std::size_t o = 0; o < sample.outcomes.size(); ++o) {
    if (sample.outcomes[o] == 0) continue;
    metrics::push(std::string("rx.outcome.") +
                      rx::to_string(static_cast<rx::DecodeOutcome>(o)),
                  scope, static_cast<double>(sample.outcomes[o]));
  }
  if (sample.quality.frames > 0) {
    metrics::push("link.snr_db", scope, sample.quality.snr_db_mean(), "dB");
    metrics::push("link.evm", scope, sample.quality.evm_mean());
    metrics::push("link.soft_margin", scope, sample.quality.soft_margin_mean());
    metrics::push("link.margin_ratio", scope,
                  sample.quality.margin_ratio_mean());
  }
}

void tick() {
  if (!metrics::enabled()) return;
  metrics::advance_window();
  export_if_requested(kMetrics,
                      [] { return prometheus_text(metrics::snapshot()); });
}

std::string chrome_trace_json(std::span<const telemetry::TraceEvent> events,
                              std::span<const telemetry::FrameTrace> frames) {
  // Rebase to the earliest timestamp so the viewer opens at t = 0 instead
  // of hours into the steady clock's epoch.
  std::uint64_t t0 = ~0ull;
  for (const auto& e : events) t0 = std::min(t0, e.ts_ns);
  for (const auto& f : frames) t0 = std::min(t0, f.ts_ns);
  if (t0 == ~0ull) t0 = 0;
  const auto us = [t0](std::uint64_t ns) {
    return static_cast<double>(ns - t0) / 1e3;
  };

  util::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const auto& e : events) {
    w.begin_object();
    w.key("name").value(telemetry::span_name(e.span));
    w.key("ph").value("X");
    w.key("ts").value(us(e.ts_ns));
    w.key("dur").value(static_cast<double>(e.dur_ns) / 1e3);
    w.key("pid").value(1);
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    w.end_object();
  }
  for (const auto& f : frames) {
    w.begin_object();
    w.key("name").value("frame");
    w.key("ph").value("i");
    w.key("ts").value(us(f.ts_ns));
    w.key("pid").value(1);
    w.key("tid").value(0);
    w.key("s").value("g");  // global-scope instant: visible on every track
    w.key("args").begin_object();
    w.key("seq").value(f.seq);
    w.key("tag").value(static_cast<std::uint64_t>(f.tag_id));
    w.key("code_length").value(static_cast<std::uint64_t>(f.pn_code_length));
    w.key("correlation").value(f.correlation);
    w.key("margin").value(f.margin);
    w.key("cfo_hz").value(f.cfo_hz);
    w.key("power_dbm").value(f.power_dbm);
    w.key("impedance_level")
        .value(static_cast<std::uint64_t>(f.impedance_level));
    w.key("outcome").value(static_cast<std::uint64_t>(f.outcome));
    w.key("impairment_gates")
        .value(static_cast<std::uint64_t>(f.impairment_gates));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ns");
  w.end_object();
  return w.str();
}

std::string prometheus_text(const metrics::Snapshot& snap) {
  std::string out;
  out += "# CBMA metrics-plane exposition (DESIGN.md \xC2\xA7"
         "7); rewritten atomically per window.\n";
  out += "# TYPE cbma_metrics_windows_total counter\n";
  out += "cbma_metrics_windows_total ";
  append_number(out, static_cast<double>(snap.windows));
  out += "\n# TYPE cbma_metrics_series gauge\ncbma_metrics_series ";
  append_number(out, static_cast<double>(snap.series.size()));
  out += "\n# TYPE cbma_metrics_events_total counter\n"
         "cbma_metrics_events_total ";
  append_number(out, static_cast<double>(snap.events.size()));
  out += "\n# TYPE cbma_metrics_dropped_total counter\n"
         "cbma_metrics_dropped_total ";
  append_number(out, static_cast<double>(snap.dropped_points +
                                         snap.dropped_series +
                                         snap.dropped_events));
  out += "\n";

  // Each series exposes its latest value as a gauge. The snapshot is
  // (name, scope)-sorted, so a metric's scoped rows are contiguous and
  // its TYPE line is emitted once.
  std::string prev_name;
  for (const auto& s : snap.series) {
    if (s.points.empty()) continue;
    const std::string metric = sanitize_metric_name(s.name);
    if (s.name != prev_name) {
      if (!s.unit.empty()) out += "# HELP " + metric + " unit: " + s.unit + "\n";
      out += "# TYPE " + metric + " gauge\n";
      prev_name = s.name;
    }
    out += metric + scope_labels(s.scope) + " ";
    append_number(out, s.points.back().value);
    out += "\n";
  }

  std::uint64_t by_severity[static_cast<std::size_t>(metrics::Severity::kCount)] = {};
  for (const auto& e : snap.events) {
    if (e.severity < metrics::Severity::kCount) {
      ++by_severity[static_cast<std::size_t>(e.severity)];
    }
  }
  out += "# TYPE cbma_events gauge\n";
  for (std::size_t s = 0; s < static_cast<std::size_t>(metrics::Severity::kCount);
       ++s) {
    out += std::string("cbma_events{severity=\"") +
           metrics::severity_name(static_cast<metrics::Severity>(s)) + "\"} ";
    append_number(out, static_cast<double>(by_severity[s]));
    out += "\n";
  }
  return out;
}

std::vector<ProfileRow> top_exclusive(std::size_t n) {
  std::vector<ProfileRow> rows = flatten_tree();
  std::sort(rows.begin(), rows.end(), [](const ProfileRow& a, const ProfileRow& b) {
    if (a.excl_ns != b.excl_ns) return a.excl_ns > b.excl_ns;
    return a.path < b.path;
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

std::string collapsed() {
  std::vector<ProfileRow> rows = flatten_tree();
  // Flamegraph semantics: a frame's own width is its exclusive time, so
  // zero-exclusive rows (pass-through parents, context anchors) are implied
  // by their children and add nothing.
  std::sort(rows.begin(), rows.end(),
            [](const ProfileRow& a, const ProfileRow& b) { return a.path < b.path; });
  std::string out;
  char buf[32];
  for (const auto& row : rows) {
    if (row.excl_ns == 0) continue;
    std::snprintf(buf, sizeof buf, " %llu\n",
                  static_cast<unsigned long long>(row.excl_ns));
    out += row.path;
    out += buf;
  }
  return out;
}

}  // namespace cbma::obs
