// The observability plane, export half (DESIGN.md §7). util/obs records;
// this module turns the records into every format that leaves the
// process, and writes every file through one atomic writer:
//
//  * BENCH_*.json sections (write_json_sections): "telemetry",
//    "link_quality", "timeseries" + "events" and "profile", each present
//    only while its layer is live, so an obs-off document is byte-identical;
//  * files (write_exports): the Chrome trace (CBMA_TRACE), the CBPROBE1
//    probe dump + manifest (CBMA_PROBE), the Prometheus exposition
//    (CBMA_METRICS) and the collapsed-stack flamegraph (CBMA_PROFILE).
//
// It also owns the metrics plane's window cadence (tick, one window per
// call) and the per-cell attribution, because both speak rx:: vocabulary.
// Same namespace as util/obs: one plane, two libraries.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.h"
#include "util/obs.h"

namespace cbma::util {
class JsonWriter;
}  // namespace cbma::util

namespace cbma::obs {

/// Version of the probe dump + manifest layout. Bump on breaking changes
/// and describe the migration in DESIGN.md §7.
inline constexpr int kProbeDumpSchemaVersion = 1;

/// Write `bytes` to `path`: create missing parent directories, write
/// "<path>.tmp", then rename it over the target, so a reader never sees a
/// torn file. Returns false with a stderr diagnostic on any failure.
bool write_file_atomic(const std::string& path, std::string_view bytes);

/// Append every live layer's section to an open JSON object scope, in the
/// order telemetry, link_quality, timeseries + events, profile.
void write_json_sections(util::JsonWriter& w);

/// Write every requested export file. The trace is written whenever a
/// CBMA_TRACE path is set (an empty run still owes a valid document);
/// the others when their layer is live and has a path. Returns false if
/// any write failed.
bool write_exports();

// --- metrics plane ---------------------------------------------------------

/// One cell's contribution to the open window; net::Network fills one per
/// cell each round.
struct CellSample {
  std::size_t cell_id = 0;
  double goodput_bps = 0.0;
  double frame_error_rate = 0.0;
  std::size_t tags_served = 0;
  std::size_t tags_total = 0;
  std::size_t sent = 0;
  std::size_t acked = 0;
  std::array<std::size_t, core::kDecodeOutcomeCount> outcomes{};
  rx::LinkQualityRollup quality;
};

/// Attribute one cell's round to scope "cell=<id>": goodput, FER, slot
/// occupancy, non-zero decode outcomes and the link-quality means.
void record_cell(const CellSample& sample);

/// Per-round heartbeat: close one metrics window (metrics::advance_window)
/// and rewrite the Prometheus file if a path is set. No-op while metrics
/// is off. Sequential-only.
void tick();

// --- formats (exposed for tests and tools) ---------------------------------

/// Chrome trace_event document: span occurrences as "ph":"X" slices on
/// their thread's track, flight-recorder frames as global "ph":"i"
/// instants. Microseconds, rebased so the earliest event sits at t = 0.
std::string chrome_trace_json(std::span<const telemetry::TraceEvent> events,
                              std::span<const telemetry::FrameTrace> frames);

/// Prometheus text exposition: one gauge per series carrying its latest
/// value, scope rendered as a label ("cell=3" → {cell="3"}), names
/// sanitized with a "cbma_" prefix, plus the meta gauges.
std::string prometheus_text(const metrics::Snapshot& snap);

/// One flattened caller path ("net/round;net/cell_round;rx/process").
struct ProfileRow {
  std::string path;
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t excl_ns = 0;
};

/// The top `n` caller paths by exclusive time (descending; ties break on
/// the path, so the order is deterministic).
std::vector<ProfileRow> top_exclusive(std::size_t n);

/// Collapsed-stack flamegraph: one "frame;frame <exclusive ns>" line per
/// caller path with non-zero exclusive time, sorted by path.
std::string collapsed();

}  // namespace cbma::obs
