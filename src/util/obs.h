// The observability plane, recording half (DESIGN.md §7). One switchboard
// says which layers are live; one per-thread sink holds span histograms,
// counters, the flight recorder, trace events and the caller-path tree;
// one mutex-guarded store holds the probe captures, the windowed metric
// series, the event log and the parallel_for reports. core/obs owns every
// export format and the files they land in.
//
// The pipeline keeps four call vocabularies, one per question:
//   telemetry::  how long did each stage take, how often did X happen,
//                and why did each frame live or die (flight recorder);
//   probe::      what did the signal look like at each stage;
//   metrics::    how do the numbers move window by window, per cell;
//   profiler::   where inside the caller path did the time go.
//
// Contract: **off is a strict identity.** Every recording entry point is
// guarded by one inline relaxed load of the switchboard bitmask. Off, no
// clock is read, no sink or store is allocated, and nothing is written.
// The plane never draws randomness, so every bench table and BENCH_*.json
// stays byte-identical whether it is compiled in or not.
#pragma once

#include <array>
#include <atomic>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cbma::util {
struct ParallelStats;  // util/parallel.h
}  // namespace cbma::util

namespace cbma::obs {

// --- switchboard -----------------------------------------------------------

/// One bit per layer. Filled once at start-up from CBMA_TELEMETRY (set and
/// not "0"), CBMA_TRACE, CBMA_PROBE, CBMA_METRICS and CBMA_PROFILE (each
/// non-empty; the value is that layer's export path). set() and
/// set_path() change it afterwards.
enum Layer : std::uint32_t {
  kTelemetry = 1u << 0,  ///< span histograms, counters, flight recorder
  kTrace = 1u << 1,      ///< Chrome trace file (+ per-span events)
  kProbe = 1u << 2,      ///< waveform taps + link-quality rows
  kMetrics = 1u << 3,    ///< windowed series + event log
  kProfile = 1u << 4,    ///< caller-path tree + parallel_for reports
};

/// The metrics plane samples span histograms and counters, so metrics on
/// means spans and counters are recorded. This is computed when the bits
/// are read, never stored: turning metrics off turns the recording off.
inline constexpr std::uint32_t kSpanRecording = kTelemetry | kMetrics;

/// The bitmask itself. Constant-initialised to 0 (everything off).
extern constinit std::atomic<std::uint32_t> g_layers;

inline std::uint32_t layers() {
  return g_layers.load(std::memory_order_relaxed);
}
inline bool on(std::uint32_t mask) { return (layers() & mask) != 0; }

void set(Layer layer, bool on);

/// Export path of a file-producing layer ("" = no file). kTelemetry has
/// no file of its own; its path is always "".
std::string path(Layer layer);
void set_path(Layer layer, std::string path);

/// Drop every recorded span, counter, frame, trace event, tree node,
/// probe capture, series, event, parallel report and window baseline.
/// Switchboard bits and paths are unchanged; sinks stay registered.
/// Sequential-only: no span may be live and no worker recording.
void reset();

/// Per-thread sinks registered so far. 0 proves the off path never
/// allocated one.
std::size_t sink_count();

}  // namespace cbma::obs

namespace cbma::telemetry {

/// Every timed stage of the pipeline. Names follow "layer/stage"
/// (span_name); add new stages at the end and name them there.
enum class Span : std::uint8_t {
  kTransmitTotal,        ///< one CbmaSystem::transmit call, end to end
  kTransmitSpread,       ///< framing + spreading + modulation (chip expansion)
  kTransmitImpairments,  ///< tag-side fault-injection draws
  kChannelSynthesis,     ///< rfsim::Channel::receive_into window synthesis
  kRxProcess,            ///< rx::Receiver::process_iq, end to end
  kRxFrameSync,          ///< energy-envelope frame synchronization
  kRxDetect,             ///< correlation user detection (incl. SIC)
  kRxDecode,             ///< per-user coherent decode
  kSweepPoint,           ///< one SweepRunner grid-point body
  kSweepRun,             ///< one SweepRunner::run, end to end
  kBenchIteration,       ///< bench_kernels manual-timed iteration
  kNetRound,             ///< one net::Network::run_round, end to end
  kNetAssociate,         ///< association / hysteresis-roaming pass
  kNetCellRound,         ///< one cell's MAC round inside a network round
  kCount
};
inline constexpr std::size_t kSpanCount = static_cast<std::size_t>(Span::kCount);
const char* span_name(Span s);

/// Monotonic event counters ("layer.event" naming, counter_name).
enum class Counter : std::uint8_t {
  kTransmitPackets,       ///< transmit() calls
  kTransmitFramesSent,    ///< frames put on the air (sum of group sizes)
  kRxFramesDecoded,       ///< CRC+id verified frames
  kRxSyncAttempts,        ///< frame-sync triggers examined
  kRxDetections,          ///< correlation peaks above threshold
  kRxOutcomeOk,           ///< per-frame DecodeOutcome tallies…
  kRxOutcomeNoFrameSync,
  kRxOutcomeNotDetected,
  kRxOutcomeTruncated,
  kRxOutcomeBadCrc,
  kRxOutcomeIdMismatch,
  kChannelWindows,        ///< synthesized receive windows
  kChannelSamples,        ///< complex samples synthesized
  kImpairmentClockPerturbs,
  kImpairmentSwitchJitters,
  kImpairmentDropoutGates,     ///< envelopes gated by dropout bursts
  kImpairmentImpulsiveBursts,  ///< impulsive bursts injected
  kImpairmentAdcClippedSamples,
  kSweepPoints,           ///< grid points executed
  kSweepWorkers,          ///< worker threads launched across runs
  kArqOffered,
  kArqDelivered,
  kArqDropped,
  kArqTransmissions,
  kNodeSelectAbandoned,   ///< slots below the bad-ACK threshold
  kNodeSelectReplaced,    ///< slots actually swapped for a candidate
  kNodeSelectAnnealed,    ///< non-improving candidates accepted
  kRxDetectNaiveBatches,  ///< detection peak batches run on the naive path
  kRxDetectFftBatches,    ///< detection peak batches run on the FFT path
  kNetRoundsRun,          ///< multi-cell network MAC rounds completed
  kNetCellRounds,         ///< per-cell MAC rounds inside network rounds
  kNetTagRoams,           ///< tags re-associated by the roaming pass
  kNetIntercellInterferers,  ///< foreign-gateway leakage terms summed in
  kCount
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
const char* counter_name(Counter c);

/// One frame's flight-recorder entry: the causal context the paper's
/// evaluation reasons about (who sent, how strongly, what the correlator
/// saw, why the frame lived or died, which faults were active).
struct FrameTrace {
  std::uint64_t seq = 0;        ///< global order stamp (assigned on record)
  std::uint64_t ts_ns = 0;      ///< util::monotonic_ns at record time
  std::uint32_t tag_id = 0;     ///< group slot / code index
  std::uint32_t pn_code_length = 0;
  double correlation = 0.0;     ///< normalized correlation peak
  double margin = 0.0;          ///< peak minus the detection threshold
  double cfo_hz = 0.0;          ///< carrier frequency offset on the air
  double power_dbm = 0.0;       ///< received backscatter power
  std::uint32_t impedance_level = 0;
  std::uint8_t outcome = 0;     ///< rx::DecodeOutcome as an integer
  std::uint8_t impairment_gates = 0;  ///< bit per enabled stage, see masks
};

/// FrameTrace::impairment_gates bit assignments (ImpairmentConfig order).
inline constexpr std::uint8_t kGateDropout = 1u << 0;
inline constexpr std::uint8_t kGateDrift = 1u << 1;
inline constexpr std::uint8_t kGateSwitching = 1u << 2;
inline constexpr std::uint8_t kGateImpulsive = 1u << 3;
inline constexpr std::uint8_t kGateAdc = 1u << 4;

/// Flight-recorder depth per thread, and the cap of the merged export.
inline constexpr std::size_t kFlightRecorderCapacity = 256;

/// One recorded span occurrence, kept only while kTrace is on too — the
/// raw material of the Chrome/Perfetto timeline export.
struct TraceEvent {
  Span span = Span::kTransmitTotal;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< registry-assigned thread index
};

/// Spans and counters are recorded (kTelemetry or kMetrics).
inline bool enabled() { return obs::on(obs::kSpanRecording); }

namespace detail {
void record_span(Span s, std::uint64_t start_ns, std::uint64_t dur_ns);
void add_count(Counter c, std::uint64_t n);
void record_frame(const FrameTrace& frame);
}  // namespace detail

inline void record_span(Span s, std::uint64_t start_ns, std::uint64_t dur_ns) {
  if (enabled()) detail::record_span(s, start_ns, dur_ns);
}
inline void count(Counter c, std::uint64_t n = 1) {
  if (enabled()) detail::add_count(c, n);
}
/// seq and ts are stamped inside.
inline void record_frame(const FrameTrace& frame) {
  if (enabled()) detail::record_frame(frame);
}

/// RAII span timer feeding both the flat histograms (kSpanRecording) and
/// the profiler's caller-path tree (kProfile). Off, it costs one relaxed
/// load. The live layers are sampled once at construction, so flipping a
/// switch mid-span cannot unbalance the profiler's stack.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span s) : span_(s) {
    const std::uint32_t bits = obs::layers();
    if ((bits & (obs::kSpanRecording | obs::kProfile)) != 0) begin(bits);
  }
  ~ScopedSpan() {
    if (flags_ != 0) end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(std::uint32_t bits);
  void end();

  Span span_;
  std::uint8_t flags_ = 0;  ///< bit 1 = histogram, bit 2 = tree
  std::uint64_t start_ns_ = 0;
};

// --- duration histogram ----------------------------------------------------
// Log₂ octaves with 4 linear sub-buckets each. The metrics plane computes
// per-window percentiles from bucket deltas, and the edge tests pin the
// bucketing math itself.

/// Bucket count covering the full uint64 ns range (indices 0–7 are exact
/// small values; above that each octave splits into quarters).
inline constexpr std::size_t kHistogramBuckets = 256;

/// The bucket a duration lands in. Quantile error ≤ 12.5 % (sub-bucket
/// width), exact below 8 ns.
std::size_t histogram_bucket_of(std::uint64_t ns);

/// Midpoint of a bucket — the value quantiles report for it.
double histogram_bucket_mid(std::size_t idx);

/// Quantile q ∈ [0,1] over a raw bucket array holding `count` samples:
/// walks cumulative counts to rank q·(count−1). Returns `fallback` when the
/// histogram is empty or the rank walks off the end.
double histogram_quantile(const std::uint64_t* buckets, std::uint64_t count,
                          double q, double fallback);

/// Raw merged histogram of one span across every thread sink.
struct SpanHistogram {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

// --- aggregation (sequential-only: call after workers joined) --------------

struct SpanSnapshot {
  Span id = Span::kTransmitTotal;
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;  ///< histogram quantiles (≤ 12.5 % bucket error)
  double p90_ns = 0.0;
  double p99_ns = 0.0;
};

struct CounterSnapshot {
  Counter id = Counter::kTransmitPackets;
  std::string name;
  std::uint64_t value = 0;
};

struct Snapshot {
  std::vector<SpanSnapshot> spans;        ///< spans with count > 0 only
  std::vector<CounterSnapshot> counters;  ///< non-zero counters only
  std::vector<FrameTrace> frames;   ///< merged rings, seq order, last N
  std::vector<TraceEvent> events;   ///< merged, ts order
  std::size_t threads = 0;          ///< sinks that recorded any of these
};

Snapshot snapshot();

}  // namespace cbma::telemetry

namespace cbma::probe {

/// Every tapped stage of the pipeline, in signal-flow order. Names
/// (tap_name) are the wire format of the dump manifest.
enum class Tap : std::uint8_t {
  kExcitationEnvelope,   ///< post-impairment excitation envelope (rfsim::Channel)
  kCompositeIq,          ///< fully composed antenna window after distort_rx
  kSyncEnergy,           ///< magnitude envelope frame sync runs on (rx::Receiver)
  kCorrelationProfile,   ///< per-code |correlation| vs lag (rx::UserDetector)
  kSoftBits,             ///< per-bit coherent soft values (rx::Decoder output)
  kCount
};
inline constexpr std::size_t kTapCount = static_cast<std::size_t>(Tap::kCount);
const char* tap_name(Tap t);

/// Capture bounds: per-tap record cap and per-record sample cap (longer
/// traces are truncated, never dropped). Kilobyte-scale by construction.
inline constexpr std::size_t kMaxRecordsPerTap = 256;
inline constexpr std::size_t kMaxSamplesPerRecord = 1u << 16;
inline constexpr std::size_t kMaxLinkQualitySamples = 4096;

/// One captured trace: real data holds `data.size()` samples, complex data
/// interleaves re/im pairs (`data.size() / 2` samples).
struct TapRecord {
  Tap tap = Tap::kExcitationEnvelope;
  std::uint64_t seq = 0;      ///< capture order, shared with link rows
  std::uint64_t point = 0;    ///< sweep point (ScopedPoint), 0 outside sweeps
  std::uint32_t context = 0;  ///< tag/code index; 0 for window-level taps
  bool complex_iq = false;
  std::vector<double> data;
};

/// One per-tag link-quality row (field meanings: rx::LinkQualityReport;
/// the util layer does not depend on rx).
struct LinkQualitySample {
  std::uint64_t seq = 0;
  std::uint64_t point = 0;
  std::uint32_t tag = 0;
  bool detected = false;
  bool decoded = false;
  double snr_db = 0.0;
  double evm = 0.0;
  double soft_margin = 0.0;
  double margin_ratio = 0.0;
  double power_norm = 0.0;
  double correlation = 0.0;
};

inline bool enabled() { return obs::on(obs::kProbe); }

namespace detail {
void record_tap(Tap t, std::uint32_t context, std::span<const double> samples);
void record_tap_iq(Tap t, std::uint32_t context,
                   std::span<const std::complex<double>> iq);
void record_link_quality(const LinkQualitySample& sample);
}  // namespace detail

inline void record_tap(Tap t, std::uint32_t context,
                       std::span<const double> samples) {
  if (enabled()) detail::record_tap(t, context, samples);
}
inline void record_tap_iq(Tap t, std::uint32_t context,
                          std::span<const std::complex<double>> iq) {
  if (enabled()) detail::record_tap_iq(t, context, iq);
}
inline void record_link_quality(const LinkQualitySample& sample) {
  if (enabled()) detail::record_link_quality(sample);
}

/// Labels every record made on this thread while alive with a sweep-point
/// index (SweepRunner wraps each grid-point body in one). Zero work when
/// probing is off at construction.
class ScopedPoint {
 public:
  explicit ScopedPoint(std::uint64_t point);
  ~ScopedPoint();
  ScopedPoint(const ScopedPoint&) = delete;
  ScopedPoint& operator=(const ScopedPoint&) = delete;

 private:
  bool active_;
  std::uint64_t previous_ = 0;
};

/// The point label records currently get on this thread (0 = none).
std::uint64_t current_point();

struct Capture {
  std::vector<TapRecord> taps;           ///< capture (seq) order
  std::vector<LinkQualitySample> link;   ///< capture (seq) order
  std::size_t dropped_taps = 0;          ///< records lost to kMaxRecordsPerTap
  std::size_t dropped_link = 0;          ///< rows lost to kMaxLinkQualitySamples
};

Capture snapshot();

}  // namespace cbma::probe

namespace cbma::metrics {

/// Capacity bounds: overflow counts drops, never grows.
inline constexpr std::size_t kMaxSeries = 512;
inline constexpr std::size_t kWindowCapacity = 256;  ///< points per series
inline constexpr std::size_t kMaxEvents = 1024;

/// Event severity; severity_name() is the wire label.
enum class Severity : std::uint8_t { kInfo, kWarning, kError, kCount };
const char* severity_name(Severity s);

/// One windowed sample: the window index it was recorded in, its value.
struct SeriesPoint {
  std::uint64_t window = 0;
  double value = 0.0;
};

/// One series' exported state, ring contents oldest → newest.
struct SeriesSnapshot {
  std::string name;
  std::string scope;  ///< "" = global rollup; "cell=3" = per-cell
  std::string unit;   ///< "" when dimensionless
  std::vector<SeriesPoint> points;
};

/// One structured event-log entry.
struct Event {
  std::uint64_t seq = 0;     ///< global record order
  std::uint64_t window = 0;  ///< window index at record time
  Severity severity = Severity::kInfo;
  std::string type;   ///< "roam", "code_slice_overflow", "watchdog", ...
  std::string scope;  ///< same scope vocabulary as series
  double value = 0.0;
  std::string detail;
};

struct Snapshot {
  std::uint64_t windows = 0;  ///< windows closed so far
  std::vector<SeriesSnapshot> series;  ///< sorted by (name, scope)
  std::vector<Event> events;           ///< seq order
  std::uint64_t dropped_points = 0;    ///< ring overwrites (oldest lost)
  std::uint64_t dropped_series = 0;    ///< pushes refused at kMaxSeries
  std::uint64_t dropped_events = 0;    ///< events refused at kMaxEvents
};

inline bool enabled() { return obs::on(obs::kMetrics); }

namespace detail {
void push(std::string_view name, std::string_view scope, double value,
          std::string_view unit);
void push_event(Severity severity, std::string_view type,
                std::string_view scope, double value, std::string_view detail);
}  // namespace detail

/// Append one sample to series (name, scope) in the open window. `unit` is
/// recorded on first touch of a series and ignored afterwards.
inline void push(std::string_view name, std::string_view scope, double value,
                 std::string_view unit = {}) {
  if (enabled()) detail::push(name, scope, value, unit);
}

/// Append one event to the bounded log.
inline void push_event(Severity severity, std::string_view type,
                       std::string_view scope, double value,
                       std::string_view detail) {
  if (enabled()) detail::push_event(severity, type, scope, value, detail);
}

/// Close the open window: push each fired counter's delta since the last
/// close and each span's count/mean/p50/p90/p99 over the spans recorded
/// since then, then open the next window. Returns its index (0 when off).
/// Sequential-only, like the snapshots.
std::uint64_t advance_window();
std::uint64_t current_window();

Snapshot snapshot();

}  // namespace cbma::metrics

namespace cbma::profiler {

/// Per-thread node-pool capacity: distinct caller paths per thread. Deeper
/// or wider trees drop nodes (counted in TreeSnapshot::dropped) instead of
/// allocating.
inline constexpr std::size_t kNodeCapacity = 512;

inline bool enabled() { return obs::on(obs::kProfile); }

// --- parallel_for context propagation --------------------------------------

/// The calling thread's current span path, outermost first. parallel_for
/// captures this before spawning workers.
std::vector<telemetry::Span> current_path();

/// Replay `path` on the calling (worker) thread as structural "context"
/// nodes: they anchor the worker's subtree under the launching span but
/// record no count and no time of their own.
void enter_context(const std::vector<telemetry::Span>& path);

/// Pop `depth` context levels pushed by enter_context.
void exit_context(std::size_t depth);

// --- parallel_for worker-utilization reports -------------------------------

/// Per-site aggregate of every ParallelStats report published under one
/// label ("sweep/run", "net/round").
struct ParallelSiteStats {
  std::string site;
  std::uint64_t calls = 0;     ///< parallel_for invocations recorded
  std::uint64_t items = 0;     ///< Σ n over those invocations
  std::uint64_t wall_ns = 0;   ///< Σ wall time of the parallel regions
  std::uint64_t busy_ns = 0;   ///< Σ worker busy time (≤ wall × workers)
  double worst_imbalance = 1.0;  ///< max over calls of max-busy ÷ mean-busy
  std::vector<std::uint64_t> worker_busy_ns;  ///< per pool slot, summed
  std::vector<std::uint64_t> worker_items;    ///< per pool slot, summed
};

/// Publish one parallel_for's stats under `site`. No-op unless the
/// profiler is on and the stats were collected. Sequential-only.
void record_parallel(const char* site, const util::ParallelStats& stats);

/// Merged per-site aggregates, sorted by site name.
std::vector<ParallelSiteStats> parallel_stats();

// --- aggregation -----------------------------------------------------------

/// One node of the merged attribution tree. child_ns only ever counts
/// same-thread children, so excl_ns() = incl_ns − child_ns is exact.
struct MergedNode {
  telemetry::Span span = telemetry::Span::kTransmitTotal;
  std::uint64_t count = 0;     ///< completed occurrences of this path
  std::uint64_t incl_ns = 0;   ///< wall time inside this path
  std::uint64_t child_ns = 0;  ///< time in same-thread direct children
  std::vector<MergedNode> children;  ///< sorted by span id (deterministic)
  std::uint64_t excl_ns() const { return incl_ns - child_ns; }
};

struct TreeSnapshot {
  std::vector<MergedNode> roots;  ///< sorted by span id
  std::size_t threads = 0;        ///< sinks that recorded any node
  std::uint64_t dropped = 0;      ///< spans lost to pool exhaustion
};

TreeSnapshot merged_tree();

}  // namespace cbma::profiler
