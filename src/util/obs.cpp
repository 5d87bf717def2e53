#include "util/obs.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "util/parallel.h"
#include "util/ring_buffer.h"
#include "util/timer.h"

namespace cbma::obs {

constinit std::atomic<std::uint32_t> g_layers{0};

namespace {

constexpr std::size_t kLayerSlots = 5;

std::size_t slot_of(Layer layer) {
  return static_cast<std::size_t>(std::countr_zero(static_cast<std::uint32_t>(layer)));
}

struct Paths {
  std::mutex mu;
  std::array<std::string, kLayerSlots> by_layer;
};

Paths& paths() {
  static Paths p;
  return p;
}

/// The plane's only environment read, run once during static
/// initialisation of this file. Everything after it goes through set().
const bool g_read_environment = [] {
  const auto var = [](const char* name) {
    const char* e = std::getenv(name);
    return std::string(e != nullptr ? e : "");
  };
  std::uint32_t bits = 0;
  const std::string telemetry = var("CBMA_TELEMETRY");
  if (!telemetry.empty() && telemetry != "0") bits |= kTelemetry;
  auto& p = paths();
  for (const auto& [layer, name] :
       {std::pair{kTrace, "CBMA_TRACE"}, std::pair{kProbe, "CBMA_PROBE"},
        std::pair{kMetrics, "CBMA_METRICS"},
        std::pair{kProfile, "CBMA_PROFILE"}}) {
    std::string value = var(name);
    if (value.empty()) continue;
    bits |= layer;
    p.by_layer[slot_of(layer)] = std::move(value);
  }
  g_layers.fetch_or(bits, std::memory_order_relaxed);
  return true;
}();

}  // namespace

void set(Layer layer, bool on) {
  if (on) {
    g_layers.fetch_or(layer, std::memory_order_relaxed);
  } else {
    g_layers.fetch_and(~static_cast<std::uint32_t>(layer),
                       std::memory_order_relaxed);
  }
}

std::string path(Layer layer) {
  auto& p = paths();
  const std::lock_guard<std::mutex> lock(p.mu);
  return p.by_layer[slot_of(layer)];
}

void set_path(Layer layer, std::string path) {
  auto& p = paths();
  const std::lock_guard<std::mutex> lock(p.mu);
  p.by_layer[slot_of(layer)] = std::move(path);
}

}  // namespace cbma::obs

namespace cbma::telemetry {

std::size_t histogram_bucket_of(std::uint64_t ns) {
  if (ns < 8) return static_cast<std::size_t>(ns);
  const int msb = std::bit_width(ns) - 1;  // ≥ 3
  const auto sub = static_cast<std::size_t>((ns >> (msb - 2)) & 3u);
  return 8 + static_cast<std::size_t>(msb - 3) * 4 + sub;
}

double histogram_bucket_mid(std::size_t idx) {
  if (idx < 8) return static_cast<double>(idx);
  const std::size_t msb = (idx - 8) / 4 + 3;
  const std::size_t sub = (idx - 8) % 4;
  const double lower =
      static_cast<double>((4u + sub)) * static_cast<double>(1ull << (msb - 2));
  const double width = static_cast<double>(1ull << (msb - 2));
  return lower + width / 2.0;
}

double histogram_quantile(const std::uint64_t* buckets, std::uint64_t count,
                          double q, double fallback) {
  if (count == 0) return fallback;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen > target) return histogram_bucket_mid(b);
  }
  return fallback;
}

}  // namespace cbma::telemetry

namespace cbma::obs {
namespace {

using telemetry::Span;
using telemetry::kSpanCount;
using telemetry::kCounterCount;
using telemetry::kHistogramBuckets;

struct SpanAccum {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = ~0ull;
  std::uint64_t max_ns = 0;
  std::uint32_t hist[kHistogramBuckets] = {};
};

/// One caller-path node. Children form a singly-linked list off the
/// parent (new children prepend); the span vocabulary bounds the fan-out,
/// so the linear scan beats any hashing.
struct Node {
  Span span = Span::kTransmitTotal;
  std::int32_t parent = -1;
  std::int32_t first_child = -1;
  std::int32_t next_sibling = -1;
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t child_ns = 0;
  /// Structural replica of a parallel_for caller path: records no time of
  /// its own, and child exits must not fold into it (its inclusive time
  /// stays 0, so folding would drive exclusive time negative).
  bool context = false;
};

/// Per-event capture cap per thread: a runaway trace degrades to "first
/// 64k events per thread" instead of exhausting memory.
constexpr std::size_t kMaxTraceEventsPerThread = 1u << 16;

/// Everything one thread records, written lock-free by its owner only.
struct ThreadSink {
  // Flat telemetry.
  SpanAccum spans[kSpanCount];
  std::uint64_t counters[kCounterCount] = {};
  util::RingBuffer<telemetry::FrameTrace> frames{2};  ///< flight recorder
  std::vector<telemetry::TraceEvent> events;
  std::uint32_t tid = 0;
  // Caller-path tree.
  std::vector<Node> nodes;          ///< reserved to kNodeCapacity on first use
  std::vector<std::int32_t> roots;  ///< top-level nodes on this thread
  std::int32_t current = -1;        ///< innermost live span (-1 = none)
  std::size_t skip_depth = 0;       ///< live spans beyond pool capacity
  std::uint64_t dropped = 0;

  void clear() {
    for (auto& s : spans) s = SpanAccum{};
    for (auto& c : counters) c = 0;
    frames.clear();
    events.clear();
    nodes.clear();
    roots.clear();
    current = -1;
    skip_depth = 0;
    dropped = 0;
  }
};

/// Owns every sink for the life of the process: a worker thread exiting
/// leaves its data aggregatable, and the thread_local below is a plain
/// pointer with no destructor-ordering hazards.
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  ThreadSink* acquire() {
    const std::lock_guard<std::mutex> lock(mu_);
    auto sink = std::make_unique<ThreadSink>();
    sink->tid = static_cast<std::uint32_t>(sinks_.size());
    sinks_.push_back(std::move(sink));
    return sinks_.back().get();
  }

  template <typename F>
  void for_each(F&& f) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : sinks_) f(*s);
  }

  std::size_t size() {
    const std::lock_guard<std::mutex> lock(mu_);
    return sinks_.size();
  }

  std::atomic<std::uint64_t> frame_seq{0};

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSink>> sinks_;
};

thread_local ThreadSink* t_sink = nullptr;

ThreadSink& sink() {
  if (t_sink == nullptr) t_sink = Registry::instance().acquire();
  return *t_sink;
}

struct Series {
  std::string unit;
  util::RingBuffer<metrics::SeriesPoint> ring{2};  ///< ≤ kWindowCapacity
};

struct SiteAccum {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t busy_ns = 0;
  double worst_imbalance = 1.0;
  std::vector<std::uint64_t> worker_busy_ns;
  std::vector<std::uint64_t> worker_items;
};

/// Everything recorded at capture or window cadence rather than per chip:
/// one mutex-guarded, ordered store.
struct Store {
  std::mutex mu;
  // Probe captures.
  std::vector<probe::TapRecord> taps;
  std::vector<probe::LinkQualitySample> link;
  std::size_t per_tap[probe::kTapCount] = {};
  std::size_t dropped_taps = 0;
  std::size_t dropped_link = 0;
  std::uint64_t probe_seq = 0;
  // Metric series keyed by (name, scope), and the event log.
  std::map<std::pair<std::string, std::string>, Series> series;
  std::vector<metrics::Event> events;
  std::uint64_t window = 0;  ///< current (open) window index
  std::uint64_t event_seq = 0;
  std::uint64_t dropped_points = 0;
  std::uint64_t dropped_series = 0;
  std::uint64_t dropped_events = 0;
  // Telemetry totals at the last window close (the per-window baselines).
  std::array<std::uint64_t, kCounterCount> prev_counters{};
  std::array<telemetry::SpanHistogram, kSpanCount> prev_spans{};
  // parallel_for reports.
  std::map<std::string, SiteAccum> sites;

  void clear() {
    taps.clear();
    link.clear();
    for (auto& c : per_tap) c = 0;
    dropped_taps = dropped_link = 0;
    probe_seq = 0;
    series.clear();
    events.clear();
    window = event_seq = 0;
    dropped_points = dropped_series = dropped_events = 0;
    prev_counters = {};
    prev_spans = {};
    sites.clear();
  }
};

Store& store() {
  static Store s;
  return s;
}

// --- caller-path tree ------------------------------------------------------

/// Descend into (or create) the child of `current` for span `s`. Returns
/// false when the pool is exhausted (the caller bumps skip_depth).
bool push_node(ThreadSink& sk, Span s, bool context) {
  std::int32_t found = -1;
  if (sk.current < 0) {
    for (const std::int32_t r : sk.roots) {
      if (sk.nodes[static_cast<std::size_t>(r)].span == s) {
        found = r;
        break;
      }
    }
  } else {
    for (std::int32_t i =
             sk.nodes[static_cast<std::size_t>(sk.current)].first_child;
         i >= 0; i = sk.nodes[static_cast<std::size_t>(i)].next_sibling) {
      if (sk.nodes[static_cast<std::size_t>(i)].span == s) {
        found = i;
        break;
      }
    }
  }
  if (found < 0) {
    if (sk.nodes.size() >= profiler::kNodeCapacity) return false;
    if (sk.nodes.capacity() == 0) sk.nodes.reserve(profiler::kNodeCapacity);
    Node n;
    n.span = s;
    n.parent = sk.current;
    n.context = context;
    const auto idx = static_cast<std::int32_t>(sk.nodes.size());
    if (sk.current < 0) {
      sk.roots.push_back(idx);
    } else {
      auto& parent = sk.nodes[static_cast<std::size_t>(sk.current)];
      n.next_sibling = parent.first_child;
      parent.first_child = idx;
    }
    sk.nodes.push_back(n);
    found = idx;
  } else if (!context) {
    // A real span re-entering a node first created as context claims it:
    // the node now records time, so child folding must apply to it.
    sk.nodes[static_cast<std::size_t>(found)].context = false;
  }
  sk.current = found;
  return true;
}

void enter_node(ThreadSink& sk, Span s, bool context) {
  if (sk.skip_depth > 0 || !push_node(sk, s, context)) {
    ++sk.skip_depth;
    ++sk.dropped;
  }
}

void pop_node(ThreadSink& sk, std::uint64_t dur_ns, bool context) {
  if (sk.skip_depth > 0) {
    --sk.skip_depth;
    return;
  }
  if (sk.current < 0) return;  // unbalanced exit — defensive, never expected
  auto& node = sk.nodes[static_cast<std::size_t>(sk.current)];
  if (!context) {
    ++node.count;
    node.incl_ns += dur_ns;
  }
  sk.current = node.parent;
  if (!context && node.parent >= 0) {
    auto& parent = sk.nodes[static_cast<std::size_t>(node.parent)];
    if (!parent.context) parent.child_ns += dur_ns;
  }
}

/// Fold the sibling list starting at `first` into `dst`, recursively.
void merge_nodes(std::map<int, profiler::MergedNode>& dst,
                 const ThreadSink& sk, std::int32_t first, bool siblings) {
  for (std::int32_t i = first; i >= 0;
       i = siblings ? sk.nodes[static_cast<std::size_t>(i)].next_sibling : -1) {
    const Node& n = sk.nodes[static_cast<std::size_t>(i)];
    auto& m = dst[static_cast<int>(n.span)];
    m.span = n.span;
    m.count += n.count;
    m.incl_ns += n.incl_ns;
    m.child_ns += n.child_ns;
    std::map<int, profiler::MergedNode> kids;
    for (auto& existing : m.children) {
      kids.emplace(static_cast<int>(existing.span), std::move(existing));
    }
    merge_nodes(kids, sk, n.first_child, /*siblings=*/true);
    m.children.clear();
    m.children.reserve(kids.size());
    for (auto& [id, child] : kids) m.children.push_back(std::move(child));
  }
}

// --- flat telemetry --------------------------------------------------------

void accumulate(ThreadSink& sk, Span s, std::uint64_t start_ns,
                std::uint64_t dur_ns) {
  auto& acc = sk.spans[static_cast<std::size_t>(s)];
  ++acc.count;
  acc.total_ns += dur_ns;
  acc.min_ns = std::min(acc.min_ns, dur_ns);
  acc.max_ns = std::max(acc.max_ns, dur_ns);
  ++acc.hist[telemetry::histogram_bucket_of(dur_ns)];
  if (on(kTrace) && sk.events.size() < kMaxTraceEventsPerThread) {
    sk.events.push_back({s, start_ns, dur_ns, sk.tid});
  }
}

std::array<telemetry::SpanHistogram, kSpanCount> span_histograms() {
  std::array<telemetry::SpanHistogram, kSpanCount> out{};
  Registry::instance().for_each([&](ThreadSink& sk) {
    for (std::size_t i = 0; i < kSpanCount; ++i) {
      const auto& a = sk.spans[i];
      if (a.count == 0) continue;
      out[i].count += a.count;
      out[i].total_ns += a.total_ns;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        out[i].buckets[b] += a.hist[b];
      }
    }
  });
  return out;
}

std::array<std::uint64_t, kCounterCount> counter_totals() {
  std::array<std::uint64_t, kCounterCount> out{};
  Registry::instance().for_each([&](ThreadSink& sk) {
    for (std::size_t i = 0; i < kCounterCount; ++i) out[i] += sk.counters[i];
  });
  return out;
}

// --- metric series ---------------------------------------------------------

/// Caller holds s.mu.
void push_locked(Store& s, std::string_view name, std::string_view scope,
                 double value, std::string_view unit) {
  auto key = std::make_pair(std::string(name), std::string(scope));
  auto it = s.series.find(key);
  if (it == s.series.end()) {
    if (s.series.size() >= metrics::kMaxSeries) {
      ++s.dropped_series;
      return;
    }
    Series fresh;
    fresh.unit = std::string(unit);
    it = s.series.emplace(std::move(key), std::move(fresh)).first;
  }
  auto& ring = it->second.ring;
  if (ring.size() == metrics::kWindowCapacity) {
    ring.release(ring.begin() + 1);  // overwrite the oldest
    ++s.dropped_points;
  }
  ring.push({s.window, value});
}

/// Caller holds s.mu: one span's count/mean/percentiles over the window.
void push_span_window(Store& s, const char* span,
                      const telemetry::SpanHistogram& cur,
                      const telemetry::SpanHistogram& prev) {
  const std::uint64_t count = cur.count - prev.count;
  if (count == 0) return;
  std::array<std::uint64_t, kHistogramBuckets> delta{};
  for (std::size_t b = 0; b < delta.size(); ++b) {
    delta[b] = cur.buckets[b] - prev.buckets[b];
  }
  const double mean_ns = static_cast<double>(cur.total_ns - prev.total_ns) /
                         static_cast<double>(count);
  const std::string base(span);
  push_locked(s, base + ".count", {}, static_cast<double>(count), {});
  push_locked(s, base + ".mean_ns", {}, mean_ns, "ns");
  for (const auto& [suffix, q] :
       {std::pair{".p50_ns", 0.50}, std::pair{".p90_ns", 0.90},
        std::pair{".p99_ns", 0.99}}) {
    push_locked(s, base + suffix, {},
                telemetry::histogram_quantile(delta.data(), count, q, mean_ns),
                "ns");
  }
}

thread_local std::uint64_t t_point = 0;

}  // namespace

void reset() {
  Registry::instance().for_each([](ThreadSink& sk) { sk.clear(); });
  Registry::instance().frame_seq.store(0, std::memory_order_relaxed);
  auto& s = store();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.clear();
}

std::size_t sink_count() { return Registry::instance().size(); }

}  // namespace cbma::obs

namespace cbma::telemetry {

const char* span_name(Span s) {
  switch (s) {
    case Span::kTransmitTotal: return "transmit/total";
    case Span::kTransmitSpread: return "transmit/spread";
    case Span::kTransmitImpairments: return "transmit/impairments";
    case Span::kChannelSynthesis: return "channel/synthesis";
    case Span::kRxProcess: return "rx/process";
    case Span::kRxFrameSync: return "rx/frame_sync";
    case Span::kRxDetect: return "rx/detect";
    case Span::kRxDecode: return "rx/decode";
    case Span::kSweepPoint: return "sweep/point";
    case Span::kSweepRun: return "sweep/run";
    case Span::kBenchIteration: return "bench/iteration";
    case Span::kNetRound: return "net/round";
    case Span::kNetAssociate: return "net/associate";
    case Span::kNetCellRound: return "net/cell_round";
    case Span::kCount: break;
  }
  return "unknown";
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kTransmitPackets: return "transmit.packets";
    case Counter::kTransmitFramesSent: return "transmit.frames_sent";
    case Counter::kRxFramesDecoded: return "rx.frames_decoded";
    case Counter::kRxSyncAttempts: return "rx.sync_attempts";
    case Counter::kRxDetections: return "rx.detections";
    case Counter::kRxOutcomeOk: return "rx.outcome.ok";
    case Counter::kRxOutcomeNoFrameSync: return "rx.outcome.no_frame_sync";
    case Counter::kRxOutcomeNotDetected: return "rx.outcome.not_detected";
    case Counter::kRxOutcomeTruncated: return "rx.outcome.truncated";
    case Counter::kRxOutcomeBadCrc: return "rx.outcome.bad_crc";
    case Counter::kRxOutcomeIdMismatch: return "rx.outcome.id_mismatch";
    case Counter::kChannelWindows: return "channel.windows";
    case Counter::kChannelSamples: return "channel.samples";
    case Counter::kImpairmentClockPerturbs: return "impairment.clock_perturbs";
    case Counter::kImpairmentSwitchJitters: return "impairment.switch_jitters";
    case Counter::kImpairmentDropoutGates: return "impairment.dropout_gates";
    case Counter::kImpairmentImpulsiveBursts:
      return "impairment.impulsive_bursts";
    case Counter::kImpairmentAdcClippedSamples:
      return "impairment.adc_clipped_samples";
    case Counter::kSweepPoints: return "sweep.points";
    case Counter::kSweepWorkers: return "sweep.workers";
    case Counter::kArqOffered: return "arq.offered";
    case Counter::kArqDelivered: return "arq.delivered";
    case Counter::kArqDropped: return "arq.dropped";
    case Counter::kArqTransmissions: return "arq.transmissions";
    case Counter::kNodeSelectAbandoned: return "node_select.abandoned";
    case Counter::kNodeSelectReplaced: return "node_select.replaced";
    case Counter::kNodeSelectAnnealed: return "node_select.annealed";
    case Counter::kRxDetectNaiveBatches: return "rx.detect.naive_batches";
    case Counter::kRxDetectFftBatches: return "rx.detect.fft_batches";
    case Counter::kNetRoundsRun: return "net.rounds";
    case Counter::kNetCellRounds: return "net.cell_rounds";
    case Counter::kNetTagRoams: return "net.roams";
    case Counter::kNetIntercellInterferers: return "net.intercell_interferers";
    case Counter::kCount: break;
  }
  return "unknown";
}

void detail::record_span(Span s, std::uint64_t start_ns, std::uint64_t dur_ns) {
  obs::accumulate(obs::sink(), s, start_ns, dur_ns);
}

void detail::add_count(Counter c, std::uint64_t n) {
  obs::sink().counters[static_cast<std::size_t>(c)] += n;
}

void detail::record_frame(const FrameTrace& frame) {
  auto& frames = obs::sink().frames;
  if (frames.size() == kFlightRecorderCapacity) {
    frames.release(frames.begin() + 1);  // keep the latest frames
  }
  FrameTrace stamped = frame;
  stamped.seq = obs::Registry::instance().frame_seq.fetch_add(
      1, std::memory_order_relaxed);
  stamped.ts_ns = util::monotonic_ns();
  frames.push(stamped);
}

void ScopedSpan::begin(std::uint32_t bits) {
  flags_ = static_cast<std::uint8_t>(
      ((bits & obs::kSpanRecording) != 0 ? 1u : 0u) |
      ((bits & obs::kProfile) != 0 ? 2u : 0u));
  if ((flags_ & 2u) != 0) obs::enter_node(obs::sink(), span_, false);
  start_ns_ = util::monotonic_ns();
}

void ScopedSpan::end() {
  const std::uint64_t dur_ns = util::monotonic_ns() - start_ns_;
  auto& sk = obs::sink();
  if ((flags_ & 1u) != 0) obs::accumulate(sk, span_, start_ns_, dur_ns);
  if ((flags_ & 2u) != 0) obs::pop_node(sk, dur_ns, false);
}

Snapshot snapshot() {
  Snapshot out;
  std::uint64_t counters[kCounterCount] = {};
  obs::SpanAccum spans[kSpanCount];

  obs::Registry::instance().for_each([&](obs::ThreadSink& sk) {
    bool any = false;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      counters[i] += sk.counters[i];
      any |= sk.counters[i] != 0;
    }
    for (std::size_t i = 0; i < kSpanCount; ++i) {
      const auto& a = sk.spans[i];
      if (a.count == 0) continue;
      any = true;
      auto& m = spans[i];
      m.count += a.count;
      m.total_ns += a.total_ns;
      m.min_ns = std::min(m.min_ns, a.min_ns);
      m.max_ns = std::max(m.max_ns, a.max_ns);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        m.hist[b] += a.hist[b];
      }
    }
    for (auto pos = sk.frames.begin(); pos < sk.frames.end(); ++pos) {
      out.frames.push_back(sk.frames[pos]);
    }
    out.events.insert(out.events.end(), sk.events.begin(), sk.events.end());
    if (any || sk.frames.size() > 0 || !sk.events.empty()) ++out.threads;
  });

  for (std::size_t i = 0; i < kSpanCount; ++i) {
    const auto& m = spans[i];
    if (m.count == 0) continue;
    SpanSnapshot s;
    s.id = static_cast<Span>(i);
    s.name = span_name(s.id);
    s.count = m.count;
    s.total_ns = m.total_ns;
    s.min_ns = m.min_ns;
    s.max_ns = m.max_ns;
    s.mean_ns = static_cast<double>(m.total_ns) / static_cast<double>(m.count);
    std::uint64_t wide[kHistogramBuckets];
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) wide[b] = m.hist[b];
    const auto fallback = static_cast<double>(m.max_ns);
    s.p50_ns = histogram_quantile(wide, m.count, 0.50, fallback);
    s.p90_ns = histogram_quantile(wide, m.count, 0.90, fallback);
    s.p99_ns = histogram_quantile(wide, m.count, 0.99, fallback);
    out.spans.push_back(std::move(s));
  }

  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (counters[i] == 0) continue;
    out.counters.push_back(
        {static_cast<Counter>(i), counter_name(static_cast<Counter>(i)),
         counters[i]});
  }

  std::sort(out.frames.begin(), out.frames.end(),
            [](const FrameTrace& a, const FrameTrace& b) { return a.seq < b.seq; });
  if (out.frames.size() > kFlightRecorderCapacity) {
    out.frames.erase(out.frames.begin(),
                     out.frames.end() -
                         static_cast<std::ptrdiff_t>(kFlightRecorderCapacity));
  }
  std::sort(out.events.begin(), out.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  return out;
}

}  // namespace cbma::telemetry

namespace cbma::probe {

const char* tap_name(Tap t) {
  switch (t) {
    case Tap::kExcitationEnvelope: return "excitation_envelope";
    case Tap::kCompositeIq: return "composite_iq";
    case Tap::kSyncEnergy: return "sync_energy";
    case Tap::kCorrelationProfile: return "correlation_profile";
    case Tap::kSoftBits: return "soft_bits";
    case Tap::kCount: break;
  }
  return "unknown";
}

namespace {

void add_tap(TapRecord record) {
  auto& s = obs::store();
  const std::lock_guard<std::mutex> lock(s.mu);
  auto& used = s.per_tap[static_cast<std::size_t>(record.tap)];
  if (used >= kMaxRecordsPerTap) {
    ++s.dropped_taps;
    return;
  }
  ++used;
  record.seq = s.probe_seq++;
  s.taps.push_back(std::move(record));
}

}  // namespace

void detail::record_tap(Tap t, std::uint32_t context,
                        std::span<const double> samples) {
  TapRecord record;
  record.tap = t;
  record.point = obs::t_point;
  record.context = context;
  const std::size_t n = std::min(samples.size(), kMaxSamplesPerRecord);
  record.data.assign(samples.begin(), samples.begin() + n);
  add_tap(std::move(record));
}

void detail::record_tap_iq(Tap t, std::uint32_t context,
                           std::span<const std::complex<double>> iq) {
  TapRecord record;
  record.tap = t;
  record.point = obs::t_point;
  record.context = context;
  record.complex_iq = true;
  const std::size_t n = std::min(iq.size(), kMaxSamplesPerRecord);
  record.data.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    record.data.push_back(iq[i].real());
    record.data.push_back(iq[i].imag());
  }
  add_tap(std::move(record));
}

void detail::record_link_quality(const LinkQualitySample& sample) {
  auto& s = obs::store();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (s.link.size() >= kMaxLinkQualitySamples) {
    ++s.dropped_link;
    return;
  }
  LinkQualitySample stamped = sample;
  stamped.point = obs::t_point;
  stamped.seq = s.probe_seq++;
  s.link.push_back(stamped);
}

ScopedPoint::ScopedPoint(std::uint64_t point) : active_(enabled()) {
  if (active_) {
    previous_ = obs::t_point;
    obs::t_point = point;
  }
}

ScopedPoint::~ScopedPoint() {
  if (active_) obs::t_point = previous_;
}

std::uint64_t current_point() { return obs::t_point; }

Capture snapshot() {
  auto& s = obs::store();
  const std::lock_guard<std::mutex> lock(s.mu);
  Capture out;
  out.taps = s.taps;
  out.link = s.link;
  out.dropped_taps = s.dropped_taps;
  out.dropped_link = s.dropped_link;
  return out;
}

}  // namespace cbma::probe

namespace cbma::metrics {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
    case Severity::kCount: break;
  }
  return "unknown";
}

void detail::push(std::string_view name, std::string_view scope, double value,
                  std::string_view unit) {
  auto& s = obs::store();
  const std::lock_guard<std::mutex> lock(s.mu);
  obs::push_locked(s, name, scope, value, unit);
}

void detail::push_event(Severity severity, std::string_view type,
                        std::string_view scope, double value,
                        std::string_view detail) {
  auto& s = obs::store();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (s.events.size() >= kMaxEvents) {
    ++s.dropped_events;
    return;
  }
  Event e;
  e.seq = s.event_seq++;
  e.window = s.window;
  e.severity = severity;
  e.type = std::string(type);
  e.scope = std::string(scope);
  e.value = value;
  e.detail = std::string(detail);
  s.events.push_back(std::move(e));
}

std::uint64_t advance_window() {
  if (!enabled()) return 0;
  const auto counters = obs::counter_totals();
  const auto spans = obs::span_histograms();
  auto& s = obs::store();
  const std::lock_guard<std::mutex> lock(s.mu);
  // Counters chart per-window deltas; one that has ever fired keeps
  // charting, so quiet windows show 0.
  for (std::size_t c = 0; c < counters.size(); ++c) {
    if (counters[c] == 0) continue;
    obs::push_locked(s, telemetry::counter_name(static_cast<telemetry::Counter>(c)),
                     {}, static_cast<double>(counters[c] - s.prev_counters[c]),
                     {});
  }
  s.prev_counters = counters;
  for (std::size_t sp = 0; sp < spans.size(); ++sp) {
    obs::push_span_window(s, telemetry::span_name(static_cast<telemetry::Span>(sp)),
                          spans[sp], s.prev_spans[sp]);
  }
  s.prev_spans = spans;
  return ++s.window;
}

std::uint64_t current_window() {
  auto& s = obs::store();
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.window;
}

Snapshot snapshot() {
  auto& s = obs::store();
  const std::lock_guard<std::mutex> lock(s.mu);
  Snapshot out;
  out.windows = s.window;
  out.dropped_points = s.dropped_points;
  out.dropped_series = s.dropped_series;
  out.dropped_events = s.dropped_events;
  out.series.reserve(s.series.size());
  for (const auto& [key, series] : s.series) {
    SeriesSnapshot snap;
    snap.name = key.first;
    snap.scope = key.second;
    snap.unit = series.unit;
    series.ring.copy_out(series.ring.begin(), series.ring.end(), snap.points);
    out.series.push_back(std::move(snap));
  }
  out.events = s.events;
  return out;
}

}  // namespace cbma::metrics

namespace cbma::profiler {

std::vector<telemetry::Span> current_path() {
  std::vector<telemetry::Span> path;
  if (obs::t_sink == nullptr) return path;
  const auto& sk = *obs::t_sink;
  for (std::int32_t i = sk.current; i >= 0;
       i = sk.nodes[static_cast<std::size_t>(i)].parent) {
    path.push_back(sk.nodes[static_cast<std::size_t>(i)].span);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void enter_context(const std::vector<telemetry::Span>& path) {
  auto& sk = obs::sink();
  for (const telemetry::Span s : path) obs::enter_node(sk, s, true);
}

void exit_context(std::size_t depth) {
  if (obs::t_sink == nullptr) return;
  for (std::size_t d = 0; d < depth; ++d) obs::pop_node(*obs::t_sink, 0, true);
}

void record_parallel(const char* site, const util::ParallelStats& stats) {
  if (!enabled() || !stats.collected) return;
  auto& s = obs::store();
  const std::lock_guard<std::mutex> lock(s.mu);
  auto& acc = s.sites[site];
  ++acc.calls;
  acc.items += stats.items;
  acc.wall_ns += stats.wall_ns;
  if (acc.worker_busy_ns.size() < stats.worker_busy_ns.size()) {
    acc.worker_busy_ns.resize(stats.worker_busy_ns.size(), 0);
    acc.worker_items.resize(stats.worker_items.size(), 0);
  }
  for (std::size_t w = 0; w < stats.worker_busy_ns.size(); ++w) {
    acc.busy_ns += stats.worker_busy_ns[w];
    acc.worker_busy_ns[w] += stats.worker_busy_ns[w];
    acc.worker_items[w] += stats.worker_items[w];
  }
  acc.worst_imbalance = std::max(acc.worst_imbalance, stats.imbalance());
}

std::vector<ParallelSiteStats> parallel_stats() {
  auto& s = obs::store();
  const std::lock_guard<std::mutex> lock(s.mu);
  std::vector<ParallelSiteStats> out;
  out.reserve(s.sites.size());
  for (const auto& [site, acc] : s.sites) {
    out.push_back({site, acc.calls, acc.items, acc.wall_ns, acc.busy_ns,
                   acc.worst_imbalance, acc.worker_busy_ns, acc.worker_items});
  }
  return out;
}

TreeSnapshot merged_tree() {
  TreeSnapshot out;
  std::map<int, MergedNode> roots;
  obs::Registry::instance().for_each([&](obs::ThreadSink& sk) {
    if (sk.roots.empty() && sk.dropped == 0) return;
    ++out.threads;
    out.dropped += sk.dropped;
    for (const std::int32_t r : sk.roots) {
      obs::merge_nodes(roots, sk, r, /*siblings=*/false);
    }
  });
  out.roots.reserve(roots.size());
  for (auto& [id, node] : roots) out.roots.push_back(std::move(node));
  return out;
}

}  // namespace cbma::profiler
