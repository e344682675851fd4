#include "telemetry/metrics.h"

#include <chrono>

#include "util/stats.h"

namespace eden::telemetry {

double ns_per_tick() {
  // Calibrated once; the static-local guard after initialization is a
  // load, cheap enough for snapshot-time conversions.
  static const double rate = [] {
    const auto wall0 = std::chrono::steady_clock::now();
    const std::uint64_t t0 = now_ticks();
    // Busy wait so the tick source actually advances (sleeping can park
    // the core and skew TSC-vs-wall on some virtualized hosts).
    while (std::chrono::steady_clock::now() - wall0 <
           std::chrono::milliseconds(2)) {
    }
    const std::uint64_t t1 = now_ticks();
    const auto wall1 = std::chrono::steady_clock::now();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        wall1 - wall0)
                        .count();
    return t1 > t0 ? static_cast<double>(ns) / static_cast<double>(t1 - t0)
                   : 1.0;
  }();
  return rate;
}

void warm_clock() { (void)ns_per_tick(); }

namespace {
std::atomic<EventClockFn> g_event_clock_fn{nullptr};
std::atomic<void*> g_event_clock_ctx{nullptr};
}  // namespace

void set_event_clock(EventClockFn fn, void* ctx) {
  g_event_clock_ctx.store(ctx, std::memory_order_relaxed);
  g_event_clock_fn.store(fn, std::memory_order_relaxed);
}

void clear_event_clock(void* ctx) {
  if (g_event_clock_ctx.load(std::memory_order_relaxed) == ctx) {
    g_event_clock_fn.store(nullptr, std::memory_order_relaxed);
    g_event_clock_ctx.store(nullptr, std::memory_order_relaxed);
  }
}

std::int64_t event_now_ns() {
  const EventClockFn fn = g_event_clock_fn.load(std::memory_order_relaxed);
  if (fn != nullptr) {
    return fn(g_event_clock_ctx.load(std::memory_order_relaxed));
  }
  return static_cast<std::int64_t>(ticks_to_ns(now_ticks()));
}

double HistogramSnapshot::quantile(double q) const {
  return util::log2_bucket_quantile(counts, q);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    counts[i] += other.counts[i];
  }
  count += other.count;
  sum += other.sum;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      const std::uint64_t c = s.counts[i].load(std::memory_order_relaxed);
      snap.counts[i] += c;
      snap.count += c;
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    for (char c : v) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    out += '"';
  }
  out += '}';
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[{name, render_labels(labels)}];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[{name, render_labels(labels)}];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[{name, render_labels(labels)}];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void append_histogram_exposition(std::string& out, std::string_view name,
                                 std::string_view labels,
                                 const HistogramSnapshot& h) {
  // Prometheus histograms are cumulative and end with an +Inf bucket.
  // Empty log2 buckets are elided (their cumulative value is implied by
  // the next emitted bound), except that +Inf is always present.
  const std::string base =
      labels.empty() ? std::string() : std::string(labels.substr(1));
  auto bucket_line = [&](const std::string& le, std::uint64_t cum) {
    out += name;
    out += "_bucket{";
    if (!base.empty()) {
      out += base.substr(0, base.size() - 1);  // sans '}'
      out += ',';
    }
    out += "le=\"";
    out += le;
    out += "\"} ";
    out += std::to_string(cum);
    out += '\n';
  };
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < kHistogramBuckets; ++k) {
    if (h.counts[k] == 0) continue;
    cum += h.counts[k];
    bucket_line(std::to_string(bucket_upper_bound(k)), cum);
  }
  bucket_line("+Inf", h.count);
  out += name;
  out += "_sum";
  out += labels;
  out += ' ';
  out += std::to_string(h.sum);
  out += '\n';
  out += name;
  out += "_count";
  out += labels;
  out += ' ';
  out += std::to_string(h.count);
  out += '\n';
}

std::string MetricsRegistry::text_exposition() const {
  std::lock_guard lock(mutex_);
  std::string out;
  std::string last_type_for;
  auto type_line = [&](const std::string& name, const char* type) {
    if (name == last_type_for) return;
    last_type_for = name;
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
  };
  for (const auto& [series, c] : counters_) {
    type_line(series.first, "counter");
    out += series.first;
    out += series.second;
    out += ' ';
    out += std::to_string(c->value());
    out += '\n';
  }
  last_type_for.clear();
  for (const auto& [series, g] : gauges_) {
    type_line(series.first, "gauge");
    out += series.first;
    out += series.second;
    out += ' ';
    out += std::to_string(g->value());
    out += '\n';
  }
  last_type_for.clear();
  for (const auto& [series, h] : histograms_) {
    type_line(series.first, "histogram");
    append_histogram_exposition(out, series.first, series.second,
                                h->snapshot());
  }
  return out;
}

}  // namespace eden::telemetry
