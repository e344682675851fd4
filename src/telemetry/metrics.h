// Low-overhead metrics primitives for the Eden data path.
//
// The enclave hot path (Section 3.4) executes an action in tens of
// nanoseconds at -O1, so anything recorded per packet has to be cheaper
// than the work it measures. Three rules keep it that way:
//  * no locks on increment — counters and histograms are sharded across
//    cache-line-aligned relaxed atomics indexed by a stable per-thread
//    slot, and reads reconcile the shards;
//  * latency is timed with the cheapest monotonic source the platform
//    has (TSC on x86-64, the virtual counter on AArch64), calibrated
//    once per process against the steady clock;
//  * distributions use fixed log2 buckets (64 of them), so recording is
//    one bit_width and two relaxed adds, and p50/p95/p99 come from the
//    bucket counts at snapshot time (util::log2_bucket_quantile).
//
// The registry hands out named, labeled instruments and renders them in
// Prometheus text exposition format. Instruments are stable-addressed:
// once created they are never moved or freed, so the hot path can hold
// raw pointers.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace eden::telemetry {

// --- Tick clock --------------------------------------------------------

// Raw monotonic ticks (TSC-class counter; falls back to the steady
// clock in nanoseconds on other platforms). Inline so a sampled timing
// region pays the counter read, not a function call around it.
inline std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Nanoseconds per tick. Calibrated against std::chrono::steady_clock on
// first use (a ~2 ms busy wait); call warm_clock() at setup time so the
// calibration never lands inside a timed region.
double ns_per_tick();
void warm_clock();

inline std::uint64_t ticks_to_ns(std::uint64_t ticks) {
  return static_cast<std::uint64_t>(static_cast<double>(ticks) *
                                    ns_per_tick());
}

// --- Event clock ---------------------------------------------------------

// The one clock that span hops and flight-recorder events are stamped
// with. A testbed installs its simulator clock so sim runs stamp sim
// time; with none installed it is the calibrated tick clock.
using EventClockFn = std::int64_t (*)(void* ctx);
void set_event_clock(EventClockFn fn, void* ctx);
// Uninstalls the clock, but only if `ctx` is still its context, so an
// owner going away never clears a clock someone else installed since.
void clear_event_clock(void* ctx);
std::int64_t event_now_ns();

// Per-thread 1-in-n sampling decision: true on every n-th call from
// this thread (never for n = 0). A plain thread_local countdown — no
// atomics and no division — so the not-sampled path costs a decrement
// and a branch.
inline bool sample_1_in(std::uint32_t n) {
  thread_local std::uint32_t countdown = 1;
  if (n == 0) return false;
  if (--countdown != 0) return false;
  countdown = n;
  return true;
}

namespace internal {

// Stable small index for the calling thread, assigned on first use.
inline std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

inline constexpr std::size_t kCounterShards = 8;  // power of two

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace internal

// Monotonic counter. inc() is a single relaxed fetch_add on a shard
// that threads (mostly) do not share; value() sums the shards, so it is
// eventually consistent with concurrent increments.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    shards_[internal::thread_slot() & (internal::kCounterShards - 1)]
        .value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  std::array<internal::CounterShard, internal::kCounterShards> shards_;
};

// Last-writer-wins gauge (also supports add() for up/down counts).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

inline constexpr std::size_t kHistogramBuckets = 64;

// Upper bound of log2 bucket k: bucket 0 holds only the value 0, bucket
// k >= 1 holds [2^(k-1), 2^k - 1].
inline constexpr std::uint64_t bucket_upper_bound(std::size_t k) {
  return k == 0 ? 0 : (std::uint64_t{1} << k) - 1;
}

// Point-in-time view of a histogram; mergeable across shards, actions
// and enclaves.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> counts{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Quantile estimate from the bucket counts (linear interpolation
  // inside the winning bucket); exact to within one bucket width.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  void merge(const HistogramSnapshot& other);
};

// Fixed-bucket log2 histogram. record() is bucket_of (a bit_width) plus
// two relaxed adds on a per-thread shard; no allocation, no locks.
class Histogram {
 public:
  static constexpr std::size_t bucket_of(std::uint64_t v) {
    const int w = std::bit_width(v);
    return w < static_cast<int>(kHistogramBuckets)
               ? static_cast<std::size_t>(w)
               : kHistogramBuckets - 1;
  }

  void record(std::uint64_t v) {
    Shard& s = shards_[internal::thread_slot() % kShards];
    s.counts[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

 private:
  static constexpr std::size_t kShards = 4;
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> counts{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kShards> shards_;
};

// --- Registry ----------------------------------------------------------

// Label set rendered as {k="v",...}; order is preserved.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Renders labels in exposition form, escaping backslash, quote and
// newline in values. Empty labels render as an empty string.
std::string render_labels(const Labels& labels);

// Named, labeled instruments. Creation takes a mutex (control path);
// returned references stay valid for the registry's lifetime, so data
// paths resolve an instrument once at install time and keep the
// pointer.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  // Prometheus text exposition of every registered instrument.
  std::string text_exposition() const;

 private:
  using Series = std::pair<std::string, std::string>;  // (name, labels)

  mutable std::mutex mutex_;
  std::map<Series, std::unique_ptr<Counter>> counters_;
  std::map<Series, std::unique_ptr<Gauge>> gauges_;
  std::map<Series, std::unique_ptr<Histogram>> histograms_;
};

// Appends one histogram in exposition form (_bucket/_sum/_count series
// with cumulative le= bounds). Shared by MetricsRegistry and the
// enclave snapshot exporter.
void append_histogram_exposition(std::string& out, std::string_view name,
                                 std::string_view labels,
                                 const HistogramSnapshot& h);

}  // namespace eden::telemetry
