// Shared plumbing of the end-to-end benchmark: clocks, the benchmark-
// side span tracer, the metric report and the workload entry points.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"

namespace e2e {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline std::int64_t process_cpu_ns() {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}
inline std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Median and upper percentile of a sample (sorts a copy).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Prints how far the run has come to standard error, with the wall
// seconds since it started, so a slow phase is easy to find.
void progress(const char* phase);

// Set-up is repeated and the median of its CPU seconds reported. On a
// shared VM the CPU slows and recovers over spans from tens of
// milliseconds to tens of seconds, so the repetitions are spread over
// the whole run rather than bunched at its start. The first, cold set-up
// pays one-time costs (first-touch page faults, lazy statics) and is not
// one of them.
inline constexpr double kSetupBudgetS = 2.0;  // wall time of all repetitions
inline constexpr int kSetupSlices = 8;        // spread over this many slices
inline constexpr int kMinSetupReps = 3;       // rebuilds of a set-up too big to spread

struct SetupTimes {
  std::vector<double> reps;

  // Repeats `once` (which sets up and returns the CPU seconds that took)
  // for `seconds` of wall time, at least once.
  template <typename F>
  void repeat_for(double seconds, F&& once) {
    const std::int64_t end = wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      reps.push_back(once());
    } while (wall_ns() < end);
  }
  double median() const { return percentile(reps, 0.5); }
};

// Heap allocations made by this process while counting is on
// (alloc_count.cpp replaces the global operator new family).
void alloc_counting(bool on);
std::uint64_t alloc_count();

// The layers the benchmark times from its own files, around calls into
// each layer's public functions.
enum class Layer : std::uint8_t {
  iteration,      // one producer-loop round (root span)
  generate,       // benchmark: build the next packet
  classify,       // core::Stage::classify
  submit,         // hoststack::HostStack::send_raw
  drain,          // netsim::Scheduler::run_until: data-plane poll/drain,
                  // NIC hand-off, host link events
  deliver,        // benchmark: completion checks at the receiving host
  sim_round,      // sim_fig9: one simulated interval
  count_
};

const char* layer_name(Layer l);

// Benchmark-side spans. Durations of every timed call are summed per
// layer; span records (name, start, end, parent, packet/message id) are
// kept for a bounded sample and written as Chrome trace_event JSON
// that tools/eden-trace reads.
class Tracer {
 public:
  Tracer() { spans_.reserve(kMaxSpans); }

  struct Scope {
    Tracer* t;
    Layer layer;
    std::int64_t start;
    std::int64_t id;
    std::uint64_t parent;
    std::uint64_t span;
    // A null tracer makes the scope a no-op (untraced runs).
    Scope(Tracer* tracer, Layer l, std::int64_t tid, std::uint64_t parent_span)
        : t(tracer),
          layer(l),
          start(t != nullptr ? wall_ns() : 0),
          id(tid),
          parent(parent_span),
          span(t != nullptr ? ++t->next_span_ : 0) {}
    ~Scope() {
      if (t != nullptr) t->close(*this);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  std::int64_t total_ns(Layer l) const {
    return totals_[static_cast<int>(l)].ns;
  }
  std::uint64_t calls(Layer l) const {
    return totals_[static_cast<int>(l)].calls;
  }
  void reset_totals() {
    for (auto& t : totals_) t = Total{};
  }
  // Span records are kept only while recording (a sample of rounds);
  // totals always accumulate.
  void set_recording(bool rec) { recording_ = rec; }
  std::size_t spans() const { return spans_.size(); }
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Total {
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
  };
  struct Record {
    Layer layer;
    std::int64_t start, end, id;
    std::uint64_t span, parent;
  };
  void close(const Scope& s) {
    const std::int64_t end = wall_ns();
    Total& t = totals_[static_cast<int>(s.layer)];
    t.ns += end - s.start;
    ++t.calls;
    if (recording_ && spans_.size() < kMaxSpans) {
      spans_.push_back({s.layer, s.start, end, s.id, s.span, s.parent});
    }
  }
  static constexpr std::size_t kMaxSpans = 200'000;
  bool recording_ = false;
  std::uint64_t next_span_ = 0;
  Total totals_[static_cast<int>(Layer::count_)]{};
  std::vector<Record> spans_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// What one run reports: correctness, operation counts and named
// metrics with units.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  CheckLog checks;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

void run_fwd_min(const Args& args, Report& report);
void run_pias_msgs(const Args& args, Report& report);
void run_qos_churn(const Args& args, Report& report);
void run_sim_fig9(const Args& args, Report& report);

}  // namespace e2e
