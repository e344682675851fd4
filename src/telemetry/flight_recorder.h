// Always-on flight recorder for fleet postmortems.
//
// Spans answer "how long did this operation take"; the flight recorder
// answers "what was the control plane doing when it died". It is a
// bounded, lock-free, process-global journal of *rare, structured*
// events — session state changes, transaction lifecycle, resync
// causes, agent kills/restarts, health transitions, pool exhaustion —
// that is always recording (no enable switch: the event rate is
// control-plane scale, not packet scale) and can be dumped as JSON
//
//  * on demand (tests, CLIs, CI artifacts),
//  * when the HealthWatchdog crosses into `critical`, and
//  * from a crash/abort signal handler.
//
// Storage is the SpanCollector's: per-thread event lanes
// (event_lanes.h), kLaneCapacity events each. The lane table is a fixed
// array of atomic pointers with no mutex anywhere, so the crash handler
// can walk every published event without taking a lock that the
// crashing thread might already hold. Lanes are never freed; a thread
// that dies leaves its tail of events readable, which is exactly what a
// postmortem wants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/event_lanes.h"
#include "telemetry/metrics.h"

namespace eden::telemetry {

enum class FlightEventType : std::uint8_t {
  session_connect = 0,  // transport dialed successfully
  session_teardown,     // connection torn down (detail = reason)
  session_backoff,      // reconnect scheduled (a = delay ns)
  resync,               // journal replay issued (a = command count)
  txn_begin,            // client opened a rule-set transaction
  txn_commit,           // client asked for the atomic publish
  txn_abort,            // client rolled the transaction back
  agent_kill,           // farm killed an agent's connectivity
  agent_revive,         // farm let the agent dial again
  agent_restart,        // fresh agent incarnation (new boot id)
  health_transition,    // watchdog state change (a = from, b = to)
  pool_exhausted,       // packet pool ran dry (a = new exhaustions)
  crash,                // crash handler fired (a = signal number)
};
inline constexpr std::size_t kNumFlightEventTypes = 13;

const char* flight_event_name(FlightEventType type);

// Fixed-size so a lane is one flat allocation and the signal-handler
// read path never touches the heap. `detail` is truncated to fit and
// sanitized at record time (quotes/control bytes become '_'), so both
// dump paths can emit it into JSON verbatim.
struct FlightEvent {
  std::int64_t t_ns = 0;
  std::int64_t a = 0;  // event-specific (delay, counts, from-state, ...)
  std::int64_t b = 0;
  char detail[40] = {};
  FlightEventType type = FlightEventType::session_connect;
  std::uint8_t lane = 0;
};

class FlightRecorder {
 public:
  using ClockFn = EventClockFn;

  static FlightRecorder& instance();

  // Records one event on the calling thread's lane. Lock-free after
  // the lane's one-time allocation; safe from any thread.
  void record(FlightEventType type, const char* detail, std::int64_t a = 0,
              std::int64_t b = 0);
  void record(FlightEventType type, const std::string& detail,
              std::int64_t a = 0, std::int64_t b = 0) {
    record(type, detail.c_str(), a, b);
  }

  // The process-wide event clock (metrics.h), shared with the
  // SpanCollector: sim runs stamp sim time, everything else the
  // calibrated tick clock.
  void set_clock(ClockFn fn, void* ctx) { set_event_clock(fn, ctx); }
  std::int64_t now_ns() const { return event_now_ns(); }

  // Merged, timestamp-sorted view of every lane (most recent
  // kLaneCapacity events per lane survive wraparound).
  std::vector<FlightEvent> snapshot() const;
  std::uint64_t total_recorded() const { return lanes_.total_recorded(); }
  std::uint64_t overwritten() const { return lanes_.overwritten(); }
  // Events lost because more than kMaxLanes threads recorded.
  std::uint64_t dropped() const { return lanes_.dropped(); }

  // JSON dump: {"schema_version":1,"total":N,...,"events":[...]}.
  std::string dump_json() const;
  // Best-effort async-signal-safe dump: formats each event with
  // snprintf into a stack buffer and write(2)s it to `fd`. No heap, no
  // locks — the crash-handler path.
  void dump_to_fd(int fd) const;
  bool dump_to_file(const char* path) const;

  // Installs SIGABRT/SIGSEGV handlers that dump the journal to `path`
  // (with a trailing crash event) and then re-raise the default
  // disposition. Idempotent; the path is copied into static storage.
  static void install_crash_handler(const char* path);

  // eden_flightrec_* exposition rows appended to `out`.
  void append_prometheus(std::string& out) const;

  // Clears every lane's events (the lanes themselves persist). Test
  // scaffolding only.
  void reset() { lanes_.reset(); }

  static constexpr std::size_t kLaneCapacity = 1024;
  static constexpr std::size_t kMaxLanes = EventLanes<FlightEvent>::kMaxLanes;

 private:
  FlightRecorder() = default;

  EventLanes<FlightEvent> lanes_{kLaneCapacity};
};

}  // namespace eden::telemetry
