#include "telemetry/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "telemetry/metrics.h"

namespace eden::telemetry {

const char* flight_event_name(FlightEventType type) {
  switch (type) {
    case FlightEventType::session_connect: return "session_connect";
    case FlightEventType::session_teardown: return "session_teardown";
    case FlightEventType::session_backoff: return "session_backoff";
    case FlightEventType::resync: return "resync";
    case FlightEventType::txn_begin: return "txn_begin";
    case FlightEventType::txn_commit: return "txn_commit";
    case FlightEventType::txn_abort: return "txn_abort";
    case FlightEventType::agent_kill: return "agent_kill";
    case FlightEventType::agent_revive: return "agent_revive";
    case FlightEventType::agent_restart: return "agent_restart";
    case FlightEventType::health_transition: return "health_transition";
    case FlightEventType::pool_exhausted: return "pool_exhausted";
    case FlightEventType::crash: return "crash";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::instance() {
  // Never destroyed: the crash handler may walk the lanes at any time.
  static FlightRecorder* const recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::record(FlightEventType type, const char* detail,
                            std::int64_t a, std::int64_t b) {
  FlightEvent e;
  e.t_ns = now_ns();
  e.a = a;
  e.b = b;
  e.type = type;
  e.lane = static_cast<std::uint8_t>(
      std::min<std::size_t>(internal::thread_slot(), 255));
  // Copy + sanitize in one pass so the JSON emitters never need to
  // escape: quotes, backslashes and control bytes become '_'.
  std::size_t i = 0;
  if (detail != nullptr) {
    for (; i + 1 < sizeof e.detail && detail[i] != '\0'; ++i) {
      const char c = detail[i];
      e.detail[i] =
          (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
              ? '_'
              : c;
    }
  }
  e.detail[i] = '\0';
  thread_local EventLanes<FlightEvent>::Claim claim;
  lanes_.push(claim, e);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  return lanes_.snapshot([](const FlightEvent& x, const FlightEvent& y) {
    return x.t_ns < y.t_ns;
  });
}

namespace {

// Shared row formatter so the heap path and the signal path emit
// byte-identical events. Returns bytes written (no trailing comma).
int format_event(char* buf, std::size_t cap, const FlightEvent& e) {
  return std::snprintf(
      buf, cap,
      "{\"t_ns\":%lld,\"type\":\"%s\",\"detail\":\"%s\","
      "\"a\":%lld,\"b\":%lld,\"lane\":%u}",
      static_cast<long long>(e.t_ns), flight_event_name(e.type), e.detail,
      static_cast<long long>(e.a), static_cast<long long>(e.b),
      static_cast<unsigned>(e.lane));
}

int format_header(char* buf, std::size_t cap, std::uint64_t total,
                  std::uint64_t overwritten, std::uint64_t dropped) {
  return std::snprintf(
      buf, cap,
      "{\"schema_version\":1,\"total\":%llu,\"overwritten\":%llu,"
      "\"dropped\":%llu,\"events\":[\n",
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(overwritten),
      static_cast<unsigned long long>(dropped));
}

void write_all(int fd, const char* buf, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, buf + off, len - off);
    if (n <= 0) return;  // best effort — nothing sane to do on error
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::string FlightRecorder::dump_json() const {
  const std::vector<FlightEvent> events = snapshot();
  char buf[256];
  std::string out;
  out.reserve(events.size() * 96 + 128);
  format_header(buf, sizeof buf, total_recorded(), overwritten(), dropped());
  out += buf;
  for (std::size_t i = 0; i < events.size(); ++i) {
    format_event(buf, sizeof buf, events[i]);
    out += buf;
    out += i + 1 < events.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

void FlightRecorder::dump_to_fd(int fd) const {
  char buf[256];
  int n = format_header(buf, sizeof buf, total_recorded(), overwritten(),
                        dropped());
  write_all(fd, buf, static_cast<std::size_t>(n));
  // Walk lanes directly — snapshot() allocates, which the signal path
  // must not. Lanes dump in table order instead of merged time order;
  // every event carries t_ns, so readers (and eden-trace) re-sort.
  bool first = true;
  lanes_.for_each([&](const FlightEvent& e) {
    if (!first) write_all(fd, ",\n", 2);
    first = false;
    const int len = format_event(buf, sizeof buf, e);
    write_all(fd, buf, static_cast<std::size_t>(len));
  });
  write_all(fd, "\n]}\n", 4);
}

bool FlightRecorder::dump_to_file(const char* path) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  dump_to_fd(fd);
  ::close(fd);
  return true;
}

namespace {

char g_crash_dump_path[512] = {};

void crash_handler(int sig) {
  FlightRecorder& rec = FlightRecorder::instance();
  const int fd =
      ::open(g_crash_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    // The crash event itself is stamped via record() only if this
    // thread already owns a lane (lane allocation would call new, which
    // is off-limits here). A standalone trailer line carries the signal
    // number either way.
    rec.dump_to_fd(fd);
    char buf[96];
    const int n = std::snprintf(
        buf, sizeof buf, "{\"crash_signal\":%d,\"t_ns\":%lld}\n", sig,
        static_cast<long long>(rec.now_ns()));
    write_all(fd, buf, static_cast<std::size_t>(n));
    ::close(fd);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void FlightRecorder::install_crash_handler(const char* path) {
  std::snprintf(g_crash_dump_path, sizeof g_crash_dump_path, "%s", path);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGSEGV, &sa, nullptr);
}

void FlightRecorder::append_prometheus(std::string& out) const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "eden_flightrec_events_total %llu\n"
                "eden_flightrec_overwritten_total %llu\n"
                "eden_flightrec_dropped_total %llu\n",
                static_cast<unsigned long long>(total_recorded()),
                static_cast<unsigned long long>(overwritten()),
                static_cast<unsigned long long>(dropped()));
  out += buf;
}

}  // namespace eden::telemetry
