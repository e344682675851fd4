// e2ebench: the repository's end-to-end benchmark.
//
//   e2ebench --workload fwd_min|pias_msgs|qos_churn|sim_fig9 --seed N
//            --seconds S --trace 0|1 [--trace-out PATH]
//
// Drives packets from stage classification through the host stack, the
// sharded data plane, the enclave (bytecode over FlowStore message
// state), the NIC's token buckets and the simulated host link, checks
// every output against the benchmark's own model, and prints one JSON
// object as the last line of standard output:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
// ledger from benchmark-side spans plus direct per-layer calls, and
// writes the spans as Chrome trace_event JSON to --trace-out.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"
#include "telemetry/span.h"

namespace e2e {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::iteration: return "producer.round";
    case Layer::generate: return "bench.generate";
    case Layer::classify: return "stage.classify";
    case Layer::submit: return "hoststack.send_raw";
    case Layer::drain: return "netsim.run_until";
    case Layer::deliver: return "bench.check";
    case Layer::sim_round: return "netsim.sim_interval";
    case Layer::count_: break;
  }
  return "?";
}

void progress(const char* phase) {
  static const std::int64_t start = wall_ns();
  std::fprintf(stderr, "[%7.2f s] %s\n",
               static_cast<double>(wall_ns() - start) * 1e-9, phase);
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  out << "{\"traceEvents\":[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%lld,\"args\":{\"span\":%llu,"
                  "\"parent\":%llu}}%s\n",
                  layer_name(r.layer),
                  static_cast<double>(r.start - origin) * 1e-3,
                  static_cast<double>(r.end - r.start) * 1e-3,
                  static_cast<long long>(r.id),
                  static_cast<unsigned long long>(r.span),
                  static_cast<unsigned long long>(r.parent),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ns\",\"schema_version\":"
      << eden::telemetry::kSpanSchemaVersion << "}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\n"
               "usage: e2ebench --workload fwd_min|pias_msgs|qos_churn|sim_fig9 "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

e2e::Args parse(int argc, char** argv) {
  e2e::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        usage(("unknown flag " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.seconds <= 0 || a.seconds > 120) usage("--seconds must be in (0, 120]");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Args args = parse(argc, argv);
  e2e::progress(args.workload.c_str());
  e2e::Report report;
  try {
    if (args.workload == "fwd_min") {
      e2e::run_fwd_min(args, report);
    } else if (args.workload == "pias_msgs") {
      e2e::run_pias_msgs(args, report);
    } else if (args.workload == "qos_churn") {
      e2e::run_qos_churn(args, report);
    } else if (args.workload == "sim_fig9") {
      e2e::run_sim_fig9(args, report);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    report.checks.fail(std::string("exception: ") + e.what());
  }
  report.correct = report.checks.ok();
  for (const std::string& m : report.checks.messages()) {
    std::printf("CHECK FAILED: %s\n", m.c_str());
  }
  if (!report.correct) {
    std::printf("%llu check failures\n",
                static_cast<unsigned long long>(report.checks.failures()));
  }
  for (const auto& [name, vu] : report.metrics) {
    std::printf("  %-34s %16.4f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[128];
  for (const auto& [name, vu] : report.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
