// The data-plane harness shared by fwd_min, pias_msgs and qos_churn: a
// two-host rig (sender with the Eden host stack and a sharded data
// plane, receiver on the far end of a simulated host link), and a
// producer that offers workload packets in a closed loop (fixed window
// in flight) or an open loop (fixed offered rate), checking every
// completion against the workload's own model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/enclave.h"
#include "core/stage.h"
#include "hoststack/host_stack.h"
#include "netsim/network.h"

namespace e2e {

// Closed loop: packets in flight, packets offered per producer round,
// and the virtual time one offered packet advances the simulator clock
// (10 Mpps nominal; the loop is bound by the host's CPU, not by it).
inline constexpr std::size_t kWindow = 512;
inline constexpr std::size_t kBurst = 64;
inline constexpr eden::netsim::SimTime kGapNs = 100;
// HostStackConfig::dataplane_poll_ns (the stack's completion poll).
inline constexpr eden::netsim::SimTime kPollNs = 1000;
inline constexpr std::size_t kWorkers = 2;
// A set-up cheaper than this (CPU seconds) is repeated on spare copies
// of the workload between slices of the closed loop.
inline constexpr double kSpreadSetupBelowS = 0.1;

// What the workload expects of one offered packet.
struct Expect {
  std::int64_t due_ns = 0;  // open loop: wall time the packet was due
  std::int64_t msg = 0;     // message key of the order check
  std::uint32_t offset = 0; // byte offset within the message
  std::uint32_t payload = 0;
  std::int32_t prio = -1;   // expected priority; -1 = not checked
  bool last = true;         // last packet of its message
};

// A workload's packet source and completion checks.
class Traffic {
 public:
  virtual ~Traffic() = default;
  // Fills the next packet (addressing, classes, metadata, sizes) and
  // what the workload expects of it.
  virtual void next(eden::netsim::Packet& p, Expect& e) = 0;
  // Checks one completed packet.
  virtual void complete(const eden::netsim::Packet& p, const Expect& e,
                        CheckLog& log) = 0;

  Tracer* tracer = nullptr;
  std::uint64_t parent_span = 0;

 protected:
  eden::core::Classification classify(eden::core::Stage& stage,
                                      const eden::core::MessageAttrs& attrs,
                                      const eden::netsim::PacketMeta& avail,
                                      std::int64_t id) {
    Tracer::Scope s(tracer, Layer::classify, id, parent_span);
    return stage.classify(attrs, avail);
  }
};

// Sender host (Eden stack, 2 data-plane workers) -> host link -> receiver.
struct Rig {
  eden::netsim::Network net;
  eden::netsim::HostNode* tx = nullptr;
  eden::netsim::HostNode* rx = nullptr;
  eden::core::ClassRegistry registry;
  std::unique_ptr<eden::core::Enclave> enclave;
  std::unique_ptr<eden::hoststack::HostStack> stack;

  Rig(const eden::core::EnclaveConfig& config, std::size_t workers);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Packets the program dropped: enclave drops, NIC bad-queue drops and
  // host-link tail drops.
  std::uint64_t drops() const;
};

// One fixed-length slice of a timed phase. The end-to-end metrics are
// medians over windows, so a stall of a few milliseconds (a descheduled
// virtual CPU) moves one window, not the run's figure.
struct Window {
  std::uint64_t packets = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;       // whole process
  std::int64_t main_cpu_ns = 0;  // producer thread
  std::uint64_t busy_ns = 0;     // data-plane workers inside process_batch
  std::uint64_t busy_max_ns = 0;  // the busiest worker's share of busy_ns
  std::size_t latencies_end = 0;  // open loop: end index in latencies_us()
};
inline constexpr double kWindowS = 0.25;

struct PhaseStats {
  std::uint64_t packets = 0;  // completions
  std::int64_t cpu_ns = 0;       // whole process
  std::int64_t main_cpu_ns = 0;  // producer thread
  std::uint64_t events = 0;      // simulator events dispatched
  std::uint64_t allocs = 0;      // heap allocations (traced runs)
  std::uint64_t busy_ns = 0;     // data-plane worker busy time
  std::uint64_t processed = 0;   // data-plane packets processed
  std::uint64_t batches = 0;
  std::vector<Window> windows;
};

class LoadGen {
 public:
  LoadGen(Rig& rig, Traffic& traffic, CheckLog& log, Tracer* tracer);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // Offers packets with kWindow in flight for `seconds` of wall time.
  PhaseStats closed_loop(double seconds);
  // Offers packets at the due times t0 + cumsum(gaps) for `seconds`;
  // the simulator clock follows the wall clock. Latencies are recorded
  // from each packet's due time until drain() returns.
  PhaseStats open_loop(double seconds, const std::vector<double>& gaps_ns);
  // Runs the simulator until every offered packet completed or was
  // counted as dropped. False on timeout.
  bool drain(double timeout_s);

  // Switches benchmark-side spans on (a tracer) or off (nullptr).
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    traffic_.tracer = tracer;
  }

  const CompletionLedger<Expect>& ledger() const { return ledger_; }
  std::vector<double>& latencies_us() { return latencies_us_; }
  std::vector<double>& late_us() { return late_us_; }
  // Called after every producer round (per-layer sampling hooks).
  std::function<void()> on_round;

 private:
  struct Mark {
    std::int64_t wall, cpu, main_cpu;
    std::uint64_t completed, events, allocs, busy, processed, batches;
    std::vector<std::uint64_t> worker_busy;
  };
  Mark mark() const;
  PhaseStats since(const Mark& m0) const;
  void start_windows(const Mark& m0);
  // Closes the current window when it has run kWindowS.
  void maybe_close_window(std::int64_t now);
  void offer_one(std::int64_t due_ns, std::uint64_t parent);
  void on_deliver(eden::netsim::PacketPtr p);

  Rig& rig_;
  Traffic& traffic_;
  CheckLog& log_;
  Tracer* tracer_;
  CompletionLedger<Expect> ledger_;
  std::uint64_t round_span_ = 0;
  bool timing_latency_ = false;
  std::vector<Window> windows_;
  Mark window_mark_{};
  std::vector<double> latencies_us_;
  std::vector<double> late_us_;
};

// Per-layer metrics of a traced closed-loop phase (the ledger).
// `extra_cpu_ns` is CPU spent by threads other than the producer and
// the data-plane workers (the qos_churn controller).
void report_dataplane_layers(const PhaseStats& st, const Tracer& tracer,
                             Rig& rig, std::int64_t extra_cpu_ns,
                             Report& report);

struct DirectSpec;

// A data-plane workload, built once per set-up repetition.
class DataPlaneWorkload {
 public:
  virtual ~DataPlaneWorkload() = default;
  virtual Rig& rig() = 0;
  virtual Traffic& traffic() = 0;
  // Offered rate of the open-loop (latency) phase.
  virtual double open_rate_pps() const = 0;
  virtual void before_open() {}
  virtual void after_open() {}
  // Threads beside the producer and the data plane (qos_churn's
  // controller), and the CPU time they have used so far.
  virtual void start_background() {}
  virtual void stop_background() {}
  virtual std::int64_t background_cpu_ns() const { return 0; }
  // End-of-run phases and checks (after the last completion drained).
  virtual void finish(LoadGen& gen, CheckLog& log) {
    (void)gen;
    (void)log;
  }
  // Workload-specific per-layer metrics of the traced run.
  virtual void layer_metrics(Report& report) { (void)report; }
  // Called after every producer round of traced phases.
  virtual void sample_round() {}
  virtual DirectSpec direct_spec() = 0;
};

// Runs a data-plane workload: set-up repetitions, then the closed-loop
// and open-loop phases (untraced) or the traced phases and direct calls.
void run_dataplane(const Args& args, Report& report,
                   const std::function<std::unique_ptr<DataPlaneWorkload>()>&
                       build);

}  // namespace e2e
