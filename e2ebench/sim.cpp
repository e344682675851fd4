// sim_fig9: the Figure 9 flow-scheduling scenario (PIAS, Eden variant,
// web-search sizes at 70% load of the client link plus two background
// senders) on the inline HostStack::transmit path, single thread.
// Each run repeats a fixed simulated interval, each repetition with its
// own seed drawn from the run's seed, until the run's wall time is up.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "apps/workload.h"
#include "direct.h"
#include "experiments/testbed.h"
#include "functions/scheduling.h"
#include "harness.h"
#include "netsim/packet_pool.h"
#include "util/hash.h"
#include "util/rng.h"

namespace e2e {

using namespace eden;

namespace {

constexpr std::uint64_t kLinkBps = 10'000'000'000ULL;
constexpr netsim::SimTime kLinkDelay = 2 * netsim::kMicrosecond;
constexpr netsim::SimTime kRoundNs = 20 * netsim::kMillisecond;
constexpr double kLoad = 0.7;
constexpr int kBackground = 2;
constexpr std::uint16_t kResponsePort = 8000;
constexpr std::uint16_t kBackgroundPort = 8001;
constexpr std::uint64_t kBgFlowBytes = 50ULL * 1024 * 1024;
// Flows below this size are Figure 9's small and intermediate classes,
// whose completion times the run reports.
constexpr std::uint64_t kTimedBelow = 1024 * 1024;
constexpr std::size_t kSample = 4096;

const ThresholdModel& fig9_model() {
  static const ThresholdModel m{{10 * 1024, 1024 * 1024}, {7, 5}};
  return m;
}

std::vector<std::int64_t> fig9_thresholds(bool shifted) {
  std::vector<std::int64_t> flat;
  for (std::size_t i = 0; i < fig9_model().limits.size(); ++i) {
    flat.push_back(fig9_model().limits[i] / (shifted ? 2 : 1));
    flat.push_back(fig9_model().priorities[i]);
  }
  return flat;
}

// Worker-host egress packets captured after the enclave, with the
// fields the enclave writes reset: the stage's view of them.
struct Capture {
  bool on = false;
  netsim::HostId src = 0;
  std::vector<netsim::Packet> packets;

  void take(const netsim::Packet& p) {
    if (!on || p.src != src || p.payload_bytes == 0 ||
        packets.size() >= kSample) {
      return;
    }
    netsim::Packet c = p;
    c.priority = 0;
    c.path_label = -1;
    c.rl_queue = -1;
    c.charge_bytes = 0;
    c.drop_mark = false;
    packets.push_back(c);
  }
};

struct RoundStats {
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t flows_checked = 0;
  state::FlowStoreStats store;
  std::uint64_t steps = 0, executions = 0;
};

// One testbed: client, worker and background senders on one ToR, PIAS
// installed on every sender's enclave.
class Fig9Bed {
 public:
  Fig9Bed(std::uint64_t seed, Capture* capture)
      : bed_(stack_config(capture)),
        stage_("fig9", {"kind"}, {"msg_id", "msg_size", "flow_size"},
               bed_.registry()) {
    auto& client = bed_.add_host("client");
    auto& worker = bed_.add_host("worker");
    std::vector<netsim::HostNode*> bg;
    for (int i = 0; i < kBackground; ++i) {
      bg.push_back(&bed_.add_host("bg" + std::to_string(i)));
    }
    auto& sw = bed_.add_switch("tor");
    netsim::QueueConfig qc;
    qc.per_queue_bytes = 512 * 1024;
    bed_.connect(client, sw, kLinkBps, kLinkDelay, qc);
    bed_.connect(worker, sw, kLinkBps, kLinkDelay, qc);
    for (auto* b : bg) bed_.connect(*b, sw, kLinkBps, kLinkDelay, qc);
    bed_.routing().install_dest_routes();
    core::EnclaveConfig ec;
    ec.rng_seed = seed;
    bed_.finalize(ec);
    client_ = bed_.host_by_name("client");
    worker_ = bed_.host_by_name("worker");
    senders_.push_back(worker_);
    for (auto* b : bg) senders_.push_back(bed_.host_by_name(b->name()));
    for (experiments::TestHost* h : senders_) {
      const core::ActionId a = h->enclave->install_action(
          "pias", pias_.compile(), pias_.global_fields());
      functions::push_priority_thresholds(*h->enclave, a, fig9_model().limits,
                                          fig9_model().priorities);
      h->enclave->add_rule(h->enclave->create_table("sched"),
                           core::ClassPattern("*"), a);
      actions_.push_back(a);
    }
    const core::MetaFieldMask mask = core::meta_bit(core::MetaField::msg_id) |
                                     core::meta_bit(core::MetaField::msg_size) |
                                     core::meta_bit(core::MetaField::flow_size);
    stage_.create_rule("flows", {core::FieldPattern::exact("response")},
                       "response", mask);
    stage_.create_rule("flows", {core::FieldPattern::exact("background")},
                       "background", mask);
    if (capture != nullptr) capture->src = worker_->node->id();
    rng_.reseed(seed);
  }

  // Runs the interval with Poisson response flows and looping background
  // flows, checking every completed flow.
  RoundStats run(Tracer* tracer, std::vector<double>& fct_us, CheckLog& log) {
    const auto dist = apps::FlowSizeDistribution::web_search();
    const apps::PoissonArrivals arrivals(kLoad, kLinkBps, dist.mean());
    netsim::Scheduler& sched = bed_.network().scheduler();
    RoundStats st;

    client_->stack->listen(kResponsePort, [&](transport::TcpReceiver& r,
                                              const hoststack::FlowInfo& info) {
      const netsim::FlowId fid = info.flow_id;
      r.expect(static_cast<std::uint64_t>(info.meta.msg_size));
      transport::TcpReceiver* rp = &r;
      r.on_complete = [&, fid, rp] {
        const auto it = flows_.find(fid);
        if (it == flows_.end()) return;
        const Flow f = it->second;
        flows_.erase(it);
        const std::int64_t fct = sched.now() - f.start;
        // One-way floor: two links' propagation.
        check_flow(rp->delivered_bytes(), f.size, fct, kLinkBps,
                   2 * kLinkDelay, log);
        ++st.flows_checked;
        if (f.size < kTimedBelow) fct_us.push_back(netsim::to_micros(fct));
        client_->stack->close_flow(fid);
      };
    });
    client_->stack->listen(kBackgroundPort,
                           [](transport::TcpReceiver&, const hoststack::FlowInfo&) {});

    std::function<void()> arrive = [&] {
      sched.after(arrivals.next_gap(rng_), [&] {
        const std::uint64_t size = dist.sample(rng_);
        netsim::PacketMeta avail;
        avail.msg_id = next_msg_++;
        avail.msg_size = static_cast<std::int64_t>(size);
        avail.flow_size = static_cast<std::int64_t>(size);
        core::Classification cls;
        {
          Tracer::Scope s(tracer, Layer::classify, avail.msg_id, round_span_);
          cls = stage_.classify(response_, avail);
        }
        transport::TcpSender& snd = worker_->stack->open_flow(
            client_->node->id(), kResponsePort, cls.meta, cls.classes);
        flows_.emplace(snd.flow_id(), Flow{sched.now(), size});
        track(*worker_, snd, st);
        snd.start(size);
        arrive();
      });
    };
    arrive();
    for (std::size_t i = 1; i < senders_.size(); ++i) start_background(*senders_[i], st, tracer);

    {
      Tracer::Scope s(tracer, Layer::sim_round, 0, 0);
      round_span_ = s.span;
      sched.run_until(sched.now() + kRoundNs);
    }
    for (const auto& [fid, snd] : open_senders_) add_retransmits(*snd, st);
    for (const auto& h : bed_.network().hosts()) st.packets += h->port(0).tx_packets();
    st.events = sched.dispatched();
    std::uint64_t errors = 0;
    for (std::size_t i = 0; i < senders_.size(); ++i) {
      const core::ActionStats as = senders_[i]->enclave->action_stats(actions_[i]);
      errors += as.errors;
      st.steps += as.steps;
      st.executions += as.executions;
    }
    check_equal("pias.interpreter_errors", static_cast<std::int64_t>(errors), 0,
                log);
    st.store = worker_->enclave->message_store_stats(actions_[0]);
    return st;
  }

 private:
  struct Flow {
    netsim::SimTime start;
    std::uint64_t size;
  };

  static hoststack::HostStackConfig stack_config(Capture* capture) {
    hoststack::HostStackConfig hc;
    if (capture != nullptr) {
      hc.post_enclave = [capture](netsim::Packet& p) { capture->take(p); };
    }
    return hc;
  }

  static void add_retransmits(const transport::TcpSender& s, RoundStats& st) {
    st.retransmits += s.stats().fast_retransmits + s.stats().timeouts;
  }

  void track(experiments::TestHost& host, transport::TcpSender& snd,
             RoundStats& st) {
    const netsim::FlowId fid = snd.flow_id();
    open_senders_[fid] = &snd;
    transport::TcpSender* sp = &snd;
    experiments::TestHost* hp = &host;
    auto chained = std::move(snd.on_complete);
    snd.on_complete = [this, fid, sp, hp, &st, chained] {
      add_retransmits(*sp, st);
      open_senders_.erase(fid);
      if (chained) chained();
      hp->stack->close_flow(fid);
    };
  }

  void start_background(experiments::TestHost& src, RoundStats& st,
                        Tracer* tracer) {
    netsim::PacketMeta avail;
    avail.msg_id = next_msg_++;
    avail.msg_size = static_cast<std::int64_t>(kBgFlowBytes);
    avail.flow_size = static_cast<std::int64_t>(kBgFlowBytes);
    core::Classification cls;
    {
      Tracer::Scope s(tracer, Layer::classify, avail.msg_id, round_span_);
      cls = stage_.classify(background_, avail);
    }
    transport::TcpSender& snd = src.stack->open_flow(
        client_->node->id(), kBackgroundPort, cls.meta, cls.classes);
    experiments::TestHost* sp = &src;
    snd.on_complete = [this, sp, &st, tracer] { start_background(*sp, st, tracer); };
    track(src, snd, st);
    snd.start(kBgFlowBytes);
  }

  experiments::Testbed bed_;
  core::Stage stage_;
  const core::MessageAttrs response_{"response"};
  const core::MessageAttrs background_{"background"};
  functions::PiasFunction pias_;
  experiments::TestHost* client_ = nullptr;
  experiments::TestHost* worker_ = nullptr;
  std::vector<experiments::TestHost*> senders_;
  std::vector<core::ActionId> actions_;
  util::Rng rng_;
  std::int64_t next_msg_ = 1;
  std::uint64_t round_span_ = 0;  // parent of the spans inside run_until
  std::unordered_map<netsim::FlowId, Flow> flows_;
  std::unordered_map<netsim::FlowId, transport::TcpSender*> open_senders_;
};

}  // namespace

void run_sim_fig9(const Args& args, Report& report) {
  SetupTimes setup;
  Tracer tracer;
  Capture capture;
  std::vector<double> fct_us;
  RoundStats last;
  const double budget = args.trace ? 0.3 * args.seconds : args.seconds;
  // Untraced rounds (all of an untraced run; the traced run's baseline
  // for its overhead figure), then traced rounds.
  // Runs intervals 0, 1, 2, ... (each with its own seed) for `seconds`
  // of wall time, or exactly `count` of them when count > 0.
  auto rounds = [&](double seconds, std::uint64_t count, Tracer* tr,
                    RoundStats& sum) {
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t w0 = wall_ns();
    const std::uint64_t a0 = alloc_count();
    const std::int64_t end = w0 + static_cast<std::int64_t>(seconds * 1e9);
    std::uint64_t n = 0;
    do {
      const std::uint64_t round_seed =
          util::mix64(args.seed * 1'000'003ULL + n++);
      const std::int64_t c0 = thread_cpu_ns();
      Fig9Bed bed(round_seed, &capture);
      // Every interval sets up its own bed, so set-up is repeated all
      // through the run; the first, cold one is left out.
      if (n > 1) {
        setup.reps.push_back(static_cast<double>(thread_cpu_ns() - c0) * 1e-9);
      }
      capture.on = capture.packets.size() < kSample;
      last = bed.run(tr, fct_us, report.checks);
      capture.on = false;
      sum.packets += last.packets;
      sum.events += last.events;
      sum.retransmits += last.retransmits;
      sum.flows_checked += last.flows_checked;
      ++report.attempted;
    } while (count > 0 ? n < count : wall_ns() < end);
    struct {
      std::int64_t cpu, wall;
      std::uint64_t allocs;
    } r{process_cpu_ns() - cpu0, wall_ns() - w0, alloc_count() - a0};
    return r;
  };

  RoundStats base;
  const auto u = rounds(budget, 0, nullptr, base);
  if (!args.trace) {
    // One thread does all the work, so its CPU time per packet is both
    // the cost and (inverted) the rate it sustains on one core.
    const double cpu_per_pkt =
        static_cast<double>(u.cpu) / static_cast<double>(base.packets);
    report.set("setup_s", setup.median(), "s");
    report.set("throughput_pps", 1e9 / cpu_per_pkt, "pkts/s");
    report.set("cpu_ns_per_pkt", cpu_per_pkt, "ns");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("sim_fig9: %llu intervals of %lld ms, %llu flows checked, %zu "
                "timed FCTs (p50 %.1f us, p99 %.1f us); %.0f pkts/s of wall "
                "time\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<long long>(kRoundNs / netsim::kMillisecond),
                static_cast<unsigned long long>(base.flows_checked),
                fct_us.size(), percentile(fct_us, 0.5), percentile(fct_us, 0.99),
                static_cast<double>(base.packets) /
                    (static_cast<double>(u.wall) * 1e-9));
    return;
  }

  if (capture.packets.empty()) {
    report.checks.fail("sim_fig9: no worker egress packets captured");
    return;
  }
  // No data-plane workers and no load generator run here: their layers
  // read 0.
  for (const char* name :
       {"hoststack.submit_ns_per_pkt", "hoststack.drain_ns_per_pkt",
        "hoststack.worker_busy_ns_per_pkt", "hoststack.worker_idle_ns_per_pkt",
        "bench.generate_ns_per_pkt", "bench.check_ns_per_pkt"}) {
    report.set(name, 0, "ns");
  }
  report.set("hoststack.batch_mean", 0, "pkts");
  report.set("hoststack.ring_depth_max", 0, "pkts");
  report.set("hoststack.backpressure", 0, "count");
  report.set("hoststack.imbalance", 0, "ratio");
  report.set("loadgen.late_p99_us", 0, "us");

  tracer.reset_totals();
  RoundStats traced;
  alloc_counting(true);
  tracer.set_recording(true);
  // The same intervals again, traced: the overhead compares equal work.
  const auto t = rounds(0, report.attempted, &tracer, traced);
  tracer.set_recording(false);
  alloc_counting(false);
  const double pkts = static_cast<double>(std::max<std::uint64_t>(traced.packets, 1));
  const double cpu_traced = static_cast<double>(t.cpu) / pkts;
  const double cpu_untraced =
      static_cast<double>(u.cpu) /
      static_cast<double>(std::max<std::uint64_t>(base.packets, 1));
  report.set("trace.overhead_pct", 100.0 * (cpu_traced / cpu_untraced - 1.0),
             "%");
  const double classify = static_cast<double>(tracer.total_ns(Layer::classify));
  report.set("stage.classify_ns",
             classify / static_cast<double>(
                            std::max<std::uint64_t>(tracer.calls(Layer::classify), 1)),
             "ns");
  const double run = static_cast<double>(tracer.total_ns(Layer::sim_round));
  report.set("netsim.events_per_pkt", static_cast<double>(traced.events) / pkts,
             "count");
  report.set("netsim.ns_per_event",
             run / static_cast<double>(std::max<std::uint64_t>(traced.events, 1)),
             "ns");
  report.set("pool.allocs_per_pkt", static_cast<double>(t.allocs) / pkts, "count");
  report.set("transport.retransmits", static_cast<double>(traced.retransmits),
             "count");
  report.set("ledger.unattributed_ns_per_pkt", cpu_traced - run / pkts, "ns");
  report.set("state.live", static_cast<double>(last.store.live), "count");
  report.set("state.created", static_cast<double>(last.store.created), "count");
  report.set("state.evicted", static_cast<double>(last.store.evicted), "count");
  report.set("state.probe_len_mean", last.store.probe_len.mean(), "slots");
  report.set("lang.steps_per_pkt",
             static_cast<double>(last.steps) /
                 static_cast<double>(std::max<std::uint64_t>(last.executions, 1)),
             "count");
  report.set("nic.backlog_max", 0, "pkts");
  // Figure 9's flow completion times, in simulated time.
  report.set("latency_p50_us", percentile(fct_us, 0.50), "us");
  report.set("latency_p99_us", percentile(fct_us, 0.99), "us");
  report.set("loadgen.wall_pps",
             static_cast<double>(base.packets) / (static_cast<double>(u.wall) * 1e-9),
             "pkts/s");
  const netsim::PacketPoolStats ps = netsim::default_packet_pool().stats();
  report.set("pool.in_use_max", static_cast<double>(ps.in_use), "count");
  report.set("pool.exhausted", static_cast<double>(ps.exhausted_total), "count");
  report.set("pool.heap_fallback", static_cast<double>(ps.heap_fallback_total),
             "count");

  DirectSpec spec;
  spec.actions.push_back(
      {nullptr, "sched", "*", fig9_thresholds(false), -1});
  static const functions::PiasFunction pias;
  spec.actions.back().fn = &pias;
  spec.repoint_action = "pias";
  spec.repoint_field = "priorities";
  spec.repoints = {fig9_thresholds(true), fig9_thresholds(false)};
  spec.sample = capture.packets;
  for (std::size_t i = 0; i < (1u << 16) && !spec.sample.empty(); ++i) {
    spec.keys.push_back(spec.sample[i % spec.sample.size()].meta.msg_id);
  }
  run_direct(spec, report);
  if (!args.trace_out.empty() && !tracer.write_chrome_json(args.trace_out)) {
    report.checks.fail("trace: cannot write " + args.trace_out);
  }
}

}  // namespace e2e
