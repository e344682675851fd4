#include "harness.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "direct.h"
#include "netsim/packet_pool.h"
#include "util/rng.h"

namespace e2e {

using namespace eden;

namespace {
constexpr std::uint64_t kLinkBps = 400'000'000'000ULL;
constexpr netsim::SimTime kLinkDelayNs = 500;
constexpr std::size_t kLedgerSlots = std::size_t{1} << 17;
}  // namespace

Rig::Rig(const core::EnclaveConfig& config, std::size_t workers) {
  tx = &net.add_host("tx");
  rx = &net.add_host("rx");
  // The link buffers whatever the window puts in flight: what is measured
  // is the host's cost per packet, not link loss.
  netsim::QueueConfig qc;
  qc.per_queue_bytes = 1u << 30;
  net.connect(*tx, *rx, kLinkBps, kLinkDelayNs, qc);
  enclave = std::make_unique<core::Enclave>("e2e", registry, config);
  hoststack::HostStackConfig hc;
  hc.dataplane.workers = workers;
  hc.dataplane_poll_ns = kPollNs;
  stack = std::make_unique<hoststack::HostStack>(net, *tx, *enclave, hc);
}

Rig::~Rig() {
  // The stack flushes its data plane into the NIC and the link on the
  // way out, so it goes before the enclave and the network.
  stack.reset();
  enclave.reset();
}

std::uint64_t Rig::drops() const {
  return stack->enclave_drops() + stack->nic().bad_queue_drops() +
         tx->port(0).queue_stats().dropped_packets;
}

LoadGen::LoadGen(Rig& rig, Traffic& traffic, CheckLog& log, Tracer* tracer)
    : rig_(rig),
      traffic_(traffic),
      log_(log),
      tracer_(tracer),
      ledger_(kLedgerSlots) {
  traffic_.tracer = tracer;
  rig_.rx->set_deliver(
      [this](netsim::PacketPtr p) { on_deliver(std::move(p)); });
}

LoadGen::~LoadGen() {
  rig_.rx->set_deliver(nullptr);
  traffic_.tracer = nullptr;
}

LoadGen::Mark LoadGen::mark() const {
  Mark m{};
  m.wall = wall_ns();
  m.cpu = process_cpu_ns();
  m.main_cpu = thread_cpu_ns();
  m.completed = ledger_.completed();
  m.events = rig_.net.scheduler().dispatched();
  m.allocs = alloc_count();
  const hoststack::DataPlaneStats st = rig_.stack->dataplane()->stats();
  for (const auto& w : st.workers) {
    m.worker_busy.push_back(w.busy_ns);
    m.busy += w.busy_ns;
    m.processed += w.processed;
    m.batches += w.batches;
  }
  return m;
}

void LoadGen::start_windows(const Mark& m0) {
  windows_.clear();
  window_mark_ = m0;
}

void LoadGen::maybe_close_window(std::int64_t now) {
  if (now - window_mark_.wall < static_cast<std::int64_t>(kWindowS * 1e9)) {
    return;
  }
  const Mark m = mark();
  Window w;
  w.packets = m.completed - window_mark_.completed;
  w.wall_ns = m.wall - window_mark_.wall;
  w.cpu_ns = m.cpu - window_mark_.cpu;
  w.main_cpu_ns = m.main_cpu - window_mark_.main_cpu;
  w.busy_ns = m.busy - window_mark_.busy;
  for (std::size_t i = 0; i < m.worker_busy.size(); ++i) {
    w.busy_max_ns = std::max(w.busy_max_ns,
                             m.worker_busy[i] - window_mark_.worker_busy[i]);
  }
  w.latencies_end = latencies_us_.size();
  windows_.push_back(w);
  window_mark_ = m;
}

PhaseStats LoadGen::since(const Mark& m0) const {
  const Mark m1 = mark();
  PhaseStats s;
  s.windows = windows_;
  s.packets = m1.completed - m0.completed;
  s.cpu_ns = m1.cpu - m0.cpu;
  s.main_cpu_ns = m1.main_cpu - m0.main_cpu;
  s.events = m1.events - m0.events;
  s.allocs = m1.allocs - m0.allocs;
  s.busy_ns = m1.busy - m0.busy;
  s.processed = m1.processed - m0.processed;
  s.batches = m1.batches - m0.batches;
  return s;
}

void LoadGen::offer_one(std::int64_t due_ns, std::uint64_t parent) {
  netsim::PacketPtr p = netsim::make_packet();
  Expect e;
  {
    Tracer::Scope g(tracer_, Layer::generate,
                    static_cast<std::int64_t>(ledger_.offered()), parent);
    traffic_.parent_span = g.span;
    traffic_.next(*p, e);
  }
  e.due_ns = due_ns;
  p->debug_id = ledger_.offer(e);
  Tracer::Scope s(tracer_, Layer::submit, static_cast<std::int64_t>(p->debug_id),
                  parent);
  rig_.stack->send_raw(std::move(p));
}

void LoadGen::on_deliver(netsim::PacketPtr p) {
  Tracer::Scope s(tracer_, Layer::deliver,
                  static_cast<std::int64_t>(p->debug_id), round_span_);
  const Expect* e = ledger_.complete(p->debug_id, log_);
  if (e == nullptr) return;
  if (timing_latency_ && e->due_ns != 0) {
    latencies_us_.push_back(static_cast<double>(wall_ns() - e->due_ns) * 1e-3);
  }
  traffic_.complete(*p, *e, log_);
}

PhaseStats LoadGen::closed_loop(double seconds) {
  netsim::Scheduler& sched = rig_.net.scheduler();
  const Mark m0 = mark();
  const std::int64_t end = m0.wall + static_cast<std::int64_t>(seconds * 1e9);
  start_windows(m0);
  netsim::SimTime vt = sched.now();
  for (std::uint64_t round = 0;; ++round) {
    const std::int64_t now = wall_ns();
    maybe_close_window(now);
    if (now >= end) break;
    if (tracer_ != nullptr) tracer_->set_recording(round % 128 == 0);
    Tracer::Scope it(tracer_, Layer::iteration, static_cast<std::int64_t>(round),
                     0);
    round_span_ = it.span;
    const std::uint64_t completed_before = ledger_.completed();
    std::size_t n = 0;
    while (ledger_.outstanding() < kWindow && n < kBurst) {
      offer_one(0, it.span);
      ++n;
    }
    // A full window still moves the clock, by ten polls, so packets a
    // token bucket holds are released without the loop spinning on them.
    vt += n > 0 ? static_cast<netsim::SimTime>(n) * kGapNs : 10 * kPollNs;
    {
      Tracer::Scope d(tracer_, Layer::drain, static_cast<std::int64_t>(round),
                      it.span);
      sched.run_until(std::max(vt, sched.now() + kPollNs));
    }
    vt = std::max(vt, sched.now());
    if (on_round) on_round();
    // Nothing could be offered and nothing came back: the workers are
    // behind. Sleep instead of spinning, so the producer's CPU time is
    // its work on packets, not its waiting.
    if (n == 0 && ledger_.completed() == completed_before) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  if (tracer_ != nullptr) tracer_->set_recording(false);
  return since(m0);
}

PhaseStats LoadGen::open_loop(double seconds, const std::vector<double>& gaps) {
  netsim::Scheduler& sched = rig_.net.scheduler();
  latencies_us_.clear();
  late_us_.clear();
  timing_latency_ = true;
  const Mark m0 = mark();
  start_windows(m0);
  const std::int64_t t0 = m0.wall;
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const netsim::SimTime v0 = sched.now();
  double due = static_cast<double>(t0) + gaps[0];
  std::size_t gi = 1;
  for (std::uint64_t round = 0;; ++round) {
    const std::int64_t now = wall_ns();
    maybe_close_window(now);
    if (now >= end) break;
    if (tracer_ != nullptr) tracer_->set_recording(round % 1024 == 0);
    Tracer::Scope it(tracer_, Layer::iteration, static_cast<std::int64_t>(round),
                     0);
    round_span_ = it.span;
    while (due <= static_cast<double>(now) && !ledger_.full()) {
      late_us_.push_back((static_cast<double>(now) - due) * 1e-3);
      offer_one(static_cast<std::int64_t>(due), it.span);
      due += gaps[gi++ % gaps.size()];
    }
    {
      Tracer::Scope d(tracer_, Layer::drain, static_cast<std::int64_t>(round),
                      it.span);
      sched.run_until(v0 + (now - t0));
    }
    if (on_round) on_round();
  }
  if (tracer_ != nullptr) tracer_->set_recording(false);
  return since(m0);
}

bool LoadGen::drain(double timeout_s) {
  netsim::Scheduler& sched = rig_.net.scheduler();
  const std::int64_t end = wall_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  bool ok = true;
  while (ledger_.completed() + rig_.drops() < ledger_.offered()) {
    if (wall_ns() > end) {
      ok = false;
      break;
    }
    sched.run_until(sched.now() + 100 * kPollNs);
  }
  timing_latency_ = false;
  return ok;
}

void report_dataplane_layers(const PhaseStats& st, const Tracer& tr, Rig& rig,
                             std::int64_t extra_cpu_ns, Report& report) {
  const double pkts = static_cast<double>(std::max<std::uint64_t>(st.packets, 1));
  const double classify = static_cast<double>(tr.total_ns(Layer::classify));
  const double generate =
      static_cast<double>(tr.total_ns(Layer::generate)) - classify;
  const double submit = static_cast<double>(tr.total_ns(Layer::submit));
  const double deliver = static_cast<double>(tr.total_ns(Layer::deliver));
  const double drain = static_cast<double>(tr.total_ns(Layer::drain)) - deliver;
  const double busy = static_cast<double>(st.busy_ns);
  const double worker_cpu = static_cast<double>(st.cpu_ns - st.main_cpu_ns -
                                                extra_cpu_ns);
  const double idle = std::max(0.0, worker_cpu - busy);
  const double cpu_per_pkt = static_cast<double>(st.cpu_ns) / pkts;

  report.set("stage.classify_ns",
             classify / static_cast<double>(
                            std::max<std::uint64_t>(tr.calls(Layer::classify), 1)),
             "ns");
  report.set("hoststack.submit_ns_per_pkt", submit / pkts, "ns");
  report.set("hoststack.drain_ns_per_pkt", drain / pkts, "ns");
  report.set("hoststack.worker_busy_ns_per_pkt",
             busy / static_cast<double>(std::max<std::uint64_t>(st.processed, 1)),
             "ns");
  report.set("hoststack.worker_idle_ns_per_pkt", idle / pkts, "ns");
  report.set("hoststack.batch_mean",
             static_cast<double>(st.processed) /
                 static_cast<double>(std::max<std::uint64_t>(st.batches, 1)),
             "pkts");
  const hoststack::DataPlaneStats ds = rig.stack->dataplane()->stats();
  std::uint64_t depth = 0;
  for (const auto& w : ds.workers) depth = std::max(depth, w.max_ring_depth);
  report.set("hoststack.ring_depth_max", static_cast<double>(depth), "pkts");
  report.set("hoststack.backpressure",
             static_cast<double>(ds.submit_backpressure), "count");
  report.set("hoststack.imbalance", ds.imbalance, "ratio");
  report.set("bench.generate_ns_per_pkt", generate / pkts, "ns");
  report.set("bench.check_ns_per_pkt", deliver / pkts, "ns");
  report.set("netsim.events_per_pkt", static_cast<double>(st.events) / pkts,
             "count");
  report.set("netsim.ns_per_event",
             drain / static_cast<double>(std::max<std::uint64_t>(st.events, 1)),
             "ns");
  report.set("pool.allocs_per_pkt", static_cast<double>(st.allocs) / pkts,
             "count");
  const double attributed =
      (classify + generate + submit + drain + deliver + busy + idle) / pkts;
  report.set("ledger.unattributed_ns_per_pkt", cpu_per_pkt - attributed, "ns");
}

// --- The data-plane run ------------------------------------------------------

namespace {


std::vector<double> exponential_gaps(std::uint64_t seed, double mean_ns,
                                     std::size_t n) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);
  std::vector<double> gaps(n);
  for (double& g : gaps) g = rng.exponential(mean_ns);
  return gaps;
}

// Median over windows of a per-window figure.
template <typename F>
double window_median(const std::vector<Window>& windows, F&& f) {
  std::vector<double> v;
  for (const Window& w : windows) {
    if (w.packets > 0) v.push_back(f(w));
  }
  return percentile(std::move(v), 0.5);
}

// Median over the open-loop windows of each window's latency quantile.
double latency_median(const std::vector<Window>& windows,
                      const std::vector<double>& lat, double q) {
  std::vector<double> v;
  std::size_t begin = 0;
  for (const Window& w : windows) {
    if (w.latencies_end > begin) {
      v.push_back(percentile(
          std::vector<double>(lat.begin() + static_cast<std::ptrdiff_t>(begin),
                              lat.begin() +
                                  static_cast<std::ptrdiff_t>(w.latencies_end)),
          q));
    }
    begin = w.latencies_end;
  }
  return percentile(std::move(v), 0.5);
}

double per(double num, std::uint64_t den) {
  return num / static_cast<double>(std::max<std::uint64_t>(den, 1));
}

}  // namespace

void run_dataplane(const Args& args, Report& report,
                   const std::function<std::unique_ptr<DataPlaneWorkload>()>&
                       build) {
  auto timed_build = [&](std::unique_ptr<DataPlaneWorkload>& into) {
    into.reset();
    const std::int64_t c0 = thread_cpu_ns();
    into = build();
    return static_cast<double>(thread_cpu_ns() - c0) * 1e-9;
  };
  SetupTimes setup;
  std::unique_ptr<DataPlaneWorkload> w;
  // A set-up that fills a large working set cannot have a spare copy
  // beside the live one (the memory would double peak_rss_mb); it is
  // rebuilt a few times before the run instead. Cheaper set-ups build
  // and drop spares between slices of the closed loop.
  const bool spread_setup = timed_build(w) < kSpreadSetupBelowS;
  if (!spread_setup && !args.trace) {
    for (int k = 0; k < kMinSetupReps; ++k) {
      setup.reps.push_back(timed_build(w));
    }
  }
  progress("set-up done");
  const std::vector<double> gaps =
      exponential_gaps(args.seed, 1e9 / w->open_rate_pps(), 1 << 20);

  Rig& rig = w->rig();
  Tracer tracer;
  LoadGen d(rig, w->traffic(), report.checks, nullptr);
  const double s = args.seconds;
  w->start_background();
  d.closed_loop(0.05 * s);  // warm-up: caches, pool slabs, lazy set-up
  if (!args.trace) {
    PhaseStats c;
    const int slices = spread_setup ? kSetupSlices : 1;
    const double slice_s = (0.95 * s - (spread_setup ? kSetupBudgetS : 0)) /
                           static_cast<double>(slices);
    for (int i = 0; i < slices; ++i) {
      const PhaseStats ci = d.closed_loop(std::max(slice_s, kWindowS));
      c.windows.insert(c.windows.end(), ci.windows.begin(), ci.windows.end());
      if (!spread_setup) continue;
      if (!d.drain(10.0)) report.checks.fail("drain: closed-loop packets stuck");
      std::unique_ptr<DataPlaneWorkload> spare;
      setup.repeat_for(kSetupBudgetS / kSetupSlices,
                       [&] { return timed_build(spare); });
    }
    report.set("setup_s", setup.median(), "s");
    // Capacity is bounded by the producer or by the busiest worker, so
    // skewed steering shows.
    report.set("throughput_pps",
               window_median(c.windows, [](const Window& x) {
                 return 1e9 / std::max(per(static_cast<double>(x.main_cpu_ns),
                                           x.packets),
                                       per(static_cast<double>(x.busy_max_ns),
                                           x.packets));
               }),
               "pkts/s");
    report.set("cpu_ns_per_pkt", window_median(c.windows, [](const Window& x) {
                 return per(static_cast<double>(x.main_cpu_ns) +
                                static_cast<double>(x.busy_ns),
                            x.packets);
               }),
               "ns");
    std::printf("closed loop: %.0f pkts/s of wall time (window median)\n",
                window_median(c.windows, [](const Window& x) {
                  return static_cast<double>(x.packets) /
                         (static_cast<double>(x.wall_ns) * 1e-9);
                }));
  } else {
    const PhaseStats u = d.closed_loop(0.25 * s);
    d.set_tracer(&tracer);
    tracer.reset_totals();
    const std::int64_t bg0 = w->background_cpu_ns();
    alloc_counting(true);
    const PhaseStats t = d.closed_loop(0.25 * s);
    alloc_counting(false);
    d.set_tracer(nullptr);
    report_dataplane_layers(t, tracer, rig, w->background_cpu_ns() - bg0,
                            report);
    const double untraced = per(static_cast<double>(u.main_cpu_ns), u.packets);
    const double traced = per(static_cast<double>(t.main_cpu_ns), t.packets);
    report.set("trace.overhead_pct", 100.0 * (traced / untraced - 1.0), "%");
    report.set("loadgen.wall_pps", window_median(u.windows, [](const Window& x) {
                 return static_cast<double>(x.packets) /
                        (static_cast<double>(x.wall_ns) * 1e-9);
               }),
               "pkts/s");
    std::printf("producer cpu: %.1f ns/pkt traced vs %.1f untraced\n", traced,
                untraced);

    // Open loop (untraced): latency from each packet's due time.
    if (!d.drain(10.0)) report.checks.fail("drain: closed-loop packets stuck");
    std::uint64_t in_use_max = 0;
    std::uint64_t rounds = 0;
    d.on_round = [&] {
      w->sample_round();
      if (rounds++ % 64 == 0) {
        in_use_max = std::max(in_use_max,
                              netsim::default_packet_pool().stats().in_use);
      }
    };
    w->before_open();
    const PhaseStats o = d.open_loop(0.4 * s, gaps);
    if (!d.drain(10.0)) report.checks.fail("drain: open-loop packets stuck");
    w->after_open();
    d.on_round = nullptr;
    report.set("latency_p50_us",
               latency_median(o.windows, d.latencies_us(), 0.50), "us");
    report.set("latency_p99_us",
               latency_median(o.windows, d.latencies_us(), 0.99), "us");
    report.set("loadgen.late_p99_us", percentile(d.late_us(), 0.99), "us");
    const netsim::PacketPoolStats ps = netsim::default_packet_pool().stats();
    report.set("pool.in_use_max", static_cast<double>(in_use_max), "count");
    report.set("pool.exhausted", static_cast<double>(ps.exhausted_total),
               "count");
    report.set("pool.heap_fallback", static_cast<double>(ps.heap_fallback_total),
               "count");
    std::printf("open loop: %zu latencies at %.0f pkts/s offered\n",
                d.latencies_us().size(), w->open_rate_pps());
  }
  progress("phases done");
  w->stop_background();
  if (!d.drain(10.0)) report.checks.fail("drain: packets stuck after the run");
  w->finish(d, report.checks);
  progress("end-of-run checks done");
  d.ledger().check_conserved(rig.drops(), report.checks);
  report.attempted = d.ledger().offered();
  report.failed = d.ledger().offered() - d.ledger().completed();
  if (!args.trace) {
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  // Layers a workload does not use read 0; the workload overrides the
  // ones it does.
  for (const char* name : {"state.live", "state.created", "state.evicted",
                           "state.probe_len_mean", "nic.backlog_max",
                           "transport.retransmits"}) {
    report.set(name, 0, "count");
  }
  report.set("state.probe_len_mean", 0, "slots");
  report.set("nic.backlog_max", 0, "pkts");
  w->layer_metrics(report);
  run_direct(w->direct_spec(), report);
  progress("direct calls done");
  if (!args.trace_out.empty()) {
    if (tracer.write_chrome_json(args.trace_out)) {
      std::printf("trace: %zu spans -> %s\n", tracer.spans(),
                  args.trace_out.c_str());
    } else {
      report.checks.fail("trace: cannot write " + args.trace_out);
    }
  }
}

}  // namespace e2e
