// Microbenchmarks of the sharded data plane: SPSC ring hand-off cost,
// steering, and — the headline — the worker-count scaling curve of
// batched enclave execution plus the pooled-vs-heap datapath A/B.
//
// Besides the google-benchmark suite, main() runs a fixed-format sweep
// and writes BENCH_dataplane.json (override with --json=PATH). Two
// action profiles are swept, each in two datapath modes:
//
//   profile "heavy"    ~64 interpreter loop steps + a message-state
//                      bump per packet. Interpreter-dominated: this is
//                      the PR5-comparable scaling curve, and buffer
//                      management is a small fraction of its cost.
//   profile "forward"  a steer-only action (one field write). The
//                      per-packet datapath overhead — allocation, ring
//                      hops, classify/match, state marshalling — IS the
//                      cost, so this profile is where the pooled burst
//                      datapath shows up, and where the >=5x headline
//                      per-worker rate is gated.
//
//   mode "heap_single"  per-packet heap allocation (a zero-capacity
//                       pool, so every make() takes the heap fallback)
//                       + per-packet submit(): the datapath before the
//                       pool, kept as the A side.
//   mode "pooled_burst" pool-backed make_packet + submit_burst(): the
//                       PR6 datapath, B side.
//
// Throughput is reported two ways:
//   wall_pkts_per_sec  end-to-end wall-clock rate (bounded by the
//                      machine's core count — on a 1-core CI box every
//                      worker count walls out at the same rate), and
//   cpu_pkts_per_sec   the sum of per-worker contention-free rates
//                      (packets / CLOCK_THREAD_CPUTIME_ID nanoseconds
//                      spent inside process_batch). This is the
//                      aggregate enclave capacity the shard layout
//                      delivers when each worker has its own core, and
//                      is what the scaling curve tracks.
// allocs_per_packet counts process-wide operator-new calls per packet
// during the run (this binary links the counting allocator), making
// datapath allocation regressions visible in the JSON.
// --smoke shrinks the sweep and skips the absolute-rate gate for CI.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/enclave.h"
#include "hoststack/dataplane.h"
#include "hoststack/spsc_ring.h"
#include "netsim/packet_pool.h"
#include "support/alloc_count.h"

namespace {

using namespace eden;

long g_sweep_packets = 40000;
bool g_smoke = false;

// PR5's recorded 1-worker cpu_pkts_per_sec (heavy action, heap+single
// datapath) — the denominator of every speedup in the JSON.
constexpr double kPr5Baseline1wCpuRate = 805712.0;

// A compute-heavy per-message action (~64 interpreter loop steps plus a
// message-state bump), so the measured scaling is enclave execution,
// not ring overhead.
constexpr const char* kHeavyAction = R"(fun(p, m, g) ->
    let i = 0 in
    let acc = 0 in
    (while i < 64 do acc <- acc + i * 3 - 1; i <- i + 1 done;
     m.state0 <- m.state0 + 1;
     p.path <- acc % 1000))";

// A steer-only action: the minimal useful NF (set a priority and go).
// Everything around it — allocation, rings, classification, state
// marshalling — is what this profile measures.
constexpr const char* kForwardAction = "fun(p, m, g) -> p.priority <- 7";

struct Bed {
  core::ClassRegistry registry;
  core::Enclave enclave{"bench", registry};
  core::Controller controller{registry};

  explicit Bed(const char* action_source = kHeavyAction) {
    const auto program = controller.compile("act", action_source, {});
    const core::ActionId action = enclave.install_action("act", program, {});
    const core::TableId table = enclave.create_table("t");
    enclave.add_rule(table, core::ClassPattern("*"), action);
  }
};

void fill_packet(netsim::Packet& p, std::uint64_t i) {
  p.src = 1;
  p.dst = 2;
  p.src_port = 1000;
  p.dst_port = 2000;
  p.protocol = netsim::Protocol::tcp;
  p.size_bytes = 1514;
  p.payload_bytes = 1460;
  p.meta.msg_id = static_cast<std::int64_t>(i % 1024 + 1);
}

netsim::PacketPtr bench_packet(std::uint64_t i) {
  auto p = netsim::make_packet();
  fill_packet(*p, i);
  return p;
}

void BM_SpscRing_PushPop(benchmark::State& state) {
  hoststack::SpscRing<netsim::PacketPtr> ring(1024);
  netsim::PacketPtr packets[64];
  for (auto& p : packets) p = netsim::make_packet();
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(ring.push(std::move(packets[i])));
    }
    benchmark::DoNotOptimize(ring.pop_bulk(packets, 64));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpscRing_PushPop);

void BM_SpscRing_PushBulkPopBulk(benchmark::State& state) {
  hoststack::SpscRing<netsim::PacketPtr> ring(1024);
  netsim::PacketPtr packets[64];
  for (auto& p : packets) p = netsim::make_packet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.push_bulk(packets, 64));
    benchmark::DoNotOptimize(ring.pop_bulk(packets, 64));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpscRing_PushBulkPopBulk);

void BM_PacketAlloc_Heap(benchmark::State& state) {
  for (auto _ : state) {
    auto p = std::make_shared<netsim::Packet>();
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketAlloc_Heap);

void BM_PacketAlloc_Pooled(benchmark::State& state) {
  for (auto _ : state) {
    auto p = netsim::make_packet();
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketAlloc_Pooled);

void BM_Steering(benchmark::State& state) {
  auto p = bench_packet(7);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc += hoststack::DataPlane::shard_of(
        core::Enclave::steering_key(*p), 4);
    p->meta.msg_id = static_cast<std::int64_t>(acc % 4096 + 1);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Steering);

// Submit a burst through the data plane and flush it; the benchmark
// argument is the worker count.
void BM_DataPlane(benchmark::State& state) {
  Bed bed;
  hoststack::DataPlaneConfig config;
  config.workers = static_cast<std::size_t>(state.range(0));
  config.ring_capacity = 1024;
  hoststack::DataPlane dp(bed.enclave, config);
  const auto sink = [](netsim::PacketPtr) {};
  std::uint64_t seq = 0;
  std::vector<netsim::PacketPtr> burst(64);
  for (auto _ : state) {
    for (int b = 0; b < 4; ++b) {
      for (auto& slot : burst) slot = bench_packet(seq++);
      std::size_t sent = 0;
      while (sent < burst.size()) {
        sent += dp.submit_burst(std::span(burst.data(), burst.size()));
        if (sent < burst.size()) dp.drain_completions(sink);
      }
    }
    dp.flush(sink);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_DataPlane)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

struct SweepRun {
  std::size_t workers = 0;
  std::uint64_t packets = 0;
  std::uint64_t wall_ns = 0;
  double wall_rate = 0.0;
  double cpu_rate = 0.0;
  double imbalance = 0.0;
  double allocs_per_packet = 0.0;
  hoststack::DataPlaneStats stats;
};

// One sweep run: `pooled_burst` selects the PR6 datapath (pool-backed
// packets, burst submission); otherwise the pre-pool datapath (per-
// packet heap allocation, per-packet submit) is replayed as the A side.
SweepRun run_sweep(const char* action_source, bool pooled_burst,
                   std::size_t workers, std::uint64_t packets) {
  Bed bed(action_source);
  hoststack::DataPlaneConfig config;
  config.workers = workers;
  config.ring_capacity = 1024;
  hoststack::DataPlane dp(bed.enclave, config);
  const auto sink = [](netsim::PacketPtr) {};
  constexpr std::size_t kBurst = 64;
  netsim::PacketPoolConfig heap_only;
  heap_only.capacity_slots = 0;
  netsim::PacketPool heap(heap_only);
  const auto send = [&](std::uint64_t count) {
    if (pooled_burst) {
      std::vector<netsim::PacketPtr> burst(kBurst);
      std::uint64_t seq = 0;
      while (seq < count) {
        std::size_t filled = 0;
        while (filled < kBurst && seq < count) {
          burst[filled] = netsim::make_packet();
          fill_packet(*burst[filled], seq++);
          ++filled;
        }
        std::size_t sent = 0;
        while (sent < filled) {
          sent += dp.submit_burst(std::span(burst.data(), filled));
          if (sent < filled) dp.drain_completions(sink);
        }
      }
    } else {
      for (std::uint64_t i = 0; i < count; ++i) {
        auto p = heap.make();
        fill_packet(*p, i);
        while (!dp.submit(p)) dp.drain_completions(sink);
      }
    }
  };

  // One warm-up burst builds every worker's lazy state (enclave thread
  // state, magazines, ring scratch) outside the window, so the window
  // counts steady-state allocations only.
  send(kBurst);
  dp.flush(sink);

  const auto allocs0 = testsupport::alloc_counts();
  const auto t0 = std::chrono::steady_clock::now();
  send(packets);
  dp.flush(sink);
  const auto t1 = std::chrono::steady_clock::now();
  const auto allocs1 = testsupport::alloc_counts();

  SweepRun run;
  run.workers = workers;
  run.packets = packets;
  run.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  run.wall_rate = run.wall_ns > 0
                      ? static_cast<double>(packets) * 1e9 /
                            static_cast<double>(run.wall_ns)
                      : 0.0;
  run.allocs_per_packet =
      packets > 0 ? static_cast<double>(allocs1.news - allocs0.news) /
                        static_cast<double>(packets)
                  : 0.0;
  run.stats = dp.stats();
  for (const auto& w : run.stats.workers) {
    if (w.busy_ns > 0) {
      run.cpu_rate += static_cast<double>(w.processed) * 1e9 /
                      static_cast<double>(w.busy_ns);
    }
  }
  run.imbalance = run.stats.imbalance;
  return run;
}

std::string runs_json(const std::vector<SweepRun>& runs) {
  const double base = runs.front().cpu_rate;
  std::string json = "[\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SweepRun& r = runs[i];
    json += "        {\"workers\": " + std::to_string(r.workers) +
            ", \"wall_ns\": " + std::to_string(r.wall_ns) +
            ", \"wall_pkts_per_sec\": " + std::to_string(r.wall_rate) +
            ", \"cpu_pkts_per_sec\": " + std::to_string(r.cpu_rate) +
            ", \"imbalance\": " + std::to_string(r.imbalance) +
            ", \"allocs_per_packet\": " + std::to_string(r.allocs_per_packet) +
            ", \"scaling_vs_1w\": " +
            std::to_string(base > 0 ? r.cpu_rate / base : 0.0) +
            ", \"per_worker\": [";
    for (std::size_t w = 0; w < r.stats.workers.size(); ++w) {
      const auto& ws = r.stats.workers[w];
      if (w != 0) json += ", ";
      json += "{\"processed\": " + std::to_string(ws.processed) +
              ", \"busy_ns\": " + std::to_string(ws.busy_ns) +
              ", \"batches\": " + std::to_string(ws.batches) +
              ", \"max_ring_depth\": " + std::to_string(ws.max_ring_depth) +
              "}";
    }
    json += "]}";
    json += i + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "      ]";
  return json;
}

int run_scaling_sweep(const std::string& json_path) {
  const auto packets = static_cast<std::uint64_t>(g_sweep_packets);
  struct Profile {
    const char* name;
    const char* source;
    const char* description;
  };
  const Profile profiles[] = {
      {"heavy", kHeavyAction,
       "~64 interpreter steps + message-state bump per packet "
       "(PR5-comparable scaling curve)"},
      {"forward", kForwardAction,
       "steer-only action: per-packet datapath overhead dominates"},
  };
  struct Mode {
    const char* name;
    bool pooled_burst;
  };
  const Mode modes[] = {
      {"heap_single", false},  // pre-pool datapath: heap + submit()
      {"pooled_burst", true},  // PR6 datapath: pool + submit_burst()
  };

  std::string json =
      "{\n  \"note\": \"cpu_pkts_per_sec sums per-worker contention-free "
      "rates (thread CPU time inside process_batch); it equals wall-clock "
      "scaling when each worker has its own core. wall_pkts_per_sec is "
      "bounded by the benchmark machine's core count. allocs_per_packet is "
      "process-wide operator-new calls divided by packets for the run.\",\n";
  json += "  \"pr5_baseline_1w_cpu_pkts_per_sec\": " +
          std::to_string(kPr5Baseline1wCpuRate) + ",\n";
  json += "  \"packets_per_run\": " + std::to_string(packets) + ",\n";
  json += "  \"profiles\": [\n";

  double heavy_scaling4 = 0.0;
  double forward_pooled_1w = 0.0;
  double heavy_pooled_1w = 0.0;
  double pooled_allocs_per_packet = 0.0;

  for (std::size_t pi = 0; pi < std::size(profiles); ++pi) {
    const Profile& profile = profiles[pi];
    json += "    {\"profile\": \"" + std::string(profile.name) + "\",\n";
    json += "     \"description\": \"" + std::string(profile.description) +
            "\",\n     \"modes\": [\n";
    for (std::size_t mi = 0; mi < std::size(modes); ++mi) {
      const Mode& mode = modes[mi];
      std::vector<SweepRun> runs;
      for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        runs.push_back(
            run_sweep(profile.source, mode.pooled_burst, workers, packets));
        std::printf(
            "%s/%s workers=%zu  wall=%.0f pkt/s  cpu-normalized=%.0f pkt/s  "
            "allocs/pkt=%.3f  imbalance=%.2f\n",
            profile.name, mode.name, runs.back().workers,
            runs.back().wall_rate, runs.back().cpu_rate,
            runs.back().allocs_per_packet, runs.back().imbalance);
      }
      json += "      {\"mode\": \"" + std::string(mode.name) +
              "\", \"runs\": " + runs_json(runs) + "}";
      json += mi + 1 < std::size(modes) ? ",\n" : "\n";

      const double base = runs.front().cpu_rate;
      if (profile.name == std::string("heavy") && mode.pooled_burst) {
        heavy_scaling4 = base > 0 ? runs[2].cpu_rate / base : 0.0;
        heavy_pooled_1w = base;
      }
      if (profile.name == std::string("forward") && mode.pooled_burst) {
        forward_pooled_1w = base;
        pooled_allocs_per_packet = runs.front().allocs_per_packet;
      }
    }
    json += "     ]}";
    json += pi + 1 < std::size(profiles) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"headline\": {\n";
  json += "    \"forward_pooled_1w_cpu_pkts_per_sec\": " +
          std::to_string(forward_pooled_1w) + ",\n";
  json += "    \"forward_pooled_speedup_vs_pr5_baseline\": " +
          std::to_string(forward_pooled_1w / kPr5Baseline1wCpuRate) + ",\n";
  json += "    \"heavy_pooled_1w_cpu_pkts_per_sec\": " +
          std::to_string(heavy_pooled_1w) + ",\n";
  json += "    \"heavy_pooled_speedup_vs_pr5_baseline\": " +
          std::to_string(heavy_pooled_1w / kPr5Baseline1wCpuRate) + ",\n";
  json += "    \"heavy_pooled_scaling_4w\": " +
          std::to_string(heavy_scaling4) + ",\n";
  json += "    \"pooled_allocs_per_packet\": " +
          std::to_string(pooled_allocs_per_packet) + "\n";
  json += "  }\n}\n";

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);

  std::printf(
      "heavy 4-worker scaling: %.2fx; forward pooled 1w: %.0f pkt/s "
      "(%.2fx PR5 baseline); pooled allocs/pkt: %.4f (wrote %s)\n",
      heavy_scaling4, forward_pooled_1w,
      forward_pooled_1w / kPr5Baseline1wCpuRate, pooled_allocs_per_packet,
      json_path.c_str());

  // The acceptance bars. Scaling: 4 heavy workers must deliver >= 3x
  // the aggregate enclave capacity of 1. Zero-alloc: the pooled burst
  // datapath must average (well) under 1/100 heap allocation per
  // packet. Headline rate: the forward profile's pooled per-worker
  // rate must clear 5x the PR5 baseline — skipped under --smoke, where
  // the runs are too short for stable absolute rates.
  int rc = 0;
  if (heavy_scaling4 < 3.0) {
    std::fprintf(stderr, "FAIL: heavy 4-worker scaling %.2fx < 3x\n",
                 heavy_scaling4);
    rc = 1;
  }
  if (pooled_allocs_per_packet > 0.01) {
    std::fprintf(stderr, "FAIL: pooled datapath allocates %.4f per packet\n",
                 pooled_allocs_per_packet);
    rc = 1;
  }
  if (!g_smoke && forward_pooled_1w < 5.0 * kPr5Baseline1wCpuRate) {
    std::fprintf(stderr,
                 "FAIL: forward pooled 1w %.0f pkt/s < 5x PR5 baseline "
                 "(%.0f)\n",
                 forward_pooled_1w, 5.0 * kPr5Baseline1wCpuRate);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_dataplane.json";
  // Strip our own flags before handing argv to google-benchmark.
  for (int i = 1; i < argc;) {
    const std::string arg = argv[i];
    bool consumed = true;
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      g_sweep_packets = 4000;
      g_smoke = true;
    } else {
      consumed = false;
    }
    if (consumed) {
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_scaling_sweep(json_path);
}
