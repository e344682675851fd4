#include "direct.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "controlplane/session.h"
#include "core/enclave_schema.h"
#include "hoststack/nic.h"
#include "lang/optimizer.h"
#include "netsim/network.h"
#include "netsim/packet_pool.h"
#include "state/flow_store.h"

namespace e2e {

using namespace eden;

namespace {

constexpr std::size_t kCalls = 50'000;  // packets per timed repetition
constexpr int kReps = 5;                 // median of
constexpr std::size_t kBatch = 64;       // DataPlaneConfig::max_batch
constexpr int kTxns = 200;

double median_of(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// Name of the action's first array global (what array0 fills).
std::string first_array_field(const functions::NetworkFunction& fn) {
  for (const lang::FieldDef& f : fn.global_fields()) {
    if (f.kind != lang::FieldKind::scalar) return f.name;
  }
  return {};
}

bool reaches(const DirectAction& a, const netsim::Packet& p) {
  return a.only_tenant < 0 || p.meta.tenant == a.only_tenant;
}

// ns per call of `fn(i)` over `calls` calls, median of kReps.
template <typename Fn>
double time_calls(std::size_t n_items, Fn&& fn, std::size_t calls = kCalls) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = wall_ns();
    for (std::size_t i = 0; i < calls; ++i) fn(i % n_items);
    reps.push_back(static_cast<double>(wall_ns() - t0) /
                   static_cast<double>(calls));
  }
  return median_of(reps);
}

std::vector<netsim::PacketPtr> pooled(const std::vector<netsim::Packet>& s) {
  std::vector<netsim::PacketPtr> out;
  out.reserve(s.size());
  for (const netsim::Packet& p : s) {
    netsim::PacketPtr q = netsim::make_packet();
    *q = p;
    out.push_back(std::move(q));
  }
  return out;
}

double time_process(core::Enclave& enclave,
                    const std::vector<netsim::Packet>& sample) {
  std::vector<netsim::Packet> work = sample;
  return time_calls(work.size(), [&](std::size_t i) { enclave.process(work[i]); });
}

double time_batch(core::Enclave& enclave,
                  const std::vector<netsim::Packet>& sample) {
  std::vector<netsim::PacketPtr> work = pooled(sample);
  const std::size_t batches = work.size() / kBatch;
  return time_calls(
             batches,
             [&](std::size_t b) {
               enclave.process_batch(std::span(work).subspan(b * kBatch, kBatch));
             },
             kCalls / kBatch) /
         kBatch;
}

double time_marshal(const std::vector<netsim::Packet>& sample) {
  const lang::StateSchema schema = core::make_enclave_schema();
  lang::StateBlock block = lang::StateBlock::from_schema(schema, lang::Scope::packet);
  std::vector<netsim::Packet> work = sample;
  return time_calls(work.size(), [&](std::size_t i) {
    core::load_packet_state(work[i], block);
    core::store_packet_state(block, work[i]);
  });
}

// Interpreter::execute of every installed program a packet reaches, at
// the enclave's opt level, on marshalled blocks.
double time_execute(const DirectSpec& spec, Report& report) {
  struct Prog {
    lang::CompiledProgram program;
    lang::StateSchema schema;
    lang::StateBlock global;
    const DirectAction* action;
  };
  std::vector<Prog> progs;
  std::vector<double> compile_us;
  for (const DirectAction& a : spec.actions) {
    Prog p;
    p.action = &a;
    p.schema = core::make_enclave_schema(a.fn->global_fields());
    std::vector<double> reps;
    for (int r = 0; r < 20; ++r) {
      const std::int64_t t0 = wall_ns();
      lang::CompiledProgram prog =
          lang::optimize(a.fn->compile(), spec.config.opt_level);
      reps.push_back(static_cast<double>(wall_ns() - t0) * 1e-3);
      p.program = std::move(prog);
    }
    compile_us.push_back(median_of(reps));
    lang::verify_program(p.program, p.schema, spec.config.exec_limits);
    p.program.preverified = true;
    p.global = lang::StateBlock::from_schema(p.schema, lang::Scope::global);
    if (!a.array0.empty()) p.global.arrays[0].data = a.array0;
    progs.push_back(std::move(p));
  }
  double sum = 0;
  for (const double c : compile_us) sum += c;
  report.set("lang.compile_us", sum / static_cast<double>(compile_us.size()), "us");

  const lang::StateSchema base = core::make_enclave_schema();
  std::vector<lang::StateBlock> packets;
  std::unordered_map<std::int64_t, lang::StateBlock> messages;
  std::vector<lang::StateBlock*> msg_of;
  for (const netsim::Packet& p : spec.sample) {
    lang::StateBlock b = lang::StateBlock::from_schema(base, lang::Scope::packet);
    core::load_packet_state(p, b);
    packets.push_back(std::move(b));
    auto [it, fresh] = messages.try_emplace(
        p.meta.msg_id, lang::StateBlock::from_schema(base, lang::Scope::message));
    if (fresh) core::init_message_state(p, it->second);
  }
  for (const netsim::Packet& p : spec.sample) msg_of.push_back(&messages.at(p.meta.msg_id));

  lang::Interpreter interp(spec.config.exec_limits, spec.config.rng_seed);
  std::uint64_t errors = 0;
  const double ns = time_calls(packets.size(), [&](std::size_t i) {
    for (Prog& pr : progs) {
      if (!reaches(*pr.action, spec.sample[i])) continue;
      const lang::ExecResult r =
          interp.execute(pr.program, &packets[i], msg_of[i], &pr.global);
      errors += r.ok() ? 0 : 1;
    }
  });
  if (errors != 0) {
    report.checks.fail("lang: " + std::to_string(errors) +
                       " direct executions failed");
  }
  return ns;
}

void init_block(void* ctx, lang::StateBlock& block) {
  block = *static_cast<const lang::StateBlock*>(ctx);
}

// FlowStore::acquire on a standalone store fed the workload's keys.
double time_acquire(const std::vector<std::int64_t>& keys) {
  const lang::StateBlock proto = lang::StateBlock::from_schema(
      core::make_enclave_schema(), lang::Scope::message);
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    state::FlowStore store(state::FlowStoreConfig{});
    const std::int64_t t0 = wall_ns();
    {
      state::EpochDomain::Guard guard(store.domain());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        store.acquire(guard, keys[i], static_cast<std::int64_t>(i), &init_block,
                      const_cast<lang::StateBlock*>(&proto));
      }
    }
    reps.push_back(static_cast<double>(wall_ns() - t0) /
                   static_cast<double>(keys.size()));
  }
  return median_of(reps);
}

// Nic::send_burst on a standalone NIC with the workload's queues, fed
// the workload's packets as the enclave leaves them.
double time_send_burst(const DirectSpec& spec, core::Enclave& enclave) {
  netsim::Network net;
  auto& a = net.add_host("a");
  auto& b = net.add_host("b");
  netsim::QueueConfig qc;
  qc.per_queue_bytes = 1u << 30;
  net.connect(a, b, 400'000'000'000ULL, 500, qc);
  hoststack::Nic nic(net.scheduler(), a);
  for (const std::uint64_t rate : spec.queue_rates_bps) {
    nic.create_queue(rate, 256 * 1024);
  }
  std::vector<netsim::Packet> processed = spec.sample;
  for (netsim::Packet& p : processed) enclave.process(p);
  std::vector<double> reps;
  std::vector<netsim::PacketPtr> burst;
  for (int r = 0; r < kReps; ++r) {
    std::int64_t timed = 0;
    std::size_t sent = 0;
    while (sent < kCalls / 4) {
      for (std::size_t i = 0; i + kBatch <= processed.size(); i += kBatch) {
        burst.clear();
        for (std::size_t j = 0; j < kBatch; ++j) {
          netsim::PacketPtr q = netsim::make_packet();
          *q = processed[i + j];
          burst.push_back(std::move(q));
        }
        const std::int64_t t0 = wall_ns();
        nic.send_burst(std::span(burst));
        timed += wall_ns() - t0;
        sent += kBatch;
        net.scheduler().run();
      }
    }
    reps.push_back(static_cast<double>(timed) / static_cast<double>(sent));
  }
  return median_of(reps);
}

// begin_txn ... commit_txn directly on an enclave, with the repoint.
double time_publish(const DirectSpec& spec, core::Enclave& enclave) {
  const functions::NetworkFunction* fn = nullptr;
  for (const DirectAction& a : spec.actions) {
    if (a.fn->name() == spec.repoint_action) fn = a.fn;
  }
  const core::ActionId id = *enclave.find_action(fn->name());
  std::vector<double> us;
  for (int k = 0; k < kTxns; ++k) {
    const std::int64_t t0 = wall_ns();
    enclave.begin_txn();
    enclave.set_global_array(id, spec.repoint_field,
                             spec.repoints[static_cast<std::size_t>(k) %
                                           spec.repoints.size()]);
    enclave.commit_txn();
    us.push_back(static_cast<double>(wall_ns() - t0) * 1e-3);
  }
  return median_of(us);
}

// The same repoint through EnclaveSession -> pipe -> EnclaveAgent, from
// begin to acknowledged commit, with the bytes it moved.
void time_session(const DirectSpec& spec, Report& report) {
  core::ClassRegistry own;
  core::ClassRegistry& registry = spec.registry != nullptr ? *spec.registry : own;
  core::Enclave enclave("direct", registry, spec.config);
  controlplane::PipePump pump;
  controlplane::EnclaveAgent agent(enclave);
  std::atomic<std::uint64_t> bytes{0};
  controlplane::SessionConfig sc;
  sc.heartbeat_interval_ns = 1'000'000'000'000;
  sc.liveness_timeout_ns = 2'000'000'000'000;
  sc.request_timeout_ns = 2'000'000'000'000;
  controlplane::EnclaveSession session(
      "direct",
      [&]() -> std::unique_ptr<controlplane::Transport> {
        auto [near, far] = controlplane::make_pipe(pump);
        agent.attach(std::move(far));
        return std::make_unique<CountingTransport>(std::move(near), bytes);
      },
      [] { return static_cast<std::uint64_t>(wall_ns()); }, sc);
  session.tick();
  pump.run();
  for (const DirectAction& a : spec.actions) {
    session.install_action(a.fn->name(), a.fn->compile(), a.fn->global_fields());
    session.create_table(a.table);
    session.add_rule(a.table, a.pattern, a.fn->name());
    if (!a.array0.empty()) {
      session.set_global_array(a.fn->name(), first_array_field(*a.fn), a.array0);
    }
  }
  pump.run();
  std::vector<double> us;
  std::uint64_t moved = 0;
  for (int k = 0; k < kTxns; ++k) {
    const std::uint64_t committed = session.stats().txns_committed;
    const std::uint64_t b0 = bytes.load();
    const std::int64_t t0 = wall_ns();
    session.begin_txn();
    session.set_global_array(spec.repoint_action, spec.repoint_field,
                             spec.repoints[static_cast<std::size_t>(k) %
                                           spec.repoints.size()]);
    session.commit_txn();
    while (session.stats().txns_committed == committed && pump.run() != 0) {
    }
    if (session.stats().txns_committed == committed) {
      report.checks.fail("control plane: direct transaction not acknowledged");
      return;
    }
    us.push_back(static_cast<double>(wall_ns() - t0) * 1e-3);
    moved += bytes.load() - b0;
  }
  report.set("cp.session_txn_us", median_of(us), "us");
  report.set("cp.bytes_per_txn", static_cast<double>(moved) / kTxns, "bytes");
}

}  // namespace

void install_direct(core::Enclave& enclave, const DirectSpec& spec, bool noop) {
  for (const DirectAction& a : spec.actions) {
    core::ActionId id;
    if (noop) {
      const lang::CompiledProgram program = a.fn->compile();
      id = enclave.install_native_action(
          a.fn->name(),
          [](lang::StateBlock&, lang::StateBlock*, lang::StateBlock*,
             core::NativeCtx&) { return lang::ExecStatus::ok; },
          program.concurrency, program.usage.touches_scope(lang::Scope::message),
          a.fn->global_fields());
    } else {
      id = enclave.install_action(a.fn->name(), a.fn->compile(),
                                  a.fn->global_fields());
    }
    if (!a.array0.empty()) {
      enclave.set_global_array(id, first_array_field(*a.fn), a.array0);
    }
    const std::optional<core::TableId> t = enclave.find_table_id(a.table);
    const core::TableId table = t ? *t : enclave.create_table(a.table);
    enclave.add_rule(table, core::ClassPattern(a.pattern), id);
  }
}

void run_direct(const DirectSpec& spec, Report& report) {
  if (spec.sample.size() < kBatch) {
    report.checks.fail("direct: too few sampled packets");
    return;
  }
  core::ClassRegistry own;
  core::ClassRegistry& registry = spec.registry != nullptr ? *spec.registry : own;
  core::Enclave enclave("direct", registry, spec.config);
  install_direct(enclave, spec, false);
  core::Enclave noop("direct-noop", registry, spec.config);
  install_direct(noop, spec, true);

  report.set("enclave.process_ns_per_pkt", time_process(enclave, spec.sample),
             "ns");
  progress("enclave.process_ns_per_pkt");
  report.set("enclave.batch_ns_per_pkt", time_batch(enclave, spec.sample), "ns");
  progress("enclave.batch_ns_per_pkt");
  report.set("enclave.noop_ns_per_pkt", time_process(noop, spec.sample), "ns");
  progress("enclave.noop_ns_per_pkt");
  report.set("enclave.marshal_ns", time_marshal(spec.sample), "ns");
  progress("enclave.marshal_ns");
  report.set("lang.execute_ns", time_execute(spec, report), "ns");
  progress("lang.execute_ns");
  report.set("state.acquire_ns", time_acquire(spec.keys), "ns");
  progress("state.acquire_ns");
  report.set("nic.send_burst_ns_per_pkt", time_send_burst(spec, enclave), "ns");
  progress("nic.send_burst_ns_per_pkt");
  report.set("enclave.publish_us", time_publish(spec, enclave), "us");
  progress("enclave.publish_us");
  if (spec.measure_session) time_session(spec, report);
}

}  // namespace e2e
