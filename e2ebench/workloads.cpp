// The four workloads of the end-to-end benchmark. Inputs are drawn from
// the seed before any set-up is timed; the program only ever sees the
// generated packets and configuration.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "apps/workload.h"
#include "controlplane/session.h"
#include "core/controller.h"
#include "direct.h"
#include "experiments/testbed.h"
#include "functions/misc.h"
#include "functions/pulsar.h"
#include "functions/scheduling.h"
#include "functions/wcmp.h"
#include "harness.h"
#include "netsim/packet_pool.h"
#include "util/hash.h"
#include "util/rng.h"

namespace e2e {

using namespace eden;

namespace {

constexpr std::uint64_t kGbps = 1'000'000'000ULL;
constexpr std::uint32_t kHeader = netsim::kHeaderBytes;
constexpr std::uint32_t kMss = netsim::kMssBytes;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return util::mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

std::vector<std::int64_t> flat_thresholds(const ThresholdModel& m) {
  std::vector<std::int64_t> flat;
  for (std::size_t i = 0; i < m.limits.size(); ++i) {
    flat.push_back(m.limits[i]);
    flat.push_back(m.priorities[i]);
  }
  return flat;
}

// The same table with every limit halved: the second value a
// control-plane repoint of the threshold table alternates to.
std::vector<std::int64_t> shifted_thresholds(const ThresholdModel& m) {
  ThresholdModel s = m;
  for (std::int64_t& l : s.limits) l /= 2;
  return flat_thresholds(s);
}

void fill_addresses(netsim::Packet& p, const Rig& rig, std::uint64_t flow) {
  p.src = rig.tx->id();
  p.dst = rig.rx->id();
  p.src_port = static_cast<std::uint16_t>(10000 + flow % 50000);
  p.dst_port = 80;
  p.protocol = netsim::Protocol::udp;
  p.flow_id = flow + 1;
}

// Collects the direct-call inputs every data-plane workload shares: a
// sample of its packets and the message-key sequence, both taken from
// the workload's own generator once its checks are done.
void sample_traffic(Traffic& traffic, Rig& rig, DirectSpec& spec) {
  spec.registry = &rig.registry;
  constexpr std::size_t kSample = 4096;
  constexpr std::size_t kKeys = 1 << 16;
  netsim::Packet p;
  Expect e;
  for (std::size_t i = 0; i < kKeys; ++i) {
    p = netsim::Packet{};
    traffic.next(p, e);
    if (i < kSample) spec.sample.push_back(p);
    spec.keys.push_back(p.meta.msg_id);
  }
}

// =====================================================================
// fwd_min: 64 B packets, one packet per message over ~10k flows, one
// table running SFF (parallel, no message state), NIC bypass queue.
// =====================================================================

struct FwdInputs {
  static constexpr std::size_t kFlows = 10'000;
  static constexpr std::size_t kPicks = 1 << 20;
  std::vector<std::int64_t> flow_size;
  std::vector<std::uint32_t> picks;
  ThresholdModel model{{10 * 1024, 100 * 1024, 1024 * 1024, 10 * 1024 * 1024},
                       {7, 6, 5, 4}};

  explicit FwdInputs(std::uint64_t seed) {
    util::Rng rng(stream_seed(seed, 1));
    const auto dist = apps::FlowSizeDistribution::web_search();
    for (std::size_t f = 0; f < kFlows; ++f) {
      flow_size.push_back(static_cast<std::int64_t>(dist.sample(rng)));
    }
    picks.resize(kPicks);
    for (auto& p : picks) p = static_cast<std::uint32_t>(rng.below(kFlows));
  }
  // One flow in 16 pins itself to the background priority.
  static std::int64_t app_priority(std::size_t flow) {
    return flow % 16 == 0 ? 0 : 1;
  }
};

class FwdMin final : public DataPlaneWorkload, public Traffic {
 public:
  explicit FwdMin(const FwdInputs& in)
      : in_(in),
        rig_(core::EnclaveConfig{}, kWorkers),
        stage_("app", {"kind"}, {"msg_id", "flow_size", "app_priority"},
               rig_.registry) {
    stage_.create_rule("sff", {core::FieldPattern::any()}, "flow",
                       core::meta_bit(core::MetaField::msg_id) |
                           core::meta_bit(core::MetaField::msg_size) |
                           core::meta_bit(core::MetaField::flow_size) |
                           core::meta_bit(core::MetaField::app_priority));
    action_ = rig_.enclave->install_action("sff", sff_.compile(),
                                           sff_.global_fields());
    functions::push_priority_thresholds(*rig_.enclave, action_,
                                        in.model.limits, in.model.priorities);
    const core::TableId table = rig_.enclave->create_table("sched");
    rig_.enclave->add_rule(table, core::ClassPattern("app.sff.*"), action_);
  }

  Rig& rig() override { return rig_; }
  Traffic& traffic() override { return *this; }
  double open_rate_pps() const override { return 100'000; }

  void next(netsim::Packet& p, Expect& e) override {
    const std::size_t f = in_.picks[pick_++ % in_.picks.size()];
    netsim::PacketMeta avail;
    avail.flow_size = in_.flow_size[f];
    avail.msg_size = 64 - kHeader;
    avail.app_priority = FwdInputs::app_priority(f);
    const core::Classification cls =
        classify(stage_, attrs_, avail, static_cast<std::int64_t>(pick_));
    fill_addresses(p, rig_, f);
    p.size_bytes = 64;
    p.payload_bytes = 64 - kHeader;
    p.classes = cls.classes;
    p.meta = cls.meta;
    e.msg = cls.meta.msg_id;
    e.payload = p.payload_bytes;
    e.prio = static_cast<std::int32_t>(
        in_.model.priority(in_.flow_size[f], FwdInputs::app_priority(f)));
  }

  void complete(const netsim::Packet& p, const Expect& e,
                CheckLog& log) override {
    check_equal("sff.priority", p.priority, e.prio, log);
    // One packet per message: the completion must be the packet of the
    // message it was offered as.
    check_equal("order.msg", p.meta.msg_id, e.msg, log);
  }

  void layer_metrics(Report& report) override {
    const core::ActionStats as = rig_.enclave->action_stats(action_);
    report.set("lang.steps_per_pkt",
               static_cast<double>(as.steps) /
                   static_cast<double>(std::max<std::uint64_t>(as.executions, 1)),
               "count");
  }

  DirectSpec direct_spec() override {
    DirectSpec spec;
    spec.actions.push_back(
        {&sff_, "sched", "app.sff.*", flat_thresholds(in_.model), -1});
    spec.repoint_action = "sff";
    spec.repoint_field = "priorities";
    spec.repoints = {shifted_thresholds(in_.model), flat_thresholds(in_.model)};
    sample_traffic(*this, rig_, spec);
    return spec;
  }

 private:
  const FwdInputs& in_;
  Rig rig_;
  core::Stage stage_;
  const core::MessageAttrs attrs_{"flow"};
  functions::SffFunction sff_;
  core::ActionId action_ = core::kInvalidAction;
  std::size_t pick_ = 0;
};

// =====================================================================
// pias_msgs: PIAS over ~1M concurrent messages with web-search sizes,
// cut into MTU packets, interleaved across messages with Zipf skew.
// =====================================================================

struct PiasInputs {
  static constexpr std::size_t kMessages = 1 << 20;
  static constexpr std::size_t kPicks = 1 << 22;
  static constexpr double kZipf = 0.9;
  std::vector<std::uint32_t> first_size;   // per message slot
  std::vector<std::uint32_t> renew_size;   // sizes of later messages
  std::vector<std::uint32_t> picks;        // slot of each packet
  ThresholdModel model{{8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024,
                        2 * 1024 * 1024, 8 * 1024 * 1024},
                       {7, 6, 5, 4, 3, 2}};

  explicit PiasInputs(std::uint64_t seed) {
    util::Rng rng(stream_seed(seed, 2));
    const auto dist = apps::FlowSizeDistribution::web_search();
    first_size.resize(kMessages);
    for (auto& s : first_size) s = static_cast<std::uint32_t>(dist.sample(rng));
    renew_size.resize(1 << 20);
    for (auto& s : renew_size) s = static_cast<std::uint32_t>(dist.sample(rng));
    // Zipf over ranks, ranks scattered over slots by a permutation so
    // hot messages are not neighbours in memory.
    std::vector<double> cdf(kMessages);
    double acc = 0;
    for (std::size_t r = 0; r < kMessages; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
      cdf[r] = acc;
    }
    std::vector<std::uint32_t> perm(kMessages);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = kMessages - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.below(i + 1)]);
    }
    picks.resize(kPicks);
    for (auto& p : picks) {
      const double u = rng.uniform() * acc;
      const auto r = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      p = perm[std::min(r, kMessages - 1)];
    }
  }
};

class PiasMsgs final : public DataPlaneWorkload, public Traffic {
 public:
  static core::EnclaveConfig config() {
    core::EnclaveConfig c;
    c.max_messages_per_action = 0;  // sized so that nothing is evicted
    return c;
  }

  explicit PiasMsgs(const PiasInputs& in)
      : in_(in),
        rig_(config(), kWorkers),
        stage_("app", {"kind"}, {"msg_id", "msg_size", "app_priority"},
               rig_.registry) {
    stage_.create_rule("pias", {core::FieldPattern::any()}, "msg",
                       core::meta_bit(core::MetaField::msg_id) |
                           core::meta_bit(core::MetaField::msg_size) |
                           core::meta_bit(core::MetaField::app_priority));
    action_ = rig_.enclave->install_action("pias", pias_.compile(),
                                           pias_.global_fields());
    functions::push_priority_thresholds(*rig_.enclave, action_,
                                        in.model.limits, in.model.priorities);
    const core::TableId table = rig_.enclave->create_table("sched");
    rig_.enclave->add_rule(table, core::ClassPattern("app.pias.*"), action_);

    const std::size_t n = PiasInputs::kMessages;
    id_.resize(n);
    size_.resize(n);
    sent_.assign(n, 0);
    wire_.assign(n, 0);
    done_.assign(n, 0);
    inflight_.assign(n, 0);
    // Fill the working set: every message's first packet runs through
    // the enclave inline, creating its message state.
    netsim::Packet p;
    for (std::size_t slot = 0; slot < n; ++slot) {
      start_message(slot, in.first_size[slot]);
      p = netsim::Packet{};
      Expect e;
      fill(p, e, slot);
      rig_.enclave->process(p);
      check_equal("pias.priority", p.priority, e.prio, fill_log_);
      done_[slot] += e.payload;
      --inflight_[slot];
    }
  }

  Rig& rig() override { return rig_; }
  Traffic& traffic() override { return *this; }
  double open_rate_pps() const override { return 75'000; }

  void next(netsim::Packet& p, Expect& e) override {
    for (;;) {
      const std::uint32_t slot = in_.picks[pick_++ % in_.picks.size()];
      if (sent_[slot] >= size_[slot]) {
        // A finished message is replaced by a new one once its last
        // packet has completed.
        if (inflight_[slot] != 0) continue;
        start_message(slot, in_.renew_size[renew_++ % in_.renew_size.size()]);
      }
      fill(p, e, slot);
      return;
    }
  }

  void complete(const netsim::Packet& p, const Expect& e,
                CheckLog& log) override {
    const auto slot = static_cast<std::size_t>(e.msg);
    check_equal("pias.priority", p.priority, e.prio, log);
    check_equal("order.msg", p.meta.msg_id, id_[slot], log);
    check_equal("order.offset", static_cast<std::int64_t>(p.seq), done_[slot],
                log);
    done_[slot] += e.payload;
    --inflight_[slot];
  }

  void finish(LoadGen&, CheckLog& log) override {
    for (const std::string& m : fill_log_.messages()) log.fail("fill: " + m);
    const state::FlowStoreStats st = rig_.enclave->message_store_stats(action_);
    check_equal("state.evicted", static_cast<std::int64_t>(st.evicted), 0, log);
    check_equal("state.expired", static_cast<std::int64_t>(st.expired), 0, log);
    check_equal("state.created", static_cast<std::int64_t>(st.created),
                static_cast<std::int64_t>(messages_), log);
  }

  void layer_metrics(Report& report) override {
    const state::FlowStoreStats st = rig_.enclave->message_store_stats(action_);
    report.set("state.live", static_cast<double>(st.live), "count");
    report.set("state.created", static_cast<double>(st.created), "count");
    report.set("state.evicted", static_cast<double>(st.evicted), "count");
    report.set("state.probe_len_mean", st.probe_len.mean(), "slots");
    const core::ActionStats as = rig_.enclave->action_stats(action_);
    report.set("lang.steps_per_pkt",
               static_cast<double>(as.steps) /
                   static_cast<double>(std::max<std::uint64_t>(as.executions, 1)),
               "count");
  }

  DirectSpec direct_spec() override {
    DirectSpec spec;
    spec.config = config();
    spec.actions.push_back(
        {&pias_, "sched", "app.pias.*", flat_thresholds(in_.model), -1});
    spec.repoint_action = "pias";
    spec.repoint_field = "priorities";
    spec.repoints = {shifted_thresholds(in_.model), flat_thresholds(in_.model)};
    sample_traffic(*this, rig_, spec);
    return spec;
  }

 private:
  void start_message(std::size_t slot, std::uint32_t size) {
    netsim::PacketMeta avail;
    avail.msg_size = size;
    const core::Classification cls = classify(
        stage_, attrs_, avail, static_cast<std::int64_t>(messages_));
    id_[slot] = cls.meta.msg_id;
    size_[slot] = std::max<std::uint32_t>(size, 1);
    sent_[slot] = 0;
    wire_[slot] = 0;
    done_[slot] = 0;
    ++messages_;
  }

  void fill(netsim::Packet& p, Expect& e, std::size_t slot) {
    const std::uint32_t payload = std::min(kMss, size_[slot] - sent_[slot]);
    fill_addresses(p, rig_, slot);
    p.payload_bytes = payload;
    p.size_bytes = payload + kHeader;
    p.seq = sent_[slot];
    p.classes = classes_;
    p.meta.msg_id = id_[slot];
    p.meta.msg_size = size_[slot];
    p.meta.app_priority = 1;
    e.msg = static_cast<std::int64_t>(slot);
    e.offset = sent_[slot];
    e.payload = payload;
    sent_[slot] += payload;
    wire_[slot] += p.size_bytes;
    ++inflight_[slot];
    e.prio = static_cast<std::int32_t>(in_.model.priority(wire_[slot]));
    e.last = sent_[slot] == size_[slot];
  }

  const PiasInputs& in_;
  Rig rig_;
  core::Stage stage_;
  const core::MessageAttrs attrs_{"msg"};
  netsim::ClassList classes_ = [this] {
    netsim::ClassList c;
    c.add(rig_.registry.intern("app.pias.msg"));
    return c;
  }();
  functions::PiasFunction pias_;
  core::ActionId action_ = core::kInvalidAction;
  std::vector<std::int64_t> id_;
  std::vector<std::uint32_t> size_, sent_, done_;
  std::vector<std::int64_t> wire_;
  std::vector<std::uint16_t> inflight_;
  std::size_t pick_ = 0;
  std::size_t renew_ = 0;
  std::uint64_t messages_ = 0;
  CheckLog fill_log_;
};

// =====================================================================
// qos_churn: storage-style 64 KB READ/WRITE messages from 4 tenants
// through Pulsar (rate-limited NIC queue per tenant), per-packet WCMP
// over a 64-entry path table, and a serialized counter on tenant 0,
// while a controller thread repoints the WCMP table through
// EnclaveSession transactions.
// =====================================================================

struct QosInputs {
  static constexpr int kTenants = 4;
  static constexpr std::int64_t kIoBytes = 64 * 1024;
  static constexpr std::uint32_t kReadWire = 200;  // READ request packet
  static constexpr int kPaths = 64;
  static constexpr std::int32_t kFirstLabel = 100;
  static constexpr int kTables = 64;
  static constexpr double kTxnPerSec = 200;
  static constexpr double kReadShare[kTenants] = {0.75, 0.75, 0.25, 0.25};

  std::vector<std::uint8_t> tenant_picks;
  std::vector<std::vector<std::uint8_t>> is_read;  // per tenant, per message
  std::vector<std::vector<std::int64_t>> weights;  // kTables x kPaths

  explicit QosInputs(std::uint64_t seed) {
    util::Rng rng(stream_seed(seed, 3));
    tenant_picks.resize(1 << 20);
    for (auto& t : tenant_picks) t = static_cast<std::uint8_t>(rng.below(kTenants));
    is_read.resize(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      is_read[t].resize(1 << 16);
      for (auto& r : is_read[t]) r = rng.chance(kReadShare[t]) ? 1 : 0;
    }
    // Path tables: every path keeps weight >= 1; weights sum to
    // core::kWeightScale.
    for (int k = 0; k < kTables; ++k) {
      std::vector<double> raw(kPaths);
      double sum = 0;
      for (double& r : raw) sum += (r = 0.2 + rng.uniform());
      std::vector<std::int64_t> w(kPaths, 1);
      std::int64_t left = core::kWeightScale - kPaths;
      std::int64_t given = 0;
      for (int i = 0; i < kPaths; ++i) {
        const auto extra = static_cast<std::int64_t>(
            raw[i] / sum * static_cast<double>(left));
        w[i] += extra;
        given += extra;
      }
      for (int i = 0; given < left; i = (i + 1) % kPaths, ++given) ++w[i];
      weights.push_back(std::move(w));
    }
  }

  // Mean rate-limiter charge per packet of tenant t's traffic: a READ is
  // one request packet charged the operation size, a WRITE is the data
  // in MTU packets charged their wire size.
  static double bytes_per_packet(int t) {
    const double r = kReadShare[t];
    const double write_pkts = std::ceil(static_cast<double>(kIoBytes) / kMss);
    const double write_bytes = static_cast<double>(kIoBytes) + write_pkts * kHeader;
    return (r * static_cast<double>(kIoBytes) + (1 - r) * write_bytes) /
           (r + (1 - r) * write_pkts);
  }

  std::vector<std::int64_t> path_table(int k, netsim::HostId dst) const {
    std::vector<std::int64_t> flat;
    for (int i = 0; i < kPaths; ++i) {
      flat.push_back(dst);
      flat.push_back(kFirstLabel + i);
      flat.push_back(weights[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)]);
    }
    return flat;
  }
};

class QosChurn final : public DataPlaneWorkload, public Traffic {
 public:
  // Queue rates: 4x (closed loop, at the nominal 10 Mpps virtual offered
  // rate, so the buckets shape READ bursts without bounding the loop) or
  // 1.5x (open loop, real time) each tenant's offered charge, so the
  // token buckets shape bursts but their queues stay bounded.
  static std::uint64_t queue_rate(int t, double pps) {
    return static_cast<std::uint64_t>(
        pps / QosInputs::kTenants * QosInputs::bytes_per_packet(t) * 8.0);
  }
  static constexpr double kClosedPps = 1e9 / static_cast<double>(kGapNs);
  static constexpr double kOpenPps = 50'000;
  static constexpr double kClosedHeadroom = 4.0;
  static constexpr std::uint64_t kTailPackets = 64'000;
  static constexpr double kTailSigmas = 5.0;

  explicit QosChurn(const QosInputs& in)
      : in_(in),
        rig_(core::EnclaveConfig{}, kWorkers),
        stage_("app", {"tenant", "op"},
               {"msg_id", "msg_type", "msg_size", "tenant"}, rig_.registry) {
    const core::MetaFieldMask mask = core::meta_bit(core::MetaField::msg_id) |
                                     core::meta_bit(core::MetaField::msg_type) |
                                     core::meta_bit(core::MetaField::msg_size) |
                                     core::meta_bit(core::MetaField::tenant);
    stage_.create_rule("qos", {core::FieldPattern::any(), core::FieldPattern::any()},
                       "io", mask);
    stage_.create_rule("mon", {core::FieldPattern::exact("0"),
                               core::FieldPattern::any()},
                       "t0", mask);
    for (int t = 0; t < QosInputs::kTenants; ++t) {
      pulsar_model_.queue_of_tenant.push_back(rig_.stack->nic().create_queue(
          closed_rate(t), 256 * 1024));
      tenant_attr_.push_back(std::to_string(t));
    }
    wcmp_model_.first_label = QosInputs::kFirstLabel;
    wcmp_model_.paths = QosInputs::kPaths;

    // Everything is installed through the control-plane session, so the
    // controller's later repoints are journaled transactions.
    controlplane::SessionConfig sc;
    sc.heartbeat_interval_ns = 1'000'000'000'000;
    sc.liveness_timeout_ns = 2'000'000'000'000;
    sc.request_timeout_ns = 2'000'000'000'000;
    agent_ = std::make_unique<controlplane::EnclaveAgent>(*rig_.enclave);
    session_ = std::make_unique<controlplane::EnclaveSession>(
        "e2e",
        [this]() -> std::unique_ptr<controlplane::Transport> {
          auto [near, far] = controlplane::make_pipe(pump_);
          agent_->attach(std::move(far));
          return std::make_unique<CountingTransport>(std::move(near),
                                                     cp_bytes_);
        },
        [] { return static_cast<std::uint64_t>(wall_ns()); }, sc);
    session_->tick();
    pump_.run();
    session_->install_action("pulsar", pulsar_.compile(), pulsar_.global_fields());
    session_->install_action("wcmp", wcmp_.compile(), wcmp_.global_fields());
    session_->install_action("counter", counter_.compile(),
                             counter_.global_fields());
    session_->create_table("qos");
    session_->create_table("lb");
    session_->create_table("mon");
    session_->add_rule("qos", "app.qos.*", "pulsar");
    session_->add_rule("lb", "app.qos.*", "wcmp");
    session_->add_rule("mon", "app.mon.t0", "counter");
    session_->set_global_array("pulsar", "queue_map", queue_map());
    session_->set_global_array("wcmp", "paths",
                               in.path_table(0, rig_.rx->id()));
    pump_.run();
    if (!session_->ready() || session_->stats().responses_error != 0) {
      throw std::runtime_error("qos_churn: control-plane set-up failed");
    }
    counter_id_ = *rig_.enclave->find_action("counter");
  }

  ~QosChurn() override { stop_background(); }

  Rig& rig() override { return rig_; }
  Traffic& traffic() override { return *this; }
  double open_rate_pps() const override { return kOpenPps; }

  void before_open() override { set_rates(kOpenPps, 1.5); }
  void after_open() override { set_rates(kClosedPps, kClosedHeadroom); }

  void start_background() override {
    stop_.store(false);
    controller_ = std::thread([this] { controller_main(); });
  }
  void stop_background() override {
    if (!controller_.joinable()) return;
    stop_.store(true);
    controller_.join();
  }
  std::int64_t background_cpu_ns() const override {
    return controller_cpu_ns_.load(std::memory_order_relaxed);
  }

  void sample_round() override {
    for (const int q : pulsar_model_.queue_of_tenant) {
      backlog_max_ = std::max(backlog_max_, rig_.stack->nic().queue_backlog(q));
    }
  }

  void next(netsim::Packet& p, Expect& e) override {
    const int t = in_.tenant_picks[pick_++ % in_.tenant_picks.size()];
    Tenant& ten = tenants_[t];
    if (ten.left == 0) {
      const auto& reads = in_.is_read[static_cast<std::size_t>(t)];
      ten.read = reads[ten.messages++ % reads.size()] != 0;
      netsim::PacketMeta avail;
      avail.tenant = t;
      avail.msg_type = ten.read ? functions::kIoRead : functions::kIoWrite;
      avail.msg_size = QosInputs::kIoBytes;
      const core::MessageAttrs attrs{tenant_attr_[static_cast<std::size_t>(t)],
                                     ten.read ? "READ" : "WRITE"};
      const core::Classification cls =
          classify(stage_, attrs, avail, static_cast<std::int64_t>(pick_));
      ten.classes = cls.classes;
      ten.meta = cls.meta;
      ten.left = ten.read ? 1 : QosInputs::kIoBytes;
      ten.offset = 0;
    }
    fill_addresses(p, rig_, static_cast<std::uint64_t>(t));
    const std::uint32_t payload =
        ten.read ? QosInputs::kReadWire - kHeader
                 : static_cast<std::uint32_t>(
                       std::min<std::int64_t>(kMss, ten.left));
    p.payload_bytes = payload;
    p.size_bytes = payload + kHeader;
    p.seq = ten.offset;
    p.classes = ten.classes;
    p.meta = ten.meta;
    e.msg = ten.meta.msg_id;
    e.offset = static_cast<std::uint32_t>(ten.offset);
    e.payload = payload;
    ten.offset += payload;
    ten.left = ten.read ? 0 : ten.left - payload;
    e.last = ten.left == 0;
    if (t == 0) {
      ++counted_packets_;
      counted_bytes_ += p.size_bytes;
    }
  }

  void complete(const netsim::Packet& p, const Expect& e,
                CheckLog& log) override {
    pulsar_model_.check(p.meta.tenant, p.meta.msg_type, p.meta.msg_size,
                        p.size_bytes, p.rl_queue, p.charge_bytes, log);
    wcmp_model_.check_label(p.path_label, log);
    if (tail_on_ && wcmp_model_.in_set(p.path_label)) {
      ++tail_counts_[static_cast<std::size_t>(p.path_label -
                                              QosInputs::kFirstLabel)];
      ++tail_packets_;
    }
    order_.complete(e.msg, p.seq, e.payload, log);
    if (e.last) order_.finish(e.msg);
  }

  // After the last commit (the controller has stopped), a tail phase of
  // at least kTailPackets must split its labels as the final table's
  // weights say. Every enclave thread seeds its interpreter RNG with the
  // same EnclaveConfig::rng_seed, so the workers' rand() streams may
  // overlap; k workers drawing the same numbers scale the count variance
  // by at most k, so the binomial deviation is widened by sqrt(kWorkers).
  void finish(LoadGen& d, CheckLog& log) override {
    tail_counts_.assign(QosInputs::kPaths, 0);
    tail_on_ = true;
    while (tail_packets_ < kTailPackets) d.closed_loop(0.02);
    if (!d.drain(10.0)) log.fail("drain: tail-phase packets stuck");
    tail_on_ = false;
    WcmpModel::check_split(
        tail_counts_, in_.weights[static_cast<std::size_t>(final_table_)],
        kTailSigmas * std::sqrt(static_cast<double>(kWorkers)), log);
    check_counter(rig_.enclave->read_global_scalar(counter_id_, "packets"),
                  rig_.enclave->read_global_scalar(counter_id_, "bytes"),
                  counted_packets_, counted_bytes_, log);
    if (txn_failures_ != 0) {
      log.fail("control plane: " + std::to_string(txn_failures_) +
               " transactions were not acknowledged");
    }
  }

  void layer_metrics(Report& report) override {
    std::uint64_t steps = 0;
    for (const char* name : {"pulsar", "wcmp", "counter"}) {
      steps += rig_.enclave->action_stats(*rig_.enclave->find_action(name)).steps;
    }
    report.set("lang.steps_per_pkt",
               static_cast<double>(steps) /
                   static_cast<double>(
                       std::max<std::uint64_t>(rig_.enclave->stats().packets, 1)),
               "count");
    report.set("nic.backlog_max", static_cast<double>(backlog_max_), "pkts");
    report.set("cp.session_txn_us", percentile(txn_us_, 0.5), "us");
    report.set("cp.bytes_per_txn",
               static_cast<double>(txn_bytes_) /
                   static_cast<double>(std::max<std::size_t>(txn_us_.size(), 1)),
               "bytes");
  }

  DirectSpec direct_spec() override {
    DirectSpec spec;
    spec.actions.push_back({&pulsar_, "qos", "app.qos.*", queue_map(), -1});
    spec.actions.push_back(
        {&wcmp_, "lb", "app.qos.*", in_.path_table(0, rig_.rx->id()), -1});
    spec.actions.push_back({&counter_, "mon", "app.mon.t0", {}, 0});
    for (int t = 0; t < QosInputs::kTenants; ++t) {
      spec.queue_rates_bps.push_back(closed_rate(t));
    }
    spec.repoint_action = "wcmp";
    spec.repoint_field = "paths";
    spec.repoints = {in_.path_table(1, rig_.rx->id()),
                     in_.path_table(0, rig_.rx->id())};
    spec.measure_session = false;
    sample_traffic(*this, rig_, spec);
    return spec;
  }

 private:
  struct Tenant {
    bool read = false;
    std::int64_t left = 0;
    std::uint64_t offset = 0;
    std::uint64_t messages = 0;
    netsim::ClassList classes;
    netsim::PacketMeta meta;
  };

  static std::uint64_t closed_rate(int t) {
    return static_cast<std::uint64_t>(
        kClosedHeadroom * static_cast<double>(queue_rate(t, kClosedPps)));
  }

  void set_rates(double pps, double headroom) {
    for (int t = 0; t < QosInputs::kTenants; ++t) {
      rig_.stack->nic().set_queue_rate(
          pulsar_model_.queue_of_tenant[static_cast<std::size_t>(t)],
          static_cast<std::uint64_t>(headroom *
                                     static_cast<double>(queue_rate(t, pps))));
    }
  }

  std::vector<std::int64_t> queue_map() const {
    std::vector<std::int64_t> flat;
    for (int t = 0; t < QosInputs::kTenants; ++t) {
      flat.push_back(t);
      flat.push_back(pulsar_model_.queue_of_tenant[static_cast<std::size_t>(t)]);
    }
    return flat;
  }

  // Repoints the WCMP table at a fixed rate; each repoint is one
  // transaction, timed from begin to acknowledged commit.
  void controller_main() {
    const std::int64_t cpu0 = thread_cpu_ns();
    const auto period = std::chrono::nanoseconds(
        static_cast<std::int64_t>(1e9 / QosInputs::kTxnPerSec));
    auto due = std::chrono::steady_clock::now();
    while (!stop_.load()) {
      due += period;
      std::this_thread::sleep_until(due);
      if (stop_.load()) break;
      const int k = static_cast<int>(next_table_++ % QosInputs::kTables);
      const std::uint64_t committed = session_->stats().txns_committed;
      const std::uint64_t b0 = cp_bytes_.load();
      const std::int64_t t0 = wall_ns();
      session_->begin_txn();
      session_->set_global_array("wcmp", "paths",
                                 in_.path_table(k, rig_.rx->id()));
      session_->commit_txn();
      while (session_->stats().txns_committed == committed) {
        if (pump_.run() == 0) break;
      }
      if (session_->stats().txns_committed == committed) {
        ++txn_failures_;
      } else {
        final_table_ = k;
        txn_us_.push_back(static_cast<double>(wall_ns() - t0) * 1e-3);
        txn_bytes_ += cp_bytes_.load() - b0;
      }
      controller_cpu_ns_.store(thread_cpu_ns() - cpu0, std::memory_order_relaxed);
    }
  }

  const QosInputs& in_;
  Rig rig_;
  core::Stage stage_;
  std::vector<std::string> tenant_attr_;
  functions::PulsarFunction pulsar_;
  functions::WcmpFunction wcmp_;
  functions::CounterFunction counter_;
  PulsarModel pulsar_model_;
  WcmpModel wcmp_model_;
  MessageOrder order_;
  Tenant tenants_[QosInputs::kTenants];
  std::size_t pick_ = 0;
  std::int64_t counted_packets_ = 0;
  std::int64_t counted_bytes_ = 0;
  core::ActionId counter_id_ = core::kInvalidAction;
  std::size_t backlog_max_ = 0;

  controlplane::PipePump pump_;
  std::atomic<std::uint64_t> cp_bytes_{0};
  std::unique_ptr<controlplane::EnclaveAgent> agent_;
  std::unique_ptr<controlplane::EnclaveSession> session_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> controller_cpu_ns_{0};
  std::uint64_t next_table_ = 1;
  std::vector<double> txn_us_;
  std::uint64_t txn_bytes_ = 0;
  std::uint64_t txn_failures_ = 0;
  int final_table_ = 0;  // the last committed path table
  bool tail_on_ = false;
  std::vector<std::uint64_t> tail_counts_;
  std::uint64_t tail_packets_ = 0;
  // Declared last: joined (by the destructor) before anything it uses.
  std::thread controller_;
};

}  // namespace

void run_fwd_min(const Args& args, Report& report) {
  const FwdInputs in(args.seed);
  run_dataplane(args, report, [&] { return std::make_unique<FwdMin>(in); });
}

void run_pias_msgs(const Args& args, Report& report) {
  const PiasInputs in(args.seed);
  run_dataplane(args, report, [&] { return std::make_unique<PiasMsgs>(in); });
}

void run_qos_churn(const Args& args, Report& report) {
  const QosInputs in(args.seed);
  run_dataplane(args, report, [&] { return std::make_unique<QosChurn>(in); });
}

}  // namespace e2e
