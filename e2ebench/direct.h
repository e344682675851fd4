// Direct per-layer calls of the traced run: single-threaded, inline
// timings of one layer's public functions on the workload's own packets
// and configuration (enclave, interpreter, state store, NIC, control
// plane). Their results are per-layer metrics only.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "controlplane/transport.h"
#include "core/enclave.h"
#include "functions/function.h"
#include "netsim/packet.h"

namespace e2e {

// A Transport that counts the bytes crossing it in both directions, so
// the benchmark can report control-plane bytes per transaction.
class CountingTransport : public eden::controlplane::Transport {
 public:
  CountingTransport(std::unique_ptr<Transport> inner,
                    std::atomic<std::uint64_t>& bytes)
      : inner_(std::move(inner)), bytes_(bytes) {
    inner_->set_on_bytes([this](std::span<const std::uint8_t> data) {
      bytes_.fetch_add(data.size(), std::memory_order_relaxed);
      if (on_bytes_) on_bytes_(data);
    });
    inner_->set_on_disconnect([this] {
      if (on_disconnect_) on_disconnect_();
    });
  }
  CountingTransport(const CountingTransport&) = delete;
  CountingTransport& operator=(const CountingTransport&) = delete;

  bool send(std::span<const std::uint8_t> data) override {
    bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    return inner_->send(data);
  }
  void close() override { inner_->close(); }
  bool connected() const override { return inner_->connected(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::atomic<std::uint64_t>& bytes_;
};

// One action a workload installs, as the direct calls need it.
struct DirectAction {
  const eden::functions::NetworkFunction* fn = nullptr;
  std::string table;
  std::string pattern;
  // Contents of the action's first global array (empty when it has
  // none); scalars start at their schema defaults.
  std::vector<std::int64_t> array0;
  // Only packets of this tenant reach the action (-1 = every packet).
  std::int64_t only_tenant = -1;
};

struct DirectSpec {
  eden::core::EnclaveConfig config;
  // Registry the sampled packets' class ids come from (nullptr: the
  // actions' patterns match any class).
  eden::core::ClassRegistry* registry = nullptr;
  std::vector<DirectAction> actions;  // in table order
  // NIC rate-limited queues the workload creates (bits/s).
  std::vector<std::uint64_t> queue_rates_bps;
  // Workload packets as the stage hands them to the host stack.
  std::vector<eden::netsim::Packet> sample;
  // Message keys in workload order, for the standalone state store.
  std::vector<std::int64_t> keys;
  // Control-plane repoint: action, global array field, and the values
  // alternately pushed.
  std::string repoint_action;
  std::string repoint_field;
  std::vector<std::vector<std::int64_t>> repoints;
  // false when the workload measures the session live (qos_churn).
  bool measure_session = true;
};

// Installs `spec.actions` into `enclave` directly: bytecode, or native
// no-ops with the same concurrency mode and state usage.
void install_direct(eden::core::Enclave& enclave, const DirectSpec& spec,
                    bool noop);

void run_direct(const DirectSpec& spec, Report& report);

}  // namespace e2e
