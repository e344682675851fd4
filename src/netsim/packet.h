// The simulated network packet.
//
// Eden's central idea is that packets carry application-assigned class
// and metadata information down the host stack (Section 3.3), so the
// packet model bakes both in: `classes` holds interned class ids assigned
// by stages, and `meta` holds the per-message metadata the enclave's
// action functions consume (message id, type, size, tenant, ...).
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "netsim/sim_time.h"

namespace eden::netsim {

using HostId = std::uint32_t;
using FlowId = std::uint64_t;

inline constexpr std::uint32_t kMaxPriorities = 8;  // 802.1q PCP values
inline constexpr std::uint32_t kMtuBytes = 1500;
inline constexpr std::uint32_t kHeaderBytes = 54;  // Eth+802.1q+IP+TCP
inline constexpr std::uint32_t kMssBytes = kMtuBytes - 40;  // 1460

enum class Protocol : std::uint8_t { udp = 0, tcp = 1, storage = 2 };

// TCP flag bits (only the ones the simulator uses).
inline constexpr std::uint8_t kTcpSyn = 0x1;
inline constexpr std::uint8_t kTcpAck = 0x2;
inline constexpr std::uint8_t kTcpFin = 0x4;

// Metadata attached by stages and carried with the packet through the
// stack (Table 2 of the paper). Fixed-size by design: this models the
// bounded per-packet metadata budget of a real stack.
struct PacketMeta {
  std::int64_t msg_id = 0;     // unique message identifier
  std::int64_t msg_type = 0;   // stage-specific (e.g. GET/PUT, READ/WRITE)
  std::int64_t msg_size = 0;   // total message size in bytes, if known
  std::int64_t tenant = 0;     // tenant / VM owning the traffic
  std::int64_t key_hash = 0;   // e.g. memcached key hash
  std::int64_t flow_size = 0;  // app-provided flow size (SFF), 0 if unknown
  std::int64_t app_priority = 1;  // app-pinned priority; 1 = unset
  std::int64_t trace_id = 0;   // lifecycle span trace id; 0 = untraced
};

// Classes assigned by stages: small fixed vector of interned class ids.
class ClassList {
 public:
  static constexpr std::size_t kCapacity = 4;

  bool add(std::uint32_t class_id) {
    if (count_ >= kCapacity) return false;
    ids_[count_++] = class_id;
    return true;
  }
  void clear() { count_ = 0; }
  std::size_t size() const { return count_; }
  std::uint32_t operator[](std::size_t i) const { return ids_[i]; }
  bool contains(std::uint32_t class_id) const {
    for (std::size_t i = 0; i < count_; ++i) {
      if (ids_[i] == class_id) return true;
    }
    return false;
  }

 private:
  std::array<std::uint32_t, kCapacity> ids_{};
  std::size_t count_ = 0;
};

struct Packet {
  // Addressing (the "five-tuple").
  HostId src = 0;
  HostId dst = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Protocol protocol = Protocol::udp;
  FlowId flow_id = 0;

  // Sizes. size_bytes is the on-wire size (headers included).
  std::uint32_t size_bytes = 0;
  std::uint32_t payload_bytes = 0;

  // Transport (TCP-like).
  std::uint64_t seq = 0;  // first payload byte
  std::uint64_t ack = 0;  // cumulative ack
  std::uint8_t tcp_flags = 0;

  // Network controls written by the Eden enclave.
  std::uint8_t priority = 0;    // 0..7; higher is served first
  std::int32_t path_label = -1; // VLAN/MPLS label; -1 = destination routing
  bool drop_mark = false;       // enclave asked for the packet to drop
  std::int32_t rl_queue = -1;   // NIC rate-limiter queue; -1 = bypass
  std::uint32_t charge_bytes = 0;  // rate-limiter charge; 0 = size_bytes

  // Eden class and metadata annotations.
  ClassList classes;
  PacketMeta meta;

  // Bookkeeping for experiments.
  SimTime sent_at = 0;
  std::uint64_t debug_id = 0;
};

// Single-owner handle, the same model as a DPDK mbuf: every hop hands
// the packet on by moving it, and the compiler rejects a copy. The
// deleter (defined in packet_pool.cpp) runs ~Packet and returns the
// pool slot the packet was built in, or frees a heap-fallback packet.
struct PacketRelease {
  void operator()(Packet* packet) const noexcept;
};
using PacketPtr = std::unique_ptr<Packet, PacketRelease>;

// Defined in packet_pool.cpp: packets come from the process-wide packet
// pool arena, so steady-state alloc/free never touches the global heap.
// make_packet falls back to the heap if the arena is dry;
// try_make_packet returns nullptr instead, for data-path producers that
// drop-and-count.
PacketPtr make_packet();
PacketPtr try_make_packet();

}  // namespace eden::netsim
