// The packet pool arena: fixed slabs of pool slots with per-thread
// magazine caches, so steady-state packet allocation and free never
// touch the global heap.
//
// Eden's enclave sits on every packet's path (Section 3.4); at multi-
// core NIC rates a per-packet heap allocation — one heap round-trip
// plus allocator lock traffic per packet — is the first thing that has
// to go (the same conclusion DPDK-style stacks reached with mbuf
// pools). A slot holds the Packet plus the id of the pool it came from
// (0 for a heap fallback); `PacketPtr` is a single-owner handle whose
// stateless deleter reads that id, so the completion path needs no
// special handling — whichever thread drops the packet runs ~Packet and
// returns the slot to that thread's magazine.
//
// Ownership model:
//  * the pool owns slabs (64-byte-aligned arrays of kSlotBytes slots),
//    materialized lazily up to capacity_slots;
//  * a mutex-protected shared free list exchanges slots with per-thread
//    magazines in bursts of magazine_slots (refill on empty, flush of
//    one burst when a magazine exceeds twice that), so the steady-state
//    acquire/release path is a thread-local vector push/pop;
//  * release is keyed by a unique pool id, never by the pool pointer: a
//    magazine flushing after its pool died looks the id up in the live-
//    pool registry and, finding nothing, drops the slot pointers (the
//    memory died with the pool's slabs).
//
// Exhaustion is explicit, never blocking: try_make() returns nullptr
// (counted in exhausted_total) so data-path producers can drop-and-
// count; make() falls back to the heap (counted separately) so
// simulator-side callers keep their infallible contract.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netsim/packet.h"

namespace eden::netsim {

struct PacketPoolConfig {
  // Hard cap on slots ever materialized. Slabs grow lazily toward it.
  std::size_t capacity_slots = 65536;
  // Slots per slab (one allocation per growth step).
  std::size_t slab_slots = 4096;
  // Burst size of the magazine <-> shared free-list exchange.
  std::size_t magazine_slots = 64;
};

struct PacketPoolStats {
  std::uint64_t capacity_slots = 0;
  std::uint64_t slots_materialized = 0;
  // Acquire/release totals folded from the magazines at exchange
  // points, so in_use is exact whenever the magazines are quiescent and
  // a close approximation under traffic.
  std::uint64_t acquired_total = 0;
  std::uint64_t released_total = 0;
  std::uint64_t in_use = 0;
  std::uint64_t exhausted_total = 0;      // try-path failures (arena dry)
  std::uint64_t heap_fallback_total = 0;  // make() heap fallbacks
  std::uint64_t magazine_refills = 0;
  std::uint64_t magazine_flushes = 0;
};

class PacketPool {
 public:
  // One slot holds the Packet plus its pool id (statically asserted in
  // packet_pool.cpp); 192 = 3 cache lines, so slots never share a line.
  static constexpr std::size_t kSlotBytes = 192;
  static constexpr std::size_t kSlotAlign = 64;

  explicit PacketPool(PacketPoolConfig config = {});
  ~PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Pooled packet; falls back to a heap-allocated slot when the arena
  // is dry (counted in heap_fallback_total), so it never fails.
  PacketPtr make();
  // Pooled packet or nullptr when the arena is dry (counted in
  // exhausted_total). Data-path producers use this to drop-and-count
  // instead of silently growing the heap.
  PacketPtr try_make();

  PacketPoolStats stats() const;
  const PacketPoolConfig& config() const { return config_; }

  // Defined in packet_pool.cpp; public so the thread-local magazine set
  // can name them, but opaque to everyone else.
  struct Magazine;
  struct Impl;

 private:
  Impl* impl_;
  PacketPoolConfig config_;
};

// The process-wide pool behind make_packet()/try_make_packet().
PacketPool& default_packet_pool();

}  // namespace eden::netsim
