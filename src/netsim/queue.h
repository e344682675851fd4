// Output queueing: eight 802.1q priority queues with strict-priority
// scheduling and per-queue byte caps (tail drop). This is the commodity
// switch feature set the paper assumes from the network (Section 3.5).
#pragma once

#include <array>
#include <cstdint>

#include "netsim/packet.h"
#include "netsim/ring_fifo.h"

namespace eden::netsim {

struct QueueConfig {
  // Per-priority-queue capacity in bytes. Chosen so that one port buffers
  // on the order of a few hundred KB, typical of shallow datacenter
  // switches.
  std::uint32_t per_queue_bytes = 128 * 1024;
};

struct QueueStats {
  std::uint64_t enqueued_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t dequeued_packets = 0;
  std::uint64_t dequeued_bytes = 0;
  std::array<std::uint64_t, kMaxPriorities> drops_per_priority{};
};

// Strict-priority queue set: higher priority value is served first.
class PriorityQueueSet {
 public:
  explicit PriorityQueueSet(QueueConfig config = {}) : config_(config) {}

  // Takes ownership; drops (frees) the packet when its queue is full.
  // Returns false on drop.
  bool enqueue(PacketPtr packet);

  // Highest-priority head packet, or null when idle.
  PacketPtr dequeue();

  bool empty() const { return total_packets_ == 0; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t queued_bytes(std::uint8_t priority) const {
    return bytes_[priority];
  }
  std::size_t total_packets() const { return total_packets_; }
  const QueueStats& stats() const { return stats_; }

 private:
  QueueConfig config_;
  std::array<RingFifo<PacketPtr>, kMaxPriorities> queues_;
  std::array<std::uint64_t, kMaxPriorities> bytes_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t total_packets_ = 0;
  QueueStats stats_;
};

}  // namespace eden::netsim
