#include "netsim/queue.h"

namespace eden::netsim {

bool PriorityQueueSet::enqueue(PacketPtr packet) {
  const std::uint8_t prio =
      packet->priority < kMaxPriorities ? packet->priority
                                        : kMaxPriorities - 1;
  if (bytes_[prio] + packet->size_bytes > config_.per_queue_bytes) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += packet->size_bytes;
    ++stats_.drops_per_priority[prio];
    return false;  // packet freed by unique_ptr going out of scope
  }
  bytes_[prio] += packet->size_bytes;
  total_bytes_ += packet->size_bytes;
  ++total_packets_;
  ++stats_.enqueued_packets;
  queues_[prio].push_back(std::move(packet));
  return true;
}

PacketPtr PriorityQueueSet::dequeue() {
  for (int prio = kMaxPriorities - 1; prio >= 0; --prio) {
    auto& q = queues_[static_cast<std::size_t>(prio)];
    if (q.empty()) continue;
    PacketPtr packet = q.pop_front();
    bytes_[static_cast<std::size_t>(prio)] -= packet->size_bytes;
    total_bytes_ -= packet->size_bytes;
    --total_packets_;
    ++stats_.dequeued_packets;
    stats_.dequeued_bytes += packet->size_bytes;
    return packet;
  }
  return nullptr;
}

}  // namespace eden::netsim
