#include "netsim/node.h"

namespace eden::netsim {

bool Port::send(PacketPtr packet) {
  if (!queue_.enqueue(std::move(packet))) return false;
  if (!busy_) start_transmission();
  return true;
}

void Port::start_transmission() {
  PacketPtr packet = queue_.dequeue();
  if (packet == nullptr) return;
  busy_ = true;
  const SimTime tx = transmit_time(packet->size_bytes, rate_bps_);
  ++tx_packets_;
  tx_bytes_ += packet->size_bytes;
  wire_.push_back(std::move(packet));
  scheduler_.after(tx, [this] { finish_transmission(); });
}

// Serialization complete: the packet departs onto the wire (its arrival
// is a separate event after the propagation delay) and the transmitter
// picks up the next queued packet.
void Port::finish_transmission() {
  if (peer_ != nullptr) {
    scheduler_.after(prop_delay_, [this] { arrive(); });
  } else {
    wire_.pop_front();  // nothing attached: the packet is lost
  }
  busy_ = false;
  start_transmission();
}

void Port::arrive() { peer_->receive(wire_.pop_front(), peer_in_port_); }

}  // namespace eden::netsim
