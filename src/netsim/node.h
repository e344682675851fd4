// Nodes and ports.
//
// A Port models one direction of a link attached to a node: a strict-
// priority output queue, a serializing transmitter (one packet at a time
// at the line rate) and a propagation delay to the peer. Bidirectional
// links are two ports, one on each node.
//
// The port owns every packet it has started to send: the packets on the
// wire wait in a FIFO and the scheduler events capture only the port.
// Serialization is one packet at a time, the propagation delay is fixed
// and simultaneous events fire in scheduling order, so packets always
// arrive in the order they were put on the wire.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netsim/event_queue.h"
#include "netsim/packet.h"
#include "netsim/queue.h"
#include "netsim/ring_fifo.h"

namespace eden::netsim {

class Node;

class Port {
 public:
  Port(Scheduler& scheduler, std::uint64_t rate_bps, SimTime prop_delay,
       QueueConfig queue_config)
      : scheduler_(scheduler),
        rate_bps_(rate_bps),
        prop_delay_(prop_delay),
        queue_(queue_config) {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  void set_peer(Node* peer, int peer_in_port) {
    peer_ = peer;
    peer_in_port_ = peer_in_port;
  }

  // Queues the packet for transmission; drops it if the priority queue
  // is full. Returns false on drop.
  bool send(PacketPtr packet);

  std::uint64_t rate_bps() const { return rate_bps_; }
  SimTime prop_delay() const { return prop_delay_; }
  Node* peer() const { return peer_; }
  const QueueStats& queue_stats() const { return queue_.stats(); }
  std::uint64_t queued_bytes() const { return queue_.total_bytes(); }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t tx_packets() const { return tx_packets_; }

 private:
  void start_transmission();
  void finish_transmission();
  void arrive();

  Scheduler& scheduler_;
  std::uint64_t rate_bps_;
  SimTime prop_delay_;
  PriorityQueueSet queue_;
  // Packets propagating to the peer, oldest first, then (while busy_)
  // the packet being serialized.
  RingFifo<PacketPtr> wire_;
  bool busy_ = false;
  Node* peer_ = nullptr;
  int peer_in_port_ = -1;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t tx_packets_ = 0;
};

class Node {
 public:
  Node(std::string name, HostId id) : name_(std::move(name)), id_(id) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Called when a packet fully arrives at this node on `in_port`.
  virtual void receive(PacketPtr packet, int in_port) = 0;

  int add_port(Scheduler& scheduler, std::uint64_t rate_bps,
               SimTime prop_delay, QueueConfig queue_config) {
    ports_.push_back(std::make_unique<Port>(scheduler, rate_bps, prop_delay,
                                            queue_config));
    return static_cast<int>(ports_.size()) - 1;
  }

  Port& port(int index) { return *ports_[static_cast<std::size_t>(index)]; }
  const Port& port(int index) const {
    return *ports_[static_cast<std::size_t>(index)];
  }
  int port_count() const { return static_cast<int>(ports_.size()); }

  const std::string& name() const { return name_; }
  HostId id() const { return id_; }

 private:
  std::string name_;
  HostId id_;
  std::vector<std::unique_ptr<Port>> ports_;
};

}  // namespace eden::netsim
