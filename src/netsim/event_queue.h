// Discrete-event scheduler: the beating heart of the network simulator.
//
// Events are closures ordered by (time, insertion sequence); ties fire in
// scheduling order, which keeps runs deterministic. Cancellation is
// cooperative: cancel() marks the event and the dispatcher skips it.
// An event id is (generation << 32) | slot: each queued event holds a
// slot, and firing or cancelling it bumps the slot's generation and
// frees the slot for reuse, so a stale id never matches again and
// scheduling allocates nothing once the slot table and heap are warm.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "netsim/sim_time.h"

namespace eden::netsim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Scheduler {
 public:
  // Safe to read from any thread: data-plane workers stamp enclave
  // state with the simulator clock while the simulator thread runs.
  SimTime now() const { return now_.load(std::memory_order_relaxed); }

  // Schedules `fn` at absolute time `when` (clamped to now). Returns an
  // id usable with cancel().
  EventId at(SimTime when, std::function<void()> fn);
  // Schedules `fn` `delay` nanoseconds from now.
  EventId after(SimTime delay, std::function<void()> fn) {
    return at(now() + delay, std::move(fn));
  }

  // Marks an event so it will not fire. Safe to call with an id that
  // already fired or was already cancelled (both are no-ops).
  void cancel(EventId id);

  // Runs events until the queue empties or the virtual clock passes
  // `until` (inclusive). Returns the number of events dispatched.
  std::uint64_t run_until(SimTime until);
  // Runs until the queue is empty.
  std::uint64_t run();

  bool empty() const { return live_events_ == 0; }
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // FIFO tiebreak among simultaneous events
    EventId id;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  bool live(EventId id) const {
    const std::uint64_t slot = id & 0xffffffffu;
    return slot < generations_.size() &&
           generations_[slot] == static_cast<std::uint32_t>(id >> 32);
  }
  // Retires a live id: bumps its slot's generation and frees the slot.
  void retire(EventId id);
  bool pop_one();

  // Written only by the simulator thread; relaxed, because readers on
  // other threads need a recent value, not an ordering.
  std::atomic<SimTime> now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t live_events_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  // Current generation of each slot (never 0, so no id equals
  // kInvalidEvent) and the slots free for reuse.
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace eden::netsim
