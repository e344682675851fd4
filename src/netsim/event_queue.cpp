#include "netsim/event_queue.h"

#include <utility>

namespace eden::netsim {

EventId Scheduler::at(SimTime when, std::function<void()> fn) {
  if (when < now()) when = now();
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(generations_.size());
    generations_.push_back(1);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id =
      (static_cast<EventId>(generations_[slot]) << 32) | slot;
  queue_.push(Event{when, next_seq_++, id, std::move(fn)});
  ++live_events_;
  return id;
}

void Scheduler::retire(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (++generations_[slot] == 0) generations_[slot] = 1;
  free_slots_.push_back(slot);
  --live_events_;
}

void Scheduler::cancel(EventId id) {
  if (live(id)) retire(id);
}

bool Scheduler::pop_one() {
  while (!queue_.empty()) {
    // priority_queue::top is const; the closure must be moved out, so we
    // const_cast the function object (the element is removed right after).
    Event& top = const_cast<Event&>(queue_.top());
    const SimTime when = top.when;
    const EventId id = top.id;
    std::function<void()> fn = std::move(top.fn);
    queue_.pop();
    if (!live(id)) continue;  // was cancelled
    retire(id);
    now_.store(when, std::memory_order_relaxed);
    ++dispatched_;
    fn();
    return true;
  }
  return false;
}

std::uint64_t Scheduler::run_until(SimTime until) {
  std::uint64_t n = 0;
  for (;;) {
    // Drop cancelled events from the head so the horizon check below
    // looks at a live event.
    while (!queue_.empty() && !live(queue_.top().id)) queue_.pop();
    if (queue_.empty() || queue_.top().when > until) break;
    if (pop_one()) ++n;
  }
  // Advance the clock to the horizon even if nothing fired at it.
  if (now() < until) now_.store(until, std::memory_order_relaxed);
  return n;
}

std::uint64_t Scheduler::run() {
  std::uint64_t n = 0;
  while (pop_one()) ++n;
  return n;
}

}  // namespace eden::netsim
