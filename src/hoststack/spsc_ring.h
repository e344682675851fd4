// Single-producer / single-consumer bounded ring: the per-worker packet
// queue of the sharded data plane (dataplane.h). One cache line per
// cursor, acquire/release hand-off only — no locks, no CAS — so an
// enqueue costs one load + one store on the steady path.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace eden::hoststack {

// Wait-free bounded FIFO for exactly one producer thread and one
// consumer thread. Capacity is rounded up to a power of two. size() and
// empty() are approximate under concurrency (exact once one side is
// quiescent).
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity)
      : slots_(std::bit_ceil(min_capacity < 2 ? std::size_t{2}
                                              : min_capacity)),
        mask_(slots_.size() - 1) {}

  std::size_t capacity() const { return slots_.size(); }

  // Producer side. On failure (ring full) `item` is left untouched so
  // the caller can retry or reroute it.
  bool push(T&& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == slots_.size()) {
      return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Producer side, burst variant: moves up to `count` items from
  // `items` into the ring under ONE release store, returning how many
  // fit; items beyond the returned count are untouched.
  std::size_t push_bulk(T* items, std::size_t count) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t free_slots =
        slots_.size() - (tail - head_.load(std::memory_order_acquire));
    const std::size_t n = free_slots < count ? free_slots : count;
    for (std::size_t i = 0; i < n; ++i) {
      slots_[(tail + i) & mask_] = std::move(items[i]);
    }
    if (n != 0) tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  // Consumer side: moves up to `max` items into `out`; returns how
  // many.
  std::size_t pop_bulk(T* out, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t avail =
        tail_.load(std::memory_order_acquire) - head;
    const std::size_t n = avail < max ? avail : max;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::move(slots_[(head + i) & mask_]);
    }
    if (n != 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  bool empty() const { return size() == 0; }
  std::size_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer cursor
};

}  // namespace eden::hoststack
