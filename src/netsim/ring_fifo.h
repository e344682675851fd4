// Growable FIFO over a power-of-two ring. Once the ring has grown to
// the deepest backlog it has seen, push and pop never touch the heap —
// unlike std::deque, which allocates and frees a block every few dozen
// elements of steady traffic. The simulator's per-packet queues (port
// output queues, packets on the wire, delayed hops) use it so a warm
// link hop is allocation-free.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace eden::netsim {

template <typename T>
class RingFifo {
 public:
  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }

  T& front() { return slots_[head_ & (slots_.size() - 1)]; }

  void push_back(T item) {
    if (size() == slots_.size()) grow();
    slots_[tail_++ & (slots_.size() - 1)] = std::move(item);
  }

  // Precondition: !empty().
  T pop_front() { return std::move(slots_[head_++ & (slots_.size() - 1)]); }

 private:
  void grow() {
    std::vector<T> next(slots_.empty() ? 8 : 2 * slots_.size());
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(next);
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace eden::netsim
