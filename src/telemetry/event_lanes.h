// Single-writer, per-thread event lanes: the one storage primitive
// behind lifecycle spans (span.h), the flight recorder
// (flight_recorder.h) and the enclave's sampled action trace.
//
// A lane set is a fixed table of kMaxLanes atomic lane pointers, with
// no mutex anywhere. A writer thread claims a lane on its first event
// and is its only writer from then on. A lane is one flat allocation of
// two cursors and a ring of event slots, and it keeps the newest
// `capacity` events. It is never resized, and it is freed only with its
// set, so a thread that dies leaves its tail of events readable. A
// thread that finds every lane taken records nothing, and its events
// count as dropped.
//
// Publishing is a per-lane seqlock. The writer bumps `started`, writes
// the slot as relaxed atomic words and publishes with a release store
// of `published`. A reader copies a slot and then rechecks `started`.
// If the writer may already have begun overwriting that slot, the copy
// is discarded, so a reader racing a wrapping writer never returns a
// torn event. Readers are exact once writers are quiescent.
//
// for_each() walks the lanes with no heap and no lock, which is what
// the flight recorder's crash handler needs.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace eden::telemetry {

template <typename Event>
class EventLanes {
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) % 8 == 0, "events are copied as whole words");
  using Word = std::atomic<std::uint64_t>;
  static constexpr std::size_t kWords = sizeof(Event) / 8;
  // Lane layout in words: [0] started, [1] published, then the slots.
  static constexpr std::size_t kHeaderWords = 2;

 public:
  static constexpr std::size_t kMaxLanes = 256;

  // A writer thread's handle on its lane: claimed on first push, null
  // for good once every lane is taken. Writers keep one per thread.
  struct Claim {
    Word* lane = nullptr;
    bool tried = false;
  };

  explicit EventLanes(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        slots_(std::bit_ceil(capacity_)) {}
  ~EventLanes() {
    for (auto& lane : lanes_) delete[] lane.load(std::memory_order_relaxed);
  }
  EventLanes(const EventLanes&) = delete;
  EventLanes& operator=(const EventLanes&) = delete;

  std::size_t capacity() const { return capacity_; }

  // Appends `event` to the calling thread's lane.
  void push(Claim& claim, const Event& event) {
    if (!claim.tried) {
      claim.tried = true;
      claim.lane = claim_lane();
    }
    Word* lane = claim.lane;
    if (lane == nullptr) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::uint64_t n = lane[1].load(std::memory_order_relaxed);
    lane[0].store(n + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    const auto* bytes = reinterpret_cast<const unsigned char*>(&event);
    Word* slot = slot_of(lane, n);
    for (std::size_t w = 0; w < kWords; ++w) {
      std::uint64_t word;
      std::memcpy(&word, bytes + w * 8, 8);
      slot[w].store(word, std::memory_order_relaxed);
    }
    lane[1].store(n + 1, std::memory_order_release);
  }

  // Calls fn(event) for every published event still held, lane by lane
  // in table order, oldest first within a lane. No heap, no lock.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& entry : lanes_) {
      const Word* lane = entry.load(std::memory_order_acquire);
      if (lane == nullptr) continue;
      const std::uint64_t n = lane[1].load(std::memory_order_acquire);
      for (std::uint64_t i = n > capacity_ ? n - capacity_ : 0; i < n; ++i) {
        Event event;
        auto* bytes = reinterpret_cast<unsigned char*>(&event);
        const Word* slot = slot_of(lane, i);
        for (std::size_t w = 0; w < kWords; ++w) {
          const std::uint64_t word = slot[w].load(std::memory_order_relaxed);
          std::memcpy(bytes + w * 8, &word, 8);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        // Event i + slots_ reuses this slot; skip the copy if the
        // writer has started it.
        if (lane[0].load(std::memory_order_relaxed) > i + slots_) continue;
        fn(event);
      }
    }
  }

  // Every held event, merged across lanes and stable-sorted by `less`.
  template <typename Less>
  std::vector<Event> snapshot(Less less) const {
    std::vector<Event> out;
    for_each([&out](const Event& e) { out.push_back(e); });
    std::stable_sort(out.begin(), out.end(), less);
    return out;
  }

  std::uint64_t total_recorded() const {
    std::uint64_t total = 0;
    for_each_published([&](std::uint64_t n) { total += n; });
    return total;
  }
  // Events lost to ring wraparound.
  std::uint64_t overwritten() const {
    std::uint64_t total = 0;
    for_each_published([&](std::uint64_t n) {
      if (n > capacity_) total += n - capacity_;
    });
    return total;
  }
  // Events lost because more than kMaxLanes threads recorded.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Empties every lane (the lanes stay claimed). Writers must be idle.
  void reset() {
    for (auto& entry : lanes_) {
      Word* lane = entry.load(std::memory_order_acquire);
      if (lane == nullptr) continue;
      lane[1].store(0, std::memory_order_relaxed);
      lane[0].store(0, std::memory_order_release);
    }
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  Word* claim_lane() {
    const std::size_t idx = claimed_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= kMaxLanes) return nullptr;
    Word* lane = new Word[kHeaderWords + slots_ * kWords]();
    lanes_[idx].store(lane, std::memory_order_release);
    return lane;
  }

  template <typename Lane>
  Lane* slot_of(Lane* lane, std::uint64_t i) const {
    return lane + kHeaderWords + (i & (slots_ - 1)) * kWords;
  }

  template <typename Fn>
  void for_each_published(Fn&& fn) const {
    for (const auto& entry : lanes_) {
      const Word* lane = entry.load(std::memory_order_acquire);
      if (lane != nullptr) fn(lane[1].load(std::memory_order_acquire));
    }
  }

  // A lane holds the newest capacity_ events in slots_ (a power of two,
  // so the slot index is a mask).
  const std::size_t capacity_;
  const std::size_t slots_;
  std::atomic<Word*> lanes_[kMaxLanes] = {};
  std::atomic<std::size_t> claimed_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace eden::telemetry
