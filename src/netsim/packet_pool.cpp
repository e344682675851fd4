#include "netsim/packet_pool.h"

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace eden::netsim {
namespace {

// Pool registry: slot releases and magazine flushes key pools by id
// (monotonic, never reused) instead of by pointer, so a release that
// outlives its PacketPool object still finds the right arena. A pool
// destroyed while slots are still out (live PacketPtrs, thread-local
// magazine caches) leaves its Impl here marked `dying`: the slabs stay
// mapped so those packets remain valid, and the last slot returned
// home deletes the Impl and frees them. All Impl access reached
// through the registry happens with reg.mu held, so that final delete
// cannot race another thread's flush. Function-local static:
// constructed before the first pool (the pool constructor registers
// itself) and therefore destroyed after the last function-local-static
// pool.
struct PoolRegistry {
  std::mutex mu;
  std::unordered_map<std::uint64_t, PacketPool::Impl*> live;
};

PoolRegistry& registry() {
  static PoolRegistry r;
  return r;
}

std::uint64_t next_pool_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// Per-thread slot cache for one pool. Lives in a thread_local set; the
// destructor (thread exit) flushes surviving slots back through the
// registry.
struct PacketPool::Magazine {
  std::uint64_t pool_id = 0;
  std::size_t burst = 0;  // magazine_slots of the owning pool
  std::vector<void*> slots;
  std::uint64_t pending_acquired = 0;
  std::uint64_t pending_released = 0;

  ~Magazine();
};

// Slabs are over-aligned; pair the aligned operator new[] with its
// aligned delete.
struct SlabFree {
  void operator()(std::byte* p) const noexcept {
    ::operator delete[](p, std::align_val_t{PacketPool::kSlotAlign});
  }
};
using SlabPtr = std::unique_ptr<std::byte[], SlabFree>;

SlabPtr make_slab(std::size_t bytes) {
  return SlabPtr(static_cast<std::byte*>(
      ::operator new[](bytes, std::align_val_t{PacketPool::kSlotAlign})));
}

struct PacketPool::Impl {
  mutable std::mutex mu;
  PacketPoolConfig config;
  std::uint64_t id = 0;

  // Slabs own the memory; shared_free_ holds the exchangeable slots.
  std::vector<SlabPtr> slabs;
  std::vector<void*> shared_free;
  std::size_t slots_materialized = 0;

  // Folded stats (mu-protected)...
  std::uint64_t acquired_total = 0;
  std::uint64_t released_total = 0;
  std::uint64_t magazine_refills = 0;
  std::uint64_t magazine_flushes = 0;
  // ...and failure counters that must stay lock-free/noexcept.
  std::atomic<std::uint64_t> exhausted_total{0};
  std::atomic<std::uint64_t> heap_fallback_total{0};

  // Deferred reclamation: set by ~PacketPool when slots are still out.
  // A dying impl stops handing slots out but keeps its slabs mapped;
  // `outstanding` (mu-protected) counts the slots that must come home
  // before the impl — and the packet memory — may be freed.
  std::atomic<bool> dying{false};
  std::size_t outstanding = 0;

  // Materialize one more slab (up to capacity) into shared_free.
  // Returns false when the pool is at capacity.
  bool grow_locked() {
    if (slots_materialized >= config.capacity_slots) return false;
    std::size_t want = config.slab_slots;
    if (want > config.capacity_slots - slots_materialized) {
      want = config.capacity_slots - slots_materialized;
    }
    SlabPtr slab = make_slab(want * kSlotBytes);
    // Reserve up front so magazine flushes never reallocate under the
    // allocation gate.
    shared_free.reserve(slots_materialized + want);
    std::byte* base = slab.get();
    for (std::size_t i = 0; i < want; ++i) {
      shared_free.push_back(base + i * kSlotBytes);
    }
    slabs.push_back(std::move(slab));
    slots_materialized += want;
    return true;
  }

  // Move up to `burst` slots into the magazine; grows the arena on
  // demand. Returns the number transferred.
  std::size_t refill(Magazine& mag) {
    std::lock_guard<std::mutex> lock(mu);
    acquired_total += mag.pending_acquired;
    released_total += mag.pending_released;
    mag.pending_acquired = 0;
    mag.pending_released = 0;
    if (shared_free.empty() && !grow_locked()) return 0;
    std::size_t take = mag.burst;
    if (take > shared_free.size()) take = shared_free.size();
    for (std::size_t i = 0; i < take; ++i) {
      mag.slots.push_back(shared_free.back());
      shared_free.pop_back();
    }
    ++magazine_refills;
    return take;
  }

};

namespace {

// Hand `count` slots (or just their accounting — the pointers are
// implicit in the slabs) back to an impl found through the registry.
// reg.mu must be held. For a live impl the magazine's slots go back on
// the shared free list; for a dying impl the count is credited against
// `outstanding` and, when the last slot comes home, the impl — and
// with it every slab — is finally freed. Returns true if the impl was
// deleted (caller must also erase the registry entry).
bool return_slots_locked(PacketPool::Impl* impl, PacketPool::Magazine* mag,
                         std::size_t flush_burst) {
  bool dead = false;
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    if (impl->dying.load(std::memory_order_relaxed)) {
      const std::size_t n = mag != nullptr ? mag->slots.size() : 1;
      impl->outstanding = impl->outstanding > n ? impl->outstanding - n : 0;
      if (mag != nullptr) {
        mag->slots.clear();
        mag->pending_acquired = 0;
        mag->pending_released = 0;
      }
      dead = impl->outstanding == 0;
    } else if (mag != nullptr) {
      impl->acquired_total += mag->pending_acquired;
      impl->released_total += mag->pending_released;
      mag->pending_acquired = 0;
      mag->pending_released = 0;
      for (std::size_t i = 0; i < flush_burst && !mag->slots.empty(); ++i) {
        impl->shared_free.push_back(mag->slots.back());
        mag->slots.pop_back();
      }
      ++impl->magazine_flushes;
    }
  }
  if (dead) delete impl;
  return dead;
}

}  // namespace

namespace {

// The thread's magazines, one per pool it has touched. Linear scan with
// a last-used cache: a thread touches one or two pools in practice.
struct MagazineSet {
  std::vector<std::unique_ptr<PacketPool::Magazine>> mags;
  PacketPool::Magazine* last = nullptr;

  PacketPool::Magazine* find(std::uint64_t pool_id) {
    if (last != nullptr && last->pool_id == pool_id) return last;
    for (auto& m : mags) {
      if (m->pool_id == pool_id) {
        last = m.get();
        return last;
      }
    }
    return nullptr;
  }

  // Creates a magazine for pool_id, or returns nullptr if the pool is
  // no longer live (release against a dying pool goes straight to the
  // outstanding-slot accounting instead of a fresh cache).
  PacketPool::Magazine* create(std::uint64_t pool_id) {
    std::size_t burst = 0;
    {
      auto& reg = registry();
      std::lock_guard<std::mutex> lock(reg.mu);
      auto it = reg.live.find(pool_id);
      if (it == reg.live.end()) return nullptr;
      if (it->second->dying.load(std::memory_order_relaxed)) return nullptr;
      burst = it->second->config.magazine_slots;
    }
    auto mag = std::make_unique<PacketPool::Magazine>();
    mag->pool_id = pool_id;
    mag->burst = burst;
    // 2*burst is the flush threshold; headroom so the threshold check
    // never observes a reallocation.
    mag->slots.reserve(2 * burst + 1);
    last = mag.get();
    mags.push_back(std::move(mag));
    return last;
  }
};

MagazineSet& thread_magazines() {
  thread_local MagazineSet set;
  return set;
}

}  // namespace

PacketPool::Magazine::~Magazine() {
  if (slots.empty() && pending_acquired == 0 && pending_released == 0) return;
  auto& reg = registry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  auto it = reg.live.find(pool_id);
  if (it == reg.live.end()) return;  // fully reclaimed already
  if (return_slots_locked(it->second, this, slots.size())) {
    reg.live.erase(it);
  }
}

PacketPool::PacketPool(PacketPoolConfig config) : config_(config) {
  if (config_.slab_slots == 0) config_.slab_slots = 1;
  if (config_.magazine_slots == 0) config_.magazine_slots = 1;
  if (config_.slab_slots > config_.capacity_slots) {
    config_.slab_slots = config_.capacity_slots;
  }
  impl_ = new Impl();
  impl_->config = config_;
  impl_->id = next_pool_id();
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.live.emplace(impl_->id, impl_);
}

PacketPool::~PacketPool() {
  // Any slot still out (live PacketPtrs, thread-local magazine caches)
  // points into our slabs, so the slabs must survive the pool object:
  // mark the impl dying with the outstanding count and leave it in the
  // registry. The last slot returned deletes the impl and frees the
  // slabs; release paths see `dying` and credit `outstanding` instead
  // of recycling. Only when nothing is out can we reclaim immediately.
  auto& reg = registry();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  bool dead = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    const std::size_t out =
        impl_->slots_materialized - impl_->shared_free.size();
    if (out == 0) {
      dead = true;
    } else {
      impl_->dying.store(true, std::memory_order_relaxed);
      impl_->outstanding = out;
      impl_->shared_free.clear();
      impl_->shared_free.shrink_to_fit();
    }
  }
  if (dead) {
    reg.live.erase(impl_->id);
    delete impl_;
  }
}

namespace {

// A pool slot: the Packet first, so a Packet* converts back to its
// slot, then the id of the owning pool (0 = heap fallback).
struct alignas(PacketPool::kSlotAlign) Slot {
  Packet packet;
  std::uint64_t pool_id = 0;
};
static_assert(sizeof(Slot) == PacketPool::kSlotBytes,
              "Packet outgrew its pool slot; bump kSlotBytes");
static_assert(std::is_standard_layout_v<Slot> && offsetof(Slot, packet) == 0,
              "Slot must be pointer-interconvertible with its Packet");

void* acquire_slot(PacketPool::Impl* impl) {
  auto& set = thread_magazines();
  PacketPool::Magazine* mag = set.find(impl->id);
  if (mag == nullptr) mag = set.create(impl->id);
  if (mag == nullptr) return nullptr;  // pool already dead
  if (mag->slots.empty() && impl->refill(*mag) == 0) {
    impl->exhausted_total.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  void* slot = mag->slots.back();
  mag->slots.pop_back();
  ++mag->pending_acquired;
  return slot;
}

void release_slot(std::uint64_t pool_id, void* slot) noexcept {
  auto& set = thread_magazines();
  PacketPool::Magazine* mag = set.find(pool_id);
  if (mag == nullptr) {
    mag = set.create(pool_id);
    if (mag == nullptr) {
      // Dying (or fully reclaimed) pool: no cache — credit the slot
      // against the outstanding count directly.
      auto& reg = registry();
      std::lock_guard<std::mutex> lock(reg.mu);
      auto it = reg.live.find(pool_id);
      if (it != reg.live.end() &&
          return_slots_locked(it->second, nullptr, 0)) {
        reg.live.erase(it);
      }
      return;
    }
  }
  mag->slots.push_back(slot);
  ++mag->pending_released;
  if (mag->slots.size() > 2 * mag->burst) {
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto it = reg.live.find(pool_id);
    if (it == reg.live.end()) {
      // Fully reclaimed pool: these cached pointers are dangling by
      // now; forget them.
      mag->slots.clear();
      mag->pending_acquired = 0;
      mag->pending_released = 0;
      return;
    }
    if (return_slots_locked(it->second, mag, mag->burst)) {
      reg.live.erase(it);
    }
  }
}

}  // namespace

void PacketRelease::operator()(Packet* packet) const noexcept {
  Slot* slot = reinterpret_cast<Slot*>(packet);
  const std::uint64_t pool_id = slot->pool_id;
  if (pool_id == 0) {
    delete slot;
    return;
  }
  slot->~Slot();
  release_slot(pool_id, slot);
}

PacketPtr PacketPool::make() {
  if (PacketPtr packet = try_make()) return packet;
  impl_->heap_fallback_total.fetch_add(1, std::memory_order_relaxed);
  return PacketPtr(&(new Slot{})->packet);
}

PacketPtr PacketPool::try_make() {
  void* raw = acquire_slot(impl_);
  if (raw == nullptr) return nullptr;
  return PacketPtr(&(::new (raw) Slot{Packet{}, impl_->id})->packet);
}

PacketPoolStats PacketPool::stats() const {
  PacketPoolStats s;
  std::lock_guard<std::mutex> lock(impl_->mu);
  s.capacity_slots = impl_->config.capacity_slots;
  s.slots_materialized = impl_->slots_materialized;
  s.acquired_total = impl_->acquired_total;
  s.released_total = impl_->released_total;
  s.in_use = impl_->acquired_total >= impl_->released_total
                 ? impl_->acquired_total - impl_->released_total
                 : 0;
  s.exhausted_total = impl_->exhausted_total.load(std::memory_order_relaxed);
  s.heap_fallback_total =
      impl_->heap_fallback_total.load(std::memory_order_relaxed);
  s.magazine_refills = impl_->magazine_refills;
  s.magazine_flushes = impl_->magazine_flushes;
  return s;
}

PacketPool& default_packet_pool() {
  static PacketPool pool;
  return pool;
}

PacketPtr make_packet() { return default_packet_pool().make(); }

PacketPtr try_make_packet() { return default_packet_pool().try_make(); }

}  // namespace eden::netsim
