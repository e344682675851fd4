// Packet pool arena: slot lifecycle, magazine exchange, exhaustion
// semantics and cross-thread recycling.
#include "netsim/packet_pool.h"

#include <gtest/gtest.h>

#include <thread>
#include <type_traits>
#include <vector>

namespace eden::netsim {
namespace {

PacketPoolConfig small_pool(std::size_t capacity, std::size_t magazine = 4) {
  PacketPoolConfig c;
  c.capacity_slots = capacity;
  c.slab_slots = capacity;
  c.magazine_slots = magazine;
  return c;
}

// Single ownership is enforced by the type: any hidden sharing of a
// packet is a compile error, and the handle is one pointer wide.
static_assert(!std::is_copy_constructible_v<PacketPtr>);
static_assert(!std::is_copy_assignable_v<PacketPtr>);
static_assert(sizeof(PacketPtr) == sizeof(Packet*));

TEST(PacketPool, MakeProducesFreshPackets) {
  PacketPool pool(small_pool(16));
  auto p = pool.make();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->src, 0u);
  EXPECT_EQ(p->meta.msg_id, 0);
  EXPECT_EQ(p->classes.size(), 0u);
}

TEST(PacketPool, RecycledSlotsComeBackZeroed) {
  PacketPool pool(small_pool(4, 2));
  Packet* first_addr = nullptr;
  {
    auto p = pool.make();
    p->src = 99;
    p->seq = 123456;
    p->classes.add(1);
    first_addr = p.get();
  }
  // The tiny pool guarantees the recycled slot is reused quickly.
  for (int i = 0; i < 8; ++i) {
    auto p = pool.make();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->src, 0u) << "stale field survived slot recycling";
    EXPECT_EQ(p->seq, 0u);
    EXPECT_EQ(p->classes.size(), 0u);
    if (p.get() == first_addr) return;  // proved reuse + re-init
  }
  // Reuse not observed is fine too (magazine order is unspecified); the
  // zero checks above are the invariant.
}

TEST(PacketPool, TryMakeReturnsNullWhenDry) {
  PacketPool pool(small_pool(8));
  std::vector<PacketPtr> held;
  for (std::size_t i = 0; i < 8; ++i) {
    auto p = pool.try_make();
    ASSERT_NE(p, nullptr) << "arena dry before capacity at slot " << i;
    held.push_back(std::move(p));
  }
  EXPECT_EQ(pool.try_make(), nullptr);
  EXPECT_EQ(pool.try_make(), nullptr);
  const auto dry = pool.stats();
  EXPECT_EQ(dry.exhausted_total, 2u);
  EXPECT_EQ(dry.heap_fallback_total, 0u);

  // Releasing one slot makes try_make succeed again.
  held.pop_back();
  EXPECT_NE(pool.try_make(), nullptr);
}

TEST(PacketPool, MakeFallsBackToHeapWhenDry) {
  PacketPool pool(small_pool(4));
  std::vector<PacketPtr> held;
  for (std::size_t i = 0; i < 4; ++i) held.push_back(pool.make());
  auto extra = pool.make();  // arena dry: heap fallback, never null
  ASSERT_NE(extra, nullptr);
  const auto s = pool.stats();
  EXPECT_EQ(s.heap_fallback_total, 1u);
  EXPECT_GE(s.exhausted_total, 1u);
}

TEST(PacketPool, StatsTrackInUseAcrossMagazines) {
  PacketPool pool(small_pool(64, 4));
  std::vector<PacketPtr> held;
  for (int i = 0; i < 32; ++i) held.push_back(pool.make());
  auto s = pool.stats();
  EXPECT_EQ(s.capacity_slots, 64u);
  EXPECT_LE(s.in_use, 32u + 4u);  // folding lags by at most one magazine
  EXPECT_GT(s.magazine_refills, 0u);
  held.clear();
  // Quiesce: one more round-trip folds the release counters.
  pool.make();
  s = pool.stats();
  EXPECT_LE(s.in_use, 4u);
}

TEST(PacketPool, CrossThreadReleaseRecyclesSlots) {
  // Producer allocates, consumer thread drops the packets — the
  // DataPlane's actual topology. The slots must flow back and keep the
  // arena serviceable well past its capacity in total packets.
  PacketPool pool(small_pool(32, 4));
  for (int round = 0; round < 50; ++round) {
    std::vector<PacketPtr> batch;
    for (int i = 0; i < 16; ++i) {
      auto p = pool.make();
      ASSERT_NE(p, nullptr);
      batch.push_back(std::move(p));
    }
    std::thread consumer([moved = std::move(batch)]() mutable {
      moved.clear();  // release on a foreign thread
    });
    consumer.join();
  }
  const auto s = pool.stats();
  EXPECT_EQ(s.heap_fallback_total, 0u);
  EXPECT_EQ(s.slots_materialized, 32u);
}

TEST(PacketPool, PacketsMayOutliveTheirPool) {
  // Destroying a pool with slots still out must not free the slabs:
  // the impl lingers (marked dying) until the last slot comes home, so
  // surviving PacketPtrs stay dereferenceable and their releases credit
  // the outstanding count instead of recycling. Exercised both from the
  // owning thread (slot returns to its existing magazine) and from a
  // foreign thread with no magazine (direct outstanding credit).
  PacketPtr survivor;
  PacketPtr foreign;
  {
    PacketPool pool(small_pool(8));
    survivor = pool.make();
    foreign = pool.make();
    ASSERT_NE(survivor, nullptr);
    ASSERT_NE(foreign, nullptr);
    survivor->src = 5;
    foreign->dst = 6;
  }
  EXPECT_EQ(survivor->src, 5u);
  EXPECT_EQ(foreign->dst, 6u);
  survivor.reset();
  std::thread releaser([moved = std::move(foreign)]() mutable {
    moved.reset();
  });
  releaser.join();
}

TEST(PacketPool, DefaultPoolBacksMakePacket) {
  const auto before = default_packet_pool().stats();
  auto p = make_packet();
  ASSERT_NE(p, nullptr);
  auto q = try_make_packet();
  ASSERT_NE(q, nullptr);
  p.reset();
  q.reset();
  const auto after = default_packet_pool().stats();
  EXPECT_GT(after.slots_materialized, 0u);
  EXPECT_GE(after.acquired_total + 3, before.acquired_total);
}

}  // namespace
}  // namespace eden::netsim
