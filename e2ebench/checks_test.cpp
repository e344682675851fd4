// Each output check of the benchmark, fed a deliberately wrong input,
// must fire; fed the right one, it must stay quiet. Build and run with
//   cmake --build .bench_build/e2ebench --target e2ebench_checks_test
//   .bench_build/e2ebench/e2ebench_checks_test
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "checks.h"
#include "core/enclave.h"
#include "functions/scheduling.h"
#include "netsim/packet.h"

namespace e2e {
namespace {

struct Tag {
  int value = 0;
};

TEST(Conservation, EveryPacketOnceIsQuiet) {
  CheckLog log;
  CompletionLedger<Tag> ledger(8);
  for (int i = 0; i < 5; ++i) ledger.offer(Tag{i});
  for (std::uint64_t s = 0; s < 5; ++s) {
    const Tag* t = ledger.complete(s, log);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->value, static_cast<int>(s));
  }
  ledger.check_conserved(0, log);
  EXPECT_TRUE(log.ok());
}

TEST(Conservation, DroppedCompletionFires) {
  CheckLog log;
  CompletionLedger<Tag> ledger(8);
  for (int i = 0; i < 3; ++i) ledger.offer(Tag{i});
  ledger.complete(0, log);
  ledger.complete(2, log);  // packet 1 never comes back, and no drop counted
  ledger.check_conserved(0, log);
  EXPECT_FALSE(log.ok());
}

TEST(Conservation, CountedDropIsQuiet) {
  CheckLog log;
  CompletionLedger<Tag> ledger(8);
  for (int i = 0; i < 3; ++i) ledger.offer(Tag{i});
  ledger.complete(0, log);
  ledger.complete(2, log);
  ledger.check_conserved(1, log);
  EXPECT_TRUE(log.ok());
}

TEST(Conservation, DuplicateCompletionFires) {
  CheckLog log;
  CompletionLedger<Tag> ledger(8);
  ledger.offer(Tag{});
  ledger.complete(0, log);
  EXPECT_EQ(ledger.complete(0, log), nullptr);
  EXPECT_FALSE(log.ok());
}

TEST(Conservation, NeverOfferedFires) {
  CheckLog log;
  CompletionLedger<Tag> ledger(8);
  ledger.offer(Tag{});
  EXPECT_EQ(ledger.complete(7, log), nullptr);
  EXPECT_FALSE(log.ok());
}

TEST(Order, InOrderIsQuiet) {
  CheckLog log;
  MessageOrder order;
  order.complete(9, 0, 1460, log);
  order.complete(9, 1460, 1460, log);
  order.complete(9, 2920, 100, log);
  order.finish(9);
  EXPECT_TRUE(log.ok());
  EXPECT_EQ(order.open(), 0u);
}

TEST(Order, SwappedPairWithinMessageFires) {
  CheckLog log;
  MessageOrder order;
  order.complete(9, 0, 1460, log);
  order.complete(9, 2920, 1460, log);  // third packet overtook the second
  order.complete(9, 1460, 1460, log);
  EXPECT_FALSE(log.ok());
}

TEST(Order, DroppedPacketWithinMessageFires) {
  CheckLog log;
  MessageOrder order;
  order.complete(4, 0, 1460, log);
  order.complete(4, 2920, 1460, log);  // 1460..2920 never completed
  EXPECT_FALSE(log.ok());
}

TEST(Order, InterleavedMessagesAreQuiet) {
  CheckLog log;
  MessageOrder order;
  order.complete(1, 0, 10, log);
  order.complete(2, 0, 10, log);
  order.complete(1, 10, 10, log);
  order.complete(2, 10, 10, log);
  EXPECT_TRUE(log.ok());
}

// The PIAS check against the real program: priorities the enclave
// computes with the pushed thresholds match the benchmark's model of
// those thresholds, and not a model of a shifted table.
class PiasModel : public ::testing::Test {
 protected:
  void SetUp() override {
    action_ = pias_.install(enclave_, false);
    eden::functions::push_priority_thresholds(enclave_, action_, model_.limits,
                                              model_.priorities);
    enclave_.add_rule(enclave_.create_table("t"), eden::core::ClassPattern("*"),
                      action_);
  }

  // Runs one message of `packets` MTU packets and checks every priority
  // against `model`.
  void run(const ThresholdModel& model, CheckLog& log) {
    std::int64_t bytes = 0;
    for (int i = 0; i < 60; ++i) {
      eden::netsim::Packet p;
      p.meta.msg_id = 77;
      p.payload_bytes = 1460;
      p.size_bytes = 1514;
      enclave_.process(p);
      bytes += p.size_bytes;
      check_equal("pias.priority", p.priority, model.priority(bytes), log);
    }
  }

  ThresholdModel model_{{8 * 1024, 32 * 1024, 64 * 1024}, {7, 6, 5}};
  eden::core::ClassRegistry registry_;
  eden::core::Enclave enclave_{"test", registry_};
  eden::functions::PiasFunction pias_;
  eden::core::ActionId action_ = 0;
};

TEST_F(PiasModel, PushedThresholdsAreQuiet) {
  CheckLog log;
  run(model_, log);
  EXPECT_TRUE(log.ok()) << log.messages().front();
}

TEST_F(PiasModel, ShiftedThresholdTableFires) {
  ThresholdModel shifted = model_;
  for (std::int64_t& l : shifted.limits) l += 4096;
  CheckLog log;
  run(shifted, log);
  EXPECT_FALSE(log.ok());
}

TEST(Sff, PinnedPriorityWinsOverTable) {
  const ThresholdModel m{{10}, {7}};
  EXPECT_EQ(m.priority(5), 7);
  EXPECT_EQ(m.priority(50), 0);
  EXPECT_EQ(m.priority(5, 0), 0);
}

TEST(Counter, OffByOneFires) {
  CheckLog ok_log;
  check_counter(10, 640, 10, 640, ok_log);
  EXPECT_TRUE(ok_log.ok());
  CheckLog log;
  check_counter(11, 640, 10, 640, log);
  check_counter(10, 641, 10, 640, log);
  EXPECT_EQ(log.failures(), 2u);
}

TEST(Pulsar, QueueAndChargeFollowTenantAndReadRule) {
  const PulsarModel m{{3, 5}, 1};
  CheckLog ok_log;
  m.check(1, 1, 65536, 200, 5, 65536, ok_log);  // READ: charged op size
  m.check(0, 2, 65536, 1514, 3, 1514, ok_log);  // WRITE: charged wire size
  EXPECT_TRUE(ok_log.ok());
  CheckLog wrong_queue;
  m.check(1, 2, 65536, 1514, 3, 1514, wrong_queue);
  EXPECT_FALSE(wrong_queue.ok());
  CheckLog wrong_charge;
  m.check(1, 1, 65536, 200, 5, 200, wrong_charge);  // READ charged its size
  EXPECT_FALSE(wrong_charge.ok());
}

TEST(Wcmp, LabelOutsidePathSetFires) {
  const WcmpModel m{100, 4};
  CheckLog log;
  m.check_label(103, log);
  EXPECT_TRUE(log.ok());
  m.check_label(104, log);
  m.check_label(-1, log);
  EXPECT_EQ(log.failures(), 2u);
}

TEST(Wcmp, SplitOfFinalWeightsIsQuiet) {
  CheckLog log;
  WcmpModel::check_split({1000, 3000, 6000}, {100, 300, 600}, 5.0, log);
  EXPECT_TRUE(log.ok());
}

TEST(Wcmp, SplitOfStaleWeightsFires) {
  // Packets split by an earlier table {1/3 each} checked against the
  // final weights.
  CheckLog log;
  WcmpModel::check_split({3333, 3333, 3334}, {100, 300, 600}, 5.0, log);
  EXPECT_FALSE(log.ok());
  // As in qos_churn: 64 paths, 64,000 packets, and the bound widened by
  // sqrt(2) for two workers. The split follows weights 1..4 exactly; the
  // final table has them reversed.
  std::vector<std::int64_t> stale, final_w;
  std::vector<std::uint64_t> counts;
  for (int i = 0; i < 64; ++i) {
    stale.push_back(1 + i % 4);
    final_w.push_back(4 - i % 4);
    counts.push_back(static_cast<std::uint64_t>(stale.back() * 400));
  }
  CheckLog quiet;
  WcmpModel::check_split(counts, stale, 5.0 * std::sqrt(2.0), quiet);
  EXPECT_TRUE(quiet.ok());
  CheckLog widened;
  WcmpModel::check_split(counts, final_w, 5.0 * std::sqrt(2.0), widened);
  EXPECT_FALSE(widened.ok());
}

TEST(Flow, ExactDeliveryAboveFloorIsQuiet) {
  CheckLog log;
  // 10 KB at 10 Gb/s is 8192 ns, plus 4 us one way.
  check_flow(10240, 10240, 12500, 10'000'000'000ULL, 4000, log);
  EXPECT_TRUE(log.ok());
}

TEST(Flow, ShortDeliveryFires) {
  CheckLog log;
  check_flow(10000, 10240, 50000, 10'000'000'000ULL, 4000, log);
  EXPECT_FALSE(log.ok());
}

TEST(Flow, CompletionFasterThanLineRateFires) {
  CheckLog log;
  check_flow(10240, 10240, 12000, 10'000'000'000ULL, 4000, log);
  EXPECT_FALSE(log.ok());
}

}  // namespace
}  // namespace e2e
