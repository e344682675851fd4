// Tests for the lifecycle span collector: id allocation under
// concurrency, lock-free lane wraparound, sampling pacing and the
// trace_event JSON rendering.
#include "telemetry/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

namespace eden::telemetry {
namespace {

// The collector is process-global; every test starts from a clean slate
// with its own sampling/capacity configuration.
class SpanCollectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SpanCollector::instance().reset();
    SpanCollector::instance().set_clock(nullptr, nullptr);
  }
  void TearDown() override {
    SpanCollector::instance().disable();
    SpanCollector::instance().reset();
  }
};

TEST_F(SpanCollectorTest, StartTraceNeverReturnsZeroOrDuplicates) {
  auto& spans = SpanCollector::instance();
  std::set<std::int64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t id = spans.start_trace();
    EXPECT_NE(id, 0);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
  }
}

TEST_F(SpanCollectorTest, ConcurrentWritersLoseNothingUntilWraparound) {
  constexpr int kThreads = 4;
  // Fewer events than capacity: every record must survive.
  constexpr int kEvents = 300;
  auto& spans = SpanCollector::instance();
  spans.enable(1);

  std::vector<std::vector<std::int64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEvents; ++i) {
        const std::int64_t id = spans.maybe_start_trace();
        EXPECT_NE(id, 0);  // sample_every == 1: every message traced
        ids[static_cast<std::size_t>(t)].push_back(id);
        spans.record(id, Hop::stage_classify, /*ts_ns=*/i, /*dur_ns=*/0,
                     /*aux=*/i);
      }
    });
  }
  for (auto& th : threads) th.join();

  // No id allocated twice across threads.
  std::set<std::int64_t> all_ids;
  for (const auto& per_thread : ids) {
    for (const std::int64_t id : per_thread) {
      EXPECT_TRUE(all_ids.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(all_ids.size(),
            static_cast<std::size_t>(kThreads) * kEvents);

  // Below capacity nothing wraps: every recorded event is in the
  // snapshot, exactly once.
  EXPECT_EQ(spans.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(spans.overwritten(), 0u);
  const std::vector<SpanEvent> events = spans.snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kEvents);
  std::set<std::int64_t> seen;
  for (const SpanEvent& e : events) {
    EXPECT_TRUE(all_ids.count(e.trace_id) == 1);
    EXPECT_TRUE(seen.insert(e.trace_id).second)
        << "trace id " << e.trace_id << " recorded twice";
  }
}

TEST_F(SpanCollectorTest, WraparoundKeepsMostRecentPerLane) {
  constexpr std::size_t kCapacity = SpanCollector::kLaneCapacity;
  constexpr int kThreads = 3;
  constexpr int kEvents = static_cast<int>(kCapacity) + 150;
  auto& spans = SpanCollector::instance();
  spans.enable(1);

  // Each thread records all its events under one trace id, with the
  // sequence number in aux, so survivors can be checked per writer.
  std::vector<std::int64_t> thread_ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::int64_t id = spans.start_trace();
      thread_ids[static_cast<std::size_t>(t)] = id;
      for (int i = 0; i < kEvents; ++i) {
        spans.record(id, Hop::host_enqueue, /*ts_ns=*/i, /*dur_ns=*/0,
                     /*aux=*/i);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(spans.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(spans.overwritten(),
            static_cast<std::uint64_t>(kThreads) * (kEvents - kCapacity));

  std::map<std::int64_t, std::vector<std::int64_t>> aux_by_id;
  for (const SpanEvent& e : spans.snapshot()) {
    aux_by_id[e.trace_id].push_back(e.aux);
  }
  for (const std::int64_t id : thread_ids) {
    auto it = aux_by_id.find(id);
    ASSERT_NE(it, aux_by_id.end());
    std::vector<std::int64_t>& aux = it->second;
    // Exactly the lane capacity survives, and it is the most recent
    // window [kEvents - kCapacity, kEvents), each exactly once.
    ASSERT_EQ(aux.size(), kCapacity);
    std::sort(aux.begin(), aux.end());
    for (std::size_t i = 0; i < aux.size(); ++i) {
      EXPECT_EQ(aux[i],
                static_cast<std::int64_t>(kEvents - kCapacity + i));
    }
  }
}

TEST_F(SpanCollectorTest, SamplingPacesOneInN) {
  auto& spans = SpanCollector::instance();
  spans.enable(4);
  // A fresh thread starts with a fresh countdown, so the pacing is
  // deterministic: calls 1, 5, 9, ... sample.
  std::vector<std::int64_t> returns;
  std::thread([&] {
    for (int i = 0; i < 16; ++i) returns.push_back(spans.maybe_start_trace());
  }).join();
  ASSERT_EQ(returns.size(), 16u);
  int sampled = 0;
  for (std::size_t i = 0; i < returns.size(); ++i) {
    if (i % 4 == 0) {
      EXPECT_NE(returns[i], 0) << "call " << i;
      ++sampled;
    } else {
      EXPECT_EQ(returns[i], 0) << "call " << i;
    }
  }
  EXPECT_EQ(sampled, 4);
}

TEST_F(SpanCollectorTest, DisabledSamplingReturnsZero) {
  auto& spans = SpanCollector::instance();
  spans.disable();
  std::thread([&] {
    for (int i = 0; i < 8; ++i) EXPECT_EQ(spans.maybe_start_trace(), 0);
  }).join();
  // record() with id 0 is a no-op.
  spans.record(0, Hop::nic_tx, 123);
  EXPECT_EQ(spans.total_recorded(), 0u);
}

TEST_F(SpanCollectorTest, InjectedClockDrivesTimestamps) {
  auto& spans = SpanCollector::instance();
  spans.enable(1);
  static std::int64_t fake_now = 41;
  spans.set_clock([](void*) { return fake_now; }, nullptr);
  fake_now = 42;
  EXPECT_EQ(spans.now_ns(), 42);
  const std::int64_t id = spans.start_trace();
  spans.record_now(id, Hop::nic_tx);
  const std::vector<SpanEvent> events = spans.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts_ns, 42);
}

TEST_F(SpanCollectorTest, TraceEventJsonSlicesAndInstants) {
  std::vector<SpanEvent> events;
  SpanEvent slice;
  slice.trace_id = 7;
  slice.ts_ns = 5000;
  slice.dur_ns = 2000;  // ended at 5000 -> renderer rewinds start
  slice.hop = Hop::tb_wait;
  events.push_back(slice);
  SpanEvent instant;
  instant.trace_id = 7;
  instant.ts_ns = 6000;
  instant.hop = Hop::nic_tx;
  events.push_back(instant);

  const std::string json = to_trace_event_json(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"tb_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"nic_tx\""), std::string::npos);
  // tid groups by trace, and the slice's ts is rewound by its duration:
  // it ended at 5 us with dur 2 us, so it starts at 3 us.
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":3.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":6.000"), std::string::npos);
}

TEST_F(SpanCollectorTest, LinkedEventsCarrySpanAndParentInJson) {
  std::vector<SpanEvent> events;
  SpanEvent linked;
  linked.trace_id = 9;
  linked.ts_ns = 1000;
  linked.span_id = 41;
  linked.parent_id = 40;
  linked.hop = Hop::cp_send;
  events.push_back(linked);
  SpanEvent unlinked;
  unlinked.trace_id = 9;
  unlinked.ts_ns = 2000;
  unlinked.hop = Hop::nic_tx;
  events.push_back(unlinked);

  const std::string json = to_trace_event_json(events);
  EXPECT_NE(json.find("\"span\":41"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":40"), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  // Unlinked (data-plane) events carry no span/parent args at all.
  EXPECT_EQ(json.find("\"span\":0"), std::string::npos);
}

// The fleet-merge invariant: trace ids and span ids share one atomic
// allocator, so ids handed out to any mix of threads — AgentFarm
// session threads allocating trace ids, agent threads allocating span
// ids — are process-wide unique and a merged controller+agent dump can
// never collide on either. TSan-clean by construction (one fetch_add).
TEST_F(SpanCollectorTest, ConcurrentTraceAndSpanIdsNeverCollide) {
  SpanCollector& c = SpanCollector::instance();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::vector<std::vector<std::int64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &ids, t]() {
      ids[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        // Alternate the two allocation paths like a controller thread
        // (start_trace) interleaved with send paths (next_span_id).
        const std::int64_t id =
            (i & 1) == 0 ? c.start_trace() : c.next_span_id();
        ids[static_cast<std::size_t>(t)].push_back(id);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<std::int64_t> unique;
  for (const auto& v : ids) {
    for (const std::int64_t id : v) {
      EXPECT_NE(id, 0);
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

// Lane wraparound under concurrent linked recording: each writer wraps
// its own ring several times; every surviving event still has a unique
// span id and an in-range trace id — wraparound sheds old events, it
// never tears or duplicates surviving ones.
TEST_F(SpanCollectorTest, ConcurrentLinkedRecordsStayUniqueAcrossWraparound) {
  SpanCollector& c = SpanCollector::instance();
  c.enable(1);
  constexpr std::size_t kCapacity = SpanCollector::kLaneCapacity;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2 * kCapacity;  // 2 events each: 4x capacity
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c]() {
      for (int i = 0; i < kPerThread; ++i) {
        const std::int64_t trace = c.start_trace();
        const std::int64_t root = c.record_linked(
            trace, Hop::cp_txn_begin, 0, c.now_ns());
        c.record_linked(trace, Hop::cp_send, root, c.now_ns());
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::vector<SpanEvent> events = c.snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kCapacity);
  std::set<std::int64_t> span_ids;
  for (const SpanEvent& e : events) {
    EXPECT_NE(e.trace_id, 0);
    EXPECT_NE(e.span_id, 0);
    EXPECT_TRUE(span_ids.insert(e.span_id).second)
        << "span id " << e.span_id << " recorded twice";
    if (e.hop == Hop::cp_send) {
      EXPECT_NE(e.parent_id, 0);
    }
  }
  c.enable(0);
}

}  // namespace
}  // namespace eden::telemetry
