// The host stack glue: egress through the enclave and NIC, ingress
// demux, the message send API, and flow lifecycle.
#include "hoststack/host_stack.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/memcached_stage.h"
#include "experiments/testbed.h"
#include "telemetry/span.h"

namespace eden::hoststack {
namespace {

constexpr std::uint64_t kGbps = 1000ULL * 1000 * 1000;

class HostStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = &bed_.add_host("a");
    b_ = &bed_.add_host("b");
    bed_.connect(*a_, *b_, 10 * kGbps, 1000);
    bed_.routing().install_dest_routes();
    bed_.finalize();
    alice_ = bed_.host_by_name("a");
    bob_ = bed_.host_by_name("b");
  }

  experiments::Testbed bed_;
  netsim::HostNode* a_ = nullptr;
  netsim::HostNode* b_ = nullptr;
  experiments::TestHost* alice_ = nullptr;
  experiments::TestHost* bob_ = nullptr;
};

TEST_F(HostStackTest, FlowDeliversEndToEnd) {
  std::uint64_t delivered = 0;
  bool done = false;
  bob_->stack->listen(5000, [&](transport::TcpReceiver& r,
                                const FlowInfo& info) {
    r.expect(static_cast<std::uint64_t>(info.meta.msg_size));
    r.on_deliver = [&](std::uint64_t n) { delivered = n; };
    r.on_complete = [&] { done = true; };
  });
  netsim::PacketMeta meta;
  meta.msg_size = 100000;
  auto& sender = alice_->stack->open_flow(b_->id(), 5000, meta);
  sender.start(100000);
  bed_.run_for(netsim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(delivered, 100000u);
  EXPECT_TRUE(sender.complete());
}

TEST_F(HostStackTest, MetadataTravelsWithPackets) {
  netsim::PacketMeta seen;
  bob_->stack->listen(5000, [&](transport::TcpReceiver& r,
                                const FlowInfo& info) {
    seen = info.meta;
    r.expect(1000);
  });
  netsim::PacketMeta meta;
  meta.msg_id = 31337;
  meta.msg_type = 2;
  meta.msg_size = 1000;
  meta.tenant = 5;
  alice_->stack->open_flow(b_->id(), 5000, meta).start(1000);
  bed_.run_for(100 * netsim::kMillisecond);
  EXPECT_EQ(seen.msg_id, 31337);
  EXPECT_EQ(seen.msg_type, 2);
  EXPECT_EQ(seen.tenant, 5);
}

TEST_F(HostStackTest, NoListenerMeansNoDelivery) {
  auto& sender = alice_->stack->open_flow(b_->id(), 6000);
  sender.start(10000);
  bed_.run_for(100 * netsim::kMillisecond);
  EXPECT_FALSE(sender.complete());  // nothing acked the data
}

TEST_F(HostStackTest, EnclaveActionAppliesOnEgress) {
  // Install a priority-setting action on alice; verify packets arrive
  // at bob with that priority.
  core::Controller& controller = bed_.controller();
  const auto program =
      controller.compile("p6", "fun(p, m, g) -> p.priority <- 6", {});
  const core::ActionId action =
      alice_->enclave->install_action("p6", program, {});
  const core::TableId table = alice_->enclave->create_table("t");
  alice_->enclave->add_rule(table, core::ClassPattern("*"), action);

  std::uint8_t seen_priority = 255;
  bob_->stack->listen(5000, [&](transport::TcpReceiver& r, const FlowInfo&) {
    r.expect(1000);
  });
  // Peek at raw arrivals via the host node counter + a custom deliver
  // wrapper is invasive; instead check the enclave stats and ack flow.
  alice_->stack->open_flow(b_->id(), 5000).start(1000);
  bed_.run_for(100 * netsim::kMillisecond);
  EXPECT_GT(alice_->enclave->action_stats(action).executions, 0u);
  (void)seen_priority;
}

TEST_F(HostStackTest, EnclaveDropCountsAndBlocks) {
  core::Controller& controller = bed_.controller();
  const auto program =
      controller.compile("drop", "fun(p, m, g) -> p.drop <- 1", {});
  const core::ActionId action =
      alice_->enclave->install_action("drop", program, {});
  const core::TableId table = alice_->enclave->create_table("t");
  alice_->enclave->add_rule(table, core::ClassPattern("*"), action);

  auto& sender = alice_->stack->open_flow(b_->id(), 5000);
  sender.start(10000);
  bed_.run_for(50 * netsim::kMillisecond);
  EXPECT_GT(alice_->stack->enclave_drops(), 0u);
  EXPECT_EQ(bob_->node->rx_packets(), 0u);
}

TEST_F(HostStackTest, SendMessageClassifiesThroughStage) {
  apps::MemcachedStage stage(bed_.registry());
  stage.create_rule("r1",
                    {core::FieldPattern::exact("GET"),
                     core::FieldPattern::any()},
                    "GET", core::kMetaAll);

  // An enclave rule matching the GET class sets priority 7.
  core::Controller& controller = bed_.controller();
  const auto program =
      controller.compile("p7", "fun(p, m, g) -> p.priority <- 7", {});
  const core::ActionId action =
      alice_->enclave->install_action("p7", program, {});
  const core::TableId table = alice_->enclave->create_table("t");
  alice_->enclave->add_rule(table, core::ClassPattern("memcached.r1.GET"),
                            action);

  netsim::PacketMeta received;
  bob_->stack->listen(11211, [&](transport::TcpReceiver& r,
                                 const FlowInfo& info) {
    received = info.meta;
    r.expect(static_cast<std::uint64_t>(info.meta.msg_size));
  });

  const netsim::PacketMeta base =
      apps::MemcachedStage::request_meta(true, "key1", 2048);
  alice_->stack->send_message(stage, apps::MemcachedStage::get_attrs("key1"),
                              base, b_->id(), 11211, 2048);
  bed_.run_for(100 * netsim::kMillisecond);

  EXPECT_GT(alice_->enclave->action_stats(action).executions, 0u);
  EXPECT_NE(received.msg_id, 0);
  EXPECT_EQ(received.msg_type, apps::kMemcachedGet);
  EXPECT_EQ(received.msg_size, 2048);
}

TEST_F(HostStackTest, CloseFlowReleasesEndpoints) {
  bob_->stack->listen(5000, [&](transport::TcpReceiver& r, const FlowInfo&) {
    r.expect(1000);
  });
  auto& sender = alice_->stack->open_flow(b_->id(), 5000);
  const netsim::FlowId fid = sender.flow_id();
  sender.start(1000);
  bed_.run_for(100 * netsim::kMillisecond);
  EXPECT_EQ(alice_->stack->open_flow_count(), 1u);
  alice_->stack->close_flow(fid);
  bob_->stack->close_flow(fid);
  bed_.run_for(netsim::kMillisecond);
  EXPECT_EQ(alice_->stack->open_flow_count(), 0u);
  EXPECT_EQ(bob_->stack->open_flow_count(), 0u);
}

TEST_F(HostStackTest, CloseFromCompletionCallbackIsSafe) {
  bob_->stack->listen(5000, [&](transport::TcpReceiver& r,
                                const FlowInfo& info) {
    r.expect(1000);
    const netsim::FlowId fid = info.flow_id;
    r.on_complete = [this, fid] { bob_->stack->close_flow(fid); };
  });
  auto& sender = alice_->stack->open_flow(b_->id(), 5000);
  const netsim::FlowId fid = sender.flow_id();
  sender.on_complete = [this, fid] { alice_->stack->close_flow(fid); };
  sender.start(1000);
  bed_.run_for(100 * netsim::kMillisecond);
  EXPECT_EQ(alice_->stack->open_flow_count(), 0u);
  EXPECT_EQ(bob_->stack->open_flow_count(), 0u);
}

TEST_F(HostStackTest, RawPacketsReachRawHandler) {
  int raw_count = 0;
  bob_->stack->set_raw_handler([&](netsim::PacketPtr p) {
    EXPECT_EQ(p->dst_port, 9999);
    ++raw_count;
  });
  auto p = netsim::make_packet();
  p->src = a_->id();
  p->dst = b_->id();
  p->dst_port = 9999;
  p->protocol = netsim::Protocol::storage;
  p->size_bytes = 200;
  alice_->stack->send_raw(std::move(p));
  bed_.run_for(netsim::kMillisecond);
  EXPECT_EQ(raw_count, 1);
}

TEST_F(HostStackTest, NicQueueRateLimitsMarkedPackets) {
  // Create a 8 Mbps queue on alice and steer packets into it via an
  // enclave action; a 100KB transfer then takes ~100 ms instead of
  // microseconds.
  const int queue = alice_->stack->nic().create_queue(8 * 1000 * 1000,
                                                      10 * 1024);
  core::Controller& controller = bed_.controller();
  const auto program = controller.compile(
      "q", "fun(p, m, g) -> p.queue <- " + std::to_string(queue), {});
  const core::ActionId action =
      alice_->enclave->install_action("q", program, {});
  const core::TableId table = alice_->enclave->create_table("t");
  alice_->enclave->add_rule(table, core::ClassPattern("*"), action);

  bool done = false;
  bob_->stack->listen(5000, [&](transport::TcpReceiver& r, const FlowInfo&) {
    r.expect(100000);
    r.on_complete = [&] { done = true; };
  });
  alice_->stack->open_flow(b_->id(), 5000).start(100000);

  bed_.run_for(20 * netsim::kMillisecond);
  EXPECT_FALSE(done);  // rate limited: cannot be finished yet
  bed_.run_for(2 * netsim::kSecond);
  EXPECT_TRUE(done);
}

// A testbed stamps spans and flight events with its simulator clock.
// Once the bed is gone, the event clock must fall back to the tick
// clock: reading the dead scheduler would return a frozen time (or
// worse), so a clock that advances across a sleep proves the fallback.
TEST(HostStackClockTest, EventClockOutlivesItsTestbed) {
  telemetry::SpanCollector& spans = telemetry::SpanCollector::instance();
  {
    experiments::Testbed bed;
    netsim::HostNode& a = bed.add_host("a");
    netsim::HostNode& b = bed.add_host("b");
    bed.connect(a, b, 10 * kGbps, 1000);
    bed.routing().install_dest_routes();
    bed.finalize();
    bed.run_for(netsim::kMillisecond);
    EXPECT_EQ(spans.now_ns(), bed.network().now());
  }
  const std::int64_t before = spans.now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(spans.now_ns(), before);
}

}  // namespace
}  // namespace eden::hoststack
