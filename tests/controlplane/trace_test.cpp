// Control-plane distributed tracing: trace context in the frame
// header, causally-linked spans across session -> transport -> agent,
// and the flight-recorder journal of the same lifecycle.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "controlplane/fault.h"
#include "controlplane/frame.h"
#include "controlplane/session.h"
#include "controlplane/transport.h"
#include "core/controller.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/span.h"

namespace eden::controlplane {
namespace {

using telemetry::FlightEvent;
using telemetry::FlightEventType;
using telemetry::FlightRecorder;
using telemetry::Hop;
using telemetry::SpanCollector;
using telemetry::SpanEvent;

TEST(FrameTraceContext, RoundTripsAndDefaultsToZero) {
  Frame traced;
  traced.type = FrameType::request;
  traced.id = 12;
  traced.payload = {1, 2, 3};
  traced.trace_id = 777;
  traced.parent_span = 778;
  const auto bytes = encode_frame(traced);

  FrameDecoder decoder;
  std::vector<Frame> out;
  ASSERT_TRUE(decoder.feed(bytes, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].trace_id, 777);
  EXPECT_EQ(out[0].parent_span, 778);
  EXPECT_EQ(out[0].payload, traced.payload);

  out.clear();
  ASSERT_TRUE(decoder.feed(encode_frame({FrameType::heartbeat, 5, {}}), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].trace_id, 0);
  EXPECT_EQ(out[0].parent_span, 0);
}

// Session + agent over a clean in-process pipe, with span sampling at
// 1-in-1 so every control operation is traced.
class TraceSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SpanCollector::instance().set_clock(nullptr, nullptr);
    SpanCollector::instance().reset();
    SpanCollector::instance().enable(1);
    FlightRecorder::instance().set_clock(nullptr, nullptr);
    FlightRecorder::instance().reset();
  }
  void TearDown() override {
    SpanCollector::instance().disable();
    SpanCollector::instance().reset();
    FlightRecorder::instance().reset();
  }

  static SessionConfig fast_config() {
    SessionConfig config;
    config.heartbeat_interval_ns = 5'000'000;
    config.liveness_timeout_ns = 20'000'000;
    config.request_timeout_ns = 12'000'000;
    config.backoff_initial_ns = 1'000'000;
    config.backoff_max_ns = 50'000'000;
    config.seed = 3;
    return config;
  }

  void make_session() {
    session_ = std::make_unique<EnclaveSession>(
        "traced", [this]() { return dial(); }, [this]() { return now_ns_; },
        fast_config());
  }

  std::unique_ptr<Transport> dial() {
    if (killed_) return nullptr;
    auto [near, far] = make_pipe(pump_, 64);
    agent_->attach(std::move(far));
    return std::move(near);
  }

  void step_ms(std::uint64_t ms = 1) {
    now_ns_ += ms * 1'000'000;
    session_->tick();
    pump_.run();
  }

  bool settle(int max_steps = 2000) {
    for (int i = 0; i < max_steps; ++i) {
      step_ms();
      if (session_->ready() && session_->inflight() == 0 &&
          pump_.pending() == 0) {
        return true;
      }
    }
    return false;
  }

  // Events of one trace, grouped by hop.
  static std::map<Hop, std::vector<SpanEvent>> by_hop(std::int64_t trace) {
    std::map<Hop, std::vector<SpanEvent>> out;
    for (const SpanEvent& e : SpanCollector::instance().snapshot()) {
      if (e.trace_id == trace) out[e.hop].push_back(e);
    }
    return out;
  }

  core::ClassRegistry registry_;
  core::Controller controller_{registry_};
  core::Enclave enclave_{"traced", registry_};
  PipePump pump_;
  std::unique_ptr<EnclaveAgent> agent_ =
      std::make_unique<EnclaveAgent>(enclave_);
  std::uint64_t now_ns_ = 0;
  bool killed_ = false;
  std::unique_ptr<EnclaveSession> session_;
};

TEST_F(TraceSessionTest, TxnBecomesOneCausallyLinkedTrace) {
  make_session();
  ASSERT_TRUE(settle());
  SpanCollector::instance().reset();  // drop the connect-resync trace

  session_->begin_txn();
  session_->add_rule("t", "*", "missing");
  session_->commit_txn();
  ASSERT_TRUE(settle());

  // Everything belongs to exactly one trace.
  std::set<std::int64_t> traces;
  for (const SpanEvent& e : SpanCollector::instance().snapshot()) {
    traces.insert(e.trace_id);
  }
  ASSERT_EQ(traces.size(), 1u);
  const std::int64_t trace = *traces.begin();
  auto hops = by_hop(trace);

  ASSERT_EQ(hops[Hop::cp_txn_begin].size(), 1u);
  const SpanEvent root = hops[Hop::cp_txn_begin][0];
  EXPECT_NE(root.span_id, 0);
  EXPECT_EQ(root.parent_id, 0);

  // cp_txn_commit is a direct child of the begin.
  ASSERT_EQ(hops[Hop::cp_txn_commit].size(), 1u);
  EXPECT_EQ(hops[Hop::cp_txn_commit][0].parent_id, root.span_id);

  // begin + create_table + add_rule + commit all left as traced sends
  // parented under the root.
  ASSERT_EQ(hops[Hop::cp_send].size(), 4u);
  std::set<std::int64_t> send_spans;
  for (const SpanEvent& e : hops[Hop::cp_send]) {
    EXPECT_EQ(e.parent_id, root.span_id);
    send_spans.insert(e.span_id);
  }

  // Each send got a response slice and an agent-side apply, both
  // parented under that send's span.
  ASSERT_EQ(hops[Hop::cp_response].size(), 4u);
  for (const SpanEvent& e : hops[Hop::cp_response]) {
    EXPECT_EQ(send_spans.count(e.parent_id), 1u);
  }
  ASSERT_EQ(hops[Hop::cp_agent_apply].size(), 4u);
  std::set<std::int64_t> apply_spans;
  for (const SpanEvent& e : hops[Hop::cp_agent_apply]) {
    EXPECT_EQ(send_spans.count(e.parent_id), 1u);
    apply_spans.insert(e.span_id);
  }

  // The committed publish is recorded agent-side under its apply.
  ASSERT_EQ(hops[Hop::cp_agent_publish].size(), 1u);
  EXPECT_EQ(apply_spans.count(hops[Hop::cp_agent_publish][0].parent_id), 1u);

  // And the flight recorder journaled the same lifecycle.
  std::set<FlightEventType> flight;
  for (const FlightEvent& e : FlightRecorder::instance().snapshot()) {
    flight.insert(e.type);
  }
  EXPECT_EQ(flight.count(FlightEventType::txn_begin), 1u);
  EXPECT_EQ(flight.count(FlightEventType::txn_commit), 1u);
}

TEST_F(TraceSessionTest, KilledAgentMidTxnYieldsRetryReconnectResyncChain) {
  make_session();
  ASSERT_TRUE(settle());
  SpanCollector::instance().reset();
  FlightRecorder::instance().reset();  // drop connect-time events

  session_->begin_txn();
  session_->add_rule("t", "*", "missing");
  ASSERT_TRUE(settle());

  // Kill the agent mid-transaction: the commit must ride a timeout,
  // teardown, backoff, reconnect and folded resync — all in ONE trace.
  killed_ = true;
  agent_->detach();
  session_->commit_txn();
  for (int i = 0; i < 40; ++i) step_ms();
  killed_ = false;
  ASSERT_TRUE(settle());
  EXPECT_GE(session_->stats().txns_committed, 1u);

  std::set<std::int64_t> traces;
  for (const SpanEvent& e : SpanCollector::instance().snapshot()) {
    traces.insert(e.trace_id);
  }
  ASSERT_EQ(traces.size(), 1u) << "retry chain split across traces";
  const auto hops = by_hop(*traces.begin());

  for (const Hop expected :
       {Hop::cp_txn_begin, Hop::cp_txn_commit, Hop::cp_teardown,
        Hop::cp_backoff, Hop::cp_resync, Hop::cp_agent_publish}) {
    EXPECT_TRUE(hops.count(expected) > 0)
        << "missing hop " << telemetry::hop_name(expected);
  }
  // The resync span parents the replayed sends.
  ASSERT_TRUE(hops.count(Hop::cp_resync) > 0);
  const SpanEvent resync = hops.at(Hop::cp_resync).back();
  std::size_t under_resync = 0;
  for (const SpanEvent& e : hops.at(Hop::cp_send)) {
    if (e.parent_id == resync.span_id) ++under_resync;
  }
  EXPECT_GT(under_resync, 0u);

  // Flight recorder saw the same story, in order.
  std::vector<FlightEventType> order;
  for (const FlightEvent& e : FlightRecorder::instance().snapshot()) {
    order.push_back(e.type);
  }
  const auto index_of = [&](FlightEventType t) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == t) return static_cast<long>(i);
    }
    return -1L;
  };
  const long commit = index_of(FlightEventType::txn_commit);
  const long teardown = index_of(FlightEventType::session_teardown);
  const long backoff = index_of(FlightEventType::session_backoff);
  const long resync_at = index_of(FlightEventType::resync);
  ASSERT_GE(commit, 0);
  ASSERT_GE(teardown, 0);
  ASSERT_GE(backoff, 0);
  ASSERT_GE(resync_at, 0);
  EXPECT_LT(commit, teardown);
  EXPECT_LT(teardown, backoff);
  EXPECT_LT(backoff, resync_at);
}

TEST_F(TraceSessionTest, DeltaPollIsItsOwnTrace) {
  make_session();
  ASSERT_TRUE(settle());
  SpanCollector::instance().reset();

  const std::string payload =
      session_->fetch_telemetry_delta_json(pump_, 0, 0);
  EXPECT_FALSE(payload.empty());

  std::set<std::int64_t> traces;
  for (const SpanEvent& e : SpanCollector::instance().snapshot()) {
    traces.insert(e.trace_id);
  }
  ASSERT_EQ(traces.size(), 1u);
  const auto hops = by_hop(*traces.begin());
  ASSERT_EQ(hops.count(Hop::cp_poll), 1u);
  const SpanEvent root = hops.at(Hop::cp_poll)[0];
  ASSERT_EQ(hops.at(Hop::cp_send).size(), 1u);
  EXPECT_EQ(hops.at(Hop::cp_send)[0].parent_id, root.span_id);
  ASSERT_EQ(hops.at(Hop::cp_agent_apply).size(), 1u);
  EXPECT_EQ(hops.at(Hop::cp_agent_apply)[0].parent_id,
            hops.at(Hop::cp_send)[0].span_id);
}

TEST_F(TraceSessionTest, SamplingOffMeansZeroSpansAndZeroedFrames) {
  SpanCollector::instance().disable();
  make_session();
  ASSERT_TRUE(settle());

  session_->begin_txn();
  session_->add_rule("t", "*", "missing");
  session_->commit_txn();
  ASSERT_TRUE(settle());
  const std::string payload =
      session_->fetch_telemetry_delta_json(pump_, 0, 0);
  EXPECT_FALSE(payload.empty());

  EXPECT_TRUE(SpanCollector::instance().snapshot().empty());
}

TEST_F(TraceSessionTest, FaultHopsLandInTheCommandTrace) {
  // Session whose outbound link drops some sends: the injector's
  // fault decisions must appear inside the command's own trace.
  std::uint64_t dials = 0;
  auto connector = [this, &dials]() -> std::unique_ptr<Transport> {
    auto [near, far] = make_pipe(pump_, 64);
    agent_->attach(std::move(far));
    FaultProfile profile;
    profile.drop_prob = 0.2;
    // A fresh seed per dial, or every reconnect replays the same fault
    // sequence and the same resync frame is dropped forever.
    profile.seed = 9 + ++dials;
    return std::make_unique<FaultyTransport>(std::move(near), pump_,
                                             profile);
  };
  session_ = std::make_unique<EnclaveSession>(
      "faulted", connector, [this]() { return now_ns_; }, fast_config());

  // Keep issuing traced transactions until the injector drops one of
  // their frames (seeded, so this converges deterministically).
  const auto drop_count = []() {
    std::size_t n = 0;
    for (const SpanEvent& e : SpanCollector::instance().snapshot()) {
      if (e.hop == Hop::cp_fault_drop) ++n;
    }
    return n;
  };
  for (int i = 0;
       i < 20000 &&
       (drop_count() == 0 || session_->stats().txns_committed == 0);
       ++i) {
    if (i % 50 == 0 && session_->ready() && !session_->txn_open()) {
      session_->begin_txn();
      session_->commit_txn();
    }
    step_ms();
  }
  EXPECT_GT(session_->stats().txns_committed, 0u);

  std::size_t fault_hops = 0;
  for (const SpanEvent& e : SpanCollector::instance().snapshot()) {
    if (e.hop == Hop::cp_fault_drop) {
      ++fault_hops;
      EXPECT_NE(e.trace_id, 0);
      EXPECT_NE(e.parent_id, 0);  // parented under the cp_send span
    }
  }
  ASSERT_GT(fault_hops, 0u) << "no traced frame was ever dropped";
}

}  // namespace
}  // namespace eden::controlplane
