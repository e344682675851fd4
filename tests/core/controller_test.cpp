// Controller-side logic: compilation against the enclave schema,
// program distribution, and the control-plane computations (path
// weights, priority thresholds).
#include "core/controller.h"

#include <gtest/gtest.h>

#include "lang/source_loc.h"

namespace eden::core {
namespace {

constexpr std::uint64_t kGbps = 1000ULL * 1000 * 1000;

TEST(Controller, CompileUsesEnclaveSchema) {
  ClassRegistry registry;
  Controller controller(registry);
  const auto program = controller.compile(
      "t", "fun(p, m, g) -> p.priority <- (if p.size > 1000 then 1 else 7)",
      {});
  EXPECT_EQ(program.concurrency, lang::ConcurrencyMode::parallel);
  EXPECT_EQ(program.source_name, "t");
}

TEST(Controller, CompileRejectsUnknownGlobals) {
  ClassRegistry registry;
  Controller controller(registry);
  EXPECT_THROW(controller.compile("t", "fun(p, m, g) -> g.mystery", {}),
               lang::LangError);
}

TEST(Controller, InstallEverywhereShipsSerializedBytecode) {
  ClassRegistry registry;
  Controller controller(registry);
  Enclave os_enclave("os", registry);     // the OS enclave...
  Enclave nic_enclave("nic", registry);   // ...and the NIC enclave
  controller.register_enclave(os_enclave);
  controller.register_enclave(nic_enclave);

  const auto program =
      controller.compile("p5", "fun(p, m, g) -> p.priority <- 5", {});
  const auto ids = controller.install_everywhere(program, {});
  ASSERT_EQ(ids.size(), 2u);

  // The same bytecode behaves identically on both "platforms".
  for (Enclave* enclave : {&os_enclave, &nic_enclave}) {
    const TableId table = enclave->create_table("t");
    enclave->add_rule(table, ClassPattern("*"),
                      enclave == &os_enclave ? ids[0] : ids[1]);
    netsim::Packet packet;
    packet.size_bytes = 100;
    enclave->process(packet);
    EXPECT_EQ(packet.priority, 5) << enclave->name();
  }
}

TEST(Controller, StageLookupByName) {
  ClassRegistry registry;
  Controller controller(registry);
  Stage stage("s1", {"f"}, {}, registry);
  controller.register_stage(stage);
  EXPECT_EQ(controller.stage("s1"), &stage);
  EXPECT_EQ(controller.stage("nope"), nullptr);
}

TEST(Controller, WeightedPathsProportionalToBottleneck) {
  netsim::Network net;
  auto& h1 = net.add_host("h1");
  auto& h2 = net.add_host("h2");
  auto& a = net.add_switch("a");
  auto& b = net.add_switch("b");
  auto& c = net.add_switch("c");
  auto& d = net.add_switch("d");
  net.connect(h1, a, 20 * kGbps, 0);
  net.connect(a, b, 10 * kGbps, 0);
  net.connect(b, d, 10 * kGbps, 0);
  net.connect(a, c, 1 * kGbps, 0);
  net.connect(c, d, 1 * kGbps, 0);
  net.connect(d, h2, 20 * kGbps, 0);
  netsim::Routing routing(net);
  routing.install_all_paths();

  const auto paths = Controller::weighted_paths(routing, h1.id(), h2.id());
  ASSERT_EQ(paths.size(), 2u);
  std::int64_t total = 0;
  for (const auto& p : paths) total += p.weight;
  EXPECT_EQ(total, kWeightScale);  // exact, including rounding residue
  // 10:1 capacity ratio -> ~909 / ~91.
  EXPECT_NEAR(static_cast<double>(paths[0].weight), 909, 2);
  EXPECT_NEAR(static_cast<double>(paths[1].weight), 91, 2);
}

TEST(Controller, WeightedPathsEmptyWhenDisconnected) {
  netsim::Network net;
  net.add_host("h1");
  net.add_host("h2");
  netsim::Routing routing(net);
  routing.install_all_paths();
  EXPECT_TRUE(Controller::weighted_paths(routing, 0, 1).empty());
}

TEST(Controller, PriorityThresholdsAtQuantiles) {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t i = 1; i <= 900; ++i) sizes.push_back(i * 100);
  const auto thresholds = Controller::priority_thresholds(sizes, 3);
  ASSERT_EQ(thresholds.size(), 2u);
  // Thresholds near the 1/3 and 2/3 quantiles.
  EXPECT_NEAR(static_cast<double>(thresholds[0]), 30000, 300);
  EXPECT_NEAR(static_cast<double>(thresholds[1]), 60000, 600);
}

TEST(Controller, PriorityThresholdsStrictlyIncreasing) {
  // Heavy duplication would collapse quantiles without the fix-up.
  std::vector<std::uint64_t> sizes(1000, 5000);
  const auto thresholds = Controller::priority_thresholds(sizes, 4);
  ASSERT_EQ(thresholds.size(), 3u);
  EXPECT_LT(thresholds[0], thresholds[1]);
  EXPECT_LT(thresholds[1], thresholds[2]);
}

TEST(Controller, PriorityThresholdsDegenerateInputs) {
  EXPECT_TRUE(Controller::priority_thresholds({}, 3).empty());
  const std::vector<std::uint64_t> one{42};
  EXPECT_TRUE(Controller::priority_thresholds(one, 1).empty());
}

TEST(Controller, CollectTelemetrySkipsAndReportsUnreachableRemotes) {
  ClassRegistry registry;
  Controller controller(registry);
  Enclave local("local", registry);
  controller.register_enclave(local);
  netsim::Packet p;
  p.size_bytes = 100;
  local.process(p);

  // A healthy remote hands back a full dump for another enclave; a dead
  // session replies empty, a confused one replies garbage. The dead ones
  // must be reported, not take down the deployment-wide view.
  Enclave far("far", registry);
  far.process(p);
  far.process(p);
  controller.register_remote({"far",
                              [&far]() {
                                return telemetry::to_json(telemetry::aggregate(
                                    {far.telemetry_snapshot()}));
                              },
                              {},
                              {},
                              {}});
  controller.register_remote(
      {"dead", []() { return std::string{}; }, {}, {}, {}});
  controller.register_remote(
      {"garbled", []() { return std::string{"{]not json"}; }, {}, {}, {}});

  std::vector<std::string> unreachable;
  const telemetry::AggregateTelemetry agg =
      controller.collect_telemetry(&unreachable);
  ASSERT_EQ(unreachable.size(), 2u);
  EXPECT_EQ(unreachable[0], "dead");
  EXPECT_EQ(unreachable[1], "garbled");
  ASSERT_EQ(agg.enclaves.size(), 2u);
  EXPECT_EQ(agg.enclaves[0].enclave, "local");
  EXPECT_EQ(agg.enclaves[1].enclave, "far");
  EXPECT_EQ(agg.packets, 3u);  // 1 local + 2 merged from the remote
}

TEST(Controller, CollectSpansReportsUnreachableRemotes) {
  ClassRegistry registry;
  Controller controller(registry);
  controller.register_remote(
      {"mute", {}, []() { return std::string{}; }, {}, {}});

  std::vector<std::string> unreachable;
  const std::string trace = controller.collect_spans_json(&unreachable);
  EXPECT_NE(trace.find("traceEvents"), std::string::npos);
  ASSERT_EQ(unreachable.size(), 1u);
  EXPECT_EQ(unreachable[0], "mute");
}

TEST(Controller, CollectSpansCapsPerAgentAndMarksTruncation) {
  ClassRegistry registry;
  Controller controller(registry);
  // A remote whose trace dump holds five events, one with braces and a
  // bracket inside a string to try to confuse the scanner.
  const std::string remote_dump =
      R"({"traceEvents":[{"name":"a","args":{"x":1}},)"
      R"({"name":"b{}]tricky"},{"name":"c"},{"name":"d"},{"name":"e"}]})";
  controller.register_remote(
      {"busy", {}, [remote_dump]() { return remote_dump; }, {}, {}});

  std::vector<std::string> unreachable;
  const std::string capped =
      controller.collect_spans_json(&unreachable, /*max_spans_per_agent=*/2);
  EXPECT_TRUE(unreachable.empty());
  EXPECT_NE(capped.find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(capped.find("b{}]tricky"), std::string::npos);
  EXPECT_EQ(capped.find("\"name\":\"c\""), std::string::npos);
  EXPECT_EQ(capped.find("\"name\":\"e\""), std::string::npos);
  EXPECT_NE(capped.find("\"truncated\":true"), std::string::npos);

  // A cap wider than the dump keeps everything and adds no marker.
  const std::string uncapped =
      controller.collect_spans_json(&unreachable, /*max_spans_per_agent=*/50);
  EXPECT_NE(uncapped.find("\"name\":\"e\""), std::string::npos);
  EXPECT_EQ(uncapped.find("\"truncated\""), std::string::npos);
}

}  // namespace
}  // namespace eden::core
