// Fleet soak: an in-process farm of controller->enclave session stacks
// (controlplane/farm.h) polled by the TelemetryCollector over the
// streaming delta protocol, with FaultyTransport chaos, agent restarts
// and a killed agent along the way. The test asserts the collector's
// merged totals equal the farm-side ground truth exactly, that the
// dead agent is flagged stale (and degrades fleet health), and that
// restarted agents were re-synced in full — all without a poll cycle
// ever blocking on a dead slot.
//
// Sized by environment so the tier-1 run stays quick and CI can turn
// the same binary into the thousand-agent soak:
//   EDEN_FLEET_AGENTS  farm size            (default 64; CI: 1000)
//   EDEN_FLEET_ROUNDS  chaos poll cycles    (default 10)
//   EDEN_FLEET_SEED    fault/jitter seed    (default 1)
//   EDEN_FLEET_JSON    write the final fleet telemetry JSON here
//   EDEN_FLEET_HEALTH_JSON  write the health event log here
//   EDEN_FLEET_FLIGHT_JSON  write the flight-recorder dump here (also
//                           installs the crash handler on that path)
//   EDEN_FLEET_TRACE_JSON   write the span dump (Perfetto JSON) here
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "controlplane/farm.h"
#include "telemetry/collector.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/health.h"
#include "telemetry/json.h"
#include "telemetry/span.h"

namespace eden::controlplane {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

TEST(FleetSoak, DeltaPolledFleetMatchesGroundTruthUnderChaos) {
  const std::uint64_t agents = env_u64("EDEN_FLEET_AGENTS", 64);
  const std::uint64_t rounds = env_u64("EDEN_FLEET_ROUNDS", 10);
  const std::uint64_t seed = env_u64("EDEN_FLEET_SEED", 1);
  ASSERT_GE(agents, 4u);

  // The always-on postmortem journal: if this soak crashes, the crash
  // handler dumps the last moments of every slot to the artifact path.
  telemetry::FlightRecorder::instance().reset();
  if (const char* flight_path = std::getenv("EDEN_FLEET_FLIGHT_JSON")) {
    telemetry::FlightRecorder::install_crash_handler(flight_path);
  }

  FarmConfig farm_config;
  farm_config.agents = agents;
  farm_config.seed = seed;
  farm_config.chaos = true;
  AgentFarm farm(farm_config);
  farm.install_program();
  ASSERT_TRUE(farm.converge()) << "farm never converged after install";

  std::uint64_t now_ns = 0;
  telemetry::CollectorConfig collector_config;
  collector_config.threads = 4;
  collector_config.stale_after_ns = 4'000'000'000;
  telemetry::TelemetryCollector collector(collector_config,
                                          [&]() { return now_ns; });
  for (telemetry::CollectorSource& s : farm.sources()) {
    collector.add_source(std::move(s));
  }
  telemetry::HealthWatchdog watchdog;
  if (const char* flight_path = std::getenv("EDEN_FLEET_FLIGHT_JSON")) {
    // A critical fleet transition is exactly the moment a postmortem
    // wants the journal; snapshot it at the transition, not just at
    // exit.
    watchdog.set_critical_dump_path(flight_path);
  }

  const std::size_t restart_a = agents / 3;
  const std::size_t restart_b = (2 * agents) / 3;
  const std::size_t victim = agents - 1;

  // One poll cycle per virtual second; the fetches themselves drive
  // each slot's pump, the steps in between run heartbeats/reconnects.
  const auto cycle = [&]() {
    for (int k = 0; k < 40; ++k) farm.step_all();
    now_ns += 1'000'000'000;
    collector.poll();
    watchdog.evaluate(now_ns, collector);
  };

  for (std::uint64_t round = 1; round <= rounds; ++round) {
    for (std::size_t i = 0; i < farm.size(); ++i) {
      if (farm.killed(i)) continue;
      farm.drive(i, 20 + (i * 13 + round * 7) % 50);
      farm.set_host_series_value(i, "dataplane_ring_depth",
                                 static_cast<double>((i + round) % 96));
    }
    if (round == 5) farm.restart(restart_a);
    if (round == 7) farm.restart(restart_b);
    cycle();

    if (round == 3) {
      // Kill one agent — but only after a poll that captured all of
      // its traffic, so the collector's last-known snapshot is exact
      // and the ground-truth equality below stays provable. Chaos may
      // make that take a few cycles.
      bool captured =
          collector.status(victim).last_success_ns == now_ns;
      for (int attempt = 0; attempt < 50 && !captured; ++attempt) {
        cycle();
        captured = collector.status(victim).last_success_ns == now_ns;
      }
      ASSERT_TRUE(captured) << "victim never delivered a clean poll";
      farm.kill(victim);
    }
  }

  // Settle: chaos off (new dials get clean pipes), keep polling until
  // every live agent has reported successfully since its last drive.
  for (std::size_t i = 0; i < farm.size(); ++i) farm.set_chaos(i, false);
  const std::uint64_t settle_start_ns = now_ns;
  bool all_clean = false;
  for (int attempt = 0; attempt < 100 && !all_clean; ++attempt) {
    cycle();
    all_clean = true;
    for (std::size_t i = 0; i < farm.size(); ++i) {
      if (farm.killed(i)) continue;
      if (collector.status(i).last_success_ns <= settle_start_ns) {
        all_clean = false;
        break;
      }
    }
  }
  ASSERT_TRUE(all_clean) << "fleet never settled after chaos";

  // Ground truth: every packet the farm drove is in the merged view —
  // live agents reported after their last drive, the killed agent
  // contributes its exactly-captured final snapshot.
  EXPECT_EQ(collector.latest().packets, farm.driven_total());
  EXPECT_EQ(collector.latest().enclaves.size(), farm.size());

  // The dead agent is flagged, degrades health, and never blocked the
  // poll loop (every cycle completed and bumped the poll counter).
  EXPECT_TRUE(collector.status(victim).stale);
  EXPECT_FALSE(collector.status(victim).reachable);
  ASSERT_EQ(watchdog.agents().size(), farm.size());
  EXPECT_GE(watchdog.agents()[victim].state,
            telemetry::HealthState::degraded);
  EXPECT_GE(watchdog.fleet_state(), telemetry::HealthState::degraded);
  EXPECT_EQ(collector.polls(), now_ns / 1'000'000'000);

  // Restarted agents came back via a full epoch resync; steady state
  // ran on deltas.
  EXPECT_GE(collector.status(restart_a).full_resyncs, 2u);
  EXPECT_GE(collector.status(restart_b).full_resyncs, 2u);
  std::uint64_t deltas = 0;
  for (const telemetry::AgentStatus& st : collector.statuses()) {
    deltas += st.deltas_applied;
  }
  EXPECT_GT(deltas, 0u);

  if (const char* json_path = std::getenv("EDEN_FLEET_JSON")) {
    std::ofstream out(json_path);
    out << telemetry::to_json(collector.latest());
  }
  if (const char* health_path = std::getenv("EDEN_FLEET_HEALTH_JSON")) {
    std::ofstream out(health_path);
    out << watchdog.events_json();
  }
  if (const char* flight_path = std::getenv("EDEN_FLEET_FLIGHT_JSON")) {
    telemetry::FlightRecorder::instance().dump_to_file(flight_path);
  }
}

// Acceptance: killing an agent mid-transaction yields ONE causally
// linked trace spanning the whole recovery — txn begin, the staged
// sends, teardown, backoff, the folded resync on reconnect and its
// commit — plus a flight-recorder journal telling the same story.
TEST(FleetSoak, KilledAgentMidTxnIsOneTraceWithFlightDump) {
  telemetry::SpanCollector& spans = telemetry::SpanCollector::instance();
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::instance();
  spans.set_clock(nullptr, nullptr);
  spans.reset();
  spans.enable(1);
  flight.reset();

  FarmConfig farm_config;
  farm_config.agents = 8;
  farm_config.seed = 2;
  AgentFarm farm(farm_config);
  farm.install_program();
  ASSERT_TRUE(farm.converge());
  spans.reset();   // drop install/connect traces
  flight.reset();  // keep only the victim's story

  const std::size_t victim = 3;
  EnclaveSession& session = farm.session(victim);
  session.begin_txn();
  session.add_rule("t", "10.*", "mark");
  for (int k = 0; k < 5; ++k) farm.step_all();

  farm.kill(victim);
  session.commit_txn();  // rides the outage: folded into the resync
  for (int k = 0; k < 80; ++k) farm.step_all();
  farm.revive(victim);
  ASSERT_TRUE(farm.converge());
  EXPECT_GE(session.stats().txns_committed, 1u);

  // One trace, containing the full retry -> reconnect -> resync ->
  // commit chain, every parent link resolving within the trace.
  std::map<std::int64_t, std::vector<telemetry::SpanEvent>> by_trace;
  for (const telemetry::SpanEvent& e : spans.snapshot()) {
    by_trace[e.trace_id].push_back(e);
  }
  ASSERT_EQ(by_trace.size(), 1u) << "recovery split across traces";
  const std::vector<telemetry::SpanEvent>& events = by_trace.begin()->second;
  std::set<telemetry::Hop> hops;
  std::set<std::int64_t> span_ids;
  for (const telemetry::SpanEvent& e : events) {
    hops.insert(e.hop);
    if (e.span_id != 0) span_ids.insert(e.span_id);
  }
  for (const telemetry::Hop expected :
       {telemetry::Hop::cp_txn_begin, telemetry::Hop::cp_txn_commit,
        telemetry::Hop::cp_teardown, telemetry::Hop::cp_backoff,
        telemetry::Hop::cp_resync, telemetry::Hop::cp_send,
        telemetry::Hop::cp_agent_apply, telemetry::Hop::cp_agent_publish}) {
    EXPECT_EQ(hops.count(expected), 1u)
        << "missing hop " << telemetry::hop_name(expected);
  }
  for (const telemetry::SpanEvent& e : events) {
    if (e.parent_id != 0) {
      EXPECT_EQ(span_ids.count(e.parent_id), 1u)
          << "dangling parent link from " << telemetry::hop_name(e.hop);
    }
  }

  // The flight recorder journaled the same lifecycle, and its dump is
  // parseable JSON carrying those events.
  std::set<telemetry::FlightEventType> kinds;
  for (const telemetry::FlightEvent& e : flight.snapshot()) {
    kinds.insert(e.type);
  }
  for (const telemetry::FlightEventType expected :
       {telemetry::FlightEventType::txn_begin,
        telemetry::FlightEventType::txn_commit,
        telemetry::FlightEventType::agent_kill,
        telemetry::FlightEventType::agent_revive,
        telemetry::FlightEventType::session_teardown,
        telemetry::FlightEventType::session_backoff,
        telemetry::FlightEventType::resync}) {
    EXPECT_EQ(kinds.count(expected), 1u)
        << "missing flight event "
        << telemetry::flight_event_name(expected);
  }
  const telemetry::Json dump =
      telemetry::JsonParser(flight.dump_json()).parse();
  const telemetry::Json* dumped = dump.get("events");
  ASSERT_NE(dumped, nullptr);
  bool saw_kill = false;
  for (const telemetry::Json& e : dumped->items) {
    if (e.str("type") == "agent_kill") saw_kill = true;
  }
  EXPECT_TRUE(saw_kill);

  if (const char* trace_path = std::getenv("EDEN_FLEET_TRACE_JSON")) {
    std::ofstream out(trace_path);
    out << telemetry::to_trace_event_json(spans.snapshot());
  }

  spans.disable();
  spans.reset();
  flight.reset();
}

}  // namespace
}  // namespace eden::controlplane
