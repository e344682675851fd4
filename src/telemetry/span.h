// Cross-layer message lifecycle tracing.
//
// The paper's central mechanism is metadata travelling with a message
// down the whole host stack (stage -> host stack -> enclave -> NIC,
// Section 3.3). Spans piggyback on exactly that channel: a 64-bit trace
// id is allocated at stage classification time (sampled 1-in-N with the
// same per-thread countdown pacing the PR 2 instruments use), stored in
// `PacketMeta::trace_id`, and every layer that already touches the
// packet records a timestamped hop event when — and only when — the id
// is non-zero. The off cost is therefore one predictable branch per
// hop; with tracing disabled entirely no branch changes outcome and no
// shared state is touched.
//
// Events land in per-thread event lanes (event_lanes.h): each writer
// thread owns a fixed ring of kLaneCapacity events, with no locks.
// snapshot() merges the lanes into one timestamp-sorted vector; under
// concurrent writers it is a best-effort read of everything published
// so far (exact once writers are quiescent, which is how the exporters
// use it).
//
// Export is Chrome/Perfetto `trace_event` JSON (catapult format): each
// traced message becomes its own track (tid = trace id), queueing waits
// render as duration slices, point hops as instants. Load the output of
// `tools/eden-trace` (or the `get_spans` wire command) in
// https://ui.perfetto.dev.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/event_lanes.h"
#include "telemetry/metrics.h"

namespace eden::telemetry {

// One hop of a message's journey down (or off) the host stack — or,
// since the control plane learned to trace itself, one hop of a wire
// command's journey through the session layer. The cp_* values follow
// a controller-side operation (txn, resync, delta poll) across
// EnclaveSession, FaultyTransport and EnclaveAgent; they ride the same
// collector as the data-plane hops so one snapshot holds both worlds.
enum class Hop : std::uint8_t {
  stage_classify = 0,  // stage assigned classes/metadata to the message
  host_enqueue,        // packet entered the host stack's transmit path
  host_dequeue,        // packet left the post-enclave stack for the NIC
  tb_wait,             // time spent queued in a NIC token bucket
  enclave_match,       // enclave classified + matched the packet
  action_exec,         // action function ran (aux = action id)
  enclave_drop,        // action asked for the packet to be dropped
  nic_tx,              // packet handed to the wire
  nic_drop,            // packet dropped at the NIC layer
  // --- Control-plane hops (PR 8) -----------------------------------
  cp_txn_begin,        // controller opened a rule-set transaction
  cp_txn_commit,       // controller asked for the atomic publish
  cp_txn_abort,        // controller rolled the transaction back
  cp_send,             // request frame left the session (aux = req id)
  cp_response,         // response correlated; dur = request round trip
  cp_timeout,          // request timeout fired at the pipeline head
  cp_teardown,         // session tore the connection down
  cp_backoff,          // reconnect scheduled (aux = delay ns)
  cp_resync,           // journal replay issued (aux = command count)
  cp_poll,             // telemetry delta poll issued (aux = epoch)
  cp_agent_apply,      // agent decoded + applied (aux = wire opcode)
  cp_agent_publish,    // agent-side commit published an RCU snapshot
  cp_fault_drop,       // fault injector discarded the send
  cp_fault_delay,      // fault injector held the send back
  cp_fault_dup,        // fault injector duplicated the send
  cp_fault_truncate,   // fault injector cut the send short
  cp_fault_disconnect, // fault injector hard-closed the link
};
inline constexpr std::size_t kNumHops = 26;

// Version stamp of the span export format. 2 added span_id/parent_id
// causal links and the top-level field itself; consumers warn (never
// crash) on anything newer.
inline constexpr int kSpanSchemaVersion = 2;

const char* hop_name(Hop hop);

// One recorded event. dur_ns == 0 means a point event; dur_ns > 0 means
// a completed slice that *ended* at ts_ns (the renderer rewinds the
// start so waits display with their real extent). span_id/parent_id
// carry the causal tree within a trace: 0 means "unlinked" (data-plane
// hops, which are totally ordered by timestamp, never set them).
struct SpanEvent {
  std::int64_t trace_id = 0;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t aux = 0;  // hop-specific: bytes, action id, queue id, ...
  std::int64_t span_id = 0;    // this event's node in the causal tree
  std::int64_t parent_id = 0;  // span_id of the causing event (0 = root)
  Hop hop = Hop::stage_classify;
  std::uint8_t lane = 0;  // writer lane (diagnostic)
};

// Process-global span sink. Global on purpose: a trace crosses layers
// (stage, stack, enclave, NIC) that share nothing but the packet, so
// the collector is the one rendezvous point, exactly like a kernel
// trace buffer. All hot-path methods are safe to call from any thread.
class SpanCollector {
 public:
  using ClockFn = EventClockFn;

  static SpanCollector& instance();

  // Turns tracing on at 1-in-`sample_every` message sampling (0 turns
  // it off). Idempotent, so every enclave configured for spans can
  // (re)arm it.
  void enable(std::uint32_t sample_every) {
    sample_every_.store(sample_every, std::memory_order_relaxed);
  }
  void disable() { sample_every_.store(0, std::memory_order_relaxed); }
  bool enabled() const {
    return sample_every_.load(std::memory_order_relaxed) != 0;
  }
  std::uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  // Timestamps come from the process-wide event clock (metrics.h),
  // shared with the flight recorder.
  void set_clock(ClockFn fn, void* ctx) { set_event_clock(fn, ctx); }
  std::int64_t now_ns() const { return event_now_ns(); }

  // Unconditionally allocates a fresh trace id (never 0, never reused).
  std::int64_t start_trace() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  // Span ids share the trace-id allocator: both only need process-wide
  // uniqueness, and one counter means a controller-side dump and an
  // agent-side dump merged by eden-trace can never collide on either.
  std::int64_t next_span_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  // Paced allocation: every `sample_every()`-th call from each thread
  // returns a fresh id, all others return 0. This is the stage-side
  // sampling decision. Inline — the enclave calls it per packet, so the
  // common not-sampled path must stay a load, a TLS decrement and a
  // branch. Owns its countdown rather than using sample_1_in(): that
  // helper's per-thread state is shared across every call site, and the
  // enclave already paces its instruments with it.
  std::int64_t maybe_start_trace() {
    const std::uint32_t n = sample_every_.load(std::memory_order_relaxed);
    if (n == 0) return 0;
    thread_local std::uint32_t countdown = 1;
    if (--countdown != 0) return 0;
    countdown = n;
    return start_trace();
  }

  // Records one event on the calling thread's lane. Callers gate on
  // `trace_id != 0` themselves — that branch is the entire per-hop cost
  // for untraced packets.
  void record(std::int64_t trace_id, Hop hop, std::int64_t ts_ns,
              std::int64_t dur_ns = 0, std::int64_t aux = 0,
              std::int64_t span_id = 0, std::int64_t parent_id = 0);
  void record_now(std::int64_t trace_id, Hop hop, std::int64_t aux = 0) {
    record(trace_id, hop, now_ns(), 0, aux);
  }
  // Linked variant: allocates a span id, records the event as a child
  // of `parent_id` and returns the new span id (0 when untraced).
  std::int64_t record_linked(std::int64_t trace_id, Hop hop,
                             std::int64_t parent_id, std::int64_t ts_ns,
                             std::int64_t dur_ns = 0, std::int64_t aux = 0) {
    if (trace_id == 0) return 0;
    const std::int64_t span = next_span_id();
    record(trace_id, hop, ts_ns, dur_ns, aux, span, parent_id);
    return span;
  }

  // Merged, timestamp-sorted view of every lane (most recent
  // kLaneCapacity events per lane survive wraparound).
  std::vector<SpanEvent> snapshot() const;
  std::uint64_t total_recorded() const { return lanes_.total_recorded(); }
  // Events overwritten by ring wraparound.
  std::uint64_t overwritten() const { return lanes_.overwritten(); }

  // Drops all recorded events and resets the id allocator; keeps the
  // sampling/clock configuration. Test and bench scaffolding only.
  void reset() {
    lanes_.reset();
    next_id_.store(1, std::memory_order_relaxed);
  }

  // Events each writer thread's lane holds. A whole traced
  // control-plane recovery (the fleet soak's killed-agent story) needs
  // under 256.
  static constexpr std::size_t kLaneCapacity = 16384;

 private:
  SpanCollector() = default;

  std::atomic<std::uint32_t> sample_every_{0};
  std::atomic<std::int64_t> next_id_{1};
  EventLanes<SpanEvent> lanes_{kLaneCapacity};
};

// Renders events as Chrome `trace_event` JSON ({"traceEvents": [...]}).
// pid is 1 ("eden"), tid is the trace id, so Perfetto shows one track
// per traced message. Events with dur_ns > 0 become "X" complete slices
// (ts rewound to the start), others "i" instants. Causally-linked
// events carry "span"/"parent" args; the dump ends with a top-level
// "schema_version" so older readers of newer dumps warn instead of
// silently misparsing.
std::string to_trace_event_json(const std::vector<SpanEvent>& events);

}  // namespace eden::telemetry
