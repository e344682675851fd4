// Output checks of the end-to-end benchmark.
//
// Every check compares what the program handed back against a model the
// benchmark computes itself from the inputs it generated and the
// configuration it pushed — never against a recorded copy of earlier
// output. Each check is a small value type so checks_test.cpp can feed it
// deliberately wrong inputs and assert that it fires.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace e2e {

// Collects check failures. The first few are kept verbatim for the
// report; the count covers all of them.
class CheckLog {
 public:
  void fail(const std::string& what) {
    ++failures_;
    if (messages_.size() < 8) messages_.push_back(what);
  }
  bool ok() const { return failures_ == 0; }
  std::uint64_t failures() const { return failures_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

// The {limit, priority} threshold table the benchmark pushes into PIAS
// and SFF: the priority of a byte count is that of the first limit it
// does not exceed, 0 past the last limit. An app-pinned priority < 1
// wins over the table.
struct ThresholdModel {
  std::vector<std::int64_t> limits;
  std::vector<std::int64_t> priorities;

  std::int64_t priority(std::int64_t bytes, std::int64_t pinned = 1) const {
    if (pinned < 1) return pinned;
    for (std::size_t i = 0; i < limits.size(); ++i) {
      if (bytes <= limits[i]) return priorities[i];
    }
    return 0;
  }
};

// Conservation: every offered packet comes back exactly once. Offered
// packets are numbered 0, 1, 2, ... and tracked in a ring of `capacity`
// slots (a power of two that bounds the packets in flight); the ring
// also carries the per-packet expectation `E` the workload's checks
// need on completion.
template <typename E>
class CompletionLedger {
 public:
  explicit CompletionLedger(std::size_t capacity_pow2)
      : mask_(capacity_pow2 - 1), ring_(capacity_pow2) {}

  bool full() const { return outstanding_ > mask_; }
  std::uint64_t outstanding() const { return outstanding_; }
  std::uint64_t offered() const { return next_; }
  std::uint64_t completed() const { return completed_; }

  // Registers the next packet; returns its sequence number.
  std::uint64_t offer(const E& expect) {
    Slot& s = ring_[next_ & mask_];
    s.seq = next_;
    s.pending = true;
    s.expect = expect;
    ++outstanding_;
    return next_++;
  }

  // Resolves a completion. Returns the expectation, or nullptr (after
  // logging) for a sequence number never offered or already completed.
  const E* complete(std::uint64_t seq, CheckLog& log) {
    if (seq >= next_) {
      log.fail("conservation: completion of never-offered packet " +
               std::to_string(seq));
      return nullptr;
    }
    Slot& s = ring_[seq & mask_];
    if (s.seq != seq || !s.pending) {
      log.fail("conservation: packet " + std::to_string(seq) +
               " completed twice");
      return nullptr;
    }
    s.pending = false;
    --outstanding_;
    ++completed_;
    return &s.expect;
  }

  // End of run: every offered packet either completed or was counted
  // as dropped by the program.
  void check_conserved(std::uint64_t counted_drops, CheckLog& log) const {
    if (completed_ + counted_drops != next_) {
      log.fail("conservation: offered " + std::to_string(next_) +
               ", completed " + std::to_string(completed_) + ", dropped " +
               std::to_string(counted_drops));
    }
  }

 private:
  struct Slot {
    std::uint64_t seq = ~std::uint64_t{0};
    bool pending = false;
    E expect{};
  };
  std::uint64_t mask_;
  std::vector<Slot> ring_;
  std::uint64_t next_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t completed_ = 0;
};

// Order: the completions of one message come back in submission order
// (the data plane's ordering contract). Packets carry their byte offset
// within the message; each completion must continue exactly where the
// previous one of the same message ended.
class MessageOrder {
 public:
  void complete(std::int64_t msg, std::uint64_t offset, std::uint64_t bytes,
                CheckLog& log) {
    std::uint64_t& next = next_[msg];
    if (offset != next) {
      log.fail("order: message " + std::to_string(msg) + " completed offset " +
               std::to_string(offset) + ", expected " + std::to_string(next));
    }
    next = offset + bytes;
  }
  // Forgets a message whose last packet has completed.
  void finish(std::int64_t msg) { next_.erase(msg); }
  std::size_t open() const { return next_.size(); }

 private:
  std::unordered_map<std::int64_t, std::uint64_t> next_;
};

inline void check_equal(const char* what, std::int64_t got, std::int64_t want,
                        CheckLog& log) {
  if (got != want) {
    log.fail(std::string(what) + ": got " + std::to_string(got) +
             ", expected " + std::to_string(want));
  }
}

// Counter: the serialized counter's globals equal the benchmark's own
// count of matched packets and bytes.
inline void check_counter(std::int64_t packets, std::int64_t bytes,
                          std::int64_t want_packets, std::int64_t want_bytes,
                          CheckLog& log) {
  check_equal("counter.packets", packets, want_packets, log);
  check_equal("counter.bytes", bytes, want_bytes, log);
}

// Pulsar: the packet went to its tenant's queue and was charged the
// operation size for a READ, its wire size otherwise.
struct PulsarModel {
  std::vector<std::int32_t> queue_of_tenant;
  std::int64_t read_type = 1;

  void check(std::int64_t tenant, std::int64_t msg_type, std::int64_t msg_size,
             std::uint32_t size_bytes, std::int32_t queue,
             std::uint32_t charge, CheckLog& log) const {
    const std::int32_t want_queue =
        tenant >= 0 &&
                static_cast<std::size_t>(tenant) < queue_of_tenant.size()
            ? queue_of_tenant[static_cast<std::size_t>(tenant)]
            : -1;
    check_equal("pulsar.queue", queue, want_queue, log);
    const std::int64_t want_charge =
        msg_type == read_type ? msg_size : static_cast<std::int64_t>(size_bytes);
    check_equal("pulsar.charge", charge, want_charge, log);
  }
};

// WCMP: labels must come from the destination's path set; packets sent
// after the last commit must split their labels within a binomial bound
// of the final weights (check_split, which assumes independent draws).
struct WcmpModel {
  // The destination's path set: labels first_label .. first_label+paths-1.
  std::int32_t first_label = 0;
  std::int32_t paths = 0;

  bool in_set(std::int32_t label) const {
    return label >= first_label && label < first_label + paths;
  }
  void check_label(std::int32_t label, CheckLog& log) const {
    if (!in_set(label)) {
      log.fail("wcmp: label " + std::to_string(label) +
               " outside the destination's path set");
    }
  }
  // counts[i] packets took label first_label + i; weights[i] /
  // sum(weights) is its final probability. Fires when any label is further than
  // `sigmas` binomial standard deviations (plus one packet) from its
  // expected count.
  static void check_split(const std::vector<std::uint64_t>& counts,
                          const std::vector<std::int64_t>& weights,
                          double sigmas, CheckLog& log) {
    std::uint64_t n = 0;
    std::int64_t wsum = 0;
    for (const std::uint64_t c : counts) n += c;
    for (const std::int64_t w : weights) wsum += w;
    if (counts.size() != weights.size() || wsum <= 0 || n == 0) {
      log.fail("wcmp: tail split has no samples or no weights");
      return;
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const double p = static_cast<double>(weights[i]) / static_cast<double>(wsum);
      const double mean = p * static_cast<double>(n);
      const double sd = std::sqrt(static_cast<double>(n) * p * (1.0 - p));
      if (std::fabs(static_cast<double>(counts[i]) - mean) > sigmas * sd + 1.0) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "wcmp: label #%zu took %llu of %llu packets, expected "
                      "%.1f +- %.1f",
                      i, static_cast<unsigned long long>(counts[i]),
                      static_cast<unsigned long long>(n), mean, sigmas * sd);
        log.fail(buf);
      }
    }
  }
};

// Flow completion (sim_fig9): a completed flow delivered exactly its
// size, and took no less than its bytes at line rate plus the one-way
// propagation delay (the model's TCP has no handshake, and completion
// is timed at the receiver when the last byte lands).
inline void check_flow(std::uint64_t delivered, std::uint64_t size,
                       std::int64_t fct_ns, std::uint64_t line_rate_bps,
                       std::int64_t one_way_ns, CheckLog& log) {
  if (delivered != size) {
    log.fail("flow: delivered " + std::to_string(delivered) + " of " +
             std::to_string(size) + " bytes");
  }
  const double floor_ns = static_cast<double>(size) * 8.0 * 1e9 /
                              static_cast<double>(line_rate_bps) +
                          static_cast<double>(one_way_ns);
  if (static_cast<double>(fct_ns) < floor_ns) {
    log.fail("flow: completion time " + std::to_string(fct_ns) +
             " ns below the physical floor " +
             std::to_string(static_cast<std::int64_t>(floor_ns)) + " ns");
  }
}

}  // namespace e2e
