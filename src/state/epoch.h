// Epoch-based reclamation for the flow-state engine.
//
// The FlowStore hit path probes its hash table WITHOUT the shard lock:
// a reader loads the published table pointer, walks control bytes and
// slot pointers, and hands a raw Entry* to the action runtime. Writers
// (insert / resize / expiry / eviction) run under the shard lock and
// may unlink entries or swap whole tables while readers are mid-probe.
// Nothing unlinked may be FREED until every reader that could have
// observed it is gone — that is this domain's job. The enclave retires
// its rule snapshots through the same protocol, so one guard per
// data-path call covers the snapshot and every table entry the call
// touches.
//
// Protocol
//   * Readers wrap each traversal in a Guard. Enter pins the thread's
//     slot to the current global epoch (seq_cst store + fence); exit
//     clears it. Guards nest.
//   * Writers unlink an object under their shard lock, then stamp it
//     with `stamp_retire()` — the global epoch read under the domain
//     mutex — and park it on their own retire list.
//   * `reclaim_horizon()` bumps the global epoch (under the same
//     mutex) and returns min(pinned epochs); items stamped strictly
//     below the horizon are unreachable and may be freed.
//
// Why this is safe (sketch): suppose a reader still holds object X
// stamped at epoch e. If the reader's pin is ≥ e+1, its seq_cst load
// of the global epoch read a value stored by an advance that — being
// serialized behind the same mutex as X's stamping — happened after
// X was unlinked; the load synchronizes with that store, so the
// reader's probe would have seen the unlink and could not hold X.
// Hence any reader holding X is pinned at ≤ e, and `min(pinned) > e`
// proves X is free. Laggard readers simply hold the horizon down;
// they never cause a use-after-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace eden::state {

class EpochDomain {
 public:
  // One process-wide domain: pins are per-thread, not per-store, so a
  // single guard covers every store an action execution touches.
  static EpochDomain& instance();

  EpochDomain();
  ~EpochDomain();
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // RAII read-side critical section. Cheap: one seq_cst load + store
  // + fence on enter, a release store on exit. Re-entrant.
  class Guard {
   public:
    explicit Guard(EpochDomain& domain) : domain_(domain) {
      domain_.enter();
    }
    ~Guard() { domain_.exit(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochDomain& domain_;
  };

  // Stamps a just-unlinked object with the current epoch. The caller
  // keeps the object on its own retire list; the domain only hands
  // out epochs and horizons. Serialized with epoch advances.
  std::uint64_t stamp_retire();

  // Advances the global epoch and returns the reclamation horizon:
  // every object stamped with an epoch < horizon is unreachable from
  // any present or future guard and may be freed.
  std::uint64_t reclaim_horizon();

  // True if the calling thread currently holds a guard (diagnostics).
  bool pinned_here() const;

  // Number of thread slots ever handed out (test / telemetry aid).
  std::size_t slot_high_water() const;

  // Implementation details, public only so the thread-exit cleanup
  // record (file-local in epoch.cpp) can release slots.
  struct Slot;
  struct Impl;

 private:
  void enter();
  void exit();
  Slot* slot_for_thread();

  Impl* impl_;
};

}  // namespace eden::state
